import json
import math
import warnings

import numpy as np
import pytest

from aeromon import anomaly
from aeromon.anomaly import (
    MAHALANOBIS_POLICY,
    MSE_POLICY,
    AnomalyScorer,
    ResidualStats,
    ThresholdPolicy,
    calibrate,
    classify,
    fit_residual_stats,
    load_scorer,
    residual,
    save_scorer,
    score_residuals,
)
from aeromon.autoencoder import (
    LayerSpec,
    Network,
    TrainConfig,
    default_autoencoder_specs,
    init_network,
    save_network,
    train,
)
from aeromon.config import default_config
from aeromon.dataset import (
    Dataset,
    Label,
    MinMaxScaler,
    SynthConfig,
    apply_scaler,
    fit_scaler,
    generate_synthetic,
    load_csv,
    save_csv,
    split,
)
from aeromon.errors import DataError, DomainError, NumericError, ShapeError
from aeromon.numerics import cholesky, order_statistic
from aeromon.pipeline import _OutputDir, stage_score

POLICIES = (MSE_POLICY, MAHALANOBIS_POLICY)


def _identity_net():
    return Network(np.concatenate([np.eye(7).ravel(), np.zeros(7)]), [LayerSpec(7, 7, "identity")])


def _zero_net():
    return Network(np.zeros(7 * 7 + 7), [LayerSpec(7, 7, "identity")])


@pytest.fixture(scope="module")
def trained():
    """One small trained pipeline shared by the scorer tests."""
    data = generate_synthetic(SynthConfig(n_samples=4000, seed=18))
    res = split(data, seed=18)
    scaler = fit_scaler(res["ae_train"])
    train_scaled = apply_scaler(scaler, res["ae_train"])
    val_scaled = apply_scaler(scaler, res["ae_val"])
    net, history = train(
        init_network(default_autoencoder_specs(), seed=18),
        train_scaled,
        val_scaled,
        TrainConfig(max_epochs=80, batch_size=128, seed=18),
    )
    return {
        "net": net,
        "history": history,
        "scaler": scaler,
        "ae_train": res["ae_train"],
        "train_scaled": train_scaled,
        "test": res["test"],
    }


class TestResidual:
    def test_perfect_reconstructor_zero_residual(self):
        x = np.linspace(0.1, 0.7, 7)[:, None]
        assert np.array_equal(residual(_identity_net(), x), np.zeros((7, 1)))

    def test_zero_network_negates_input(self):
        x = np.full((7, 1), 0.5)
        assert np.array_equal(residual(_zero_net(), x), -x)

    def test_batch_columns_equal_single_columns(self, trained):
        feats = trained["train_scaled"].features[:50].T
        batch = residual(trained["net"], feats)
        assert batch.shape == feats.shape
        for j in range(feats.shape[1]):
            assert np.array_equal(residual(trained["net"], feats[:, j : j + 1])[:, 0], batch[:, j])

    def test_trained_residual_matches_reported_error_scale(self, trained):
        feats = trained["train_scaled"].features
        per_sample = score_residuals(None, residual(trained["net"], feats.T))
        final_train_mse = trained["history"][-1][0]
        assert per_sample.mean() < 3.0 * final_train_mse
        assert per_sample.mean() > final_train_mse / 3.0


class TestScoreMse:
    def test_perfect_reconstruction_scores_zero(self):
        assert score_residuals(None, residual(_identity_net(), np.full((7, 1), 0.3))).tolist() == [0.0]

    def test_equals_residual_mse_against_zero(self, trained):
        x = trained["train_scaled"].features[3:4].T
        r = residual(trained["net"], x)
        assert score_residuals(None, r)[0] == pytest.approx(float(np.mean(r * r)), abs=1e-15)

    def test_mean_score_matches_plain_loop_recompute(self, trained):
        # independent oracle: pure-Python accumulation, no vectorized loss
        net = trained["net"]
        feats = trained["train_scaled"].features
        mean_score = float(np.mean(score_residuals(None, residual(net, feats.T))))
        total = 0.0
        for row in feats:
            out = row
            for w, b, spec in zip(net.weights, net.biases, net.specs):
                z = [sum(w[i][j] * out[j] for j in range(len(out))) + b[i] for i in range(len(b))]
                if spec.activation == "elu":
                    out = [v if v > 0 else math.exp(v) - 1.0 for v in z]
                else:
                    out = z
            total += sum((o - xj) ** 2 for o, xj in zip(out, row)) / len(row)
        assert mean_score == pytest.approx(total / feats.shape[0], abs=1e-9)


class TestResidualStats:
    def test_identical_residuals_degenerate(self):
        # identical residuals give a (numerically) zero covariance; the caller
        # sees either the degeneracy error or a pure-jitter factor
        feats = np.tile(np.linspace(0.1, 0.7, 7), (20, 1))
        try:
            stats = fit_residual_stats(residual(_zero_net(), feats.T).T)
        except NumericError as exc:  # not a ShapeError or any other numeric failure
            assert str(exc).startswith("covariance is not positive definite")
            return
        assert stats.chol.jitter > 0.0
        assert np.abs(stats.cov).max() < 1e-20

    def test_exactly_zero_covariance_is_an_error(self):
        # all-zero features make the residual covariance exactly zero, which
        # cannot be rescued by jitter (non-positive trace)
        feats = np.zeros((20, 7))
        with pytest.raises(NumericError, match="^covariance is not positive definite: its trace is not positive$"):
            fit_residual_stats(residual(_zero_net(), feats.T).T)

    def test_minimum_sample_count(self):
        feats = np.random.default_rng(0).random((5, 7))
        with pytest.raises(DataError, match="residual statistics need >= 8 samples, got 5"):
            fit_residual_stats(residual(_zero_net(), feats.T).T)

    def test_recovers_generator_covariance(self):
        # zero net: residual = -x, so residual covariance equals data covariance
        rng = np.random.default_rng(55)
        sigmas = np.array([0.5, 1.0, 1.5, 2.0, 0.8, 1.2, 0.3])
        feats = np.array([[rng.normal(0.0, s) for s in sigmas] for _ in range(10_000)])
        stats = fit_residual_stats(residual(_zero_net(), feats.T).T)
        recovered = np.diag(stats.cov)
        assert np.abs(recovered - sigmas**2).max() / (sigmas**2).max() < 0.10
        off = stats.cov - np.diag(np.diag(stats.cov))
        assert np.abs(off).max() < 0.10 * (sigmas**2).max()

    def test_deterministic(self, trained):
        a = fit_residual_stats(residual(trained["net"], trained["train_scaled"].features.T).T)
        b = fit_residual_stats(residual(trained["net"], trained["train_scaled"].features.T).T)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.chol.lower, b.chol.lower)
        assert a.n_fit == b.n_fit == trained["train_scaled"].n


class TestScoreMahalanobis:
    def _stats(self, cov, mean=None):
        cov = np.asarray(cov, dtype=np.float64)
        mean = np.zeros(cov.shape[0]) if mean is None else np.asarray(mean, dtype=np.float64)
        return ResidualStats(mean=mean, cov=cov, chol=cholesky(cov), n_fit=10)

    def test_zero_at_the_mean(self):
        stats = self._stats(np.eye(3), mean=[0.2, -0.1, 0.4])
        assert score_residuals(stats, np.array([[0.2], [-0.1], [0.4]])).tolist() == [0.0]

    def test_diagonal_two_dim_rig(self):
        stats = self._stats([[4.0, 0.0], [0.0, 1.0]])
        assert score_residuals(stats, np.array([[2.0], [1.0]]))[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    @pytest.mark.invariant
    def test_identity_covariance_is_euclidean_norm(self):
        rng = np.random.default_rng(91)
        stats = self._stats(np.eye(7))
        for _ in range(50):
            r = np.array([rng.normal() for _ in range(7)])
            assert score_residuals(stats, r[:, None])[0] == pytest.approx(float(np.linalg.norm(r)), abs=1e-10)

    def test_centered_before_whitening(self):
        mean = np.array([1.0, 1.0])
        stats = self._stats(np.eye(2), mean=mean)
        assert score_residuals(stats, np.array([[1.0], [2.0]]))[0] == pytest.approx(1.0, abs=1e-12)


class TestCalibrationThreshold:
    def test_max_percentile_flags_nothing(self):
        rng = np.random.default_rng(8)
        scores = [rng.random() for _ in range(500)]
        threshold = order_statistic(scores, 100.0)
        assert threshold == max(scores)
        assert sum(1 for s in scores if s > threshold) == 0

    @pytest.mark.invariant
    def test_monotone_in_percentile(self):
        rng = np.random.default_rng(14)
        scores = [rng.random() for _ in range(777)]
        thresholds = [order_statistic(scores, p) for p in (50.0, 75.0, 85.0, 95.0, 99.0)]
        assert thresholds == sorted(thresholds)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(15)
        scores = [rng.random() for _ in range(321)]
        shuffled = list(scores)
        rng.shuffle(shuffled)
        assert order_statistic(scores, 85.0) == order_statistic(shuffled, 85.0)

    @pytest.mark.invariant
    def test_strictly_above_fraction_band(self):
        # tie-free scores: flagged fraction floor(0.15*(n-1))/n sits in
        # [0.15 - 2/n, 0.15] for every n, including awkward residues mod 20
        rng = np.random.default_rng(16)
        for n in (1000, 1001, 1002, 1003, 1007, 1024, 2000, 4999, 20000):
            scores = [rng.random() for _ in range(n)]
            t = order_statistic(scores, 85.0)
            frac = sum(1 for s in scores if s > t) / n
            assert 0.15 - 2.0 / n <= frac <= 0.15


class TestCalibrate:
    @pytest.mark.invariant
    def test_flagged_fraction_band_both_policies(self, trained):
        n = trained["ae_train"].n
        assert n >= 1000
        for kind in (MSE_POLICY, MAHALANOBIS_POLICY):
            scorer = calibrate(trained["net"], trained["scaler"], trained["ae_train"], ThresholdPolicy(kind, 85.0))
            flagged = int(classify(scorer, trained["ae_train"].features)[0].sum())
            assert 0.15 - 2.0 / n <= flagged / n <= 0.15

    def test_threshold_invariant_under_row_permutation(self, trained):
        policy = ThresholdPolicy(MSE_POLICY, 85.0)
        base = calibrate(trained["net"], trained["scaler"], trained["ae_train"], policy)
        order = list(range(trained["ae_train"].n))
        np.random.default_rng(4).shuffle(order)
        permuted = trained["ae_train"].subset(order)
        again = calibrate(trained["net"], trained["scaler"], permuted, policy)
        assert base.threshold == again.threshold

    def test_policy_validation(self):
        with pytest.raises(DomainError):
            ThresholdPolicy("zscore", 85.0)
        with pytest.raises(DomainError):
            ThresholdPolicy(MSE_POLICY, 0.0)
        with pytest.raises(DomainError):
            ThresholdPolicy(MSE_POLICY, 100.0)

    def test_stats_requirement_matches_policy(self, trained):
        scorer = calibrate(trained["net"], trained["scaler"], trained["ae_train"], ThresholdPolicy(MSE_POLICY))
        assert scorer.stats is None
        with pytest.raises(DomainError):
            AnomalyScorer(
                net=scorer.net,
                scaler=scorer.scaler,
                policy=ThresholdPolicy(MAHALANOBIS_POLICY),
                threshold=scorer.threshold,
                stats=None,
            )


class TestClassify:
    def test_score_exactly_at_threshold_is_normal(self, trained):
        scorer = calibrate(trained["net"], trained["scaler"], trained["ae_train"], ThresholdPolicy(MSE_POLICY, 85.0))
        # the threshold is an order statistic of the calibration scores, so
        # some training sample scores exactly at it
        feats = trained["ae_train"].features
        at_threshold = feats[classify(scorer, feats)[1] == scorer.threshold]
        assert len(at_threshold)
        for row in at_threshold:
            labels, scores = classify(scorer, row[None])
            assert labels.tolist() == [Label.NORMAL]
            assert scores[0] == scorer.threshold

    def test_train_samples_at_or_below_threshold_are_normal(self, trained):
        scorer = calibrate(trained["net"], trained["scaler"], trained["ae_train"], ThresholdPolicy(MSE_POLICY, 85.0))
        labels, scores = classify(scorer, trained["ae_train"].features[:200])
        assert (scores <= scorer.threshold).any()
        assert not labels[scores <= scorer.threshold].any()

    def test_severe_fault_flagged(self, trained):
        scorer = calibrate(
            trained["net"], trained["scaler"], trained["ae_train"], ThresholdPolicy(MAHALANOBIS_POLICY, 85.0)
        )
        healthy = trained["ae_train"].features[0].copy()
        faulted = healthy.copy()
        faulted[-1] -= 200.0  # torque collapse far beyond the healthy margin
        labels, _ = classify(scorer, faulted[None])
        assert labels.tolist() == [Label.ANOMALOUS]

    @pytest.mark.invariant
    def test_classify_is_pure(self, trained):
        scorer = calibrate(
            trained["net"], trained["scaler"], trained["ae_train"], ThresholdPolicy(MAHALANOBIS_POLICY, 85.0)
        )
        row = trained["test"].features[5:6]
        first = classify(scorer, row)
        for _ in range(5):
            again = classify(scorer, row)
            assert again[0].tobytes() == first[0].tobytes()
            assert again[1].tobytes() == first[1].tobytes()

    def test_mahalanobis_recall_not_far_below_mse(self, trained):
        # soft expectation: covariance-aware scoring should not lose recall;
        # logged as a warning rather than failing the suite
        recalls = {}
        for kind in (MSE_POLICY, MAHALANOBIS_POLICY):
            scorer = calibrate(trained["net"], trained["scaler"], trained["ae_train"], ThresholdPolicy(kind, 85.0))
            test = trained["test"]
            hits = int(classify(scorer, test.features)[0][test.labels == 1].sum())
            recalls[kind] = hits / max(1, int((test.labels == 1).sum()))
        if recalls[MAHALANOBIS_POLICY] < recalls[MSE_POLICY] - 0.02:
            warnings.warn(
                f"mahalanobis recall {recalls[MAHALANOBIS_POLICY]:.3f} trails "
                f"mse recall {recalls[MSE_POLICY]:.3f} by more than 0.02"
            )


class TestScorerSerialization:
    def test_round_trip_bit_identical(self, tmp_path, trained):
        for kind in (MSE_POLICY, MAHALANOBIS_POLICY):
            scorer = calibrate(trained["net"], trained["scaler"], trained["ae_train"], ThresholdPolicy(kind, 85.0))
            save_scorer(scorer, tmp_path / f"scorer_{kind}.json")
            back = load_scorer(tmp_path / f"scorer_{kind}.json", scorer.net)
            assert back.threshold == scorer.threshold
            assert back.policy == scorer.policy
            feats = trained["test"].features[:25]
            assert classify(back, feats)[1].tobytes() == classify(scorer, feats)[1].tobytes()

    def test_other_network_rejected(self, tmp_path, trained):
        scorer = calibrate(trained["net"], trained["scaler"], trained["ae_train"], ThresholdPolicy(MSE_POLICY, 85.0))
        save_scorer(scorer, tmp_path / "scorer.json")
        other = scorer.net.clone()
        other.params[0] = np.nextafter(other.params[0], np.inf)  # one ulp moves the digest
        with pytest.raises(DataError, match="calibrated on another network"):
            load_scorer(tmp_path / "scorer.json", other)

    def test_residual_jitter_recorded(self, tmp_path):
        # zero net and identity scaler: the residual is -x. Channels 0 and 1 are
        # equal with unit variance, exactly in floating point, so the residual
        # covariance is singular and factors only with jitter
        feats = np.random.default_rng(3).random((17, 7))
        feats[:, 0] = feats[:, 1] = [1.0] * 8 + [-1.0] * 8 + [0.0]
        data, scaler = Dataset(feats), MinMaxScaler(np.zeros(7), np.ones(7))
        written = {}
        for kind in POLICIES:
            scorer = calibrate(_zero_net(), scaler, data, ThresholdPolicy(kind, 85.0))
            save_scorer(scorer, tmp_path / "scorer.json")
            written[kind] = json.loads((tmp_path / "scorer.json").read_text())["residual_jitter"]
        assert written[MSE_POLICY] is None
        assert written[MAHALANOBIS_POLICY] == scorer.stats.chol.jitter > 0.0


class TestBatchScoring:
    """One kernel scores every batch: a row's score never depends on the
    batch it arrives in, so calibration, `score`, `evaluate` and `classify`
    agree bit for bit."""

    def _scorer(self, trained, kind):
        return calibrate(trained["net"], trained["scaler"], trained["ae_train"], ThresholdPolicy(kind, 85.0))

    @pytest.mark.invariant
    def test_row_alone_equals_row_in_any_batch(self, trained, monkeypatch):
        feats = trained["test"].features
        order = list(range(len(feats)))
        np.random.default_rng(12).shuffle(order)
        order = order[: len(feats) - 37]  # a shuffled batch of another size
        for kind in POLICIES:
            scorer = self._scorer(trained, kind)
            full = classify(scorer, feats)[1]
            alone = np.array([classify(scorer, row[None])[1][0] for row in feats])
            assert alone.tobytes() == full.tobytes()
            assert classify(scorer, feats[order])[1].tobytes() == full[order].tobytes()
            with monkeypatch.context() as m:
                m.setattr(anomaly, "SCORE_BLOCK_ROWS", 7)  # many blocks, a short last one
                assert classify(scorer, feats)[1].tobytes() == full.tobytes()

    def test_non_contiguous_input_scores_like_its_contiguous_copy(self, trained):
        feats = trained["test"].features
        for kind in POLICIES:
            scorer = self._scorer(trained, kind)
            for view in (feats[::2], np.asfortranarray(feats)):
                assert not view.flags.c_contiguous
                expected = classify(scorer, np.ascontiguousarray(view))
                got = classify(scorer, view)
                assert got[0].tobytes() == expected[0].tobytes() and got[1].tobytes() == expected[1].tobytes()

    def test_matrix_classify_matches_row_classify(self, trained):
        feats = trained["test"].features
        for kind in POLICIES:
            scorer = self._scorer(trained, kind)
            labels, scores = classify(scorer, feats)
            assert labels.tolist() == (scores > scorer.threshold).tolist()
            assert [int(classify(scorer, row[None])[0][0]) for row in feats] == labels.tolist()

    def test_calibration_scores_equal_one_row_scores(self, trained, monkeypatch):
        seen = []
        real = anomaly.order_statistic
        monkeypatch.setattr(anomaly, "order_statistic", lambda s, p: seen.append(np.array(s)) or real(s, p))
        for kind in POLICIES:
            scorer = self._scorer(trained, kind)
            alone = np.array([classify(scorer, row[None])[1][0] for row in trained["ae_train"].features])
            assert seen[-1].tobytes() == alone.tobytes()

    def test_calibration_runs_the_network_once_per_row(self, trained, monkeypatch):
        rows = []
        real = anomaly.forward_rows
        monkeypatch.setattr(anomaly, "forward_rows", lambda net, x: rows.append(x.shape[1]) or real(net, x))
        for kind in POLICIES:
            rows.clear()
            self._scorer(trained, kind)
            assert sum(rows) == trained["ae_train"].n

    def test_scores_csv_rows_equal_classify(self, trained, tmp_path):
        for kind in POLICIES:
            out = _OutputDir(tmp_path / kind)
            scorer = self._scorer(trained, kind)
            save_network(scorer.net, out.file("model_ae.json"))
            save_scorer(scorer, out.file("scorer.json"))
            save_csv(trained["test"], out.file("test_features.csv"), include_labels=False)
            stage_score(default_config(), out)
            feats = load_csv(out.file("test_features.csv"), has_labels=False).features
            lines = out.file("scores.csv").read_text(encoding="utf-8").splitlines()
            assert lines[0] == "index,score,decision"
            assert len(lines) == 1 + len(feats)
            for i, line in enumerate(lines[1:]):
                labels, scores = classify(scorer, feats[i : i + 1])
                assert line == f"{i},{float(scores[0])!r},{int(labels[0])}"

    def test_non_finite_samples_rejected(self, trained):
        good = trained["test"].features[:4]
        for kind in POLICIES:
            scorer = self._scorer(trained, kind)
            for bad in (np.nan, np.inf, -np.inf):
                row = good[0].copy()
                row[3] = bad
                batch = good.copy()
                batch[2, 0] = bad
                for fn, x in ((classify, row[None]), (classify, np.full((1, 7), bad)), (classify, batch)):
                    with pytest.raises(DomainError):
                        fn(scorer, x)

    def test_one_sample_vector_rejected(self, trained):
        scorer = self._scorer(trained, MAHALANOBIS_POLICY)
        row = trained["test"].features[0]
        with pytest.raises(ShapeError):
            classify(scorer, row)
        assert classify(scorer, row[None])[1].shape == (1,)
