import json
import re

import numpy as np
import pytest

from aeromon.config import default_config
from aeromon.dataset import CHANNELS, Dataset, Label, save_csv
from aeromon.errors import DataError, DomainError, NumericError, ShapeError
from aeromon.evaluation import (
    auroc,
    confusion,
    evaluate_model,
    feature_histograms,
    metrics,
)
from aeromon.pipeline import _OutputDir, stage_histogram


def _brute_force_auroc(scores, truth):
    pos = [s for s, t in zip(scores, truth) if t == 1]
    neg = [s for s, t in zip(scores, truth) if t == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestConfusion:
    def test_all_anomalous_correct(self):
        cm = confusion([1, 1, 1, 1], [1, 1, 1, 1])
        assert (cm["tp"], cm["fp"], cm["fn"], cm["tn"]) == (4, 0, 0, 0)

    def test_complement_predictions(self):
        cm = confusion([1, 0, 1, 0], [0, 1, 0, 1])
        assert cm["tp"] == 0 and cm["tn"] == 0
        assert cm["fp"] == 2 and cm["fn"] == 2

    def test_hand_tallied_mixed_case(self):
        pred = [1, 0, 1, 1, 0, 0, 1, 0]
        truth = [1, 1, 0, 1, 0, 1, 1, 0]
        # tally by hand: tp rows 0,3,6; fp row 2; fn rows 1,5; tn rows 4,7
        cm = confusion(pred, truth)
        assert (cm["tp"], cm["fp"], cm["fn"], cm["tn"]) == (3, 1, 2, 2)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            confusion([1, 0], [1])

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="cannot build a confusion matrix from zero samples"):
            confusion([], [])


class TestMetrics:
    def test_direct_formula_arithmetic(self):
        m = metrics({"tp": 90, "fp": 10, "fn": 20, "tn": 80})
        assert m["precision"] == pytest.approx(0.9)
        assert m["recall"] == pytest.approx(0.81818, abs=5e-6)
        assert m["f1"] == pytest.approx(0.85714, abs=5e-6)
        assert m["accuracy"] == pytest.approx(0.85)
        assert m["degenerate"] == []

    def test_reference_operating_point_is_self_consistent(self):
        # the comparison-table operating point used for the conditional
        # fleet-data check: precision 0.8181 and recall 0.8856 must combine
        # harmonically to 0.8505
        p, r = 0.8181, 0.8856
        f1 = 2 * p * r / (p + r)
        assert f1 == pytest.approx(0.8505, abs=5e-5)

    def test_zero_denominator_flags(self):
        m = metrics({"tp": 0, "fp": 0, "fn": 0, "tn": 5})
        assert m["precision"] == 0.0
        assert m["recall"] == 0.0
        assert m["f1"] == 0.0
        assert set(m["degenerate"]) == {"precision", "recall", "f1"}

    @pytest.mark.invariant
    def test_f1_bounded_by_precision_and_recall(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            cm = {
                "tp": rng.integers(50) + 1,
                "fp": rng.integers(50),
                "fn": rng.integers(50),
                "tn": rng.integers(50),
            }
            m = metrics(cm)
            if not m["degenerate"]:
                assert min(m["precision"], m["recall"]) - 1e-12 <= m["f1"] <= max(m["precision"], m["recall"]) + 1e-12

    @pytest.mark.invariant
    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pred = [rng.integers(2) for _ in range(60)]
        truth = [rng.integers(2) for _ in range(60)]
        base = metrics(confusion(pred, truth))
        order = list(range(60))
        rng.shuffle(order)
        shuffled = metrics(confusion([pred[i] for i in order], [truth[i] for i in order]))
        assert shuffled == base


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_exhaustive_pair_counting_example(self):
        # pairs: (0.9,0.5) ok, (0.9,0.1) ok, (0.4,0.5) wrong, (0.4,0.1) ok
        assert auroc([0.9, 0.4, 0.5, 0.1], [1, 1, 0, 0]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(NumericError, match="AUROC needs both classes present"):
            auroc([0.1, 0.2], [1, 1])

    @pytest.mark.invariant
    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            n = 5 + rng.integers(96)
            # coarse quantization forces plenty of exact ties
            scores = [rng.integers(12) / 4.0 for _ in range(n)]
            truth = [rng.integers(2) for _ in range(n)]
            if sum(truth) in (0, n):
                truth[0] = 1 - truth[0]
            assert auroc(scores, truth) == _brute_force_auroc(scores, truth)

    @pytest.mark.invariant
    def test_heavy_ties_match_brute_force(self):
        # two or three distinct scores over up to 400 samples: every rank is a
        # midrank of a long run, including runs at both ends of the order
        rng = np.random.default_rng(19)
        for trial in range(30):
            n = 2 + rng.integers(399)
            levels = 2 + trial % 2
            scores = [float(rng.integers(levels)) for _ in range(n)]
            truth = [rng.integers(2) for _ in range(n)]
            truth[0], truth[-1] = 0, 1
            assert auroc(scores, truth) == _brute_force_auroc(scores, truth)
        assert auroc([1.0] * 299 + [0.0], [0, 1] * 150) == _brute_force_auroc([1.0] * 299 + [0.0], [0, 1] * 150)

    @pytest.mark.invariant
    def test_negation_symmetry_for_tie_free_scores(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = 30
            scores = list({rng.random() for _ in range(2 * n)})[:n]
            truth = [rng.integers(2) for _ in range(len(scores))]
            if sum(truth) in (0, len(scores)):
                truth[0] = 1 - truth[0]
            a = auroc(scores, truth)
            b = auroc([-s for s in scores], truth)
            assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_matches_threshold_sweep_trapezoid(self):
        rng = np.random.default_rng(17)
        scores = [rng.random() for _ in range(200)]
        truth = [1 if rng.random() < 0.4 else 0 for _ in range(200)]
        thresholds = sorted(set(scores), reverse=True)
        n_pos = sum(truth)
        n_neg = len(truth) - n_pos
        points = [(0.0, 0.0)]
        for t in thresholds:
            tpr = sum(1 for s, y in zip(scores, truth) if y == 1 and s >= t) / n_pos
            fpr = sum(1 for s, y in zip(scores, truth) if y == 0 and s >= t) / n_neg
            points.append((fpr, tpr))
        points.append((1.0, 1.0))
        area = sum(
            (x2 - x1) * (y1 + y2) / 2.0 for (x1, y1), (x2, y2) in zip(points, points[1:])
        )
        assert auroc(scores, truth) == pytest.approx(area, abs=1e-12)


def _channel_bins(columns, channel, cls):
    """(left edges, right edges, counts) of one channel and class ("normal" or "anomalous")."""
    names, classes, index, left, right, counts = columns
    rows = (names == channel) & (classes == cls)
    assert np.array_equal(index[rows], np.arange(rows.sum()))
    return left[rows], right[rows], counts[rows]


class TestFeatureHistograms:
    def _toy(self):
        rng = np.random.default_rng(23)
        feats = np.array([[rng.uniform(0, 10) for _ in range(7)] for _ in range(400)])
        labels = np.array([rng.integers(2) for _ in range(400)], dtype=np.int8)
        # depress output torque for anomalous rows
        feats[labels == 1, CHANNELS.index("ot")] -= 6.0
        return Dataset(feats, labels)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError, match="^cannot histogram an empty dataset$"):
            feature_histograms(Dataset(np.zeros((0, 7)), np.zeros(0, dtype=np.int8)))

    def test_one_bin_rejected(self):
        with pytest.raises(DomainError, match="^need at least 2 bins$"):
            feature_histograms(self._toy(), bins=1)

    @pytest.mark.invariant
    def test_counts_conserved_per_class(self):
        ds = self._toy()
        columns = feature_histograms(ds, bins=20)
        assert set(columns[0]) == set(CHANNELS)
        for channel in CHANNELS:
            _, _, normal = _channel_bins(columns, channel, "normal")
            _, _, anomalous = _channel_bins(columns, channel, "anomalous")
            assert int(normal.sum()) == int((ds.labels == Label.NORMAL).sum())
            assert int(anomalous.sum()) == int((ds.labels == Label.ANOMALOUS).sum())

    def test_constant_channel_single_bin(self):
        feats = np.zeros((50, 7))
        rng = np.random.default_rng(1)
        feats[:, 1:] = np.array([[rng.random() for _ in range(6)] for _ in range(50)])
        labels = np.array([0, 1] * 25, dtype=np.int8)
        _, _, counts_normal = _channel_bins(feature_histograms(Dataset(feats, labels), bins=10), CHANNELS[0], "normal")
        assert counts_normal.sum() == 25
        assert (counts_normal > 0).sum() == 1

    def test_depressed_torque_shifts_left(self):
        ds = self._toy()
        columns = feature_histograms(ds, bins=30)
        left, right, counts_normal = _channel_bins(columns, "ot", "normal")
        left_a, right_a, counts_anomalous = _channel_bins(columns, "ot", "anomalous")
        assert np.array_equal(left, left_a) and np.array_equal(right, right_a)  # both classes share the bins
        centers = (left + right) / 2.0
        mean_normal = float((centers * counts_normal).sum() / counts_normal.sum())
        mean_anom = float((centers * counts_anomalous).sum() / counts_anomalous.sum())
        assert mean_anom < mean_normal

    def test_csv_lines_shape(self, tmp_path):
        save_csv(self._toy(), tmp_path / "data.csv")
        stage_histogram(default_config({"histogram_bins": 5}), _OutputDir(tmp_path))
        lines = (tmp_path / "histograms.csv").read_text().splitlines()
        assert lines[0] == "channel,class,bin_index,bin_left,bin_right,count"
        assert len(lines) == 1 + 7 * 2 * 5
        for line in lines[1:]:
            channel, cls, b, left, right, count = line.split(",")
            assert float(left) < float(right)  # plain parseable numbers
            assert int(count) >= 0


def _constant(label: int, score: float):
    """Batch decider giving every row the same label and score."""
    return lambda x: (np.full(len(x), label), np.full(len(x), score))


class TestEvaluateModel:
    def _test_set(self, n_normal=60, n_anom=40):
        rng = np.random.default_rng(31)
        feats = np.array([[rng.normal() for _ in range(7)] for _ in range(n_normal + n_anom)])
        labels = np.array([0] * n_normal + [1] * n_anom, dtype=np.int8)
        return Dataset(feats, labels)

    def test_perfect_decider(self):
        ds = self._test_set()
        truth = {tuple(row): int(l) for row, l in zip(ds.features, ds.labels)}

        def oracle(x):
            labels = np.array([truth[tuple(row)] for row in x])
            return labels, labels.astype(np.float64)

        m = evaluate_model(oracle, ds, "oracle")
        assert (m["precision"], m["recall"], m["f1"], m["accuracy"]) == (1.0, 1.0, 1.0, 1.0)

    def test_constant_normal_decider_on_imbalanced_set(self):
        ds = self._test_set(60, 40)
        report = evaluate_model(_constant(Label.NORMAL, 0.0), ds, "always-normal")
        assert report["accuracy"] == pytest.approx(0.6)
        assert report["recall"] == 0.0

    @pytest.mark.invariant
    def test_confusion_totals_match_test_size(self):
        ds = self._test_set()
        rng = np.random.default_rng(7)
        report = evaluate_model(
            lambda x: (np.array([rng.integers(2) for _ in x]), np.array([rng.random() for _ in x])),
            ds,
            "random",
        )
        assert sum(report["confusion"].values()) == ds.n

    def test_score_summaries_present(self):
        ds = self._test_set()
        report = evaluate_model(lambda x: (np.zeros(len(x)), x[:, 0]), ds, "scorer")
        assert set(report["scores"]) == {"normal", "anomalous"}
        summary = report["scores"]["normal"]
        assert summary["min"] <= summary["median"] <= summary["p85"] <= summary["max"]

    def test_report_dict_schema(self):
        ds = self._test_set()
        report = evaluate_model(_constant(Label.ANOMALOUS, 1.0), ds, "flagger")
        for key in ("model", "precision", "recall", "f1", "accuracy", "auroc", "confusion"):
            assert key in report
        assert set(report["confusion"]) == {"tp", "fp", "fn", "tn"}

        # the hand tally of TestConfusion, with integer scores:
        # anomalous rows 0,1,3,5,6 score 9,4,8,3,7; normal rows 2,4,7 score 6,0,2
        truth = np.array([1, 1, 0, 1, 0, 1, 1, 0], dtype=np.int8)
        pred = np.array([1, 0, 1, 1, 0, 0, 1, 0])
        scores = np.array([9.0, 4.0, 6.0, 8.0, 0.0, 3.0, 7.0, 2.0])
        r = evaluate_model(lambda x: (pred, scores), Dataset(np.zeros((8, 7)), truth), "hand")
        assert r == {
            "model": "hand",
            "precision": 0.75,  # 3 / (3 + 1)
            "recall": 0.6,  # 3 / (3 + 2)
            "f1": 2.0 * 0.75 * 0.6 / (0.75 + 0.6),
            "accuracy": 0.625,  # (3 + 2) / 8
            "auroc": 13 / 15,  # anomalous-over-normal pairs: 3 + 2 + 3 + 2 + 3 of 5 * 3
            "confusion": {"tp": 3, "fp": 1, "fn": 2, "tn": 2},
            "degenerate": [],
            # median and p85 are the sorted scores at ranks ceil(0.5 (n-1)) and ceil(0.85 (n-1))
            "scores": {
                "normal": {"min": 0.0, "median": 2.0, "p85": 6.0, "max": 6.0},
                "anomalous": {"min": 3.0, "median": 7.0, "p85": 9.0, "max": 9.0},
            },
        }
        # only plain Python values go into the report file
        assert r == json.loads(json.dumps(r, sort_keys=True, allow_nan=False))
        assert type(r["confusion"]["tp"]) is int and type(r["f1"]) is float

    def test_unlabeled_rejected(self):
        ds = Dataset(np.zeros((5, 7)))
        with pytest.raises(DataError, match="dataset has no labels"):
            evaluate_model(_constant(Label.NORMAL, 0.0), ds)

    def test_decider_called_once_with_whole_matrix(self):
        ds = self._test_set()
        seen = []

        def decider(x):
            seen.append(x.shape)
            return np.zeros(len(x)), np.zeros(len(x))

        evaluate_model(decider, ds, "once")
        assert seen == [ds.features.shape]

    def test_wrong_length_output_rejected(self):
        ds = self._test_set()
        with pytest.raises(ShapeError):
            evaluate_model(lambda x: (np.zeros(len(x) - 1), np.zeros(len(x))), ds)

    @pytest.mark.parametrize("shape", [(101,), (100, 1), ()])
    def test_wrong_shape_scores_rejected(self, shape):
        ds = self._test_set()  # 100 rows
        with pytest.raises(ShapeError, match=re.escape(f"decider returned scores of shape {shape}, expected (100,)")):
            evaluate_model(lambda x: (np.zeros(len(x)), np.zeros(shape)), ds)
