"""Release gate: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 5 (real-fleet reproduction) is conditional: it runs only when
AEROMON_PHM_CSV points at the prepared labelled telemetry CSV, and the suite
passes without it.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from aeromon.anomaly import (
    MAHALANOBIS_POLICY,
    MSE_POLICY,
    ThresholdPolicy,
    calibrate,
    classify,
)
from aeromon.autoencoder import default_autoencoder_specs, forward, init_network, load_network, mse_loss
from aeromon.baselines import ClassifierConfig, predict, train_classifier
from aeromon.config import default_config, resolve_config
from aeromon.dataset import Dataset, MinMaxScaler, load_csv
from aeromon.evaluation import auroc, confusion, metrics
from aeromon.numerics import order_statistic
from aeromon.pipeline import run_pipeline

ACCEPTANCE_SEED = 7


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    return ok


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    """One acceptance-scale pipeline run (n=20000, defaults, seed 7)."""
    out = tmp_path_factory.mktemp("acceptance_run")
    cfg = default_config({"seed": ACCEPTANCE_SEED, "out_dir": str(out)})
    started = time.perf_counter()
    manifest = run_pipeline(cfg, quiet=True)
    elapsed = time.perf_counter() - started
    return {"out": out, "cfg": cfg, "manifest": manifest, "elapsed": elapsed}


def _central_difference_grads(net, x, h=1e-5):
    grads = np.zeros_like(net.params)
    for i in range(net.params.size):
        orig = net.params[i]
        net.params[i] = orig + h
        lp = mse_loss(x, forward(net, x)[0])
        net.params[i] = orig - h
        lm = mse_loss(x, forward(net, x)[0])
        net.params[i] = orig
        grads[i] = (lp - lm) / (2.0 * h)
    return grads


class TestCriterion1Gradients:
    def test_gradient_correctness(self):
        from aeromon.autoencoder import backward

        started = time.perf_counter()
        worst = 0.0
        for trial in range(25):
            net = init_network(default_autoencoder_specs(), seed=5000 + trial)
            rng = np.random.default_rng(6000 + trial)
            x = np.array([[rng.random()] for _ in range(7)])  # a channel-major batch (7, 1) of one sample
            _, cache = forward(net, x)
            analytic = backward(net, cache, x)
            numeric = _central_difference_grads(net, x)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            worst = max(worst, float((np.abs(analytic - numeric) / denom).max()))
        elapsed = time.perf_counter() - started
        ok = worst < 1e-4 and elapsed < 5.0
        assert _report(1, "gradient matches central differences", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
        assert worst < 1e-4
        assert elapsed < 5.0


class TestCriterion2Oracles:
    def test_oracle_equivalence(self):
        started = time.perf_counter()
        rng = np.random.default_rng(321)

        # AUROC vs brute-force pair counting, half credit for ties
        auroc_exact = True
        for _ in range(200):
            n = 4 + rng.integers(57)
            scores = [rng.integers(10) / 3.0 for _ in range(n)]
            truth = [rng.integers(2) for _ in range(n)]
            if sum(truth) in (0, n):
                truth[0] = 1 - truth[0]
            pos = [s for s, t in zip(scores, truth) if t == 1]
            neg = [s for s, t in zip(scores, truth) if t == 0]
            brute = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
            auroc_exact &= auroc(scores, truth) == brute / (len(pos) * len(neg))

        # k-NN vs brute-force all-pairs scan with the index tie rule
        knn_exact = True
        feats = np.array([[rng.integers(8) / 2.0 for _ in range(3)] for _ in range(200)])
        labels = np.array([rng.integers(2) for _ in range(200)], dtype=np.int8)
        ds = Dataset(feats, labels)
        for k in (1, 3, 5, 7):
            model = train_classifier(ClassifierConfig("knn", k=k), ds, seed=0)
            for _ in range(30):
                q = np.array([rng.integers(8) / 2.0 for _ in range(3)])
                ranked = sorted(
                    (sum((a - b) ** 2 for a, b in zip(row, q)), i) for i, row in enumerate(feats)
                )
                expected = sum(labels[i] for _, i in ranked[:k]) / k
                knn_exact &= predict(model, q[None])[1][0] == expected

        # metrics vs hand-tallied confusion matrices
        metrics_exact = True
        tallies = [
            ([1, 0, 1, 1, 0, 0, 1, 0], [1, 1, 0, 1, 0, 1, 1, 0], (3, 1, 2, 2)),
            ([1, 1, 1], [1, 1, 1], (3, 0, 0, 0)),
            ([0, 0, 1, 1], [1, 1, 0, 0], (0, 2, 2, 0)),
        ]
        for pred, truth, (tp, fp, fn, tn) in tallies:
            cm = confusion(pred, truth)
            metrics_exact &= (cm["tp"], cm["fp"], cm["fn"], cm["tn"]) == (tp, fp, fn, tn)
            m = metrics(cm)
            expected_precision = tp / (tp + fp) if tp + fp else 0.0
            expected_recall = tp / (tp + fn) if tp + fn else 0.0
            if expected_precision + expected_recall:
                expected_f1 = 2 * expected_precision * expected_recall / (expected_precision + expected_recall)
            else:
                expected_f1 = 0.0
            expected_prf = (expected_precision, expected_recall, expected_f1)
            metrics_exact &= (m["precision"], m["recall"], m["f1"]) == expected_prf
            metrics_exact &= m["accuracy"] == (tp + tn) / (tp + fp + fn + tn)

        elapsed = time.perf_counter() - started
        ok = auroc_exact and knn_exact and metrics_exact and elapsed < 10.0
        assert _report(
            2,
            "auroc/knn/metrics equal brute-force oracles",
            ok,
            f"{elapsed:.1f}s",
        )
        assert auroc_exact and knn_exact and metrics_exact
        assert elapsed < 10.0


class TestCriterion3Calibration:
    def test_flagged_fraction_band(self, full_run):
        # raw score lists across awkward n residues (tie-free by construction)
        rng = np.random.default_rng(98)
        sweep_ok = True
        for n in (1000, 1001, 1002, 1003, 1006, 1007, 1013, 1024, 2000, 5000, 20000):
            scores = [rng.random() for _ in range(n)]
            t = order_statistic(scores, 85.0)
            frac = sum(1 for s in scores if s > t) / n
            sweep_ok &= 0.15 - 2.0 / n <= frac <= 0.15

        # the real pipeline calibration set, both policies, via one classify() batch
        out = full_run["out"]
        net = load_network(out / "model_ae.json")
        scaler = MinMaxScaler.from_dict(json.loads((out / "scaler_ae.json").read_text()))
        ae_train = load_csv(out / "ae_train.csv", has_labels=True)
        n = ae_train.n
        pipeline_ok = n >= 1000
        fractions = {}
        for kind in (MSE_POLICY, MAHALANOBIS_POLICY):
            scorer = calibrate(net, scaler, ae_train, ThresholdPolicy(kind, 85.0))
            flagged = int(classify(scorer, ae_train.features)[0].sum())
            fractions[kind] = flagged / n
            pipeline_ok &= 0.15 - 2.0 / n <= flagged / n <= 0.15

        ok = sweep_ok and pipeline_ok
        assert _report(
            3,
            "85th-percentile threshold flags within [0.15-2/n, 0.15]",
            ok,
            f"n={n}, mse {fractions[MSE_POLICY]:.5f}, mahalanobis {fractions[MAHALANOBIS_POLICY]:.5f}",
        )
        assert sweep_ok
        assert pipeline_ok

    def test_default_scorer_needs_no_jitter(self, full_run):
        scorer = json.loads((full_run["out"] / "scorer.json").read_text())
        assert scorer["residual_jitter"] == 0.0


class TestCriterion4SyntheticEndToEnd:
    def test_detection_bands(self, full_run):
        ae = json.loads((full_run["out"] / "report_ae.json").read_text())
        rf = json.loads((full_run["out"] / "report_random_forest.json").read_text())
        elapsed = full_run["elapsed"]
        ok = (
            ae["f1"] >= 0.80
            and ae["recall"] >= 0.85
            and rf["f1"] >= 0.98
            and elapsed < 180.0
        )
        assert _report(
            4,
            "synthetic end-to-end detection bands",
            ok,
            f"AE f1 {ae['f1']:.4f} recall {ae['recall']:.4f}, RF f1 {rf['f1']:.4f}, {elapsed:.0f}s",
        )
        assert ae["f1"] >= 0.80
        assert ae["recall"] >= 0.85
        assert rf["f1"] >= 0.98
        assert elapsed < 180.0


PHM_ENV_VAR = "AEROMON_PHM_CSV"

# reference operating points for the gated fleet dataset
_AE_TARGET = {"precision": 0.8181, "recall": 0.8856, "f1": 0.8505, "accuracy": 0.8758}
_RF_TARGET = {"precision": 0.9993, "recall": 0.9995, "f1": 0.9994, "accuracy": 0.9995}


class TestCriterion5ConditionalReproduction:
    def test_fleet_dataset_reproduction(self, tmp_path):
        csv_path = os.environ.get(PHM_ENV_VAR)
        if not csv_path:
            pytest.skip(f"{PHM_ENV_VAR} not set; gated dataset unavailable")
        out = tmp_path / "phm_run"
        cfg = resolve_config(
            {"source": "csv", "csv_path": csv_path, "out_dir": str(out), "seed": ACCEPTANCE_SEED}
        )
        run_pipeline(cfg, quiet=True)
        ae = json.loads((out / "report_ae.json").read_text())
        rf = json.loads((out / "report_random_forest.json").read_text())
        ae_ok = all(abs(ae[k] - v) <= 0.05 for k, v in _AE_TARGET.items())
        rf_ok = all(abs(rf[k] - v) <= 0.005 for k, v in _RF_TARGET.items())
        assert _report(5, "fleet dataset reproduction", ae_ok and rf_ok)
        assert ae_ok
        assert rf_ok


class TestCriterion6Determinism:
    def test_rerun_is_byte_identical(self, full_run):
        out = full_run["out"]
        report_names = sorted(
            name for name in full_run["manifest"]["artifacts"] if name.startswith("report_")
        )
        report_names.append("comparison.csv")
        report_names.append("manifest.json")
        snapshot = {name: (out / name).read_bytes() for name in report_names}

        started = time.perf_counter()
        run_pipeline(full_run["cfg"], quiet=True)
        elapsed = time.perf_counter() - started

        identical = all((out / name).read_bytes() == snapshot[name] for name in report_names)
        within_budget = elapsed < 2.0 * 180.0
        ok = identical and within_budget
        assert _report(6, "rerun reproduces byte-identical reports", ok, f"second run {elapsed:.0f}s")
        assert identical
        assert within_budget


class TestCriterion7InvariantSuites:
    def test_invariant_tests_collected(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "-m", "invariant"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent.parent,
        )
        collected = [
            line for line in proc.stdout.splitlines() if "::" in line and "test_" in line
        ]
        ok = proc.returncode == 0 and len(collected) >= 25
        assert _report(
            7,
            "module invariants encoded as property tests",
            ok,
            f"{len(collected)} invariant tests run with the main suite",
        )
        assert ok
