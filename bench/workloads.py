"""The benchmark's workloads: set-up, one operation, and its correctness checks.

Each workload is a closed loop: one process runs one operation at a time,
serially, with the program's defaults apart from the input size. The sizes
are small enough for repeated runs to fit the benchmark's time budget
(README.md gives the reasoning and the numbers).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

from aeromon import pipeline
from aeromon.config import default_config
from aeromon.dataset import generate_synthetic, save_csv
from aeromon.numerics import derive_seed

SRC = Path(pipeline.__file__).resolve().parent.parent

# Acceptance bands of the release gate. The gate's random-forest band (0.98)
# is set for n=20000 (800 test anomalies); at n=2000 there are 80, and over
# seeds 1-40, 1101-1110 and 1201-1210 a correct program's forest scored F1
# from 0.948 (seed 1201; next lowest 0.962) to 1.0. This size checks 0.90,
# which a forest that has not learned the anomalies fails: at the default
# size the weakest baseline, logistic regression, scores 0.785.
AE_F1_MIN = 0.80
AE_RECALL_MIN = 0.85
RF_F1_MIN = 0.90

SCORE_INPUT = "bench_input.csv"
SCORE_INPUT_SEED_INDEX = 901  # the score rows are drawn with derive_seed(seed, 901)

_COLD_START = (
    "import json, sys\n"
    "import aeromon.pipeline\n"
    "from aeromon.config import default_config\n"
    "default_config(json.loads(sys.argv[1]))\n"
)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def f1_recall(pred: list[int], truth: list[int]) -> tuple[float, float]:
    tp = sum(1 for p, t in zip(pred, truth) if p and t)
    fp = sum(1 for p, t in zip(pred, truth) if p and not t)
    fn = sum(1 for p, t in zip(pred, truth) if t and not p)
    f1 = 2.0 * tp / (2.0 * tp + fp + fn) if tp + fp + fn else 0.0
    return f1, (tp / (tp + fn) if tp + fn else 0.0)


@dataclass
class Outcome:
    """What the checks read from one operation's outputs."""

    hashes: dict[str, str]
    quality: dict[str, float]  # ae_f1, ae_recall, and rf_f1 / calib_gap where produced
    model_bytes: int
    layers: dict[str, float] = field(default_factory=dict)  # per-layer metrics read from files
    problems: list[str] = field(default_factory=list)


def _band_problems(quality: dict[str, float]) -> list[str]:
    problems = []
    if quality["ae_f1"] < AE_F1_MIN:
        problems.append(f"AE F1 {quality['ae_f1']:.4f} < {AE_F1_MIN}")
    if quality["ae_recall"] < AE_RECALL_MIN:
        problems.append(f"AE recall {quality['ae_recall']:.4f} < {AE_RECALL_MIN}")
    if "rf_f1" in quality and quality["rf_f1"] < RF_F1_MIN:
        problems.append(f"random forest F1 {quality['rf_f1']:.4f} < {RF_F1_MIN}")
    return problems


def _count_nodes(node: dict) -> int:
    if "feature" not in node:
        return 1
    return 1 + _count_nodes(node["left"]) + _count_nodes(node["right"])


class PipelineWorkload:
    """One operation is one `run_pipeline` into a fresh output directory.

    Set-up is a cold start: a fresh interpreter imports the pipeline and
    resolves the config, as every CLI invocation does.
    """

    setup_repeats = 12

    def __init__(self, name: str, n: int, baseline_kinds: str | None = None):
        self.name, self.rows = name, n
        self.overrides = {"synth_n_samples": n}
        if baseline_kinds is not None:
            self.overrides["baseline_kinds"] = baseline_kinds
        self.sizes = {"synth_n_samples": n, "baseline_kinds": baseline_kinds}

    def set_up(self, seed: int, work: Path):
        overrides = {"seed": seed, **self.overrides}
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        # no timeout: with one, the wait polls in sleeps of up to 50 ms and the
        # set-up time comes out in 50 ms steps
        subprocess.run(
            [sys.executable, "-c", _COLD_START, json.dumps(overrides)],
            env=env, cwd=work, check=True, stdout=subprocess.DEVNULL,
        )
        return default_config(overrides)

    def fingerprint(self, cfg) -> str:
        return cfg.config_hash()

    def operation(self, cfg, out: Path) -> None:
        pipeline.run_pipeline(cfg, out, quiet=True)

    def inspect(self, cfg, out: Path) -> Outcome:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        names = ["manifest.json"] + manifest["artifacts"]
        hashes = {name: sha256(out / name) for name in names}

        with open(out / "comparison.csv", newline="", encoding="utf-8") as fh:
            rows = {r["Model"]: r for r in csv.DictReader(fh)}
        quality = {"ae_f1": float(rows["ae"]["F1-score"]), "ae_recall": float(rows["ae"]["Recall"])}
        if "random_forest" in rows:
            quality["rf_f1"] = float(rows["random_forest"]["F1-score"])
        problems = _band_problems(quality)

        layers = {}
        for kind in cfg.baseline_kinds():
            layers[f"baselines.model_bytes.{kind}"] = (out / f"clf_{kind}.json").stat().st_size
        for kind in ("decision_tree", "random_forest"):
            path = out / f"clf_{kind}.json"
            if path.exists():
                model = json.loads(path.read_text(encoding="utf-8"))
                trees = model["trees"] if kind == "random_forest" else [model["root"]]
                layers[f"baselines.{kind}.nodes"] = sum(_count_nodes(t) for t in trees)
        with open(out / "ae_training_log.csv", newline="", encoding="utf-8") as fh:
            val = [float(r["val_mse"]) for r in csv.DictReader(fh)]
        layers["autoencoder.train.epochs"] = len(val)
        layers["autoencoder.train.best_epoch_frac"] = (val.index(min(val)) + 1) / len(val)

        model_files = ["model_ae.json", "scorer.json"] + [f"clf_{k}.json" for k in cfg.baseline_kinds()]
        model_bytes = sum((out / name).stat().st_size for name in model_files)
        return Outcome(hashes, quality, model_bytes, layers, problems)

    def failure_problems(self, cfg, out: Path) -> list[str]:
        """Checks on a run that raised: `run_pipeline` writes a partial manifest, then raises."""
        path = out / "manifest.json"
        if not path.exists():
            return []
        manifest = json.loads(path.read_text(encoding="utf-8"))
        return [f"manifest is partial (failed stage {manifest['failed_stage']})"] if manifest.get("partial") else []

    def discard(self, cfg, out: Path) -> None:
        shutil.rmtree(out, ignore_errors=True)


@dataclass
class ScoreState:
    cfg: object
    out: object  # the pipeline's output directory holding scorer and input
    labels: list[int]
    threshold: float
    percentile: float


class ScoreWorkload:
    """One operation is one `stage_score` over a features-only CSV.

    Set-up trains the scorer (stages ingest to calibrate) and writes fresh
    synthetic rows, drawn with a seed derived from the workload seed, without
    their labels; the labels stay with the benchmark for the quality checks.
    """

    setup_repeats = 5

    def __init__(self, name: str, scorer_n: int, rows: int):
        self.name, self.scorer_n, self.rows = name, scorer_n, rows
        self.sizes = {"synth_n_samples": scorer_n, "rows_scored": rows}

    def set_up(self, seed: int, work: Path) -> ScoreState:
        cfg = default_config({"seed": seed, "synth_n_samples": self.scorer_n})
        # the stage functions take the pipeline's output-directory object
        out = pipeline._OutputDir(tempfile.mkdtemp(prefix="setup-", dir=work))
        for stage in (
            pipeline.stage_ingest,
            pipeline.stage_split,
            pipeline.stage_fit_scalers,
            pipeline.stage_train_ae,
            pipeline.stage_calibrate,
        ):
            stage(cfg, out)
        synth = replace(cfg.synth_config(), n_samples=self.rows, seed=derive_seed(seed, SCORE_INPUT_SEED_INDEX))
        data = generate_synthetic(synth)
        save_csv(data, out.file(SCORE_INPUT), include_labels=False)
        scorer = json.loads(out.file("scorer.json").read_text(encoding="utf-8"))
        return ScoreState(cfg, out, [int(v) for v in data.labels], scorer["threshold"], scorer["percentile"])

    def fingerprint(self, state: ScoreState) -> str:
        names = ("model_ae.json", "scorer.json", SCORE_INPUT)
        return ",".join(sha256(state.out.file(name)) for name in names)

    def operation(self, state: ScoreState, out: Path) -> None:
        pipeline.stage_score(state.cfg, state.out, input_name=SCORE_INPUT)

    def inspect(self, state: ScoreState, out: Path) -> Outcome:
        path = state.out.file("scores.csv")
        problems = []
        decisions = []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader) != ["index", "score", "decision"]:
                problems.append("scores.csv has an unexpected header")
            for i, (index, score, decision) in enumerate(reader):
                flagged = float(score) > state.threshold
                if int(index) != i or int(decision) != flagged:
                    problems.append(f"scores.csv row {i}: decision {decision} for score {score}")
                    break
                decisions.append(int(decision))
        if len(decisions) != len(state.labels):
            problems.append(f"scores.csv has {len(decisions)} rows, expected {len(state.labels)}")

        f1, recall = f1_recall(decisions, state.labels)
        healthy = [d for d, t in zip(decisions, state.labels) if not t]
        expected = (100.0 - state.percentile) / 100.0
        quality = {"ae_f1": f1, "ae_recall": recall, "calib_gap": abs(sum(healthy) / max(len(healthy), 1) - expected)}
        problems += _band_problems(quality)
        model_bytes = sum(state.out.file(name).stat().st_size for name in ("model_ae.json", "scorer.json"))
        return Outcome({"scores.csv": sha256(path)}, quality, model_bytes, {}, problems)

    def failure_problems(self, state: ScoreState, out: Path) -> list[str]:
        return []

    def discard(self, state: ScoreState, out: Path) -> None:
        state.out.file("scores.csv").unlink(missing_ok=True)


# why each workload was chosen is in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        PipelineWorkload("pipeline-2k", n=2000),
        PipelineWorkload("detector-10k", n=10000, baseline_kinds=""),
        ScoreWorkload("score-10k", scorer_n=2000, rows=10000),
    )
}
