"""End-to-end orchestration with file-based stage handoff.

Every stage reads and writes files inside one output directory, so stages
can be re-run standalone and compared by hash. Every command, `run` or one
stage, holds the lock `.aeromon.lock` while it runs. The labelled test split
is written twice: `test.csv` with its labels, which only the evaluate stage
opens, and `test_features.csv` without them, which the scoring stage reads.

Fixed artifact names inside the output directory:

    data.csv                    labelled source telemetry
    test.csv                    labelled held-out test split (evaluate only)
    test_features.csv           the same rows without labels (score)
    supervised_train.csv        labelled 90% training split
    ae_train.csv, ae_val.csv    normal-only reconstruction splits
    scaler_ae.json              min-max fit on ae_train
    scaler_supervised.json      min-max fit on supervised_train
    model_ae.json               trained reconstruction network
    ae_training_log.csv         epoch,train_mse,val_mse,lr
    scorer.json                 calibrated anomaly scorer bundle
    clf_<kind>.json             fitted baseline classifiers
    report_<name>.json          per-model evaluation reports
    comparison.csv              Model,Precision,Recall,F1-score,Accuracy
    scores.csv                  index,score,decision (score stage)
    histograms.csv              channel,class,bin_index,bin_left,bin_right,count (histogram stage)
    manifest.json               config hash + artifact list (deterministic)
    run_log.csv                 stage,seconds appended by every stage, standalone or in run (not hashed)
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .anomaly import AnomalyScorer, calibrate, classify, load_scorer, save_scorer
from .autoencoder import default_autoencoder_specs, init_network, load_network, save_network, train
from .baselines import load_model, predict, save_model, select_model
from .config import STAGE_SPLIT, PipelineConfig
from .dataset import (
    CHANNELS,
    Dataset,
    MinMaxScaler,
    apply_scaler,
    fit_scaler,
    generate_synthetic,
    load_csv,
    save_csv,
    split,
    write_csv,
)
from .errors import ConfigError, DataError, ToolkitError, read_json_artifact, write_json_artifact
from .errors import remove_unfinished_writes
from .evaluation import evaluate_model, feature_histograms
from .numerics import derive_seed

MANIFEST_FORMAT_VERSION = 1
LOCK_NAME = ".aeromon.lock"


class _OutputDir:
    def __init__(self, path):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)

    def file(self, name: str) -> Path:
        return self.path / name

    def read_scaler(self, name: str) -> MinMaxScaler:
        """A scaler file, which must scale the telemetry channels."""
        path = self.file(name)
        scaler = read_json_artifact(path, MinMaxScaler.from_dict)
        if len(scaler.mins) != len(CHANNELS):
            raise DataError(f"{path} scales {len(scaler.mins)} channels, not the {len(CHANNELS)} telemetry channels")
        return scaler

    def read_scorer(self) -> AnomalyScorer:
        return load_scorer(self.file("scorer.json"), load_network(self.file("model_ae.json")))


def _dead_lock_holder(path: Path) -> int | None:
    """The pid in the lock file if it names no process any more, else None."""
    try:
        pid = int(path.read_text(encoding="ascii"))
        if pid > 0:  # kill(0 or a negative pid) would signal a process group
            os.kill(pid, 0)
    except ProcessLookupError:
        return pid
    except (OSError, ValueError):  # no file, no pid written yet, or another user's live process
        pass
    return None


@contextmanager
def _locked(out: _OutputDir):
    """Rejects a second concurrent command on the same output directory. A lock
    whose process is gone is taken over, after removing the temporary files
    that process's unfinished atomic writes left."""
    path = out.file(LOCK_NAME)
    for attempt in range(2):
        try:
            with open(path, "x", encoding="ascii") as fh:
                fh.write(str(os.getpid()))
            break
        except FileExistsError:
            dead = _dead_lock_holder(path) if attempt == 0 else None
            if dead is None:
                raise ConfigError(
                    f"output directory is locked by another run ({path}); remove the lock file if that run is dead"
                ) from None
            remove_unfinished_writes(out.path, dead)
            path.unlink(missing_ok=True)
    try:
        yield
    finally:
        path.unlink(missing_ok=True)


# --- standalone stages -------------------------------------------------------


def stage_ingest(cfg: PipelineConfig, out: _OutputDir) -> list[str]:
    """Generate synthetic telemetry or normalize the configured CSV."""
    if cfg["source"] == "synthetic":
        data = generate_synthetic(cfg.synth_config())
    else:
        data = load_csv(cfg["csv_path"], has_labels=True)
    save_csv(data, out.file("data.csv"))
    return ["data.csv"]


def stage_split(cfg: PipelineConfig, out: _OutputDir) -> list[str]:
    data = load_csv(out.file("data.csv"), has_labels=True)
    result = split(
        data,
        test_fraction=cfg["test_fraction"],
        ae_val_fraction=cfg["ae_val_fraction"],
        seed=derive_seed(cfg["seed"], STAGE_SPLIT),
    )
    save_csv(result.test, out.file("test.csv"))
    save_csv(result.test, out.file("test_features.csv"), include_labels=False)
    save_csv(result.supervised_train, out.file("supervised_train.csv"))
    save_csv(result.ae_train, out.file("ae_train.csv"))
    save_csv(result.ae_val, out.file("ae_val.csv"))
    return ["test.csv", "test_features.csv", "supervised_train.csv", "ae_train.csv", "ae_val.csv"]


def stage_fit_scalers(cfg: PipelineConfig, out: _OutputDir) -> list[str]:
    ae_train = load_csv(out.file("ae_train.csv"), has_labels=True)
    supervised = load_csv(out.file("supervised_train.csv"), has_labels=True)
    write_json_artifact(out.file("scaler_ae.json"), fit_scaler(ae_train).to_dict())
    write_json_artifact(out.file("scaler_supervised.json"), fit_scaler(supervised).to_dict())
    return ["scaler_ae.json", "scaler_supervised.json"]


def stage_train_ae(cfg: PipelineConfig, out: _OutputDir) -> list[str]:
    scaler = out.read_scaler("scaler_ae.json")
    ae_train = apply_scaler(scaler, load_csv(out.file("ae_train.csv"), has_labels=True))
    ae_val = apply_scaler(scaler, load_csv(out.file("ae_val.csv"), has_labels=True))
    train_cfg = cfg.train_config()
    net = init_network(default_autoencoder_specs(), train_cfg.seed)
    best, history = train(net, ae_train, ae_val, train_cfg)
    save_network(best, out.file("model_ae.json"))
    log_columns = np.arange(1, len(history) + 1), *np.array(history).T
    write_csv(out.file("ae_training_log.csv"), "epoch,train_mse,val_mse,lr", "{},{!r},{!r},{!r}\n", *log_columns)
    return ["model_ae.json", "ae_training_log.csv"]


def stage_calibrate(cfg: PipelineConfig, out: _OutputDir) -> list[str]:
    scaler = out.read_scaler("scaler_ae.json")
    ae_train = load_csv(out.file("ae_train.csv"), has_labels=True)
    scorer = calibrate(load_network(out.file("model_ae.json")), scaler, ae_train, cfg.threshold_policy())
    save_scorer(scorer, out.file("scorer.json"))
    return ["scorer.json"]


def stage_score(cfg: PipelineConfig, out: _OutputDir, input_name: str = "test_features.csv") -> list[str]:
    """Score a feature-only CSV; never touches labels."""
    scorer = out.read_scorer()
    features = load_csv(out.file(input_name), has_labels=False)
    decisions, scores = classify(scorer, features.features)
    write_csv(out.file("scores.csv"), "index,score,decision", "{},{!r},{}\n", np.arange(len(scores)), scores, decisions)
    return ["scores.csv"]


def scaled_supervised_train(out: _OutputDir) -> Dataset:
    """supervised_train.csv scaled by scaler_supervised.json: what every baseline trains on."""
    supervised = load_csv(out.file("supervised_train.csv"), has_labels=True)
    return apply_scaler(out.read_scaler("scaler_supervised.json"), supervised)


def train_baseline(cfg: PipelineConfig, out: _OutputDir, kind: str, train_set: Dataset) -> tuple:
    """Fit the `kind` baseline on `train_set` and write clf_<kind>.json. A grid
    of more than one value is selected over by CV F1. Returns the chosen
    candidate and (candidate, cross_validate result) per candidate, none for one."""
    candidates = cfg.baseline_candidates(kind)
    best, model, scores = select_model(candidates, train_set, seed=cfg.baseline_seed(kind), folds=cfg["cv_folds"])
    save_model(model, out.file(f"clf_{kind}.json"))
    return best, list(zip(candidates, scores))


def stage_train_clf(cfg: PipelineConfig, out: _OutputDir, kind: str) -> list[str]:
    """train-baselines for one kind; prints each grid candidate's CV F1 and the one selected."""
    best, cv = train_baseline(cfg, out, kind, scaled_supervised_train(out))
    for cand, (mean_f1, per_fold) in cv:
        print(f"{kind} {cand}: mean F1 {mean_f1:.4f} per-fold {[round(f, 4) for f in per_fold]}")
    print(f"selected {best}")
    return [f"clf_{kind}.json"]


def stage_train_baselines(cfg: PipelineConfig, out: _OutputDir) -> list[str]:
    kinds = cfg.baseline_kinds()
    train_set = scaled_supervised_train(out) if kinds else None  # no baselines, no supervised_train.csv read
    for kind in kinds:
        train_baseline(cfg, out, kind, train_set)
    return [f"clf_{kind}.json" for kind in kinds]


def stage_evaluate(cfg: PipelineConfig, out: _OutputDir) -> list[str]:
    """The only stage that opens test.csv, the labelled test split."""
    test = load_csv(out.file("test.csv"), has_labels=True)
    scorer = out.read_scorer()
    deciders = {"ae": lambda x: classify(scorer, x)}
    kinds = cfg.baseline_kinds()
    scaler = out.read_scaler("scaler_supervised.json") if kinds else None
    for kind in kinds:
        path = out.file(f"clf_{kind}.json")
        model = load_model(path, len(scaler.mins))
        if model.kind != kind:
            raise DataError(f"{path} holds a '{model.kind}' classifier, not '{kind}'")
        deciders[kind] = lambda x, m=model: predict(m, scaler.transform(x))
    for name, decide in deciders.items():
        write_json_artifact(out.file(f"report_{name}.json"), evaluate_model(decide, test, model_name=name))
    return [f"report_{name}.json" for name in deciders]


def _comparison_row(r: dict) -> tuple:
    return (r["model"], *(float(r[key]) for key in ("precision", "recall", "f1", "accuracy")))


def stage_compare(cfg: PipelineConfig, out: _OutputDir) -> list[str]:
    rows = []
    for name in ["ae"] + cfg.baseline_kinds():
        path = out.file(f"report_{name}.json")
        if not path.exists():
            raise DataError(f"missing report for '{name}'; run evaluate first")
        rows.append(read_json_artifact(path, _comparison_row))
    header = "Model,Precision,Recall,F1-score,Accuracy"
    write_csv(out.file("comparison.csv"), header, "{},{!r},{!r},{!r},{!r}\n", *map(np.array, zip(*rows)))
    return ["comparison.csv"]


def stage_histogram(cfg: PipelineConfig, out: _OutputDir, input_name: str = "data.csv") -> list[str]:
    data = load_csv(out.file(input_name), has_labels=True)
    columns = feature_histograms(data, bins=cfg["histogram_bins"])
    header = "channel,class,bin_index,bin_left,bin_right,count"
    write_csv(out.file("histograms.csv"), header, "{},{},{},{!r},{!r},{}\n", *columns)
    return ["histograms.csv"]


# --- stage runner ------------------------------------------------------------

_PIPELINE_STAGES = (
    ("ingest", stage_ingest),
    ("split", stage_split),
    ("fit-scalers", stage_fit_scalers),
    ("train-ae", stage_train_ae),
    ("calibrate", stage_calibrate),
    ("train-baselines", stage_train_baselines),
    ("evaluate", stage_evaluate),
    ("compare", stage_compare),
)

# what one command runs alone: run's stages but train-baselines, whose one-kind form is train-clf
_STAGES = {name: fn for name, fn in _PIPELINE_STAGES if fn is not stage_train_baselines}
_STAGES.update({"score": stage_score, "train-clf": stage_train_clf, "histogram": stage_histogram})


def _run_stage(cfg: PipelineConfig, out: _OutputDir, name: str, fn, quiet: bool, **inputs) -> list[str]:
    """Run one stage under the caller's lock, log its time and return the names it wrote."""
    started = time.perf_counter()
    written = fn(cfg, out, **inputs)
    seconds = time.perf_counter() - started
    with open(out.file("run_log.csv"), "a", encoding="utf-8", newline="") as log:
        log.write(("" if log.tell() else "stage,seconds\n") + f"{name},{seconds:.3f}\n")
    if not quiet:
        print(f"[{name}] wrote {', '.join(written)} ({seconds:.2f}s)")
    return written


def run_stage(cfg: PipelineConfig, name: str, quiet: bool, **inputs) -> list[str]:
    """Run the stage `name` of `_STAGES` alone, holding the lock of cfg["out_dir"]; returns the names it wrote."""
    out = _OutputDir(cfg["out_dir"])
    with _locked(out):
        return _run_stage(cfg, out, name, _STAGES[name], quiet, **inputs)


def run_pipeline(cfg: PipelineConfig, out_dir=None, quiet: bool = False) -> dict:
    """Execute every stage in order; bit-identical outputs for a fixed config.
    Returns the manifest, the dict written to manifest.json.

    A stage failure aborts the run with the stage name attached; the partial
    manifest (flagged `partial`) lists whatever was written before the abort.
    """
    out = _OutputDir(out_dir if out_dir is not None else cfg["out_dir"])
    # stage timings go to run_log.csv, not here: the manifest file must be
    # byte-identical across reruns of the same config
    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "config_hash": cfg.config_hash(),
        "toolkit_version": __version__,
        "artifacts": [],
    }
    with _locked(out):
        for name, fn in _PIPELINE_STAGES:
            try:
                written = _run_stage(cfg, out, name, fn, quiet)
            except ToolkitError as exc:
                write_json_artifact(out.file("manifest.json"), {**manifest, "partial": True, "failed_stage": name})
                raise type(exc)(f"stage '{name}' failed: {exc}") from exc
            manifest["artifacts"] = sorted(manifest["artifacts"] + written)
        write_json_artifact(out.file("manifest.json"), manifest)
    return manifest
