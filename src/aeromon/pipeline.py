"""End-to-end orchestration with file-based stage handoff.

Every stage writes files inside one output directory, so stages can be
re-run standalone and compared by hash. A command, `run` or one stage, is one
`_OutputDir`: it holds the lock `.aeromon.lock`, and every file a stage opens,
progress line and run_log.csv row goes through it. Within one command, a stage
takes the CSV splits, scalers, autoencoder and scorer that an earlier stage of
that command wrote from memory; a standalone command parses the files it
reads. `test.csv`, the labelled test split, is opened only by the evaluate
stage; the scoring stage reads `test_features.csv`, the same rows without
labels. `train-clf` is train-baselines for one kind.

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
    manifest.json               config hash + artifact list (deterministic; removed as run starts)
    run_log.csv                 stage,seconds appended by every stage, standalone or in run (not hashed)
"""

from __future__ import annotations

import math
import os
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .anomaly import AnomalyScorer, calibrate, classify, load_scorer, save_scorer
from .autoencoder import default_autoencoder_specs, init_network, load_network, save_network, train
from .baselines import load_model, predict, save_model, select_model
from .config import BASELINE_GRIDS, STAGE_SPLIT, PipelineConfig
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
    """The one object of a command. `with _OutputDir(path, quiet) as out:` takes the lock (a gone
    process's lock is taken over, its unfinished writes removed) and opens `memo`; exit drops both.
    `writes(name)` gives the path to write an artifact to and appends name to `written` (`file` gives
    one unrecorded); `write(name, value, save)` saves through `writes` and, inside `with`, keeps value
    in `memo`; `read(name, load)` returns the kept value, else parses the file. So a command trusts
    only its own writes, and outside `with` every read parses. `run` runs one stage and appends its
    time to run_log.csv, even when it raises; `say` prints unless quiet."""

    def __init__(self, path, quiet: bool = False):
        self.path = Path(path)
        try:
            self.path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file of that name, or no permission
            raise ConfigError(f"cannot create the output directory {self.path}: {exc}") from None
        self.quiet = quiet
        self.written: list[str] = []
        self.memo: dict | None = None

    def __enter__(self) -> _OutputDir:
        lock = self.file(LOCK_NAME)
        for attempt in range(2):
            try:
                with open(lock, "x", encoding="ascii") as fh:
                    fh.write(str(os.getpid()))
                break
            except FileExistsError:
                dead = _dead_lock_holder(lock) if attempt == 0 else None
                if dead is None:
                    raise ConfigError(
                        f"output directory is locked by another run ({lock}); remove the lock file if that run is dead"
                    ) from None
                remove_unfinished_writes(self.path, dead)
                lock.unlink(missing_ok=True)
        self.memo = {}
        return self

    def __exit__(self, *exc_info) -> None:
        self.memo = None
        self.file(LOCK_NAME).unlink(missing_ok=True)

    def file(self, name: str) -> Path:
        return self.path / name

    def writes(self, name: str) -> Path:
        self.written.append(name)
        return self.file(name)

    def write(self, name: str, value, save) -> None:
        save(value, self.writes(name))
        if self.memo is not None:
            self.memo[name] = value

    def read(self, name: str, load):
        if self.memo is not None and name in self.memo:
            return self.memo[name]
        return load(self.file(name))

    def read_csv(self, name: str) -> Dataset:
        """A labelled CSV split."""
        return self.read(name, partial(load_csv, has_labels=True))

    def read_scaler(self, name: str) -> MinMaxScaler:
        """A scaler file, which must scale the telemetry channels."""
        path = self.file(name)
        scaler = self.read(name, lambda p: read_json_artifact(p, MinMaxScaler.from_dict))
        if len(scaler.mins) != len(CHANNELS):
            raise DataError(f"{path} scales {len(scaler.mins)} channels, not the {len(CHANNELS)} telemetry channels")
        return scaler

    def read_scorer(self) -> AnomalyScorer:
        return self.read("scorer.json", lambda path: load_scorer(path, self.read("model_ae.json", load_network)))

    def say(self, *lines: str) -> None:
        if not self.quiet:
            print(*lines, sep="\n")

    def run(self, cfg: PipelineConfig, name: str, fn, **inputs) -> list[str]:
        """Run the stage `fn` as `name` and return the names it wrote through `writes`. Its
        `stage,seconds` row goes to run_log.csv whether it finishes or raises."""
        self.written = []
        started = time.perf_counter()
        try:
            fn(cfg, self, **inputs)
        finally:
            seconds = time.perf_counter() - started
            with open(self.file("run_log.csv"), "a", encoding="utf-8", newline="") as log:
                log.write(("" if log.tell() else "stage,seconds\n") + f"{name},{seconds:.3f}\n")
        self.say(f"[{name}] wrote {', '.join(self.written)} ({seconds:.2f}s)")
        return self.written


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


# --- standalone stages -------------------------------------------------------


def stage_ingest(cfg: PipelineConfig, out: _OutputDir) -> None:
    """Generate synthetic telemetry or normalize the configured CSV."""
    if cfg["source"] == "synthetic":
        data = generate_synthetic(cfg.synth_config())
    else:
        data = load_csv(cfg["csv_path"], has_labels=True)
    out.write("data.csv", data, save_csv)


def stage_split(cfg: PipelineConfig, out: _OutputDir) -> None:
    data = out.read_csv("data.csv")
    seed = derive_seed(cfg["seed"], STAGE_SPLIT)
    parts = split(data, test_fraction=cfg["test_fraction"], ae_val_fraction=cfg["ae_val_fraction"], seed=seed)
    for name, part in parts.items():
        out.write(f"{name}.csv", part, save_csv)
        if name == "test":
            save_csv(part, out.writes("test_features.csv"), include_labels=False)


def _save_scaler(scaler: MinMaxScaler, path) -> None:
    write_json_artifact(path, scaler.to_dict())


def stage_fit_scalers(cfg: PipelineConfig, out: _OutputDir) -> None:
    ae_train = out.read_csv("ae_train.csv")
    supervised = out.read_csv("supervised_train.csv")
    out.write("scaler_ae.json", fit_scaler(ae_train), _save_scaler)
    out.write("scaler_supervised.json", fit_scaler(supervised), _save_scaler)


def stage_train_ae(cfg: PipelineConfig, out: _OutputDir) -> None:
    scaler = out.read_scaler("scaler_ae.json")
    ae_train = apply_scaler(scaler, out.read_csv("ae_train.csv"))
    ae_val = apply_scaler(scaler, out.read_csv("ae_val.csv"))
    train_cfg = cfg.train_config()
    net = init_network(default_autoencoder_specs(), train_cfg.seed)
    best, history = train(net, ae_train, ae_val, train_cfg)
    out.write("model_ae.json", best, save_network)
    log_columns = np.arange(1, len(history) + 1), *np.array(history).T
    write_csv(out.writes("ae_training_log.csv"), "epoch,train_mse,val_mse,lr", "{},{!r},{!r},{!r}\n", *log_columns)


def stage_calibrate(cfg: PipelineConfig, out: _OutputDir) -> None:
    scaler = out.read_scaler("scaler_ae.json")
    ae_train = out.read_csv("ae_train.csv")
    scorer = calibrate(out.read("model_ae.json", load_network), scaler, ae_train, cfg.threshold_policy())
    out.write("scorer.json", scorer, save_scorer)


def stage_score(cfg: PipelineConfig, out: _OutputDir, input_name: str = "test_features.csv") -> None:
    """Score a feature-only CSV; never touches labels."""
    scorer = out.read_scorer()
    features = out.read(input_name, partial(load_csv, has_labels=False))
    decisions, scores = classify(scorer, features.features)
    columns = np.arange(len(scores)), scores, decisions
    write_csv(out.writes("scores.csv"), "index,score,decision", "{},{!r},{}\n", *columns)


def scaled_supervised_train(out: _OutputDir) -> Dataset:
    """supervised_train.csv scaled by scaler_supervised.json: what every baseline trains on."""
    supervised = out.read_csv("supervised_train.csv")
    return apply_scaler(out.read_scaler("scaler_supervised.json"), supervised)


def stage_train_baselines(cfg: PipelineConfig, out: _OutputDir, kind: str | None = None) -> None:
    """Fit `kind`, or with none every kind of `baseline_kinds`, and write each clf_<kind>.json.
    A grid of more than one value is selected over by CV F1, a candidate that can no longer
    win stopping early. Once a kind's file is written, says each grid candidate's CV F1 (or
    where it stopped, against the best mean before it) and the one selected."""
    kinds = cfg.baseline_kinds() if kind is None else [kind]
    train_set = scaled_supervised_train(out) if kinds else None  # no baselines, no supervised_train.csv read
    for kind in kinds:
        candidates = cfg.baseline_candidates(kind)
        best, model, cv = select_model(candidates, train_set, seed=cfg.baseline_seed(kind), folds=cfg["cv_folds"])
        save_model(model, out.writes(f"clf_{kind}.json"))
        field = BASELINE_GRIDS[kind][0] if kind in BASELINE_GRIDS else "kind"
        best_mean, lines = -math.inf, []
        for cand, result in zip(candidates, cv):
            if result is None:
                cv_f1 = "diverged"
            elif len(result[1]) < cfg["cv_folds"]:
                cv_f1 = f"stopped after fold {len(result[1])} (bound {result[0]:.4f} <= {best_mean:.4f})"
            else:
                cv_f1 = f"mean F1 {result[0]:.4f} per-fold {[round(f, 4) for f in result[1]]}"
                best_mean = max(best_mean, result[0])
            lines.append(f"{kind} {field}={getattr(cand, field)}: {cv_f1}")
        out.say(*lines, f"selected {field}={getattr(best, field)}")


def stage_evaluate(cfg: PipelineConfig, out: _OutputDir) -> None:
    """The only stage that opens test.csv, the labelled test split."""
    test = out.read_csv("test.csv")
    scorer = out.read_scorer()
    deciders = {"ae": lambda x: classify(scorer, x)}
    kinds = cfg.baseline_kinds()
    scaler = out.read_scaler("scaler_supervised.json") if kinds else None
    for kind in kinds:
        name = f"clf_{kind}.json"
        model = out.read(name, partial(load_model, n_channels=len(scaler.mins)))
        if model.kind != kind:
            raise DataError(f"{out.file(name)} holds a '{model.kind}' classifier, not '{kind}'")
        deciders[kind] = lambda x, m=model: predict(m, scaler.transform(x))
    for name, decide in deciders.items():
        write_json_artifact(out.writes(f"report_{name}.json"), evaluate_model(decide, test, model_name=name))


def _comparison_row(r: dict) -> tuple:
    return (r["model"], *(float(r[key]) for key in ("precision", "recall", "f1", "accuracy")))


def stage_compare(cfg: PipelineConfig, out: _OutputDir) -> None:
    parse = partial(read_json_artifact, from_dict=_comparison_row)
    rows = [out.read(f"report_{name}.json", parse) for name in ["ae"] + cfg.baseline_kinds()]
    header = "Model,Precision,Recall,F1-score,Accuracy"
    write_csv(out.writes("comparison.csv"), header, "{},{!r},{!r},{!r},{!r}\n", *map(np.array, zip(*rows)))


def stage_histogram(cfg: PipelineConfig, out: _OutputDir, input_name: str = "data.csv") -> None:
    data = out.read_csv(input_name)
    columns = feature_histograms(data, bins=cfg["histogram_bins"])
    header = "channel,class,bin_index,bin_left,bin_right,count"
    write_csv(out.writes("histograms.csv"), header, "{},{},{},{!r},{!r},{}\n", *columns)


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

# what one command runs alone: run's stages, train-baselines as train-clf (one --kind), score and histogram
_STAGES = {"train-clf" if name == "train-baselines" else name: fn for name, fn in _PIPELINE_STAGES}
_STAGES.update({"score": stage_score, "histogram": stage_histogram})


def run_stage(cfg: PipelineConfig, name: str, quiet: bool, **inputs) -> None:
    """Run the stage `name` of `_STAGES` alone, holding the lock of cfg["out_dir"]."""
    with _OutputDir(cfg["out_dir"], quiet) as out:
        out.run(cfg, name, _STAGES[name], **inputs)


def run_pipeline(cfg: PipelineConfig, out_dir=None, quiet: bool = False) -> dict:
    """Execute every stage in order; bit-identical outputs for a fixed config.
    Returns the manifest, the dict written to manifest.json, and says its config hash.

    An earlier run's manifest.json is removed before the first stage, so a run
    that is stopped leaves none that describes files it replaced. A stage
    failure aborts the run with the stage name attached; the partial manifest
    (flagged `partial`) lists only the artifacts of finished stages.
    """
    # stage timings go to run_log.csv, not here: the manifest file must be
    # byte-identical across reruns of the same config
    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "config_hash": cfg.config_hash(),
        "toolkit_version": __version__,
        "artifacts": [],
    }
    with _OutputDir(out_dir if out_dir is not None else cfg["out_dir"], quiet) as out:
        out.file("manifest.json").unlink(missing_ok=True)
        for name, fn in _PIPELINE_STAGES:
            try:
                written = out.run(cfg, name, fn)
            except ToolkitError as exc:
                write_json_artifact(out.file("manifest.json"), {**manifest, "partial": True, "failed_stage": name})
                raise type(exc)(f"stage '{name}' failed: {exc}") from exc
            manifest["artifacts"] = sorted(manifest["artifacts"] + written)
        write_json_artifact(out.file("manifest.json"), manifest)
        out.say(f"config hash {manifest['config_hash']}")
    return manifest
