import argparse
import builtins
import contextlib
import dataclasses
import fcntl
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import aeromon
from aeromon import baselines, dataset, errors, pipeline
from aeromon.anomaly import classify, load_scorer
from aeromon.autoencoder import (
    Network,
    LayerSpec,
    default_autoencoder_specs,
    init_network,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from aeromon.cli import _build_parser, main
from aeromon.config import STAGE_BASELINE_BASE, default_config
from aeromon.dataset import MinMaxScaler, SynthConfig, apply_scaler, generate_synthetic, load_csv, save_csv
from aeromon.errors import ConfigError, DataError, ShapeError, read_json_artifact
from aeromon.numerics import derive_seed
from aeromon.pipeline import _PIPELINE_STAGES, _STAGES, LOCK_NAME, _OutputDir, run_pipeline
from aeromon.pipeline import stage_calibrate, stage_compare, stage_fit_scalers, stage_train_baselines

FAST_KEYS = {
    "synth_n_samples": 600,
    "ae_max_epochs": 8,
    "ae_batch_size": 128,
    "forest_n_trees": 10,
    "mlp_epochs": 10,
    "logreg_l2_grid": "0",
    "logreg_epochs": 60,
    "seed": 7,
}


def _fast_config_file(tmp_path, **extra):
    cfg = dict(FAST_KEYS)
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# every command but `run`, in an order that runs each on the files the ones before it wrote
STANDALONE = (
    "generate",
    "split",
    "fit-scalers",
    "train-ae",
    "calibrate",
    "score",
    "score --input test_features.csv",
    *(f"train-clf --kind {kind}" for kind in baselines.CLASSIFIER_KINDS),
    "evaluate",
    "compare",
    "histogram",
    "histogram --input test.csv",
)


def _run(tmp_path, name, **extra):
    out = tmp_path / name
    cfg = default_config({**FAST_KEYS, **extra, "out_dir": str(out)})
    manifest = run_pipeline(cfg, quiet=True)
    return out, manifest


def _child_env():
    """The environment of a child Python that imports this aeromon."""
    src = str(Path(aeromon.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _interrupted_write(out, hold_lock=False):
    """Run a process that dies halfway through a `write_atomic` of data.csv in
    `out`, holding `out`'s lock if `hold_lock`: (its pid, the temporary file it left)."""
    code = (
        "import contextlib, os, sys\n"
        "from aeromon.errors import write_atomic\n"
        "from aeromon.pipeline import _OutputDir\n"
        "def chunks():\n"
        "    yield 'half a file'\n"
        "    os._exit(0)\n"
        "out = _OutputDir(sys.argv[1])\n"
        "with out if sys.argv[2] == 'True' else contextlib.nullcontext():\n"
        "    write_atomic(out.file('data.csv'), chunks())\n"
    )
    before = set(out.iterdir())
    child = subprocess.Popen([sys.executable, "-c", code, str(out), str(hold_lock)], env=_child_env())
    assert child.wait(timeout=60) == 0
    (leftover,) = set(out.iterdir()) - before - {out / LOCK_NAME}
    return child.pid, leftover


def _dead_lock(tmp_path):
    """An output directory whose lock file a killed command left: (directory, the temporary
    files of two dead processes' unfinished writes, names that are not `write_atomic` names)."""
    out = tmp_path / "stale"
    out.mkdir()
    dead, leftover = _interrupted_write(out, hold_lock=True)
    other_pid, other = _interrupted_write(out)  # another dead process's unfinished write, outside the lock
    assert other_pid != dead and (out / LOCK_NAME).read_text() == ""
    unlike = [out / f".data.csv.{dead}.tmp", out / f".data.csv.{dead}.{'0' * 7}.tmp"]  # no token, a short one
    for path in unlike:
        path.write_text("not a write_atomic temporary")
    return out, [leftover, other], unlike


@contextlib.contextmanager
def _holding(path, text=""):
    """Plant the lock file `path` holding `text` and hold its lock, as a live command does."""
    path.write_text(text)
    with open(path, "rb") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield


# a child Python that says `ready`, waits for a line on stdin, then holds the lock of the directory
# argv[1] for argv[2] seconds (saying `entered`) or exits 2 if another process holds it
_HOLDER = (
    "import sys, time\n"
    "from aeromon.errors import ConfigError\n"
    "from aeromon.pipeline import _OutputDir\n"
    "print('ready', flush=True)\n"
    "sys.stdin.readline()\n"
    "try:\n"
    "    with _OutputDir(sys.argv[1]):\n"
    "        print('entered', flush=True)\n"
    "        time.sleep(float(sys.argv[2]))\n"
    "except ConfigError:\n"
    "    sys.exit(2)\n"
)


def _holders(out, seconds, count):
    """Start `count` `_HOLDER` children on `out`, wait until each is ready, then let them all go at once."""
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _HOLDER, str(out), str(seconds)],
            env=_child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(count)
    ]
    for child in children:
        assert child.stdout.readline() == "ready\n"
    for child in children:
        child.stdin.write("go\n")
        child.stdin.flush()
    return children


class TestRunPipeline:
    def test_all_artifacts_exist(self, tmp_path):
        out, manifest = _run(tmp_path, "a")
        for name in manifest["artifacts"]:
            assert (out / name).exists(), name
        assert manifest == json.loads((out / "manifest.json").read_text())
        assert (out / "run_log.csv").exists()
        assert not (out / LOCK_NAME).exists()
        # the labelled test split and the features-only file hold the same features, bit for bit
        test = load_csv(out / "test.csv", has_labels=True)
        features = load_csv(out / "test_features.csv", has_labels=False).features
        assert test.features.tobytes() == features.tobytes()

    @pytest.mark.invariant
    def test_reruns_are_byte_identical(self, tmp_path):
        # identical config: snapshot, rerun into the same and into a second
        # directory, compare every file but the timings in run_log.csv
        out, manifest_a = _run(tmp_path, "a")
        names = sorted(manifest_a["artifacts"]) + ["manifest.json"]
        snapshot = {name: (out / name).read_bytes() for name in names}
        for second in ("a", "b"):
            out_b, manifest_b = _run(tmp_path, second)
            assert manifest_a["config_hash"] == manifest_b["config_hash"]
            assert sorted(p.name for p in out_b.iterdir()) == sorted(names + ["run_log.csv"])
            for name in names:
                assert (out_b / name).read_bytes() == snapshot[name], (second, name)

    def test_seed_changes_outputs_and_hash(self, tmp_path):
        out_a, manifest_a = _run(tmp_path, "a")
        out_b, manifest_b = _run(tmp_path, "b", seed=8)
        assert manifest_a["config_hash"] != manifest_b["config_hash"]
        assert (out_a / "data.csv").read_bytes() != (out_b / "data.csv").read_bytes()

    def test_baseline_seed_is_keyed_by_kind(self, tmp_path):
        # a kind trains alike whatever else baseline_kinds lists
        out_all, _ = _run(tmp_path, "all")
        out_one, _ = _run(tmp_path, "one", baseline_kinds="random_forest")
        forest = "clf_random_forest.json"
        assert (out_one / forest).read_bytes() == (out_all / forest).read_bytes()

    def test_comparison_has_one_row_per_model(self, tmp_path):
        out, _ = _run(tmp_path, "a")
        lines = (out / "comparison.csv").read_text().strip().split("\n")
        assert lines[0] == "Model,Precision,Recall,F1-score,Accuracy"
        models = [line.split(",")[0] for line in lines[1:]]
        cfg = default_config(dict(FAST_KEYS))
        assert models == ["ae"] + cfg.baseline_kinds()

    def test_lock_rejects_concurrent_run(self, tmp_path):
        out = tmp_path / "locked"
        cfg = default_config({**FAST_KEYS, "out_dir": str(out)})
        with _OutputDir(out):  # a live command holds the lock
            with pytest.raises(ConfigError, match="locked"):
                run_pipeline(cfg, quiet=True)
            assert [p.name for p in out.iterdir()] == [LOCK_NAME]
        assert not (out / LOCK_NAME).exists()

    def test_lock_of_dead_process_is_taken_over(self, tmp_path):
        out, leftovers, unlike = _dead_lock(tmp_path)
        with _OutputDir(out):
            assert (out / LOCK_NAME).read_text() == ""  # the lock holds no pid
            assert not any(path.exists() for path in leftovers)
            assert all(path.exists() for path in unlike)
        assert not (out / LOCK_NAME).exists()

    def test_failed_stage_writes_partial_manifest(self, tmp_path):
        out = tmp_path / "broken"
        cfg = default_config(
            {**FAST_KEYS, "source": "csv", "csv_path": str(tmp_path / "missing.csv"), "out_dir": str(out)}
        )
        # drop the synthetic keys so the csv source is the only one configured
        from aeromon.config import resolve_config

        cfg = resolve_config(
            {
                "source": "csv",
                "csv_path": str(tmp_path / "missing.csv"),
                "out_dir": str(out),
                "ae_max_epochs": 8,
            }
        )
        with pytest.raises(Exception, match="stage 'ingest' failed"):
            run_pipeline(cfg, quiet=True)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["partial"] is True
        assert manifest["failed_stage"] == "ingest"
        assert not (out / LOCK_NAME).exists()

    def test_partial_manifest_lists_only_finished_stages(self, tmp_path):
        # gaussian_nb is written, then logreg at l2 1 diverges in the same stage
        out = tmp_path / "work"
        cfg = default_config(
            {**FAST_KEYS, "baseline_kinds": "gaussian_nb,logreg", "logreg_l2_grid": "1", "out_dir": str(out)}
        )
        with pytest.raises(baselines.FitDiverged, match="stage 'train-baselines' failed"):
            run_pipeline(cfg, quiet=True)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["partial"] is True and manifest["failed_stage"] == "train-baselines"
        assert (out / "clf_gaussian_nb.json").exists()
        finished = {p.name for p in out.iterdir()} - {"clf_gaussian_nb.json", "manifest.json", "run_log.csv"}
        assert manifest["artifacts"] == sorted(finished)

    def test_stopped_run_leaves_no_earlier_manifest(self, tmp_path, monkeypatch):
        # a finished seed-1 run, then a seed-2 run into the same directory stopped in fit-scalers
        out, _ = _run(tmp_path, "a", seed=1)
        first_data = (out / "data.csv").read_bytes()

        def stopped(cfg, out):
            raise KeyboardInterrupt

        stages = tuple((name, stopped if name == "fit-scalers" else fn) for name, fn in _PIPELINE_STAGES)
        monkeypatch.setattr(pipeline, "_PIPELINE_STAGES", stages)
        with pytest.raises(KeyboardInterrupt):
            _run(tmp_path, "a", seed=2)
        assert (out / "data.csv").read_bytes() != first_data  # seed 2's files ...
        assert not (out / "manifest.json").exists()  # ... and no manifest of seed 1 beside them
        assert not (out / LOCK_NAME).exists()

    def test_csv_source_round_trip(self, tmp_path):
        data = generate_synthetic(SynthConfig(n_samples=600, seed=3))
        src = tmp_path / "telemetry.csv"
        save_csv(data, src)
        out = tmp_path / "from_csv"
        from aeromon.config import resolve_config

        cfg = resolve_config(
            {
                "source": "csv",
                "csv_path": str(src),
                "out_dir": str(out),
                "ae_max_epochs": 5,
                "forest_n_trees": 5,
                "mlp_epochs": 5,
                "logreg_l2_grid": "0",
                "logreg_epochs": 30,
                "seed": 1,
            }
        )
        manifest = run_pipeline(cfg, quiet=True)
        assert "comparison.csv" in manifest["artifacts"]
        assert (out / "data.csv").read_bytes() == src.read_bytes()


class TestCliStages:
    def test_stage_chain_and_rerun_stability(self, tmp_path):
        cfg_file = _fast_config_file(tmp_path)
        out = str(tmp_path / "work")
        base = ["--config", str(cfg_file), "--out", out, "--quiet"]
        for command in ("generate", "split", "fit-scalers", "train-ae", "calibrate", "score"):
            assert main(base + [command]) == 0, command
        # evaluate needs every configured baseline
        for kind in baselines.CLASSIFIER_KINDS:
            assert main(base + ["train-clf", "--kind", kind]) == 0
        assert main(base + ["evaluate"]) == 0
        assert main(base + ["compare"]) == 0
        assert main(base + ["histogram"]) == 0

        # rerunning a standalone stage reproduces identical bytes
        scorer_before = (Path(out) / "scorer.json").read_bytes()
        scores_before = (Path(out) / "scores.csv").read_bytes()
        assert main(base + ["calibrate"]) == 0
        assert main(base + ["score"]) == 0
        assert (Path(out) / "scorer.json").read_bytes() == scorer_before
        assert (Path(out) / "scores.csv").read_bytes() == scores_before

    def test_no_baselines_reads_no_training_set(self, tmp_path):
        cfg_file = _fast_config_file(tmp_path, baseline_kinds="")
        out = tmp_path / "work"
        base = ["--config", str(cfg_file), "--out", str(out), "--quiet"]
        for command in ("generate", "split", "fit-scalers"):
            assert main(base + [command]) == 0
        (out / "supervised_train.csv").unlink()
        cfg = default_config({**FAST_KEYS, "baseline_kinds": ""})
        work = _OutputDir(out)
        stage_train_baselines(cfg, work)
        assert work.written == []
        assert not list(out.glob("clf_*.json"))

    def test_score_reads_features_only(self, tmp_path):
        cfg_file = _fast_config_file(tmp_path)
        out = tmp_path / "work"
        base = ["--config", str(cfg_file), "--out", str(out), "--quiet"]
        for command in ("generate", "split", "fit-scalers", "train-ae", "calibrate"):
            assert main(base + [command]) == 0
        # destroying the labelled test split must not affect scoring
        (out / "test.csv").write_text("corrupted\n")
        assert main(base + ["score"]) == 0
        lines = (out / "scores.csv").read_text().strip().split("\n")
        assert lines[0] == "index,score,decision"
        assert len(lines) > 1

    def test_train_clf_cv_selects_over_grid(self, tmp_path, capsys, monkeypatch):
        cfg_file = _fast_config_file(tmp_path, knn_k_grid="1,5")
        out = str(tmp_path / "work")
        base = ["--config", str(cfg_file), "--out", out, "--quiet"]
        for command in ("generate", "split", "fit-scalers"):
            assert main(base + [command]) == 0
        capsys.readouterr()
        fits = []
        fit = baselines.train_classifier
        monkeypatch.setattr(baselines, "train_classifier", lambda *a, **kw: fits.append(1) or fit(*a, **kw))
        assert main(base[:-1] + ["train-clf", "--kind", "knn"]) == 0  # not quiet
        monkeypatch.undo()
        printed = capsys.readouterr().out.splitlines()
        assert printed.pop().startswith("[train-clf] wrote clf_knn.json (")
        assert (Path(out) / "clf_knn.json").exists()

        # the racing rule replayed on each candidate's exhaustive cross_validate
        # result: before fold f, a candidate stops once 1.0 on every fold left
        # could not lift its mean above the best mean before it
        candidates = default_config({**FAST_KEYS, "knn_k_grid": "1,5"}).baseline_candidates("knn")
        scaler = _OutputDir(out).read_scaler("scaler_supervised.json")
        scaled = apply_scaler(scaler, load_csv(Path(out) / "supervised_train.csv", has_labels=True))
        seed = derive_seed(7, STAGE_BASELINE_BASE + baselines.CLASSIFIER_KINDS.index("knn"))
        cv = [baselines.cross_validate(c, scaled, folds=5, seed=seed) for c in candidates]
        expected, expected_fits, best, best_mean = [], 1, None, -math.inf  # 1: the winner's refit
        for c, (mean_f1, per_fold) in zip(candidates, cv):
            bounds = [sum(per_fold[:f] + [1.0] * (5 - f)) / 5 for f in range(5)]
            ran = next((f for f, bound in enumerate(bounds) if bound <= best_mean), 5)
            expected_fits += ran
            if ran < 5:
                expected.append(f"knn k={c.k}: stopped after fold {ran} (bound {bounds[ran]:.4f} <= {best_mean:.4f})")
            else:
                expected.append(f"knn k={c.k}: mean F1 {mean_f1:.4f} per-fold {[round(f, 4) for f in per_fold]}")
                if mean_f1 > best_mean:
                    best, best_mean = c, mean_f1
        assert len(fits) == expected_fits < 2 * 5 + 1  # k=5 stops early here
        assert printed == expected + [f"selected k={best.k}"]

    def test_train_clf_reproduces_the_pipelines_files(self, tmp_path, capsys):
        # a two-value logreg grid: with no grid flag, train-clf selects over it as run does
        cfg_file = _fast_config_file(tmp_path, logreg_l2_grid="0,0.1")
        out = tmp_path / "work"
        base = ["--config", str(cfg_file), "--out", str(out), "--quiet"]
        assert main(base + ["run"]) == 0
        for kind in ("random_forest", "mlp", "logreg"):
            written = (out / f"clf_{kind}.json").read_bytes()
            (out / f"clf_{kind}.json").unlink()
            capsys.readouterr()
            assert main(base[:-1] + ["train-clf", "--kind", kind]) == 0  # not quiet
            assert (out / f"clf_{kind}.json").read_bytes() == written, kind
        # one line per grid value, then the selected one, then what the stage wrote
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in printed[:2]] == ["logreg l2_strength=0.0", "logreg l2_strength=0.1"]
        assert len(printed) == 2 + 1 + 1 and printed[2].startswith("selected l2_strength=")
        assert printed[3].startswith("[train-clf] wrote clf_logreg.json (")

    def test_run_prints_each_kinds_train_clf_lines(self, tmp_path, capsys):
        # run not quiet prints, before what train-baselines wrote, what train-clf prints for each kind
        cfg_file = _fast_config_file(tmp_path, logreg_l2_grid="0,0.1")
        out = tmp_path / "work"
        base = ["--config", str(cfg_file), "--out", str(out)]
        assert main(base + ["run"]) == 0
        printed = capsys.readouterr().out.splitlines()
        wrote = next(i for i, line in enumerate(printed) if line.startswith("[train-baselines] wrote "))
        kinds, expected = default_config(dict(FAST_KEYS)).baseline_kinds(), []
        for kind in kinds:
            written = (out / f"clf_{kind}.json").read_bytes()
            assert main(base + ["train-clf", "--kind", kind]) == 0
            assert (out / f"clf_{kind}.json").read_bytes() == written, kind
            alone = capsys.readouterr().out.splitlines()
            assert alone.pop().startswith("[train-clf] wrote ")
            expected += alone
        # logreg's two candidates, then each kind's selection
        assert [line.split(":")[0] for line in expected[:2]] == ["logreg l2_strength=0.0", "logreg l2_strength=0.1"]
        assert len(expected) == 2 + len(kinds)
        assert printed[wrote - len(expected) - 1].startswith("[calibrate] wrote ")
        assert printed[wrote - len(expected) : wrote] == expected

    def test_train_clf_fits_a_kind_baseline_kinds_leaves_out(self, tmp_path):
        cfg_file = _fast_config_file(tmp_path, baseline_kinds="")
        out = tmp_path / "work"
        base = ["--config", str(cfg_file), "--out", str(out), "--quiet"]
        for command in ("generate", "split", "fit-scalers", "train-clf --kind knn"):
            assert main(base + command.split()) == 0
        assert sorted(p.name for p in out.glob("clf_*.json")) == ["clf_knn.json"]

    def test_quiet_train_clf_prints_nothing(self, tmp_path, capsys):
        cfg_file = _fast_config_file(tmp_path, logreg_l2_grid="0,0.1")  # a grid, so there are CV lines to hold back
        base = ["--config", str(cfg_file), "--out", str(tmp_path / "work"), "--quiet"]
        for command in ("generate", "split", "fit-scalers"):
            assert main(base + [command]) == 0
        capsys.readouterr()
        assert main(base + ["train-clf", "--kind", "logreg"]) == 0
        assert capsys.readouterr().out == ""

    def test_run_command(self, tmp_path):
        cfg_file = _fast_config_file(tmp_path)
        out = tmp_path / "full"
        assert main(["--config", str(cfg_file), "--out", str(out), "--quiet", "run"]) == 0
        assert (out / "comparison.csv").exists()


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"source": "csv", "csv_path": "x.csv", "synth_n_samples": 500}))
        code = main(["--config", str(bad), "--quiet", "run"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_sample": 100}))
        assert main(["--config", str(bad), "--quiet", "run"]) == 2

    def test_non_object_config_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert main(["--config", str(bad), "--quiet", "run"]) == 2
        assert "error: config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["cv_folds", "histogram_bins"])
    def test_one_fold_or_bin_is_2_before_any_stage(self, tmp_path, capsys, key):
        cfg_file = _fast_config_file(tmp_path, **{key: 1})
        out = tmp_path / "work"
        assert main(["--config", str(cfg_file), "--out", str(out), "--quiet", "run"]) == 2
        assert f"error: {key} must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, code",
        [
            (["--out", "{file}", "generate"], 2),
            (["--config", "{dir}", "generate"], 2),
            (["--config", "{not_utf8}", "generate"], 2),
            (["--out", "{tmp}", "histogram", "--input", "a_directory"], 3),
            (["--config", "{csv_dir}", "--out", "{tmp}/work", "generate"], 3),
        ],
        ids=["out_is_a_file", "config_is_a_directory", "config_not_utf8", "histogram_input_is_a_directory",
             "csv_path_is_a_directory"],
    )
    def test_unreadable_path_exits_with_its_code_not_a_traceback(self, tmp_path, args, code):
        paths = {"tmp": tmp_path, "file": tmp_path / "a_file", "dir": tmp_path / "a_directory"}
        paths["file"].write_text("")
        paths["dir"].mkdir()
        paths["not_utf8"] = tmp_path / "not_utf8.json"
        paths["not_utf8"].write_bytes(b"\xff\xfe{}")
        paths["csv_dir"] = tmp_path / "csv_source.json"
        paths["csv_dir"].write_text(json.dumps({"source": "csv", "csv_path": str(paths["dir"])}))
        argv = [arg.format(**paths) for arg in args]
        child = subprocess.run(
            [sys.executable, "-m", "aeromon.cli", "--quiet", *argv],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == code, child.stderr
        assert child.stderr.startswith("error:") and "Traceback" not in child.stderr

    def test_data_error_is_3(self, tmp_path):
        cfg_file = _fast_config_file(tmp_path)
        out = str(tmp_path / "empty")
        # split before generate: data.csv missing
        assert main(["--config", str(cfg_file), "--out", out, "--quiet", "split"]) == 3

    def test_numeric_error_is_4(self, tmp_path):
        cfg_file = _fast_config_file(tmp_path)
        out = tmp_path / "work"
        base = ["--config", str(cfg_file), "--out", str(out), "--quiet"]
        assert main(base + ["generate"]) == 0
        assert main(base + ["split"]) == 0
        assert main(base + ["fit-scalers"]) == 0
        # single-class training file: degenerate labels
        import csv as csv_module

        path = out / "supervised_train.csv"
        rows = list(csv_module.reader(path.open()))
        header, body = rows[0], [r[:-1] + ["0"] for r in rows[1:]]
        with path.open("w", newline="") as fh:
            writer = csv_module.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(body)
        assert main(base + ["train-clf", "--kind", "gaussian_nb"]) == 4

    @pytest.mark.parametrize("name", ["ae_train.csv", "ae_val.csv"])
    def test_anomalous_reconstruction_split_is_3(self, tmp_path, capsys, name):
        cfg_file = _fast_config_file(tmp_path)
        out = tmp_path / "work"
        base = ["--config", str(cfg_file), "--out", str(out), "--quiet"]
        for command in ("generate", "split", "fit-scalers"):
            assert main(base + [command]) == 0
        # every row relabelled anomalous: early stopping on anomalies would pick the wrong epoch
        path = out / name
        clean = path.read_text()
        header, *body = clean.splitlines()
        relabelled = "\n".join([header] + [row.rsplit(",", 1)[0] + ",1" for row in body]) + "\n"
        path.write_text(relabelled)
        capsys.readouterr()
        assert main(base + ["train-ae"]) == 3
        assert "must contain only normal samples" in capsys.readouterr().err
        assert not (out / "model_ae.json").exists()
        if name == "ae_train.csv":  # the only split calibrate reads
            path.write_text(clean)
            assert main(base + ["train-ae"]) == 0
            path.write_text(relabelled)
            assert main(base + ["calibrate"]) == 3
            assert "calibration data must contain only normal samples" in capsys.readouterr().err
            assert not (out / "scorer.json").exists()

    @pytest.mark.parametrize(
        "key, value, keys",
        [
            ("synth_n_samples", 50, "synth_*"),
            ("ae_learning_rate", -1, "ae_*"),
            ("ae_plateau_factor", 1.5, "ae_*"),
            ("threshold_percentile", 100, "threshold_*"),
            ("forest_n_trees", 0, "random_forest baseline"),
            ("knn_k_grid", "4", "knn baseline"),
            ("mlp_hidden_units", 0, "mlp baseline"),
            ("synth_oat_high", -10, "synth_*"),
            ("synth_coupling_gap", 0.5, "synth_*"),
            ("ae_batch_size", 0, "ae_*"),
            ("logreg_l2_grid", "-1", "logreg baseline"),
            ("tree_max_depth", -1, "decision_tree baseline"),
        ],
    )
    def test_out_of_range_value_is_2_before_any_stage(self, tmp_path, capsys, key, value, keys):
        cfg_file = _fast_config_file(tmp_path, **{key: value})
        out = tmp_path / "work"
        assert main(["--config", str(cfg_file), "--out", str(out), "--quiet", "run"]) == 2
        assert f"error: {keys} keys:" in capsys.readouterr().err
        assert not out.exists()

    def test_forest_features_past_the_channels_is_2(self, tmp_path, capsys):
        cfg_file = _fast_config_file(tmp_path, forest_features_per_split=8)
        out = tmp_path / "work"
        assert main(["--config", str(cfg_file), "--out", str(out), "--quiet", "run"]) == 2
        assert "forest_features_per_split must be <= 7" in capsys.readouterr().err
        assert not out.exists()
        base = ["--config", str(_fast_config_file(tmp_path)), "--out", str(out), "--quiet"]
        for command in ("generate", "split", "fit-scalers"):
            assert main(base + [command]) == 0
        _fast_config_file(tmp_path, forest_features_per_split=8)  # rewrites the config file
        assert main(base + ["train-clf", "--kind", "random_forest"]) == 2
        assert not (out / "clf_random_forest.json").exists()
        _fast_config_file(tmp_path, forest_features_per_split=7)
        assert main(base + ["train-clf", "--kind", "random_forest"]) == 0

    def test_zero_ae_val_fraction_is_2_before_any_stage(self, tmp_path, capsys):
        cfg_file = _fast_config_file(tmp_path, ae_val_fraction=0)
        out = tmp_path / "work"
        assert main(["--config", str(cfg_file), "--out", str(out), "--quiet", "run"]) == 2
        assert "ae_val_fraction must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_test_part_is_3_at_split(self, tmp_path, capsys):
        # 0.0001 of 600 rows rounds to an empty test set
        cfg_file = _fast_config_file(tmp_path, test_fraction=0.0001)
        out = tmp_path / "work"
        assert main(["--config", str(cfg_file), "--out", str(out), "--quiet", "run"]) == 3
        err = capsys.readouterr().err
        assert "stage 'split' failed" in err and "test part of the split would be empty" in err
        assert json.loads((out / "manifest.json").read_text())["artifacts"] == ["data.csv"]

    def test_non_finite_baseline_key_stops_train_clf(self, tmp_path, capsys):
        cfg_file = _fast_config_file(tmp_path)
        out = tmp_path / "work"
        base = ["--config", str(cfg_file), "--out", str(out), "--quiet"]
        for command in ("generate", "split", "fit-scalers"):
            assert main(base + [command]) == 0
        capsys.readouterr()
        for key, value in (("logreg_learning_rate", math.nan), ("logreg_l2_grid", "inf")):
            _fast_config_file(tmp_path, **{key: value})  # rewrites cfg_file
            assert main(base + ["train-clf", "--kind", "logreg"]) == 2
            assert key in capsys.readouterr().err
        assert not (out / "clf_logreg.json").exists()

    @pytest.mark.parametrize("flag", [["--k", "5"], ["--trees", "5"], ["--l2", "0"]])
    def test_hyperparameter_flag_is_2_through_argparse(self, capsys, flag):
        # hyperparameters come from the config file only; --k is not taken for --kind
        with pytest.raises(SystemExit) as exited:
            main(["train-clf", "--kind", "knn", *flag])
        assert exited.value.code == 2
        assert f"error: unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_diverged_fit_is_not_written(self, tmp_path, capsys):
        cfg_file = _fast_config_file(tmp_path)
        out = tmp_path / "work"
        base = ["--config", str(cfg_file), "--out", str(out), "--quiet"]
        for command in ("generate", "split", "fit-scalers"):
            assert main(base + [command]) == 0
        # the weights overflow to inf and then NaN; each fit stops with its own
        # error, the only message: no numpy warning escapes the fit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            capsys.readouterr()
            _fast_config_file(tmp_path, mlp_learning_rate=1e300, mlp_epochs=3)  # rewrites cfg_file
            assert main(base + ["train-clf", "--kind", "mlp"]) == 4
            assert capsys.readouterr().err == "error: mlp fit diverged\n"
            _fast_config_file(tmp_path, ae_learning_rate=1e300)  # rewrites cfg_file
            assert main(base + ["train-ae"]) == 4
        assert "autoencoder training diverged" in capsys.readouterr().err
        assert not (out / "clf_mlp.json").exists()
        assert not (out / "model_ae.json").exists()

    def test_diverged_logreg_fit_is_4_and_not_written(self, tmp_path, capsys):
        cfg_file = _fast_config_file(tmp_path)
        out = tmp_path / "work"
        base = ["--config", str(cfg_file), "--out", str(out), "--quiet"]
        for command in ("generate", "split", "fit-scalers"):
            assert main(base + [command]) == 0
        capsys.readouterr()
        # at learning rate 2, l2 = 1 flips the weights' sign every step; at 1e300 the
        # outputs saturate to exactly 0 and 1, whose log raises no divide warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for keys in ({"logreg_l2_grid": "1"}, {"logreg_learning_rate": 1e300}):
                _fast_config_file(tmp_path, **keys)  # rewrites cfg_file
                assert main(base + ["train-clf", "--kind", "logreg"]) == 4
                assert capsys.readouterr().err == "error: logreg fit diverged\n"
        assert not (out / "clf_logreg.json").exists()

    def test_diverged_candidate_is_reported_and_skipped(self, tmp_path, capsys):
        out = tmp_path / "work"
        base = ["--config", str(_fast_config_file(tmp_path, logreg_l2_grid="0")), "--out", str(out)]
        for command in ("generate", "split", "fit-scalers"):
            assert main(base + ["--quiet", command]) == 0
        assert main(base + ["--quiet", "train-clf", "--kind", "logreg"]) == 0
        alone = (out / "clf_logreg.json").read_bytes()
        capsys.readouterr()
        _fast_config_file(tmp_path, logreg_l2_grid="0,1")  # rewrites the config file
        assert main(base + ["train-clf", "--kind", "logreg"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0].startswith("logreg l2_strength=0.0: mean F1 ")
        assert printed[1:3] == ["logreg l2_strength=1.0: diverged", "selected l2_strength=0.0"]
        assert (out / "clf_logreg.json").read_bytes() == alone


@pytest.fixture(scope="module")
def calibrated(tmp_path_factory):
    """A work directory holding a calibrated scorer and test features."""
    root = tmp_path_factory.mktemp("calibrated")
    cfg_file = _fast_config_file(root)
    out = root / "work"
    for command in ("generate", "split", "fit-scalers", "train-ae", "calibrate"):
        assert main(["--config", str(cfg_file), "--out", str(out), "--quiet", command]) == 0
    return cfg_file, out


def _files(out):
    """name -> (bytes, mtime, inode) of each file but the run log and the lock;
    an atomic write replaces the inode even when the bytes come out the same."""
    stats = {p.name: (p, p.stat()) for p in out.iterdir() if p.name not in ("run_log.csv", LOCK_NAME)}
    return {name: (p.read_bytes(), st.st_mtime_ns, st.st_ino) for name, (p, st) in stats.items()}


def _reported(printed):
    """The names listed by each `[stage] wrote a, b (0.12s)` progress line, in order."""
    lines = re.findall(r"^\[[a-z-]+\] wrote (.*) \(\d+\.\d\ds\)$", printed, re.MULTILINE)
    return [name for line in lines for name in line.split(", ")]


class TestStageRunner:
    """`run` and every standalone command lock, time and log through one runner."""

    @pytest.mark.parametrize("command", STANDALONE)
    def test_live_lock_stops_every_command(self, evaluated, tmp_path, capsys, command):
        cfg_file, src = evaluated
        out = tmp_path / "work"
        shutil.copytree(src, out)
        with _OutputDir(out):  # a live command holds the lock
            before = {p.name: p.read_bytes() for p in out.iterdir()}
            assert main(["--config", str(cfg_file), "--out", str(out), "--quiet", *command.split()]) == 2
            assert "error: output directory is locked by another run" in capsys.readouterr().err
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_standalone_command_takes_over_a_dead_lock(self, tmp_path):
        out, leftovers, unlike = _dead_lock(tmp_path)
        assert main(["--config", str(_fast_config_file(tmp_path)), "--out", str(out), "--quiet", "generate"]) == 0
        assert (out / "data.csv").exists()
        assert not any(path.exists() for path in leftovers)
        assert all(path.exists() for path in unlike)
        assert not (out / LOCK_NAME).exists()

    def test_next_command_removes_a_killed_commands_write(self, tmp_path):
        out = tmp_path / "work"
        out.mkdir()
        _, leftover = _interrupted_write(out, hold_lock=True)
        # the killed holder leaves its lock file, which holds no pid and no lock
        assert (out / LOCK_NAME).read_text() == "" and not (out / "data.csv").exists()
        assert main(["--config", str(_fast_config_file(tmp_path)), "--out", str(out), "--quiet", "generate"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["data.csv", "run_log.csv"]

    @pytest.mark.parametrize("stale", ["1", "own pid", ""], ids=["pid_1", "own_pid", "empty"])
    def test_lock_file_no_process_holds_is_taken_over(self, tmp_path, stale):
        # pid 1 is alive but holds no lock; a killed command's pid may come back as this process's
        out = tmp_path / "work"
        out.mkdir()
        (out / LOCK_NAME).write_text(str(os.getpid()) if stale == "own pid" else stale)
        assert main(["--config", str(_fast_config_file(tmp_path)), "--out", str(out), "--quiet", "generate"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["data.csv", "run_log.csv"]

    def test_lock_held_by_another_process_stops_a_command_until_it_dies(self, tmp_path, capsys):
        out = tmp_path / "work"
        base = ["--config", str(_fast_config_file(tmp_path)), "--out", str(out), "--quiet"]
        assert main(base + ["generate"]) == 0
        (child,) = _holders(out, 600, 1)
        try:
            assert child.stdout.readline() == "entered\n"
            before = {p.name: p.read_bytes() for p in out.iterdir()}
            assert main(base + ["split"]) == 2
            assert "error: output directory is locked by another run" in capsys.readouterr().err
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        finally:
            child.kill()
            child.communicate(timeout=60)
        # the kernel drops a killed holder's lock; its lock file stays behind, and the next command runs
        assert (out / LOCK_NAME).exists()
        assert main(base + ["split"]) == 0
        assert not (out / LOCK_NAME).exists()

    def test_one_of_two_commands_on_a_stale_lock_enters(self, tmp_path):
        out = tmp_path / "work"
        out.mkdir()
        (out / LOCK_NAME).write_text("1")
        said = sorted((child.communicate(timeout=60)[0], child.returncode) for child in _holders(out, 2, 2))
        assert said == [("", 2), ("entered\n", 0)]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("replaced, code", [(True, 2), (False, 0)], ids=["by_a_new_holder", "by_nothing"])
    def test_lock_file_unlinked_before_flock_is_not_held(self, tmp_path, capsys, monkeypatch, replaced, code):
        # the holder before this command finishes between this command's open and flock, unlinking the file
        # it opened; a new holder may take the path. Locking the unlinked file would let two commands in.
        out = tmp_path / "work"
        out.mkdir()
        lock, real_flock, held = out / LOCK_NAME, fcntl.flock, []

        def racing(fh, operation):
            if not held:
                lock.unlink()
                held.append(open(lock, "ab") if replaced else None)
                if replaced:
                    real_flock(held[0], fcntl.LOCK_EX | fcntl.LOCK_NB)
            real_flock(fh, operation)

        monkeypatch.setattr(pipeline.fcntl, "flock", racing)
        argv = ["--config", str(_fast_config_file(tmp_path)), "--out", str(out), "--quiet", "generate"]
        try:
            assert main(argv) == code
        finally:
            if replaced:
                held[0].close()
        names = sorted(p.name for p in out.iterdir())
        if replaced:
            assert "error: output directory is locked by another run" in capsys.readouterr().err
            assert names == [LOCK_NAME]
        else:
            assert names == ["data.csv", "run_log.csv"]

    @pytest.mark.parametrize("held, code", [(False, 0), (True, 2)], ids=["free", "held"])
    def test_lock_file_of_another_user(self, tmp_path, capsys, monkeypatch, held, code):
        # this process may not open the lock file for writing, as with another user's file (tests run as
        # root, so the refusal is made): it locks the file read-only; free, it takes the file's place
        out = tmp_path / "work"
        out.mkdir()
        lock, real_open, refused = out / LOCK_NAME, open, []

        def foreign(file, mode="r", *args, **kwargs):
            if Path(file) == lock and mode == "ab" and not refused:
                refused.append(mode)
                raise PermissionError(13, "Permission denied", str(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(pipeline, "open", foreign, raising=False)
        # what the lock file holds once the command has its lock
        locked = []
        monkeypatch.setattr(pipeline, "remove_unfinished_writes", lambda directory: locked.append(lock.read_text()))
        argv = ["--config", str(_fast_config_file(tmp_path)), "--out", str(out), "--quiet", "generate"]
        lock.write_text("4242")  # another user's pid
        with _holding(lock, "4242") if held else contextlib.nullcontext():
            assert main(argv) == code
            assert refused == ["ab"]
            if held:
                assert "error: output directory is locked by another run" in capsys.readouterr().err
                assert [p.name for p in out.iterdir()] == [LOCK_NAME] and lock.read_text() == "4242"
                assert locked == []
        if not held:
            assert locked == [""]  # a file of its own in the other user's file's place
            assert sorted(p.name for p in out.iterdir()) == ["data.csv", "run_log.csv"]

    def test_each_command_writes_exactly_the_names_it_reports(self, tmp_path, capsys):
        cfg_file = _fast_config_file(tmp_path)
        for out, commands in ((tmp_path / "full", ["run"]), (tmp_path / "work", STANDALONE)):
            out.mkdir()
            for command in commands:
                before = _files(out)
                capsys.readouterr()
                assert main(["--config", str(cfg_file), "--out", str(out), *command.split()]) == 0, command
                after = _files(out)
                changed = {name for name in before.keys() | after.keys() if before.get(name) != after.get(name)}
                reported = set(_reported(capsys.readouterr().out)) | ({"manifest.json"} if command == "run" else set())
                assert changed == reported, command

    def test_each_command_opens_only_the_names_it_reads(self, tmp_path, capsys, monkeypatch):
        # the read-side twin of the test above: each artifact a command opens in its output
        # directory is a name it asked `_OutputDir.read` for; a standalone command opens each one
        cfg_file = _fast_config_file(tmp_path)
        asked, opened = [], []
        read, real_open = _OutputDir.read, io.open
        monkeypatch.setattr(_OutputDir, "read", lambda out, name, load: asked.append(name) or read(out, name, load))

        def watched(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and set(mode) <= set("rbt"):
                opened.append(Path(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", watched)
        monkeypatch.setattr(io, "open", watched)
        names = {}
        for out, commands in ((tmp_path / "full", ["run"]), (tmp_path / "work", STANDALONE)):
            for command in commands:
                asked.clear()
                opened.clear()
                assert main(["--config", str(cfg_file), "--out", str(out), "--quiet", *command.split()]) == 0, command
                names[command] = {path.name for path in opened if path.parent == out}
                names[command] -= {"run_log.csv", LOCK_NAME, "manifest.json"}
                assert names[command] <= set(asked), command
                if command != "run":
                    assert names[command] == set(asked), command
        assert names["run"] == {path.name for path in _classifiers_and_reports(tmp_path / "full")}

    def test_failed_stage_says_its_finished_kinds_and_logs_its_time(self, tmp_path, capsys):
        # knn is written, then logreg at l2 1 diverges in the same stage
        cfg_file = _fast_config_file(tmp_path, baseline_kinds="knn,logreg", knn_k_grid="1,5", logreg_l2_grid="1")
        out = tmp_path / "work"
        assert main(["--config", str(cfg_file), "--out", str(out), "run"]) == 4
        printed, err = capsys.readouterr()
        assert err.startswith("error: stage 'train-baselines' failed: ")
        printed = printed.splitlines()
        said = printed[next(i for i, line in enumerate(printed) if line.startswith("[calibrate] wrote ")) + 1 :]
        # what train-clf prints for knn, but its last line, and nothing after it
        assert main(["--config", str(cfg_file), "--out", str(out), "train-clf", "--kind", "knn"]) == 0
        alone = capsys.readouterr().out.splitlines()
        assert alone.pop().startswith("[train-clf] wrote clf_knn.json (")
        assert said == alone and [line.split(":")[0] for line in said[:2]] == ["knn k=1", "knn k=5"]
        assert said[2].startswith("selected k=")
        log = (out / "run_log.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in log] == ["stage", *(name for name, _ in _PIPELINE_STAGES[:6]), "train-clf"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["partial"] is True and manifest["failed_stage"] == "train-baselines"
        finished = {p.name for p in out.iterdir()} - {"clf_knn.json", "manifest.json", "run_log.csv"}
        assert manifest["artifacts"] == sorted(finished)

    def test_lock_without_a_pid_is_held(self, tmp_path, capsys):
        # the lock of a live holder that has created the file but written nothing
        out = tmp_path / "work"
        out.mkdir()
        with _holding(out / LOCK_NAME):
            assert main(["--config", str(_fast_config_file(tmp_path)), "--out", str(out), "--quiet", "generate"]) == 2
            assert "error: output directory is locked by another run" in capsys.readouterr().err
            assert [p.name for p in out.iterdir()] == [LOCK_NAME] and (out / LOCK_NAME).read_text() == ""

    def test_names_are_reported_in_write_order(self, evaluated, tmp_path, capsys):
        _, src = evaluated
        out = tmp_path / "work"
        shutil.copytree(src, out)
        kinds = list(reversed(baselines.CLASSIFIER_KINDS))  # not the default order
        base = ["--config", str(_fast_config_file(tmp_path, baseline_kinds=",".join(kinds))), "--out", str(out)]
        capsys.readouterr()
        assert main(base + ["split"]) == 0
        split_names = ["test.csv", "test_features.csv", "supervised_train.csv", "ae_train.csv", "ae_val.csv"]
        assert _reported(capsys.readouterr().out) == split_names
        assert main(base + ["evaluate"]) == 0
        assert _reported(capsys.readouterr().out) == [f"report_{name}.json" for name in ["ae", *kinds]]

    def test_run_log_is_one_append_only_log(self, tmp_path):
        out = tmp_path / "work"
        base = ["--config", str(_fast_config_file(tmp_path)), "--out", str(out), "--quiet"]
        for command in ("generate", "split"):
            assert main(base + [command]) == 0
        standalone = (out / "run_log.csv").read_text()
        assert [line.split(",")[0] for line in standalone.splitlines()] == ["stage", "ingest", "split"]
        assert main(base + ["run"]) == 0
        log = (out / "run_log.csv").read_text()
        assert log.startswith(standalone)
        rows = log[len(standalone) :].splitlines()
        assert [row.split(",")[0] for row in rows] == [name for name, _ in _PIPELINE_STAGES]
        assert all(re.fullmatch(r"[a-z-]+,\d+\.\d{3}", row) for row in standalone.splitlines()[1:] + rows)

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
        commands = [line.split("#")[0].split() for block in blocks for line in block.splitlines()]
        commands = [argv for argv in commands if argv[:1] == ["aeromon"]]
        assert len(commands) >= 12
        parser = _build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {' '.join(argv)}")

    def test_runner_table_matches_the_parser(self):
        parser = _build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        assert set(_STAGES) == {"ingest" if c == "generate" else c for c in commands} - {"run"}
        assert {command.split()[0] for command in STANDALONE} == set(commands) - {"run"}


def _set_literal(path, keys, literal):
    """Write the JSON text `literal` (e.g. NaN, 1e999) at the nested position `keys`."""
    d = json.loads(path.read_text())
    holder = d
    for key in keys[:-1]:
        holder = holder[key]
    holder[keys[-1]] = "@literal@"
    path.write_text(json.dumps(d).replace('"@literal@"', literal))


class TestBrokenScorer:
    @pytest.mark.parametrize(
        "damage", ["garbage", "no_threshold", "short_cov", "unknown_policy", "nan_scaler", "format_v1", "no_digest"]
    )
    def test_score_exits_3(self, calibrated, tmp_path, capsys, damage):
        cfg_file, src = calibrated
        out = tmp_path / "work"
        shutil.copytree(src, out)
        path = out / "scorer.json"
        if damage == "garbage":
            path.write_text("{not json")
        elif damage == "nan_scaler":
            _set_literal(path, ["scaler", "mins", 0], "NaN")
        else:
            d = json.loads(path.read_text())
            if damage == "no_threshold":
                del d["threshold"]
            elif damage == "unknown_policy":
                d["policy"] = "bogus"
            elif damage == "format_v1":
                d["format_version"] = 1
            elif damage == "no_digest":
                del d["network_sha256"]
            else:
                d["residual_cov"] = d["residual_cov"][:-1]
            path.write_text(json.dumps(d))
        assert main(["--config", str(cfg_file), "--out", str(out), "--quiet", "score"]) == 3
        assert "error:" in capsys.readouterr().err
        assert not (out / "scores.csv").exists()

    @pytest.mark.parametrize(
        "damage, code, message",
        [
            # symmetric with a negative trace: no jitter can factor it, a numeric error
            (
                lambda cov, dim: [-1.0 if i % (dim + 1) == 0 else 0.0 for i in range(dim * dim)],
                4,
                "error: covariance is not positive definite",
            ),
            # one off-diagonal entry changed: not symmetric, a broken file
            (lambda cov, dim: [v + (i == 1) for i, v in enumerate(cov)], 3, "ShapeError: matrix is not symmetric"),
        ],
        ids=["negative_identity", "asymmetric"],
    )
    def test_stored_covariance_exit_code(self, calibrated, tmp_path, capsys, damage, code, message):
        cfg_file, src = calibrated
        out = tmp_path / "work"
        shutil.copytree(src, out)
        path = out / "scorer.json"
        d = json.loads(path.read_text())
        assert d["policy"] == "mahalanobis"
        d["residual_cov"] = damage(d["residual_cov"], len(d["residual_mean"]))
        path.write_text(json.dumps(d))
        assert main(["--config", str(cfg_file), "--out", str(out), "--quiet", "score"]) == code
        assert message in capsys.readouterr().err
        assert not (out / "scores.csv").exists()


class TestStaleScorer:
    def test_digest_is_the_network_files_sha256_prefix(self, calibrated):
        _, out = calibrated
        digest = json.loads((out / "scorer.json").read_text())["network_sha256"]
        assert digest == hashlib.sha256((out / "model_ae.json").read_bytes()).hexdigest()[:16]

    def test_retrained_network_exits_3(self, calibrated, tmp_path, capsys):
        cfg_file, src = calibrated
        out = tmp_path / "work"
        shutil.copytree(src, out)
        base = ["--config", str(cfg_file), "--out", str(out), "--quiet"]
        assert main(base + ["train-ae"]) == 0  # the same seed writes the same network
        assert main(base + ["score"]) == 0
        assert main(["--seed", "8", *base, "train-ae"]) == 0
        for command in ("score", "evaluate"):
            assert main(base + [command]) == 3
            assert "calibrated on another network; rerun calibrate" in capsys.readouterr().err
        assert main(base + ["calibrate"]) == 0
        assert main(base + ["score"]) == 0


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """A work directory after a full run with all six baselines."""
    root = tmp_path_factory.mktemp("evaluated")
    cfg_file = _fast_config_file(root)
    out = root / "work"
    assert main(["--config", str(cfg_file), "--out", str(out), "--quiet", "run"]) == 0
    return cfg_file, out


@pytest.mark.invariant
def test_threshold_covers_healthy_p85_iff_at_most_15_percent_flagged(evaluated):
    """threshold >= report_ae's healthy p85 exactly when at most n-1-ceil(0.85 (n-1))
    of the n healthy test rows are flagged; checked for the calibrated threshold, for
    every healthy score and for the float just below each."""
    _, out = evaluated
    report = json.loads((out / "report_ae.json").read_text())
    p85, cm = report["scores"]["normal"]["p85"], report["confusion"]
    test = load_csv(out / "test.csv", has_labels=True)
    scorer = _OutputDir(out).read_scorer()
    healthy = np.sort(classify(scorer, test.features[test.labels == 0])[1])
    n = healthy.size
    assert n == cm["fp"] + cm["tn"] and healthy.max() > healthy.min()
    allowed = n - 1 - math.ceil(0.85 * (n - 1))
    assert (scorer.threshold >= p85) == (cm["fp"] <= allowed)
    for t in [scorer.threshold, *healthy, *np.nextafter(healthy, -np.inf)]:
        assert (t >= p85) == (int((healthy > t).sum()) <= allowed)


def _edit_json(path, edit):
    d = json.loads(path.read_text())
    edit(d)
    path.write_text(json.dumps(d))


def _to_format_v1(net):
    """Rewrite a network dict in place into the version-1 layout: a list of per-layer dicts."""
    flat, layers = net.pop("params"), []
    for n_in, n_out in zip(net["topology"], net["topology"][1:]):
        end = n_out * (n_in + 1)
        layers.append({"weights": flat[: end - n_out], "biases": flat[end - n_out : end]})
        flat = flat[end:]
    net.update(format_version=1, layers=layers)


def _copy_network(src_name):
    """Damage: replace the file's `network` with the one in `src_name`, a sibling file."""
    return lambda p: _edit_json(p, lambda d: d.update(network=json.loads(p.with_name(src_name).read_text())["network"]))


def _widen_hidden_layer(d):
    """Damage: the MLP file's config asks for one more hidden unit than its network has."""
    d["config"]["hidden_units"] += 1


def _replace_first_row(path, row):
    lines = path.read_text().splitlines()
    lines[1] = row
    path.write_text("\n".join(lines) + "\n")


def _put_byte_ff(path):
    # the second byte of the first data row becomes 0xff, which is never UTF-8
    data = bytearray(path.read_bytes())
    data[data.index(b"\n") + 2] = 0xFF
    path.write_bytes(bytes(data))


def _set_first_label(path, cell):
    """Damage: the label cell of a labelled CSV's first data row becomes `cell`."""
    first = path.read_text().splitlines()[1]
    _replace_first_row(path, first.rsplit(",", 1)[0] + "," + cell)


def _narrow(*keys):
    """Damage: drop the last column of each (rows, channels) array under `keys`."""
    return lambda p: _edit_json(p, lambda d: [row.pop() for key in keys for row in d[key]])


def _k_above_rows(d):
    """Damage: the kNN file's config asks for more neighbours (an odd count) than it has training rows."""
    d["config"]["k"] = 2 * len(d["train_labels"]) + 1


def _narrow_logreg_network(d):
    """Damage: a logreg network for 6 channels: topology [6, 1], 6 weights and the bias."""
    d["network"].update(topology=[6, 1], params=d["network"]["params"][1:])


def _narrow_scaler(p):
    """Damage: a scaler file for 6 channels: the last entry of `mins` and of `ranges` dropped."""
    _edit_json(p, lambda d: [d[key].pop() for key in ("mins", "ranges")])


def _narrow_scorer_scaler(p):
    """Damage: the scaler inside scorer.json for 6 channels, against the 7-input network."""
    _edit_json(p, lambda d: [d["scaler"][key].pop() for key in ("mins", "ranges")])


def _put_network(layers):
    """Damage: the file holds a fresh network of `layers`, (in_dim, out_dim, activation) triples."""
    return lambda p: save_network(init_network([LayerSpec(*layer) for layer in layers], 0), p)


_SIX_WIDE_AE = ((6, 5, "elu"), (5, 3, "identity"), (3, 5, "elu"), (5, 6, "identity"))
_SIGMOID_7_3_7 = ((7, 3, "sigmoid"), (3, 7, "identity"))
_EMPTY_TREE = dict.fromkeys(("feature", "threshold", "left", "right", "leaf"), [])
_NO_LAYERS = {"topology": [7], "activations": [], "params": []}
# a tree as nested dicts, as older versions wrote tree files
_NESTED_TREE = {"feature": 0, "threshold": 0.5, "left": {"leaf": 0.0, "n": 3}, "right": {"leaf": 1.0, "n": 3}}


class TestBrokenArtifacts:
    @pytest.mark.parametrize(
        "command, name, damage",
        [
            ("calibrate", "scaler_ae.json", lambda p: p.write_text("{not json")),
            ("calibrate", "model_ae.json", lambda p: p.write_text(p.read_text()[:100])),
            ("calibrate", "model_ae.json", lambda p: _edit_json(p, lambda d: d["params"].pop(0))),
            ("evaluate", "clf_knn.json", lambda p: _edit_json(p, lambda d: d.pop("config"))),
            ("evaluate", "clf_logreg.json", lambda p: _edit_json(p, lambda d: d.update(format_version=1))),
            ("evaluate", "clf_mlp.json", lambda p: _edit_json(p, lambda d: d.update(format_version=3))),
            ("evaluate", "scaler_supervised.json", lambda p: _edit_json(p, lambda d: d.pop("ranges"))),
            ("compare", "report_knn.json", lambda p: p.write_text("")),
            ("compare", "report_knn.json", lambda p: _edit_json(p, lambda d: d.update(f1=None))),
            ("evaluate", "test.csv", lambda p: _set_first_label(p, "x")),
            ("evaluate", "test.csv", lambda p: _replace_first_row(p, "0")),
            ("evaluate", "test.csv", lambda p: _set_first_label(p, "2")),
            ("evaluate", "test.csv", lambda p: _set_first_label(p, "300")),
            ("evaluate", "test.csv", _put_byte_ff),
            ("score", "test_features.csv", _put_byte_ff),
            ("evaluate", "clf_knn.json", lambda p: _edit_json(p, lambda d: d["config"].update(k=4))),
            ("calibrate", "model_ae.json", lambda p: _set_literal(p, ["params", 0], "Infinity")),
            ("evaluate", "clf_logreg.json", lambda p: _set_literal(p, ["network", "params", 0], "1e999")),
            ("evaluate", "scaler_supervised.json", lambda p: _set_literal(p, ["ranges", 2], "-Infinity")),
            # params[55] is layer 1's first bias, after 7*5+5 and 5*3 entries
            ("calibrate", "model_ae.json", lambda p: _set_literal(p, ["params", 55], "1" + "0" * 400)),
            ("evaluate", "clf_decision_tree.json", lambda p: _set_literal(p, ["root", "feature", 0], "9")),
            ("evaluate", "clf_decision_tree.json", lambda p: _set_literal(p, ["root", "feature", 0], "-2")),
            ("evaluate", "clf_decision_tree.json", lambda p: _edit_json(p, lambda d: d["root"].pop("leaf"))),
            ("evaluate", "clf_decision_tree.json", lambda p: _edit_json(p, lambda d: d["root"]["leaf"].pop())),
            ("evaluate", "clf_decision_tree.json", lambda p: _edit_json(p, lambda d: d.update(root=_EMPTY_TREE))),
            ("evaluate", "clf_decision_tree.json", lambda p: _set_literal(p, ["root", "left", 0], "0")),
            ("evaluate", "clf_decision_tree.json", lambda p: _set_literal(p, ["root", "right", 0], "1000000")),
            ("evaluate", "clf_decision_tree.json", lambda p: _set_literal(p, ["root", "leaf", -1], "1.5")),
            ("evaluate", "clf_decision_tree.json", lambda p: _set_literal(p, ["root", "feature", 0], "0.5")),
            ("evaluate", "clf_decision_tree.json", lambda p: _edit_json(p, lambda d: d.update(root=_NESTED_TREE))),
            ("evaluate", "clf_random_forest.json", lambda p: _edit_json(p, lambda d: d.update(trees=[]))),
            ("evaluate", "clf_random_forest.json", lambda p: _edit_json(p, lambda d: d["trees"].pop())),
            ("evaluate", "clf_random_forest.json", lambda p: _set_literal(p, ["trees", 3, "feature", 0], "9")),
            ("calibrate", "model_ae.json", lambda p: _edit_json(p, lambda d: d["activations"].__setitem__(0, "relu"))),
            ("calibrate", "model_ae.json", lambda p: _set_literal(p, ["topology", 1], "0")),
            ("calibrate", "model_ae.json", lambda p: _edit_json(p, lambda d: d["activations"].append("identity"))),
            ("calibrate", "model_ae.json", lambda p: _edit_json(p, lambda d: d["topology"].pop())),
            ("calibrate", "model_ae.json", lambda p: _edit_json(p, lambda d: d.update(params=d["params"][:-42]))),
            ("calibrate", "model_ae.json", lambda p: _edit_json(p, lambda d: d["params"].append(0.0))),
            ("calibrate", "model_ae.json", lambda p: _edit_json(p, _to_format_v1)),
            ("calibrate", "model_ae.json", lambda p: _edit_json(p, lambda d: d.update(_NO_LAYERS))),
            ("evaluate", "clf_mlp.json", lambda p: _edit_json(p, lambda d: d["network"]["activations"].append("elu"))),
            ("evaluate", "clf_mlp.json", lambda p: _edit_json(p, lambda d: d["network"]["topology"].pop())),
            ("evaluate", "clf_mlp.json", lambda p: _edit_json(p, lambda d: d["network"]["params"].pop())),
            ("evaluate", "clf_mlp.json", lambda p: _edit_json(p, lambda d: d["network"]["params"].append(0.0))),
            ("evaluate", "clf_mlp.json", lambda p: _edit_json(p, lambda d: _to_format_v1(d["network"]))),
            ("calibrate", "scaler_ae.json", lambda p: _set_literal(p, ["ranges", 0], "-1.0")),
            ("calibrate", "scaler_ae.json", lambda p: _edit_json(p, lambda d: d["mins"].pop())),
            ("score", "scorer.json", lambda p: _edit_json(p, lambda d: d.update(threshold="nan"))),
            ("evaluate", "clf_logreg.json", lambda p: shutil.copyfile(p.with_name("clf_knn.json"), p)),
            ("evaluate", "clf_logreg.json", lambda p: shutil.copyfile(p.with_name("clf_mlp.json"), p)),
            ("evaluate", "test.csv", lambda p: p.unlink()),
            ("evaluate", "clf_logreg.json", _copy_network("clf_mlp.json")),
            ("evaluate", "clf_mlp.json", _copy_network("clf_logreg.json")),
            ("evaluate", "clf_mlp.json", lambda p: _edit_json(p, _widen_hidden_layer)),
            ("evaluate", "clf_gaussian_nb.json", lambda p: _set_literal(p, ["variances", 0, 0], "0.0")),
            ("evaluate", "clf_gaussian_nb.json", _narrow("means", "variances")),
            ("evaluate", "clf_knn.json", _narrow("train_features")),
            ("evaluate", "clf_knn.json", lambda p: _set_literal(p, ["train_labels", 0], "2")),
            ("evaluate", "clf_knn.json", lambda p: _edit_json(p, _k_above_rows)),
            ("evaluate", "clf_logreg.json", lambda p: _edit_json(p, _narrow_logreg_network)),
            ("train-ae", "scaler_ae.json", _narrow_scaler),
            ("calibrate", "scaler_ae.json", _narrow_scaler),
            ("train-clf --kind gaussian_nb", "scaler_supervised.json", _narrow_scaler),
            ("evaluate", "scaler_supervised.json", _narrow_scaler),
            ("score", "scorer.json", _narrow_scorer_scaler),
            ("calibrate", "model_ae.json", _put_network(_SIX_WIDE_AE)),
            ("evaluate", "model_ae.json", _put_network(_SIX_WIDE_AE)),
            ("calibrate", "model_ae.json", _put_network(_SIGMOID_7_3_7)),
            ("score", "model_ae.json", _put_network(_SIGMOID_7_3_7)),
            ("evaluate", "clf_knn.json", lambda p: _edit_json(p, lambda d: d["config"].update(kind="svm"))),
            ("compare", "report_knn.json", lambda p: p.unlink()),
            ("evaluate", "scorer.json", lambda p: _edit_json(p, lambda d: d.update(threshold=True))),
            ("score", "scorer.json", lambda p: _edit_json(p, lambda d: d.update(threshold="1.5"))),
            ("score", "scorer.json", lambda p: _edit_json(p, lambda d: d.update(percentile=True))),
            ("score", "scorer.json", lambda p: _edit_json(p, lambda d: d.update(n_fit=-2.5))),
            ("score", "scorer.json", lambda p: _edit_json(p, lambda d: d.update(policy="mse"))),
            ("compare", "report_knn.json", lambda p: shutil.copyfile(p.with_name("report_logreg.json"), p)),
            ("compare", "report_ae.json", lambda p: _edit_json(p, lambda d: d.update(f1=True))),
        ],
        ids=[
            "garbage_scaler",
            "truncated_model",
            "short_model_weights",
            "clf_without_config",
            "clf_format_v1",
            "clf_format_v3",
            "scaler_without_ranges",
            "empty_report",
            "report_f1_null",
            "label_not_int",
            "label_missing",
            "label_two",
            "label_overflows_int8",
            "labels_not_utf8",
            "features_not_utf8",
            "clf_config_out_of_range",
            "infinite_model_weight",
            "overflowing_clf_weight",
            "infinite_scaler_range",
            "overflowing_int_bias",
            "tree_feature_past_channels",
            "tree_feature_below_leaf_mark",
            "tree_without_leaf_array",
            "tree_arrays_unequal",
            "tree_arrays_empty",
            "tree_child_cycles_to_itself",
            "tree_child_past_end",
            "tree_leaf_fraction_above_one",
            "tree_feature_not_integer",
            "tree_in_nested_format",
            "forest_without_trees",
            "forest_tree_missing",
            "forest_tree_feature_past_channels",
            "unknown_activation",
            "zero_layer_width",
            "model_activation_extra",
            "model_topology_short",
            "model_params_short_a_layer",
            "model_params_long",
            "model_format_v1",
            "model_without_layers",
            "mlp_activation_extra",
            "mlp_topology_short",
            "mlp_params_short",
            "mlp_params_long",
            "mlp_format_v1",
            "negative_scaler_range",
            "scaler_mins_short",
            "nan_threshold",
            "knn_file_as_logreg",
            "mlp_file_as_logreg",
            "labels_file_missing",
            "mlp_network_in_logreg",
            "logreg_network_in_mlp",
            "mlp_hidden_units_mismatch",
            "nb_zero_variance",
            "nb_means_narrow",
            "knn_features_narrow",
            "knn_label_not_0_or_1",
            "knn_k_above_rows",
            "logreg_network_narrow",
            "scaler_ae_narrow_train_ae",
            "scaler_ae_narrow_calibrate",
            "scaler_supervised_narrow_train_clf",
            "scaler_supervised_narrow_evaluate",
            "scorer_scaler_narrow",
            "ae_six_wide_calibrate",
            "ae_six_wide_evaluate",
            "ae_sigmoid_7_3_7_calibrate",
            "ae_sigmoid_7_3_7_score",
            "clf_kind_unknown",
            "report_missing",
            "scorer_threshold_true",
            "scorer_threshold_string",
            "scorer_percentile_true",
            "scorer_n_fit_fraction",
            "scorer_mse_with_n_fit",
            "report_of_another_model",
            "report_f1_true",
        ],
    )
    def test_exits_3(self, evaluated, tmp_path, capsys, command, name, damage):
        cfg_file, src = evaluated
        out = tmp_path / "work"
        shutil.copytree(src, out)
        damage(out / name)
        assert main(["--config", str(cfg_file), "--out", str(out), "--quiet", *command.split()]) == 3
        err = capsys.readouterr().err
        assert "error:" in err and name in err

    @pytest.mark.parametrize(
        "command, name, damage",
        [
            ("evaluate", "clf_mlp.json", lambda d: _to_format_v1(d["network"])),
            ("calibrate", "model_ae.json", _to_format_v1),
        ],
        ids=["mlp_format_v1", "model_format_v1"],
    )
    def test_reader_error_names_its_file(self, evaluated, tmp_path, capsys, command, name, damage):
        cfg_file, src = evaluated
        out = tmp_path / "work"
        shutil.copytree(src, out)
        _edit_json(out / name, damage)
        assert main(["--config", str(cfg_file), "--out", str(out), "--quiet", command]) == 3
        err = capsys.readouterr().err
        assert f"cannot load {out / name}:" in err
        assert "unsupported model format version 1" in err

    @pytest.mark.parametrize(
        "kind, edit, error",
        [
            # a stray key is a field of another kind; a dropped key is one of the kind's own fields
            ("logreg", lambda config: config.update(k=5), "DataError: logreg config"),
            ("logreg", lambda config: config.pop("epochs"), "DataError: logreg config"),
            ("gaussian_nb", lambda config: config.update(epochs=400), "DataError: gaussian_nb config"),
            ("knn", lambda config: config.update(epochs=400), "DataError: knn config"),
            ("knn", lambda config: config.pop("k"), "DataError: knn config"),
            ("decision_tree", lambda config: config.update(n_trees=100), "DataError: decision_tree config"),
            ("decision_tree", lambda config: config.pop("max_depth"), "DataError: decision_tree config"),
            ("random_forest", lambda config: config.update(hidden_units=8), "DataError: random_forest config"),
            ("random_forest", lambda config: config.pop("bootstrap"), "DataError: random_forest config"),
            ("mlp", lambda config: config.update(l2_strength=0.0), "DataError: mlp config"),
            ("mlp", lambda config: config.pop("batch_size"), "DataError: mlp config"),
            # a field of the kind holding a value of another type than its annotation
            ("knn", lambda config: config.update(k=3.0), "DomainError: k must be an integer, got 3.0"),
            ("random_forest", lambda config: config.update(bootstrap=1), "DomainError: bootstrap must be true or"),
            ("logreg", lambda config: config.update(epochs=True), "DomainError: epochs must be an integer, got True"),
            ("mlp", lambda config: config.update(learning_rate="0.01"), "DomainError: learning_rate must be a finite"),
        ],
        ids=[
            "logreg_stray",
            "logreg_missing",
            "gaussian_nb_stray",
            "knn_stray",
            "knn_missing",
            "decision_tree_stray",
            "decision_tree_missing",
            "random_forest_stray",
            "random_forest_missing",
            "mlp_stray",
            "mlp_missing",
            "knn_k_float",
            "random_forest_bootstrap_int",
            "logreg_epochs_bool",
            "mlp_learning_rate_string",
        ],
    )
    def test_classifier_config_holds_exactly_its_kinds_fields(self, evaluated, tmp_path, capsys, kind, edit, error):
        cfg_file, src = evaluated
        out = tmp_path / "work"
        shutil.copytree(src, out)
        name = f"clf_{kind}.json"
        _edit_json(out / name, lambda d: edit(d["config"]))
        assert main(["--config", str(cfg_file), "--out", str(out), "--quiet", "evaluate"]) == 3
        err = capsys.readouterr().err
        assert f"cannot load {out / name}: {error}" in err


def _layers_changed(edit):
    """A fault of the layers: `edit` changes `topology` and `activations`, and
    `params` then gets the length those layers need, so the network is whole
    in itself and only the one layer rule can refuse it."""

    def fault(net):
        edit(net["topology"], net["activations"])
        widths = net["topology"]
        net["params"] = [0.25] * sum(n_out * (n_in + 1) for n_in, n_out in zip(widths, widths[1:]))

    return fault


# fault name -> in-place edit of a network dict
NETWORK_FAULTS = {
    "activation_changed": _layers_changed(lambda t, a: a.__setitem__(-1, "identity" if a[-1] != "identity" else "elu")),
    "width_changed": _layers_changed(lambda t, a: t.__setitem__(1, t[1] + 1)),
    "layer_added": _layers_changed(lambda t, a: (t.append(t[-1]), a.append("identity"))),
    "layer_dropped": _layers_changed(lambda t, a: (t.pop(), a.pop())),
    "activations_short": lambda net: net["activations"].pop(),
    "params_short": lambda net: net["params"].pop(),
}
# (command, file) of every reader of a network file; a clf_<kind>.json holds its network under "network"
NETWORK_READERS = [
    ("calibrate", "model_ae.json"),
    ("score", "model_ae.json"),
    ("evaluate", "model_ae.json"),
    ("evaluate", "clf_logreg.json"),
    ("evaluate", "clf_mlp.json"),
]


class TestOneNetworkRule:
    """Every reader of a network file applies one rule, `network_from_dict`'s:
    the file's layers are those its caller trains."""

    @pytest.mark.parametrize("fault", [None, *NETWORK_FAULTS])
    @pytest.mark.parametrize("command, name", NETWORK_READERS)
    def test_every_reader_refuses_every_fault(self, evaluated, tmp_path, capsys, command, name, fault):
        cfg_file, src = evaluated
        out = tmp_path / "work"
        shutil.copytree(src, out)
        if fault is not None:
            _edit_json(out / name, lambda d: NETWORK_FAULTS[fault](d if name == "model_ae.json" else d["network"]))
        code = main(["--config", str(cfg_file), "--out", str(out), "--quiet", command])
        err = capsys.readouterr().err
        if fault is None:
            assert code == 0, err
        else:
            assert code == 3 and f"cannot load {out / name}:" in err

    @pytest.mark.parametrize("fault", [None, *NETWORK_FAULTS])
    @pytest.mark.parametrize(
        "specs",
        [
            default_autoencoder_specs(),
            baselines._logreg_layers(baselines.LogregConfig(), 7),
            baselines._mlp_layers(baselines.MlpConfig(), 7),
        ],
        ids=["ae", "logreg", "mlp"],
    )
    def test_network_from_dict_takes_exactly_its_specs(self, specs, fault):
        d = network_to_dict(init_network(specs, 3))
        if fault is None:
            assert network_from_dict(d, specs).specs == specs
        else:
            NETWORK_FAULTS[fault](d)
            with pytest.raises((DataError, ShapeError)):
                network_from_dict(d, specs)


class TestConsoleScript:
    """The `aeromon` command declared in pyproject.toml, run as a real process."""

    @staticmethod
    def _declared_script():
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert "[project.scripts]" in text
        section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        match = re.search(r'^aeromon\s*=\s*"([^"]+)"', section, re.MULTILINE)
        assert match, "pyproject.toml declares no aeromon script"
        return match.group(1)

    def test_installed_entry_point(self, tmp_path):
        target = self._declared_script()
        assert target == "aeromon.cli:main"
        module, func = target.split(":")
        # What pip's generated wrapper does, so no install is needed.
        commands = [
            [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]
        ]
        installed = shutil.which("aeromon")
        if installed:
            commands.append([installed])
        env = _child_env()

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bogus_key": 1}))
        for command in commands:
            proc = subprocess.run(
                [*command, "--config", str(bad), "run"],
                capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path,
            )
            assert proc.returncode == 2, (command, proc.stderr)
            assert "unknown config key" in proc.stderr


def test_pipeline_run_never_imports_numpy_random(tmp_path):
    """Every draw comes from numerics.Rng; numpy's generator module (about
    2.5 MiB of resident memory) is never loaded, not even by numpy itself."""
    cfg_file = _fast_config_file(tmp_path, baseline_kinds="random_forest,mlp")
    code = (
        "import sys\n"
        "from aeromon.cli import main\n"
        f"code = main(['--config', {str(cfg_file)!r}, '--out', {str(tmp_path / 'out')!r}, '--quiet', 'run'])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    env = _child_env()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def _parses(monkeypatch):
    """Wrap `load_csv` and `read_json_artifact` in every aeromon module that binds
    them; returns the list that collects the path of each parse."""
    parsed = []

    def counted(parse):
        return lambda path, *args, **kwargs: parsed.append(Path(path)) or parse(path, *args, **kwargs)

    modules = [m for n, m in list(sys.modules.items()) if n.startswith("aeromon.")]
    for original in (dataset.load_csv, errors.read_json_artifact):
        wrapper = counted(original)
        for module in modules:
            if getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, wrapper)
    return parsed


def _flat(value):
    """Every array (as dtype, shape and bytes) and scalar inside a memo value, in a fixed order."""
    if isinstance(value, np.ndarray):
        return [(value.dtype.str, value.shape, value.tobytes())]
    if isinstance(value, Network):
        return _flat(value.params) + _flat(value.specs)
    if dataclasses.is_dataclass(value):
        return _flat([getattr(value, field.name) for field in dataclasses.fields(value)])
    if isinstance(value, dict):
        return _flat([(key, value[key]) for key in sorted(value)])
    if isinstance(value, (list, tuple)):
        return [item for v in value for item in _flat(v)]
    return [value.item() if isinstance(value, np.generic) else value]


def _fresh_parse(out, name, value):
    """The artifact `name` in `out` parsed from its file, as the memo value `value` would be."""
    path = out / name
    if name.endswith(".csv"):
        return load_csv(path, has_labels=value.is_labeled)
    if name.startswith("scaler_"):
        return read_json_artifact(path, MinMaxScaler.from_dict)
    if name == "model_ae.json":
        return load_network(path)
    return load_scorer(path, load_network(out / "model_ae.json"))  # scorer.json


def _classifiers_and_reports(out):
    """What `evaluate` and `compare` parse in a run at FAST_KEYS, in order."""
    kinds = default_config(dict(FAST_KEYS)).baseline_kinds()
    return [out / f"clf_{kind}.json" for kind in kinds] + [out / f"report_{m}.json" for m in ["ae", *kinds]]


class TestCommandMemo:
    """Within one command, a stage takes the splits, scalers, autoencoder and scorer
    an earlier stage of that command wrote from memory; outside a command every
    read parses its file."""

    def test_run_parses_only_classifiers_and_reports(self, tmp_path, monkeypatch):
        parsed = _parses(monkeypatch)
        out, _ = _run(tmp_path, "a")
        assert parsed == _classifiers_and_reports(out)

    def test_csv_run_parses_its_source_once(self, tmp_path, monkeypatch):
        src = tmp_path / "telemetry.csv"
        save_csv(generate_synthetic(SynthConfig(n_samples=600, seed=3)), src)
        cfg = default_config({**FAST_KEYS, "source": "csv", "csv_path": str(src), "out_dir": str(tmp_path / "out")})
        parsed = _parses(monkeypatch)
        run_pipeline(cfg, quiet=True)
        assert parsed == [src, *_classifiers_and_reports(tmp_path / "out")]

    def test_memo_values_equal_a_fresh_parse_and_end_with_the_command(self, tmp_path, monkeypatch):
        seen = {}

        def compare_and_look(cfg, out):
            stage_compare(cfg, out)
            seen.update(out=out, memo=dict(out.memo))

        stages = tuple((name, compare_and_look if fn is stage_compare else fn) for name, fn in _PIPELINE_STAGES)
        monkeypatch.setattr(pipeline, "_PIPELINE_STAGES", stages)
        out, _ = _run(tmp_path, "a")
        assert seen["out"].memo is None
        memo = seen["memo"]
        splits = ["data.csv", "test.csv", "supervised_train.csv", "ae_train.csv", "ae_val.csv"]
        models = ["scaler_ae.json", "scaler_supervised.json", "model_ae.json", "scorer.json"]
        assert sorted(memo) == sorted(splits + models)
        # a later stage that changed a value it was handed would show here
        for name, value in memo.items():
            assert _flat(value) == _flat(_fresh_parse(out, name, value)), name

    def test_standalone_command_and_unlocked_stage_parse(self, evaluated, tmp_path, monkeypatch):
        cfg_file, src = evaluated
        work = tmp_path / "work"
        shutil.copytree(src, work)
        seen = []

        def calibrate_and_look(cfg, out):
            seen.append(out)
            stage_calibrate(cfg, out)

        monkeypatch.setitem(pipeline._STAGES, "calibrate", calibrate_and_look)
        parsed = _parses(monkeypatch)
        assert main(["--config", str(cfg_file), "--out", str(work), "--quiet", "calibrate"]) == 0
        assert seen[0].memo is None
        inputs = [work / name for name in ("scaler_ae.json", "ae_train.csv", "model_ae.json")]
        assert sorted(parsed) == sorted(inputs)
        # the stage function called directly, with no command and no lock, parses too
        parsed.clear()
        out = _OutputDir(work)
        stage_calibrate(default_config(dict(FAST_KEYS)), out)
        assert out.memo is None and sorted(parsed) == sorted(inputs)

    def test_next_command_reads_a_file_replaced_on_disk(self, evaluated, tmp_path):
        _, src = evaluated
        work = tmp_path / "work"
        shutil.copytree(src, work)
        cfg = default_config(dict(FAST_KEYS))
        out = _OutputDir(work)
        with out:
            stage_fit_scalers(cfg, out)
            fitted = out.read_scaler("scaler_ae.json")
        shutil.copyfile(work / "scaler_supervised.json", work / "scaler_ae.json")
        with out:
            assert _flat(out.read_scaler("scaler_ae.json")) == _flat(out.read_scaler("scaler_supervised.json"))
        assert _flat(fitted) != _flat(out.read_scaler("scaler_ae.json"))


def _formatted_rows(monkeypatch):
    """Wrap the row formatter of `save_csv`; returns the list that collects how many rows each call formats."""
    formatted = []
    original = dataset._row_text
    monkeypatch.setattr(dataset, "_row_text", lambda features: formatted.append(len(features)) or original(features))
    return formatted


def _data_rows(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


class TestRowsFormattedOnce:
    """A command formats each CSV row's text once: `split` writes its parts from the
    text that `ingest` formatted, and `test_features.csv` from `test.csv`'s."""

    def test_run_formats_each_row_once(self, tmp_path, monkeypatch):
        formatted = _formatted_rows(monkeypatch)
        _run(tmp_path, "a", baseline_kinds="")
        assert sum(formatted) == FAST_KEYS["synth_n_samples"]

    def test_csv_run_formats_its_source_rows_once(self, tmp_path, monkeypatch):
        src = tmp_path / "telemetry.csv"
        save_csv(generate_synthetic(SynthConfig(n_samples=700, seed=3)), src)
        keys = {"baseline_kinds": "", "source": "csv", "csv_path": str(src), "out_dir": str(tmp_path / "out")}
        formatted = _formatted_rows(monkeypatch)
        run_pipeline(default_config({**FAST_KEYS, **keys}), quiet=True)
        assert sum(formatted) == _data_rows(src) == 700

    def test_standalone_split_formats_each_part_once(self, tmp_path, monkeypatch):
        cfg_file, work = _fast_config_file(tmp_path), tmp_path / "work"
        assert main(["--config", str(cfg_file), "--out", str(work), "--quiet", "generate"]) == 0
        formatted = _formatted_rows(monkeypatch)
        assert main(["--config", str(cfg_file), "--out", str(work), "--quiet", "split"]) == 0
        # the parts share the text of the parsed data.csv, formatted once; test_features.csv shares test.csv's
        assert sum(formatted) == _data_rows(work / "data.csv") == FAST_KEYS["synth_n_samples"]
