"""Tests of the benchmark harness: python3 -m pytest bench -q"""

import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from speed import PROBE_REF_S, speed_factor  # noqa: E402
from tracer import END, NAME, START, Target, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


def _span(name, start, end, parent, cpu=0.0, rss=0.0, count=0):
    return [name, start, end, parent, 0, count, cpu, rss]


def test_self_time_of_hand_built_tree():
    spans = [
        _span("pipeline.train-ae", 0.0, 10.0, -1, cpu=9.0, rss=50.0),
        _span("autoencoder.train", 1.0, 8.0, 0),
        _span("autoencoder.forward", 2.0, 3.0, 1, count=4),
        _span("autoencoder.forward", 4.0, 6.5, 1, count=6),
        _span("autoencoder.save_network", 8.5, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([2.5, 3.5, 1.0, 2.5, 0.5])

    m = layer_metrics(spans)
    assert m["pipeline.train-ae.s"] == pytest.approx(10.0)  # a stage reports its whole wall time
    assert m["pipeline.train-ae.cpu_s"] == 9.0
    assert m["pipeline.train-ae.rss_mb"] == 50.0
    assert m["autoencoder.train.s"] == pytest.approx(3.5)
    assert m["autoencoder.forward.s"] == pytest.approx(3.5)
    assert m["autoencoder.forward.calls"] == 2
    assert m["autoencoder.forward.rows"] == 10
    assert m["baselines.fit_useful_frac"] == 0.0


def test_fit_useful_frac_counts_fits_outside_cross_validation():
    spans = [
        _span("baselines.cross_validate", 0.0, 3.0, -1),
        _span("baselines.train_classifier.logreg", 0.0, 1.0, 0),
        _span("baselines.train_classifier.logreg", 1.0, 2.0, 0),
        _span("baselines.train_classifier.logreg", 3.0, 4.0, -1),
    ]
    m = layer_metrics(spans)
    assert m["baselines.fit_useful_frac"] == pytest.approx(1 / 3)
    assert m["baselines.train_classifier.logreg.calls"] == 3
    assert m["baselines.cross_validate.s"] == pytest.approx(1.0)


def test_wrapper_passes_values_and_exceptions_through():
    tr = Tracer()
    payload = object()

    def returns(x, *, y):
        return payload, x, y

    class Boom(Exception):
        pass

    error = Boom("kept")

    def raises():
        raise error

    target = Target("dataset", "load_csv")
    assert tr.wrap(returns, target)(1, y=2) == (payload, 1, 2)
    assert tr.wrap(returns, target)(1, y=2)[0] is payload
    with pytest.raises(Boom) as info:
        tr.wrap(raises, target)()
    assert info.value is error
    spans = tr.take()
    assert len(spans) == 3 and all(s[END] >= s[START] for s in spans)
    assert tr._stack == []  # the raising call still closed its span


def test_install_patches_every_binding_and_uninstall_restores_them():
    from aeromon import anomaly, autoencoder, baselines, numerics, pipeline

    originals = (autoencoder.forward, pipeline.train, pipeline._PIPELINE_STAGES, numerics.Rng.shuffle)
    tr = Tracer()
    tr.install()
    try:
        assert autoencoder.forward is not originals[0]
        assert anomaly.forward is autoencoder.forward and baselines.forward is autoencoder.forward
        assert pipeline.train is autoencoder.train is not originals[1]
        assert all(fn is None or fn.__wrapped__ for _, fn in pipeline._PIPELINE_STAGES)
        rng = numerics.Rng(3)
        seq = list(range(5))
        rng.shuffle(seq)
        assert [s[NAME] for s in tr.take()] == ["numerics.Rng.shuffle"]
        assert not hasattr(numerics.Rng.randrange, "__wrapped__")  # never traced
    finally:
        tr.uninstall()
    assert (autoencoder.forward, pipeline.train, pipeline._PIPELINE_STAGES, numerics.Rng.shuffle) == originals
    assert anomaly.forward is originals[0] and baselines.forward is originals[0]


def test_speed_factor_is_reference_time_over_the_mean_probe():
    assert speed_factor(PROBE_REF_S, PROBE_REF_S) == pytest.approx(1.0)
    assert speed_factor(PROBE_REF_S, 3 * PROBE_REF_S) == pytest.approx(0.5)


class _BurnerWorkload:
    """Each operation keeps a second thread burning CPU while the main thread works."""

    name, rows, sizes, setup_repeats = "burner", 1, {}, 2

    def __init__(self):
        self.inside = False
        self.burner = None

    def set_up(self, seed, work):
        return None

    def fingerprint(self, state):
        return ""

    def operation(self, state, out):
        self.inside = True
        stop = threading.Event()

        def burn():
            while not stop.is_set():
                sum(range(1000))

        self.burner = threading.Thread(target=burn)
        self.burner.start()
        until = time.perf_counter() + 0.05
        while time.perf_counter() < until:
            sum(range(1000))
        stop.set()
        self.burner.join()
        self.inside = False

    def inspect(self, state, out):
        return Outcome({}, {"ae_f1": 1.0, "ae_recall": 1.0}, 1)

    def failure_problems(self, state, out):
        return []

    def discard(self, state, out):
        pass


def test_probes_never_run_inside_an_operation(tmp_path, monkeypatch):
    """A probe taken beside the program's own threads would read the program as the machine."""
    workload = _BurnerWorkload()
    seen = []

    def probe():
        busy = workload.inside or (workload.burner is not None and workload.burner.is_alive())
        seen.append(busy)
        return 3 * PROBE_REF_S if busy else PROBE_REF_S  # a burner would make the machine look slow

    monkeypatch.setattr(run, "probe", probe)
    result = run.measure(workload, seed=0, seconds=0, trace=False, work=tmp_path, min_ops=3)
    assert len(result.ops) == 3 and seen and not any(seen)
    assert result.setup_speed == [1.0, 1.0]
    assert all(op.speed == 1.0 and not op.problems for op in result.ops)
    e2e, _, _ = run.summarize(workload, result, trace=False, failed=0)
    assert e2e["wall_s"] == pytest.approx(run.statistics.median(op.wall_s for op in result.ops))


def test_a_failed_stage_reports_the_partial_manifest(tmp_path, monkeypatch):
    from aeromon import pipeline
    from aeromon.config import default_config
    from aeromon.errors import ToolkitError

    def ingest(cfg, out):
        raise ToolkitError("no data")

    monkeypatch.setattr(pipeline, "_PIPELINE_STAGES", (("ingest", ingest),))
    workload, cfg, out = WORKLOADS["pipeline-2k"], default_config({"synth_n_samples": 200}), tmp_path / "op"
    with pytest.raises(ToolkitError):
        workload.operation(cfg, out)
    assert workload.failure_problems(cfg, out) == ["manifest is partial (failed stage ingest)"]
    assert workload.failure_problems(cfg, tmp_path / "missing") == []


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(i) for i in range(1, 21)]) == ("p50", 10.0)


def test_smoke_run_of_each_workload_passes_every_check(capfd):
    """One untraced and one traced operation of each workload, at its benchmark size."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    ballast_mb = 128
    ballast = np.ones(ballast_mb * 2**20 // 8)  # resident in this process only
    code = run.main(["--seed", "5", "--seconds", "0", "--min-ops", "1", "--trace", "1"])
    del ballast
    stdout = capfd.readouterr().out
    assert code == 0, stdout
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    assert len(lines) == len(WORKLOADS)
    produced = set()
    for name, line in zip(WORKLOADS, lines):
        assert line["correct"], name
        assert line["attempted"] == 2 and line["failed"] == 0
        record = json.loads((run.OUT / f"{name}-seed5-trace1.json").read_text(encoding="utf-8"))
        assert record["metadata"]["repo.src_lines"] > 0
        assert all(value > 0 for value in record["end_to_end"].values()), record["end_to_end"]
        # each workload's peak is its own process's, not that of the process that ran the others
        assert record["end_to_end"]["peak_rss_mb"] < ballast_mb, name
        produced |= set(record["per_layer"])
    assert {m["name"] for m in spec["per_layer"]} <= produced
