"""aeromon benchmark: times whole operations and, in a traced run, each layer.

    python3 bench/run.py --workload pipeline-2k --seed 7 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, untraced, each in its own process
    python3 bench/run.py --trace 1            # every workload, per-layer metrics

A run sets its workload up several times, then repeats the operation until
`--seconds` have passed (and at least a few times). Times are scaled to a
reference machine speed measured by a probe (speed.py). It prints every metric
with its unit, writes a result record (and, traced, the spans of one traced
operation) under .bench_out/, and ends with one JSON line holding the metrics
that BENCHMARK.json declares. It exits 1 if any correctness check failed.
With `--trace 1`, untraced and traced operations alternate, so the tracing
overhead and the byte-identity of traced outputs are measured in one run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from speed import probe, speed_factor
from tracer import (
    COUNT, CPU_S, END, NAME, PARENT, RSS_MB, RUN, START, Tracer, layer_metrics, peak_rss_mb, self_times,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = (
    "AEROMON_THREADS",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_OPS = 3  # operations per run of each kind (untraced, traced), whatever --seconds says
TAIL_SAMPLES = 10  # a tail percentile needs this many samples beyond it


@dataclass
class Op:
    traced: bool
    wall_s: float  # as measured
    cpu_s: float  # as measured
    speed: float  # reference-speed time over measured time (speed.py)
    outcome: object = None
    layers: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


@dataclass
class RunResult:
    setup_s: list  # as measured
    setup_speed: list  # reference-speed time over measured time
    setup_problems: list
    ops: list
    peak_rss_mb: float
    spans: list  # every span of the first traced operation


def _cpu_s() -> float:
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def set_up(workload, seed: int, work: Path):
    """(state, set-up seconds as measured, their speed factors, problems).

    Each set-up is timed between its own two probes, so that a slow spell of
    the machine scales only the set-ups it covers.
    """
    setup_s, setup_speed, fingerprints = [], [], []
    before = probe()
    for _ in range(workload.setup_repeats):
        started = time.perf_counter()
        state = workload.set_up(seed, work)
        ended = time.perf_counter()
        after = probe()
        setup_s.append(ended - started)
        setup_speed.append(speed_factor(before, after))
        before = after
        fingerprints.append(workload.fingerprint(state))
    problems = [] if len(set(fingerprints)) == 1 else ["repeated set-ups produced different artifacts"]
    return state, setup_s, setup_speed, problems


def measure(workload, seed: int, seconds: float, trace: bool, work: Path, min_ops: int = MIN_OPS) -> RunResult:
    state, setup_s, setup_speed, setup_problems = set_up(workload, seed, work)

    tracer = Tracer()
    ops, kept_spans, reference = [], [], None
    deadline = time.perf_counter() + seconds

    def too_few() -> bool:
        untraced = sum(not op.traced for op in ops)
        return min(untraced, len(ops) - untraced if trace else untraced) < min_ops

    before = probe()
    while time.perf_counter() < deadline or too_few():
        traced = trace and len(ops) % 2 == 1
        out = work / f"op-{len(ops)}"
        error = None
        if traced:
            tracer.run = len(ops)
            tracer.install()
        try:
            started, cpu0 = time.perf_counter(), _cpu_s()
            try:
                workload.operation(state, out)
            except Exception as exc:  # a failed operation is counted, and the loop goes on
                error = f"operation raised {type(exc).__name__}: {exc}"
            ended, cpu1 = time.perf_counter(), _cpu_s()
        finally:
            if traced:
                tracer.uninstall()
        after = probe()
        op = Op(traced, ended - started, cpu1 - cpu0, speed_factor(before, after))
        if error:
            op.problems.append(error)
            op.problems += workload.failure_problems(state, out)
        else:
            try:
                op.outcome = workload.inspect(state, out)
            except (OSError, ValueError, KeyError) as exc:
                op.problems.append(f"outputs unreadable: {type(exc).__name__}: {exc}")
        if op.outcome is not None:
            op.problems += op.outcome.problems
            if reference is None:
                reference = op.outcome.hashes
            elif op.outcome.hashes != reference:
                kind = "traced" if traced else "repeated"
                op.problems.append(f"{kind} operation's artifacts differ from the first operation's")
        if traced:
            spans = tracer.take()
            kept_spans = kept_spans or spans
            op.layers = {**layer_metrics(spans), **(op.outcome.layers if op.outcome else {})}
        workload.discard(state, out)
        ops.append(op)
        before = probe()  # checking and discarding outputs is not part of the next operation
    # the process runs this one workload, so its peak is the workload's own
    return RunResult(setup_s, setup_speed, setup_problems, ops, peak_rss_mb(), kept_spans)


def tail(values: list) -> tuple[str, float] | None:
    """The highest percentile with at least TAIL_SAMPLES samples beyond it."""
    n = len(values)
    if n <= TAIL_SAMPLES:
        return None
    return f"p{100 * (n - TAIL_SAMPLES) // n}", sorted(values)[n - TAIL_SAMPLES - 1]


def src_lines() -> int:
    files = (ROOT / "src" / "aeromon").rglob("*.py")
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in files)


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git repository or without git."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def blas() -> str:
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):
        return "unknown"


def metadata(workload, seed: int, thread_env: dict) -> dict:
    return {
        "git_commit": git_commit(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "thread_env": thread_env,
        "sizes": workload.sizes,
        "repo.src_lines": src_lines(),
    }


def summarize(workload, result: RunResult, trace: bool, failed: int) -> tuple[dict, dict, list]:
    """(end-to-end metrics, per-layer metrics, printable extras)."""
    plain = [op for op in result.ops if not op.traced]
    good = [op for op in plain if op.outcome is not None] or plain
    first = next((op.outcome for op in result.ops if op.outcome is not None), None)
    walls = [op.wall_s * op.speed for op in good]
    wall = statistics.median(walls)
    e2e = {
        "wall_s": wall,
        "rows_per_s": workload.rows / wall,
        "cpu_s": statistics.median(op.cpu_s * op.speed for op in good),
        "peak_rss_mb": result.peak_rss_mb,
        "setup_s": statistics.median(s * speed for s, speed in zip(result.setup_s, result.setup_speed)),
        "model_bytes": first.model_bytes if first else 0,
        "ae_f1": first.quality["ae_f1"] if first else 0.0,
        "ae_recall": first.quality["ae_recall"] if first else 0.0,
    }
    extras = [
        ("wall_s samples", len(walls), "count"),
        ("wall_s max", max(walls), "s"),
        ("wall_s as measured", statistics.median(op.wall_s for op in good), "s"),
        ("speed", statistics.median(op.speed for op in result.ops), "x"),
        ("fail_frac", failed / len(result.ops), "frac"),
    ]
    t = tail(walls)
    if t:
        extras.insert(1, (f"wall_s {t[0]}", t[1], "s"))
    for key in ("rf_f1", "calib_gap"):
        if first and key in first.quality:
            extras.append((key, first.quality[key], "frac"))

    layers = {}
    if trace:
        traced = [op for op in result.ops if op.traced]
        names = sorted({name for op in traced for name in op.layers})
        layers = {name: statistics.median(op.layers.get(name, 0.0) for op in traced) for name in names}
        # each traced operation against the untraced one just before it, so that
        # the machine's slow and fast spells, which last seconds, cancel out
        pairs = zip(result.ops[0::2], result.ops[1::2])
        ratios = [(b.wall_s * b.speed) / (a.wall_s * a.speed) for a, b in pairs]
        layers["trace.overhead_frac"] = statistics.median(ratios) - 1.0
        layers["repo.src_lines"] = src_lines()
    return e2e, layers, extras


def run_workload(
    workload, seed: int, seconds: float, trace: bool, spec: dict, thread_env: dict, min_ops: int = MIN_OPS
) -> dict:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}-{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        result = measure(workload, seed, seconds, trace, work, min_ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for op in result.ops if op.problems)
    e2e, layers, extras = summarize(workload, result, trace, failed)
    problems = result.setup_problems + [f"op {i}: {p}" for i, op in enumerate(result.ops) for p in op.problems]

    mode = "traced" if trace else "untraced"
    print(f"== {workload.name}  seed {seed}  {mode}  {len(result.ops)} operations  {workload.sizes}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in e2e.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")
    for name, value, unit in extras:
        print(f"  {name:<32} {value:>14.6g} {unit}")
    if trace:
        print(f"  per-layer metrics: {len(spec['per_layer'])} (see the result record)")
    for p in problems:
        print(f"  CHECK FAILED: {p}")

    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "trace": trace,
        "metadata": metadata(workload, seed, thread_env),
        "setup_s": result.setup_s,
        "setup_speed": result.setup_speed,
        "ops": [
            {"traced": op.traced, "wall_s": op.wall_s, "cpu_s": op.cpu_s, "speed": op.speed, "problems": op.problems}
            for op in result.ops
        ],
        "end_to_end": e2e,
        "extras": {name: value for name, value, _ in extras},
        "per_layer": layers,
        "problems": problems,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if trace:
        write_trace(OUT / f"{stem}.trace.jsonl", result.spans)

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = layers if trace else e2e
    return {
        "correct": not problems,
        "attempted": len(result.ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared},
    }


def write_trace(path: Path, spans: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (span, self_s) in enumerate(zip(spans, self_times(spans))):
            row = {
                "id": i,
                "name": span[NAME],
                "start": span[START],
                "end": span[END],
                "self_s": self_s,
                "parent": span[PARENT],
                "run": span[RUN],
                "count": span[COUNT],
                "cpu_s": span[CPU_S],
                "rss_mb": span[RSS_MB],
            }
            fh.write(json.dumps(row) + "\n")


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU only.

    The speed probe then runs on the CPU the program runs on; on a shared
    machine the two CPUs are slowed by different neighbours. This changes only
    this process's own affinity.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    if not (ROOT / "src" / "aeromon" / "__init__.py").is_file():
        print(f"error: no aeromon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=MIN_OPS, help="operations of each kind, whatever --seconds says")
    args = parser.parse_args(argv)

    if args.workload == "all":
        # one process per workload, so that each reports its own peak memory
        ok = True
        for name in WORKLOADS:
            child = [sys.executable, __file__, "--workload", name]
            for flag in ("seed", "seconds", "trace", "min_ops"):
                child += [f"--{flag.replace('_', '-')}", str(getattr(args, flag))]
            sys.stdout.flush()
            ok &= subprocess.run(child).returncode == 0
        return 0 if ok else 1

    # the program runs serially: the thread cap is recorded as found, then unset
    thread_env = {name: os.environ.get(name) for name in THREAD_VARS}
    os.environ.pop("AEROMON_THREADS", None)
    pin_to_one_cpu()
    line = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spec, thread_env, args.min_ops
    )
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
