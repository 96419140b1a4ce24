"""Span tracer that times aeromon's public functions from outside the program.

`Tracer.install()` rebinds every traced function to a recording wrapper, both
in the module that defines it and in every aeromon module that imported the
name (for example `pipeline` binds `train`, `calibrate`, `classify` and
`predict`, and `baselines` binds `forward`), so a call through either binding
is seen. `uninstall()` restores the originals. Spans stay in memory; the
caller aggregates them per operation and writes them out at exit.

`Rng.randrange` and `Rng.next_u64` are deliberately not traced: they run
millions of times per operation and a wrapper would dominate what it measures.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# pipeline stage function -> stage name used in metric names
STAGES = {
    "stage_ingest": "ingest",
    "stage_split": "split",
    "stage_fit_scalers": "fit-scalers",
    "stage_train_ae": "train-ae",
    "stage_calibrate": "calibrate",
    "stage_train_baselines": "train-baselines",
    "stage_evaluate": "evaluate",
    "stage_compare": "compare",
    "stage_score": "score",
}


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _kind_of(pos, key):
    return lambda args, kwargs: _arg(args, kwargs, pos, key).kind


def _model_name(args, kwargs):
    return kwargs.get("model_name", args[2] if len(args) > 2 else "model")


def _result_rows(args, kwargs, result):
    return result.n


def _forward_rows(args, kwargs, result):
    out = result[0]
    return out.shape[0] if out.ndim == 2 else 1


@dataclass(frozen=True)
class Target:
    """One traced function: where it lives and what its span records."""

    module: str  # aeromon submodule that defines it
    attr: str  # function name, or "Class.method"
    qualifier: Callable | None = None  # (args, kwargs) -> suffix of the span name
    count_label: str | None = None  # metric suffix of the work count
    count: Callable | None = None  # (args, kwargs, result) -> work count
    resources: bool = False  # also record CPU seconds and peak RSS

    @property
    def span(self) -> str:
        if self.module == "pipeline" and self.attr in STAGES:
            return f"pipeline.{STAGES[self.attr]}"
        return f"{self.module}.{self.attr}"


TARGETS = (
    Target("pipeline", "run_pipeline"),
    *(Target("pipeline", fn, resources=True) for fn in STAGES),
    Target("numerics", "Rng.shuffle", count_label="elems", count=lambda a, k, r: len(_arg(a, k, 1, "seq"))),
    Target("numerics", "Rng.sample_indices"),
    Target("numerics", "cholesky"),
    Target("numerics", "solve_spd"),
    Target("numerics", "covariance"),
    Target("dataset", "generate_synthetic", count_label="rows", count=_result_rows),
    Target("dataset", "load_csv", count_label="rows", count=_result_rows),
    Target("dataset", "save_csv", count_label="rows", count=lambda a, k, r: _arg(a, k, 0, "data").n),
    Target("dataset", "split"),
    Target("dataset", "fit_scaler"),
    Target("dataset", "apply_scaler"),
    Target("autoencoder", "train"),
    Target("autoencoder", "forward", count_label="rows", count=_forward_rows),
    Target("autoencoder", "backward"),
    Target("autoencoder", "adam_step"),
    Target("autoencoder", "save_network"),
    Target("autoencoder", "load_network"),
    Target("anomaly", "calibrate"),
    Target("anomaly", "fit_residual_stats"),
    Target("anomaly", "classify"),
    Target("anomaly", "load_scorer"),
    Target("anomaly", "save_scorer"),
    Target("baselines", "train_classifier", qualifier=_kind_of(0, "cfg")),
    Target("baselines", "cross_validate"),
    Target("baselines", "predict", qualifier=_kind_of(0, "model")),
    Target("baselines", "predict_proba", qualifier=_kind_of(0, "model")),
    Target("baselines", "save_model"),
    Target("baselines", "load_model"),
    Target("evaluation", "evaluate_model", qualifier=_model_name),
    Target("evaluation", "auroc"),
)

# span field positions; a span is a list so the wrapper can fill in its end
NAME, START, END, PARENT, RUN, COUNT, CPU_S, RSS_MB = range(8)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB.

    Linux keeps `ru_maxrss` across fork and exec, so it would also count the
    memory of the process that started this one; `VmHWM` is this process's own.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Tracer:
    """Records one span per call of every target while installed.

    A span is [name, start, end, parent index, run id, work count, CPU
    seconds, peak RSS in MiB]; the last two are filled only for targets with
    `resources`. The qualifier (a classifier kind or model name) is appended
    to the name. `run` is the id stamped on spans; set it before each
    operation.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, fn, target: Target):
        name = target.span
        qualifier, count, resources = target.qualifier, target.count, target.resources
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span_name = name if qualifier is None else f"{name}.{qualifier(args, kwargs)}"
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.run, 0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            if resources:
                cpu0 = time.process_time()
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if resources:
                    span[CPU_S] = time.process_time() - cpu0
                    span[RSS_MB] = peak_rss_mb()
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for target in self.targets:
            importlib.import_module(f"aeromon.{target.module}")
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("aeromon.")]
        wrapped = {}
        for target in self.targets:
            owner = importlib.import_module(f"aeromon.{target.module}")
            attr = target.attr
            if "." in attr:  # a method: patch the class, which every user shares
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, self.wrap(original, target))
                continue
            original = getattr(owner, attr)
            wrapped[original] = self.wrap(original, target)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapped[original])
        # run_pipeline takes most stages from this table, bound at import
        pipeline = importlib.import_module("aeromon.pipeline")
        stages = pipeline._PIPELINE_STAGES
        self._set(pipeline, "_PIPELINE_STAGES", tuple((n, wrapped.get(fn, fn)) for n, fn in stages))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _set(self, owner, name, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so a parent's children never overlap and
    their durations add up to the covered time.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, covered)]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one operation's spans.

    For every span name: `<name>.calls`, `<name>.s` (summed self time) and the
    target's work count. Pipeline stages report `.s` as the stage's whole wall
    time, with `.cpu_s` and `.rss_mb` (process peak when the stage ended).
    `baselines.fit_useful_frac` is final fits over all fits, a fit under
    `cross_validate` being a CV fit (0 when nothing was fitted).
    """
    counts = {t.span: t.count_label for t in TARGETS if t.count_label}
    stages = {f"pipeline.{s}" for s in STAGES.values()}
    out: dict[str, float] = defaultdict(float)
    fits = final_fits = 0
    for span, self_s in zip(spans, self_times(spans)):
        name = span[NAME]
        out[f"{name}.calls"] += 1
        if name in stages:
            out[f"{name}.s"] += span[END] - span[START]
            out[f"{name}.cpu_s"] += span[CPU_S]
            out[f"{name}.rss_mb"] = max(out[f"{name}.rss_mb"], span[RSS_MB])
        else:
            out[f"{name}.s"] += self_s
        if name in counts:
            out[f"{name}.{counts[name]}"] += span[COUNT]
        if name.startswith("baselines.train_classifier."):
            fits += 1
            parent = span[PARENT]
            final_fits += parent < 0 or spans[parent][NAME] != "baselines.cross_validate"
    out["baselines.fit_useful_frac"] = final_fits / fits if fits else 0.0
    return dict(out)
