"""Confusion-matrix metrics, AUROC, histogram export, and model reports.

The anomalous class is the positive class throughout. Ratios with a zero
denominator come back as 0.0 and the affected metric name is recorded in
the `degenerate` field instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import CHANNELS, Dataset
from .errors import (
    DomainError,
    InsufficientDataError,
    ShapeError,
    UndefinedAurocError,
)
from .numerics import percentile


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise DomainError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn}


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    accuracy: float
    auroc: float | None = None
    degenerate: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScoreSummary:
    """Distribution of decision scores within one true class."""

    minimum: float
    median: float
    p85: float
    maximum: float

    @classmethod
    def of(cls, scores) -> "ScoreSummary":
        return cls(
            minimum=float(np.min(scores)),
            median=percentile(scores, 50.0),
            p85=percentile(scores, 85.0),
            maximum=float(np.max(scores)),
        )

    def to_dict(self) -> dict:
        return {
            "min": self.minimum,
            "median": self.median,
            "p85": self.p85,
            "max": self.maximum,
        }


@dataclass(frozen=True)
class EvalReport:
    model: str
    metrics: Metrics
    confusion: ConfusionMatrix
    score_summaries: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "precision": self.metrics.precision,
            "recall": self.metrics.recall,
            "f1": self.metrics.f1,
            "accuracy": self.metrics.accuracy,
            "auroc": self.metrics.auroc,
            "confusion": self.confusion.to_dict(),
            "degenerate": list(self.metrics.degenerate),
            "scores": {name: s.to_dict() for name, s in self.score_summaries.items()},
        }


def confusion(pred, truth) -> ConfusionMatrix:
    pred = np.asarray(pred, dtype=np.int8)
    truth = np.asarray(truth, dtype=np.int8)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ShapeError("prediction and truth vectors must have equal length")
    if pred.size == 0:
        raise InsufficientDataError("cannot build a confusion matrix from zero samples")
    return ConfusionMatrix(
        tp=int(((pred == 1) & (truth == 1)).sum()),
        fp=int(((pred == 1) & (truth == 0)).sum()),
        fn=int(((pred == 0) & (truth == 1)).sum()),
        tn=int(((pred == 0) & (truth == 0)).sum()),
    )


def metrics(cm: ConfusionMatrix, auroc_value: float | None = None) -> Metrics:
    degenerate = []
    if cm.tp + cm.fp > 0:
        precision = cm.tp / (cm.tp + cm.fp)
    else:
        precision = 0.0
        degenerate.append("precision")
    if cm.tp + cm.fn > 0:
        recall = cm.tp / (cm.tp + cm.fn)
    else:
        recall = 0.0
        degenerate.append("recall")
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
        degenerate.append("f1")
    accuracy = (cm.tp + cm.tn) / cm.total
    return Metrics(
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=accuracy,
        auroc=auroc_value,
        degenerate=tuple(degenerate),
    )


def auroc(scores, truth) -> float:
    """Mann-Whitney AUROC with ties counted one half.

    Equals the probability that a random anomalous sample outscores a random
    normal one, and the trapezoid area under the threshold-sweep ROC curve.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int8)
    if scores.shape != truth.shape or scores.ndim != 1:
        raise ShapeError("scores and truth must be equal-length vectors")
    n_pos = int((truth == 1).sum())
    n_neg = int((truth == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAurocError("AUROC needs both classes present")
    order = np.argsort(scores, kind="stable")
    # each run of equal sorted scores starting at 0-based `start` shares the
    # 1-based midrank start + (count + 1) / 2
    _, start, counts = np.unique(scores[order], return_index=True, return_counts=True, equal_nan=False)
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(start + (counts + 1) / 2.0, counts)
    rank_sum_pos = float(ranks[truth == 1].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


@dataclass(frozen=True)
class ChannelHistogram:
    channel: str
    edges: np.ndarray  # bins + 1 boundaries
    counts_normal: np.ndarray
    counts_anomalous: np.ndarray


def feature_histograms(data: Dataset, bins: int = 50) -> list[ChannelHistogram]:
    """Per-channel, per-class counts over equal-width bins.

    Bins span each channel's observed range across both classes; a constant
    channel puts all mass into a single bin.
    """
    labels = data.require_labels()
    if data.n == 0:
        raise InsufficientDataError("cannot histogram an empty dataset")
    if bins < 2:
        raise DomainError("need at least 2 bins")
    out = []
    for j, name in enumerate(CHANNELS):
        col = data.features[:, j]
        lo, hi = float(col.min()), float(col.max())
        if lo == hi:
            edges = np.array([lo, lo + 1.0])
        else:
            edges = np.linspace(lo, hi, bins + 1)
        normal, _ = np.histogram(col[labels == 0], bins=edges)
        anomalous, _ = np.histogram(col[labels == 1], bins=edges)
        out.append(
            ChannelHistogram(
                channel=name,
                edges=edges,
                counts_normal=normal,
                counts_anomalous=anomalous,
            )
        )
    return out


def histograms_to_csv_lines(histograms: list[ChannelHistogram]) -> list[str]:
    lines = ["channel,class,bin_index,bin_left,bin_right,count"]
    for h in histograms:
        for cls_name, counts in (("normal", h.counts_normal), ("anomalous", h.counts_anomalous)):
            for b, count in enumerate(counts):
                lines.append(
                    f"{h.channel},{cls_name},{b},{float(h.edges[b])!r},{float(h.edges[b + 1])!r},{int(count)}"
                )
    return lines


def evaluate_model(decider, test: Dataset, model_name: str = "model") -> EvalReport:
    """Apply a batch decision function once to the whole test feature matrix.

    The decider receives the raw (n, d) feature matrix and returns
    `(decisions, scores)`: n labels (1 = anomalous) and n scores. AUROC is
    included when both classes appear in the truth; with a single-class test
    set it is None.
    """
    truth = test.require_labels()
    decisions, scores = decider(test.features)
    predictions = np.asarray(decisions, dtype=np.int8)
    scores = np.asarray(scores, dtype=np.float64)
    if predictions.shape != (test.n,) or scores.shape != (test.n,):
        raise ShapeError(f"decider returned shapes {predictions.shape} and {scores.shape}, expected ({test.n},)")
    cm = confusion(predictions, truth)
    auroc_value = None
    if 0 < int((truth == 1).sum()) < test.n:
        auroc_value = auroc(scores, truth)
    summaries = {}
    for cls, name in ((0, "normal"), (1, "anomalous")):
        cls_scores = scores[truth == cls]
        if cls_scores.size:
            summaries[name] = ScoreSummary.of(cls_scores)
    return EvalReport(
        model=model_name,
        metrics=metrics(cm, auroc_value),
        confusion=cm,
        score_summaries=summaries,
    )
