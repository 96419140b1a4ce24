"""Confusion-matrix metrics, AUROC, histogram export, and model reports.

The anomalous class is the positive class throughout. Ratios with a zero
denominator come back as 0.0 and the affected metric name is recorded in
the `degenerate` field instead of raising.
"""

from __future__ import annotations

import numpy as np

from .dataset import CHANNELS, Dataset
from .errors import DataError, DomainError, NumericError, ShapeError
from .numerics import as_labels, order_statistic


def confusion(pred, truth) -> dict:
    """{"tp", "fp", "fn", "tn"} counts of predictions against truth, as Python ints."""
    truth = as_labels(truth)
    pred = as_labels(pred, truth.size)
    if pred.size == 0:
        raise DataError("cannot build a confusion matrix from zero samples")
    return {
        "tp": int(((pred == 1) & (truth == 1)).sum()),
        "fp": int(((pred == 1) & (truth == 0)).sum()),
        "fn": int(((pred == 0) & (truth == 1)).sum()),
        "tn": int(((pred == 0) & (truth == 0)).sum()),
    }


def metrics(cm: dict) -> dict:
    """Precision, recall, F1 and accuracy of a confusion count, plus the
    `degenerate` list of the ratios whose denominator was zero."""
    tp, fp, fn, tn = cm["tp"], cm["fp"], cm["fn"], cm["tn"]
    degenerate = []

    def ratio(name, num, den):
        if den > 0:
            return num / den
        degenerate.append(name)
        return 0.0

    precision = ratio("precision", tp, tp + fp)
    recall = ratio("recall", tp, tp + fn)
    f1 = ratio("f1", 2.0 * precision * recall, precision + recall)
    accuracy = (tp + tn) / (tp + fp + fn + tn)
    return {"precision": precision, "recall": recall, "f1": f1, "accuracy": accuracy, "degenerate": degenerate}


def auroc(scores, truth) -> float:
    """Mann-Whitney AUROC with ties counted one half.

    Equals the probability that a random anomalous sample outscores a random
    normal one, and the trapezoid area under the threshold-sweep ROC curve.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = as_labels(truth)
    if scores.shape != truth.shape:
        raise ShapeError("scores and truth must be equal-length vectors")
    n_pos = int((truth == 1).sum())
    n_neg = int((truth == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise NumericError("AUROC needs both classes present")
    order = np.argsort(scores, kind="stable")
    # each run of equal sorted scores starting at 0-based `start` shares the
    # 1-based midrank start + (count + 1) / 2
    _, start, counts = np.unique(scores[order], return_index=True, return_counts=True, equal_nan=False)
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(start + (counts + 1) / 2.0, counts)
    rank_sum_pos = float(ranks[truth == 1].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def feature_histograms(data: Dataset, bins: int = 50) -> tuple[np.ndarray, ...]:
    """Per-channel, per-class counts over equal-width bins, as the six columns
    channel, class ("normal", then "anomalous"), bin index, bin left edge, bin
    right edge and count, one row per channel, class and bin.

    Bins span each channel's observed range across both classes; a constant
    channel puts all mass into a single bin.
    """
    labels = data.require_labels()
    if data.n == 0:
        raise DataError("cannot histogram an empty dataset")
    if bins < 2:
        raise DomainError("need at least 2 bins")
    parts = []
    for name, col in zip(CHANNELS, data.features.T):
        lo, hi = float(col.min()), float(col.max())
        edges = np.array([lo, lo + 1.0]) if lo == hi else np.linspace(lo, hi, bins + 1)
        for cls_name, cls in (("normal", 0), ("anomalous", 1)):
            counts, _ = np.histogram(col[labels == cls], bins=edges)
            k = counts.size
            parts.append((np.full(k, name), np.full(k, cls_name), np.arange(k), edges[:-1], edges[1:], counts))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _score_summary(scores: np.ndarray) -> dict:
    """Distribution of decision scores within one true class, as the order
    statistics that the anomaly threshold is calibrated by."""
    return {key: order_statistic(scores, p) for key, p in (("min", 0), ("median", 50), ("p85", 85), ("max", 100))}


def evaluate_model(decider, test: Dataset, model_name: str = "model") -> dict:
    """Apply a batch decision function once to the whole test feature matrix
    and return the report that `report_<model_name>.json` holds.

    The decider receives the raw (n, d) feature matrix and returns
    `(decisions, scores)`: n labels (1 = anomalous) and n scores. AUROC is
    included when both classes appear in the truth; with a single-class test
    set it is None.
    """
    truth = test.require_labels()
    decisions, scores = decider(test.features)
    predictions = as_labels(decisions, test.n)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (test.n,):
        raise ShapeError(f"decider returned scores of shape {scores.shape}, expected ({test.n},)")
    cm = confusion(predictions, truth)
    auroc_value = None
    if 0 < int((truth == 1).sum()) < test.n:
        auroc_value = auroc(scores, truth)
    summaries = {}
    for cls, name in ((0, "normal"), (1, "anomalous")):
        cls_scores = scores[truth == cls]
        if cls_scores.size:
            summaries[name] = _score_summary(cls_scores)
    return {"model": model_name, **metrics(cm), "auroc": auroc_value, "confusion": cm, "scores": summaries}
