"""Supervised fault classifiers trained on labelled, scaled telemetry.

Six binary classifiers, each deterministic for a fixed seed: logistic
regression (full-batch gradient descent on L2-regularized cross-entropy),
Gaussian naive Bayes, k-nearest-neighbours, a CART decision tree with Gini
impurity, a bootstrap random forest, and a single-hidden-layer perceptron.
Everything predicts a probability for the anomalous class; the label is
anomalous iff that probability exceeds 0.5 (ties go to normal).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autoencoder import (
    AdamState,
    LayerSpec,
    _backprop_from_output_delta,
    _sigmoid,
    adam_step,
    forward,
    init_network,
    network_from_dict,
    network_to_dict,
)
from .dataset import Dataset, Label
from .errors import (
    ConfigError,
    DataError,
    DegenerateLabelsError,
    DomainError,
    ShapeError,
    StratificationError,
)
from .numerics import Rng, derive_seed

CLASSIFIER_FORMAT_VERSION = 1

LOGREG = "logreg"
GAUSSIAN_NB = "gaussian_nb"
KNN = "knn"
DECISION_TREE = "decision_tree"
RANDOM_FOREST = "random_forest"
MLP = "mlp"
CLASSIFIER_KINDS = (LOGREG, GAUSSIAN_NB, KNN, DECISION_TREE, RANDOM_FOREST, MLP)

_NB_VARIANCE_FLOOR = 1e-9


@dataclass(frozen=True)
class ClassifierConfig:
    """Kind plus the hyperparameters that kind consumes; others are ignored."""

    kind: str
    # logreg / mlp optimization
    l2_strength: float = 0.0
    learning_rate: float = 0.1
    epochs: int = 400
    # knn
    k: int = 5
    # tree growth (also used by forest trees); max_depth None = unbounded
    max_depth: int | None = None
    min_leaf: int = 1
    # forest
    n_trees: int = 100
    features_per_split: int = 3
    bootstrap: bool = True
    # mlp
    hidden_units: int = 8
    batch_size: int = 256

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise DomainError(f"unknown classifier kind '{self.kind}'")
        if self.kind == KNN and (self.k < 1 or self.k % 2 == 0):
            raise DomainError("k must be odd and >= 1 to avoid vote ties")
        if self.l2_strength < 0:
            raise DomainError("l2_strength must be >= 0")
        if self.n_trees < 1 or self.features_per_split < 1 or self.min_leaf < 1:
            raise DomainError("tree/forest parameters must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise DomainError("max_depth must be >= 1 or None")
        if self.kind in (LOGREG, MLP) and (self.learning_rate <= 0 or self.epochs < 1):
            raise DomainError("learning_rate must be positive and epochs >= 1")
        if self.kind == MLP and (self.hidden_units < 1 or self.batch_size < 1):
            raise DomainError("hidden_units and batch_size must be >= 1")


@dataclass(frozen=True)
class ClassifierModel:
    kind: str
    config: ClassifierConfig
    payload: object
    scaler_ref: str | None = None


def _require_both_classes(labels: np.ndarray) -> None:
    if labels.min(initial=1) == labels.max(initial=0):
        raise DegenerateLabelsError("training data contains a single class")


# --- logistic regression ----------------------------------------------------


def logreg_loss(weights, bias, x, y, l2_strength):
    p = _sigmoid(x @ weights + bias)
    eps = 1e-12
    ce = -np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps))
    return float(ce + 0.5 * l2_strength * float(weights @ weights))


def logreg_gradient(weights, bias, x, y, l2_strength):
    """Gradient of the mean cross-entropy plus (l2/2)*||w||^2 (bias free)."""
    p = _sigmoid(x @ weights + bias)
    diff = p - y
    gw = x.T @ diff / x.shape[0] + l2_strength * weights
    gb = float(diff.mean())
    return gw, gb


def _train_logreg(cfg: ClassifierConfig, x, y):
    weights = np.zeros(x.shape[1])
    bias = 0.0
    for _ in range(cfg.epochs):
        gw, gb = logreg_gradient(weights, bias, x, y, cfg.l2_strength)
        weights -= cfg.learning_rate * gw
        bias -= cfg.learning_rate * gb
    return {"weights": weights, "bias": bias}


def _logreg_proba(payload, x):
    return _sigmoid(x @ payload["weights"] + payload["bias"])


# --- gaussian naive bayes ---------------------------------------------------


def _train_gaussian_nb(x, y):
    means, variances, log_priors = [], [], []
    for c in (0, 1):
        sub = x[y == c]
        means.append(sub.mean(axis=0))
        variances.append(np.maximum(sub.var(axis=0), _NB_VARIANCE_FLOOR))
        log_priors.append(math.log(sub.shape[0] / x.shape[0]))
    return {
        "means": np.array(means),
        "variances": np.array(variances),
        "log_priors": np.array(log_priors),
    }


def _gaussian_nb_proba(payload, x):
    logliks = []
    for c in (0, 1):
        mean, var = payload["means"][c], payload["variances"][c]
        ll = -0.5 * (np.log(2.0 * math.pi * var) + (x - mean) ** 2 / var).sum(axis=1)
        logliks.append(ll + payload["log_priors"][c])
    l0, l1 = logliks
    top = np.maximum(l0, l1)
    e0, e1 = np.exp(l0 - top), np.exp(l1 - top)
    return e1 / (e0 + e1)


# --- k-nearest-neighbours ---------------------------------------------------


def _knn_proba(payload, x):
    train_x, train_y, k = payload["train_features"], payload["train_labels"], payload["k"]
    out = np.empty(x.shape[0])
    for i, q in enumerate(x):
        d2 = ((train_x - q) ** 2).sum(axis=1)
        # stable sort: among tied distances the lower training index wins
        nearest = np.argsort(d2, kind="stable")[:k]
        out[i] = train_y[nearest].mean()
    return out


# --- CART decision tree -----------------------------------------------------


def _best_split(x, y, feature_ids, min_leaf):
    """Highest Gini gain over midpoint thresholds of the candidate features.

    Ties resolve to the lowest feature id (candidates are scanned in
    ascending order) and then the lowest threshold.
    """
    n = y.size
    pos = int(y.sum())
    p1 = pos / n
    gini_parent = 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)
    best = None
    for f in feature_ids:
        vals = x[:, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        cum_pos = np.cumsum(y[order])
        bounds = np.flatnonzero(sv[:-1] < sv[1:])
        if bounds.size == 0:
            continue
        nl = bounds + 1
        nr = n - nl
        keep = (nl >= min_leaf) & (nr >= min_leaf)
        if not keep.any():
            continue
        bounds, nl, nr = bounds[keep], nl[keep], nr[keep]
        pl = cum_pos[bounds]
        pr = pos - pl
        gini_l = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
        gini_r = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
        gains = gini_parent - (nl / n) * gini_l - (nr / n) * gini_r
        j = int(np.argmax(gains))
        if gains[j] > 0.0 and (best is None or gains[j] > best[0]):
            threshold = (sv[bounds[j]] + sv[bounds[j] + 1]) / 2.0
            best = (float(gains[j]), int(f), float(threshold))
    return best


def _grow_tree(x, y, depth, max_depth, min_leaf, choose_features):
    n = y.size
    pos = int(y.sum())
    if pos == 0 or pos == n or n < 2 * min_leaf or (max_depth is not None and depth >= max_depth):
        return {"leaf": pos / n, "n": int(n)}
    best = _best_split(x, y, choose_features(), min_leaf)
    if best is None:
        return {"leaf": pos / n, "n": int(n)}
    _, feature, threshold = best
    mask = x[:, feature] <= threshold
    return {
        "feature": feature,
        "threshold": threshold,
        "left": _grow_tree(x[mask], y[mask], depth + 1, max_depth, min_leaf, choose_features),
        "right": _grow_tree(x[~mask], y[~mask], depth + 1, max_depth, min_leaf, choose_features),
    }


def _tree_leaf_prob(node, row):
    while "feature" in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node["leaf"]


def _tree_proba(payload, x):
    return np.array([_tree_leaf_prob(payload["root"], row) for row in x])


def _train_tree(cfg: ClassifierConfig, x, y):
    all_features = list(range(x.shape[1]))
    root = _grow_tree(x, y, 0, cfg.max_depth, cfg.min_leaf, lambda: all_features)
    return {"root": root}


# --- random forest ----------------------------------------------------------


def _train_single_forest_tree(x, y, cfg: ClassifierConfig, tree_rng: Rng):
    n, d = x.shape
    m = min(cfg.features_per_split, d)
    if cfg.bootstrap:
        idx = np.array([tree_rng.randrange(n) for _ in range(n)], dtype=np.int64)
        bx, by = x[idx], y[idx]
    else:
        bx, by = x, y

    def choose_features():
        if m == d:
            return list(range(d))
        return sorted(tree_rng.sample_indices(d, m))

    return _grow_tree(bx, by, 0, cfg.max_depth, cfg.min_leaf, choose_features)


def _train_forest(cfg: ClassifierConfig, x, y, seed: int):
    trees = [_train_single_forest_tree(x, y, cfg, Rng(derive_seed(seed, t))) for t in range(cfg.n_trees)]
    return {"trees": trees}


def _forest_proba(payload, x):
    trees = payload["trees"]
    votes = np.zeros(x.shape[0])
    for tree in trees:
        votes += np.array([1.0 if _tree_leaf_prob(tree, row) > 0.5 else 0.0 for row in x])
    return votes / len(trees)


# --- single-hidden-layer perceptron ----------------------------------------


def _train_mlp(cfg: ClassifierConfig, x, y, seed: int):
    net = init_network(
        [LayerSpec(x.shape[1], cfg.hidden_units, "elu"), LayerSpec(cfg.hidden_units, 1, "sigmoid")],
        seed,
    )
    params = net.parameters()
    state = AdamState.for_params(params, cfg.learning_rate)
    rng = Rng(derive_seed(seed, 1))
    order = np.arange(x.shape[0])
    target = y.astype(np.float64).reshape(-1, 1)
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        for start in range(0, x.shape[0], cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            batch, yb = x[rows], target[rows]
            out, cache = forward(net, batch)
            # sigmoid + cross-entropy: dL/dz at the output is (p - y)/batch
            delta = (out - yb) / rows.size
            grads = _backprop_from_output_delta(net, cache, delta)
            adam_step(state, params, grads)
    return {"network": net}


def _mlp_proba(payload, x):
    out, _ = forward(payload["network"], x)
    return out[:, 0]


# --- shared surface ---------------------------------------------------------


def train_classifier(cfg: ClassifierConfig, train: Dataset, seed: int) -> ClassifierModel:
    """Fit one classifier on scaled, labelled data. Deterministic per seed."""
    y = train.require_labels().astype(np.float64)
    _require_both_classes(train.labels)
    x = train.features
    if cfg.kind == LOGREG:
        payload = _train_logreg(cfg, x, y)
    elif cfg.kind == GAUSSIAN_NB:
        payload = _train_gaussian_nb(x, y)
    elif cfg.kind == KNN:
        if cfg.k > train.n:
            raise DataError(f"k={cfg.k} exceeds training size {train.n}")
        payload = {"train_features": x.copy(), "train_labels": y.copy(), "k": cfg.k}
    elif cfg.kind == DECISION_TREE:
        payload = _train_tree(cfg, x, y)
    elif cfg.kind == RANDOM_FOREST:
        payload = _train_forest(cfg, x, y, seed)
    else:
        payload = _train_mlp(cfg, x, y, seed)
    return ClassifierModel(kind=cfg.kind, config=cfg, payload=payload)


_PROBA_FNS = {
    LOGREG: _logreg_proba,
    GAUSSIAN_NB: _gaussian_nb_proba,
    KNN: _knn_proba,
    DECISION_TREE: _tree_proba,
    RANDOM_FOREST: _forest_proba,
    MLP: _mlp_proba,
}


def predict_proba(model: ClassifierModel, features: np.ndarray) -> np.ndarray:
    """Anomalous-class probability of every row of an (n, d) feature matrix;
    non-finite features raise DomainError."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("predict_proba expects a (n, d) feature matrix")
    if not np.isfinite(x).all():
        raise DomainError("features contain non-finite values")
    return _PROBA_FNS[model.kind](model.payload, x)


def predict(model: ClassifierModel, x):
    """(label, anomalous-class probability) for one sample (d,), or (labels,
    probabilities) arrays for a matrix (n, d); prob > 0.5 means anomalous."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        probs = predict_proba(model, x)
        return (probs > 0.5).astype(np.int8), probs
    if x.ndim != 1:
        raise ShapeError("predict expects a sample vector or a (n, d) feature matrix")
    prob = float(predict_proba(model, x[None, :])[0])
    return (Label.ANOMALOUS if prob > 0.5 else Label.NORMAL), prob


def stratified_folds(labels: np.ndarray, folds: int, seed: int) -> list[np.ndarray]:
    """Disjoint, exhaustive fold assignment; per-class sizes differ by <= 1.

    Each class's indices are shuffled with a seeded generator and dealt
    round-robin, so the first (n_c mod folds) folds get the extra members.
    """
    if folds < 2:
        raise DomainError("need at least 2 folds")
    assignments: list[list[int]] = [[] for _ in range(folds)]
    for c in (0, 1):
        idx = [int(i) for i in np.flatnonzero(labels == c)]
        if len(idx) < folds:
            raise StratificationError(f"class {Label(c).name} has {len(idx)} members, fewer than {folds} folds")
        Rng(derive_seed(seed, c)).shuffle(idx)
        for f in range(folds):
            assignments[f].extend(idx[f::folds])
    return [np.sort(np.array(a, dtype=np.int64)) for a in assignments]


def _anomalous_f1(pred: np.ndarray, truth: np.ndarray) -> float:
    tp = int(((pred == 1) & (truth == 1)).sum())
    fp = int(((pred == 1) & (truth == 0)).sum())
    fn = int(((pred == 0) & (truth == 1)).sum())
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def cross_validate(
    cfg: ClassifierConfig, train: Dataset, folds: int = 5, seed: int = 0
) -> tuple[float, list[float]]:
    """Mean anomalous-class F1 over stratified folds (plus per-fold scores)."""
    labels = train.require_labels()
    fold_indices = stratified_folds(labels, folds, seed)
    scores = []
    for f, held_out in enumerate(fold_indices):
        mask = np.ones(train.n, dtype=bool)
        mask[held_out] = False
        fit_set = train.subset(np.flatnonzero(mask))
        model = train_classifier(cfg, fit_set, derive_seed(seed, 100 + f))
        probs = predict_proba(model, train.features[held_out])
        pred = (probs > 0.5).astype(np.int8)
        scores.append(_anomalous_f1(pred, labels[held_out]))
    return sum(scores) / folds, scores


def select_model(
    candidates: list[ClassifierConfig], train: Dataset, seed: int, folds: int = 5
) -> tuple[ClassifierConfig, ClassifierModel]:
    """Pick the candidate with the highest mean CV F1 and refit on all data.

    Ties go to the earliest candidate. A single candidate skips CV.
    """
    if not candidates:
        raise ConfigError("select_model needs at least one candidate")
    if len(candidates) == 1:
        best = candidates[0]
    else:
        best, best_score = None, -1.0
        for cfg in candidates:
            mean_f1, _ = cross_validate(cfg, train, folds=folds, seed=seed)
            if mean_f1 > best_score:
                best, best_score = cfg, mean_f1
    return best, train_classifier(best, train, seed)


# --- serialization ----------------------------------------------------------


def _config_to_dict(cfg: ClassifierConfig) -> dict:
    return {
        "kind": cfg.kind,
        "l2_strength": cfg.l2_strength,
        "learning_rate": cfg.learning_rate,
        "epochs": cfg.epochs,
        "k": cfg.k,
        "max_depth": cfg.max_depth,
        "min_leaf": cfg.min_leaf,
        "n_trees": cfg.n_trees,
        "features_per_split": cfg.features_per_split,
        "bootstrap": cfg.bootstrap,
        "hidden_units": cfg.hidden_units,
        "batch_size": cfg.batch_size,
    }


def model_to_dict(model: ClassifierModel) -> dict:
    d = {
        "format_version": CLASSIFIER_FORMAT_VERSION,
        "kind": model.kind,
        "config": _config_to_dict(model.config),
        "scaler_ref": model.scaler_ref,
    }
    p = model.payload
    if model.kind == LOGREG:
        d["weights"] = [float(v) for v in p["weights"]]
        d["bias"] = float(p["bias"])
    elif model.kind == GAUSSIAN_NB:
        d["means"] = [[float(v) for v in row] for row in p["means"]]
        d["variances"] = [[float(v) for v in row] for row in p["variances"]]
        d["log_priors"] = [float(v) for v in p["log_priors"]]
    elif model.kind == KNN:
        d["k"] = p["k"]
        d["train_features"] = [[float(v) for v in row] for row in p["train_features"]]
        d["train_labels"] = [int(v) for v in p["train_labels"]]
    elif model.kind == DECISION_TREE:
        d["root"] = p["root"]
    elif model.kind == RANDOM_FOREST:
        d["trees"] = p["trees"]
    else:
        d["network"] = network_to_dict(p["network"])
    return d


def model_from_dict(d: dict) -> ClassifierModel:
    if d.get("format_version") != CLASSIFIER_FORMAT_VERSION:
        raise DataError(f"unsupported classifier format version {d.get('format_version')!r}")
    cfg = ClassifierConfig(**d["config"])
    kind = d["kind"]
    if kind == LOGREG:
        payload = {"weights": np.array(d["weights"], dtype=np.float64), "bias": float(d["bias"])}
    elif kind == GAUSSIAN_NB:
        payload = {
            "means": np.array(d["means"], dtype=np.float64),
            "variances": np.array(d["variances"], dtype=np.float64),
            "log_priors": np.array(d["log_priors"], dtype=np.float64),
        }
    elif kind == KNN:
        payload = {
            "train_features": np.array(d["train_features"], dtype=np.float64),
            "train_labels": np.array(d["train_labels"], dtype=np.float64),
            "k": int(d["k"]),
        }
    elif kind == DECISION_TREE:
        payload = {"root": d["root"]}
    elif kind == RANDOM_FOREST:
        payload = {"trees": d["trees"]}
    else:
        payload = {"network": network_from_dict(d["network"])}
    return ClassifierModel(kind=kind, config=cfg, payload=payload, scaler_ref=d.get("scaler_ref"))


def save_model(model: ClassifierModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), sort_keys=True), encoding="utf-8")


def load_model(path) -> ClassifierModel:
    return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
