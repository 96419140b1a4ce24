"""Supervised fault classifiers trained on labelled, scaled telemetry.

Six binary classifiers, each deterministic for a fixed seed: logistic
regression (a one-layer sigmoid network fitted by full-batch gradient descent
on L2-regularized cross-entropy), Gaussian naive Bayes, k-nearest-neighbours,
a CART decision tree with Gini impurity, a bootstrap random forest, and a
single-hidden-layer perceptron (logreg with an ELU hidden layer).
Everything predicts a probability for the anomalous class; the label is
anomalous iff that probability exceeds 0.5 (ties go to normal).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .autoencoder import (
    LayerSpec,
    Network,
    _backprop_from_output_delta,
    _sigmoid,
    adam_epochs,
    forward,
    forward_rows,
    init_network,
    network_from_dict,
    network_to_dict,
)
from .dataset import Dataset, Label
from .errors import ConfigError, DataError, DomainError, NumericError, read_json_artifact, write_json_artifact
from .evaluation import confusion
from .numerics import Rng, as_labels, as_matrix, derive_seed, leading_sums

CLASSIFIER_FORMAT_VERSION = 4

LOGREG = "logreg"
GAUSSIAN_NB = "gaussian_nb"
KNN = "knn"
DECISION_TREE = "decision_tree"
RANDOM_FOREST = "random_forest"
MLP = "mlp"

_NB_VARIANCE_FLOOR = 1e-9
_KNN_BLOCK_ELEMS = 2**17  # distance-matrix entries per block of test rows (1 MiB of float64)
_DRAW_CHUNK = 256  # forest feature subsets per draw call; a tree has ~90 splits at n=2000, ~310 at n=20000


# a per-kind config field -> (does a value pass, the rule its DomainError states); any other field must be >= 1
_RANGES = {
    "l2_strength": (lambda v: 0.0 <= v < math.inf, ">= 0 and finite"),
    "learning_rate": (lambda v: 0.0 < v < math.inf, "positive and finite"),
    "k": (lambda v: v >= 1 and v % 2 == 1, "odd and >= 1 to avoid vote ties"),
    "max_depth": (lambda v: v >= 0, ">= 0 (0 = unbounded)"),
    "bootstrap": (lambda v: v in (False, True), "true or false"),
}


class BaselineConfig:
    """A per-kind config: its kind as a class attribute, the hyperparameters the kind reads as fields."""

    def __post_init__(self):
        for name, value in vars(self).items():
            passes, rule = _RANGES.get(name, (lambda v: v >= 1, ">= 1"))
            if not passes(value):
                raise DomainError(f"{name} must be {rule}")


@dataclass(frozen=True)
class LogregConfig(BaselineConfig):
    kind = LOGREG
    l2_strength: float = 0.0
    learning_rate: float = 2.0
    epochs: int = 600


@dataclass(frozen=True)
class GaussianNbConfig(BaselineConfig):
    kind = GAUSSIAN_NB


@dataclass(frozen=True)
class KnnConfig(BaselineConfig):
    kind = KNN
    k: int = 5


@dataclass(frozen=True)
class TreeConfig(BaselineConfig):
    kind = DECISION_TREE
    max_depth: int = 0  # 0 = unbounded
    min_leaf: int = 1


@dataclass(frozen=True)
class ForestConfig(TreeConfig):
    kind = RANDOM_FOREST
    n_trees: int = 100
    features_per_split: int = 3
    bootstrap: bool = True


@dataclass(frozen=True)
class MlpConfig(BaselineConfig):
    kind = MLP
    hidden_units: int = 8
    learning_rate: float = 0.01
    epochs: int = 120
    batch_size: int = 256


@dataclass(frozen=True)
class ClassifierModel:
    """A fitted baseline: its config, the arrays its kind predicts from, and
    the width of the samples it predicts from."""

    config: BaselineConfig
    payload: dict
    n_channels: int

    @property
    def kind(self) -> str:
        return self.config.kind


# --- logistic regression ----------------------------------------------------


def _logreg_layers(cfg: LogregConfig, d: int) -> list[LayerSpec]:
    return [LayerSpec(d, 1, "sigmoid")]


class FitDiverged(DomainError):
    """A logreg fit whose objective rose above its start or a non-finite mlp fit; `cross_validate` reports None."""


def _train_logreg(cfg: LogregConfig, x, y, seed):
    n, d = x.shape
    x = np.ascontiguousarray(x.T)  # channel-major (d, n), the layout of `forward`
    net = Network(np.zeros(d + 1), _logreg_layers(cfg, d))
    target = y.reshape(1, -1)
    for epoch in range(cfg.epochs):
        out, cache = forward(net, x)
        if epoch & (epoch - 1) == 0:  # epochs 0, 1, 2, 4, ...: a log pass every epoch costs what stopping saves
            w = net.params[:d]  # the objective: mean cross-entropy plus (l2/2)*||w||^2; log(0) is inf
            objective = -np.log(np.where(target == 1.0, out, 1.0 - out)).sum() / n + 0.5 * cfg.l2_strength * (w @ w)
            if epoch == 0:
                start = objective  # log 2 at zero weights, up to rounding
            elif not objective <= start:  # risen above its start, or NaN
                raise FitDiverged("logreg fit diverged")
        # sigmoid + cross-entropy: dL/dz at the output is p - y. Summed over the
        # samples, then divided, the mean gradient rounds as x @ (p - y) / n
        grads = _backprop_from_output_delta(net, cache, out - target) / n
        grads[:d] += cfg.l2_strength * net.params[:d]  # (l2/2)*||w||^2; the bias is not regularized
        net.params -= cfg.learning_rate * grads
    return {"network": net}


def _network_proba(model, x):
    """The output unit of a logreg or mlp network, through the row-exact `forward_rows`."""
    return forward_rows(model.payload["network"], x)[0]


def _read_network(layers, d, cfg: LogregConfig | MlpConfig, n_channels: int):
    """A logreg or mlp file's network, which must have the layers `layers(cfg, n_channels)` the kind trains."""
    return {"network": network_from_dict(d["network"], layers(cfg, n_channels))}


# --- gaussian naive bayes ---------------------------------------------------


def _train_gaussian_nb(cfg: GaussianNbConfig, x, y, seed):
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


def _gaussian_nb_proba(model, x):
    p = model.payload
    l0, l1 = (
        -0.5 * leading_sums(np.log(2.0 * math.pi * var)[:, None] + (x - mean[:, None]) ** 2 / var[:, None]) + log_prior
        for mean, var, log_prior in zip(p["means"], p["variances"], p["log_priors"])
    )
    # the posterior e^l1 / (e^l0 + e^l1) is the logistic of the log-likelihood gap
    return _sigmoid(l1 - l0)


def _read_gaussian_nb(d, cfg: GaussianNbConfig, n_channels: int):
    names = ("means", "variances", "log_priors")
    means, variances, log_priors = (np.array(d[name], dtype=np.float64) for name in names)
    if means.shape != (2, n_channels) or variances.shape != (2, n_channels) or log_priors.shape != (2,):
        raise DataError(f"gaussian_nb means and variances must be (2, {n_channels}) and log_priors (2,)")
    if not ((variances > 0.0).all() and (log_priors <= 0.0).all()):
        raise DataError("gaussian_nb variances must be > 0 and log_priors <= 0")
    return {"means": means, "variances": variances, "log_priors": log_priors}


# --- k-nearest-neighbours ---------------------------------------------------


def _train_knn(cfg: KnnConfig, x, y, seed):
    if cfg.k > x.shape[0]:
        raise DataError(f"k={cfg.k} exceeds training size {x.shape[0]}")
    # integer labels, so the model file holds 0/1 and not 0.0/1.0
    return {"train_features": x.copy(), "train_labels": y.astype(np.int8)}


def _read_knn(d, cfg: KnnConfig, n_channels: int):
    """kNN's training rows; `k` comes from the config."""
    x = np.array(d["train_features"], dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != n_channels:
        raise DataError(f"knn train_features must be (m, {n_channels})")
    if cfg.k > x.shape[0]:
        raise DataError(f"k={cfg.k} exceeds training size {x.shape[0]}")
    return {"train_features": x, "train_labels": as_labels(d["train_labels"], x.shape[0])}


def _knn_neighbours(train_x, q, k):
    """(b, n_train) mask of the k nearest training rows of each query, a column of q (d, b);
    among tied distances the lower training index wins, as in a stable argsort."""
    d2 = np.zeros((q.shape[1], train_x.shape[0]))
    for j in range(train_x.shape[1]):
        # channel by channel: the additions of a row sum over j, in its order
        d2 += (train_x[:, j] - q[j, :, None]) ** 2
    kth = np.partition(d2, k - 1, axis=1)[:, [k - 1]]
    closer, tied = d2 < kth, d2 == kth
    slots = k - closer.sum(axis=1, keepdims=True)
    return closer | (tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= slots))


def _knn_proba(model, x):
    train_x, positive, k = model.payload["train_features"], model.payload["train_labels"] == 1, model.config.k
    block = max(1, _KNN_BLOCK_ELEMS // train_x.shape[0])
    out = np.empty(x.shape[1])
    for start in range(0, x.shape[1], block):
        nearest = _knn_neighbours(train_x, x[:, start : start + block], k)
        out[start : start + block] = np.count_nonzero(nearest & positive, axis=1) / k
    return out


# --- CART decision tree -----------------------------------------------------


def _best_split(x, y, order, feature_ids, min_leaf, pos, sizes):
    """(feature, threshold, left-child rows, left-child positives) of the
    highest Gini gain over midpoint thresholds, or None. The left child is a
    prefix of the feature's order, and its counts let the grower find a leaf
    child before building that child's order. `order[f]`
    lists the node's rows, `pos` of them positive, by ascending feature f, so
    both children of the m candidates (an int array) are scored in one (2, m, n-1)
    pass; `sizes` starts with 1, 2, ..., n-1. The flat argmax breaks ties to the
    lowest feature id (candidates ascend), then the lowest threshold. Features are finite, so a
    position that is not strictly below the next value is no boundary."""
    n = order.shape[1]
    rows = order[feature_ids]
    sv = x[rows, feature_ids[:, None]]
    cum_pos = y[rows].cumsum(axis=1)
    p1 = pos / n
    gini_parent = 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)
    # [0] left, [1] right child (sizes reversed); each element meets the per-child formula's steps in order
    nl, pl = sizes[: n - 1], cum_pos[:, :-1]
    counts, both = np.empty((2,) + pl.shape), np.empty((2, 1, n - 1))
    counts[0], counts[1] = pl, pos - pl
    both[0, 0], both[1, 0] = nl, nl[::-1]
    gini = 1.0 - (counts / both) ** 2 - ((both - counts) / both) ** 2
    w = (both / n) * gini
    gains = gini_parent - w[0] - w[1]
    gains[sv[:, :-1] >= sv[:, 1:]] = -np.inf
    if min_leaf > 1:
        gains[:, : min_leaf - 1] = -np.inf  # left child under min_leaf rows
        gains[:, n - min_leaf :] = -np.inf  # right child under min_leaf rows
    f, b = divmod(int(gains.argmax()), n - 1)
    if not gains[f, b] > 0.0:
        return None
    lo, hi = float(sv[f, b]), float(sv[f, b + 1])
    mid = (lo + hi) / 2.0
    # a midpoint that rounds onto hi (or overflows) would send every row one way
    return int(feature_ids[f]), mid if lo <= mid < hi else lo, b + 1, int(cum_pos[f, b])


class _Tree(NamedTuple):
    """One CART tree as five equal-length arrays in preorder. Node i sends a row
    with x[feature[i]] <= threshold[i] to node left[i], else to right[i];
    feature -1 marks a leaf, and leaf[i] is the anomalous fraction of the
    training rows that reached leaf i (0 at a split)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf: np.ndarray


def _grow_tree(x, y, order, max_depth, min_leaf, choose_features) -> _Tree:
    """Preorder growth from `order`, the (d, n) presort of the rows, to `max_depth` (0 = unbounded). One mask
    filters every row of a node's order and keeps it sorted, so nodes never sort.
    Any presort serves: a split is scored only where a feature's value changes,
    and the positives up to there do not depend on the order of tied rows.
    A child is tested for a leaf before its order is built, so a leaf gets none."""
    nodes = []  # [feature, threshold, left, right, leaf] per node, in preorder
    sizes = np.arange(1, order.shape[1])  # left-child sizes; each node's split search takes a prefix

    def grow(make_order, n, pos, depth):
        node = [-1, 0.0, -1, -1, pos / n]
        nodes.append(node)
        if pos == 0 or pos == n or n < 2 * min_leaf or 0 < max_depth <= depth:
            return
        order = make_order()
        best = _best_split(x, y, order, choose_features(), min_leaf, pos, sizes)
        if best is None:
            return
        feature, threshold, n_left, pos_left = best
        flat = order.ravel()
        goes_left = x[:, feature][flat] <= threshold  # one take from a column view: cheaper than x[order, feature]
        node[:] = feature, threshold, len(nodes), -1, 0.0  # the left child comes next
        grow(lambda: flat.compress(goes_left).reshape(len(order), -1), n_left, pos_left, depth + 1)
        node[3] = len(nodes)  # the right child follows the left subtree
        grow(lambda: flat.compress(~goes_left).reshape(len(order), -1), n - n_left, pos - pos_left, depth + 1)

    grow(lambda: order, order.shape[1], int(y.sum()), 0)
    return _Tree(*map(np.array, zip(*nodes)))


def _tree_leaves(tree: _Tree, x) -> np.ndarray:
    """Leaf index of every sample, a column of x (d, n). All samples move down
    one level at a time, and a sample goes left when x <= threshold."""
    node = np.zeros(x.shape[1], dtype=np.int64)
    rows = np.arange(x.shape[1])
    while (rows := rows[tree.feature[node[rows]] >= 0]).size:  # samples still at a split
        at = node[rows]
        node[rows] = np.where(x[tree.feature[at], rows] <= tree.threshold[at], tree.left[at], tree.right[at])
    return node


def _tree_proba(model, x):
    tree = model.payload["root"]
    return tree.leaf[_tree_leaves(tree, x)]


def _train_tree(cfg: TreeConfig, x, y, seed):
    all_features = np.arange(x.shape[1])
    order = np.argsort(x.T, axis=1)
    return {"root": _grow_tree(x, y, order, cfg.max_depth, cfg.min_leaf, lambda: all_features)}


def _tree_from_json(d: dict, n_channels: int) -> _Tree:
    """A tree from its JSON arrays. Anything that could send a row anywhere but
    down to one leaf raises DataError: empty or unequal arrays, a feature
    outside [-1, n_channels), a child index not after its parent or past the
    end (so no cycle), or a leaf fraction outside [0, 1]."""
    feature, left, right = (np.array(d[name]) for name in ("feature", "left", "right"))
    threshold, leaf = (np.array(d[name], dtype=np.float64) for name in ("threshold", "leaf"))
    tree = _Tree(feature, threshold, left, right, leaf)
    n = feature.size
    if n == 0 or any(column.shape != (n,) for column in tree):
        raise DataError("tree arrays must be non-empty and of equal length")
    if any(column.dtype.kind != "i" for column in (feature, left, right)):
        raise DataError("tree feature, left and right must hold integers")
    if ((feature < -1) | (feature >= n_channels)).any():
        raise DataError(f"tree feature outside [-1, {n_channels})")
    inner = np.flatnonzero(feature >= 0)
    for child in (left[inner], right[inner]):
        if ((child <= inner) | (child >= n)).any():
            raise DataError("tree child index must come after its parent and inside the tree")
    if not (np.isfinite(threshold).all() and ((leaf >= 0.0) & (leaf <= 1.0)).all()):
        raise DataError("tree thresholds must be finite and leaf fractions in [0, 1]")
    return tree


# --- random forest ----------------------------------------------------------


def _train_single_forest_tree(x, y, cfg: ForestConfig, tree_rng: Rng):
    n, d = x.shape
    m = min(cfg.features_per_split, d)  # the config refuses more than the 7 channels; a narrower library fit clamps
    if cfg.bootstrap:
        idx = tree_rng.randrange(n, n)
        bx, by = x[idx], y[idx]
    else:
        bx, by = x, y
    order = np.argsort(bx.T, axis=1)
    return _grow_tree(bx, by, order, cfg.max_depth, cfg.min_leaf, partial(next, _feature_draws(tree_rng, d, m)))


def _feature_draws(rng: Rng, d: int, m: int):
    """The endless stream of a forest tree's per-split feature subsets, drawn
    `_DRAW_CHUNK` at a time. Draws past the tree's last split are wasted, which
    is harmless: nothing else draws from the tree's `Rng`."""
    while True:
        yield from rng.sample_indices(d, m, _DRAW_CHUNK)


def _train_forest(cfg: ForestConfig, x, y, seed: int):
    trees = [_train_single_forest_tree(x, y, cfg, Rng(derive_seed(seed, t))) for t in range(cfg.n_trees)]
    return {"trees": trees}


def _forest_proba(model, x):
    trees = model.payload["trees"]
    return sum(tree.leaf[_tree_leaves(tree, x)] > 0.5 for tree in trees) / len(trees)


def _read_forest(d, cfg: ForestConfig, n_channels: int):
    if len(d["trees"]) != cfg.n_trees:
        raise DataError(f"forest file holds {len(d['trees'])} trees but its config says {cfg.n_trees}")
    return {"trees": [_tree_from_json(tree, n_channels) for tree in d["trees"]]}


# --- single-hidden-layer perceptron ----------------------------------------


def _mlp_layers(cfg: MlpConfig, d: int) -> list[LayerSpec]:
    return [LayerSpec(d, cfg.hidden_units, "elu"), LayerSpec(cfg.hidden_units, 1, "sigmoid")]


def _train_mlp(cfg: MlpConfig, x, y, seed: int):
    net = init_network(_mlp_layers(cfg, x.shape[1]), seed)

    def grads(net, cache, yb):  # sigmoid + cross-entropy: dL/dz at the output is (p - y)/batch, p the cached output
        return _backprop_from_output_delta(net, cache, (cache[1][-1][1] - yb) / yb.shape[1])

    x = np.ascontiguousarray(x.T)  # channel-major (d, n), the layout of `adam_epochs`
    epochs = adam_epochs(net, x, y.reshape(1, -1), cfg.batch_size, cfg.learning_rate, Rng(derive_seed(seed, 1)), grads)
    if not all(math.isfinite(sq_err_sum) for _, (_, sq_err_sum) in zip(range(cfg.epochs), epochs)):
        raise FitDiverged("mlp fit diverged")  # at the first non-finite epoch: NaN weights never recover
    return {"network": net}


# --- shared surface ---------------------------------------------------------


class _Kind(NamedTuple):
    """How one classifier kind is configured, trains, predicts and reads its payload back."""

    config: type  # the kind's BaselineConfig subclass
    train: Callable  # (cfg, x, y, seed) -> payload dict
    proba: Callable  # (model, channel-major (d, n) x) -> (n,) anomalous-class probabilities
    read: Callable  # (file dict, cfg, n_channels) -> payload dict of a model for n_channels-wide samples


_KINDS = {
    LOGREG: _Kind(LogregConfig, _train_logreg, _network_proba, partial(_read_network, _logreg_layers)),
    GAUSSIAN_NB: _Kind(GaussianNbConfig, _train_gaussian_nb, _gaussian_nb_proba, _read_gaussian_nb),
    KNN: _Kind(KnnConfig, _train_knn, _knn_proba, _read_knn),
    DECISION_TREE: _Kind(TreeConfig, _train_tree, _tree_proba, lambda d, _, n: {"root": _tree_from_json(d["root"], n)}),
    RANDOM_FOREST: _Kind(ForestConfig, _train_forest, _forest_proba, _read_forest),
    MLP: _Kind(MlpConfig, _train_mlp, _network_proba, partial(_read_network, _mlp_layers)),
}
CLASSIFIER_KINDS = tuple(_KINDS)


def train_classifier(cfg: BaselineConfig, train: Dataset, seed: int) -> ClassifierModel:
    """Fit one classifier on scaled, labelled data. Deterministic per seed."""
    y = train.require_labels().astype(np.float64)
    if y.min(initial=1) == y.max(initial=0):
        raise NumericError("training data contains a single class")
    # a diverged fit surfaces once, as FitDiverged or the writer's DomainError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        payload = _KINDS[cfg.kind].train(cfg, train.features, y, seed)
    return ClassifierModel(config=cfg, payload=payload, n_channels=train.features.shape[1])


def predict_proba(model: ClassifierModel, features: np.ndarray) -> np.ndarray:
    """Anomalous-class probability of every row of an (n, d) feature matrix, d
    the model's width; another shape raises ShapeError, a non-finite value DomainError."""
    return _KINDS[model.kind].proba(model, np.ascontiguousarray(as_matrix(features, model.n_channels).T))


def predict(model: ClassifierModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, anomalous-class probabilities) arrays for an (n, d) feature
    matrix: anomalous (1) iff prob > 0.5, so a tie is normal (0)."""
    probs = predict_proba(model, features)
    return (probs > 0.5).astype(np.int8), probs


def stratified_folds(labels: np.ndarray, folds: int, seed: int) -> list[np.ndarray]:
    """Disjoint, exhaustive fold assignment; per-class sizes differ by <= 1.

    Each class's indices are shuffled with a seeded generator and dealt
    round-robin, so the first (n_c mod folds) folds get the extra members.
    """
    if folds < 2:
        raise DomainError("need at least 2 folds")
    fold_of = np.full(len(labels), -1)
    for c in (0, 1):
        idx = np.flatnonzero(labels == c)
        if idx.size < folds:
            raise DataError(f"class {Label(c).name} has {idx.size} members, fewer than {folds} folds")
        Rng(derive_seed(seed, c)).shuffle(idx)
        fold_of[idx] = np.arange(idx.size) % folds
    return [np.flatnonzero(fold_of == f) for f in range(folds)]


def _anomalous_f1(pred: np.ndarray, truth: np.ndarray) -> float:
    # 2tp / (2tp + fp + fn), not `metrics`' 2pr / (p + r): the two round
    # differently, and a rounding flip could change which candidate wins.
    # The denominator is at least the fold's positives, and `stratified_folds` deals each fold one
    cm = confusion(pred, truth)
    tp, fp, fn = cm["tp"], cm["fp"], cm["fn"]
    return 2.0 * tp / (2.0 * tp + fp + fn)


def cross_validate(
    cfg: BaselineConfig, train: Dataset, folds: int = 5, seed: int = 0, *, beat: float = -math.inf
) -> tuple[float, list[float]] | None:
    """Mean anomalous-class F1 over stratified folds (plus per-fold scores); None if a fit diverges.

    Stops before a fold once even 1.0 on every fold left could not lift the mean above `beat`,
    and returns that bound (summed in fold order, so never below the mean) with the scores so far."""
    labels = train.require_labels()
    fold_indices = stratified_folds(labels, folds, seed)
    scores = []
    for f, held_out in enumerate(fold_indices):
        bound = sum(scores + [1.0] * (folds - f)) / folds
        if bound <= beat:
            return bound, scores
        mask = np.ones(train.n, dtype=bool)
        mask[held_out] = False
        fit_set = Dataset(train.features[mask], labels[mask])
        try:
            model = train_classifier(cfg, fit_set, derive_seed(seed, 100 + f))
        except FitDiverged:
            return None
        pred, _ = predict(model, train.features[held_out])
        scores.append(_anomalous_f1(pred, labels[held_out]))
    return sum(scores) / folds, scores


def select_model(
    candidates: list[BaselineConfig], train: Dataset, seed: int, folds: int = 5
) -> tuple[BaselineConfig, ClassifierModel, list[tuple[float, list[float]] | None]]:
    """Pick the candidate with the highest mean CV F1 and refit on all data.

    Also returns each candidate's `cross_validate` result, in candidate order. A
    diverged (None) candidate is never selected; if all diverged, DomainError.
    Ties go to the earliest candidate, so each candidate's `beat` is the best
    mean before it, and one that can at best tie stops with fewer than `folds`
    scores. A single candidate skips CV, and its result list is empty.
    """
    if not candidates:
        raise ConfigError("select_model needs at least one candidate")
    best, scores = candidates[0], []
    if len(candidates) > 1:
        best_mean = -math.inf
        for cfg in candidates:
            scores.append(cross_validate(cfg, train, folds=folds, seed=seed, beat=best_mean))
            if scores[-1] is not None and scores[-1][0] > best_mean:
                best, best_mean = cfg, scores[-1][0]
        if all(result is None for result in scores):
            raise DomainError(f"every {best.kind} candidate diverged")
    return best, train_classifier(best, train, seed), scores


# --- serialization ----------------------------------------------------------


def _to_json(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Network):
        return network_to_dict(value)
    if isinstance(value, _Tree):
        return {name: column.tolist() for name, column in value._asdict().items()}
    return [_to_json(item) for item in value]  # a forest's trees


def model_to_dict(model: ClassifierModel) -> dict:
    return {
        "format_version": CLASSIFIER_FORMAT_VERSION,
        "config": {"kind": model.kind, **asdict(model.config)},
        **{name: _to_json(value) for name, value in model.payload.items()},
    }


def model_from_dict(d: dict, n_channels: int) -> ClassifierModel:
    """The classifier in `d`, which must predict from n_channels-wide samples."""
    if d.get("format_version") != CLASSIFIER_FORMAT_VERSION:
        raise DataError(f"unsupported classifier format version {d.get('format_version')!r}")
    config = dict(d["config"])
    kind = _KINDS[config.pop("kind")]
    if set(config) != (names := {f.name for f in fields(kind.config)}):
        raise DataError(f"{kind.config.kind} config must hold kind and {sorted(names)}, not kind and {sorted(config)}")
    cfg = kind.config(**config)
    return ClassifierModel(config=cfg, payload=kind.read(d, cfg, n_channels), n_channels=n_channels)


def save_model(model: ClassifierModel, path) -> None:
    write_json_artifact(path, model_to_dict(model))


def load_model(path, n_channels: int) -> ClassifierModel:
    return read_json_artifact(path, partial(model_from_dict, n_channels=n_channels))
