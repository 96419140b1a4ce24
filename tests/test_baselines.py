import hashlib
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import aeromon
from aeromon import baselines
from aeromon.autoencoder import LayerSpec, Network, _sigmoid
from aeromon.baselines import (
    DECISION_TREE,
    GAUSSIAN_NB,
    KNN,
    LOGREG,
    MLP,
    CLASSIFIER_FORMAT_VERSION,
    RANDOM_FOREST,
    ClassifierModel,
    ForestConfig,
    GaussianNbConfig,
    KnnConfig,
    LogregConfig,
    MlpConfig,
    TreeConfig,
    cross_validate,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    predict_proba,
    save_model,
    select_model,
    stratified_folds,
    train_classifier,
)
from aeromon.config import default_config
from aeromon.dataset import Dataset, Label, SynthConfig, apply_scaler, fit_scaler, generate_synthetic
from aeromon.errors import ConfigError, DataError, DomainError, NumericError, ShapeError
from aeromon.numerics import Rng, derive_seed


def _ds(features, labels):
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim == 1:
        feats = feats[:, None]
    return Dataset(feats, np.asarray(labels, dtype=np.int8))


def _six_configs():
    """One small, fast configuration of every classifier kind."""
    return [
        LogregConfig(epochs=20, learning_rate=0.1),
        GaussianNbConfig(),
        KnnConfig(k=3),
        TreeConfig(),
        ForestConfig(n_trees=5),
        MlpConfig(epochs=10, batch_size=16, learning_rate=0.01),
    ]


def reference_logreg_gradient(weights, bias, x_cm, y, l2_strength):
    """Gradient of the mean cross-entropy plus (l2/2)*||w||^2 (bias free), in
    closed form, over channel-major samples x_cm (d, n)."""
    p = _sigmoid(weights @ x_cm + bias)
    diff = p - y
    gw = x_cm @ diff / x_cm.shape[1] + l2_strength * weights
    gb = float(diff.mean())
    return gw, gb


def logreg_loss(weights, bias, x_cm, y, l2_strength):
    """Mean cross-entropy plus (l2/2)*||w||^2: the loss `reference_logreg_gradient` differentiates."""
    p = _sigmoid(weights @ x_cm + bias)
    eps = 1e-12
    ce = -np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps))
    return float(ce + 0.5 * l2_strength * float(weights @ weights))


def _blobs(seed, n_per_class, dim=7, separation=3.0):
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for c in (0, 1):
        for _ in range(n_per_class):
            rows.append([rng.normal(c * separation, 1.0) for _ in range(dim)])
            labels.append(c)
    order = list(range(len(rows)))
    rng.shuffle(order)
    feats = np.array(rows)[order]
    return Dataset(feats, np.array(labels, dtype=np.int8)[order])


class TestGaussianNb:
    def test_exact_class_statistics_on_rig(self):
        ds = _ds([0.0] * 5 + [10.0] * 5, [0] * 5 + [1] * 5)
        model = train_classifier(GaussianNbConfig(), ds, seed=0)
        assert model.payload["means"][0][0] == 0.0
        assert model.payload["means"][1][0] == 10.0

    def test_query_near_anomalous_mean(self):
        # two point-mass Gaussians at 0 and 10 (floored variance); the
        # likelihood ratio at x=9 is overwhelmingly anomalous
        ds = _ds([0.0] * 5 + [10.0] * 5, [0] * 5 + [1] * 5)
        model = train_classifier(GaussianNbConfig(), ds, seed=0)
        labels, probs = predict(model, np.array([[9.0]]))
        assert labels.tolist() == [Label.ANOMALOUS]
        assert probs[0] > 0.99

    def test_priors_reflect_imbalance(self):
        ds = _ds([0.0] * 9 + [10.0], [0] * 9 + [1])
        model = train_classifier(GaussianNbConfig(), ds, seed=0)
        assert model.payload["log_priors"][0] == pytest.approx(np.log(0.9))

    @pytest.mark.invariant
    def test_posterior_equals_max_shifted_softmax(self):
        """The posterior is the logistic of the log-likelihood gap, bit for bit
        the two-class softmax shifted by the larger log-likelihood, also at gaps
        of +-800 where an unshifted exp would overflow."""
        rng = np.random.default_rng(29)
        means, variances = rng.normal(size=(2, 2)), rng.uniform(0.5, 2.0, size=(2, 2))
        x = np.vstack([rng.normal(scale=3.0, size=(200, 2)), [[0.0, 0.0]]])
        for shift in (0.0, 800.0, -800.0):
            log_priors = np.log([0.6, 0.4]) + [0.0, shift]
            payload = {"means": means, "variances": variances, "log_priors": log_priors}
            model = ClassifierModel(config=GaussianNbConfig(), payload=payload, n_channels=2)
            l0, l1 = (
                -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var).sum(axis=1) + prior
                for mean, var, prior in zip(means, variances, log_priors)
            )
            top = np.maximum(l0, l1)
            e0, e1 = np.exp(l0 - top), np.exp(l1 - top)
            assert predict_proba(model, x).tobytes() == (e1 / (e0 + e1)).tobytes()


class TestLogReg:
    @pytest.mark.parametrize("l2", [math.nan, math.inf, -math.inf])
    def test_non_finite_l2_strength_rejected(self, l2):
        with pytest.raises(DomainError, match="^l2_strength must be >= 0 and finite$"):
            LogregConfig(l2_strength=l2)

    def test_zero_weight_model_is_tied_normal(self):
        model = ClassifierModel(
            config=LogregConfig(),
            payload={"network": Network(np.zeros(4), [LayerSpec(3, 1, "sigmoid")])},
            n_channels=3,
        )
        labels, probs = predict(model, np.zeros((1, 3)))
        assert probs.tolist() == [0.5]
        assert labels.tolist() == [Label.NORMAL]

    def test_learns_separable_data(self):
        ds = _blobs(3, 60, dim=3)
        model = train_classifier(LogregConfig(learning_rate=0.5, epochs=400), ds, seed=0)
        pred = (predict_proba(model, ds.features) > 0.5).astype(int)
        assert (pred == ds.labels).mean() > 0.95

    @pytest.mark.invariant
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        x = np.array([[rng.normal() for _ in range(4)] for _ in range(30)]).T  # channel-major (4, 30)
        y = np.array([1.0 if rng.random() < 0.5 else 0.0 for _ in range(30)])
        for lam in (0.0, 0.1):
            w = np.array([rng.normal() for _ in range(4)])
            b = rng.normal()
            gw, gb = reference_logreg_gradient(w, b, x, y, lam)
            h = 1e-6
            for i in range(4):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd = (logreg_loss(wp, b, x, y, lam) - logreg_loss(wm, b, x, y, lam)) / (2 * h)
                assert abs(gw[i] - fd) / max(abs(fd), 1e-6) < 1e-4
            fd_b = (logreg_loss(w, b + h, x, y, lam) - logreg_loss(w, b - h, x, y, lam)) / (2 * h)
            assert abs(gb - fd_b) / max(abs(fd_b), 1e-6) < 1e-4

    @pytest.mark.invariant
    def test_network_fit_equals_closed_form_descent(self):
        """Training through the network's forward and backprop takes the same
        steps, bit for bit, as descent on the closed-form gradient."""
        ds = _blobs(43, 40, dim=5, separation=1.0)
        y = ds.labels.astype(np.float64)
        x_cm = np.ascontiguousarray(ds.features.T)
        for lam in (0.0, 0.1):
            cfg = LogregConfig(l2_strength=lam, learning_rate=0.3, epochs=60)
            w, b = np.zeros(5), 0.0
            for _ in range(cfg.epochs):
                gw, gb = reference_logreg_gradient(w, b, x_cm, y, lam)
                w -= cfg.learning_rate * gw
                b -= cfg.learning_rate * gb
            params = train_classifier(cfg, ds, seed=0).payload["network"].params
            assert params.tobytes() == np.append(w, b).tobytes()


def _scaled_telemetry(n, seed):
    ds = generate_synthetic(SynthConfig(n_samples=n, seed=seed))
    return apply_scaler(fit_scaler(ds), ds)


class TestLogRegDivergence:
    """At the default learning rate 2, `l2` 1 flips the weights' sign every
    step and its objective climbs from log 2 to inf; `l2` 0.1 rises on ~46
    epochs but never above its start, so it must stay a candidate."""

    def test_diverged_candidate_is_never_selected(self):
        # every row called anomalous gives l2=1 a higher CV F1 than l2=0.1 has
        candidates = [LogregConfig(l2_strength=lam, learning_rate=2.0, epochs=600) for lam in (0.1, 1.0)]
        best, model, scores = select_model(candidates, _scaled_telemetry(600, 13), seed=4)
        assert scores[0] is not None and scores[1] is None
        assert best == candidates[0] and model.config == candidates[0]

    def test_every_candidate_diverged_is_domain_error(self):
        ds = _scaled_telemetry(600, 13)
        candidates = [LogregConfig(l2_strength=1.0, learning_rate=lr, epochs=600) for lr in (2.0, 1e300)]
        with pytest.raises(DomainError, match="every logreg candidate diverged"):
            select_model(candidates, ds, seed=4)
        with pytest.raises(DomainError, match="logreg fit diverged"):
            train_classifier(candidates[0], ds, seed=4)

    def test_other_fit_errors_propagate(self, monkeypatch):
        def refuse(cfg, x, y, seed):
            raise DomainError("not a divergence")

        monkeypatch.setitem(baselines._KINDS, LOGREG, baselines._KINDS[LOGREG]._replace(train=refuse))
        candidates = [LogregConfig(l2_strength=lam) for lam in (0.0, 1.0)]
        with pytest.raises(DomainError, match="not a divergence"):
            select_model(candidates, _scaled_telemetry(600, 13), seed=4)


def _brute_force_knn(train_x, train_y, k, query):
    """All-pairs scan with the documented tie rule: distance, then index."""
    scored = []
    for i, row in enumerate(train_x):
        d2 = sum((a - b) ** 2 for a, b in zip(row, query))
        scored.append((d2, i))
    scored.sort()
    picked = [train_y[i] for _, i in scored[:k]]
    return sum(picked) / k


class TestKnn:
    def test_single_neighbour_rig(self):
        ds = _ds([0.0, 1.0], [0, 1])
        model = train_classifier(KnnConfig(k=1), ds, seed=0)
        labels, probs = predict(model, np.array([[0.1]]))
        assert labels.tolist() == [Label.NORMAL]
        assert probs.tolist() == [0.0]

    @pytest.mark.invariant
    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(17)
        n = 200
        feats = np.array([[round(rng.uniform(0, 4)) / 2.0 for _ in range(3)] for _ in range(n)])
        labels = np.array([1 if rng.random() < 0.4 else 0 for _ in range(n)], dtype=np.int8)
        ds = Dataset(feats, labels)
        for k in (1, 3, 5):
            model = train_classifier(KnnConfig(k=k), ds, seed=0)
            for _ in range(40):
                q = np.array([round(rng.uniform(0, 4)) / 2.0 for _ in range(3)])
                prob = predict(model, q[None])[1][0]
                # quantized features force frequent exact distance ties
                assert prob == _brute_force_knn(feats, labels.astype(float), k, q)

    @pytest.mark.invariant
    def test_neighbour_sets_match_stable_argsort(self, monkeypatch):
        # 64 test rows per block against 150 training rows: the 150 queries span three scoring blocks
        monkeypatch.setattr(baselines, "_KNN_BLOCK_ELEMS", 64 * 150)
        rng = np.random.default_rng(23)
        # three levels per feature: 27 distinct points, so most distances tie
        train_x = np.array([[round(rng.uniform(0, 2)) / 2.0 for _ in range(3)] for _ in range(150)])
        train_y = np.array([1 if rng.random() < 0.4 else 0 for _ in range(150)], dtype=np.int8)
        queries = np.array([[round(rng.uniform(0, 2)) / 2.0 for _ in range(3)] for _ in range(150)])
        for k in (1, 3, 7):
            mask = baselines._knn_neighbours(train_x, queries.T, k)
            want = []
            for q, row in zip(queries, mask):
                nearest = np.argsort(((train_x - q) ** 2).sum(axis=1), kind="stable")[:k]
                assert np.flatnonzero(row).tolist() == sorted(nearest.tolist())
                want.append(train_y[nearest].mean())
            model = train_classifier(KnnConfig(k=k), Dataset(train_x, train_y), seed=0)
            assert predict_proba(model, queries).tolist() == want

    def test_model_file_holds_integer_labels(self):
        model = train_classifier(KnnConfig(k=3), _blobs(77, 10), seed=0)
        labels = model_to_dict(model)["train_labels"]
        assert sorted(set(labels)) == [0, 1] and all(type(v) is int for v in labels)

    def test_k_above_training_size_rejected(self):
        six_rows = _ds([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0, 0, 0, 1, 1, 1])
        with pytest.raises(DataError, match="exceeds training size"):
            train_classifier(KnnConfig(k=7), six_rows, seed=0)

    def test_even_k_rejected(self):
        with pytest.raises(DomainError):
            KnnConfig(k=4)


def _reference_tree(x, y, max_depth=0, min_leaf=1, depth=0):
    """Independent exhaustive-split CART: pure-python loops, same tie rules; max_depth 0 = unbounded."""
    n = len(y)
    pos = sum(y)
    if pos == 0 or pos == n or n < 2 * min_leaf or (max_depth > 0 and depth >= max_depth):
        return ("leaf", pos / n)
    best = None
    for f in range(x.shape[1]):
        values = sorted(set(x[:, f]))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            left = [y[i] for i in range(n) if x[i, f] <= thr]
            right = [y[i] for i in range(n) if x[i, f] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue

            def gini(part):
                if not part:
                    return 0.0
                p = sum(part) / len(part)
                return 1.0 - p * p - (1.0 - p) * (1.0 - p)

            p_all = pos / n
            gain = (1.0 - p_all**2 - (1.0 - p_all) ** 2) - (len(left) / n) * gini(left) - (
                len(right) / n
            ) * gini(right)
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, f, thr)
    if best is None:
        return ("leaf", pos / n)
    _, f, thr = best
    mask = x[:, f] <= thr
    return (
        "node",
        f,
        thr,
        _reference_tree(x[mask], [y[i] for i in range(n) if mask[i]], max_depth, min_leaf, depth + 1),
        _reference_tree(x[~mask], [y[i] for i in range(n) if not mask[i]], max_depth, min_leaf, depth + 1),
    )


def _reference_predict(tree, row):
    while tree[0] == "node":
        _, f, thr, left, right = tree
        tree = left if row[f] <= thr else right
    return tree[1]


def per_node_sort_best_split(x, y, feature_ids, min_leaf):
    """Reference split search: a stable argsort of every candidate feature at
    every node, scanned feature by feature (lowest id, then lowest threshold)."""
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


def per_node_sort_grow_tree(x, y, depth, max_depth, min_leaf, choose_features):
    """Reference grower: copies the node's rows into each child and re-sorts
    there, and returns the tree as nested dicts; max_depth 0 = unbounded."""
    n = y.size
    pos = int(y.sum())
    if pos == 0 or pos == n or n < 2 * min_leaf or (max_depth > 0 and depth >= max_depth):
        return {"leaf": pos / n}
    best = per_node_sort_best_split(x, y, choose_features(), min_leaf)
    if best is None:
        return {"leaf": pos / n}
    _, feature, threshold = best
    mask = x[:, feature] <= threshold
    return {
        "feature": feature,
        "threshold": threshold,
        "left": per_node_sort_grow_tree(x[mask], y[mask], depth + 1, max_depth, min_leaf, choose_features),
        "right": per_node_sort_grow_tree(x[~mask], y[~mask], depth + 1, max_depth, min_leaf, choose_features),
    }


def _tie_heavy_rig(seed, n=150, dim=7):
    """Features rounded to tenths (many ties); feature 3 is constant."""
    rng = np.random.default_rng(seed)
    x = np.array([[round(rng.uniform(0, 1), 1) for _ in range(dim)] for _ in range(n)])
    x[:, 3] = 0.5
    y = [int((v[0] + v[1] > 1.0) != (rng.random() < 0.15)) for v in x]
    return Dataset(x, np.array(y, dtype=np.int8))


def _zero_gain_rig():
    """Feature 2 splits off a pure block; the other child is an XOR square
    (duplicated), where every split gains exactly 0."""
    xor = [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]] * 2
    x = np.array(xor + [[0.5, 0.5, 1.0]] * 5)
    return Dataset(x, np.array([0, 1, 1, 0] * 2 + [1] * 5, dtype=np.int8))


def nested_tree(tree, i=0):
    """The flat preorder arrays of a tree as nested dicts, from node i down."""
    if tree.feature[i] < 0:
        return {"leaf": float(tree.leaf[i])}
    return {
        "feature": int(tree.feature[i]),
        "threshold": float(tree.threshold[i]),
        "left": nested_tree(tree, tree.left[i]),
        "right": nested_tree(tree, tree.right[i]),
    }


def nested_leaf_prob(node, row):
    """Scoring oracle: one row walked down one nested-dict tree."""
    while "feature" in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node["leaf"]


def _leaf_sizes(tree, x):
    return np.bincount(baselines._tree_leaves(tree, x.T), minlength=tree.feature.size)


class TestPresortedGrowerOracle:
    """Every tree equals, as a nested dict, the tree the per-node-sort
    reference grows from the same rows and the same feature draws."""

    def _assert_matches_reference(self, monkeypatch, cfg, ds, seed):
        payload = train_classifier(cfg, ds, seed).payload
        got = {name: nested_tree(t) if name == "root" else list(map(nested_tree, t)) for name, t in payload.items()}
        with monkeypatch.context() as patch:
            patch.setattr(baselines, "_grow_tree", lambda x, y, order, *rest: per_node_sort_grow_tree(x, y, 0, *rest))
            want = train_classifier(cfg, ds, seed).payload
        assert got == want
        return payload

    @pytest.mark.invariant
    @pytest.mark.parametrize("growth", [{}, {"min_leaf": 3}, {"max_depth": 4}])
    def test_decision_tree(self, monkeypatch, growth):
        for seed in (1, 2):
            self._assert_matches_reference(monkeypatch, TreeConfig(**growth), _tie_heavy_rig(seed), 0)

    @pytest.mark.invariant
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("features_per_split", [1, 2, 3, 7])
    @pytest.mark.parametrize("growth", [{}, {"min_leaf": 3}, {"max_depth": 4}])
    def test_random_forest(self, monkeypatch, bootstrap, features_per_split, growth):
        cfg = ForestConfig(n_trees=4, features_per_split=features_per_split, bootstrap=bootstrap, **growth)
        self._assert_matches_reference(monkeypatch, cfg, _tie_heavy_rig(3), 11)

    @pytest.mark.invariant
    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("features_per_split", [1, 3, 7])
    def test_random_forest_on_scaled_telemetry(self, monkeypatch, features_per_split, min_leaf):
        """Scaled telemetry has few exact ties but many gains that differ in
        the last bits, which a change in the order of the Gini arithmetic
        would flip."""
        cfg = ForestConfig(n_trees=10, features_per_split=features_per_split, min_leaf=min_leaf)
        self._assert_matches_reference(monkeypatch, cfg, _scaled_telemetry(600, 13), 11)

    def test_zero_gain_node_is_a_leaf(self, monkeypatch):
        ds = _zero_gain_rig()
        tree = self._assert_matches_reference(monkeypatch, TreeConfig(), ds, 0)["root"]
        assert tree.feature[0] == 2
        leaves = np.flatnonzero(tree.feature < 0)
        assert (0.5, 8) in zip(tree.leaf[leaves].tolist(), _leaf_sizes(tree, ds.features)[leaves].tolist())


class TestForestDrawOrder:
    """Every forest tree equals, array for array, the tree grown from the same
    bootstrap with one `permutation` draw per split, in preorder. The grower
    oracle above feeds both of its sides one chooser, so only this test sees
    the order in which the chunked draws reach the splits."""

    @pytest.mark.invariant
    @pytest.mark.parametrize("chunk", [1, 4, baselines._DRAW_CHUNK])
    @pytest.mark.parametrize("features_per_split", [2, 3])
    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_equals_per_split_permutation_draws(self, monkeypatch, chunk, features_per_split, bootstrap):
        monkeypatch.setattr(baselines, "_DRAW_CHUNK", chunk)
        cfg = ForestConfig(n_trees=5, features_per_split=features_per_split, bootstrap=bootstrap)
        ds = _tie_heavy_rig(6)
        x, y, n = ds.features, ds.labels, ds.n
        got = baselines._train_forest(cfg, x, y, 5)["trees"]
        for t, tree in enumerate(got):
            rng = Rng(derive_seed(5, t))
            idx = rng.randrange(n, n) if bootstrap else np.arange(n)
            order = np.argsort(x[idx], axis=0, kind="stable").T
            want = baselines._grow_tree(
                x[idx], y[idx], order, 0, 1, lambda: np.sort(rng.permutation(7)[:features_per_split])
            )
            assert (tree.feature >= 0).sum() > 4  # enough splits to span several chunks of 4
            for column, expected in zip(tree, want):
                assert column.dtype == expected.dtype and np.array_equal(column, expected)


def _tie_tree_digest():
    """sha256 of the arrays of a decision tree and a 20-tree forest grown on 2000 tie-heavy rows."""
    ds, digest = _tie_heavy_rig(8, n=2000), hashlib.sha256()
    for cfg in (TreeConfig(), ForestConfig(n_trees=20)):
        payload = train_classifier(cfg, ds, seed=3).payload
        for tree in payload.get("trees", [payload.get("root")]):
            for column in tree:
                digest.update(column.tobytes())
    return digest.hexdigest()


# two x86-64 levels, named as numpy names their features: numpy 2.4 dispatches on
# the X86_V* groups, older numpy on single features
_SSE42_LEVEL = {"SSE", "SSE2", "SSE3", "SSSE3", "SSE41", "POPCNT", "SSE42", "X86_V2"}
_CPU_LEVELS = {
    "SSE42": _SSE42_LEVEL,
    "AVX2": _SSE42_LEVEL | {"AVX", "F16C", "FMA3", "AVX2", "BMI", "BMI2", "LZCNT", "MOVBE", "X86_V3"},
}
_CHILD_DIGEST = (
    "from numpy._core._multiarray_umath import __cpu_features__\n"
    "from test_baselines import _tie_tree_digest\n"
    "print(_tie_tree_digest(), *sorted(name for name, on in __cpu_features__.items() if on))\n"
)


class TestPresortTieOrder:
    """A grown tree does not depend on the order of tied rows in its presort:
    a split is scored only where a feature's value changes, and the positives
    up to there are the same in any order of the rows tied below it."""

    @pytest.mark.invariant
    @pytest.mark.parametrize("growth", [{}, {"min_leaf": 3}, {"max_depth": 4}])
    def test_stable_default_and_reversed_ties_grow_one_tree(self, growth):
        ds = _tie_heavy_rig(9, n=400)
        idx = Rng(5).randrange(ds.n, ds.n)
        x, y = ds.features[idx], ds.labels[idx]
        stable = np.argsort(x, axis=0, kind="stable").T
        reversed_ties = np.array([np.lexsort((-np.arange(ds.n), column)) for column in x.T])
        assert not np.array_equal(stable, reversed_ties)  # the bootstrap duplicates rows, so ties abound
        max_depth, min_leaf = growth.get("max_depth", 0), growth.get("min_leaf", 1)
        trees = [
            baselines._grow_tree(x, y, order, max_depth, min_leaf, lambda: np.arange(7))
            for order in (stable, np.argsort(x.T, axis=1), reversed_ties)
        ]
        assert (trees[0].feature >= 0).sum() > 5
        for tree in trees[1:]:
            for column, expected in zip(tree, trees[0]):
                assert column.dtype == expected.dtype and np.array_equal(column, expected)

    @pytest.mark.parametrize("level", sorted(_CPU_LEVELS))
    def test_same_trees_under_restricted_cpu_dispatch(self, level):
        """numpy's default sort is a SIMD sort whose tie order depends on the
        instructions it dispatches to; the trees must not."""
        if platform.machine().lower() not in ("x86_64", "amd64"):
            pytest.skip("the CPU levels are x86-64 ones")
        if not __cpu_features__.get(level):
            pytest.skip(f"this CPU lacks {level}")
        names = sorted(name for name in _CPU_LEVELS[level] if __cpu_features__.get(name))
        tests, src = Path(__file__).parent, Path(aeromon.__file__).resolve().parents[1]
        env = {**os.environ, "NPY_ENABLE_CPU_FEATURES": " ".join(names)}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), str(tests), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _CHILD_DIGEST], capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        digest, *enabled = proc.stdout.split()
        # the child dispatches to every target of the level this CPU has, and to none above it
        assert set(__cpu_dispatch__) & set(enabled) == set(__cpu_dispatch__) & set(names)
        assert digest == _tie_tree_digest()


class TestTreeScoringOracle:
    """predict_proba of both tree kinds equals, bit for bit, a walk of each row
    down the nested-dict trees, also for rows that sit exactly on a threshold."""

    @pytest.mark.invariant
    @pytest.mark.parametrize("cfg", [TreeConfig(), ForestConfig(n_trees=9)])
    def test_equals_nested_walk(self, cfg):
        ds = _tie_heavy_rig(4)
        model = train_classifier(cfg, ds, seed=2)
        trees = [model.payload["root"]] if cfg.kind == DECISION_TREE else model.payload["trees"]
        on_threshold = []
        for tree in trees:
            for i in np.flatnonzero(tree.feature >= 0):
                row = ds.features[i % ds.n].copy()
                row[tree.feature[i]] = tree.threshold[i]
                on_threshold.append(row)
        queries = np.vstack([ds.features, _tie_heavy_rig(5).features, on_threshold])
        nested = [nested_tree(tree) for tree in trees]
        if cfg.kind == DECISION_TREE:
            want = [nested_leaf_prob(nested[0], row) for row in queries]
        else:
            votes = np.zeros(len(queries))
            for node in nested:
                votes += np.array([1.0 if nested_leaf_prob(node, row) > 0.5 else 0.0 for row in queries])
            want = (votes / len(nested)).tolist()
        assert predict_proba(model, queries).tolist() == want


class TestDecisionTree:
    def test_one_dimensional_separable(self):
        ds = _ds([0.1, 0.2, 0.3, 0.7, 0.8, 0.9], [0, 0, 0, 1, 1, 1])
        model = train_classifier(TreeConfig(), ds, seed=0)
        assert nested_tree(model.payload["root"]) == {
            "feature": 0,
            "threshold": 0.5,
            "left": {"leaf": 0.0},
            "right": {"leaf": 1.0},
        }
        pred = (predict_proba(model, ds.features) > 0.5).astype(int)
        assert (pred == ds.labels).all()

    @pytest.mark.invariant
    def test_matches_exhaustive_reference_1d_and_2d(self):
        rng = np.random.default_rng(59)
        # 1-d toy with duplicated values, 2-d toy with interacting features
        sets = []
        x1 = np.array([[round(rng.uniform(0, 3), 1)] for _ in range(40)])
        y1 = [1 if v[0] > 1.4 and rng.random() > 0.1 else 0 for v in x1]
        sets.append((x1, y1))
        x2 = np.array([[round(rng.uniform(0, 2), 1), round(rng.uniform(0, 2), 1)] for _ in range(60)])
        y2 = [1 if (v[0] > 1.0) != (v[1] > 1.0) else 0 for v in x2]
        sets.append((x2, y2))
        for x, y in sets:
            ds = Dataset(x, np.array(y, dtype=np.int8))
            model = train_classifier(TreeConfig(), ds, seed=0)
            reference = _reference_tree(x, list(map(int, y)))
            for row in x:
                mine = predict_proba(model, row[None, :])[0]
                assert mine == _reference_predict(reference, row)

    def test_max_depth_and_min_leaf_respected(self):
        ds = _blobs(5, 50, dim=2, separation=1.0)
        model = train_classifier(TreeConfig(max_depth=2, min_leaf=5), ds, seed=0)
        tree = model.payload["root"]
        depth = np.zeros(tree.feature.size, dtype=int)
        for i in np.flatnonzero(tree.feature >= 0):  # preorder: a parent precedes its children
            depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
        leaves = tree.feature < 0
        assert (_leaf_sizes(tree, ds.features)[leaves] >= 5).all()
        assert (depth[leaves] <= 2).all() and depth.max() == 2

    _ONE_ABOVE_ONE = float(np.nextafter(1.0, 2.0))

    @pytest.mark.parametrize(
        "a, b",
        [(_ONE_ABOVE_ONE, float(np.nextafter(_ONE_ABOVE_ONE, 2.0))), (-1.7e308, -1.6e308), (1.6e308, 1.7e308)],
        ids=["adjacent_doubles", "sum_overflows_low", "sum_overflows_high"],
    )
    def test_split_whose_midpoint_is_not_between_the_values(self, a, b):
        """(a + b) / 2 rounds onto b for adjacent doubles and overflows near the
        largest double; the threshold is then a, and the split still separates."""
        ds = _ds([a, a, b, b], [0, 0, 1, 1])
        model = train_classifier(TreeConfig(), ds, seed=0)
        tree = model.payload["root"]
        assert tree.feature.size == 3 and tree.threshold[0] == a
        assert predict(model, ds.features)[0].tolist() == [0, 0, 1, 1]


class TestRandomForest:
    def test_deterministic_ensemble(self):
        ds = _blobs(7, 40, dim=4)
        cfg = ForestConfig(n_trees=11, features_per_split=2)
        a = train_classifier(cfg, ds, seed=5)
        b = train_classifier(cfg, ds, seed=5)
        assert model_to_dict(a) == model_to_dict(b)
        assert np.array_equal(predict_proba(a, ds.features), predict_proba(b, ds.features))
        c = train_classifier(cfg, ds, seed=6)
        assert model_to_dict(a)["trees"] != model_to_dict(c)["trees"]

    @pytest.mark.invariant
    def test_single_full_tree_reduces_to_plain_cart(self):
        for seed in (1, 2):
            ds = _blobs(30 + seed, 30, dim=3, separation=1.5)
            forest_cfg = ForestConfig(n_trees=1, features_per_split=3, bootstrap=False)
            tree_cfg = TreeConfig()
            forest = train_classifier(forest_cfg, ds, seed=seed)
            tree = train_classifier(tree_cfg, ds, seed=seed)
            queries = np.vstack([ds.features, _blobs(99, 20, dim=3).features])
            forest_labels = predict_proba(forest, queries) > 0.5
            tree_labels = predict_proba(tree, queries) > 0.5
            assert np.array_equal(forest_labels, tree_labels)

    def test_separates_blobs(self):
        ds = _blobs(13, 80)
        model = train_classifier(ForestConfig(n_trees=25), ds, seed=1)
        pred = (predict_proba(model, ds.features) > 0.5).astype(int)
        assert (pred == ds.labels).mean() > 0.97


class TestMlp:
    def test_learns_separable_data(self):
        ds = _blobs(21, 80, dim=4, separation=2.5)
        cfg = MlpConfig(learning_rate=0.01, epochs=150, hidden_units=8, batch_size=32)
        model = train_classifier(cfg, ds, seed=2)
        pred = (predict_proba(model, ds.features) > 0.5).astype(int)
        assert (pred == ds.labels).mean() > 0.95

    def test_deterministic(self):
        ds = _blobs(22, 30, dim=3)
        cfg = MlpConfig(epochs=20, learning_rate=0.01, batch_size=16)
        a = train_classifier(cfg, ds, seed=9)
        b = train_classifier(cfg, ds, seed=9)
        assert np.array_equal(predict_proba(a, ds.features), predict_proba(b, ds.features))


class TestSharedContracts:
    @pytest.mark.invariant
    def test_probabilities_bounded_and_consistent_with_labels(self):
        train_ds = _blobs(31, 60)
        test_ds = _blobs(32, 40)
        configs = [
            LogregConfig(epochs=80, learning_rate=0.1),
            GaussianNbConfig(),
            KnnConfig(k=5),
            TreeConfig(),
            ForestConfig(n_trees=15),
            MlpConfig(epochs=30, batch_size=32, learning_rate=0.01),
        ]
        for cfg in configs:
            model = train_classifier(cfg, train_ds, seed=0)
            labels, probs = predict(model, test_ds.features)
            assert ((probs >= 0.0) & (probs <= 1.0)).all()
            assert np.array_equal(labels == Label.ANOMALOUS, probs > 0.5)

    def test_matrix_predict_matches_row_predict(self):
        train_ds = _blobs(34, 30)
        test_ds = _blobs(35, 15)
        for cfg in _six_configs():
            model = train_classifier(cfg, train_ds, seed=0)
            labels, probs = predict(model, test_ds.features)
            assert np.array_equal(probs, predict_proba(model, test_ds.features))
            assert np.array_equal(labels, (probs > 0.5).astype(np.int8))
            for row, label, prob in zip(test_ds.features, labels, probs):
                one_labels, one_probs = predict(model, row[None])
                assert one_labels.tolist() == [label]
                assert one_probs[0] == prob, cfg.kind  # bit for bit, whatever the batch
            reordered = test_ds.features[::-1][:7]
            assert np.array_equal(predict_proba(model, reordered), probs[::-1][:7]), cfg.kind

    @pytest.mark.invariant
    @pytest.mark.parametrize(
        "cfg",
        [LogregConfig(epochs=40, learning_rate=0.1), MlpConfig(epochs=5, batch_size=16, learning_rate=0.01)],
        ids=[LOGREG, MLP],
    )
    def test_network_fit_reads_a_fortran_order_matrix_as_its_copy(self, cfg):
        # a network fit transposes its (n, d) matrix into one channel-major copy, whatever the matrix's memory order
        ds = _blobs(37, 40)
        y = ds.labels.astype(np.float64)
        fortran = np.asfortranarray(ds.features)
        assert not fortran.flags.c_contiguous
        fit = baselines._KINDS[cfg.kind].train
        want = fit(cfg, np.ascontiguousarray(fortran), y, 3)["network"].params.tobytes()
        assert fit(cfg, fortran, y, 3)["network"].params.tobytes() == want

    def test_non_finite_features_rejected(self):
        train_ds = _blobs(33, 20)
        configs = [
            LogregConfig(epochs=10, learning_rate=0.1),
            GaussianNbConfig(),
            KnnConfig(k=3),
            TreeConfig(),
            ForestConfig(n_trees=3),
            MlpConfig(epochs=2, batch_size=16, learning_rate=0.1),
        ]
        for cfg in configs:
            model = train_classifier(cfg, train_ds, seed=0)
            for bad in (np.nan, np.inf, -np.inf):
                row = train_ds.features[0].copy()
                row[2] = bad
                batch = train_ds.features[:5].copy()
                batch[4, 6] = bad
                for fn, x in ((predict, row[None]), (predict, np.full((1, 7), bad)), (predict_proba, batch)):
                    with pytest.raises(DomainError):
                        fn(model, x)

    def test_one_sample_vector_rejected(self):
        train_ds = _blobs(36, 20)
        for cfg in _six_configs():
            model = train_classifier(cfg, train_ds, seed=0)
            for fn in (predict, predict_proba):
                with pytest.raises(ShapeError):
                    fn(model, train_ds.features[0])

    def test_single_class_rejected(self):
        ds = _ds([1.0, 2.0, 3.0], [0, 0, 0])
        with pytest.raises(NumericError, match="training data contains a single class"):
            train_classifier(GaussianNbConfig(), ds, seed=0)


class TestCrossValidation:
    @pytest.mark.parametrize("folds", [1, 0])
    def test_fewer_than_two_folds_rejected(self, folds):
        with pytest.raises(DomainError, match="^need at least 2 folds$"):
            stratified_folds(_blobs(44, 10).labels, folds, seed=0)

    def test_exact_stratification_10_10(self):
        ds = _blobs(41, 10)
        folds = stratified_folds(ds.labels, 5, seed=1)
        for fold in folds:
            assert fold.size == 4
            assert int(ds.labels[fold].sum()) == 2

    @pytest.mark.invariant
    def test_folds_disjoint_exhaustive_balanced(self):
        ds = _blobs(42, 33)
        folds = stratified_folds(ds.labels, 5, seed=3)
        all_idx = np.concatenate(folds)
        assert len(all_idx) == ds.n
        assert len(set(all_idx.tolist())) == ds.n
        per_class = {c: [int((ds.labels[f] == c).sum()) for f in folds] for c in (0, 1)}
        for counts in per_class.values():
            assert max(counts) - min(counts) <= 1

    def test_folds_deal_each_shuffled_class_round_robin(self):
        labels = _blobs(43, 23).labels
        expected = [[] for _ in range(4)]
        for c in (0, 1):
            idx = np.flatnonzero(labels == c)
            idx = idx[Rng(derive_seed(9, c)).permutation(idx.size)]
            for f in range(4):
                expected[f] += idx[f::4].tolist()
        assert [fold.tolist() for fold in stratified_folds(labels, 4, seed=9)] == [sorted(e) for e in expected]

    def test_perfectly_separable_tree_scores_one(self):
        # exhaustive check first: a single threshold separates the classes
        values = [0.1, 0.2, 0.3, 0.35, 0.4] * 4 + [0.7, 0.8, 0.85, 0.9, 0.95] * 4
        labels = [0] * 20 + [1] * 20
        assert max(v for v, l in zip(values, labels) if l == 0) < min(
            v for v, l in zip(values, labels) if l == 1
        )
        ds = _ds(values, labels)
        mean_f1, per_fold = cross_validate(TreeConfig(), ds, folds=5, seed=2)
        assert mean_f1 == 1.0
        assert per_fold == [1.0] * 5

    def test_deterministic(self):
        ds = _blobs(43, 25, separation=1.0)
        a = cross_validate(KnnConfig(k=3), ds, folds=5, seed=4)
        b = cross_validate(KnnConfig(k=3), ds, folds=5, seed=4)
        assert a == b

    def test_small_class_rejected(self):
        ds = _ds([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0, 0, 0, 0, 1, 1])
        with pytest.raises(DataError, match="class NORMAL has 4 members, fewer than 5 folds"):
            cross_validate(KnnConfig(k=1), ds, folds=5, seed=0)


def _noisy_blobs():
    # overlapping blobs with label noise: k=1 memorizes noise, k=5 smooths
    rng = np.random.default_rng(61)
    rows, labels = [], []
    for c in (0, 1):
        for _ in range(150):
            rows.append([rng.normal(c * 1.2, 1.0) for _ in range(2)])
            labels.append(c if rng.random() > 0.15 else 1 - c)
    return Dataset(np.array(rows), np.array(labels, dtype=np.int8))


def _count_fits(monkeypatch):
    fits = []
    fit = baselines.train_classifier
    monkeypatch.setattr(baselines, "train_classifier", lambda *a, **kw: fits.append(1) or fit(*a, **kw))
    return fits


class TestSelectModel:
    def test_single_candidate_refit(self):
        ds = _blobs(51, 20)
        cfg = GaussianNbConfig()
        best, model, scores = select_model([cfg], ds, seed=0)
        assert best is cfg
        assert model.kind == GAUSSIAN_NB
        assert scores == []

    def test_smoother_k_wins_on_noisy_data(self):
        ds = _noisy_blobs()
        k1, k5 = KnnConfig(k=1), KnnConfig(k=5)
        cv_k1 = cross_validate(k1, ds, folds=5, seed=7)
        cv_k5 = cross_validate(k5, ds, folds=5, seed=7)
        assert cv_k5[0] > cv_k1[0]
        best, _, scores = select_model([k1, k5], ds, seed=7)
        assert best is k5
        assert scores == [cv_k1, cv_k5]

    def test_tie_goes_to_first_listed(self, monkeypatch):
        ds = _blobs(52, 20)  # trivially separable: every candidate scores 1.0
        candidates = [KnnConfig(k=3), KnnConfig(k=5)]
        fits = _count_fits(monkeypatch)
        best, _, scores = select_model(candidates, ds, seed=1)
        assert best is candidates[0]
        # the second can at best tie 1.0, so it stops before its first fold
        assert scores == [(1.0, [1.0] * 5), (1.0, [])]
        assert len(fits) == 5 + 0 + 1

    @pytest.mark.parametrize(
        "grid, fits_pinned",
        [
            ("logreg", 9),  # l2 0.01 and 0.1 stop after one fold, l2 1 diverges on its first
            ((1, 5), 11),  # each candidate beats the ones before it: nothing stops
            ((9, 5, 3, 1), 18),  # each later k stops after fold 4
        ],
        ids=["logreg-default-grid", "knn-1-5", "knn-9-5-3-1"],
    )
    def test_racing_picks_what_exhaustive_cv_picks(self, monkeypatch, grid, fits_pinned):
        if grid == "logreg":
            ds, seed = _scaled_telemetry(600, 13), 4
            candidates = default_config().baseline_candidates("logreg")
        else:
            ds, seed = _noisy_blobs(), 7
            candidates = [KnnConfig(k=k) for k in grid]
        exhaustive = [cross_validate(c, ds, folds=5, seed=seed) for c in candidates]
        means = [-math.inf if result is None else result[0] for result in exhaustive]
        expected = candidates[means.index(max(means))]

        fits = _count_fits(monkeypatch)
        best, model, results = select_model(candidates, ds, seed=seed)
        assert len(fits) == fits_pinned
        monkeypatch.undo()
        assert best is expected
        assert model_to_dict(model) == model_to_dict(train_classifier(expected, ds, seed))
        for full, raced in zip(exhaustive, results):
            if raced is None or len(raced[1]) == 5:
                assert raced == full
            else:  # stopped: a prefix of the same folds, at a bound the winner reaches
                assert full is None or raced[1] == full[1][: len(raced[1])]
                assert raced[0] <= max(means)

    def test_bound_never_below_the_mean(self, monkeypatch):
        # with fold scores forced, a candidate is never stopped by a beat just
        # below its own mean: the bound, summed in fold order, is never below it
        rng = np.random.default_rng(5)
        fold_scores = iter([])
        monkeypatch.setattr(baselines, "train_classifier", lambda *a: None)
        monkeypatch.setattr(baselines, "predict", lambda *a: (None, None))
        monkeypatch.setattr(baselines, "_anomalous_f1", lambda *a: next(fold_scores))
        ds = _ds([float(i) for i in range(10)], [0] * 5 + [1] * 5)
        for trial in range(3000):
            if trial % 2:  # F1 as the folds compute it: 2tp / (2tp + fp + fn)
                tp, wrong = rng.integers(0, 40, size=(2, 5))
                scores = [2.0 * t / (2.0 * t + w) if 2 * t + w else 0.0 for t, w in zip(tp, wrong)]
            else:  # any value in [0, 1], with many exact 0s and 1s
                scores = np.where(rng.random(5) < 0.3, rng.integers(0, 2, 5), rng.random(5)).tolist()
            mean = sum(scores) / 5
            fold_scores = iter(scores)
            assert cross_validate(None, ds, folds=5, beat=np.nextafter(mean, -math.inf)) == (mean, scores)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ConfigError):
            select_model([], _blobs(53, 10), seed=0)


class TestSerialization:
    def test_round_trip_every_kind(self, tmp_path):
        train_ds = _blobs(71, 25, dim=4)
        queries = _blobs(72, 10, dim=4).features
        configs = [
            LogregConfig(epochs=50, learning_rate=0.1),
            GaussianNbConfig(),
            KnnConfig(k=3),
            TreeConfig(max_depth=4),
            ForestConfig(n_trees=7, features_per_split=2),
            MlpConfig(epochs=15, batch_size=16, learning_rate=0.01),
        ]
        for cfg in configs:
            model = train_classifier(cfg, train_ds, seed=3)
            path = tmp_path / f"{cfg.kind}.json"
            save_model(model, path)
            back = load_model(path, 4)
            assert back.kind == model.kind
            assert back.config == model.config
            assert np.array_equal(predict_proba(back, queries), predict_proba(model, queries))

    def test_save_load_save_byte_identical_every_kind(self, tmp_path):
        train_ds = _blobs(74, 20, dim=4)
        for cfg in _six_configs():
            first, second = tmp_path / f"{cfg.kind}_1.json", tmp_path / f"{cfg.kind}_2.json"
            save_model(train_classifier(cfg, train_ds, seed=5), first)
            save_model(load_model(first, 4), second)
            assert first.read_bytes() == second.read_bytes(), cfg.kind

    def test_file_holds_version_config_and_payload(self):
        model = train_classifier(LogregConfig(epochs=5, learning_rate=0.1), _blobs(75, 10), seed=0)
        d = model_to_dict(model)
        assert set(d) == {"format_version", "config", "network"}
        assert d["format_version"] == CLASSIFIER_FORMAT_VERSION == 4
        assert d["config"] == {"kind": LOGREG, "l2_strength": 0.0, "learning_rate": 0.1, "epochs": 5}
        assert d["network"]["topology"] == [7, 1] and d["network"]["activations"] == ["sigmoid"]
        assert len(d["network"]["params"]) == 8
        with pytest.raises(DataError, match="format version 2"):
            model_from_dict({**d, "format_version": 2}, 7)

    def test_dict_round_trip(self):
        ds = _blobs(73, 15, dim=3)
        model = train_classifier(TreeConfig(), ds, seed=0)
        back = model_from_dict(model_to_dict(model), 3)
        assert nested_tree(back.payload["root"]) == nested_tree(model.payload["root"])

    @pytest.mark.parametrize("kind", [LOGREG, GAUSSIAN_NB, KNN, MLP])
    def test_file_of_another_width_rejected(self, kind):
        cfg = next(c for c in _six_configs() if c.kind == kind)
        d = model_to_dict(train_classifier(cfg, _blobs(76, 10, dim=4), seed=0))
        model_from_dict(d, 4)
        for n_channels in (3, 5):
            with pytest.raises(DataError):
                model_from_dict(d, n_channels)

    def test_knn_takes_k_from_its_config(self):
        train_ds, queries = _blobs(77, 10, dim=4), _blobs(78, 5, dim=4).features
        model = train_classifier(KnnConfig(k=3), train_ds, seed=0)
        d = model_to_dict(model)
        assert "k" not in d
        # k is read from the config alone: a top-level k beside the payload is not consulted
        back = model_from_dict({**d, "k": 9}, 4)
        assert np.array_equal(predict_proba(back, queries), predict_proba(model, queries))
        with pytest.raises(DataError, match="k=21 exceeds training size 20"):
            model_from_dict({**d, "config": {**d["config"], "k": 21}}, 4)
