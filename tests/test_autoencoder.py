import math

import numpy as np
import pytest

from aeromon import autoencoder
from aeromon.autoencoder import (
    IMPROVEMENT_TOL,
    AdamState,
    LayerSpec,
    Network,
    TrainConfig,
    _backprop_from_output_delta,
    _sigmoid,
    adam_step,
    backward,
    default_autoencoder_specs,
    forward,
    forward_rows,
    init_network,
    load_network,
    mse_loss,
    network_from_dict,
    network_to_dict,
    save_network,
    train,
)
from aeromon.baselines import MlpConfig, train_classifier
from aeromon.dataset import Dataset, SynthConfig, apply_scaler, fit_scaler, generate_synthetic, split
from aeromon.errors import DataError, DomainError, ShapeError
from aeromon.numerics import Rng, derive_seed


def finite_difference_grads(net, x, h=1e-5):
    """Central-difference gradient of the reconstruction MSE, parameter by
    parameter, laid out like net.params. Independent of the analytic backward pass."""
    grads = np.zeros_like(net.params)
    for i in range(net.params.size):
        orig = net.params[i]
        net.params[i] = orig + h
        lp = mse_loss(x, forward(net, x)[0])
        net.params[i] = orig - h
        lm = mse_loss(x, forward(net, x)[0])
        net.params[i] = orig
        grads[i] = (lp - lm) / (2.0 * h)
    return grads


def _net(weights, biases, specs):
    """A network from per-layer weight and bias arrays, packed in the params layout."""
    return Network(np.concatenate([part for w, b in zip(weights, biases) for part in (w.ravel(), b)]), specs)


def _one_sample(seed, dim=7):
    """A channel-major batch (dim, 1) of one sample of uniform [0, 1) draws."""
    rng = np.random.default_rng(seed)
    return np.array([[rng.random()] for _ in range(dim)])


def masked_sigmoid(z):
    """Reference logistic: each sign handled in its own branch, by masks."""
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def max_relative_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float((np.abs(analytic - numeric) / denom).max())


class TestInit:
    def test_parameter_count_default_topology(self):
        net = init_network(default_autoencoder_specs(), seed=0)
        count = net.params.size
        assert count == (7 * 5 + 5) + (5 * 3 + 3) + (3 * 5 + 5) + (5 * 7 + 7)
        assert count == 120

    def test_deterministic_per_seed(self):
        a = init_network(default_autoencoder_specs(), seed=4)
        b = init_network(default_autoencoder_specs(), seed=4)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        c = init_network(default_autoencoder_specs(), seed=5)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_glorot_bounds_and_zero_biases(self):
        net = init_network(default_autoencoder_specs(), seed=11)
        for w, spec in zip(net.weights, net.specs):
            limit = math.sqrt(6.0 / (spec.in_dim + spec.out_dim))
            assert np.abs(w).max() <= limit
        for b in net.biases:
            assert np.array_equal(b, np.zeros_like(b))

    def test_broken_chain_rejected(self):
        with pytest.raises(ShapeError):
            init_network([LayerSpec(7, 5, "elu"), LayerSpec(4, 3, "identity")], seed=0)

    @pytest.mark.parametrize("in_dim, out_dim", [(0, 3), (3, 0), (-1, 2)])
    def test_layer_dimension_below_one_rejected(self, in_dim, out_dim):
        with pytest.raises(DomainError, match="^layer dimensions must be >= 1$"):
            LayerSpec(in_dim, out_dim, "elu")

    def test_unknown_activation_rejected(self):
        with pytest.raises(DomainError, match="^unknown activation 'relu'$"):
            LayerSpec(7, 5, "relu")

    def test_network_without_layers_rejected(self):
        with pytest.raises(ShapeError, match="^a network needs at least one layer$"):
            Network(np.zeros(0), [])


class TestForward:
    def test_zero_network_outputs_zero(self):
        specs = default_autoencoder_specs()
        net = _net([np.zeros((s.out_dim, s.in_dim)) for s in specs], [np.zeros(s.out_dim) for s in specs], specs)
        out, _ = forward(net, np.arange(7.0)[:, None])
        assert np.array_equal(out, np.zeros((7, 1)))

    def test_identity_layer(self):
        net = _net([np.eye(7)], [np.zeros(7)], [LayerSpec(7, 7, "identity")])
        x = np.linspace(-1, 1, 7)[:, None]
        out, _ = forward(net, x)
        assert np.array_equal(out, x)

    def test_elu_negative_branch(self):
        net = _net([np.eye(1)], [np.zeros(1)], [LayerSpec(1, 1, "elu")])
        out, _ = forward(net, np.array([[-1.0]]))
        assert out[0, 0] == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-12)
        assert out[0, 0] == pytest.approx(-0.632121, abs=1e-6)

    def test_sigmoid_equals_masked_reference(self):
        rng = np.random.default_rng(71)
        z = np.array([rng.normal(0.0, 8.0) for _ in range(20000)])
        edges = [0.0, 36.0, 710.0, 745.0, 1e-300, np.inf]
        z = np.concatenate([z, edges, [-v for v in edges], [np.nan]])
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _sigmoid(z), masked_sigmoid(z)
        number = ~np.isnan(want)
        assert got[number].tobytes() == want[number].tobytes()  # bit for bit
        assert np.isnan(got[~number]).all() and number[:-1].all()  # NaN stays NaN (its sign bit may differ)
        assert np.signbit(z[-len(edges) - 1]) and got[-len(edges) - 1] == 0.5  # -0.0

    def test_batch_matches_per_row(self):
        # batch evaluation is a training-loop optimization; it agrees with
        # one-sample batches to rounding (BLAS kernels differ by shape)
        net = init_network(default_autoencoder_specs(), seed=3)
        rng = np.random.default_rng(5)
        batch = np.array([[rng.random() for _ in range(7)] for _ in range(9)]).T  # channel-major (7, 9)
        out_batch, _ = forward(net, batch)
        for i in range(9):
            out_row, _ = forward(net, batch[:, i : i + 1])
            assert np.allclose(out_batch[:, i], out_row[:, 0], atol=1e-12)

    @pytest.mark.invariant
    def test_forward_rows_reads_a_strided_view_as_its_copy(self):
        # forward_rows takes samples channel-major, (d, n); x.T is such a view with a stride of d elements
        net = init_network(default_autoencoder_specs(), seed=3)
        x = np.random.default_rng(5).random((300, 7))
        view = x.T
        assert not view.flags.c_contiguous
        out = forward_rows(net, view)
        assert out.shape == (7, 300)
        assert out.tobytes() == forward_rows(net, np.ascontiguousarray(view)).tobytes()
        for j in range(0, 300, 37):  # a sample alone gives its column, bit for bit
            assert forward_rows(net, view[:, j : j + 1])[:, 0].tobytes() == out[:, j].tobytes()
        assert np.allclose(out, forward(net, np.ascontiguousarray(view))[0], atol=1e-12)

    @pytest.mark.invariant
    @pytest.mark.parametrize(
        "specs",
        [
            default_autoencoder_specs(),
            [LayerSpec(7, 1, "sigmoid")],  # logreg
            [LayerSpec(7, 8, "elu"), LayerSpec(8, 1, "sigmoid")],  # the mlp
        ],
        ids=["autoencoder", "logreg", "mlp"],
    )
    def test_forward_and_forward_rows_share_one_layout(self, specs):
        # training's BLAS kernel and scoring's row-exact kernel take the same
        # channel-major (d, n) batch and give the same (out_dim, n) output
        net = init_network(specs, seed=8)
        x = np.random.default_rng(9).normal(0.5, 1.0, (7, 1030))
        out = forward(net, x)[0]
        assert out.shape == forward_rows(net, x).shape == (specs[-1].out_dim, 1030)
        assert np.allclose(out, forward_rows(net, x), rtol=0.0, atol=1e-12)


class TestMseLoss:
    def test_perfect_reconstruction(self):
        assert mse_loss(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]])) == 0.0

    def test_unit_offsets(self):
        assert mse_loss(np.zeros((1, 2)), np.ones((1, 2))) == 1.0

    def test_hand_arithmetic(self):
        assert mse_loss(np.array([[1.0, 2.0, 3.0]]), np.array([[1.0, 2.0, 5.0]])) == pytest.approx(4.0 / 3.0, abs=1e-15)


def reference_backprop(net, cache, delta):
    """The textbook backward pass from dL/dz at the output, (out_dim, n), one
    column per sample: each hidden delta is multiplied by its activation's
    derivative array (ones for identity), each weight gradient is
    `delta @ a_prev.T` and each bias gradient `delta.sum(axis=1)`. The oracle of
    the library's shortcuts."""
    primes = {
        "elu": lambda z, a: np.where(z > 0.0, 1.0, np.exp(z)),
        "sigmoid": lambda z, a: a * (1.0 - a),
        "identity": lambda z, a: np.ones_like(z),
    }
    x, layer_cache = cache
    grads = []
    for i in range(len(net.specs) - 1, -1, -1):
        a_prev = x if i == 0 else layer_cache[i - 1][1]
        grads[:0] = [(delta @ a_prev.T).ravel(), delta.sum(axis=1)]
        if i > 0:
            delta = (net.weights[i].T @ delta) * primes[net.specs[i - 1].activation](*layer_cache[i - 1])
    return np.concatenate(grads)


class TestBackward:
    def test_zero_gradient_at_perfect_reconstruction(self):
        net = _net([np.eye(7)], [np.zeros(7)], [LayerSpec(7, 7, "identity")])
        x = np.linspace(0.1, 0.7, 7)[:, None]
        _, cache = forward(net, x)
        grads = backward(net, cache, x)
        assert np.array_equal(grads, np.zeros_like(grads))

    def test_matches_finite_differences(self):
        net = init_network(default_autoencoder_specs(), seed=17)
        x = _one_sample(29)
        _, cache = forward(net, x)
        analytic = backward(net, cache, x)
        numeric = finite_difference_grads(net, x)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_residual_scaling_is_linear(self):
        # single identity layer; scaling the residual (x_hat - x) by c must
        # scale the weight gradient by c at a fixed forward cache
        net = _net([np.eye(3) * 0.5], [np.zeros(3)], [LayerSpec(3, 3, "identity")])
        x0 = np.array([[0.2], [0.4], [0.6]])
        out, cache = forward(net, x0)
        x1 = out - (out - x0) * 3.0  # residual scaled by 3
        g0 = backward(net, cache, x0)
        g1 = backward(net, cache, x1)
        assert np.allclose(g1[:9], 3.0 * g0[:9], atol=1e-12)  # the weights
        assert np.allclose(g1[9:], 3.0 * g0[9:], atol=1e-12)  # the biases

    def test_batch_gradient_is_mean_of_rows(self):
        net = init_network(default_autoencoder_specs(), seed=23)
        rng = np.random.default_rng(31)
        batch = np.array([[rng.random() for _ in range(7)] for _ in range(5)]).T  # channel-major (7, 5)
        _, cache = forward(net, batch)
        batch_grads = backward(net, cache, batch)
        sums = np.zeros_like(batch_grads)
        for i in range(5):
            _, row_cache = forward(net, batch[:, i : i + 1])
            sums += backward(net, row_cache, batch[:, i : i + 1])
        assert np.allclose(batch_grads, sums / 5.0, atol=1e-14)

    @pytest.mark.invariant
    @pytest.mark.parametrize("rows", [1, 2, 5, 256, 764, 1024])
    def test_backprop_bit_equals_reference(self, rows):
        """Skipping identity derivatives and writing each product and sum into
        the gradient vector change no bit of any gradient: the autoencoder's
        (identity bottleneck and output), a sigmoid one's and an MLP's (one
        sigmoid output row)."""
        rng = np.random.default_rng(rows)
        x = rng.random((7, rows))
        sigmoid_specs = [LayerSpec(7, 5, "sigmoid"), LayerSpec(5, 3, "identity"), LayerSpec(3, 7, "sigmoid")]
        for seed in (3, 4):
            for specs in (default_autoencoder_specs(), sigmoid_specs):
                net = init_network(specs, seed=seed)
                out, cache = forward(net, x)
                primes_out = out * (1.0 - out) if specs[-1].activation == "sigmoid" else np.ones_like(out)
                delta = (2.0 / 7) * (out - x) / rows * primes_out
                assert backward(net, cache, x).tobytes() == reference_backprop(net, cache, delta).tobytes()
            mlp = init_network([LayerSpec(7, 8, "elu"), LayerSpec(8, 1, "sigmoid")], seed=seed)
            out, cache = forward(mlp, x)
            delta = (out - (x[:1] > 0.5)) / rows
            want = reference_backprop(mlp, cache, delta).tobytes()
            assert _backprop_from_output_delta(mlp, cache, delta).tobytes() == want

    @pytest.mark.invariant
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 764, 1024, 4860])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 8, 16])
    def test_gradient_sums_bit_equal_reference(self, n, k):
        """The weight product and bias sum written into the gradient vector are
        `delta @ a_prev.T` and `delta.sum(axis=1)` bit for bit, on deltas
        (k, n) of mixed magnitude with signed zeros and subnormals, in either
        memory order."""
        rng = np.random.default_rng(1000 * n + k)
        net = init_network([LayerSpec(3, k, "identity")], seed=k)
        _, cache = forward(net, rng.random((3, n)))
        delta = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-300, 300, size=(k, n))
        pick = rng.random((k, n))
        delta[pick < 0.1] = -0.0
        delta[pick > 0.9] = 5e-324 * rng.integers(-10**6, 10**6, size=int((pick > 0.9).sum()))
        for d in (delta, np.asfortranarray(delta), np.full((k, n), -0.0)):
            grad = _backprop_from_output_delta(net, cache, d)
            assert grad.tobytes() == reference_backprop(net, cache, d).tobytes()
            assert grad[-k:].tobytes() == d.sum(axis=1).tobytes()

    @pytest.mark.invariant
    def test_gradient_check_over_seeded_pairs(self):
        for trial in range(25):
            net = init_network(default_autoencoder_specs(), seed=1000 + trial)
            x = _one_sample(2000 + trial)
            _, cache = forward(net, x)
            assert max_relative_error(backward(net, cache, x), finite_difference_grads(net, x)) < 1e-4


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = np.array([1.0, -2.0])
        state = AdamState.for_params(params, lr=0.001)
        adam_step(state, params, np.zeros(2))
        assert np.array_equal(params, [1.0, -2.0])
        assert state.t == 1

    def test_first_step_hand_computed(self):
        # one scalar parameter, gradient g: m=0.1g, v=0.001g^2, bias correction
        # restores m_hat=g, v_hat=g^2, so the update is lr*g/(|g|+eps)
        g = 0.37
        lr = 0.001
        params = np.array([2.0])
        state = AdamState.for_params(params, lr=lr)
        adam_step(state, params, np.array([g]))
        expected = 2.0 - lr * g / (abs(g) + 1e-8)
        assert params[0] == pytest.approx(expected, abs=1e-15)
        assert abs(2.0 - params[0]) == pytest.approx(lr, rel=1e-6)

    def test_deterministic(self):
        def run():
            params = np.array([0.5, 0.5, 1.0, 2.0])
            state = AdamState.for_params(params, lr=0.01)
            for i in range(10):
                adam_step(state, params, np.array([0.1 * i, -0.2, 0.3, 0.05 * i]))
            return params

        assert np.array_equal(run(), run())

    def test_step_on_network_params_moves_its_output(self):
        # weights and biases are views into net.params, so an in-place step
        # reaches forward; a clone owns its own copy
        net = init_network(default_autoencoder_specs(), seed=21)
        twin = net.clone()
        assert not np.shares_memory(twin.params, net.params)
        x = _one_sample(22)
        before = forward(net, x)[0]
        _, cache = forward(net, x)
        adam_step(AdamState.for_params(net.params, lr=0.01), net.params, backward(net, cache, x))
        assert not np.array_equal(forward(net, x)[0], before)
        assert np.array_equal(forward(twin, x)[0], before)


def _constant_sets(n=256, dim=7):
    row = np.linspace(0.2, 0.8, dim)
    feats = np.tile(row, (n, 1))
    return Dataset(feats), Dataset(feats[: n // 4])


def _scaled_normal_sets(n=5000, seed=6):
    data = generate_synthetic(SynthConfig(n_samples=n, seed=seed))
    res = split(data, seed=seed)
    scaler = fit_scaler(res["ae_train"])
    return apply_scaler(scaler, res["ae_train"]), apply_scaler(scaler, res["ae_val"])


class TestTrain:
    def test_constant_dataset_converges(self):
        train_ds, val_ds = _constant_sets()
        net = init_network(default_autoencoder_specs(), seed=1)
        cfg = TrainConfig(max_epochs=200, batch_size=16, seed=1)
        _, history = train(net, train_ds, val_ds, cfg)
        assert min(v for _, v, _ in history) < 1e-6
        assert len(history) < 200

    def test_learns_synthetic_normals(self):
        train_ds, val_ds = _scaled_normal_sets()
        net = init_network(default_autoencoder_specs(), seed=2)
        cfg = TrainConfig(max_epochs=200, batch_size=128, seed=2)
        best, history = train(net, train_ds, val_ds, cfg)
        best_val = min(v for _, v, _ in history)
        variance = float(train_ds.features.var(axis=0).mean())
        assert best_val < 0.10 * variance
        # loose desk-scale echo of fleet-scale convergence: the bulk of the
        # improvement lands within the first 50 of the 200 epochs
        assert len(history) <= 200
        val_first, val_at_50 = history[0][1], history[49][1]
        assert val_first - val_at_50 >= 0.9 * (val_first - best_val)

    @pytest.mark.invariant
    def test_loss_mostly_non_increasing_and_best_is_min(self):
        train_ds, val_ds = _scaled_normal_sets(n=2000, seed=9)
        net = init_network(default_autoencoder_specs(), seed=9)
        best, history = train(net, train_ds, val_ds, TrainConfig(max_epochs=60, batch_size=128, seed=9))
        train_losses = [t for t, _, _ in history]
        drops = sum(1 for a, b in zip(train_losses, train_losses[1:]) if b <= a + 1e-12)
        assert drops >= 0.95 * (len(train_losses) - 1)
        # the returned weights are those of the epoch with the minimum validation loss
        val_x = np.ascontiguousarray(val_ds.features.T)  # channel-major, as `train` holds it
        recomputed = mse_loss(val_x, forward(best, val_x)[0])
        assert abs(recomputed - min(v for _, v, _ in history)) < 1e-12

    @pytest.mark.invariant
    def test_lr_schedule_exact_factor_and_floor(self):
        # high starting lr on hard-to-improve data forces repeated reductions
        train_ds, val_ds = _constant_sets(n=64)
        net = init_network(default_autoencoder_specs(), seed=3)
        cfg = TrainConfig(
            max_epochs=120,
            batch_size=64,
            learning_rate=1e-3,
            early_stop_patience=120,
            plateau_patience=2,
            min_lr=1e-6,
            seed=3,
        )
        _, history = train(net, train_ds, val_ds, cfg)
        lrs = [lr for _, _, lr in history]
        assert min(lrs) >= cfg.min_lr
        distinct = sorted(set(lrs), reverse=True)
        for hi, lo in zip(distinct, distinct[1:]):
            assert lo == hi * cfg.plateau_factor

    @pytest.mark.invariant
    def test_schedule_replays_from_validation_losses(self):
        """The lr of every epoch and the stop epoch follow from the recorded
        validation losses by the documented rule, replayed here with separate
        counters for the plateau and the early stop."""
        train_ds, val_ds = _scaled_normal_sets(n=800, seed=5)
        cfg = TrainConfig(
            max_epochs=300,
            batch_size=128,
            learning_rate=0.01,
            plateau_patience=2,
            early_stop_patience=10,
            min_lr=1e-5,
            seed=5,
        )
        _, history = train(init_network(default_autoencoder_specs(), seed=5), train_ds, val_ds, cfg)
        lr, best, since_best, since_cut, attempts = cfg.learning_rate, math.inf, 0, 0, 0
        lrs, stop = [], None
        for epoch, (_, val, _) in enumerate(history, start=1):
            lrs.append(lr)
            if val < best - IMPROVEMENT_TOL:
                best, since_best, since_cut = val, 0, 0
                continue
            since_best += 1
            since_cut += 1
            if since_cut == cfg.plateau_patience:
                since_cut, attempts = 0, attempts + 1
                if lr * cfg.plateau_factor >= cfg.min_lr:
                    lr *= cfg.plateau_factor
            if since_best >= cfg.early_stop_patience:
                stop = epoch
                break
        assert [lr for _, _, lr in history] == lrs
        assert stop == len(history) < cfg.max_epochs
        # reductions were made, and at least one was skipped at the min_lr floor
        assert attempts > len(set(lrs)) - 1 >= 2

    @pytest.mark.invariant
    def test_best_weights_restored(self):
        train_ds, val_ds = _scaled_normal_sets(n=1500, seed=12)
        net = init_network(default_autoencoder_specs(), seed=12)
        best, history = train(net, train_ds, val_ds, TrainConfig(max_epochs=40, batch_size=128, seed=12))
        val_x = np.ascontiguousarray(val_ds.features.T)  # channel-major, as `train` holds it
        recomputed = mse_loss(val_x, forward(best, val_x)[0])
        assert abs(recomputed - min(v for _, v, _ in history)) < 1e-12

    @pytest.mark.invariant
    def test_bit_identical_for_fixed_seed(self):
        train_ds, val_ds = _scaled_normal_sets(n=1200, seed=4)
        cfg = TrainConfig(max_epochs=15, batch_size=128, seed=4)
        net_a, hist_a = train(init_network(default_autoencoder_specs(), seed=4), train_ds, val_ds, cfg)
        net_b, hist_b = train(init_network(default_autoencoder_specs(), seed=4), train_ds, val_ds, cfg)
        assert hist_a == hist_b
        assert min(v for _, v, _ in hist_a) == min(v for _, v, _ in hist_b)
        for wa, wb in zip(net_a.weights, net_b.weights):
            assert np.array_equal(wa, wb)
        assert net_a.params.tobytes() == net_b.params.tobytes()  # every gradient element is written each step

    def test_input_network_untouched(self):
        train_ds, val_ds = _constant_sets(n=64)
        net = init_network(default_autoencoder_specs(), seed=8)
        before = [w.copy() for w in net.weights]
        train(net, train_ds, val_ds, TrainConfig(max_epochs=3, batch_size=32, seed=8))
        for w0, w1 in zip(before, net.weights):
            assert np.array_equal(w0, w1)

    def test_divergence_stops_at_the_first_non_finite_epoch(self, monkeypatch):
        # lr 1e300: the second batch already sees overflowed weights, so epoch 1's
        # training error is not finite, and neither is its validation loss
        rng = np.random.default_rng(0)
        train_ds, val_ds = Dataset(rng.random((300, 7))), Dataset(rng.random((60, 7)))
        passes = []
        monkeypatch.setattr(autoencoder, "mse_loss", lambda *a: passes.append(1) or mse_loss(*a))
        net = init_network(default_autoencoder_specs(), seed=0)
        with pytest.raises(DomainError, match="no epoch reached a finite validation loss"):
            train(net, train_ds, val_ds, TrainConfig(batch_size=32, learning_rate=1e300, seed=0))
        assert len(passes) == 1

    def test_empty_sets_rejected(self):
        ds = Dataset(np.zeros((0, 7)))
        full = Dataset(np.full((4, 7), 0.5))
        net = init_network(default_autoencoder_specs(), seed=0)
        with pytest.raises(DataError, match="training and validation sets must be non-empty"):
            train(net, ds, full, TrainConfig(seed=0))
        with pytest.raises(DataError, match="training and validation sets must be non-empty"):
            train(net, full, ds, TrainConfig(seed=0))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            TrainConfig(plateau_factor=1.5)
        with pytest.raises(DomainError):
            TrainConfig(early_stop_patience=0)
        # adam_epochs trusts its rate: the two configs that give it one refuse a non-positive rate
        for lr in (0.0, -1e-3):
            with pytest.raises(DomainError, match="learning rates must be positive"):
                TrainConfig(learning_rate=lr)
            with pytest.raises(DomainError, match="learning_rate must be positive"):
                MlpConfig(learning_rate=lr)


def reference_train(net, train_feats, val_feats, cfg):
    """`train` with its own minibatch loop, as written before the loop was
    shared with the MLP: the oracle of `adam_epochs` under the autoencoder.
    Takes channel-major (d, n) features."""
    work = net.clone()
    state = AdamState.for_params(work.params, cfg.learning_rate)
    rng = Rng(cfg.seed)
    n = train_feats.shape[1]
    order = np.arange(n)
    best_val, best, patience_best, stale, history = math.inf, None, math.inf, 0, []
    for _epoch in range(cfg.max_epochs):
        epoch_lr = state.lr
        rng.shuffle(order)
        sq_err_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = train_feats.take(order[start : start + cfg.batch_size], axis=1)  # a C-order gather, as in `train`
            out, cache = forward(work, batch)
            diff = out - batch
            sq_err_sum += float((diff * diff).sum())
            adam_step(state, work.params, backward(work, cache, batch))
        train_mse = sq_err_sum / (n * work.in_dim)
        val_mse = mse_loss(val_feats, forward(work, val_feats)[0])
        history.append((train_mse, val_mse, epoch_lr))
        if val_mse < best_val:
            best_val, best = val_mse, work.clone()
        if val_mse < patience_best - IMPROVEMENT_TOL:
            patience_best, stale = val_mse, 0
        else:
            stale += 1
            if stale % cfg.plateau_patience == 0 and state.lr * cfg.plateau_factor >= cfg.min_lr:
                state.lr *= cfg.plateau_factor
            if stale >= cfg.early_stop_patience:
                break
    return best, history


def reference_mlp(cfg, x, y, seed, epochs):
    """The MLP baseline's own minibatch loop, as written before it was shared
    with the autoencoder: the oracle of `adam_epochs` under the MLP."""
    specs = [LayerSpec(x.shape[1], cfg.hidden_units, "elu"), LayerSpec(cfg.hidden_units, 1, "sigmoid")]
    net = init_network(specs, seed)
    state = AdamState.for_params(net.params, cfg.learning_rate)
    rng = Rng(derive_seed(seed, 1))
    order = np.arange(x.shape[0])
    x_cm = np.ascontiguousarray(x.T)
    target = y.astype(np.float64).reshape(1, -1)
    for _ in range(epochs):
        rng.shuffle(order)
        for start in range(0, x.shape[0], cfg.batch_size):
            cols = order[start : start + cfg.batch_size]
            out, cache = forward(net, x_cm.take(cols, axis=1))
            delta = (out - target.take(cols, axis=1)) / cols.size
            adam_step(state, net.params, _backprop_from_output_delta(net, cache, delta))
    return net.params


class TestAdamEpochs:
    """The autoencoder and the MLP train through one loop, `adam_epochs`; each
    result is bit-equal to its caller's former loop at every batch size,
    including one row, a short last batch and one batch of all n rows."""

    N = 40

    @pytest.mark.invariant
    @pytest.mark.parametrize("batch_size", [1, 7, N - 1, N, N + 5])
    def test_autoencoder_bit_equals_its_own_loop(self, batch_size):
        rng = np.random.default_rng(batch_size)
        train_feats, val_feats = rng.random((self.N, 7)), rng.random((15, 7))
        # a short plateau and patience make the run cut its rate and stop early
        cfg = TrainConfig(
            max_epochs=60, batch_size=batch_size, learning_rate=0.03, early_stop_patience=6, plateau_patience=2, seed=3
        )
        net = init_network(default_autoencoder_specs(), seed=batch_size)
        best, history = train(net, Dataset(train_feats), Dataset(val_feats), cfg)
        channel_major = (np.ascontiguousarray(feats.T) for feats in (train_feats, val_feats))
        want_best, want_history = reference_train(net, *channel_major, cfg)
        assert best.params.tobytes() == want_best.params.tobytes()
        assert np.array(history).tobytes() == np.array(want_history).tobytes()
        assert len({lr for _, _, lr in history}) > 1 and len(history) < cfg.max_epochs

    @pytest.mark.invariant
    @pytest.mark.parametrize("batch_size", [1, 7, N - 1, N, N + 5])
    def test_mlp_bit_equals_its_own_loop(self, batch_size):
        rng = np.random.default_rng(100 + batch_size)
        x = rng.random((self.N, 7))
        y = (x[:, 0] + 0.3 * rng.random(self.N) > 0.6).astype(np.int8)
        cfg = MlpConfig(epochs=4, batch_size=batch_size, learning_rate=0.1)
        params = train_classifier(cfg, Dataset(x, y), seed=batch_size).payload["network"].params
        assert params.tobytes() == reference_mlp(cfg, x, y, batch_size, cfg.epochs).tobytes()
        # one epoch more changes the weights, so a loop that ran one too many would fail above
        assert params.tobytes() != reference_mlp(cfg, x, y, batch_size, cfg.epochs + 1).tobytes()


class TestSerialization:
    def test_round_trip_bit_identical_reconstructions(self, tmp_path):
        train_ds, val_ds = _scaled_normal_sets(n=1200, seed=5)
        net, _ = train(
            init_network(default_autoencoder_specs(), seed=5),
            train_ds,
            val_ds,
            TrainConfig(max_epochs=10, batch_size=128, seed=5),
        )
        path = tmp_path / "ae.json"
        save_network(net, path)
        back = load_network(path)
        x = np.ascontiguousarray(val_ds.features[:50].T)
        assert np.array_equal(forward(back, x)[0], forward(net, x)[0])
        for wa, wb in zip(net.weights, back.weights):
            assert np.array_equal(wa, wb)

    def test_dict_round_trip_preserves_specs(self):
        net = init_network(default_autoencoder_specs(), seed=6)
        back = network_from_dict(network_to_dict(net), net.specs)
        assert [s.activation for s in back.specs] == ["elu", "identity", "elu", "identity"]
        assert back.specs == net.specs
