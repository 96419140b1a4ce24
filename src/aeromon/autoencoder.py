"""Dense feed-forward autoencoder trained with hand-derived backpropagation.

The reconstruction network is a plain stack of affine layers with ELU,
identity, or sigmoid activations. Gradients are exact analytic derivatives
of the mean-squared reconstruction error; optimization is bias-corrected
Adam with early stopping and a reduce-on-plateau learning-rate schedule.
Training is single-threaded and bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, ShapeError, read_json_artifact, write_json_artifact
from .numerics import Rng, as_matrix

MODEL_FORMAT_VERSION = 2

# Validation loss must drop by more than this to count as an improvement
# for both early stopping and the plateau scheduler.
IMPROVEMENT_TOL = 1e-7

ACTIVATIONS = ("elu", "identity", "sigmoid")

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise DomainError("layer dimensions must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise DomainError(f"unknown activation '{self.activation}'")


def default_autoencoder_specs() -> list[LayerSpec]:
    """7-5-3-5-7 topology: ELU on the 5-unit layers, identity elsewhere.

    The bottleneck and output stay linear so reconstructions of min-max
    scaled inputs are unbounded and slightly out-of-range readings remain
    representable.
    """
    return [
        LayerSpec(7, 5, "elu"),
        LayerSpec(5, 3, "identity"),
        LayerSpec(3, 5, "elu"),
        LayerSpec(5, 7, "identity"),
    ]


def _elu(z):
    return np.where(z > 0.0, z, np.expm1(z))


def _elu_prime(z):
    return np.where(z > 0.0, 1.0, np.exp(z))


def _sigmoid(z):
    # exp of a non-positive argument never overflows; both branches share it
    e = np.exp(-np.abs(z))
    den = 1.0 + e
    return np.where(z >= 0.0, 1.0, e) / den


def _activate(name, z):
    if name == "elu":
        return _elu(z)
    if name == "sigmoid":
        return _sigmoid(z)
    return z


def _times_prime(name, delta, z, a):
    """delta times the activation's derivative at z (a is the activation of z).
    An identity layer's derivative is 1 and x * 1.0 == x for every double, so
    its delta comes back as it is."""
    if name == "elu":
        return delta * _elu_prime(z)
    if name == "sigmoid":
        return delta * (a * (1.0 - a))
    return delta


def _column_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=0) of an (n, k) matrix, bit for bit. On a C-order matrix of
    two or more columns, sum adds whole rows in order, one inner call per row,
    and einsum makes the same adds in one call. With one column (or another
    memory order) sum adds pairwise and einsum does not, so those keep sum."""
    if a.shape[1] > 1 and a.flags.c_contiguous:
        return np.einsum("ij->j", a)
    return a.sum(axis=0)


def _layer_views(flat: np.ndarray, specs: list[LayerSpec]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each layer's (out_dim, in_dim) weights and (out_dim,) biases as views into
    one flat vector that holds, layer by layer, the weights row-major, then the biases."""
    weights, biases, start = [], [], 0
    for spec in specs:
        end = start + spec.out_dim * spec.in_dim
        weights.append(flat[start:end].reshape(spec.out_dim, spec.in_dim))
        biases.append(flat[end : end + spec.out_dim])
        start = end + spec.out_dim
    return weights, biases


class Network:
    """Ordered affine layers over one flat float64 parameter vector `params`;
    `weights[i]` ((out_dim, in_dim), row-major) and `biases[i]` are views into it."""

    def __init__(self, params: np.ndarray, specs: list[LayerSpec]):
        if not specs:
            raise ShapeError("a network needs at least one layer")
        for prev, nxt in zip(specs, specs[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ShapeError(f"layer chain breaks: {prev.out_dim} -> {nxt.in_dim}")
        size = sum(spec.out_dim * (spec.in_dim + 1) for spec in specs)
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (size,):
            raise ShapeError(f"the layers need {size} parameters, got an array of shape {params.shape}")
        self.params = params
        self.specs = specs
        self.weights, self.biases = _layer_views(params, specs)

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.specs[-1].out_dim

    def clone(self) -> "Network":
        return Network(self.params.copy(), list(self.specs))


def init_network(specs: list[LayerSpec], seed: int) -> Network:
    """Glorot-uniform weights with limit sqrt(6/(in+out)); zero biases."""
    rng = Rng(seed)
    pieces = []
    for spec in specs:
        limit = math.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        pieces += [rng.uniform(-limit, limit, spec.out_dim * spec.in_dim), np.zeros(spec.out_dim)]
    return Network(np.concatenate(pieces), specs)


def forward(net: Network, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Run the network over a batch (n, d); cache holds (input, [(z, a) per layer])."""
    a = x
    layer_cache = []
    for w, b, spec in zip(net.weights, net.biases, net.specs):
        z = a @ w.T + b
        a = _activate(spec.activation, z)
        layer_cache.append((z, a))
    return a, [x, layer_cache]


def forward_rows(net: Network, x: np.ndarray) -> np.ndarray:
    """Network output (out_dim, n) for a channel-major batch (d, n), one input
    term at a time with elementwise operations, so no sample (column) depends on
    the batch. Every prediction uses it; training keeps the BLAS `forward`."""
    a = x
    for w, b, spec in zip(net.weights, net.biases, net.specs):
        z = w[:, 0:1] * a[0]
        for k in range(1, w.shape[1]):
            z += w[:, k : k + 1] * a[k]
        z += b[:, None]
        a = _activate(spec.activation, z)
    return a


def mse_loss(x: np.ndarray, x_hat: np.ndarray) -> float:
    """(1/d) * sum of squared coordinate errors."""
    diff = x_hat - x
    return float(np.mean(diff * diff))


def _backprop_from_output_delta(net: Network, cache, delta: np.ndarray) -> np.ndarray:
    """Gradient of every parameter given dL/dz at the output layer, one row per
    batch sample; each gradient sums over the rows. Laid out like `net.params`."""
    x, layer_cache = cache
    grad = np.empty_like(net.params)
    grad_w, grad_b = _layer_views(grad, net.specs)
    for i in range(len(net.specs) - 1, -1, -1):
        a_prev = x if i == 0 else layer_cache[i - 1][1]
        grad_w[i][...] = delta.T @ a_prev
        grad_b[i][...] = _column_sums(delta)
        if i > 0:
            z_prev, a_prev_act = layer_cache[i - 1]
            delta = _times_prime(net.specs[i - 1].activation, delta @ net.weights[i], z_prev, a_prev_act)
    return grad


def backward(net: Network, cache, x: np.ndarray) -> np.ndarray:
    """Exact gradient of mse_loss(x, forward(net, x)) for every parameter,
    for a batch x (n, d): gradients are averaged over rows (the mean-loss
    gradient). The vector is laid out like `net.params`.
    """
    z_last, a_last = cache[1][-1]
    n, d = x.shape
    dloss_da = (2.0 / d) * (a_last - x) / n
    delta = _times_prime(net.specs[-1].activation, dloss_da, z_last, a_last)
    return _backprop_from_output_delta(net, cache, delta)


@dataclass
class AdamState:
    """First/second-moment accumulators, each laid out like the parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float

    @classmethod
    def for_params(cls, params: np.ndarray, lr: float) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), t=0, lr=lr)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray):
    """Standard bias-corrected Adam update of a parameter vector, applied in place.

    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2
    p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    """
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grads
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * (grads * grads)
    params -= state.lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + ADAM_EPS)


def adam_epochs(net: Network, x: np.ndarray, target, batch_size: int, lr: float, rng: Rng, grads_of):
    """Endless minibatch Adam on `net.params` in place, one epoch per iteration:
    shuffle the rows of x (n, d) with `rng`, then one `adam_step` per slice of
    `batch_size` rows (the last may be short) with `grads_of(net, cache,
    target_rows)`. `target` (n, k) is the output to fit, None to reconstruct x.
    Yields (AdamState, the epoch's summed squared output error); a caller may
    change `state.lr` between epochs."""
    state = AdamState.for_params(net.params, lr)
    order = np.arange(x.shape[0])
    while True:
        rng.shuffle(order)
        sq_err_sum = 0.0
        for start in range(0, x.shape[0], batch_size):
            rows = order[start : start + batch_size]
            batch = x[rows]
            batch_target = batch if target is None else target[rows]
            out, cache = forward(net, batch)
            diff = out - batch_target
            sq_err_sum += float((diff * diff).sum())
            adam_step(state, net.params, grads_of(net, cache, batch_target))
        yield state, sq_err_sum


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 200
    batch_size: int = 1024
    learning_rate: float = 1e-3
    early_stop_patience: int = 25
    plateau_patience: int = 20
    plateau_factor: float = 0.2
    min_lr: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.early_stop_patience < 1 or self.plateau_patience < 1:
            raise DomainError("patience values must be >= 1")
        if not 0.0 < self.plateau_factor < 1.0:
            raise DomainError("plateau_factor must lie in (0, 1)")
        if self.min_lr <= 0 or self.learning_rate <= 0:
            raise DomainError("learning rates must be positive")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise DomainError("batch_size and max_epochs must be >= 1")


# a diverged fit ends in the best finite epoch's weights or in the DomainError below, not in numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def train(net: Network, ae_train, ae_val, cfg: TrainConfig) -> tuple[Network, list[tuple[float, float, float]]]:
    """Early-stopped `adam_epochs` on normal rows that keeps the best validation weights.

    After each epoch, a full-precision pass over the validation set, whose loss
    must improve by more than 1e-7 to reset the count of stale epochs. Every
    plateau_patience stale epochs the learning rate is multiplied by
    plateau_factor, skipping any reduction that would land below min_lr;
    early_stop_patience stale epochs stop training. An epoch whose training
    error is not finite before any epoch reached a finite validation loss ends
    training at once: NaN weights never recover. Returns the weights of the
    best validation epoch and the history, one (train_mse, val_mse, lr) per epoch run.
    """
    train_feats = as_matrix(ae_train.features, net.in_dim)
    val_feats = as_matrix(ae_val.features, net.in_dim)
    if train_feats.shape[0] == 0 or val_feats.shape[0] == 0:
        raise DataError("training and validation sets must be non-empty")
    if any(part.is_labeled and int(part.labels.max(initial=0)) != 0 for part in (ae_train, ae_val)):
        raise DataError("reconstruction training and validation data must contain only normal samples")

    work = net.clone()
    epochs = adam_epochs(work, train_feats, None, cfg.batch_size, cfg.learning_rate, Rng(cfg.seed), backward)
    # strict minimum drives weight restoration; the tolerance-gated tracker
    # drives patience, so sub-tolerance dips never postpone stopping
    best_val = math.inf
    best = None
    patience_best = math.inf
    stale = 0  # epochs since the last improvement
    history: list[tuple[float, float, float]] = []

    # range first: zip stops on it without advancing the generator, which would train one more epoch
    for _epoch, (state, sq_err_sum) in zip(range(cfg.max_epochs), epochs):
        train_mse = sq_err_sum / (train_feats.shape[0] * work.in_dim)
        val_mse = mse_loss(val_feats, forward(work, val_feats)[0])
        history.append((train_mse, val_mse, state.lr))

        if val_mse < best_val:
            best_val = val_mse
            best = work.clone()
        if best is None and not math.isfinite(train_mse):
            break
        if val_mse < patience_best - IMPROVEMENT_TOL:
            patience_best = val_mse
            stale = 0
        else:
            stale += 1
            if stale % cfg.plateau_patience == 0 and state.lr * cfg.plateau_factor >= cfg.min_lr:
                state.lr *= cfg.plateau_factor
            if stale >= cfg.early_stop_patience:
                break

    if best is None:
        raise DomainError("autoencoder training diverged: no epoch reached a finite validation loss")
    return best, history


def _layer_header(specs: list[LayerSpec]) -> dict:
    """The `topology` and `activations` entries of a network file of the layers `specs`."""
    return {"topology": [specs[0].in_dim] + [s.out_dim for s in specs], "activations": [s.activation for s in specs]}


def network_to_dict(net: Network) -> dict:
    return {"format_version": MODEL_FORMAT_VERSION, **_layer_header(net.specs), "params": net.params.tolist()}


def network_from_dict(d: dict, specs: list[LayerSpec]) -> Network:
    """The network in `d`, which must have the layers `specs` its caller trains:
    `default_autoencoder_specs()` for model_ae.json (`load_network`), or the
    kind's layers at the file's config and width for clf_<kind>.json."""
    if d.get("format_version") != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {d.get('format_version')!r}")
    expected = _layer_header(specs)
    found = {key: d[key] for key in expected}
    if found != expected:
        raise DataError(f"the network must have the layers {expected}, found {found}")
    return Network(d["params"], specs)


def save_network(net: Network, path) -> None:
    write_json_artifact(path, network_to_dict(net))


def load_network(path) -> Network:
    return read_json_artifact(path, lambda d: network_from_dict(d, default_autoencoder_specs()))

