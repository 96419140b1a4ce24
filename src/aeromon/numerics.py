"""Deterministic small-scale linear algebra, statistics, and random numbers.

Everything is double precision. Matrices are C-order (row-major) float64
ndarrays. A sample matrix enters as (n, d), one row per sample; every network
and scoring kernel (here `leading_sums` and `solve_spd`) takes it
channel-major, as (d, n), one column per sample. All functions are pure;
results are bit-identical for identical inputs on the same machine and
numpy/BLAS build, which is what makes whole pipeline runs replayable. Random
numbers come from one counter-based generator, `Rng`: every draw is a
SplitMix64 block computed with numpy, a run of consecutive draws (one forest
tree's feature subsets) can be computed as one 2-d block, and normals use
numpy's `log` and `sqrt`. A block's values never tie, so a permutation, the
argsort of one block, takes the fastest sort kind. Quantiles are order
statistics. Every sample matrix the package takes is checked by one function,
`as_matrix`, and every label or decision vector by another, `as_labels`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, NumericError, ShapeError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Diagonal loading used by cholesky(): escalation starts at 1e-10 * trace/d and is capped at 1e-3 * trace/d.
JITTER_BASE_FACTOR = 1e-10
JITTER_CAP_FACTOR = 1e-3


_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix of each element of the uint64 array z, in place
    (uint64 arithmetic wraps like masked integer steps); returns z."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_SM_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_SM_MUL2)
    z ^= z >> np.uint64(31)
    return z


def _splitmix64_block(key: int, n: int) -> np.ndarray:
    """The first n SplitMix64 outputs of state `key`, as one uint64 array.

    Output i mixes state key + (i+1) * golden (mod 2**64). The mix is a
    bijection, so the n outputs are distinct for n <= 2**64.
    """
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(key & _MASK64)
    return _mix64(z)


def derive_seed(seed: int, index: int | np.ndarray) -> int | np.ndarray:
    """Stable child seed for stage / tree / fold streams and for each draw
    of an `Rng`: the first SplitMix64 output of state seed ^ (index+1)*golden.

    Mixing (seed, index) through SplitMix64 keeps child streams decorrelated
    even for consecutive indices. Takes Python ints (cheaper than numpy for one
    draw), or a uint64 index array with a seed in [0, 2**64), elementwise.
    """
    z = ((seed ^ ((index + 1) * _GOLDEN)) + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _SM_MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_MUL2) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Counter-based generator in the manner of Salmon et al. (SC'11).

    The state is (seed, draws). Draw k is the SplitMix64 block keyed by
    derive_seed(seed, k), so a draw costs a fixed number of numpy calls
    whatever its size, and can be recomputed from the seed and its index
    alone. For the same reason `sample_indices` takes any number of
    consecutive draws in one pass. `uniform` is the one float draw (`normal`
    takes its candidates from it). Every method returns arrays; equal seeds
    give identical draws on one machine and numpy build.
    """

    __slots__ = ("seed", "draws")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.draws = 0

    def _block(self, size: int) -> np.ndarray:
        key = derive_seed(self.seed, self.draws)
        self.draws += 1
        return _splitmix64_block(key, size)

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        """`size` draws of low + (high - low) * r, r a double in [0, 1) from the top 53 bits of one output."""
        return low + (high - low) * ((self._block(size) >> np.uint64(11)) * 2.0**-53)

    def normal(self, mean: float, std: float, size: int) -> np.ndarray:
        """`size` Gaussian draws by the Marsaglia polar method over whole
        blocks: a block holds one candidate pair in [-1, 1)^2 per missing
        value, and each pair inside the unit disc (but not at its centre)
        gives two normals."""
        out = np.empty(size)
        filled = 0
        while filled < size:
            v = self.uniform(-1.0, 1.0, 2 * (size - filled))
            v1, v2 = v[0::2], v[1::2]
            s = v1 * v1 + v2 * v2
            keep = (s > 0.0) & (s < 1.0)
            f = np.sqrt(-2.0 * np.log(s[keep]) / s[keep])
            z = np.concatenate((v1[keep] * f, v2[keep] * f))[: size - filled]
            out[filled : filled + z.size] = z
            filled += z.size
        return mean + std * out

    def randrange(self, n: int, size: int) -> np.ndarray:
        """`size` unbiased int64 values in [0, n): bitmask rejection applied
        to whole blocks until enough values are accepted."""
        if not 1 <= n <= 2**63:
            raise DomainError(f"randrange needs 1 <= n <= 2**63, got {n}")
        mask = np.uint64((1 << (n - 1).bit_length()) - 1)
        out = np.empty(size, dtype=np.int64)
        filled = 0
        while filled < size:
            block = self._block(size - filled) & mask
            kept = block[block < np.uint64(n)]
            out[filled : filled + kept.size] = kept
            filled += kept.size
        return out

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random permutation of range(n) as an int64 array: the
        argsort of one block. Its values are distinct (`_splitmix64_block`), so
        the default sort returns the stable order, several times faster."""
        return np.argsort(self._block(n))

    def shuffle(self, seq) -> None:
        """In-place shuffle of a list or 1-d array by one `permutation`."""
        perm = self.permutation(len(seq))
        if isinstance(seq, np.ndarray):
            seq[:] = seq[perm]
        else:
            seq[:] = [seq[i] for i in perm.tolist()]

    def sample_indices(self, n: int, k: int, rows: int) -> np.ndarray:
        """`rows` samples of k distinct indices from range(n), as a (rows, k)
        int64 array of ascending rows, taking `rows` draws. Row i is the first
        k of the `permutation(n)` that draw `draws + i` would give, sorted.
        All rows come from one pass: the keys `derive_seed(seed, draws + i)`
        as a uint64 array, one (rows, n) SplitMix64 block, and one argsort
        along its rows (a row's values are distinct, as in `permutation`)."""
        if not 0 <= k <= n:
            raise DomainError(f"cannot sample {k} of {n}")
        keys = derive_seed(self.seed, np.arange(self.draws, self.draws + rows, dtype=np.uint64))
        self.draws += rows
        block = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + keys[:, None]
        return np.sort(np.argsort(_mix64(block), axis=1)[:, :k], axis=1)


def as_matrix(rows, width: int | None = None) -> np.ndarray:
    """`rows` as a C-order float64 (n, d) array, with d == width if a width is
    given: the one check of every sample matrix the package takes. Ragged or
    non-numeric rows, another shape or another width raise ShapeError; a NaN
    or an infinity raises DomainError."""
    expected = f"(n, {'d' if width is None else width})"
    try:
        x = np.ascontiguousarray(rows, dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise ShapeError(f"samples are ragged or non-numeric, expected {expected}: {exc}") from None
    if x.ndim != 2 or (width is not None and x.shape[1] != width):
        raise ShapeError(f"samples have shape {x.shape}, expected {expected}")
    if not np.isfinite(x).all():
        raise DomainError("samples contain non-finite values")
    return x


def as_labels(values, n: int | None = None) -> np.ndarray:
    """`values` as an int8 (n,) array of 0/1 labels or decisions, of length n
    if one is given: the one check of every label vector the package takes.
    Another shape raises ShapeError; a value that is not exactly 0 or 1,
    judged as given (256 or 0.7 is refused, not cast to 0), raises DomainError."""
    expected = f"({'n' if n is None else n},)"
    try:
        v = np.asarray(values)
    except ValueError as exc:
        raise ShapeError(f"labels are ragged, expected {expected}: {exc}") from None
    if v.ndim != 1 or (n is not None and v.shape[0] != n):
        raise ShapeError(f"labels have shape {v.shape}, expected {expected}")
    if not ((v == 0) | (v == 1)).all():
        raise DomainError("labels must be 0 (normal) or 1 (anomalous)")
    return v.astype(np.int8, copy=False)


def covariance(rows) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate mean and sample covariance (divisor n-1).

    The returned matrix is exactly symmetric: the upper triangle is computed
    and mirrored, so cov[i, j] == cov[j, i] holds bit-for-bit.
    """
    x = as_matrix(rows)
    n, d = x.shape
    if n < 2:
        raise DataError(f"covariance needs >= 2 rows, got {n}")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = (xc.T @ xc) / (n - 1)
    iu, ju = np.triu_indices(d, k=1)
    cov[ju, iu] = cov[iu, ju]
    return mean, cov


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular L with (A + jitter*I) = L @ L.T."""

    lower: np.ndarray
    jitter: float = 0.0


def _factor_lower(a: np.ndarray) -> np.ndarray | None:
    """Plain Cholesky; returns None if any pivot is not strictly positive."""
    d = a.shape[0]
    lower = np.zeros_like(a)
    for j in range(d):
        pivot = a[j, j] - np.dot(lower[j, :j], lower[j, :j])
        if not (pivot > 0.0 and np.isfinite(pivot)):
            return None
        lower[j, j] = math.sqrt(pivot)
        if j + 1 < d:
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def cholesky(a) -> CholeskyFactor:
    """Cholesky factorization with escalating diagonal jitter.

    The unjittered matrix is tried first. On failure, jitter starts at
    1e-10 * trace/d, escalates by factors of 10, and gives up past the cap
    1e-3 * trace/d. A matrix whose trace is not positive cannot be positive
    definite, so it fails immediately. Failure raises NumericError; the only
    matrices factored here are residual covariances, so its message says so.
    """
    a = as_matrix(a)
    d = a.shape[0]
    if a.shape[1] != d:
        raise ShapeError(f"matrix is {a.shape}, expected square")
    if d > 0 and np.abs(a - a.T).max() > 1e-9:
        raise ShapeError("matrix is not symmetric within 1e-9")

    lower = _factor_lower(a)
    if lower is not None:
        return CholeskyFactor(lower=lower, jitter=0.0)

    scale = float(np.trace(a)) / d if d > 0 else 0.0
    cap = JITTER_CAP_FACTOR * scale
    if cap <= 0.0:
        raise NumericError("covariance is not positive definite: its trace is not positive")
    j = JITTER_BASE_FACTOR * scale
    eye = np.eye(d)
    while j <= cap:
        lower = _factor_lower(a + j * eye)
        if lower is not None:
            return CholeskyFactor(lower=lower, jitter=j)
        j *= 10.0
    raise NumericError(f"covariance is not positive definite: factorization failed at jitter cap {cap:g}")


def leading_sums(m: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, one row at a time from the first: the sum of
    a (d, n) matrix's column is bit-identical alone or inside any batch."""
    acc = m[0].copy()
    for row in m[1:]:
        acc += row
    return acc


def solve_spd(factor: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """Solve (L @ L.T) x = b by forward then back substitution.

    `b` is one float64 right-hand side (d,) or one per column (d, n), as in
    `np.linalg.solve`; the caller has checked it, and the result has its shape.
    Each step subtracts one term at a time with elementwise operations only, so
    a column's solution is bit-identical alone or inside any batch.
    """
    lower, d = factor.lower, len(factor.lower)
    x = np.array(b)  # row i holds coordinate i of every right-hand side
    for i in range(d):  # forward: L y = b, y overwrites b
        for k in range(i):
            x[i] -= lower[i, k] * x[k]
        x[i] /= lower[i, i]
    for i in range(d - 1, -1, -1):  # back: L.T x = y, x overwrites y
        for k in range(i + 1, d):
            x[i] -= lower[k, i] * x[k]
        x[i] /= lower[i, i]
    return x


def order_statistic(values, p: float) -> float:
    """The sorted value at rank ceil(p/100 * (n-1)), never interpolated: at most
    n-1-ceil(p/100 * (n-1)) values lie above it, ties or not. p=0 gives the
    minimum, p=100 the maximum. Calibration and report summaries both use it."""
    if not 0.0 <= p <= 100.0:
        raise DomainError(f"order statistic p={p} outside [0, 100]")
    s = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if s.size == 0:
        raise DataError("order statistic of an empty list")
    if not np.isfinite(s).all():
        raise DomainError("order statistic input contains non-finite values")
    return float(s[math.ceil((p / 100.0) * (s.size - 1))])
