"""Deterministic small-scale linear algebra, statistics, and random numbers.

Everything is double precision. Matrices are C-order (row-major) float64
ndarrays. All functions are pure; results are bit-identical across platforms
for identical inputs, which is what makes whole pipeline runs replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InsufficientDataError,
    NotPositiveDefiniteError,
    ShapeError,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Diagonal loading used by cholesky(): escalation starts at 1e-10 * trace/d
# (unless the caller supplies a start) and is capped at 1e-3 * trace/d.
JITTER_BASE_FACTOR = 1e-10
JITTER_CAP_FACTOR = 1e-3


def _splitmix64(x: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (advanced state, output)."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x, (z ^ (z >> 31)) & _MASK64


_SM_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MUL2 = np.uint64(0x94D049BB133111EB)


def _splitmix64_block(key: int, n: int) -> np.ndarray:
    """The first n SplitMix64 outputs of state `key`, as one uint64 array.

    Output k equals the k-th output of the scalar `_splitmix64` loop started
    at `key`, bit for bit: state k is key + (k+1) * golden (mod 2**64), and
    uint64 array arithmetic wraps exactly like the masked integer steps. The
    mix is a bijection, so the n outputs are distinct for n <= 2**64.
    """
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(key & _MASK64)
    z ^= z >> np.uint64(30)
    z *= _SM_MUL1
    z ^= z >> np.uint64(27)
    z *= _SM_MUL2
    z ^= z >> np.uint64(31)
    return z


def derive_seed(seed: int, index: int) -> int:
    """Stable child seed for stage / tree / fold streams.

    Mixing (seed, index) through SplitMix64 keeps child streams decorrelated
    even for consecutive indices.
    """
    x = (seed ^ (((index + 1) * _GOLDEN) & _MASK64)) & _MASK64
    _, out = _splitmix64(x)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256** generator, seeded through SplitMix64.

    The 256-bit state is filled with four successive SplitMix64 outputs of
    the 64-bit seed, so every seed is valid. Equal seeds produce bit-identical
    streams on every platform.

    Bulk draws (`permutation`, `shuffle`, `integers`) take one `next_u64` per
    block as a key and expand it into a SplitMix64 block with numpy, a
    counter-based scheme in the manner of Salmon et al. (SC'11), so their cost
    in Python calls does not grow with the number of elements.
    """

    __slots__ = ("seed", "_s", "_spare_normal")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        state = []
        x = self.seed
        for _ in range(4):
            x, out = _splitmix64(x)
            state.append(out)
        if not any(state):
            state[0] = 1  # the all-zero state is the one forbidden state
        self._s = state
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform double in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """Gaussian draw via Box-Muller; the paired value is cached."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
        else:
            u1 = 1.0 - self.random()  # (0, 1]: keeps log() finite
            u2 = self.random()
            r = math.sqrt(-2.0 * math.log(u1))
            z = r * math.cos(2.0 * math.pi * u2)
            self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return mean + std * z

    def randrange(self, n: int) -> int:
        """Unbiased integer in [0, n) via bitmask rejection."""
        if n <= 0:
            raise DomainError("randrange needs n >= 1")
        mask = (1 << (n - 1).bit_length()) - 1 if n > 1 else 0
        while True:
            r = self.next_u64() & mask
            if r < n:
                return r

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random permutation of range(n) as an int64 array:
        the stable argsort of one SplitMix64 block keyed by `next_u64`."""
        return np.argsort(_splitmix64_block(self.next_u64(), n), kind="stable")

    def shuffle(self, seq) -> None:
        """In-place shuffle of a list or 1-d array by one `permutation`."""
        perm = self.permutation(len(seq))
        if isinstance(seq, np.ndarray):
            seq[:] = seq[perm]
        else:
            seq[:] = [seq[i] for i in perm.tolist()]

    def integers(self, n: int, size: int) -> np.ndarray:
        """`size` unbiased int64 values in [0, n): the bitmask rejection of
        `randrange`, applied to whole SplitMix64 blocks (one key each) until
        enough values are accepted."""
        if not 1 <= n <= 2**63:
            raise DomainError(f"integers needs 1 <= n <= 2**63, got {n}")
        mask = np.uint64((1 << (n - 1).bit_length()) - 1)
        out = np.empty(size, dtype=np.int64)
        filled = 0
        while filled < size:
            block = _splitmix64_block(self.next_u64(), size - filled) & mask
            kept = block[block < np.uint64(n)]
            out[filled : filled + kept.size] = kept
            filled += kept.size
        return out

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n) via partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise DomainError(f"cannot sample {k} of {n}")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randrange(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def _as_2d(rows) -> np.ndarray:
    try:
        x = np.asarray(rows, dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise ShapeError(f"rows are ragged or non-numeric: {exc}") from None
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-d row collection, got ndim={x.ndim}")
    return x


def covariance(rows) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate mean and sample covariance (divisor n-1).

    The returned matrix is exactly symmetric: the upper triangle is computed
    and mirrored, so cov[i, j] == cov[j, i] holds bit-for-bit.
    """
    x = _as_2d(rows)
    n, d = x.shape
    if n < 2:
        raise InsufficientDataError(f"covariance needs >= 2 rows, got {n}")
    if not np.isfinite(x).all():
        raise DomainError("covariance input contains non-finite values")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = (xc.T @ xc) / (n - 1)
    iu, ju = np.triu_indices(d, k=1)
    cov[ju, iu] = cov[iu, ju]
    return mean, cov


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular L with (A + jitter*I) = L @ L.T."""

    dim: int
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


def cholesky(a, jitter: float = 0.0) -> CholeskyFactor:
    """Cholesky factorization with escalating diagonal jitter.

    The unjittered matrix is tried first. On failure, jitter starts at
    `jitter` (or 1e-10 * trace/d when `jitter` is 0), escalates by factors
    of 10, and gives up past the cap 1e-3 * trace/d. A matrix whose trace
    is not positive cannot be positive definite, so it fails immediately.
    """
    a = _as_2d(a)
    d = a.shape[0]
    if a.shape[1] != d:
        raise ShapeError(f"matrix is {a.shape}, expected square")
    if d > 0 and np.abs(a - a.T).max() > 1e-9:
        raise ShapeError("matrix is not symmetric within 1e-9")

    lower = _factor_lower(a)
    if lower is not None:
        return CholeskyFactor(dim=d, lower=lower, jitter=0.0)

    scale = float(np.trace(a)) / d if d > 0 else 0.0
    cap = JITTER_CAP_FACTOR * scale
    if cap <= 0.0:
        raise NotPositiveDefiniteError("matrix has non-positive trace; cannot jitter")
    j = jitter if jitter > 0.0 else JITTER_BASE_FACTOR * scale
    eye = np.eye(d)
    while j <= cap:
        lower = _factor_lower(a + j * eye)
        if lower is not None:
            return CholeskyFactor(dim=d, lower=lower, jitter=j)
        j *= 10.0
    raise NotPositiveDefiniteError(f"factorization failed at jitter cap {cap:g}")


def row_sums(m: np.ndarray) -> np.ndarray:
    """Left-to-right sum over the last axis, one column at a time, so a row's
    sum is bit-identical alone or inside any batch."""
    acc = m[..., 0].copy()
    for k in range(1, m.shape[-1]):
        acc += m[..., k]
    return acc


def solve_spd(factor: CholeskyFactor, b) -> np.ndarray:
    """Solve (L @ L.T) x = b by forward then back substitution.

    `b` is one right-hand side (d,) or a batch of rows (n, d); the result has
    the same shape. Each substitution step subtracts one term at a time with
    elementwise operations only, so a row's solution is bit-identical whether
    it is solved alone or inside any batch.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[-1] != factor.dim:
        raise ShapeError(f"rhs has shape {b.shape}, expected ({factor.dim},) or (n, {factor.dim})")
    lower = factor.lower
    x = np.array(b.T)  # row i holds coordinate i of every right-hand side
    for i in range(factor.dim):  # forward: L y = b, y overwrites b
        for k in range(i):
            x[i] -= lower[i, k] * x[k]
        x[i] /= lower[i, i]
    for i in range(factor.dim - 1, -1, -1):  # back: L.T x = y, x overwrites y
        for k in range(i + 1, factor.dim):
            x[i] -= lower[k, i] * x[k]
        x[i] /= lower[i, i]
    return x.T


def percentile(values, p: float) -> float:
    """Percentile by linear interpolation between closest ranks.

    rank = (p/100) * (n-1); the result interpolates between the flanking
    order statistics. p=0 gives the minimum, p=100 the maximum.
    """
    if not 0.0 <= p <= 100.0:
        raise DomainError(f"percentile p={p} outside [0, 100]")
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise InsufficientDataError("percentile of an empty list")
    if not np.isfinite(v).all():
        raise DomainError("percentile input contains non-finite values")
    s = np.sort(v)
    rank = (p / 100.0) * (s.size - 1)
    lo = int(math.floor(rank))
    frac = rank - lo
    if frac == 0.0:
        return float(s[lo])
    return float(s[lo] + frac * (s[lo + 1] - s[lo]))
