"""Reconstruction-error anomaly scoring with percentile-calibrated thresholds.

A trained reconstruction network plus a normals-fitted scaler become a
classifier: score each sample by reconstruction MSE or by the Mahalanobis
distance of its residual from the healthy residual distribution, then flag
scores strictly above the p-th percentile of the healthy training scores,
taken as the order statistic at rank ceil(p/100 * (n-1)) (`order_statistic`), so
between (100-p)% - 2/n and (100-p)% of tie-free training scores are flagged.

Every call takes an (n, d) matrix of samples. `classify` and `calibrate` score
through one batch kernel, `_score_rows`, built from elementwise operations
only, so a row's score is bit-identical alone or inside any batch, and a
calibration score equals the later classification score.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

# scoring uses `forward_rows`; `forward` stays bound here for bench/tracer.py to patch
from .autoencoder import Network, forward, forward_rows, network_to_dict  # noqa: F401
from .dataset import Dataset, MinMaxScaler
from .errors import DataError, DomainError, read_json_artifact, write_json_artifact
from .numerics import CholeskyFactor, as_matrix, cholesky, covariance, order_statistic, row_sums, solve_spd

SCORER_FORMAT_VERSION = 2

MSE_POLICY = "mse"
MAHALANOBIS_POLICY = "mahalanobis"
POLICY_KINDS = (MSE_POLICY, MAHALANOBIS_POLICY)
SCORE_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class ThresholdPolicy:
    kind: str = MAHALANOBIS_POLICY
    percentile: float = 85.0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise DomainError(f"unknown threshold policy '{self.kind}'")
        if not 0.0 < self.percentile < 100.0:
            raise DomainError("calibration percentile must lie strictly in (0, 100)")


@dataclass(frozen=True)
class ResidualStats:
    """Mean and covariance factor of healthy reconstruction residuals.

    The raw covariance is kept alongside the factor so a serialized scorer
    can be refactored on load into the bit-identical CholeskyFactor (the
    jitter escalation is deterministic in the input matrix).
    """

    mean: np.ndarray
    cov: np.ndarray
    chol: CholeskyFactor
    n_fit: int


def residual(net: Network, x_scaled) -> np.ndarray:
    """r = reconstruction - input, for a scaled batch (n, d)."""
    x = np.asarray(x_scaled, dtype=np.float64)
    return forward_rows(net, x) - x


def score_mse(net: Network, x_scaled) -> np.ndarray:
    """Mean squared residual of every row of a scaled batch (n, d), as an (n,) array."""
    r = residual(net, x_scaled)
    return row_sums(r * r) / r.shape[-1]


def score_mahalanobis(stats: ResidualStats, r) -> np.ndarray:
    """sqrt((r - mean)^T Sigma^{-1} (r - mean)) through the Cholesky solve,
    for every row of a residual batch (n, d), as an (n,) array."""
    centered = np.asarray(r, dtype=np.float64) - stats.mean
    return np.sqrt(np.maximum(row_sums(centered * solve_spd(stats.chol, centered)), 0.0))


def fit_residual_stats(net: Network, x_scaled: np.ndarray) -> ResidualStats:
    """Residual mean and jittered covariance factor over scaled healthy samples (n, d)."""
    n = len(x_scaled)
    if n < 8:
        raise DataError(f"residual statistics need >= 8 samples, got {n}")
    mean, cov = covariance(residual(net, x_scaled))
    return ResidualStats(mean=mean, cov=cov, chol=cholesky(cov), n_fit=n)


@dataclass(frozen=True)
class AnomalyScorer:
    """Self-contained decision rule: network + scaler + threshold (+stats)."""

    net: Network
    scaler: MinMaxScaler
    policy: ThresholdPolicy
    threshold: float
    stats: ResidualStats | None = None

    def __post_init__(self):
        if (self.policy.kind == MAHALANOBIS_POLICY) != (self.stats is not None):
            raise DomainError("residual stats are required exactly for the mahalanobis policy")
        if not math.isfinite(self.threshold):
            raise DomainError("threshold must be finite")


def _score_rows(net: Network, stats: ResidualStats | None, x_scaled: np.ndarray) -> np.ndarray:
    """Scores of an (n, d) scaled batch, Mahalanobis with stats and MSE without, in row
    blocks that keep the temporaries small (the kernel is row-exact, so no score changes)."""
    scores = np.empty(len(x_scaled))
    for i in range(0, len(x_scaled), SCORE_BLOCK_ROWS):
        block = x_scaled[i : i + SCORE_BLOCK_ROWS]
        if stats is None:
            scores[i : i + len(block)] = score_mse(net, block)
        else:
            scores[i : i + len(block)] = score_mahalanobis(stats, residual(net, block))
    return scores


def calibrate(net: Network, scaler: MinMaxScaler, ae_train: Dataset, policy: ThresholdPolicy) -> AnomalyScorer:
    """Score every healthy training sample and set the percentile threshold.

    `ae_train` holds raw (unscaled) samples; the scaler is applied here so
    calibration and classification share one transformation.
    """
    if ae_train.n == 0:
        raise DataError("cannot calibrate on an empty dataset")
    if ae_train.is_labeled and int(ae_train.labels.max(initial=0)) != 0:
        raise DataError("calibration data must contain only normal samples")
    scaled = scaler.transform(as_matrix(ae_train.features, scaler.mins.shape[0]))
    stats = None
    if policy.kind == MAHALANOBIS_POLICY:
        stats = fit_residual_stats(net, scaled)
    scores = _score_rows(net, stats, scaled)
    threshold = order_statistic(scores, policy.percentile)
    return AnomalyScorer(net=net, scaler=scaler, policy=policy, threshold=threshold, stats=stats)


def classify(scorer: AnomalyScorer, x_raw) -> tuple[np.ndarray, np.ndarray]:
    """(labels, scores) arrays for an (n, d) matrix of raw samples: scale,
    reconstruct, score by MSE or Mahalanobis, then anomalous (1) iff
    score > threshold, so a tie is normal (0). Non-finite samples raise DomainError."""
    x = as_matrix(x_raw, scorer.scaler.mins.shape[0])
    scores = _score_rows(scorer.net, scorer.stats, scorer.scaler.transform(x))
    return (scores > scorer.threshold).astype(np.int8), scores


def _network_sha256(net: Network) -> str:
    """First 16 hex digits of the sha256 of the text `save_network` writes for `net`."""
    return hashlib.sha256(json.dumps(network_to_dict(net), sort_keys=True).encode()).hexdigest()[:16]


def scorer_to_dict(scorer: AnomalyScorer) -> dict:
    d = {
        "format_version": SCORER_FORMAT_VERSION,
        "policy": scorer.policy.kind,
        "percentile": scorer.policy.percentile,
        "threshold": scorer.threshold,
        "network_sha256": _network_sha256(scorer.net),
        "scaler": scorer.scaler.to_dict(),
        "residual_mean": None,
        "residual_cov": None,
        "residual_jitter": None,
        "n_fit": None,
    }
    if scorer.stats is not None:
        d["residual_mean"] = [float(v) for v in scorer.stats.mean]
        d["residual_cov"] = [float(v) for v in scorer.stats.cov.ravel(order="C")]
        d["residual_jitter"] = scorer.stats.chol.jitter
        d["n_fit"] = scorer.stats.n_fit
    return d


def save_scorer(scorer: AnomalyScorer, path) -> None:
    write_json_artifact(path, scorer_to_dict(scorer))


def load_scorer(path, net: Network) -> AnomalyScorer:
    """Rebuild a scorer around `net`, the network it was calibrated on. An
    unreadable file, a missing key, an array of the wrong size, a value out of
    range or a `network_sha256` that is not `net`'s raises DataError."""
    return read_json_artifact(path, lambda d: _scorer_from_dict(d, net))


def _scorer_from_dict(d: dict, net: Network) -> AnomalyScorer:
    if d.get("format_version") != SCORER_FORMAT_VERSION:
        raise DataError(f"unsupported scorer format version {d.get('format_version')!r}")
    if d["network_sha256"] != _network_sha256(net):
        raise DataError("calibrated on another network; rerun calibrate")
    scaler = MinMaxScaler.from_dict(d["scaler"])
    policy = ThresholdPolicy(kind=d["policy"], percentile=d["percentile"])
    threshold = float(d["threshold"])
    stats = None
    if policy.kind == MAHALANOBIS_POLICY:
        dim = net.out_dim
        mean = np.array(d["residual_mean"], dtype=np.float64).reshape(dim)
        cov = np.array(d["residual_cov"], dtype=np.float64).reshape(dim, dim)
        stats = ResidualStats(mean=mean, cov=cov, chol=cholesky(cov), n_fit=int(d["n_fit"]))
    if scaler.mins.shape != (net.in_dim,):
        raise DataError(f"scorer scaler has {scaler.mins.shape[0]} channels, network expects {net.in_dim}")
    return AnomalyScorer(net=net, scaler=scaler, policy=policy, threshold=threshold, stats=stats)
