"""Reconstruction-error anomaly scoring with percentile-calibrated thresholds.

A trained reconstruction network plus a normals-fitted scaler become a
classifier: score each sample by reconstruction MSE or by the Mahalanobis
distance of its residual from the healthy residual distribution, then flag
scores strictly above the p-th percentile of the healthy training scores,
taken as the order statistic at rank ceil(p/100 * (n-1)) (`order_statistic`), so
between (100-p)% - 2/n and (100-p)% of tie-free training scores are flagged.

`classify` and `calibrate` take an (n, d) matrix of samples and score it
channel-major: `residual` and `score_residuals`, elementwise operations only,
take a (d, n) batch, so a sample's score is bit-identical alone or inside any
batch, and a calibration score equals the later classification score.
`fit_residual_stats` takes the healthy residuals row-major, (n, d).
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
from .errors import DataError, DomainError, ShapeError, read_json_artifact, write_json_artifact
from .numerics import CholeskyFactor, as_matrix, cholesky, covariance, leading_sums, order_statistic, solve_spd

SCORER_FORMAT_VERSION = 2

MSE_POLICY = "mse"
MAHALANOBIS_POLICY = "mahalanobis"
POLICY_KINDS = (MSE_POLICY, MAHALANOBIS_POLICY)
SCORE_BLOCK_ROWS = 4096  # samples per block: one (7, 4096) temporary is 224 KiB


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


def residual(net: Network, x_scaled: np.ndarray) -> np.ndarray:
    """r = reconstruction - input, for a scaled channel-major batch (d, n)."""
    return forward_rows(net, x_scaled) - x_scaled


def score_residuals(stats: ResidualStats | None, r: np.ndarray) -> np.ndarray:
    """Scores of every column of a residual batch (d, n), as an (n,) array: the
    mean squared residual without stats, else sqrt((r - mean)^T Sigma^{-1} (r - mean))
    through the Cholesky solve."""
    if stats is None:
        return leading_sums(r * r) / r.shape[0]
    centered = r - stats.mean[:, None]
    return np.sqrt(np.maximum(leading_sums(centered * solve_spd(stats.chol, centered)), 0.0))


def fit_residual_stats(r: np.ndarray) -> ResidualStats:
    """Mean and jittered covariance factor of healthy residuals (n, d)."""
    if len(r) < 8:
        raise DataError(f"residual statistics need >= 8 samples, got {len(r)}")
    mean, cov = covariance(r)
    return ResidualStats(mean=mean, cov=cov, chol=cholesky(cov), n_fit=len(r))


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


def _require_scaler_width(scaler: MinMaxScaler, net: Network) -> None:
    if scaler.mins.shape != (net.in_dim,):
        raise ShapeError(f"the scaler scales {scaler.mins.shape[0]} channels, expected (n, {net.in_dim}) samples")


def calibrate(net: Network, scaler: MinMaxScaler, ae_train: Dataset, policy: ThresholdPolicy) -> AnomalyScorer:
    """Score every healthy training sample and set the percentile threshold.

    `ae_train` holds raw (unscaled) samples; the scaler is applied here so
    calibration and classification share one transformation.
    """
    if ae_train.is_labeled and int(ae_train.labels.max(initial=0)) != 0:
        raise DataError("calibration data must contain only normal samples")
    _require_scaler_width(scaler, net)
    r = residual(net, np.ascontiguousarray(scaler.transform(as_matrix(ae_train.features, net.in_dim)).T))
    stats = fit_residual_stats(r.T) if policy.kind == MAHALANOBIS_POLICY else None
    threshold = order_statistic(score_residuals(stats, r), policy.percentile)
    return AnomalyScorer(net=net, scaler=scaler, policy=policy, threshold=threshold, stats=stats)


def classify(scorer: AnomalyScorer, x_raw) -> tuple[np.ndarray, np.ndarray]:
    """(labels, scores) arrays for an (n, d) matrix of raw samples: scale,
    reconstruct, score by MSE or Mahalanobis in blocks of samples that keep the
    temporaries small, then anomalous (1) iff score > threshold, so a tie is
    normal (0). Non-finite samples raise DomainError."""
    x = np.ascontiguousarray(scorer.scaler.transform(as_matrix(x_raw, scorer.scaler.mins.shape[0])).T)
    scores = np.empty(x.shape[1])
    for i in range(0, x.shape[1], SCORE_BLOCK_ROWS):
        block = slice(i, i + SCORE_BLOCK_ROWS)
        scores[block] = score_residuals(scorer.stats, residual(scorer.net, x[:, block]))
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
    _require_scaler_width(scaler, net)
    policy = ThresholdPolicy(kind=d["policy"], percentile=d["percentile"])
    threshold = float(d["threshold"])
    stats = None
    if policy.kind == MAHALANOBIS_POLICY:
        dim = net.out_dim
        mean = np.array(d["residual_mean"], dtype=np.float64).reshape(dim)
        cov = np.array(d["residual_cov"], dtype=np.float64).reshape(dim, dim)
        stats = ResidualStats(mean=mean, cov=cov, chol=cholesky(cov), n_fit=int(d["n_fit"]))
    return AnomalyScorer(net=net, scaler=scaler, policy=policy, threshold=threshold, stats=stats)
