"""Flat, typed pipeline configuration with strict schema validation.

The config file is a single-level JSON object. Unknown keys are rejected,
every value is type-checked, and grid-valued keys (comma-separated in the
file) expand into hyperparameter candidate lists. All randomness flows from
the `seed` field; nothing defaults to wall-clock time.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

from .autoencoder import TrainConfig
from .baselines import _KINDS, CLASSIFIER_KINDS, BaselineConfig
from .anomaly import POLICY_KINDS, ThresholdPolicy
from .dataset import N_CHANNELS, SynthConfig
from .errors import VALUE_TYPES, ConfigError, DomainError
from .numerics import derive_seed


# baseline kind -> the prefix of its keys; each key is the prefix plus a field of the kind's config class
_BASELINE_PREFIXES = {
    "logreg": "logreg_",
    "gaussian_nb": "gaussian_nb_",
    "knn": "knn_",
    "decision_tree": "tree_",
    "random_forest": "forest_",
    "mlp": "mlp_",
}
# baseline kind -> (the field that takes one candidate per grid value, the grid key)
BASELINE_GRIDS = {"logreg": ("l2_strength", "logreg_l2_grid"), "knn": ("k", "knn_k_grid")}


def _section_schema(prefix: str, cls) -> dict[str, tuple[str, object]]:
    """One key per dataclass field: prefix + name, its annotated type, its default. `seed` is
    derived from the config seed and a baseline's grid field from its grid key, so neither has a key."""
    derived = {"seed", *(grid_field for grid_field, _ in BASELINE_GRIDS.values())}
    return {prefix + f.name: (f.type, f.default) for f in fields(cls) if f.name not in derived}


# key -> (type, default); grids are comma-separated numbers in the file
_SCHEMA: dict[str, tuple[str, object]] = {
    "source": ("choice:synthetic,csv", "synthetic"),
    "csv_path": ("str", ""),
    "out_dir": ("str", "aeromon_out"),
    "seed": ("int", 0),
    "test_fraction": ("float", 0.10),
    "ae_val_fraction": ("float", 0.10),
    **_section_schema("synth_", SynthConfig),
    **_section_schema("ae_", TrainConfig),
    "threshold_policy": ("choice:" + ",".join(POLICY_KINDS), "mahalanobis"),
    "threshold_percentile": ("float", 85.0),
    "baseline_kinds": ("str", ",".join(CLASSIFIER_KINDS)),
    "cv_folds": ("int", 5),
    "logreg_l2_grid": ("grid_float", "0,0.01,0.1,1"),
    "knn_k_grid": ("grid_int", "5"),
    **{key: spec for kind, prefix in _BASELINE_PREFIXES.items()
       for key, spec in _section_schema(prefix, _KINDS[kind].config).items()},
    "histogram_bins": ("int", 50),
}

# stage indexes for deriving per-stage seeds from the config seed
STAGE_GENERATE = 11
STAGE_SPLIT = 12
STAGE_AE = 13
STAGE_BASELINE_BASE = 20


def _parse_grid(key: str, kind: str, value) -> list:
    """The numbers of a comma-separated grid string; empty entries are skipped."""
    if not isinstance(value, str):
        raise ConfigError(f"'{key}' must be a comma-separated string, got {value!r}")
    out = []
    for token in value.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(int(token) if kind == "grid_int" else float(token))
        except ValueError:
            raise ConfigError(f"'{key}' has a non-numeric entry '{token}'") from None
        if not math.isfinite(out[-1]):
            raise ConfigError(f"'{key}' has a non-finite entry '{token}'")
    if not out:
        raise ConfigError(f"'{key}' must name at least one value")
    return out


def _coerce(key: str, kind: str, value):
    if kind.startswith("choice:"):
        choices = kind.split(":", 1)[1].split(",")
        if value not in choices:
            raise ConfigError(f"'{key}' must be one of {choices}, got {value!r}")
        return value
    if kind in ("grid_float", "grid_int"):
        _parse_grid(key, kind, value)
        return value  # keep the raw string; baseline_candidates parses it
    has_type, wording = VALUE_TYPES[kind]
    # the bound also rejects NaN, +-inf and integers too large for a float
    if not has_type(value) or kind == "float" and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"'{key}' must be {wording}, got {value!r}")
    return float(value) if kind == "float" else value


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved configuration; `resolved` is the full flat dict (defaults
    applied) that the run manifest hashes."""

    resolved: dict = field(repr=False)

    def __getitem__(self, key: str):
        return self.resolved[key]

    def baseline_kinds(self) -> list[str]:
        kinds = [t.strip() for t in self.resolved["baseline_kinds"].split(",") if t.strip()]
        for k in kinds:
            if k not in CLASSIFIER_KINDS:
                raise ConfigError(f"unknown baseline kind '{k}'")
        if len(set(kinds)) != len(kinds):
            raise ConfigError("baseline_kinds lists a kind twice")
        return kinds

    def _section(self, prefix: str, cls, **fixed):
        """`cls` built from every key that is `prefix` plus one of its field names."""
        values = {f.name: self.resolved[prefix + f.name] for f in fields(cls) if prefix + f.name in self.resolved}
        return cls(**{**values, **fixed})

    def synth_config(self) -> SynthConfig:
        return self._section("synth_", SynthConfig, seed=derive_seed(self.resolved["seed"], STAGE_GENERATE))

    def train_config(self) -> TrainConfig:
        return self._section("ae_", TrainConfig, seed=derive_seed(self.resolved["seed"], STAGE_AE))

    def threshold_policy(self) -> ThresholdPolicy:
        return ThresholdPolicy(self.resolved["threshold_policy"], self.resolved["threshold_percentile"])

    def baseline_candidates(self, kind: str) -> list[BaselineConfig]:
        """One config of the kind's class per value of its grid key (one if it has none)."""
        if kind not in _BASELINE_PREFIXES:
            raise ConfigError(f"unknown baseline kind '{kind}'")
        prefix, cls = _BASELINE_PREFIXES[kind], _KINDS[kind].config
        if kind not in BASELINE_GRIDS:
            return [self._section(prefix, cls)]
        grid_field, grid_key = BASELINE_GRIDS[kind]
        values = _parse_grid(grid_key, _SCHEMA[grid_key][0], self.resolved[grid_key])
        return [self._section(prefix, cls, **{grid_field: v}) for v in values]

    def baseline_seed(self, kind: str) -> int:
        """A baseline's training seed, keyed by its kind, so `run` and `train-clf`
        fit a kind alike whatever else `baseline_kinds` lists."""
        return derive_seed(self.resolved["seed"], STAGE_BASELINE_BASE + CLASSIFIER_KINDS.index(kind))

    def config_hash(self) -> str:
        """SHA-256 of the experiment: every resolved key but `out_dir`, so a run
        hashes the same whichever directory it writes to."""
        experiment = {k: v for k, v in self.resolved.items() if k != "out_dir"}
        canonical = json.dumps(experiment, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def resolve_config(raw: dict, overrides: dict | None = None) -> PipelineConfig:
    """Validate a raw flat dict against the schema and apply CLI overrides.

    Exactly one data source may be configured: a csv_path together with any
    explicitly-set synth_* key is rejected, as is source="csv" without a
    csv_path.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")

    resolved = {}
    for key, (kind, default) in _SCHEMA.items():
        value = raw[key] if key in raw else default
        resolved[key] = _coerce(key, kind, value)

    for key, value in (overrides or {}).items():
        resolved[key] = _coerce(key, _SCHEMA[key][0], value)

    explicit = set(raw)
    synth_keys = {k for k in explicit if k.startswith("synth_")}
    if resolved["source"] == "csv":
        if not resolved["csv_path"]:
            raise ConfigError("source is 'csv' but csv_path is empty")
        if synth_keys:
            raise ConfigError(f"both csv and synthetic sources configured: {sorted(synth_keys)}")
    else:
        if "csv_path" in explicit and raw["csv_path"]:
            raise ConfigError("both csv and synthetic sources configured: csv_path is set")

    for key in ("test_fraction", "ae_val_fraction"):
        if not 0.0 < resolved[key] < 1.0:
            raise ConfigError(f"{key} must lie in (0, 1)")
    if resolved["cv_folds"] < 2:
        raise ConfigError("cv_folds must be >= 2")
    if resolved["histogram_bins"] < 2:
        raise ConfigError("histogram_bins must be >= 2")
    if resolved["forest_features_per_split"] > N_CHANNELS:
        raise ConfigError(f"forest_features_per_split must be <= {N_CHANNELS}, the telemetry channel count")

    cfg = PipelineConfig(resolved=resolved)
    cfg.baseline_kinds()  # validates the kind list eagerly
    # build every section once, so an out-of-range value fails here and not mid-run
    sections = {"synth_*": cfg.synth_config, "ae_*": cfg.train_config, "threshold_*": cfg.threshold_policy}
    sections.update({f"{kind} baseline": partial(cfg.baseline_candidates, kind) for kind in CLASSIFIER_KINDS})
    for keys, build in sections.items():
        try:
            build()
        except DomainError as exc:
            raise ConfigError(f"{keys} keys: {exc}") from None
    return cfg


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: a JSON error or a UnicodeDecodeError
        raise ConfigError(f"config file {path} is not found, not readable or not valid JSON: {exc}") from None
    return resolve_config(raw, overrides)


def default_config(overrides: dict | None = None) -> PipelineConfig:
    return resolve_config({}, overrides)
