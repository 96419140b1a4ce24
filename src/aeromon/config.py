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
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .autoencoder import TrainConfig
from .baselines import CLASSIFIER_KINDS, ClassifierConfig
from .anomaly import POLICY_KINDS, ThresholdPolicy
from .dataset import SynthConfig
from .errors import ConfigError
from .numerics import derive_seed

SOURCES = ("synthetic", "csv")

# key -> (type, default); grids are comma-separated numbers in the file
_SCHEMA: dict[str, tuple[str, object]] = {
    "source": ("choice:synthetic,csv", "synthetic"),
    "csv_path": ("str", ""),
    "out_dir": ("str", "aeromon_out"),
    "seed": ("int", 0),
    "test_fraction": ("float", 0.10),
    "ae_val_fraction": ("float", 0.10),
    "synth_n_samples": ("int", 20000),
    "synth_anomaly_fraction": ("float", 0.40),
    "synth_oat_low": ("float", -5.0),
    "synth_oat_high": ("float", 35.0),
    "synth_demand_low": ("float", 0.30),
    "synth_demand_high": ("float", 1.00),
    "synth_torque_severity": ("float", 1.0),
    "synth_mgt_severity": ("float", 1.0),
    "synth_coupling_severity": ("float", 1.0),
    "synth_coupling_gap": ("float", 0.10),
    "ae_max_epochs": ("int", 200),
    "ae_batch_size": ("int", 1024),
    "ae_learning_rate": ("float", 1e-3),
    "ae_early_stop_patience": ("int", 25),
    "ae_plateau_patience": ("int", 20),
    "ae_plateau_factor": ("float", 0.2),
    "ae_min_lr": ("float", 1e-6),
    "threshold_policy": ("choice:" + ",".join(POLICY_KINDS), "mahalanobis"),
    "threshold_percentile": ("float", 85.0),
    "baseline_kinds": ("str", ",".join(CLASSIFIER_KINDS)),
    "cv_folds": ("int", 5),
    "logreg_l2_grid": ("grid_float", "0,0.01,0.1,1"),
    "logreg_learning_rate": ("float", 2.0),
    "logreg_epochs": ("int", 600),
    "knn_k_grid": ("grid_int", "5"),
    "tree_max_depth": ("int", 0),  # 0 = unbounded
    "tree_min_leaf": ("int", 1),
    "forest_n_trees": ("int", 100),
    "forest_features_per_split": ("int", 3),
    "forest_max_depth": ("int", 0),
    "forest_min_leaf": ("int", 1),
    "forest_bootstrap": ("bool", True),
    "mlp_hidden_units": ("int", 8),
    "mlp_learning_rate": ("float", 0.01),
    "mlp_epochs": ("int", 120),
    "mlp_batch_size": ("int", 256),
    "histogram_bins": ("int", 50),
}



class BaselineKeys(NamedTuple):
    """Where one baseline kind's ClassifierConfig fields come from."""

    fields: dict  # ClassifierConfig field -> config key
    grid_field: str | None = None  # the field that takes one candidate per grid value
    grid_key: str | None = None


BASELINE_KEYS = {
    "logreg": BaselineKeys(
        {"learning_rate": "logreg_learning_rate", "epochs": "logreg_epochs"}, "l2_strength", "logreg_l2_grid"
    ),
    "gaussian_nb": BaselineKeys({}),
    "knn": BaselineKeys({}, "k", "knn_k_grid"),
    "decision_tree": BaselineKeys({"max_depth": "tree_max_depth", "min_leaf": "tree_min_leaf"}),
    "random_forest": BaselineKeys(
        {
            "n_trees": "forest_n_trees",
            "features_per_split": "forest_features_per_split",
            "max_depth": "forest_max_depth",
            "min_leaf": "forest_min_leaf",
            "bootstrap": "forest_bootstrap",
        }
    ),
    "mlp": BaselineKeys(
        {
            "hidden_units": "mlp_hidden_units",
            "learning_rate": "mlp_learning_rate",
            "epochs": "mlp_epochs",
            "batch_size": "mlp_batch_size",
        }
    ),
}


def classifier_fields(values: dict) -> dict:
    """ClassifierConfig keyword arguments; a max_depth of 0 means unbounded (None)."""
    if values.get("max_depth") == 0:
        return {**values, "max_depth": None}
    return values


# stage indexes for deriving per-stage seeds from the config seed
STAGE_GENERATE = 11
STAGE_SPLIT = 12
STAGE_AE = 13
STAGE_BASELINE_BASE = 20


def _coerce(key: str, kind: str, value):
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"'{key}' must be an integer, got {value!r}")
        return value
    if kind == "float":
        # the bound also rejects NaN, +-inf and integers too large for a float
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
            raise ConfigError(f"'{key}' must be a finite number, got {value!r}")
        return float(value)
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"'{key}' must be true or false, got {value!r}")
        return value
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"'{key}' must be a string, got {value!r}")
        return value
    if kind.startswith("choice:"):
        choices = kind.split(":", 1)[1].split(",")
        if value not in choices:
            raise ConfigError(f"'{key}' must be one of {choices}, got {value!r}")
        return value
    if kind in ("grid_float", "grid_int"):
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
        return value  # keep the raw string; parsed via grid accessors
    raise ConfigError(f"internal: unknown schema type {kind}")


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved configuration; `resolved` is the full flat dict (defaults
    applied) that the run manifest hashes."""

    resolved: dict = field(repr=False)

    def __getitem__(self, key: str):
        return self.resolved[key]

    @property
    def seed(self) -> int:
        return self.resolved["seed"]

    @property
    def source(self) -> str:
        return self.resolved["source"]

    @property
    def out_dir(self) -> str:
        return self.resolved["out_dir"]

    def grid(self, key: str) -> list:
        kind = _SCHEMA[key][0]
        cast = int if kind == "grid_int" else float
        return [cast(t.strip()) for t in self.resolved[key].split(",") if t.strip()]

    def baseline_kinds(self) -> list[str]:
        kinds = [t.strip() for t in self.resolved["baseline_kinds"].split(",") if t.strip()]
        for k in kinds:
            if k not in CLASSIFIER_KINDS:
                raise ConfigError(f"unknown baseline kind '{k}'")
        if len(set(kinds)) != len(kinds):
            raise ConfigError("baseline_kinds lists a kind twice")
        return kinds

    def synth_config(self) -> SynthConfig:
        r = self.resolved
        return SynthConfig(
            n_samples=r["synth_n_samples"],
            anomaly_fraction=r["synth_anomaly_fraction"],
            seed=derive_seed(self.seed, STAGE_GENERATE),
            oat_low=r["synth_oat_low"],
            oat_high=r["synth_oat_high"],
            demand_low=r["synth_demand_low"],
            demand_high=r["synth_demand_high"],
            torque_severity=r["synth_torque_severity"],
            mgt_severity=r["synth_mgt_severity"],
            coupling_severity=r["synth_coupling_severity"],
            coupling_gap=r["synth_coupling_gap"],
        )

    def train_config(self) -> TrainConfig:
        r = self.resolved
        return TrainConfig(
            max_epochs=r["ae_max_epochs"],
            batch_size=r["ae_batch_size"],
            learning_rate=r["ae_learning_rate"],
            early_stop_patience=r["ae_early_stop_patience"],
            plateau_patience=r["ae_plateau_patience"],
            plateau_factor=r["ae_plateau_factor"],
            min_lr=r["ae_min_lr"],
            seed=derive_seed(self.seed, STAGE_AE),
        )

    def threshold_policy(self) -> ThresholdPolicy:
        return ThresholdPolicy(self.resolved["threshold_policy"], self.resolved["threshold_percentile"])

    def baseline_candidates(self, kind: str) -> list[ClassifierConfig]:
        if kind not in BASELINE_KEYS:
            raise ConfigError(f"unknown baseline kind '{kind}'")
        keys = BASELINE_KEYS[kind]
        fields = classifier_fields({name: self.resolved[key] for name, key in keys.fields.items()})
        if keys.grid_field is None:
            return [ClassifierConfig(kind, **fields)]
        return [ClassifierConfig(kind, **fields, **{keys.grid_field: v}) for v in self.grid(keys.grid_key)]

    def config_hash(self) -> str:
        canonical = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
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
        if key not in _SCHEMA:
            raise ConfigError(f"unknown override '{key}'")
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

    if not 0.0 < resolved["test_fraction"] < 1.0:
        raise ConfigError("test_fraction must lie in (0, 1)")
    if not 0.0 <= resolved["ae_val_fraction"] < 1.0:
        raise ConfigError("ae_val_fraction must lie in [0, 1)")
    if not 0.0 < resolved["threshold_percentile"] < 100.0:
        raise ConfigError("threshold_percentile must lie in (0, 100)")
    if resolved["cv_folds"] < 2:
        raise ConfigError("cv_folds must be >= 2")
    if resolved["histogram_bins"] < 2:
        raise ConfigError("histogram_bins must be >= 2")

    cfg = PipelineConfig(resolved=resolved)
    cfg.baseline_kinds()  # validates the kind list eagerly
    return cfg


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return resolve_config(raw, overrides)


def default_config(overrides: dict | None = None) -> PipelineConfig:
    return resolve_config({}, overrides)
