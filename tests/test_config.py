import argparse
import json

import pytest

from aeromon.baselines import _KINDS, CLASSIFIER_KINDS, ClassifierConfig
from aeromon.cli import _build_parser, _resolve
from aeromon.config import (
    _BASELINE_GRIDS,
    _BASELINE_PREFIXES,
    _SCHEMA,
    baseline_key,
    default_config,
    load_config,
    resolve_config,
)
from aeromon.errors import ConfigError


class TestResolve:
    def test_defaults_fill_every_key(self):
        cfg = default_config()
        assert cfg["source"] == "synthetic"
        assert cfg["synth_n_samples"] == 20000
        assert cfg["threshold_percentile"] == 85.0
        assert cfg.baseline_kinds() == [
            "logreg",
            "gaussian_nb",
            "knn",
            "decision_tree",
            "random_forest",
            "mlp",
        ]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config({"sample_count": 100})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="seed"):
            resolve_config({"seed": "yes"})
        with pytest.raises(ConfigError, match="ae_batch_size"):
            resolve_config({"ae_batch_size": 12.5})
        with pytest.raises(ConfigError, match="forest_bootstrap"):
            resolve_config({"forest_bootstrap": "true"})

    def test_both_sources_rejected(self):
        with pytest.raises(ConfigError, match="both csv and synthetic"):
            resolve_config({"source": "synthetic", "csv_path": "x.csv"})
        with pytest.raises(ConfigError, match="both csv and synthetic"):
            resolve_config({"source": "csv", "csv_path": "x.csv", "synth_n_samples": 500})

    def test_csv_source_needs_path(self):
        with pytest.raises(ConfigError, match="csv_path is empty"):
            resolve_config({"source": "csv"})

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            resolve_config({"test_fraction": 0.0})
        with pytest.raises(ConfigError, match="ae_val_fraction"):
            resolve_config({"ae_val_fraction": 0.0})
        with pytest.raises(ConfigError):
            resolve_config({"threshold_percentile": 100.0})

    def test_grid_parsing(self):
        cfg = resolve_config({"knn_k_grid": "1, 5, 9", "logreg_l2_grid": "0,0.5"})
        assert [c.k for c in cfg.baseline_candidates("knn")] == [1, 5, 9]
        assert [c.l2_strength for c in cfg.baseline_candidates("logreg")] == [0.0, 0.5]
        with pytest.raises(ConfigError):
            resolve_config({"knn_k_grid": "1,a"})

    @pytest.mark.parametrize(
        "grid, error",
        [("1, ,5,", None), ("", "must name at least one value"), (" , ", "must name at least one value"),
         (5, "must be a comma-separated string")],
        ids=["empty_entries_skipped", "empty", "only_separators", "not_a_string"],
    )
    def test_grid_entries(self, grid, error):
        if error is None:
            assert [c.k for c in resolve_config({"knn_k_grid": grid}).baseline_candidates("knn")] == [1, 5]
        else:
            with pytest.raises(ConfigError, match=f"'knn_k_grid' {error}"):
                resolve_config({"knn_k_grid": grid})

    def test_non_finite_numbers_rejected(self, tmp_path):
        for bad in (float("nan"), float("inf"), float("-inf"), 10**400):
            with pytest.raises(ConfigError, match="ae_learning_rate"):
                resolve_config({"ae_learning_rate": bad})
        for grid in ("0,nan", "inf", "0.1,-inf"):
            with pytest.raises(ConfigError, match="logreg_l2_grid"):
                resolve_config({"logreg_l2_grid": grid})
        path = tmp_path / "cfg.json"
        path.write_text('{"synth_mgt_severity": NaN}')
        with pytest.raises(ConfigError, match="synth_mgt_severity"):
            load_config(path)

    def test_bad_baseline_kind(self):
        with pytest.raises(ConfigError, match="svm"):
            resolve_config({"baseline_kinds": "logreg,svm"})
        with pytest.raises(ConfigError, match="twice"):
            resolve_config({"baseline_kinds": "knn,knn"})

    def test_overrides_win(self):
        cfg = resolve_config({"seed": 3}, overrides={"seed": 9, "out_dir": "elsewhere"})
        assert cfg["seed"] == 9
        assert cfg["out_dir"] == "elsewhere"


class TestHash:
    @pytest.mark.invariant
    def test_hash_changes_iff_fields_change(self):
        base = default_config()
        same = default_config()
        assert base.config_hash() == same.config_hash()
        for key, value in (
            ("seed", 1),
            ("synth_n_samples", 1000),
            ("threshold_policy", "mse"),
            ("forest_n_trees", 10),
        ):
            changed = resolve_config({key: value})
            assert changed.config_hash() != base.config_hash(), key

    def test_default_hash_is_pinned(self):
        # the hash run manifests record: a drifted default or derived key moves it
        assert default_config().config_hash() == "6224735890da398ac751f5ee1b65eb663c6e06c9c8ce369a89785fff468c4616"

    def test_explicit_default_hashes_like_implicit(self):
        # writing out a default value is not a config change
        assert resolve_config({"seed": 0}).config_hash() == default_config().config_hash()


class TestLoad:
    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 5, "synth_n_samples": 500}))
        cfg = load_config(path)
        assert cfg["seed"] == 5
        assert cfg["synth_n_samples"] == 500

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_every_stage_key_reaches_its_derived_config(self):
        # a key that validates and hashes but never reaches the code it names
        # silently does nothing when set
        split_keys = {"ae_val_fraction"}  # read by the split stage, not by TrainConfig
        for prefix, derive in (("ae_", "train_config"), ("synth_", "synth_config")):
            keys = [k for k in _SCHEMA if k.startswith(prefix) and k not in split_keys]
            assert keys
            for key in keys:
                kind, value = _SCHEMA[key]
                changed = not value if kind == "bool" else value + 1 if kind == "int" else value * 2
                field = key[len(prefix) :]
                before = getattr(getattr(default_config(), derive)(), field)
                after = getattr(getattr(resolve_config({key: changed}), derive)(), field)
                assert after != before, key

    def test_derived_configs_construct(self):
        cfg = default_config({"synth_n_samples": 500})
        assert cfg.synth_config().n_samples == 500
        assert cfg.train_config().batch_size == 1024
        assert cfg.threshold_policy().kind == "mahalanobis"
        for kind in cfg.baseline_kinds():
            assert cfg.baseline_candidates(kind)
        assert len(cfg.baseline_candidates("logreg")) == 4


class TestBaselineKeys:
    def test_every_kind_table_lists_the_same_kinds(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        kind_flag = next(a for a in sub.choices["train-clf"]._actions if a.dest == "kind")
        assert tuple(kind_flag.choices) == tuple(_BASELINE_PREFIXES) == tuple(_KINDS) == CLASSIFIER_KINDS
        # the order fixes each kind's training seed (PipelineConfig.baseline_seed) in every run
        assert CLASSIFIER_KINDS == ("logreg", "gaussian_nb", "knn", "decision_tree", "random_forest", "mlp")

    def test_train_clf_flags_override_the_kinds_keys(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        # a flag whose dest names no ClassifierConfig field would be dropped silently
        dests = {a.dest for a in sub.choices["train-clf"]._actions} - {"help", "kind"}
        assert dests <= set(ClassifierConfig.__dataclass_fields__)
        args = parser.parse_args(["train-clf", "--kind", "random_forest", "--trees", "5", "--max-depth", "3"])
        assert _resolve(args).baseline_candidates("random_forest") == [
            ClassifierConfig("random_forest", n_trees=5, max_depth=3)
        ]

    def test_table_names_schema_keys_and_config_fields(self):
        # a key under a kind's prefix that names no field would silently miss its model
        fields = set(ClassifierConfig.__dataclass_fields__) - {"kind"}
        for kind, prefix in _BASELINE_PREFIXES.items():
            grid_field, grid_key = _BASELINE_GRIDS.get(kind, (None, None))
            for key in (k for k in _SCHEMA if k.startswith(prefix)):
                assert key == grid_key or key[len(prefix) :] in fields, key
                assert baseline_key(kind, grid_field if key == grid_key else key[len(prefix) :]) == key
            if grid_key is not None:
                assert grid_field in fields and _SCHEMA[grid_key][0].startswith("grid_")

    def test_candidates_read_their_keys(self):
        cfg = default_config(
            {
                "logreg_l2_grid": "0.5,2",
                "logreg_learning_rate": 0.3,
                "logreg_epochs": 9,
                "knn_k_grid": "3,7",
                "tree_max_depth": 4,
                "tree_min_leaf": 2,
                "forest_n_trees": 6,
                "forest_features_per_split": 2,
                "forest_min_leaf": 3,
                "forest_bootstrap": False,
                "mlp_hidden_units": 5,
                "mlp_learning_rate": 0.02,
                "mlp_epochs": 11,
                "mlp_batch_size": 64,
            }
        )
        assert cfg.baseline_candidates("logreg") == [
            ClassifierConfig("logreg", l2_strength=lam, learning_rate=0.3, epochs=9) for lam in (0.5, 2.0)
        ]
        assert cfg.baseline_candidates("gaussian_nb") == [ClassifierConfig("gaussian_nb")]
        assert cfg.baseline_candidates("knn") == [ClassifierConfig("knn", k=3), ClassifierConfig("knn", k=7)]
        assert cfg.baseline_candidates("decision_tree") == [ClassifierConfig("decision_tree", max_depth=4, min_leaf=2)]
        assert cfg.baseline_candidates("random_forest") == [
            ClassifierConfig(
                "random_forest", n_trees=6, features_per_split=2, max_depth=None, min_leaf=3, bootstrap=False
            )
        ]
        assert cfg.baseline_candidates("mlp") == [
            ClassifierConfig("mlp", hidden_units=5, learning_rate=0.02, epochs=11, batch_size=64)
        ]
        assert default_config().baseline_candidates("decision_tree")[0].max_depth is None  # 0 = unbounded
        with pytest.raises(ConfigError):
            cfg.baseline_candidates("svm")
