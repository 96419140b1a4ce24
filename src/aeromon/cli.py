"""Command-line front end.

Subcommands mirror the pipeline stages and can be run standalone against the
same output directory; `run` executes the whole chain. Exit codes: 0 success,
2 configuration error, 3 data error, 4 numeric/degeneracy error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .baselines import CLASSIFIER_KINDS, SUPERVISED_SCALER_FILE, cross_validate, save_model, select_model
from .config import BASELINE_KEYS, PipelineConfig, classifier_fields, default_config, load_config
from .dataset import apply_scaler, load_csv
from .errors import ConfigError, ToolkitError
from .numerics import derive_seed
from .pipeline import _PIPELINE_STAGES, _OutputDir, run_pipeline, stage_histogram, stage_ingest, stage_score

# subcommand -> stage function: pipeline stages keep their names, ingest is `generate`
_STAGE_COMMANDS = dict(_PIPELINE_STAGES, generate=stage_ingest, score=stage_score, histogram=stage_histogram)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aeromon",
        description="Engine-telemetry anomaly detection: reconstruction scorer plus supervised baselines.",
    )
    parser.add_argument("--config", help="path to the flat JSON config (defaults apply if omitted)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the config output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", help="materialize data.csv from the configured source")
    sub.add_parser("split", help="stratified test holdout plus reconstruction training splits")
    sub.add_parser("fit-scalers", help="fit the normals-only and full-train min-max scalers")
    sub.add_parser("train-ae", help="train the reconstruction network (needs fit-scalers)")
    sub.add_parser("calibrate", help="calibrate the anomaly threshold on healthy training scores")

    p_score = sub.add_parser("score", help="score a feature-only CSV (never reads labels)")
    p_score.add_argument("--input", default="test_features.csv", help="feature CSV inside the output directory")

    p_clf = sub.add_parser("train-clf", help="train one supervised baseline standalone")
    p_clf.add_argument("--kind", required=True, choices=CLASSIFIER_KINDS)
    p_clf.add_argument("--cv", action="store_true", help="select over the grid flags by cross-validated F1")
    p_clf.add_argument("--k", default=None, help="k-NN neighbour count (comma grid with --cv)")
    p_clf.add_argument("--l2", default=None, help="logreg L2 strength (comma grid with --cv)")
    p_clf.add_argument("--lr", type=float, default=None, help="learning rate (logreg/mlp)")
    p_clf.add_argument("--epochs", type=int, default=None, help="training epochs (logreg/mlp)")
    p_clf.add_argument("--trees", type=int, default=None, help="forest size")
    p_clf.add_argument("--features-per-split", type=int, default=None)
    p_clf.add_argument("--max-depth", type=int, default=None, help="0 means unbounded")
    p_clf.add_argument("--min-leaf", type=int, default=None)
    p_clf.add_argument("--hidden-units", type=int, default=None)
    p_clf.add_argument("--batch-size", type=int, default=None)

    sub.add_parser("evaluate", help="evaluate the scorer and every configured baseline on the test set")
    sub.add_parser("compare", help="assemble the per-model comparison CSV")

    p_hist = sub.add_parser("histogram", help="per-channel class-conditional histogram export")
    p_hist.add_argument("--input", default="data.csv", help="labelled CSV inside the output directory")

    sub.add_parser("run", help="execute the full pipeline")
    return parser


def _resolve(args) -> PipelineConfig:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.config is not None:
        return load_config(args.config, overrides)
    return default_config(overrides)


def _grid(raw: str | None, default: list, cast):
    if raw is None:
        return default
    try:
        values = [cast(t.strip()) for t in raw.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"invalid grid value {raw!r}") from None
    if not values:
        raise ConfigError("grid flag names no values")
    return values


# train-clf flag -> ClassifierConfig field
_CLF_FLAGS = {
    "lr": "learning_rate",
    "epochs": "epochs",
    "trees": "n_trees",
    "features_per_split": "features_per_split",
    "max_depth": "max_depth",
    "min_leaf": "min_leaf",
    "hidden_units": "hidden_units",
    "batch_size": "batch_size",
}


def _train_clf_command(cfg: PipelineConfig, out: _OutputDir, args) -> None:
    base = cfg.baseline_candidates(args.kind)[0]
    flags = {field: getattr(args, flag) for flag, field in _CLF_FLAGS.items()}
    kw = classifier_fields({field: value for field, value in flags.items() if value is not None})
    grids = {"k": _grid(args.k, [base.k], int), "l2_strength": _grid(args.l2, [base.l2_strength], float)}
    grid_field = BASELINE_KEYS[args.kind].grid_field
    if grid_field is None:
        candidates = [replace(base, **kw)]
    else:
        candidates = [replace(base, **kw, **{grid_field: v}) for v in grids[grid_field]]
    if not args.cv and len(candidates) > 1:
        raise ConfigError("multiple grid values need --cv")

    supervised = load_csv(out.file("supervised_train.csv"), has_labels=True)
    scaled = apply_scaler(out.read_scaler(SUPERVISED_SCALER_FILE), supervised)
    seed = derive_seed(cfg.seed, 90)
    if args.cv:
        for cand in candidates:
            mean_f1, per_fold = cross_validate(cand, scaled, folds=cfg["cv_folds"], seed=seed)
            print(f"{cand.kind} {cand}: mean F1 {mean_f1:.4f} per-fold {[round(f, 4) for f in per_fold]}")
    best, model = select_model(candidates, scaled, seed=seed, folds=cfg["cv_folds"])
    save_model(model, out.file(f"clf_{args.kind}.json"))
    print(f"wrote clf_{args.kind}.json (selected {best})")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        out = _OutputDir(args.out if args.out is not None else cfg.out_dir)
        if args.command == "run":
            manifest = run_pipeline(cfg, out_dir=out.path, quiet=args.quiet)
            if not args.quiet:
                print(f"config hash {manifest.config_hash}")
            return 0
        if args.command == "train-clf":
            _train_clf_command(cfg, out, args)
            return 0
        inputs = {"input_name": args.input} if hasattr(args, "input") else {}
        written = _STAGE_COMMANDS[args.command](cfg, out, **inputs)
        if not args.quiet:
            print(f"wrote {', '.join(written)}")
        return 0
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
