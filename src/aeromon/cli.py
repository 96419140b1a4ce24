"""Command-line front end.

Subcommands mirror the pipeline stages and can be run standalone against the
same output directory; `run` executes the whole chain. Exit codes: 0 success,
2 configuration error, 3 data error, 4 numeric/degeneracy error.
"""

from __future__ import annotations

import argparse
import sys

from .baselines import CLASSIFIER_KINDS
from .config import PipelineConfig, default_config, load_config
from .errors import ToolkitError
from .pipeline import run_pipeline, run_stage


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
    p_score.add_argument("--input", dest="input_name", help="feature CSV inside the output directory")

    # no abbreviations: --k, a removed flag, would otherwise be taken for --kind
    p_clf = sub.add_parser("train-clf", allow_abbrev=False, help="train-baselines for one kind, listed or not")
    p_clf.add_argument("--kind", required=True, choices=CLASSIFIER_KINDS)

    sub.add_parser("evaluate", help="evaluate the scorer and every configured baseline on the test set")
    sub.add_parser("compare", help="assemble the per-model comparison CSV")

    p_hist = sub.add_parser("histogram", help="per-channel class-conditional histogram export")
    p_hist.add_argument("--input", dest="input_name", help="labelled CSV inside the output directory")

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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        if args.command == "run":
            run_pipeline(cfg, quiet=args.quiet)
        else:
            inputs = {k: v for k, v in vars(args).items() if k in ("input_name", "kind") and v is not None}
            run_stage(cfg, "ingest" if args.command == "generate" else args.command, args.quiet, **inputs)
        return 0
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
