"""Golden digests: the sha256 of every artifact of four fixed runs, and the
platform fingerprint they were recorded on, kept in `golden_digests.json` and
checked by `test_golden.py`. The runs are `run` at n=2000 for seeds 7, 1 and
2, and the standalone command chain at seed 7, which also runs `score` on
the test features. `run_log.csv` holds stage times, so it is not hashed.

A change that is meant to change outputs rewrites the file with

    PYTHONPATH=src python tests/golden.py
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from aeromon.baselines import CLASSIFIER_KINDS
from aeromon.cli import main
from aeromon.config import default_config
from aeromon.pipeline import run_pipeline

DIGESTS_FILE = Path(__file__).with_name("golden_digests.json")
N_SAMPLES = 2000
CHAIN_SEED = 7
CASES = ("run-seed7", "run-seed1", "run-seed2", f"chain-seed{CHAIN_SEED}")
# run's stages as standalone commands: train-clf once per kind stands for train-baselines;
# score, which run does not hold, writes scores.csv
CHAIN = (
    "generate",
    "split",
    "fit-scalers",
    "train-ae",
    "calibrate",
    "score --input test_features.csv",
    *(f"train-clf --kind {kind}" for kind in CLASSIFIER_KINDS),
    "evaluate",
    "compare",
)


def fingerprint() -> dict:
    """What the bytes of a run depend on beyond the code: numpy, its BLAS, the CPU features numpy dispatches on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "cpu_features": sorted(name for name, enabled in __cpu_features__.items() if enabled),
        "machine": platform.machine(),
    }


def run_case(case: str, work: Path) -> dict:
    """Run `case` in the empty directory `work`: artifact name -> sha256 of its bytes."""
    kind, seed = case.split("-seed")
    out = work / "out"
    if kind == "run":
        run_pipeline(default_config({"synth_n_samples": N_SAMPLES, "seed": int(seed)}), out, quiet=True)
    else:
        cfg_file = work / "config.json"
        cfg_file.write_text(json.dumps({"synth_n_samples": N_SAMPLES, "seed": int(seed)}))
        for command in CHAIN:
            assert main(["--config", str(cfg_file), "--out", str(out), "--quiet", *command.split()]) == 0, command
    hashed = sorted(p for p in out.iterdir() if p.name != "run_log.csv")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in hashed}


def rewrite() -> None:
    """Run every case and write its digests, with this platform's fingerprint, to golden_digests.json."""
    with tempfile.TemporaryDirectory() as tmp:
        cases = {}
        for case in CASES:
            (Path(tmp) / case).mkdir()
            cases[case] = run_case(case, Path(tmp) / case)
    record = {"fingerprint": fingerprint(), "cases": cases}
    DIGESTS_FILE.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    rewrite()
