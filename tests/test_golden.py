"""Characterization ("golden master") test: four fixed runs write the bytes
recorded in golden_digests.json. A change that alters any artifact fails here;
one that means to rewrites the file with golden.py. The digests hold only on
the platform they were recorded on, so elsewhere the test skips."""

import json

import pytest

import golden

RECORDED = json.loads(golden.DIGESTS_FILE.read_text())


@pytest.mark.parametrize("case", golden.CASES)
def test_artifacts_match_their_golden_digests(case, tmp_path):
    here = golden.fingerprint()
    differ = [key for key, value in RECORDED["fingerprint"].items() if here[key] != value]
    if differ:
        pytest.skip(f"digests were recorded on another platform: {', '.join(differ)} differ")
    assert golden.run_case(case, tmp_path) == RECORDED["cases"][case]


def test_the_standalone_chain_writes_what_run_writes():
    run = dict(RECORDED["cases"][f"run-seed{golden.CHAIN_SEED}"])
    del run["manifest.json"]  # only run writes a manifest
    chain = dict(RECORDED["cases"][f"chain-seed{golden.CHAIN_SEED}"])
    del chain["scores.csv"]  # only the chain runs score
    assert chain == run
