"""Check that this tree writes the same artifact bytes as a base commit.

    python tests/byte_identical.py [BASE]        # BASE defaults to HEAD~1

The base commit is checked out with `git worktree add` into a temporary
directory. Every case of `golden.py` then runs once under each tree's `src`
and `tests`, each tree in its own child process, and the artifact digests of
the two trees are compared. Unlike `test_golden.py`, this holds on any
machine: both trees run on the same numpy, BLAS and CPU.

Exits 0 if every digest matches. If some differ, prints the differing files
and each tree's `comparison.csv`. A change meant to alter outputs must rewrite
`tests/golden_digests.json`. When the base's record and this tree's share a
fingerprint, the files that differ, case by case, must be exactly those whose
recorded digests the rewrite changed: exit 0 if they are, 1 if not. When the
fingerprints differ, the records cannot be compared digest by digest, and a
rewritten record is enough: exit 0 if this tree changes the file, 1 if not.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = "tests/golden_digests.json"

# run in a child whose sys.path starts with one tree's src and tests; argv[1] is the tree, argv[2] the result file
_CHILD = """
import json, sys, tempfile
from pathlib import Path
import aeromon, golden
tree = Path(sys.argv[1]).resolve()
assert Path(aeromon.__file__).resolve().is_relative_to(tree), f"imported {aeromon.__file__}, not {tree}'s"
results = {}
with tempfile.TemporaryDirectory() as tmp:
    for case in golden.CASES:
        work = Path(tmp) / case
        work.mkdir()
        comparison = work / "out" / "comparison.csv"
        digests = golden.run_case(case, work)
        results[case] = {"digests": digests, "comparison": comparison.read_text() if comparison.exists() else ""}
Path(sys.argv[2]).write_text(json.dumps(results))
"""


def run_cases(tree: Path, result: Path) -> dict:
    """case -> {"digests": artifact name -> sha256, "comparison": comparison.csv text}, run under `tree`."""
    paths = [str(tree / "src"), str(tree / "tests"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    # stdout holds nothing the comparison reads (a base tree may print CV lines); errors go to stderr
    child = [sys.executable, "-c", _CHILD, str(tree), str(result)]
    subprocess.run(child, env=env, cwd=tree, stdout=subprocess.DEVNULL, check=True)
    return json.loads(result.read_text())


def differences(base: dict, head: dict) -> dict:
    """case -> names whose digests differ or that only one tree wrote, for each case that differs."""
    found = {}
    for case in sorted(set(base) | set(head)):
        b, h = (side.get(case, {}).get("digests", {}) for side in (base, head))
        names = sorted(name for name in set(b) | set(h) if b.get(name) != h.get(name))
        if names:
            found[case] = names
    return found


def recorded_differences(base_ref: str) -> dict | None:
    """`differences` between the digests recorded in golden_digests.json at `base_ref` and in
    this tree; None if the base holds no record or the two records hold different fingerprints."""
    shown = subprocess.run(["git", "show", f"{base_ref}:{DIGESTS}"], cwd=ROOT, capture_output=True, text=True)
    if shown.returncode != 0:
        return None
    base, head = json.loads(shown.stdout), json.loads((ROOT / DIGESTS).read_text())
    if base["fingerprint"] != head["fingerprint"]:
        return None
    return differences(*({case: {"digests": d} for case, d in r["cases"].items()} for r in (base, head)))


def main(base_ref: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        worktree = Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(worktree), base_ref], cwd=ROOT, check=True)
        try:
            base = run_cases(worktree, Path(tmp) / "base.json")
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(worktree)], cwd=ROOT, check=True)
        head = run_cases(ROOT, Path(tmp) / "head.json")
    found = differences(base, head)
    for case, names in found.items():
        print(f"{case}: differs from {base_ref} in {', '.join(names)}")
        for side, results in ((base_ref, base), ("this tree", head)):
            print(f"--- comparison.csv of {case} at {side}:\n{results.get(case, {}).get('comparison', '')}")
    recorded = recorded_differences(base_ref)
    if not found and not recorded:
        print(f"every artifact of {len(head)} cases is byte-identical to {base_ref}")
        return 0
    if recorded is not None:
        if found == recorded:
            print(f"{len(head)} cases: the files that differ from {base_ref} are exactly the rewritten digests")
            return 0
        for case in sorted(set(found) | set(recorded)):
            if found.get(case) != recorded.get(case):
                print(f"{case}: files that differ {found.get(case, [])}, digests rewritten {recorded.get(case, [])}")
        print(f"rewrite {DIGESTS} with tests/golden.py so that it changes the digests of exactly the files that differ")
        return 1
    rewritten = subprocess.run(["git", "diff", "--quiet", base_ref, "--", DIGESTS], cwd=ROOT).returncode != 0
    if rewritten:
        print(f"outputs differ and {DIGESTS} is rewritten (the base records none or another fingerprint)")
        return 0
    print(f"outputs differ but {DIGESTS} is unchanged: rewrite it with tests/golden.py if the change is intended")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "HEAD~1"))
