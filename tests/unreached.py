"""Print the statements of src/aeromon that the tier-1 tests never run.

    PYTHONPATH=src python tests/unreached.py [pytest arguments]

Runs pytest in this process (by default with the tier-1 arguments) under a
`sys.settrace` line tracer, with a `sitecustomize.py` on the PYTHONPATH of
every child Python, so the statements that subprocess tests run (those of
`python -m aeromon.cli`, say) count too. A child that ends in `os._exit` or a
signal writes nothing, so its lines do not count.

A statement counts as run when one of its own lines ran: a compound
statement's own lines are the ones before its body (`if x:`, `def f(...):`
with its decorators), a simple statement's are all its lines. Docstrings, and
statements none of whose own lines compile to code (`try:`, say), are left
out. Prints `file:line: source` for each statement that never ran and exits
with pytest's code. Opt-in and outside tier-1: under the tracer the suite
takes about twice as long.
"""

from __future__ import annotations

import ast
import atexit
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "aeromon"
TIER1_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]

# what each child Python runs at start-up: record its lines into the directory {out!r}
_SITECUSTOMIZE = """\
import importlib.util
spec = importlib.util.spec_from_file_location("_aeromon_unreached", {tool!r})
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
tool.record({out!r})
"""


def record(out_dir: str | None = None) -> set[tuple[str, int]]:
    """Trace this process from now on; returns the set of (file, line) of src/aeromon that ran,
    which at exit is also written to `out_dir`, if given, as <pid>.json."""
    ran: set[tuple[str, int]] = set()
    prefix = str(SRC) + os.sep

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    threading.settrace(calls)
    if out_dir is not None:
        atexit.register(lambda: Path(out_dir, f"{os.getpid()}.json").write_text(json.dumps(sorted(ran))))
    return ran


def _code_lines(code) -> set[int]:
    """The lines that some bytecode of `code` or of a code object nested in it is attributed to."""
    found = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            found |= _code_lines(const)
    return found


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def unreached(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """(line, source line) of each statement in `path` none of whose own lines is in `ran`."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    code = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    found = []
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt) or _is_docstring(node, parent):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
            own = set(range(first, last + 1)) & code
            if own and not own & ran:
                found.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(found)


def main(argv: list[str]) -> int:
    import pytest

    with tempfile.TemporaryDirectory(prefix="unreached-") as tmp:
        Path(tmp, "sitecustomize.py").write_text(_SITECUSTOMIZE.format(tool=str(Path(__file__).resolve()), out=tmp))
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [tmp, str(SRC.parent), os.environ.get("PYTHONPATH")]))
        ran = record()
        code = pytest.main(argv or [*TIER1_ARGS, str(SRC.parents[1] / "tests")])
        sys.settrace(None)
        threading.settrace(None)
        for child in Path(tmp).glob("*.json"):
            ran |= {(name, line) for name, line in json.loads(child.read_text())}
    by_file: dict[str, set[int]] = {}
    for name, line in ran:
        by_file.setdefault(os.path.realpath(name), set()).add(line)
    for path in sorted(SRC.glob("*.py")):
        for line, statement in unreached(path, by_file.get(os.path.realpath(path), set())):
            print(f"{path.relative_to(SRC.parents[1])}:{line}: {statement}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
