"""Every public function, method and record field of the package has a reader in the package.

API that only the tests use is dead weight: it has to be kept correct and
documented, yet no run of the program uses it. This test parses each module
of `src/aeromon` and fails on any public (no leading underscore) top-level
function or method that nothing in the package refers to outside its own
definition: a function is referred to by a name it is read through or by an
attribute, a method only by an attribute (`obj.method`). It also fails on any
public field of a dataclass or NamedTuple that the package never reads as an
attribute (`obj.field`), and on any error class that neither sets its own exit
code nor is caught by name.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import aeromon
from aeromon.numerics import Rng

SRC = Path(aeromon.__file__).resolve().parent
BENCH_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# "module.name" -> why it may have no caller inside the package
ALLOWED = {
    "cli.main": "the console-script entry point (`[project.scripts]` in pyproject.toml)",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _public_definitions(tree):
    """(qualified name, def node, is method) of every public top-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def _references(modules):
    """(module, line, name, is attribute) of every read name and every attribute in the package."""
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield module, node.lineno, node.id, False
            elif isinstance(node, ast.Attribute):
                yield module, node.lineno, node.attr, True


def _unreferenced(modules):
    refs = list(_references(modules))
    unused = []
    for module, tree in modules.items():
        for qualname, node, is_method in _public_definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name and (attr or not is_method) and not (m == module and line in own)
                for m, line, name, attr in refs
            ):
                unused.append(f"{module}.{qualname}")
    return unused


def _public_fields(tree):
    """(qualified name, field name) of every public field of a dataclass or NamedTuple."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        markers = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list] + node.bases
        if not any(isinstance(m, ast.Name) and m.id in ("dataclass", "NamedTuple") for m in markers):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                if not item.target.id.startswith("_"):
                    yield f"{node.name}.{item.target.id}", item.target.id


def _unread_fields(modules):
    read = {
        node.attr
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{module}.{qualname}"
        for module, tree in modules.items()
        for qualname, name in _public_fields(tree)
        if name not in read
    ]


def test_every_public_field_is_read_in_the_package():
    unread = _unread_fields(_modules())
    assert unread == [], f"record fields that src/aeromon never reads (delete them or read them): {unread}"


def test_detects_a_field_only_tests_read():
    modules = _modules()
    modules["extra"] = ast.parse(
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n\n"
        "@dataclass(frozen=True)\nclass Rec:\n    used: int\n    only_tests: int = 0\n\n"
        "class Pair(NamedTuple):\n    left: int\n    spare: int\n\n"
        "def use(rec, pair, obj):\n    obj.spare = 1\n    return rec.used + pair.left\n"
    )
    unread = set(_unread_fields(modules))
    # an attribute that is only assigned is not a read
    assert {"extra.Rec.only_tests", "extra.Pair.spare"} <= unread
    assert not {"extra.Rec.used", "extra.Pair.left"} & unread


def test_every_public_function_has_a_caller_in_the_package():
    unused = [name for name in _unreferenced(_modules()) if name not in ALLOWED]
    assert unused == [], f"public API with no caller in src/aeromon (delete it or call it): {unused}"


def test_allow_list_names_real_definitions():
    defined = {
        f"{module}.{qualname}" for module, tree in _modules().items() for qualname, _, _ in _public_definitions(tree)
    }
    assert set(ALLOWED) <= defined


def test_detects_a_function_only_tests_call():
    modules = _modules()
    modules["extra"] = ast.parse(
        "def used():\n    return 1\n\n"
        "def only_tests():\n    return used()\n\n"
        "class Box:\n    def peek(self):\n        return self.peek()\n\n"
        "def loop(values):\n    for peek in values:\n        print(peek)\n"
    )
    unused = set(_unreferenced(modules))
    # recursion is not a caller, and a variable named like a method is not a reference to it
    assert {"extra.only_tests", "extra.Box.peek"} <= unused
    assert "extra.used" not in unused


def _name_only_errors(modules):
    """Classes defined in `errors` that neither set their own `exit_code` nor are
    named in an `except` clause of the package: nothing tells them apart from their base."""
    caught = {
        name.id
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        for name in ast.walk(node.type)
        if isinstance(name, ast.Name)
    }
    return [
        node.name
        for node in modules["errors"].body
        if isinstance(node, ast.ClassDef)
        and node.name not in caught
        and not any(
            isinstance(target, ast.Name) and target.id == "exit_code"
            for item in node.body
            if isinstance(item, ast.Assign)
            for target in item.targets
        )
    ]


def test_every_error_class_has_an_exit_code_or_a_catcher():
    extra = _name_only_errors(_modules())
    assert extra == [], f"error classes no code tells apart from their base (raise the base instead): {extra}"


def test_detects_a_name_only_error_class():
    modules = {
        "errors": ast.parse(
            "class Base(Exception):\n    exit_code = 3\n\n"
            "class NameOnly(Base):\n    pass\n\n"
            "class Caught(Base):\n    pass\n"
        ),
        "user": ast.parse("try:\n    pass\nexcept (ValueError, Caught):\n    raise NameOnly('x')\n"),
    }
    assert _name_only_errors(modules) == ["NameOnly"]


def test_bench_trace_targets_resolve():
    """`bench/run.py --trace 1` patches each of its TARGETS by name, and the bench
    tests read `Rng.randrange`: a rename in the package must fail here."""
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH_TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses look their module up here
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    for target in tracer.TARGETS:
        owner = importlib.import_module(f"aeromon.{target.module}")
        *classes, name = target.attr.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name)
        assert callable(vars(owner).get(name)), f"{target.module}.{target.attr}"
    assert callable(vars(Rng).get("randrange"))
