"""Exception hierarchy shared by every stage.

The CLI exits with the `exit_code` of the error it catches. A caller may
catch one class per exit code: `ConfigError` (2, invalid configuration),
`DataError` (3, a bad input file, artifact or sample count) and
`NumericError` (4, a numeric failure or degeneracy). The message says which
rule was broken. `ShapeError` and `DomainError` are the two `NumericError`s
that `read_json_artifact` (and config resolution) catch by type to re-raise
as data (or config) errors; `ToolkitError` is the common base.
"""

import json
import math
import os
from pathlib import Path


class ToolkitError(Exception):
    exit_code = 1


class ConfigError(ToolkitError):
    """Invalid configuration: bad key, bad type, conflicting sources."""

    exit_code = 2


class DataError(ToolkitError):
    """Bad input: schema, parse, too few samples, missing labels, broken artifact."""

    exit_code = 3


class NumericError(ToolkitError):
    """Numeric failure: a matrix that is not positive definite, a single-class fit, an undefined metric."""

    exit_code = 4


class ShapeError(NumericError):
    """Dimension or shape mismatch."""


class DomainError(NumericError):
    """Argument outside its mathematical domain."""


# the type of a config key or per-kind config field -> (does a value have it, what the value must be).
# A float takes an int, only a bool takes a bool; each user bounds a float to be finite itself.
VALUE_TYPES = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def _finite_float(literal: str) -> float:
    """A JSON number or constant (NaN, Infinity, -Infinity) that must be finite."""
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {literal}")
    return value


def read_json_artifact(path, from_dict):
    """`from_dict` of the JSON object in `path`. An unreadable or unparsable
    file, a non-finite number (NaN, Infinity, or a literal such as 1e999 or a
    400-digit integer that overflows a float), a missing key, or a value of the
    wrong type, size or range (a DataError, DomainError or ShapeError of
    `from_dict`) raises a DataError that names the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return from_dict(json.loads(text, parse_constant=_finite_float, parse_float=_finite_float))
    except (
        OSError, ValueError, OverflowError, KeyError, TypeError, AttributeError, DataError, DomainError, ShapeError
    ) as exc:
        raise DataError(f"cannot load {path}: {type(exc).__name__}: {exc}") from exc


def write_json_artifact(path, payload) -> None:
    """Write `payload` as sorted-key JSON; a NaN or infinity raises DomainError and writes nothing."""
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc
    write_atomic(path, text)


# the temporary file `write_atomic` writes `name` through in process `pid`; `token` is 8 hex digits
_TMP_NAME = ".{name}.{pid}.{token}.tmp"


def remove_unfinished_writes(directory, pid: int) -> None:
    """Remove what unfinished `write_atomic` calls of the dead process `pid` left in `directory`."""
    for tmp in Path(directory).glob(_TMP_NAME.format(name="*", pid=pid, token="????????")):
        tmp.unlink(missing_ok=True)


def write_atomic(path, content) -> None:
    """Write `content`, a string or an iterable of string chunks, to `path` in
    UTF-8 with no newline translation. The text goes to a temporary file in the
    same directory, which then replaces `path` in one rename: a reader, or the
    next stage after a crash, sees the old file or the whole new one, never a
    part. If anything raises, the temporary file is removed and `path` is left
    as it was. (A rename is atomic against a killed process, not a power cut:
    nothing is fsynced.)"""
    path = Path(path)
    tmp = path.with_name(_TMP_NAME.format(name=path.name, pid=os.getpid(), token=os.urandom(4).hex()))
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            if isinstance(content, str):
                fh.write(content)
            else:
                fh.writelines(content)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
