"""Exception hierarchy shared by every stage.

Each class carries the process exit code the CLI maps it to:
2 = configuration, 3 = data, 4 = numeric/degeneracy.
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
    exit_code = 3


class SchemaError(DataError):
    """CSV header does not match the documented column layout."""


class ParseError(DataError):
    """A data cell could not be parsed; message cites the row."""


class InsufficientDataError(DataError):
    """Operation needs more samples than were provided."""


class StratificationError(DataError):
    """A class is too small to split or fold as requested."""


class MissingLabelsError(DataError):
    """Labels required but absent."""


class NumericError(ToolkitError):
    exit_code = 4


class ShapeError(NumericError):
    """Dimension or shape mismatch."""


class DomainError(NumericError):
    """Argument outside its mathematical domain."""


class NotPositiveDefiniteError(NumericError):
    """Factorization failed even at the jitter cap."""


class DegenerateResidualsError(NumericError):
    """Reconstruction residuals have no usable covariance."""


class DegenerateLabelsError(NumericError):
    """Training data contains a single class."""


class UndefinedAurocError(NumericError):
    """AUROC requested with only one class present."""


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


def write_atomic(path, content) -> None:
    """Write `content`, a string or an iterable of string chunks, to `path` in
    UTF-8 with no newline translation. The text goes to a temporary file in the
    same directory, which then replaces `path` in one rename: a reader, or the
    next stage after a crash, sees the old file or the whole new one, never a
    part. If anything raises, the temporary file is removed and `path` is left
    as it was. (A rename is atomic against a killed process, not a power cut:
    nothing is fsynced.)"""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
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
