"""Telemetry ingestion, scaling, splitting, and synthetic generation.

A sample is one 7-channel engine snapshot: outside air temperature (oat),
mean gas temperature (mgt), power available (pa), indicated airspeed (ias),
net power (np), compressor speed (cs), and output torque (ot), optionally
labelled normal/anomalous. A Dataset keeps read-only copies of the arrays it
is given, so its values never change once it is built.

`save_csv` formats each row's text once per command: a Dataset keeps its row
text (about 165 bytes a row) from first use while it lives, and its `subset`s,
so `split`'s parts, share those strings.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import DataError, DomainError, write_atomic
from .numerics import Rng, as_labels, as_matrix

CHANNELS = ("oat", "mgt", "pa", "ias", "np", "cs", "ot")
N_CHANNELS = len(CHANNELS)

_LABEL_TOKENS = {"0": 0, "normal": 0, "1": 1, "anomalous": 1}
# characters of a label cell the fast reader keeps; a cell this long or longer is rejected
_LABEL_WIDTH = 16
# one parsed row: the channel values under "x", then the label cell if the file has one
_ROW_DTYPES = {
    False: np.dtype([("x", np.float64, (N_CHANNELS,))]),
    True: np.dtype([("x", np.float64, (N_CHANNELS,)), ("label", f"U{_LABEL_WIDTH}")]),
}


class Label(IntEnum):
    NORMAL = 0
    ANOMALOUS = 1


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d) float64; telemetry has d = 7, in CHANNELS order
    labels: np.ndarray | None = None  # (n,) int8 with Label values

    def __post_init__(self):
        # copies: the checks may return the caller's own array, which stays writeable and cannot change the dataset
        feats = np.array(as_matrix(self.features))
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = np.array(as_labels(self.labels, feats.shape[0]))
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)

    @cached_property
    def _text(self) -> np.ndarray:
        """Each row's channel text, formatted on first use (not a field: never compared or shown)."""
        return _row_text(self.features)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None

    def subset(self, indices) -> "Dataset":
        """The rows `indices` picks, by numpy's rules for positions or a boolean mask; the part shares their text."""
        labels = self.labels[indices] if self.is_labeled else None
        part = Dataset(self.features[indices], labels)
        part.__dict__["_text"] = self._text[indices]
        return part

    def require_labels(self) -> np.ndarray:
        if not self.is_labeled:
            raise DataError("dataset has no labels")
        return self.labels


def _check_header(path: Path, fh, expected: list[str]) -> None:
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise DataError(f"{path}: file is empty") from None
    header = [h.strip().lower() for h in header]
    for i, name in enumerate(expected):
        if i >= len(header):
            raise DataError(f"{path}: missing column '{name}'")
        if header[i] != name:
            raise DataError(f"{path}: expected column '{name}' at position {i + 1}, found '{header[i]}'")
    if len(header) > len(expected):
        raise DataError(f"{path}: unexpected extra column '{header[len(expected)]}'")


def _check_rows(path: Path, has_labels: bool) -> None:
    """Raise the DataError of the first data row that breaks a rule of
    `load_csv`, rows counted as csv records after the header. Only called
    once the fast parse has found a problem; it reports, it builds nothing."""
    n_cells = N_CHANNELS + has_labels
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        for rownum, cells in enumerate(reader, start=1):
            if len(cells) != n_cells:
                raise DataError(f"{path}: row {rownum} has {len(cells)} cells, expected {n_cells}")
            numbers = cells[:N_CHANNELS]
            try:
                values = [float(c) for c in numbers]
            except ValueError:
                raise DataError(f"{path}: row {rownum} contains a non-numeric cell") from None
            # float() also takes digit-group underscores and non-ASCII digits; numpy's parser does not
            if any("_" in c or not c.strip().isascii() for c in numbers):
                raise DataError(f"{path}: row {rownum} contains a non-numeric cell")
            if not all(math.isfinite(v) for v in values):
                raise DataError(f"{path}: row {rownum} contains a non-finite value")
            if has_labels:
                cell = cells[N_CHANNELS]
                if len(cell) >= _LABEL_WIDTH or cell.strip().lower() not in _LABEL_TOKENS:
                    raise DataError(f"{path}: row {rownum} has unrecognized label '{cell}'")


def _label_codes(cells: np.ndarray) -> np.ndarray | None:
    """Label values of a column of label cells, or None if any cell is not a
    label token or may have been cut to the field width."""
    tokens, inverse = np.unique(cells, return_inverse=True)
    codes = [_LABEL_TOKENS.get(t.strip().lower()) if len(t) < _LABEL_WIDTH else None for t in tokens.tolist()]
    if None in codes:
        return None
    return np.array(codes, dtype=np.int8)[inverse]


def load_csv(path, has_labels: bool) -> Dataset:
    """Read telemetry from `oat,mgt,pa,ias,np,cs,ot[,label]` CSV.

    Labels parse case-insensitively from {normal, anomalous} or {0, 1}.
    Row numbers in errors count data rows (header excluded). A leading UTF-8
    byte-order mark is skipped.

    The body goes through numpy's C parser straight from the file, one pass.
    Anything it cannot vouch for (a parse error, a blank line, a non-finite
    value, an unknown or over-long label) sends the file to `_check_rows`,
    which finds and reports the first bad row.
    """
    path = Path(path)
    expected = list(CHANNELS) + (["label"] if has_labels else [])
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            _check_header(path, fh, expected)
            # counts the lines the parser reads: it skips blank lines, which are errors here
            lines_read = itertools.count()
            lines = map(itemgetter(0), zip(fh, lines_read))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # numpy warns on an empty body
                    table = np.loadtxt(
                        lines, dtype=_ROW_DTYPES[has_labels], delimiter=",", comments=None, quotechar='"', ndmin=1
                    )
            except ValueError:  # also a UnicodeDecodeError, which _check_rows meets again
                table = None
            n_lines = next(lines_read)

        labels = None
        readable = table is not None and np.isfinite(table["x"]).all()
        if readable and has_labels:
            labels = _label_codes(table["label"])
            readable = labels is not None
        if not readable or len(table) != n_lines:
            _check_rows(path, has_labels)
    except UnicodeDecodeError:
        raise DataError(f"{path}: the file is not UTF-8 text") from None
    except OSError as exc:
        raise DataError(f"telemetry file {path} is not found or not readable: {exc}") from None
    if not readable:
        raise DataError(f"{path}: a row cannot be parsed")
    if not len(table):
        raise DataError(f"{path}: no data rows")
    return Dataset(table["x"], labels)


_WRITE_BLOCK_ROWS = 1024


def _format_rows(row_format: str, columns):
    """`row_format.format(*cells)` of each row, one list per block of rows. Each column's block
    becomes Python values by one `.tolist()`: `{!r}` of a float cell is its shortest round-trip
    repr, and an object column of strings gives its strings."""
    for start in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
        yield list(map(row_format.format, *(c[start : start + _WRITE_BLOCK_ROWS].tolist() for c in columns)))


def write_csv(path, header: str, row_format: str, *columns) -> None:
    """Write `header`, then one line `row_format.format(*cells)` per row (the
    format ends in a newline), through `write_atomic`. Columns are 1-D arrays
    of one length, formatted and joined per block by `_format_rows`."""
    write_atomic(path, itertools.chain([header + "\n"], map("".join, _format_rows(row_format, columns))))


def _row_text(features: np.ndarray) -> np.ndarray:
    """Each row's cells, `{!r}` joined by commas, as a 1-D object array of strings."""
    row_format = ",".join(["{!r}"] * features.shape[1])
    return np.fromiter(itertools.chain.from_iterable(_format_rows(row_format, features.T)), object, len(features))


def save_csv(data: Dataset, path, include_labels: bool | None = None) -> None:
    """Write the canonical CSV layout; floats use shortest round-trip repr. The
    rows' channel text is `data._text`, formatted once per Dataset."""
    if include_labels is None:
        include_labels = data.is_labeled
    if include_labels and not data.is_labeled:
        raise DataError("cannot write labels: dataset has none")
    header = ",".join(CHANNELS) + (",label" if include_labels else "")
    columns = (data._text, data.labels) if include_labels else (data._text,)
    write_csv(path, header, "{},{}\n" if include_labels else "{}\n", *columns)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _largest_remainder_take(class_sizes: dict[int, int], fraction: float, total_take: int) -> dict[int, int]:
    """Per-class allocation: floor quotas, leftover seats by largest remainder.

    Remainder ties go to the larger class, then to the lower label value.
    """
    quotas = {c: fraction * n for c, n in class_sizes.items()}
    take = {c: int(math.floor(q)) for c, q in quotas.items()}
    seats = total_take - sum(take.values())
    order = sorted(
        class_sizes,
        key=lambda c: (-(quotas[c] - take[c]), -class_sizes[c], c),
    )
    for c in order[:seats]:
        take[c] += 1
    return take


def split(
    data: Dataset,
    test_fraction: float = 0.10,
    ae_val_fraction: float = 0.10,
    seed: int = 0,
) -> dict[str, Dataset]:
    """Stratified shuffled test holdout plus unsupervised training views: a
    dict of `test`, `supervised_train`, `ae_train` and `ae_val` in that order,
    each named for the CSV file the split stage writes it to.

    The test set takes round(test_fraction * n) samples with per-class counts
    within one sample of the global class ratio. Normals of the remaining
    supervised training set are split again: ae_val_fraction held out for
    validation, the rest for reconstruction training. Membership is decided
    by a seeded shuffle; each part keeps original row order. A part that
    would be empty raises DataError.
    """
    labels = data.require_labels()
    if not (0.0 < test_fraction < 1.0 and 0.0 < ae_val_fraction < 1.0):
        raise DomainError("split fractions must lie in (0, 1)")
    class_indices = {c: np.flatnonzero(labels == c) for c in (0, 1)}
    for c, idx in class_indices.items():
        if idx.size < 2:
            raise DataError(f"class {Label(c).name} has {idx.size} member(s), need >= 2")

    rng = Rng(seed)
    total_take = _round_half_up(test_fraction * data.n)
    take = _largest_remainder_take({c: idx.size for c, idx in class_indices.items()}, test_fraction, total_take)

    pools = [idx[rng.permutation(idx.size)] for idx in class_indices.values()]
    test_idx = np.sort(np.concatenate([pool[: take[c]] for c, pool in enumerate(pools)]))
    train_idx = np.sort(np.concatenate([pool[take[c] :] for c, pool in enumerate(pools)]))

    normal_train = pools[0][take[0] :]
    normal_train = normal_train[rng.permutation(normal_train.size)]
    n_val = _round_half_up(ae_val_fraction * normal_train.size)
    parts = {
        "test": test_idx,
        "supervised_train": train_idx,
        "ae_train": np.sort(normal_train[n_val:]),
        "ae_val": np.sort(normal_train[:n_val]),
    }
    for name, idx in parts.items():
        if idx.size == 0:
            raise DataError(f"the {name} part of the split would be empty")
    return {name: data.subset(idx) for name, idx in parts.items()}


@dataclass(frozen=True)
class MinMaxScaler:
    """Per-channel min and range of the fit set, mapping it onto [0, 1].

    A zero range marks a stuck channel; such channels map to constant 0
    rather than erroring.
    """

    mins: np.ndarray
    ranges: np.ndarray

    def __post_init__(self):
        # copies, so the caller's arrays stay writeable and a later change to them does not reach the scaler
        mins = np.array(self.mins, dtype=np.float64)
        ranges = np.array(self.ranges, dtype=np.float64)
        if mins.shape != ranges.shape or mins.ndim != 1:
            raise DomainError("scaler mins/ranges must be matching vectors")
        if (ranges < 0).any():
            raise DomainError("scaler ranges must be non-negative")
        mins.setflags(write=False)
        ranges.setflags(write=False)
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "ranges", ranges)

    def transform(self, features: np.ndarray) -> np.ndarray:
        safe = np.where(self.ranges > 0.0, self.ranges, 1.0)
        scaled = (features - self.mins) / safe
        scaled[..., self.ranges == 0.0] = 0.0
        return scaled

    def to_dict(self) -> dict:
        return {"mins": [float(v) for v in self.mins], "ranges": [float(v) for v in self.ranges]}

    @classmethod
    def from_dict(cls, d: dict) -> "MinMaxScaler":
        return cls(d["mins"], d["ranges"])


def fit_scaler(train: Dataset) -> MinMaxScaler:
    if train.n == 0:
        raise DataError("cannot fit scaler on an empty dataset")
    mins = train.features.min(axis=0)
    ranges = train.features.max(axis=0) - mins
    return MinMaxScaler(mins, ranges)


def apply_scaler(scaler: MinMaxScaler, data: Dataset) -> Dataset:
    """x' = (x - min) / range per channel. Out-of-range values are NOT
    clamped: a test reading outside the fit range lands outside [0, 1],
    which is exactly the signal an anomaly detector needs."""
    return Dataset(scaler.transform(data.features), data.labels)


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the seeded synthetic telemetry generator.

    Severities scale the three fault transforms; 0 disables a transform's
    shift entirely.
    """

    n_samples: int = 20000
    anomaly_fraction: float = 0.40
    seed: int = 0
    oat_low: float = -5.0
    oat_high: float = 35.0
    demand_low: float = 0.30
    demand_high: float = 1.00
    torque_severity: float = 1.0
    mgt_severity: float = 1.0
    coupling_severity: float = 1.0
    coupling_gap: float = 0.10

    def __post_init__(self):
        if self.n_samples < 100:
            raise DomainError("n_samples must be >= 100")
        if not 0.0 < self.anomaly_fraction < 1.0:
            raise DomainError("anomaly_fraction must lie strictly in (0, 1)")
        if self.oat_high <= self.oat_low or self.demand_high <= self.demand_low:
            raise DomainError("regime bands must have positive width")
        if min(self.torque_severity, self.mgt_severity, self.coupling_severity) < 0:
            raise DomainError("severities must be non-negative")
        if not 0.0 <= self.coupling_gap < (self.demand_high - self.demand_low) / 2.0:
            raise DomainError("coupling_gap must be non-negative and smaller than half the demand band")


def _decohered_demand(rng: Rng, cfg: SynthConfig, u: np.ndarray) -> np.ndarray:
    """Independent latent demands, each at least coupling_gap away from the
    true one, so a coupling fault never degenerates into a relabelled healthy
    sample. Rejected rows are redrawn, one block for all of them per round."""
    out = rng.uniform(cfg.demand_low, cfg.demand_high, u.size)
    redo = np.flatnonzero(np.abs(out - u) < cfg.coupling_gap)
    while redo.size:
        out[redo] = rng.uniform(cfg.demand_low, cfg.demand_high, redo.size)
        redo = redo[np.abs(out[redo] - u[redo]) < cfg.coupling_gap]
    return out


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Seeded stand-in telemetry with exact class counts.

    Healthy model: a latent power demand u and the ambient temperature oat
    drive every internal channel; the constants set channel scales and noise
    floors. Output torque follows the design-torque curve 300 + 420 u, so a
    healthy torque margin is zero-mean noise.

    round(anomaly_fraction * n) samples receive one of three fault
    transforms, chosen uniformly:
      0: torque-margin depression, ot drops at least 60 * severity below design.
      1: over-temperature drift on mgt.
      2: coupling break: cs/np/pa are regenerated from independent latent
         demands with noise scaled by 1 + severity, distorting cross-channel
         covariance while barely moving the marginals.
    The rest are healthy draws. Each channel is drawn as one column for all
    rows, and the faults apply by index masks. Sample order is a seeded
    permutation of the two blocks so classes interleave. Identical configs
    give identical output.
    """
    n = cfg.n_samples
    n_anom = _round_half_up(cfg.anomaly_fraction * n)
    rng = Rng(cfg.seed)

    u = rng.uniform(cfg.demand_low, cfg.demand_high, n)
    oat = rng.uniform(cfg.oat_low, cfg.oat_high, n)
    ias = 40.0 + 110.0 * u + rng.normal(0.0, 3.0, n)
    np_ = 160.0 + 620.0 * u + rng.normal(0.0, 8.0, n)
    cs = 86.0 + 12.0 * u + 0.04 * (oat - 15.0) + rng.normal(0.0, 0.25, n)
    pa = 860.0 - 2.4 * (oat - 15.0) - 45.0 * u + rng.normal(0.0, 8.0, n)
    mgt = 440.0 + 0.38 * (np_ - 160.0) + 1.1 * (oat - 15.0) + rng.normal(0.0, 6.0, n)
    ot = 300.0 + 420.0 * u + rng.normal(0.0, 8.0, n)

    kind = rng.randrange(3, n_anom)
    faulty = np.arange(n - n_anom, n)
    rows = faulty[kind == 0]
    ot[rows] -= cfg.torque_severity * (60.0 + np.abs(rng.normal(0.0, 15.0, rows.size)))
    rows = faulty[kind == 1]
    mgt[rows] += cfg.mgt_severity * (45.0 + np.abs(rng.normal(0.0, 12.0, rows.size)))
    rows = faulty[kind == 2]
    boost = 1.0 + cfg.coupling_severity
    u_cs, u_np, u_pa = (_decohered_demand(rng, cfg, u[rows]) for _ in range(3))
    oat_c = oat[rows] - 15.0
    cs[rows] = 86.0 + 12.0 * u_cs + 0.04 * oat_c + rng.normal(0.0, 0.25 * boost, rows.size)
    np_[rows] = 160.0 + 620.0 * u_np + rng.normal(0.0, 8.0 * boost, rows.size)
    pa[rows] = 860.0 - 2.4 * oat_c - 45.0 * u_pa + rng.normal(0.0, 8.0 * boost, rows.size)

    features = np.column_stack((oat, mgt, pa, ias, np_, cs, ot))
    labels = (np.arange(n) >= n - n_anom).astype(np.int8)
    order = rng.permutation(n)
    return Dataset(features[order], labels[order])
