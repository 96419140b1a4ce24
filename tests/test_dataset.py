import csv
import math

import numpy as np
import pytest

from aeromon.dataset import (
    CHANNELS,
    Dataset,
    Label,
    MinMaxScaler,
    SynthConfig,
    apply_scaler,
    fit_scaler,
    generate_synthetic,
    load_csv,
    save_csv,
    split,
)
from aeromon.errors import DataError, DomainError, write_atomic

HEADER = ",".join(CHANNELS)


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def _random_dataset(seed, n, labeled=True, anomaly_fraction=0.4):
    rng = np.random.default_rng(seed)
    feats = np.array([[rng.normal(10.0, 4.0) for _ in range(7)] for _ in range(n)])
    if not labeled:
        return Dataset(feats)
    labels = np.array([1 if rng.random() < anomaly_fraction else 0 for _ in range(n)], dtype=np.int8)
    if labels.sum() < 2:
        labels[:2] = 1
    if (labels == 0).sum() < 2:
        labels[:2] = 0
    return Dataset(feats, labels)


def _source_rows(ds, part):
    """Index in `ds` of each row of `part`, found by looking the row up; the rows of `ds` must be distinct."""
    index = {row.tobytes(): i for i, row in enumerate(ds.features)}
    assert len(index) == ds.n
    rows = np.array([index[row.tobytes()] for row in part.features], dtype=np.int64)
    assert np.array_equal(ds.labels[rows], part.labels)
    return rows


def _count(ds, label):
    return int((ds.require_labels() == label).sum())


class TestSampleAccess:
    def test_require_labels_rejects_unlabeled(self):
        with pytest.raises(DataError, match="dataset has no labels"):
            _random_dataset(1, 5, labeled=False).require_labels()

    def test_caller_arrays_stay_writeable(self):
        # both arrays already pass the checks unchanged, so the dataset holds views of them
        x, y = np.zeros((2, 7)), np.array([0, 1], dtype=np.int8)
        ds = Dataset(x, y)
        assert x.flags.writeable and y.flags.writeable
        assert not ds.features.flags.writeable and not ds.labels.flags.writeable
        assert np.shares_memory(ds.features, x) and np.shares_memory(ds.labels, y)
        with pytest.raises(ValueError, match="read-only"):
            ds.features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ds.labels[0] = 1


class TestLoadCsv:
    def test_three_rows_in_file_order(self, tmp_path):
        p = _write(tmp_path, HEADER + "\n" + "1,2,3,4,5,6,7\n8,9,10,11,12,13,14\n0,0,0,0,0,0,1\n")
        ds = load_csv(p, has_labels=False)
        assert ds.n == 3
        assert not ds.is_labeled
        assert np.array_equal(ds.features[0], [1, 2, 3, 4, 5, 6, 7])
        assert np.array_equal(ds.features[2], [0, 0, 0, 0, 0, 0, 1])

    def test_numeric_and_word_labels(self, tmp_path):
        p = _write(tmp_path, HEADER + ",label\n1,2,3,4,5,6,7,0\n8,9,10,11,12,13,14,1\n")
        ds = load_csv(p, has_labels=True)
        assert list(ds.labels) == [0, 1]
        p2 = _write(tmp_path, HEADER + ",label\n1,2,3,4,5,6,7,Normal\n8,9,10,11,12,13,14,ANOMALOUS\n", "w.csv")
        ds2 = load_csv(p2, has_labels=True)
        assert list(ds2.labels) == [0, 1]

    def test_nan_cell_cites_row(self, tmp_path):
        p = _write(tmp_path, HEADER + "\n1,2,3,4,5,6,7\n1,NaN,3,4,5,6,7\n")
        with pytest.raises(DataError, match="row 2 contains a non-finite value"):
            load_csv(p, has_labels=False)

    def test_non_numeric_cell_cites_row(self, tmp_path):
        p = _write(tmp_path, HEADER + "\n1,2,x,4,5,6,7\n")
        with pytest.raises(DataError, match="row 1 contains a non-numeric cell"):
            load_csv(p, has_labels=False)

    def test_missing_column_named(self, tmp_path):
        p = _write(tmp_path, "oat,mgt,pa,ias,np,cs\n1,2,3,4,5,6\n")
        with pytest.raises(DataError, match="missing column 'ot'"):
            load_csv(p, has_labels=False)

    def test_extra_column_named(self, tmp_path):
        p = _write(tmp_path, HEADER + ",bogus\n1,2,3,4,5,6,7,9\n")
        with pytest.raises(DataError, match="unexpected extra column 'bogus'"):
            load_csv(p, has_labels=False)

    def test_label_column_required_when_requested(self, tmp_path):
        p = _write(tmp_path, HEADER + "\n1,2,3,4,5,6,7\n")
        with pytest.raises(DataError, match="missing column 'label'"):
            load_csv(p, has_labels=True)

    def test_empty_file(self, tmp_path):
        p = _write(tmp_path, "")
        with pytest.raises(DataError, match="file is empty"):
            load_csv(p, has_labels=False)
        p2 = _write(tmp_path, HEADER + "\n", "h.csv")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p2, has_labels=False)

    def test_bad_label_token(self, tmp_path):
        p = _write(tmp_path, HEADER + ",label\n1,2,3,4,5,6,7,maybe\n")
        with pytest.raises(DataError, match="row 1 has unrecognized label 'maybe'"):
            load_csv(p, has_labels=True)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_byte_order_mark_is_skipped(self, tmp_path, newline):
        rows = [HEADER + ",label", "1.5,-2,3e2,0.25,5,6,7,0", "8,9,10,11,12,13,14,anomalous"]
        plain = _write(tmp_path, "\n".join(rows) + "\n")
        bom = tmp_path / "bom.csv"
        bom.write_bytes(("\ufeff" + newline.join(rows) + newline).encode("utf-8"))
        expected = load_csv(plain, has_labels=True)
        ds = load_csv(bom, has_labels=True)
        assert ds.features.tobytes() == expected.features.tobytes()
        assert ds.labels.tobytes() == expected.labels.tobytes()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_byte_order_mark_keeps_row_numbers(self, tmp_path, newline):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(("\ufeff" + newline.join([HEADER, "1,2,3,4,5,6,7", "1,2,x,4,5,6,7"]) + newline).encode("utf-8"))
        with pytest.raises(DataError, match="row 2 contains a non-numeric cell"):
            load_csv(bom, has_labels=False)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_bytes("\ufeff".encode("utf-8"))
        with pytest.raises(DataError, match="file is empty"):
            load_csv(bom, has_labels=False)
        bom.write_bytes(("\ufeffot," + HEADER[3:] + "\n1,2,3,4,5,6,7\n").encode("utf-8"))
        with pytest.raises(DataError, match="expected column 'oat' at position 1, found 'ot'$"):
            load_csv(bom, has_labels=False)

    @pytest.mark.invariant
    def test_round_trip_identity(self, tmp_path):
        ds = _random_dataset(42, 64)
        p = tmp_path / "rt.csv"
        save_csv(ds, p)
        back = load_csv(p, has_labels=True)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        # and once more through the second generation
        p2 = tmp_path / "rt2.csv"
        save_csv(back, p2)
        assert p2.read_bytes() == p.read_bytes()


# --- reference CSV reader and writer: the row-at-a-time code load_csv and
# save_csv replaced, kept as oracles for the vectorized paths ----------------

_REFERENCE_LABELS = {"0": 0, "normal": 0, "1": 1, "anomalous": 1}


def _reference_load_csv(path, has_labels):
    expected = list(CHANNELS) + (["label"] if has_labels else [])
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
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
        rows, labels = [], []
        for rownum, cells in enumerate(reader, start=1):
            if len(cells) != len(expected):
                raise DataError(f"{path}: row {rownum} has {len(cells)} cells, expected {len(expected)}")
            try:
                values = [float(c) for c in cells[:7]]
            except ValueError:
                raise DataError(f"{path}: row {rownum} contains a non-numeric cell") from None
            if not all(math.isfinite(v) for v in values):
                raise DataError(f"{path}: row {rownum} contains a non-finite value")
            rows.append(values)
            if has_labels:
                token = cells[7].strip().lower()
                if token not in _REFERENCE_LABELS:
                    raise DataError(f"{path}: row {rownum} has unrecognized label '{cells[7]}'")
                labels.append(_REFERENCE_LABELS[token])
    if not rows:
        raise DataError(f"{path}: no data rows")
    return Dataset(np.array(rows), np.array(labels, dtype=np.int8) if has_labels else None)


def _reference_save_csv(data, path, include_labels):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(CHANNELS) + (["label"] if include_labels else []))
        for i in range(data.n):
            row = [repr(float(v)) for v in data.features[i]]
            if include_labels:
                row.append(str(int(data.labels[i])))
            writer.writerow(row)


def _outcome(loader, path, has_labels):
    """The dataset's bytes, or the exception type and message (which names the row)."""
    try:
        ds = loader(path, has_labels)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome being compared
        return type(exc), str(exc)
    return ds.features.tobytes(), None if ds.labels is None else ds.labels.tobytes()


_ROW = "1.5,-2,3e2,0.25,5,6,7"
_LABELED = HEADER + ",label\n"
# name -> (file text, has_labels); each must load the same way through both readers
_PARITY_CASES = {
    "plain": (_LABELED + f"{_ROW},0\n{_ROW},anomalous\n", True),
    "no_final_newline": (_LABELED + f"{_ROW},0\n{_ROW},1", True),
    "blank_line_mid_file": (_LABELED + f"{_ROW},0\n\n{_ROW},1\n", True),
    "blank_line_at_end": (_LABELED + f"{_ROW},0\n{_ROW},1\n\n", True),
    "blank_line_first": (HEADER + f"\n\n{_ROW}\n", False),
    "whitespace_line": (HEADER + f"\n{_ROW}\n  \n", False),
    "hash_row": (_LABELED + f"{_ROW},0\n#{_ROW},1\n", True),
    "quoted_cells": (_LABELED + '"1.5","-2",3e2,0.25,5,6,"7","Normal"\n', True),
    "quoted_delimiter_in_label": (_LABELED + f'{_ROW},"normal,1"\n', True),
    "quoted_line_break_in_number": (HEADER + '\n"1\n",2,3,4,5,6,7\n', False),
    "quoted_line_break_in_label": (_LABELED + f'{_ROW},"nor\nmal"\n', True),
    "quote_after_space": (_LABELED + f'{_ROW}, "normal"\n', True),
    "crlf": (HEADER + f",label\r\n{_ROW},0\r\n{_ROW},1\r\n", True),
    "cr_only": (HEADER + f",label\r{_ROW},0\r{_ROW},1\r", True),
    "blank_crlf_line": (HEADER + f"\r\n{_ROW}\r\n\r\n", False),
    "spaces_around_cells": (_LABELED + " 1.5 , -2 ,3e2,\t0.25,5,6,7 ,  ANOMALOUS \n", True),
    "nan_cell": (HEADER + f"\n{_ROW}\n1,NaN,3,4,5,6,7\n", False),
    "inf_cell": (HEADER + "\n1,2,-inf,4,5,6,7\n", False),
    "overflowing_cell": (HEADER + "\n1,2,3,4,1e999,6,7\n", False),
    "non_finite_then_bad_label": (_LABELED + f"{_ROW},0\n{_ROW},maybe\n1,nan,3,4,5,6,7,0\n", True),
    "too_few_cells": (HEADER + f"\n{_ROW}\n1,2,3,4,5,6\n", False),
    "too_many_cells": (HEADER + f"\n{_ROW},8\n", False),
    "trailing_comma": (HEADER + f"\n{_ROW},\n", False),
    "empty_cell": (HEADER + "\n1,,3,4,5,6,7\n", False),
    "unknown_label": (_LABELED + f"{_ROW},0\n{_ROW},maybe\n", True),
    "empty_label": (_LABELED + f"{_ROW},\n", True),
    # cut to the 16-character field, this cell would read as "anomalous"
    "label_longer_than_field": (_LABELED + f"{_ROW},anomalous{' ' * 7}{'x' * 30}\n", True),
    "hex_cell": (HEADER + "\n0x10,2,3,4,5,6,7\n", False),
    "header_only": (HEADER + "\n", False),
    "header_only_labeled": (_LABELED, True),
    "empty_file": ("", False),
    "wrong_header": ("oat,mgt,pa,ias,np,cs,torque\n" + _ROW + "\n", False),
}


class TestCsvParity:
    """load_csv and save_csv against the row-at-a-time reference code."""

    @pytest.mark.parametrize("name", sorted(_PARITY_CASES))
    def test_loaders_agree(self, tmp_path, name):
        text, has_labels = _PARITY_CASES[name]
        p = tmp_path / "in.csv"
        p.write_bytes(text.encode("utf-8"))
        assert _outcome(load_csv, p, has_labels) == _outcome(_reference_load_csv, p, has_labels)

    @pytest.mark.parametrize(
        "cell, has_labels",
        [
            ("1_0", False),  # float() takes digit-group underscores
            ("\u0661", False),  # ARABIC-INDIC DIGIT ONE: float() takes non-ASCII digits
            (" " * 10 + "normal", True),  # a valid label padded to the field width
            (" " * 20 + "normal", True),  # ... and past it, which the field would cut to blanks
        ],
        ids=["underscore_digits", "non_ascii_digit", "label_padded_to_field_width", "label_padded_past_it"],
    )
    def test_rejected_where_the_reference_accepts(self, tmp_path, cell, has_labels):
        row = f"{_ROW},{cell}" if has_labels else f"{cell},2,3,4,5,6,7"
        p = _write(tmp_path, HEADER + (",label" if has_labels else "") + f"\n{_ROW}{',0' * has_labels}\n{row}\n")
        _reference_load_csv(p, has_labels)
        with pytest.raises(DataError, match="row 2 (contains a non-numeric cell|has unrecognized label)"):
            load_csv(p, has_labels)

    def test_trailing_nul_of_a_label_is_dropped(self, tmp_path):
        # numpy strings cannot end in NUL, so the reader sees "normal"
        p = _write(tmp_path, _LABELED + f"{_ROW},normal\x00\n")
        with pytest.raises(DataError, match="row 1 has unrecognized label"):
            _reference_load_csv(p, True)
        assert list(load_csv(p, True).labels) == [0]

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "absent.csv", has_labels=False)

    @pytest.mark.parametrize("labeled", [True, False])
    def test_many_rows_agree(self, tmp_path, labeled):
        # more rows than one write block, so block joins are covered
        ds = _random_dataset(5, 2500, labeled=labeled)
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        save_csv(ds, ours)
        _reference_save_csv(ds, ref, labeled)
        assert ours.read_bytes() == ref.read_bytes()
        assert _outcome(load_csv, ours, labeled) == _outcome(_reference_load_csv, ours, labeled)

    def test_save_matches_reference_writer_on_edge_floats(self, tmp_path):
        values = [-0.0, 5e-324, 1e16, 1e-05, 0.1, 1.7976931348623157e308, -1.7976931348623157e308]
        feats = np.array([values[i:] + values[:i] for i in range(len(values))])  # every value in every column
        ds = Dataset(feats, np.array([i % 2 for i in range(len(feats))], dtype=np.int8))
        for include_labels in (True, False):
            ours, ref = tmp_path / f"ours{include_labels}.csv", tmp_path / f"ref{include_labels}.csv"
            save_csv(ds, ours, include_labels=include_labels)
            _reference_save_csv(ds, ref, include_labels)
            assert ours.read_bytes() == ref.read_bytes()
            back = load_csv(ours, has_labels=include_labels)
            assert back.features.tobytes() == ds.features.tobytes()

    def test_save_without_labels_refuses_label_request(self, tmp_path):
        with pytest.raises(DataError, match="cannot write labels: dataset has none"):
            save_csv(_random_dataset(1, 4, labeled=False), tmp_path / "x.csv", include_labels=True)


class TestWriteAtomic:
    def test_failed_writer_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "data.csv"
        target.write_text("old contents\n")

        def chunks():
            yield "half of the new"
            raise RuntimeError("writer died")

        with pytest.raises(RuntimeError, match="writer died"):
            write_atomic(target, chunks())
        assert target.read_text() == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]

    def test_replaces_whole_file(self, tmp_path):
        target = tmp_path / "x.txt"
        target.write_text("a much longer old text\n")
        write_atomic(target, ["new", "\r\n"])
        assert target.read_bytes() == b"new\r\n"
        write_atomic(target, "str")
        assert target.read_bytes() == b"str"
        assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]


class TestSplit:
    def _labeled(self, n_normal, n_anom, seed=1):
        rng = np.random.default_rng(seed)
        feats = np.array([[rng.normal() for _ in range(7)] for _ in range(n_normal + n_anom)])
        labels = np.array([0] * n_normal + [1] * n_anom, dtype=np.int8)
        order = list(range(n_normal + n_anom))
        rng.shuffle(order)
        return Dataset(feats[order], labels[order])

    def test_largest_remainder_20_samples(self):
        # quotas 1.2 N and 0.8 A; one leftover seat goes to the larger remainder
        ds = self._labeled(12, 8)
        res = split(ds, test_fraction=0.10, seed=5)
        assert res.test.n == 2
        assert _count(res.test, Label.NORMAL) == 1
        assert _count(res.test, Label.ANOMALOUS) == 1

    def test_same_seed_identical_membership(self):
        ds = self._labeled(60, 40)
        a = split(ds, seed=9)
        b = split(ds, seed=9)
        for part in ("test", "supervised_train", "ae_train", "ae_val"):
            assert np.array_equal(_source_rows(ds, getattr(a, part)), _source_rows(ds, getattr(b, part)))
        c = split(ds, seed=10)
        assert not np.array_equal(_source_rows(ds, a.test), _source_rows(ds, c.test))

    @pytest.mark.invariant
    def test_partition_laws(self):
        for seed in (0, 3, 11):
            ds = self._labeled(130 + seed, 70, seed=seed + 50)
            res = split(ds, seed=seed)
            test_idx, train_idx, ae_train_idx, ae_val_idx = (
                _source_rows(ds, part) for part in (res.test, res.supervised_train, res.ae_train, res.ae_val)
            )
            test, train = set(test_idx), set(train_idx)
            assert not test & train
            assert test | train == set(range(ds.n))
            assert abs(res.test.n - round(0.10 * ds.n)) <= 1
            # per-class ratio within one sample of the global ratio
            for c in (Label.NORMAL, Label.ANOMALOUS):
                expected = 0.10 * _count(ds, c)
                assert abs(_count(res.test, c) - expected) <= 1
            ae_all = set(ae_train_idx) | set(ae_val_idx)
            assert not set(ae_train_idx) & set(ae_val_idx)
            normals_in_train = {i for i in train_idx if ds.labels[i] == 0}
            assert ae_all == normals_in_train

    @pytest.mark.invariant
    def test_ae_parts_contain_only_normals(self):
        ds = self._labeled(80, 60, seed=2)
        res = split(ds, seed=21)
        assert (res.ae_train.labels == 0).all()
        assert (res.ae_val.labels == 0).all()

    def test_fleet_scale_proportions(self):
        # 1% of the production corpus size, same 60/40 mix
        ds = self._labeled(4456, 2970, seed=77)
        res = split(ds, test_fraction=0.10, ae_val_fraction=0.10, seed=3)
        assert res.test.n == round(0.10 * ds.n)
        normals_after_test = _count(ds, Label.NORMAL) - _count(res.test, Label.NORMAL)
        assert res.ae_val.n == round(0.10 * normals_after_test)
        assert res.ae_train.n == normals_after_test - res.ae_val.n
        assert res.ae_train.n == pytest.approx(0.9 * 0.9 * _count(ds, Label.NORMAL), rel=0.01)

    def test_small_class_rejected(self):
        feats = np.zeros((5, 7))
        ds = Dataset(feats, np.array([0, 0, 0, 0, 1], dtype=np.int8))
        with pytest.raises(DataError, match=r"class ANOMALOUS has 1 member\(s\), need >= 2"):
            split(ds, seed=0)

    def test_empty_part_rejected(self):
        ds = self._labeled(60, 40)
        with pytest.raises(DomainError):
            split(ds, ae_val_fraction=0.0, seed=0)
        # each fraction rounds one part to no rows
        for part, fractions in (("test", (0.001, 0.1)), ("ae_val", (0.1, 0.001)), ("ae_train", (0.1, 0.999))):
            with pytest.raises(DataError, match=f"the {part} part"):
                split(ds, test_fraction=fractions[0], ae_val_fraction=fractions[1], seed=0)
        with pytest.raises(DataError, match="the supervised_train part"):
            split(self._labeled(4, 2), test_fraction=0.99, seed=0)


class TestScaler:
    def _single_channel(self, values):
        feats = np.zeros((len(values), 7))
        feats[:, 0] = values
        return Dataset(feats)

    def test_min_and_range(self):
        scaler = fit_scaler(self._single_channel([2.0, 4.0]))
        assert scaler.mins[0] == 2.0
        assert scaler.ranges[0] == 2.0

    def test_constant_channel_flagged(self):
        scaler = fit_scaler(self._single_channel([5.0, 5.0, 5.0]))
        assert scaler.ranges[0] == 0.0
        scaled = apply_scaler(scaler, self._single_channel([5.0, 9.0]))
        assert (scaled.features[:, 0] == 0.0).all()

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="cannot fit scaler on an empty dataset"):
            fit_scaler(Dataset(np.zeros((0, 7))))

    def test_midpoint_maps_to_half(self):
        scaler = MinMaxScaler(np.full(7, 2.0), np.full(7, 2.0))
        out = scaler.transform(np.full(7, 3.0))
        assert (out == 0.5).all()

    def test_boundary_identity(self):
        ds = _random_dataset(8, 40, labeled=False)
        scaler = fit_scaler(ds)
        scaled = apply_scaler(scaler, ds)
        assert scaled.features.min(axis=0) == pytest.approx(np.zeros(7), abs=1e-15)
        assert scaled.features.max(axis=0) == pytest.approx(np.ones(7), abs=1e-15)

    def test_out_of_range_not_clamped(self):
        scaler = MinMaxScaler(np.full(7, 2.0), np.full(7, 2.0))
        out = scaler.transform(np.full(7, 6.0))
        assert (out == 2.0).all()

    @pytest.mark.invariant
    def test_fit_set_lands_in_unit_interval(self):
        for seed in (1, 4, 9):
            ds = _random_dataset(seed, 100, labeled=False)
            scaled = apply_scaler(fit_scaler(ds), ds)
            assert (scaled.features >= 0.0).all()
            assert (scaled.features <= 1.0).all()

    def test_normals_only_fit_differs_from_full_fit(self):
        data = generate_synthetic(SynthConfig(n_samples=2000, seed=3))
        res = split(data, seed=3)
        normals_scaler = fit_scaler(res.ae_train)
        full_scaler = fit_scaler(res.supervised_train)
        assert not (
            np.array_equal(normals_scaler.mins, full_scaler.mins)
            and np.array_equal(normals_scaler.ranges, full_scaler.ranges)
        )

    def test_json_round_trip(self):
        scaler = fit_scaler(_random_dataset(2, 30, labeled=False))
        back = MinMaxScaler.from_dict(scaler.to_dict())
        assert np.array_equal(back.mins, scaler.mins)
        assert np.array_equal(back.ranges, scaler.ranges)


class TestSynthetic:
    def test_exact_class_counts(self):
        ds = generate_synthetic(SynthConfig(n_samples=1000, anomaly_fraction=0.4, seed=7))
        assert _count(ds, Label.ANOMALOUS) == 400
        assert _count(ds, Label.NORMAL) == 600

    def test_depressed_torque_shifts_anomalous_mean(self):
        ds = generate_synthetic(SynthConfig(n_samples=4000, seed=7))
        ot = ds.features[:, CHANNELS.index("ot")]
        assert ot[ds.labels == 1].mean() < ot[ds.labels == 0].mean()

    def test_channel_means_match_the_model(self):
        # means of the documented model, u ~ U(0.3, 1) and oat ~ U(-5, 35); a third of
        # the faults each move ot by -(60 + E|N(0, 15)|) and mgt by +(45 + E|N(0, 12)|).
        # A swapped column or a dropped fault misses by many standard errors.
        ds = generate_synthetic(SynthConfig(n_samples=20000, seed=7))
        healthy, faulty = ds.features[ds.labels == 0], ds.features[ds.labels == 1]
        expected = {"oat": 15.0, "mgt": 593.14, "pa": 830.75, "ias": 111.5, "np": 563.0, "cs": 93.8, "ot": 573.0}
        for j, name in enumerate(CHANNELS):
            se = healthy[:, j].std() / math.sqrt(len(healthy))
            assert abs(healthy[:, j].mean() - expected[name]) < 4.0 * se, name
        half_normal = math.sqrt(2.0 / math.pi)  # E|N(0, 1)|
        shifts = {"ot": -(60.0 + 15.0 * half_normal) / 3.0, "mgt": (45.0 + 12.0 * half_normal) / 3.0}
        for name, shift in shifts.items():
            h, f = healthy[:, CHANNELS.index(name)], faulty[:, CHANNELS.index(name)]
            se = math.sqrt(h.var() / len(h) + f.var() / len(f))
            assert abs(f.mean() - h.mean() - shift) < 4.0 * se, name

    def test_bit_identical_for_equal_seeds(self):
        cfg = SynthConfig(n_samples=500, seed=123)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = generate_synthetic(SynthConfig(n_samples=500, seed=124))
        assert not np.array_equal(a.features, c.features)

    def test_invalid_config_rejected(self):
        with pytest.raises(DomainError):
            SynthConfig(n_samples=1000, anomaly_fraction=0.0)
        with pytest.raises(DomainError):
            SynthConfig(n_samples=50)
        with pytest.raises(DomainError):
            SynthConfig(n_samples=1000, torque_severity=-1.0)

    def test_all_finite_and_shaped(self):
        ds = generate_synthetic(SynthConfig(n_samples=300, seed=1))
        assert ds.features.shape == (300, 7)
        assert np.isfinite(ds.features).all()
