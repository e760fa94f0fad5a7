import csv
import io

import numpy as np
import pytest

from finestrat import (
    AssignmentDraw,
    ConfigError,
    CovariateTable,
    ExperimentFrame,
    GroupPartition,
    LoadError,
    MahalanobisRegion,
    RngSpec,
    horvitz_thompson_weights,
    load_covariates,
    match_k_tuples,
    MatchConfig,
    rerandomize,
    write_covariates,
)

CSV_4ROW = """gpa,age,income
3.1,19,50000
2.5,20,42000
3.9,18,61000
3.3,22,39000
"""


def test_load_roles_and_dims():
    table = load_covariates(io.StringIO(CSV_4ROW), {"gpa": "psi", "age": "h", "income": "h"})
    assert table.n == 4
    assert table.d_psi == 1
    assert table.d_h == 2
    assert table.d_w == 0
    np.testing.assert_array_equal(table.psi[:, 0], [3.1, 2.5, 3.9, 3.3])
    np.testing.assert_array_equal(table.h[:, 0], [19, 20, 18, 22])


def test_load_non_numeric_names_row_and_column():
    bad = "gpa,age\n3.1,19\n2.5,20\nNA,18\n"
    with pytest.raises(LoadError, match="row 3"):
        load_covariates(io.StringIO(bad), {"gpa": "psi", "age": "h"})


def test_load_missing_column():
    with pytest.raises(LoadError, match="missing column 'zzz'"):
        load_covariates(io.StringIO(CSV_4ROW), {"zzz": "psi"})
    # a column named twice would be read from one of its copies silently
    with pytest.raises(LoadError, match="repeated column 'gpa'"):
        load_covariates(io.StringIO("gpa,age,gpa\n3.1,19,2.0\n"), {"gpa": "psi"})


def test_load_unknown_role():
    with pytest.raises(ConfigError, match="unknown role"):
        load_covariates(io.StringIO(CSV_4ROW), {"gpa": "strat"})


def test_shared_column_serves_multiple_roles():
    table = load_covariates(io.StringIO(CSV_4ROW), {"gpa": ["psi", "w"], "age": "h"})
    np.testing.assert_array_equal(table.psi, table.w)
    assert table.psi_names == table.w_names == ("gpa",)


def test_empty_h_role_then_rerandomization_rejected():
    table = load_covariates(io.StringIO(CSV_4ROW), {"gpa": "psi"})
    assert table.d_h == 0
    part = match_k_tuples(table.psi, MatchConfig(k=2, l=1, method="sorted-1d"))
    with pytest.raises(ConfigError, match="d_h = 0"):
        rerandomize(part, table.h, MahalanobisRegion(alpha=0.5), RngSpec(0))


def test_roundtrip_bit_exact(tmp_path):
    gen = np.random.default_rng(3)
    rows = gen.standard_normal((7, 3))
    src = "a,b,c\n" + "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n"
    roles = {"a": "psi", "b": ["h", "w"], "c": "x"}
    t1 = load_covariates(io.StringIO(src), roles)
    path = str(tmp_path / "t.csv")
    write_covariates(t1, path)
    t2 = load_covariates(path, roles)
    for role in ("psi", "h", "w", "x"):
        np.testing.assert_array_equal(getattr(t1, role), getattr(t2, role))
    # a second serialization is byte-identical
    buf = io.StringIO()
    write_covariates(t2, buf)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == buf.getvalue()


def test_non_finite_rejected():
    with pytest.raises(LoadError, match="non-finite"):
        load_covariates(io.StringIO("a\n1.0\ninf\n"), {"a": "psi"})


def test_read_csv_blocks_keep_row_policy(monkeypatch):
    # cells become floats block by block; the row numbers in errors (blank
    # rows counted) and the field-count-before-cells order must not change
    from finestrat import core

    text = "id,a,b\n0,1.0,2.0\n1,3.0,4.0\n\n2,5.0,6.0\n3,7.0,x\n4,9.0,10.0\n"
    good = text.replace("x", "8.0")
    whole, whole_ids = core.read_csv(io.StringIO(good), ["b", "a"], "id", "covariates")
    monkeypatch.setattr(core, "_BLOCK_ROWS", 2)
    data, ids = core.read_csv(io.StringIO(good), ["b", "a"], "id", "covariates")
    np.testing.assert_array_equal(data, whole)
    np.testing.assert_array_equal(ids, whole_ids)
    assert data.shape == (5, 2) and data[3, 0] == 8.0
    with pytest.raises(LoadError, match=r"^non-numeric value 'x' in covariates row 5, "
                                        r"column 'b'$"):
        core.read_csv(io.StringIO(text), ["a", "b"], "id", "covariates")
    with pytest.raises(LoadError, match="covariates row 7 has 2 fields, expected 3"):
        core.read_csv(io.StringIO(text + "5,1.0\n"), ["a", "b"], "id", "covariates")


def _reference_read_csv(source, columns, id_col, what, optional=()):
    """The row-by-row reader that `read_csv` replaced, frozen: csv.reader
    over every row, and one np.array per block of cells. `read_csv` must
    give what it gives, LoadError messages included."""
    from contextlib import nullcontext

    def parse_block(cells, rows, columns, what):
        try:
            data = np.array(cells, dtype=np.float64)
        except ValueError:
            data = None
        if data is not None and np.isfinite(data).all():
            return data
        for row, r in zip(cells, rows):
            for raw, col in zip(row, columns):
                try:
                    fault = None if np.isfinite(float(raw)) else "non-finite"
                except ValueError:
                    fault = "non-numeric"
                if fault:
                    return LoadError(f"{fault} value {raw!r} in {what} row {r}, column '{col}'")

    with (nullcontext(source) if hasattr(source, "read")
          else open(source, "r", newline="", encoding="utf-8")) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise LoadError(f"{what} file is empty: missing header row")
        header = [c.strip() for c in header]
        names = [*columns, *(c for c in optional if c in header)]
        for col in [id_col, *names]:
            if col is not None and header.count(col) != 1:
                fault = "repeated" if col in header else "missing"
                raise LoadError(f"{what} file: {fault} column '{col}' (file has {header})")
        idx = [header.index(c) for c in names]
        id_idx = None if id_col is None else header.index(id_col)
        blocks, cells, rows, ids, id_row = [], [], [], [], {}
        for r, record in enumerate(reader, start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if len(record) != len(header):
                raise LoadError(
                    f"{what} row {r} has {len(record)} fields, expected {len(header)}")
            if id_idx is not None:
                uid = record[id_idx].strip()
                first = id_row.setdefault(uid, r)
                if first != r:
                    raise LoadError(f"duplicate id {uid!r} in {what} at rows {first} and {r}")
                ids.append(uid)
            cells.append([record[j] for j in idx])
            rows.append(r)
    if cells:
        blocks.append(parse_block(cells, rows, names, what))
    if not blocks:
        raise LoadError(f"{what} file has no data rows")
    for block in blocks:
        if isinstance(block, LoadError):
            raise block
    data = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return data, (None if id_col is None else np.array(ids))


_CSV_ROWS = ["u0,0.5,1,x", "u1,-2.25,3e-5,y", "u2,7,.5,z", "u3,1e300,-0,w", "u4,4,5,v"]
# one edit each to the header "id,a,b,note" and the rows above, read as
# columns a and b, ids from id (or "args"), and the `optional` column c,
# which is absent unless a case adds it
_CSV_CASES = {
    "plain": {},
    "quoted-cells": {2: 'u1,"-2.25",3e-5,"a, b"'},
    "quoted-newline": {3: 'u2,7,.5,"two\nlines"'},
    "quoted-newline-at-block-end": {4: 'u3,1e300,-0,"two\nlines"'},
    "quoted-header": {0: '"id","a",b,"note, long"'},
    "crlf": {r: row + "\r" for r, row in enumerate(["id,a,b,note", *_CSV_ROWS])},
    "blank-row": {2: "u1,-2.25,3e-5,y\n"},
    "whitespace-row": {4: "  \t\nu3,1e300,-0,w"},
    "blank-first-row": {1: "\nu0,0.5,1,x"},
    "carriage-return-inside-a-row": {2: "u1,-2.25\r,3e-5,y"},
    "one-column-blank": {0: "a", 1: "1", 2: "", 3: " \t", 4: "2", 5: "3", "args": (["a"], None)},
    "ids-only": {0: "id", 1: "u0", 2: "u1", 3: "u2", 4: "u3", 5: "u4", "args": ([], "id")},
    "ids-only-blank": {0: "id", 1: "u0", 2: "", 3: " \t", 4: "u3", 5: "u4", "args": ([], "id")},
    "underscore": {3: "u2,1_0,.5,z"},
    "arabic-indic-digit": {4: "u3,١,-0,w"},
    "full-width-digit": {4: "u3,１,-0,w"},
    "file-separator": {2: "u1,-2.25\x1c,3e-5,y"},
    "padded": {1: "  u0 , 0.5 ,\t1\t,x", 3: "u2 ,7, .5,z"},
    "padded-header": {0: " id , a,b ,note"},
    "nan": {2: "u1,nan,3e-5,y"},
    "inf": {5: "u4,4,-inf,v"},
    "1e400": {3: "u2,1e400,.5,z"},
    "non-numeric-late": {5: "u4,4,NA,v"},
    "two-faults": {2: "u1,abc,3e-5,y", 4: "u3,1e300,inf,w"},
    "short-row": {3: "u2,7,.5"},
    "long-row": {2: "u1,-2.25,3e-5,y,extra"},
    "empty-cell": {4: "u3,,-0,w"},
    "empty-unused-cell": {4: "u3,1e300,-0,"},
    "no-final-newline": {"end": ""},
    "optional-column": {0: "id,a,b,note,c",
                        **{r: row + ",0.75" for r, row in enumerate(_CSV_ROWS, 1)}},
    "duplicate-adjacent": {3: "u1,7,.5,z"},
    "duplicate-apart": {5: "u0,4,5,v"},
    "duplicate-padded": {5: " u2,4,5,v"},
    "duplicate-and-bad-cell": {2: "u1,x,3e-5,y", 5: "u0,4,5,v"},
    "short-row-after-bad-cell": {2: "u1,x,3e-5,y", 5: "u4,4"},
    "header-only": {r: None for r in range(1, 6)},
    "missing-column": {0: "id,a,B,note"},
    "repeated-column": {0: "id,a,b,a"},
    "nul-in-unused-cell": {2: "u1,-2.25,3e-5,y\x00y"},
    "unicode-id": {1: "ü0,0.5,1,x"},
}


def _csv_case(name):
    lines = ["id,a,b,note", *_CSV_ROWS]
    edits = _CSV_CASES[name]
    for r, row in edits.items():
        if isinstance(r, int):
            lines[r] = row
    text = "\n".join(row for row in lines if row is not None)
    return text + edits.get("end", "\n"), edits.get("args", (["a", "b"], "id"))


def _read_or_fault(reader, source, columns, id_col):
    try:
        data, ids = reader(source, columns, id_col, "covariates", optional=["c"])
    except (LoadError, csv.Error) as exc:
        return type(exc), str(exc)
    return data.dtype, data.shape, data.tobytes(), ids if ids is None else (ids.dtype, ids.tolist())


@pytest.mark.parametrize("name", sorted(_CSV_CASES))
@pytest.mark.parametrize("block_rows", [2, None])
def test_read_csv_matches_the_row_by_row_reader(monkeypatch, tmp_path, name, block_rows):
    # from an open file and from a path, whose CRLF lines keep their "\r";
    # two-row blocks put the duplicates within one block and across blocks
    from finestrat import core

    if block_rows is not None:
        monkeypatch.setattr(core, "_BLOCK_ROWS", block_rows)
    text, args = _csv_case(name)
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    for source in (lambda: io.StringIO(text), lambda: str(path)):
        want = _read_or_fault(_reference_read_csv, source(), *args)
        assert _read_or_fault(core.read_csv, source(), *args) == want


@pytest.mark.parametrize("block_rows", [2, None])
def test_read_csv_names_the_row_csv_reader_refuses(monkeypatch, tmp_path, block_rows):
    # a quoted cell over csv.field_size_limit() in an unused column was a
    # bare _csv.Error (exit 1 from the CLI); from a caller's open file it still is
    from finestrat import core

    if block_rows is not None:
        monkeypatch.setattr(core, "_BLOCK_ROWS", block_rows)
    lines = ["id,a,b,note", *_CSV_ROWS]
    lines[4] = 'u3,1e300,-0,"' + "x" * 200_000 + '"'
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LoadError) as exc:
        core.read_csv(str(path), ["a", "b"], "id", "covariates")
    assert str(exc.value) == "covariates row 4: field larger than field limit (131072)"
    with open(path, newline="") as fh, pytest.raises(csv.Error, match="field limit"):
        core.read_csv(fh, ["a", "b"], "id", "covariates")
    lines[4] = _CSV_ROWS[3]
    lines[0] += ',"' + "x" * 200_000 + '"'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LoadError) as exc:
        core.read_csv(str(path), ["a", "b"], "id", "covariates")
    assert str(exc.value) == "covariates file header: field larger than field limit (131072)"


def test_ht_weights_formula():
    np.testing.assert_array_equal(
        horvitz_thompson_weights(np.array([1, 0]), p=0.5), [2.0, -2.0]
    )
    assert horvitz_thompson_weights(np.array([1]), p=0.3)[0] == pytest.approx(10.0 / 3.0)


def test_ht_weights_domain_error():
    with pytest.raises(ValueError, match="p must lie in"):
        horvitz_thompson_weights(np.array([1, 0]), p=1.0)


def test_ht_weights_mean_zero_exact_under_stratification():
    # oracle: any pair-balanced assignment has 50 treated of 100, so
    # sum H = 50/p - 50/(1-p) = 0 exactly at p = 1/2
    gen = np.random.default_rng(0)
    d = np.zeros(100, dtype=int)
    for g in range(50):
        d[2 * g + gen.integers(0, 2)] = 1
    hw = horvitz_thompson_weights(d, p=0.5)
    assert hw.mean() == 0.0
    for c in (1.0, -3.5, 2.0 ** 31):
        assert np.mean(hw * c) == 0.0


def test_frame_validates_treated_count():
    table = CovariateTable(psi=np.zeros((4, 1)), h=None, w=None, x=None, ids=None)
    with pytest.raises(ValueError, match="does not match p"):
        ExperimentFrame(covariates=table, d=np.array([1, 1, 1, 0]), p=0.5)


def test_stored_arrays_freeze_a_view_not_the_callers_array():
    # arrays already of the stored dtype are kept without a copy; freezing
    # them must not make the caller's own array read-only
    h = np.random.default_rng(0).standard_normal((4, 2))
    ids = np.arange(4)
    y = np.arange(4.0)
    g = np.arange(4, dtype=np.intp).reshape(2, 2)
    rho = np.array([1, 0], dtype=np.intp)
    d = np.array([1, 0, 0, 1], dtype=np.int8)
    table = CovariateTable(psi=np.zeros((4, 1)), h=h, w=None, x=None, ids=ids)
    frame = ExperimentFrame(covariates=table, d=d, p=0.5, y=y)
    part = GroupPartition(groups=g, k=2, l=1, pairing=rho)
    draw = AssignmentDraw(d=d)
    for caller, stored in ((h, table.h), (ids, table.ids), (y, frame.y), (d, frame.d),
                           (g, part.groups), (rho, part.pairing), (d, draw.d)):
        assert caller.flags.writeable
        assert not stored.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 0


def test_partition_validation():
    with pytest.raises(ConfigError, match="disjointly"):
        GroupPartition(groups=np.array([[0, 1], [1, 2]]), k=2, l=1)
    with pytest.raises(ConfigError, match="involution"):
        GroupPartition(groups=np.array([[0, 1], [2, 3]]), k=2, l=1,
                       pairing=np.array([0, 1]))
    part = GroupPartition(groups=np.array([[0, 1], [2, 3]]), k=2, l=1,
                          pairing=np.array([1, 0]))
    np.testing.assert_array_equal(part.merged_groups(), [[0, 1, 2, 3]])


def test_partition_json_roundtrip():
    part = GroupPartition(groups=np.array([[3, 1], [0, 2]]), k=2, l=1,
                          homogeneity=0.25, pairing=np.array([1, 0]), pairing_stat=0.1)
    clone = GroupPartition.from_json_dict(part.to_json_dict())
    np.testing.assert_array_equal(clone.groups, part.groups)
    assert clone.pairing_stat == part.pairing_stat


def test_rng_spec_reproducible():
    a = RngSpec(123, 4).generator().standard_normal(8)
    b = RngSpec(123, 4).generator().standard_normal(8)
    c = RngSpec(123, 5).generator().standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_spec_array_abridges_a_long_value_in_its_message():
    # a manifest's d or groups has one entry per unit, and the whole list was echoed
    from finestrat.core import spec_array

    with pytest.raises(ConfigError) as err:
        spec_array({"d": ["x"] + [0] * 100_000}, "d", "design manifest")
    message = str(err.value)
    assert message.startswith("design manifest: d must be a number or a rectangular list of "
                              "numbers, got ['x', 0, 0")
    assert len(message) < 200
