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
