"""Exact structural properties: no tolerances. Floating-point exactness is
achieved by using dyadic rationals (integers over powers of two), for which
the demeaning and shifting arithmetic is exact in binary floating point.
The last tests cover the input boundary: CSV round-trips and malformed
covariate and outcome files through the CLI."""

import contextlib
import csv
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finestrat import (
    CovariateTable,
    ExperimentFrame,
    GroupPartition,
    MahalanobisRegion,
    MatchConfig,
    RngSpec,
    design_partition,
    draw_stratified,
    fit_adjustment,
    load_covariates,
    match_k_tuples,
    region_from_dict,
    rerandomize,
    score_sate,
    solve_gmm,
    within_tuple_demean,
    write_covariates,
)
from finestrat.cli import main


def _dyadic(gen, shape, span=32, denom=4.0):
    return gen.integers(-span, span + 1, size=shape).astype(float) / denom


@given(
    k=st.integers(min_value=2, max_value=5),
    groups=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_partition_validity(k, groups, seed):
    gen = np.random.default_rng(seed)
    n = k * groups
    psi = gen.standard_normal((n, 2))
    part = match_k_tuples(psi, MatchConfig(k=k, l=1, method="greedy-nn"))
    flat = np.sort(part.groups.ravel())
    assert np.array_equal(flat, np.arange(n))
    assert part.groups.shape == (groups, k)


@given(seed=st.integers(min_value=0, max_value=10_000),
       k=st.sampled_from([2, 4]))  # power-of-two groups keep means dyadic
@settings(max_examples=40, deadline=None)
def test_demeaning_group_sums_exactly_zero(seed, k):
    gen = np.random.default_rng(seed)
    n = 6 * k
    part = GroupPartition(groups=np.arange(n).reshape(-1, k), k=k, l=1)
    v = _dyadic(gen, (n, 3), denom=2.0 ** gen.integers(0, 4))
    out = within_tuple_demean(v, part)
    for g in part.groups:
        assert np.array_equal(out[g].sum(axis=0), np.zeros(3))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_alpha_equals_beta_difference_exactly(seed):
    gen = np.random.default_rng(seed)
    n = 40
    part = GroupPartition(groups=np.arange(n).reshape(-1, 2), k=2, l=1)
    d = draw_stratified(part, RngSpec(seed)).d
    w = gen.standard_normal((n, 3))
    y = gen.standard_normal(n)
    table = CovariateTable(psi=np.zeros((n, 1)), h=None, w=w, x=None, ids=None)
    frame = ExperimentFrame(covariates=table, d=d, p=0.5, y=y)
    fit = solve_gmm(frame, score_sate())
    adj = fit_adjustment(fit, frame, part, w=w)
    assert np.array_equal(adj.alpha, adj.beta1 - adj.beta0)


@given(seed=st.integers(min_value=0, max_value=10_000),
       shift=st.sampled_from([1.0, 8.0, -16.0, 64.0]))
@settings(max_examples=25, deadline=None)
def test_translation_invariance_exact_on_dyadic_data(seed, shift):
    gen = np.random.default_rng(seed)
    n = 32
    part = GroupPartition(groups=np.arange(n).reshape(-1, 2), k=2, l=1)
    d = draw_stratified(part, RngSpec(seed, 1)).d
    w = _dyadic(gen, (n, 2))
    y = _dyadic(gen, n)
    table = CovariateTable(psi=np.zeros((n, 1)), h=None, w=w, x=None, ids=None)
    frame = ExperimentFrame(covariates=table, d=d, p=0.5, y=y)
    fit = solve_gmm(frame, score_sate())
    adj1 = fit_adjustment(fit, frame, part, w=w)
    adj2 = fit_adjustment(fit, frame, part, w=w + shift)
    assert np.array_equal(adj1.alpha, adj2.alpha)
    assert np.array_equal(adj1.theta_adj, adj2.theta_adj)


def test_determinism_under_fixed_seeds():
    gen = np.random.default_rng(0)
    psi = gen.standard_normal((60, 2))
    h = gen.standard_normal((60, 3))
    cfg = MatchConfig(k=2, l=1, method="greedy-nn")
    parts = [match_k_tuples(psi, cfg, RngSpec(7)) for _ in range(2)]
    assert np.array_equal(parts[0].groups, parts[1].groups)
    draws = [draw_stratified(parts[0], RngSpec(8)) for _ in range(2)]
    assert np.array_equal(draws[0].d, draws[1].d)
    accepted = [rerandomize(parts[0], h, MahalanobisRegion(alpha=0.2), RngSpec(9))
                for _ in range(2)]
    assert np.array_equal(accepted[0].d, accepted[1].d)
    assert accepted[0].draw_index == accepted[1].draw_index


def test_stratified_draw_exact_counts_always():
    for k, l in ((2, 1), (3, 1), (3, 2), (5, 2)):
        part = GroupPartition(groups=np.arange(k * 7).reshape(-1, k), k=k, l=l)
        for s in range(10):
            draw = draw_stratified(part, RngSpec(s, 3))
            counts = draw.d[part.groups].sum(axis=1)
            assert np.array_equal(counts, np.full(7, l))


finite_or_none = st.none() | st.floats(allow_nan=False, allow_infinity=False)


@given(data=st.data(), k=st.integers(min_value=2, max_value=5),
       G=st.sampled_from([2, 4, 6, 8]), seed=st.integers(min_value=0, max_value=10_000),
       homogeneity=finite_or_none, paired=st.booleans(), pairing_stat=finite_or_none)
@settings(max_examples=25, deadline=None)
def test_partition_json_roundtrip_bit_exact(data, k, G, seed, homogeneity, paired, pairing_stat):
    gen = np.random.default_rng(seed)
    l = data.draw(st.integers(min_value=1, max_value=k - 1))
    pairing = None
    if paired:  # a random fixed-point-free involution on the groups
        order = gen.permutation(G)
        pairing = np.empty(G, dtype=np.intp)
        pairing[order[0::2]], pairing[order[1::2]] = order[1::2], order[0::2]
    part = GroupPartition(groups=gen.permutation(k * G).reshape(G, k), k=k, l=l,
                          homogeneity=homogeneity, pairing=pairing,
                          pairing_stat=pairing_stat if paired else None)
    text = json.dumps(part.to_json_dict())
    back = GroupPartition.from_json_dict(json.loads(text))
    assert (back.k, back.l) == (k, l)
    assert back.groups.dtype == part.groups.dtype
    assert back.groups.tobytes() == part.groups.tobytes()
    assert (back.pairing is None) == (pairing is None)
    if paired:
        assert back.pairing.tobytes() == part.pairing.tobytes()
    for got, want in ((back.homogeneity, part.homogeneity), (back.pairing_stat, part.pairing_stat)):
        assert (got is None) == (want is None)
        if want is not None:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert json.dumps(back.to_json_dict()) == text


ROLES = ("psi", "h", "w", "x")


@given(data=st.data(), n=st.integers(min_value=1, max_value=6),
       m=st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_covariate_csv_roundtrip_bit_exact(data, n, m):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = np.array(data.draw(st.lists(st.lists(finite, min_size=m, max_size=m),
                                         min_size=n, max_size=n)), dtype=np.float64)
    # each column serves one or more roles
    col_roles = [sorted(data.draw(st.sets(st.sampled_from(ROLES), min_size=1)))
                 for _ in range(m)]
    kwargs = {}
    for role in ROLES:
        cols = [j for j in range(m) if role in col_roles[j]]
        kwargs[role] = values[:, cols] if cols else None
        kwargs[role + "_names"] = tuple(f"c{j}" for j in cols)
    ids = np.array([f"u{i}" for i in range(n)])
    table = CovariateTable(ids=ids, **kwargs)
    buf = io.StringIO()
    write_covariates(table, buf)
    lines = buf.getvalue().splitlines()
    # blank rows anywhere after the header are skipped
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        at = data.draw(st.integers(min_value=1, max_value=len(lines)))
        lines.insert(at, data.draw(st.sampled_from(["", "   "])))
    role_map = {f"c{j}": col_roles[j] for j in range(m)}
    role_map["id"] = "id"
    back = load_covariates(io.StringIO("\n".join(lines) + "\n"), role_map)
    assert back.ids.tolist() == ids.tolist()
    for role in ROLES:
        assert getattr(back, role).tobytes() == getattr(table, role).tobytes()
        assert back.role_names(role) == table.role_names(role)


BAD_TOKENS = ["NA", "", "abc", "1.5.2", "0x10", "nan", "inf", "-inf", "1e400"]
N_UNITS = 20


@pytest.fixture(scope="module")
def assigned(tmp_path_factory):
    """An assign run on 20 units whose covariate file has an unused text
    column, plus a valid outcomes file for it."""
    tmp = tmp_path_factory.mktemp("cli")
    gen = np.random.default_rng(8)
    ids = [f"u{i}" for i in range(N_UNITS)]
    cov = ["id,psi,note,h1"] + [f"{u},{a!r},text {i},{b!r}" for i, (u, a, b) in
                                enumerate(zip(ids, *gen.standard_normal((2, N_UNITS)).tolist()))]
    (tmp / "cov.csv").write_text("\n".join(cov) + "\n")
    (tmp / "design.json").write_text(json.dumps({
        "roles": {"id": "id", "psi": "psi", "h1": ["h", "w"]}, "k": 2, "l": 1,
        "region": {"shape": "mahalanobis", "alpha": 0.2}, "seed": 3}))
    assert main(["assign", "--spec", str(tmp / "design.json"), "--data", str(tmp / "cov.csv"),
                 "--out", str(tmp / "assign.csv")]) == 0
    d = json.loads((tmp / "assign.csv.manifest.json").read_text())["d"]
    outcomes = ["id,y,d"] + [f"{u},{i}.25,{di}" for i, (u, di) in enumerate(zip(ids, d))]
    return tmp, cov, outcomes


def _main_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _set_field(lines, row, col, token):
    fields = lines[row].split(",")
    fields[lines[0].split(",").index(col)] = token
    lines[row] = ",".join(fields)


@given(row=st.integers(min_value=1, max_value=N_UNITS), col=st.sampled_from(["psi", "h1"]),
       token=st.sampled_from(BAD_TOKENS), blank=st.booleans())
@settings(max_examples=30, deadline=None)
def test_bad_covariate_cell_exit_2_names_row_and_column(assigned, row, col, token, blank):
    tmp, cov, _ = assigned
    lines = list(cov)
    _set_field(lines, row, col, token)
    if blank:  # a blank row before the data still counts in the row number
        lines.insert(1, "")
    (tmp / "bad.csv").write_text("\n".join(lines) + "\n")
    rc, err = _main_stderr(["assign", "--spec", str(tmp / "design.json"),
                            "--data", str(tmp / "bad.csv"), "--out", str(tmp / "bad-assign.csv")])
    assert rc == 2
    assert f"covariates row {row + blank}, column '{col}'" in err


@given(row=st.integers(min_value=1, max_value=N_UNITS),
       other=st.integers(min_value=1, max_value=N_UNITS),
       fault=st.sampled_from(["y", "d", "rename", "repeat"]), token=st.sampled_from(BAD_TOKENS))
@settings(max_examples=40, deadline=None)
def test_bad_outcome_row_exit_2_names_row(assigned, row, other, fault, token):
    tmp, _, outcomes = assigned
    lines = list(outcomes)
    if fault in ("y", "d"):
        _set_field(lines, row, fault, token)
        expected = [f"outcomes row {row}, column '{fault}'"]
    elif fault == "rename":
        _set_field(lines, row, "id", "zz")
        expected = [f"outcomes file is missing id 'u{row - 1}'"]
    else:
        if other == row:
            other = row % N_UNITS + 1
        _set_field(lines, row, "id", f"u{other - 1}")
        expected = ["duplicate id", f"rows {min(row, other)} and {max(row, other)}"]
    (tmp / "bad-y.csv").write_text("\n".join(lines) + "\n")
    rc, err = _main_stderr(["estimate", "--manifest", str(tmp / "assign.csv.manifest.json"),
                            "--data", str(tmp / "cov.csv"), "--outcomes", str(tmp / "bad-y.csv"),
                            "--out", str(tmp / "bad-report.json")])
    assert rc == 2
    assert all(part in err for part in expected), err


@pytest.mark.parametrize("method", ["sorted-1d", "greedy-nn"])
@pytest.mark.parametrize("k, l", [(2, 1), (3, 1), (4, 2)])
def test_assign_then_estimate_returns_a_constant_effect_exactly(tmp_path, k, l, method):
    """y = c + tau * d gives tau, adjusted or not; a baseline that is
    constant within each matched group still gives tau unadjusted."""
    gen = np.random.default_rng(10 * k + l)
    n, tau = 48, 2.25
    ids = [f"u{i}" for i in range(n)]
    columns = zip(ids, *_dyadic(gen, (3, n)).tolist())
    (tmp_path / "cov.csv").write_text("id,psi,h1,h2\n" + "".join(
        f"{u},{a!r},{b!r},{c!r}\n" for u, a, b, c in columns))
    (tmp_path / "design.json").write_text(json.dumps({
        "roles": {"id": "id", "psi": "psi", "h1": ["h", "w"], "h2": ["h", "w"]},
        "k": k, "l": l, "match": {"method": method}, "seed": 5}))
    assert main(["assign", "--spec", str(tmp_path / "design.json"),
                 "--data", str(tmp_path / "cov.csv"), "--out", str(tmp_path / "a.csv")]) == 0
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    group = np.empty(n, dtype=int)
    group[np.asarray(manifest["partition"]["groups"])] = np.arange(n // k)[:, None]
    for baseline, adjusted in ((np.full(n, 1.5), True), ((group % 7 - 3) * 0.5, False)):
        y = baseline + tau * np.asarray(manifest["d"])
        (tmp_path / "y.csv").write_text("id,y\n" + "".join(
            f"{u},{v!r}\n" for u, v in zip(ids, y.tolist())))
        assert main(["estimate", "--manifest", str(tmp_path / "a.csv.manifest.json"),
                     "--data", str(tmp_path / "cov.csv"), "--outcomes", str(tmp_path / "y.csv"),
                     "--out", str(tmp_path / "report.json")]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["theta_hat"] == [tau]
        if adjusted:
            assert report["theta_adj"] == [tau]


@pytest.fixture(scope="module")
def roundtrip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


def _bits(value):
    return None if value is None else float(value).hex()


@given(data=st.data(), k=st.integers(min_value=2, max_value=4),
       pairs=st.integers(min_value=2, max_value=4), seed=st.integers(min_value=0, max_value=2**32),
       accept=st.floats(min_value=0.05, max_value=0.95),
       ci_alpha=st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=15, deadline=None)
def test_assign_manifest_round_trips_bit_for_bit(roundtrip_dir, data, k, pairs, seed, accept,
                                                 ci_alpha):
    """The manifest and CSV that assign writes load back to the partition,
    draw, seed and spec the library computes, bit for bit, and estimate
    accepts the manifest."""
    tmp = roundtrip_dir
    l = data.draw(st.integers(min_value=1, max_value=k - 1))
    columns = data.draw(st.integers(min_value=1, max_value=2))
    method = data.draw(st.sampled_from(["sorted-1d", "greedy-nn"] if columns == 1
                                       else ["greedy-nn"]))
    n = 2 * pairs * k  # an even group count, so groups can always be paired
    ids = data.draw(st.lists(st.text("ab09_-", min_size=1, max_size=4), min_size=n, max_size=n,
                             unique=True))
    gen = np.random.default_rng(seed)
    names = [f"p{j}" for j in range(columns)] + ["h1"]
    (tmp / "cov.csv").write_text(",".join(["id"] + names) + "\n" + "".join(
        ",".join([u] + [repr(v) for v in row]) + "\n"
        for u, row in zip(ids, gen.standard_normal((n, columns + 1)).tolist())))
    spec = {"roles": {"id": "id", "p0": ["psi", "h"], **{c: "psi" for c in names[1:-1]},
                      "h1": "h"},
            "k": k, "l": l, "match": {"method": method}, "alpha": ci_alpha,
            "region": {"shape": "mahalanobis", "alpha": accept}, "seed": seed, "max_draws": 50}
    (tmp / "design.json").write_text(json.dumps(spec))
    rc, err = _main_stderr(["assign", "--spec", str(tmp / "design.json"),
                            "--data", str(tmp / "cov.csv"), "--out", str(tmp / "a.csv")])
    assert rc == 0, err

    table = load_covariates(tmp / "cov.csv", spec["roles"])
    partition = design_partition(table.psi, MatchConfig(k=k, l=l, method=method),
                                 RngSpec(seed, 0))
    draw = rerandomize(partition, table.h, region_from_dict(spec["region"]), RngSpec(seed, 1),
                       max_draws=50)
    manifest = json.loads((tmp / "a.csv.manifest.json").read_text())
    back = GroupPartition.from_json_dict(manifest["partition"])
    assert back.groups.tobytes() == partition.groups.tobytes()
    assert (back.pairing is None) == (partition.pairing is None) == (min(l, k - l) >= 2)
    if back.pairing is not None:
        assert back.pairing.tobytes() == partition.pairing.tobytes()
    for stat in ("homogeneity", "pairing_stat"):
        assert _bits(getattr(back, stat)) == _bits(getattr(partition, stat))
    assert manifest["d"] == draw.d.tolist()
    assert (manifest["draws_to_accept"], manifest["accepted"]) == (draw.draw_index,
                                                                    draw.accepted)
    assert _bits(manifest["penalty"]) == _bits(draw.penalty)
    assert manifest["seed"] == seed
    assert json.dumps(manifest["spec"], sort_keys=True) == json.dumps(spec, sort_keys=True)
    digest = hashlib.sha256((tmp / "cov.csv").read_bytes()).hexdigest()
    assert manifest["covariates_sha256"] == digest
    with open(tmp / "a.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["id", "group", "d"]] + [
        [u, str(g), str(v)] for u, g, v in zip(ids, partition.group_of().tolist(), manifest["d"])]

    (tmp / "y.csv").write_text("id,y\n" + "".join(
        f"{u},{v!r}\n" for u, v in zip(ids, gen.standard_normal(n).tolist())))
    rc, err = _main_stderr(["estimate", "--manifest", str(tmp / "a.csv.manifest.json"),
                            "--data", str(tmp / "cov.csv"), "--outcomes", str(tmp / "y.csv"),
                            "--out", str(tmp / "report.json")])
    assert rc == 0, err
    assert json.loads((tmp / "report.json").read_text())["alpha"] == ci_alpha
