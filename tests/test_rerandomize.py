import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from finestrat import (
    ConfigError,
    CovariateTable,
    EstimationError,
    ExperimentFrame,
    FullSpaceRegion,
    GmmRegion,
    GroupPartition,
    MahalanobisRegion,
    PolarRegion,
    RngSpec,
    SingularityError,
    calibrate_threshold,
    chi2_threshold,
    gmm_imbalance,
    mahalanobis_stat,
    pilot_wald_region,
    polar_penalty,
    propensity_stat,
    rerandomize,
    within_tuple_demean,
)
from finestrat.core import psd_root
from finestrat.inference import normal_quantile
from finestrat.randomize import (
    assignment_matrix_from_treated,
    draw_stratified,
    treated_slots,
    treated_units_batch,
)
from finestrat.rerandomize import _batch_penalties


def _pairs(n):
    return GroupPartition(groups=np.arange(n).reshape(-1, 2), k=2, l=1)


def _frame(d, h=None, p=0.5, y=None, x=None):
    n = len(d)
    table = CovariateTable(psi=np.zeros((n, 1)), h=h, w=None, x=x, ids=None)
    return ExperimentFrame(covariates=table, d=np.asarray(d), p=p,
                           y=None if y is None else np.asarray(y, dtype=float))


# -- within-tuple demeaning -------------------------------------------------


def test_demean_pair():
    part = _pairs(2)
    np.testing.assert_array_equal(within_tuple_demean(np.array([3.0, 5.0]), part), [-1.0, 1.0])


def test_demean_constant_column():
    part = _pairs(6)
    np.testing.assert_array_equal(within_tuple_demean(np.full((6, 2), 7.0), part), np.zeros((6, 2)))


def test_demean_triple():
    part = GroupPartition(groups=np.array([[0, 1, 2]]), k=3, l=1)
    np.testing.assert_array_equal(
        within_tuple_demean(np.array([1.0, 2.0, 6.0]), part), [-2.0, -1.0, 3.0]
    )


def test_demean_group_sums_zero_dyadic():
    part = GroupPartition(groups=np.arange(12).reshape(-1, 4), k=4, l=2)
    v = np.random.default_rng(0).integers(-8, 8, size=(12, 3)).astype(float) / 4.0
    out = within_tuple_demean(v, part)
    for g in part.groups:
        np.testing.assert_array_equal(out[g].sum(axis=0), np.zeros(3))


# -- quadratic statistic ----------------------------------------------------


def test_mahalanobis_zero_when_means_equal():
    h = np.array([[1.0], [2.0], [1.0], [2.0]])
    frame = _frame([1, 0, 0, 1], h=h)
    stat = mahalanobis_stat(frame, _pairs(4))
    assert stat.value == pytest.approx(0.0, abs=1e-12)


def test_mahalanobis_duplicate_column_singular():
    gen = np.random.default_rng(1)
    col = gen.standard_normal(20)
    h = np.column_stack([col, col])
    d = np.tile([1, 0], 10)
    frame = _frame(d, h=h)
    with pytest.raises(SingularityError, match="collinear"):
        mahalanobis_stat(frame, _pairs(20))


def test_mahalanobis_chi2_calibration_quick():
    # acceptance-probability check at the 0.8 quantile, n=2000 pairs, dim 5
    n, reps = 2000, 5000
    gen = np.random.default_rng(2)
    h = gen.standard_normal((n, 5))
    part = _pairs(n)
    pens = _batch_penalties(MahalanobisRegion(alpha=0.8), part, h,
                            RngSpec(3).generator(), reps)
    emp = np.mean(pens <= chi2_threshold(5, 0.8))
    assert abs(emp - 0.8) < 0.02
    # the statistic is the bound region's penalty of its raw imbalance
    bound = MahalanobisRegion(alpha=0.8).bind(h, part, 0.5)
    for s in range(3):
        stat = mahalanobis_stat(_frame(draw_stratified(part, RngSpec(4, s)).d, h=h), part)
        assert stat.value == pytest.approx(bound.penalty(stat.raw[None])[0], rel=1e-12)


# -- chi-square thresholds, against series/bisection oracles ----------------


def _chi2_cdf_1d(x):
    # P(Z^2 <= x) = erf(sqrt(x/2)) via the error function
    return math.erf(math.sqrt(x / 2.0))


def _bisect(f, lo, hi, tol=1e-12):
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return (lo + hi) / 2.0


def test_chi2_threshold_r1_oracle():
    # oracle value frozen from the erf-series CDF inverted by bisection:
    # P(chi2_1 <= 0.16710) = 0.3173
    alpha = 0.3173
    oracle = _bisect(lambda x: _chi2_cdf_1d(x) - alpha, 0.0, 10.0)
    assert oracle == pytest.approx(0.1671023, abs=2e-6)
    assert chi2_threshold(1, alpha) == pytest.approx(oracle, rel=1e-9)


def test_chi2_threshold_r2_closed_form():
    # chi-square with 2 df is exponential with mean 2
    assert chi2_threshold(2, 0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


QUANTILE_GRID = [1e-12, 1e-9, 1e-6, 0.002, 0.01, 0.05, 0.1, 0.25, 0.5,
                 0.75, 0.9, 0.95, 0.975, 0.99, 0.998, 1 - 1e-6]


def test_quantiles_equal_scipy_stats_bit_for_bit():
    # the chi-square quantiles come from scipy.special, the normal one from a
    # port of Cephes ndtri; scipy.stats and scipy.special are the references
    from scipy.special import ndtri
    from scipy.stats import chi2, norm

    for df in range(1, 41):
        root = psd_root(np.eye(df))
        for q in QUANTILE_GRID:
            assert chi2_threshold(df, q) == float(chi2.ppf(q, df))
            region = pilot_wald_region(np.zeros(df), np.eye(df), m=1, alpha=q, eps=1.0)
            assert np.array_equal(region.U, np.sqrt(float(chi2.ppf(1.0 - q, df))) * root)
    for q in QUANTILE_GRID + [1e-300, 1e-100, 1 - 1e-12]:
        assert normal_quantile(q) == float(norm.ppf(q))

    # ndtri's branches: |q - 1/2| <= 1/2 - exp(-2), then sqrt(-2 log q) below
    # 8 (q > exp(-32)) and from 8 on, each mirrored near 1
    gen = np.random.default_rng(20240611)
    sweep = [gen.uniform(math.exp(-2), 1 - math.exp(-2), 3000),
             np.exp(-gen.uniform(2, 32, 3000)), np.exp(-gen.uniform(32, 744, 3000)),
             1 - np.exp(-gen.uniform(2, 36, 3000))]
    for edge in (math.exp(-2), 1 - math.exp(-2), math.exp(-32)):
        below = above = edge
        for _ in range(50):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
            sweep.append([below, edge, above])
    tiny = np.finfo(np.float64).smallest_subnormal
    sweep.append([tiny, 2 * tiny, 1e-310, np.finfo(np.float64).tiny, 0.0, -0.0, 1.0,
                  np.nextafter(1.0, 0.0), -tiny, -1e-300, -1.0, 1 + 2.2e-16, 2.0,
                  np.inf, -np.inf, np.nan])
    q = np.concatenate(sweep)
    got = np.array([normal_quantile(v) for v in q])
    want = ndtri(q)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)  # NaN counts as equal to NaN; every other value bit for bit
    assert np.array_equal(got[ok].view(np.int64), want[ok].view(np.int64))


def test_chi2_threshold_alpha_guard():
    with pytest.raises(ConfigError):
        chi2_threshold(3, 1.0 - 1e-9)
    with pytest.raises(ConfigError):
        chi2_threshold(3, 0.0)


def test_chi2_bracket_holds_the_scipy_quantile_within_1e_9():
    # the quadratic region decides its draws from this pure-Python bracket;
    # every draw keeps SciPy's decision only if the bracket holds its value
    from scipy.stats import chi2

    from finestrat.rerandomize import _chi2_bracket

    dense = np.concatenate([np.geomspace(1e-6, 0.5, 30), 1.0 - np.geomspace(1e-6, 0.5, 30)])
    grids = [(range(1, 201), QUANTILE_GRID), (range(1, 61), dense.tolist())]
    for dfs, alphas in grids:
        for df in dfs:
            for q, t in zip(alphas, chi2.ppf(alphas, df).tolist()):
                lo, hi = _chi2_bracket(df, q)
                assert lo <= t <= hi, (df, q)
                assert (hi - lo) / 2.0 <= 1.000001e-9 * t, (df, q)


@pytest.mark.parametrize("r,alpha", [(1, 0.01), (2, 0.01), (3, 1 / 500), (5, 0.5),
                                     (8, 0.9), (40, 1e-6), (200, 1 - 1e-6)])
def test_chi2_level_decides_draws_as_the_exact_threshold(r, alpha):
    from scipy.stats import chi2

    bound = MahalanobisRegion(alpha=alpha).population(np.eye(r))
    t = float(chi2.ppf(alpha, r))
    assert bound.threshold == t
    lo, hi = bound.limit.lo, bound.limit.hi
    pens = np.array([np.nextafter(t, 0.0), t, np.nextafter(t, np.inf), lo, hi,
                     np.nextafter(lo, 0.0), np.nextafter(hi, np.inf), 0.0, np.inf, np.nan])
    np.testing.assert_array_equal(bound.accepts(pens), pens <= t)
    # the guards still act when the region is bound, with their messages
    for bad, message in ((0.0, r"alpha must lie in \(0, 1\), got 0.0"),
                         (1.0 - 1e-9, "alpha too close to 1; threshold would be unbounded")):
        with pytest.raises(ConfigError, match=message):
            MahalanobisRegion(alpha=bad).population(np.eye(r))


def test_chi2_level_loads_scipy_only_for_a_penalty_in_its_bracket():
    code = ("import json, sys\n"
            "import numpy as np\n"
            "from finestrat import MahalanobisRegion\n"
            "bound = MahalanobisRegion(alpha=0.01).population(np.eye(2))\n"
            "lo, hi = bound.limit.lo, bound.limit.hi\n"
            "loaded = lambda: any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
            "outside = bound.accepts(np.array([0.0, lo, 2 * hi, np.inf])).tolist()\n"
            "before = loaded()\n"
            "inside = bound.accepts(np.array([(lo + hi) / 2])).tolist()\n"
            "print(json.dumps([outside, before, loaded()]))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == [[True, True, False, False], False, True]


# -- polar penalties ---------------------------------------------------------


def test_polar_penalty_pure_ball():
    x = np.array([3.0, 4.0])
    assert polar_penalty(x, np.zeros(2), np.eye(2), p=2) == pytest.approx(5.0)


def test_polar_penalty_ball_belief():
    gen = np.random.default_rng(4)
    gamma_bar = gen.standard_normal(3)
    u = 0.7
    x = gen.standard_normal(3)
    got = polar_penalty(x, gamma_bar, u * np.eye(3), p=2)
    assert got == pytest.approx(abs(x @ gamma_bar) + u * np.linalg.norm(x))


def _sampled_sup(x, gamma_bar, U, p, draws, gen):
    # oracle: sup over gamma in the belief set of |gamma'x|, approximated by
    # sampling points of the set; extreme points included for p in {1, inf}
    d = gamma_bar.size
    g = gen.standard_normal((draws, d))
    if np.isinf(p):
        corners = np.sign(gen.standard_normal((draws // 2, d)))
        v = np.vstack([g[: draws // 2] / np.abs(g[: draws // 2]).max(axis=1, keepdims=True), corners])
    elif p == 1:
        idx = gen.integers(0, d, size=draws // 2)
        basis = np.zeros((draws // 2, d))
        basis[np.arange(draws // 2), idx] = np.sign(gen.standard_normal(draws // 2))
        v = np.vstack([g[: draws // 2] / np.abs(g[: draws // 2]).sum(axis=1, keepdims=True), basis])
    else:
        v = g / np.linalg.norm(g, axis=1, keepdims=True)
    gammas = gamma_bar + v @ U.T
    return np.abs(gammas @ x).max()


def test_polar_penalty_rectangle_formula_and_sampled_sup():
    gen = np.random.default_rng(5)
    worst = 0.0
    for _ in range(60):
        d = gen.integers(2, 5)
        a = gen.standard_normal(d) - 1.0
        b = a + gen.random(d) * 2.0 + 0.05
        region = PolarRegion.rectangle(a, b, eps=1.0)
        x = gen.standard_normal(d)
        got = float(region.penalty(x)[0])
        direct = abs(x @ (a + b) / 2.0) + 0.5 * np.abs(x) @ (b - a)
        assert got == pytest.approx(direct, rel=1e-12)
        oracle = _sampled_sup(x, region.gamma_bar, region.U, np.inf, 20000, gen)
        worst = max(worst, abs(got - oracle) / oracle)
    assert worst < 1e-2


def test_polar_penalty_singular_U():
    with pytest.raises(SingularityError):
        polar_penalty(np.ones(2), np.zeros(2), np.zeros((2, 2)))


def test_region_symmetry():
    gen = np.random.default_rng(6)
    regions = [
        PolarRegion.ball(3, 1.5),
        PolarRegion(gamma_bar=gen.standard_normal(3), U=gen.standard_normal((3, 3)), p_exponent=1, eps=1.0),
        PolarRegion.rectangle(-np.ones(3), np.ones(3) * 2, eps=1.0),
    ]
    for region in regions:
        for _ in range(50):
            x = gen.standard_normal(3) * 3
            assert region.penalty(x)[0] == pytest.approx(region.penalty(-x)[0], rel=1e-12)


# -- pilot regions ------------------------------------------------------------


def test_pilot_wald_m4_identity_case():
    from scipy.stats import chi2

    d = 3
    alpha = 1.0 - chi2.cdf(4.0, d)  # makes the critical value exactly 4
    gamma = np.array([1.0, -2.0, 0.5])
    region = pilot_wald_region(gamma, np.eye(d), m=4, alpha=alpha, eps=1.0)
    x = np.array([0.3, 0.1, -0.2])
    assert region.penalty(x)[0] == pytest.approx(abs(x @ gamma) + np.linalg.norm(x), rel=1e-9)


def test_pilot_wald_large_m_limit():
    gamma = np.array([2.0, 1.0])
    region = pilot_wald_region(gamma, np.eye(2), m=10 ** 12, alpha=0.05, eps=1.0)
    x = np.array([0.5, -0.25])
    assert region.penalty(x)[0] == pytest.approx(abs(x @ gamma), abs=1e-5)


def test_pilot_wald_nested_in_m():
    gen = np.random.default_rng(7)
    gamma = gen.standard_normal(4)
    sigma = np.eye(4) * 2.0
    r100 = pilot_wald_region(gamma, sigma, m=100, alpha=0.05, eps=1.0)
    r400 = pilot_wald_region(gamma, sigma, m=400, alpha=0.05, eps=1.0)
    x = gen.standard_normal((1000, 4))
    assert np.all(r400.penalty(x) <= r100.penalty(x) + 1e-12)


def test_pilot_wald_rejects_non_psd():
    with pytest.raises(ConfigError, match="semidefinite"):
        pilot_wald_region(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]), 10, 0.05, 1.0)


# -- propensity statistic -----------------------------------------------------


def test_propensity_flat_when_balanced():
    x = np.array([1.0, -1.0, 1.0, -1.0])
    X = np.column_stack([np.ones(4), x])
    stat = propensity_stat(np.array([1, 0, 0, 1]), X, p=0.5)
    assert stat.value == pytest.approx(0.0, abs=1e-10)
    assert abs(stat.extra["beta"][1]) < 1e-5


def test_propensity_separation_error():
    d = np.array([1, 1, 1, 0, 0, 0])
    X = np.column_stack([np.ones(6), d.astype(float)])
    with pytest.raises(EstimationError) as err:
        propensity_stat(d, X, p=0.5)
    assert err.value.trace  # iteration trace attached


def test_propensity_tracks_mahalanobis_quick():
    from scipy.stats import spearmanr

    n = 400
    gen = np.random.default_rng(8)
    h = gen.standard_normal((n, 3))
    part = _pairs(n)
    m_stats, p_stats = [], []
    for s in range(300):
        from finestrat import draw_stratified

        d = draw_stratified(part, RngSpec(9, s)).d
        frame = _frame(d, h=h)
        m_stats.append(mahalanobis_stat(frame, part).value)
        X = np.column_stack([np.ones(n), h])
        p_stats.append(propensity_stat(d, X, p=0.5).value)
    rho = spearmanr(m_stats, p_stats).statistic
    assert rho > 0.9


# -- moment-fit imbalance -----------------------------------------------------


def test_gmm_imbalance_location_model_is_mean_gap():
    gen = np.random.default_rng(10)
    x = gen.standard_normal((40, 3))
    d = np.tile([1, 0], 20)
    frame = _frame(d, h=x)
    stat = gmm_imbalance(frame, lambda mat, beta: mat - beta)
    direct = np.sqrt(40) * (x[d == 1].mean(axis=0) - x[d == 0].mean(axis=0))
    np.testing.assert_allclose(stat.value, direct, rtol=1e-8)


def test_gmm_imbalance_gaussian_location_scale_oracle():
    # oracle: within-arm moment fit of (x - mu, sigma2 - (x - mu)^2) has the
    # closed form mu = arm mean, sigma2 = arm mean squared deviation
    def score(mat, beta):
        x = mat[:, 0]
        return np.column_stack([x - beta[0], beta[1] - (x - beta[0]) ** 2])

    gen = np.random.default_rng(11)
    x = gen.standard_normal((60, 1)) * 1.5 + 0.3
    d = np.tile([1, 0], 30)
    frame = _frame(d, h=x)
    stat = gmm_imbalance(frame, score, beta_init=np.array([0.0, 1.0]))
    for arm, key in ((1, "beta1"), (0, "beta0")):
        sub = x[d == arm, 0]
        np.testing.assert_allclose(
            stat.extra[key], [sub.mean(), np.mean((sub - sub.mean()) ** 2)],
            rtol=1e-6, atol=1e-8,
        )
    oracle = np.sqrt(60) * (stat.extra["beta1"] - stat.extra["beta0"])
    np.testing.assert_allclose(stat.value, oracle, rtol=1e-10)


def test_gmm_feasible_surrogate_balances_sufficient_statistics():
    # for the exponential-family location-scale score, the pooled-fit score
    # values are the sufficient statistics (x, x^2) up to additive constants
    def score(mat, beta):
        x = mat[:, 0]
        return np.column_stack([x - beta[0], beta[1] - (x - beta[0]) ** 2])

    gen = np.random.default_rng(12)
    n = 40
    h = gen.standard_normal((n, 1))
    part = _pairs(n)
    region = GmmRegion(score=score, base=PolarRegion.ball(2, 50.0),
                       beta_init=np.array([0.0, 1.0]), feasible=True)
    bound = region.bind(h, part, 0.5)
    surr = bound.stats
    # column spans: (x - const) and (const - (x - const)^2)
    np.testing.assert_allclose(surr[:, 0] - surr[:, 0].mean(),
                               h[:, 0] - h[:, 0].mean(), atol=1e-8)
    corr = np.corrcoef(surr[:, 1], (h[:, 0] - h[:, 0].mean()) ** 2)[0, 1]
    assert abs(corr) > 0.9999


# -- the accept/reject loop ---------------------------------------------------


def test_full_space_accepts_first_draw():
    part = _pairs(10)
    h = np.random.default_rng(13).standard_normal((10, 2))
    draw = rerandomize(part, h, FullSpaceRegion(), RngSpec(14))
    assert draw.draw_index == 1 and draw.accepted


@pytest.mark.parametrize("shape", [(40, 2, 1), (40, 4, 2), (40, 40, 20)])
def test_no_balance_columns_accept_the_first_draw(shape):
    # h with no columns: T has no coordinate, and the full space takes the first draw
    n, k, l = shape
    part = _random_partition(n, k, l, 55)
    draw = rerandomize(part, np.zeros((n, 0)), None, RngSpec(56))
    assert (draw.draw_index, draw.accepted, draw.penalty) == (1, True, 0.0)
    assert (draw.d[part.groups].sum(axis=1) == l).all()


@pytest.mark.parametrize("shape", [(400, 2, 1), (399, 3, 1)])
def test_no_balance_columns_draw_what_draw_stratified_draws(shape):
    # at l = 1 the first draw of a 512-draw batch is the one draw of
    # draw_stratified from the same stream: a design with no balance columns
    # draws through rerandomize what pure stratification draws
    n, k, l = shape
    part = _random_partition(n, k, l, 57)
    for seed in range(60):
        draw = rerandomize(part, np.zeros((n, 0)), None, RngSpec(58, seed))
        np.testing.assert_array_equal(draw.d, draw_stratified(part, RngSpec(58, seed)).d)


def test_expected_draws_tracks_alpha():
    n = 200
    gen = np.random.default_rng(15)
    h = gen.standard_normal((n, 3))
    part = _pairs(n)
    alpha = 0.05
    counts = [rerandomize(part, h, MahalanobisRegion(alpha=alpha), RngSpec(16, s)).draw_index
              for s in range(150)]
    mean = np.mean(counts)
    # geometric with success prob ~alpha: mean ~20, se ~ 20/sqrt(150)
    assert abs(mean - 1.0 / alpha) < 5.0


def test_exhaustion_returns_flagged_best():
    part = _pairs(8)
    h = np.random.default_rng(17).standard_normal((8, 2))
    draw = rerandomize(part, h, MahalanobisRegion(eps2=1e-12), RngSpec(18), max_draws=1)
    assert not draw.accepted
    assert draw.draw_index == 1
    assert draw.penalty > 1e-12


def test_trace_records_every_draw():
    part = _pairs(8)
    h = np.random.default_rng(19).standard_normal((8, 2))
    draw = rerandomize(part, h, MahalanobisRegion(alpha=0.25), RngSpec(20))
    threshold = chi2_threshold(2, 0.25)
    trace = [(i, pen, bool(pen <= threshold)) for i, pen in enumerate(draw.penalties, 1)]
    assert len(trace) == draw.draw_index
    assert trace[-1][2] is True
    assert all(not t[2] for t in trace[:-1])


def test_calibrate_threshold_hits_target_rate():
    n = 300
    gen = np.random.default_rng(21)
    h = gen.standard_normal((n, 4))
    part = _pairs(n)
    region = calibrate_threshold(PolarRegion.ball(4, 1.0), part, h, alpha=0.2,
                                 rng=RngSpec(22), draws=4000)
    pens = _batch_penalties(region, part, h, RngSpec(23).generator(), 4000)
    emp = np.mean(pens <= region.eps)
    assert abs(emp - 0.2) < 0.03
    # a region without a threshold names its shape
    with pytest.raises(ConfigError, match="region 'none' has no threshold"):
        calibrate_threshold(FullSpaceRegion(), part, h, alpha=0.2, rng=RngSpec(22), draws=10)


def test_calibrate_threshold_checks_h_like_rerandomize():
    n = 100
    h = np.random.default_rng(24).standard_normal(n)
    part = _pairs(n)
    region = MahalanobisRegion(alpha=0.2)
    # a 1-d h is one balance column, as in rerandomize
    flat = calibrate_threshold(region, part, h, alpha=0.2, rng=RngSpec(25), draws=600)
    column = calibrate_threshold(region, part, h[:, None], alpha=0.2, rng=RngSpec(25),
                                 draws=600)
    assert flat.eps2 == column.eps2
    rerandomize(part, h, region, RngSpec(25), max_draws=10)
    # rows beyond the partition are refused, not silently ignored
    tall = np.concatenate([h, h[:50]])[:, None]
    for call in (lambda: calibrate_threshold(region, part, tall, alpha=0.2,
                                             rng=RngSpec(25), draws=10),
                 lambda: rerandomize(part, tall, region, RngSpec(25), max_draws=10)):
        with pytest.raises(ConfigError, match="disagree on n"):
            call()


@pytest.mark.parametrize("k,l", [(3, 1), (4, 2)])
def test_calibrate_threshold_hits_target_rate_larger_groups(k, l):
    # groups other than matched pairs go through the same within-group
    # difference kernel as pairs; the calibrated rate checks it end to end
    n = 300
    h = np.random.default_rng(21).standard_normal((n, 4))
    part = GroupPartition(groups=np.arange(n).reshape(-1, k), k=k, l=l)
    region = calibrate_threshold(PolarRegion.ball(4, 1.0), part, h, alpha=0.2,
                                 rng=RngSpec(22), draws=4000)
    pens = _batch_penalties(region, part, h, RngSpec(23).generator(), 4000)
    emp = np.mean(pens <= region.eps)
    assert abs(emp - 0.2) < 0.03


# -- scoring kernel against a gather-sum reference on the pinned stream -----


def _pinned_treated_units_batch(groups, l, gen, size):
    """Frozen copy of the original treated_units_batch: a partial
    Fisher-Yates shuffle of each group's slots with l swap rounds, building
    the permutation for every l. It pins the generator stream."""
    groups = np.asarray(groups)
    G, k = groups.shape
    perm = np.broadcast_to(np.arange(k), (size, G, k)).copy()
    bi = np.arange(size)[:, None]
    gi = np.arange(G)[None, :]
    for t in range(l):
        j = gen.integers(t, k, size=(size, G))
        tmp = perm[bi, gi, j]
        perm[bi, gi, j] = perm[:, :, t]
        perm[:, :, t] = tmp
    pos = perm[:, :, :l]
    return np.take_along_axis(np.broadcast_to(groups, (size, G, k)), pos, axis=2)


# (n, k, l) shapes: pairs, larger groups, and one group of all units
_KERNEL_SHAPES = [(400, 2, 1), (399, 3, 1), (400, 4, 2), (400, 4, 3), (60, 60, 30)]


def _random_partition(n, k, l, seed):
    return GroupPartition(groups=np.random.default_rng(seed).permutation(n).reshape(-1, k),
                          k=k, l=l)


def test_treated_units_batch_keeps_the_pinned_stream():
    for n, k, l in _KERNEL_SHAPES + [(300, 10, 7), (300, 300, 150)]:
        groups = _random_partition(n, k, l, 46).groups
        for size in (1, 7, 512):
            gen, ref_gen = RngSpec(47, size).generator(), RngSpec(47, size).generator()
            np.testing.assert_array_equal(treated_units_batch(groups, l, gen, size),
                                          _pinned_treated_units_batch(groups, l, ref_gen, size))
            assert gen.bit_generator.state == ref_gen.bit_generator.state


def _reference_batches(region, part, h, gen, draws):
    """(penalties, treated) per 512-draw batch, from the pinned stream and
    the gather-sum statistic T = sqrt(n)(mean_1 - mean_0)."""
    bound = region.bind(h, part, part.p)
    S = h if bound.stats is None else bound.stats
    n, p = part.n, part.p
    for start in range(0, draws, 512):
        treated = _pinned_treated_units_batch(part.groups, part.l, gen,
                                              min(512, draws - start))
        s1 = S[treated].sum(axis=(1, 2))
        T = np.sqrt(n) * (s1 / (n * p * (1 - p)) - S.sum(axis=0) / (n * (1 - p)))
        yield bound.penalty(T), treated


def _reference_rerandomize(region, part, h, gen, max_draws):
    """(draw_index, d, accepted): first draw in the region, else the first
    draw of smallest penalty."""
    thr = region.bind(h, part, part.p).threshold
    best = (np.inf, 0, None)
    start = 0
    for pens, treated in _reference_batches(region, part, h, gen, max_draws):
        hits = np.flatnonzero(pens <= thr)
        b = hits[0] if hits.size else int(np.argmin(pens))
        d = assignment_matrix_from_treated(treated[b:b + 1], part.n)[0]
        if hits.size:
            return start + b + 1, d, True
        if pens[b] < best[0]:
            best = (pens[b], start + b + 1, d)
        start += pens.size
    return best[1], best[2], False


def _feasible_gmm_region():
    def score(mat, beta):
        x = mat[:, 0]
        return np.column_stack([x - beta[0], mat[:, 1] * x - beta[1]])

    return GmmRegion(score=score, jac=lambda mat, beta: -np.eye(2),
                     base=MahalanobisRegion(alpha=0.5), feasible=True)


_KERNEL_REGIONS = [
    ("mahalanobis", MahalanobisRegion(alpha=0.5)),
    ("polar", PolarRegion.rectangle(np.array([-0.5, 0.2]), np.array([0.5, 1.5]), eps=1.0)),
    ("feasible-gmm", _feasible_gmm_region()),
]


@pytest.mark.parametrize("region,shape", [
    # matched pairs keep the bare region id
    pytest.param(region, (n, k, l), id=name if k == 2 else f"{name}-n{n}k{k}l{l}")
    for n, k, l in _KERNEL_SHAPES for name, region in _KERNEL_REGIONS
])
def test_pair_kernel_penalties_and_stream_match_reference(region, shape):
    n, k, l = shape
    draws = 1100  # two full batches and a partial one
    h = np.random.default_rng(40).standard_normal((n, 2))
    part = _random_partition(n, k, l, 41)
    gen, ref_gen = RngSpec(42).generator(), RngSpec(42).generator()
    pens = _batch_penalties(region, part, h, gen, draws)
    ref = np.concatenate([p for p, _ in _reference_batches(region, part, h, ref_gen, draws)])
    np.testing.assert_allclose(pens, ref, rtol=1e-10, atol=0)
    assert gen.bit_generator.state == ref_gen.bit_generator.state


@pytest.mark.parametrize("n", [400, 10_000])
def test_pair_kernel_is_the_sign_gemm_exactly(n):
    # at k = 2 the kernel is the matched-pair sign GEMM, bit for bit:
    # T = (j - 1/2) @ ((4 / sqrt(n)) (S_1 - S_0)) with j = integers(0, 2)
    h = np.random.default_rng(48).standard_normal((n, 3))
    part = _random_partition(n, 2, 1, 49)
    region = PolarRegion.ball(3, 1.0)
    delta2 = (4.0 / np.sqrt(n)) * (h[part.groups[:, 1]] - h[part.groups[:, 0]])
    ref_gen = RngSpec(50).generator()
    ref = np.concatenate([
        region.penalty((ref_gen.integers(0, 2, size=(B, n // 2)) - 0.5) @ delta2)
        for B in (512, 512, 76)
    ])
    gen = RngSpec(50).generator()
    np.testing.assert_array_equal(_batch_penalties(region, part, h, gen, 1100), ref)
    assert gen.bit_generator.state == ref_gen.bit_generator.state


def test_pair_kernel_rerandomize_matches_reference():
    n = 60
    h = np.random.default_rng(43).standard_normal((n, 3))
    region = MahalanobisRegion(alpha=0.005)
    for k, l in ((2, 1), (4, 2)):
        part = _random_partition(n, k, l, 44)
        exhausted = late = 0
        for seed in range(200):
            # every fifth seed gets a budget that is often exhausted
            max_draws = 300 if seed % 5 == 0 else 1500
            gen, ref_gen = RngSpec(45, seed).generator(), RngSpec(45, seed).generator()
            draw = rerandomize(part, h, region, gen, max_draws=max_draws)
            index, d, accepted = _reference_rerandomize(region, part, h, ref_gen, max_draws)
            assert (draw.draw_index, draw.accepted) == (index, accepted)
            np.testing.assert_array_equal(draw.d, d)
            assert gen.bit_generator.state == ref_gen.bit_generator.state
            assert draw.penalties.size == (index if accepted else max_draws)
            exhausted += not accepted
            late += accepted and index > 512
        assert exhausted >= 5 and late >= 5, (k, l)



# `finestrat.rerandomize` resolves to the function, not the module
_rr = importlib.import_module("finestrat.rerandomize")


@pytest.mark.parametrize("rows", [1, 7, 100])
@pytest.mark.parametrize("region,shape", [
    pytest.param(region, (n, k, l), id=f"{name}-n{n}k{k}l{l}")
    for n, k, l in _KERNEL_SHAPES for name, region in _KERNEL_REGIONS
])
def test_chunked_batches_match_reference(region, shape, rows, monkeypatch):
    # a budget of `rows` draws splits every 512-draw batch into chunks (of
    # one draw, or of sizes that do not divide 512); the stream, the
    # penalties and the accepted draw stay those of whole batches
    n, k, l = shape
    h = np.random.default_rng(40).standard_normal((n, 2))
    part = _random_partition(n, k, l, 41)
    monkeypatch.setattr(_rr, "_CHUNK_BYTES", rows * (n // k) * (9 * k + 8 * (l - 1)))
    sizes = []

    def recorded_slots(*args):
        for chunk in treated_slots(*args):
            sizes.append(chunk.shape[0])
            yield chunk

    monkeypatch.setattr(_rr, "treated_slots", recorded_slots)
    gen, ref_gen = RngSpec(42).generator(), RngSpec(42).generator()
    pens = _batch_penalties(region, part, h, gen, 1100)
    ref = np.concatenate([p for p, _ in _reference_batches(region, part, h, ref_gen, 1100)])
    np.testing.assert_allclose(pens, ref, rtol=1e-10, atol=0)
    assert gen.bit_generator.state == ref_gen.bit_generator.state
    assert sum(sizes) == 1100 and max(sizes) <= rows and len(sizes) > 3
    # about one draw in 200 accepted: many accepts fall after the first
    # chunk of their batch, in the second batch, or never (300 draws)
    tight = region.with_threshold(float(np.quantile(ref, 0.005)))
    later = 0
    for seed in range(8):
        max_draws = 300 if seed % 4 == 0 else 1100
        gen, ref_gen = RngSpec(45, seed).generator(), RngSpec(45, seed).generator()
        sizes.clear()
        draw = rerandomize(part, h, tight, gen, max_draws=max_draws)
        index, d, accepted = _reference_rerandomize(tight, part, h, ref_gen, max_draws)
        assert (draw.draw_index, draw.accepted) == (index, accepted)
        np.testing.assert_array_equal(draw.d, d)
        assert gen.bit_generator.state == ref_gen.bit_generator.state
        assert draw.penalties.size == (index if accepted else max_draws)
        ref_pens = np.concatenate([p for p, _ in _reference_batches(
            tight, part, h, RngSpec(45, seed).generator(), max_draws)])
        np.testing.assert_allclose(draw.penalties, ref_pens[:draw.penalties.size],
                                   rtol=1e-10, atol=0)
        later += accepted and (index - 1) % 512 >= sizes[0]
    assert later >= 2


@pytest.mark.parametrize("k,l", [(2, 1), (4, 2)])
def test_one_batch_holds_a_fixed_budget(k, l):
    # one 512-draw batch at n = 40000: whole-batch int64 slots and float64
    # mask - p would take 512 * n * 8 bytes (164 MB) for matched pairs
    n = 40_000
    h = np.random.default_rng(51).standard_normal((n, 5))
    part = _random_partition(n, k, l, 52)
    tracemalloc.start()
    try:
        calibrate_threshold(MahalanobisRegion(alpha=0.5), part, h, alpha=0.5,
                            rng=RngSpec(53), draws=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.MT19937])
def test_other_bit_generators_keep_the_pinned_stream(bit_generator):
    # no word source outside PCG64: integers draws every slot and the rest
    # of an accepted batch is drawn, not jumped over (their states hold arrays)
    n = 60
    h = np.random.default_rng(54).standard_normal((n, 3))
    region = MahalanobisRegion(alpha=0.05)
    for k, l in ((2, 1), (3, 1), (4, 2)):
        part = _random_partition(n, k, l, 55)
        for size in (1, 7, 512):
            gen, ref_gen = np.random.Generator(bit_generator(56)), np.random.Generator(bit_generator(56))
            np.testing.assert_array_equal(treated_units_batch(part.groups, l, gen, size),
                                          _pinned_treated_units_batch(part.groups, l, ref_gen, size))
            np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)
        for seed in range(10):
            gen, ref_gen = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
            draw = rerandomize(part, h, region, gen, max_draws=1100)
            index, d, accepted = _reference_rerandomize(region, part, h, ref_gen, 1100)
            assert (draw.draw_index, draw.accepted) == (index, accepted)
            np.testing.assert_array_equal(draw.d, d)
            np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)


def test_drawn_rest_of_a_batch_holds_the_budget():
    # k = 3 cannot jump: the rest of an accepted batch is drawn chunk by
    # chunk, not in one int64 call of 511 * G slots (54 MB here)
    n = 39_999
    h = np.random.default_rng(57).standard_normal((n, 5))
    part = _random_partition(n, 3, 1, 58)
    gen = RngSpec(59).generator()
    tracemalloc.start()
    try:
        draw = rerandomize(part, h, FullSpaceRegion(), gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ref_gen = RngSpec(59).generator()
    ref_gen.integers(0, 3, size=(512, n // 3))
    assert draw.draw_index == 1 and draw.penalties.size == 1
    assert gen.bit_generator.state == ref_gen.bit_generator.state
    assert peak < 48e6


def test_rerandomize_reproducible():
    part = _pairs(30)
    h = np.random.default_rng(24).standard_normal((30, 3))
    a = rerandomize(part, h, MahalanobisRegion(alpha=0.1), RngSpec(25))
    b = rerandomize(part, h, MahalanobisRegion(alpha=0.1), RngSpec(25))
    np.testing.assert_array_equal(a.d, b.d)
    assert a.draw_index == b.draw_index


def test_region_json_roundtrip_all_shapes():
    from finestrat import region_from_dict
    from finestrat.rerandomize import PropensityRegion

    gen = np.random.default_rng(30)
    regions = [
        FullSpaceRegion(),
        MahalanobisRegion(alpha=0.01),
        MahalanobisRegion(eps2=2.5),
        PolarRegion.ball(3, 1.25),
        PolarRegion.rectangle(-np.ones(2), np.ones(2), eps=0.7),
        pilot_wald_region(gen.standard_normal(3), np.eye(3), m=50, alpha=0.05, eps=1.1),
        PropensityRegion(eps2=0.4),
        PolarRegion(gamma_bar=np.zeros(2), U=np.eye(2), p_exponent=np.inf, eps=0.5),
    ]
    x = gen.standard_normal(3)
    for region in regions:
        clone = region_from_dict(region.to_dict())
        assert type(clone) is type(region)
        assert clone.to_dict() == region.to_dict()
        if isinstance(region, PolarRegion):
            assert clone.penalty(x[: region.gamma_bar.size])[0] == pytest.approx(
                region.penalty(x[: region.gamma_bar.size])[0], rel=1e-12)


@pytest.mark.parametrize("spec,message", [
    ({"shape": "ball", "dim": 2, "eps": 1.0}, None),
    ({"shape": "rectangle-polar", "a": [-1.0], "b": [1.0], "eps": 0.5}, None),
    ({"shape": "pilot-wald", "gamma_pilot": [0.5, 0.0], "sigma_pilot": [[1, 0], [0, 1]],
      "m": 20, "alpha": 0.1, "eps": 1.0}, None),
    ({"shape": "propensity", "eps2": 0.3}, None),
    ({"shape": "ball", "eps": 1}, "region 'ball' is missing required key 'dim'"),
    ({"shape": "mahalanobis", "alpha": 0.2, "eps": 9},
     "region 'mahalanobis' has unknown keys ['eps']"),
    ({"shape": "polar", "U": [[1.0]], "eps": 1.0}, "missing required key 'gamma_bar'"),
    ({"shape": "ball", "dim": 2, "eps": 1.0, "U": [[1.0]]}, "region 'ball' has unknown keys ['U']"),
    ({"shape": "propensity-threshold", "eps2": 0.3, "alpha": 0.1}, "unknown keys ['alpha']"),
    ({"shape": "rectangle-polar", "a": [0.0], "eps": 1.0}, "missing required key 'b'"),
    ({"alpha": 0.1}, "region 'none' has unknown keys ['alpha']"),
    ({"shape": "cube"}, "unknown region shape 'cube'"),
    ([1, 2], "region must be a JSON object"),
])
def test_region_from_dict_key_table(spec, message):
    from finestrat import region_from_dict

    if message is None:
        assert region_from_dict(spec).shape == spec["shape"].replace(
            "propensity", "propensity-threshold")
    else:
        with pytest.raises(ConfigError) as exc:
            region_from_dict(spec)
        assert message in str(exc.value)


def test_propensity_region_treats_separation_as_rejection():
    # 4-unit toy where some draws produce perfectly separating covariates:
    # the loop must keep going rather than crash
    from finestrat.rerandomize import PropensityRegion

    n = 8
    part = GroupPartition(groups=np.arange(n).reshape(-1, 2), k=2, l=1)
    h = np.tile([1.0, -1.0], 4)[:, None]  # any pair-balanced draw separates?
    region = PropensityRegion(eps2=10.0)
    draw = rerandomize(part, h, region, RngSpec(31), max_draws=16)
    assert draw.d.sum() == 4


def test_gmm_region_exact_path_in_loop():
    # exact per-draw refits with a ball base: the accepted draw's within-arm
    # location fits must differ by at most eps / sqrt(n)
    gen = np.random.default_rng(32)
    n = 60
    part = _pairs(n)
    h = gen.standard_normal((n, 2))
    region = GmmRegion(score=lambda mat, beta: mat - beta,
                       jac=lambda mat, beta: -np.eye(mat.shape[1]),
                       base=PolarRegion.ball(2, 1.0))
    draw = rerandomize(part, h, region, RngSpec(33), max_draws=2000)
    assert draw.accepted
    gap = np.sqrt(n) * (h[draw.d == 1].mean(axis=0) - h[draw.d == 0].mean(axis=0))
    assert np.linalg.norm(gap) <= 1.0 + 1e-9
    # a quadratic base needs the balance covariance: only the feasible path
    quadratic = GmmRegion(score=region.score, jac=region.jac,
                          base=MahalanobisRegion(alpha=0.5))
    with pytest.raises(ConfigError, match="feasible=True"):
        rerandomize(part, h, quadratic, RngSpec(33), max_draws=10)


def test_gmm_region_exact_penalty_reuses_pooled_fit():
    # bind fits the pooled model once; each candidate draw then refits only
    # the two arms, so no score call sees all n rows
    def score(mat, beta):
        calls.append(mat.shape[0])
        x = mat[:, 0]
        return np.column_stack([x - beta[0], beta[1] - (x - beta[0]) ** 2])

    calls = []
    n = 60
    gen = np.random.default_rng(37)
    h = gen.standard_normal((n, 1))
    part = _pairs(n)
    base = PolarRegion.ball(2, 3.0)
    region = GmmRegion(score=score, base=base, beta_init=np.array([0.0, 1.0]))
    bound = region.bind(h, part, 0.5)
    assert n in calls
    draws = assignment_matrix_from_treated(treated_units_batch(part.groups, 1, gen, 4), n)
    for d in draws:
        stat = gmm_imbalance(_frame(d, h=h), score, beta_init=np.array([0.0, 1.0]))
        del calls[:]
        pen = bound.penalty(d)
        assert calls and n not in calls
        assert pen == base.penalty(stat.value)[0]


def test_calibrate_threshold_assignment_based_region():
    from finestrat import PropensityRegion

    gen = np.random.default_rng(34)
    n = 200
    part = _pairs(n)
    h = gen.standard_normal((n, 2))
    region = calibrate_threshold(PropensityRegion(eps2=1.0), part, h, alpha=0.3,
                                 rng=RngSpec(35), draws=200)
    assert region.eps2 > 0
    pens = _batch_penalties(region, part, h, RngSpec(36).generator(), 200)
    emp = np.mean(pens <= region.eps2)
    assert abs(emp - 0.3) < 0.12


def test_mean_draws_near_inverse_alpha_at_scale():
    # expected rerandomizations until acceptance ~ 1/alpha; fixed seeds keep
    # the Monte Carlo draw deterministic and inside +-10%
    n = 1000
    gen = np.random.default_rng(60)
    h = gen.standard_normal((n, 4))
    part = _pairs(n)
    counts = [rerandomize(part, h, MahalanobisRegion(alpha=1.0 / 500.0),
                          RngSpec(61, s), max_draws=100000).draw_index
              for s in range(300)]
    assert abs(np.mean(counts) - 500.0) <= 50.0


# -- the moment fits on the shared Newton core, against the wrappers they replaced ----


def _reference_moment_root(x, score, jac, beta_init, label):
    from test_gmm import _reference_newton_root

    def fun(beta):
        return np.atleast_2d(score(x, beta)).mean(axis=0)

    jfun = (lambda b: jac(x, b)) if jac is not None else None
    beta, _, _ = _reference_newton_root(fun, jfun, beta_init, label=f"moment-fit[{label}]")
    return beta, fun


def _reference_pooled_moment_fit(x, score, jac, beta_init):
    from test_gmm import _reference_fd_jacobian

    if beta_init is None:
        beta_init = np.zeros(x.shape[1])
    beta_init = np.atleast_1d(np.asarray(beta_init, dtype=np.float64))
    beta, fun = _reference_moment_root(x, score, jac, beta_init, "pooled")
    G = jac(x, beta) if jac is not None else _reference_fd_jacobian(fun, beta)
    return beta, np.atleast_2d(np.asarray(G, dtype=np.float64))


def _reference_arm_gap(x, d, score, jac, start):
    beta1, _ = _reference_moment_root(x[d == 1], score, jac, start, "treated")
    beta0, _ = _reference_moment_root(x[d == 0], score, jac, start, "control")
    return np.sqrt(x.shape[0]) * (beta1 - beta0), beta1, beta0


class _ReferenceGmmRegion(GmmRegion):
    """GmmRegion bound through the frozen wrappers, and the feasible surrogate
    scored again at the pooled root."""

    def bind(self, h, partition, p):
        from dataclasses import replace

        from finestrat.rerandomize import Bound

        pooled, G = _reference_pooled_moment_fit(h, self.score, self.jac, self.beta_init)
        if self.feasible:
            base = self.base.bind(np.atleast_2d(self.score(h, pooled)), partition, p)
            return replace(base, penalty=lambda T: base.penalty(np.linalg.solve(G, T.T).T))
        base = self.base.fixed(pooled.size)

        def penalty(d):
            try:
                gap, _, _ = _reference_arm_gap(h, d, self.score, self.jac, pooled)
            except EstimationError:
                return np.inf
            return float(base.penalty(gap[None])[0])

        return Bound(penalty, base.limit)


def _scale_score(mat, beta):
    x = mat[:, 0]
    return np.column_stack([x - beta[0], beta[1] - (x - beta[0]) ** 2])


def _scale_jac(mat, beta):
    return np.array([[-1.0, 0.0], [2.0 * np.mean(mat[:, 0] - beta[0]), 1.0]])


_MOMENT_MODELS = {
    "scale-fd": (_scale_score, None, np.array([0.0, 1.0])),
    "scale-jac": (_scale_score, _scale_jac, np.array([0.0, 1.0])),
    "location-jac": (lambda mat, beta: mat - beta, lambda mat, beta: -np.eye(mat.shape[1]), None),
}


@pytest.mark.parametrize("model", list(_MOMENT_MODELS))
def test_gmm_imbalance_matches_the_frozen_wrappers(model):
    score, jac, beta_init = _MOMENT_MODELS[model]
    gen = np.random.default_rng(38)
    n = 40
    for _ in range(10):
        h = gen.standard_normal((n, 2)) + 0.5
        d = assignment_matrix_from_treated(treated_units_batch(_pairs(n).groups, 1, gen, 1), n)[0]
        stat = gmm_imbalance(_frame(d, h=h), score, jac=jac, beta_init=beta_init)
        pooled, G = _reference_pooled_moment_fit(h, score, jac, beta_init)
        value, beta1, beta0 = _reference_arm_gap(h, d, score, jac, pooled)
        want = {"beta1": beta1, "beta0": beta0, "beta_pooled": pooled, "jacobian": G,
                "surrogate": np.atleast_2d(score(h, pooled))}
        assert stat.value.tobytes() == value.tobytes()
        assert set(stat.extra) == set(want)
        for key, b in want.items():
            a = stat.extra[key]
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), key


@pytest.mark.parametrize("feasible", [False, True], ids=["exact", "feasible"])
@pytest.mark.parametrize("model", list(_MOMENT_MODELS))
def test_gmm_region_penalties_match_the_frozen_wrappers(model, feasible):
    # exact regions rescore each draw; feasible ones score the surrogate's
    # statistics in one batch
    score, jac, beta_init = _MOMENT_MODELS[model]
    base = MahalanobisRegion(alpha=0.5) if feasible else PolarRegion.ball(2, 3.0)
    kwargs = dict(score=score, jac=jac, beta_init=beta_init, base=base, feasible=feasible)
    n = 40
    part = _pairs(n)
    for seed in range(4):
        h = np.random.default_rng([39, seed]).standard_normal((n, 2)) + 0.5
        got = _batch_penalties(GmmRegion(**kwargs), part, h, RngSpec(40, seed).generator(), 40)
        want = _batch_penalties(_ReferenceGmmRegion(**kwargs), part, h,
                                RngSpec(40, seed).generator(), 40)
        assert got.tobytes() == want.tobytes()


def test_propensity_stat_matches_the_mean_based_newton(monkeypatch):
    # the mean score passed as one row: value, beta, iterations and trace,
    # bit for bit, and the same refusals on separation
    from test_gmm import _reference_newton_root

    module = importlib.import_module("finestrat.rerandomize")
    gen = np.random.default_rng(41)
    cases = []
    for n in (8, 12, 40, 40, 200):
        X = np.column_stack([np.ones(n), gen.standard_normal((n, 2))])
        for _ in range(6):
            cases.append((assignment_matrix_from_treated(
                treated_units_batch(_pairs(n).groups, 1, gen, 1), n)[0], X))

    def run():
        out = []
        for d, X in cases:
            try:
                stat = propensity_stat(d, X, p=0.5)
            except EstimationError as err:
                out.append((str(err), err.trace))
                continue
            out.append((stat.value, stat.extra["beta"].tobytes(), stat.extra["iterations"],
                        stat.extra["trace"]))
        return out

    got = run()

    def reference(fun, jac, theta0, **kwargs):
        theta, iters, trace = _reference_newton_root(fun, jac, theta0, **kwargs)
        return theta, None, iters, trace

    monkeypatch.setattr(module, "newton_root", reference)
    assert got == run()
    assert any(len(case) == 2 for case in got) and any(len(case) == 4 for case in got)


@pytest.mark.parametrize("jac", [None, _scale_jac], ids=["fd", "jac"])
def test_feasible_gmm_region_scores_the_pooled_root_once(jac):
    # the surrogate is the rows Newton stopped on, not a second scoring
    def score(mat, beta):
        calls.append((mat.shape[0], beta.tobytes()))
        return _scale_score(mat, beta)

    calls = []
    n = 60
    gen = np.random.default_rng(42)
    h = gen.standard_normal((n, 1))
    beta_init = np.array([0.0, 1.0])
    root = gmm_imbalance(_frame(np.tile([1, 0], n // 2), h=h), score, jac=jac,
                         beta_init=beta_init).extra["beta_pooled"]
    del calls[:]
    region = GmmRegion(score=score, jac=jac, beta_init=beta_init,
                       base=MahalanobisRegion(alpha=0.5), feasible=True)
    region.bind(h, _pairs(n), 0.5)
    assert calls.count((n, root.tobytes())) == 1
    assert len(calls) > 1  # Newton stepped from beta_init to the root
