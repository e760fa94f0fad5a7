import math

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
from finestrat.randomize import (
    assignment_matrix_from_treated,
    draw_stratified,
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


def test_chi2_threshold_alpha_guard():
    with pytest.raises(ConfigError):
        chi2_threshold(3, 1.0 - 1e-9)
    with pytest.raises(ConfigError):
        chi2_threshold(3, 0.0)


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
    draw, trace = rerandomize(part, h, MahalanobisRegion(alpha=0.25), RngSpec(20),
                              keep_trace=True)
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


@pytest.mark.parametrize("k,l", [(3, 1), (4, 2)])
def test_calibrate_threshold_hits_target_rate_larger_groups(k, l):
    # groups other than matched pairs score draws by the gather-sum path
    n = 300
    h = np.random.default_rng(21).standard_normal((n, 4))
    part = GroupPartition(groups=np.arange(n).reshape(-1, k), k=k, l=l)
    region = calibrate_threshold(PolarRegion.ball(4, 1.0), part, h, alpha=0.2,
                                 rng=RngSpec(22), draws=4000)
    pens = _batch_penalties(region, part, h, RngSpec(23).generator(), 4000)
    emp = np.mean(pens <= region.eps)
    assert abs(emp - 0.2) < 0.03


# -- matched-pair kernel against the treated_units_batch reference ----------


def _reference_batches(region, part, h, gen, draws):
    """(penalties, treated) per 512-draw batch, from treated_units_batch and
    the gather-sum statistic T = sqrt(n)(mean_1 - mean_0)."""
    bound = region.bind(h, part, part.p)
    S = h if bound.stats is None else bound.stats
    n, p = part.n, part.p
    for start in range(0, draws, 512):
        treated = treated_units_batch(part.groups, part.l, gen, min(512, draws - start))
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


@pytest.mark.parametrize("region", [
    MahalanobisRegion(alpha=0.5),
    PolarRegion.rectangle(np.array([-0.5, 0.2]), np.array([0.5, 1.5]), eps=1.0),
    _feasible_gmm_region(),
], ids=["mahalanobis", "polar", "feasible-gmm"])
def test_pair_kernel_penalties_and_stream_match_reference(region):
    n, draws = 400, 1100  # two full batches and a partial one
    h = np.random.default_rng(40).standard_normal((n, 2))
    part = GroupPartition(groups=np.random.default_rng(41).permutation(n).reshape(-1, 2),
                          k=2, l=1)
    gen, ref_gen = RngSpec(42).generator(), RngSpec(42).generator()
    pens = _batch_penalties(region, part, h, gen, draws)
    ref = np.concatenate([p for p, _ in _reference_batches(region, part, h, ref_gen, draws)])
    np.testing.assert_allclose(pens, ref, rtol=1e-10, atol=0)
    assert gen.bit_generator.state == ref_gen.bit_generator.state


def test_pair_kernel_rerandomize_matches_reference():
    n = 60
    h = np.random.default_rng(43).standard_normal((n, 3))
    part = GroupPartition(groups=np.random.default_rng(44).permutation(n).reshape(-1, 2),
                          k=2, l=1)
    region = MahalanobisRegion(alpha=0.005)
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
        exhausted += not accepted
        late += accepted and index > 512
    assert exhausted >= 5 and late >= 5


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
    ]
    x = gen.standard_normal(3)
    for region in regions:
        clone = region_from_dict(region.to_dict())
        assert type(clone) is type(region)
        assert clone.to_dict() == region.to_dict()
        if isinstance(region, PolarRegion):
            assert clone.penalty(x[: region.gamma_bar.size])[0] == pytest.approx(
                region.penalty(x[: region.gamma_bar.size])[0], rel=1e-12)


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
