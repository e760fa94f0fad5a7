import math
import warnings

import numpy as np
import pytest

from finestrat import (
    ConfigError,
    CovariateTable,
    EstimationError,
    ExperimentFrame,
    GroupPartition,
    RngSpec,
    confidence_intervals,
    draw_complete,
    draw_stratified,
    finite_pop_bound,
    pair_groups_by_centroid,
    score_sate,
    superpop_variance,
    two_step_adjust,
    variance_components,
)
from finestrat.inference import VarianceComponents, _arm_second_moment, _cross_moment


def _pairs(n):
    return GroupPartition(groups=np.arange(n).reshape(-1, 2), k=2, l=1)


def _frame(d, y, w=None, p=0.5):
    n = len(d)
    table = CovariateTable(psi=np.zeros((n, 1)), h=None, w=w, x=None, ids=None)
    return ExperimentFrame(covariates=table, d=np.asarray(d), p=p,
                           y=np.asarray(y, dtype=float))


def _components(v1, v0, v10, u1, u0, n=100, p=0.5):
    z = np.zeros((n, v1.shape[0]))
    return VarianceComponents(v1=v1, v0=v0, v10=v10, u1=u1, u0=u0,
                              psi_a=z, s_hat=z, p=p, n=n, used_collapsed=False)


# -- brute force oracles for the within-group second moments -----------------


def _oracle_arm_moment(values, d, groups, p, arm):
    n = values.shape[0]
    dim = values.shape[1]
    total = np.zeros((dim, dim))
    share = p if arm == 1 else 1.0 - p
    for g in groups:
        members = [i for i in g if d[i] == arm]
        a = len(members)
        for i in members:
            for j in members:
                if i != j:
                    total += np.outer(values[i], values[j]) / (a - 1)
    return total / (n * share)


def _oracle_cross_moment(values, d, groups, p):
    n = values.shape[0]
    dim = values.shape[1]
    total = np.zeros((dim, dim))
    for g in groups:
        a = sum(d[i] for i in g)
        k = len(g)
        for i in g:
            for j in g:
                if d[i] == 1 and d[j] == 0:
                    total += np.outer(values[i], values[j]) * k / (a * (k - a))
    return total / n


def test_arm_moments_match_brute_force_on_collapsed_pairs():
    # fixed tiny dataset: 8 units in 4 pairs, collapsed into 2 groups of 4
    values = np.array([[0.5], [-1.0], [2.0], [0.25], [-0.75], [1.5], [3.0], [-2.0]])
    d = np.array([1, 0, 0, 1, 1, 0, 1, 0])
    merged = np.array([[0, 1, 2, 3], [4, 5, 6, 7]])
    got1 = _arm_second_moment(values, d, merged, 0.5, arm=1)
    got0 = _arm_second_moment(values, d, merged, 0.5, arm=0)
    np.testing.assert_allclose(got1, _oracle_arm_moment(values, d, merged, 0.5, 1), rtol=1e-12)
    np.testing.assert_allclose(got0, _oracle_arm_moment(values, d, merged, 0.5, 0), rtol=1e-12)
    pairs = np.arange(8).reshape(-1, 2)
    got10 = _cross_moment(values, d, pairs, 0.5)
    np.testing.assert_allclose(got10, _oracle_cross_moment(values, d, pairs, 0.5), rtol=1e-12)


def test_arm_moments_match_brute_force_k4_vector():
    gen = np.random.default_rng(0)
    values = gen.standard_normal((16, 2))
    groups = np.arange(16).reshape(-1, 4)
    d = np.zeros(16, dtype=int)
    for g in groups:
        d[gen.permutation(g)[:2]] = 1
    for arm in (1, 0):
        np.testing.assert_allclose(
            _arm_second_moment(values, d, groups, 0.5, arm),
            _oracle_arm_moment(values, d, groups, 0.5, arm), rtol=1e-12)
    np.testing.assert_allclose(
        _cross_moment(values, d, groups, 0.5),
        _oracle_cross_moment(values, d, groups, 0.5), rtol=1e-12)


def test_label_swap_symmetry_k4():
    # swapping D <-> 1-D and p <-> 1-p exchanges the arm moments and
    # transposes the cross moment
    gen = np.random.default_rng(1)
    values = gen.standard_normal((24, 2))
    groups = np.arange(24).reshape(-1, 4)
    d = np.zeros(24, dtype=int)
    for g in groups:
        d[gen.permutation(g)[:2]] = 1
    v1 = _arm_second_moment(values, d, groups, 0.5, 1)
    v0 = _arm_second_moment(values, d, groups, 0.5, 0)
    v10 = _cross_moment(values, d, groups, 0.5)
    v1s = _arm_second_moment(values, 1 - d, groups, 0.5, 1)
    v0s = _arm_second_moment(values, 1 - d, groups, 0.5, 0)
    v10s = _cross_moment(values, 1 - d, groups, 0.5)
    np.testing.assert_allclose(v1s, v0, rtol=1e-12)
    np.testing.assert_allclose(v0s, v1, rtol=1e-12)
    np.testing.assert_allclose(v10s, v10.T, rtol=1e-12)


def test_constant_values_give_zero_within_arm_variance():
    c = np.array([0.7, -1.2])
    values = np.tile(c, (12, 1))
    groups = np.arange(12).reshape(-1, 4)
    d = np.tile([1, 1, 0, 0], 3)
    v1 = _arm_second_moment(values, d, groups, 0.5, 1)
    u1 = np.einsum("i,ij,ik->jk", (d == 1) / 0.5 / 12, values, values) - v1
    np.testing.assert_allclose(v1, np.outer(c, c), rtol=1e-12)
    np.testing.assert_allclose(u1, 0.0, atol=1e-12)


def test_collapsing_required_and_invariant_to_pair_order():
    gen = np.random.default_rng(2)
    n = 40
    psi = gen.standard_normal(n)
    part = _pairs(n)
    d = draw_stratified(part, RngSpec(3)).d
    y = gen.standard_normal(n)
    frame = _frame(d, y)
    fit, adj = two_step_adjust(frame, part, score_sate(), w=frame.covariates.w)
    spec = score_sate()
    with pytest.raises(ConfigError, match="collapse"):
        variance_components(frame, part, adj, fit, spec=spec)
    paired = pair_groups_by_centroid(part, psi)
    comp = variance_components(frame, paired, adj, fit, spec=spec)
    assert comp.used_collapsed

    # permute the listing order of groups: same collapsed estimates
    perm = np.random.default_rng(4).permutation(part.n_groups)
    part2 = GroupPartition(groups=part.groups[perm], k=2, l=1)
    paired2 = pair_groups_by_centroid(part2, psi)
    comp2 = variance_components(frame, paired2, adj, fit, spec=spec)
    np.testing.assert_allclose(comp2.v1, comp.v1, rtol=1e-9)
    np.testing.assert_allclose(comp2.v0, comp.v0, rtol=1e-9)


def test_finite_pop_bound_arithmetic():
    z = np.zeros((2, 2))
    assert finite_pop_bound(_components(z, z, z, z, z), np.array([1.0, 0.0])) == 0.0
    eye = np.eye(2)
    bound = finite_pop_bound(_components(eye, eye, z, eye, eye), np.array([1.0, 0.0]))
    assert bound == pytest.approx(16.0)


def test_finite_pop_bound_negative_form_raises():
    z = np.zeros((1, 1))
    bad = -np.ones((1, 1))
    with pytest.raises(EstimationError, match="negative"):
        finite_pop_bound(_components(z, z, z, bad, z), np.array([1.0]))


def test_superpop_variance_zero_when_s_constant():
    comp = _components(*[np.zeros((1, 1))] * 5)
    v = superpop_variance(comp)
    assert v[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_superpop_variance_clipping_warns_above_tolerance():
    # Var_n(s_hat) = diag(5, 0.5) and a correction of diag(0, 4c) leave
    # v = diag(5, 0.5 - 4c): clipping its negative eigenvalue warns only when
    # the clipped mass exceeds 1e-6 * trace(v)
    r = np.sqrt(10.0)
    s_hat = np.array([[r, 0.0], [-r, 0.0], [0.0, 1.0], [0.0, -1.0]])
    z = np.zeros((2, 2))

    def components(c):
        return VarianceComponents(v1=np.diag([0.0, c]), v0=z, v10=z, u1=z, u0=z,
                                  psi_a=s_hat, s_hat=s_hat, p=0.5, n=4,
                                  used_collapsed=False)

    with pytest.warns(RuntimeWarning, match=r"eigenvalue clipping of 1\.000e-03"):
        v = superpop_variance(components(0.12525))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v_small = superpop_variance(components(0.125 + 2.5e-7))  # clips 1e-6 < 5e-6
    for mat in (v, v_small):
        assert np.linalg.eigvalsh(mat).min() >= -1e-12
        np.testing.assert_allclose(mat, np.diag([5.0, 0.0]), atol=1e-12)


def test_superpop_neyman_cross_check_complete_randomization():
    # oracle: plug-in population values from a fully known outcome model;
    # the sampling-plus-assignment variance under complete randomization is
    # Var(Y1)/p + Var(Y0)/(1-p): the treatment-effect heterogeneity term
    # subtracted from the assignment variance reappears as sampling variance
    gen = np.random.default_rng(5)
    n = 20000
    y1 = gen.standard_normal(n) * 2.0 + 1.0
    y0 = 0.5 * y1 + gen.standard_normal(n)
    oracle = y1.var() / 0.5 + y0.var() / 0.5
    d = draw_complete(n, 0.5, RngSpec(6)).d
    y = np.where(d == 1, y1, y0)
    frame = _frame(d, y)
    part = GroupPartition(groups=np.arange(n)[None, :], k=n, l=n // 2)
    spec = score_sate()
    fit, adj = two_step_adjust(frame, part, spec, w=frame.covariates.w)
    comp = variance_components(frame, part, adj, fit, spec=spec)
    v_pop = superpop_variance(comp)[0, 0]
    assert v_pop == pytest.approx(oracle, rel=0.1)
    # the alternative scaling is wildly off for this design
    v_alt = superpop_variance(comp, main_text_scaling=True)[0, 0]
    assert not math.isclose(v_alt, oracle, rel_tol=0.5)


def test_normal_quantile_oracle():
    # oracle: invert Phi via the error function by bisection
    def phi(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if phi(mid) < 0.975:
            lo = mid
        else:
            hi = mid
    z_oracle = (lo + hi) / 2.0
    assert z_oracle == pytest.approx(1.959964, abs=1e-5)
    from finestrat.inference import normal_quantile

    assert normal_quantile(0.975) == pytest.approx(z_oracle, rel=1e-10)


def test_degenerate_interval_at_zero_variance():
    n = 40
    gen = np.random.default_rng(7)
    part = _pairs(n)
    d = draw_stratified(part, RngSpec(8)).d
    # constant treated and control outcomes: all variance components vanish
    y = np.where(d == 1, 2.0, 1.0)
    frame = _frame(d, y)
    paired = pair_groups_by_centroid(part, gen.standard_normal(n))
    spec = score_sate()
    fit, adj = two_step_adjust(frame, paired, spec, w=frame.covariates.w)
    comp = variance_components(frame, paired, adj, fit, spec=spec)
    rep = confidence_intervals(fit, adj, comp)
    lo, hi = rep.ci_fin[0]
    assert lo == pytest.approx(hi, abs=1e-10)
    assert lo == pytest.approx(1.0)


def test_scale_equivariance_power_of_two():
    gen = np.random.default_rng(9)
    n = 60
    part = _pairs(n)
    d = draw_stratified(part, RngSpec(10)).d
    y = gen.standard_normal(n)
    psi = gen.standard_normal(n)
    paired = pair_groups_by_centroid(part, psi)
    spec = score_sate()

    def intervals(y_vec):
        frame = _frame(d, y_vec)
        fit, adj = two_step_adjust(frame, paired, spec, w=frame.covariates.w)
        comp = variance_components(frame, paired, adj, fit, spec=spec)
        return confidence_intervals(fit, adj, comp)

    r1 = intervals(y)
    r2 = intervals(2.0 * y)
    assert r2.ci_fin[0][0] == 2.0 * r1.ci_fin[0][0]
    assert r2.ci_fin[0][1] == 2.0 * r1.ci_fin[0][1]
    assert r2.ci_pop[0][0] == 2.0 * r1.ci_pop[0][0]
    assert r2.ci_pop[0][1] == 2.0 * r1.ci_pop[0][1]


def test_ci_alpha_validation_and_report_shape():
    comp = _components(*[np.eye(1)] * 5)
    from finestrat.gmm import GmmFit
    from finestrat.adjust import AdjustmentFit

    fit = GmmFit(theta=np.array([1.0]), Pi=np.eye(1), G=-np.eye(1),
                 scores=np.zeros((10, 1)), iterations=1)
    adj = AdjustmentFit(alpha=np.zeros((0, 1)), beta1=np.zeros((0, 1)),
                        beta0=np.zeros((0, 1)), theta_adj=np.array([1.0]),
                        cond=1.0, w=np.zeros((10, 0)))
    with pytest.raises(ConfigError):
        confidence_intervals(fit, adj, comp, alpha=1.5)
    rep = confidence_intervals(fit, adj, comp, alpha=0.05)
    doc = rep.to_json_dict()
    assert set(doc) >= {"theta_hat", "theta_adj", "ci_fin", "ci_pop", "variance", "flags"}
