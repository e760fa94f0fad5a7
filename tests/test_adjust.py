import numpy as np
import pytest

from finestrat import (
    CovariateTable,
    DgpSpec,
    ExperimentFrame,
    GroupPartition,
    RngSpec,
    SingularityError,
    double_robustness_decomposition,
    draw_stratified,
    fit_adjustment,
    generate_dgp,
    one_step_cate_adjust,
    score_cate_blp,
    score_sate,
    solve_gmm,
    two_step_adjust,
)


def _pairs(n):
    return GroupPartition(groups=np.arange(n).reshape(-1, 2), k=2, l=1)


def _frame(d, y, h=None, w=None, x=None, p=0.5):
    n = len(d)
    table = CovariateTable(psi=np.zeros((n, 1)), h=h, w=w, x=x, ids=None)
    return ExperimentFrame(covariates=table, d=np.asarray(d), p=p,
                           y=np.asarray(y, dtype=float))


def test_alpha_vanishes_for_pure_noise_w():
    gen = np.random.default_rng(0)
    n = 5000
    part = _pairs(n)
    d = draw_stratified(part, RngSpec(1)).d
    y = gen.standard_normal(n)
    w = gen.standard_normal((n, 3))
    frame = _frame(d, y, w=w)
    fit = solve_gmm(frame, score_sate())
    adj = fit_adjustment(fit, frame, part, w=w)
    assert np.abs(adj.alpha).max() < 0.1


def test_psi_measurable_w_rejected_under_perfect_pairs():
    # pairs identical on psi; a w column equal to psi dies under demeaning
    psi_vals = np.repeat(np.arange(10.0), 2)
    part = _pairs(20)
    d = draw_stratified(part, RngSpec(2)).d
    frame = _frame(d, np.random.default_rng(3).standard_normal(20), w=psi_vals[:, None])
    fit = solve_gmm(frame, score_sate())
    with pytest.raises(SingularityError, match="annihilated by demeaning"):
        fit_adjustment(fit, frame, part, w=psi_vals[:, None])


def test_rank_deficient_gram_rejected_even_when_cholesky_succeeds():
    from finestrat.adjust import _gram_cholesky

    # rank one up to rounding: Cholesky finds a pivot of 1e-7 and succeeds
    gram = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    np.linalg.cholesky(gram)
    with pytest.raises(SingularityError, match=r"near-collinear columns: \['a'\]"):
        _gram_cholesky(gram, np.linalg.cond(gram), ("a", "b"))


def test_rank_test_ignores_column_units():
    from finestrat.adjust import _gram_cholesky

    # uncorrelated columns whose scales differ by 2e5 are well identified
    gram = np.diag([4e10, 1.0])
    chol = _gram_cholesky(gram, np.linalg.cond(gram), ("a", "b"))
    np.testing.assert_array_equal(chol, np.diag([2e5, 1.0]))
    # rescaling one adjustment column rescales its coefficient and nothing else
    gen = np.random.default_rng(8)
    n = 200
    part = _pairs(n)
    d = draw_stratified(part, RngSpec(9)).d
    w = gen.standard_normal((n, 2))
    y = w @ np.array([1.0, -0.5]) + gen.standard_normal(n)
    fit = solve_gmm(_frame(d, y, w=w), score_sate())
    base = fit_adjustment(fit, _frame(d, y, w=w), part, w=w)
    w_big = w * np.array([1e6, 1.0])
    big = fit_adjustment(fit, _frame(d, y, w=w_big), part, w=w_big)
    np.testing.assert_allclose(big.alpha * np.array([[1e6], [1.0]]), base.alpha, rtol=1e-9)
    assert big.theta_adj == pytest.approx(base.theta_adj, rel=1e-12)


def test_adjusted_estimate_identity_with_w_equals_h():
    gen = np.random.default_rng(4)
    n = 300
    part = _pairs(n)
    d = draw_stratified(part, RngSpec(5)).d
    h = gen.standard_normal((n, 4))
    y = h @ np.array([1.0, -0.5, 0.2, 0.0]) + gen.standard_normal(n)
    frame = _frame(d, y, w=h)
    fit = solve_gmm(frame, score_sate())
    adj = fit_adjustment(fit, frame, part, w=h)
    mean_diff = h[d == 1].mean(axis=0) - h[d == 0].mean(axis=0)
    expected = fit.theta[0] - adj.alpha[:, 0] @ mean_diff
    assert adj.theta_adj[0] == pytest.approx(expected, rel=1e-12)


def test_alpha_is_beta_difference_exactly():
    gen = np.random.default_rng(6)
    n = 100
    part = _pairs(n)
    d = draw_stratified(part, RngSpec(7)).d
    w = gen.standard_normal((n, 2))
    y = gen.standard_normal(n)
    frame = _frame(d, y, w=w)
    fit = solve_gmm(frame, score_sate())
    adj = fit_adjustment(fit, frame, part, w=w)
    np.testing.assert_array_equal(adj.alpha, adj.beta1 - adj.beta0)


def test_translation_invariance_dyadic():
    gen = np.random.default_rng(8)
    n = 64
    part = _pairs(n)
    d = draw_stratified(part, RngSpec(9)).d
    w = gen.integers(-8, 8, size=(n, 2)).astype(float) / 4.0
    y = gen.integers(-8, 8, size=n).astype(float) / 2.0
    frame = _frame(d, y, w=w)
    fit = solve_gmm(frame, score_sate())
    adj1 = fit_adjustment(fit, frame, part, w=w)
    adj2 = fit_adjustment(fit, frame, part, w=w + 16.0)  # dyadic shift: exact fp
    np.testing.assert_array_equal(adj1.alpha, adj2.alpha)
    np.testing.assert_array_equal(adj1.theta_adj, adj2.theta_adj)


def test_two_step_single_iteration_equals_composition():
    gen = np.random.default_rng(10)
    n = 120
    part = _pairs(n)
    d = draw_stratified(part, RngSpec(11)).d
    w = gen.standard_normal((n, 3))
    y = gen.standard_normal(n) + w[:, 0]
    frame = _frame(d, y, w=w)
    fit_direct = solve_gmm(frame, score_sate())
    adj_direct = fit_adjustment(fit_direct, frame, part, w=w)
    fit2, adj2 = two_step_adjust(frame, part, score_sate(), w=w, iterations=1)
    np.testing.assert_array_equal(adj2.theta_adj, adj_direct.theta_adj)


def test_two_step_linear_score_iteration_fixed_point():
    gen = np.random.default_rng(12)
    n = 150
    part = _pairs(n)
    d = draw_stratified(part, RngSpec(13)).d
    w = gen.standard_normal((n, 2))
    y = gen.standard_normal(n) + 0.7 * w[:, 1]
    frame = _frame(d, y, w=w)
    _, adj1 = two_step_adjust(frame, part, score_sate(), w=w, iterations=1)
    _, adj9 = two_step_adjust(frame, part, score_sate(), w=w, iterations=9)
    assert np.abs(adj9.theta_adj - adj1.theta_adj).max() < 1e-12


def test_two_step_iterations_without_adjustment_columns():
    # no w: every refit is the empty adjustment, so the estimate stays put
    gen = np.random.default_rng(14)
    n = 80
    part = _pairs(n)
    frame = _frame(draw_stratified(part, RngSpec(15)).d, gen.standard_normal(n))
    fit, adj = two_step_adjust(frame, part, score_sate(), iterations=3)
    assert adj.w.shape == (n, 0)
    np.testing.assert_array_equal(adj.theta_adj, fit.theta)


def test_one_step_matches_two_step_for_blp():
    # both estimate the same projection coefficient: for this model the
    # intercept column of alpha0 is 0.5 per adjustment covariate and the
    # slope column is 0; the gap between the two estimators is mean-zero
    # noise, so compare averages over independent draws
    dgp = DgpSpec(model=2, dim_r=4, n=20000)
    gaps, a_one, a_two = [], [], []
    for s in range(6):
        data = generate_dgp(dgp, RngSpec(14, s))
        n = dgp.n
        part = _pairs(n)
        d = draw_stratified(part, RngSpec(15, s)).d
        y = np.where(d == 1, data.y1, data.y0)
        x = np.column_stack([np.ones(n), data.r[:, 0]])
        w = data.r[:, 1:]
        table = CovariateTable(psi=np.zeros((n, 1)), h=None, w=w, x=x, ids=None)
        frame = ExperimentFrame(covariates=table, d=d, p=0.5, y=y)
        _, adj1 = one_step_cate_adjust(frame, part, w=w)
        _, adj2 = two_step_adjust(frame, part, score_cate_blp(), w=w)
        gaps.append(adj1.alpha - adj2.alpha)
        a_one.append(adj1.alpha)
        a_two.append(adj2.alpha)
    assert np.abs(np.mean(gaps, axis=0)).max() < 0.05
    # ylevel loads 1/sqrt(dim-1) on each of the dim-1 adjustment covariates
    alpha0 = np.column_stack([np.full(3, 1.0 / np.sqrt(3.0)), np.zeros(3)])
    assert np.abs(np.mean(a_one, axis=0) - alpha0).max() < 0.08
    assert np.abs(np.mean(a_two, axis=0) - alpha0).max() < 0.08


def test_one_step_intercept_only_matches_sate_adjustment():
    gen = np.random.default_rng(16)
    n = 200
    part = _pairs(n)
    d = draw_stratified(part, RngSpec(17)).d
    w = gen.standard_normal((n, 2))
    y = gen.standard_normal(n) + w @ np.array([0.5, -0.3])
    x = np.ones((n, 1))
    table = CovariateTable(psi=np.zeros((n, 1)), h=None, w=w, x=x, ids=None)
    frame = ExperimentFrame(covariates=table, d=d, p=0.5, y=y)
    fit1, adj1 = one_step_cate_adjust(frame, part, w=w)
    fit2, adj2 = two_step_adjust(frame, part, score_sate(), w=w)
    np.testing.assert_allclose(adj1.alpha[:, 0], adj2.alpha[:, 0], rtol=1e-10)
    np.testing.assert_allclose(adj1.theta_adj, adj2.theta_adj, rtol=1e-10)


def test_one_step_alpha_vanishes_when_w_independent():
    gen = np.random.default_rng(18)
    n = 4000
    part = _pairs(n)
    d = draw_stratified(part, RngSpec(19)).d
    y = gen.standard_normal(n)
    x = np.column_stack([np.ones(n), gen.standard_normal(n)])
    w = gen.standard_normal((n, 2))
    table = CovariateTable(psi=np.zeros((n, 1)), h=None, w=w, x=x, ids=None)
    frame = ExperimentFrame(covariates=table, d=d, p=0.5, y=y)
    _, adj = one_step_cate_adjust(frame, part, w=w)
    assert np.abs(adj.alpha).max() < 0.1


def test_double_robustness_terms():
    gen = np.random.default_rng(20)
    n = 400
    part = _pairs(n)
    d = draw_stratified(part, RngSpec(21)).d
    h = gen.standard_normal((n, 2))
    y = h @ np.array([1.0, 2.0]) + gen.standard_normal(n)
    frame = _frame(d, y, w=h)
    fit, adj = two_step_adjust(frame, part, score_sate(), w=h)
    # gamma0 equal to the fitted coefficient: product term is exactly zero
    rep = double_robustness_decomposition(frame, part, fit, adj, gamma0=adj.alpha)
    assert np.abs(rep["product_term"]).max() == 0.0

    # exactly balanced h: duplicate each pair's h pattern in two pairs with
    # opposite assignments, so arm sums agree while within-pair spread stays
    pattern = gen.standard_normal((n // 4, 2, 2))
    h_bal = np.concatenate([pattern, pattern], axis=0).reshape(n, 2)
    d_bal = np.concatenate([np.tile([1, 0], n // 4), np.tile([0, 1], n // 4)])
    y2 = h_bal @ np.array([1.0, 2.0]) + gen.standard_normal(n)
    frame2 = _frame(d_bal, y2, w=h_bal)
    fit2, adj2 = two_step_adjust(frame2, part, score_sate(), w=h_bal)
    rep2 = double_robustness_decomposition(
        frame2, part, fit2, adj2, gamma0=np.array([[5.0], [-4.0]])
    )
    np.testing.assert_allclose(rep2["imbalance"], 0.0, atol=1e-12)
    np.testing.assert_allclose(rep2["product_term"], 0.0, atol=1e-10)


def test_double_robustness_product_term_small_under_rerandomization():
    from finestrat import MahalanobisRegion, rerandomize

    gen = np.random.default_rng(22)
    n = 500
    part = _pairs(n)
    h = gen.standard_normal((n, 3))
    gamma0 = np.array([[1.0], [0.5], [-0.5]])
    prods, resids = [], []
    for s in range(60):
        draw = rerandomize(part, h, MahalanobisRegion(alpha=1 / 500), RngSpec(23, s),
                           max_draws=20000)
        y = (h @ gamma0[:, 0]) + gen.standard_normal(n)
        frame = _frame(draw.d, y, w=h)
        fit, adj = two_step_adjust(frame, part, score_sate(), w=h)
        rep = double_robustness_decomposition(frame, part, fit, adj, gamma0=gamma0,
                                              sate=np.zeros(1))
        prods.append(rep["product_term"][0])
        resids.append(rep["residual_term"][0])
    assert np.var(prods) < 0.1 * np.var(resids)
