import io

import numpy as np
import pytest

from finestrat import (
    ConfigError,
    DgpSpec,
    EstimationError,
    FullSpaceRegion,
    MahalanobisRegion,
    PolarRegion,
    PropensityRegion,
    RngSpec,
    finite_pop_estimand,
    generate_dgp,
    oracle_limit_sampler,
    population_variances,
    run_monte_carlo,
    benchmark_designs,
)


def test_model1_control_arm_is_pure_noise():
    dgp = DgpSpec(model=1, dim_r=5, n=100000)
    draw = generate_dgp(dgp, RngSpec(0))
    assert draw.y0.var() == pytest.approx(4.0, abs=0.1)
    np.testing.assert_array_equal(draw.y0, draw.e0)


def test_residual_correlation():
    dgp = DgpSpec(model=2, dim_r=5, n=100000)
    draw = generate_dgp(dgp, RngSpec(1))
    corr = np.corrcoef(draw.e1, draw.e0)[0, 1]
    assert corr == pytest.approx(0.8, abs=0.01)
    assert draw.e1.var() == pytest.approx(4.0, abs=0.1)


def test_model4_bounded_systematic_part():
    dgp = DgpSpec(model=4, dim_r=5, n=10000)
    draw = generate_dgp(dgp, RngSpec(2))
    assert np.abs(draw.y1 - draw.e1).max() < np.pi
    assert np.abs(draw.y0 - draw.e0).max() < np.pi


def test_model3_quadratic_lift():
    dgp = DgpSpec(model=3, dim_r=5, n=200000)
    draw = generate_dgp(dgp, RngSpec(3))
    # E[tau] = trace of the diagonal quadratic term = 2 + (m-1)/(2 sqrt(m-1))
    expected = 2.0 + 4.0 / (2.0 * np.sqrt(4.0))
    assert draw.tau.mean() == pytest.approx(expected, abs=0.05)


def test_equicorrelated_covariates():
    dgp = DgpSpec(model=1, dim_r=5, n=200000, covariance="equicorrelated")
    draw = generate_dgp(dgp, RngSpec(4))
    c = np.corrcoef(draw.r.T)
    off = c[np.triu_indices(5, 1)]
    assert np.allclose(off, 0.5 / 4.0, atol=0.02)
    assert np.allclose(np.diag(c), 1.0, atol=0.02)


def test_compliance_potential_treatments():
    dgp = DgpSpec(model=2, dim_r=3, n=50000, compliance=0.55)
    draw = generate_dgp(dgp, RngSpec(5))
    assert draw.d0.sum() == 0
    assert draw.d1.mean() == pytest.approx(0.55, abs=0.01)


# -- oracle sampler -----------------------------------------------------------


def test_oracle_sampler_full_space_variance():
    v_theta = np.array([[2.0]])
    gamma0 = np.array([[1.0], [0.5]])
    var_zh = np.array([[1.0, 0.2], [0.2, 1.0]])
    out = oracle_limit_sampler(v_theta, gamma0, var_zh, FullSpaceRegion(), 200000, RngSpec(6))
    expected = 2.0 + gamma0[:, 0] @ var_zh @ gamma0[:, 0]
    assert out.var() == pytest.approx(expected, rel=0.03)


def test_oracle_sampler_zero_gamma_is_gaussian():
    v_theta = np.array([[1.5]])
    var_zh = np.eye(3)
    region = MahalanobisRegion(eps2=1.0)
    out = oracle_limit_sampler(v_theta, None, var_zh, region, 100000, RngSpec(7))
    assert out.var() == pytest.approx(1.5, rel=0.03)
    assert abs(out.mean()) < 0.02


def test_oracle_sampler_shrinking_ball_kills_residual():
    gamma0 = np.array([[2.0]])
    var_zh = np.array([[1.0]])
    v_theta = np.array([[0.0]])
    prev = np.inf
    for eps in (2.0, 0.5, 0.05):
        region = PolarRegion.ball(1, eps)
        out = oracle_limit_sampler(v_theta, gamma0, var_zh, region, 20000, RngSpec(8))
        var = out.var()
        assert var < prev
        prev = var
    # var(2 z | |z| <= eps) ~ 4 eps^2 / 3 ~ 0.0033 at eps = 0.05
    assert prev < 0.006


def test_oracle_sampler_low_acceptance_error():
    region = PolarRegion.ball(2, 1e-5)
    with pytest.raises(EstimationError, match="acceptance probability"):
        oracle_limit_sampler(np.eye(1), np.ones((2, 1)), np.eye(2), region, 1000, RngSpec(9))
    # a region that refits a model per draw has no limiting analog
    with pytest.raises(ConfigError, match="no population analog"):
        oracle_limit_sampler(np.eye(1), np.ones((2, 1)), np.eye(2),
                             PropensityRegion(eps2=1.0), 1000, RngSpec(9))


# -- plug-in population quantities ---------------------------------------------


def test_population_variances_model1_full_stratification():
    # oracle: with all covariates matched, the assignment variance is
    # Var(D)^{-1} Var((e1+e0)/2) = 4 * 3.6 = 14.4; no balance covariates
    dgp = DgpSpec(model=1, dim_r=5, n=1000)
    out = population_variances(dgp, estimand="sate", psi_cols=range(5),
                               n_oracle=400000, rng=RngSpec(10))
    assert out["V_theta"][0, 0] == pytest.approx(14.4, rel=0.05)
    assert out["theta0"][0] == pytest.approx(0.0, abs=0.02)
    assert out["V_phi"][0, 0] == pytest.approx(1.0 + 0.4 * 4.0, rel=0.05)


def test_population_variances_gamma0_closed_form():
    # oracle: no stratification, balance covariates are all of r with
    # identity covariance, so the projection coefficient is the averaged
    # outcome-level loading (beta1 + beta0) / 2
    dgp = DgpSpec(model=1, dim_r=4, n=1000)
    out = population_variances(dgp, estimand="sate", psi_cols=(), h_cols=range(4),
                               n_oracle=400000, rng=RngSpec(11))
    np.testing.assert_allclose(out["gamma0"][:, 0], np.full(4, 0.25), atol=0.02)
    assert out["var_zh"].shape == (4, 4)
    np.testing.assert_allclose(out["var_zh"], 4.0 * np.eye(4), atol=0.15)


def test_population_variances_no_heterogeneity_noise():
    # perfectly correlated residuals: tau = r'(b1 - b0) exactly, so the
    # sampling variance equals |b1 - b0|^2 = 1 for the equal-split model
    dgp = DgpSpec(model=1, dim_r=5, n=1000, resid_corr=1.0)
    out = population_variances(dgp, estimand="sate", n_oracle=200000, rng=RngSpec(12))
    assert out["V_phi"][0, 0] == pytest.approx(1.0, rel=0.03)


def test_population_variances_sr_design_quantities():
    dgp = DgpSpec(model=2, dim_r=5, n=1000)
    out = population_variances(dgp, estimand="sate", psi_cols=(0,), h_cols=range(1, 5),
                               w_cols=range(1, 5), n_oracle=400000, rng=RngSpec(13))
    # matching the lead covariate and balancing the rest leaves only the
    # residual noise: 4 * Var((e1+e0)/2) = 14.4
    assert out["V_theta"][0, 0] == pytest.approx(14.4, rel=0.06)
    np.testing.assert_allclose(out["gamma0"][:, 0], np.full(4, 0.5), atol=0.03)
    assert out["V_adj"][0, 0] == pytest.approx(out["V_theta"][0, 0], rel=0.02)


# -- finite population targets ---------------------------------------------------


def test_finite_pop_estimand_sate_and_late():
    dgp = DgpSpec(model=2, dim_r=3, n=2000, compliance=0.5)
    draw = generate_dgp(dgp, RngSpec(14))
    assert finite_pop_estimand(draw, "sate", 0.5)[0] == pytest.approx(draw.tau.mean())
    comp = (draw.d1 - draw.d0).astype(bool)
    assert finite_pop_estimand(draw, "late", 0.5)[0] == pytest.approx(draw.tau[comp].mean())


# -- the replication engine -------------------------------------------------------


def test_run_monte_carlo_smoke_and_reproducible():
    dgp = DgpSpec(model=2, dim_r=3, n=60)
    designs = benchmark_designs(2, 3, accept_alpha=0.1)
    res1 = run_monte_carlo(designs, dgp, replicates=100, seed=99, n_oracle=50000)
    res2 = run_monte_carlo(designs, dgp, replicates=100, seed=99, n_oracle=50000)
    assert res1.rows == res2.rows
    assert res1.failures == 0
    buf = io.StringIO()
    res1.to_csv(buf)
    header = buf.getvalue().splitlines()[0].split(",")
    assert header == list(res1.CSV_COLUMNS)
    assert len(buf.getvalue().splitlines()) == 1 + 6  # 3 designs x 2 estimators
    base = res1.row("C", "unadjusted")
    assert base["mse_ratio"] == 1.0
    sr = res1.row("SR", "unadjusted")
    assert sr["mean_draws"] > 1.0


@pytest.mark.parametrize("threads", [2, 3])  # 3 workers get uneven chunks
def test_run_monte_carlo_threads_match_serial(threads):
    dgp = DgpSpec(model=1, dim_r=2, n=40)
    designs = benchmark_designs(1, 2, accept_alpha=0.2)
    r1 = run_monte_carlo(designs, dgp, replicates=100, seed=5, threads=1, n_oracle=20000)
    r2 = run_monte_carlo(designs, dgp, replicates=100, seed=5, threads=threads,
                         n_oracle=20000)
    assert r1.rows == r2.rows
    assert r1.meta == r2.meta
    assert (r1.workers, r2.workers) == (1, threads)


def test_run_monte_carlo_requires_replicates():
    dgp = DgpSpec(model=1, dim_r=2, n=40)
    with pytest.raises(ConfigError, match="100 replicates"):
        run_monte_carlo(benchmark_designs(1, 2), dgp, replicates=50, seed=0)


def test_constant_effect_recovered_exactly_by_every_design():
    # no-noise, constant-effect data: every design and estimator returns tau
    from finestrat import (
        CovariateTable, ExperimentFrame, score_sate, two_step_adjust,
        assign_design, DesignSpec,
    )

    tau = 1.75
    n = 40
    gen = np.random.default_rng(15)
    r = gen.standard_normal((n, 2))
    y0 = np.zeros(n)
    for design in benchmark_designs(1, 2, accept_alpha=0.5):
        part, draw = assign_design(design, r, 0.5, RngSpec(16))
        y = np.where(draw.d == 1, y0 + tau, y0)
        table = CovariateTable(psi=r[:, :1], h=None, w=r, x=None, ids=None)
        frame = ExperimentFrame(covariates=table, d=draw.d, p=0.5, y=y)
        fit, adj = two_step_adjust(frame, part, score_sate(), w=r)
        assert fit.theta[0] == pytest.approx(tau, abs=1e-12)
        assert adj.theta_adj[0] == pytest.approx(tau, abs=1e-12)


def test_run_monte_carlo_failure_policy():
    # duplicated balance columns make the quadratic region singular in every
    # replicate: the run must fail loudly with the failure count
    from finestrat import DesignSpec

    bad = DesignSpec(name="BAD", kind="rerandomized", psi_cols=(0,),
                     match_method="sorted-1d", h_cols=(1, 1), w_cols=(1,),
                     region=MahalanobisRegion(alpha=0.5))
    dgp = DgpSpec(model=1, dim_r=3, n=40)
    with pytest.raises(RuntimeError, match="replicates failed"):
        run_monte_carlo([bad], dgp, replicates=100, seed=3, theta0=np.zeros(1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # means of zero replicates
def test_run_monte_carlo_groups_failure_reasons():
    # the singular design of the failure-policy test, with every failure
    # allowed: the reasons are kept by exception type, whatever the workers
    from finestrat import DesignSpec

    bad = DesignSpec(name="BAD", kind="rerandomized", psi_cols=(0,),
                     match_method="sorted-1d", h_cols=(1, 1), w_cols=(1,),
                     region=MahalanobisRegion(alpha=0.5))
    dgp = DgpSpec(model=1, dim_r=3, n=40)
    results = [run_monte_carlo([bad], dgp, replicates=100, seed=3, theta0=np.zeros(1),
                               max_failure_share=1.0, threads=threads)
               for threads in (1, 2)]
    reasons = results[0].meta["failure_reasons"]
    assert len(reasons) == 1
    (entry,) = reasons.values()
    assert entry["count"] == 100
    assert isinstance(entry["first"], str) and entry["first"]
    assert results[0].failures == 100
    assert results[0].meta == results[1].meta
    # no replicate is left to aggregate: the rows are NaN, so compare as text
    texts = []
    for res in results:
        buf = io.StringIO()
        res.to_csv(buf)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]


def test_run_monte_carlo_odd_group_count_raises_at_once(monkeypatch):
    # 302 units give 151 matched pairs, which cannot be paired into collapsed
    # strata: a design error, raised at the first replicate, not a failure
    from finestrat import simulate

    calls = []
    assign = simulate.assign_design

    def counted(*args):
        calls.append(1)
        return assign(*args)

    monkeypatch.setattr(simulate, "assign_design", counted)
    dgp = DgpSpec(model=1, dim_r=2, n=302)
    with pytest.raises(ConfigError, match=r"n=302 .*odd number of groups \(151\)"):
        run_monte_carlo(benchmark_designs(1, 2)[1:], dgp, replicates=100, seed=3,
                        theta0=np.zeros(1))
    assert len(calls) == 1


def test_truncation_breaks_normality_and_adjustment_restores_it():
    # one influential balance covariate, almost no residual noise, and an
    # aggressive acceptance rule: the unadjusted error is essentially a
    # truncated Gaussian (platykurtic, rejected by a normality test at 1%),
    # while the adjusted error stays Gaussian
    from scipy import stats as sstats
    from finestrat import (CovariateTable, ExperimentFrame, GroupPartition,
                           rerandomize, score_sate, two_step_adjust)

    n, reps = 300, 800
    part = GroupPartition(groups=np.arange(n).reshape(-1, 2), k=2, l=1)
    gamma = 1.0
    err_u = np.empty(reps)
    err_a = np.empty(reps)
    for rep in range(reps):
        gen = RngSpec(606).substream(rep)
        h = gen.standard_normal((n, 1))
        y0 = gamma * h[:, 0] + 0.05 * gen.standard_normal(n)
        draw = rerandomize(part, h, MahalanobisRegion(alpha=0.5), gen,
                           max_draws=5000)
        y = y0  # zero treatment effect; theta_n = 0
        table = CovariateTable(psi=np.zeros((n, 1)), h=h, w=h, x=None, ids=None)
        frame = ExperimentFrame(covariates=table, d=draw.d, p=0.5, y=y)
        fit, adj = two_step_adjust(frame, part, score_sate(), w=h)
        err_u[rep] = fit.theta[0]
        err_a[rep] = adj.theta_adj[0]
    ad_u = sstats.anderson((err_u - err_u.mean()) / err_u.std(), dist="norm",
                           method="interpolate")
    ad_a = sstats.anderson((err_a - err_a.mean()) / err_a.std(), dist="norm",
                           method="interpolate")
    crit = round(1.035 / (1 + 0.75 / reps + 2.25 / reps**2), 3)  # SciPy's 1% level
    assert ad_u.statistic > crit     # truncation detected
    assert ad_a.statistic < crit     # normality restored
