import io

import numpy as np
import pytest

from finestrat import (
    ConfigError,
    DgpSpec,
    EstimationError,
    FullSpaceRegion,
    MahalanobisRegion,
    MatchConfig,
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
    assert finite_pop_estimand(draw, "sate")[0] == pytest.approx(draw.tau.mean())
    comp = (draw.d1 - draw.d0).astype(bool)
    assert finite_pop_estimand(draw, "late")[0] == pytest.approx(draw.tau[comp].mean())


def _reference_oracle_influence(draw, estimand, p, x=None):
    """The finite-population target and oracle influence values as they were
    written out for each estimand before the estimands became one moment."""
    n = draw.r.shape[0]
    tau = draw.tau
    comp = None if draw.d1 is None else (draw.d1 - draw.d0).astype(np.float64)
    if estimand == "sate":
        theta0 = np.array([tau.mean()])
        return (tau - theta0[0])[:, None], draw.ylevel(p)[:, None], theta0
    if estimand == "cate":
        theta0 = np.linalg.solve(x.T @ x, x.T @ tau)
        inv = np.linalg.inv(x.T @ x / n)
        return (((tau - x @ theta0)[:, None] * x) @ inv.T,
                (draw.ylevel(p)[:, None] * x) @ inv.T, theta0)
    t1 = np.where(draw.d1 == 1, draw.y1, draw.y0)
    t0 = np.where(draw.d0 == 1, draw.y1, draw.y0)
    tlevel = (1.0 - p) * t1 + p * t0
    dlevel = (1.0 - p) * draw.d1 + p * draw.d0
    if estimand == "late":
        theta0 = np.array([(comp * tau).sum() / comp.sum()])
        ec = comp.mean()
        return ((comp * (tau - theta0[0]))[:, None] / ec,
                (tlevel - dlevel * theta0[0])[:, None] / ec, theta0)
    xw = x * comp[:, None]
    theta0 = np.linalg.solve(xw.T @ x, xw.T @ tau)
    inv = np.linalg.inv(xw.T @ x / n)
    return (((comp * (tau - x @ theta0))[:, None] * x) @ inv.T,
            ((tlevel - dlevel * (x @ theta0))[:, None] * x) @ inv.T, theta0)


@pytest.mark.parametrize("p", [0.5, 0.3])
@pytest.mark.parametrize("estimand", ["sate", "cate", "late", "clate"])
def test_oracle_influence_matches_each_estimands_own_formula(estimand, p):
    # one formula for every estimand, against the four it replaced: equal up
    # to the order of the sums; sate keeps its bits
    from finestrat.simulate import _oracle_influence, _regressors

    compliance = 0.6 if estimand in ("late", "clate") else None
    draw = generate_dgp(DgpSpec(model=3, dim_r=3, n=2000, p=p, compliance=compliance),
                        RngSpec(41))
    x = _regressors(estimand, draw.r)
    got = _oracle_influence(draw, estimand, p, x=x)
    want = _reference_oracle_influence(draw, estimand, p, x=x)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())
    if estimand == "sate":
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    np.testing.assert_array_equal(finite_pop_estimand(draw, estimand, x=x), got[2])


@pytest.mark.parametrize("covariance", ["identity", "equicorrelated"])
@pytest.mark.parametrize("model", [1, 2, 3, 4])
@pytest.mark.parametrize("estimand", ["sate", "cate", "late", "clate"])
def test_population_target_lies_within_four_standard_errors_of_an_oracle(
        estimand, model, covariance):
    """The closed-form theta0 against the target of a 2e5-unit draw, whose
    standard error comes from the draw's own influence values. Model 4's
    cate slope rests on Stein's lemma, E[r f(r'b)] = Sigma b E[f'(r'b)]."""
    from finestrat.simulate import _oracle_influence, _regressors, population_target

    compliance = 0.5 if estimand in ("late", "clate") else None
    dgp = DgpSpec(model=model, dim_r=5, n=200_000, covariance=covariance,
                  compliance=compliance)
    draw = generate_dgp(dgp, RngSpec(17, model))
    pi_phi, _, oracle = _oracle_influence(draw, estimand, dgp.p, x=_regressors(estimand, draw.r))
    se = pi_phi.std(axis=0) / np.sqrt(dgp.n)
    target = population_target(dgp, estimand)
    assert target.shape == oracle.shape
    assert np.all(np.abs(target - oracle) <= 4.0 * se), (target, oracle, se)


# -- the replication engine -------------------------------------------------------


def test_run_monte_carlo_smoke_and_reproducible():
    dgp = DgpSpec(model=2, dim_r=3, n=60)
    designs = benchmark_designs(2, 3, accept_alpha=0.1)
    res1 = run_monte_carlo(designs, dgp, replicates=100, seed=99)
    res2 = run_monte_carlo(designs, dgp, replicates=100, seed=99)
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


def test_to_csv_writes_the_same_bytes_to_a_path_and_a_handle(tmp_path):
    # a pathlib.Path used to be taken for a handle: "argument 1 must have a
    # 'write' method"
    from finestrat.simulate import MonteCarloResult

    rows = [{c: i + j / 3.0 for j, c in enumerate(MonteCarloResult.CSV_COLUMNS)}
            for i in range(3)]
    res = MonteCarloResult(rows=rows, replicates=100, failures=0, seed=1, workers=1)
    buf = io.StringIO(newline="")
    res.to_csv(buf)
    res.to_csv(tmp_path / "path.csv")
    res.to_csv(str(tmp_path / "str.csv"))
    assert (tmp_path / "path.csv").read_bytes() == buf.getvalue().encode("utf-8")
    assert (tmp_path / "str.csv").read_bytes() == buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("threads", [2, 3])  # 3 workers get uneven chunks
def test_run_monte_carlo_threads_match_serial(threads):
    dgp = DgpSpec(model=1, dim_r=2, n=40)
    designs = benchmark_designs(1, 2, accept_alpha=0.2)
    for replicates in (100, 101):  # at 101 the last chunk is short
        r1 = run_monte_carlo(designs, dgp, replicates=replicates, seed=5, threads=1)
        r2 = run_monte_carlo(designs, dgp, replicates=replicates, seed=5, threads=threads)
        assert r1.rows == r2.rows
        assert r1.meta == r2.meta
        assert (r1.workers, r2.workers) == (1, threads)


def test_run_monte_carlo_cate_reports_the_slope_whatever_the_workers():
    # the cate run regresses the effect on an intercept and the first
    # covariate; Model 2's effect is 4 r_0 plus noise, so theta0 = (0, 4)
    dgp = DgpSpec(model=2, dim_r=3, n=60)
    designs = benchmark_designs(2, 3)
    runs = [run_monte_carlo(designs, dgp, replicates=100, seed=7, estimand="cate",
                            threads=threads) for threads in (1, 2)]
    assert runs[0].rows == runs[1].rows
    assert runs[0].meta == runs[1].meta
    assert runs[0].meta["theta0"] == [0.0, 4.0]


def test_run_monte_carlo_requires_replicates():
    dgp = DgpSpec(model=1, dim_r=2, n=40)
    with pytest.raises(ConfigError, match="100 replicates"):
        run_monte_carlo(benchmark_designs(1, 2), dgp, replicates=50, seed=0)


def test_run_monte_carlo_refuses_an_unknown_estimand_before_the_oracle(monkeypatch):
    # finite_pop_estimand named an unknown estimand only once the oracle's
    # 10^6-unit sample had been drawn
    from finestrat import simulate

    def no_oracle(*args):
        raise AssertionError("the oracle ran before the estimand was checked")

    monkeypatch.setattr(simulate, "generate_dgp", no_oracle)
    with pytest.raises(ConfigError, match="unknown estimand 'foo'"):
        run_monte_carlo(benchmark_designs(1, 2), DgpSpec(model=1, dim_r=2, n=40),
                        replicates=100, seed=0, estimand="foo")


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


def test_design_spec_draws_as_assign_does():
    # a design is complete only with neither psi columns nor a region; a
    # region with no psi columns rerandomizes one group of all units
    from finestrat import DesignSpec, assign_design, simulate

    assert DesignSpec(name="C").complete
    one_group = DesignSpec(name="R", match=MatchConfig(4, 2), h_cols=(0, 1),
                           region=MahalanobisRegion(alpha=0.5))
    assert not one_group.complete
    with pytest.raises(ConfigError, match="design 'R': n=42 not divisible by k=4"):
        simulate.check_designs([one_group], DgpSpec(model=1, dim_r=2, n=42))
    simulate.check_designs([one_group], DgpSpec(model=1, dim_r=2, n=40))
    r = np.random.default_rng(17).standard_normal((40, 2))
    part, draw = assign_design(one_group, r, 0.5, RngSpec(18))
    assert (part.n_groups, part.k, part.l) == (1, 40, 20)
    assert draw.accepted and draw.d.sum() == 20
    # the match config and the region are checked against the columns at construction
    with pytest.raises(ConfigError, match="design 'X': sorted-1d"):
        DesignSpec(name="X", match=MatchConfig(2, 1, method="sorted-1d"), psi_cols=(0, 1))
    with pytest.raises(ConfigError, match="design 'X': region built for 2"):
        DesignSpec(name="X", h_cols=(0,), region=PolarRegion.ball(dim=2, eps=1.0))
    with pytest.raises(ConfigError, match="design 'X' rerandomizes but has no h columns"):
        DesignSpec(name="X", psi_cols=(0,), region=FullSpaceRegion())


def test_run_monte_carlo_failure_policy():
    # duplicated balance columns make the quadratic region singular in every
    # replicate: the run must fail loudly with the failure count
    from finestrat import DesignSpec

    bad = DesignSpec(name="BAD", match=MatchConfig(2, 1, method="sorted-1d"), psi_cols=(0,),
                     h_cols=(1, 1), w_cols=(1,), region=MahalanobisRegion(alpha=0.5))
    dgp = DgpSpec(model=1, dim_r=3, n=40)
    for threads in (1, 2, 3):
        with pytest.raises(RuntimeError, match="replicates failed"):
            run_monte_carlo([bad], dgp, replicates=100, seed=3, theta0=np.zeros(1),
                            threads=threads)


def test_run_monte_carlo_groups_failure_reasons(monkeypatch):
    # the singular design of the failure-policy test fails every replicate:
    # with every failure allowed there is still nothing to aggregate, and
    # the error names the counts per type, whatever the workers
    from finestrat import DesignSpec, simulate

    bad = DesignSpec(name="BAD", match=MatchConfig(2, 1, method="sorted-1d"), psi_cols=(0,),
                     h_cols=(1, 1), w_cols=(1,), region=MahalanobisRegion(alpha=0.5))
    dgp = DgpSpec(model=1, dim_r=3, n=40)
    messages = []
    for threads in (1, 2, 3):
        with pytest.raises(EstimationError, match="100 of 100 replicates failed") as err:
            run_monte_carlo([bad], dgp, replicates=100, seed=3, theta0=np.zeros(1),
                            max_failure_share=1.0, threads=threads)
        messages.append(str(err.value))
    assert "x100" in messages[0]
    assert messages[0] == messages[1] == messages[2]

    # a design step failing on a seeded subset of replicates (forked workers
    # inherit the patch): the survivors are aggregated, the reasons kept
    assign = simulate.assign_design

    def flaky(design, r, p, rng):
        if r[0, 0] > 1.0:
            raise FloatingPointError(f"first unit at {r[0, 0]:.3f}")
        return assign(design, r, p, rng)

    monkeypatch.setattr(simulate, "assign_design", flaky)
    # and whole replicates failing on both sides of the chunk boundaries of
    # 2 and 3 workers (chunks of 6 and 4 replicates), and at the last one
    one_replicate = simulate._one_replicate
    straddle = {0, 3, 4, 5, 6, 11, 12, 23, 24, 48, 95, 96, 99}

    def failing(*args):
        if args[-1] in straddle:
            raise ZeroDivisionError(f"replicate {args[-1]}")
        return one_replicate(*args)

    monkeypatch.setattr(simulate, "_one_replicate", failing)
    ok = benchmark_designs(1, 3)[0]
    results = [run_monte_carlo([ok], dgp, replicates=100, seed=3, theta0=np.zeros(1),
                               max_failure_share=1.0, threads=threads)
               for threads in (1, 2, 3)]
    reasons = results[0].meta["failure_reasons"]
    assert list(reasons) == ["ZeroDivisionError", "FloatingPointError"]
    assert reasons["ZeroDivisionError"] == {"count": len(straddle), "first": "replicate 0"}
    assert 0 < reasons["FloatingPointError"]["count"] < 100 - len(straddle)
    assert reasons["FloatingPointError"]["first"].startswith("first unit at ")
    assert results[0].failures == sum(r["count"] for r in reasons.values())
    assert straddle <= set(results[0].meta["failed_reps"])
    for other in results[1:]:
        assert other.meta == results[0].meta
        assert other.rows == results[0].rows
        assert other.errors.keys() == results[0].errors.keys()
        for name, by_estimator in results[0].errors.items():
            for estimator, err in by_estimator.items():
                np.testing.assert_array_equal(other.errors[name][estimator], err)
    assert all(np.isfinite(row["mse"]) for row in results[0].rows)


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
