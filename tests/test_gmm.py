import numpy as np
import pytest

from finestrat import (
    ConfigError,
    CovariateTable,
    EstimandSpec,
    EstimationError,
    ExperimentFrame,
    assignment_component,
    horvitz_thompson_weights,
    score_cate_blp,
    score_clate,
    score_late,
    score_sate,
    solve_gmm,
)


def _frame(d, y, p=0.5, x=None, d_endog=None):
    n = len(d)
    table = CovariateTable(psi=np.zeros((n, 1)), h=None, w=None, x=x, ids=None)
    return ExperimentFrame(covariates=table, d=np.asarray(d), p=p,
                           y=np.asarray(y, dtype=float),
                           d_endog=None if d_endog is None else np.asarray(d_endog, dtype=float))


def test_sate_is_difference_of_means():
    gen = np.random.default_rng(0)
    d = np.tile([1, 0], 30)
    y = gen.standard_normal(60)
    frame = _frame(d, y)
    fit = solve_gmm(frame, score_sate())
    assert fit.theta[0] == pytest.approx(y[d == 1].mean() - y[d == 0].mean(), rel=1e-12)
    hw = horvitz_thompson_weights(frame)
    assert fit.theta[0] == pytest.approx(np.mean(hw * y), rel=1e-12)


def test_sate_constant_effect_with_matched_baselines():
    # pairs share the same control outcome, treated adds exactly 2
    y0 = np.repeat(np.array([0.5, -1.25, 3.0]), 2)
    d = np.tile([1, 0], 3)
    y = y0 + 2.0 * d
    fit = solve_gmm(_frame(d, y), score_sate())
    assert fit.theta[0] == 2.0


def test_cate_with_intercept_only_reduces_to_sate():
    gen = np.random.default_rng(1)
    d = np.tile([1, 0], 25)
    y = gen.standard_normal(50)
    x = np.ones((50, 1))
    f_sate = solve_gmm(_frame(d, y), score_sate())
    f_cate = solve_gmm(_frame(d, y, x=x), score_cate_blp())
    assert f_cate.theta[0] == pytest.approx(f_sate.theta[0], rel=1e-10)


def test_late_equals_wald_ratio_oracle():
    gen = np.random.default_rng(2)
    n = 200
    z = np.tile([1, 0], n // 2)
    compliers = gen.random(n) < 0.6
    d_endog = np.where(z == 1, compliers, 0).astype(float)
    y = gen.standard_normal(n) + d_endog * 1.5
    frame = _frame(z, y, d_endog=d_endog)
    hw = horvitz_thompson_weights(frame)
    oracle = np.mean(hw * y) / np.mean(hw * d_endog)  # direct ratio
    fit = solve_gmm(frame, score_late())
    assert fit.theta[0] == pytest.approx(oracle, rel=1e-10)


def test_clate_full_compliance_matches_cate():
    # with full compliance and arms carrying identical x cross-moments
    # (x duplicated within pairs), the two moment systems coincide exactly
    gen = np.random.default_rng(3)
    n = 80
    d = np.tile([1, 0], n // 2)
    x_half = np.column_stack([np.ones(n // 2), gen.standard_normal(n // 2)])
    x = np.repeat(x_half, 2, axis=0)
    y = gen.standard_normal(n)
    f_cate = solve_gmm(_frame(d, y, x=x), score_cate_blp())
    f_clate = solve_gmm(_frame(d, y, x=x, d_endog=d.astype(float)), score_clate())
    np.testing.assert_allclose(f_clate.theta, f_cate.theta, rtol=1e-8)


def test_clate_full_compliance_intercept_exact():
    gen = np.random.default_rng(30)
    n = 60
    d = np.tile([1, 0], n // 2)
    y = gen.standard_normal(n)
    x = np.ones((n, 1))
    f_cate = solve_gmm(_frame(d, y, x=x), score_cate_blp())
    f_clate = solve_gmm(_frame(d, y, x=x, d_endog=d.astype(float)), score_clate())
    assert f_clate.theta[0] == pytest.approx(f_cate.theta[0], rel=1e-12)


def test_late_recovers_complier_effect_at_scale():
    # oracle: unit effect on compliers, zero otherwise; population value 1
    gen = np.random.default_rng(4)
    n = 10000
    z = np.tile([1, 0], n // 2)
    compliers = gen.random(n) < 0.5
    d_endog = (z * compliers).astype(float)
    y0 = gen.standard_normal(n)
    y = y0 + d_endog * 1.0
    fit = solve_gmm(_frame(z, y, d_endog=d_endog), score_late())
    assert fit.theta[0] == pytest.approx(1.0, abs=0.1)


def test_zero_compliers_singular_jacobian():
    n = 40
    z = np.tile([1, 0], n // 2)
    d_endog = np.zeros(n)
    y = np.random.default_rng(5).standard_normal(n)
    with pytest.raises(EstimationError, match="[Ss]ingular"):
        solve_gmm(_frame(z, y, d_endog=d_endog), score_late())


def test_moment_residual_below_tolerance():
    gen = np.random.default_rng(6)
    n = 60
    d = np.tile([1, 0], n // 2)
    x = np.column_stack([np.ones(n), gen.standard_normal(n), gen.standard_normal(n)])
    y = gen.standard_normal(n) + x[:, 1]
    frame = _frame(d, y, x=x)
    spec = score_cate_blp()
    fit = solve_gmm(frame, spec)
    resid = np.abs(spec.score(frame, fit.theta).mean(axis=0)).max()
    assert resid <= 1e-10
    np.testing.assert_allclose(fit.Pi @ fit.G, -np.eye(3), atol=1e-8)


def test_fd_jacobian_matches_analytic_on_builtins():
    from finestrat.gmm import fd_jacobian

    gen = np.random.default_rng(7)
    n = 50
    d = np.tile([1, 0], n // 2)
    x = np.column_stack([np.ones(n), gen.standard_normal(n)])
    y = gen.standard_normal(n) + 0.5 * x[:, 1]
    d_endog = (d * (gen.random(n) < 0.8)).astype(float)
    frames_specs = [
        (_frame(d, y), score_sate(), np.array([0.3])),
        (_frame(d, y, x=x), score_cate_blp(), np.array([0.1, -0.2])),
        (_frame(d, y, d_endog=d_endog), score_late(), np.array([0.4])),
        (_frame(d, y, x=x, d_endog=d_endog), score_clate(), np.array([0.2, 0.1])),
    ]
    for frame, spec, theta in frames_specs:
        fd = fd_jacobian(lambda t: spec.score(frame, t).mean(axis=0), theta)
        analytic = spec.jacobian(frame, theta)
        np.testing.assert_allclose(fd, analytic, rtol=1e-5, atol=1e-7)


def test_affine_reparameterization_invariance():
    # a linear score g(theta) = A(b - theta) vs g'(psi) = A(b - S psi)
    gen = np.random.default_rng(8)
    for _ in range(5):
        d_t = 3
        A = gen.standard_normal((d_t, d_t)) + np.eye(d_t) * 2
        b = gen.standard_normal(d_t)
        S = gen.standard_normal((d_t, d_t)) + np.eye(d_t) * 2
        n = 30
        noise = gen.standard_normal((n, d_t)) * 0.1
        noise -= noise.mean(axis=0)

        def make(mat):
            def score(frame, theta):
                return (b - mat @ theta)[None, :] @ A.T + noise

            return EstimandSpec(name="lin", dim_theta=d_t, score=score)

        table = CovariateTable(psi=np.zeros((n, 1)), h=None, w=None, x=None, ids=None)
        frame = ExperimentFrame(covariates=table, d=np.tile([1, 0], n // 2), p=0.5)
        fit_id = solve_gmm(frame, make(np.eye(d_t)))
        fit_s = solve_gmm(frame, make(S))
        np.testing.assert_allclose(fit_s.theta, np.linalg.solve(S, fit_id.theta),
                                   rtol=1e-7, atol=1e-9)


def test_over_identified_rejected():
    def score(frame, theta):
        return np.column_stack([frame.y - theta[0], frame.y ** 2 - theta[0]])

    spec = EstimandSpec(name="over", dim_theta=1, score=score)
    frame = _frame(np.tile([1, 0], 10), np.random.default_rng(9).standard_normal(20))
    with pytest.raises(ConfigError, match="exact identification"):
        solve_gmm(frame, spec)


def test_assignment_component_sate_sign_convention():
    gen = np.random.default_rng(10)
    d = np.tile([1, 0], 20)
    y = gen.standard_normal(40)
    frame = _frame(d, y)
    fit = solve_gmm(frame, score_sate())
    contrib = assignment_component(fit)
    hw = horvitz_thompson_weights(frame)
    np.testing.assert_allclose(contrib[:, 0], hw * y - fit.theta[0], rtol=1e-10)
    assert abs(contrib.mean()) < 1e-12


def test_assignment_component_constant_outcome():
    d = np.tile([1, 0], 15)
    frame = _frame(d, np.full(30, 3.0))
    fit = solve_gmm(frame, score_sate())
    contrib = assignment_component(fit)
    hw = horvitz_thompson_weights(frame)
    np.testing.assert_allclose(contrib[:, 0], hw * 3.0, atol=1e-12)
    assert contrib.mean() == pytest.approx(0.0, abs=1e-12)


def test_assignment_component_cate_dense_oracle():
    # oracle: direct dense-algebra evaluation of E_n[xx']^{-1} g_i
    gen = np.random.default_rng(11)
    n = 24
    d = np.tile([1, 0], n // 2)
    x = np.column_stack([np.ones(n), gen.standard_normal(n)])
    y = gen.standard_normal(n)
    frame = _frame(d, y, x=x)
    fit = solve_gmm(frame, score_cate_blp())
    hw = horvitz_thompson_weights(frame)
    gram_inv = np.linalg.inv(x.T @ x / n)
    scores = (hw * y - x @ fit.theta)[:, None] * x
    oracle = scores @ gram_inv.T
    np.testing.assert_allclose(assignment_component(fit), oracle, rtol=1e-9)


# -- the built-in estimands against their hand-written moments ------------------------


def _reference_require_endog(frame, name):
    if frame.d_endog is None:
        raise ConfigError(f"{name}: frame has no endogenous treatment column")


def _reference_sate():
    def score(frame, theta):
        hw = horvitz_thompson_weights(frame)
        return (hw * frame.y - theta[0])[:, None]

    def jacobian(frame, theta):
        return np.array([[-1.0]])

    def init(frame):
        hw = horvitz_thompson_weights(frame)
        return np.array([np.mean(hw * frame.y)])

    return EstimandSpec(name="sate", dim_theta=1, score=score, jacobian=jacobian, init=init)


def _reference_cate():
    def score(frame, theta):
        x = frame.covariates.x
        hw = horvitz_thompson_weights(frame)
        return (hw * frame.y - x @ theta)[:, None] * x

    def jacobian(frame, theta):
        x = frame.covariates.x
        return -(x.T @ x) / frame.n

    def init(frame):
        return np.zeros(frame.covariates.d_x)

    return EstimandSpec(name="cate", score=score, jacobian=jacobian, init=init)


def _reference_late():
    def score(frame, theta):
        _reference_require_endog(frame, "late")
        hw = horvitz_thompson_weights(frame)
        return (hw * frame.y - hw * frame.d_endog * theta[0])[:, None]

    def jacobian(frame, theta):
        _reference_require_endog(frame, "late")
        hw = horvitz_thompson_weights(frame)
        return np.array([[-np.mean(hw * frame.d_endog)]])

    def init(frame):
        _reference_require_endog(frame, "late")
        hw = horvitz_thompson_weights(frame)
        denom = np.mean(hw * frame.d_endog)
        if abs(denom) < 1e-12:
            return np.zeros(1)
        return np.array([np.mean(hw * frame.y) / denom])

    return EstimandSpec(name="late", dim_theta=1, score=score, jacobian=jacobian, init=init)


def _reference_clate():
    def score(frame, theta):
        _reference_require_endog(frame, "clate")
        x = frame.covariates.x
        hw = horvitz_thompson_weights(frame)
        return (hw * frame.y - hw * frame.d_endog * (x @ theta))[:, None] * x

    def jacobian(frame, theta):
        _reference_require_endog(frame, "clate")
        x = frame.covariates.x
        hw = horvitz_thompson_weights(frame)
        return -np.einsum("i,ij,ik->jk", hw * frame.d_endog, x, x) / frame.n

    def init(frame):
        return np.zeros(frame.covariates.d_x)

    return EstimandSpec(name="clate", score=score, jacobian=jacobian, init=init)


# the four estimands as each was written out by hand before they became one linear moment
_REFERENCE_ESTIMANDS = {"sate": _reference_sate, "cate": _reference_cate,
                        "late": _reference_late, "clate": _reference_clate}


def _random_design(gen, k, with_w):
    """A random frame in groups of k with one treated each, and its partition,
    whose groups are paired for the collapsed strata."""
    from finestrat import GroupPartition

    n_groups = 2 * int(gen.integers(3, 40))
    n = k * n_groups
    groups = gen.permutation(n).reshape(n_groups, k)
    partition = GroupPartition(groups=groups, k=k, l=1,
                               pairing=np.arange(n_groups) ^ 1)
    d = np.zeros(n, dtype=np.int64)
    d[groups[np.arange(n_groups), gen.integers(0, k, n_groups)]] = 1
    r = gen.standard_normal((n, 3))
    x = np.column_stack([np.ones(n), r[:, 0]])
    d_endog = (d * (gen.random(n) < 0.7)).astype(float)
    y = r @ np.array([1.0, -0.5, 0.25]) + d_endog * (2.0 + r[:, 0]) + gen.standard_normal(n)
    table = CovariateTable(psi=r[:, :1], h=None, w=r[:, 1:] if with_w else None, x=x, ids=None)
    frame = ExperimentFrame(covariates=table, d=d, p=1.0 / k, y=y, d_endog=d_endog)
    return frame, partition


def _chain(frame, partition, spec):
    from finestrat import confidence_intervals, two_step_adjust, variance_components

    fit, adj = two_step_adjust(frame, partition, spec, w=frame.covariates.w)
    comp = variance_components(frame, partition, adj, fit, spec=spec)
    report = confidence_intervals(fit, adj, comp)
    return [fit.theta, fit.G, fit.Pi, fit.scores, adj.theta_adj,
            np.array(report.ci_fin), np.array(report.ci_pop)]


@pytest.mark.parametrize("with_w", [False, True], ids=["no-w", "w"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", ["sate", "cate", "late", "clate"])
def test_builtin_estimands_match_their_hand_written_moments(name, k, with_w):
    # every array of the estimation chain, bit for bit, against the four
    # hand-written closure sets; k = 3 has p = 1/3
    from finestrat import estimand_by_name

    gen = np.random.default_rng([k, with_w, len(name)])
    for _ in range(25):
        frame, partition = _random_design(gen, k, with_w)
        got = _chain(frame, partition, estimand_by_name(name))
        want = _chain(frame, partition, _REFERENCE_ESTIMANDS[name]())
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_builtin_estimand_reports_match_their_hand_written_moments(tmp_path, monkeypatch):
    # estimate's report for each estimand, byte for byte, with the built-in
    # table and with the hand-written moments in its place
    import csv
    import json

    from finestrat import gmm
    from finestrat.cli import main

    gen = np.random.default_rng(24)
    n = 120
    cov = tmp_path / "cov.csv"
    data = np.column_stack([gen.standard_normal((n, 3)), np.ones(n)])
    with open(cov, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["base", "a", "b", "const"])
        writer.writerows(data.tolist())
    spec = {"roles": {"base": ["psi", "x"], "a": ["h", "w"], "b": ["h", "w"], "const": "x"},
            "k": 2, "l": 1, "region": {"shape": "mahalanobis", "alpha": 0.3}, "seed": 5}
    (tmp_path / "design.json").write_text(json.dumps(spec))
    out = tmp_path / "assign.csv"
    assert main(["assign", "--spec", str(tmp_path / "design.json"), "--data", str(cov),
                 "--out", str(out)]) == 0
    d = np.array(json.loads((tmp_path / "assign.csv.manifest.json").read_text())["d"])
    d_endog = d * (gen.random(n) < 0.8)
    y = data[:, :3] @ np.array([1.0, 0.5, -0.5]) + d_endog * (1.0 + data[:, 0]) \
        + gen.standard_normal(n)
    outcomes = tmp_path / "y.csv"
    outcomes.write_text("id,y,d\n" + "".join(
        f"{i},{v!r},{t}\n" for i, (v, t) in enumerate(zip(y.tolist(), d_endog.tolist()))))

    def report(name, tag):
        path = tmp_path / f"{name}-{tag}.json"
        assert main(["estimate", "--manifest", str(out) + ".manifest.json", "--data", str(cov),
                     "--outcomes", str(outcomes), "--out", str(path), "--estimand", name]) == 0
        return path.read_bytes()

    names = list(gmm.MOMENTS)
    built_in = {name: report(name, "table") for name in names}
    monkeypatch.setattr(gmm, "BUILTIN_ESTIMANDS", _REFERENCE_ESTIMANDS)
    for name in names:
        assert report(name, "reference") == built_in[name], name


# -- the shared Newton core against the mean-based solver it replaced ----------------


def _reference_fd_jacobian(fun, theta, base=None):
    theta = np.asarray(theta, dtype=np.float64)
    d = theta.size
    f0 = np.asarray(fun(theta) if base is None else base).ravel()
    J = np.empty((f0.size, d))
    for j in range(d):
        h = 1e-6 * max(1.0, abs(theta[j]))
        tp = theta.copy()
        tm = theta.copy()
        tp[j] += h
        tm[j] -= h
        J[:, j] = (np.asarray(fun(tp)).ravel() - np.asarray(fun(tm)).ravel()) / (2.0 * h)
    return J


def _reference_newton_root(fun, jac, theta0, tol=1e-10, max_iter=200, label="solver"):
    """Newton on a mean moment function fun(theta) -> (d,); returns
    (theta, iterations, trace)."""
    theta = np.array(theta0, dtype=np.float64).ravel().copy()
    g = np.asarray(fun(theta), dtype=np.float64).ravel()
    trace = [(0, float(np.abs(g).max()))]
    for it in range(1, max_iter + 1):
        if np.abs(g).max() <= tol:
            return theta, it - 1, tuple(trace)
        J = jac(theta) if jac is not None else _reference_fd_jacobian(fun, theta, base=g)
        J = np.atleast_2d(np.asarray(J, dtype=np.float64))
        if J.shape[0] != J.shape[1]:
            raise ConfigError(f"{label}: over-identified system")
        try:
            step = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError:
            raise EstimationError(f"{label}: singular Jacobian at iteration {it}", trace)
        if not np.isfinite(step).all():
            raise EstimationError(f"{label}: non-finite Newton step at iteration {it}", trace)
        norm0 = np.linalg.norm(g)
        scale = 1.0
        for _ in range(50):
            cand = theta + scale * step
            g_new = np.asarray(fun(cand), dtype=np.float64).ravel()
            if np.isfinite(g_new).all() and np.linalg.norm(g_new) < max(norm0 * (1.0 - 1e-4 * scale), tol * 0.5):
                break
            scale *= 0.5
        else:
            raise EstimationError(f"{label}: step halving stalled at iteration {it}", trace)
        theta, g = cand, g_new
        trace.append((it, float(np.abs(g).max())))
    if np.abs(g).max() <= tol:
        return theta, max_iter, tuple(trace)
    raise EstimationError(f"{label}: no convergence in {max_iter} iterations", trace)


def _reference_solve_gmm(frame, spec):
    """solve_gmm as it was: a probe call for the moment count, Newton on the
    mean, then the Jacobian and the scores evaluated again at the root."""
    from finestrat import GmmFit

    if spec.init is not None:
        theta0 = np.atleast_1d(np.asarray(spec.init(frame), dtype=np.float64))
    else:
        theta0 = np.zeros(spec.dim_theta)

    def gbar(theta):
        return np.atleast_2d(spec.score(frame, theta)).mean(axis=0)

    jac = None
    if spec.jacobian is not None:
        jac = lambda theta: spec.jacobian(frame, theta)
    probe = np.atleast_2d(spec.score(frame, theta0))
    if probe.shape[1] != theta0.size:
        raise ConfigError(f"{spec.name}: only exact identification is supported")
    theta, iters, trace = _reference_newton_root(gbar, jac, theta0, label=f"gmm[{spec.name}]")
    G = (spec.jacobian(frame, theta) if spec.jacobian is not None
         else _reference_fd_jacobian(gbar, theta))
    G = np.atleast_2d(np.asarray(G, dtype=np.float64))
    Pi = -np.linalg.inv(G)
    scores = np.atleast_2d(spec.score(frame, theta))
    return GmmFit(theta=theta, Pi=Pi, G=G, scores=scores, iterations=iters, trace=trace)


def _location_scale(jacobian=None, init=None):
    """A custom moment: the mean and variance of y, from zeros unless ``init``
    is given; with no ``jacobian`` Newton takes finite differences."""
    def score(frame, theta):
        return np.column_stack([frame.y - theta[0], (frame.y - theta[0]) ** 2 - theta[1]])

    return EstimandSpec(name="location-scale", score=score, jacobian=jacobian, init=init,
                        dim_theta=2)


@pytest.mark.parametrize("name", ["sate", "cate", "late", "clate", "location-scale"])
def test_solve_gmm_matches_the_mean_based_solver(name):
    # theta, G, Pi, scores, iterations and trace, bit for bit, at p = 1/2 and 1/3
    from finestrat import estimand_by_name

    spec = _location_scale() if name == "location-scale" else estimand_by_name(name)
    gen = np.random.default_rng([26, len(name)])
    for k in (2, 3):
        for _ in range(10):
            frame, _ = _random_design(gen, k, with_w=False)
            got, want = solve_gmm(frame, spec), _reference_solve_gmm(frame, spec)
            for field in ("theta", "G", "Pi", "scores"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
            assert (got.iterations, got.trace) == (want.iterations, want.trace)
            assert got.iterations > 0 or name != "location-scale"


def _counting(spec, calls):
    def score(frame, theta):
        calls.append("score")
        return spec.score(frame, theta)

    def jacobian(frame, theta):
        calls.append("jacobian")
        return spec.jacobian(frame, theta)

    return EstimandSpec(name=spec.name, score=score, jacobian=jacobian, init=spec.init,
                        dim_theta=spec.dim_theta)


@pytest.mark.parametrize("name", ["sate", "cate", "late", "clate"])
def test_solve_gmm_scores_a_builtin_estimand_once(name):
    # Newton starts at the root, so the rows it scores there are the fit's
    # scores and G is the one Jacobian call
    from finestrat import estimand_by_name

    calls = []
    frame, _ = _random_design(np.random.default_rng(27), 2, with_w=False)
    fit = solve_gmm(frame, _counting(estimand_by_name(name), calls))
    assert fit.iterations == 0
    assert sorted(calls) == ["jacobian", "score"]


@pytest.mark.parametrize("at_root", [False, True], ids=["newton-step", "at-root"])
def test_a_custom_jacobian_of_the_wrong_shape_is_refused(at_root):
    # from a start at the root Newton takes no step, and solve_gmm's own
    # Jacobian call is the one that must refuse it
    y = np.random.default_rng(28).standard_normal(20)
    root = (lambda frame: np.array([y.mean(), np.mean((y - y.mean()) ** 2)])) if at_root else None
    spec = _location_scale(jacobian=lambda frame, theta: np.ones((2, 1)), init=root)
    with pytest.raises(ConfigError, match=r"Jacobian has shape \(2, 1\)"):
        solve_gmm(_frame(np.tile([1, 0], 10), y), spec)
