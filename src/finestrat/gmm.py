"""Moment models for causal estimands and the exactly identified GMM solver.

Each estimand is a score g(D, R, S, theta) whose sample moment is driven to
zero by Newton iteration. The linearization matrix Pi = -G^{-1} maps moment
residuals to parameter influence and feeds the adjustment and inference
layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ConfigError, EstimationError, horvitz_thompson_weights


@dataclass(frozen=True)
class EstimandSpec:
    """A score function identifying a causal parameter, with dim(g) equal to
    dim(theta) (exact identification). ``dim_theta`` may be None for scores
    whose dimension is read off the frame (then ``init`` must supply the
    starting point)."""

    name: str
    score: Callable  # (frame, theta) -> (n, d_g)
    jacobian: Callable | None = None  # (frame, theta) -> (d_g, d_theta)
    init: Callable | None = None  # frame -> starting theta
    dim_theta: int | None = None


@dataclass(frozen=True)
class GmmFit:
    theta: np.ndarray
    Pi: np.ndarray  # (d_theta, d_g), equals -G^{-1}
    G: np.ndarray
    scores: np.ndarray  # (n, d_g) evaluated at theta
    iterations: int
    trace: tuple = ()


def fd_jacobian(fun, theta, base=None):
    """Central finite differences of a vector function, column by column,
    with step 1e-6 * max(1, |theta_j|)."""
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


def newton_root(fun, jac, theta0, tol=1e-10, max_iter=200, label="solver"):
    """Damped Newton iteration for fun(theta) = 0 (square systems).

    Convergence is sup-norm of the residual <= tol; steps are halved until
    the residual 2-norm decreases. Raises EstimationError (with the
    iteration trace attached) on a singular Jacobian or stalled progress.
    """
    theta = np.array(theta0, dtype=np.float64).ravel().copy()
    g = np.asarray(fun(theta), dtype=np.float64).ravel()
    trace = [(0, float(np.abs(g).max()))]
    for it in range(1, max_iter + 1):
        if np.abs(g).max() <= tol:
            return theta, it - 1, tuple(trace)
        J = jac(theta) if jac is not None else fd_jacobian(fun, theta, base=g)
        J = np.atleast_2d(np.asarray(J, dtype=np.float64))
        if J.shape[0] != J.shape[1]:
            raise ConfigError(
                f"{label}: over-identified system ({J.shape[0]} moments, "
                f"{J.shape[1]} parameters) not implemented"
            )
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


def _starting_point(frame, spec, theta_init):
    if theta_init is not None:
        return np.atleast_1d(np.asarray(theta_init, dtype=np.float64))
    if spec.init is not None:
        return np.atleast_1d(np.asarray(spec.init(frame), dtype=np.float64))
    if spec.dim_theta is None:
        raise ConfigError(f"{spec.name}: cannot infer starting point; pass theta_init")
    return np.zeros(spec.dim_theta)


def solve_gmm(frame, spec, theta_init=None, tol=1e-10, max_iter=200):
    """Drive the sample moment E_n[g_i(theta)] to zero and return the fit,
    including Pi = -G^{-1} and the per-unit scores at the solution."""
    theta0 = _starting_point(frame, spec, theta_init)

    def gbar(theta):
        return np.atleast_2d(spec.score(frame, theta)).mean(axis=0)

    jac = None
    if spec.jacobian is not None:
        jac = lambda theta: spec.jacobian(frame, theta)

    probe = np.atleast_2d(spec.score(frame, theta0))
    if probe.shape[1] != theta0.size:
        raise ConfigError(
            f"{spec.name}: score dimension {probe.shape[1]} != dim(theta) "
            f"{theta0.size}; only exact identification is supported"
        )

    theta, iters, trace = newton_root(
        gbar, jac, theta0, tol=tol, max_iter=max_iter, label=f"gmm[{spec.name}]"
    )
    G = spec.jacobian(frame, theta) if spec.jacobian is not None else fd_jacobian(gbar, theta)
    G = np.atleast_2d(np.asarray(G, dtype=np.float64))
    try:
        Pi = -np.linalg.inv(G)
    except np.linalg.LinAlgError:
        raise EstimationError(f"gmm[{spec.name}]: singular Jacobian at solution", list(trace))
    scores = np.atleast_2d(spec.score(frame, theta))
    return GmmFit(theta=theta, Pi=Pi, G=G, scores=scores, iterations=iters, trace=trace)


def assignment_component(fit):
    """Per-unit influence contributions Pi @ g_i at the fitted parameter,
    as an (n, d_theta) matrix."""
    return fit.scores @ fit.Pi.T


# ---------------------------------------------------------------------------
# built-in scores


def score_sate():
    """Difference-of-means estimand: g = H*Y - theta."""

    def score(frame, theta):
        hw = horvitz_thompson_weights(frame)
        return (hw * frame.y - theta[0])[:, None]

    def jacobian(frame, theta):
        return np.array([[-1.0]])

    def init(frame):
        hw = horvitz_thompson_weights(frame)
        return np.array([np.mean(hw * frame.y)])

    return EstimandSpec(name="sate", dim_theta=1, score=score, jacobian=jacobian, init=init)


def score_cate_blp():
    """Best linear predictor of treatment effects: g = (H*Y - x'theta) x,
    with x the table's heterogeneity regressors."""

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


def _require_endog(frame, name):
    if frame.d_endog is None:
        raise ConfigError(f"{name}: frame has no endogenous treatment column")


def score_late():
    """Complier average effect via the Wald moment: g = H*Y - H*D*theta,
    with frame.d the instrument and frame.d_endog the realized treatment.
    Warm-started at the Wald ratio."""

    def score(frame, theta):
        _require_endog(frame, "late")
        hw = horvitz_thompson_weights(frame)
        return (hw * frame.y - hw * frame.d_endog * theta[0])[:, None]

    def jacobian(frame, theta):
        _require_endog(frame, "late")
        hw = horvitz_thompson_weights(frame)
        return np.array([[-np.mean(hw * frame.d_endog)]])

    def init(frame):
        _require_endog(frame, "late")
        hw = horvitz_thompson_weights(frame)
        denom = np.mean(hw * frame.d_endog)
        if abs(denom) < 1e-12:
            return np.zeros(1)
        return np.array([np.mean(hw * frame.y) / denom])

    return EstimandSpec(name="late", dim_theta=1, score=score, jacobian=jacobian, init=init)


def score_clate():
    """Best linear predictor of complier treatment effects:
    g = (H*Y - H*D*x'theta) x."""

    def score(frame, theta):
        _require_endog(frame, "clate")
        x = frame.covariates.x
        hw = horvitz_thompson_weights(frame)
        return (hw * frame.y - hw * frame.d_endog * (x @ theta))[:, None] * x

    def jacobian(frame, theta):
        _require_endog(frame, "clate")
        x = frame.covariates.x
        hw = horvitz_thompson_weights(frame)
        return -np.einsum("i,ij,ik->jk", hw * frame.d_endog, x, x) / frame.n

    def init(frame):
        return np.zeros(frame.covariates.d_x)

    return EstimandSpec(name="clate", score=score, jacobian=jacobian, init=init)


BUILTIN_ESTIMANDS = {
    "sate": score_sate,
    "cate": score_cate_blp,
    "late": score_late,
    "clate": score_clate,
}


def estimand_by_name(name):
    make = BUILTIN_ESTIMANDS.get(name) if isinstance(name, str) else None
    if make is None:
        raise ConfigError(
            f"unknown estimand {name!r}; expected one of {sorted(BUILTIN_ESTIMANDS)}")
    return make()
