"""Moment models for causal estimands and the exactly identified GMM solver.

Each estimand is a score g(D, R, S, theta) whose sample moment is driven to
zero by Newton iteration. The linearization matrix Pi = -G^{-1} maps moment
residuals to parameter influence and feeds the adjustment and inference
layers.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import partial
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


def fd_jacobian(fun, theta):
    """Central finite differences of the mean of the rows fun(theta) (a vector
    function is one row), column by column, with step 1e-6 * max(1, |theta_j|)."""
    theta = np.asarray(theta, dtype=np.float64)
    cols = []
    for j in range(theta.size):
        h = 1e-6 * max(1.0, abs(theta[j]))
        tp = theta.copy()
        tm = theta.copy()
        tp[j] += h
        tm[j] -= h
        cols.append((np.atleast_2d(fun(tp)).mean(axis=0) - np.atleast_2d(fun(tm)).mean(axis=0))
                    / (2.0 * h))
    return np.column_stack(cols)


def _square(J, label):
    """A Jacobian as a float (d, d) matrix; ConfigError naming any other shape."""
    J = np.atleast_2d(np.asarray(J, dtype=np.float64))
    if J.shape[0] != J.shape[1]:
        raise ConfigError(f"{label}: Jacobian has shape {J.shape}; an exactly identified "
                          "moment needs a square one")
    return J


def newton_root(fun, jac, theta0, tol=1e-10, max_iter=200, label="solver"):
    """Damped Newton iteration driving the mean of the score rows fun(theta),
    an (m, d) array, to zero. The rows at the start fix the moment count d,
    which must equal dim(theta); jac(theta) is the Jacobian of the mean, or
    None for central finite differences.

    Convergence is sup-norm of the mean <= tol; steps are halved until its
    2-norm decreases. Returns theta, the rows at theta, the iteration count
    and the (iteration, sup-norm) trace. Raises EstimationError (with the
    trace attached) on a singular Jacobian or stalled progress.
    """
    theta = np.array(theta0, dtype=np.float64).ravel().copy()
    rows = np.atleast_2d(fun(theta))
    if rows.shape[1] != theta.size:
        raise ConfigError(f"{label}: {rows.shape[1]} moments for {theta.size} parameters; only "
                          "exact identification is supported (the start sets the parameter count)")
    g = rows.mean(axis=0)
    trace = [(0, float(np.abs(g).max()))]
    for it in range(1, max_iter + 1):
        if np.abs(g).max() <= tol:
            return theta, rows, it - 1, tuple(trace)
        J = _square(jac(theta) if jac is not None else fd_jacobian(fun, theta), label)
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
            rows_new = np.atleast_2d(fun(cand))
            g_new = rows_new.mean(axis=0)
            if np.isfinite(g_new).all() and np.linalg.norm(g_new) < max(norm0 * (1.0 - 1e-4 * scale), tol * 0.5):
                break
            scale *= 0.5
        else:
            raise EstimationError(f"{label}: step halving stalled at iteration {it}", trace)
        theta, rows, g = cand, rows_new, g_new
        trace.append((it, float(np.abs(g).max())))
    if np.abs(g).max() <= tol:
        return theta, rows, max_iter, tuple(trace)
    raise EstimationError(f"{label}: no convergence in {max_iter} iterations", trace)


def _starting_point(frame, spec):
    if spec.init is not None:
        return np.atleast_1d(np.asarray(spec.init(frame), dtype=np.float64))
    if spec.dim_theta is None:
        raise ConfigError(f"{spec.name}: cannot infer a starting point; give the spec "
                          "an init or a dim_theta")
    return np.zeros(spec.dim_theta)


def solve_gmm(frame, spec):
    """Drive the sample moment E_n[g_i(theta)] to zero and return the fit:
    Pi = -G^{-1}, with G the Jacobian at the root, and the per-unit scores
    Newton stopped on."""
    label = f"gmm[{spec.name}]"
    score = partial(spec.score, frame)
    jac = None if spec.jacobian is None else partial(spec.jacobian, frame)
    theta, scores, iters, trace = newton_root(score, jac, _starting_point(frame, spec), label=label)
    G = _square(jac(theta) if jac is not None else fd_jacobian(score, theta), label)
    try:
        Pi = -np.linalg.inv(G)
    except np.linalg.LinAlgError:
        raise EstimationError(f"{label}: singular Jacobian at solution", list(trace))
    return GmmFit(theta=theta, Pi=Pi, G=G, scores=scores, iterations=iters, trace=trace)


def assignment_component(fit):
    """Per-unit influence contributions Pi @ g_i at the fitted parameter,
    as an (n, d_theta) matrix."""
    return fit.scores @ fit.Pi.T


# ---------------------------------------------------------------------------
# built-in scores: each estimand is the root of one linear moment,
# g = (H*Y - w*x'theta) x. MOMENTS maps its name to (x is the 'x' role rather
# than an intercept, w is the realized treatment H*D rather than 1); with
# w = H*D it is the Wald (IV) moment.

Moment = namedtuple("Moment", "uses_x needs_d")
MOMENTS = {"sate": Moment(False, False), "cate": Moment(True, False),
           "late": Moment(False, True), "clate": Moment(True, True)}


def moment_of(name):
    """The ``Moment`` of a built-in estimand; ConfigError for any other name."""
    moment = MOMENTS.get(name) if isinstance(name, str) else None
    if moment is None:
        raise ConfigError(f"unknown estimand {name!r}; expected one of {sorted(MOMENTS)}")
    return moment


def linear_moment(name):
    """The built-in estimand ``name`` as the root of g = (H*Y - w*x'theta) x.
    Newton starts at the closed-form root solve(E_n[w x x'], E_n[H*Y x]), or at
    zeros where that matrix is singular (Newton then reports the singular
    Jacobian)."""
    uses_x, needs_d = MOMENTS[name]

    def columns(frame):  # H, x and w, which is None where it is 1
        hw = horvitz_thompson_weights(frame)
        x = frame.covariates.x if uses_x else np.ones((frame.n, 1))
        if needs_d and frame.d_endog is None:
            raise ConfigError(f"{name}: frame has no endogenous treatment column")
        return hw, x, hw * frame.d_endog if needs_d else None

    def gram(x, w):  # E_n[w x x']
        return (x.T @ x if w is None else np.einsum("i,ij,ik->jk", w, x, x)) / x.shape[0]

    def score(frame, theta):
        hw, x, w = columns(frame)
        fit = x @ theta
        return (hw * frame.y - (fit if w is None else w * fit))[:, None] * x

    def jacobian(frame, theta):
        return -gram(*columns(frame)[1:])

    def init(frame):
        hw, x, w = columns(frame)
        try:
            return np.linalg.solve(gram(x, w), ((hw * frame.y)[:, None] * x).mean(axis=0))
        except np.linalg.LinAlgError:
            return np.zeros(x.shape[1])

    return EstimandSpec(name=name, score=score, jacobian=jacobian, init=init)


def score_sate():
    """sate: g = H*Y - theta, the difference of means."""
    return linear_moment("sate")


def score_cate_blp():
    """cate: g = (H*Y - x'theta) x, the effects' best linear predictor on x."""
    return linear_moment("cate")


def score_late():
    """late: g = H*Y - H*D*theta, the Wald moment of the compliers' effect."""
    return linear_moment("late")


def score_clate():
    """clate: g = (H*Y - H*D*x'theta) x, the compliers' best linear predictor."""
    return linear_moment("clate")


BUILTIN_ESTIMANDS = {"sate": score_sate, "cate": score_cate_blp, "late": score_late,
                     "clate": score_clate}


def estimand_by_name(name):
    moment_of(name)
    return BUILTIN_ESTIMANDS[name]()
