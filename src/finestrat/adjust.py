"""Ex-post linear adjustment tailored to the stratification.

The adjustment coefficient is a partially linear projection of the per-unit
influence contributions on the within-group demeaned adjustment covariates,
computed arm by arm. Subtracting the fitted linear term from the point
estimate removes the influence of residual covariate imbalances and makes
the estimator's limiting distribution Gaussian again after rerandomization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .core import ConfigError, SingularityError, horvitz_thompson_weights
from .gmm import solve_gmm
from .rerandomize import within_tuple_demean


@dataclass(frozen=True)
class AdjustmentFit:
    """Arm coefficients, their difference, and the adjusted estimate.
    alpha = beta1 - beta0 holds exactly by construction."""

    alpha: np.ndarray  # (d_w, d_theta)
    beta1: np.ndarray
    beta0: np.ndarray
    theta_adj: np.ndarray
    gram: np.ndarray  # E_n[wcheck wcheck']
    cond: float
    w: np.ndarray  # adjustment covariates actually used
    iterations: int = 1


def _cov_within_arm(a, b, mask):
    """Cov_n with 1/n_d normalization and arm-conditional means."""
    a_d = a[mask]
    b_d = b[mask]
    ac = a_d - a_d.mean(axis=0)
    bc = b_d - b_d.mean(axis=0)
    return ac.T @ bc / a_d.shape[0]


def _solve_gram(gram, rhs, names):
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        # column-pivoted QR identifies which columns are (near-)collinear
        _, r, piv = sla.qr(gram, pivoting=True)
        diag = np.abs(np.diag(r))
        tol = diag.max() * 1e-10 if diag.size else 0.0
        bad = [names[piv[j]] for j in range(len(diag)) if diag[j] <= tol]
        cond = float(np.linalg.cond(gram))
        raise SingularityError(
            f"adjustment design matrix is singular (condition number {cond:.3e}); "
            f"near-collinear columns: {bad or 'unidentified'}"
        ) from None
    z = np.linalg.solve(chol, rhs)
    return np.linalg.solve(chol.T, z)


def fit_adjustment(fit, frame, partition, w=None, w_names=None):
    """Arm-specific projection coefficients of the influence contributions
    on demeaned adjustment covariates, and the adjusted point estimate
    theta_adj = theta - E_n[H * alpha'w]."""
    u = fit.scores @ fit.Pi.T  # (n, d_theta) influence contributions
    return _adjust_with_influence(fit, frame, partition, w, w_names, u)


def _adjust_with_influence(fit, frame, partition, w, w_names, u):
    """fit_adjustment for given (n, d_theta) influence contributions u."""
    if w is None:
        w = frame.covariates.w
        w_names = w_names or frame.covariates.w_names
    w = np.asarray(w, dtype=np.float64)
    if w.ndim == 1:
        w = w[:, None]
    d_w = w.shape[1]
    if w_names is None:
        w_names = tuple(f"w{j}" for j in range(d_w))
    d_theta = fit.theta.size

    if d_w == 0:
        return AdjustmentFit(
            alpha=np.zeros((0, d_theta)), beta1=np.zeros((0, d_theta)),
            beta0=np.zeros((0, d_theta)), theta_adj=fit.theta.copy(),
            gram=np.zeros((0, 0)), cond=1.0, w=w,
        )

    scale = np.abs(w).max(axis=0)
    wc = within_tuple_demean(w, partition)
    dead = np.abs(wc).max(axis=0) <= 1e-12 * np.maximum(scale, 1.0)
    if dead.any():
        cols = [w_names[j] for j in np.where(dead)[0]]
        raise SingularityError(
            f"adjustment columns {cols} are constant within every group "
            "(annihilated by demeaning); drop columns matched exactly by the "
            "stratification"
        )
    return _refit_with_influence(fit, frame, partition, w, u, w_names, 1)


def two_step_adjust(frame, partition, spec, w=None, iterations=1, theta_init=None,
                    w_names=None):
    """Solve the unadjusted moment problem, fit the adjustment at the
    solution, and optionally iterate: re-evaluate scores at the adjusted
    estimate until the adjusted estimate is stationary (|change| < 1e-8)."""
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    fit = solve_gmm(frame, spec, theta_init=theta_init)
    adj = fit_adjustment(fit, frame, partition, w=w, w_names=w_names)
    theta_prev = adj.theta_adj
    for it in range(2, iterations + 1):
        scores = np.atleast_2d(spec.score(frame, theta_prev))
        u = scores @ fit.Pi.T
        adj = _refit_with_influence(fit, frame, partition, adj.w, u, w_names, it)
        if np.abs(adj.theta_adj - theta_prev).max() < 1e-8:
            theta_prev = adj.theta_adj
            break
        theta_prev = adj.theta_adj
    return fit, adj


def _refit_with_influence(fit, frame, partition, w, u, w_names, iteration):
    n, d_w = w.shape
    p = frame.p
    vard = p * (1.0 - p)
    names = w_names or tuple(f"w{j}" for j in range(d_w))
    wc = within_tuple_demean(w, partition)
    gram = wc.T @ wc / n
    mask1 = frame.d == 1
    beta1 = vard * _solve_gram(gram, _cov_within_arm(wc, u, mask1), names)
    beta0 = vard * _solve_gram(gram, _cov_within_arm(wc, u, ~mask1), names)
    alpha = beta1 - beta0
    hw = horvitz_thompson_weights(frame)
    theta_adj = fit.theta - (hw[:, None] * w).mean(axis=0) @ alpha
    return AdjustmentFit(
        alpha=alpha, beta1=beta1, beta0=beta0, theta_adj=theta_adj,
        gram=gram, cond=float(np.linalg.cond(gram)), w=w, iterations=iteration,
    )


def one_step_cate_adjust(frame, partition, w=None, w_names=None):
    """Closed-form adjustment for the treatment-effect BLP: the projection
    uses the influence H*y*x'(X'X/n)^{-1}, which does not depend on theta,
    so no second pass over the scores is needed. A different finite-sample
    estimator from two_step_adjust, with the same limit."""
    from .gmm import score_cate_blp

    x = frame.covariates.x
    if x.shape[1] == 0:
        raise ConfigError("one-step BLP adjustment needs heterogeneity regressors x")
    fit = solve_gmm(frame, score_cate_blp())
    hy = horvitz_thompson_weights(frame) * frame.y
    u = (hy[:, None] * x) @ np.linalg.inv(x.T @ x / frame.n)
    return fit, _adjust_with_influence(fit, frame, partition, w, w_names, u)


def double_robustness_decomposition(frame, partition, fit, adj, gamma0, sate=None):
    """Split the adjusted estimator's error into a product-of-errors term
    (coefficient error times residual imbalance) and, when the finite
    population target is known (simulations), the leftover residual term."""
    w = adj.w
    if w.shape[1] == 0:
        raise ConfigError("decomposition requires adjustment covariates (w = h)")
    hw = horvitz_thompson_weights(frame)
    imbalance = (hw[:, None] * w).mean(axis=0)  # = mean_1(w) - mean_0(w)
    gamma0 = np.asarray(gamma0, dtype=np.float64).reshape(adj.alpha.shape)
    rootn = np.sqrt(frame.n)
    product_term = rootn * (gamma0 - adj.alpha).T @ imbalance
    out = {
        "product_term": product_term,
        "imbalance": imbalance,
        "coefficient_gap": gamma0 - adj.alpha,
    }
    if sate is not None:
        total = rootn * (adj.theta_adj - np.atleast_1d(sate))
        out["residual_term"] = total - product_term
        out["total"] = total
    return out
