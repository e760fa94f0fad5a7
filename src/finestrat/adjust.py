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

from .core import (
    ConfigError,
    SingularityError,
    as_matrix,
    cov_n,
    horvitz_thompson_weights,
    rank_checked_cholesky,
    within_tuple_demean,
)
from .gmm import score_cate_blp, solve_gmm


@dataclass(frozen=True)
class AdjustmentFit:
    """Arm coefficients, their difference, and the adjusted estimate.
    alpha = beta1 - beta0 holds exactly by construction."""

    alpha: np.ndarray  # (d_w, d_theta)
    beta1: np.ndarray
    beta0: np.ndarray
    theta_adj: np.ndarray
    cond: float  # of the Gram matrix E_n[wcheck wcheck']
    w: np.ndarray  # adjustment covariates actually used


def _gram_cholesky(gram, cond, names):
    chol = rank_checked_cholesky(gram)
    if chol is not None:
        return chol
    # column-pivoted QR of the unit-diagonal Gram names the collinear columns;
    # scipy.linalg loads here, on the error path only, to keep imports fast
    import scipy.linalg as sla

    s = 1.0 / np.sqrt(np.diag(gram))
    r, piv = sla.qr(gram * s[:, None] * s, pivoting=True, mode="r")
    diag = np.abs(np.diag(r))
    bad = [names[piv[j]] for j in np.flatnonzero(diag <= diag.max() * 1e-10)]
    raise SingularityError(
        f"adjustment design matrix is singular (condition number {cond:.3e}); "
        f"near-collinear columns: {bad or 'unidentified'}"
    )


def fit_adjustment(fit, frame, partition, w=None):
    """Arm-specific projection coefficients of the influence contributions
    on demeaned adjustment covariates (``w``, else the frame's w role, whose
    column names errors cite), and the adjusted point estimate
    theta_adj = theta - E_n[H * alpha'w]."""
    u = fit.scores @ fit.Pi.T  # (n, d_theta) influence contributions
    return _adjust(fit, frame, partition, w, u)


def _adjust(fit, frame, partition, w, u):
    """fit_adjustment for given (n, d_theta) influence contributions u."""
    names = frame.covariates.w_names if w is None else ()
    w = as_matrix(frame.covariates.w if w is None else w, "w")
    n, d_w = w.shape
    if d_w == 0:
        d_theta = fit.theta.size
        return AdjustmentFit(
            alpha=np.zeros((0, d_theta)), beta1=np.zeros((0, d_theta)),
            beta0=np.zeros((0, d_theta)), theta_adj=fit.theta.copy(), cond=1.0, w=w,
        )
    names = names or tuple(f"w{j}" for j in range(d_w))
    scale = np.abs(w).max(axis=0)
    wc = within_tuple_demean(w, partition)
    dead = np.abs(wc).max(axis=0) <= 1e-12 * np.maximum(scale, 1.0)
    if dead.any():
        cols = [names[j] for j in np.where(dead)[0]]
        raise SingularityError(
            f"adjustment columns {cols} are constant within every group "
            "(annihilated by demeaning); drop columns matched exactly by the "
            "stratification"
        )
    gram = wc.T @ wc / n
    cond = float(np.linalg.cond(gram))
    chol = _gram_cholesky(gram, cond, names)
    vard = frame.p * (1.0 - frame.p)
    mask1 = frame.d == 1
    beta1, beta0 = (vard * np.linalg.solve(chol.T, np.linalg.solve(chol, cov_n(wc[m], u[m])))
                    for m in (mask1, ~mask1))
    alpha = beta1 - beta0
    hw = horvitz_thompson_weights(frame)
    theta_adj = fit.theta - (hw[:, None] * w).mean(axis=0) @ alpha
    return AdjustmentFit(alpha=alpha, beta1=beta1, beta0=beta0, theta_adj=theta_adj,
                         cond=cond, w=w)


def two_step_adjust(frame, partition, spec, w=None, iterations=1):
    """Solve the unadjusted moment problem, fit the adjustment at the
    solution, and optionally iterate: re-evaluate scores at the adjusted
    estimate until the adjusted estimate is stationary (|change| < 1e-8)."""
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    fit = solve_gmm(frame, spec)
    adj = fit_adjustment(fit, frame, partition, w=w)
    theta_prev = adj.theta_adj
    for _ in range(2, iterations + 1):
        scores = np.atleast_2d(spec.score(frame, theta_prev))
        u = scores @ fit.Pi.T
        adj = _adjust(fit, frame, partition, w, u)
        if np.abs(adj.theta_adj - theta_prev).max() < 1e-8:
            break
        theta_prev = adj.theta_adj
    return fit, adj


def one_step_cate_adjust(frame, partition, w=None):
    """Closed-form adjustment for the treatment-effect BLP: the projection
    uses the influence H*y*x'(X'X/n)^{-1}, which does not depend on theta,
    so no second pass over the scores is needed. A different finite-sample
    estimator from two_step_adjust, with the same limit."""
    x = frame.covariates.x
    if x.shape[1] == 0:
        raise ConfigError("one-step BLP adjustment needs heterogeneity regressors x")
    fit = solve_gmm(frame, score_cate_blp())
    hy = horvitz_thompson_weights(frame) * frame.y
    u = (hy[:, None] * x) @ fit.Pi  # Pi = -G^{-1} = (X'X/n)^{-1}
    return fit, _adjust(fit, frame, partition, w, u)


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
