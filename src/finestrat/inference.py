"""Variance components, conservative finite-population bounds, and
superpopulation variance estimation with confidence intervals.

Within-arm second moments are estimated from cross products inside groups;
when a group has fewer than two units in either arm (matched pairs), paired
groups are merged first ("collapsed strata") so every merged group carries
at least two treated and two control units.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats as _sstats

from .core import ConfigError, EstimationError, cov_n, horvitz_thompson_weights

_NEG_TOL = 1e-6


@dataclass(frozen=True)
class VarianceComponents:
    v1: np.ndarray
    v0: np.ndarray
    v10: np.ndarray
    u1: np.ndarray
    u0: np.ndarray
    psi_a: np.ndarray  # (n, d_theta) per-unit within-arm influence values
    s_hat: np.ndarray  # (n, d_theta) adjusted influence values
    p: float
    n: int
    used_collapsed: bool


def _arm_second_moment(values, d, groups, p, arm):
    """n^{-1} sum_s (1/(a_s - 1)) sum_{i != j in s, both in arm} v_i v_j' / share."""
    v = values[groups]
    ind = (d[groups] == arm).astype(np.float64)
    m = v * ind[..., None]
    counts = ind.sum(axis=1)
    if np.any(counts < 2):
        raise ConfigError(
            "a group has fewer than two units in one arm; collapse strata first"
        )
    S = m.sum(axis=1)
    Q = np.einsum("gki,gkj->gij", m, m)
    outer = np.einsum("gi,gj->gij", S, S)
    contrib = (outer - Q) / (counts - 1.0)[:, None, None]
    share = p if arm == 1 else 1.0 - p
    n = values.shape[0]
    return contrib.sum(axis=0) / (n * share)


def _cross_moment(values, d, groups, p):
    """n^{-1} sum_s (k / (a_s (k - a_s))) sum_{i,j in s} v_i v_j' D_i (1-D_j)."""
    v = values[groups]
    ind1 = (d[groups] == 1).astype(np.float64)
    a = ind1.sum(axis=1)
    k = groups.shape[1]
    if np.any(a < 1) or np.any(a > k - 1):
        raise ConfigError(
            "every group needs at least one treated and one control unit"
        )
    S1 = (v * ind1[..., None]).sum(axis=1)
    S0 = (v * (1.0 - ind1)[..., None]).sum(axis=1)
    wgt = k / (a * (k - a))
    n = values.shape[0]
    return np.einsum("g,gi,gj->ij", wgt, S1, S0) / n


def variance_components(frame, partition, adj, fit, spec=None):
    """Within-arm and cross second-moment estimates of the adjusted
    influence values, computed from within-group cross products.

    Scores are re-evaluated at the adjusted estimate when the estimand spec
    is supplied; otherwise the fit's stored scores are used. Arm-specific
    moments use the merged groups whenever some group has fewer than two
    units in one arm (the cross moment always uses the original groups).
    """
    d = np.asarray(frame.d)
    p = frame.p
    vard = p * (1.0 - p)
    n = frame.n

    scores = np.atleast_2d(spec.score(frame, adj.theta_adj)) if spec is not None else fit.scores
    u = scores @ fit.Pi.T
    w = adj.w
    if w.shape[1]:
        w_term = np.where((d == 1)[:, None], w @ adj.beta1, w @ adj.beta0)
        alpha_w = w @ adj.alpha
    else:
        w_term = np.zeros_like(u)
        alpha_w = np.zeros_like(u)
    psi_a = vard * u - w_term
    s_hat = u - horvitz_thompson_weights(d, p)[:, None] * alpha_w

    groups = partition.groups
    counts1 = d[groups].sum(axis=1)
    counts0 = partition.k - counts1
    need_collapse = bool(min(counts1.min(), counts0.min()) < 2)
    groups_eff = partition.merged_groups() if need_collapse else groups

    v1 = _arm_second_moment(psi_a, d, groups_eff, p, arm=1)
    v0 = _arm_second_moment(psi_a, d, groups_eff, p, arm=0)
    v10 = _cross_moment(psi_a, d, groups, p)
    u1 = np.einsum("i,ij,ik->jk", (d == 1) / p / n, psi_a, psi_a) - v1
    u0 = np.einsum("i,ij,ik->jk", (d == 0) / (1.0 - p) / n, psi_a, psi_a) - v0
    u1 = (u1 + u1.T) / 2.0
    u0 = (u0 + u0.T) / 2.0
    return VarianceComponents(
        v1=v1, v0=v0, v10=v10, u1=u1, u0=u0, psi_a=psi_a, s_hat=s_hat,
        p=p, n=n, used_collapsed=need_collapse,
    )


def _quad_form(mat, c):
    return float(c @ mat @ c)


def finite_pop_bound(components, c):
    """Conservative scalar variance bound for the contrast c:
    Var(D)^{-1} (sqrt(c'u1 c) + sqrt(c'u0 c))^2, clipping tiny negative
    quadratic forms at zero."""
    c = np.asarray(c, dtype=np.float64)
    vard = components.p * (1.0 - components.p)
    q1 = _quad_form(components.u1, c)
    q0 = _quad_form(components.u0, c)
    # u_d + v_d is the (PSD) within-arm raw second moment: the right yardstick
    scale = max(np.trace(components.u1 + components.v1),
                np.trace(components.u0 + components.v0), 1e-300)
    for q in (q1, q0):
        if q < -_NEG_TOL * scale:
            raise EstimationError(
                f"within-arm variance form is materially negative ({q:.3e}); "
                "variance components are numerically inconsistent"
            )
    q1 = max(q1, 0.0)
    q0 = max(q0, 0.0)
    return (np.sqrt(q1) + np.sqrt(q0)) ** 2 / vard


def superpop_variance(components, main_text_scaling=False):
    """Estimate of the full sampling-plus-assignment variance matrix:
    Var_n(s_hat) - Var(D)^{-1} (v1 + v0 - v10 - v10'). The alternative
    scaling flag swaps in Var_n(psi_a) - Var(D) (...) for comparison.
    Symmetrized and eigenvalue-clipped at zero."""
    vard = components.p * (1.0 - components.p)
    correction = components.v1 + components.v0 - components.v10 - components.v10.T
    if main_text_scaling:
        v = cov_n(components.psi_a) - vard * correction
    else:
        v = cov_n(components.s_hat) - correction / vard
    v = (v + v.T) / 2.0
    evals, evecs = np.linalg.eigh(v)
    if evals.min() < 0.0:
        clipped = -evals[evals < 0.0].sum()
        if clipped > 1e-6 * max(np.trace(v), 1e-300):
            warnings.warn(
                f"variance matrix needed eigenvalue clipping of {clipped:.3e}",
                RuntimeWarning,
            )
        v = evecs @ np.diag(np.clip(evals, 0.0, None)) @ evecs.T
        v = (v + v.T) / 2.0
    return v


def normal_quantile(q):
    return float(_sstats.norm.ppf(q))


@dataclass(frozen=True)
class InferenceReport:
    theta_hat: np.ndarray
    theta_adj: np.ndarray
    alpha: float
    contrasts: tuple
    var_fin_bounds: tuple
    var_pop: np.ndarray
    ci_fin: tuple
    ci_pop: tuple
    flags: dict
    components: VarianceComponents | None = None

    def to_json_dict(self):
        def pair(t):
            return {"lo": t[0], "hi": t[1]}

        variance = {
            "fin_bounds": list(self.var_fin_bounds),
            "V_pop": self.var_pop.tolist(),
        }
        if self.components is not None:
            for name in ("v1", "v0", "v10", "u1", "u0"):
                variance[name] = getattr(self.components, name).tolist()
        return {
            "theta_hat": self.theta_hat.tolist(),
            "theta_adj": self.theta_adj.tolist(),
            "alpha": self.alpha,
            "contrasts": [c.tolist() for c in self.contrasts],
            "ci_fin": [pair(t) for t in self.ci_fin],
            "ci_pop": [pair(t) for t in self.ci_pop],
            "variance": variance,
            "flags": self.flags,
        }


def confidence_intervals(fit, adj, components, contrasts=None, alpha=0.05,
                         main_text_scaling=False, flags=None):
    """Finite-population (conservative) and superpopulation (exact)
    intervals centered at the adjusted contrast estimate. When no contrasts
    are given, per-coordinate intervals are reported."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    d_theta = adj.theta_adj.size
    if contrasts is None:
        contrasts = [np.eye(d_theta)[j] for j in range(d_theta)]
    contrasts = [np.asarray(c, dtype=np.float64) for c in contrasts]
    z = normal_quantile(1.0 - alpha / 2.0)
    rootn = np.sqrt(components.n)
    v_pop = superpop_variance(components, main_text_scaling=main_text_scaling)

    fin_bounds, ci_fin, ci_pop = [], [], []
    for c in contrasts:
        center = float(c @ adj.theta_adj)
        vb = finite_pop_bound(components, c)
        fin_bounds.append(vb)
        half_fin = z * np.sqrt(vb) / rootn
        half_pop = z * np.sqrt(max(_quad_form(v_pop, c), 0.0)) / rootn
        ci_fin.append((center - half_fin, center + half_fin))
        ci_pop.append((center - half_pop, center + half_pop))
    return InferenceReport(
        theta_hat=fit.theta, theta_adj=adj.theta_adj, alpha=alpha,
        contrasts=tuple(contrasts), var_fin_bounds=tuple(fin_bounds),
        var_pop=v_pop, ci_fin=tuple(ci_fin), ci_pop=tuple(ci_pop),
        flags=dict(flags or {}), components=components,
    )
