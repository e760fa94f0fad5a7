"""Variance components, conservative finite-population bounds, and
superpopulation variance estimation with confidence intervals.

Within-arm second moments are estimated from cross products inside groups;
when a group has fewer than two units in either arm (matched pairs), paired
groups are merged first ("collapsed strata") so every merged group carries
at least two treated and two control units.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, EstimationError, cov_n, horvitz_thompson_weights, unit_interval

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


def variance_components(frame, partition, adj, fit, spec):
    """Within-arm and cross second-moment estimates of the adjusted
    influence values, computed from within-group cross products.

    The estimand ``spec``'s scores are re-evaluated at the adjusted
    estimate. Arm-specific moments use the merged groups whenever some group
    has fewer than two units in one arm (the cross moment always uses the
    original groups).
    """
    d = np.asarray(frame.d)
    p = frame.p
    vard = p * (1.0 - p)
    n = frame.n

    u = np.atleast_2d(spec.score(frame, adj.theta_adj)) @ fit.Pi.T
    # with no adjustment columns the products below are zeros
    w = adj.w
    w_term = np.where((d == 1)[:, None], w @ adj.beta1, w @ adj.beta0)
    alpha_w = w @ adj.alpha
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


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), as scipy.special ships it: coefficients from the highest
# power down. The Q polynomials' leading 1 is written out; Horner's first
# step 1 * x + c is exact, so that equals Cephes' p1evl
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _polevl(x, coef):
    """Horner's rule, as Cephes' polevl."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def normal_quantile(q):
    """Standard normal quantile, equal to scipy.special.ndtri bit for bit,
    without loading SciPy: -inf at 0, +inf at 1, NaN outside [0, 1]."""
    y = float(q)
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * 2.50662827463100050242e0  # sqrt(2 pi)
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, r = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x0 - z * _polevl(z, p) / _polevl(z, r)
    return x if upper else -x


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
    unit_interval(alpha, "alpha")
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
