"""Imbalance statistics, acceptance regions, and the accept/reject loop.

Every region is a penalty compared with a threshold: a draw is accepted when
its penalty is at most the threshold. Binding a region to data gives a
``Bound(penalty, threshold, stats)``:

* ``stats`` is the n x m matrix the balance statistic
  T = sqrt(n) * (mean_1(stats) - mean_0(stats)) is built from (``h`` itself,
  or the pooled-fit scores of a feasible moment-fit region), and ``penalty``
  maps a (B, m) batch of T to B penalties. Such regions are scored on whole
  batches of candidate draws at once, which keeps long rejection loops cheap.
* ``stats`` is None for a region that refits a model on every candidate
  (propensity, exact within-arm moment fits); ``penalty`` then maps one
  assignment vector to a float.

A region implements at least ``fixed(dim)`` or ``bind(h, partition, p)``.
``fixed(dim)`` returns the bound of a region that is a fixed function of a
dim-vector T and needs no covariance (full space, polar/ball/box); the base
class then supplies ``bind`` (the same bound with ``stats = h``) and
``population(var_zh)`` (the bound on the limiting Gaussian statistic).
Regions that need the data override ``bind``, and ``population`` when they
have a limiting analog. ``with_threshold`` and ``to_dict`` enable Monte
Carlo calibration and JSON specs; the base class raises ``ConfigError`` for
each method a region lacks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import expit, gammaincinv

from .core import (
    ConfigError,
    EstimationError,
    ExperimentFrame,
    SingularityError,
    as_generator,
    check_keys,
    psd_root,
)
from .gmm import fd_jacobian, newton_root
from .randomize import (
    AssignmentDraw,
    assignment_matrix_from_treated,
    treated_slots,
)


@dataclass(frozen=True)
class ImbalanceStat:
    kind: str
    value: np.ndarray | float
    raw: np.ndarray | None = None
    extra: dict | None = None


def within_tuple_demean(v, partition):
    """Subtract each unit's group mean; group sums of the output vanish."""
    v = np.asarray(v, dtype=np.float64)
    squeeze = v.ndim == 1
    if squeeze:
        v = v[:, None]
    out = np.empty_like(v)
    groups = partition.groups
    vg = v[groups]
    out[groups.ravel()] = (vg - vg.mean(axis=1, keepdims=True)).reshape(-1, v.shape[1])
    return out[:, 0] if squeeze else out


def _finite_sample_sigma(x, partition, p):
    """Var(D)^{-1} * (k/(k-1)) * E_n[xcheck xcheck'] on demeaned columns."""
    xc = within_tuple_demean(x, partition)
    k = partition.k
    return (xc.T @ xc) / x.shape[0] * (k / (k - 1.0)) / (p * (1.0 - p))


def _balance_cholesky(sigma):
    # chol[j, j]**2 / sigma[j, j] is 1 - R^2 of column j on the columns
    # before it: a duplicated column can factor with a rounding-size pivot
    try:
        chol = np.linalg.cholesky(sigma)
        if (np.diag(chol) ** 2 > 1e-10 * np.diag(sigma)).all():
            return chol
    except np.linalg.LinAlgError:
        pass
    raise SingularityError(
        "balance covariance matrix is singular; remove duplicated or "
        "collinear balance columns"
    )


def mahalanobis_stat(frame, partition, x=None):
    """Quadratic balance statistic n * diff' Sigma_n^{-1} diff for the arm
    mean difference of the balance covariates; approximately chi-square with
    dim(x) degrees of freedom under pure within-group randomization."""
    if x is None:
        x = frame.covariates.h
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[1] == 0:
        raise ConfigError("no balance covariates (d_h = 0)")
    chol = _balance_cholesky(_finite_sample_sigma(x, partition, frame.p))
    diff = x[frame.d == 1].mean(axis=0) - x[frame.d == 0].mean(axis=0)
    z = np.linalg.solve(chol, diff)
    m = float(frame.n * (z @ z))
    return ImbalanceStat(kind="mahalanobis", value=m, raw=np.sqrt(frame.n) * diff)


def chi2_threshold(r, alpha):
    """Threshold eps^2 such that a chi-square(r) variable lands below it
    with probability alpha; the expected number of draws is about 1/alpha."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    if alpha > 1.0 - 1e-6:
        raise ConfigError("alpha too close to 1; threshold would be unbounded")
    return _chi2_quantile(alpha, r)


def _chi2_quantile(q, df):
    # the chi-square quantile exactly as SciPy's chi2.ppf computes it, from scipy.special
    return float(2.0 * gammaincinv(df / 2.0, q))


def _conjugate_exponent(p):
    if p == 1:
        return np.inf
    if np.isinf(p):
        return 1.0
    if p < 1:
        raise ConfigError(f"exponent p must lie in [1, inf], got {p}")
    return p / (p - 1.0)


def _rowwise_norm(z, q):
    if np.isinf(q):
        return np.abs(z).max(axis=1)
    if q == 1:
        return np.abs(z).sum(axis=1)
    return (np.abs(z) ** q).sum(axis=1) ** (1.0 / q)


def polar_penalty(x, gamma_bar, U, p=2.0):
    """Worst-case projected imbalance sup over the coefficient set
    gamma_bar + U * (unit p-ball): equals |x'gamma_bar| + |U'x|_q with q the
    conjugate exponent."""
    return float(PolarRegion(gamma_bar=gamma_bar, U=U, p_exponent=p).penalty(x)[0])


# ---------------------------------------------------------------------------
# acceptance regions


@dataclass(frozen=True)
class Bound:
    """A region bound to data: accept when penalty <= threshold. With
    ``stats`` (n x m), ``penalty`` scores a (B, m) batch of statistics
    T = sqrt(n)(mean_1(stats) - mean_0(stats)); with ``stats`` None it
    rescores one assignment vector. Bounds from ``fixed`` and
    ``population`` score statistics and carry no ``stats``."""

    penalty: Callable
    threshold: float
    stats: np.ndarray | None = None


class AcceptanceRegion:
    """Base class: a symmetric accept/reject rule on the imbalance statistic."""

    shape = "abstract"

    def fixed(self, dim):
        """Bound on a dim-vector statistic, for regions needing no covariance."""
        raise ConfigError(
            f"region {self.shape!r} is not a fixed function of the balance "
            "statistic and has no population analog"
        )

    def bind(self, h, partition, p):
        return replace(self.fixed(h.shape[1]), stats=h)

    def population(self, var_zh):
        """Bound on the limiting statistic with covariance var_zh."""
        return self.fixed(var_zh.shape[0])

    def with_threshold(self, threshold):
        raise ConfigError(f"region {self.shape!r} has no threshold to calibrate")

    def to_dict(self):
        raise ConfigError(f"region {self.shape!r} is not JSON-serializable")


@dataclass(frozen=True)
class FullSpaceRegion(AcceptanceRegion):
    """Accept every draw (pure within-group randomization)."""

    shape = "none"

    def fixed(self, dim):
        return Bound(lambda T: np.zeros(T.shape[0]), np.inf)

    def to_dict(self):
        return {"shape": "none"}


@dataclass(frozen=True)
class MahalanobisRegion(AcceptanceRegion):
    """Ellipsoidal rule: accept when the quadratic statistic is at most
    eps2; calibrated from a chi-square quantile when alpha is given."""

    alpha: float | None = None
    eps2: float | None = None

    shape = "ellipsoid-mahalanobis"

    def __post_init__(self):
        if self.alpha is None and self.eps2 is None:
            raise ConfigError("supply alpha or eps2 for the quadratic region")

    def _threshold(self, r):
        if self.eps2 is not None:
            if self.eps2 <= 0:
                raise ConfigError("eps2 must be positive")
            return float(self.eps2)
        return chi2_threshold(r, self.alpha)

    def _bound(self, sigma, stats=None):
        chol = _balance_cholesky(sigma)

        def penalty(T):
            z = np.linalg.solve(chol, T.T)
            return np.einsum("ib,ib->b", z, z)

        return Bound(penalty, self._threshold(sigma.shape[0]), stats)

    def fixed(self, dim):
        raise ConfigError(
            "the quadratic region needs the balance covariance; a moment-fit "
            "region takes it as a base only with feasible=True"
        )

    def bind(self, h, partition, p):
        if h.shape[1] == 0:
            raise ConfigError("quadratic region needs balance covariates (d_h = 0)")
        return self._bound(_finite_sample_sigma(h, partition, p), h)

    def population(self, var_zh):
        return self._bound(var_zh)

    def with_threshold(self, threshold):
        return MahalanobisRegion(alpha=None, eps2=threshold)

    def to_dict(self):
        d = {"shape": self.shape}
        if self.alpha is not None:
            d["alpha"] = self.alpha
        if self.eps2 is not None:
            d["eps2"] = self.eps2
        return d


@dataclass(frozen=True)
class PolarRegion(AcceptanceRegion):
    """Minimax rule: accept when the worst-case projected imbalance over the
    coefficient belief set gamma_bar + U * (unit p-ball) is at most eps."""

    gamma_bar: np.ndarray
    U: np.ndarray
    p_exponent: float = 2.0
    eps: float = 1.0
    shape: str = "polar"

    def __post_init__(self):
        g = np.asarray(self.gamma_bar, dtype=np.float64).ravel()
        U = np.asarray(self.U, dtype=np.float64)
        if U.shape != (g.size, g.size):
            raise ConfigError(f"U must be {g.size}x{g.size}, got {U.shape}")
        sv = np.linalg.svd(U, compute_uv=False)
        if sv[-1] <= 1e-12 * max(sv[0], 1.0):
            raise SingularityError("U matrix is singular")
        _conjugate_exponent(self.p_exponent)
        if self.eps <= 0:
            raise ConfigError("eps must be positive")
        object.__setattr__(self, "gamma_bar", g)
        object.__setattr__(self, "U", U)

    @classmethod
    def ball(cls, dim, eps):
        """Pure Euclidean ball |T|_2 <= eps."""
        return cls(gamma_bar=np.zeros(dim), U=np.eye(dim), p_exponent=2.0, eps=eps, shape="ball")

    @classmethod
    def rectangle(cls, a, b, eps):
        """Box beliefs prod_j [a_j, b_j]; penalty
        |x'(a+b)/2| + (1/2) sum_j |x_j| (b_j - a_j)."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if np.any(b <= a):
            raise ConfigError("rectangle needs b > a coordinatewise")
        return cls(
            gamma_bar=(a + b) / 2.0,
            U=np.diag((b - a) / 2.0),
            p_exponent=np.inf,
            eps=eps,
            shape="rectangle-polar",
        )

    def penalty(self, x):
        q = _conjugate_exponent(self.p_exponent)
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.abs(x @ self.gamma_bar) + _rowwise_norm(x @ self.U, q)

    def fixed(self, dim):
        if dim != self.gamma_bar.size:
            raise ConfigError(
                f"region built for {self.gamma_bar.size} balance covariates, got {dim}"
            )
        return Bound(self.penalty, self.eps)

    def with_threshold(self, threshold):
        return replace(self, eps=threshold)

    def to_dict(self):
        return {
            "shape": self.shape,
            "gamma_bar": self.gamma_bar.tolist(),
            "U": self.U.tolist(),
            "p": None if np.isinf(self.p_exponent) else self.p_exponent,
            "eps": self.eps,
        }


def pilot_wald_region(gamma_pilot, sigma_pilot, m, alpha, eps):
    """Polar region for a Wald-ellipse belief set estimated from a pilot of
    size m: penalty |x'gamma_pilot| + sqrt(c_alpha/m) |sigma^{1/2} x|_2.
    The region expands as the pilot grows."""
    gamma_pilot = np.asarray(gamma_pilot, dtype=np.float64).ravel()
    if m < 1:
        raise ConfigError("pilot size m must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"pilot-wald alpha must lie in (0, 1), got {alpha}")
    root = psd_root(sigma_pilot, label="pilot covariance")
    c_alpha = _chi2_quantile(1.0 - alpha, gamma_pilot.size)
    if not np.isfinite(c_alpha):
        raise ConfigError(f"pilot-wald alpha {alpha} too close to 0; "
                          "the Wald radius would be unbounded")
    U = np.sqrt(c_alpha / m) * root
    return PolarRegion(gamma_bar=gamma_pilot, U=U, p_exponent=2.0, eps=eps, shape="pilot-wald")


@dataclass(frozen=True)
class PropensityRegion(AcceptanceRegion):
    """Accept when the fitted propensity model is nearly flat:
    n * E_n[(p - L(x'beta))^2] <= eps2. Refit on every candidate draw."""

    eps2: float
    link: str = "logit"
    add_intercept: bool = True

    shape = "propensity-threshold"

    def bind(self, h, partition, p):
        if h.shape[1] == 0:
            raise ConfigError("propensity region needs balance covariates (d_h = 0)")
        X = np.column_stack([np.ones(h.shape[0]), h]) if self.add_intercept else h

        def penalty(d):
            # separation means covariates perfectly predict the draw: treat
            # as maximal imbalance rather than aborting the loop
            try:
                return propensity_stat(d, X, p=p, link=self.link).value
            except EstimationError:
                return np.inf

        return Bound(penalty, float(self.eps2))

    def with_threshold(self, threshold):
        return replace(self, eps2=threshold)

    def to_dict(self):
        return {"shape": self.shape, "eps2": self.eps2, "link": self.link}


@dataclass(frozen=True)
class GmmRegion(AcceptanceRegion):
    """Accept when the scaled gap between within-arm moment-model fits,
    sqrt(n)(beta_1 - beta_0), falls in a base region. ``feasible=True``
    swaps in the asymptotically equivalent linear criterion: balance the
    pooled-fit score values and pass the statistic through the inverse
    pooled Jacobian before applying the base region."""

    score: Callable  # (x, beta) -> (rows, d_m)
    base: AcceptanceRegion
    jac: Callable | None = None  # (x, beta) -> (d_m, d_m)
    beta_init: np.ndarray | None = None
    feasible: bool = False

    shape = "gmm-region"

    def bind(self, h, partition, p):
        if h.shape[1] == 0:
            raise ConfigError("moment-fit region needs covariates (d_h = 0)")
        pooled, G = _pooled_moment_fit(h, self.score, self.jac, self.beta_init)
        if self.feasible:
            base = self.base.bind(np.atleast_2d(self.score(h, pooled)), partition, p)
            return replace(base, penalty=lambda T: base.penalty(np.linalg.solve(G, T.T).T))
        base = self.base.fixed(pooled.size)

        def penalty(d):
            try:
                gap, _, _ = _arm_gap(h, d, self.score, self.jac, pooled)
            except EstimationError:
                return np.inf
            return float(base.penalty(gap[None])[0])

        return Bound(penalty, base.threshold)

    def with_threshold(self, threshold):
        return replace(self, base=self.base.with_threshold(threshold))


# ---------------------------------------------------------------------------
# refitted-model statistics


def propensity_stat(frame_or_d, x, p=None, link="logit", tol=1e-10, max_iter=100):
    """Mean squared gap between the target assignment share and a fitted
    propensity model: n * E_n[(p - L(x'beta))^2].

    The model is fit by Newton iteration with step halving on the
    standardized design; coefficients are mapped back to the original scale.
    Raises EstimationError (with iteration trace) on separation or
    non-convergence.
    """
    if link != "logit":
        raise ConfigError(f"unsupported link {link!r}")
    if isinstance(frame_or_d, ExperimentFrame):
        d, p = frame_or_d.d.astype(np.float64), frame_or_d.p
    else:
        d = np.asarray(frame_or_d, dtype=np.float64)
        if p is None:
            raise ConfigError("p is required when passing a raw assignment")
    X = np.asarray(x, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    n = X.shape[0]

    # standardize for conditioning; constant columns pass through untouched
    sd = X.std(axis=0)
    is_const = sd == 0.0
    has_const = bool(is_const.any())
    mu = np.where(is_const, 0.0, X.mean(axis=0)) if has_const else np.zeros(X.shape[1])
    scale = np.where(is_const, 1.0, sd)
    Xs = (X - mu) / scale

    beta = np.zeros(X.shape[1])
    eta = Xs @ beta

    def nll(eta_):
        return float(np.mean(np.logaddexp(0.0, np.where(d == 1, -eta_, eta_))))

    trace = []
    converged = False
    for it in range(1, max_iter + 1):
        prob = expit(eta)
        grad = Xs.T @ (d - prob) / n
        gnorm = float(np.abs(grad).max())
        trace.append({"iter": it, "nll": nll(eta), "grad_norm": gnorm,
                      "max_abs_eta": float(np.abs(eta).max())})
        if np.abs(eta).max() > 15.0:
            raise EstimationError(
                "propensity fit diverging (fitted log-odds beyond +-15): "
                "likely separation", trace)
        if gnorm <= tol:
            converged = True
            break
        wgt = prob * (1.0 - prob)
        hess = (Xs * wgt[:, None]).T @ Xs / n
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise EstimationError("singular Hessian in propensity fit", trace)
        f0 = nll(eta)
        s = 1.0
        for _ in range(40):
            cand = beta + s * step
            eta_c = Xs @ cand
            if nll(eta_c) < f0 + 1e-12:
                break
            s *= 0.5
        else:
            raise EstimationError("propensity fit stalled (no descent step)", trace)
        beta, eta = cand, eta_c
    if not converged:
        raise EstimationError(
            f"propensity fit did not converge in {max_iter} iterations "
            "(possible separation)", trace)

    prob = expit(eta)
    m_stat = float(n * np.mean((p - prob) ** 2))
    beta_orig = beta / scale
    offset = -float(np.sum(beta * mu / scale))
    if has_const and offset != 0.0:
        j = int(np.argmax(is_const))
        beta_orig[j] += offset / X[0, j]
    return ImbalanceStat(
        kind="propensity", value=m_stat, raw=None,
        extra={"beta": beta_orig, "iterations": it, "trace": trace},
    )


def _moment_root(x, score, jac, beta_init, label):
    """Root of the sample moment of score on the rows of x, and the moment
    function itself."""

    def fun(beta):
        return np.atleast_2d(score(x, beta)).mean(axis=0)

    jfun = (lambda b: jac(x, b)) if jac is not None else None
    beta, _, _ = newton_root(fun, jfun, beta_init, label=f"moment-fit[{label}]")
    return beta, fun


def _pooled_moment_fit(x, score, jac, beta_init, dim_beta=None):
    if beta_init is None:
        beta_init = np.zeros(x.shape[1] if dim_beta is None else dim_beta)
    beta_init = np.atleast_1d(np.asarray(beta_init, dtype=np.float64))
    probe = np.atleast_2d(score(x, beta_init))
    if probe.shape[1] != beta_init.size:
        raise ConfigError(
            f"moment model has {probe.shape[1]} moments but {beta_init.size} "
            "parameters; pass dim_beta or beta_init for non-square models"
        )
    beta, fun = _moment_root(x, score, jac, beta_init, "pooled")
    G = jac(x, beta) if jac is not None else fd_jacobian(fun, beta)
    return beta, np.atleast_2d(np.asarray(G, dtype=np.float64))


def _arm_gap(x, d, score, jac, start):
    """Within-arm moment fits started at `start` (the pooled root) and their
    scaled gap sqrt(n)(beta_1 - beta_0)."""
    beta1, _ = _moment_root(x[d == 1], score, jac, start, "treated")
    beta0, _ = _moment_root(x[d == 0], score, jac, start, "control")
    return np.sqrt(x.shape[0]) * (beta1 - beta0), beta1, beta0


def gmm_imbalance(frame, score, jac=None, x=None, beta_init=None, dim_beta=None):
    """Scaled gap sqrt(n)(beta_1 - beta_0) between within-arm fits of an
    exactly identified moment model m(x, beta). The pooled-fit score values
    (a feasible linear surrogate for the same criterion) and the pooled
    Jacobian ride along in ``extra``."""
    x = np.asarray(frame.covariates.h if x is None else x, dtype=np.float64)
    pooled, G = _pooled_moment_fit(x, score, jac, beta_init, dim_beta)
    value, beta1, beta0 = _arm_gap(x, frame.d, score, jac, pooled)
    surrogate = np.atleast_2d(score(x, pooled))
    return ImbalanceStat(
        kind="gmm", value=value, raw=value,
        extra={"beta1": beta1, "beta0": beta0, "beta_pooled": pooled,
               "jacobian": G, "surrogate": surrogate},
    )


# ---------------------------------------------------------------------------
# the accept/reject loop


def calibrate_threshold(region, partition, h, alpha, rng, draws=2000):
    """Monte Carlo calibration: simulate pure stratified draws, set the
    region's threshold to the empirical alpha-quantile of its penalty."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    if draws < 1:
        raise ConfigError("draws must be >= 1")
    gen = as_generator(rng)
    pens = _batch_penalties(region.with_threshold(np.inf), partition, h, gen, draws)
    return region.with_threshold(float(np.quantile(pens, alpha)))


def _bind(region, partition, h):
    """Bind a region to balance covariates h (n x d_h, or an n-vector)."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim == 1:
        h = h[:, None]
    if h.shape[0] != partition.n:
        raise ConfigError("balance covariates and partition disagree on n")
    return region.bind(h, partition, partition.p)


def _batch_penalties(region, partition, h, gen, draws):
    """Penalties of `draws` fresh stratified draws."""
    bound = _bind(region, partition, h)
    score = _scorer(bound, partition)
    return np.concatenate([score(slots) for chunks in _slot_batches(bound, partition, gen, draws)
                           for slots in chunks])


# bytes of work arrays the kernel may hold for one chunk of a batch
_CHUNK_BYTES = 8 << 20


def _slot_batches(bound, partition, gen, draws):
    """Draw `draws` fresh stratified draws in batches of 32 (assignment-based
    regions) or 512 (stat-based regions); yields each batch's treated_slots
    iterator over chunks of its draws. Each iterator must be exhausted before
    the next batch is drawn.

    The batch is the unit of the generator stream: every batch is one
    treated_units_batch call, whatever its chunks. The chunks bound the work
    inside a batch to _CHUNK_BYTES, or one draw if that is more. Per group
    and draw the scoring kernel holds int64 slot indices (8 bytes for l = 1,
    8 l for the put_along_axis index at l >= 2), a bool mask (k) and the
    float64 mask - p (8 (k - 1)), at most 9 k + 8 (l - 1) bytes. So memory
    does not grow as 512 n: for l = 1 nothing spans the batch, and for
    l >= 2 only the batch's one-byte-per-unit slot permutation does.
    """
    G, k = partition.groups.shape
    l = partition.l
    batch = 32 if bound.stats is None else 512
    rows = max(1, _CHUNK_BYTES // (G * (9 * k + 8 * (l - 1))))
    for start in range(0, draws, batch):
        yield treated_slots(G, k, l, gen, min(batch, draws - start), rows)


def _scorer(bound, partition):
    """The function mapping a (B, G, l) chunk of treated slots to B penalties.

    An assignment-based region rescores each draw's assignment vector. A
    stat-based region scores the chunk with one GEMM over within-group
    differences, for every (k, l): with S = bound.stats and mask[b, g, s] = 1
    when draw b treats slot s of group g,
    T = sqrt(n)(mean_1 - mean_0) = sum_g sum_{s >= 1} (mask[b, g, s] - p)
        (S[groups[g, s]] - S[groups[g, 0]]) / (sqrt(n) p (1 - p)),
    as each group's mask - p sums to l - k p = 0. For matched pairs this is
    the sign GEMM (j - 1/2) @ ((4 / sqrt(n)) (S_1 - S_0)).
    """
    n = partition.n
    groups = partition.groups
    G, k = groups.shape
    l, p = partition.l, partition.p
    S = bound.stats
    if S is None:
        def score(slots):
            treated = np.take_along_axis(groups[None], slots, axis=2)
            return np.array([bound.penalty(d) for d in assignment_matrix_from_treated(treated, n)],
                            dtype=np.float64)

        return score
    scale = 1.0 / (np.sqrt(n) * p * (1.0 - p))
    diff = scale * (S[groups[:, 1:]] - S[groups[:, :1]]).reshape(-1, S.shape[1])
    later = np.arange(1, k)

    def score(slots):
        B = slots.shape[0]
        if l == 1:
            mask = slots == later
        else:
            # an equality compare would take B * n * l bytes for large groups
            mask = np.zeros((B, G, k), dtype=bool)
            np.put_along_axis(mask, slots, True, axis=2)
            mask = mask[:, :, 1:]
        return np.asarray(bound.penalty((mask - p).reshape(B, -1) @ diff), dtype=np.float64)

    return score


def rerandomize(partition, h, region, rng, max_draws=100_000):
    """Redraw within-group assignments until the balance statistic lands in
    the acceptance region.

    Returns the accepted AssignmentDraw (1-based draw_index). If max_draws
    is exhausted, returns the draw with the smallest penalty, flagged
    accepted=False. The draw's ``penalties`` holds the penalty of every draw
    scored, in draw order: up to the accepted draw, or all max_draws.
    """
    if max_draws < 1:
        raise ConfigError("max_draws must be >= 1")
    gen = as_generator(rng)
    if region is None:
        region = FullSpaceRegion()

    n = partition.n
    bound = _bind(region, partition, h)
    score = _scorer(bound, partition)
    scored = []
    best = (np.inf, 0, None)  # penalty, 1-based draw index, treated units
    done = 0
    accepted = False
    for chunks in _slot_batches(bound, partition, gen, max_draws):
        for slots in chunks:
            if accepted:
                continue  # drawn unscored, so the stream ends where the whole batch does
            pens = score(slots)
            hits = np.flatnonzero(pens <= bound.threshold)
            accepted = hits.size > 0
            b = int(hits[0]) if accepted else int(np.argmin(pens))
            if accepted or pens[b] < best[0]:
                units = np.take_along_axis(partition.groups, slots[b], axis=1)
                best = (float(pens[b]), done + b + 1, units)
            scored.append(pens[:b + 1] if accepted else pens)
            done += pens.size
        if accepted:
            break
    penalty, index, units = best
    d = assignment_matrix_from_treated(units[None], n)[0]
    return AssignmentDraw(d=d, draw_index=index, accepted=accepted, penalty=penalty,
                          penalties=np.concatenate(scored))


# region (de)serialization for the JSON design spec ------------------------


# shape -> (required keys, optional keys) of its JSON spec, besides "shape"
_REGION_KEYS = {
    "none": ((), ()),
    "mahalanobis": ((), ("alpha", "eps2")),
    "ellipsoid-mahalanobis": ((), ("alpha", "eps2")),
    "polar": (("gamma_bar", "U", "eps"), ("p",)),
    "ball": (("dim", "eps"), ()),
    "rectangle-polar": (("a", "b", "eps"), ()),
    "pilot-wald": (("gamma_pilot", "sigma_pilot", "m", "alpha", "eps"), ()),
    "propensity": (("eps2",), ("link",)),
    "propensity-threshold": (("eps2",), ("link",)),
}
_POLAR_SHAPES = ("polar", "ball", "rectangle-polar", "pilot-wald")


def region_from_dict(spec):
    if spec is None:
        return FullSpaceRegion()
    if not isinstance(spec, dict):
        raise ConfigError(f"region must be a JSON object, got {type(spec).__name__}")
    shape = spec.get("shape", "none")
    if shape not in _REGION_KEYS:
        raise ConfigError(f"unknown region shape {shape!r}")
    # any polar-family shape round-trips through the generic
    # (gamma_bar, U, p, eps) parameterization once serialized
    generic = shape in _POLAR_SHAPES and "gamma_bar" in spec
    required, optional = _REGION_KEYS["polar" if generic else shape]
    check_keys(spec, {"shape", *required, *optional}, f"region {shape!r}", required)
    if shape == "none":
        return FullSpaceRegion()
    if shape in ("mahalanobis", "ellipsoid-mahalanobis"):
        return MahalanobisRegion(alpha=spec.get("alpha"), eps2=spec.get("eps2"))
    if generic:
        return PolarRegion(
            gamma_bar=np.asarray(spec["gamma_bar"], dtype=np.float64),
            U=np.asarray(spec["U"], dtype=np.float64),
            p_exponent=np.inf if spec.get("p") is None else float(spec["p"]),
            eps=float(spec["eps"]),
            shape=shape,
        )
    if shape == "ball":
        return PolarRegion.ball(dim=int(spec["dim"]), eps=float(spec["eps"]))
    if shape == "rectangle-polar":
        return PolarRegion.rectangle(spec["a"], spec["b"], eps=float(spec["eps"]))
    if shape == "pilot-wald":
        return pilot_wald_region(
            spec["gamma_pilot"], spec["sigma_pilot"], m=int(spec["m"]),
            alpha=float(spec["alpha"]), eps=float(spec["eps"]),
        )
    return PropensityRegion(eps2=float(spec["eps2"]), link=spec.get("link", "logit"))
