"""Imbalance statistics, acceptance regions, and the accept/reject loop.

Every region is a penalty compared with a threshold: a draw is accepted when
its penalty is at most the threshold. Binding a region to data gives a
``Bound(penalty, limit, stats)``, whose ``accepts`` makes that comparison:

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
have a limiting analog. ``check_dim(dim)``, which ``bind`` runs, refuses a
number of balance covariates the region cannot take. ``with_threshold``
and ``to_dict`` enable Monte Carlo calibration and JSON specs; the base
class raises ``ConfigError`` for each method a region lacks.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .core import (
    ConfigError,
    EstimationError,
    ExperimentFrame,
    SingularityError,
    as_generator,
    as_matrix,
    check_keys,
    psd_root,
    rank_checked_cholesky,
    spec_array,
    spec_number,
    unit_interval,
    within_tuple_demean,
)
from .gmm import EstimandSpec, newton_root, solve_gmm
from .randomize import (
    AssignmentDraw,
    assignment_matrix_from_treated,
    skip_integers,
    treated_slots,
)


@dataclass(frozen=True)
class ImbalanceStat:
    kind: str
    value: np.ndarray | float
    raw: np.ndarray | None = None
    extra: dict | None = None


def _finite_sample_sigma(x, partition, p):
    """Var(D)^{-1} * (k/(k-1)) * E_n[xcheck xcheck'] on demeaned columns."""
    xc = within_tuple_demean(x, partition)
    k = partition.k
    return (xc.T @ xc) / x.shape[0] * (k / (k - 1.0)) / (p * (1.0 - p))


def mahalanobis_stat(frame, partition, x=None):
    """Quadratic balance statistic n * diff' Sigma_n^{-1} diff for the arm
    mean difference of the balance covariates; approximately chi-square with
    dim(x) degrees of freedom under pure within-group randomization."""
    if x is None:
        x = frame.covariates.h
    x = as_matrix(x, "x")
    raw = np.sqrt(frame.n) * (x[frame.d == 1].mean(axis=0) - x[frame.d == 0].mean(axis=0))
    bound = MahalanobisRegion(eps2=1.0).bind(x, partition, frame.p)
    return ImbalanceStat(kind="mahalanobis", value=float(bound.penalty(raw[None])[0]), raw=raw)


def _check_level(alpha):
    unit_interval(alpha, "alpha")
    if alpha > 1.0 - 1e-6:
        raise ConfigError("alpha too close to 1; threshold would be unbounded")


def chi2_threshold(r, alpha):
    """Threshold eps^2 such that a chi-square(r) variable lands below it
    with probability alpha; the expected number of draws is about 1/alpha."""
    _check_level(alpha)
    return _chi2_quantile(alpha, r)


def _chi2_quantile(q, df):
    # the chi-square quantile exactly as SciPy's chi2.ppf computes it. Imported
    # here: scipy.special adds about 0.2 s to a command that loads it, and an
    # accept/reject loop needs this only for a penalty inside _chi2_bracket
    from scipy.special import gammaincinv

    return float(2.0 * gammaincinv(df / 2.0, q))


def _log_gamma_tail(a, x, upper):
    """log P(a, x) or, with ``upper``, log Q(a, x) = log(1 - P(a, x)): the
    regularized incomplete gamma ratios for x > 0. P comes from its
    all-positive power series below x = a + 1, Q from its continued fraction
    (modified Lentz) from there on, and the other ratio is one minus it
    (Numerical Recipes, 3rd ed., section 6.2)."""
    log_front = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * 1e-17:
            n += 1.0
            term *= x / n
            total += term
        log_p = log_front + math.log(total)
        return math.log1p(-math.exp(log_p)) if upper else log_p
    b = x + 1.0 - a
    c, d = math.inf, 1.0 / b
    h = d
    i = 0
    delta = 0.0
    while abs(delta - 1.0) >= 1e-16:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
    log_q = log_front + math.log(h)
    return log_q if upper else math.log1p(-math.exp(log_q))


# the bits of +inf; on positive doubles, bit order is numeric order
_INF_BITS = 0x7FF0000000000000


def _double(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


@lru_cache(maxsize=64)
def _chi2_bracket(r, alpha):
    """(lo, hi) with lo <= chi2_threshold(r, alpha) <= hi, without SciPy.

    x = gammaincinv(r/2, alpha) is bisected on the bit patterns of positive
    doubles down to two neighbours, comparing log P(r/2, x) with log alpha,
    or log Q with log(1 - alpha) for alpha > 1/2, so an upper tail loses
    nothing to cancellation. The doubled ends agree with SciPy's threshold
    to about 1e-14 relative on the tested grids and are widened by 1e-9."""
    a = r / 2.0
    upper = alpha > 0.5
    target = math.log1p(-alpha) if upper else math.log(alpha)

    lo, hi = 0, _INF_BITS  # P(a, x) < alpha at lo's double, not at hi's
    while hi - lo > 1:
        mid = (lo + hi) // 2
        tail = _log_gamma_tail(a, _double(mid), upper)
        if (tail > target) if upper else (tail < target):
            lo = mid
        else:
            hi = mid
    return 2.0 * _double(lo) * (1.0 - 1e-9), 2.0 * _double(hi) * (1.0 + 1e-9)


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


class _Chi2Level:
    """The threshold chi2_threshold(r, alpha) of a quadratic region, held as
    its pure-Python bracket lo <= threshold <= hi; float() reads the exact
    value, which loads SciPy."""

    def __init__(self, r, alpha):
        _check_level(alpha)
        self.r, self.alpha = r, alpha
        self.lo, self.hi = _chi2_bracket(r, alpha)

    def __float__(self):
        return chi2_threshold(self.r, self.alpha)


@dataclass(frozen=True)
class Bound:
    """A region bound to data: accept when penalty <= threshold. With
    ``stats`` (n x m), ``penalty`` scores a (B, m) batch of statistics
    T = sqrt(n)(mean_1(stats) - mean_0(stats)); with ``stats`` None it
    rescores one assignment vector. Bounds from ``fixed`` and
    ``population`` score statistics and carry no ``stats``. ``limit`` is
    the threshold, or the _Chi2Level of a quadratic region given alpha."""

    penalty: Callable
    limit: float | _Chi2Level
    stats: np.ndarray | None = None

    @property
    def threshold(self):
        return float(self.limit)

    def accepts(self, pens):
        """pens <= threshold, elementwise. A chi-square level decides the
        penalties outside its bracket alone, so the exact threshold (and
        SciPy) is read only for a penalty inside it."""
        if not isinstance(self.limit, _Chi2Level):
            return pens <= self.limit
        ok = pens <= self.limit.lo
        band = ~ok & (pens <= self.limit.hi)
        if band.any():
            ok[band] = pens[band] <= self.threshold
        return ok


class AcceptanceRegion:
    """Base class: a symmetric accept/reject rule on the imbalance statistic."""

    shape = "abstract"
    # set by a region that needs balance covariates: its name in the refusal
    needs_h = None

    def check_dim(self, dim):
        """Refuse dim balance covariates where the region cannot take them.
        bind runs it, and so does a design spec's reader, before data is read."""
        if self.needs_h and dim == 0:
            raise ConfigError(f"{self.needs_h} needs balance covariates (d_h = 0)")

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
    needs_h = "quadratic region"

    def __post_init__(self):
        if self.alpha is None and self.eps2 is None:
            raise ConfigError("supply alpha or eps2 for the quadratic region")

    def _limit(self, r):
        if self.eps2 is not None:
            if self.eps2 <= 0:
                raise ConfigError("eps2 must be positive")
            return float(self.eps2)
        return _Chi2Level(r, self.alpha)

    def _bound(self, sigma, stats=None):
        chol = rank_checked_cholesky(sigma)
        if chol is None:
            raise SingularityError(
                "balance covariance matrix is singular; remove duplicated or "
                "collinear balance columns"
            )

        def penalty(T):
            z = np.linalg.solve(chol, T.T)
            return np.einsum("ib,ib->b", z, z)

        return Bound(penalty, self._limit(sigma.shape[0]), stats)

    def fixed(self, dim):
        raise ConfigError(
            "the quadratic region needs the balance covariance; a moment-fit "
            "region takes it as a base only with feasible=True"
        )

    def bind(self, h, partition, p):
        self.check_dim(h.shape[1])
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

    def check_dim(self, dim):
        if dim != self.gamma_bar.size:
            raise ConfigError(
                f"region built for {self.gamma_bar.size} balance covariates, got {dim}"
            )

    def fixed(self, dim):
        self.check_dim(dim)
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
    unit_interval(alpha, "pilot-wald alpha")
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

    shape = "propensity-threshold"
    needs_h = "propensity region"

    def __post_init__(self):
        if self.link != "logit":
            raise ConfigError(f"unsupported link {self.link!r}")

    def bind(self, h, partition, p):
        self.check_dim(h.shape[1])
        X = np.column_stack([np.ones(h.shape[0]), h])

        def penalty(d):
            # separation means covariates perfectly predict the draw: treat
            # as maximal imbalance rather than aborting the loop
            try:
                return propensity_stat(d, X, p=p).value
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
    needs_h = "moment-fit region"

    def bind(self, h, partition, p):
        self.check_dim(h.shape[1])
        pooled = solve_gmm(h, _moment_model(self.score, self.jac, self.beta_init, h))
        if self.feasible:
            base = self.base.bind(pooled.scores, partition, p)
            return replace(base, penalty=lambda T: base.penalty(np.linalg.solve(pooled.G, T.T).T))
        base = self.base.fixed(pooled.theta.size)

        def penalty(d):
            try:
                gap, _, _ = _arm_gap(h, d, self.score, self.jac, pooled.theta)
            except EstimationError:
                return np.inf
            return float(base.penalty(gap[None])[0])

        return Bound(penalty, base.limit)

    def with_threshold(self, threshold):
        return replace(self, base=self.base.with_threshold(threshold))


# ---------------------------------------------------------------------------
# refitted-model statistics


def propensity_stat(frame_or_d, x, p=None):
    """Mean squared gap between the target assignment share and a fitted
    logit propensity model: n * E_n[(p - L(x'beta))^2].

    The logit score Xs'(d - expit(Xs beta))/n is driven to zero by
    gmm.newton_root on the standardized design Xs; coefficients are mapped
    back to the original scale. Raises EstimationError (with the solver's
    (iteration, sup-norm) trace) on separation or non-convergence.
    """
    from scipy.special import expit

    if isinstance(frame_or_d, ExperimentFrame):
        d, p = frame_or_d.d.astype(np.float64), frame_or_d.p
    else:
        d = np.asarray(frame_or_d, dtype=np.float64)
        if p is None:
            raise ConfigError("p is required when passing a raw assignment")
    X = as_matrix(x, "x")
    n = X.shape[0]

    # standardize for conditioning; constant columns pass through untouched
    sd = X.std(axis=0)
    is_const = sd == 0.0
    has_const = bool(is_const.any())
    mu = np.where(is_const, 0.0, X.mean(axis=0)) if has_const else np.zeros(X.shape[1])
    scale = np.where(is_const, 1.0, sd)
    Xs = (X - mu) / scale

    def score(beta):
        return Xs.T @ (d - expit(Xs @ beta)) / n

    def jac(beta):
        prob = expit(Xs @ beta)
        return -((Xs * (prob * (1.0 - prob))[:, None]).T @ Xs) / n

    # the mean score is passed as its one row
    beta, _, iters, trace = newton_root(score, jac, np.zeros(X.shape[1]), max_iter=100,
                                        label="propensity fit")
    eta = Xs @ beta
    if np.abs(eta).max() > 15.0:
        raise EstimationError(
            "propensity fit diverging (fitted log-odds beyond +-15): "
            "likely separation", list(trace))

    prob = expit(eta)
    m_stat = float(n * np.mean((p - prob) ** 2))
    beta_orig = beta / scale
    offset = -float(np.sum(beta * mu / scale))
    if has_const and offset != 0.0:
        j = int(np.argmax(is_const))
        beta_orig[j] += offset / X[0, j]
    return ImbalanceStat(
        kind="propensity", value=m_stat, raw=None,
        extra={"beta": beta_orig, "iterations": iters, "trace": trace},
    )


def _moment_model(score, jac, beta_init, x):
    """The moment model m(x, beta) on the rows of x as an EstimandSpec, whose
    frame is x; beta starts at beta_init, or at zeros of x's width."""
    init = None if beta_init is None else (lambda _: beta_init)
    return EstimandSpec(name="moment-fit", score=score, jacobian=jac, init=init,
                        dim_theta=x.shape[1])


def _arm_gap(x, d, score, jac, start):
    """Within-arm moment fits started at `start` (the pooled root) and their
    scaled gap sqrt(n)(beta_1 - beta_0)."""
    def arm_root(rows, name):
        arm_jac = None if jac is None else partial(jac, rows)
        return newton_root(partial(score, rows), arm_jac, start, label=f"moment-fit[{name}]")[0]

    beta1, beta0 = arm_root(x[d == 1], "treated"), arm_root(x[d == 0], "control")
    return np.sqrt(x.shape[0]) * (beta1 - beta0), beta1, beta0


def gmm_imbalance(frame, score, jac=None, x=None, beta_init=None):
    """Scaled gap sqrt(n)(beta_1 - beta_0) between within-arm fits of an
    exactly identified moment model m(x, beta). The pooled-fit score values
    (a feasible linear surrogate for the same criterion) and the pooled
    Jacobian ride along in ``extra``."""
    x = np.asarray(frame.covariates.h if x is None else x, dtype=np.float64)
    pooled = solve_gmm(x, _moment_model(score, jac, beta_init, x))
    value, beta1, beta0 = _arm_gap(x, frame.d, score, jac, pooled.theta)
    return ImbalanceStat(
        kind="gmm", value=value, raw=value,
        extra={"beta1": beta1, "beta0": beta0, "beta_pooled": pooled.theta,
               "jacobian": pooled.G, "surrogate": pooled.scores},
    )


# ---------------------------------------------------------------------------
# the accept/reject loop


def check_calibration(region, alpha, draws):
    """Refuse what calibrate_threshold refuses before it sees data: alpha
    outside (0, 1), draws below 1, a region with no threshold. Returns the
    region with its threshold lifted."""
    unit_interval(alpha, "alpha")
    if draws < 1:
        raise ConfigError("draws must be >= 1")
    return region.with_threshold(np.inf)


def calibrate_threshold(region, partition, h, alpha, rng, draws=2000):
    """Monte Carlo calibration: simulate pure stratified draws, set the
    region's threshold to the empirical alpha-quantile of its penalty."""
    unbounded = check_calibration(region, alpha, draws)
    pens = _batch_penalties(unbounded, partition, h, as_generator(rng), draws)
    return region.with_threshold(float(np.quantile(pens, alpha)))


def _bind(region, partition, h):
    """Bind a region to balance covariates h (n x d_h, or an n-vector)."""
    h = as_matrix(h, "h")
    if h.shape[0] != partition.n:
        raise ConfigError("balance covariates and partition disagree on n")
    return region.bind(h, partition, partition.p)


def _batch_penalties(region, partition, h, gen, draws):
    """Penalties of `draws` fresh stratified draws."""
    bound = _bind(region, partition, h)
    score = _scorer(bound, partition)
    return np.concatenate([score(slots) for _, chunks in _slot_batches(bound, partition, gen, draws)
                           for slots in chunks])


# bytes of work arrays the kernel may hold for one chunk of a batch
_CHUNK_BYTES = 8 << 20


def _slot_batches(bound, partition, gen, draws):
    """Draw `draws` fresh stratified draws in batches of 32 (assignment-based
    regions) or 512 (stat-based regions); yields each batch's size and its
    treated_slots iterator over chunks of its draws. Before the next batch
    is drawn, each iterator must be exhausted or, for l = 1, its rest jumped
    over as treated_slots says.

    The batch is the unit of the generator stream: every batch is one
    treated_units_batch call, whatever its chunks. The chunks bound the work
    inside a batch to _CHUNK_BYTES, or one draw if that is more. Per group
    and draw the scoring kernel holds slot indices (for l = 1, 4-byte PCG64
    words shifted in place into slots for a power of two k, plus a 4-byte
    copy after a held half word, else int64: at most 8 bytes; 8 l for the
    put_along_axis index at l >= 2),
    a bool mask (k) and the float64 mask - p (8 (k - 1)), at most
    9 k + 8 (l - 1) bytes. So memory does not grow as 512 n: for l = 1
    nothing spans the batch, and for l >= 2 only the batch's
    one-byte-per-unit slot permutation does.
    """
    G, k = partition.groups.shape
    l = partition.l
    batch = 32 if bound.stats is None else 512
    rows = max(1, _CHUNK_BYTES // (G * (9 * k + 8 * (l - 1))))
    for start in range(0, draws, batch):
        size = min(batch, draws - start)
        yield size, treated_slots(G, k, l, gen, size, rows)


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
    if S.shape[1] == 0:
        # nothing to balance (the full-space region): no mask, no GEMM
        return lambda slots: np.asarray(bound.penalty(np.empty((slots.shape[0], 0))),
                                        dtype=np.float64)
    scale = 1.0 / (np.sqrt(n) * p * (1.0 - p))
    diff = scale * (S[groups[:, 1:]] - S[groups[:, :1]]).reshape(G * (k - 1), S.shape[1])
    later = np.arange(1, k)

    def score(slots):
        B = slots.shape[0]
        if l == 1:
            mask = slots == later.astype(slots.dtype)  # no per-element cast
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
    G, k = partition.groups.shape
    scored = []
    best = (np.inf, 0, None)  # penalty, 1-based draw index, treated units
    done = end = 0
    accepted = False
    for size, chunks in _slot_batches(bound, partition, gen, max_draws):
        end += size
        for slots in chunks:
            pens = score(slots)
            hits = np.flatnonzero(bound.accepts(pens))
            accepted = hits.size > 0
            b = int(hits[0]) if accepted else int(np.argmin(pens))
            if accepted or pens[b] < best[0]:
                units = np.take_along_axis(partition.groups, slots[b], axis=1)
                best = (float(pens[b]), done + b + 1, units)
            scored.append(pens[:b + 1] if accepted else pens)
            done += pens.size
            if accepted:
                break
        if accepted:
            # the stream ends where the whole batch does: the unscored rest
            # is jumped over where its word count is fixed, else drawn
            if not (partition.l == 1 and skip_integers(gen, 0, k, (end - done) * G)):
                for _ in chunks:
                    pass
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
    what = f"region {shape!r}"
    check_keys(spec, {"shape", *required, *optional}, what, required)
    num = partial(spec_number, spec, what=what)
    arr = partial(spec_array, spec, what=what)
    if shape == "none":
        return FullSpaceRegion()
    if shape in ("mahalanobis", "ellipsoid-mahalanobis"):
        return MahalanobisRegion(**{key: num(key) for key in ("alpha", "eps2")
                                    if spec.get(key) is not None})
    if generic:
        return PolarRegion(
            gamma_bar=arr("gamma_bar"), U=arr("U"),
            p_exponent=np.inf if spec.get("p") is None else num("p"),
            eps=num("eps"),
            shape=shape,
        )
    if shape == "ball":
        return PolarRegion.ball(dim=num("dim", kind=int), eps=num("eps"))
    if shape == "rectangle-polar":
        return PolarRegion.rectangle(arr("a"), arr("b"), eps=num("eps"))
    if shape == "pilot-wald":
        return pilot_wald_region(
            arr("gamma_pilot"), arr("sigma_pilot"), m=num("m", kind=int),
            alpha=num("alpha"), eps=num("eps"),
        )
    return PropensityRegion(eps2=num("eps2"), link=spec.get("link", "logit"))
