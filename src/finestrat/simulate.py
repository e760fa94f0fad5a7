"""Synthetic data generators, the Monte Carlo replication engine, and
plug-in oracles for limiting-distribution parameters.

Four outcome models share a common shape: quadratic (or arctan) functions
of Gaussian covariates plus correlated arm-specific noise. The engine
replays (generate data, assign by design, reveal outcomes, estimate, build
intervals) R times with one independent RNG stream per replicate, so runs
are reproducible bit-for-bit for a fixed master seed regardless of thread
count.
"""

from __future__ import annotations

import csv
import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .adjust import two_step_adjust
from .core import (
    ConfigError,
    CovariateTable,
    EstimationError,
    ExperimentFrame,
    RngSpec,
    as_generator,
    collapsed_strata,
    cov_n,
    psd_root,
)
from .gmm import estimand_by_name, moment_of
from .inference import confidence_intervals, variance_components
from .randomize import draw_complete
from .rerandomize import AcceptanceRegion, FullSpaceRegion, MahalanobisRegion, rerandomize
from .stratify import MatchConfig, design_partition


@dataclass(frozen=True)
class DgpSpec:
    model: int
    dim_r: int
    n: int
    p: float = 0.5
    covariance: str = "identity"
    resid_var: float = 4.0
    resid_corr: float = 0.8
    compliance: float | None = None

    def __post_init__(self):
        if self.model not in (1, 2, 3, 4):
            raise ConfigError(f"unknown outcome model {self.model}")
        if self.covariance not in ("identity", "equicorrelated"):
            raise ConfigError(f"unknown covariance {self.covariance!r}")
        if self.n < 2:
            raise ConfigError(f"n must be at least 2, got {self.n}")
        if self.n % 2 != 0:
            raise ConfigError("n must be even (the built-in designs use pairs)")
        # models 2-4 spread their coefficients over the dim_r - 1 columns after the first
        low = 1 if self.model == 1 else 2
        if self.dim_r < low:
            raise ConfigError(f"model {self.model} needs dim_r >= {low}, got {self.dim_r}")


@dataclass(frozen=True)
class DgpDraw:
    r: np.ndarray
    y1: np.ndarray
    y0: np.ndarray
    e1: np.ndarray | None = None
    e0: np.ndarray | None = None
    d1: np.ndarray | None = None  # potential treatment under instrument = 1
    d0: np.ndarray | None = None

    @property
    def tau(self):
        return self.y1 - self.y0

    def ylevel(self, p):
        """(1 - p) Y(D(1)) + p Y(D(0)): the outcomes a unit shows when
        assigned to either arm, weighted."""
        if self.d1 is None:
            return (1.0 - p) * self.y1 + p * self.y0
        return ((1.0 - p) * np.where(self.d1 == 1, self.y1, self.y0)
                + p * np.where(self.d0 == 1, self.y1, self.y0))

    def covariate_table(self, psi_cols=None, h_cols=None, w_cols=None, x=None):
        n, m = self.r.shape
        sel = lambda cols: self.r[:, list(cols)] if cols else np.zeros((n, 0))
        return CovariateTable(
            psi=sel(psi_cols), h=sel(h_cols), w=sel(w_cols),
            x=x if x is not None else np.zeros((n, 0)), ids=None,
        )


def _model_coefficients(model, m):
    if model == 1:
        b1 = np.full(m, 1.0 / math.sqrt(m))
        b0 = np.zeros(m)
        quad1 = None
    else:
        b1 = np.full(m, 1.0 / math.sqrt(m - 1))
        b0 = b1.copy()
        b1[0] = 4.0
        b0[0] = 0.0
        quad1 = None
        if model == 3:
            quad1 = np.full(m, 1.0 / (2.0 * math.sqrt(m - 1)))
            quad1[0] = 2.0
    return b1, b0, quad1


def _covariance(dgp):
    """The covariates' covariance: the identity, or unit variances with
    correlation 0.5 / (m - 1) between every two of the m columns."""
    m = dgp.dim_r
    if dgp.covariance == "identity":
        return np.eye(m)
    sigma = np.full((m, m), 0.5 / (m - 1))
    np.fill_diagonal(sigma, 1.0)
    return sigma


def population_target(dgp, estimand):
    """The superpopulation target theta0 of ``estimand`` under ``dgp``, in
    closed form: E[c tau] for sate and E[tau | c = 1] for late, and the
    coefficients of c tau (cate) or of tau among compliers (clate) on
    (1, r_0), with c = d1 - d0 the complier indicator (1 without a
    compliance rate).

    With r ~ N(0, Sigma), E[tau] = sum_j quad1_j Sigma_jj, as the linear and
    arctan parts are odd in r. As E[r_0] = 0, the cate slope is
    E[r_0 tau] / Sigma_00 = (Sigma g)_0 / Sigma_00. For models 1-3,
    g = b1 - b0 (odd Gaussian moments vanish). For model 4, Stein's lemma,
    E[r f(r'b)] = Sigma b E[f'(r'b)], gives g = 2 b1 e(s1) - 2 b0 e(s0), where
    s^2 = b'Sigma b and e(s) = E[1 / (1 + s^2 Z^2)] for a standard normal Z.
    Compliance is drawn apart from everything else, so late and clate are
    the targets above with c = 1, and sate and cate those times the
    compliance rate.
    """
    sigma = _covariance(dgp)
    b1, b0, quad1 = _model_coefficients(dgp.model, dgp.dim_r)
    uses_x, needs_d = moment_of(estimand)
    share = 1.0 if dgp.compliance is None or needs_d else dgp.compliance
    mean = 0.0 if quad1 is None else float(quad1 @ np.diag(sigma))
    if not uses_x:
        return share * np.array([mean])
    g = b1 - b0
    if dgp.model == 4:
        def stein(b):  # 2 b E[f'(r'b)] for f = 2 arctan
            s = math.sqrt(b @ sigma @ b)
            return 2.0 * b * (math.sqrt(math.pi / 2.0) / s * math.exp(0.5 / s ** 2)
                              * math.erfc(1.0 / (math.sqrt(2.0) * s)))
        g = stein(b1) - stein(b0)
    return share * np.array([mean, (sigma @ g)[0] / sigma[0, 0]])


def generate_dgp(spec, rng):
    """Draw covariates, correlated arm noises, and both potential outcomes
    (plus potential treatments when a compliance rate is set)."""
    gen = as_generator(rng)
    n, m = spec.n, spec.dim_r
    r = gen.standard_normal((n, m))
    if spec.covariance == "equicorrelated":
        r = r @ np.linalg.cholesky(_covariance(spec)).T
    cov_e = spec.resid_var * np.array([[1.0, spec.resid_corr], [spec.resid_corr, 1.0]])
    e = gen.standard_normal((n, 2)) @ psd_root(cov_e).T
    b1, b0, quad1 = _model_coefficients(spec.model, m)
    if spec.model == 4:
        y1 = 2.0 * np.arctan(r @ b1) + e[:, 0]
        y0 = 2.0 * np.arctan(r @ b0) + e[:, 1]
    else:
        y1 = r @ b1 + e[:, 0]
        y0 = r @ b0 + e[:, 1]
        if quad1 is not None:
            y1 = y1 + (r ** 2) @ quad1
    if spec.compliance is None:
        return DgpDraw(r=r, y1=y1, y0=y0, e1=e[:, 0], e0=e[:, 1])
    compliers = gen.random(n) < spec.compliance
    return DgpDraw(
        r=r, y1=y1, y0=y0, e1=e[:, 0], e0=e[:, 1],
        d1=compliers.astype(np.int8), d0=np.zeros(n, dtype=np.int8),
    )


# ---------------------------------------------------------------------------
# designs


@dataclass(frozen=True)
class DesignSpec:
    """How to assign treatment, as ``assign`` does: match on ``psi_cols`` by
    ``match``, then redraw until ``h_cols`` balance in ``region`` (none
    accepts every draw); with neither psi columns nor a region, complete
    randomization. ``w_cols`` are adjusted on ex post."""

    name: str
    match: MatchConfig = MatchConfig(k=2, l=1)
    psi_cols: tuple = ()
    h_cols: tuple = ()
    w_cols: tuple = ()
    region: AcceptanceRegion | None = None
    max_draws: int = 200_000

    def __post_init__(self):
        if self.region is not None and not self.h_cols:
            raise ConfigError(f"design {self.name!r} rerandomizes but has no h columns")
        try:
            if self.psi_cols:
                self.match.check_dim(len(self.psi_cols))
            if self.region is not None:
                self.region.check_dim(len(self.h_cols))
        except ConfigError as exc:
            raise ConfigError(f"design {self.name!r}: {exc}") from None

    @property
    def complete(self):
        return not self.psi_cols and self.region is None


def benchmark_designs(model, dim_r, accept_alpha=1.0 / 500.0, names=("C", "S", "SR")):
    """The benchmark designs named in ``names``, in that order: complete
    randomization "C", full matched pairs "S" (extra weight sqrt(2) on the
    lead covariate for the asymmetric models), and "SR", pairs on the lead
    covariate with a quadratic balance rule on the rest. Only the named
    designs are built, so one that does not fit dim_r blocks no other."""
    all_cols = tuple(range(dim_r))
    rest = tuple(range(1, dim_r))
    weights = None
    if model >= 2:
        weights = (math.sqrt(2.0),) + (1.0,) * (dim_r - 1)
    build = {
        "C": lambda: DesignSpec(name="C", w_cols=all_cols),
        "S": lambda: DesignSpec(name="S", match=MatchConfig(2, 1, psi_weights=weights),
                                psi_cols=all_cols, w_cols=all_cols),
        "SR": lambda: DesignSpec(name="SR", match=MatchConfig(2, 1, method="sorted-1d"),
                                 psi_cols=(0,), h_cols=rest, w_cols=rest,
                                 region=MahalanobisRegion(alpha=accept_alpha)),
    }
    if not (isinstance(names, (list, tuple)) and names and all(isinstance(w, str) for w in names)):
        raise ConfigError(f"designs must be a list of design names, got {names!r}")
    unknown = [name for name in names if name not in build]
    if unknown:
        raise ConfigError(f"unknown designs {unknown}; available: {sorted(build)}")
    return [build[name]() for name in names]


def assign_design(design, r, p, rng):
    """The partition and the assignment: one group drawn completely, or as ``assign`` draws."""
    gen = as_generator(rng)
    if design.complete:
        draw = draw_complete(r.shape[0], p, gen)
        cfg = MatchConfig(k=r.shape[0], l=int(draw.d.sum()))
        return design_partition(r[:, :0], cfg, gen), draw
    partition = design_partition(r[:, list(design.psi_cols)], design.match, gen)
    draw = rerandomize(partition, r[:, list(design.h_cols)], design.region, gen,
                       max_draws=design.max_draws)
    return partition, draw


# ---------------------------------------------------------------------------
# finite population targets and plug-in oracles


def check_estimand(estimand, dgp):
    """Refuse an unknown estimand, or one that needs a compliance rate the
    DGP does not set, before anything is drawn."""
    if moment_of(estimand).needs_d and dgp.compliance is None:
        raise ConfigError(f"estimand {estimand!r} needs a DGP with noncompliance "
                          "(DgpSpec.compliance is not set)")


def check_designs(designs, dgp):
    """Refuse, before anything is drawn, a design that does not fit the DGP:
    complete randomization needs a whole n*p in (0, n); any other design
    p = l/k, n divisible by k and, where matched strata collapse, even n/k."""
    n, p = dgp.n, dgp.p
    for design in designs:
        k, l = design.match.k, design.match.l
        if design.complete:
            if abs(n * p - round(n * p)) > 1e-9 or not 0 < round(n * p) < n:
                raise ConfigError(f"p = {p!r} does not fit design {design.name!r}: "
                                  f"n*p = {n * p!r} units is not a whole number in (0, n)")
        elif p != l / k:
            raise ConfigError(f"p = {p!r} does not fit design {design.name!r}, "
                              f"which treats {l} of every {k} units")
        elif n % k:
            raise ConfigError(f"design {design.name!r}: n={n} not divisible by k={k}")
        elif design.psi_cols:
            try:
                collapsed_strata(n, k, l)
            except ConfigError as exc:
                raise ConfigError(f"design {design.name!r}: {exc}") from None


def _moment_columns(draw, estimand, x):
    """The regressors x (a column of ones for an estimand without any), the
    complier indicator c = d1 - d0 (ones without a compliance rate), the
    moment's weight on x'theta (c for an estimand that needs the realized
    treatment, else ones) and whether it needs one."""
    uses_x, needs_d = moment_of(estimand)
    n = draw.r.shape[0]
    comp = np.ones(n) if draw.d1 is None else draw.d1 - draw.d0
    return x if uses_x else np.ones((n, 1)), comp, comp if needs_d else np.ones(n), needs_d


def finite_pop_estimand(draw, estimand, x=None):
    """Root of the assignment-averaged sample moment, computed from both
    potential outcomes (simulation-only knowledge). Averaged over
    assignments, H Y is Y(D(1)) - Y(D(0)) = c tau, with c the complier
    indicator, so the root is solve(E_n[w x x'], E_n[c x tau]), w the
    moment's weight: the intention-to-treat effect for sate/cate (w = 1),
    the complier effect for late/clate (w = c)."""
    x, comp, weight, _ = _moment_columns(draw, estimand, x)
    xw = x * weight[:, None]
    return np.linalg.solve(xw.T @ x / x.shape[0], (x * (comp * draw.tau)[:, None]).mean(axis=0))


def _oracle_influence(draw, estimand, p, x=None):
    """Per-unit sampling and assignment influence values (after applying
    the linearization matrix), plus the population-target parameter."""
    theta0 = finite_pop_estimand(draw, estimand, x=x)
    x, comp, weight, needs_d = _moment_columns(draw, estimand, x)
    inv = np.linalg.inv((x * weight[:, None]).T @ x / x.shape[0])
    fit = x @ theta0
    pi_phi = ((comp * draw.tau - weight * fit)[:, None] * x) @ inv.T
    level = draw.ylevel(p)
    if needs_d:  # less the treatment's part
        level = level - ((1.0 - p) * draw.d1 + p * draw.d0) * fit
    pi_a = (level[:, None] * x) @ inv.T
    return pi_phi, pi_a, theta0


def _locality_order(psi):
    """Order points so neighbors are close in psi space: plain sort for one
    dimension, bit-interleaved rank codes otherwise."""
    n, d = psi.shape
    if d == 1:
        return np.argsort(psi[:, 0], kind="stable")
    bits = min(16, 64 // d)
    top = np.uint64((1 << bits) - 1)
    ranks = np.empty((n, d), dtype=np.uint64)
    for j in range(d):
        order = np.argsort(psi[:, j], kind="stable")
        rk = np.empty(n, dtype=np.uint64)
        rk[order] = np.arange(n, dtype=np.uint64)
        ranks[:, j] = rk * top // max(n - 1, 1)
    key = np.zeros(n, dtype=np.uint64)
    for b in range(bits - 1, -1, -1):
        for j in range(d):
            key = (key << np.uint64(1)) | ((ranks[:, j] >> np.uint64(b)) & np.uint64(1))
    return np.argsort(key, kind="stable")


def _regressors(estimand, r):
    """The heterogeneity regressors of an estimand on covariates r: an
    intercept and the first covariate where it uses any, else None."""
    return np.column_stack([np.ones(r.shape[0]), r[:, [0]]]) if moment_of(estimand).uses_x else None


def population_variances(dgp, estimand="sate", psi_cols=(), h_cols=(), w_cols=(),
                         psi_weights=None, n_oracle=1_000_000, rng=0):
    """Plug-in limiting-distribution parameters on a large synthetic sample.

    Conditional (within-stratum) moments are approximated by within-pair
    differences after ordering units along a locality curve in psi space:
    for paired units i, j with psi_i ~ psi_j, E[(v_i - v_j)(v_i - v_j)']/2
    estimates E[Var(v | psi)].
    """
    # an even number of units near n_oracle
    draw = generate_dgp(replace(dgp, n=int(n_oracle) + (int(n_oracle) % 2)), rng)
    x = _regressors(estimand, draw.r)
    n = draw.r.shape[0]
    p = dgp.p
    vard = p * (1.0 - p)
    pi_phi, pi_a, theta0 = _oracle_influence(draw, estimand, p, x=x)
    h = draw.r[:, list(h_cols)] if h_cols else np.zeros((n, 0))
    w = draw.r[:, list(w_cols)] if w_cols else np.zeros((n, 0))

    out = {"theta0": theta0, "V_phi": cov_n(pi_phi)}
    if psi_cols:
        psi = draw.r[:, list(psi_cols)]
        if psi_weights is not None:
            psi = psi * np.asarray(psi_weights)
        order = _locality_order(psi)
        pairs = order.reshape(-1, 2)

        def cond_cross(a, b):
            da = a[pairs[:, 0]] - a[pairs[:, 1]]
            db = b[pairs[:, 0]] - b[pairs[:, 1]]
            return da.T @ db / (2.0 * pairs.shape[0])
    else:
        cond_cross = cov_n

    def partial_coef(covs):
        if covs.shape[1] == 0:
            return None
        return np.linalg.solve(cond_cross(covs, covs), cond_cross(covs, pi_a))

    gamma0 = partial_coef(h)
    alpha0 = partial_coef(w)
    resid_h = pi_a if gamma0 is None else pi_a - h @ gamma0
    resid_w = pi_a if alpha0 is None else pi_a - w @ alpha0
    out["gamma0"] = gamma0
    out["alpha0"] = alpha0
    out["V_theta"] = cond_cross(resid_h, resid_h) / vard
    out["V_adj"] = cond_cross(resid_w, resid_w) / vard
    out["var_zh"] = cond_cross(h, h) / vard if h.shape[1] else None
    return out


def oracle_limit_sampler(v_theta, gamma0, var_zh, region, draws, rng):
    """Sample the limiting law of the scaled estimation error under a
    rerandomized design: an independent Gaussian plus gamma0' z with z a
    Gaussian vector conditioned to fall in the acceptance region.

    Rejection sampling; raises EstimationError if the measured acceptance
    probability falls below 1e-4.
    """
    gen = as_generator(rng)
    v_theta = np.atleast_2d(np.asarray(v_theta, dtype=np.float64))
    d_theta = v_theta.shape[0]
    var_zh = np.atleast_2d(np.asarray(var_zh, dtype=np.float64))
    d_h = var_zh.shape[0]
    gamma0 = np.zeros((d_h, d_theta)) if gamma0 is None else \
        np.asarray(gamma0, dtype=np.float64).reshape(d_h, d_theta)
    if region is None:
        region = FullSpaceRegion()
    bound = region.population(var_zh)
    root_z = psd_root(var_zh)
    root_v = psd_root(v_theta)

    accepted = []
    got = 0
    proposed = 0
    batch = max(4 * int(draws), 65536)
    while got < draws:
        z = gen.standard_normal((batch, d_h)) @ root_z.T
        pens = np.asarray(bound.penalty(z))
        keep = z[bound.accepts(pens)]
        accepted.append(keep)
        got += keep.shape[0]
        proposed += batch
        if proposed >= 262144 and got / proposed < 1e-4:
            raise EstimationError(
                f"acceptance probability {got / proposed:.2e} below 1e-04; widen the region")
    z_acc = np.vstack(accepted)[:draws]
    gauss = gen.standard_normal((draws, d_theta)) @ root_v.T
    return gauss + z_acc @ gamma0


# ---------------------------------------------------------------------------
# the replication engine


@dataclass
class MonteCarloResult:
    rows: list
    replicates: int
    failures: int
    seed: int
    workers: int
    meta: dict = field(default_factory=dict)
    # design name -> estimator -> each surviving replicate's estimate minus its finite target
    errors: dict = field(default_factory=dict)

    CSV_COLUMNS = ("model", "dim", "n", "design", "estimator", "mse_ratio",
                   "cover_pop", "cover_fin", "width_pop", "width_fin", "mean_draws")

    def row(self, design, estimator):
        for r in self.rows:
            if r["design"] == design and r["estimator"] == estimator:
                return r
        raise KeyError((design, estimator))

    def to_csv(self, path_or_fh):
        with (nullcontext(path_or_fh) if hasattr(path_or_fh, "write")
              else open(path_or_fh, "w", newline="", encoding="utf-8")) as fh:
            writer = csv.writer(fh)
            writer.writerow(self.CSV_COLUMNS)
            writer.writerows([r[c] for c in self.CSV_COLUMNS] for r in self.rows)


# the columns of a replicate's record, which holds one row per design
_FIELDS = ("unadjusted", "adjusted", "target_fin", "target_pop", "cover_fin", "cover_pop",
           "width_fin", "width_pop", "draws", "exhausted")


def _one_replicate(dgp, designs, estimand, ci_alpha, seed, theta0, rep):
    data = generate_dgp(dgp, RngSpec(seed).substream(1, rep, 0))
    x = _regressors(estimand, data.r)
    theta_n = finite_pop_estimand(data, estimand, x=x)
    spec = estimand_by_name(estimand)
    # the reported coordinate: the slope for cate/clate, the only one otherwise
    c_vec = np.eye(theta0.size)[-1]
    target_n = float(c_vec @ theta_n)
    target_0 = float(c_vec @ theta0)
    record = np.empty((len(designs), len(_FIELDS)))
    for j, design in enumerate(designs):
        gen = RngSpec(seed).substream(1, rep, 1 + j)
        partition, draw = assign_design(design, data.r, dgp.p, gen)
        d_endog = None if data.d1 is None else np.where(draw.d == 1, data.d1, data.d0)
        y = np.where((draw.d if d_endog is None else d_endog) == 1, data.y1, data.y0)
        table = data.covariate_table(psi_cols=design.psi_cols, h_cols=design.h_cols,
                                     w_cols=design.w_cols, x=x)
        frame = ExperimentFrame(covariates=table, d=draw.d, p=dgp.p, y=y, d_endog=d_endog)
        fit, adj = two_step_adjust(frame, partition, spec)
        comp = variance_components(frame, partition, adj, fit, spec=spec)
        report = confidence_intervals(fit, adj, comp, contrasts=[c_vec], alpha=ci_alpha)
        (lo_f, hi_f), (lo_p, hi_p) = report.ci_fin[0], report.ci_pop[0]
        record[j] = (c_vec @ fit.theta, c_vec @ adj.theta_adj, target_n, target_0,
                     lo_f <= target_n <= hi_f, lo_p <= target_0 <= hi_p,
                     hi_f - lo_f, hi_p - lo_p, draw.draw_index, not draw.accepted)
    return record


def _replicate(common, rep):
    """One replicate's record, or its failure as (exception type, message)."""
    try:
        return _one_replicate(*common, rep)
    except ConfigError:
        raise  # a design error repeats in every replicate
    except Exception as exc:  # noqa: BLE001 - failure policy counts and reports
        return type(exc).__name__, str(exc)


def run_monte_carlo(designs, dgp, replicates, seed, estimand="sate", ci_alpha=0.05,
                    threads=1, theta0=None, max_failure_share=0.01):
    """Replicate the full pipeline R times and aggregate MSE (normalized so
    the unadjusted estimator under the complete-randomization design is 1),
    coverage of both targets, interval widths, and draws until acceptance.

    The superpopulation target (the centre of ``cover_pop`` and ``mse``) is
    ``theta0`` when given, else the DGP's exact one, ``population_target``.

    ``threads`` > 1 runs the replicates in that many worker processes (at
    most one per replicate); the result does not depend on it.
    """
    if replicates < 100:
        raise ConfigError(f"need at least 100 replicates, got {replicates}")
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    seed = int(seed)
    names = [d.name for d in designs]
    if len(set(names)) != len(names):
        raise ConfigError("design names must be unique")

    check_estimand(estimand, dgp)
    if theta0 is None:
        theta0 = population_target(dgp, estimand)
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=np.float64))

    # replicates are seeded by index and mapped in order, so the aggregate
    # (every float included) does not depend on the worker count; workers
    # take small chunks as they come free, so a slower core holds up less
    workers = min(threads, replicates)
    one = partial(_replicate, (dgp, tuple(designs), estimand, ci_alpha, seed, theta0))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads only here

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, range(replicates),
                                    chunksize=max(1, replicates // (8 * workers))))
    else:
        results = list(map(one, range(replicates)))

    records = [r for r in results if isinstance(r, np.ndarray)]
    failures = [(rep, r) for rep, r in enumerate(results) if not isinstance(r, np.ndarray)]
    reasons = {}
    for _, (kind, message) in failures:
        reasons.setdefault(kind, {"count": 0, "first": message})["count"] += 1
    # with no replicate left there is nothing to aggregate, whatever the share
    if len(failures) > max_failure_share * replicates or not records:
        by_kind = "; ".join(f"{kind} x{r['count']}, first: {r['first']}"
                            for kind, r in reasons.items())
        raise EstimationError(
            f"{len(failures)} of {replicates} replicates failed, first at rep "
            f"{failures[0][0]} ({by_kind})"
        )

    # (design, field, replicate): the mean of one contiguous column sums pairwise;
    # a mean along axis 0 of the stack would sum in another order (other last bits)
    columns = np.ascontiguousarray(np.array(records).transpose(1, 2, 0))
    rows, errors = [], {}
    for design, fields in zip(designs, columns):
        col = dict(zip(_FIELDS, fields))
        shared = {
            "cover_pop": round(float(np.mean(col["cover_pop"])), 6),
            "cover_fin": round(float(np.mean(col["cover_fin"])), 6),
            "width_pop": round(float(np.mean(col["width_pop"])), 9),
            "width_fin": round(float(np.mean(col["width_fin"])), 9),
            "mean_draws": round(float(np.mean(col["draws"])), 3),
            "exhausted": int(col["exhausted"].sum()),
        }
        for est_name in ("unadjusted", "adjusted"):
            # headline mse is about the superpopulation target (the estimator's
            # dispersion), as published design comparisons normalize it
            err = col[est_name] - col["target_fin"]
            err0 = col[est_name] - col["target_pop"]
            errors.setdefault(design.name, {})[est_name] = err
            rows.append({
                "model": dgp.model, "dim": dgp.dim_r, "n": dgp.n,
                "design": design.name, "estimator": est_name,
                "mse": float(np.mean(err0 ** 2)),
                "mse_fin": float(np.mean(err ** 2)),
                "mse_ratio": None,
                "mse_fin_ratio": None,
                **shared,
            })
    # the unadjusted row of the complete design (else the first) is the unit
    base_name = next((d.name for d in designs if d.complete), designs[0].name)
    base = next(r for r in rows if r["design"] == base_name)
    for row in rows:
        row["mse_ratio"] = round(row["mse"] / base["mse"], 6)
        row["mse_fin_ratio"] = round(row["mse_fin"] / base["mse_fin"], 6)
    return MonteCarloResult(
        rows=rows, replicates=replicates, failures=len(failures), seed=seed,
        workers=workers,
        meta={"estimand": estimand, "theta0": theta0.tolist(),
              "failed_reps": [rep for rep, _ in failures],
              "failure_reasons": reasons},
        errors=errors,
    )
