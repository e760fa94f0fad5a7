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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .adjust import two_step_adjust
from .core import (
    ConfigError,
    CovariateTable,
    EstimationError,
    ExperimentFrame,
    RngSpec,
    as_generator,
    cov_n,
    psd_root,
)
from .gmm import estimand_by_name
from .inference import confidence_intervals, variance_components
from .randomize import draw_complete, draw_stratified
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
        if self.n % 2 != 0:
            raise ConfigError("n must be even (the built-in designs use pairs)")


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
        return (1.0 - p) * self.y1 + p * self.y0

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


def generate_dgp(spec, rng):
    """Draw covariates, correlated arm noises, and both potential outcomes
    (plus potential treatments when a compliance rate is set)."""
    gen = as_generator(rng)
    n, m = spec.n, spec.dim_r
    r = gen.standard_normal((n, m))
    if spec.covariance == "equicorrelated":
        rho = 0.5 / (m - 1)
        sigma = np.full((m, m), rho)
        np.fill_diagonal(sigma, 1.0)
        r = r @ np.linalg.cholesky(sigma).T
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
    """How to assign treatment: which covariates to match on, which to
    balance in the accept/reject step, which to adjust on ex post."""

    name: str
    kind: str  # complete | stratified | rerandomized
    k: int = 2
    l: int = 1
    psi_cols: tuple = ()
    psi_weights: tuple | None = None
    match_method: str = "greedy-nn"
    h_cols: tuple = ()
    w_cols: tuple = ()
    region: AcceptanceRegion | None = None
    max_draws: int = 200_000

    def __post_init__(self):
        if self.kind not in ("complete", "stratified", "rerandomized"):
            raise ConfigError(f"unknown design kind {self.kind!r}")
        if self.kind == "rerandomized" and not self.h_cols:
            raise ConfigError(f"design {self.name!r} rerandomizes but has no h columns")


def benchmark_designs(model, dim_r, accept_alpha=1.0 / 500.0):
    """The three benchmark designs: complete randomization, full matched
    pairs (extra weight sqrt(2) on the lead covariate for the asymmetric
    models), and pairs on the lead covariate with a quadratic balance rule
    on the rest."""
    all_cols = tuple(range(dim_r))
    rest = tuple(range(1, dim_r))
    weights = None
    if model >= 2:
        weights = (math.sqrt(2.0),) + (1.0,) * (dim_r - 1)
    return [
        DesignSpec(name="C", kind="complete", w_cols=all_cols),
        DesignSpec(name="S", kind="stratified", psi_cols=all_cols,
                   psi_weights=weights, w_cols=all_cols),
        DesignSpec(name="SR", kind="rerandomized", psi_cols=(0,),
                   match_method="sorted-1d", h_cols=rest, w_cols=rest,
                   region=MahalanobisRegion(alpha=accept_alpha)),
    ]


def assign_design(design, r, p, rng):
    """Build the partition and draw the (possibly rerandomized) assignment."""
    gen = as_generator(rng)
    n = r.shape[0]
    if design.kind == "complete":
        draw = draw_complete(n, p, gen)
        cfg = MatchConfig(k=n, l=int(draw.d.sum()))
        return design_partition(r[:, :0], cfg, gen), draw
    cfg = MatchConfig(k=design.k, l=design.l, psi_weights=design.psi_weights,
                      method=design.match_method)
    partition = design_partition(r[:, list(design.psi_cols)], cfg, gen)
    if design.kind == "stratified":
        return partition, draw_stratified(partition, gen)
    h = r[:, list(design.h_cols)]
    draw = rerandomize(partition, h, design.region, gen, max_draws=design.max_draws)
    return partition, draw


# ---------------------------------------------------------------------------
# finite population targets and plug-in oracles


def finite_pop_estimand(draw, estimand, p, x=None):
    """Root of the sample moment of the averaged score, computed from both
    potential outcomes (simulation-only knowledge)."""
    tau = draw.tau
    if estimand == "sate":
        return np.array([tau.mean()])
    if estimand == "cate":
        return np.linalg.solve(x.T @ x, x.T @ tau)
    if estimand == "late":
        comp = (draw.d1 - draw.d0).astype(np.float64)
        return np.array([(comp * tau).sum() / comp.sum()])
    if estimand == "clate":
        comp = (draw.d1 - draw.d0).astype(np.float64)
        xw = x * comp[:, None]
        return np.linalg.solve(xw.T @ x, xw.T @ tau)
    raise ConfigError(f"unknown estimand {estimand!r}")


def _oracle_influence(draw, estimand, p, x=None):
    """Per-unit sampling and assignment influence values (after applying
    the linearization matrix), plus the population-target parameter."""
    n = draw.r.shape[0]
    theta0 = finite_pop_estimand(draw, estimand, p, x=x)
    if estimand == "sate":
        pi_phi = (draw.tau - theta0[0])[:, None]
        pi_a = draw.ylevel(p)[:, None]
        return pi_phi, pi_a, theta0
    if estimand == "cate":
        inv = np.linalg.inv(x.T @ x / n)
        pi_phi = ((draw.tau - x @ theta0)[:, None] * x) @ inv.T
        pi_a = (draw.ylevel(p)[:, None] * x) @ inv.T
        return pi_phi, pi_a, theta0
    comp = (draw.d1 - draw.d0).astype(np.float64)
    t1 = np.where(draw.d1 == 1, draw.y1, draw.y0)
    t0 = np.where(draw.d0 == 1, draw.y1, draw.y0)
    tlevel = (1.0 - p) * t1 + p * t0
    dlevel = (1.0 - p) * draw.d1 + p * draw.d0
    if estimand == "late":
        ec = comp.mean()
        pi_phi = (comp * (draw.tau - theta0[0]))[:, None] / ec
        pi_a = (tlevel - dlevel * theta0[0])[:, None] / ec
        return pi_phi, pi_a, theta0
    inv = np.linalg.inv((x * comp[:, None]).T @ x / n)
    pi_phi = ((comp * (draw.tau - x @ theta0))[:, None] * x) @ inv.T
    pi_a = ((tlevel - dlevel * (x @ theta0))[:, None] * x) @ inv.T
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


def _oracle_sample(dgp, x_cols, n_oracle, rng):
    """A large synthetic draw (an even number of units near ``n_oracle``)
    and its heterogeneity regressors (None without ``x_cols``)."""
    big = replace(dgp, n=int(n_oracle) + (int(n_oracle) % 2))
    draw = generate_dgp(big, rng)
    if x_cols is None:
        return draw, None
    return draw, np.column_stack([np.ones(big.n), draw.r[:, list(x_cols)]])


def population_variances(dgp, estimand="sate", psi_cols=(), h_cols=(), w_cols=(),
                         x_cols=None, psi_weights=None, n_oracle=1_000_000, rng=0):
    """Plug-in limiting-distribution parameters on a large synthetic sample.

    Conditional (within-stratum) moments are approximated by within-pair
    differences after ordering units along a locality curve in psi space:
    for paired units i, j with psi_i ~ psi_j, E[(v_i - v_j)(v_i - v_j)']/2
    estimates E[Var(v | psi)].
    """
    draw, x = _oracle_sample(dgp, x_cols, n_oracle, rng)
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


def oracle_limit_sampler(v_theta, gamma0, var_zh, region, draws, rng,
                         min_acceptance=1e-4):
    """Sample the limiting law of the scaled estimation error under a
    rerandomized design: an independent Gaussian plus gamma0' z with z a
    Gaussian vector conditioned to fall in the acceptance region.

    Rejection sampling; raises EstimationError if the measured acceptance
    probability falls below ``min_acceptance``.
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
        keep = z[pens <= bound.threshold]
        accepted.append(keep)
        got += keep.shape[0]
        proposed += batch
        if proposed >= 262144 and got / proposed < min_acceptance:
            raise EstimationError(
                f"acceptance probability {got / proposed:.2e} below "
                f"{min_acceptance:.0e}; widen the region"
            )
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
    errors: dict | None = None

    CSV_COLUMNS = ("model", "dim", "n", "design", "estimator", "mse_ratio",
                   "cover_pop", "cover_fin", "width_pop", "width_fin", "mean_draws")

    def row(self, design, estimator):
        for r in self.rows:
            if r["design"] == design and r["estimator"] == estimator:
                return r
        raise KeyError((design, estimator))

    def to_csv(self, path_or_fh):
        fh = open(path_or_fh, "w", newline="", encoding="utf-8") \
            if isinstance(path_or_fh, str) else path_or_fh
        try:
            writer = csv.writer(fh)
            writer.writerow(self.CSV_COLUMNS)
            for r in self.rows:
                writer.writerow([r[c] for c in self.CSV_COLUMNS])
        finally:
            if isinstance(path_or_fh, str):
                fh.close()


def _one_replicate(dgp, designs, estimand, x_cols, contrast, ci_alpha, seed, theta0, rep):
    data = generate_dgp(dgp, RngSpec(seed).substream(1, rep, 0))
    n = dgp.n
    x = None
    if estimand in ("cate", "clate") or x_cols:
        x = np.column_stack([np.ones(n), data.r[:, list(x_cols or ())]])
    theta_n = finite_pop_estimand(data, estimand, dgp.p, x=x)
    spec = estimand_by_name(estimand)
    c_vec = np.asarray(contrast, dtype=np.float64)
    out = {}
    for j, design in enumerate(designs):
        gen = RngSpec(seed).substream(1, rep, 1 + j)
        partition, draw = assign_design(design, data.r, dgp.p, gen)
        d = draw.d
        if data.d1 is not None:
            d_endog = np.where(d == 1, data.d1, data.d0)
            y = np.where(d_endog == 1, data.y1, data.y0)
        else:
            d_endog = None
            y = np.where(d == 1, data.y1, data.y0)
        table = data.covariate_table(
            psi_cols=design.psi_cols, h_cols=design.h_cols, w_cols=design.w_cols, x=x,
        )
        frame = ExperimentFrame(covariates=table, d=d, p=dgp.p, y=y, d_endog=d_endog)
        fit, adj = two_step_adjust(frame, partition, spec, w=table.w)
        comp = variance_components(frame, partition, adj, fit, spec=spec)
        report = confidence_intervals(fit, adj, comp, contrasts=[c_vec], alpha=ci_alpha)
        target_n = float(c_vec @ theta_n)
        target_0 = float(c_vec @ theta0)
        lo_f, hi_f = report.ci_fin[0]
        lo_p, hi_p = report.ci_pop[0]
        out[design.name] = {
            "err_unadj": float(c_vec @ fit.theta) - target_n,
            "err_adj": float(c_vec @ adj.theta_adj) - target_n,
            "err0_unadj": float(c_vec @ fit.theta) - target_0,
            "err0_adj": float(c_vec @ adj.theta_adj) - target_0,
            "cover_fin": lo_f <= target_n <= hi_f,
            "cover_pop": lo_p <= target_0 <= hi_p,
            "width_fin": hi_f - lo_f,
            "width_pop": hi_p - lo_p,
            "draws": draw.draw_index,
            "exhausted": not draw.accepted,
        }
    return out


def _worker(common, reps):
    results = []
    for rep in reps:
        try:
            results.append((rep, _one_replicate(*common, rep)))
        except ConfigError:
            raise  # a design error repeats in every replicate
        except Exception as exc:  # noqa: BLE001 - failure policy counts and reports
            results.append((rep, (type(exc).__name__, str(exc))))
    return results


def run_monte_carlo(designs, dgp, replicates, seed, estimand="sate", x_cols=None,
                    contrast=None, ci_alpha=0.05, threads=1, theta0=None,
                    keep_errors=False, n_oracle=1_000_000, max_failure_share=0.01):
    """Replicate the full pipeline R times and aggregate MSE (normalized so
    the unadjusted estimator under the complete-randomization design is 1),
    coverage of both targets, interval widths, and draws until acceptance.

    ``threads`` > 1 runs the replicates in that many worker processes (at
    most one per replicate); the result does not depend on it.
    """
    if replicates < 100:
        raise ConfigError("need at least 100 replicates")
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    if isinstance(seed, RngSpec):
        seed = seed.seed
    seed = int(seed)
    names = [d.name for d in designs]
    if len(set(names)) != len(names):
        raise ConfigError("design names must be unique")

    if estimand in ("late", "clate") and dgp.compliance is None:
        raise ConfigError(f"estimand {estimand!r} needs a DGP with noncompliance "
                          "(DgpSpec.compliance is not set)")
    if estimand in ("cate", "clate") and x_cols is None:
        x_cols = (0,)
    if theta0 is None:
        # the population target alone: the oracle's variances go unused here
        draw, x = _oracle_sample(dgp, x_cols if estimand in ("cate", "clate") else None,
                                 n_oracle, RngSpec(seed).substream(0, 0))
        theta0 = finite_pop_estimand(draw, estimand, dgp.p, x=x)
        del draw, x  # the large sample must not outlive the oracle
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=np.float64))
    if contrast is None:
        contrast = np.eye(theta0.size)[theta0.size - 1 if estimand in ("cate", "clate") else 0]

    # replicates are seeded by index, so sorting by it makes the aggregate
    # (every float included) independent of the worker count
    workers = min(threads, replicates)
    common = (dgp, tuple(designs), estimand, x_cols, tuple(np.asarray(contrast)),
              ci_alpha, seed, theta0)
    chunks = [range(i, replicates, workers) for i in range(workers)]
    if workers > 1:
        # forked workers share this process's imports: load the matcher's
        # k-d tree module once here, not once in every worker
        import scipy.spatial  # noqa: F401
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_worker, [common] * workers, chunks))
    else:
        parts = [_worker(common, chunks[0])]
    results = sorted((item for part in parts for item in part), key=lambda t: t[0])

    records = [r for _, r in results if isinstance(r, dict)]
    failures = [(rep, r) for rep, r in results if not isinstance(r, dict)]
    reasons = {}
    for _, (kind, message) in failures:
        reasons.setdefault(kind, {"count": 0, "first": message})["count"] += 1
    if len(failures) > max_failure_share * replicates:
        by_kind = "; ".join(f"{kind} x{r['count']}, first: {r['first']}"
                            for kind, r in reasons.items())
        raise EstimationError(
            f"{len(failures)} of {replicates} replicates failed, first at rep "
            f"{failures[0][0]} ({by_kind})"
        )

    base_design = next((d.name for d in designs if d.kind == "complete"), designs[0].name)
    base_mse = None
    base_mse_fin = None
    rows = []
    errors = {}
    for design in designs:
        recs = [r[design.name] for r in records]
        eu = np.array([r["err_unadj"] for r in recs])
        ea = np.array([r["err_adj"] for r in recs])
        eu0 = np.array([r["err0_unadj"] for r in recs])
        ea0 = np.array([r["err0_adj"] for r in recs])
        if keep_errors:
            errors[design.name] = {"unadjusted": eu, "adjusted": ea}
        cover_pop = np.mean([r["cover_pop"] for r in recs])
        cover_fin = np.mean([r["cover_fin"] for r in recs])
        width_pop = float(np.mean([r["width_pop"] for r in recs]))
        width_fin = float(np.mean([r["width_fin"] for r in recs]))
        mean_draws = float(np.mean([r["draws"] for r in recs]))
        for est_name, err, err0 in (("unadjusted", eu, eu0), ("adjusted", ea, ea0)):
            # headline metric: squared error about the superpopulation target
            # (the estimator's dispersion), which is what published design
            # comparisons normalize; the finite population target's MSE rides
            # along as mse_fin
            mse_fin = float(np.mean(err ** 2))
            mse = float(np.mean(err0 ** 2))
            if design.name == base_design and est_name == "unadjusted":
                base_mse = mse
                base_mse_fin = mse_fin
            rows.append({
                "model": dgp.model, "dim": dgp.dim_r, "n": dgp.n,
                "design": design.name, "estimator": est_name,
                "mse": mse,
                "mse_se": float(np.std(err0 ** 2) / math.sqrt(len(err0))),
                "mse_fin": mse_fin,
                "mse_fin_se": float(np.std(err ** 2) / math.sqrt(len(err))),
                "mse_ratio": None,
                "mse_fin_ratio": None,
                "cover_pop": round(float(cover_pop), 6),
                "cover_fin": round(float(cover_fin), 6),
                "width_pop": round(width_pop, 9),
                "width_fin": round(width_fin, 9),
                "mean_draws": round(mean_draws, 3),
                "exhausted": int(sum(r["exhausted"] for r in recs)),
            })
    for row in rows:
        row["mse_ratio"] = round(row["mse"] / base_mse, 6)
        row["mse_fin_ratio"] = round(row["mse_fin"] / base_mse_fin, 6)
    return MonteCarloResult(
        rows=rows, replicates=replicates, failures=len(failures), seed=seed,
        workers=workers,
        meta={"estimand": estimand, "theta0": theta0.tolist(),
              "failed_reps": [rep for rep, _ in failures],
              "failure_reasons": reasons},
        errors=errors if keep_errors else None,
    )
