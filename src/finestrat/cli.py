"""Command-line pipeline: design an assignment, estimate from outcomes,
calibrate acceptance thresholds, and run simulation studies.

The assign step emits a manifest binding the design (groups, assignment,
seed) to a hash of the covariate file; the estimate step refuses to run
against covariates whose hash has changed.
"""

from __future__ import annotations

import os

# BLAS libraries read their thread count once, as they load, so this runs
# before NumPy (and SciPy's own OpenBLAS) loads. One thread per process: idle
# BLAS workers spin on the other cores and save no time, the results would
# depend on the host's core count, and `simulate --threads` processes are the
# parallelism. A value set by the user wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402 - the thread count must be set first
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import namedtuple  # noqa: E402

import numpy as np  # noqa: E402

from . import __version__
from .core import (
    ConfigError,
    ExperimentFrame,
    FinestratError,
    GroupPartition,
    LoadError,
    RngSpec,
    check_keys,
    collapsed_strata,
    load_covariates,
    open_input,
    read_csv,
    role_columns,
    spec_array,
    spec_number,
    unit_interval,
)

# Each command imports only its own layers: every command starts a fresh
# interpreter, which loads (and, without cached bytecode, compiles) each
# module it imports, 3-15 ms apiece.

_DESIGN_REQUIRED = ("roles", "k", "l")
_DESIGN_KEYS = {"roles", "k", "l", "match", "region", "estimand", "alpha",
                "seed", "max_draws"}
_MATCH_KEYS = {"method", "weights"}
_MANIFEST_REQUIRED = ("covariates_sha256", "spec", "partition", "d")
_MANIFEST_KEYS = {"version", "covariates_sha256", "spec", "seed", "partition", "d",
                  "draws_to_accept", "penalty", "accepted"}
_SIM_REQUIRED = ("model", "dim_r", "n")
_SIM_KEYS = {"model", "dim_r", "n", "p", "replicates", "seed", "designs",
             "estimand", "accept_alpha", "threads", "ci_alpha"}


def _load_json(path, what):
    with open_input(path, what, error=ConfigError) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def _sha256(path):
    """The covariates file's SHA-256, which binds a manifest to it."""
    digest = hashlib.sha256()
    with open_input(path, "covariates", binary=True) as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# a checked spec: the document as read (the manifest keeps it) and every value taken from it
Design = namedtuple("Design", "spec roles seed estimand alpha max_draws match region")
Simulation = namedtuple("Simulation", "spec dgp designs estimand replicates seed threads ci_alpha")


def _read_design(spec, what, seed=None, layers=True, estimand=None):
    """Check a design spec before any data is read; ``seed`` and ``estimand`` are flags that
    override the spec's. With ``layers``, build its match config and region; estimate uses
    neither, and does not load the layers that build them."""
    from .gmm import moment_of

    check_keys(spec, _DESIGN_KEYS, what, _DESIGN_REQUIRED)
    match = spec.get("match", {})
    check_keys(match, _MATCH_KEYS, "match block")
    roles, _ = role_columns(spec["roles"])
    k, l = (spec_number(spec, key, what, kind=int) for key in ("k", "l"))
    seed = spec_number(spec, "seed", what, 0, int, low=0) if seed is None else seed
    alpha = unit_interval(spec_number(spec, "alpha", what, 0.05), f"{what}: alpha")
    max_draws = spec_number(spec, "max_draws", what, 10000, int, low=1)
    moment_of(spec.get("estimand", "sate"))  # the spec's own, even where the flag overrides it
    estimand = estimand or spec.get("estimand", "sate")
    if moment_of(estimand).uses_x and not roles["x"]:
        raise ConfigError(f"{what}: estimand {estimand!r} needs heterogeneity regressors, "
                          "and no column has the 'x' role")
    cfg = region = None
    if layers:
        from .rerandomize import region_from_dict
        from .stratify import MatchConfig

        method = match.get("method", "sorted-1d" if len(roles["psi"]) == 1 else "greedy-nn")
        cfg = MatchConfig(k=k, l=l, psi_weights=match.get("weights"), method=method)
        if roles["psi"]:  # with no psi column every unit is in one group
            cfg.check_dim(len(roles["psi"]))
        region = region_from_dict(spec.get("region"))
        region.check_dim(len(roles["h"]))
    return Design(spec, spec["roles"], seed, estimand, alpha, max_draws, cfg, region)


def cmd_assign(args):
    from .rerandomize import rerandomize
    from .stratify import design_partition

    design = _read_design(_load_json(args.spec, "design spec"), "design spec", args.seed)
    table = load_covariates(args.data, design.roles)
    partition = design_partition(table.psi, design.match, RngSpec(design.seed, 0))
    draw = rerandomize(partition, table.h, design.region, RngSpec(design.seed, 1),
                       max_draws=design.max_draws)

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "group", "d"])
        writer.writerows(zip(table.ids.tolist(), partition.group_of().tolist(),
                             draw.d.tolist()))
    if args.trace is not None:
        # rerandomize stops at the first accepted draw, so only the last can be
        with open(args.trace, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["draw_index", "penalty", "accepted"])
            writer.writerows((i, float(pen), draw.accepted and i == draw.penalties.size)
                             for i, pen in enumerate(draw.penalties, 1))

    manifest = {
        "version": __version__,
        "covariates_sha256": _sha256(args.data),
        "spec": design.spec,
        "seed": design.seed,
        "partition": partition.to_json_dict(),
        "d": draw.d.tolist(),
        "draws_to_accept": draw.draw_index,
        "penalty": draw.penalty,
        "accepted": draw.accepted,
    }
    manifest_path = args.manifest or args.out + ".manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        # one string from the C encoder (json.dump runs the Python one); no
        # indent, as groups, pairing and d have n entries
        fh.write(json.dumps(manifest))
    if not draw.accepted:
        print(f"warning: acceptance region not reached in {design.max_draws} draws; "
              f"using best draw (penalty {draw.penalty:.4g})", file=sys.stderr)
    print(f"wrote {args.out} and {manifest_path} (draws to accept: {draw.draw_index})")
    return 0


def _read_outcomes(path, ids):
    """Outcomes y (and the realized treatment d, when the file has it)
    aligned to the covariate ids."""
    data, out_ids = read_csv(path, ["y"], "id", "outcomes", optional=["d"])
    ids = ids.astype(str)
    order = np.argsort(out_ids)
    at = np.minimum(out_ids.searchsorted(ids, sorter=order), order.size - 1)
    rows = order[at]
    missing = np.flatnonzero(out_ids[rows] != ids)
    if missing.size:
        raise LoadError(f"outcomes file is missing id {str(ids[missing[0]])!r}")
    return data[rows, 0], (data[rows, 1] if data.shape[1] == 2 else None)


def _outcome_columns(path):
    """The header names of the outcomes file; no row past the header is read."""
    with open_input(path, "outcomes") as fh:
        return [c.strip() for c in next(csv.reader(fh), [])]


def _read_manifest(path, estimand, outcomes):
    """Check a design manifest, its spec (with the ``estimand`` flag), its partition and its
    ``d`` against each other, and the outcomes header against the estimand, before any data
    is read. Returns the manifest, the checked design, partition and d."""
    from .gmm import moment_of

    manifest = _load_json(path, "design manifest")
    check_keys(manifest, _MANIFEST_KEYS, "design manifest", _MANIFEST_REQUIRED)
    design = _read_design(manifest["spec"], "manifest spec", layers=False, estimand=estimand)
    partition = GroupPartition.from_json_dict(manifest["partition"])
    k, l = manifest["spec"]["k"], manifest["spec"]["l"]
    # with no psi column the design is one group of all n units, treating n * l / k
    if role_columns(design.roles)[0]["psi"]:
        agrees = (partition.k, partition.l) == (k, l)
    else:
        agrees = partition.n_groups == 1 and partition.l * k == partition.k * l
    if not agrees:
        raise ConfigError(f"manifest spec has k={k}, l={l}, but its partition has "
                          f"{partition.n_groups} groups of k={partition.k}, l={partition.l}")
    collapse = collapsed_strata(partition.n, partition.k, partition.l)
    if collapse != (partition.pairing is not None):
        raise ConfigError(
            f"manifest partition has {'no' if collapse else 'a'} pairing, but its groups of "
            f"k={partition.k} with l={partition.l} treated need {'' if collapse else 'no '}"
            "collapsed strata")
    d = spec_array(manifest, "d", "design manifest")
    if d.shape != (partition.n,):
        raise ConfigError(f"manifest d must have shape ({partition.n},), got {d.shape}")
    off = np.flatnonzero(~np.isin(d, (0, 1)))
    if off.size:
        raise ConfigError(f"manifest d must be binary (0 or 1), got {d.ravel()[off[0]]:g} "
                          f"at unit {off[0]}")
    if moment_of(design.estimand).needs_d and "d" not in _outcome_columns(outcomes):
        raise ConfigError(f"estimand {design.estimand!r} needs the realized treatment, and "
                          "the outcomes file has no 'd' column")
    return manifest, design, partition, d


def cmd_estimate(args):
    from .adjust import two_step_adjust
    from .gmm import estimand_by_name
    from .inference import confidence_intervals, variance_components

    manifest, design, partition, d = _read_manifest(args.manifest, args.estimand, args.outcomes)
    if _sha256(args.data) != manifest["covariates_sha256"]:
        raise ConfigError(
            "covariate file does not match the manifest (hash mismatch); "
            "estimation must run on the exact file used for assignment"
        )
    table = load_covariates(args.data, design.roles)
    y, d_endog = _read_outcomes(args.outcomes, table.ids)
    est_spec = estimand_by_name(design.estimand)
    if partition.n != table.n:
        raise ConfigError(f"manifest partition covers {partition.n} units, "
                          f"the covariates {table.n}")
    frame = ExperimentFrame(covariates=table, d=d, p=partition.p, y=y,
                            d_endog=d_endog)
    treated = np.bincount(partition.group_of(), weights=frame.d)
    bad = np.flatnonzero(treated != partition.l)
    if bad.size:
        raise ConfigError(f"manifest d treats {int(treated[bad[0]])} units in group "
                          f"{bad[0]}; the design treats l = {partition.l} in each group")
    fit, adj = two_step_adjust(frame, partition, est_spec)
    comp = variance_components(frame, partition, adj, fit, spec=est_spec)
    report = confidence_intervals(
        fit, adj, comp,
        flags={"estimand": design.estimand, "collapsed_strata": comp.used_collapsed,
               "draws_to_accept": manifest.get("draws_to_accept"),
               "accepted": manifest.get("accepted", True)},
        alpha=design.alpha,
    )
    doc = report.to_json_dict()
    doc["adjustment"] = {
        "alpha_coef": adj.alpha.tolist(),
        "beta1": adj.beta1.tolist(),
        "beta0": adj.beta0.tolist(),
        "gram_condition_number": adj.cond,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    print(f"wrote {args.out}")
    return 0


def _read_simulation(spec, args):
    """Check a simulation spec and build the designs it asks for, before anything is drawn."""
    from .simulate import DgpSpec, benchmark_designs, check_designs, check_estimand

    what = "simulation spec"
    check_keys(spec, _SIM_KEYS, what, _SIM_REQUIRED)
    replicates = (args.replicates if args.replicates is not None
                  else spec_number(spec, "replicates", what, 1000, int))
    seed = args.seed if args.seed is not None else spec_number(spec, "seed", what, 0, int, low=0)
    # one worker process per CPU this process may use (at most one per
    # replicate) unless told otherwise; the results do not depend on the count
    threads = args.threads
    if threads is None and spec.get("threads") is not None:
        threads = spec_number(spec, "threads", what, kind=int)
    elif threads is None:
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    model, dim_r, n = (spec_number(spec, key, what, kind=int) for key in ("model", "dim_r", "n"))
    p, ci_alpha, accept_alpha = (
        unit_interval(spec_number(spec, key, what, default), f"{what}: {key}")
        for key, default in (("p", 0.5), ("ci_alpha", 0.05), ("accept_alpha", 1.0 / 500.0)))
    wanted = spec.get("designs", ["C", "S", "SR"])
    estimand = spec.get("estimand", "sate")
    try:  # the simulation layer's own checks, reported as spec errors
        dgp = DgpSpec(model=model, dim_r=dim_r, n=n, p=p)
        check_estimand(estimand, dgp)
        designs = benchmark_designs(model, dim_r, accept_alpha, wanted)
        check_designs(designs, dgp)
    except ConfigError as exc:
        raise ConfigError(f"{what}: {exc}") from None
    return Simulation(spec, dgp, designs, estimand, replicates, seed, threads, ci_alpha)


def cmd_simulate(args):
    from .simulate import run_monte_carlo

    sim = _read_simulation(_load_json(args.spec, "simulation spec"), args)
    result = run_monte_carlo(sim.designs, sim.dgp, sim.replicates, sim.seed,
                             estimand=sim.estimand, ci_alpha=sim.ci_alpha, threads=sim.threads)
    result.to_csv(args.out)
    manifest = {"spec": sim.spec, "seed": sim.seed, "replicates": sim.replicates,
                "workers": result.workers, "failures": result.failures,
                "meta": result.meta}
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"wrote {args.out} ({sim.replicates} replicates, {result.failures} failures)")
    return 0


def cmd_calibrate(args):
    from .rerandomize import calibrate_threshold, check_calibration
    from .stratify import design_partition

    design = _read_design(_load_json(args.spec, "design spec"), "design spec", args.seed)
    check_calibration(design.region, args.alpha, args.draws)
    table = load_covariates(args.data, design.roles)
    partition = design_partition(table.psi, design.match, RngSpec(design.seed, 0))
    calibrated = calibrate_threshold(design.region, partition, table.h, args.alpha,
                                     RngSpec(design.seed, 2), draws=args.draws)
    doc = calibrated.to_dict()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    print(f"wrote {args.out}: {doc}")
    return 0


def _seed(text):
    """A --seed value; argparse refuses anything but a whole number >= 0 with exit 2."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser():
    from .gmm import MOMENTS

    parser = argparse.ArgumentParser(
        prog="finestrat",
        description="Design and analyze finely stratified rerandomized experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_assign = sub.add_parser("assign", help="match groups and draw an accepted assignment")
    p_assign.add_argument("--spec", required=True)
    p_assign.add_argument("--data", required=True)
    p_assign.add_argument("--out", required=True)
    p_assign.add_argument("--manifest")
    p_assign.add_argument("--trace")
    p_assign.add_argument("--seed", type=_seed)
    p_assign.set_defaults(func=cmd_assign)

    p_est = sub.add_parser("estimate", help="estimate effects from realized outcomes")
    p_est.add_argument("--manifest", required=True)
    p_est.add_argument("--data", required=True, help="covariates CSV used at assign time")
    p_est.add_argument("--outcomes", required=True, help="CSV with id,y[,d]")
    p_est.add_argument("--out", required=True)
    p_est.add_argument("--estimand", choices=list(MOMENTS))
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo design comparison")
    p_sim.add_argument("--spec", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--replicates", type=int)
    p_sim.add_argument("--seed", type=_seed)
    p_sim.add_argument("--threads", type=int)
    p_sim.set_defaults(func=cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="Monte Carlo calibration of a region threshold")
    p_cal.add_argument("--spec", required=True)
    p_cal.add_argument("--data", required=True)
    p_cal.add_argument("--out", required=True)
    p_cal.add_argument("--alpha", type=float, required=True)
    p_cal.add_argument("--draws", type=int, default=2000)
    p_cal.add_argument("--seed", type=_seed)
    p_cal.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, LoadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FinestratError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
