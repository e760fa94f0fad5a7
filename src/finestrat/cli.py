"""Command-line pipeline: design an assignment, estimate from outcomes,
calibrate acceptance thresholds, and run simulation studies.

The assign step emits a manifest binding the design (groups, assignment,
seed) to a hash of the covariate file; the estimate step refuses to run
against covariates whose hash has changed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys

from . import __version__
from .adjust import two_step_adjust
from .core import (
    ConfigError,
    ExperimentFrame,
    FinestratError,
    GroupPartition,
    LoadError,
    RngSpec,
    check_keys,
    load_covariates,
    read_csv,
)
from .gmm import estimand_by_name
from .inference import confidence_intervals, variance_components
from .rerandomize import calibrate_threshold, region_from_dict, rerandomize
from .simulate import DgpSpec, run_monte_carlo, benchmark_designs
from .stratify import MatchConfig, design_partition

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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_design(args):
    """Spec, seed, covariates, partition and region of a design command.
    Matching uses stream 0 of the seed; draws use the later streams."""
    spec = _load_json(args.spec, "design spec")
    check_keys(spec, _DESIGN_KEYS, "design spec", _DESIGN_REQUIRED)
    match = spec.get("match", {})
    check_keys(match, _MATCH_KEYS, "match block")
    seed = args.seed if args.seed is not None else int(spec.get("seed", 0))
    table = load_covariates(args.data, spec["roles"])
    cfg = MatchConfig(
        k=int(spec["k"]), l=int(spec["l"]), psi_weights=match.get("weights"),
        method=match.get("method", "sorted-1d" if table.d_psi == 1 else "greedy-nn"),
    )
    partition = design_partition(table.psi, cfg, RngSpec(seed, 0))
    region = region_from_dict(spec.get("region"))
    return spec, seed, table, partition, region


def cmd_assign(args):
    spec, seed, table, partition, region = _read_design(args)
    max_draws = int(spec.get("max_draws", 10000))
    draw = rerandomize(partition, table.h, region, RngSpec(seed, 1), max_draws=max_draws)

    group_of = partition.group_of()
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "group", "d"])
        for i in range(table.n):
            writer.writerow([table.ids[i], int(group_of[i]), int(draw.d[i])])
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
        "spec": spec,
        "seed": seed,
        "partition": partition.to_json_dict(),
        "d": draw.d.tolist(),
        "draws_to_accept": draw.draw_index,
        "penalty": draw.penalty,
        "accepted": draw.accepted,
    }
    manifest_path = args.manifest or args.out + ".manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)  # compact: groups, pairing and d have n entries
    if not draw.accepted:
        print(
            f"warning: acceptance region not reached in {max_draws} draws; "
            f"using best draw (penalty {draw.penalty:.4g})",
            file=sys.stderr,
        )
    print(f"wrote {args.out} and {manifest_path} (draws to accept: {draw.draw_index})")
    return 0


def _read_outcomes(path, ids):
    """Outcomes y (and the realized treatment d, when the file has it)
    aligned to the covariate ids."""
    data, out_ids = read_csv(path, ["y"], "id", "outcomes", optional=["d"])
    row_of = {uid: i for i, uid in enumerate(out_ids.tolist())}
    try:
        rows = [row_of[str(uid)] for uid in ids]
    except KeyError as exc:
        raise LoadError(f"outcomes file is missing id {exc.args[0]!r}") from None
    return data[rows, 0], (data[rows, 1] if data.shape[1] == 2 else None)


def cmd_estimate(args):
    manifest = _load_json(args.manifest, "design manifest")
    check_keys(manifest, _MANIFEST_KEYS, "design manifest", _MANIFEST_REQUIRED)
    check_keys(manifest["spec"], _DESIGN_KEYS, "manifest spec", _DESIGN_REQUIRED)
    digest = _sha256(args.data)
    if digest != manifest["covariates_sha256"]:
        raise ConfigError(
            "covariate file does not match the manifest (hash mismatch); "
            "estimation must run on the exact file used for assignment"
        )
    spec = manifest["spec"]
    table = load_covariates(args.data, spec["roles"])
    partition = GroupPartition.from_json_dict(manifest["partition"])
    y, d_endog = _read_outcomes(args.outcomes, table.ids)
    estimand = args.estimand or spec.get("estimand", "sate")
    est_spec = estimand_by_name(estimand)
    frame = ExperimentFrame(covariates=table, d=manifest["d"], p=partition.p, y=y,
                            d_endog=d_endog)
    fit, adj = two_step_adjust(frame, partition, est_spec, w=table.w,
                               w_names=table.w_names)
    comp = variance_components(frame, partition, adj, fit, spec=est_spec)
    alpha = float(spec.get("alpha", 0.05))
    report = confidence_intervals(
        fit, adj, comp,
        flags={"estimand": estimand, "collapsed_strata": comp.used_collapsed,
               "draws_to_accept": manifest.get("draws_to_accept"),
               "accepted": manifest.get("accepted", True)},
        alpha=alpha,
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


def cmd_simulate(args):
    spec = _load_json(args.spec, "simulation spec")
    check_keys(spec, _SIM_KEYS, "simulation spec", _SIM_REQUIRED)
    replicates = args.replicates or int(spec.get("replicates", 1000))
    seed = args.seed if args.seed is not None else int(spec.get("seed", 0))
    # one worker process per CPU this process may use (at most one per
    # replicate) unless told otherwise; the results do not depend on the count
    threads = args.threads if args.threads is not None else spec.get("threads")
    if threads is None:
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    elif type(threads) is not int:
        raise ConfigError(f"simulation spec: threads must be an integer, got {threads!r}")
    dgp = DgpSpec(model=int(spec["model"]), dim_r=int(spec["dim_r"]),
                  n=int(spec["n"]), p=float(spec.get("p", 0.5)))
    wanted = spec.get("designs", ["C", "S", "SR"])
    available = {d.name: d for d in benchmark_designs(
        dgp.model, dgp.dim_r, accept_alpha=float(spec.get("accept_alpha", 1.0 / 500.0)))}
    unknown = [w for w in wanted if w not in available]
    if unknown:
        raise ConfigError(f"unknown designs {unknown}; available: {sorted(available)}")
    designs = [available[w] for w in wanted]
    result = run_monte_carlo(
        designs, dgp, replicates, seed,
        estimand=spec.get("estimand", "sate"),
        ci_alpha=float(spec.get("ci_alpha", 0.05)),
        threads=threads,
    )
    result.to_csv(args.out)
    manifest = {"spec": spec, "seed": seed, "replicates": replicates,
                "workers": result.workers, "failures": result.failures,
                "meta": result.meta}
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"wrote {args.out} ({replicates} replicates, {result.failures} failures)")
    return 0


def cmd_calibrate(args):
    _, seed, table, partition, region = _read_design(args)
    calibrated = calibrate_threshold(region, partition, table.h, args.alpha,
                                     RngSpec(seed, 2), draws=args.draws)
    doc = calibrated.to_dict()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    print(f"wrote {args.out}: {doc}")
    return 0


def build_parser():
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
    p_assign.add_argument("--seed", type=int)
    p_assign.set_defaults(func=cmd_assign)

    p_est = sub.add_parser("estimate", help="estimate effects from realized outcomes")
    p_est.add_argument("--manifest", required=True)
    p_est.add_argument("--data", required=True, help="covariates CSV used at assign time")
    p_est.add_argument("--outcomes", required=True, help="CSV with id,y[,d]")
    p_est.add_argument("--out", required=True)
    p_est.add_argument("--estimand", choices=["sate", "cate", "late", "clate"])
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo design comparison")
    p_sim.add_argument("--spec", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--replicates", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--threads", type=int)
    p_sim.set_defaults(func=cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="Monte Carlo calibration of a region threshold")
    p_cal.add_argument("--spec", required=True)
    p_cal.add_argument("--data", required=True)
    p_cal.add_argument("--out", required=True)
    p_cal.add_argument("--alpha", type=float, required=True)
    p_cal.add_argument("--draws", type=int, default=2000)
    p_cal.add_argument("--seed", type=int)
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
