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
import sys

import numpy as np

from . import __version__
from .adjust import two_step_adjust
from .core import (
    ConfigError,
    ExperimentFrame,
    FinestratError,
    GroupPartition,
    LoadError,
    RngSpec,
    load_covariates,
)
from .gmm import estimand_by_name
from .inference import confidence_intervals, variance_components
from .rerandomize import calibrate_threshold, region_from_dict, rerandomize
from .simulate import DgpSpec, run_monte_carlo, benchmark_designs
from .stratify import MatchConfig, design_partition

_DESIGN_KEYS = {"roles", "k", "l", "match", "region", "estimand", "alpha",
                "seed", "max_draws"}
_MATCH_KEYS = {"method", "weights"}
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


def _check_keys(doc, allowed, what):
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{what} has unknown keys {sorted(unknown)}")


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
    _check_keys(spec, _DESIGN_KEYS, "design spec")
    for key in ("roles", "k", "l"):
        if key not in spec:
            raise ConfigError(f"design spec is missing required key '{key}'")
    match = spec.get("match", {})
    _check_keys(match, _MATCH_KEYS, "match block")
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
    result = rerandomize(partition, table.h, region, RngSpec(seed, 1),
                         max_draws=max_draws, keep_trace=args.trace is not None)
    draw, trace = result if args.trace is not None else (result, None)

    group_of = partition.group_of()
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "group", "d"])
        for i in range(table.n):
            writer.writerow([table.ids[i], int(group_of[i]), int(draw.d[i])])
    if trace is not None:
        with open(args.trace, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["draw_index", "penalty", "accepted"])
            writer.writerows(trace)

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
        json.dump(manifest, fh, indent=2)
    if not draw.accepted:
        print(
            f"warning: acceptance region not reached in {max_draws} draws; "
            f"using best draw (penalty {draw.penalty:.4g})",
            file=sys.stderr,
        )
    print(f"wrote {args.out} and {manifest_path} (draws to accept: {draw.draw_index})")
    return 0


def _read_outcomes(path, ids):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise LoadError("outcomes file is empty")
        header = [c.strip() for c in header]
        if "id" not in header or "y" not in header:
            raise LoadError("outcomes file needs 'id' and 'y' columns")
        idx_id = header.index("id")
        idx_y = header.index("y")
        idx_d = header.index("d") if "d" in header else None
        y_map = {}
        d_map = {}
        id_row = {}
        for r, record in enumerate(reader, start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if len(record) < len(header):
                raise LoadError(
                    f"outcomes row {r} has {len(record)} fields, expected {len(header)}")
            key = record[idx_id].strip()
            first = id_row.setdefault(key, r)
            if first != r:
                raise LoadError(f"duplicate id {key!r} in outcomes at rows {first} and {r}")
            try:
                y_map[key] = float(record[idx_y])
                if idx_d is not None:
                    d_map[key] = float(record[idx_d])
            except ValueError:
                raise LoadError(f"non-numeric outcome at row {r}") from None
    y = np.empty(len(ids))
    d_endog = np.empty(len(ids)) if d_map else None
    for i, uid in enumerate(ids):
        key = str(uid)
        if key not in y_map:
            raise LoadError(f"outcomes file is missing id {key!r}")
        y[i] = y_map[key]
        if d_endog is not None:
            d_endog[i] = d_map[key]
    return y, d_endog


def cmd_estimate(args):
    manifest = _load_json(args.manifest, "design manifest")
    digest = _sha256(args.data)
    if digest != manifest["covariates_sha256"]:
        raise ConfigError(
            "covariate file does not match the manifest (hash mismatch); "
            "estimation must run on the exact file used for assignment"
        )
    spec = manifest["spec"]
    table = load_covariates(args.data, spec["roles"])
    partition = GroupPartition.from_json_dict(manifest["partition"])
    d = np.asarray(manifest["d"], dtype=np.int8)
    y, d_endog = _read_outcomes(args.outcomes, table.ids)
    estimand = args.estimand or spec.get("estimand", "sate")
    est_spec = estimand_by_name(estimand)
    p = partition.l / partition.k if partition.k != partition.n else float(d.mean())
    frame = ExperimentFrame(covariates=table, d=d, p=p, y=y, d_endog=d_endog)
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
    _check_keys(spec, _SIM_KEYS, "simulation spec")
    replicates = args.replicates or int(spec.get("replicates", 1000))
    seed = args.seed if args.seed is not None else int(spec.get("seed", 0))
    threads = args.threads or int(spec.get("threads", 1))
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
                "failures": result.failures, "meta": result.meta}
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
