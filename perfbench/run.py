"""finestrat benchmark: drive the CLI the way users do and report metrics.

Run from the root of a finestrat checkout (the program is taken from
``src/``, nothing is installed)::

    python3 perfbench/run.py --workload assign-greedy-8k --seed 1 --seconds 20 --trace 0

Closed loop, one client: one CLI command at a time, each in a fresh
interpreter, the next only after the previous one has ended. The workload's
inputs come from ``--seed``; operation i uses a design/simulation seed
derived from (seed, i). Operations are started while the elapsed time plus
the mean operation time fits in ``--seconds`` (at least ``MIN_OPS`` of them).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
operation once untraced and once under ``perfbench/tracer.py`` and reports
the per-layer metrics. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the workload's named metrics and provenance. The full record (every
operation's timings, digests, key values and failed checks) is written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_OPS = 3


# what the installed ``finestrat`` console script does, plus a timestamp on
# the system-wide monotonic clock once the imports are done
LAUNCH = ("import sys, time\n"
          "from finestrat.cli import main\n"
          "with open(sys.argv[1], 'w') as fh: fh.write(repr(time.perf_counter()))\n"
          "sys.exit(main(sys.argv[2:]))\n")


@dataclass
class Cmd:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    setup: float | None = None
    stderr_tail: str = ""
    trace: dict | None = None


class Runner:
    """Starts CLI commands in fresh interpreters and measures each one."""

    def __init__(self, root, work, traced):
        self.work = work
        self.traced = traced
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    def __call__(self, cli_args, tag):
        """Run one CLI command to completion. Wall clock, CPU (user +
        system, its children included) and peak RSS come from wait4 on that
        process; setup is spawn until the imports were ready."""
        base = os.path.join(self.work, tag)
        if self.traced:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), base + ".spans.json"]
        else:
            argv = [sys.executable, "-c", LAUNCH, base + ".ready"]
        with open(base + ".log", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv + list(cli_args), env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        cmd = Cmd(wall=wall, cpu=ru.ru_utime + ru.ru_stime, rss_mb=ru.ru_maxrss / 1024.0,
                  code=code, stderr_tail=_pop(base + ".log")[-400:].strip())
        ready = _pop(base + ".ready")
        if ready:
            cmd.setup = float(ready) - t0
        spans = _pop(base + ".spans.json")
        if spans:
            cmd.trace = json.loads(spans)
        return cmd


def _pop(path):
    """Contents of a file the child wrote (empty if none), then remove it."""
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except FileNotFoundError:
        return ""
    os.remove(path)
    return text


# ---------------------------------------------------------------------------
# per-layer metrics from the tracer's spans

SPAN_METRICS = {  # metric -> span whose self time it sums
    "stratify.match_k_tuples.s": "stratify.match_k_tuples",
    "stratify.pair_groups_by_centroid.s": "stratify.pair_groups_by_centroid",
    "rerandomize.rerandomize.s": "rerandomize.rerandomize",
    "rerandomize.calibrate_threshold.s": "rerandomize.calibrate_threshold",
    "randomize.draw_stratified.s": "randomize.draw_stratified",
    "randomize.draw_complete.s": "randomize.draw_complete",
    "core.load_covariates.s": "core.load_covariates",
    "gmm.solve_gmm.s": "gmm.solve_gmm",
    "adjust.two_step_adjust.s": "adjust.two_step_adjust",
    "adjust.fit_adjustment.s": "adjust.fit_adjustment",
    "inference.variance_components.s": "inference.variance_components",
    "inference.confidence_intervals.s": "inference.confidence_intervals",
    "simulate.generate_dgp.s": "simulate.generate_dgp",
    "simulate.population_variances.s": "simulate.population_variances",
    "simulate.assign_design.s": "simulate.assign_design",
    "simulate.run_monte_carlo.self_s": "simulate.run_monte_carlo",
    "cli.cmd_assign.self_s": "cli.cmd_assign",
    "cli.cmd_estimate.self_s": "cli.cmd_estimate",
    "cli.cmd_calibrate.self_s": "cli.cmd_calibrate",
    "cli.cmd_simulate.self_s": "cli.cmd_simulate",
}
COUNT_METRICS = {  # metric -> unit
    "stratify.match_k_tuples.calls": "count",
    "stratify.dist_bytes": "B",
    "stratify.homogeneity": "1",
    "stratify.pairing_stat": "1",
    "rerandomize.draws": "count",
    "rerandomize.draws_per_accept": "count",
    "rerandomize.exhausted": "count",
    "rerandomize.batch_bytes": "B",
    "core.load_covariates.rows_per_s": "1/s",
    "gmm.newton_iters": "count",
    "adjust.gram_cond": "1",
    "inference.collapsed_share": "ratio",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}
PER_LAYER_UNITS = {**{m: "s" for m in SPAN_METRICS}, **COUNT_METRICS}


def _mean(values):
    """Mean of the recorded values; non-finite ones were recorded as None."""
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else 0.0


def layer_metrics(op):
    """Per-layer values of one traced operation (all its commands)."""
    self_s = {}
    obs = {}
    calls = {}
    covered = 0.0
    wall = 0.0
    for cmd in op.commands.values():
        wall += cmd.wall
        spans = cmd.trace["spans"] if cmd.trace else []
        own = [s[2] - s[1] for s in spans]
        for s, dur in zip(spans, own):
            if s[3] >= 0:
                own[s[3]] -= dur
            else:
                covered += dur
        for s, dur in zip(spans, own):
            self_s[s[0]] = self_s.get(s[0], 0.0) + dur
            calls[s[0]] = calls.get(s[0], 0) + 1
        for name, values in (cmd.trace["obs"] if cmd.trace else []):
            for key, value in values.items():
                obs.setdefault(f"{name}.{key}", []).append(value)
    m = {metric: self_s.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
    rerand_draws = obs.get("rerandomize.rerandomize.draws", [])
    accepted = obs.get("rerandomize.rerandomize.accepted", [])
    load_s = self_s.get("core.load_covariates", 0.0)
    collapsed = obs.get("inference.variance_components.collapsed", [])
    m.update({
        "stratify.match_k_tuples.calls": calls.get("stratify.match_k_tuples", 0),
        "stratify.dist_bytes": max(obs.get("stratify.match_k_tuples.dist_bytes", [])
                                   + obs.get("stratify.pair_groups_by_centroid.dist_bytes", [])
                                   + [0]),
        "stratify.homogeneity": _mean(obs.get("stratify.match_k_tuples.homogeneity", [])),
        "stratify.pairing_stat": _mean(obs.get("stratify.pair_groups_by_centroid.pairing_stat", [])),
        "rerandomize.draws": sum(rerand_draws)
        + sum(obs.get("rerandomize.calibrate_threshold.draws", [])),
        "rerandomize.draws_per_accept": (sum(d for d, a in zip(rerand_draws, accepted) if a)
                                         / max(sum(accepted), 1)),
        "rerandomize.exhausted": sum(not a for a in accepted),
        "rerandomize.batch_bytes": max(obs.get("rerandomize.rerandomize.batch_bytes", [])
                                       + obs.get("rerandomize.calibrate_threshold.batch_bytes", [])
                                       + [0]),
        "core.load_covariates.rows_per_s": (sum(obs.get("core.load_covariates.rows", []))
                                            / load_s if load_s > 0 else 0.0),
        "gmm.newton_iters": _mean(obs.get("gmm.solve_gmm.iterations", [])),
        "adjust.gram_cond": _mean(obs.get("adjust.fit_adjustment.gram_cond", [])),
        "inference.collapsed_share": _mean([float(c) for c in collapsed]),
        "trace.uncovered_s": wall - covered,
    })
    over = sum(obs.get("rerandomize.rerandomize.over_threshold", []))
    problems = [f"{over} accepted draws with penalty above the threshold"] if over else []
    return m, problems


# ---------------------------------------------------------------------------
# provenance


def blas_info():
    import numpy as np

    cfg = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": cfg.get("name"), "version": cfg.get("version"), "threads": None,
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS") if k in os.environ}}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                info["threads"] = int(fn())
                return info
    return info


def provenance(root, args, sizes):
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "git_commit": commit, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_info(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "platform": platform.platform(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "sizes": sizes,
    }


# ---------------------------------------------------------------------------


E2E_UNITS = {"op_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def median(values):
    return statistics.median(values) if values else 0.0


def total(op, attr):
    """Sum of a measurement over the operation's commands."""
    return sum(getattr(c, attr) for c in op.commands.values())


def named_metrics(wl, ops):
    """The workload's figures under the names users know them by: the
    end-to-end metrics, each command's wall time (``assign_s``, ...), the
    workload's throughput (``reps_per_s``, ``draws_per_s``) and
    ``failed_share``."""
    cmds = [c for op in ops for c in op.commands.values()]
    out = {"op_s": median([total(op, "wall") for op in ops]),
           "cpu_s": median([total(op, "cpu") for op in ops]),
           "peak_rss_mb": max(c.rss_mb for c in cmds),
           "setup_s": median([c.setup for c in cmds if c.setup is not None]),
           "failed_share": sum(op.failed for op in ops) / sum(op.attempted for op in ops)}
    for name in dict.fromkeys(k for op in ops for k in op.commands):
        out[f"{name}_s"] = median([op.commands[name].wall for op in ops if name in op.commands])
    if wl.rate:
        out[wl.rate] = median([op.work / total(op, "wall") for op in ops])
    return out


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the schema check only")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "finestrat", "cli.py")):
        print("error: run from the root of a finestrat checkout (src/finestrat/cli.py "
              "not found)", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, root, work, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root, work, workloads):
    wl = workloads.make(args.workload, args.scale)
    plain = Runner(root, work, traced=False)
    traced = Runner(root, work, traced=True)
    wl.prepare(work, args.seed, root)

    ops, traced_ops = [], []
    t0 = time.perf_counter()
    while True:
        i = len(ops)
        seed = workloads.op_seed(args.seed, i)
        ops.append(wl.run(i, seed, plain))
        if args.trace:
            traced_ops.append(wl.run(i, seed, traced))
        elapsed = time.perf_counter() - t0
        if len(ops) >= MIN_OPS and elapsed * (len(ops) + 1) / len(ops) > args.seconds:
            break

    per_op = []
    for op in traced_ops:
        values, extra = layer_metrics(op)
        per_op.append(values)
        op.problems += extra
    every = ops + traced_ops
    attempted = sum(op.attempted for op in every)
    failed = sum(op.failed for op in every)
    problems = [p for op in every for p in op.problems]
    named = named_metrics(wl, ops)
    if args.trace:
        metrics = {m: median([v[m] for v in per_op]) for m in per_op[0]}
        metrics["trace.overhead_s"] = (median([total(op, "wall") for op in traced_ops])
                                       - named["op_s"])
        units = PER_LAYER_UNITS
    else:
        metrics = {m: named[m] for m in E2E_UNITS}
        units = E2E_UNITS

    prov = provenance(root, args, wl.sizes())
    record = {
        "provenance": prov, "named": named, "metrics": metrics, "problems": problems,
        "ops": [{"seed": workloads.op_seed(args.seed, i), "attempted": op.attempted,
                 "failed": op.failed, "digests": op.digests, "keys": op.keys,
                 "commands": {k: {"wall": c.wall, "cpu": c.cpu, "rss_mb": c.rss_mb,
                                  "setup": c.setup, "code": c.code}
                              for k, c in op.commands.items()}}
                for i, op in enumerate(ops)],
        "layers": per_op,
    }
    results = os.path.join(root, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, os.path.basename(work) + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, default=str)

    print("provenance " + json.dumps(prov, default=str))
    print("identity " + json.dumps({"digests": ops[0].digests, "keys": ops[0].keys}))
    for name, value in named.items():
        print(f"{args.workload:18s} {name:14s} {value:.6g}")
    for p in problems[:20]:
        print(f"check failed: {p}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
