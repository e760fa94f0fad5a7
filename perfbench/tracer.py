"""Run one ``finestrat`` CLI command with spans around its layer calls.

Usage: ``python3 perfbench/tracer.py SPANS_JSON <finestrat arguments...>``
with ``src`` on ``PYTHONPATH``. The wrappers replace the module attributes
that callers look up (``finestrat.cli.match_k_tuples``,
``finestrat.simulate.rerandomize``, ``finestrat.adjust.solve_gmm``, ...), so
the program itself is untouched. Each span records its name, start, end and
parent; the returned objects give the solver and design counts
(``AssignmentDraw.draw_index``, ``GmmFit.iterations``,
``AdjustmentFit.cond``, ``VarianceComponents.used_collapsed``). Spans stay
in memory and are written once, when the command returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

# (defining module, function name) -> span name; every module attribute
# bound to one of these functions is wrapped
TARGETS = {
    ("core", "load_covariates"): "core.load_covariates",
    ("stratify", "match_k_tuples"): "stratify.match_k_tuples",
    ("stratify", "pair_groups_by_centroid"): "stratify.pair_groups_by_centroid",
    ("randomize", "draw_stratified"): "randomize.draw_stratified",
    ("randomize", "draw_complete"): "randomize.draw_complete",
    ("rerandomize", "rerandomize"): "rerandomize.rerandomize",
    ("rerandomize", "calibrate_threshold"): "rerandomize.calibrate_threshold",
    ("gmm", "solve_gmm"): "gmm.solve_gmm",
    ("adjust", "two_step_adjust"): "adjust.two_step_adjust",
    ("adjust", "fit_adjustment"): "adjust.fit_adjustment",
    ("inference", "variance_components"): "inference.variance_components",
    ("inference", "confidence_intervals"): "inference.confidence_intervals",
    ("simulate", "generate_dgp"): "simulate.generate_dgp",
    ("simulate", "population_variances"): "simulate.population_variances",
    ("simulate", "assign_design"): "simulate.assign_design",
    ("simulate", "run_monte_carlo"): "simulate.run_monte_carlo",
    ("cli", "cmd_assign"): "cli.cmd_assign",
    ("cli", "cmd_estimate"): "cli.cmd_estimate",
    ("cli", "cmd_calibrate"): "cli.cmd_calibrate",
    ("cli", "cmd_simulate"): "cli.cmd_simulate",
}
MODULES = ("core", "stratify", "randomize", "rerandomize", "gmm", "adjust",
           "inference", "simulate", "cli")
# rerandomize and calibrate_threshold score stat-based regions in batches of
# this many candidate draws (the constant in finestrat.rerandomize)
STAT_BATCH = 512


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.obs = []  # (span name, {key: value}) from arguments and results

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self.stack.pop()
            self.obs.append((name, observe(name, args, kwargs, result)))
            return result

        return traced

    def install(self):
        mods = {m: importlib.import_module(f"finestrat.{m}") for m in MODULES}
        for (home, attr), name in TARGETS.items():
            fn = getattr(mods[home], attr)
            wrapped = self.wrap(name, fn)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)


def _threshold(region, d_h):
    """Acceptance threshold of the regions the benchmark uses."""
    if getattr(region, "eps2", None) is not None:
        return float(region.eps2)
    if getattr(region, "alpha", None) is not None:
        from scipy import stats
        return float(stats.chi2.ppf(region.alpha, df=d_h))
    return float(region.eps)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def observe(name, args, kwargs, result):
    """Counts taken from a traced call's arguments and returned object."""
    if name == "core.load_covariates":
        return {"rows": result.n}
    if name == "stratify.match_k_tuples":
        cfg = _arg(args, kwargs, 1, "cfg")
        n = result.n
        return {"homogeneity": result.homogeneity,
                "dist_bytes": n * n * 8 if cfg.method == "greedy-nn" else 0}
    if name == "stratify.pair_groups_by_centroid":
        g = result.n_groups
        return {"pairing_stat": result.pairing_stat, "dist_bytes": g * g * 8}
    if name in ("rerandomize.rerandomize", "rerandomize.calibrate_threshold"):
        if name == "rerandomize.rerandomize":
            partition, h, region = args[0], args[1], _arg(args, kwargs, 2, "region")
            draw = result[0] if isinstance(result, tuple) else result
            batch = STAT_BATCH
        else:
            region, partition, h = args[0], args[1], args[2]
            draws = int(kwargs.get("draws", args[5] if len(args) > 5 else 2000))
            batch = min(STAT_BATCH, draws)
        d_h = h.shape[1] if getattr(h, "ndim", 1) == 2 else 1
        out = {"batch_bytes": batch * partition.n_groups * partition.l * d_h * 8}
        if name == "rerandomize.calibrate_threshold":
            out["draws"] = draws
            out["threshold"] = _threshold(result, d_h)
            return out
        out.update(draws=draw.draw_index, accepted=bool(draw.accepted))
        if draw.accepted and region is not None and type(region).__name__ != "FullSpaceRegion":
            out["over_threshold"] = bool(draw.penalty > _threshold(region, d_h))
        return out
    if name == "gmm.solve_gmm":
        return {"iterations": result.iterations}
    if name == "adjust.fit_adjustment":
        return {"gram_cond": result.cond}
    if name == "inference.variance_components":
        return {"collapsed": bool(result.used_collapsed)}
    return {}


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from finestrat import cli

    try:
        code = cli.main(cli_args)
    finally:
        doc = {
            "spans": tracer.spans,
            "obs": [[n, {k: _jsonable(v) for k, v in o.items()}] for n, o in tracer.obs],
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
