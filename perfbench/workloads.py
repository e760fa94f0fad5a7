"""Inputs, CLI command chains and output checks of the benchmark workloads.

Every input is generated here from the workload seed; the program only sees
the files written. One *operation* is the command chain a user runs for the
workload: ``simulate``; ``assign`` then ``estimate``; or ``calibrate``.
Each operation checks its outputs and records sha256 digests and key values,
so a later change can show that its outputs are bit-identical.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

# two-sided tail of the binomial coverage bounds and of the draws-to-accept
# band; small, so a correct program fails a check about once in 10^6 runs
CHECK_TAIL = 1e-6

SIZES = {
    "full": {"sim_replicates": 100, "greedy_n": 8000, "pairs_n": 20000,
             "box_n": 10000, "box_draws": 10000},
    "tiny": {"sim_replicates": 100, "sim_n": 100, "greedy_n": 400,
             "pairs_n": 1000, "box_n": 1000, "box_draws": 512},
}


@dataclass
class OpResult:
    """One operation: its commands' resource use, checks and identity."""

    commands: dict = field(default_factory=dict)  # command name -> Cmd
    attempted: int = 0
    lost: int = 0  # exhausted draw budgets, failed replicates, commands not run
    problems: list = field(default_factory=list)  # nonzero exits, failed checks
    digests: dict = field(default_factory=dict)
    keys: dict = field(default_factory=dict)
    work: int = 0  # replicates or draws done, for the throughput figures

    @property
    def failed(self):
        """Failed operations: each lost one and each problem, at most all."""
        return min(self.attempted, self.lost + len(self.problems))


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def op_seed(seed, i):
    """Design/simulation seed of operation i, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0] % (2 ** 31))


def _write_csv(path, header, columns):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(v if isinstance(v, str) else repr(float(v)) for v in row))
            fh.write("\n")


def _json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def _run_ok(op, name, cmd):
    """Record a command; a nonzero exit is a problem."""
    op.commands[name] = cmd
    if cmd.code != 0:
        op.problems.append(f"{name} exited with code {cmd.code}: {cmd.stderr_tail}")
        return False
    return True


@contextlib.contextmanager
def _reading(op, what):
    """An output that cannot be read, or lacks a field, fails its check."""
    try:
        yield
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        op.problems.append(f"{what}: unreadable output ({type(exc).__name__}: {exc})")


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# design workloads: assign then estimate on generated covariates


class DesignWorkload:
    """``finestrat assign`` then ``estimate`` on n generated rows with a
    planted constant effect, so the sample effect equals it exactly."""

    rate = None

    def __init__(self, name, n, d_psi, d_h, method, accept_alpha):
        self.name = name
        self.n, self.d_psi, self.d_h = n, d_psi, d_h
        self.method = method
        self.accept_alpha = accept_alpha

    def sizes(self):
        # the dense greedy matcher holds an n x n float64 matrix: over units
        # for greedy-nn matching, over the n/2 group centroids for pairing
        g = self.n // 2
        dist_n = self.n if self.method == "greedy-nn" else g
        return {"n": self.n, "d_psi": self.d_psi, "d_h": self.d_h,
                "dist_bytes": dist_n ** 2 * 8,
                "batch_bytes": 512 * g * 1 * self.d_h * 8}

    def prepare(self, work, seed, root):
        gen = np.random.default_rng([seed, 1])
        n = self.n
        psi = gen.standard_normal((n, self.d_psi))
        h = 0.6 * psi[:, np.arange(self.d_h) % self.d_psi] \
            + 0.8 * gen.standard_normal((n, self.d_h))
        y0 = (psi[:, 0] + 0.5 * psi[:, -1] ** 2 + np.sin(h[:, 0])
              + h @ np.linspace(0.5, -0.5, self.d_h) + gen.standard_normal(n))
        self.tau = float(gen.uniform(0.5, 2.0))
        self.ids = [f"u{i:06d}" for i in range(n)]
        psi_names = [f"psi{j + 1}" for j in range(self.d_psi)]
        h_names = [f"h{j + 1}" for j in range(self.d_h)]
        self.data = os.path.join(work, "covariates.csv")
        _write_csv(self.data, ["id"] + psi_names + h_names,
                   [self.ids] + list(psi.T) + list(h.T))
        # outcomes y0 + tau * d are written per operation: d depends on its seed
        self.y0 = y0
        roles = {"id": "id"}
        roles.update({c: "psi" for c in psi_names})
        roles.update({c: ["h", "w"] for c in h_names})
        self.spec = os.path.join(work, "design.json")
        _json(self.spec, {
            "roles": roles, "k": 2, "l": 1,
            "match": {"method": self.method},
            "region": {"shape": "mahalanobis", "alpha": self.accept_alpha},
            "estimand": "sate",
            # interval level 1 - 1e-6: a correct interval misses the planted
            # effect about once in 10^6 runs
            "alpha": CHECK_TAIL,
            "max_draws": 100_000,
        })
        self.threshold = float(stats.chi2.ppf(self.accept_alpha, df=self.d_h))
        self.work = work

    def run(self, i, seed, runner):
        op = OpResult(attempted=2)
        w = self.work
        out = os.path.join(w, f"assign{i}.csv")
        manifest = out + ".manifest.json"
        cmd = runner(["assign", "--spec", self.spec, "--data", self.data,
                      "--out", out, "--seed", str(seed)], f"assign{i}")
        d = None
        if _run_ok(op, "assign", cmd):
            with _reading(op, "assign"):
                with open(manifest, encoding="utf-8") as fh:
                    d = self._check_assignment(op, out, json.load(fh))
        if d is None:
            op.lost += 1  # estimate cannot run
            return op
        outcomes = os.path.join(w, f"outcomes{i}.csv")
        _write_csv(outcomes, ["id", "y"], [self.ids, self.y0 + self.tau * d])
        report = os.path.join(w, f"report{i}.json")
        cmd = runner(["estimate", "--manifest", manifest, "--data", self.data,
                      "--outcomes", outcomes, "--out", report], f"estimate{i}")
        if _run_ok(op, "estimate", cmd):
            with _reading(op, "estimate"):
                self._check_report(op, report)
        return op

    def _check_assignment(self, op, path, man):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["id", "group", "d"] or len(rows) != self.n + 1:
            op.problems.append(f"assignment CSV has header {rows[0]} and {len(rows) - 1} rows")
            return None
        ids = [r[0] for r in rows[1:]]
        group = np.array([int(r[1]) for r in rows[1:]])
        d = np.array([int(r[2]) for r in rows[1:]], dtype=np.int8)
        part = man["partition"]
        k, l = part["k"], part["l"]
        if ids != self.ids:
            op.problems.append("assignment ids differ from the covariate ids")
        per_group = np.bincount(group, minlength=self.n // k)
        treated = np.bincount(group, weights=d, minlength=self.n // k)
        if (per_group != k).any() or (treated != l).any():
            op.problems.append(f"a group does not have exactly {k} units and {l} treated")
        groups = np.asarray(part["groups"])
        if not np.array_equal(group[groups], np.repeat(np.arange(groups.shape[0])[:, None], k, 1)):
            op.problems.append("manifest groups disagree with the assignment CSV")
        man_d = np.asarray(man["d"], dtype=np.int8)
        if not np.array_equal(man_d, d):
            op.problems.append("manifest d disagrees with the assignment CSV")
        if not man["accepted"]:
            op.lost += 1  # draw budget exhausted
        elif not man["penalty"] <= self.threshold:
            op.problems.append(f"accepted penalty {man['penalty']} > threshold {self.threshold}")
        op.digests["assignment_csv"] = sha256_file(path)
        op.digests["manifest_d"] = hashlib.sha256(man_d.tobytes()).hexdigest()
        op.keys.update(draws_to_accept=man["draws_to_accept"], penalty=man["penalty"],
                       homogeneity=part["homogeneity"], pairing_stat=part.get("pairing_stat"))
        return d

    def _check_report(self, op, path):
        op.digests["report_json"] = sha256_file(path)
        with open(path, encoding="utf-8") as fh:
            rep = json.load(fh)
        est = rep["theta_adj"][0]
        op.keys["theta_adj"] = est
        for kind in ("ci_fin", "ci_pop"):
            lo, hi = rep[kind][0]["lo"], rep[kind][0]["hi"]
            if not _finite(est, lo, hi):
                op.problems.append(f"{kind} interval ({lo}, {hi}) or estimate {est} not finite")
            elif not lo <= self.tau <= hi:
                op.problems.append(f"{kind} interval ({lo}, {hi}) misses the planted effect {self.tau}")


# ---------------------------------------------------------------------------
# Monte Carlo design comparison


class SimulateWorkload:
    """``finestrat simulate`` on the bundled Model 2 benchmark spec."""

    name = "sim-model2"
    rate = "reps_per_s"

    def __init__(self, replicates, n=None):
        self.replicates = replicates
        self.n = n

    def sizes(self):
        # design S matches greedily on all 5 columns; SR sorts on 1 and
        # balances the other 4; both pair the n/2 group centroids
        n = self.n or 300
        return {"n": n, "d_psi": 5, "d_h": 4, "replicates": self.replicates,
                "dist_bytes": n * n * 8, "batch_bytes": 512 * (n // 2) * 4 * 8}

    def prepare(self, work, seed, root):
        with open(os.path.join(root, "src", "finestrat", "specs",
                               "benchmark-model2-dim5.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        if self.n is not None:
            spec["n"] = self.n
        self.accept_alpha = spec["accept_alpha"]
        self.spec = os.path.join(work, "sim.json")
        _json(self.spec, spec)
        self.work = work

    def run(self, i, seed, runner):
        R = self.replicates
        op = OpResult(attempted=R, work=R)
        out = os.path.join(self.work, f"results{i}.csv")
        cmd = runner(["simulate", "--spec", self.spec, "--out", out,
                      "--replicates", str(R), "--seed", str(seed)], f"simulate{i}")
        if not _run_ok(op, "simulate", cmd):
            op.lost += R - 1
            return op
        if cmd.trace:  # exhausted draw budgets are visible only to the tracer
            op.lost += sum(not o["accepted"] for name, o in cmd.trace["obs"]
                           if name == "rerandomize.rerandomize")
        with _reading(op, "simulate"):
            op.digests["results_csv"] = sha256_file(out)
            with open(out + ".manifest.json", encoding="utf-8") as fh:
                failures = int(json.load(fh)["failures"])
            op.lost += failures
            with open(out, encoding="utf-8", newline="") as fh:
                self._check_rows(op, list(csv.DictReader(fh)), R - failures)
        return op

    def _check_rows(self, op, rows, reps):
        got = {(r["design"], r["estimator"]) for r in rows}
        want = {(d, e) for d in ("C", "S", "SR") for e in ("unadjusted", "adjusted")}
        if got != want or len(rows) != len(want):
            op.problems.append(f"simulate rows {sorted(got)}, expected {sorted(want)}")
            return
        lo = stats.binom.ppf(CHECK_TAIL / 2, reps, 0.95) / reps
        hi = stats.binom.isf(CHECK_TAIL / 2, reps, 0.95) / reps
        for r in rows:
            tag = f"{r['design']}/{r['estimator']}"
            values = [float(r[c]) for c in ("mse_ratio", "cover_pop", "cover_fin",
                                             "width_pop", "width_fin", "mean_draws")]
            if not _finite(*values):
                op.problems.append(f"{tag}: non-finite value in {values}")
                continue
            cover_pop, cover_fin = values[1], values[2]
            # the finite-population interval is conservative: no upper bound
            if not lo <= cover_pop <= hi or not cover_fin >= lo:
                op.problems.append(f"{tag}: coverage pop {cover_pop} fin {cover_fin} "
                                   f"outside binomial bounds [{lo:.3f}, {hi:.3f}]")
            op.keys[f"mse_ratio.{tag}"] = values[0]
        sr = float(next(r for r in rows if r["design"] == "SR")["mean_draws"])
        expect = 1.0 / self.accept_alpha
        # draws to accept are geometric with mean about 1/alpha (Morgan & Rubin 2012)
        band = stats.norm.isf(CHECK_TAIL / 2) * math.sqrt(1.0 - self.accept_alpha) \
            / self.accept_alpha / math.sqrt(reps)
        if abs(sr - expect) > band:
            op.problems.append(f"SR mean draws {sr} not within {band:.0f} of 1/alpha = {expect:.0f}")
        op.keys["sr_mean_draws"] = sr


# ---------------------------------------------------------------------------
# threshold calibration


class CalibrateWorkload:
    """``finestrat calibrate`` with a box (rectangle-polar) region and a
    fixed draw count, so the work does not depend on the RNG stream."""

    name = "calibrate-box-10k"
    rate = "draws_per_s"
    d_h = 5

    def __init__(self, n, draws):
        self.n, self.draws = n, draws

    def sizes(self):
        g = self.n // 2
        return {"n": self.n, "d_psi": 1, "d_h": self.d_h, "draws": self.draws,
                "dist_bytes": g ** 2 * 8,
                "batch_bytes": min(512, self.draws) * g * self.d_h * 8}

    def prepare(self, work, seed, root):
        gen = np.random.default_rng([seed, 2])
        psi = gen.standard_normal(self.n)
        h = 0.5 * psi[:, None] + gen.standard_normal((self.n, self.d_h))
        names = [f"h{j + 1}" for j in range(self.d_h)]
        self.data = os.path.join(work, "covariates.csv")
        _write_csv(self.data, ["id", "psi"] + names,
                   [[f"u{i:06d}" for i in range(self.n)], psi] + list(h.T))
        roles = {"id": "id", "psi": "psi"}
        roles.update({c: "h" for c in names})
        a = gen.uniform(-1.0, 1.0, self.d_h)
        self.spec = os.path.join(work, "design.json")
        _json(self.spec, {
            "roles": roles, "k": 2, "l": 1, "match": {"method": "sorted-1d"},
            "region": {"shape": "rectangle-polar", "a": a.tolist(),
                       "b": (a + gen.uniform(0.2, 2.0, self.d_h)).tolist(), "eps": 1.0},
        })
        self.work = work

    def run(self, i, seed, runner):
        op = OpResult(attempted=1, work=self.draws)
        out = os.path.join(self.work, f"region{i}.json")
        cmd = runner(["calibrate", "--spec", self.spec, "--data", self.data, "--out", out,
                      "--alpha", "0.01", "--draws", str(self.draws), "--seed", str(seed)],
                     f"calibrate{i}")
        if _run_ok(op, "calibrate", cmd):
            with _reading(op, "calibrate"):
                op.digests["region_json"] = sha256_file(out)
                with open(out, encoding="utf-8") as fh:
                    region = json.load(fh)
                eps = op.keys["threshold"] = region["eps"]
                if region["shape"] != "rectangle-polar" or not _finite(eps) or eps <= 0:
                    op.problems.append(f"calibrated region {region} has no finite positive "
                                       "threshold")
        return op


def make(name, scale):
    s = SIZES[scale]
    if name == "sim-model2":
        return SimulateWorkload(s["sim_replicates"], s.get("sim_n"))
    if name == "assign-greedy-8k":
        return DesignWorkload(name, s["greedy_n"], 3, 4, "greedy-nn", 1.0 / 500.0)
    if name == "assign-pairs-20k":
        # alpha 1/50: P(no accept among the first 512 draws) = 0.98^512 ~ 3e-5,
        # so accept/reject is one 512-draw batch whatever the RNG stream
        return DesignWorkload(name, s["pairs_n"], 1, 5, "sorted-1d", 1.0 / 50.0)
    if name == "calibrate-box-10k":
        return CalibrateWorkload(s["box_n"], s["box_draws"])
    raise KeyError(name)


NAMES = ("sim-model2", "assign-greedy-8k", "assign-pairs-20k", "calibrate-box-10k")
