import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from finestrat.cli import main


@pytest.fixture
def workspace(tmp_path):
    gen = np.random.default_rng(0)
    n = 100
    rows = np.column_stack([
        gen.standard_normal(n),              # baseline
        gen.standard_normal(n),              # age-like
        gen.standard_normal(n),              # income-like
    ])
    cov = tmp_path / "cov.csv"
    with open(cov, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["baseline", "xa", "xb"])
        writer.writerows(rows.tolist())
    spec = {
        "roles": {"baseline": "psi", "xa": ["h", "w"], "xb": ["h", "w"]},
        "k": 2,
        "l": 1,
        "region": {"shape": "mahalanobis", "alpha": 0.01},
        "estimand": "sate",
        "seed": 11,
        "max_draws": 100000,
    }
    spec_path = tmp_path / "design.json"
    spec_path.write_text(json.dumps(spec))
    return tmp_path, cov, spec_path, rows


def test_assign_writes_groups_and_manifest(workspace, capsys):
    tmp_path, cov, spec_path, _ = workspace
    out = tmp_path / "assign.csv"
    rc = main(["assign", "--spec", str(spec_path), "--data", str(cov),
               "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100
    assert sum(int(r["d"]) for r in rows) == 50
    assert len({r["group"] for r in rows}) == 50
    text = (tmp_path / "assign.csv.manifest.json").read_text()
    assert text.count("\n") < 10  # n-long arrays are not written one element a line
    manifest = json.loads(text)
    assert manifest["accepted"] is True
    assert manifest["draws_to_accept"] >= 1
    assert manifest["partition"]["homogeneity"] >= 0.0


def test_assign_full_space_accepts_first(workspace):
    tmp_path, cov, spec_path, _ = workspace
    spec = json.loads(spec_path.read_text())
    spec["region"] = {"shape": "none"}
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "assign.csv"
    assert main(["assign", "--spec", str(spec_path), "--data", str(cov),
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "assign.csv.manifest.json").read_text())
    assert manifest["draws_to_accept"] == 1


def test_assign_malformed_json_exit_2(workspace):
    tmp_path, cov, spec_path, _ = workspace
    spec_path.write_text("{not json")
    rc = main(["assign", "--spec", str(spec_path), "--data", str(cov),
               "--out", str(tmp_path / "assign.csv")])
    assert rc == 2


def test_assign_unknown_key_exit_2(workspace):
    tmp_path, cov, spec_path, _ = workspace
    spec = json.loads(spec_path.read_text())
    spec["surprise"] = 1
    spec_path.write_text(json.dumps(spec))
    rc = main(["assign", "--spec", str(spec_path), "--data", str(cov),
               "--out", str(tmp_path / "assign.csv")])
    assert rc == 2


def test_estimate_constant_effect(workspace):
    tmp_path, cov, spec_path, rows = workspace
    out = tmp_path / "assign.csv"
    main(["assign", "--spec", str(spec_path), "--data", str(cov), "--out", str(out)])
    with open(out) as fh:
        assign = list(csv.DictReader(fh))
    outcomes = tmp_path / "y.csv"
    with open(outcomes, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "y"])
        for r in assign:
            writer.writerow([r["id"], 3.25 if r["d"] == "1" else 1.0])
    report_path = tmp_path / "report.json"
    rc = main(["estimate", "--manifest", str(tmp_path / "assign.csv.manifest.json"),
               "--data", str(cov), "--outcomes", str(outcomes),
               "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["theta_hat"][0] == pytest.approx(2.25)
    assert set(report) >= {"theta_hat", "theta_adj", "ci_fin", "ci_pop",
                           "variance", "flags", "adjustment"}
    lo, hi = report["ci_fin"][0]["lo"], report["ci_fin"][0]["hi"]
    assert lo <= report["theta_adj"][0] <= hi


def test_estimate_rejects_mutated_covariates(workspace):
    tmp_path, cov, spec_path, _ = workspace
    out = tmp_path / "assign.csv"
    main(["assign", "--spec", str(spec_path), "--data", str(cov), "--out", str(out)])
    with open(cov, "a") as fh:
        fh.write("0.0,0.0,0.0\n")
    outcomes = tmp_path / "y.csv"
    outcomes.write_text("id,y\n0,1.0\n")
    rc = main(["estimate", "--manifest", str(tmp_path / "assign.csv.manifest.json"),
               "--data", str(cov), "--outcomes", str(outcomes),
               "--out", str(tmp_path / "report.json")])
    assert rc == 2


def test_simulate_smoke_and_seed_stability(tmp_path):
    spec = {"model": 2, "dim_r": 3, "n": 60, "replicates": 100, "seed": 7,
            "designs": ["C", "SR"], "estimand": "sate", "accept_alpha": 0.1}
    spec_path = tmp_path / "sim.json"
    spec_path.write_text(json.dumps(spec))
    out1 = tmp_path / "res1.csv"
    out2 = tmp_path / "res2.csv"
    assert main(["simulate", "--spec", str(spec_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--spec", str(spec_path), "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    with open(out1) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["design"] for r in rows} == {"C", "SR"}


def test_simulate_default_workers_match_serial(tmp_path):
    # the default runs one worker per usable CPU; only the recorded worker
    # count may differ from a serial run
    spec = {"model": 2, "dim_r": 3, "n": 60, "replicates": 100, "seed": 7,
            "designs": ["C", "SR"], "estimand": "sate", "accept_alpha": 0.1}
    spec_path = tmp_path / "sim.json"
    spec_path.write_text(json.dumps(spec))
    default, serial = tmp_path / "default.csv", tmp_path / "serial.csv"
    assert main(["simulate", "--spec", str(spec_path), "--out", str(default)]) == 0
    assert main(["simulate", "--spec", str(spec_path), "--out", str(serial),
                 "--threads", "1"]) == 0
    assert default.read_bytes() == serial.read_bytes()
    manifests = [json.loads(Path(str(out) + ".manifest.json").read_text())
                 for out in (default, serial)]
    assert manifests[0].pop("workers") == min(100, len(os.sched_getaffinity(0)))
    assert manifests[1].pop("workers") == 1
    assert manifests[0] == manifests[1]
    assert manifests[0]["meta"]["failure_reasons"] == {}


@pytest.mark.parametrize("flag, value", [("--threads", 0), ("--threads", -2),
                                         ("spec", 0), ("spec", 1.5)])
def test_simulate_rejects_bad_thread_count(tmp_path, capsys, flag, value):
    spec = {"model": 2, "dim_r": 3, "n": 60, "replicates": 100}
    argv = ["simulate", "--spec", str(tmp_path / "sim.json"), "--out", str(tmp_path / "r.csv")]
    if flag == "spec":
        spec["threads"] = value
    else:
        argv += [flag, str(value)]
    (tmp_path / "sim.json").write_text(json.dumps(spec))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "threads must be" in err and f"got {value}" in err
    assert not (tmp_path / "r.csv").exists()


def test_calibrate_writes_threshold(workspace, capsys):
    tmp_path, cov, spec_path, _ = workspace
    spec = json.loads(spec_path.read_text())
    spec["region"] = {"shape": "ball", "dim": 2, "eps": 1.0}
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "region.json"
    rc = main(["calibrate", "--spec", str(spec_path), "--data", str(cov),
               "--out", str(out), "--alpha", "0.2", "--draws", "1000"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["shape"] == "ball" or doc["shape"] == "polar"
    assert doc["eps"] > 0
    # a spec without a region has no threshold to calibrate
    del spec["region"]
    spec_path.write_text(json.dumps(spec))
    rc = main(["calibrate", "--spec", str(spec_path), "--data", str(cov),
               "--out", str(out), "--alpha", "0.2", "--draws", "1000"])
    assert rc == 2
    # the required keys are checked as in assign
    del spec["k"]
    spec_path.write_text(json.dumps(spec))
    capsys.readouterr()
    rc = main(["calibrate", "--spec", str(spec_path), "--data", str(cov),
               "--out", str(out), "--alpha", "0.2", "--draws", "1000"])
    assert rc == 2
    assert "missing required key 'k'" in capsys.readouterr().err


@pytest.mark.parametrize("draws", ["0", "-5"])
def test_calibrate_without_draws_exit_2(workspace, capsys, draws):
    tmp_path, cov, spec_path, _ = workspace
    spec = json.loads(spec_path.read_text())
    spec["region"] = {"shape": "ball", "dim": 2, "eps": 1.0}
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "region.json"
    rc = main(["calibrate", "--spec", str(spec_path), "--data", str(cov),
               "--out", str(out), "--alpha", "0.2", "--draws", draws])
    assert rc == 2
    assert "draws must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_odd_group_count_exit_2_without_output(workspace, capsys):
    # 100 units in groups of 4 with one treated: 25 groups cannot be paired
    tmp_path, cov, spec_path, _ = workspace
    spec = json.loads(spec_path.read_text())
    spec["k"] = 4
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out.csv"
    for cmd in (["assign"], ["calibrate", "--alpha", "0.2"]):
        rc = main(cmd + ["--spec", str(spec_path), "--data", str(cov), "--out", str(out)])
        assert rc == 2
        assert "odd number of groups (25)" in capsys.readouterr().err
        assert not list(tmp_path.glob("out.csv*"))


@pytest.mark.parametrize("alpha,message", [
    (0.0, "pilot-wald alpha must lie in (0, 1), got 0.0"),
    (1.0, "pilot-wald alpha must lie in (0, 1), got 1.0"),
    (1.5, "pilot-wald alpha must lie in (0, 1), got 1.5"),
    (-0.2, "pilot-wald alpha must lie in (0, 1), got -0.2"),
    (1e-17, "pilot-wald alpha 1e-17 too close to 0"),
])
def test_pilot_wald_alpha_outside_unit_interval_exit_2(workspace, capsys, alpha, message):
    # 0, 1.5, -0.2 and 1e-17 (1 - alpha rounds to 1) used to end in an SVD
    # traceback, and 1 in a singularity error
    tmp_path, cov, spec_path, _ = workspace
    spec = json.loads(spec_path.read_text())
    spec["region"] = {"shape": "pilot-wald", "gamma_pilot": [0.5, 0.0],
                      "sigma_pilot": [[1, 0], [0, 1]], "m": 50, "alpha": alpha, "eps": 1.0}
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out.csv"
    rc = main(["assign", "--spec", str(spec_path), "--data", str(cov), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("out.csv*"))


def test_assign_estimate_without_psi(workspace):
    # no psi role: complete randomization, one group of all units
    tmp_path, cov, spec_path, _ = workspace
    spec = json.loads(spec_path.read_text())
    del spec["roles"]["baseline"]
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "assign.csv"
    assert main(["assign", "--spec", str(spec_path), "--data", str(cov),
                 "--out", str(out)]) == 0
    with open(out) as fh:
        assign = list(csv.DictReader(fh))
    assert {r["group"] for r in assign} == {"0"}
    assert sum(int(r["d"]) for r in assign) == 50
    outcomes = tmp_path / "y.csv"
    with open(outcomes, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "y"])
        for r in assign:
            writer.writerow([r["id"], 3.25 if r["d"] == "1" else 1.0])
    report_path = tmp_path / "report.json"
    assert main(["estimate", "--manifest", str(out) + ".manifest.json", "--data", str(cov),
                 "--outcomes", str(outcomes), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["theta_hat"][0] == pytest.approx(2.25)
    assert report["flags"]["collapsed_strata"] is False


def test_simulate_failures_exit_1_with_message(tmp_path, capsys):
    # four units cannot identify five adjustment coefficients: most
    # replicates fail, and the run reports it instead of a traceback
    spec = {"model": 2, "dim_r": 5, "n": 4, "replicates": 100, "designs": ["C"]}
    spec_path = tmp_path / "sim.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "of 100 replicates failed" in err
    # an odd group count is a design error: exit 2 at the first replicate
    spec.update(n=6, designs=["S"])
    spec_path.write_text(json.dumps(spec))
    assert main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "r.csv")]) == 2
    assert "odd number of groups (3)" in capsys.readouterr().err


def test_bundled_benchmark_spec_parses():
    from importlib import resources

    text = resources.files("finestrat").joinpath("specs/benchmark-model2-dim5.json").read_text()
    spec = json.loads(text)
    assert spec["model"] == 2 and spec["dim_r"] == 5 and spec["n"] == 300
    assert spec["replicates"] == 2000


def test_estimate_late_degenerate_compliance_surfaces_error(workspace):
    tmp_path, cov, spec_path, _ = workspace
    spec = json.loads(spec_path.read_text())
    spec["estimand"] = "late"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "assign.csv"
    main(["assign", "--spec", str(spec_path), "--data", str(cov), "--out", str(out)])
    with open(out) as fh:
        assign = list(csv.DictReader(fh))
    outcomes = tmp_path / "y.csv"
    with open(outcomes, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "y", "d"])
        for r in assign:
            writer.writerow([r["id"], 1.0, 0])  # zero compliers
    rc = main(["estimate", "--manifest", str(tmp_path / "assign.csv.manifest.json"),
               "--data", str(cov), "--outcomes", str(outcomes),
               "--out", str(tmp_path / "report.json")])
    assert rc == 1  # singular-Jacobian estimation error surfaced


def test_estimate_cate_with_x_roles(tmp_path):
    gen = np.random.default_rng(5)
    n = 80
    data = np.column_stack([gen.standard_normal(n), gen.standard_normal(n),
                            np.ones(n), gen.standard_normal(n)])
    cov = tmp_path / "cov.csv"
    with open(cov, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["base", "covar", "const", "het"])
        writer.writerows(data.tolist())
    spec = {
        "roles": {"base": "psi", "covar": ["h", "w"], "const": "x", "het": "x"},
        "k": 2, "l": 1, "region": {"shape": "none"},
        "estimand": "cate", "seed": 3,
    }
    spec_path = tmp_path / "design.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "assign.csv"
    assert main(["assign", "--spec", str(spec_path), "--data", str(cov),
                 "--out", str(out)]) == 0
    with open(out) as fh:
        assign = list(csv.DictReader(fh))
    het = data[:, 3]
    outcomes = tmp_path / "y.csv"
    with open(outcomes, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "y"])
        for i, r in enumerate(assign):
            # treatment effect 2 + het slope 1 on treated outcomes
            y = (2.0 + het[i]) if r["d"] == "1" else 0.0
            writer.writerow([r["id"], y])
    report_path = tmp_path / "report.json"
    rc = main(["estimate", "--manifest", str(tmp_path / "assign.csv.manifest.json"),
               "--data", str(cov), "--outcomes", str(outcomes),
               "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert len(report["theta_hat"]) == 2
    assert len(report["ci_fin"]) == 2  # per-coordinate intervals


def test_assign_trace_logs_every_draw(workspace):
    tmp_path, cov, spec_path, _ = workspace
    out = tmp_path / "assign.csv"
    trace = tmp_path / "trace.csv"
    assert main(["assign", "--spec", str(spec_path), "--data", str(cov),
                 "--out", str(out), "--trace", str(trace)]) == 0
    manifest = json.loads((tmp_path / "assign.csv.manifest.json").read_text())
    with open(trace) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == manifest["draws_to_accept"]
    assert rows[-1]["accepted"] == "True"


def _id_workspace(tmp_path, ids):
    gen = np.random.default_rng(5)
    cov = tmp_path / "cov.csv"
    with open(cov, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "psi", "h1"])
        for uid, row in zip(ids, gen.standard_normal((len(ids), 2)).tolist()):
            writer.writerow([uid] + row)
    spec_path = tmp_path / "design.json"
    spec_path.write_text(json.dumps({
        "roles": {"id": "id", "psi": "psi", "h1": ["h", "w"]}, "k": 2, "l": 1,
        "region": {"shape": "mahalanobis", "alpha": 0.2}, "seed": 3}))
    return cov, spec_path


def test_assign_rejects_duplicate_covariate_ids(tmp_path, capsys):
    ids = [f"u{i}" for i in range(20)]
    ids[13] = "u4"
    cov, spec_path = _id_workspace(tmp_path, ids)
    rc = main(["assign", "--spec", str(spec_path), "--data", str(cov),
               "--out", str(tmp_path / "assign.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "duplicate id 'u4'" in err and "rows 5 and 14" in err


def test_estimate_rejects_duplicate_outcome_ids(tmp_path, capsys):
    ids = [f"u{i}" for i in range(20)]
    cov, spec_path = _id_workspace(tmp_path, ids)
    out = tmp_path / "assign.csv"
    assert main(["assign", "--spec", str(spec_path), "--data", str(cov),
                 "--out", str(out)]) == 0
    outcomes = tmp_path / "y.csv"
    # a repeated id would otherwise keep only its last outcome
    outcomes.write_text("id,y\n" + "".join(f"{u},{i}.5\n" for i, u in enumerate(ids))
                        + "u7,100.0\n")
    capsys.readouterr()
    rc = main(["estimate", "--manifest", str(out) + ".manifest.json", "--data", str(cov),
               "--outcomes", str(outcomes), "--out", str(tmp_path / "report.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "duplicate id 'u7'" in err and "rows 8 and 21" in err


@pytest.mark.parametrize("text,rc,message", [
    # a blank line is skipped, as in the covariate file
    ("id,y\nu0,0.5\n\n" + "".join(f"u{i},{i}.5\n" for i in range(1, 20)), 0, None),
    ("id,y,d\nu0,0.5\n" + "".join(f"u{i},{i}.5,1\n" for i in range(1, 20)), 2,
     "outcomes row 1 has 2 fields, expected 3"),
    ("id,y\n" + "".join(f"u{i},{i}.5\n" for i in range(19)) + "u19\n", 2,
     "outcomes row 20 has 1 fields, expected 2"),
    # a row longer than its header is refused too
    ("id,y\n" + "".join(f"u{i},{i}.5\n" for i in range(19)) + "u19,1.0,1\n", 2,
     "outcomes row 20 has 3 fields, expected 2"),
    ("id,y\n" + "".join(f"u{i},{i}.5\n" for i in range(4)) + "u4,nan\n"
     + "".join(f"u{i},{i}.5\n" for i in range(5, 20)), 2,
     "non-finite value 'nan' in outcomes row 5, column 'y'"),
], ids=["blank-row", "missing-d", "missing-y", "long-row", "nan-y"])
def test_estimate_outcome_rows(tmp_path, capsys, text, rc, message):
    cov, spec_path = _id_workspace(tmp_path, [f"u{i}" for i in range(20)])
    out = tmp_path / "assign.csv"
    assert main(["assign", "--spec", str(spec_path), "--data", str(cov),
                 "--out", str(out)]) == 0
    outcomes = tmp_path / "y.csv"
    outcomes.write_text(text)
    capsys.readouterr()
    got = main(["estimate", "--manifest", str(out) + ".manifest.json", "--data", str(cov),
                "--outcomes", str(outcomes), "--out", str(tmp_path / "report.json")])
    assert got == rc
    if message is not None:
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("estimand", ["late", "clate"])
def test_simulate_noncompliance_estimand_exit_2(tmp_path, capsys, estimand):
    # the simulate spec has no compliance rate, so d1 - d0 is undefined
    spec = {"model": 2, "dim_r": 3, "n": 60, "replicates": 100, "estimand": estimand}
    spec_path = tmp_path / "sim.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "r.csv")]) == 2
    assert "needs a DGP with noncompliance" in capsys.readouterr().err


def _drop(key):
    return lambda doc: doc.pop(key)


def _set_first_treated(value):
    return lambda manifest: manifest["d"].__setitem__(manifest["d"].index(1), value)


@pytest.mark.parametrize("target,edit,message", [
    ("manifest", _drop("d"), "design manifest is missing required key 'd'"),
    ("manifest", _drop("partition"), "missing required key 'partition'"),
    ("manifest", _drop("spec"), "missing required key 'spec'"),
    ("manifest", _drop("covariates_sha256"), "missing required key 'covariates_sha256'"),
    ("manifest", lambda m: m["spec"].pop("roles"), "manifest spec is missing required key 'roles'"),
    ("manifest", lambda m: m["partition"].pop("groups"), "missing required key 'groups'"),
    ("manifest", lambda m: m.update(d=m["d"][:-1]), "d must have shape (20,), got (19,)"),
    ("manifest", _set_first_treated(2), "d must be binary"),
    ("manifest", _set_first_treated(0.5), "d must be binary"),
    ("manifest", lambda m: m.update(extra=1), "unknown keys ['extra']"),
    # an outcomes d of 2.5 used to give a LATE estimate
    ("outcomes", lambda lines: lines.__setitem__(3, lines[3][:-1] + "2.5"), "must be 0 or 1"),
    ("simulation spec", _drop("model"), "simulation spec is missing required key 'model'"),
    ("simulation spec", _drop("n"), "missing required key 'n'"),
], ids=["no-d", "no-partition", "no-spec", "no-hash", "no-roles", "no-groups", "short-d",
        "d-2", "d-half", "extra-key", "outcome-d", "sim-no-model", "sim-no-n"])
def test_malformed_manifest_and_specs_exit_2(tmp_path, capsys, target, edit, message):
    ids = [f"u{i}" for i in range(20)]
    cov, spec_path = _id_workspace(tmp_path, ids)
    out = tmp_path / "assign.csv"
    assert main(["assign", "--spec", str(spec_path), "--data", str(cov),
                 "--out", str(out)]) == 0
    manifest_path = tmp_path / "assign.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    outcomes = ["id,y,d"] + [f"{u},{i}.5,{d}" for i, (u, d) in enumerate(zip(ids, manifest["d"]))]
    argv = ["estimate", "--manifest", str(manifest_path), "--data", str(cov),
            "--outcomes", str(tmp_path / "y.csv"), "--out", str(tmp_path / "report.json")]
    if target == "manifest":
        edit(manifest)
        manifest_path.write_text(json.dumps(manifest))
    elif target == "outcomes":
        edit(outcomes)
    else:
        sim = {"model": 2, "dim_r": 3, "n": 60, "replicates": 100}
        edit(sim)
        (tmp_path / "sim.json").write_text(json.dumps(sim))
        argv = ["simulate", "--spec", str(tmp_path / "sim.json"), "--out", str(tmp_path / "r.csv")]
    (tmp_path / "y.csv").write_text("\n".join(outcomes) + "\n")
    capsys.readouterr()
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_cli_import_loads_neither_scipy_stats_nor_linalg():
    # scipy.stats and scipy.linalg take most of a command's start-up; the
    # quantiles come from scipy.special and scipy.linalg loads on an error
    # path. scipy.spatial, for the k-d tree, loads only when matching runs
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, finestrat.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.stats', 'scipy.linalg', 'scipy.spatial'))))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
