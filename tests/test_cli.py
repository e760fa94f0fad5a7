import csv
import json
import os
import re
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


@pytest.mark.parametrize("flag", ["--replicates", "spec"])
def test_simulate_rejects_bad_replicates(tmp_path, capsys, flag):
    spec = {"model": 2, "dim_r": 3, "n": 60, "replicates": 100}
    argv = ["simulate", "--spec", str(tmp_path / "sim.json"), "--out", str(tmp_path / "r.csv")]
    if flag == "spec":
        spec["replicates"] = 0
    else:
        argv += [flag, "0"]
    (tmp_path / "sim.json").write_text(json.dumps(spec))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "at least 100 replicates" in err and "got 0" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("key, value", [("replicates", 100.9), ("model", 2.5), ("dim_r", 3.5),
                                        ("n", 60.5), ("n", True)])
def test_simulation_spec_integers_are_not_truncated(tmp_path, capsys, key, value):
    # int() ran "replicates": 100.9 as 100 replicates and exited 0
    spec = {"model": 2, "dim_r": 3, "n": 60, "replicates": 100, key: value}
    (tmp_path / "sim.json").write_text(json.dumps(spec))
    assert main(["simulate", "--spec", str(tmp_path / "sim.json"),
                 "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert f"simulation spec: {key} must be an integer, got {value!r}" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("key, value", [("k", 2.5), ("l", 1.5), ("max_draws", 100.9),
                                        ("seed", 11.5), ("seed", False), ("k", "2")])
def test_design_spec_integers_are_not_truncated(workspace, capsys, key, value):
    tmp_path, cov, spec_path, _ = workspace
    spec = json.loads(spec_path.read_text())
    spec[key] = value
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "assign.csv"
    assert main(["assign", "--spec", str(spec_path), "--data", str(cov), "--out", str(out)]) == 2
    assert f"design spec: {key} must be an integer, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value, message", [
    ("simulate", "p", "x", "simulation spec: p must be a number, got 'x'"),
    ("simulate", "p", None, "simulation spec: p must be a number, got None"),
    ("simulate", "accept_alpha", "x", "simulation spec: accept_alpha must be a number, got 'x'"),
    ("simulate", "accept_alpha", None, "simulation spec: accept_alpha must be a number, got None"),
    ("simulate", "ci_alpha", "x", "simulation spec: ci_alpha must be a number, got 'x'"),
    ("simulate", "ci_alpha", None, "simulation spec: ci_alpha must be a number, got None"),
    ("simulate", "designs", "CS", "designs must be a list of design names, got 'CS'"),
    ("assign", "roles", ["a"], "roles must map column names to roles, got ['a']"),
    ("assign", "alpha", "x", "design spec: alpha must be a number, got 'x'"),
    ("assign", "alpha", None, "design spec: alpha must be a number, got None"),
    ("assign", "alpha", 2.0, "design spec: alpha must lie in (0, 1), got 2.0"),
    ("assign", "region", {"shape": "mahalanobis", "eps2": "x"},
     "region 'mahalanobis': eps2 must be a number, got 'x'"),
    ("assign", "region", {"shape": "mahalanobis", "alpha": "x"},
     "region 'mahalanobis': alpha must be a number, got 'x'"),
    ("assign", "region", {"shape": "ball", "dim": "x", "eps": 1.0},
     "region 'ball': dim must be an integer, got 'x'"),
])
def test_wrong_typed_spec_values_exit_2(workspace, capsys, command, key, value, message):
    # each of these was a traceback (exit 1), or, for "designs": "CS", a run
    # of designs C and S; a design alpha of 2.0 failed only in estimate
    tmp_path, cov, spec_path, _ = workspace
    out = tmp_path / "out.csv"
    if command == "simulate":
        spec = {"model": 2, "dim_r": 3, "n": 60, "replicates": 100}
        argv = ["simulate", "--spec", str(spec_path), "--out", str(out)]
    else:
        spec = json.loads(spec_path.read_text())
        argv = ["assign", "--spec", str(spec_path), "--data", str(cov), "--out", str(out)]
    spec[key] = value
    spec_path.write_text(json.dumps(spec))
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    ({"p": 0.3}, "simulation spec: p = 0.3 does not fit design 'S', which treats 1 of every 2"),
    ({"p": 0.31, "designs": ["C"]}, "simulation spec: p = 0.31 does not fit design 'C': n*p"),
    ({"p": 1.5}, "simulation spec: p must lie in (0, 1), got 1.5"),
    ({"ci_alpha": 1.5}, "simulation spec: ci_alpha must lie in (0, 1), got 1.5"),
    ({"accept_alpha": 0.0}, "simulation spec: accept_alpha must lie in (0, 1), got 0.0"),
    ({"estimand": "foo"}, "simulation spec: unknown estimand 'foo'; expected one of"),
    ({"estimand": "late"}, "simulation spec: estimand 'late' needs a DGP with noncompliance"),
    ({"estimand": "clate"}, "simulation spec: estimand 'clate' needs a DGP with noncompliance"),
    ({"n": 62}, "simulation spec: design 'S': n=62 in groups of k=2 gives an odd number "
                "of groups (31)"),
    ({"n": 62, "designs": ["C", "SR"]}, "simulation spec: design 'SR': n=62 in groups"),
    ({"n": -4}, "simulation spec: n must be at least 2, got -4"),
    ({"dim_r": 1, "designs": ["C"]}, "simulation spec: model 2 needs dim_r >= 2, got 1"),
    ({"model": 1, "dim_r": 0}, "simulation spec: model 1 needs dim_r >= 1, got 0"),
    ({"model": 1, "dim_r": 1, "designs": ["C", "SR"]},
     "simulation spec: design 'SR' rerandomizes but has no h columns"),
    ({"seed": -1}, "simulation spec: seed must be >= 0, got -1"),
], ids=["p-pairs", "p-complete", "p-range", "ci_alpha", "accept_alpha", "estimand-unknown",
        "estimand-late", "estimand-clate", "odd-groups-S", "odd-groups-SR", "n-negative",
        "dim_r-model2", "dim_r-model1", "SR-without-h", "seed-negative"])
def test_simulation_spec_shares_and_levels_are_checked_before_the_oracle(
        tmp_path, capsys, monkeypatch, edit, message):
    # p and ci_alpha failed only after the 10^6-unit oracle; no message named the key.
    # An unknown estimand, an odd group count, a negative n and a negative seed
    # failed only after it, and n = -4 failed every replicate (exit 1)
    def no_oracle(*args):
        raise AssertionError("the oracle ran before the spec was checked")

    monkeypatch.setattr("finestrat.simulate.generate_dgp", no_oracle)
    (tmp_path / "sim.json").write_text(json.dumps(
        {"model": 2, "dim_r": 3, "n": 60, "replicates": 100, **edit}))
    assert main(["simulate", "--spec", str(tmp_path / "sim.json"),
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert message in capsys.readouterr().err


def test_simulate_builds_only_the_requested_designs(tmp_path):
    # "SR" balances on the columns after the first, so with dim_r = 1 it
    # cannot be built; it used to refuse runs that did not ask for it
    spec = {"model": 1, "dim_r": 1, "n": 40, "replicates": 100, "designs": ["C", "S"]}
    (tmp_path / "sim.json").write_text(json.dumps(spec))
    out = tmp_path / "r.csv"
    assert main(["simulate", "--spec", str(tmp_path / "sim.json"), "--out", str(out),
                 "--threads", "1"]) == 0
    with open(out) as fh:
        assert [(r["design"], r["dim"]) for r in csv.DictReader(fh)] == [
            ("C", "1"), ("C", "1"), ("S", "1"), ("S", "1")]


@pytest.mark.parametrize("command, edit, flags, message", [
    ("assign", {"max_draws": 0}, [], "design spec: max_draws must be >= 1, got 0"),
    ("assign", {"max_draws": 2.5}, [], "design spec: max_draws must be an integer, got 2.5"),
    ("assign", {"seed": -1}, [], "design spec: seed must be >= 0, got -1"),
    ("assign", {"estimand": "foo"}, [], "unknown estimand 'foo'; expected one of"),
    ("assign", {"estimand": ["sate"]}, [], "unknown estimand ['sate']"),
    ("assign", {"l": 2}, [], "need 1 <= l <= k-1, got l=2, k=2"),
    ("assign", {"roles": ["a"]}, [], "roles must map column names to roles, got ['a']"),
    ("assign", {"roles": {"baseline": "zeta"}}, [], "unknown role 'zeta' for column 'baseline'"),
    ("assign", {"match": {"method": "nearest"}}, [], "unknown matching method 'nearest'"),
    ("assign", {"match": {"weights": "x"}}, [], "psi_weights must be a vector of strictly positive"),
    ("assign", {"match": {"weights": [-1.0]}}, [], "psi_weights must be a vector of strictly"),
    ("assign", {"region": {"shape": "cube"}}, [], "unknown region shape 'cube'"),
    ("assign", {"region": {"shape": "ball", "dim": "x", "eps": 1.0}}, [],
     "region 'ball': dim must be an integer, got 'x'"),
    ("assign", {"region": {"shape": "pilot-wald", "gamma_pilot": [0.5, 0.0], "m": 50,
                           "sigma_pilot": [[1, 0], [0, 1]], "alpha": 1.5, "eps": 1.0}}, [],
     "pilot-wald alpha must lie in (0, 1), got 1.5"),
    ("calibrate", {}, ["--alpha", "2"], "alpha must lie in (0, 1), got 2.0"),
    ("calibrate", {}, ["--draws", "0"], "draws must be >= 1"),
    ("calibrate", {"region": None}, [], "region 'none' has no threshold to calibrate"),
    ("estimate", {"alpha": 2.0}, [], "manifest spec: alpha must lie in (0, 1), got 2.0"),
    ("estimate", {"estimand": "foo"}, [], "unknown estimand 'foo'; expected one of"),
    ("estimate", {"max_draws": "x"}, [], "manifest spec: max_draws must be an integer, got 'x'"),
    ("estimate", {"roles": {"baseline": "zeta"}}, [], "unknown role 'zeta' for column 'baseline'"),
    ("assign", {"match": {"weights": [1.0, 2.0]}}, [], "psi_weights length must match psi columns"),
    ("calibrate", {"roles": {"baseline": "psi", "xa": ["psi", "h"], "xb": "h"},
                   "match": {"method": "sorted-1d"}}, [],
     "sorted-1d matching requires a single psi column"),
    ("assign", {"region": {"shape": "ball", "dim": 3, "eps": 1.0}}, [],
     "region built for 3 balance covariates, got 2"),
    ("assign", {"region": {"shape": "polar", "gamma_bar": [0.5], "U": [[1.0]], "eps": 1.0}}, [],
     "region built for 1 balance covariates, got 2"),
    ("calibrate", {"region": {"shape": "rectangle-polar", "a": [0, 0, 0], "b": [1, 1, 1],
                              "eps": 1.0}}, [], "region built for 3 balance covariates, got 2"),
    ("assign", {"region": {"shape": "pilot-wald", "gamma_pilot": [0.5], "sigma_pilot": [[1.0]],
                           "m": 50, "alpha": 0.1, "eps": 1.0}}, [],
     "region built for 1 balance covariates, got 2"),
    ("assign", {"roles": {"baseline": "psi", "xa": "w", "xb": "w"},
                "region": {"shape": "mahalanobis", "alpha": 0.1}}, [],
     "quadratic region needs balance covariates (d_h = 0)"),
    ("calibrate", {"roles": {"baseline": "psi", "xa": "w"},
                   "region": {"shape": "propensity", "eps2": 0.5}}, [],
     "propensity region needs balance covariates (d_h = 0)"),
    ("assign", {"region": {"shape": "propensity", "eps2": 0.5, "link": "probit"}}, [],
     "unsupported link 'probit'"),
    ("assign", {"region": {"shape": "polar", "gamma_bar": "x", "U": [[1]], "eps": 1.0}}, [],
     "region 'polar': gamma_bar must be a number or a rectangular list of numbers, got 'x'"),
    ("assign", {"region": {"shape": "polar", "gamma_bar": [0, 0], "U": [[1, 0], [0]],
                           "eps": 1.0}}, [], "region 'polar': U must be a number or a rectangular"),
    ("calibrate", {"region": {"shape": "rectangle-polar", "a": ["x", 1], "b": [1, 2],
                              "eps": 1.0}}, [], "region 'rectangle-polar': a must be a number or"),
    ("assign", {"region": {"shape": "pilot-wald", "gamma_pilot": None, "sigma_pilot": [[1.0]],
                           "m": 50, "alpha": 0.1, "eps": 1.0}}, [],
     "region 'pilot-wald': gamma_pilot must be a number or a rectangular list of numbers, "
     "got None"),
    ("assign", {"region": {"shape": "pilot-wald", "gamma_pilot": [0, 0], "m": 50,
                           "sigma_pilot": [[True, 0], [0, 1]], "alpha": 0.1, "eps": 1.0}}, [],
     "region 'pilot-wald': sigma_pilot must be a number or a rectangular list of numbers"),
    ("estimate", {"estimand": "cate"}, [],
     "manifest spec: estimand 'cate' needs heterogeneity regressors, and no column has the 'x' role"),
    ("estimate", {"k": 4, "l": 2}, [],
     "manifest spec has k=4, l=2, but its partition has 50 groups of k=2, l=1"),
], ids=["max_draws-0", "max_draws-fraction", "seed-negative", "estimand-unknown", "estimand-list",
        "l-equals-k", "roles-list", "role-unknown", "method-unknown", "weights-string",
        "weights-negative", "region-shape", "region-number", "pilot-wald-alpha",
        "calibrate-alpha", "calibrate-draws", "calibrate-no-region", "manifest-alpha",
        "manifest-estimand", "manifest-max_draws", "manifest-role", "weights-length",
        "sorted-1d-two-psi", "ball-dim", "polar-dim", "rectangle-dim", "pilot-wald-dim",
        "mahalanobis-no-h", "propensity-no-h", "link", "array-string", "array-ragged",
        "array-string-entry", "array-null", "array-bool", "manifest-cate-without-x",
        "manifest-k-l-off-the-partition"])
def test_spec_and_argument_refusals_come_before_the_covariates_are_read(
        workspace, capsys, monkeypatch, command, edit, flags, message):
    # each was refused only after the covariate file was read and its units
    # matched, or (an unknown assign estimand, a bad manifest max_draws, a null
    # or bool region array entry) not at all, or (a string or ragged region
    # array) with a traceback
    tmp_path, cov, spec_path, _ = workspace
    spec = dict(json.loads(spec_path.read_text()), region={"shape": "ball", "dim": 2, "eps": 1.0})
    out = tmp_path / "out.json"
    if command == "estimate":
        spec_path.write_text(json.dumps(spec))
        assert main(["assign", "--spec", str(spec_path), "--data", str(cov),
                     "--out", str(tmp_path / "assign.csv")]) == 0
        manifest_path = tmp_path / "assign.csv.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["spec"].update(edit)
        manifest_path.write_text(json.dumps(manifest))
        argv = ["estimate", "--manifest", str(manifest_path), "--data", str(cov),
                "--outcomes", str(tmp_path / "y.csv"), "--out", str(out)]
    else:
        spec_path.write_text(json.dumps(dict(spec, **edit)))
        argv = [command, "--spec", str(spec_path), "--data", str(cov), "--out", str(out)]
        if command == "calibrate":
            argv += ["--alpha", "0.2", "--draws", "100", *flags]  # the last of a flag wins

    def unread(*args):
        raise AssertionError("the covariate file was read before the spec was checked")

    monkeypatch.setattr("finestrat.cli.load_covariates", unread)
    monkeypatch.setattr("finestrat.cli._sha256", unread)
    capsys.readouterr()
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("estimand", ["cate", "clate"])
def test_an_estimand_flag_without_x_roles_is_refused_before_the_covariates_are_read(
        workspace, capsys, monkeypatch, estimand):
    # newton_root's first residual failed on the empty regressor matrix, a
    # traceback after both files had been read
    tmp_path, cov, spec_path, _ = workspace
    assert main(["assign", "--spec", str(spec_path), "--data", str(cov),
                 "--out", str(tmp_path / "assign.csv")]) == 0

    def unread(*args):
        raise AssertionError("the covariate file was read before the estimand was checked")

    monkeypatch.setattr("finestrat.cli.load_covariates", unread)
    monkeypatch.setattr("finestrat.cli._sha256", unread)
    capsys.readouterr()
    assert main(["estimate", "--manifest", str(tmp_path / "assign.csv.manifest.json"),
                 "--data", str(cov), "--outcomes", str(tmp_path / "y.csv"),
                 "--out", str(tmp_path / "report.json"), "--estimand", estimand]) == 2
    assert (f"manifest spec: estimand {estimand!r} needs heterogeneity regressors"
            in capsys.readouterr().err)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["assign", "calibrate", "simulate"])
def test_a_negative_seed_flag_is_refused_before_any_file_is_read(tmp_path, capsys, command):
    # np.random.SeedSequence raised ValueError (a traceback, exit 1) once the
    # data had been read; none of these files exists
    argv = [command, "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "out"),
            "--seed", "-1"]
    if command != "simulate":
        argv += ["--data", str(tmp_path / "cov.csv")]
    if command == "calibrate":
        argv += ["--alpha", "0.1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --seed: must be an integer >= 0, got '-1'" in capsys.readouterr().err


def test_readme_key_tables_list_every_spec_key():
    # a spec key cannot be added without its row in the README's key tables
    from finestrat.cli import _DESIGN_KEYS, _MATCH_KEYS, _SIM_KEYS

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sections = {part.split("\n", 1)[0]: part for part in re.split(r"\n#{2,4} ", text)}
    for heading, keys in (("Design spec keys", _DESIGN_KEYS), ("Match block keys", _MATCH_KEYS),
                          ("Simulation spec keys", _SIM_KEYS)):
        rows = re.findall(r"^\| `(\w+)` \|", sections[heading], re.M)
        assert sorted(rows) == sorted(keys), heading


def test_estimand_choices_readme_and_table_agree(capsys):
    # estimate --estimand, the README's estimand values and its Estimands
    # table all follow gmm.MOMENTS
    from finestrat.cli import build_parser
    from finestrat.gmm import BUILTIN_ESTIMANDS, MOMENTS

    assert list(BUILTIN_ESTIMANDS) == list(MOMENTS)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["estimate", "--manifest", "m", "--data", "c", "--outcomes",
                                   "y", "--out", "r", "--estimand", "?"])
    assert re.findall(r"\w+", capsys.readouterr().err.split("choose from", 1)[1]) == list(MOMENTS)
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sections = {part.split("\n", 1)[0]: part for part in re.split(r"\n#{2,4} ", text)}
    row = re.search(r"^\| `estimand` \| string \| ([^;|]*)", sections["Design spec keys"], re.M)
    assert re.findall(r"`(\w+)`", row.group(1)) == list(MOMENTS)
    table = re.findall(r"^\| `(\w+)` \| ([^|]+) \| ([^|]+) \|", sections["Estimands"], re.M)
    assert {name: (x == "the `x` role", w == "H·D") for name, x, w in table} == MOMENTS


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


@pytest.mark.parametrize("k, l", [(2, 1), (4, 2)])
def test_assign_estimate_without_h(tmp_path, k, l):
    # only psi and id roles: pure stratification, scored with no balance column
    gen = np.random.default_rng(5)
    cov = tmp_path / "cov.csv"
    values = gen.standard_normal(40).tolist()
    cov.write_text("unit,baseline\n" + "".join(f"u{i},{v!r}\n" for i, v in enumerate(values)))
    spec_path = tmp_path / "design.json"
    spec_path.write_text(json.dumps({"roles": {"unit": "id", "baseline": "psi"},
                                     "k": k, "l": l, "seed": 3}))
    out = tmp_path / "assign.csv"
    assert main(["assign", "--spec", str(spec_path), "--data", str(cov),
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "assign.csv.manifest.json").read_text())
    assert manifest["draws_to_accept"] == 1
    with open(out) as fh:
        assign = list(csv.DictReader(fh))
    groups = {}
    for r in assign:
        groups.setdefault(r["group"], []).append(int(r["d"]))
    assert len(groups) == 40 // k
    assert all(len(g) == k and sum(g) == l for g in groups.values())
    outcomes = tmp_path / "y.csv"
    outcomes.write_text("id,y\n" + "".join(f"{r['id']},{3.25 if r['d'] == '1' else 1.0}\n"
                                            for r in assign))
    report_path = tmp_path / "report.json"
    assert main(["estimate", "--manifest", str(out) + ".manifest.json", "--data", str(cov),
                 "--outcomes", str(outcomes), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["theta_hat"][0] == pytest.approx(2.25)
    assert report["flags"]["draws_to_accept"] == 1


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


@pytest.mark.parametrize("command, missing", [("assign", "data"), ("calibrate", "data"),
                                              ("estimate", "data"), ("estimate", "outcomes")])
def test_a_missing_input_file_exits_2_naming_it(tmp_path, capsys, command, missing):
    ids = [f"u{i}" for i in range(20)]
    cov, spec_path = _id_workspace(tmp_path, ids)
    assert main(["assign", "--spec", str(spec_path), "--data", str(cov),
                 "--out", str(tmp_path / "assign.csv")]) == 0
    outcomes = tmp_path / "y.csv"
    outcomes.write_text("id,y\n" + "".join(f"{u},{i}.5\n" for i, u in enumerate(ids)))
    files = {"data": cov, "outcomes": outcomes, missing: tmp_path / "missing.csv"}
    calibrated = tmp_path / "ball.json"
    calibrated.write_text(json.dumps({**json.loads(spec_path.read_text()),
                                      "region": {"shape": "ball", "dim": 1, "eps": 1.0}}))
    argv = {"assign": ["--spec", str(spec_path), "--out", str(tmp_path / "again.csv")],
            "calibrate": ["--spec", str(calibrated), "--alpha", "0.2", "--draws", "10",
                          "--out", str(tmp_path / "region.json")],
            "estimate": ["--manifest", str(tmp_path / "assign.csv.manifest.json"),
                         "--outcomes", str(files["outcomes"]),
                         "--out", str(tmp_path / "report.json")]}[command]
    capsys.readouterr()
    assert main([command, "--data", str(files["data"]), *argv]) == 2
    err = capsys.readouterr().err
    what = "covariates" if missing == "data" else "outcomes"
    assert err == f"error: {what} file not found: {tmp_path / 'missing.csv'}\n"


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.update(d=m["d"][:-1]), "manifest d must have shape (20,), got (19,)"),
    (lambda m: m.update(partition={"k": 2, "l": 1, "groups": [[0, 1], [2, 3]], "pairing": [1, 0]}),
     "manifest d must have shape (4,), got (20,)"),
], ids=["short-d", "partition-n"])
def test_manifest_d_is_checked_against_the_partition_before_any_file_is_read(
        tmp_path, capsys, edit, message):
    # was "covariates file not found": d was checked only once the covariates were loaded
    ids = [f"u{i}" for i in range(20)]
    cov, spec_path = _id_workspace(tmp_path, ids)
    out = tmp_path / "assign.csv"
    assert main(["assign", "--spec", str(spec_path), "--data", str(cov), "--out", str(out)]) == 0
    manifest_path = tmp_path / "assign.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    outcomes = tmp_path / "y.csv"
    outcomes.write_text("id,y\n" + "".join(f"{u},{i}.5\n" for i, u in enumerate(ids)))
    capsys.readouterr()
    assert main(["estimate", "--manifest", str(manifest_path),
                 "--data", str(tmp_path / "missing.csv"), "--outcomes", str(outcomes),
                 "--out", str(tmp_path / "report.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, flag, fault", [
    ("assign", "--data", "directory"), ("calibrate", "--data", "directory"),
    ("estimate", "--data", "directory"), ("estimate", "--outcomes", "directory"),
    ("assign", "--spec", "directory"), ("estimate", "--manifest", "directory"),
    ("assign", "--data", "not-utf-8"),
])
def test_an_input_that_cannot_be_read_exits_2_naming_it(tmp_path, capsys, command, flag, fault):
    # each was a traceback with exit 1: IsADirectoryError or UnicodeDecodeError
    ids = [f"u{i}" for i in range(20)]
    cov, spec_path = _id_workspace(tmp_path, ids)
    assert main(["assign", "--spec", str(spec_path), "--data", str(cov),
                 "--out", str(tmp_path / "assign.csv")]) == 0
    outcomes = tmp_path / "y.csv"
    outcomes.write_text("id,y\n" + "".join(f"{u},{i}.5\n" for i, u in enumerate(ids)))
    calibrated = tmp_path / "ball.json"
    calibrated.write_text(json.dumps({**json.loads(spec_path.read_text()),
                                      "region": {"shape": "ball", "dim": 1, "eps": 1.0}}))
    files = {"--data": cov, "--outcomes": outcomes,
             "--manifest": tmp_path / "assign.csv.manifest.json",
             "--spec": calibrated if command == "calibrate" else spec_path}
    bad = tmp_path / "bad"
    if fault == "directory":
        bad.mkdir()
    else:  # the first data row's id holds the byte 0xff
        bad.write_bytes(cov.read_bytes().replace(b"u0,", b"u\xff,", 1))
    files[flag] = bad
    argv = {"assign": ["--spec", files["--spec"], "--data", files["--data"],
                       "--out", tmp_path / "again.csv"],
            "calibrate": ["--spec", files["--spec"], "--data", files["--data"],
                          "--alpha", "0.2", "--draws", "10", "--out", tmp_path / "region.json"],
            "estimate": ["--manifest", files["--manifest"], "--data", files["--data"],
                         "--outcomes", files["--outcomes"], "--out", tmp_path / "report.json"]}
    capsys.readouterr()
    assert main([command, *map(str, argv[command])]) == 2
    what = {"--data": "covariates", "--outcomes": "outcomes", "--spec": "design spec",
            "--manifest": "design manifest"}[flag]
    err = capsys.readouterr().err
    if fault == "directory":
        assert err.startswith(f"error: {what} file cannot be read: {bad} (")
    else:
        assert err == f"error: {what} file is not UTF-8 text: {bad}\n"
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("k, l, n", [(6, 3, 120), (2, 1, 20)])
def test_estimate_refuses_a_d_off_the_design(tmp_path, capsys, k, l, n):
    # moving one treated unit from group 1 to group 0 keeps sum(d) = n*p: with
    # k = 6 estimate used to report on it, and with pairs it named no group
    ids = [f"u{i}" for i in range(n)]
    cov, spec_path = _id_workspace(tmp_path, ids)
    spec_path.write_text(json.dumps(dict(json.loads(spec_path.read_text()), k=k, l=l)))
    out = tmp_path / "assign.csv"
    assert main(["assign", "--spec", str(spec_path), "--data", str(cov),
                 "--out", str(out)]) == 0
    manifest_path = tmp_path / "assign.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    groups, d = manifest["partition"]["groups"], manifest["d"]
    d[next(i for i in groups[1] if d[i] == 1)] = 0
    d[next(i for i in groups[0] if d[i] == 0)] = 1
    manifest_path.write_text(json.dumps(manifest))
    (tmp_path / "y.csv").write_text("id,y\n" + "".join(f"{u},{i}.5\n" for i, u in enumerate(ids)))
    capsys.readouterr()
    assert main(["estimate", "--manifest", str(manifest_path), "--data", str(cov),
                 "--outcomes", str(tmp_path / "y.csv"),
                 "--out", str(tmp_path / "report.json")]) == 2
    assert (f"manifest d treats {l + 1} units in group 0; the design treats l = {l} "
            "in each group") in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def _drop(key):
    return lambda doc: doc.pop(key)


def _set_first_treated(value):
    return lambda manifest: manifest["d"].__setitem__(manifest["d"].index(1), value)


def _add_to_first(key, step):
    """Add ``step`` to the first number of the manifest partition's ``key``."""
    def edit(manifest):
        row = manifest["partition"][key]
        row = row[0] if isinstance(row[0], list) else row
        row[0] += step
    return edit


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
    ("manifest", lambda m: m.update(partition={"k": 2, "l": 1, "groups": [[0, 1], [2, 3]],
                                               "pairing": [1, 0]}, d=[1, 0, 0, 1]),
     "manifest partition covers 4 units, the covariates 20"),
    # each was truncated to an integer, and estimate wrote a report
    ("manifest", lambda m: m["partition"].update(k=2.5), "partition: k must be an integer, got 2.5"),
    ("manifest", lambda m: m["partition"].update(l=True), "partition: l must be an integer, got True"),
    ("manifest", _add_to_first("groups", 0.4),
     "partition: groups must be an integer or a rectangular list of integers"),
    ("manifest", _add_to_first("pairing", 0.5),
     "partition: pairing must be an integer or a rectangular list of integers"),
    # was an IndexError, exit 1
    ("manifest", _add_to_first("pairing", 15), "pairing entries must be group indices 0..9"),
    # an outcomes d of 2.5 used to give a LATE estimate
    ("outcomes", lambda lines: lines.__setitem__(3, lines[3][:-1] + "2.5"), "must be 0 or 1"),
    ("simulation spec", _drop("model"), "simulation spec is missing required key 'model'"),
    ("simulation spec", _drop("n"), "missing required key 'n'"),
], ids=["no-d", "no-partition", "no-spec", "no-hash", "no-roles", "no-groups", "short-d",
        "d-2", "d-half", "extra-key", "partition-n", "partition-k-fraction", "partition-l-bool",
        "group-index-fraction", "pairing-fraction", "pairing-out-of-range", "outcome-d",
        "sim-no-model", "sim-no-n"])
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


def _pair_tens(manifest):
    """Make the manifest a design of 10 groups of 10, 5 treated in each, which needs no
    collapsed strata, and keep a pairing of its groups."""
    manifest["spec"].update(k=10, l=5)
    manifest["partition"].update(k=10, l=5, groups=np.arange(100).reshape(10, 10).tolist(),
                                 pairing=[g ^ 1 for g in range(10)])
    manifest["d"] = [i % 2 for i in range(100)]


@pytest.mark.parametrize("edit, flags, message", [
    (_set_first_treated(2), [], "manifest d must be binary (0 or 1), got 2 at unit"),
    (_set_first_treated(0.5), [], "manifest d must be binary (0 or 1), got 0.5 at unit"),
    (lambda m: m["partition"].pop("pairing"), [],
     "manifest partition has no pairing, but its groups of k=2 with l=1 treated need "
     "collapsed strata"),
    (_pair_tens, [], "manifest partition has a pairing, but its groups of k=10 with l=5 "
                     "treated need no collapsed strata"),
    (lambda m: m["spec"].update(estimand="late"), [],
     "estimand 'late' needs the realized treatment, and the outcomes file has no 'd' column"),
    (lambda m: None, ["--estimand", "late"], "estimand 'late' needs the realized treatment"),
    (lambda m: m["spec"].update(estimand="clate", roles={"baseline": "psi", "xa": ["h", "w", "x"],
                                                         "xb": ["h", "w"]}), [],
     "estimand 'clate' needs the realized treatment, and the outcomes file has no 'd' column"),
], ids=["d-2", "d-half", "pairing-absent", "pairing-present", "late-without-d",
        "late-flag-without-d", "clate-without-d"])
def test_manifest_d_pairing_and_outcome_columns_are_checked_before_the_covariates_are_read(
        workspace, capsys, monkeypatch, edit, flags, message):
    # a d off 0/1 and a missing pairing were refused only once the covariates had
    # been loaded, a pairing the design does not use was ignored, and a late or
    # clate estimate without a realized-treatment column was refused after the load
    tmp_path, cov, spec_path, _ = workspace
    assert main(["assign", "--spec", str(spec_path), "--data", str(cov),
                 "--out", str(tmp_path / "assign.csv")]) == 0
    with open(tmp_path / "assign.csv") as fh:
        ids = [r["id"] for r in csv.DictReader(fh)]
    (tmp_path / "y.csv").write_text("id,y\n" + "".join(f"{u},{i}.5\n" for i, u in enumerate(ids)))
    manifest_path = tmp_path / "assign.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))

    def unread(*args):
        raise AssertionError("the covariate file was read before the manifest was checked")

    monkeypatch.setattr("finestrat.cli.load_covariates", unread)
    monkeypatch.setattr("finestrat.cli._sha256", unread)
    capsys.readouterr()
    assert main(["estimate", "--manifest", str(manifest_path), "--data", str(cov),
                 "--outcomes", str(tmp_path / "y.csv"),
                 "--out", str(tmp_path / "report.json"), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cli_env(**overrides):
    """The environment of a fresh interpreter on this checkout's source.
    The BLAS thread variables are removed unless ``overrides`` sets them, so
    the child sees the default even when this shell (or an imported
    ``finestrat.cli``) has set them."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items() if key not in _BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env.update(overrides)
    return env


def _python(code, env, cwd=None):
    """What ``code`` prints in a fresh interpreter with environment ``env``."""
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True).stdout.strip()


def _scipy_after(tmp_path, code, roots=("scipy",)):
    """Run code in a fresh interpreter on this checkout's source, and return
    what it prints and the modules under ``roots`` (packages or modules,
    scipy by default) loaded by its end."""
    prefixes = tuple(root + "." for root in roots)
    code += ("\nimport json, sys\n"
             f"print(json.dumps(sorted(m for m in sys.modules if (m + '.').startswith({prefixes!r}))))")
    *lines, modules = _python(code, _cli_env(), cwd=tmp_path).splitlines()
    return lines, json.loads(modules)


def test_cli_import_loads_no_scipy(workspace):
    # the process pool loads only when simulate forks workers
    tmp_path, cov, spec_path, _ = workspace
    assert _scipy_after(tmp_path, "import finestrat.cli",
                        roots=("scipy", "concurrent.futures.process")) == ([], [])
    # the interval quantile is a port of Cephes ndtri, so estimate (GMM,
    # adjustment, variance, intervals) needs no SciPy module
    assert main(["assign", "--spec", str(spec_path), "--data", str(cov),
                 "--out", str(tmp_path / "assign.csv")]) == 0
    with open(tmp_path / "assign.csv") as fh:
        rows = list(csv.DictReader(fh))
    (tmp_path / "y.csv").write_text("id,y\n" + "".join(
        f"{r['id']},{i % 7 + 0.5 * int(r['d'])}\n" for i, r in enumerate(rows)))
    lines, modules = _scipy_after(tmp_path, (
        "from finestrat.cli import main\n"
        "print(main(['estimate', '--manifest', 'assign.csv.manifest.json', '--data', 'cov.csv',"
        " '--outcomes', 'y.csv', '--out', 'report.json']))"))
    assert lines[-1] == "0" and modules == []
    assert np.isfinite(json.loads((tmp_path / "report.json").read_text())["ci_pop"][0]["lo"])


def test_sorted_1d_calibrate_of_a_fixed_region_loads_no_scipy(workspace):
    # one-column matching and pairing take their candidates from the sort
    # order, and a box needs no quantile
    tmp_path, cov, spec_path, _ = workspace
    spec = json.loads(spec_path.read_text())
    spec.update(match={"method": "sorted-1d"},
                region={"shape": "rectangle-polar", "a": [-0.5, 0.1], "b": [0.5, 1.2], "eps": 1.0})
    spec_path.write_text(json.dumps(spec))
    lines, modules = _scipy_after(tmp_path, (
        "from finestrat.cli import main\n"
        "print(main(['calibrate', '--spec', 'design.json', '--data', 'cov.csv',"
        " '--out', 'region.json', '--alpha', '0.2', '--draws', '600']))"))
    assert lines[-1] == "0" and modules == []
    assert json.loads((tmp_path / "region.json").read_text())["eps"] > 0


def test_mahalanobis_assign_keeps_its_threshold_and_assignment(workspace):
    # draws are decided by a pure-Python bracket around the chi-square
    # quantile, so no penalty here needs SciPy; the decisions must still be
    # those of chi2.ppf(alpha, d_h), and the draw count and d are those
    # recorded with scipy.special imported at start-up
    from scipy import stats

    tmp_path, cov, spec_path, _ = workspace
    lines, modules = _scipy_after(tmp_path, (
        "from finestrat.cli import main\n"
        "print(main(['assign', '--spec', 'design.json', '--data', 'cov.csv',"
        " '--out', 'assign.csv', '--trace', 'trace.csv']))"))
    assert lines[-1] == "0" and modules == []
    manifest = json.loads((tmp_path / "assign.csv.manifest.json").read_text())
    d = "".join(map(str, manifest["d"]))
    assert manifest["draws_to_accept"] == 155
    assert d == ("01111100111000101000000100010001000011110000011111"
                 "01111111011000111101100000010010110011110001111010")
    with open(tmp_path / "trace.csv") as fh:
        trace = list(csv.DictReader(fh))
    threshold = stats.chi2.ppf(0.01, df=2)
    assert [float(r["penalty"]) <= threshold for r in trace] == [r["accepted"] == "True"
                                                                 for r in trace]


def test_sorted_1d_mahalanobis_assign_and_estimate_load_only_their_layers(workspace):
    # assign decides its draws from the chi-square bracket, and estimate
    # imports neither the matcher nor the simulation engine
    tmp_path, cov, spec_path, _ = workspace
    roots = ("scipy", "finestrat.simulate", "finestrat.stratify")
    lines, modules = _scipy_after(tmp_path, (
        "from finestrat.cli import main\n"
        "print(main(['assign', '--spec', 'design.json', '--data', 'cov.csv',"
        " '--out', 'assign.csv']))"), roots=roots)
    assert lines[-1] == "0" and modules == ["finestrat.stratify"]
    with open(tmp_path / "assign.csv") as fh:
        rows = list(csv.DictReader(fh))
    (tmp_path / "y.csv").write_text("id,y\n" + "".join(
        f"{r['id']},{i % 5 + 0.7 * int(r['d'])}\n" for i, r in enumerate(rows)))
    lines, modules = _scipy_after(tmp_path, (
        "from finestrat.cli import main\n"
        "print(main(['estimate', '--manifest', 'assign.csv.manifest.json', '--data', 'cov.csv',"
        " '--outcomes', 'y.csv', '--out', 'report.json']))"), roots=roots)
    assert lines[-1] == "0" and modules == []
    assert np.isfinite(json.loads((tmp_path / "report.json").read_text())["ci_pop"][0]["lo"])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_model2_simulate_loads_no_scipy(tmp_path, threads):
    # design S matches 300 units and pairs 150 centroids in 5 columns, each
    # by a scan of the exact distances, not a k-d tree; acceptance is
    # decided by the chi-square bracket
    from importlib import resources

    spec = resources.files("finestrat").joinpath("specs/benchmark-model2-dim5.json")
    lines, modules = _scipy_after(tmp_path, (
        "from finestrat.cli import main\n"
        f"print(main(['simulate', '--spec', {str(spec)!r}, '--out', 'sim.csv',"
        f" '--replicates', '100', '--seed', '3', '--threads', '{threads}']))"))
    assert lines[-1] == "0" and modules == []


def test_cli_import_loads_neither_scipy_stats_nor_linalg():
    # scipy.stats and scipy.linalg take most of a command's start-up; the
    # quantiles come from scipy.special and scipy.linalg loads on an error
    # path. scipy.spatial, for the k-d tree, loads only when matching runs on
    # two or more columns and more points than a distance table is kept for
    code = ("import sys, finestrat.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.stats', 'scipy.linalg', 'scipy.spatial'))))")
    assert _python(code, _cli_env()) == "[]"


def test_package_import_loads_nothing_and_leaves_the_environment_alone():
    # the names load lazily, so finestrat.cli can run before NumPy loads
    code = ("import json, os, sys\n"
            "before = dict(os.environ)\n"
            "import finestrat\n"
            "print(json.dumps(['numpy' in sys.modules, dict(os.environ) == before]))")
    assert json.loads(_python(code, _cli_env())) == [False, True]


def test_cli_import_sets_only_the_unset_blas_variables():
    code = ("import json, os, finestrat.cli\n"
            f"print(json.dumps([os.environ.get(v) for v in {_BLAS_VARS!r}]))")
    assert json.loads(_python(code, _cli_env())) == ["1", "1", "1"]
    assert json.loads(_python(code, _cli_env(OPENBLAS_NUM_THREADS="3"))) == ["3", "1", "1"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_cli_process_runs_one_thread_after_loading_numpy_and_scipy():
    # NumPy and SciPy each bundle an OpenBLAS; by default each starts a
    # worker per extra core, which spins idle on that core
    code = "import os, finestrat.cli, scipy.special; print(len(os.listdir('/proc/self/task')))"
    assert _python(code, _cli_env()) == "1"


def test_every_public_name_is_its_submodules_object():
    # in a fresh interpreter, so each name first resolves with nothing loaded;
    # then again once every submodule is imported, which binds the submodule
    # rerandomize to the package under its function's name
    code = ("import importlib, json, finestrat\n"
            "def bad():\n"
            "    return [n for n in finestrat.__all__ if getattr(finestrat, n) is not\n"
            "            getattr(importlib.import_module(getattr(finestrat, n).__module__), n)]\n"
            "cold = bad()\n"
            "import finestrat.adjust, finestrat.cli, finestrat.core, finestrat.gmm\n"
            "import finestrat.inference, finestrat.randomize, finestrat.rerandomize\n"
            "import finestrat.simulate, finestrat.stratify\n"
            "ns = {}\n"
            "exec('from finestrat import *', ns)\n"
            "print(json.dumps([len(finestrat.__all__), cold, bad(),\n"
            "                  sorted(set(finestrat.__all__) - set(ns)),\n"
            "                  sorted(set(finestrat.__all__) - set(dir(finestrat)))]))")
    assert json.loads(_python(code, _cli_env())) == [67, [], [], [], []]


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """calibrate's region and estimate's report are the same bytes with the
    BLAS thread variables unset and set to 1. At a parent that left the
    thread count to OpenBLAS, this fails only on a host with >= 2 CPUs: with
    one CPU both runs use one thread."""
    gen = np.random.default_rng(5)
    n_cal, n_est = 1000, 12000
    psi = gen.standard_normal(n_cal)
    h = 0.5 * psi[:, None] + gen.standard_normal((n_cal, 5))
    names = [f"h{j}" for j in range(5)]
    np.savetxt(tmp_path / "cal.csv", np.column_stack([psi, h]), delimiter=",",
               header=",".join(["psi"] + names), comments="")
    a = gen.uniform(-1.0, 1.0, 5)
    (tmp_path / "cal.json").write_text(json.dumps({
        "roles": {"psi": "psi", **{c: "h" for c in names}}, "k": 2, "l": 1,
        "match": {"method": "sorted-1d"},
        "region": {"shape": "rectangle-polar", "a": a.tolist(),
                   "b": (a + gen.uniform(0.2, 2.0, 5)).tolist(), "eps": 1.0}}))
    psi = gen.standard_normal(n_est)
    h = 0.6 * psi[:, None] + 0.8 * gen.standard_normal((n_est, 5))
    y0 = psi + np.sin(h[:, 0]) + h @ np.linspace(0.5, -0.5, 5) + gen.standard_normal(n_est)
    np.savetxt(tmp_path / "cov.csv", np.column_stack([np.arange(n_est), psi, h]),
               delimiter=",", header=",".join(["id", "psi"] + names), comments="", fmt="%.17g")
    (tmp_path / "design.json").write_text(json.dumps({
        "roles": {"id": "id", "psi": "psi", **{c: ["h", "w"] for c in names}}, "k": 2, "l": 1,
        "match": {"method": "sorted-1d"}, "region": {"shape": "mahalanobis", "alpha": 0.02}}))

    def cli(*argv, **env):
        subprocess.run([sys.executable, "-m", "finestrat.cli", *argv], env=_cli_env(**env),
                       cwd=tmp_path, capture_output=True, check=True)

    cli("assign", "--spec", "design.json", "--data", "cov.csv", "--out", "assign.csv")
    d = np.array(json.loads((tmp_path / "assign.csv.manifest.json").read_text())["d"])
    np.savetxt(tmp_path / "y.csv", np.column_stack([np.arange(n_est), y0 + 1.3 * d]),
               delimiter=",", header="id,y", comments="", fmt="%.17g")
    outputs = []
    for env in ({}, dict.fromkeys(_BLAS_VARS, "1")):
        cli("calibrate", "--spec", "cal.json", "--data", "cal.csv", "--out", "region.json",
            "--alpha", "0.01", "--draws", "512", **env)
        cli("estimate", "--manifest", "assign.csv.manifest.json", "--data", "cov.csv",
            "--outcomes", "y.csv", "--out", "report.json", **env)
        outputs.append([(tmp_path / f).read_bytes() for f in ("region.json", "report.json")])
    assert outputs[0] == outputs[1]
