"""Schema smoke test for the benchmark's output; asserts no speed bound.

Runs every workload named in ``BENCHMARK.json`` on tiny inputs, untraced and
traced, and checks the result line: its keys, every metric name and unit
against ``BENCHMARK.json``, and that the outputs passed their checks. Also
checks ``BENCHMARK.json`` itself, and that the benchmark refuses to run
without the program's sources. From the root of a checkout::

    python3 perfbench/check_schema.py      # or: python3 -m pytest perfbench/check_schema.py
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path.insert(0, HERE)
import run  # noqa: E402
import workloads  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    assert len(names) == len(set(names)), "a name is used twice"
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and NAME.match(m["name"])
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and NAME.match(m["name"])
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert len(json.dumps(spec)) <= 64 * 1024


def run_bench(cwd, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, expected):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-2000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    got = result["metrics"]
    assert set(got) == set(expected), sorted(set(got) ^ set(expected))
    for name, entry in got.items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == expected[name]["unit"], name
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), name
        if "bound" in expected[name]:
            assert entry["value"] > 0, name


def check_refuses_without_sources(spec):
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def test_schema():
    spec = load_spec()
    check_spec(spec)
    check_refuses_without_sources(spec)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m for m in spec[group]}
        for w in spec["workloads"]:
            check_result(run_bench(ROOT, w["name"], trace), expected)
            print(f"ok  {w['name']} trace={trace}", flush=True)


if __name__ == "__main__":
    test_schema()
    print("schema ok")
