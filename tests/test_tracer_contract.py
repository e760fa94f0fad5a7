import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_exist():
    # perfbench/tracer.py wraps these attributes by name; a renamed or deleted
    # one would leave a traced run without its span
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [(home, attr) for home, attr in tracer.TARGETS
               if not callable(getattr(importlib.import_module(f"finestrat.{home}"), attr, None))]
    assert missing == []


def test_tracer_reads_arguments_and_fields_that_exist():
    # observe() in perfbench/tracer.py reads some arguments by position and
    # some fields of the returned objects; a renamed parameter or a deleted
    # field would break a traced run, not a test
    from finestrat.adjust import AdjustmentFit
    from finestrat.core import GroupPartition
    from finestrat.gmm import GmmFit
    from finestrat.inference import VarianceComponents
    from finestrat.randomize import AssignmentDraw
    from finestrat.rerandomize import calibrate_threshold, rerandomize
    from finestrat.stratify import match_k_tuples

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(match_k_tuples)[1] == "cfg"
    assert params(rerandomize)[:3] == ["partition", "h", "region"]
    assert params(calibrate_threshold)[:3] == ["region", "partition", "h"]
    assert params(calibrate_threshold)[5] == "draws"
    read = {GmmFit: {"iterations"}, AdjustmentFit: {"cond"},
            VarianceComponents: {"used_collapsed"},
            AssignmentDraw: {"draw_index", "accepted", "penalty"},
            GroupPartition: {"homogeneity", "pairing_stat", "l", "n", "n_groups"}}
    missing = {cls.__name__: names - {f.name for f in dataclasses.fields(cls)} - set(dir(cls))
               for cls, names in read.items()}
    assert all(not names for names in missing.values()), missing
