import importlib
import importlib.util
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
