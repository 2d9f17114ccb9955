"""The benchmark's per-layer tracer (perfbench/tracing.py) wraps program
functions and methods by name, so deleting or renaming one breaks it."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_finds_every_name_it_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # entering the block looks up every traced name and raises on a missing one
    with tracing.Tracer().installed():
        pass
