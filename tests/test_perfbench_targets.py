"""The benchmark's tracer wraps library names by string; each must exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracing_targets_name_existing_attributes():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for layer, owner, attr in tracing.TARGETS:
        assert attr in owner.__dict__, f"{layer}: {owner.__name__} has no {attr}"
