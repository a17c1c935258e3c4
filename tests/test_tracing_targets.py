"""The benchmark's span tracer (perfbench/tracing.py) wraps entry points of
the package by name and reads engine state through set_states() and
pool.in_use.  These tests keep a rename in the package from silently
turning its metrics into missing targets or wrong counts."""

import importlib.util
from pathlib import Path

import pytest

from cfcolor import framework
from cfcolor.framework import DOWN, UP
from cfcolor.harness import generate_workload, make_structure

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_exists(tracing):
    original = framework.FullyDynamicEngine.insert
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert framework.FullyDynamicEngine.insert is not original
    finally:
        tracer.uninstall()
    assert framework.FullyDynamicEngine.insert is original


def test_engine_state_counts_the_migrating_sets(tracing):
    adapter = make_structure("full-1d")
    engine = adapter.structure
    seen = set()
    for ev in generate_workload("point_1d", 200, 0.9, seed=3):
        if ev["op"] == "insert":
            diff = adapter.insert(ev["id"], ev["object"])
        else:
            diff = adapter.delete(ev["id"])
        migrating = [s for s in engine.set_states() if s in (UP, DOWN)]
        seen.update(migrating)
        assert tracing._engine_state((engine,), diff) == (
            diff.recolorings, len(migrating), len(engine.pool.in_use))
    assert seen == {UP, DOWN}
