"""Micro-benchmarks of the framework engines over the unimax colorers.

    python -m pytest benchmarks -q

Kept out of the tier-1 testpaths; needs pytest-benchmark.  Each benchmark
replays one fixed seeded stream of 1,000 inserts into a fresh engine,
calling the engine directly (no harness adapter, no checks).
"""

import pytest

from cfcolor.framework import FullyDynamicEngine, SemiDynamicEngine
from cfcolor.geom import Pt
from cfcolor.harness import generate_workload
from cfcolor.unimax import IntervalPointColorer, RectPointColorer

# name: (engine, colorer, object kind, payload -> object, delete ratio)
STREAMS = {
    "semi-1d": (SemiDynamicEngine, IntervalPointColorer, "point_1d", lambda p: p["x"], 0.0),
    "full-1d": (FullyDynamicEngine, IntervalPointColorer, "point_1d", lambda p: p["x"], 0.9),
    "full-2d": (FullyDynamicEngine, RectPointColorer, "point_2d",
                lambda p: Pt(p["x"], p["y"]), 0.3),
}
N = 1000
SEED = 1


def _replay(engine_cls, colorer_cls, ops):
    engine = engine_cls(colorer_cls)
    for oid, obj in ops:
        if obj is None:
            engine.delete(oid)
        else:
            engine.insert(oid, obj)
    return engine


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_engine_stream(benchmark, name):
    engine_cls, colorer_cls, kind, to_object, delete_ratio = STREAMS[name]
    ops = [(ev["id"], to_object(ev["object"]) if ev["op"] == "insert" else None)
           for ev in generate_workload(kind, N, delete_ratio, SEED)]
    engine = benchmark(_replay, engine_cls, colorer_cls, ops)
    assert engine.check_invariants(unimax_limit=0) is None
