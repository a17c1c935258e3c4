"""Micro-benchmarks of the oracle's exact checks at fixed seeded states.

    python -m pytest benchmarks -q

Kept out of the tier-1 testpaths; needs pytest-benchmark.  Each state is
the final coloring of one seeded workload replayed through its structure,
and every check must find it conflict-free.
"""

import pytest

from cfcolor.harness import generate_workload, make_structure
from cfcolor.oracle import check_cf, check_cf_intervals, check_cf_rect_ranges

# name: (structure, object kind, inserts, delete ratio, structure params)
STATES = {
    "squares-200": ("squares", "unit_square", 200, 0.3, {}),
    "bounded-200": ("bounded", "bounded_rect", 200, 0.3, {"c": 3.0}),
    "anchored-700": ("anchored", "anchored_rect", 700, 0.0, {}),
    "full-1d-150": ("full-1d", "point_1d", 150, 0.3, {}),
    "full-1d-2000": ("full-1d", "point_1d", 2000, 0.3, {}),
    "full-2d-140": ("full-2d", "point_2d", 140, 0.0, {}),
}
SEED = 1


def _final_state(name):
    structure, kind, n, delete_ratio, params = STATES[name]
    adapter = make_structure(structure, **params)
    for ev in generate_workload(kind, n, delete_ratio, SEED, **params):
        if ev["op"] == "insert":
            adapter.insert(ev["id"], ev["object"])
        else:
            adapter.delete(ev["id"])
    if adapter.framework_info() is None:
        return adapter.structure.colored_rects()
    return [(adapter.structure.objects[o], c) for o, c in adapter.structure.actual.items()]


@pytest.mark.parametrize("name", ["squares-200", "bounded-200", "anchored-700"])
def test_check_cf(benchmark, name):
    colored = _final_state(name)
    assert benchmark(check_cf, colored) is None


@pytest.mark.parametrize("name", ["full-1d-150", "full-1d-2000"])
def test_check_cf_intervals(benchmark, name):
    colored = _final_state(name)
    assert benchmark(check_cf_intervals, colored) is None


def test_check_cf_rect_ranges(benchmark):
    colored = _final_state("full-2d-140")
    assert benchmark(check_cf_rect_ranges, colored, samples=20_000) is None
