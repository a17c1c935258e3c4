"""Micro-benchmarks of the oracle's exact checks at fixed seeded states.

    python -m pytest benchmarks -q

Kept out of the tier-1 testpaths; needs pytest-benchmark.  Each state is
the final coloring of one seeded workload replayed through its structure,
and each check of a state must find it conflict-free.  The failing-set
cases instead time the wording of a witness: a ruler coloring of 100, 640
or 2,000 points on a line whose last point repeats its neighbour's color,
worded first by start up to EXHAUSTIVE_1D_LIMIT points and by the
decider beyond; each must name the last pair.  The per-step cases time the
oracle calls of a whole replay, through IncrementalCF and through check_cf,
and everything a verified step runs: the audit, the colors and the oracle,
the last two from one view.  The clipped-sweep cases replay the
clipped sets of an oracle-sampled replay through IncrementalCF's sweep,
which passes a set of distinct colors unswept, and through check_cf.
The piece cases time the unimax range checks an engine runs on one
piece's final coloring, a seeded colorer's, of 16 or 32 points on a line
and 32 in the plane.
"""

import copy
import random

import pytest

from cfcolor import oracle
from cfcolor.geom import Pt
from cfcolor.harness import generate_workload, make_structure, run_workload
from cfcolor.oracle import (
    IncrementalCF,
    check_cf,
    check_cf_intervals,
    check_cf_rect_ranges,
    check_unimax_intervals,
    check_unimax_rect_ranges,
)
from cfcolor.unimax import IntervalPointColorer, RectPointColorer

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


def _replayed(name):
    """The state's adapter after each event of its workload, in turn."""
    structure, kind, n, delete_ratio, params = STATES[name]
    adapter = make_structure(structure, **params)
    for ev in generate_workload(kind, n, delete_ratio, SEED, **params):
        if ev["op"] == "insert":
            adapter.insert(ev["id"], ev["object"])
        else:
            adapter.delete(ev["id"])
        yield adapter


def _pairs(view):
    return [pair for _, pair in view]


def _final_state(name):
    *_, adapter = _replayed(name)
    return _pairs(adapter.structure.colored_objects())


@pytest.mark.parametrize("name", ["squares-200", "bounded-200", "anchored-700"])
def test_check_cf(benchmark, name):
    colored = _final_state(name)
    assert benchmark(check_cf, colored) is None


@pytest.mark.parametrize("name", ["full-1d-150", "full-1d-2000"])
def test_check_cf_intervals(benchmark, name):
    colored = _final_state(name)
    assert benchmark(check_cf_intervals, colored) is None


@pytest.mark.parametrize("n", [100, 640, 2000])
def test_check_cf_intervals_failing(benchmark, n):
    # point i wears the trailing zeros of i + 1; n - 2 wears 0, and so now n - 1
    colored = [(float(i), ((i + 1) & -(i + 1)).bit_length() - 1) for i in range(n)]
    colored[-1] = (colored[-1][0], 0)
    w = benchmark(check_cf_intervals, colored)
    assert (w.probe, w.colors) == ((n - 2.0, n - 1.0), [0, 0])


def test_check_cf_rect_ranges(benchmark):
    colored = _final_state("full-2d-140")
    assert benchmark(check_cf_rect_ranges, colored) is None


@pytest.mark.parametrize("checker", ["incremental", "check_cf"])
@pytest.mark.parametrize("name", ["squares-200", "bounded-200"])
def test_per_step_check_cf(benchmark, name, checker):
    steps = [adapter.structure.colored_objects() for adapter in _replayed(name)]
    if checker == "check_cf":
        steps = [_pairs(view) for view in steps]

    def replay():
        check = IncrementalCF().check if checker == "incremental" else check_cf
        return [check(colored) for colored in steps]

    assert benchmark(replay) == [None] * len(steps)


def test_per_step_check_cf_intervals(benchmark):
    """check_cf_intervals on the final coloring after each event of the
    full-1d-150 replay."""
    steps = [_pairs(adapter.structure.colored_objects()) for adapter in _replayed("full-1d-150")]

    def replay():
        return [check_cf_intervals(colored) for colored in steps]

    assert benchmark(replay) == [None] * len(steps)


def _piece(colorer_cls, m, point):
    """A colorer's final coloring of m seeded points, as (point, color) pairs."""
    rng = random.Random(SEED)
    points = {oid: point(rng) for oid in range(m)}
    colors = colorer_cls(points).colors
    return [(points[oid], colors[oid]) for oid in points]


@pytest.mark.parametrize("m", [16, 32])
def test_check_unimax_intervals_piece(benchmark, m):
    colored = _piece(IntervalPointColorer, m, lambda rng: rng.uniform(0, 100))
    assert benchmark(check_unimax_intervals, colored) is None


@pytest.mark.parametrize("check", [check_unimax_rect_ranges, check_cf_rect_ranges],
                         ids=["unimax", "cf"])
def test_rect_ranges_piece(benchmark, check):
    colored = _piece(RectPointColorer, 32, lambda rng: Pt(rng.uniform(0, 100),
                                                          rng.uniform(0, 100)))
    assert benchmark(check, colored) is None


@pytest.mark.parametrize("kernel", ["incremental", "check_cf"])
@pytest.mark.parametrize("name", ["squares-200", "bounded-200"])
def test_clipped_sweeps(benchmark, monkeypatch, name, kernel):
    """The clipped sets of an oracle-sampled replay of the state's
    workload, timed apart from whole sweeps."""
    structure, kind, n, delete_ratio, params = STATES[name]
    recorded = []
    clip = oracle._clipped
    monkeypatch.setattr(oracle, "_clipped",
                        lambda view, changed: recorded.append(clip(view, changed))
                        or recorded[-1])
    events = generate_workload(kind, n, delete_ratio, SEED, **params)
    assert run_workload(structure, events, verify="oracle-sampled", **params)["summary"][
        "violations"] == []
    assert recorded
    if kernel == "incremental":
        sweep = IncrementalCF()._sweep

        def replay():
            return [sweep(view) for view in recorded]
    else:
        sweeps = [_pairs(view) for view in recorded]

        def replay():
            return [check_cf(colored) for colored in sweeps]

    assert benchmark(replay) == [None] * len(recorded)


@pytest.mark.parametrize("name", ["squares-200", "bounded-200", "full-1d-150"])
def test_per_step_verification(benchmark, name):
    """Everything a verified step runs, over copies of the structure taken
    after each event: the audit (check_invariants on an engine), the colors
    and the oracle check.  A geometric step reads one view for both of
    the last two, as the harness does."""
    states = [copy.deepcopy(adapter.structure) for adapter in _replayed(name)]

    def replay():
        if name.startswith("full-1d"):
            return [(s.check_invariants(), len(s.global_colors()),
                     check_cf_intervals(list(s.live.values())))
                    for s in states]
        cf = IncrementalCF()
        out = []
        for s in states:
            view = s.colored_objects()
            out.append((s.audit(), len({oid: c for oid, (_, c) in view}), cf.check(view)))
        return out

    assert benchmark(replay) == [(None, len(s), None) for s in states]
