"""IncrementalCF against check_cf, call by call, its distinct-colors pass on
replayed streams, and the sampled 2-D range check's memory bound."""

import random
import tracemalloc

import pytest

from cfcolor.geom import AxisRect, Pt
from cfcolor.harness import generate_workload, make_structure
from cfcolor.oracle import IncrementalCF, check_cf, check_unimax_rect_ranges
from cfcolor.unimax import RectPointColorer
from reference import colored_rects

STREAMS = {
    # structure: (kind, inserts, delete ratio, make_structure params)
    "anchored": ("anchored_rect", 120, 0.3, {}),
    "squares": ("unit_square", 120, 0.3, {}),
    "bounded": ("bounded_rect", 120, 0.3, {"c": 3.0}),
    "universe": ("universe_rect", 120, 0.3, {"universe": 32}),
}


def rect(x1, x2, y1, y2, oid):
    return AxisRect(float(x1), float(x2), float(y1), float(y2), oid)


def _overlap(a, b):
    return a.x1 <= b.x2 and b.x1 <= a.x2 and a.y1 <= b.y2 and b.y1 <= a.y2


def _center_distance(a, b):
    return abs(a.x1 + a.x2 - b.x1 - b.x2) + abs(a.y1 + a.y2 - b.y1 - b.y2)


def _planted(colored, victim):
    """colored with the victim's color replaced by that of the lowest id
    overlapping it, or None if nothing overlaps it."""
    mine = next(r for r, _ in colored if r.id == victim)
    donor = min(((r.id, c) for r, c in colored if r.id != victim and _overlap(r, mine)),
                default=None)
    if donor is None:
        return None
    return [(r, donor[1] if r.id == victim else c) for r, c in colored]


def _same(tracker, colored):
    got = tracker.check([(r.id, (r, c)) for r, c in colored])
    want = check_cf(colored)
    assert str(got) == str(want)
    return want


@pytest.mark.parametrize("structure", sorted(STREAMS))
def test_agrees_with_check_cf_on_replayed_streams_with_planted_faults(structure):
    kind, n, ratio, params = STREAMS[structure]
    adapter = make_structure(structure, **params)
    swept = []
    tracker = IncrementalCF(lambda colored: swept.append(len(colored)) or check_cf(colored))
    rects = {}
    violations = 0
    for step, ev in enumerate(generate_workload(kind, n, ratio, seed=17, **params)):
        if ev["op"] == "insert":
            adapter.insert(ev["id"], ev["object"])
        else:
            adapter.delete(ev["id"])
        colored = colored_rects(adapter.structure)
        moved = rects.get(ev["id"])
        rects = {r.id: r for r, _ in colored}
        moved = rects.get(ev["id"], moved)
        if step % 3 == 1 and colored:
            # a fault at the update, then one as far from it as there is
            near = min(rects.values(), key=lambda r: (not _overlap(r, moved), r.id))
            far = max(rects.values(), key=lambda r: (_center_distance(r, moved), -r.id))
            for victim in (near.id, far.id):
                faulty = _planted(colored, victim)
                if faulty is not None:
                    violations += _same(tracker, faulty) is not None
        assert _same(tracker, colored) is None
    assert violations >= 5
    # most calls swept a clipped subset
    full = len(rects)
    assert sum(size < full for size in swept) > len(swept) // 2


@pytest.mark.parametrize("structure", sorted(STREAMS))
def test_replayed_streams_pass_distinct_colored_sets_unswept(structure, monkeypatch):
    """The replay above, counting the sets IncrementalCF would sweep: many
    have distinct colors and pass without calling the sweep, the others
    are swept."""
    sets = []
    real = IncrementalCF._sweep
    monkeypatch.setattr(IncrementalCF, "_sweep",
                        lambda self, view: sets.append(view) or real(self, view))
    test_agrees_with_check_cf_on_replayed_streams_with_planted_faults(structure)
    distinct = sum(len({c for _, (_, c) in view}) == len(view) for view in sets)
    assert distinct > 10 and distinct < len(sets)


def _three_in_a_row():
    """x and y share color 1 and meet only on x = 2, which z (color 2)
    covers; w lies far off."""
    return [(rect(0, 2, 0, 2, 0), 1), (rect(2, 4, 0, 2, 1), 1),
            (rect(1, 3, 0, 2, 2), 2), (rect(50, 51, 50, 51, 3), 3)]


def test_deletion_whose_old_rectangle_alone_holds_the_violation():
    tracker = IncrementalCF()
    state = _three_in_a_row()
    assert _same(tracker, state) is None
    w = _same(tracker, [state[0], state[1], state[3]])
    assert w is not None and w.probe.x == 2.0 and w.colors == [1, 1]


def test_moved_rectangle_exposes_a_violation_at_its_old_place():
    tracker = IncrementalCF()
    state = _three_in_a_row()
    assert _same(tracker, state) is None
    state[2] = (rect(10, 12, 0, 2, 2), 2)
    assert _same(tracker, state) is not None


def test_changed_color_for_an_existing_id():
    tracker = IncrementalCF()
    state = _three_in_a_row()
    assert _same(tracker, state) is None
    state[2] = (state[2][0], 1)
    assert _same(tracker, state) is not None
    state[2] = (state[2][0], 2)
    assert _same(tracker, state) is None


def test_fault_far_from_the_change():
    tracker = IncrementalCF()
    state = _three_in_a_row()
    assert _same(tracker, state) is None
    # one change far off passes; then a fault at the first cluster
    state[3] = (rect(60, 61, 50, 51, 3), 3)
    assert _same(tracker, state) is None
    state[1] = (state[1][0], 2)
    assert _same(tracker, state) is not None


def test_repeated_id_is_swept_whole():
    tracker = IncrementalCF()
    state = _three_in_a_row()
    assert _same(tracker, state) is None
    # a second copy of z: its entry reads the same, the cover on x = 2 does not
    assert _same(tracker, state + [state[2]]) is not None
    # a passing input with a repeated id, then without its copy over x = 2
    twice = state + [(rect(70, 71, 70, 71, 2), 2)]
    assert _same(tracker, twice) is None
    assert _same(tracker, [twice[0], twice[1], twice[3], twice[4]]) is not None


def test_failing_calls_then_passing_ones():
    tracker = IncrementalCF()
    state = _three_in_a_row()
    assert _same(tracker, state) is None
    broken = [state[0], state[1], state[3]]
    assert _same(tracker, broken) is not None
    # the same input fails again, and so does one changed only far off
    assert _same(tracker, broken) is not None
    broken[2] = (rect(60, 61, 50, 51, 3), 3)
    assert _same(tracker, broken) is not None
    assert _same(tracker, state) is None
    assert _same(tracker, state) is None
    assert _same(tracker, []) is None
    assert _same(tracker, broken) is not None


def test_sampled_rect_ranges_memory_stays_bounded():
    rng = random.Random(3)
    pts = {i: Pt(rng.uniform(0, 100), rng.uniform(0, 100)) for i in range(2000)}
    colored = [(pts[oid], c) for oid, c in RectPointColorer(pts).colors.items()]
    tracemalloc.start()
    try:
        assert check_unimax_rect_ranges(colored, samples=4096, seed=0) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
