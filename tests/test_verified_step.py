"""What one verified step reads: a geometric structure's view once,
handed over by its passing audit and shared by the colors check and the
oracle, an engine's locate/actual maps in one pass that words a fault as
the object-by-object loop does, and the unimax range check only on pieces
whose points or final colors changed since they last passed it."""

import random

import pytest

from cfcolor import harness
from cfcolor.framework import SETTLED, FullyDynamicEngine, SemiDynamicEngine
from cfcolor.geom import GlobalColor
from cfcolor.harness import generate_workload, run_workload
from cfcolor.oracle import check_unimax_intervals
from cfcolor.rects import BoundedRectCF
from cfcolor.squares import GridSquareCF, unit_square
from cfcolor.unimax import IntervalPointColorer
from reference import locate_actual_report


def _counting(cls):
    """A structure class whose two read paths, audited_view() and
    colored_objects(), record their name and the live size at each call."""
    class Counting(cls):
        def audited_view(self):
            self.calls.append(("audited_view", len(self)))
            return super().audited_view()

        def colored_objects(self):
            self.calls.append(("colored_objects", len(self)))
            return super().colored_objects()
    return Counting


COUNTED = {
    "squares": ("unit_square", {}, lambda c: _counting(GridSquareCF)(),
                lambda oid, p: unit_square(p["x"], p["y"], oid)),
    "bounded": ("bounded_rect", {"c": 3.0}, lambda c: _counting(BoundedRectCF)(c),
                harness._payload_to_rect),
}


@pytest.mark.parametrize("verify", ["invariants", "oracle-sampled", "oracle-every-step"])
@pytest.mark.parametrize("name", sorted(COUNTED))
def test_a_verified_step_reads_the_box_view_once(name, verify, monkeypatch):
    kind, params, build, to_object = COUNTED[name]
    made = []

    def make(structure_name, c=None, universe=None):
        structure = build(c)
        structure.calls = []
        made.append(structure)
        return harness._Adapter(structure, harness.STRUCTURES[structure_name])

    monkeypatch.setattr(harness, "make_structure", make)
    # past ORACLE_EVERY_STEP_LIMIT live objects, so oracle-sampled skips steps
    events = generate_workload(kind, 300, 0.1, seed=4, **params)
    report = run_workload(name, events, verify=verify, **params)
    assert report["summary"]["violations"] == []
    verified = [row for row in report["steps"] if row["verified"] != "skipped"]
    if verify == "oracle-sampled":
        assert 0 < len(verified) < len(events)
    else:
        assert len(verified) == len(events)
    (structure,) = made
    # a passing audit hands over the view: colored_objects() is never read
    assert structure.calls == [("audited_view", row["n"]) for row in verified]


def _engines():
    """Seeded 1-D engines, each after every update of its stream, with
    pieces mid-migration, frozen children and downward migrations."""
    for cls, delete_ratio, seed in ((SemiDynamicEngine, 0.0, 41),
                                    (FullyDynamicEngine, 0.6, 42)):
        engine = cls(IntervalPointColorer)
        for ev in generate_workload("point_1d", 90, delete_ratio, seed):
            if ev["op"] == "insert":
                engine.insert(ev["id"], ev["object"]["x"])
            else:
                engine.delete(ev["id"])
            yield engine


def _wrong_actual(engine, rng):
    oid = rng.choice(sorted(engine.actual))
    tag, local = engine.actual[oid]
    engine.actual[oid] = GlobalColor(tag, local + 1)


def _actual_of_another(engine, rng):
    a, b = rng.sample(sorted(engine.actual), 2)
    engine.actual[a] = engine.actual[b]


def _two_wrong_actuals(engine, rng):
    _wrong_actual(engine, rng)
    _actual_of_another(engine, rng)


def _wrong_level(engine, rng):
    oid = rng.choice(sorted(engine.locate))
    others = [i for i in range(len(engine.levels)) if i != engine.locate[oid]]
    engine.locate[oid] = rng.choice(others + [-1, len(engine.levels)])


def _missing_from_locate(engine, rng):
    del engine.locate[rng.choice(sorted(engine.locate))]


FAULTS = {
    "wrong actual entry": _wrong_actual,
    "actual of another object": _actual_of_another,
    "two wrong actual entries": _two_wrong_actuals,
    "locate names the wrong level": _wrong_level,
    "member missing from locate": _missing_from_locate,
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_engine_check_words_a_fault_as_the_per_object_loop(fault):
    rng = random.Random(fault)
    planted = 0
    for step, engine in enumerate(_engines()):
        if len(engine) < 2 or step % 3:
            continue
        assert engine.check_invariants() is None
        saved = dict(engine.locate), dict(engine.actual)
        FAULTS[fault](engine, rng)
        want = locate_actual_report(engine)
        if want is not None:
            planted += 1
            assert engine.check_invariants() == want
        engine.locate, engine.actual = saved
    assert planted > 40


def test_a_sound_engine_resolves_no_object_one_by_one():
    """The one-pass check passes a sound engine by itself: the per-object
    loop, which climbs with _resolve, never runs."""
    climbs = []
    checked = 0
    for engine in _engines():
        engine._resolve = lambda piece, oid: climbs.append(oid)
        assert engine.check_invariants() is None
        del engine._resolve
        checked += 1
    assert checked > 100 and climbs == []


# -- the unimax range check, once per unchanged piece -------------------------

def _counting_full_1d(calls):
    """A full-1d engine whose range checker records each (points, colors)
    pair it is given, as sorted item tuples."""
    def checker(points, colors):
        calls.append(_pair(points, colors))
        return harness._interval_checker(points, colors)
    return FullyDynamicEngine(IntervalPointColorer, checker)


def _pair(points, colors):
    return tuple(sorted(points.items())), tuple(sorted(colors.items()))


def _pieces(engine):
    """Every piece of the engine, children included."""
    todo = [piece for piece in engine.levels if piece is not None]
    while todo:
        piece = todo.pop()
        yield piece
        todo.extend(piece.children)


def _settled_piece(engine):
    """The largest settled piece below the last level."""
    return max((piece for piece, state in zip(engine.levels[:-1], engine.set_states())
                if state == SETTLED),
               key=lambda piece: len(piece.members))


def _swap_colors(engine, pieces, breaks):
    """Swap, in place, the final colors of two differently colored members
    of the first of the pieces where that leaves it not unimax (breaks) or
    still unimax; the two ids, or None if no such swap exists."""
    for piece in pieces:
        colors = piece.colors
        for a in sorted(piece.members):
            for b in sorted(piece.members):
                if colors[a] >= colors[b]:
                    continue
                colors[a], colors[b] = colors[b], colors[a]
                bad = check_unimax_intervals([(engine.objects[o], colors[o])
                                              for o in piece.members])
                if (bad is not None) == breaks:
                    return a, b
                colors[a], colors[b] = colors[b], colors[a]
    return None


def _loaded_engine(calls):
    engine = _counting_full_1d(calls)
    rng = random.Random(6)
    # levels of 2, 4, 8 and 16, all settled
    for oid in range(30):
        engine.insert(oid, rng.uniform(0, 100))
    return engine


def test_a_swap_in_a_piece_that_passed_is_still_not_unimax():
    engine = _loaded_engine([])
    assert engine.check_invariants() is None
    assert _swap_colors(engine, [_settled_piece(engine)], breaks=True)
    report = engine.check_invariants()
    assert report is not None and report.reason.startswith("final coloring not unimax")


def test_a_weak_deletion_re_runs_the_checker_on_its_piece():
    calls = []
    engine = _loaded_engine(calls)
    assert engine.check_invariants() is None
    piece = _settled_piece(engine)
    engine.delete(min(piece.members))
    calls.clear()
    assert engine.check_invariants() is None
    now = _pair({o: engine.objects[o] for o in piece.members}, piece.colors)
    assert now in calls
    # what passed now is the state a later fault is told apart from
    assert _swap_colors(engine, [piece], breaks=True)
    report = engine.check_invariants()
    assert report is not None and report.reason.startswith("final coloring not unimax")


def test_an_unchanged_piece_is_checked_once():
    """Over a seeded stream, each check calls the range checker exactly on
    the pieces whose pair differs from the one they last passed with, and
    a repeated check calls it on none.  Every fifth step also swaps two
    colors inside a settled piece, which keeps its members."""
    calls = []
    engine = _counting_full_1d(calls)
    last: dict = {}      # piece -> the pair it last passed with
    skipped = swapped = 0
    for step, ev in enumerate(generate_workload("point_1d", 120, 0.4, seed=9)):
        if ev["op"] == "insert":
            engine.insert(ev["id"], ev["object"]["x"])
        else:
            engine.delete(ev["id"])
        if step % 5 == 0:
            # a sound engine whose piece changed in place
            settled = [piece for piece, state in zip(engine.levels, engine.set_states())
                       if state == SETTLED]
            swap = _swap_colors(engine, settled, breaks=False)
            if swap is not None:
                a, b = swap
                engine.actual[a], engine.actual[b] = engine.actual[b], engine.actual[a]
                swapped += 1
        want = []
        for piece in _pieces(engine):
            if 0 < len(piece.members) <= 32:
                pair = _pair({o: engine.objects[o] for o in piece.members}, piece.colors)
                if last.get(id(piece), (None, None))[1] == pair:
                    skipped += 1
                else:
                    want.append(pair)
                last[id(piece)] = piece, pair
        calls.clear()
        assert engine.check_invariants() is None
        assert sorted(calls) == sorted(want)
        assert engine.check_invariants() is None and engine.check_invariants() is None
        assert sorted(calls) == sorted(want)
    assert skipped > 100 and swapped > 20
