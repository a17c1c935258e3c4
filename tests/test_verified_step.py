"""What one verified step reads: a geometric structure's box view once,
shared by the colors check and the oracle, and an engine's locate/actual
maps in one pass that words a fault as the object-by-object loop does."""

import random

import pytest

from cfcolor import harness
from cfcolor.framework import FullyDynamicEngine, SemiDynamicEngine
from cfcolor.geom import GlobalColor, UnitSquare
from cfcolor.harness import generate_workload, run_workload
from cfcolor.rects import BoundedRectCF
from cfcolor.squares import GridSquareCF
from cfcolor.unimax import IntervalPointColorer
from reference import locate_actual_report


def _counting(cls):
    """A structure class whose colored_boxes() records the live size at
    each call."""
    class Counting(cls):
        def colored_boxes(self):
            self.calls.append(len(self))
            return super().colored_boxes()
    return Counting


COUNTED = {
    "squares": ("unit_square", {}, lambda c: _counting(GridSquareCF)(),
                lambda oid, p: UnitSquare(p["x"], p["y"], oid)),
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
        return harness._GeometricAdapter(structure, to_object)

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
    assert structure.calls == [row["n"] for row in verified]


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
    others = [lv.index for lv in engine.levels if lv.index != engine.locate[oid]]
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

