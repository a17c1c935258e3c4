"""Stateful property tests of all seven structures, built as replay builds
them (make_structure), over coordinates from a small grid so that ties
and integer corners repeat: an integer corner is where ceil routing puts
a square or a bounded rectangle on a cell boundary.  After each accepted
update the structure's audit and its registry oracle must pass; after
each refused one (a repeated id, an unknown id, a NaN coordinate, or an
object the structure's rule forbids) the structure must be as it was."""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from cfcolor.anchored import NotAnchored
from cfcolor.geom import AxisRect, DuplicateId, UnknownId
from cfcolor.harness import KINDS, STRUCTURES, make_structure
from cfcolor.rects import CoordinateOutOfUniverse, SizeOutOfRange
from cfcolor.squares import NotUnitSquare

GRID = st.integers(0, 5).map(float)
HALVES = st.integers(0, 8).map(lambda v: v / 2)   # 0, 0.5, ..., 4: integers repeat
C = 2.0                                            # the bounded structure's size bound
UNIVERSE = 8
PARAMS = {"bounded": {"c": C}, "universe": {"universe": UNIVERSE}}


def _points(fields):
    return lambda draw: {f: draw(GRID) for f in fields}


def _bounded(draw):
    x1, y1 = draw(HALVES), draw(HALVES)
    sides = st.sampled_from([1.0, 1.5, C])
    return {"x1": x1, "x2": x1 + draw(sides), "y1": y1, "y2": y1 + draw(sides)}


def _universe(draw):
    coordinate = st.integers(0, UNIVERSE - 1)
    (x1, x2), (y1, y2) = (sorted((draw(coordinate), draw(coordinate))) for _ in "xy")
    return {"x1": x1, "x2": x2, "y1": y1, "y2": y2}


# per structure, draw -> the coordinates of a valid object
VALID = {
    "anchored": lambda draw: {"x2": draw(HALVES), "y2": draw(HALVES)},
    "squares": lambda draw: {"x": draw(HALVES), "y": draw(HALVES)},
    "bounded": _bounded,
    "universe": _universe,
    "semi-1d": _points(KINDS["point_1d"].fields),
    "full-1d": _points(KINDS["point_1d"].fields),
    "full-2d": _points(KINDS["point_2d"].fields),
}


def _off_origin(machine, draw, oid):
    corner = st.sampled_from([-1.0, 0.0, 0.5])
    x1, y1 = draw(st.tuples(corner, corner).filter(lambda p: p != (0.0, 0.0)))
    return lambda: machine.structure.insert(AxisRect(x1, x1 + 1.0, y1, y1 + 2.0, oid))


def _not_unit(machine, draw, oid):
    side = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    w, h = draw(st.tuples(side, side).filter(lambda s: s != (1.0, 1.0)))
    x, y = draw(HALVES), draw(HALVES)
    return lambda: machine.structure.insert(AxisRect(x, x + w, y, y + h, oid))


def _out_of_sides(machine, draw, oid):
    coordinates = _bounded(draw)
    field = draw(st.sampled_from(["x2", "y2"]))
    low = field.replace("2", "1")
    coordinates[field] = coordinates[low] + draw(st.sampled_from([0.0, 0.5, 2.5, 3.0]))
    return lambda: machine.adapter.insert(oid, coordinates)


def _inverted(machine, draw, oid):
    coordinates = _bounded(draw)
    field = draw(st.sampled_from(["x2", "y2"]))
    coordinates[field] = coordinates[field.replace("2", "1")] - draw(st.sampled_from([0.5, 1.0]))
    return lambda: machine.adapter.insert(oid, coordinates)


def _out_of_universe(machine, draw, oid):
    coordinates = _universe(draw)
    field = draw(st.sampled_from(sorted(coordinates)))
    # half a unit outward, or one past its end of the universe: never inverted
    high = field.endswith("2")
    coordinates[field] = draw(st.sampled_from(
        [coordinates[field] + (0.5 if high else -0.5), UNIVERSE if high else -1]))
    return lambda: machine.adapter.insert(oid, coordinates)


# per structure, the inserts its own rule refuses: (error, make(machine, draw, id))
REFUSED = {
    "anchored": [(NotAnchored, _off_origin)],
    "squares": [(NotUnitSquare, _not_unit)],
    "bounded": [(SizeOutOfRange, _out_of_sides), (ValueError, _inverted)],
    "universe": [(CoordinateOutOfUniverse, _out_of_universe)],
}


class StructureMachine(RuleBasedStateMachine):
    NAME = ""

    def __init__(self):
        super().__init__()
        self.adapter = make_structure(self.NAME, **PARAMS.get(self.NAME, {}))
        self.structure = self.adapter.structure
        self.fields = KINDS[STRUCTURES[self.NAME].kind].fields
        self.next_id = 0
        self.live: set[int] = set()
        self.deleted: list[int] = []

    def coordinates(self, data, nan_field=None):
        coordinates = VALID[self.NAME](data.draw)
        if nan_field is not None:
            coordinates[nan_field] = float("nan")
        return coordinates

    def accepted(self):
        assert self.adapter.check_invariants() is None
        assert self.adapter.check_oracle() is None

    def state(self):
        s = self.structure
        state = [len(s), s.colored_objects()]
        if hasattr(s, "cells"):
            state += [dict(s.location), list(s.cells)]
        if hasattr(s, "set_states"):
            state += [s.set_states(), dict(s.actual), dict(s.locate), set(s.pool.in_use)]
        return state

    def refused(self, exc, update):
        before = self.state()
        with pytest.raises(exc):
            update()
        assert self.state() == before

    # a few updates a rule, so that runs of them grow the sets and shrink
    # them to downward migrations
    @rule(data=st.data(), count=st.integers(1, 6))
    def insert(self, data, count):
        for _ in range(count):
            self.adapter.insert(self.next_id, self.coordinates(data))
            self.live.add(self.next_id)
            self.next_id += 1
            self.accepted()

    @precondition(lambda self: self.adapter.supports_delete and self.live)
    @rule(data=st.data(), count=st.integers(1, 6))
    def delete(self, data, count):
        for _ in range(min(count, len(self.live))):
            oid = data.draw(st.sampled_from(sorted(self.live)))
            self.adapter.delete(oid)
            self.live.discard(oid)
            self.deleted.append(oid)
            self.accepted()

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def insert_repeated_id(self, data):
        oid = data.draw(st.sampled_from(sorted(self.live)))
        self.refused(DuplicateId, lambda: self.adapter.insert(oid, self.coordinates(data)))

    @precondition(lambda self: self.adapter.supports_delete)
    @rule(data=st.data())
    def delete_unknown_id(self, data):
        oid = data.draw(st.sampled_from(self.deleted + [self.next_id]))
        self.refused(UnknownId, lambda: self.adapter.delete(oid))

    @rule(data=st.data())
    def insert_nan(self, data):
        field = data.draw(st.sampled_from(self.fields))
        self.refused(ValueError, lambda: self.adapter.insert(
            self.next_id, self.coordinates(data, nan_field=field)))

    @precondition(lambda self: self.NAME in REFUSED)
    @rule(data=st.data())
    def insert_forbidden(self, data):
        exc, make = data.draw(st.sampled_from(REFUSED[self.NAME]))
        self.refused(exc, make(self, data.draw, self.next_id))


def _machine(name, examples, steps):
    machine = type(f"Machine_{name}", (StructureMachine,), {"NAME": name})
    test = machine.TestCase
    test.settings = settings(max_examples=examples, stateful_step_count=steps)
    return test


TestSemi1D = _machine("semi-1d", 60, 40)
TestFull1D = _machine("full-1d", 60, 40)
TestFull2D = _machine("full-2d", 50, 40)
TestAnchored = _machine("anchored", 40, 40)
TestSquares = _machine("squares", 40, 40)
TestBounded = _machine("bounded", 40, 40)
TestUniverse = _machine("universe", 40, 40)
