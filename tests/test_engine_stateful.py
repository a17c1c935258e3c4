"""Stateful property tests of the framework engines, built as replay builds
them (make_structure), over coordinates from a small grid so that ties
repeat.  After each accepted update the engine's own audit and its
registry oracle must pass; after each refused one (a repeated id, an
unknown id, a NaN coordinate) the engine must be as it was."""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from cfcolor.geom import DuplicateId, UnknownId
from cfcolor.harness import KINDS, STRUCTURES, make_structure

GRID = st.integers(0, 5).map(float)


class EngineMachine(RuleBasedStateMachine):
    NAME = ""

    def __init__(self):
        super().__init__()
        self.adapter = make_structure(self.NAME)
        self.engine = self.adapter.structure
        self.oracle = STRUCTURES[self.NAME].oracle()
        self.fields = KINDS[STRUCTURES[self.NAME].kind].fields
        self.next_id = 0
        self.deleted: list[int] = []

    def coordinates(self, data, nan_field=None):
        return {f: float("nan") if f == nan_field else data.draw(GRID) for f in self.fields}

    def accepted(self):
        assert self.engine.check_invariants() is None
        assert self.oracle(self.engine.colored_points()) is None

    def refused(self, exc, update):
        e = self.engine
        state = lambda: (e.set_states(), dict(e.actual), dict(e.locate), set(e.pool.in_use))
        before = state()
        with pytest.raises(exc):
            update()
        assert state() == before

    # a few updates a rule, so that runs of them grow the sets and shrink
    # them to downward migrations
    @rule(data=st.data(), count=st.integers(1, 6))
    def insert(self, data, count):
        for _ in range(count):
            self.adapter.insert(self.next_id, self.coordinates(data))
            self.next_id += 1
            self.accepted()

    @precondition(lambda self: self.adapter.supports_delete and len(self.engine))
    @rule(data=st.data(), count=st.integers(1, 6))
    def delete(self, data, count):
        for _ in range(min(count, len(self.engine))):
            oid = data.draw(st.sampled_from(sorted(self.engine.objects)))
            self.adapter.delete(oid)
            self.deleted.append(oid)
            self.accepted()

    @precondition(lambda self: len(self.engine))
    @rule(data=st.data())
    def insert_repeated_id(self, data):
        oid = data.draw(st.sampled_from(sorted(self.engine.objects)))
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


def _machine(name, examples, steps):
    machine = type(f"Machine_{name}", (EngineMachine,), {"NAME": name})
    test = machine.TestCase
    test.settings = settings(max_examples=examples, stateful_step_count=steps)
    return test


TestSemi1D = _machine("semi-1d", 60, 40)
TestFull1D = _machine("full-1d", 60, 40)
TestFull2D = _machine("full-2d", 50, 40)
