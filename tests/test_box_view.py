"""The view every structure gives its verification, colored_objects(): one
(id, (object, global color)) entry per stored object, where the object is
the one the structure stores, as its kind's to_object built it (an
AxisRect for the four geometric kinds, a point for the engines), and the
color is the one global_colors() reports."""

import pytest

from cfcolor.geom import AxisRect, Pt
from cfcolor.harness import KINDS, STRUCTURES, generate_workload, make_structure

PARAMS = {"bounded": {"c": 3.0}, "universe": {"universe": 32}}
GEOMETRIC = sorted(name for name, spec in STRUCTURES.items()
                   if spec.kind in ("anchored_rect", "unit_square", "bounded_rect",
                                    "universe_rect"))


def _stored(s):
    """Each stored object by id: a partition's from the cells that hold
    them, a cell's or an engine's from its own objects."""
    cells = s.cells.values() if hasattr(s, "cells") else [s]
    return {oid: obj for cell in cells for oid, obj in cell.objects.items()}


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_entries_are_the_stored_objects_and_the_reported_colors(name):
    spec = STRUCTURES[name]
    params = PARAMS.get(name, {})
    adapter = make_structure(name, **params)
    s = adapter.structure
    to_object = KINDS[spec.kind].to_object
    ratio = 0.3 if adapter.supports_delete else 0.0
    events = generate_workload(spec.kind, 80, ratio, seed=4, **params)
    assert any(ev["op"] == "delete" for ev in events) == adapter.supports_delete
    payloads = {}
    for ev in events:
        if ev["op"] == "insert":
            adapter.insert(ev["id"], ev["object"])
            payloads[ev["id"]] = ev["object"]
        else:
            adapter.delete(ev["id"])
        view = s.colored_objects()
        assert s.global_colors() == {oid: color for oid, (_, color) in view}
        stored = _stored(s)
        assert sorted(oid for oid, _ in view) == sorted(stored)
        for oid, (obj, _) in view:
            assert obj is stored[oid]
            assert obj == to_object(oid, payloads[oid])
            assert type(obj) is AxisRect or name not in GEOMETRIC


@pytest.mark.parametrize("name", [n for n in GEOMETRIC if n != "anchored"])
def test_an_object_in_two_cells_is_listed_twice(name):
    params = PARAMS.get(name, {})
    adapter = make_structure(name, **params)
    s = adapter.structure
    for ev in generate_workload(STRUCTURES[name].kind, 20, 0.0, seed=4, **params):
        adapter.insert(ev["id"], ev["object"])
    r = _stored(s)[7]
    second = s.CELL(Pt(r.x1, r.y1), 0)
    second.insert(r)
    s.cells[(-50, -50)] = second
    view = s.colored_objects()
    assert [oid for oid, _ in view].count(7) == 2
    assert len(view) == len(s) + 1
    assert s.audit() is not None
