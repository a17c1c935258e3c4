"""The box view every geometric structure gives its verification: one
(id, (x1, x2, y1, y2, global color)) entry per stored object, whose colors
are global_colors()."""

import pytest

from cfcolor.geom import AxisRect, Pt, UnitSquare
from cfcolor.harness import STRUCTURES, generate_workload, make_structure

PARAMS = {"bounded": {"c": 3.0}, "universe": {"universe": 32}}
GEOMETRIC = sorted(name for name, spec in STRUCTURES.items()
                   if spec.kind in ("anchored_rect", "unit_square", "bounded_rect",
                                    "universe_rect"))


def _stored(s):
    """Each stored object by id, from the cells that hold them."""
    cells = s.cells.values() if hasattr(s, "cells") else [s]
    return {oid: obj for cell in cells for oid, obj in cell.objects.items()}


def _rect(obj):
    if isinstance(obj, UnitSquare):
        return AxisRect(obj.x, obj.x + 1.0, obj.y, obj.y + 1.0, obj.id)
    return obj


@pytest.mark.parametrize("name", GEOMETRIC)
def test_boxes_are_the_stored_rectangles_and_the_reported_colors(name):
    params = PARAMS.get(name, {})
    adapter = make_structure(name, **params)
    s = adapter.structure
    events = generate_workload(STRUCTURES[name].kind, 80, 0.3, seed=4, **params)
    assert any(ev["op"] == "delete" for ev in events)
    for ev in events:
        if ev["op"] == "insert":
            adapter.insert(ev["id"], ev["object"])
        else:
            adapter.delete(ev["id"])
        boxes = s.colored_boxes()
        assert s.global_colors() == {oid: box[4] for oid, box in boxes}
        stored = _stored(s)
        assert sorted(oid for oid, _ in boxes) == sorted(stored)
        for oid, (x1, x2, y1, y2, _) in boxes:
            assert AxisRect(x1, x2, y1, y2, oid) == _rect(stored[oid])


@pytest.mark.parametrize("name", [n for n in GEOMETRIC if n != "anchored"])
def test_an_object_in_two_cells_is_listed_twice(name):
    params = PARAMS.get(name, {})
    adapter = make_structure(name, **params)
    s = adapter.structure
    for ev in generate_workload(STRUCTURES[name].kind, 20, 0.0, seed=4, **params):
        adapter.insert(ev["id"], ev["object"])
    obj = _stored(s)[7]
    r = _rect(obj)
    second = s.CELL(Pt(r.x1, r.y1), 0)
    second.insert(obj)
    s.cells[(-50, -50)] = second
    boxes = s.colored_boxes()
    assert [oid for oid, _ in boxes].count(7) == 2
    assert len(boxes) == len(s) + 1
    assert s.audit() is not None
