import random

import pytest
from hypothesis import given, settings, strategies as st

from cfcolor.anchored import AnchoredCF, NotAnchored
from cfcolor.cells import NE, NW, SE, SW, compile_selectors, tree_color
from cfcolor.geom import AxisRect, DuplicateId, Pt, UnknownId
from cfcolor.rects import (
    BoundedRectCF,
    CommonPointCF,
    CoordinateOutOfUniverse,
    PinNotContained,
    SizeOutOfRange,
    UniverseRectCF,
)
from cfcolor.squares import GridSquareCF, NotUnitSquare, PinnedSquareCF, unit_square
from reference import (
    colored_rects,
    leaves,
    recompute_anchored_colors,
    recompute_common_point_colors,
    recompute_pinned_square_colors,
)


def test_compiled_picks_follow_selector_order():
    # hits: 2 = the child's ymax names the object, 1 = its ymin, 3 = both
    assert compile_selectors((NE, SE, SW, NW)) == (4, (-1, 2, 3, 2), (-1, 1, 0, 0))
    assert compile_selectors((NE,)) == (1, (-1, -1, -1, -1), (-1, -1, 0, 0))
    assert compile_selectors((NW, SW)) == (2, (-1, 1, 0, 0), (-1, -1, -1, -1))


def test_tree_color_of_a_lone_leaf_is_zero():
    cell = PinnedSquareCF(Pt(1.0, 1.0))
    cell.insert(unit_square(0.5, 0.5, 0))
    assert tree_color(cell.trees[0].leaf_by_payload[0], *cell.RULES[0]) == 0


def test_audit_sees_a_stray_leaf():
    cell = PinnedSquareCF(Pt(1.0, 1.0))
    for oid in range(5):
        cell.insert(unit_square(0.1 * oid, 0.2 * oid, oid))
    assert cell.audit() is None
    # a leaf the cell does not account for: no object 99 was ever inserted
    (key, ymax, ymin), = cell.keys(unit_square(0.45, 0.45, 99))
    cell.trees[0].insert(key, 99, ymax, ymin)
    report = cell.audit()
    assert report is not None and "tree leaves" in report.reason


# -- ties: many equal coordinates, broken by id --------------------------------

# (insert?, four small coordinate choices, which live object to delete)
OPS = st.lists(st.tuples(st.booleans(), st.integers(0, 2), st.integers(0, 2),
                         st.integers(0, 2), st.integers(0, 2), st.integers(0, 999)),
               max_size=40)


def _anchored(oid, a, b, c, d):
    return AxisRect(0.0, 1.0 + a, 0.0, 1.0 + b, oid)


def _pinned(oid, a, b, c, d):
    return unit_square(0.5 * a, 0.5 * b, oid)  # pin (1, 1) in every square


def _common(oid, a, b, c, d):
    return AxisRect(-float(a), float(b), -float(c), float(d), oid)  # pin (0, 0)


CASES = {
    "anchored": (AnchoredCF, _anchored, lambda s: recompute_anchored_colors(s.trees[0])),
    "pinned-square": (lambda: PinnedSquareCF(Pt(1.0, 1.0)), _pinned,
                      lambda s: recompute_pinned_square_colors(s.trees[0])),
    "common-point": (lambda: CommonPointCF(Pt(0.0, 0.0)), _common,
                     lambda s: recompute_common_point_colors(*s.trees)),
}


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_tied_coordinates_match_the_recompute_after_every_step(case, ops):
    make, obj, recompute = CASES[case]
    s = make()
    live = []
    for nid, (insert, a, b, c, d, pick) in enumerate(ops):
        if insert or not live:
            s.insert(obj(nid, a, b, c, d))
            live.append(nid)
        else:
            s.delete(live.pop(pick % len(live)))
        assert s.colors == recompute(s)
    assert s.audit() is None


# -- rejected updates leave the structure unchanged ----------------------------

def _state(s):
    cells = list(s.cells.values()) if hasattr(s, "cells") else [s]
    state = {"len": len(s), "colors": s.global_colors(), "rects": colored_rects(s),
             "audit": s.audit(),
             "leaves": [[(leaf.key, leaf.payload) for leaf in leaves(tree)]
                        for cell in cells for tree in cell.trees]}
    if hasattr(s, "cells"):
        assert all(len(cell) for cell in s.cells.values()), "empty cell left behind"
        state["cells"] = {key: (cell, len(cell)) for key, cell in s.cells.items()}
        state["location"] = dict(s.location)
    return state


def _filled(make, obj, n=30, seed=0):
    rng = random.Random(seed)
    s = make()
    for oid in range(n):
        s.insert(obj(oid, rng))
    for oid in range(0, n, 3):
        s.delete(oid)
    return s


def _bounded_rect(oid, rng):
    x, y = rng.uniform(0, 6), rng.uniform(0, 6)
    return AxisRect(x, x + rng.uniform(1, 2), y, y + rng.uniform(1, 2), oid)


def _universe_rect(oid, rng):
    x = sorted(rng.sample(range(16), 2))
    y = sorted(rng.sample(range(16), 2))
    return AxisRect(x[0], x[1], y[0], y[1], oid)


# structure, a valid object for an id, and the rejected inserts with their errors
REJECTIONS = {
    "anchored": (
        AnchoredCF,
        lambda oid, rng: AxisRect(0.0, rng.uniform(1, 9), 0.0, rng.uniform(1, 9), oid),
        [(AxisRect(1.0, 2.0, 0.0, 3.0, 100), NotAnchored),
         (AxisRect(0.0, 2.0, 0.0, 3.0, 1), DuplicateId)]),
    "squares": (
        GridSquareCF,
        lambda oid, rng: unit_square(rng.uniform(0, 4), rng.uniform(0, 4), oid),
        # each would open a new cell
        [(AxisRect(60.5, 61.5, 60.5, 62.0, 100), NotUnitSquare),
         (unit_square(50.5, 50.5, 1), DuplicateId)]),
    "bounded": (
        lambda: BoundedRectCF(c=2), _bounded_rect,
        [(AxisRect(0.0, 0.5, 0.0, 1.5, 100), SizeOutOfRange),
         (AxisRect(40.0, 41.0, 40.0, 41.0, 1), DuplicateId)]),
    "universe": (
        lambda: UniverseRectCF(universe=16), _universe_rect,
        [(AxisRect(0.0, 17.0, 0.0, 3.0, 100), CoordinateOutOfUniverse),
         (AxisRect(0.0, 3.5, 0.0, 3.0, 100), CoordinateOutOfUniverse),
         (AxisRect(15.0, 15.0, 15.0, 15.0, 1), DuplicateId)]),
    "common-point": (
        lambda: CommonPointCF(Pt(0.0, 0.0)),
        lambda oid, rng: AxisRect(-rng.uniform(0.1, 5), rng.uniform(0.1, 5),
                                  -rng.uniform(0.1, 5), rng.uniform(0.1, 5), oid),
        [(AxisRect(1.0, 2.0, 1.0, 2.0, 100), PinNotContained),
         (AxisRect(-1.0, 1.0, -1.0, 1.0, 1), DuplicateId)]),
    "pinned-square": (
        lambda: PinnedSquareCF(Pt(1.0, 1.0)),
        lambda oid, rng: unit_square(rng.uniform(0, 1), rng.uniform(0, 1), oid),
        [(unit_square(1.5, 0.5, 100), PinNotContained),
         (unit_square(0.5, 0.5, 1), DuplicateId)]),
}


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_rejected_updates_leave_the_structure_unchanged(name):
    make, obj, bad_inserts = REJECTIONS[name]
    s = _filled(make, obj)
    before = _state(s)
    for bad, error in bad_inserts:
        with pytest.raises(error):
            s.insert(bad)
        assert _state(s) == before
    for oid in (0, 999):  # deleted earlier, never inserted
        with pytest.raises(UnknownId):
            s.delete(oid)
        assert _state(s) == before
    assert before["audit"] is None
