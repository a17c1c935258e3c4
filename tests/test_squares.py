import math
import random

import pytest

from cfcolor.anchored import AnchoredCF
from cfcolor.geom import AxisRect, DuplicateId, GlobalColor, Pt, UnknownId
from cfcolor.oracle import check_cf
from cfcolor.squares import GridSquareCF, PinnedSquareCF, class_tag, route_square, unit_square
from reference import (category_heights, check_cf_probes, colored_rects, pinned_color,
                       recompute_pinned_square_colors)


def sq(x, y, oid):
    return unit_square(float(x), float(y), oid)


def test_routing_lexicographically_smallest_grid_point():
    assert route_square(sq(0.3, 0.4, 0)) == (1, 1)
    assert route_square(sq(0.0, 0.0, 0)) == (0, 0)  # contains four grid points
    assert route_square(sq(-0.5, 2.25, 0)) == (0, 3)


def test_first_square_gets_color_zero_and_class():
    s = GridSquareCF()
    diff = s.insert(sq(0.3, 0.4, 0))
    assert (1, 1) in s.cells
    assert diff.assigned == (0, GlobalColor(class_tag(1, 1), 0))
    assert diff.recolorings == 0


def test_duplicate_and_unknown_ids():
    s = GridSquareCF()
    s.insert(sq(0.3, 0.4, 0))
    with pytest.raises(DuplicateId):
        s.insert(sq(5.2, 5.9, 0))
    with pytest.raises(UnknownId):
        s.delete(42)


def test_delete_sole_square_drops_cell():
    s = GridSquareCF()
    s.insert(sq(0.3, 0.4, 7))
    diff = s.delete(7)
    assert diff.recolorings == 0
    assert not s.cells


def test_delete_from_two_square_cell_matches_recompute():
    s = GridSquareCF()
    s.insert(sq(0.3, 0.4, 0))
    s.insert(sq(0.6, 0.7, 1))
    assert len(s.cells) == 1
    s.delete(0)
    cell = s.cells[(1, 1)]
    assert cell.colors == recompute_pinned_square_colors(cell.trees[0])


def test_random_squares_cf_at_probes():
    rng = random.Random(11)
    s = GridSquareCF()
    for oid in range(200):
        s.insert(sq(rng.uniform(0, 10), rng.uniform(0, 10), oid))
    assert check_cf(colored_rects(s)) is None
    for key, cell in s.cells.items():
        assert cell.colors == recompute_pinned_square_colors(cell.trees[0])


def test_alternating_updates_cf_after_every_step():
    rng = random.Random(23)
    s = GridSquareCF()
    live = []
    nid = 0
    for step in range(2000):
        if live and (step % 2 == 1 or rng.random() < 0.2):
            s.delete(live.pop(rng.randrange(len(live))))
        else:
            s.insert(sq(rng.uniform(0, 6), rng.uniform(0, 6), nid))
            live.append(nid)
            nid += 1
        if step % 10 == 0 or step > 1980:
            assert check_cf(colored_rects(s)) is None
        for cell in s.cells.values():
            assert cell.colors == recompute_pinned_square_colors(cell.trees[0])
    assert s.audit() is None


def test_pinned_color_formula_and_priority():
    cell = PinnedSquareCF(Pt(1.0, 1.0))
    # sole square: color 0
    cell.insert(sq(0.5, 0.5, 0))
    assert pinned_color(cell, 0) == (0, None)
    # grow the cell; verify the priority chain against per-category heights
    rng = random.Random(2)
    for oid in range(1, 40):
        cell.insert(sq(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95), oid))
    for oid in list(cell.objects):
        h, j = pinned_color(cell, oid)
        cat = category_heights(cell, oid)
        order = ["ne", "se", "sw", "nw"]
        if h == 0:
            assert j is None and max(cat.values()) == 0
        else:
            assert cat[order[j]] == h == max(cat.values())
            assert all(cat[name] < h for name in order[:j])
    assert cell.colors == recompute_pinned_square_colors(cell.trees[0])


def test_same_class_cells_never_intersect():
    rng = random.Random(5)
    s = GridSquareCF()
    for oid in range(300):
        s.insert(sq(rng.uniform(0, 12), rng.uniform(0, 12), oid))
    by_class: dict[int, list] = {}
    for key, cell in s.cells.items():
        by_class.setdefault(class_tag(*key), []).append(cell)
    for cells in by_class.values():
        for a in cells:
            for b in cells:
                if a is b:
                    continue
                for s1 in a.objects.values():
                    for s2 in b.objects.values():
                        disjoint = (s1.x2 < s2.x1 or s2.x2 < s1.x1 or
                                    s1.y2 < s2.y1 or s2.y2 < s1.y1)
                        assert disjoint


def test_quadrant_restriction_matches_anchored_scheme():
    # NE parts of the pinned squares, re-anchored at the pin, colored by the
    # anchored structure with the same insertion order: the anchored color
    # must equal the cell's NE category height.
    rng = random.Random(8)
    cell = PinnedSquareCF(Pt(0.0, 0.0))
    anch = AnchoredCF()
    for oid in range(60):
        q = sq(rng.uniform(-0.95, -0.05), rng.uniform(-0.95, -0.05), oid)
        cell.insert(q)
        anch.insert(AxisRect(0.0, q.x2, 0.0, q.y2, oid))
    for oid in cell.objects:
        assert category_heights(cell, oid)["ne"] == anch.colors[oid]


def test_distinct_color_budget():
    rng = random.Random(6)
    s = GridSquareCF()
    for oid in range(400):
        s.insert(sq(rng.uniform(0, 8), rng.uniform(0, 8), oid))
    n = len(s)
    h_max = max(cell.trees[0].root.height for cell in s.cells.values())
    distinct = len(set(s.global_colors().values()))
    assert h_max <= 2 * math.log2(n + 1)
    assert distinct <= 9 * (4 * h_max + 4)
    assert distinct <= 9 * (8 * math.log2(n + 1) + 4)
