import math
import random

import pytest

from cfcolor.geom import AxisRect, GlobalColor, Pt, pair_encode
from cfcolor.oracle import check_cf
from cfcolor.rects import (
    BoundedRectCF,
    CommonPointCF,
    CoordinateOutOfUniverse,
    PinNotContained,
    SizeOutOfRange,
    UniverseRectCF,
    skeleton_locate,
)
from reference import (check_cf_probes, colored_rects, pair_decode,
                       recompute_common_point_colors, skeleton_path_values)


def rect(x1, x2, y1, y2, oid):
    return AxisRect(float(x1), float(x2), float(y1), float(y2), oid)


# -- common-point cells -------------------------------------------------------

def test_single_rect_gets_pair_zero_zero():
    cp = CommonPointCF(Pt(0.0, 0.0))
    diff = cp.insert(rect(-1, 1, -1, 1, 0))
    assert diff.assigned == (0, (0, 0))
    assert cp.colors[0] == (0, 0)


def test_pin_must_be_contained():
    cp = CommonPointCF(Pt(0.0, 0.0))
    with pytest.raises(PinNotContained):
        cp.insert(rect(1, 2, 1, 2, 0))


def test_nested_rects_distinct_pairs_probe_unique():
    cp = CommonPointCF(Pt(0.0, 0.0))
    cp.insert(rect(-3, 3, -3, 3, 0))
    cp.insert(rect(-1, 1, -1, 1, 1))
    assert cp.colors[0] != cp.colors[1]
    colored = [(cp.objects[oid], cp.colors[oid]) for oid in cp.objects]
    assert check_cf_probes(colored) is None


def test_common_point_matches_definitional_and_pair_budget():
    rng = random.Random(15)
    cp = CommonPointCF(Pt(0.0, 0.0))
    for oid in range(512):
        cp.insert(rect(-rng.uniform(0.1, 50), rng.uniform(0.1, 50),
                       -rng.uniform(0.1, 50), rng.uniform(0.1, 50), oid))
    assert cp.colors == recompute_common_point_colors(cp.trees[0], cp.trees[1])
    h_e = cp.trees[0].root.height
    h_w = cp.trees[1].root.height
    distinct_pairs = len(set(cp.colors.values()))
    assert distinct_pairs <= (2 * h_e + 2) * (2 * h_w + 2)
    colored = [(cp.objects[oid], cp.colors[oid]) for oid in cp.objects]
    assert check_cf(colored) is None


def test_common_point_mixed_updates_definitional_equality():
    rng = random.Random(16)
    cp = CommonPointCF(Pt(0.0, 0.0))
    live = []
    nid = 0
    for step in range(600):
        if live and rng.random() < 0.4:
            cp.delete(live.pop(rng.randrange(len(live))))
        else:
            cp.insert(rect(-rng.uniform(0.1, 9), rng.uniform(0.1, 9),
                           -rng.uniform(0.1, 9), rng.uniform(0.1, 9), nid))
            live.append(nid)
            nid += 1
        assert cp.colors == recompute_common_point_colors(cp.trees[0], cp.trees[1])
        if step % 25 == 0:
            colored = [(cp.objects[oid], cp.colors[oid]) for oid in cp.objects]
            assert check_cf(colored) is None


# -- bounded-size rectangles --------------------------------------------------

def test_bounded_routing_example():
    s = BoundedRectCF(c=2)
    s.insert(rect(0.5, 2.0, 0.5, 1.6, 0))
    assert (1, 1) in s.cells
    assert s.cells[(1, 1)].pin == Pt(1.0, 1.0)


def test_bounded_rejects_out_of_range_sides():
    s = BoundedRectCF(c=2)
    with pytest.raises(SizeOutOfRange):
        s.insert(rect(0, 0.5, 0, 1.5, 0))
    with pytest.raises(SizeOutOfRange):
        s.insert(rect(0, 2.5, 0, 1.5, 0))


def test_bounded_class_modulus():
    assert BoundedRectCF(c=1.5).class_modulus == 5
    assert BoundedRectCF(c=3).class_modulus == 7


def test_bounded_random_updates_cf_every_step():
    rng = random.Random(31)
    s = BoundedRectCF(c=3)
    live = []
    nid = 0
    for step in range(300):
        if live and rng.random() < 0.3:
            s.delete(live.pop(rng.randrange(len(live))))
        else:
            x1 = rng.uniform(0, 15)
            y1 = rng.uniform(0, 15)
            s.insert(rect(x1, x1 + rng.uniform(1, 3), y1, y1 + rng.uniform(1, 3), nid))
            live.append(nid)
            nid += 1
        assert check_cf(colored_rects(s)) is None
    assert s.audit() is None


def test_bounded_recoloring_bound():
    rng = random.Random(32)
    s = BoundedRectCF(c=1.5)
    live = []
    nid = 0
    for step in range(600):
        if live and rng.random() < 0.3:
            diff = s.delete(live.pop(rng.randrange(len(live))))
        else:
            x1 = rng.uniform(0, 4)  # few cells: deeper trees
            y1 = rng.uniform(0, 4)
            diff = s.insert(rect(x1, x1 + rng.uniform(1, 1.5), y1, y1 + rng.uniform(1, 1.5), nid))
            live.append(nid)
            nid += 1
        n = max(len(s), 1)
        assert diff.recolorings <= 3 * math.log2(n + 2) + 4


def test_same_class_bounded_cells_disjoint():
    rng = random.Random(33)
    s = BoundedRectCF(c=1.5)
    for oid in range(250):
        x1 = rng.uniform(0, 20)
        y1 = rng.uniform(0, 20)
        s.insert(rect(x1, x1 + rng.uniform(1, 1.5), y1, y1 + rng.uniform(1, 1.5), oid))
    by_class: dict[int, list] = {}
    for key, cell in s.cells.items():
        by_class.setdefault(s.class_tag(*key), []).append(cell)
    for cells in by_class.values():
        for a in cells:
            for b in cells:
                if a is b:
                    continue
                for r1 in a.objects.values():
                    for r2 in b.objects.values():
                        assert (r1.x2 < r2.x1 or r2.x2 < r1.x1 or
                                r1.y2 < r2.y1 or r2.y2 < r1.y1)


# -- universe rectangles ------------------------------------------------------

def test_universe_full_rect_stored_at_roots():
    s = UniverseRectCF(universe=8)
    s.insert(rect(0, 7, 0, 7, 0))
    key, pin, tag = s.route(rect(0, 7, 0, 7, 1))
    levels = divmod(tag, s.levels)
    assert key == (1, 1) and levels == (0, 0)
    assert pin == Pt(3.0, 3.0)  # root midpoint of {0..7}
    assert s.location[0] == (1, 1)


def test_universe_handwalked_descent():
    # N=8, x-range [5,6]: root mid 3 (miss) -> right [4,7] mid 5 (hit)
    heap, value, level = skeleton_locate(8, 5, 6)
    assert (value, level) == (5, 1)
    assert skeleton_path_values(8, 5, 6) == [3]
    s = UniverseRectCF(universe=8)
    s.insert(rect(5, 6, 1, 2, 0))
    key, pin, tag = s.route(rect(5, 6, 1, 2, 1))
    levels = divmod(tag, s.levels)
    assert pin == Pt(5.0, 1.0)
    assert levels == (1, 1)  # y-range [1,2]: mid 3 miss -> left [0,3] mid 1 hit


def test_universe_rejects_bad_coordinates():
    s = UniverseRectCF(universe=16)
    with pytest.raises(CoordinateOutOfUniverse):
        s.insert(rect(0, 17, 0, 3, 0))
    with pytest.raises(CoordinateOutOfUniverse):
        s.insert(rect(0, 3.5, 0, 3, 0))
    # padded universes still reject beyond the original bound
    s2 = UniverseRectCF(universe=10)
    with pytest.raises(CoordinateOutOfUniverse):
        s2.insert(rect(0, 11, 0, 3, 0))
    s2.insert(rect(0, 9, 0, 9, 1))


def test_universe_refuses_inverted_bounds_before_routing():
    # built past AxisRect's own guard, as a payload that skips the reader could be
    for inverted in ((5, 2, 1, 3, 0), (1, 3, 5, 2, 0)):
        s = UniverseRectCF(universe=64)
        with pytest.raises(ValueError, match="degenerate rectangle bounds"):
            s.insert(tuple.__new__(AxisRect, inverted))
        assert len(s) == 0 and s.audit() is None


def test_universe_routing_soundness_random():
    rng = random.Random(41)
    s = UniverseRectCF(universe=64)
    for oid in range(200):
        x = sorted(rng.sample(range(64), 2))
        y = sorted(rng.sample(range(64), 2))
        s.insert(rect(x[0], x[1], y[0], y[1], oid))
    assert s.audit() is None
    # same-level distinct x-nodes hold disjoint x-projections
    by_level: dict[int, list] = {}
    for key, cell in s.cells.items():
        by_level.setdefault(divmod(cell.tag, s.levels)[0], []).append((key[0], cell))
    for level, entries in by_level.items():
        for hx1, c1 in entries:
            for hx2, c2 in entries:
                if hx1 >= hx2:
                    continue
                for r1 in c1.objects.values():
                    for r2 in c2.objects.values():
                        assert r1.x2 < r2.x1 or r2.x2 < r1.x1


def test_universe_random_updates_cf_and_color_budget():
    rng = random.Random(42)
    s = UniverseRectCF(universe=64)
    live = []
    nid = 0
    for step in range(400):
        if live and rng.random() < 0.3:
            s.delete(live.pop(rng.randrange(len(live))))
        else:
            x = sorted(rng.sample(range(64), 2))
            y = sorted(rng.sample(range(64), 2))
            s.insert(rect(x[0], x[1], y[0], y[1], nid))
            live.append(nid)
            nid += 1
        if step % 10 == 0 or step > 390:
            assert check_cf(colored_rects(s)) is None
    # distinct colors <= (log2 N + 1)^2 * max distinct pairs per cell
    max_pairs = max(len(set(c.colors.values())) for c in s.cells.values())
    distinct = len(set(s.global_colors().values()))
    assert distinct <= (math.log2(64) + 1) ** 2 * max_pairs


def test_universe_degenerate_point_rect():
    s = UniverseRectCF(universe=16)
    s.insert(rect(5, 5, 9, 9, 0))
    assert check_cf(colored_rects(s)) is None


def test_pair_encoding_used_by_global_colors():
    cp_pairs = [(0, 0), (2, 3), (3, 2), (7, 0)]
    enc = [pair_encode(*p) for p in cp_pairs]
    assert len(set(enc)) == len(cp_pairs)
    for p, e in zip(cp_pairs, enc):
        assert pair_decode(e) == p
