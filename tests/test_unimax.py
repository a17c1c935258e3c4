import itertools
import math
import random

import pytest

from cfcolor.geom import Pt
from cfcolor.oracle import (
    check_unimax_intervals,
    check_unimax_rect_ranges,
)
from cfcolor.unimax import (
    IntervalPointColorer,
    RectPointColorer,
    UnknownPoint,
    chain_decompose,
)
from reference import interval_palette_size


# -- interval colorer ---------------------------------------------------------

def test_single_point_color_zero():
    c = IntervalPointColorer({0: 5.0})
    assert c.colors == {0: 0}


def test_seven_points_median_recursion():
    c = IntervalPointColorer({i: float(i) for i in range(1, 8)})
    assert c.colors[4] == 2
    assert c.colors[2] == 1 and c.colors[6] == 1
    assert all(c.colors[i] == 0 for i in (1, 3, 5, 7))


def test_palette_exactly_low_colors():
    for n in range(1, 65):
        c = IntervalPointColorer({i: float(i) for i in range(n)})
        assert set(c.colors.values()) == set(range(interval_palette_size(n)))


@pytest.mark.parametrize("n", range(1, 13))
def test_exhaustive_unimax_small_sets(n):
    rng = random.Random(n)
    pts = {i: rng.uniform(0, 100) for i in range(n)}
    c = IntervalPointColorer(pts)
    colored = [(pts[oid], col) for oid, col in c.colors.items()]
    assert check_unimax_intervals(colored) is None


def test_weak_delete_examples():
    c = IntervalPointColorer({i: float(i) for i in range(1, 8)})
    # delete 4 (color 2): left neighbor 3 has color 0 < 2 -> recolored to 2
    changed = c.weak_delete(4)
    assert changed == {3: 2}
    # rebuild; delete 1 (color 0): neighbor 2 has color 1 > 0 -> nothing
    c = IntervalPointColorer({i: float(i) for i in range(1, 8)})
    assert c.weak_delete(1) == {}


def test_weak_delete_prefers_left_neighbor():
    c = IntervalPointColorer({i: float(i) for i in range(1, 8)})
    c.weak_delete(3)  # colors now: 1->0? keep structure simple, then delete 4
    # neighbors of 4 are 2 (color 1) and 5 (color 0); color(4) = 2 -> left wins
    changed = c.weak_delete(4)
    assert changed == {2: 2}


def test_weak_delete_unknown_point():
    c = IntervalPointColorer({0: 1.0})
    c.weak_delete(0)
    with pytest.raises(UnknownPoint):
        c.weak_delete(0)


def test_random_deletion_sequences_stay_unimax_exhaustive():
    for n in range(2, 13):
        rng = random.Random(100 + n)
        pts = {i: rng.uniform(0, 50) for i in range(n)}
        c = IntervalPointColorer(pts)
        palette = set(range(interval_palette_size(n)))
        order = list(pts)
        rng.shuffle(order)
        for oid in order:
            changed = c.weak_delete(oid)
            assert len(changed) <= 1
            assert set(c.colors.values()) <= palette
            colored = [(pts[o], col) for o, col in c.colors.items()]
            assert check_unimax_intervals(colored) is None


# -- chain decomposition -------------------------------------------------------

def test_increasing_chain_single():
    chains = chain_decompose({0: Pt(1, 1), 1: Pt(2, 2), 2: Pt(3, 3)})
    assert len(chains) == 1 and len(chains[0]) == 3


def test_decreasing_chain_single():
    chains = chain_decompose({0: Pt(1, 3), 1: Pt(2, 2), 2: Pt(3, 1)})
    assert len(chains) == 1 and len(chains[0]) == 3


def _assert_monotone(points, chain):
    ys = [(points[oid].y, oid) for oid in chain]
    xs = [(points[oid].x, oid) for oid in chain]
    assert xs == sorted(xs)
    assert ys == sorted(ys) or ys == sorted(ys, reverse=True)


def test_hundred_random_points_chain_bound():
    rng = random.Random(3)
    pts = {i: Pt(rng.uniform(0, 100), rng.uniform(0, 100)) for i in range(100)}
    chains = chain_decompose(pts)
    assert len(chains) <= 20  # 2 * ceil(sqrt(100))
    assert sorted(oid for ch in chains for oid in ch) == sorted(pts)
    for ch in chains:
        _assert_monotone(pts, ch)


def test_chain_bound_random_instances():
    for trial in range(100):
        rng = random.Random(trial)
        n = rng.randint(1, 400)
        pts = {i: Pt(rng.uniform(0, 1000), rng.uniform(0, 1000)) for i in range(n)}
        chains = chain_decompose(pts)
        assert len(chains) <= 2 * math.ceil(math.sqrt(n))
        for ch in chains:
            _assert_monotone(pts, ch)


# -- rectangle colorer ----------------------------------------------------------

def test_single_point_one_chain():
    c = RectPointColorer({0: Pt(1, 1)})
    assert c.colors == {0: 0}
    assert len(c.chains) == 1


def test_small_sets_unimax_over_all_canonical_rectangles():
    for n in range(2, 15):
        rng = random.Random(n * 7)
        pts = {i: Pt(rng.uniform(0, 30), rng.uniform(0, 30)) for i in range(n)}
        c = RectPointColorer(pts)
        colored = [(pts[oid], col) for oid, col in c.colors.items()]
        assert check_unimax_rect_ranges(colored) is None


def test_rect_weak_delete_single_recoloring_and_palette():
    for seed in range(5):
        rng = random.Random(seed)
        n = 14
        pts = {i: Pt(rng.uniform(0, 30), rng.uniform(0, 30)) for i in range(n)}
        c = RectPointColorer(pts)
        palette = set(range(c.palette_used))
        order = list(pts)
        rng.shuffle(order)
        for oid in order:
            changed = c.weak_delete(oid)
            assert len(changed) <= 1
            assert set(c.colors.values()) <= palette
            colored = [(pts[o], col) for o, col in c.colors.items()]
            assert check_unimax_rect_ranges(colored) is None


def test_rect_palette_budget():
    for seed in range(10):
        rng = random.Random(seed + 50)
        n = rng.randint(2, 300)
        pts = {i: Pt(rng.uniform(0, 500), rng.uniform(0, 500)) for i in range(n)}
        c = RectPointColorer(pts)
        assert c.palette_used <= 2 * math.ceil(math.sqrt(n)) * math.ceil(math.log2(n))


def test_monotone_input_palette_budget_holds():
    # single increasing chain; budget still dominates for n >= 2
    for n in (2, 3, 4, 8, 16, 17):
        pts = {i: Pt(float(i), float(i)) for i in range(n)}
        c = RectPointColorer(pts)
        assert len(c.chains) == 1
        assert c.palette_used <= 2 * math.ceil(math.sqrt(n)) * max(1, math.ceil(math.log2(n)))


# -- the migration prefix fact --------------------------------------------------

def _is_unimax_1d(colored):
    return check_unimax_intervals(colored) is None


def test_prefix_fact_z_cuts_remain_unimax():
    # any subset holding all colors > z, part of color z, plus at most one
    # extra object keeps the unique-maximum property
    rng = random.Random(77)
    pts = {i: rng.uniform(0, 40) for i in range(9)}
    c = IntervalPointColorer(pts)
    items = sorted(c.colors.items())
    colors = sorted({col for _, col in items})
    for z in colors:
        above = [oid for oid, col in items if col > z]
        at_z = [oid for oid, col in items if col == z]
        below = [oid for oid, col in items if col < z]
        for r in range(len(at_z) + 1):
            for chosen in itertools.combinations(at_z, r):
                for extra in [None] + below:
                    subset = set(above) | set(chosen) | ({extra} if extra is not None else set())
                    colored = [(pts[oid], c.colors[oid]) for oid in subset]
                    assert _is_unimax_1d(colored)
