import random
import tracemalloc
from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from cfcolor.anchored import AnchoredCF
from cfcolor.augtree import AugTree
from cfcolor.geom import AxisRect, KeyOrder, Pt
from cfcolor import oracle
from cfcolor.oracle import (
    check_cf,
    check_cf_intervals,
    check_cf_probes,
    check_cf_rect_ranges,
    check_unimax_intervals,
    check_unimax_probes,
    check_unimax_rect_ranges,
    probe_grid,
    recompute_anchored_colors,
)


def rect(x1, x2, y1, y2, oid):
    return AxisRect(float(x1), float(x2), float(y1), float(y2), oid)


def test_single_object_any_coloring_ok():
    colored = [(rect(0, 1, 0, 1, 0), 7)]
    assert check_cf_probes(colored) is None
    assert check_cf(colored) is None
    assert check_unimax_probes(colored) is None


def test_two_identical_rects_same_color_witnessed():
    colored = [(rect(0, 2, 0, 2, 0), 3), (rect(0, 2, 0, 2, 1), 3)]
    w = check_cf_probes(colored)
    assert w is not None and w.colors == [3, 3]
    w2 = check_cf(colored)
    assert w2 is not None and w2.colors == [3, 3]


def test_overlap_rescued_by_unique_color():
    colored = [(rect(0, 2, 0, 2, 0), 3), (rect(1, 3, 1, 3, 1), 3),
               (rect(1, 2, 1, 2, 2), 5)]
    # the doubly covered region always also sees color 5 exactly once
    assert check_cf(colored) is None
    assert check_cf_probes(colored) is None


def test_unimax_detects_equal_maximum():
    colored = [(rect(0, 2, 0, 2, 0), 3), (rect(1, 3, 1, 3, 1), 3)]
    assert check_unimax_probes(colored) is not None
    # conflict-free fails too: the overlap sees {3, 3}
    assert check_cf(colored) is not None


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
                          st.integers(0, 6), st.integers(0, 3)), max_size=9))
def test_sweep_agrees_with_probe_grid(raw):
    colored = []
    for k, (x1, x2, y1, y2, c) in enumerate(raw):
        colored.append((rect(min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2), k), c))
    fast = check_cf(colored)
    slow = check_cf_probes(colored)
    assert (fast is None) == (slow is None)


def test_sweep_witness_is_lowest_row_then_leftmost_column():
    right_low = [(rect(10, 12, 0, 2, 0), 1), (rect(10, 12, 0, 2, 1), 1)]
    left_high = [(rect(0, 2, 5, 7, 2), 2), (rect(0, 2, 5, 7, 3), 2)]
    w = check_cf(left_high + right_low)
    assert w.probe == Pt(10.0, 0.0) and w.colors == [1, 1]
    left_low = [(rect(0, 2, 0, 2, 2), 2), (rect(0, 2, 0, 2, 3), 2)]
    w = check_cf(right_low + left_low)
    assert w.probe == Pt(0.0, 0.0) and w.colors == [2, 2]


def test_sweep_memory_stays_bounded():
    rng = random.Random(11)
    cf = AnchoredCF()
    for oid in range(1000):
        cf.insert(rect(0, rng.uniform(0.001, 10), 0, rng.uniform(0.001, 10), oid))
    colored = cf.colored_rects()
    tracemalloc.start()
    try:
        assert check_cf(colored) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_probe_completeness_same_cell_same_cover():
    rng = random.Random(5)
    rects = [rect(rng.randint(0, 8), rng.randint(9, 16),
                  rng.randint(0, 8), rng.randint(9, 16), k) for k in range(12)]
    xs = sorted({v for r in rects for v in (r.x1, r.x2)})
    ys = sorted({v for r in rects for v in (r.y1, r.y2)})
    # two random points strictly inside the same refinement cell
    for _ in range(200):
        i = rng.randrange(len(xs) - 1)
        j = rng.randrange(len(ys) - 1)
        if xs[i + 1] - xs[i] < 1e-12 or ys[j + 1] - ys[j] < 1e-12:
            continue
        p1 = Pt(rng.uniform(xs[i] + 1e-6, xs[i + 1] - 1e-6),
                rng.uniform(ys[j] + 1e-6, ys[j + 1] - 1e-6))
        p2 = Pt(rng.uniform(xs[i] + 1e-6, xs[i + 1] - 1e-6),
                rng.uniform(ys[j] + 1e-6, ys[j + 1] - 1e-6))
        cover1 = {r.id for r in rects if r.contains(p1)}
        cover2 = {r.id for r in rects if r.contains(p2)}
        assert cover1 == cover2


def test_probe_grid_includes_coordinates_and_midpoints():
    pts = probe_grid([rect(0, 2, 0, 2, 0)])
    xs = sorted({p.x for p in pts})
    assert xs == [0.0, 1.0, 2.0]


# -- canonical range checks -------------------------------------------------

def test_intervals_trivial_and_violation():
    assert check_cf_intervals([(1.0, 0)]) is None
    w = check_cf_intervals([(1.0, 0), (2.0, 0)])
    assert w is not None and w.probe == (1.0, 2.0)
    assert check_cf_intervals([(1.0, 0), (2.0, 1), (3.0, 0)]) is None


def _intervals_reference(points, max_starts, seed):
    """Every canonical window checked on its own, by coordinate value."""
    xs = sorted({x for x, _ in points})
    starts = xs
    if max_starts is not None and len(xs) > max_starts:
        starts = sorted(random.Random(seed).sample(xs, max_starts))
    for lo in starts:
        for hi in xs:
            window = [c for x, c in points if lo <= x <= hi]
            if hi >= lo and 1 not in Counter(window).values():
                return (lo, hi), sorted(window)
    return None


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3)), max_size=25),
       st.sampled_from([None, 1, 2, 5]), st.integers(0, 3))
def test_intervals_agree_with_per_window_reference(raw, max_starts, seed):
    points = [(float(x), c) for x, c in raw]
    w = check_cf_intervals(points, max_starts=max_starts, seed=seed)
    want = _intervals_reference(points, max_starts, seed)
    assert (None if w is None else (w.probe, w.colors)) == want


def test_unimax_intervals_examples():
    # 0,1,0 is unimax; 0,1,1 is CF at singletons but max 1 repeats on [2,3]
    assert check_unimax_intervals([(1.0, 0), (2.0, 1), (3.0, 0)]) is None
    assert check_unimax_intervals([(1.0, 0), (2.0, 1), (3.0, 1)]) is not None
    # CF but not unimax: {0,1,0} window max unique... {2,0,2} has unique 0
    w = check_unimax_intervals([(1.0, 2), (2.0, 0), (3.0, 2)])
    assert w is not None
    assert check_cf_intervals([(1.0, 2), (2.0, 0), (3.0, 2)]) is None


def test_duplicate_coordinates_grouped():
    # both points share x; every canonical interval covers both
    w = check_cf_intervals([(1.0, 0), (1.0, 0)])
    assert w is not None


def test_rect_ranges_exhaustive():
    pts = [(Pt(0, 0), 0), (Pt(1, 1), 2), (Pt(2, 0), 1)]
    assert check_unimax_rect_ranges(pts) is None
    assert check_cf_rect_ranges(pts) is None
    pts_bad = [(Pt(0, 0), 1), (Pt(1, 1), 0), (Pt(2, 0), 1)]
    assert check_unimax_rect_ranges(pts_bad) is not None
    assert check_cf_rect_ranges(pts_bad) is not None


def test_rect_ranges_sampled_path_finds_planted_violation():
    rng = random.Random(3)
    pts = [(Pt(rng.random() * 100, rng.random() * 100), k) for k in range(60)]
    # plant two same-colored points very close together, far from the rest
    pts.append((Pt(500.0, 500.0), 99))
    pts.append((Pt(500.5, 500.5), 99))
    w = check_cf_rect_ranges(pts, samples=60_000, seed=1)
    assert w is not None


def test_rect_ranges_sampled_path_accepts_distinct_colors():
    rng = random.Random(4)
    pts = [(Pt(rng.random() * 100, rng.random() * 100), k) for k in range(60)]
    assert check_cf_rect_ranges(pts, samples=20_000, seed=1) is None
    assert check_unimax_rect_ranges(pts, samples=20_000, seed=1) is None


def _sampled_ranges_reference(points, samples, seed, unimax):
    """The same seeded ranges as the sampled path, each checked on its own."""
    px = np.array([p.x for p, _ in points])
    py = np.array([p.y for p, _ in points])
    xs, ys = np.unique(px), np.unique(py)
    rng = np.random.default_rng(seed)
    done = 0
    while done < samples:
        b = min(4096, samples - done)
        done += b
        ax = np.sort(rng.integers(0, len(xs), size=(b, 2)), axis=1)
        ay = np.sort(rng.integers(0, len(ys), size=(b, 2)), axis=1)
        for k in range(b):
            box = (xs[ax[k, 0]], xs[ax[k, 1]], ys[ay[k, 0]], ys[ay[k, 1]])
            cover = sorted(c for p, c in points
                           if box[0] <= p.x <= box[1] and box[2] <= p.y <= box[3])
            if not cover:
                continue
            if cover.count(cover[-1]) != 1 if unimax else 1 not in Counter(cover).values():
                return box, cover
    return None


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 999)),
                min_size=1, max_size=20),
       st.sampled_from([3, 1000]), st.integers(0, 5), st.booleans())
def test_sampled_rect_ranges_agree_with_per_range_reference(raw, palette, seed, unimax):
    points = [(Pt(float(x), float(y)), c % palette) for x, y, c in raw]
    w = oracle._sampled_rect_ranges(points, 4500, seed, unimax=unimax)
    want = _sampled_ranges_reference(points, 4500, seed, unimax)
    assert (None if w is None else (w.probe, w.colors)) == want


def test_sampled_unimax_sees_a_repeated_maximum():
    # the maximum 5 is seen first and repeats; the lower 3 is unique
    pts = [(Pt(0.0, 0.0), 5), (Pt(1.0, 1.0), 5), (Pt(0.5, 0.5), 3)]
    pts += [(Pt(10.0 + i, 10.0 + i), 100 + i) for i in range(45)]
    w = check_unimax_rect_ranges(pts, samples=20_000, seed=0)
    assert w is not None and w.colors == [3, 5, 5]


# -- definitional recompute --------------------------------------------------

def test_definitional_single_leaf():
    tree = AugTree()
    tree.insert(KeyOrder(1.0, 0), 0, KeyOrder(5.0, 0), KeyOrder(5.0, 0))
    assert recompute_anchored_colors(tree) == {0: 0}


def _naive_anchored_colors(tree):
    """Second independent evaluation: N(r) by brute subtree scans."""
    def height(v):
        if v.is_leaf:
            return 0
        return max(height(v.left), height(v.right)) + 1

    def max_leaf(v):
        if v.is_leaf:
            return v
        l, r = max_leaf(v.left), max_leaf(v.right)
        return l if l.ymax > r.ymax else r

    colors = {}
    for leaf in tree.leaves():
        best = 0
        for v in tree.nodes():
            if not v.is_leaf and max_leaf(v.right).payload == leaf.payload:
                best = max(best, height(v))
        colors[leaf.payload] = best
    return colors


def test_definitional_seven_leaf_tree_matches_hand_rule():
    tree = AugTree()
    ys = [3.0, 9.0, 1.0, 7.0, 5.0, 8.0, 2.0]
    for oid, y in enumerate(ys):
        tree.insert(KeyOrder(float(oid), oid), oid, KeyOrder(y, oid), KeyOrder(y, oid))
    assert recompute_anchored_colors(tree) == _naive_anchored_colors(tree)


def test_definitional_ignores_corrupted_summaries():
    tree = AugTree()
    for oid in range(8):
        tree.insert(KeyOrder(float(oid), oid), oid,
                    KeyOrder(float(oid), oid), KeyOrder(float(oid), oid))
    want = recompute_anchored_colors(tree)
    victim = next(v for v in tree.nodes() if not v.is_leaf)
    victim.height += 7
    victim.ymax = KeyOrder(1e9, 999)
    assert recompute_anchored_colors(tree) == want


def test_sampled_witness_prints_plain_numbers():
    # a corrupted coloring past the exhaustive limit: every point one color
    rng = random.Random(5)
    pts = [(Pt(rng.random() * 10, rng.random() * 10), 0) for _ in range(50)]
    w = check_cf_rect_ranges(pts, samples=1000, seed=0)
    assert w is not None
    assert "np." not in str(w)
    assert all(type(v) is float for v in w.probe)
