import ast
import itertools
import math
import pathlib
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cfcolor.anchored import AnchoredCF
from cfcolor.augtree import AugTree
from cfcolor.cells import NE, NW, SE, SW
from cfcolor.geom import AxisRect, GlobalColor, KeyOrder, Pt
from cfcolor.unimax import RectPointColorer
from cfcolor import oracle
from cfcolor.oracle import (
    check_cf,
    check_cf_intervals,
    check_cf_rect_ranges,
    check_unimax_intervals,
    check_unimax_rect_ranges,
)
from reference import (
    check_cf_probes,
    check_unimax_probes,
    colored_rects,
    exhaustive_rect_ranges,
    intervals_reference,
    leaves,
    nodes,
    probe_grid,
    recompute_anchored_colors,
    recompute_common_point_colors,
    recompute_pinned_square_colors,
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


@pytest.mark.parametrize("lo, hi", [(1.0, 2.0), (1e308, 1.2e308)])
def test_open_face_between_two_coordinates_is_probed(lo, hi):
    # only the open face lo < x < hi sees color 1 twice and nothing else
    colored = [(rect(lo, hi, 0, 1, 0), 1), (rect(lo, hi, 0, 1, 1), 1),
               (rect(lo, lo, 0, 1, 2), 2), (rect(hi, hi, 0, 1, 3), 3)]
    for w in (check_cf(colored), check_cf_probes(colored)):
        assert w is not None and w.colors == [1, 1]
        assert lo < w.probe.x < hi and w.probe.y == 0.0
        if hi == 2.0:
            assert w.probe.x == 1.5


def _transposed(colored):
    return [(AxisRect(r.y1, r.y2, r.x1, r.x2, r.id), c) for r, c in colored]


def test_gap_without_a_float_is_not_probed():
    # as in the open-face test, but no float lies strictly between lo and
    # hi, so the open face holding color 1 twice is not a point
    lo, hi = 1.0, math.nextafter(1.0, 2.0)
    colored = [(rect(lo, hi, 0, 1, 0), 1), (rect(lo, hi, 0, 1, 1), 1),
               (rect(lo, lo, 0, 1, 2), 2), (rect(hi, hi, 0, 1, 3), 3)]
    for case in (colored, _transposed(colored)):
        assert check_cf_probes(case) is None
        assert check_cf(case) is None


def test_violation_past_a_gap_without_a_float_is_found():
    # color 2 ends at lo; the next point, hi, sees color 1 twice
    lo, hi = 1.0, math.nextafter(1.0, 2.0)
    colored = [(rect(0, hi, 0, 1, 0), 1), (rect(0, hi, 0, 1, 1), 1),
               (rect(0, lo, 0, 1, 2), 2)]
    for case, probe in ((colored, Pt(hi, 0.0)), (_transposed(colored), Pt(0.0, hi))):
        for w in (check_cf(case), check_cf_probes(case)):
            assert w is not None and w.colors == [1, 1]
            assert w.probe == probe


@settings(max_examples=300)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
@example(a=1e308, b=1.2e308)
@example(a=-1.7e308, b=1.7e308)
@example(a=5e-324, b=1.5e-323)
def test_between_is_finite_and_strictly_inside(a, b):
    a, b = min(a, b), max(a, b)
    m = oracle._between(a, b)
    assert math.isfinite(m)
    if math.nextafter(a, b) < b:
        assert a < m < b


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
    colored = colored_rects(cf)
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


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3)), max_size=25))
def test_intervals_agree_with_per_window_reference(raw):
    points = [(float(x), c) for x, c in raw]
    w = check_cf_intervals(points)
    want = intervals_reference(points)
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
    w = check_cf_rect_ranges(pts)
    assert w is not None


def test_rect_ranges_sampled_path_accepts_distinct_colors():
    rng = random.Random(4)
    pts = [(Pt(rng.random() * 100, rng.random() * 100), k) for k in range(60)]
    assert check_cf_rect_ranges(pts) is None
    assert check_unimax_rect_ranges(pts) is None


def _sampled_ranges_reference(points):
    """The same seeded ranges as the sampled path, each checked on its own."""
    px = np.array([p.x for p, _ in points])
    py = np.array([p.y for p, _ in points])
    xs, ys = np.unique(px), np.unique(py)
    rng = np.random.default_rng(0)
    done = 0
    while done < oracle.SAMPLED_RANGES:
        b = min(4096, oracle.SAMPLED_RANGES - done)
        done += b
        ax = np.sort(rng.integers(0, len(xs), size=(b, 2)), axis=1)
        ay = np.sort(rng.integers(0, len(ys), size=(b, 2)), axis=1)
        for k in range(b):
            box = (xs[ax[k, 0]], xs[ax[k, 1]], ys[ay[k, 0]], ys[ay[k, 1]])
            cover = sorted(c for p, c in points
                           if box[0] <= p.x <= box[1] and box[2] <= p.y <= box[3])
            if not cover:
                continue
            if 1 not in Counter(cover).values():
                return box, cover
    return None


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 999)),
                min_size=1, max_size=20),
       st.sampled_from([3, 1000]))
def test_sampled_rect_ranges_agree_with_per_range_reference(raw, palette):
    points = [(Pt(float(x), float(y)), c % palette) for x, y, c in raw]
    w = oracle._sampled_rect_ranges(points)
    want = _sampled_ranges_reference(points)
    assert (None if w is None else (w.probe, w.colors)) == want


def test_sampled_unimax_sees_a_repeated_maximum():
    # the maximum 5 is seen first and repeats; the lower 3 is unique.  Past
    # EXHAUSTIVE_2D_LIMIT points, which the unimax check covers exactly too
    pts = [(Pt(0.0, 0.0), 5), (Pt(1.0, 1.0), 5), (Pt(0.5, 0.5), 3)]
    pts += [(Pt(10.0 + i, 10.0 + i), 100 + i) for i in range(45)]
    w = check_unimax_rect_ranges(pts)
    assert w is not None and w.colors == [3, 5, 5]


# -- definitional recompute --------------------------------------------------

def test_definitional_single_leaf():
    tree = AugTree()
    tree.insert(KeyOrder(1.0, 0), 0, KeyOrder(5.0, 0), KeyOrder(5.0, 0))
    assert recompute_anchored_colors(tree) == {0: 0}


def _naive_colors(tree, selectors):
    """Second independent evaluation: the object each selector names by
    brute subtree scans, and each leaf's color from the highest node naming
    it, the first selector there breaking ties."""
    def height(v):
        if v.payload is not None:
            return 0
        return max(height(v.left), height(v.right)) + 1

    def named(v, summary):
        if v.payload is not None:
            return v
        l, r = named(v.left, summary), named(v.right, summary)
        if summary == "ymax":
            return l if l.ymax > r.ymax else r
        return l if l.ymin < r.ymin else r

    k = len(selectors)
    colors = {}
    for leaf in leaves(tree):
        hits = [(height(v), -j) for v in nodes(tree) if v.payload is None
                for j, (side, summary) in enumerate(selectors)
                if named(getattr(v, side), summary).payload == leaf.payload]
        h, neg_j = max(hits, default=(0, 0))
        colors[leaf.payload] = k * h - neg_j
    return colors


def _assert_recomputes_match_naive(east, west):
    assert recompute_anchored_colors(east) == _naive_colors(east, (NE,))
    assert recompute_pinned_square_colors(east) == _naive_colors(east, (NE, SE, SW, NW))
    e, w = _naive_colors(east, (NE, SE)), _naive_colors(west, (NW, SW))
    assert recompute_common_point_colors(east, west) == {oid: (e[oid], w[oid]) for oid in e}


def test_definitional_seven_leaf_tree_matches_hand_rule():
    tree = AugTree()
    ys = [3.0, 9.0, 1.0, 7.0, 5.0, 8.0, 2.0]
    for oid, y in enumerate(ys):
        tree.insert(KeyOrder(float(oid), oid), oid, KeyOrder(y, oid), KeyOrder(y, oid))
    _assert_recomputes_match_naive(tree, tree)


@pytest.mark.parametrize("seed", range(4))
def test_definitional_matches_brute_force_on_tied_random_trees(seed):
    rng = random.Random(seed)
    east, west = AugTree(), AugTree()
    live = []
    for oid in range(40):
        if live and rng.random() < 0.3:
            east_key, west_key = live.pop(rng.randrange(len(live)))
            east.delete(east_key.tiebreak)
            west.delete(west_key.tiebreak)
        # few distinct coordinates, so keys and summaries tie on them
        ymax = KeyOrder(float(rng.randrange(4)), oid)
        ymin = KeyOrder(float(rng.randrange(4)), oid)
        live.append((KeyOrder(float(rng.randrange(5)), oid),
                     KeyOrder(float(rng.randrange(5)), oid)))
        east.insert(live[-1][0], oid, ymax, ymin)
        west.insert(live[-1][1], oid, ymax, ymin)
        if oid % 10 == 9:
            _assert_recomputes_match_naive(east, west)


def test_definitional_ignores_corrupted_summaries():
    for recompute in (recompute_anchored_colors, recompute_pinned_square_colors):
        tree = AugTree()
        for oid in range(8):
            tree.insert(KeyOrder(float(oid), oid), oid,
                        KeyOrder(float(oid), oid), KeyOrder(float(oid), oid))
        want = recompute(tree)
        victim = next(v for v in nodes(tree) if v.payload is None)
        victim.height += 7
        victim.ymax = KeyOrder(1e9, 999)
        victim.ymin = KeyOrder(-1e9, 999)
        assert recompute(tree) == want, recompute.__name__


def test_oracle_imports_no_structure_module():
    """The oracle reads the rule on its own: within cfcolor it may import
    only the tree and the value types, never a structure or the shared rule."""
    path = pathlib.Path(oracle.__file__)
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("cfcolor" if node.level else "", node.module)))
            names = [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        imported |= {name.split(".")[1] for name in names if name.startswith("cfcolor.")}
    assert imported and imported <= {"augtree", "geom"}


def test_sampled_witness_prints_plain_numbers():
    # a corrupted coloring past the exhaustive limit: every point one color
    rng = random.Random(5)
    pts = [(Pt(rng.random() * 10, rng.random() * 10), 0) for _ in range(50)]
    w = check_cf_rect_ranges(pts)
    assert w is not None
    assert "np." not in str(w)
    assert all(type(v) is float for v in w.probe)


def _colored_grid_points(rng, n, grid):
    """n points on a small grid (so coordinates repeat) with distinct colors."""
    return [(Pt(float(rng.randrange(grid)), float(rng.randrange(grid))), k) for k in range(n)]


def _unimax_rect_brute_force(points) -> bool:
    """Whether some canonical rectangle, rebuilt from scratch, covers a
    repeated maximum color."""
    xs = sorted({p.x for p, _ in points})
    ys = sorted({p.y for p, _ in points})
    for xlo, xhi in itertools.combinations_with_replacement(xs, 2):
        for ylo, yhi in itertools.combinations_with_replacement(ys, 2):
            cover = [c for p, c in points if xlo <= p.x <= xhi and ylo <= p.y <= yhi]
            if cover and cover.count(max(cover)) != 1:
                return True
    return False


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=41, max_size=60),
       st.sampled_from(["palette", "colorer", "colorer with a copied color"]),
       st.integers(0, 10**6))
def test_unimax_rect_ranges_exact_past_the_exhaustive_limit(cells, coloring, seed):
    """Past EXHAUSTIVE_2D_LIMIT points on a 7x7 grid, so coordinates tie and
    there are at most 784 canonical rectangles, the unimax check fails
    exactly when a brute force over every canonical rectangle does."""
    assert len(cells) > oracle.EXHAUSTIVE_2D_LIMIT
    rng = random.Random(seed)
    pts = {oid: Pt(float(x), float(y)) for oid, (x, y) in enumerate(cells)}
    if coloring == "palette":
        colors = {oid: rng.randrange(4) for oid in pts}
    else:
        colors = dict(RectPointColorer(pts).colors)
        if coloring == "colorer with a copied color":
            colors[rng.choice(list(pts))] = colors[rng.choice(list(pts))]
    points = [(pts[oid], colors[oid]) for oid in pts]
    w = check_unimax_rect_ranges(points)
    assert (w is not None) == _unimax_rect_brute_force(points)
    assert w == exhaustive_rect_ranges(points, unimax=True)
    if coloring == "colorer":
        assert w is None


@pytest.mark.parametrize("unimax", [False, True])
def test_exhaustive_rect_ranges_matches_reference_with_planted_faults(unimax):
    """The running-count check returns exactly the reference's witness (or
    None) on valid colorings and on colorings with planted faults."""
    rng = random.Random(23)
    faulty = 0
    for trial in range(150):
        n = rng.randrange(1, 14)
        points = _colored_grid_points(rng, n, rng.choice((3, 5, 8)))
        if trial % 3:
            # plant faults: copy some colors onto other points
            for _ in range(rng.randrange(1, 4)):
                a, b = rng.randrange(n), rng.randrange(n)
                points[a] = (points[a][0], points[b][1])
        if trial % 5 == 0:
            points = [(p, GlobalColor(c % 2, c)) for p, c in points]
        got = oracle._exhaustive_rect_ranges(points, unimax)
        assert got == exhaustive_rect_ranges(points, unimax)
        faulty += got is not None
    assert 20 < faulty < 150  # both verdicts were exercised
