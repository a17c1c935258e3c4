"""The exact 1-D pass deciders in cfcolor.oracle against the window kernel.

`_cf_pass` and `_unimax_pass` judge every canonical interval at once; the
per-window kernel `_first_bad_window` runs only to word the witness of a
set a decider fails, up to EXHAUSTIVE_1D_LIMIT points, and beyond that the
decider's own window is the witness.  These tests check the deciders'
verdicts against per-window references, on hypothesis inputs, on every
step of seeded semi-1d and full-1d streams and under planted recolorings,
and that witnesses are the kernel's own.
"""

import random
import sys
from collections import Counter
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from cfcolor import oracle
from cfcolor.harness import generate_workload, make_structure
from cfcolor.oracle import (
    EXHAUSTIVE_1D_LIMIT,
    Witness,
    check_cf_intervals,
    check_unimax_intervals,
)
from reference import intervals_reference


def _sorted(points):
    return sorted(points, key=lambda pc: pc[0])


def _kernel(points, unimax):
    """The interval check with `_first_bad_window` alone, as it was before
    the deciders."""
    pts = _sorted(points)
    bad = oracle._first_bad_window(pts, unimax)
    if bad is None:
        return None
    i, j = bad
    return Witness((pts[i][0], pts[j][0]), sorted(v for _, v in pts[i:j + 1]))


def _unimax_reference(points):
    """The first canonical window, by start then end coordinate, whose
    maximum color repeats, as ((lo, hi), sorted colors), or None."""
    xs = sorted({x for x, _ in points})
    for lo in xs:
        for hi in xs[xs.index(lo):]:
            window = sorted(c for x, c in points if lo <= x <= hi)
            if window.count(window[-1]) > 1:
                return (lo, hi), window
    return None


def _is_bad_canonical_window(pts, window, unimax):
    """pts[i..j] is whole coordinate groups and violates the property."""
    i, j = window
    if not (0 <= i <= j < len(pts)):
        return False
    if i > 0 and pts[i - 1][0] == pts[i][0] or j + 1 < len(pts) and pts[j + 1][0] == pts[j][0]:
        return False
    colors = [c for _, c in pts[i:j + 1]]
    if unimax:
        return colors.count(max(colors)) > 1
    return 1 not in Counter(colors).values()


def _witness(w):
    return None if w is None else (w.probe, w.colors)


# a few coordinates, so groups of equal coordinates are common; palettes of
# one color (every pair fails), a few, and many (most inputs pass)
points_1d = st.lists(st.tuples(st.integers(0, 12), st.sampled_from([1, 2, 4, 1000]),
                               st.integers(0, 999)), max_size=25).map(
    lambda raw: [(float(x), c % palette) for x, palette, c in raw])


@settings(max_examples=400)
@given(points_1d)
@example([])
@example([(1.0, 0)])
@example([(1.0, 0), (1.0, 0)])
@example([(1.0, 0), (1.0, 1), (2.0, 0)])
@example([(1.0, 0), (2.0, 1), (2.0, 0), (3.0, 1)])
def test_cf_pass_agrees_with_per_window_reference(points):
    pts = _sorted(points)
    window = oracle._cf_pass(pts)
    assert (window is None) == (intervals_reference(points) is None)
    assert (window is None) == (oracle._first_bad_window(pts, unimax=False) is None)
    if window is not None:
        assert _is_bad_canonical_window(pts, window, unimax=False)
    assert _witness(check_cf_intervals(points)) == intervals_reference(points)


@settings(max_examples=400)
@given(points_1d)
@example([])
@example([(1.0, 0)])
@example([(1.0, 3), (1.0, 3), (1.0, 5)])
@example([(1.0, 5), (1.0, 5), (2.0, 7)])
@example([(1.0, 2), (2.0, 0), (3.0, 2)])
@example([(1.0, 2), (2.0, 3), (3.0, 2)])
def test_unimax_pass_agrees_with_per_window_reference(points):
    pts = _sorted(points)
    window = oracle._unimax_pass(pts)
    want = _unimax_reference(points)
    assert (window is None) == (want is None)
    assert (window is None) == (oracle._first_bad_window(pts, unimax=True) is None)
    if window is not None:
        assert _is_bad_canonical_window(pts, window, unimax=True)
    assert _witness(check_unimax_intervals(points)) == want


def _pieces(engine):
    todo = [piece for piece in engine.levels if piece is not None]
    while todo:
        piece = todo.pop()
        yield piece
        todo.extend(piece.children)


def _stream_states(structure, n, delete_ratio, seed):
    """The engine after each event of a seeded point_1d stream."""
    adapter = make_structure(structure)
    for ev in generate_workload("point_1d", n, delete_ratio, seed):
        if ev["op"] == "insert":
            adapter.insert(ev["id"], ev["object"])
        else:
            adapter.delete(ev["id"])
        yield adapter.structure


def _piece_points(engine, piece):
    return [(engine.objects[o], piece.colors[o]) for o in piece.members]


STREAMS = [("semi-1d", 160, 0.0, 3), ("full-1d", 160, 0.3, 4), ("full-1d", 120, 0.9, 5)]


def test_stream_verdicts_equal_the_kernels():
    """On every step of seeded streams, the global coloring and every
    piece's final coloring get the kernels' verdicts and witnesses."""
    steps = pieces = 0
    for structure, n, delete_ratio, seed in STREAMS:
        for engine in _stream_states(structure, n, delete_ratio, seed):
            steps += 1
            colored = [(engine.objects[o], c) for o, c in engine.actual.items()]
            assert check_cf_intervals(colored) == _kernel(colored, unimax=False) is None
            assert (oracle._cf_pass(_sorted(colored)) is None) == (
                oracle._first_bad_window(_sorted(colored), unimax=False) is None)
            for piece in _pieces(engine):
                pieces += 1
                points = _piece_points(engine, piece)
                assert check_unimax_intervals(points) == _kernel(points, unimax=True)
    assert steps > 400 and pieces > steps


def test_planted_recolorings_keep_the_kernels_witnesses():
    """Copy one point's color onto another, in the global coloring and in
    pieces, every few steps: the witness, or None, is the kernel's."""
    rng = random.Random(8)
    planted = found = 0
    for structure, n, delete_ratio, seed in STREAMS:
        for step, engine in enumerate(_stream_states(structure, n, delete_ratio, seed)):
            if step % 4 or len(engine.actual) < 2:
                continue
            colored = sorted((engine.objects[o], c) for o, c in engine.actual.items())
            a, b = rng.sample(range(len(colored)), 2)
            colored[a] = (colored[a][0], colored[b][1])
            w = check_cf_intervals(colored)
            assert w == _kernel(colored, unimax=False)
            planted += 1
            found += w is not None
            for piece in _pieces(engine):
                if len(piece.members) < 2:
                    continue
                points = _piece_points(engine, piece)
                top = max(c for _, c in points)
                k = rng.randrange(len(points))
                points[k] = (points[k][0], top)
                assert check_unimax_intervals(points) == _kernel(points, unimax=True)
    assert planted > 100 and 0 < found < planted


def _ruler(n):
    """Point i wears the number of trailing zeros of i + 1: conflict-free
    and unimax, with about log2 n colors, each but the top worn twice or
    more."""
    return [(float(i), ((i + 1) & -(i + 1)).bit_length() - 1) for i in range(n)]


def _staircase(k):
    """S_0 = 0 and S_k = S_(k-1), k, k-1: 2k + 1 points, conflict-free and
    unimax, in which only k occurs once.  Cutting it leaves S_(k-1) and a
    single point, so the split goes k rounds deep."""
    colors = [0]
    for top in range(1, k + 1):
        colors += [top, top - 1]
    return [(float(i), c) for i, c in enumerate(colors)]


def test_ruler_coloring_passes_without_the_kernels():
    points = _ruler(4096)
    assert oracle._cf_pass(_sorted(points)) is None
    assert oracle._unimax_pass(_sorted(points)) is None
    kernel = mock.Mock(side_effect=AssertionError("window kernel ran on a passing set"))
    with mock.patch.object(oracle, "_first_bad_window", kernel):
        assert check_cf_intervals(points) is None
        assert check_unimax_intervals(points) is None
    assert not kernel.called


def test_split_deeper_than_the_recursion_limit():
    k = sys.getrecursionlimit() + 200
    pts = _staircase(k)
    assert oracle._cf_pass(pts) is None
    assert oracle._unimax_pass(pts) is None
    # the same staircase with its last point's color repeated fails, at
    # the window of the last two points
    bad = pts[:-1] + [(pts[-1][0], k)]
    assert oracle._cf_pass(bad) == (2 * k - 1, 2 * k)
    assert oracle._unimax_pass(bad) == (2 * k - 1, 2 * k)


def test_default_check_is_exact_past_the_sampling_limit():
    """A violation at 2,000 points, past EXHAUSTIVE_1D_LIMIT, is reported."""
    n = 2000
    assert n > EXHAUSTIVE_1D_LIMIT
    base = _ruler(n)
    assert check_cf_intervals(base) is None
    points = list(base)
    # n - 2 has color 0; giving n - 1 color 0 too makes the last pair bad
    points[n - 1] = (points[n - 1][0], 0)
    w = check_cf_intervals(points)
    assert w is not None
    lo, hi = w.probe
    window = [c for x, c in points if lo <= x <= hi]
    assert 1 not in Counter(window).values() and w.colors == sorted(window)
