"""IncrementalCF's distinct-colors pass against check_cf: a set whose
colors are all distinct passes without calling the sweep, any other is
swept, and a failing clipped sweep gives check_cf's witness of the whole
input."""

import math

from hypothesis import example, given, settings, strategies as st

from cfcolor.geom import AxisRect, GlobalColor
from cfcolor.oracle import IncrementalCF, check_cf

# 1 and 1.0 are the same coordinate and the same color, as in check_cf
COORDS = [v for b in (0, 1, 2, 1.5) for v in
          (b, float(b), math.nextafter(b, -math.inf), math.nextafter(b, math.inf))]
INT_COLORS = [1, 2, 3, 1.0]
TAGGED_COLORS = [GlobalColor(0, 1), GlobalColor(1, 1), GlobalColor(0, 2)]


def _rects(pairs):
    return [(AxisRect(*r, oid), c) for oid, (r, c) in pairs]


def _counting_tracker():
    swept = []
    return IncrementalCF(lambda colored: swept.append(len(colored)) or check_cf(colored)), swept


@st.composite
def box_sets(draw):
    colors = draw(st.sampled_from([INT_COLORS, TAGGED_COLORS]))
    coord = st.sampled_from(COORDS)
    box = st.tuples(coord, coord, coord, coord, st.sampled_from(colors)).map(
        lambda b: ((min(b[:2]), max(b[:2]), min(b[2:4]), max(b[2:4])), b[4]))
    boxes = draw(st.lists(box, max_size=12))
    # duplicate boxes
    copies = draw(st.lists(st.sampled_from(boxes), max_size=4) if boxes else st.just([]))
    return list(enumerate(boxes + copies))


@settings(max_examples=1000, deadline=None)
@given(box_sets())
@example([])
@example([(0, ((0, 0, 0, 0), 1))])                                     # a point
@example([(0, ((0, 2, 1, 1), 1)), (1, ((1, 1, 0, 2), 2))])             # zero-width, crossing
@example([(0, ((0, 2, 0, 2), 1)), (1, ((0, 2, 0, 2.0), 2))])           # duplicate, int/float
@example([(0, ((0, 2, 0, 2), 1)), (1, ((1, 3, 1, 3), 1.0))])           # 1 == 1.0: swept, fails
@example([(0, ((0, 2, 0, 2), GlobalColor(0, 1))), (1, ((1, 3, 1, 3), GlobalColor(1, 1)))])
def test_a_set_is_swept_unless_its_colors_are_distinct(pairs):
    tracker, swept = _counting_tracker()
    want = check_cf(_rects(pairs))
    assert str(tracker.check(pairs)) == str(want)
    distinct = len({c for _, (_, c) in pairs}) == len(pairs)
    assert swept == ([] if distinct else [len(pairs)])
    if distinct:
        assert want is None


def _far_apart(n):
    """n unit boxes in a row, two apart, colored 0 and 1 in turn."""
    return [(i, ((3.0 * i, 3.0 * i + 1, 0.0, 1.0), i % 2)) for i in range(n)]


def test_only_clipped_sets_with_a_repeated_color_are_swept():
    tracker, swept = _counting_tracker()
    state = _far_apart(40)
    assert tracker.check(state) is None
    # box 5 (color 1) stretched over box 6 (color 0), then back: distinct
    state[5] = (5, ((15.0, 18.5, 0.0, 1.0), 1))
    assert tracker.check(state) is None
    state[5] = (5, ((15.0, 16.0, 0.0, 1.0), 1))
    assert tracker.check(state) is None
    assert tracker.check(state) is None
    assert swept == [40]
    # box 5 raised and stretched past box 7 (color 1), which it does not meet
    state[5] = (5, ((15.0, 21.5, 2.0, 3.0), 1))
    assert tracker.check(state) is None
    assert swept == [40, 3]


def test_a_failing_clipped_sweep_gives_check_cfs_witness_of_the_whole_input():
    tracker, swept = _counting_tracker()
    state = _far_apart(40)
    assert tracker.check(state) is None
    # box 7 now overlaps box 6, and takes its color
    state[7] = (7, ((18.5, 19.5, 0.0, 1.0), 0))
    witness = tracker.check(state)
    want = check_cf(_rects(state))
    assert want is not None and witness == want and str(witness) == str(want)
    # the clipped set, then everything
    assert swept == [40, 2, 40]


def test_a_whole_set_of_distinct_colors_is_not_swept():
    tracker, swept = _counting_tracker()
    state = [(i, ((3.0 * i, 3.0 * i + 1, 0.0, 1.0), i)) for i in range(40)]
    assert tracker.check(state) is None
    # a repeated id sweeps the whole input, here with a repeated color
    assert tracker.check(state + [(0, ((200.0, 201.0, 0.0, 1.0), 0))]) is None
    assert swept == [41]
