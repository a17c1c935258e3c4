"""Ground-truth verification of colorings, independent of the structures.

Two families of checks:

* object colorings (rectangles/squares vs. probe points): the probe set is
  the coordinate grid of all object edges plus midpoints between
  consecutive coordinates, so every cell, edge and vertex of the
  axis-parallel arrangement carries a probe.  `check_cf` sweeps that grid
  exactly with numpy over dense int color codes: coordinates are ranked in
  Python (exact for any int/float mix), each rectangle is expanded into
  the probe rows it spans that need a check, and blocks of those (rect,
  row) pairs are sorted by (row, color, column) so one cumulative sum
  gives each color's count, and a second, in (row, column) order, the
  number of colors seen exactly once at every probe.  Blocks hold about
  CF_BLOCK_PAIRS pairs, so a call's working memory does not grow with the
  number of rows.  `IncrementalCF` reads (id, (rectangle, color)) pairs
  and, after a passing call, sweeps only the box around the changed
  objects' old and new rectangles: exact, since a point outside them
  keeps the colored cover that passed.  A set whose colors are all
  distinct passes without a sweep, which skips check_cf's fixed numpy
  cost per call.

* point colorings (points vs. interval or rectangle ranges): canonical
  ranges span all coordinate pairs.  On a line, two exact deciders judge
  every canonical interval at once: `_cf_pass` splits the points at each
  point whose color occurs once, recursively, and `_unimax_pass` is one
  stack pass over the coordinate groups' maxima.  A set a decider fails
  names as its witness the first bad window by start, then end
  (`_first_bad_window`), up to EXHAUSTIVE_1D_LIMIT points, and the
  decider's own window beyond that.  The exhaustive rectangle ranges, up
  to a size cutoff, judge and word each x-strip by the same rule; beyond
  the cutoff, deterministic random ranges are checked in vectorized
  batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .geom import Pt

EXHAUSTIVE_2D_LIMIT = 40      # exhaustive canonical rectangles up to this many points
EXHAUSTIVE_1D_LIMIT = 640     # 1-D witnesses are the first bad window up to this many points
SAMPLED_RANGES = 100_000      # ranges drawn beyond the exhaustive cutoffs
CF_BLOCK_PAIRS = 4096         # (rect, probe row) pairs per check_cf block
BLOCK_CELLS = 1 << 15         # (window, point) cells per block of range checks


@dataclass
class Witness:
    """A probe (point or range) where the required unique color is missing."""

    probe: object
    colors: list

    def __str__(self) -> str:
        return f"violation at {self.probe}: colors {self.colors}"


# ---------------------------------------------------------------------------
# object colorings: probe points against closed axis-parallel rectangles
# ---------------------------------------------------------------------------

def _between(a: float, b: float) -> float:
    """The midpoint of a < b, or, where a + b overflows or the midpoint
    rounds onto a or b, the float next to a: finite, and strictly between
    them whenever a float lies there."""
    m = (a + b) / 2.0
    return m if a < m < b else math.nextafter(a, b)


def _dense_codes(colors: list, ordered: bool = False) -> tuple[np.ndarray, int]:
    """Colors as ints 0..k-1 for k distinct colors, equal colors to equal
    ints.  Numbered in first-seen order, or, when `ordered`, in the colors'
    own order, so that a maximum carries over to the codes too."""
    code: dict = {}
    dense = np.array([code.setdefault(c, len(code)) for c in colors], dtype=np.int32)
    if ordered:
        rank = np.empty(len(code), dtype=np.int32)
        rank[sorted(range(len(code)), key=list(code).__getitem__)] = np.arange(len(code))
        dense = rank[dense]
    return dense, len(code)


def check_cf(colored: list[tuple[tuple, object]]) -> Witness | None:
    """Exact conflict-free check over the whole probe grid; a rectangle is
    read by index, (x1, x2, y1, y2, ...), as a view's AxisRect serves.

    Probes cross the coordinates and the gaps between them in both axes,
    so every face of the arrangement holds one.  Rows are probe rows
    (coordinates and gaps); only row 0, rows where a rectangle starts and
    rows right after one ends can hold a violation first, so only those are
    checked, in blocks of about CF_BLOCK_PAIRS (rect, row) pairs.  The
    witness is the violating probe in the lowest checked row, leftmost.
    A gap holding no float holds no point either: a violation found there
    moves to the next coordinate, which shares its state unless an event
    (a checked row, a rectangle edge) lies there, and is dropped if one
    does.
    """
    if not colored:
        return None
    xs = sorted({v for r, _ in colored for v in (r[0], r[1])})
    ys = sorted({v for r, _ in colored for v in (r[2], r[3])})
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    codes, k = _dense_codes([c for _, c in colored])

    # probe indices: even = coordinate, odd = gap.  A rect covers columns
    # [x_on, x_off) and rows [y_on, y_off].
    x_on = np.array([2 * xi[r[0]] for r, _ in colored], dtype=np.int64)
    x_off = np.array([2 * xi[r[1]] + 1 for r, _ in colored], dtype=np.int64)
    y_on = [2 * yi[r[2]] for r, _ in colored]
    y_off = [2 * yi[r[3]] for r, _ in colored]
    # the row after the top coordinate's is past the grid
    rows = np.array(sorted({0, *y_on, *(y + 1 for y in y_off)} - {2 * len(ys) - 1}))
    # each rect spans checked rows [first, stop)
    first = np.searchsorted(rows, y_on)
    stop = np.searchsorted(rows, y_off, side="right")
    m = len(rows)
    if 2 * m * k * 2 * len(xs) >= 2**63:
        raise ValueError(f"check_cf: {len(colored)} objects overflow its int64 sort keys")
    pairs_through = np.cumsum(np.cumsum(np.bincount(first, minlength=m + 1)
                                        - np.bincount(stop, minlength=m + 1))[:m])
    a = 0
    while a < m:
        done = pairs_through[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(pairs_through, done + CF_BLOCK_PAIRS,
                                           side="right")))
        for row, col, event_next in _cf_block(first, stop, x_on, x_off, codes, k,
                                              2 * len(xs), a, b):
            y = int(rows[row])
            if y % 2 and _no_float_between(ys, y // 2):
                if row + 1 < m and rows[row + 1] == y + 1:
                    continue
                y += 1
            if col % 2 and _no_float_between(xs, col // 2):
                if event_next:
                    continue
                col += 1
            return _make_witness(colored, xs, ys, col, y)
        a = b
    return None


def _no_float_between(coords: list[float], i: int) -> bool:
    return math.nextafter(coords[i], coords[i + 1]) == coords[i + 1]


def _cf_block(first, stop, x_on, x_off, codes, k, n_cols, a, b):
    """The violating probes among checked rows [a, b), in (row, column)
    order: (checked row, column, whether the row's next event is in the
    next column)."""
    sel = np.flatnonzero((first < b) & (stop > a))
    lo = np.maximum(first[sel], a)
    span = np.minimum(stop[sel], b) - lo
    rect = np.repeat(sel, span)
    # (row relative to a, color) of each pair, each rect's run of rows in turn
    group = np.repeat(lo - a - np.cumsum(span) + span, span)
    group += np.arange(len(rect))
    group *= k
    group += codes[rect]
    group *= n_cols
    # one +1 event where a rect starts covering a row, one -1 where it
    # stops.  Events are sorted by value, which is cheaper than argsort, so
    # a key carries all an event needs: (row, color, column), then the sign
    # in the low bit.  Arrays are updated in place to keep a block small.
    key = np.concatenate((group + x_on[rect], group + x_off[rect]))
    del group, rect
    key <<= 1
    key[:len(key) // 2] += 1
    key.sort()
    up = (key & 1).astype(np.int8)
    delta = 2 * up - 1
    # a color's count within its row: each (row, color) run of events nets
    # to zero, so one running sum restarts at every run
    count = np.cumsum(delta, dtype=np.int32)
    # +1 when a count becomes 1, -1 when it leaves 1; at equal keys the
    # order does not matter, since the changes telescope over a tie
    trans = (count == 1).astype(np.int8) - (count - delta == 1)
    del count, delta

    # re-sorted by probe (row, column), with trans + 1 and the sign in the
    # low three bits
    key >>= 1
    col = key % n_cols
    key //= k * n_cols
    key *= n_cols
    key += col
    del col
    key <<= 3
    key |= (trans + 1) << 1
    key |= up
    del trans, up
    key.sort()
    covering = np.cumsum((key & 1) * 2 - 1, dtype=np.int32)
    singles = np.cumsum(((key >> 1) & 3) - 1, dtype=np.int32)
    key >>= 3
    # the state at a probe is the one after its last event
    last = np.append(key[1:] != key[:-1], True)
    hit = np.flatnonzero(last & (covering > 0) & (singles == 0))
    at = key[hit]
    # a probe's state holds up to its row's next event
    event_next = key[np.minimum(hit + 1, len(key) - 1)] == at + 1
    for p, adjacent in zip(at.tolist(), event_next.tolist()):
        yield a + p // n_cols, p % n_cols, adjacent


def _probe_value(coords: list[float], probe_index: int) -> float:
    if probe_index % 2 == 0:
        return coords[probe_index // 2]
    return _between(coords[probe_index // 2], coords[probe_index // 2 + 1])


def _make_witness(colored, xs, ys, col_index: int, row: int) -> Witness:
    x, y = _probe_value(xs, col_index), _probe_value(ys, row)
    cover = sorted(c for r, c in colored if r[0] <= x <= r[1] and r[2] <= y <= r[3])
    return Witness(Pt(x, y), cover)


class IncrementalCF:
    """check_cf over a coloring that changes between calls, sweeping after
    a passing call only the box around what changed since.

    The input is one (id, (rectangle, color)) pair per rectangle, read as
    check_cf reads it, and the snapshot is the last passing input as a
    dict.  Let D be the old and new entries of the ids whose entry
    changed, appeared or disappeared since.  A point outside every rectangle of D has the colored cover it
    had then, so it is still fine, and any violation lies in B, the
    bounding box of D.  Clipped to B, the rectangles that meet it cover
    each point of B as before and nothing else, so sweeping them finds a
    violation exactly when sweeping all of them does.  The first call, a
    call after a failing one and a call whose input repeats an id sweep
    everything, and so does one whose clipped sweep fails: the witness is
    check_cf's.  A set to sweep whose colors are all distinct passes
    without one, and a swept pair goes to the sweep as it is.
    """

    def __init__(self, sweep=check_cf):
        self.sweep = sweep
        self.passed: dict | None = None

    def check(self, view: list[tuple[int, tuple]]) -> Witness | None:
        now = dict(view)
        before, self.passed = self.passed, None
        whole = before is None or len(now) != len(view)
        witness = None if whole else self._sweep(_clipped(view, before.items() ^ now.items()))
        if whole or witness is not None:
            witness = self._sweep(view) or witness
        if witness is None and len(now) == len(view):
            self.passed = now
        return witness

    def _sweep(self, view: list[tuple[int, tuple]]) -> Witness | None:
        """self.sweep over the (rectangle, color) pairs.  Distinct colors pass
        unswept: a violating probe wears each of its colors twice or more."""
        pairs = [pair for _, pair in view]
        if len({color for _, color in pairs}) == len(pairs):
            return None
        return self.sweep(pairs)


def _clipped(view, changed) -> list[tuple[int, tuple]]:
    """The entries whose rectangle meets the bounding box of the changed
    entries' rectangles, clipped to it; none if nothing changed."""
    if not changed:
        return []
    x1s, x2s, y1s, y2s = zip(*(r[:4] for _, (r, _) in changed))
    x1, x2, y1, y2 = min(x1s), max(x2s), min(y1s), max(y2s)
    return [(oid, ((max(r[0], x1), min(r[1], x2), max(r[2], y1), min(r[3], y2)), color))
            for oid, (r, color) in view
            if r[0] <= x2 and x1 <= r[1] and r[2] <= y2 and y1 <= r[3]]


# ---------------------------------------------------------------------------
# point colorings: canonical ranges against colored points
# ---------------------------------------------------------------------------

def _group_bounds(values: list[float]) -> tuple[list[bool], list[bool]]:
    """Flags marking the first and last index of each equal-value run."""
    n = len(values)
    is_start = [i == 0 or values[i] != values[i - 1] for i in range(n)]
    is_end = [i == n - 1 or values[i + 1] != values[i] for i in range(n)]
    return is_start, is_end


def check_cf_intervals(points: list[tuple[float, object]]) -> Witness | None:
    """Conflict-freeness of colored 1-D points w.r.t. every canonical
    interval: windows that start and end at point coordinates, duplicate
    coordinates covered together.  Exact at every size; see
    `_interval_witness` for the witness."""
    return _interval_witness(points, unimax=False)


def check_unimax_intervals(points: list[tuple[float, object]]) -> Witness | None:
    """Unique-maximum over every canonical interval; exact at every size."""
    return _interval_witness(points, unimax=True)


def _interval_witness(points: list[tuple[float, object]], unimax: bool) -> Witness | None:
    """None when the exact decider (`_unimax_pass` or `_cf_pass`) passes
    every canonical window of points; otherwise the witness window, as
    ((lo, hi), sorted colors).  Up to EXHAUSTIVE_1D_LIMIT points that is
    the first bad window by start, then end (`_first_bad_window`); beyond
    it, the decider's own window."""
    pts = sorted(points, key=itemgetter(0))
    window = (_unimax_pass if unimax else _cf_pass)(pts)
    if window is None:
        return None
    if len(pts) <= EXHAUSTIVE_1D_LIMIT:
        window = _first_bad_window(pts, unimax)
    i, j = window
    return Witness((pts[i][0], pts[j][0]), sorted(v for _, v in pts[i:j + 1]))


def _cf_pass(pts: list[tuple[float, object]]) -> tuple[int, int] | None:
    """None when every canonical window of coordinate-sorted pts has a
    color that occurs once in it; otherwise (i, j) such that pts[i..j] is
    a canonical window without one.

    A window holding a point whose color occurs once in an enclosing
    segment passes, since that color occurs once in the window too.  So a
    segment is cut at each such point, removing the point's whole
    coordinate group (every window holding one of the group holds all of
    it), and only the pieces between cuts still need a check.  A segment
    with no color that occurs once is itself a bad window, and one whose
    colors are all distinct is cut away whole.  A point's color occurs
    once in [lo, hi) exactly when the same color's previous index is
    below lo and its next at or past hi.  Each round of cuts removes at
    least one color from every piece, so a point is looked at most once
    per distinct color: O(n d) for d colors.
    """
    xs = [x for x, _ in pts]
    n = len(pts)
    last: dict = {}
    prev = [0] * n
    for i, (_, c) in enumerate(pts):
        prev[i] = last.get(c, -1)
        last[c] = i
    nxt = [n] * n
    for i, p in enumerate(prev):
        if p >= 0:
            nxt[p] = i
    todo = [(0, n)] if n > 1 else []
    while todo:
        lo, hi = todo.pop()
        start = lo
        for i in [k for k in range(lo, hi) if prev[k] < lo and nxt[k] >= hi]:
            if i < start:
                continue  # in the coordinate group cut last
            a = i
            while a > start and xs[a - 1] == xs[i]:
                a -= 1
            if a - start > 1:
                todo.append((start, a))
            start = i + 1
            while start < hi and xs[start] == xs[i]:
                start += 1
        if start == lo:
            return lo, hi - 1
        if hi - start > 1:
            todo.append((start, hi))
    return None


def _unimax_pass(pts: list[tuple[float, object]]) -> tuple[int, int] | None:
    """None when every canonical window of coordinate-sorted pts has a
    unique maximum color; otherwise (i, j) such that pts[i..j] is a
    canonical window without one.

    One pass over the coordinate groups, each reduced to its maximum and
    how often it occurs.  A window's maximum repeats exactly when one of
    its groups wears its maximum twice, or two of its groups have equal
    maxima and every group between them a smaller one.  A stack of group
    maxima, strictly decreasing, finds the second case: a new group pops
    the smaller maxima it hides, and an equal one left on top sees it.
    """
    stack: list[tuple[object, int]] = []  # (group maximum, group start)
    n = len(pts)
    i = 0
    while i < n:
        x, top = pts[i]
        times = 1
        j = i + 1
        while j < n and pts[j][0] == x:
            c = pts[j][1]
            if c > top:
                top, times = c, 1
            elif c == top:
                times += 1
            j += 1
        if times > 1:
            return i, j - 1
        while stack and stack[-1][0] < top:
            stack.pop()
        if stack and stack[-1][0] == top:
            return stack[-1][1], j - 1
        stack.append((top, i))
        i = j
    return None


def _first_bad_window(pts: list[tuple[float, object]], unimax: bool) -> tuple[int, int] | None:
    """The first canonical window pts[i..j] of coordinate-sorted pts, by
    start then end, without a color that occurs once (unimax: without a
    unique maximum).  Per start, running counts judge each end in O(1): how
    many colors occur once, or the maximum and how often it occurs."""
    is_start, is_end = _group_bounds([x for x, _ in pts])
    for i in range(len(pts)):
        if not is_start[i]:
            continue
        counts: dict = {}
        singles = top_count = 0
        top = None
        for j in range(i, len(pts)):
            c = pts[j][1]
            if unimax:
                if top is None or c > top:
                    top, top_count = c, 1
                elif c == top:
                    top_count += 1
                bad = top_count != 1
            else:
                k = counts[c] = counts.get(c, 0) + 1
                if k == 1:
                    singles += 1
                elif k == 2:
                    singles -= 1
                bad = singles == 0
            if bad and is_end[j]:
                return i, j
    return None


def check_cf_rect_ranges(points: list[tuple[Pt, object]],
                         samples: int = SAMPLED_RANGES,
                         seed: int = 0) -> Witness | None:
    """Conflict-freeness of colored 2-D points w.r.t. canonical rectangles.

    Exhaustive over all coordinate-pair ranges up to EXHAUSTIVE_2D_LIMIT
    points; beyond that, `samples` seeded random canonical ranges checked
    in vectorized batches.
    """
    if len(points) <= EXHAUSTIVE_2D_LIMIT:
        return _exhaustive_rect_ranges(points, unimax=False)
    return _sampled_rect_ranges(points, samples, seed, unimax=False)


def check_unimax_rect_ranges(points: list[tuple[Pt, object]],
                             samples: int = SAMPLED_RANGES,
                             seed: int = 0) -> Witness | None:
    if len(points) <= EXHAUSTIVE_2D_LIMIT:
        return _exhaustive_rect_ranges(points, unimax=True)
    return _sampled_rect_ranges(points, samples, seed, unimax=True)


def _exhaustive_rect_ranges(points: list[tuple[Pt, object]], unimax: bool) -> Witness | None:
    """Every canonical rectangle: x-windows, then the y-windows of the
    points each x-window holds, judged and worded by `_interval_witness`."""
    xs = sorted({p.x for p, _ in points})
    by_x = sorted(points, key=lambda pc: (pc[0].x, pc[0].y))
    for a in range(len(xs)):
        for b in range(a, len(xs)):
            xlo, xhi = xs[a], xs[b]
            w = _interval_witness([(p.y, c) for p, c in by_x if xlo <= p.x <= xhi], unimax)
            if w is not None:
                return Witness((xlo, xhi) + w.probe, w.colors)
    return None


def _sampled_rect_ranges(points: list[tuple[Pt, object]], samples: int,
                         seed: int, unimax: bool) -> Witness | None:
    px = np.array([p.x for p, _ in points])
    py = np.array([p.y for p, _ in points])
    codes, _ = _dense_codes([c for _, c in points], ordered=unimax)
    xs, ys = np.unique(px), np.unique(py)
    rng = np.random.default_rng(seed)

    step = max(1, BLOCK_CELLS // len(points))
    batch = 4096
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        done += b
        ax = np.sort(rng.integers(0, len(xs), size=(b, 2)), axis=1)
        ay = np.sort(rng.integers(0, len(ys), size=(b, 2)), axis=1)
        xlo, xhi = xs[ax[:, 0]], xs[ax[:, 1]]
        ylo, yhi = ys[ay[:, 0]], ys[ay[:, 1]]
        # the point mask of BLOCK_CELLS cells' worth of ranges at a time
        for r0 in range(0, b, step):
            rows = slice(r0, r0 + step)
            mask = ((px >= xlo[rows, None]) & (px <= xhi[rows, None]) &
                    (py >= ylo[rows, None]) & (py <= yhi[rows, None]))
            r = _first_bad_row(mask, codes, unimax)
            if r is not None:
                k = r0 + r
                return Witness((xlo[k].item(), xhi[k].item(), ylo[k].item(), yhi[k].item()),
                               sorted(points[i][1] for i in np.flatnonzero(mask[r])))
    return None


def _first_bad_row(mask: np.ndarray, codes: np.ndarray, unimax: bool) -> int | None:
    """The first nonempty row of mask whose points' codes include none seen
    exactly once or, when unimax, whose largest code is not seen exactly
    once; None if there is none."""
    covered = np.where(mask, codes, -1)
    covered.sort(axis=1)
    # a code seen once differs from both neighbours in its sorted row
    differs = np.ones((len(mask), mask.shape[1] + 1), dtype=bool)
    np.not_equal(covered[:, 1:], covered[:, :-1], out=differs[:, 1:-1])
    single = covered >= 0
    single &= differs[:, :-1]
    single &= differs[:, 1:]
    # a nonempty row's largest code sorts last
    good = single[:, -1] if unimax else single.any(axis=1)
    bad = np.flatnonzero(mask.any(axis=1) & ~good)
    return int(bad[0]) if len(bad) else None
