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
  number of rows.  `check_cf_probes` / `check_unimax_probes` are the
  direct per-probe versions for small inputs.

* point colorings (points vs. interval or rectangle ranges): canonical
  ranges span all coordinate pairs.  Exhaustive below a size cutoff,
  deterministic random sampling beyond it.  `check_cf_intervals` and the
  sampled rectangle ranges are vectorized over dense color codes in
  bounded blocks of windows.

Also hosts the definitional color recomputations: colors evaluated
directly from tree shape with freshly computed heights and summaries, used
to cross-check the incremental assignments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .augtree import AugTree, Node
from .geom import AxisRect, Pt

EXHAUSTIVE_2D_LIMIT = 40      # exhaustive canonical rectangles up to this many points
EXHAUSTIVE_1D_LIMIT = 640     # exhaustive canonical intervals up to this many points
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

def probe_grid(rects: list[AxisRect]) -> list[Pt]:
    """Coordinates and midpoints in both axes, crossed."""
    if not rects:
        return []
    xs = sorted({r.x1 for r in rects} | {r.x2 for r in rects})
    ys = sorted({r.y1 for r in rects} | {r.y2 for r in rects})
    px = _with_midpoints(xs)
    py = _with_midpoints(ys)
    return [Pt(x, y) for x in px for y in py]


def _with_midpoints(coords: list[float]) -> list[float]:
    out = []
    for a, b in zip(coords, coords[1:]):
        out.append(a)
        out.append((a + b) / 2.0)
    out.append(coords[-1])
    return out


def check_cf_probes(colored: list[tuple[AxisRect, object]],
                    probes: list[Pt] | None = None) -> Witness | None:
    """Direct conflict-free check at every probe.  Quadratic; small inputs."""
    if probes is None:
        probes = probe_grid([r for r, _ in colored])
    for p in probes:
        cover = [c for r, c in colored if r.contains(p)]
        if cover and not _has_singleton(cover):
            return Witness(p, sorted(cover))
    return None


def check_unimax_probes(colored: list[tuple[AxisRect, object]],
                        probes: list[Pt] | None = None) -> Witness | None:
    """Unique-maximum check at every probe.  Quadratic; small inputs."""
    if probes is None:
        probes = probe_grid([r for r, _ in colored])
    for p in probes:
        cover = [c for r, c in colored if r.contains(p)]
        if cover and cover.count(max(cover)) != 1:
            return Witness(p, sorted(cover))
    return None


def _has_singleton(colors: list) -> bool:
    counts: dict = {}
    for c in colors:
        counts[c] = counts.get(c, 0) + 1
    return any(v == 1 for v in counts.values())


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


def check_cf(colored: list[tuple[AxisRect, object]]) -> Witness | None:
    """Exact conflict-free check over the whole probe grid.

    Equivalent to check_cf_probes on the full grid.  Rows are probe rows
    (coordinates and gaps); only row 0, rows where a rectangle starts and
    rows right after one ends can hold a violation first, so only those are
    checked, in blocks of about CF_BLOCK_PAIRS (rect, row) pairs.  The
    witness is the violating probe in the lowest checked row, leftmost.
    """
    if not colored:
        return None
    xs = sorted({v for r, _ in colored for v in (r.x1, r.x2)})
    ys = sorted({v for r, _ in colored for v in (r.y1, r.y2)})
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    codes, k = _dense_codes([c for _, c in colored])

    # probe indices: even = coordinate, odd = gap.  A rect covers columns
    # [x_on, x_off) and rows [y_on, y_off].
    x_on = np.array([2 * xi[r.x1] for r, _ in colored], dtype=np.int64)
    x_off = np.array([2 * xi[r.x2] + 1 for r, _ in colored], dtype=np.int64)
    y_on = [2 * yi[r.y1] for r, _ in colored]
    y_off = [2 * yi[r.y2] for r, _ in colored]
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
        bad = _cf_block(first, stop, x_on, x_off, codes, k, 2 * len(xs), a, b)
        if bad is not None:
            row, col = bad
            return _make_witness(colored, xs, ys, col, int(rows[row]))
        a = b
    return None


def _cf_block(first, stop, x_on, x_off, codes, k, n_cols, a, b):
    """The first violating (checked row, column) among checked rows [a, b),
    or None."""
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
    if len(hit) == 0:
        return None
    p = int(key[hit[0]])
    return a + p // n_cols, p % n_cols


def _probe_value(coords: list[float], probe_index: int) -> float:
    if probe_index % 2 == 0:
        return coords[probe_index // 2]
    return (coords[probe_index // 2] + coords[probe_index // 2 + 1]) / 2.0


def _make_witness(colored, xs, ys, col_index: int, row: int) -> Witness:
    p = Pt(_probe_value(xs, col_index), _probe_value(ys, row))
    cover = sorted(c for r, c in colored if r.contains(p))
    return Witness(p, cover)


# ---------------------------------------------------------------------------
# point colorings: canonical ranges against colored points
# ---------------------------------------------------------------------------

def _group_bounds(values: list[float]) -> tuple[list[bool], list[bool]]:
    """Flags marking the first and last index of each equal-value run."""
    n = len(values)
    is_start = [i == 0 or values[i] != values[i - 1] for i in range(n)]
    is_end = [i == n - 1 or values[i + 1] != values[i] for i in range(n)]
    return is_start, is_end


def check_cf_intervals(points: list[tuple[float, object]],
                       max_starts: int | None = None,
                       seed: int = 0) -> Witness | None:
    """Conflict-freeness of colored 1-D points w.r.t. every canonical interval.

    Canonical windows start and end at point coordinates (duplicate
    coordinates are covered together).  Exhaustive up to
    EXHAUSTIVE_1D_LIMIT points; beyond that, a seeded sample of window
    starts is extended exhaustively.
    """
    pts = sorted(points, key=lambda pc: pc[0])
    n = len(pts)
    if n == 0:
        return None
    is_start, is_end = _group_bounds([x for x, _ in pts])
    start_idxs = [i for i in range(n) if is_start[i]]
    if max_starts is None and n > EXHAUSTIVE_1D_LIMIT:
        max_starts = EXHAUSTIVE_1D_LIMIT
    if max_starts is not None and len(start_idxs) > max_starts:
        rng = random.Random(seed)
        start_idxs = sorted(rng.sample(start_idxs, max_starts))
    codes, _ = _dense_codes([c for _, c in pts])
    # prev[j]: the previous index with j's color (-1 if none), prev2 the one
    # before that.  In a window starting at i, j is its color's first
    # occurrence iff prev[j] < i, and its second iff prev[j] >= i > prev2[j].
    by_code = np.argsort(codes, kind="stable")
    prev = np.full(n, -1, dtype=np.int64)
    repeat = codes[by_code[1:]] == codes[by_code[:-1]]
    prev[by_code[1:][repeat]] = by_code[:-1][repeat]
    prev2 = np.where(prev >= 0, prev[np.maximum(prev, 0)], -1)
    ends = np.array(is_end)
    starts = np.array(start_idxs, dtype=np.int64)
    a = 0
    while a < len(starts):
        i0 = int(starts[a])
        block = starts[a:a + max(1, BLOCK_CELLS // (n - i0))]
        a += len(block)
        i = block[:, None]
        # +1 where a color's count becomes 1, -1 where it becomes 2; each
        # j < i counts +1 too, so singles over [i, j] is the sum less i - i0
        first_seen = prev[i0:] < i
        trans = first_seen.astype(np.int8)
        trans -= ~first_seen & (prev2[i0:] < i)
        del first_seen
        bad = np.cumsum(trans, axis=1, dtype=np.int32) == i - i0
        del trans
        bad &= np.arange(i0, n) >= i
        bad &= ends[i0:]
        rows = np.flatnonzero(bad.any(axis=1))
        if len(rows):
            r = rows[0]
            si, sj = int(block[r]), i0 + int(np.argmax(bad[r]))
            return Witness((pts[si][0], pts[sj][0]),
                           sorted(v for _, v in pts[si:sj + 1]))
    return None


def check_unimax_intervals(points: list[tuple[float, object]]) -> Witness | None:
    """Unique-maximum over every canonical interval; exhaustive."""
    pts = sorted(points, key=lambda pc: pc[0])
    n = len(pts)
    is_start, is_end = _group_bounds([x for x, _ in pts])
    for i in range(n):
        if not is_start[i]:
            continue
        cur_max = None
        max_count = 0
        for j in range(i, n):
            c = pts[j][1]
            if cur_max is None or c > cur_max:
                cur_max, max_count = c, 1
            elif c == cur_max:
                max_count += 1
            if max_count != 1 and is_end[j]:
                return Witness((pts[i][0], pts[j][0]),
                               sorted(v for _, v in pts[i:j + 1]))
    return None


def check_cf_rect_ranges(points: list[tuple[Pt, object]],
                         samples: int = SAMPLED_RANGES,
                         seed: int = 0) -> Witness | None:
    """Conflict-freeness of colored 2-D points w.r.t. canonical rectangles.

    Exhaustive over all coordinate-pair ranges up to EXHAUSTIVE_2D_LIMIT
    points; beyond that, `samples` seeded random canonical ranges checked
    in vectorized batches.
    """
    n = len(points)
    if n == 0:
        return None
    if n <= EXHAUSTIVE_2D_LIMIT:
        return _exhaustive_rect_ranges(points, unimax=False)
    return _sampled_rect_ranges(points, samples, seed, unimax=False)


def check_unimax_rect_ranges(points: list[tuple[Pt, object]],
                             samples: int = SAMPLED_RANGES,
                             seed: int = 0) -> Witness | None:
    n = len(points)
    if n == 0:
        return None
    if n <= EXHAUSTIVE_2D_LIMIT:
        return _exhaustive_rect_ranges(points, unimax=True)
    return _sampled_rect_ranges(points, samples, seed, unimax=True)


def _window_violates(colors: list, unimax: bool) -> bool:
    if not colors:
        return False
    if unimax:
        return colors.count(max(colors)) != 1
    return not _has_singleton(colors)


def _exhaustive_rect_ranges(points: list[tuple[Pt, object]], unimax: bool) -> Witness | None:
    xs = sorted({p.x for p, _ in points})
    by_x = sorted(points, key=lambda pc: (pc[0].x, pc[0].y))
    for a in range(len(xs)):
        for b in range(a, len(xs)):
            xlo, xhi = xs[a], xs[b]
            strip = [(p.y, c) for p, c in by_x if xlo <= p.x <= xhi]
            strip.sort(key=lambda t: t[0])
            m = len(strip)
            is_start, is_end = _group_bounds([y for y, _ in strip])
            for i in range(m):
                if not is_start[i]:
                    continue
                seen: list = []
                for j in range(i, m):
                    seen.append(strip[j][1])
                    if is_end[j] and _window_violates(seen, unimax):
                        return Witness((xlo, xhi, strip[i][0], strip[j][0]),
                                       sorted(seen))
    return None


def _sampled_rect_ranges(points: list[tuple[Pt, object]], samples: int,
                         seed: int, unimax: bool) -> Witness | None:
    n = len(points)
    px = np.array([p.x for p, _ in points])
    py = np.array([p.y for p, _ in points])
    codes, _ = _dense_codes([c for _, c in points], ordered=unimax)
    xs = np.sort(np.unique(px))
    ys = np.sort(np.unique(py))
    rng = np.random.default_rng(seed)

    batch = 4096
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        done += b
        ax = np.sort(rng.integers(0, len(xs), size=(b, 2)), axis=1)
        ay = np.sort(rng.integers(0, len(ys), size=(b, 2)), axis=1)
        xlo, xhi = xs[ax[:, 0]], xs[ax[:, 1]]
        ylo, yhi = ys[ay[:, 0]], ys[ay[:, 1]]
        mask = ((px >= xlo[:, None]) & (px <= xhi[:, None]) &
                (py >= ylo[:, None]) & (py <= yhi[:, None]))
        if unimax:
            nonempty = mask.any(axis=1)
            masked = np.where(mask, codes, -1)
            row_max = masked.max(axis=1)
            max_counts = (masked == row_max[:, None]).sum(axis=1)
            bad_rows = np.flatnonzero(nonempty & (max_counts != 1))
            k = bad_rows[0] if len(bad_rows) else None
        else:
            k = _first_row_without_singleton(mask, codes)
        if k is not None:
            cover = sorted(points[i][1] for i in np.flatnonzero(mask[k]))
            return Witness((xlo[k].item(), xhi[k].item(), ylo[k].item(), yhi[k].item()),
                           cover)
    return None


def _first_row_without_singleton(mask: np.ndarray, codes: np.ndarray) -> int | None:
    """The first nonempty row of mask whose points' codes include none seen
    exactly once, or None; BLOCK_CELLS cells at a time."""
    n = mask.shape[1]
    step = max(1, BLOCK_CELLS // n)
    for r0 in range(0, len(mask), step):
        rows = mask[r0:r0 + step]
        covered = np.where(rows, codes, -1)
        covered.sort(axis=1)
        # a code seen once differs from both neighbours in its sorted row
        differs = np.ones((len(rows), n + 1), dtype=bool)
        np.not_equal(covered[:, 1:], covered[:, :-1], out=differs[:, 1:-1])
        single = covered >= 0
        single &= differs[:, :-1]
        single &= differs[:, 1:]
        bad = np.flatnonzero(rows.any(axis=1) & ~single.any(axis=1))
        if len(bad):
            return r0 + int(bad[0])
    return None


# ---------------------------------------------------------------------------
# definitional recomputation from tree shape
# ---------------------------------------------------------------------------

def _fresh_augmentation(tree: AugTree):
    """Heights and summaries recomputed from scratch, ignoring stored fields."""
    heights: dict[int, int] = {}
    ymax: dict[int, object] = {}
    ymin: dict[int, object] = {}

    def go(v: Node) -> None:
        if v.is_leaf:
            heights[id(v)] = 0
            ymax[id(v)] = v.ymax
            ymin[id(v)] = v.ymin
            return
        go(v.left)
        go(v.right)
        heights[id(v)] = max(heights[id(v.left)], heights[id(v.right)]) + 1
        ymax[id(v)] = max(ymax[id(v.left)], ymax[id(v.right)])
        ymin[id(v)] = min(ymin[id(v.left)], ymin[id(v.right)])

    if tree.root is not None:
        go(tree.root)
    return heights, ymax, ymin


def recompute_anchored_colors(tree: AugTree) -> dict[int, int]:
    """color(r) = max height over {leaf of r} and internal v with the
    max-summary of right(v) equal to r, evaluated from fresh augmentation."""
    heights, ymax, _ = _fresh_augmentation(tree)
    out: dict[int, int] = {}
    for leaf in tree.leaves():
        best = 0
        v = leaf.parent
        while v is not None:
            if ymax[id(v.right)].tiebreak == leaf.payload and heights[id(v)] > best:
                best = heights[id(v)]
            v = v.parent
        out[leaf.payload] = best
    return out


def recompute_pinned_square_colors(tree: AugTree) -> dict[int, int]:
    """The four-direction coloring: 0 at pure leaves, else 4*h + j with j
    by NE, SE, SW, NW priority among the directions attaining h."""
    heights, ymax, ymin = _fresh_augmentation(tree)
    out: dict[int, int] = {}
    for leaf in tree.leaves():
        oid = leaf.payload
        cat = [0, 0, 0, 0]  # NE, SE, SW, NW
        v = leaf.parent
        while v is not None:
            h = heights[id(v)]
            if ymax[id(v.right)].tiebreak == oid:
                cat[0] = max(cat[0], h)
            if ymin[id(v.right)].tiebreak == oid:
                cat[1] = max(cat[1], h)
            if ymin[id(v.left)].tiebreak == oid:
                cat[2] = max(cat[2], h)
            if ymax[id(v.left)].tiebreak == oid:
                cat[3] = max(cat[3], h)
            v = v.parent
        h_star = max(cat)
        if h_star == 0:
            out[oid] = 0
        else:
            j = cat.index(h_star)
            out[oid] = 4 * h_star + j
    return out


def _recompute_half(tree: AugTree, use_right: bool) -> dict[int, int]:
    heights, ymax, ymin = _fresh_augmentation(tree)
    out: dict[int, int] = {}
    for leaf in tree.leaves():
        oid = leaf.payload
        hi = lo = 0
        v = leaf.parent
        while v is not None:
            child = v.right if use_right else v.left
            h = heights[id(v)]
            if ymax[id(child)].tiebreak == oid:
                hi = max(hi, h)
            if ymin[id(child)].tiebreak == oid:
                lo = max(lo, h)
            v = v.parent
        h_star = max(hi, lo)
        if h_star == 0:
            out[oid] = 0
        else:
            out[oid] = 2 * h_star + (0 if hi == h_star else 1)
    return out


def recompute_common_point_colors(east: AugTree, west: AugTree) -> dict[int, tuple[int, int]]:
    """Pair coloring of a common-point cell: east half from right-child
    summaries, west half from left-child summaries."""
    e = _recompute_half(east, use_right=True)
    w = _recompute_half(west, use_right=False)
    return {oid: (e[oid], w[oid]) for oid in e}
