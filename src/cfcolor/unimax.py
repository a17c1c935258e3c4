"""Static unimax colorers that support weak deletions.

A unimax coloring makes the maximum color in every nonempty query range
unique.  Both colorers here are static: they color an initial set once and
then support weak deletions only, at most one recoloring each, never
leaving the initial palette.

One core colors x-ordered runs.  The median of every recursion range of
size m in a run gets color floor(log2(m)), so a run of n points uses
exactly the colors {0..floor(log2(n))}, shifted into the run's own color
block; blocks are disjoint and ordered.  The core keeps one flat colors
dict and per-run prev/next links over the live points.  Deleting a point
with color c recolors one lower-colored live neighbor in its run to c
(left preferred), or nothing when both neighbors sit higher.

* IntervalPointColorer: 1-D points w.r.t. intervals, one run sorted by
  (x, id).

* RectPointColorer: planar points w.r.t. axis-parallel rectangles.  The
  point set is split into monotone chains by repeatedly extracting a
  longest increasing-or-decreasing subsequence; a rectangle meets each
  chain in a contiguous run, so each chain is one run of the core.
  Disjoint ordered blocks keep the combined coloring unimax.
"""

from __future__ import annotations

from bisect import bisect_left

from .geom import ObjectId, Pt


class UnknownPoint(KeyError):
    pass


class _RunColorer:
    """Unimax coloring of x-ordered runs, one color block each, with weak deletions."""

    def __init__(self, runs: list[list[ObjectId]]) -> None:
        self._colors: dict[ObjectId, int] = {}
        self._prev: dict[ObjectId, ObjectId | None] = {}
        self._next: dict[ObjectId, ObjectId | None] = {}
        offset = 0
        for run in runs:
            left = None
            for oid in run:
                self._prev[oid] = left
                if left is not None:
                    self._next[left] = oid
                left = oid
            if left is not None:
                self._next[left] = None
                self._color_range(run, 0, len(run) - 1, offset)
            offset += len(run).bit_length()  # the run's colors: floor(log2 len) + 1
        self.palette_used = offset

    def _color_range(self, run: list[ObjectId], lo: int, hi: int, offset: int) -> None:
        """Color the nonempty range run[lo..hi] by the median recursion."""
        size = hi - lo + 1
        mid = lo + (size - 1) // 2  # lower median
        self._colors[run[mid]] = offset + size.bit_length() - 1
        if lo < mid:
            self._color_range(run, lo, mid - 1, offset)
        if mid < hi:
            self._color_range(run, mid + 1, hi, offset)

    @property
    def colors(self) -> dict[ObjectId, int]:
        """The live points' colors: the stored dict itself, not a copy."""
        return self._colors

    @staticmethod
    def max_recolorings(n0: int) -> int:
        return 1

    def weak_delete(self, oid: ObjectId) -> dict[ObjectId, int]:
        colors = self._colors
        if oid not in colors:
            raise UnknownPoint(oid)
        color = colors.pop(oid)
        left = self._prev[oid]
        right = self._next[oid]
        if left is not None:
            self._next[left] = right
        if right is not None:
            self._prev[right] = left
        # recolor a lower-colored neighbor up to the freed color; left first
        if left is not None and colors[left] < color:
            colors[left] = color
            return {left: color}
        if right is not None and colors[right] < color:
            colors[right] = color
            return {right: color}
        return {}


class IntervalPointColorer(_RunColorer):
    """Unimax coloring of 1-D points w.r.t. intervals, with weak deletions."""

    def __init__(self, points: dict[ObjectId, float]) -> None:
        super().__init__([sorted(points, key=lambda oid: (points[oid], oid))])

    @staticmethod
    def check_point(x: float) -> None:
        """Raise ValueError for a point the x-order cannot place: NaN."""
        if x != x:
            raise ValueError(f"NaN coordinate: {x!r}")


def _longest_monotone(keys: list[tuple], decreasing: bool) -> list[int]:
    """Indices of one longest strictly increasing (or decreasing) run."""
    if decreasing:
        keys = [(-y, -t) for y, t in keys]
    piles: list[tuple] = []      # smallest tail key per length
    pile_last: list[int] = []    # index achieving that tail
    back: list[int | None] = [None] * len(keys)
    for i, k in enumerate(keys):
        j = bisect_left(piles, k)
        if j == len(piles):
            piles.append(k)
            pile_last.append(i)
        else:
            piles[j] = k
            pile_last[j] = i
        back[i] = pile_last[j - 1] if j > 0 else None
    out: list[int] = []
    i: int | None = pile_last[-1]
    while i is not None:
        out.append(i)
        i = back[i]
    out.reverse()
    return out


def chain_decompose(points: dict[ObjectId, Pt]) -> list[list[ObjectId]]:
    """Partition into monotone chains (x-ordered), at most 2*ceil(sqrt(n)).

    Repeatedly extracts the longer of a longest increasing and a longest
    decreasing subsequence of the y-order over the x-order; each round
    removes at least ceil(sqrt(remaining)) points.
    """
    remaining = sorted(points, key=lambda oid: (points[oid].x, oid))
    chains: list[list[ObjectId]] = []
    while remaining:
        keys = [(points[oid].y, oid) for oid in remaining]
        inc = _longest_monotone(keys, decreasing=False)
        dec = _longest_monotone(keys, decreasing=True)
        picked = inc if len(inc) >= len(dec) else dec
        chains.append([remaining[i] for i in picked])
        taken = set(picked)
        remaining = [oid for i, oid in enumerate(remaining) if i not in taken]
    return chains


class RectPointColorer(_RunColorer):
    """Unimax coloring of planar points w.r.t. axis-parallel rectangles."""

    def __init__(self, points: dict[ObjectId, Pt]) -> None:
        # each chain is x-ordered, so it behaves 1-D in its x-order
        self.chains = chain_decompose(points)
        super().__init__(self.chains)

    @staticmethod
    def check_point(p: Pt) -> None:
        """Raise ValueError for a point the x- and y-orders cannot place: a
        NaN coordinate."""
        if p.x != p.x or p.y != p.y:
            raise ValueError(f"NaN coordinate: {p!r}")
