"""Static unimax colorers that support weak deletions.

A unimax coloring makes the maximum color in every nonempty query range
unique.  Both colorers here are static: they color an initial set once and
then support weak deletions only, at most one recoloring each, never
leaving the initial palette.

* IntervalPointColorer: 1-D points w.r.t. intervals.  The median of every
  recursion range of size m gets color floor(log2(m)), so an initial set
  of n points uses exactly the colors {0..floor(log2(n))}.  Deleting a
  point with color i recolors one lower-colored live neighbor to i (left
  preferred), or nothing when both neighbors sit higher.

* RectPointColorer: planar points w.r.t. axis-parallel rectangles.  The
  point set is split into monotone chains by repeatedly extracting a
  longest increasing-or-decreasing subsequence; a rectangle meets each
  chain in a contiguous run, so each chain is a 1-D instance colored by an
  IntervalPointColorer inside its own contiguous color block.  Blocks are
  disjoint and ordered, which keeps the combined coloring unimax.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .geom import ObjectId, Pt


class UnknownPoint(KeyError):
    pass


def interval_palette_size(n0: int) -> int:
    """Colors needed for n0 points w.r.t. intervals: floor(log2 n0) + 1."""
    return n0.bit_length() if n0 > 0 else 0


class IntervalPointColorer:
    """Unimax coloring of 1-D points w.r.t. intervals, with weak deletions."""

    def __init__(self, points: dict[ObjectId, float]) -> None:
        order = sorted(points, key=lambda oid: (points[oid], oid))
        self.n0 = len(order)
        self.order = order
        self.colors: dict[ObjectId, int] = {}
        self._prev: dict[ObjectId, ObjectId | None] = {}
        self._next: dict[ObjectId, ObjectId | None] = {}
        for i, oid in enumerate(order):
            self._prev[oid] = order[i - 1] if i > 0 else None
            self._next[oid] = order[i + 1] if i + 1 < len(order) else None
        self._color_range(0, self.n0 - 1)

    def _color_range(self, lo: int, hi: int) -> None:
        if lo > hi:
            return
        size = hi - lo + 1
        mid = lo + (size - 1) // 2  # lower median
        self.colors[self.order[mid]] = size.bit_length() - 1
        self._color_range(lo, mid - 1)
        self._color_range(mid + 1, hi)

    @staticmethod
    def palette_size(n0: int) -> int:
        return interval_palette_size(n0)

    @staticmethod
    def max_recolorings(n0: int) -> int:
        return 1

    def weak_delete(self, oid: ObjectId) -> dict[ObjectId, int]:
        if oid not in self.colors:
            raise UnknownPoint(oid)
        color = self.colors.pop(oid)
        left = self._prev[oid]
        right = self._next[oid]
        if left is not None:
            self._next[left] = right
        if right is not None:
            self._prev[right] = left
        # recolor a lower-colored neighbor up to the freed color; left first
        if left is not None and self.colors[left] < color:
            self.colors[left] = color
            return {left: color}
        if right is not None and self.colors[right] < color:
            self.colors[right] = color
            return {right: color}
        return {}


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


class RectPointColorer:
    """Unimax coloring of planar points w.r.t. axis-parallel rectangles."""

    def __init__(self, points: dict[ObjectId, Pt]) -> None:
        self.n0 = len(points)
        self.chains = chain_decompose(points)
        self.chain_of: dict[ObjectId, int] = {}
        self.sub: list[IntervalPointColorer] = []
        self.offsets: list[int] = []
        offset = 0
        for k, chain in enumerate(self.chains):
            for oid in chain:
                self.chain_of[oid] = k
            # the chain behaves 1-D in its x-order
            self.sub.append(IntervalPointColorer({oid: points[oid].x for oid in chain}))
            self.offsets.append(offset)
            offset += interval_palette_size(len(chain))
        self.palette_used = offset

    @property
    def colors(self) -> dict[ObjectId, int]:
        out = {}
        for k, sub in enumerate(self.sub):
            off = self.offsets[k]
            for oid, c in sub.colors.items():
                out[oid] = off + c
        return out

    @staticmethod
    def palette_size(n0: int) -> int:
        if n0 <= 0:
            return 0
        return 2 * math.ceil(math.sqrt(n0)) * interval_palette_size(n0)

    @staticmethod
    def max_recolorings(n0: int) -> int:
        return 1

    def weak_delete(self, oid: ObjectId) -> dict[ObjectId, int]:
        k = self.chain_of.get(oid)
        if k is None or oid not in self.sub[k].colors:
            raise UnknownPoint(oid)
        off = self.offsets[k]
        return {other: off + c for other, c in self.sub[k].weak_delete(oid).items()}
