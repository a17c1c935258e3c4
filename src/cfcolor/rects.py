"""CF-colorings for rectangles: bounded side lengths, and arbitrary sizes
over a fixed coordinate universe.

CommonPointCF colors rectangles that all share one point (the pin) by the
rule of cells.py in two trees: the east tree in x2-order with selectors
(NE, SE), read from right-child summaries (max y2, min y1), and the west
tree in x1-order with selectors (NW, SW), read from left-child summaries.
Each half yields 0 or 2*h + j with j in {0,1}; the color of a rectangle is
the ordered (east, west) pair.  An update recomputes a rectangle's east
half only when the east tree's dirty log names it, and its west half only
when the west tree's does; the other half is kept from the last update.

BoundedRectCF routes rectangles with side lengths in [1, c] to the
lexicographically smallest contained integer grid point and runs one
common-point cell per grid point, reusing color sets across grid classes
modulo 2*ceil(c)+1.

UniverseRectCF stores rectangles with integer coordinates in {0..N-1} in a
static two-level interval-tree skeleton: a rectangle sits at the highest
x-node whose value its x-range contains, then at the highest y-node of
that node's y-skeleton, and every (x-node, y-node) pair runs a
common-point cell pinned at the pair's values.  Same-level nodes hold
disjoint rectangles, so color sets are reused per (x-level, y-level).
"""

from __future__ import annotations

import math

from .cells import NE, NW, SE, SW, DirectionalCell, Partition
from .geom import AxisRect, GlobalColor, KeyOrder, ObjectId, Pt, pair_encode, tuple_new


class SizeOutOfRange(ValueError):
    pass


class CoordinateOutOfUniverse(ValueError):
    pass


def check_size_bound(c: float) -> None:
    if not 1 <= c < math.inf:
        raise SizeOutOfRange(f"size bound c must be in [1, inf), got {c}")


def check_sides(w: float, h: float, c: float) -> None:
    """The bounded-rectangle rule: both side lengths in [1, c]."""
    if not (1.0 <= w <= c and 1.0 <= h <= c):
        raise SizeOutOfRange(f"sides ({w}, {h}) outside [1, {c}]")


def check_universe_size(universe: int) -> None:
    if universe < 1:
        raise CoordinateOutOfUniverse(f"universe size must be positive, got {universe}")


class CommonPointCF(DirectionalCell):
    """Pair coloring of rectangles sharing the point `pin`, in trees (east, west)."""

    SELECTORS = ((NE, SE), (NW, SW))
    __slots__ = ()

    def __init__(self, pin: Pt, tag: int = 0) -> None:
        super().__init__(pin, tag)
        self.colors = {}   # (east, west) pairs joined from the two halves
        self.halves = ({}, {})

    def keys(self, r: AxisRect) -> tuple:
        oid = r.id
        ymax = tuple_new(KeyOrder, (r.y2, oid))
        ymin = tuple_new(KeyOrder, (r.y1, oid))
        return ((tuple_new(KeyOrder, (r.x2, oid)), ymax, ymin),
                (tuple_new(KeyOrder, (r.x1, oid)), ymax, ymin))

    def join(self, oid: ObjectId) -> tuple[int, int]:
        east, west = self.halves
        return east[oid], west[oid]

    def global_color(self, pair: tuple[int, int]) -> GlobalColor:
        return tuple_new(GlobalColor, (self.tag, pair_encode(*pair)))


class BoundedRectCF(Partition):
    """Rectangles with widths and heights in [1, c], grid-routed."""

    CELL = CommonPointCF

    def __init__(self, c: float) -> None:
        check_size_bound(c)
        super().__init__()
        self.c = float(c)
        self.class_modulus = 2 * math.ceil(c) + 1

    def check(self, r: AxisRect) -> None:
        check_sides(r.x2 - r.x1, r.y2 - r.y1, self.c)


def skeleton_locate(n_slots: int, lo_val: int, hi_val: int) -> tuple[int, int, int]:
    """Highest node of the complete skeleton over {0..n_slots-1} whose
    midpoint value lies in [lo_val, hi_val].

    Returns (heap_index, node_value, level).  n_slots is a power of two.
    """
    lo, hi = 0, n_slots - 1
    heap, level = 1, 0
    while True:
        mid = (lo + hi) // 2
        if lo_val <= mid <= hi_val:
            return heap, mid, level
        if hi_val < mid:
            hi = mid
            heap, level = 2 * heap, level + 1
        else:
            lo = mid + 1
            heap, level = 2 * heap + 1, level + 1


class UniverseRectCF(Partition):
    """Arbitrary rectangles with integer coordinates from {0..N-1}."""

    CELL = CommonPointCF
    MISROUTED = "rect {} not at its highest skeleton nodes"

    def __init__(self, universe: int) -> None:
        check_universe_size(universe)
        super().__init__()
        self.universe = int(universe)
        self.slots = 1
        while self.slots < self.universe:
            self.slots *= 2
        self.levels = self.slots.bit_length()  # level in 0..levels-1

    def check(self, r: AxisRect) -> None:
        # skeleton_locate finds no node for an inverted range and would not stop
        if not (r.x1 <= r.x2 and r.y1 <= r.y2):
            raise ValueError(f"degenerate rectangle bounds: {r}")
        for v in (r.x1, r.x2, r.y1, r.y2):
            if not float(v).is_integer():
                raise CoordinateOutOfUniverse(f"non-integer coordinate {v}")
            iv = int(v)
            if not 0 <= iv < self.universe:
                raise CoordinateOutOfUniverse(f"coordinate {iv} outside [0, {self.universe - 1}]")

    def route(self, r: AxisRect) -> tuple[tuple[int, int], Pt, int]:
        """(cell key, pin, tag); the tag x-level * levels + y-level names a color set."""
        hx, xv, lx = skeleton_locate(self.slots, int(r.x1), int(r.x2))
        hy, yv, ly = skeleton_locate(self.slots, int(r.y1), int(r.y2))
        return (hx, hy), Pt(float(xv), float(yv)), lx * self.levels + ly

    def cell_key(self, r: AxisRect) -> tuple[int, int]:
        return (skeleton_locate(self.slots, int(r.x1), int(r.x2))[0],
                skeleton_locate(self.slots, int(r.y1), int(r.y2))[0])
