"""CF-colorings for rectangles: bounded side lengths, and arbitrary sizes
over a fixed coordinate universe.

CommonPointCF colors rectangles that all share one point (the pin) by the
rule of cells.py in two trees: the east tree in x2-order with selectors
(NE, SE), read from right-child summaries (max y2, min y1), and the west
tree in x1-order with selectors (NW, SW), read from left-child summaries.
Each half yields 0 or 2*h + j with j in {0,1}; the color of a rectangle is
the ordered (east, west) pair.

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

from .augtree import ViolationReport
from .cells import NE, NW, SE, SW, DirectionalCell, Partition, PinNotContained, tree_color
from .geom import AxisRect, GlobalColor, KeyOrder, ObjectId, Pt, pair_encode


class SizeOutOfRange(ValueError):
    pass


class CoordinateOutOfUniverse(ValueError):
    pass


class CommonPointCF(DirectionalCell):
    """Pair coloring of rectangles sharing the point `pin`."""

    SELECTORS = ((NE, SE), (NW, SW))

    def __init__(self, pin: Pt, tag: int = 0) -> None:
        super().__init__(pin, tag)
        self.east, self.west = self.trees   # keyed by x2, by x1
        self.rects: dict[ObjectId, AxisRect] = self.objects

    def keys(self, r: AxisRect) -> tuple:
        ymax = KeyOrder(r.y2, r.id)
        ymin = KeyOrder(r.y1, r.id)
        return (KeyOrder(r.x2, r.id), ymax, ymin), (KeyOrder(r.x1, r.id), ymax, ymin)

    def color(self, oid: ObjectId) -> tuple[int, int]:
        east, west = self.RULES
        return (tree_color(self.east.leaf_by_payload[oid], *east),
                tree_color(self.west.leaf_by_payload[oid], *west))

    def global_color(self, pair: tuple[int, int]) -> GlobalColor:
        return GlobalColor(self.tag, pair_encode(*pair))

    pair_of = DirectionalCell.color_of


class BoundedRectCF(Partition):
    """Rectangles with widths and heights in [1, c], grid-routed."""

    CELL = CommonPointCF

    def __init__(self, c: float) -> None:
        if c < 1:
            raise ValueError("size bound c must be >= 1")
        super().__init__()
        self.c = float(c)
        self.class_modulus = 2 * math.ceil(c) + 1

    def class_tag(self, ci: int, cj: int) -> int:
        m = self.class_modulus
        return (ci % m) * m + (cj % m)

    def route(self, r: AxisRect) -> tuple[tuple[int, int], Pt, int]:
        w, h = r.x2 - r.x1, r.y2 - r.y1
        if not (1.0 <= w <= self.c and 1.0 <= h <= self.c):
            raise SizeOutOfRange(f"sides ({w}, {h}) outside [1, {self.c}]")
        key = (math.ceil(r.x1), math.ceil(r.y1))
        return key, Pt(float(key[0]), float(key[1])), self.class_tag(*key)


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


def skeleton_path_values(n_slots: int, lo_val: int, hi_val: int) -> list[int]:
    """Midpoint values of the strict ancestors visited before the located node."""
    out = []
    lo, hi = 0, n_slots - 1
    while True:
        mid = (lo + hi) // 2
        if lo_val <= mid <= hi_val:
            return out
        out.append(mid)
        if hi_val < mid:
            hi = mid
        else:
            lo = mid + 1


class UniverseRectCF(Partition):
    """Arbitrary rectangles with integer coordinates from {0..N-1}."""

    CELL = CommonPointCF

    def __init__(self, universe: int) -> None:
        if universe < 1:
            raise ValueError("universe size must be positive")
        super().__init__()
        self.universe = int(universe)
        self.slots = 1
        while self.slots < self.universe:
            self.slots *= 2
        self.levels = self.slots.bit_length()  # level in 0..levels-1

    @property
    def cell_level(self) -> dict[tuple[int, int], tuple[int, int]]:
        """(x-level, y-level) of every live cell, recovered from its tag."""
        return {key: divmod(cell.tag, self.levels) for key, cell in self.cells.items()}

    def _check_coord(self, v: float) -> int:
        if not float(v).is_integer():
            raise CoordinateOutOfUniverse(f"non-integer coordinate {v}")
        iv = int(v)
        if not 0 <= iv < self.universe:
            raise CoordinateOutOfUniverse(f"coordinate {iv} outside [0, {self.universe - 1}]")
        return iv

    def locate(self, r: AxisRect) -> tuple[tuple[int, int], Pt, tuple[int, int]]:
        """(cell key, pin, (x-level, y-level)) for a validated rectangle."""
        x1, x2 = self._check_coord(r.x1), self._check_coord(r.x2)
        y1, y2 = self._check_coord(r.y1), self._check_coord(r.y2)
        hx, xv, lx = skeleton_locate(self.slots, x1, x2)
        hy, yv, ly = skeleton_locate(self.slots, y1, y2)
        return (hx, hy), Pt(float(xv), float(yv)), (lx, ly)

    def level_tag(self, lx: int, ly: int) -> int:
        return lx * self.levels + ly

    def route(self, r: AxisRect) -> tuple[tuple[int, int], Pt, int]:
        key, pin, levels = self.locate(r)
        return key, pin, self.level_tag(*levels)

    def audit(self) -> ViolationReport | None:
        report = super().audit()
        if report is not None:
            return report
        for cell in self.cells.values():
            for oid, r in cell.rects.items():
                # routing soundness: no strict x-ancestor's value is contained
                for av in skeleton_path_values(self.slots, int(r.x1), int(r.x2)):
                    if r.x1 <= av <= r.x2:
                        return ViolationReport(None, f"rect {oid} not at highest x-node")
        return None
