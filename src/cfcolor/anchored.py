"""Conflict-free coloring of anchored rectangles (bottom-left corner at the
origin), maintained under insertions and deletions.

Rectangles are keyed by the x-coordinate of their top-right corner in an
augmented tree whose max-summary tracks the highest-reaching rectangle per
subtree.  The coloring is the rule of cells.py with the single selector NE
(k = 1): a rectangle's color is the height of the highest node whose right
child's max-summary is the rectangle, or 0.  After each tree update the
colors of all candidate rectangles named by the dirty log are recomputed
and diffed against the stored assignment, so the recoloring count is
exact.
"""

from __future__ import annotations

from .cells import NE, DirectionalCell, tuple_new
from .geom import AxisRect, KeyOrder, Pt

ANCHORED_SCHEME_TAG = 0


class NotAnchored(ValueError):
    pass


class AnchoredCF(DirectionalCell):
    """Dynamic CF-coloring of anchored rectangles; colors are small ints."""

    SELECTORS = ((NE,),)
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(Pt(0.0, 0.0), ANCHORED_SCHEME_TAG)

    def check(self, r: AxisRect) -> None:
        # a top-right corner below the origin (or NaN) misses the pin too
        if r.x1 != 0.0 or r.y1 != 0.0 or not (r.x2 >= 0.0 and r.y2 >= 0.0):
            raise NotAnchored(f"rectangle not anchored at the origin: {r}")

    def keys(self, r: AxisRect) -> tuple:
        oid = r.id
        y = tuple_new(KeyOrder, (r.y2, oid))
        return ((tuple_new(KeyOrder, (r.x2, oid)), y, y),)
