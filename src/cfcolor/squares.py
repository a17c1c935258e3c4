"""Conflict-free coloring of unit squares under insertions and deletions.

Each square is routed to the lexicographically smallest integer grid point
it contains; all squares sharing a grid point live in one pinned cell.  A
cell keeps a single augmented tree in square x-order (for unit squares the
orderings of all four corners coincide) and colors squares by the rule of
cells.py with the four selectors NE, SE, SW, NW (k = 4): 0 when no node
selects the square, otherwise 4*h + j.

Cells whose grid classes coincide modulo 3 can never hold intersecting
squares, so the 9 classes reuse the same color sets; a global color is
(class tag, local color).
"""

from __future__ import annotations

import math

from .cells import NE, NW, SE, SW, DirectionalCell, Partition
from .geom import KeyOrder, ObjectId, Pt, UnitSquare

GRID_CLASS_MODULUS = 3


class PinnedSquareCF(DirectionalCell):
    """One cell: CF-coloring of unit squares that all contain `pin`."""

    SELECTORS = ((NE, SE, SW, NW),)
    rect = staticmethod(UnitSquare.to_rect)

    def __init__(self, pin: Pt, tag: int = 0) -> None:
        super().__init__(pin, tag)
        (self.tree,) = self.trees
        self.squares: dict[ObjectId, UnitSquare] = self.objects

    def keys(self, sq: UnitSquare) -> tuple:
        y = KeyOrder(sq.y, sq.id)
        return ((KeyOrder(sq.x, sq.id), y, y),)

    def category_heights(self, oid: ObjectId) -> dict[str, int]:
        """Max node height per direction whose summary selects this square,
        over every ancestor of its leaf."""
        cat = dict.fromkeys(("ne", "se", "sw", "nw"), 0)
        v = self.tree.leaf_by_payload[oid].parent
        while v is not None:
            for name, (side, summary) in zip(cat, self.SELECTORS[0]):
                if getattr(getattr(v, side), summary).tiebreak == oid:
                    cat[name] = max(cat[name], v.height)
            v = v.parent
        return cat

    def pinned_color(self, oid: ObjectId) -> tuple[int, int | None]:
        """(h, j) of the color formula; j is None for the pure-leaf color 0."""
        c = self.color_of(oid)
        return (0, None) if c == 0 else divmod(c, 4)


def route_square(sq: UnitSquare) -> tuple[int, int]:
    """Lexicographically smallest integer grid point inside the closed square."""
    return math.ceil(sq.x), math.ceil(sq.y)


def class_tag(ci: int, cj: int) -> int:
    m = GRID_CLASS_MODULUS
    return (ci % m) * m + (cj % m)


class GridSquareCF(Partition):
    """CF-coloring of arbitrary unit squares via the integer-grid cells."""

    CELL = PinnedSquareCF

    def route(self, sq: UnitSquare) -> tuple[tuple[int, int], Pt, int]:
        key = route_square(sq)
        return key, Pt(float(key[0]), float(key[1])), class_tag(*key)
