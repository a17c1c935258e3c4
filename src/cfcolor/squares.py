"""Conflict-free coloring of unit squares under insertions and deletions.

A unit square is the AxisRect unit_square(x, y, id) builds, [x, x + 1] x
[y, y + 1]; GridSquareCF refuses any other rectangle.  Each square is
routed to the lexicographically smallest integer grid point it contains;
all squares sharing a grid point live in one pinned cell.  A cell keeps a
single augmented tree in square x-order (for unit squares the orderings of
all four corners coincide) and colors squares by the rule of cells.py
with the four selectors NE, SE, SW, NW (k = 4): 0 when no node selects
the square, otherwise 4*h + j.

Cells whose grid classes coincide modulo 3 can never hold intersecting
squares, so the 9 classes reuse the same color sets; a global color is
(class tag, local color).
"""

from __future__ import annotations

from .cells import NE, NW, SE, SW, DirectionalCell, Partition
from .geom import AxisRect, KeyOrder, ObjectId, tuple_new

GRID_CLASS_MODULUS = 3


class NotUnitSquare(ValueError):
    pass


def unit_square(x: float, y: float, id: ObjectId) -> AxisRect:
    """The closed unit square [x, x + 1] x [y, y + 1]."""
    return AxisRect(x, x + 1.0, y, y + 1.0, id)


class PinnedSquareCF(DirectionalCell):
    """One cell: CF-coloring of unit squares that all contain `pin`."""

    SELECTORS = ((NE, SE, SW, NW),)
    __slots__ = ()

    def keys(self, sq: AxisRect) -> tuple:
        oid = sq.id
        y = tuple_new(KeyOrder, (sq.y1, oid))
        return ((tuple_new(KeyOrder, (sq.x1, oid)), y, y),)


class GridSquareCF(Partition):
    """CF-coloring of arbitrary unit squares via the integer-grid cells."""

    CELL = PinnedSquareCF
    class_modulus = GRID_CLASS_MODULUS

    def check(self, sq: AxisRect) -> None:
        if sq != unit_square(sq.x1, sq.y1, sq.id):
            raise NotUnitSquare(f"not a unit square: {sq}")
