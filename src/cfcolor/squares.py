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

from .cells import NE, NW, SE, SW, DirectionalCell, Partition, tuple_new
from .geom import KeyOrder, ObjectId, UnitSquare

GRID_CLASS_MODULUS = 3


class PinnedSquareCF(DirectionalCell):
    """One cell: CF-coloring of unit squares that all contain `pin`."""

    SELECTORS = ((NE, SE, SW, NW),)
    __slots__ = ()

    @property
    def squares(self) -> dict[ObjectId, UnitSquare]:
        return self.objects

    def keys(self, sq: UnitSquare) -> tuple:
        oid = sq.id
        y = tuple_new(KeyOrder, (sq.y, oid))
        return ((tuple_new(KeyOrder, (sq.x, oid)), y, y),)

    def colored_boxes(self) -> list[tuple[ObjectId, tuple]]:
        g = self.global_color
        return [(oid, (sq.x, sq.x + 1.0, sq.y, sq.y + 1.0, g(self.colors[oid])))
                for oid, sq in self.objects.items()]


def route_square(sq: UnitSquare) -> tuple[int, int]:
    """Lexicographically smallest integer grid point inside the closed square."""
    return math.ceil(sq.x), math.ceil(sq.y)


def class_tag(ci: int, cj: int) -> int:
    m = GRID_CLASS_MODULUS
    return (ci % m) * m + (cj % m)


class GridSquareCF(Partition):
    """CF-coloring of arbitrary unit squares via the integer-grid cells."""

    CELL = PinnedSquareCF
    cell_key = staticmethod(route_square)
    class_tag = staticmethod(class_tag)
