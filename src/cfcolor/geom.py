"""Core value types shared by every coloring scheme.

Object identifiers, closed geometric primitives, tie-broken key ordering,
and the structured global color encoding.  All objects here are immutable
values; mutation and bookkeeping live in the structures that use them.
AxisRect is the one rectangle form: a unit square is the AxisRect
squares.unit_square builds.  Rectangles, keys and global colors are
NamedTuples, built once per update or more; a point stays a frozen
dataclass, whose field reads are cheaper and far more frequent than its
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

# Object identifiers are plain ints: unique within one structure instance,
# strictly increasing in insertion order.
ObjectId = int

tuple_new = tuple.__new__  # tuple_new(KeyOrder, (coordinate, id)) builds a KeyOrder in C


class DuplicateId(ValueError):
    """An object id was inserted twice into the same structure."""


class UnknownId(KeyError):
    """An object id is not (or no longer) present in the structure."""


@dataclass(frozen=True)
class Pt:
    x: float
    y: float


class AxisRect(NamedTuple("AxisRect", [("x1", float), ("x2", float), ("y1", float),
                                        ("y2", float), ("id", ObjectId)])):
    """Closed axis-parallel rectangle [x1,x2] x [y1,y2]; its constructor
    refuses inverted bounds."""

    __slots__ = ()

    def __new__(cls, x1: float, x2: float, y1: float, y2: float, id: ObjectId) -> AxisRect:
        self = tuple_new(cls, (x1, x2, y1, y2, id))
        if not (x1 <= x2 and y1 <= y2):
            raise ValueError(f"degenerate rectangle bounds: {self}")
        return self

    @classmethod
    def _make(cls, iterable) -> AxisRect:  # _replace calls it: both check bounds
        return cls(*iterable)

    def contains(self, p: Pt) -> bool:
        return self.x1 <= p.x <= self.x2 and self.y1 <= p.y <= self.y2


class KeyOrder(NamedTuple):
    """Total order on (coordinate, id): equal coordinates fall back to the id.

    Distinct objects always compare unequal, which is what lets every scheme
    pretend all coordinates are distinct.  A plain tuple underneath, so
    comparisons and construction stay cheap on the tree's hot paths.
    """

    coordinate: float
    tiebreak: ObjectId


class GlobalColor(NamedTuple):
    """A color as (sub-scheme tag, local color).

    scheme_tag identifies the palette the local color is drawn from (grid
    class, tree-level pair, framework color set ...); equal tags mean the
    same reusable color set.  Ordered lexicographically so witnesses and
    reports can sort color multisets deterministically.
    """

    scheme_tag: int
    local: int


def pair_encode(a: int, b: int) -> int:
    """Cantor pairing: injective map of ordered non-negative pairs to ints."""
    s = a + b
    return s * (s + 1) // 2 + b


@dataclass(slots=True)
class RecolorDiff:
    """Effect of one update on an existing color assignment.

    `changed` lists pre-existing objects whose color changed (old, new);
    `assigned` is the color given to a newly inserted object, `removed` the
    last color of a deleted one.  Recolorings per the usual accounting are
    exactly len(changed).  Every color is one global_colors() reports.
    """

    changed: dict[ObjectId, tuple[object, object]] = field(default_factory=dict)
    assigned: tuple[ObjectId, object] | None = None
    removed: tuple[ObjectId, object] | None = None

    @property
    def recolorings(self) -> int:
        return len(self.changed)
