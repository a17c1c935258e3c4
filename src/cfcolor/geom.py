"""Core value types shared by every coloring scheme.

Object identifiers, closed geometric primitives, tie-broken key ordering,
and the structured global color encoding.  All objects here are plain
values; mutation and bookkeeping live in the structures that use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

# Object identifiers are plain ints: unique within one structure instance,
# strictly increasing in insertion order.
ObjectId = int


class DuplicateId(ValueError):
    """An object id was inserted twice into the same structure."""


class UnknownId(KeyError):
    """An object id is not (or no longer) present in the structure."""


@dataclass(frozen=True)
class Pt:
    x: float
    y: float


@dataclass(frozen=True)
class AxisRect:
    """Closed axis-parallel rectangle [x1,x2] x [y1,y2]."""

    x1: float
    x2: float
    y1: float
    y2: float
    id: ObjectId

    def __post_init__(self) -> None:
        if not (self.x1 <= self.x2 and self.y1 <= self.y2):
            raise ValueError(f"degenerate rectangle bounds: {self}")

    def contains(self, p: Pt) -> bool:
        return self.x1 <= p.x <= self.x2 and self.y1 <= p.y <= self.y2


@dataclass(frozen=True)
class UnitSquare:
    """Closed unit square [x,x+1] x [y,y+1]; (x, y) is the bottom-left corner."""

    x: float
    y: float
    id: ObjectId

    def to_rect(self) -> AxisRect:
        return AxisRect(self.x, self.x + 1.0, self.y, self.y + 1.0, self.id)

    def contains(self, p: Pt) -> bool:
        return self.x <= p.x <= self.x + 1.0 and self.y <= p.y <= self.y + 1.0


class KeyOrder(NamedTuple):
    """Total order on (coordinate, id): equal coordinates fall back to the id.

    Distinct objects always compare unequal, which is what lets every scheme
    pretend all coordinates are distinct.  A plain tuple underneath, so
    comparisons and construction stay cheap on the tree's hot paths.
    """

    coordinate: float
    tiebreak: ObjectId


def compare_keys(k1: KeyOrder, k2: KeyOrder) -> int:
    """Three-way comparison: -1, 0, or +1."""
    if k1 < k2:
        return -1
    if k2 < k1:
        return 1
    return 0


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


def pair_decode(z: int) -> tuple[int, int]:
    s = (math.isqrt(8 * z + 1) - 1) // 2
    b = z - s * (s + 1) // 2
    return s - b, b


@dataclass
class RecolorDiff:
    """Effect of one update on an existing color assignment.

    `changed` lists pre-existing objects whose color changed (old, new);
    `assigned` is the color given to a newly inserted object, `removed` the
    last color of a deleted one.  Recolorings per the usual accounting are
    exactly len(changed).

    Colors are in the structure's own color space: the values it stores,
    which need not equal the GlobalColor its global_colors() reports (an
    AnchoredCF diff carries plain ints).  Within one structure the map
    between the two is one-to-one, so diffs count colors in use exactly.
    """

    changed: dict[ObjectId, tuple[object, object]] = field(default_factory=dict)
    assigned: tuple[ObjectId, object] | None = None
    removed: tuple[ObjectId, object] | None = None

    @property
    def recolorings(self) -> int:
        return len(self.changed)
