"""Dynamic conflict-free colorings of geometric objects.

Structures that maintain conflict-free colorings under insertions and
deletions with provable color and recoloring bounds, brute-force
verification oracles, and a CLI workload harness.
"""

from .geom import (
    AxisRect,
    GlobalColor,
    KeyOrder,
    ObjectId,
    Pt,
    RecolorDiff,
    UnitSquare,
)

__all__ = [
    "AxisRect",
    "GlobalColor",
    "KeyOrder",
    "ObjectId",
    "Pt",
    "RecolorDiff",
    "UnitSquare",
]
