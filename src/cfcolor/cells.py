"""The directional-summary coloring rule and the cell partition shared by
every geometric structure.

The rule.  A cell holds objects that all contain one common point, in one
or two augmented trees (see augtree).  A selector names a child side and a
summary of that child: NE = right.ymax, SE = right.ymin, SW = left.ymin,
NW = left.ymax.  An internal node v *selects* object o through selector j
when the summary j names of v's child on j's side is o.  With k selectors
per tree, o's color in that tree is

    k*h + j,  where h is the height of the highest node that selects o and
              j is the first selector that selects o there,

and 0 when no node selects o.  Heights strictly increase upward, so this is
"the maximum height over the selecting nodes, then the first selector
attaining it".  k = 1 with (NE,) is the anchored rule, k = 4 with (NE, SE,
SW, NW) the unit-square rule, and k = 2 per tree the two halves of the
common-point rule ((NE, SE) in the x2-ordered east tree, (NW, SW) in the
x1-ordered west tree).
"""

from __future__ import annotations

from .augtree import AugTree, ViolationReport, dirty_candidates
from .geom import AxisRect, DuplicateId, GlobalColor, ObjectId, Pt, RecolorDiff, UnknownId

RIGHT, LEFT = "right", "left"
NE = (RIGHT, "ymax")
SE = (RIGHT, "ymin")
SW = (LEFT, "ymin")
NW = (LEFT, "ymax")


class PinNotContained(ValueError):
    pass


def compile_selectors(selectors: tuple) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(k, left pick, right pick) for one tree's selectors.

    A side's pick maps the hits of the child on that side (2 when its ymax
    names the object, 1 when its ymin does, 3 for both) to the first
    selector j on that side that reads a named summary, or -1.
    """
    def pick(side: str) -> tuple[int, ...]:
        return tuple(next((j for j, (s, summary) in enumerate(selectors)
                           if s == side and hits & (2 if summary == "ymax" else 1)), -1)
                     for hits in range(4))
    return len(selectors), pick(LEFT), pick(RIGHT)


def tree_color(leaf, k: int, left_pick: tuple[int, ...], right_pick: tuple[int, ...]) -> int:
    """The rule's color of the leaf's object in its tree.

    Climbs from the leaf and, at each ancestor, tests only the child it came
    up from.  Once neither of that child's summaries names the object, no
    larger subtree's summary can (keys are distinct), so the walk stops.
    """
    oid = leaf.payload
    color = 0
    child = leaf
    v = leaf.parent
    while v is not None:
        hits = ((child.ymax.tiebreak == oid) << 1) | (child.ymin.tiebreak == oid)
        if not hits:
            break
        j = (right_pick if v.right is child else left_pick)[hits]
        if j >= 0:
            color = k * v.height + j
        child = v
        v = v.parent
    return color


class DirectionalCell:
    """Objects through the point `pin`, colored by the rule in each tree.

    A subclass sets SELECTORS, one tuple of selectors per tree, and keys(obj),
    which gives (key, ymax, ymin) per tree, each tie-broken by the object's
    id.  A one-tree cell's colors are ints; CommonPointCF, the two-tree
    cell, colors by (east, west) pairs.  The tag names the cell's palette.
    """

    SELECTORS: tuple[tuple[tuple[str, str], ...], ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.RULES = tuple(compile_selectors(s) for s in cls.SELECTORS)

    def __init__(self, pin: Pt, tag: int) -> None:
        self.pin = pin
        self.tag = tag
        self.trees = tuple(AugTree() for _ in self.SELECTORS)
        self.objects: dict[ObjectId, object] = {}
        self.colors: dict[ObjectId, object] = {}
        self.total_recolorings = 0

    def __len__(self) -> int:
        return len(self.objects)

    @staticmethod
    def rect(obj) -> AxisRect:
        return obj

    def check(self, obj) -> None:
        """Raise if obj may not join this cell."""
        if not obj.contains(self.pin):
            raise PinNotContained(f"{obj} does not contain pin {self.pin}")

    def insert(self, obj) -> RecolorDiff:
        self.check(obj)
        oid = obj.id
        if oid in self.objects:
            raise DuplicateId(oid)
        candidates: set[ObjectId] = set()
        for tree, (key, ymax, ymin) in zip(self.trees, self.keys(obj)):
            candidates |= dirty_candidates(tree.insert(key, oid, ymax, ymin))
        self.objects[oid] = obj
        return self._recolor(candidates, inserted=oid)

    def delete(self, oid: ObjectId) -> RecolorDiff:
        obj = self.objects.pop(oid, None)
        if obj is None:
            raise UnknownId(oid)
        candidates: set[ObjectId] = set()
        for tree, (key, _, _) in zip(self.trees, self.keys(obj)):
            candidates |= dirty_candidates(tree.delete(key))
        candidates.discard(oid)
        diff = self._recolor(candidates)
        diff.removed = (oid, self.colors.pop(oid))
        return diff

    def color_of(self, oid: ObjectId):
        """The stored color of a live object."""
        if oid not in self.objects:
            raise UnknownId(oid)
        return self.colors[oid]

    def color(self, oid: ObjectId):
        """The rule's color of a stored object, from the trees as they are."""
        (tree,), (rule,) = self.trees, self.RULES
        return tree_color(tree.leaf_by_payload[oid], *rule)

    def _recolor(self, candidates: set[ObjectId], inserted: ObjectId | None = None) -> RecolorDiff:
        """Recompute the candidates' colors; the diff against the stored ones."""
        diff = RecolorDiff()
        colors = self.colors
        for oid in sorted(candidates):
            new = self.color(oid)
            if oid == inserted:
                colors[oid] = new
                diff.assigned = (oid, new)
            elif colors[oid] != new:
                diff.changed[oid] = (colors[oid], new)
                colors[oid] = new
        self.total_recolorings += diff.recolorings
        return diff

    # -- verification views -------------------------------------------------

    def global_color(self, c) -> GlobalColor:
        return GlobalColor(self.tag, c)

    def global_colors(self) -> dict[ObjectId, GlobalColor]:
        g = self.global_color
        return {oid: g(c) for oid, c in self.colors.items()}

    def colored_rects(self) -> list[tuple[AxisRect, GlobalColor]]:
        g = self.global_color
        return [(self.rect(obj), g(self.colors[oid]))
                for oid, obj in sorted(self.objects.items())]

    def audit(self) -> ViolationReport | None:
        for tree in self.trees:
            report = tree.audit()
            if report is not None:
                return report
            if tree.leaf_by_payload.keys() != self.objects.keys():
                return ViolationReport(None, "tree leaves out of sync with the cell's objects")
        for oid, obj in self.objects.items():
            if not obj.contains(self.pin):
                return ViolationReport(None, f"object {oid} does not contain its pin")
        return None


class Partition:
    """Objects routed to DirectionalCells, one cell per routing key.

    A subclass sets CELL and route(obj), which validates obj and returns
    (cell key, pin, tag).  A cell is created on first use and dropped when
    it empties.  Diffs and global colors are GlobalColor(tag, local color).
    """

    CELL: type[DirectionalCell]

    def __init__(self) -> None:
        self.cells: dict[object, DirectionalCell] = {}
        self.location: dict[ObjectId, object] = {}
        self.total_recolorings = 0

    def __len__(self) -> int:
        return len(self.location)

    def insert(self, obj) -> RecolorDiff:
        if obj.id in self.location:
            raise DuplicateId(obj.id)
        key, pin, tag = self.route(obj)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.CELL(pin, tag)
        local = cell.insert(obj)
        self.cells[key] = cell
        self.location[obj.id] = key
        return self._to_global(local, cell)

    def delete(self, oid: ObjectId) -> RecolorDiff:
        key = self.location.get(oid)
        if key is None:
            raise UnknownId(oid)
        cell = self.cells[key]
        local = cell.delete(oid)
        del self.location[oid]
        if len(cell) == 0:
            del self.cells[key]
        return self._to_global(local, cell)

    def _to_global(self, local: RecolorDiff, cell: DirectionalCell) -> RecolorDiff:
        g = cell.global_color
        diff = RecolorDiff({oid: (g(old), g(new)) for oid, (old, new) in local.changed.items()})
        if local.assigned is not None:
            diff.assigned = (local.assigned[0], g(local.assigned[1]))
        if local.removed is not None:
            diff.removed = (local.removed[0], g(local.removed[1]))
        self.total_recolorings += diff.recolorings
        return diff

    # -- verification views -------------------------------------------------

    def global_colors(self) -> dict[ObjectId, GlobalColor]:
        out: dict[ObjectId, GlobalColor] = {}
        for cell in self.cells.values():
            out.update(cell.global_colors())
        return out

    def colored_rects(self) -> list[tuple[AxisRect, GlobalColor]]:
        out = []
        for key in sorted(self.cells):
            out += self.cells[key].colored_rects()
        return out

    def audit(self) -> ViolationReport | None:
        for cell in self.cells.values():
            report = cell.audit()
            if report is not None:
                return report
        return None
