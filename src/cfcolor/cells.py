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

colored_boxes(), the one view the oracle and global_colors() read, lists
(id, (x1, x2, y1, y2, global color)) per stored object, cell by cell.

Snapshots.  Verified replay audits and reads the view after every update,
while an update changes one cell.  So each audit that passes keeps a
snapshot of what it passed: a tree its root, size, a copy of
leaf_by_payload, the nodes it walked and their slot values (augtree); a
cell those of its trees plus its pin, a copy of objects and its trees; a
partition a copy of location and each cell with its snapshot.  The next
audit compares the state with the snapshot by C-level equality and
re-checks in Python only what differs: a partition audits only the cells
whose state differs and routes only their objects that are new since, and
a cell tests only those objects against its pin.  Nothing is trusted: a
fault planted anywhere, with or without an update since, differs from the
snapshot, and a failing audit keeps none, so it is reported again.  A
cell's box view is likewise reused while tag, objects and colors equal
copies of those it was built from.  Snapshots sit in attributes whose
class-level default is None; no update path reads or writes them.

The update path.  A cell's keys(obj) and its global colors are KeyOrder and
GlobalColor values built as tuple_new(KeyOrder, (coordinate, id)): the same
NamedTuples (callers read .tiebreak), but made by tuple.__new__ in C rather
than by the NamedTuple's Python-level constructor.  An update takes the
dirty_candidates of each tree's log, reading summaries' ids by index, and
recomputes tree i's half of a color only for the ids tree i's log names:
the rule reads nothing else, so no other half can change.  halves keeps
each tree's half per object, and join(oid) makes the color from them (a
one-tree cell's colors dict is its one halves dict).  Only ids with a half
that changed are joined anew, which are the recolored ones and a new one.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import attrgetter, is_not

from .augtree import (LEFT, RIGHT, AugTree, ViolationReport, dirty_candidates, slot_values,
                      tree_state)
from .geom import DuplicateId, GlobalColor, ObjectId, Pt, RecolorDiff, UnknownId, tuple_new

_objects = attrgetter("objects")
_cell_state = attrgetter("pin", "objects", "trees")

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
        hits = ((child.ymax[1] == oid) << 1) | (child.ymin[1] == oid)
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
    cell, colors by (east, west) pairs of halves.  The tag names the cell's
    palette.  colors and color_of hold these local colors; diffs and
    colored_boxes() carry global_color(local color).
    """

    SELECTORS: tuple[tuple[tuple[str, str], ...], ...] = ()
    # ((pin, copy of objects, trees), each tree's state, the trees' nodes
    # walked, their slot_values) of the last passing audit, from the
    # trees' own snapshots
    passed: tuple | None = None
    # (tag, copy of objects, copy of colors, the list) of the last box view built
    _boxes: tuple | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.RULES = tuple(compile_selectors(s) for s in cls.SELECTORS)

    def __init__(self, pin: Pt, tag: int) -> None:
        self.pin = pin
        self.tag = tag
        self.trees = tuple(AugTree() for _ in self.SELECTORS)
        self.objects: dict[ObjectId, object] = {}
        self.colors: dict[ObjectId, object] = {}
        # per tree, each object's half of its color; one tree's half is the color
        self.halves: tuple[dict[ObjectId, int], ...] = (self.colors,)
        self.total_recolorings = 0

    def __len__(self) -> int:
        return len(self.objects)

    def check(self, obj) -> None:
        """Raise if obj may not join this cell."""
        if not obj.contains(self.pin):
            raise PinNotContained(f"{obj} does not contain pin {self.pin}")

    def insert(self, obj) -> RecolorDiff:
        self.check(obj)
        oid = obj.id
        if oid in self.objects:
            raise DuplicateId(oid)
        dirty = []
        for tree, (key, ymax, ymin) in zip(self.trees, self.keys(obj)):
            dirty.append(dirty_candidates(tree.insert(key, oid, ymax, ymin)))
        self.objects[oid] = obj
        return self._recolor(dirty)

    def delete(self, oid: ObjectId) -> RecolorDiff:
        if self.objects.pop(oid, None) is None:
            raise UnknownId(oid)
        dirty = []
        for tree in self.trees:
            names = dirty_candidates(tree.delete(tree.leaf_by_payload[oid].key))
            names.discard(oid)
            dirty.append(names)
        diff = self._recolor(dirty)
        diff.removed = (oid, self.global_color(self.colors.pop(oid)))
        for half in self.halves:
            half.pop(oid, None)  # None: a one-tree cell's half was its color
        return diff

    def color_of(self, oid: ObjectId):
        """The stored color of a live object."""
        if oid not in self.objects:
            raise UnknownId(oid)
        return self.colors[oid]

    def _recolor(self, dirty: list[set[ObjectId]]) -> RecolorDiff:
        """Recompute tree i's half of the color of each id dirty[i] names;
        the diff of the colors with a half that changed, joined anew, against
        the stored ones.  A new object has no stored color or half, and
        every tree's log names it."""
        colors = self.colors
        moved = {}  # id with a changed half -> its stored color
        for names, tree, half, (k, left, right) in zip(dirty, self.trees, self.halves,
                                                       self.RULES):
            leaf = tree.leaf_by_payload
            for oid in names:
                c = tree_color(leaf[oid], k, left, right)
                if half.get(oid) != c:
                    if oid not in moved:
                        moved[oid] = colors.get(oid)
                    half[oid] = c
        diff = RecolorDiff()
        changed = diff.changed
        join = self.join
        g = self.global_color
        for oid in sorted(moved):
            old = moved[oid]
            new = colors[oid] = join(oid)
            if old is None:
                diff.assigned = (oid, g(new))
            else:
                changed[oid] = (g(old), g(new))
        self.total_recolorings += len(changed)
        return diff

    def join(self, oid: ObjectId):
        """oid's color from its halves: one tree's half is the color."""
        return self.colors[oid]

    # -- verification views -------------------------------------------------

    def global_color(self, c) -> GlobalColor:
        return tuple_new(GlobalColor, (self.tag, c))

    def global_colors(self) -> dict[ObjectId, GlobalColor]:
        return {oid: box[4] for oid, box in self.colored_boxes()}

    def colored_boxes(self) -> list[tuple[ObjectId, tuple]]:
        """The box view, copied from the last one built while tag, objects
        and colors equal the copies it was built from."""
        memo = self._boxes
        if memo is None or memo[:3] != (self.tag, self.objects, self.colors):
            memo = self._boxes = (self.tag, dict(self.objects), dict(self.colors),
                                  self._build_boxes())
        return list(memo[3])

    def _build_boxes(self) -> list[tuple[ObjectId, tuple]]:
        g = self.global_color
        return [(oid, (r.x1, r.x2, r.y1, r.y2, g(self.colors[oid])))
                for oid, r in self.objects.items()]

    def audit(self) -> ViolationReport | None:
        """Each tree's audit and leaves against objects, then each object
        against the pin.  A passing audit keeps a snapshot in `passed`; while
        unchanged_since(passed) the audit passes as it is, and otherwise only
        objects not in the snapshot's copy are tested against the same pin
        (objects are frozen and contains is pure)."""
        passed = self.passed
        if passed is not None and self.unchanged_since(passed):
            return None
        self.passed = None
        objects = self.objects
        for tree in self.trees:
            report = tree.audit()
            if report is not None:
                return report
            if tree.leaf_by_payload.keys() != objects.keys():
                return ViolationReport(None, "tree leaves out of sync with the cell's objects")
        pin = self.pin
        new = objects
        if passed is not None:
            old_pin, old_objects, _ = passed[0]
            if old_pin is pin:
                new = _not_in(objects, old_objects)
        for oid in new:
            if not objects[oid].contains(pin):
                return ViolationReport(None, f"object {oid} does not contain its pin")
        trees = self.trees
        states, nodes, values = zip(*[tree.passed for tree in trees])
        self.passed = ((pin, dict(objects), trees), states,
                       list(chain.from_iterable(nodes)), list(chain.from_iterable(values)))
        return None

    def unchanged_since(self, passed: tuple) -> bool:
        """Whether pin, objects, trees and every tree are as in the snapshot
        (each tree's unchanged_since, for all of them at once)."""
        state, tree_states, nodes, values = passed
        return (_cell_state(self) == state and tuple(map(tree_state, self.trees)) == tree_states
                and slot_values(*nodes) == values)


def _not_in(objects: dict, known: dict):
    """The ids whose object is not the one `known` holds for them, in order."""
    return compress(objects, map(is_not, map(known.get, objects), objects.values()))


class Partition:
    """Objects routed to DirectionalCells, one cell per routing key.

    A subclass sets CELL, cell_key(obj), the key of the cell obj belongs
    in, check(obj), which raises if obj may not join (no check by default),
    and either class_tag(i, j) for cells keyed and pinned at integer grid
    points or its own route(obj) -> (cell key, pin, tag).  A cell is created
    on first use, the only time route() builds its pin and tag, and dropped
    when it empties.  An update's diff is its cell's diff.  The audit checks
    every held object against cell_key; MISROUTED words a miss.
    """

    CELL: type[DirectionalCell]
    MISROUTED = "object {} not in the cell route() gives it"
    # (copy of location, {cell key: (cell, its snapshot)}) of the last passing audit
    passed: tuple | None = None

    def __init__(self) -> None:
        self.cells: dict[object, DirectionalCell] = {}
        self.location: dict[ObjectId, object] = {}
        self.total_recolorings = 0

    def __len__(self) -> int:
        return len(self.location)

    def insert(self, obj) -> RecolorDiff:
        if obj.id in self.location:
            raise DuplicateId(obj.id)
        self.check(obj)
        key = self.cell_key(obj)
        cell = self.cells.get(key)
        if cell is None:
            _, pin, tag = self.route(obj)
            cell = self.CELL(pin, tag)
        diff = cell.insert(obj)
        self.cells[key] = cell
        self.location[obj.id] = key
        self.total_recolorings += diff.recolorings
        return diff

    def delete(self, oid: ObjectId) -> RecolorDiff:
        key = self.location.get(oid)
        if key is None:
            raise UnknownId(oid)
        cell = self.cells[key]
        diff = cell.delete(oid)
        del self.location[oid]
        if len(cell) == 0:
            del self.cells[key]
        self.total_recolorings += diff.recolorings
        return diff

    def check(self, obj) -> None:
        """Raise if obj may not join the structure."""

    def route(self, obj) -> tuple[object, Pt, int]:
        """(cell key, pin, tag) of obj's cell; a grid cell's pin is its key."""
        i, j = key = self.cell_key(obj)
        return key, Pt(float(i), float(j)), self.class_tag(i, j)

    # -- verification views -------------------------------------------------

    def global_colors(self) -> dict[ObjectId, GlobalColor]:
        return {oid: box[4] for oid, box in self.colored_boxes()}

    def colored_boxes(self) -> list[tuple[ObjectId, tuple]]:
        out = []
        for cell in self.cells.values():
            out += cell.colored_boxes()
        return out

    def audit(self) -> ViolationReport | None:
        """Every cell's audit, non-empty, its objects located at its key and
        routed to it, and as many held as located.

        A passing audit keeps a copy of location and, per key, the cell and
        its snapshot.  A cell that is the same object and unchanged_since its
        snapshot passed all of this and is not audited again; the others are
        audited and their objects not in the snapshot's copy at that key
        routed.  An unchanged cell still holds every object it held, so it is
        out of step with location exactly when a location entry that changed
        since named it.  The verdict is the full audit's.
        """
        location, cells = self.location, self.cells
        before, snapshots = self.passed or ({}, {})
        self.passed = None
        stale = [key for key, cell in cells.items()
                 if (rec := snapshots.get(key)) is None or rec[0] is not cell
                 or not cell.unchanged_since(rec[1])]
        cell_key = self.cell_key
        located = True
        misrouted = None
        for key in stale:
            cell = cells[key]
            report = cell.audit()
            if report is not None:
                return report
            objects = cell.objects
            if not objects:
                return ViolationReport(None, f"empty cell {key} left in the partition")
            if not dict.fromkeys(objects, key).items() <= location.items():
                located = False
            if misrouted is None:
                rec = snapshots.get(key)
                # objects the snapshot holds at this key were routed to it
                new = objects if rec is None else _not_in(objects, rec[1][0][1])
                for oid in new:
                    if cell_key(objects[oid]) != key:
                        misrouted = oid
                        break
        kept = cells.keys() - stale
        if any(before.get(oid) in kept for oid, _ in location.items() ^ before.items()):
            located = False
        # each held object located at its cell, whose key is distinct, and as
        # many held as located: every object held by one cell, the one its
        # location names
        if not located or sum(map(len, map(_objects, cells.values()))) != len(location):
            return ViolationReport(None, "cells out of step with the location map")
        if misrouted is not None:
            return ViolationReport(None, self.MISROUTED.format(misrouted))
        for key in snapshots.keys() - cells.keys():
            del snapshots[key]
        for key in stale:
            snapshots[key] = (cells[key], cells[key].passed)
        self.passed = (dict(location), snapshots)
        return None
