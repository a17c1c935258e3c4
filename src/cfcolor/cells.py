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

colored_objects(), the one view global_colors() and the oracle read (the
latter as a passing audited_view() hands it over), lists (id, (object,
global color)) per stored object, cell by cell: the stored AxisRect itself.

Snapshots.  Verified replay audits and reads the view after every update,
while an update changes one cell.  So each audit that passes keeps a
snapshot of what it passed: a tree the nodes it walked; a cell its pin, a
copy of objects and the nodes its trees' audits walked.  A partition keeps
a copy of location, per cell the cell's snapshot and view, and one
fingerprint of all its cells: what gc.get_referents lists of each cell,
its objects and colors, its trees and their leaf_by_payload, and the nodes
its audit walked.  That is every field, dict key and value and node slot
the audit and the view read (nodes, trees and cells are slotted for it).
The next partition audit audits the cells a changed location entry names,
as every update's does, and lists the other cells' fingerprints anew in
one call, compared with the kept ones in one list comparison.  Where that
differs, or where get_referents does not list tuple items, dict values and
non-str keys, and slots (probed at import: FINGERPRINTS), it audits every
cell.  An audited cell routes and tests against its pin only its objects
that are new since.  A passing partition audit hands over its view, the
kept views in cell order (audited_view), so a verified step reads each
cell once and pairs objects with colors only for the cells it audited.
Nothing is trusted: a fault planted anywhere, with or without an update since,
differs from the fingerprint, and a failing audit keeps no snapshot, so it
is reported again.  Snapshots sit in attributes that start as None; no
update path reads or writes them.

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

import gc
import math
from itertools import chain, compress
from operator import attrgetter, is_not, itemgetter

from .augtree import LEFT, RIGHT, AugTree, Node, ViolationReport, dirty_candidates
from .geom import DuplicateId, GlobalColor, ObjectId, Pt, RecolorDiff, UnknownId, tuple_new

_objects = attrgetter("objects")
_index = attrgetter("leaf_by_payload")
_view_of = itemgetter(1)   # of a partition snapshot's record of a cell

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
    palette.  colors holds these local colors; diffs and colored_objects()
    carry global_color(local color).
    """

    SELECTORS: tuple[tuple[tuple[str, str], ...], ...] = ()
    # slotted, so gc.get_referents(cell) lists its fields (Partition.audit);
    # a subclass adds none: __slots__ = ()
    __slots__ = ("pin", "tag", "trees", "objects", "colors", "halves", "total_recolorings",
                 "passed")

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.RULES = tuple(compile_selectors(s) for s in cls.SELECTORS)

    def __init__(self, pin: Pt, tag: int = 0) -> None:
        self.pin = pin
        self.tag = tag
        self.trees = tuple(AugTree() for _ in self.SELECTORS)
        self.objects: dict[ObjectId, object] = {}
        self.colors: dict[ObjectId, object] = {}
        # per tree, each object's half of its color; one tree's half is the color
        self.halves: tuple[dict[ObjectId, int], ...] = (self.colors,)
        self.total_recolorings = 0
        # (pin, copy of objects, the nodes its trees' audits walked) of the
        # last passing audit
        self.passed: tuple | None = None

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
            names = dirty_candidates(tree.delete(oid))
            names.discard(oid)
            dirty.append(names)
        diff = self._recolor(dirty)
        diff.removed = (oid, self.global_color(self.colors.pop(oid)))
        for half in self.halves:
            half.pop(oid, None)  # None: a one-tree cell's half was its color
        return diff

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
        return {oid: color for oid, (_, color) in self.colored_objects()}

    def colored_objects(self) -> list[tuple[ObjectId, tuple]]:
        g, colors = self.global_color, self.colors
        return [(oid, (obj, g(colors[oid]))) for oid, obj in self.objects.items()]

    def audit(self) -> ViolationReport | None:
        """Each tree's audit and leaves against objects, then each object
        against the pin.  A passing audit keeps a snapshot in `passed`; the
        next tests against the same pin only objects not in the snapshot's
        copy (objects are frozen and contains is pure)."""
        passed = self.passed
        self.passed = None
        objects = self.objects
        for tree in self.trees:
            report = tree.audit()
            if report is not None:
                return report
            if tree.leaf_by_payload.keys() != objects.keys():
                return ViolationReport(None, "tree leaves out of sync with the cell's objects")
        pin = self.pin
        new = objects if passed is None or passed[0] is not pin else _not_in(objects, passed[1])
        for oid in new:
            if not objects[oid].contains(pin):
                return ViolationReport(None, f"object {oid} does not contain its pin")
        self.passed = (pin, dict(objects),
                       list(chain.from_iterable(tree.passed for tree in self.trees)))
        return None

    def audited_view(self) -> tuple[ViolationReport | None, list | None]:
        """audit() and, when it passes, colored_objects(): a verified step's
        one read of the structure."""
        report = self.audit()
        return report, (self.colored_objects() if report is None else None)


def _not_in(objects: dict, known: dict):
    """The ids whose object is not the one `known` holds for them, in order."""
    return compress(objects, map(is_not, map(known.get, objects), objects.values()))


def lists_every_slot(cls: type) -> bool:
    """Whether gc.get_referents(obj) lists each slot's value of a cls
    instance, as CPython's traversal of a slotted object does (it visits
    each slot, then the type)."""
    probe = cls.__new__(cls)
    for name in cls.__slots__:
        setattr(probe, name, object())
    return {id(getattr(probe, name)) for name in cls.__slots__} <= set(map(id, gc.get_referents(probe)))


def _referents_list_the_state() -> bool:
    """Whether gc.get_referents lists exactly a tuple's items and a dict's
    values and non-str keys, and every slot of a node, a tree and a cell."""
    def lists_exactly(container, items) -> bool:
        got = gc.get_referents(container)
        return len(got) == len(items) and set(map(id, got)) == set(map(id, items))
    a, b, key = object(), object(), 10 ** 30
    return (lists_exactly((a, b, key), (a, b, key)) and lists_exactly({key: a}, (key, a))
            and all(map(lists_every_slot, (Node, AugTree, DirectionalCell))))


# Where this is False, a partition audit audits every cell.
FINGERPRINTS = _referents_list_the_state()


def _fingerprint_args(cell: DirectionalCell, nodes: list) -> tuple:
    """What gc.get_referents lists as a passing cell's fingerprint: a
    marker, the cell, its objects and colors, its trees and their
    leaf_by_payload, and the nodes its audit walked.  A dict or tree
    swapped in since differs from these in the cell's or a tree's fields.
    The marker, an object nothing else holds, opens the fingerprint, so
    two concatenations of fingerprints are equal only where each
    fingerprint is."""
    trees = cell.trees
    return ((object(),), cell, cell.objects, cell.colors, *trees, *map(_index, trees), *nodes)


class _Fingerprints:
    """The fingerprints of the cells a partition audit passed, as one list,
    with the arguments that list them anew, as one list: per key, in key
    order, its cell, its arguments and its fingerprint."""

    __slots__ = ("keys", "cells", "counts", "args", "lengths", "prints")

    def __init__(self) -> None:
        self.keys: list = []
        self.cells: list[DirectionalCell] = []
        self.counts: list[int] = []
        self.args: list = []
        self.lengths: list[int] = []
        self.prints: list = []

    def add(self, key, cell: DirectionalCell) -> None:
        """Append the key's cell, listed as its passing audit left it."""
        args = _fingerprint_args(cell, cell.passed[2])
        fingerprint = gc.get_referents(*args)
        self.keys.append(key)
        self.cells.append(cell)
        self.counts.append(len(args))
        self.args += args
        self.lengths.append(len(fingerprint))
        self.prints += fingerprint

    def drop(self, keys) -> None:
        """Take out the entries of the keys, each held once."""
        for i in sorted(map(self.keys.index, keys), reverse=True):
            for flat, sizes in ((self.args, self.counts), (self.prints, self.lengths)):
                start = sum(sizes[:i])
                del flat[start:start + sizes[i]], sizes[i]
            del self.keys[i], self.cells[i]

    def unchanged(self, cells: dict) -> bool:
        """Whether each key still holds its cell, listed as when it passed."""
        return (list(map(cells.get, self.keys)) == self.cells
                and gc.get_referents(*self.args) == self.prints)


class Partition:
    """Objects routed to DirectionalCells, one cell per routing key.

    A subclass sets CELL and check(obj), which raises if obj may not join
    (no check by default).  cell_key(obj) is the key of the cell obj belongs
    in: by default the lexicographically smallest integer grid point in its
    rectangle, (ceil(x1), ceil(y1)), where route() pins the cell and tags it
    with its grid class (i mod m, j mod m) for m = class_modulus.  A
    subclass that keys cells otherwise sets its own cell_key(obj) and
    route(obj) -> (cell key, pin, tag).  A cell is created on first use, the
    only time route() builds its pin and tag, and dropped when it empties.
    An update's diff is its cell's diff.  The audit checks every held object
    against cell_key; MISROUTED words a miss.
    """

    CELL: type[DirectionalCell]
    class_modulus: int
    MISROUTED = "object {} not in the cell route() gives it"
    # (copy of location, {cell key: (its cell's snapshot, its view)},
    # the cells' _Fingerprints) of the last passing audit
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

    def cell_key(self, obj) -> tuple[int, int]:
        return math.ceil(obj.x1), math.ceil(obj.y1)

    def route(self, obj) -> tuple[object, Pt, int]:
        """(cell key, pin, tag) of obj's cell; a grid cell's pin is its key."""
        i, j = key = self.cell_key(obj)
        m = self.class_modulus
        return key, Pt(float(i), float(j)), (i % m) * m + (j % m)

    # -- verification views -------------------------------------------------

    def global_colors(self) -> dict[ObjectId, GlobalColor]:
        return {oid: color for oid, (_, color) in self.colored_objects()}

    def colored_objects(self) -> list[tuple[ObjectId, tuple]]:
        out = []
        for cell in self.cells.values():
            out += cell.colored_objects()
        return out

    def audited_view(self) -> tuple[ViolationReport | None, list | None]:
        """audit() and, when it passes, the view of the state it passed:
        colored_objects() as a fresh build lists it, joined from the views
        the snapshot keeps per cell, in cell order."""
        report = self.audit()
        if report is not None:
            return report, None
        records = self.passed[1]
        return None, list(chain.from_iterable(map(_view_of, map(records.__getitem__,
                                                                self.cells))))

    def audit(self) -> ViolationReport | None:
        """Every cell's audit, non-empty, its objects located at its key and
        routed to it, and as many held as located.

        A passing audit keeps a copy of location and a record per key.  A
        cell found unchanged since (see _stale) that no changed location
        entry names passed all of this and is not audited again; the others
        are audited and their objects not in the snapshot's copy at that key
        routed.  An unaudited cell still holds every object it held, and
        location still names its key for each.  The verdict is the full
        audit's.
        """
        location, cells = self.location, self.cells
        before, records, prints = self.passed or ({}, {}, _Fingerprints())
        self.passed = None
        # the keys a location entry changed from or to since
        touched = {key for _, key in location.items() ^ before.items()}
        stale, prints = self._stale(prints, touched)
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
                rec = records.get(key)
                # objects the snapshot holds at this key were routed to it
                new = objects if rec is None else _not_in(objects, rec[0][1])
                for oid in new:
                    if cell_key(objects[oid]) != key:
                        misrouted = oid
                        break
        # each held object located at its cell, whose key is distinct, and as
        # many held as located: every object held by one cell, the one its
        # location names
        if not located or sum(map(len, map(_objects, cells.values()))) != len(location):
            return ViolationReport(None, "cells out of step with the location map")
        if misrouted is not None:
            return ViolationReport(None, self.MISROUTED.format(misrouted))
        # a dropped cell's objects left location or moved: its key is touched
        for key in touched - cells.keys():
            records.pop(key, None)
        for key in stale:
            cell = cells[key]
            records[key] = (cell.passed, cell.colored_objects())
            prints.add(key, cell)
        self.passed = (dict(location), records, prints)
        return None

    def _stale(self, prints: _Fingerprints, touched: set) -> tuple[list, _Fingerprints]:
        """The keys, in cell order, of the cells to audit, and the
        fingerprints of the others.

        The cells that a changed location entry names, as every update's
        does, are audited.  The others are unchanged when each key still
        holds its cell and one gc.get_referents call lists their fingerprint
        arguments as when they passed: every field, dict entry and slot
        their audits and views read.  Otherwise (a cell dropped, swapped
        or changed in place, or FINGERPRINTS False) every cell is audited.
        """
        cells = self.cells
        prints.drop(touched.intersection(prints.keys))
        stale = list(filter(touched.__contains__, cells))
        if FINGERPRINTS and len(stale) + len(prints.keys) == len(cells) and prints.unchanged(cells):
            return stale, prints
        return list(cells), _Fingerprints()
