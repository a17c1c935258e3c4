"""Leaf-oriented red-black tree with height and min/max summaries.

All objects live in leaves; internal nodes carry a routing split (key <=
split goes left) and exactly two children.  Every node is augmented with

  * height   -- 0 at leaves, max(children)+1 at internal nodes,
  * ymax     -- the KeyOrder maximizing the caller-supplied max-value,
  * ymin     -- the KeyOrder minimizing the caller-supplied min-value,

where the tiebreak of ymax/ymin is the owning object's id.  Updates return
a DirtyLog covering every node whose augmentation changed, which is what
the coloring layers consume to recompute affected colors.

The rebalancing is the classic red-black scheme where leaves play the role
of (data-carrying) black nil nodes: an insertion splices a red internal
node above an existing leaf, a deletion removes a leaf together with its
parent.  Rotation counts are O(1) per update, so the dirty log stays
O(log n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .geom import KeyOrder, ObjectId

RED = True
BLACK = False


class DuplicateKey(ValueError):
    pass


class KeyNotFound(KeyError):
    pass


class Node:
    __slots__ = ("key", "payload", "ymax", "ymin", "height", "color",
                 "left", "right", "parent")

    def __init__(self, key: KeyOrder, payload: ObjectId | None,
                 ymax: KeyOrder, ymin: KeyOrder, color: bool) -> None:
        self.key = key              # leaf: object key; internal: routing split
        self.payload = payload      # ObjectId at leaves, None at internal nodes
        self.ymax = ymax
        self.ymin = ymin
        self.height = 0
        self.color = color
        self.left: Node | None = None
        self.right: Node | None = None
        self.parent: Node | None = None

    @property
    def is_leaf(self) -> bool:
        return self.payload is not None

    def __repr__(self) -> str:  # debugging aid only
        kind = "leaf" if self.is_leaf else "int"
        return f"<{kind} key={self.key.coordinate}/{self.key.tiebreak} h={self.height}>"


@dataclass
class DirtyEntry:
    """One touched node with its pre-update augmentation."""

    node: Node
    old_height: int | None
    old_ymax: KeyOrder | None
    old_ymin: KeyOrder | None
    created: bool = False
    removed: bool = False


class DirtyLog:
    """Superset of the nodes whose (height, ymax, ymin) changed in one update."""

    def __init__(self) -> None:
        self.entries: list[DirtyEntry] = []
        self._seen: set[int] = set()

    def touch(self, node: Node, created: bool = False) -> None:
        if id(node) in self._seen:
            return
        self._seen.add(id(node))
        if created:
            self.entries.append(DirtyEntry(node, None, None, None, created=True))
        else:
            self.entries.append(DirtyEntry(node, node.height, node.ymax, node.ymin))

    def remove(self, node: Node) -> None:
        # removal dominates: keep old values but mark dead
        if id(node) in self._seen:
            for e in self.entries:
                if e.node is node:
                    e.removed = True
                    return
        self._seen.add(id(node))
        self.entries.append(
            DirtyEntry(node, node.height, node.ymax, node.ymin, removed=True))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[DirtyEntry]:
        return iter(self.entries)


@dataclass
class ViolationReport:
    node: Node | None
    reason: str


class AugTree:
    """Ordered container of (key, payload, ymax, ymin) with dirty-node logs."""

    def __init__(self) -> None:
        self.root: Node | None = None
        self.size = 0
        self.leaf_by_payload: dict[ObjectId, Node] = {}

    # -- queries ---------------------------------------------------------

    def find_leaf(self, key: KeyOrder) -> Node | None:
        v = self.root
        if v is None:
            return None
        while not v.is_leaf:
            v = v.left if key <= v.key else v.right
        return v if v.key == key else None

    def leaves(self) -> Iterator[Node]:
        def walk(v: Node) -> Iterator[Node]:
            if v.is_leaf:
                yield v
            else:
                yield from walk(v.left)
                yield from walk(v.right)
        if self.root is not None:
            yield from walk(self.root)

    def nodes(self) -> Iterator[Node]:
        def walk(v: Node) -> Iterator[Node]:
            yield v
            if not v.is_leaf:
                yield from walk(v.left)
                yield from walk(v.right)
        if self.root is not None:
            yield from walk(self.root)

    # -- augmentation upkeep ----------------------------------------------

    def _refresh(self, v: Node, log: DirtyLog) -> bool:
        """Recompute v's augmentation from its children; True if it changed."""
        h = max(v.left.height, v.right.height) + 1
        ymax = max(v.left.ymax, v.right.ymax)
        ymin = min(v.left.ymin, v.right.ymin)
        if h != v.height or ymax != v.ymax or ymin != v.ymin:
            log.touch(v)
            v.height, v.ymax, v.ymin = h, ymax, ymin
            return True
        return False

    def _refresh_to_root(self, v: Node | None, log: DirtyLog) -> None:
        # v is internal or None.  An ancestor depends only on its children,
        # so above the first node that did not change nothing changes either.
        while v is not None and self._refresh(v, log):
            v = v.parent

    # -- rotations ---------------------------------------------------------

    def _replace_child(self, parent: Node | None, old: Node, new: Node) -> None:
        new.parent = parent
        if parent is None:
            self.root = new
        elif parent.left is old:
            parent.left = new
        else:
            parent.right = new

    def _rotate_left(self, x: Node, log: DirtyLog) -> None:
        y = x.right
        log.touch(x)
        log.touch(y)
        x.right = y.left
        y.left.parent = x
        self._replace_child(x.parent, x, y)
        y.left = x
        x.parent = y
        self._refresh(x, log)
        self._refresh(y, log)
        self._refresh_to_root(y.parent, log)

    def _rotate_right(self, x: Node, log: DirtyLog) -> None:
        y = x.left
        log.touch(x)
        log.touch(y)
        x.left = y.right
        y.right.parent = x
        self._replace_child(x.parent, x, y)
        y.right = x
        x.parent = y
        self._refresh(x, log)
        self._refresh(y, log)
        self._refresh_to_root(y.parent, log)

    # -- insertion ----------------------------------------------------------

    def insert(self, key: KeyOrder, payload: ObjectId,
               ymax: KeyOrder, ymin: KeyOrder) -> DirtyLog:
        log = DirtyLog()
        leaf = Node(key, payload, ymax, ymin, BLACK)
        log.touch(leaf, created=True)
        self.leaf_by_payload[payload] = leaf

        if self.root is None:
            self.root = leaf
            self.size = 1
            return log

        v = self.root
        while not v.is_leaf:
            v = v.left if key <= v.key else v.right
        if v.key == key:
            del self.leaf_by_payload[payload]
            raise DuplicateKey(f"key already present: {key}")

        # splice a red internal node above the reached leaf
        if key <= v.key:
            left, right = leaf, v
        else:
            left, right = v, leaf
        inner = Node(left.key, None, key, key, RED)  # split = max key of left subtree
        log.touch(inner, created=True)
        self._replace_child(v.parent, v, inner)
        inner.left = left
        inner.right = right
        left.parent = inner
        right.parent = inner
        self._refresh(inner, log)
        self._refresh_to_root(inner.parent, log)
        self.size += 1
        self._insert_fixup(inner, log)
        return log

    def _insert_fixup(self, z: Node, log: DirtyLog) -> None:
        while z.parent is not None and z.parent.color is RED:
            parent = z.parent
            grand = parent.parent  # red parent is never the root
            if parent is grand.left:
                uncle = grand.right
                if uncle.color is RED:
                    parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    z = grand
                else:
                    if z is parent.right:
                        z = parent
                        self._rotate_left(z, log)
                    z.parent.color = BLACK
                    grand.color = RED
                    self._rotate_right(grand, log)
            else:
                uncle = grand.left
                if uncle.color is RED:
                    parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    z = grand
                else:
                    if z is parent.left:
                        z = parent
                        self._rotate_right(z, log)
                    z.parent.color = BLACK
                    grand.color = RED
                    self._rotate_left(grand, log)
        self.root.color = BLACK

    # -- deletion -----------------------------------------------------------

    def delete(self, key: KeyOrder) -> DirtyLog:
        leaf = self.find_leaf(key)
        if leaf is None:
            raise KeyNotFound(f"key not present: {key}")
        log = DirtyLog()
        log.remove(leaf)
        del self.leaf_by_payload[leaf.payload]
        self.size -= 1

        parent = leaf.parent
        if parent is None:
            self.root = None
            return log

        sibling = parent.left if parent.right is leaf else parent.right
        log.remove(parent)
        # the sibling's parent edge moves up: summary references that used to
        # read the removed parent now read the sibling, so it must be logged
        log.touch(sibling)
        grand = parent.parent
        self._replace_child(grand, parent, sibling)
        self._refresh_to_root(grand, log)

        if parent.color is BLACK:
            if sibling.color is RED:
                sibling.color = BLACK
            else:
                self._delete_fixup(sibling, log)
        return log

    def _delete_fixup(self, x: Node, log: DirtyLog) -> None:
        # x carries an extra black; its sibling is internal whenever the loop runs
        while x.parent is not None and x.color is BLACK:
            parent = x.parent
            if x is parent.left:
                w = parent.right
                if w.color is RED:
                    w.color = BLACK
                    parent.color = RED
                    self._rotate_left(parent, log)
                    w = parent.right
                if w.left.color is BLACK and w.right.color is BLACK:
                    w.color = RED
                    x = parent
                else:
                    if w.right.color is BLACK:
                        w.left.color = BLACK
                        w.color = RED
                        self._rotate_right(w, log)
                        w = parent.right
                    w.color = parent.color
                    parent.color = BLACK
                    w.right.color = BLACK
                    self._rotate_left(parent, log)
                    x = self.root
            else:
                w = parent.left
                if w.color is RED:
                    w.color = BLACK
                    parent.color = RED
                    self._rotate_right(parent, log)
                    w = parent.left
                if w.right.color is BLACK and w.left.color is BLACK:
                    w.color = RED
                    x = parent
                else:
                    if w.left.color is BLACK:
                        w.right.color = BLACK
                        w.color = RED
                        self._rotate_left(w, log)
                        w = parent.left
                    w.color = parent.color
                    parent.color = BLACK
                    w.left.color = BLACK
                    self._rotate_right(parent, log)
                    x = self.root
        x.color = BLACK

    # -- auditing -----------------------------------------------------------

    def audit(self) -> ViolationReport | None:
        """Full traversal check of every structural and augmentation invariant."""
        if self.root is None:
            return None if self.size == 0 else ViolationReport(None, "size mismatch")
        if self.root.color is RED:
            return ViolationReport(self.root, "root is red")

        leaves_seen: list[Node] = []

        def check(v: Node) -> tuple[int, KeyOrder, KeyOrder] | ViolationReport:
            """Returns (black-height, min key, max key) or the first violation."""
            if v.is_leaf:
                leaves_seen.append(v)
                if v.height != 0:
                    return ViolationReport(v, f"leaf height {v.height} != 0")
                if v.color is RED:
                    return ViolationReport(v, "red leaf")
                return 1, v.key, v.key
            if v.left is None or v.right is None:
                return ViolationReport(v, "internal node missing a child")
            if v.left.parent is not v or v.right.parent is not v:
                return ViolationReport(v, "broken parent link")
            if v.color is RED and (v.left.color is RED or v.right.color is RED):
                return ViolationReport(v, "red node with red child")
            lres = check(v.left)
            if isinstance(lres, ViolationReport):
                return lres
            rres = check(v.right)
            if isinstance(rres, ViolationReport):
                return rres
            lbh, lmin, lmax = lres
            rbh, rmin, rmax = rres
            if lbh != rbh:
                return ViolationReport(v, f"black-height mismatch {lbh} != {rbh}")
            if not (lmax <= v.key < rmin):
                return ViolationReport(v, "routing split out of order")
            if v.height != max(v.left.height, v.right.height) + 1:
                return ViolationReport(v, f"stale height {v.height}")
            if v.ymax != max(v.left.ymax, v.right.ymax):
                return ViolationReport(v, "stale ymax summary")
            if v.ymin != min(v.left.ymin, v.right.ymin):
                return ViolationReport(v, "stale ymin summary")
            return lbh + (0 if v.color is RED else 1), lmin, rmax

        res = check(self.root)
        if isinstance(res, ViolationReport):
            return res
        if len(leaves_seen) != self.size:
            return ViolationReport(None, f"size {self.size} != {len(leaves_seen)} leaves")
        for a, b in zip(leaves_seen, leaves_seen[1:]):
            if not a.key < b.key:
                return ViolationReport(b, "in-order keys not strictly increasing")
        for oid, leaf in self.leaf_by_payload.items():
            if leaf.payload != oid:
                return ViolationReport(leaf, "payload index out of sync")
        return None


def dirty_candidates(log: DirtyLog) -> set[ObjectId]:
    """Objects whose color may have changed, derived from a dirty log.

    Overapproximates: every object referenced by a touched node before or
    after the update, through its own summaries, its children's summaries,
    or its payload.  Summary references through a node's children are what
    the coloring rules read, so a height change at a touched node is
    covered by including its current child summaries.
    """
    out: set[ObjectId] = set()
    for e in log:
        if e.old_ymax is not None:
            out.add(e.old_ymax.tiebreak)
        if e.old_ymin is not None:
            out.add(e.old_ymin.tiebreak)
        node = e.node
        if node.is_leaf:
            out.add(node.payload)
            continue
        if e.removed:
            continue  # child links may be stale; old summaries already added
        out.add(node.ymax.tiebreak)
        out.add(node.ymin.tiebreak)
        for child in (node.left, node.right):
            out.add(child.ymax.tiebreak)
            out.add(child.ymin.tiebreak)
    return out
