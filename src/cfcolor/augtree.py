"""Leaf-oriented red-black tree with height and min/max summaries.

All objects live in leaves; internal nodes carry a routing split (key <=
split goes left) and exactly two children.  Every node is augmented with

  * height   -- 0 at leaves, max(children)+1 at internal nodes,
  * ymax     -- the KeyOrder maximizing the caller-supplied max-value,
  * ymin     -- the KeyOrder minimizing the caller-supplied min-value,

where the tiebreak of ymax/ymin is the owning object's id.  Updates return
a DirtyLog covering every node whose augmentation changed, which is what
the coloring layers consume to recompute affected colors: a dict from each
node to its old (ymax, ymin) pair, or None when created, and a set of the
removed nodes, so touching or removing a node is O(1) and builds nothing
but that pair.  dirty_candidates turns a log into object ids in one pass.

The rebalancing is the classic red-black scheme where leaves play the role
of (data-carrying) black nil nodes: an insertion splices a red internal
node above an existing leaf, a deletion removes a leaf together with its
parent.  Rotation counts are O(1) per update, so the dirty log stays
O(log n).  Each rotation and fixup case is written once: the code names
sides by the strings LEFT and RIGHT, and a mirrored case is the same code
with `near` (the side of the child it starts from) and `far` swapped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import KeyOrder, ObjectId

RED = True
BLACK = False
LEFT, RIGHT = "left", "right"


class DuplicateKey(ValueError):
    pass


class KeyNotFound(KeyError):
    pass


class Node:
    # slotted, so gc.get_referents(node) lists its fields (cells.py)
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


class DirtyLog:
    """Superset of the nodes whose (height, ymax, ymin) changed in one update.

    `old` maps each node, in first-touch order (a Node hashes by identity),
    to its (ymax, ymin) at first touch, or None when the update created it;
    `removed` holds the nodes the update took out.  A later touch is a no-op.
    """

    __slots__ = ("old", "removed")

    def __init__(self) -> None:
        self.old: dict[Node, tuple[KeyOrder, KeyOrder] | None] = {}
        self.removed: set[Node] = set()

    def touch(self, node: Node, created: bool = False) -> None:
        old = self.old
        if node not in old:
            old[node] = None if created else (node.ymax, node.ymin)

    def remove(self, node: Node) -> None:
        self.touch(node)
        self.removed.add(node)

    def __len__(self) -> int:
        return len(self.old)


@dataclass
class ViolationReport:
    node: Node | None
    reason: str


class AugTree:
    """Ordered container of (key, payload, ymax, ymin) with dirty-node logs.

    Slotted, so gc.get_referents(tree) lists its fields (cells.py)."""

    __slots__ = ("root", "size", "leaf_by_payload", "passed")

    def __init__(self) -> None:
        self.root: Node | None = None
        self.size = 0
        self.leaf_by_payload: dict[ObjectId, Node] = {}
        # the nodes the last passing audit walked
        self.passed: list[Node] | None = None

    # -- queries ---------------------------------------------------------

    def find_leaf(self, key: KeyOrder) -> Node | None:
        v = self.root
        if v is None:
            return None
        while v.payload is None:
            v = v.left if key <= v.key else v.right
        return v if v.key == key else None

    # -- augmentation upkeep ----------------------------------------------

    def _refresh(self, v: Node, log: DirtyLog) -> bool:
        """Recompute v's augmentation from its children; True if it changed."""
        left, right = v.left, v.right
        h = (right.height if right.height > left.height else left.height) + 1
        ymax = right.ymax if right.ymax > left.ymax else left.ymax
        ymin = right.ymin if right.ymin < left.ymin else left.ymin
        if h != v.height or ymax != v.ymax or ymin != v.ymin:
            old = log.old  # log.touch(v), inlined on the hottest path
            if v not in old:
                old[v] = (v.ymax, v.ymin)
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

    def _rotate(self, x: Node, up: str, log: DirtyLog) -> None:
        """Lift x's child on side `up` into x's place; x becomes that
        child's child on the other side."""
        down = LEFT if up == RIGHT else RIGHT
        y = getattr(x, up)
        log.touch(x)
        log.touch(y)
        inner = getattr(y, down)
        setattr(x, up, inner)
        inner.parent = x
        self._replace_child(x.parent, x, y)
        setattr(y, down, x)
        x.parent = y
        self._refresh(x, log)
        self._refresh(y, log)
        self._refresh_to_root(y.parent, log)

    # -- insertion ----------------------------------------------------------

    def insert(self, key: KeyOrder, payload: ObjectId,
               ymax: KeyOrder, ymin: KeyOrder) -> DirtyLog:
        # both checks precede any change, so a refused insert changes nothing
        if payload in self.leaf_by_payload:
            raise DuplicateKey(f"payload already present: {payload}")
        v = self.root
        if v is not None:
            while v.payload is None:
                v = v.left if key <= v.key else v.right
            if v.key == key:
                raise DuplicateKey(f"key already present: {key}")
        log = DirtyLog()
        leaf = Node(key, payload, ymax, ymin, BLACK)
        log.touch(leaf, created=True)
        self.leaf_by_payload[payload] = leaf
        self.size += 1
        if v is None:
            self.root = leaf
            return log

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
        self._insert_fixup(inner, log)
        return log

    def _insert_fixup(self, z: Node, log: DirtyLog) -> None:
        while z.parent is not None and z.parent.color is RED:
            parent = z.parent
            grand = parent.parent  # red parent is never the root
            uncle = grand.right if parent is grand.left else grand.left
            if uncle.color is RED:
                parent.color = BLACK
                uncle.color = BLACK
                grand.color = RED
                z = grand
            else:
                near, far = (LEFT, RIGHT) if parent is grand.left else (RIGHT, LEFT)
                if z is getattr(parent, far):
                    z = parent
                    self._rotate(z, far, log)
                z.parent.color = BLACK
                grand.color = RED
                self._rotate(grand, near, log)
        self.root.color = BLACK

    # -- deletion -----------------------------------------------------------

    def delete(self, key: KeyOrder, leaf: Node | None = None) -> DirtyLog:
        """Remove the leaf holding key.  A caller that holds that leaf may
        pass it: when it holds key and the payload index holds it, the walk
        down from the root is skipped."""
        if leaf is None or leaf.key != key or self.leaf_by_payload.get(leaf.payload) is not leaf:
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
            near, far = (LEFT, RIGHT) if x is parent.left else (RIGHT, LEFT)
            w = getattr(parent, far)
            if w.color is RED:
                w.color = BLACK
                parent.color = RED
                self._rotate(parent, far, log)
                w = getattr(parent, far)
            if w.left.color is BLACK and w.right.color is BLACK:
                w.color = RED
                x = parent
            else:
                if getattr(w, far).color is BLACK:
                    getattr(w, near).color = BLACK
                    w.color = RED
                    self._rotate(w, near, log)
                    w = getattr(parent, far)
                w.color = parent.color
                parent.color = BLACK
                getattr(w, far).color = BLACK
                self._rotate(parent, far, log)
                x = self.root
        x.color = BLACK

    # -- auditing -----------------------------------------------------------

    def audit(self) -> ViolationReport | None:
        """Full check of every structural and augmentation invariant.  A
        passing audit keeps the nodes it walked in `passed`."""
        self.passed = None
        nodes: list[Node] = []
        report = self._walk(nodes)
        if report is None:
            self.passed = nodes
        return report

    def _walk(self, nodes: list[Node]) -> ViolationReport | None:
        """The audit's walk; on a pass `nodes` holds every node, preorder."""
        root = self.root
        if root is None:
            return None if self.size == 0 else ViolationReport(None, "size mismatch")
        if root.color is RED:
            return ViolationReport(root, "root is red")
        # a lone black leaf passes every check below exactly when this holds
        if (root.payload is not None and root.height == 0 and self.size == 1
                and len(self.leaf_by_payload) == 1
                and self.leaf_by_payload.get(root.payload) is root):
            nodes.append(root)
            return None
        leaves: list[Node] = []
        try:
            _audit_walk(root, nodes, leaves)
        except _Violation as exc:
            return exc.args[0]
        if len(leaves) != self.size:
            return ViolationReport(None, f"size {self.size} != {len(leaves)} leaves")
        for a, b in zip(leaves, leaves[1:]):
            if not a.key < b.key:
                return ViolationReport(b, "in-order keys not strictly increasing")
        index = self.leaf_by_payload
        if len(index) != len(leaves):
            return ViolationReport(None, f"payload index {len(index)} != {len(leaves)} leaves")
        for leaf in leaves:
            if index.get(leaf.payload) is not leaf:
                return ViolationReport(leaf, "payload index out of sync")
        return None


class _Violation(Exception):
    """Carries an audit walk's first ViolationReport up the recursion."""


def _audit_walk(v: Node, nodes: list[Node], leaves: list[Node]) -> tuple[int, KeyOrder, KeyOrder]:
    """(black-height, min key, max key) of v's subtree, its nodes appended
    preorder and its leaves in order."""
    nodes.append(v)
    if v.payload is not None:
        leaves.append(v)
        if v.height != 0:
            raise _Violation(ViolationReport(v, f"leaf height {v.height} != 0"))
        if v.color is RED:
            raise _Violation(ViolationReport(v, "red leaf"))
        return 1, v.key, v.key
    left, right = v.left, v.right
    if left is None or right is None:
        raise _Violation(ViolationReport(v, "internal node missing a child"))
    if left.parent is not v or right.parent is not v:
        raise _Violation(ViolationReport(v, "broken parent link"))
    if v.color is RED and (left.color is RED or right.color is RED):
        raise _Violation(ViolationReport(v, "red node with red child"))
    lbh, lmin, lmax = _audit_walk(left, nodes, leaves)
    rbh, rmin, rmax = _audit_walk(right, nodes, leaves)
    if lbh != rbh:
        raise _Violation(ViolationReport(v, f"black-height mismatch {lbh} != {rbh}"))
    if not (lmax <= v.key < rmin):
        raise _Violation(ViolationReport(v, "routing split out of order"))
    if v.height != max(left.height, right.height) + 1:
        raise _Violation(ViolationReport(v, f"stale height {v.height}"))
    if v.ymax != max(left.ymax, right.ymax):
        raise _Violation(ViolationReport(v, "stale ymax summary"))
    if v.ymin != min(left.ymin, right.ymin):
        raise _Violation(ViolationReport(v, "stale ymin summary"))
    return lbh + (0 if v.color is RED else 1), lmin, rmax


def dirty_candidates(log: DirtyLog) -> set[ObjectId]:
    """Objects whose color may have changed, derived from a dirty log.

    Overapproximates: every object referenced by a touched node before or
    after the update, through its own summaries, its children's summaries,
    or its payload.  Summary references through a node's children are what
    the coloring rules read, so a height change at a touched node is
    covered by including its current child summaries.  A live internal
    node's own summaries are one of its children's, so those cover them.
    """
    out: set[ObjectId] = set()
    add = out.add
    removed = log.removed
    for node, old in log.old.items():
        if old is not None:
            add(old[0][1])
            add(old[1][1])
        if node.payload is not None:
            add(node.payload)
        elif node not in removed:  # a removed node's child links may be stale
            left, right = node.left, node.right
            add(left.ymax[1])
            add(left.ymin[1])
            add(right.ymax[1])
            add(right.ymin[1])
    return out
