"""The tree audit against the reference closure, fault by fault, on
grown trees and on a lone leaf, and the faults the tree and partition
audits must see: a payload index that is not the set of leaves walked,
cells out of step with `location`, and an object held in a cell other
than the one route() gives it."""

import random

import pytest

from cfcolor.augtree import BLACK, RED, AugTree, Node
from cfcolor.geom import AxisRect, KeyOrder, Pt
from cfcolor.rects import BoundedRectCF, CommonPointCF, UniverseRectCF
from cfcolor.squares import GridSquareCF, unit_square
import reference
from reference import leaves, nodes


def _tree(seed, n=40):
    """A seeded tree of n objects after some deletions, many x-ties."""
    rng = random.Random(seed)
    tree = AugTree()
    live = []
    for oid in range(n + n // 3):
        if live and rng.random() < 0.25:
            tree.delete(live.pop(rng.randrange(len(live))).tiebreak)
        else:
            key = KeyOrder(float(rng.randrange(20)), oid)
            y = float(rng.randrange(20))
            tree.insert(key, oid, KeyOrder(y, oid), KeyOrder(y, oid))
            live.append(key)
    assert tree.audit() is None
    return tree


def _internal(tree, ok=lambda v: True):
    """The first internal node, preorder, that satisfies ok."""
    return next(v for v in nodes(tree) if v.payload is None and ok(v))


class _Anywhere:
    """A key that is <=, >= and > every key and < none: the routing splits
    around it check out, while the in-order check finds it not below the
    next leaf."""

    def __le__(self, other):
        return True

    __ge__ = __gt__ = __le__

    def __lt__(self, other):
        return False


def _leaf_height(tree):
    next(leaves(tree)).height = 2


def _red_leaf(tree):
    next(v for v in leaves(tree) if v.parent.color is BLACK).color = RED


def _missing_child(tree):
    _internal(tree, lambda v: v is not tree.root).right = None


def _broken_parent_link(tree):
    _internal(tree, lambda v: v is not tree.root).left.parent = tree.root


def _red_red(tree):
    v = _internal(tree, lambda v: v.color is RED and (v.left.payload is None or v.right.payload is None))
    (v.right if v.left.payload is not None else v.left).color = RED


def _black_height(tree):
    # a black node with black children under a black parent turns red
    _internal(tree, lambda v: v.color is BLACK and v.parent is not None
              and v.parent.color is BLACK and v.left.color is BLACK
              and v.right.color is BLACK).color = RED


def _routing_split(tree):
    _internal(tree, lambda v: v is not tree.root).key = KeyOrder(1e9, 0)


def _stale_height(tree):
    _internal(tree, lambda v: v is not tree.root).height += 5


def _stale_ymax(tree):
    _internal(tree, lambda v: v is not tree.root).ymax = KeyOrder(999.0, 999)


def _stale_ymin(tree):
    _internal(tree, lambda v: v is not tree.root).ymin = KeyOrder(-999.0, 999)


def _size(tree):
    tree.size += 1


def _inorder_keys(tree):
    list(leaves(tree))[5].key = _Anywhere()


def _red_root(tree):
    tree.root.color = RED


FAULTS = {
    "leaf height": _leaf_height,
    "red leaf": _red_leaf,
    "internal node missing a child": _missing_child,
    "broken parent link": _broken_parent_link,
    "red node with red child": _red_red,
    "black-height mismatch": _black_height,
    "routing split out of order": _routing_split,
    "stale height": _stale_height,
    "stale ymax summary": _stale_ymax,
    "stale ymin summary": _stale_ymin,
    "size": _size,
    "in-order keys not strictly increasing": _inorder_keys,
    "root is red": _red_root,
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("seed", range(4))
def test_audit_matches_the_reference_on_planted_faults(fault, seed):
    tree = _tree(seed)
    assert reference.audit(tree) is None
    FAULTS[fault](tree)
    got, want = tree.audit(), reference.audit(tree)
    assert want is not None and want.reason.startswith(fault)
    assert got is not None and got.node is want.node and got.reason == want.reason


def _lone_leaf():
    tree = AugTree()
    tree.insert(KeyOrder(3.0, 7), 7, KeyOrder(1.0, 7), KeyOrder(1.0, 7))
    assert tree.root.payload is not None and tree.audit() is None
    return tree


# a red lone leaf is a red root
LONE_LEAF_FAULTS = {"leaf height": _leaf_height, "root is red": _red_root, "size": _size}


@pytest.mark.parametrize("fault", sorted(LONE_LEAF_FAULTS))
def test_lone_leaf_audit_matches_the_reference(fault):
    tree = _lone_leaf()
    LONE_LEAF_FAULTS[fault](tree)
    got, want = tree.audit(), reference.audit(tree)
    assert want is not None and want.reason.startswith(fault)
    assert got is not None and got.node is want.node and got.reason == want.reason


def _extra_entry(tree):
    key = KeyOrder(99.0, 99)
    tree.leaf_by_payload[99] = Node(key, 99, key, key, BLACK)


def _detached_copy(tree):
    leaf = tree.root
    tree.leaf_by_payload[7] = Node(leaf.key, 7, leaf.ymax, leaf.ymin, BLACK)


def _no_entry(tree):
    del tree.leaf_by_payload[7]


@pytest.mark.parametrize("plant, node, reason", [
    (_extra_entry, None, "payload index 2 != 1 leaves"),
    (_detached_copy, "root", "payload index out of sync"),
    (_no_entry, None, "payload index 0 != 1 leaves"),
])
def test_lone_leaf_audit_sees_its_index(plant, node, reason):
    tree = _lone_leaf()
    plant(tree)
    report = tree.audit()
    assert report is not None and report.reason == reason
    assert report.node is (tree.root if node == "root" else None)


def _six_leaves():
    tree = AugTree()
    for oid in range(6):
        tree.insert(KeyOrder(float(oid), oid), oid, KeyOrder(0.0, oid), KeyOrder(0.0, oid))
    assert tree.audit() is None
    return tree


def test_audit_sees_an_index_entry_without_a_leaf():
    tree = _six_leaves()
    key = KeyOrder(99.0, 99)
    tree.leaf_by_payload[99] = Node(key, 99, key, key, BLACK)
    report = tree.audit()
    assert report is not None and "payload index" in report.reason


def test_audit_sees_an_index_entry_naming_a_detached_copy():
    tree = _six_leaves()
    leaf = tree.leaf_by_payload[3]
    tree.leaf_by_payload[3] = Node(leaf.key, 3, leaf.ymax, leaf.ymin, BLACK)
    report = tree.audit()
    assert report is not None and report.node is leaf and "payload index" in report.reason


def _squares():
    rng = random.Random(5)
    s = GridSquareCF()
    for oid in range(60):
        s.insert(unit_square(rng.uniform(0, 6), rng.uniform(0, 6), oid))
    assert s.audit() is None
    return s


def _located_elsewhere(s):
    s.location[7] = next(key for key in s.cells if key != s.location[7])


def _orphan_location(s):
    s.location[1000] = s.location[7]


def _held_twice(s):
    sq = s.cells[s.location[7]].objects[7]
    second = s.CELL(Pt(sq.x1, sq.y1), 0)
    second.insert(sq)
    s.cells[(-50, -50)] = second


def _empty_cell(s):
    s.cells[(-50, -50)] = s.CELL(Pt(-50.0, -50.0), 0)


@pytest.mark.parametrize("plant", [_located_elsewhere, _orphan_location, _held_twice,
                                   _empty_cell])
def test_partition_audit_sees_cells_out_of_step_with_location(plant):
    s = _squares()
    plant(s)
    assert s.audit() is not None


def test_universe_audit_sees_a_rect_below_its_highest_skeleton_nodes():
    s = UniverseRectCF(universe=16)
    moved = AxisRect(6.0, 9.0, 7.0, 7.0, 0)   # x-values 7 (the root) and 9
    s.insert(moved)
    s.insert(AxisRect(0.0, 15.0, 0.0, 15.0, 1))
    assert s.location == {0: (1, 1), 1: (1, 1)} and s.audit() is None
    # into the cell of x-node 9, heap index 6, whose pin it contains
    s.cells[(1, 1)].delete(0)
    lower = CommonPointCF(Pt(9.0, 7.0))
    lower.insert(moved)
    s.cells[(6, 1)] = lower
    s.location[0] = (6, 1)
    report = s.audit()
    assert report is not None and "highest skeleton nodes" in report.reason


def test_bounded_audit_sees_a_rect_outside_its_routed_cell():
    s = BoundedRectCF(3.0)
    moved = AxisRect(0.5, 2.5, 0.5, 2.5, 0)
    s.insert(moved)
    assert s.location == {0: (1, 1)} and s.audit() is None
    # into a new cell at (2, 2), whose pin it contains
    s.cells.pop((1, 1)).delete(0)
    _, pin, tag = s.route(AxisRect(2.0, 3.0, 2.0, 3.0, 1))
    assert pin == Pt(2.0, 2.0)
    cell = CommonPointCF(pin, tag)
    cell.insert(moved)
    s.cells[(2, 2)] = cell
    s.location[0] = (2, 2)
    assert s.route(moved)[0] == (1, 1)
    report = s.audit()
    assert report is not None and report.reason == "object 0 not in the cell route() gives it"


def test_squares_audit_sees_a_square_outside_its_routed_cell():
    s = GridSquareCF()
    moved = unit_square(1.0, 0.5, 0)   # holds grid points (1, 1) and (2, 1)
    s.insert(moved)
    s.insert(unit_square(1.5, 0.7, 1))
    assert s.location == {0: (1, 1), 1: (2, 1)} and s.audit() is None
    s.cells[(1, 1)].delete(0)
    del s.cells[(1, 1)]
    s.cells[(2, 1)].insert(moved)
    s.location[0] = (2, 1)
    report = s.audit()
    assert report is not None and report.reason == "object 0 not in the cell route() gives it"
