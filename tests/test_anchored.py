import math
import random

import pytest

from cfcolor.anchored import AnchoredCF, NotAnchored
from cfcolor.geom import AxisRect, DuplicateId, GlobalColor, UnknownId
from cfcolor.oracle import check_cf
from reference import (check_cf_probes, colored_rects, nodes as tree_nodes,
                       recompute_anchored_colors)

# Frozen recoloring bound: recolorings <= REC_A * log2(n + 2) + REC_B.
# Max ratio observed over the seeded runs below is ~1.3; headroom kept.
REC_A = 3
REC_B = 4


def anchored(x2, y2, oid):
    return AxisRect(0.0, float(x2), 0.0, float(y2), oid)


def test_insert_into_empty_structure():
    s = AnchoredCF()
    diff = s.insert(anchored(2, 3, 0))
    assert diff.assigned == (0, GlobalColor(0, 0))
    assert diff.recolorings == 0
    assert s.colors[0] == 0


def test_rejects_unanchored_and_duplicate():
    s = AnchoredCF()
    with pytest.raises(NotAnchored):
        s.insert(AxisRect(1.0, 2.0, 0.0, 3.0, 0))
    s.insert(anchored(2, 3, 0))
    with pytest.raises(DuplicateId):
        s.insert(anchored(4, 5, 0))


@pytest.mark.parametrize("x2, y2", [(-1.0, -1.0), (2.0, -0.5), (-0.5, 2.0), (math.nan, 1.0)])
def test_rejects_corner_below_origin_before_any_change(x2, y2):
    # built around the AxisRect constructor, which would refuse most of these
    s = AnchoredCF()
    s.insert(anchored(2, 3, 0))
    with pytest.raises(NotAnchored, match="not anchored at the origin"):
        s.insert(tuple.__new__(AxisRect, (0.0, x2, 0.0, y2, 1)))
    assert len(s) == 1 and s.audit() is None


def test_three_inserts_conflict_free_at_probes():
    s = AnchoredCF()
    for oid, (x, y) in enumerate([(2, 5), (4, 3), (6, 8)]):
        s.insert(anchored(x, y, oid))
    assert check_cf_probes(colored_rects(s)) is None
    assert s.colors == recompute_anchored_colors(s.trees[0])


def test_delete_only_rectangle():
    s = AnchoredCF()
    s.insert(anchored(2, 3, 0))
    diff = s.delete(0)
    assert diff.recolorings == 0
    assert diff.removed == (0, GlobalColor(0, 0))
    assert len(s) == 0
    with pytest.raises(UnknownId):
        s.delete(0)


def test_delete_from_three_matches_recompute():
    s = AnchoredCF()
    for oid, (x, y) in enumerate([(2, 5), (4, 3), (6, 8)]):
        s.insert(anchored(x, y, oid))
    s.delete(1)
    assert s.colors == recompute_anchored_colors(s.trees[0])


def test_color_of_summary_max_of_roots_right_child():
    s = AnchoredCF()
    rng = random.Random(1)
    oid = 0
    while s.trees[0].root is None or s.trees[0].root.height < 3:
        s.insert(anchored(rng.uniform(1, 100), rng.uniform(1, 100), oid))
        oid += 1
    root = s.trees[0].root
    target = root.right.ymax.tiebreak
    assert s.colors[target] == root.height
    assert root.height >= 3


def test_mixed_updates_cf_and_definitional_equality():
    rng = random.Random(9)
    s = AnchoredCF()
    nid = 0
    live = []
    for step in range(1000):
        if live and rng.random() < 0.35:
            s.delete(live.pop(rng.randrange(len(live))))
        else:
            s.insert(anchored(rng.uniform(0.1, 50), rng.uniform(0.1, 50), nid))
            live.append(nid)
            nid += 1
        assert s.colors == recompute_anchored_colors(s.trees[0])
        if step % 20 == 0 or step > 960:
            assert check_cf(colored_rects(s)) is None
    assert s.audit() is None


def test_recoloring_bound_frozen_constants():
    for seed in range(5):
        rng = random.Random(seed)
        s = AnchoredCF()
        nid = 0
        live = []
        for step in range(800):
            if live and rng.random() < 0.3:
                diff = s.delete(live.pop(rng.randrange(len(live))))
            else:
                diff = s.insert(anchored(rng.uniform(0.1, 100), rng.uniform(0.1, 100), nid))
                live.append(nid)
                nid += 1
            n = max(len(s), 1)
            assert diff.recolorings <= REC_A * math.log2(n + 2) + REC_B


def test_single_insert_recolorings_at_n_1024():
    worst = 0
    for seed in range(10):
        rng = random.Random(100 + seed)
        s = AnchoredCF()
        for k in range(1024):
            s.insert(anchored(rng.uniform(0.1, 1000), rng.uniform(0.1, 1000), k))
        diff = s.insert(anchored(rng.uniform(0.1, 1000), rng.uniform(0.1, 1000), 5000))
        worst = max(worst, diff.recolorings)
    assert worst <= REC_A * math.log2(1024) + REC_B


def test_color_range_bounded_by_tree_height():
    rng = random.Random(3)
    s = AnchoredCF()
    for k in range(500):
        s.insert(anchored(rng.uniform(0.1, 100), rng.uniform(0.1, 100), k))
    n = len(s)
    assert max(s.colors.values()) <= s.trees[0].root.height <= 2 * math.log2(n + 1)
    assert len(set(s.colors.values())) <= 2 * math.log2(n + 1) + 1


def test_n_sets_partition_nodes_by_referenced_object():
    rng = random.Random(4)
    s = AnchoredCF()
    for k in range(100):
        s.insert(anchored(rng.uniform(0.1, 100), rng.uniform(0.1, 100), k))
    # global walk: each internal node contributes to exactly one N(r)
    refs = {}
    for v in tree_nodes(s.trees[0]):
        if v.payload is not None:
            refs.setdefault(v.payload, set()).add(id(v))
        else:
            refs.setdefault(v.right.ymax.tiebreak, set()).add(id(v))
    seen = set()
    for oid, nodes in refs.items():
        assert not (nodes & seen)
        seen |= nodes
    # and the per-object ancestor walk finds the same node sets
    for oid, nodes in refs.items():
        leaf = s.trees[0].leaf_by_payload[oid]
        walked = {id(leaf)}
        v = leaf.parent
        while v is not None:
            if v.right.ymax.tiebreak == oid:
                walked.add(id(v))
            v = v.parent
        assert walked == nodes


def test_ties_in_coordinates_are_tiebroken():
    s = AnchoredCF()
    for oid in range(6):
        s.insert(anchored(5.0, 7.0, oid))  # fully degenerate inputs
    assert s.audit() is None
    assert check_cf_probes(colored_rects(s)) is None
