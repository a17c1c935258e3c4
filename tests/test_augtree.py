import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cfcolor.augtree import AugTree, DirtyLog, DuplicateKey, KeyNotFound, Node, dirty_candidates
from cfcolor.geom import KeyOrder
from reference import dirty_entries, leaves, nodes, reference_dirty_candidates

# Frozen dirty-log bound: |log| <= DIRTY_A * log2(n + 2) + DIRTY_B per update.
# Recorded as the max over the seeded runs below, with headroom.
DIRTY_A = 6
DIRTY_B = 8


def xk(x, oid):
    return KeyOrder(float(x), oid)


def insert_obj(tree, oid, x, y):
    return tree.insert(xk(x, oid), oid, KeyOrder(float(y), oid), KeyOrder(float(y), oid))


def snapshot(tree):
    return {id(v): (v.height, v.ymax, v.ymin) for v in nodes(tree)}


def assert_log_covers_changes(tree, before, log):
    """Every node whose augmentation differs from the snapshot is in the log."""
    logged = {id(e.node) for e in dirty_entries(log)}
    for v in nodes(tree):
        prev = before.get(id(v))
        if prev is None:
            assert id(v) in logged, "created node missing from dirty log"
        elif prev != (v.height, v.ymax, v.ymin):
            assert id(v) in logged, "changed node missing from dirty log"
    alive = {id(v) for v in nodes(tree)}
    for node_id in before:
        if node_id not in alive:
            assert node_id in logged, "removed node missing from dirty log"


def test_insert_into_empty_tree():
    tree = AugTree()
    log = insert_obj(tree, 1, 5.0, 7.0)
    assert tree.size == 1
    assert tree.root.payload is not None
    assert tree.root.height == 0
    assert tree.root.ymax.tiebreak == 1
    assert tree.root.ymin.tiebreak == 1
    assert len(log) == 1 and dirty_entries(log)[0].created
    assert tree.audit() is None


def test_third_insert_matches_full_recompute():
    tree = AugTree()
    insert_obj(tree, 1, 1.0, 10.0)
    insert_obj(tree, 2, 2.0, 5.0)
    before = snapshot(tree)
    log = insert_obj(tree, 3, 3.0, 8.0)
    assert tree.audit() is None
    assert_log_covers_changes(tree, before, log)
    assert tree.root.ymax.tiebreak == 1
    assert tree.root.ymin.tiebreak == 2


def test_duplicate_key_rejected():
    tree = AugTree()
    insert_obj(tree, 1, 1.0, 1.0)
    with pytest.raises(DuplicateKey):
        insert_obj(tree, 1, 1.0, 2.0)


def test_refused_insert_changes_nothing():
    tree = AugTree()
    for oid in range(6):
        insert_obj(tree, oid, oid, 10 - oid)
    index = dict(tree.leaf_by_payload)
    shape = [(v.key, v.height, v.color, v.ymax, v.ymin) for v in nodes(tree)]
    refused = [
        (xk(2, 2), 2),    # the same (key, payload) again
        (xk(7, 3), 3),    # a payload already present under another key
        (xk(4, 4), 99),   # a new payload under a present key
    ]
    for key, payload in refused:
        with pytest.raises(DuplicateKey):
            tree.insert(key, payload, KeyOrder(0.0, payload), KeyOrder(0.0, payload))
        assert tree.audit() is None
        assert tree.size == 6
        assert tree.leaf_by_payload == index
        assert all(tree.leaf_by_payload[oid] is leaf for oid, leaf in index.items())
        assert [(v.key, v.height, v.color, v.ymax, v.ymin) for v in nodes(tree)] == shape


def test_dirty_log_keeps_first_touch_order_and_values():
    a, b, c = (Node(xk(i, i), i, KeyOrder(float(i), i), KeyOrder(-float(i), i), False)
               for i in range(3))
    log = DirtyLog()
    log.touch(a)
    log.touch(b, created=True)
    a.ymax = KeyOrder(9.0, 2)
    log.touch(a)
    log.touch(c)
    entries = dirty_entries(log)
    assert [e.node for e in entries] == [a, b, c] and len(log) == 3
    assert (entries[0].old_ymax, entries[0].old_ymin) == (KeyOrder(0.0, 0), KeyOrder(-0.0, 0))
    assert [(e.created, e.removed) for e in entries] == [(False, False), (True, False), (False, False)]
    assert (entries[1].old_ymax, entries[1].old_ymin) == (None, None)


def test_dirty_log_remove_flags_the_touched_entry_and_later_touches_are_ignored():
    a, b = (Node(xk(i, i), i, KeyOrder(float(i), i), KeyOrder(float(i), i), False)
            for i in range(2))
    log = DirtyLog()
    log.touch(a)
    a.ymax = KeyOrder(5.0, 1)
    log.remove(a)            # flags the entry touch made, with its values
    log.remove(b)            # a new entry, already removed
    b.ymin = KeyOrder(-5.0, 0)
    log.touch(b)             # ignored: b is logged
    assert len(log) == 2 and [e.node for e in dirty_entries(log)] == [a, b]
    ea, eb = dirty_entries(log)
    assert (ea.old_ymax, ea.removed, ea.created) == (KeyOrder(0.0, 0), True, False)
    assert (eb.old_ymin, eb.removed, eb.created) == (KeyOrder(1.0, 1), True, False)


def test_dirty_candidates_match_reference_on_seeded_stream():
    rng = random.Random(5)
    tree = AugTree()
    live: list[KeyOrder] = []
    for oid in range(1500):
        if live and (rng.random() < 0.45 or len(live) > 200):
            log = tree.delete(live.pop(rng.randrange(len(live))))
        else:
            key = xk(rng.randrange(300), oid)  # repeated coordinates
            log = insert_obj(tree, oid, key.coordinate, rng.randrange(100))
            live.append(key)
        assert dirty_candidates(log) == reference_dirty_candidates(log)


def test_delete_only_key_empties_tree():
    tree = AugTree()
    insert_obj(tree, 1, 5.0, 7.0)
    log = tree.delete(xk(5.0, 1))
    assert tree.root is None
    assert tree.size == 0
    assert any(e.removed for e in dirty_entries(log))


def test_delete_missing_key():
    tree = AugTree()
    insert_obj(tree, 1, 5.0, 7.0)
    with pytest.raises(KeyNotFound):
        tree.delete(xk(6.0, 2))


def test_delete_from_a_held_leaf_skips_the_descent_only_when_the_leaf_is_there():
    """delete(key, leaf) starts from the leaf when it holds key and the
    index holds it; any other leaf is ignored and key is found from the
    root, as delete(key) does."""
    for hint in ("own", "other", "detached", "none"):
        tree = AugTree()
        for oid, (x, y) in enumerate([(1.0, 10.0), (2.0, 20.0), (3.0, 15.0), (4.0, 5.0)]):
            insert_obj(tree, oid, x, y)
        leaf = {"own": tree.leaf_by_payload[2], "other": tree.leaf_by_payload[0],
                "detached": Node(xk(3.0, 2), 2, xk(3.0, 2), xk(3.0, 2), False),
                "none": None}[hint]
        tree.delete(xk(3.0, 2), leaf)
        assert tree.audit() is None
        assert sorted(tree.leaf_by_payload) == [0, 1, 3]


def test_delete_from_three_leaf_tree_matches_recompute():
    tree = AugTree()
    insert_obj(tree, 1, 1.0, 10.0)
    insert_obj(tree, 2, 2.0, 20.0)
    insert_obj(tree, 3, 3.0, 15.0)
    before = snapshot(tree)
    log = tree.delete(xk(2.0, 2))
    assert tree.audit() is None
    assert_log_covers_changes(tree, before, log)
    assert tree.root.ymax.tiebreak == 3
    assert tree.root.ymin.tiebreak == 1


def test_height_bound_after_random_inserts():
    rng = random.Random(42)
    tree = AugTree()
    n = 1000
    for oid in range(n):
        insert_obj(tree, oid, rng.random(), rng.random())
    assert tree.audit() is None
    assert tree.root.height <= 2 * math.log2(n + 1)


def test_interleaved_updates_pass_full_audit_and_log_bound():
    for seed in range(3):
        rng = random.Random(seed)
        tree = AugTree()
        live = {}
        next_id = 0
        max_ratio = 0.0
        for step in range(1000):
            if live and rng.random() < 0.5:
                oid = rng.choice(sorted(live))
                before = snapshot(tree)
                log = tree.delete(live.pop(oid))
            else:
                oid = next_id
                next_id += 1
                x, y = rng.random(), rng.random()
                before = snapshot(tree)
                log = insert_obj(tree, oid, x, y)
                live[oid] = xk(x, oid)
            assert tree.audit() is None
            assert_log_covers_changes(tree, before, log)
            bound = DIRTY_A * math.log2(tree.size + 2) + DIRTY_B
            assert len(log) <= bound
            max_ratio = max(max_ratio, len(log) / bound)
        assert max_ratio <= 1.0


def test_inorder_leaves_strictly_increasing():
    rng = random.Random(7)
    tree = AugTree()
    for oid in range(200):
        insert_obj(tree, oid, rng.randrange(50), rng.random())  # many x-ties
    keys = [leaf.key for leaf in leaves(tree)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_audit_detects_corrupted_height():
    tree = AugTree()
    for oid in range(10):
        insert_obj(tree, oid, float(oid), float(oid))
    victim = next(v for v in nodes(tree) if v.payload is None)
    victim.height += 5
    report = tree.audit()
    assert report is not None
    assert "height" in report.reason


def test_audit_detects_corrupted_summary():
    tree = AugTree()
    for oid in range(10):
        insert_obj(tree, oid, float(oid), float(oid))
    victim = next(v for v in nodes(tree) if v.payload is None)
    victim.ymax = KeyOrder(999.0, 999)
    report = tree.audit()
    assert report is not None
    assert "ymax" in report.reason


@settings(max_examples=60)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 40), st.integers(0, 40)),
                max_size=80))
def test_random_operation_sequences_stay_consistent(ops):
    tree = AugTree()
    live = {}
    next_id = 0
    for is_delete, x, y in ops:
        if is_delete and live:
            oid = sorted(live)[x % len(live)]
            before = snapshot(tree)
            log = tree.delete(live.pop(oid))
        else:
            oid = next_id
            next_id += 1
            before = snapshot(tree)
            log = insert_obj(tree, oid, x, y)
            live[oid] = xk(x, oid)
        assert tree.audit() is None
        assert_log_covers_changes(tree, before, log)
    assert tree.size == len(live)
    assert sorted(tree.leaf_by_payload) == sorted(live)
