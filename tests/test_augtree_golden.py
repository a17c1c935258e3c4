"""Golden digest of the red-black tree's shapes and dirty logs on a seeded stream.

The digest hashes, update by update, the dirty log (each entry's key and
created/removed flags, in order) and the whole tree in preorder as (key,
height, color).  A refactor of the rotations or the fixups must leave the
digest unchanged: same rotations in the same order give the same shapes,
colors and logs.
"""

import hashlib
import random

from cfcolor.augtree import AugTree
from cfcolor.geom import KeyOrder
from reference import dirty_entries, nodes

UPDATES = 2_000
GOLDEN = "60ce4cc652e1b6b2d4d1a7855d5ea72103a1a0da8e8fd2a8a918ef0b780f4e0a"


def stream_logs(seed: int = 17):
    """Each update's dirty log and the tree after it, over the seeded stream."""
    rng = random.Random(seed)
    tree = AugTree()
    live: list[KeyOrder] = []
    for oid in range(UPDATES):
        if live and (rng.random() < 0.45 or len(live) > 300):
            key = live.pop(rng.randrange(len(live)))
            log = tree.delete(key.tiebreak)
        else:
            key = KeyOrder(float(rng.randrange(400)), oid)  # repeated coordinates
            y = rng.randrange(100)
            log = tree.insert(key, oid, KeyOrder(y, oid), KeyOrder(-y, oid))
            live.append(key)
        yield log, tree


def stream_digest(seed: int = 17) -> str:
    h = hashlib.sha256()
    for log, tree in stream_logs(seed):
        h.update(repr([(e.node.key, e.created, e.removed) for e in dirty_entries(log)]).encode())
        h.update(repr([(v.key, v.height, v.color) for v in nodes(tree)]).encode())
    return h.hexdigest()


def test_golden_tree_stream_digest():
    assert stream_digest() == GOLDEN


def test_dirty_log_len_is_the_touched_node_count():
    # len(log) is what perfbench reports as augtree.dirty_per_update; the
    # totals are those of the stream's logs when each node had one entry object
    totals = {"insert": 0, "delete": 0}
    for log, _ in stream_logs():
        entries = dirty_entries(log)
        assert len(log) == len(entries) == len({id(e.node) for e in entries})
        totals["delete" if any(e.removed for e in entries) else "insert"] += len(log)
    assert totals == {"insert": 5576, "delete": 3934}
