"""Micro-benchmarks of the geometric structures' updates and the coloring walk.

    python -m pytest benchmarks -q

Kept out of the tier-1 testpaths; needs pytest-benchmark.  Each update
benchmark replays one fixed seeded insert/delete stream into a fresh
structure: test_updates with its objects built before the timed region,
test_adapter_updates through the adapter's insert(oid, payload) and
delete(oid), as perfbench times them, so building each object is timed
too.  The tree benchmark replays the anchored stream's keys into a
bare AugTree and derives each update's dirty candidates, which times the
tree layer apart from the cells; the walk benchmark colors every square of
one large pinned cell.  The verified-read benchmarks time what a verified
step reads of a 2,000-rectangle bounded partition right after one update
(untimed): its audit, which re-checks only the cell the update changed,
and its view, built anew.  The verified-step benchmark times what a
verified step costs the adapter at the sizes verified replay runs: one
update, the audit that hands over the view, and the colors read from it,
on a seeded state of about 140 objects: of the squares and bounded
partitions, and of anchored, whose one cell every update changes.
"""

import random

import pytest

from cfcolor.augtree import AugTree, dirty_candidates
from cfcolor.cells import tree_color
from cfcolor.geom import KeyOrder, Pt
from cfcolor.harness import generate_workload, make_structure
from cfcolor.squares import PinnedSquareCF, unit_square

# name: (object kind, inserts, delete ratio, structure params)
STREAMS = {
    "anchored": ("anchored_rect", 2000, 0.3, {}),
    "squares": ("unit_square", 2000, 0.3, {}),
    "bounded": ("bounded_rect", 2000, 0.3, {"c": 3.0}),
    "universe": ("universe_rect", 2000, 0.3, {"universe": 64}),
}
SEED = 1


def _replay(name, ops):
    structure = make_structure(name, **STREAMS[name][3]).structure
    for op, oid, obj in ops:
        if op == "insert":
            structure.insert(obj)
        else:
            structure.delete(oid)
    return structure


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_updates(benchmark, name):
    kind, n, delete_ratio, params = STREAMS[name]
    to_object = make_structure(name, **params).to_object
    ops = [(ev["op"], ev["id"], to_object(ev["id"], ev["object"]) if ev["op"] == "insert" else None)
           for ev in generate_workload(kind, n, delete_ratio, SEED, **params)]
    structure = benchmark(_replay, name, ops)
    assert structure.audit() is None


def _adapter_replay(name, events):
    adapter = make_structure(name, **STREAMS[name][3])
    for ev in events:
        if ev["op"] == "insert":
            adapter.insert(ev["id"], ev["object"])
        else:
            adapter.delete(ev["id"])
    return adapter


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_adapter_updates(benchmark, name):
    kind, n, delete_ratio, params = STREAMS[name]
    events = generate_workload(kind, n, delete_ratio, SEED, **params)
    adapter = benchmark(_adapter_replay, name, events)
    assert adapter.structure.audit() is None
    assert len(adapter) == sum(1 if ev["op"] == "insert" else -1 for ev in events)


def _tree_replay(ops):
    tree = AugTree()
    for op, key, oid, y in ops:
        dirty_candidates(tree.insert(key, oid, y, y) if op == "insert" else tree.delete(oid))
    return tree


def test_tree_updates(benchmark):
    kind, n, delete_ratio, params = STREAMS["anchored"]
    keys = {}
    ops = []
    for ev in generate_workload(kind, n, delete_ratio, SEED, **params):
        oid = ev["id"]
        if ev["op"] == "insert":
            obj = ev["object"]
            keys[oid] = KeyOrder(obj["x2"], oid)
            ops.append(("insert", keys[oid], oid, KeyOrder(obj["y2"], oid)))
        else:
            ops.append(("delete", keys.pop(oid), oid, None))
    tree = benchmark(_tree_replay, ops)
    assert tree.audit() is None and sorted(tree.leaf_by_payload) == sorted(keys)


def test_tree_color_large_square_cell(benchmark):
    rng = random.Random(SEED)
    cell = PinnedSquareCF(Pt(1.0, 1.0))
    for oid in range(20_000):
        cell.insert(unit_square(rng.random(), rng.random(), oid))
    leaves = list(cell.trees[0].leaf_by_payload.values())
    rule = cell.RULES[0]

    def color_all():
        return [tree_color(leaf, *rule) for leaf in leaves]

    assert benchmark(color_all) == [cell.colors[leaf.payload] for leaf in leaves]


@pytest.mark.parametrize("read", ["audit", "colored_objects"])
def test_verified_read_after_one_update(benchmark, read):
    params = {"c": 3.0}
    adapter = make_structure("bounded", **params)
    s = adapter.structure
    events = generate_workload("bounded_rect", 2000, 0.0, SEED, **params)
    for ev in events:
        adapter.insert(ev["id"], ev["object"])
    assert s.audit() is None and len(s.colored_objects()) == len(s) == 2000
    last = events[-1]

    def one_update():
        if last["id"] in s.location:
            adapter.delete(last["id"])
        else:
            adapter.insert(last["id"], last["object"])

    result = benchmark.pedantic(getattr(s, read), setup=one_update, rounds=200)
    assert result is None if read == "audit" else len(result) == len(s)


@pytest.mark.parametrize("name", ["anchored", "squares", "bounded"])
def test_verified_partition_step(benchmark, name):
    kind, _, _, params = STREAMS[name]
    adapter = make_structure(name, **params)
    events = generate_workload(kind, 200, 0.3, SEED, **params)
    live = set()
    for ev in events:
        if ev["op"] == "insert":
            adapter.insert(ev["id"], ev["object"])
            live.add(ev["id"])
        else:
            adapter.delete(ev["id"])
            live.remove(ev["id"])
    s = adapter.structure
    assert adapter.check_invariants() is None and 130 <= len(s) <= 150
    last = next(ev for ev in reversed(events) if ev["op"] == "insert" and ev["id"] in live)

    def step():
        if last["id"] in live:
            adapter.delete(last["id"])
            live.remove(last["id"])
        else:
            adapter.insert(last["id"], last["object"])
            live.add(last["id"])
        return adapter.check_invariants(), adapter.colors()

    report, colors = benchmark(step)
    assert report is None and colors == s.global_colors()
