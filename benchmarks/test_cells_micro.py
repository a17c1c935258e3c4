"""Micro-benchmarks of the geometric structures' updates and the coloring walk.

    python -m pytest benchmarks -q

Kept out of the tier-1 testpaths; needs pytest-benchmark.  Each update
benchmark replays one fixed seeded insert/delete stream into a fresh
structure; the walk benchmark colors every square of one large pinned cell.
"""

import random

import pytest

from cfcolor.cells import tree_color
from cfcolor.geom import Pt, UnitSquare
from cfcolor.harness import generate_workload, make_structure
from cfcolor.squares import PinnedSquareCF

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


def test_tree_color_large_square_cell(benchmark):
    rng = random.Random(SEED)
    cell = PinnedSquareCF(Pt(1.0, 1.0))
    for oid in range(20_000):
        cell.insert(UnitSquare(rng.random(), rng.random(), oid))
    leaves = list(cell.tree.leaf_by_payload.values())
    rule = cell.RULES[0]

    def color_all():
        return [tree_color(leaf, *rule) for leaf in leaves]

    assert benchmark(color_all) == [cell.colors[leaf.payload] for leaf in leaves]
