"""Differential test of the per-tree recoloring rule of two-tree cells.

A common-point cell recomputes tree i's half of an object's (east, west)
pair only when tree i's dirty log names the object.  On seeded bounded and
universe streams with deletions, every cell's colors must equal the pairs
recomputed from tree shape after every update, and each diff must name
exactly the pre-existing objects whose recomputed pair differs.
"""

import pytest

from cfcolor.harness import generate_workload, make_structure
from reference import recompute_common_point_colors

# structure: (object kind, structure params)
STREAMS = {
    "bounded": ("bounded_rect", {"c": 3.0}),
    "universe": ("universe_rect", {"universe": 64}),
}


def recomputed(partition) -> dict[int, tuple[int, int]]:
    """Every object's pair from its cell's trees, checked against the
    cell's stored colors."""
    out = {}
    for cell in partition.cells.values():
        pairs = recompute_common_point_colors(cell.trees[0], cell.trees[1])
        assert cell.colors == pairs
        out.update(pairs)
    return out


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stored_pairs_and_diffs_match_the_recompute(name, seed):
    kind, params = STREAMS[name]
    adapter = make_structure(name, **params)
    partition = adapter.structure
    before: dict[int, tuple[int, int]] = {}
    for ev in generate_workload(kind, 400, 0.3, seed, **params):
        oid = ev["id"]
        if ev["op"] == "insert":
            diff = adapter.insert(oid, ev["object"])
        else:
            diff = adapter.delete(oid)
        after = recomputed(partition)
        moved = {o for o in before.keys() & after.keys() if before[o] != after[o]}
        assert diff.changed.keys() == moved
        for o in moved:
            g = partition.cells[partition.location[o]].global_color
            assert diff.changed[o] == (g(before[o]), g(after[o]))
        before = after
    assert partition.audit() is None
