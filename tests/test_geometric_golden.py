"""Golden digests of the geometric structures' behaviour on seeded streams.

Each digest hashes, event by event, the RecolorDiff of the update (sorted
changed, assigned, removed), then the final colors().  A change to the
tree, the cells or the routing that keeps every color and every recoloring
must leave all four digests unchanged.
"""

import hashlib

import pytest

from cfcolor.harness import generate_workload, make_structure

# structure: (object kind, inserts, delete ratio, seed, params, sha256 digest)
GOLDEN = {
    "anchored": ("anchored_rect", 1500, 0.3, 21, {},
                 "c4c950e54ba0028f864cef5e79e5307122120aab914fc9b288c954f6b285a06f"),
    "squares": ("unit_square", 1500, 0.3, 22, {},
                "9fe58360bd9f316fe50ea778dc0a3834d165908bea81245e99bdfce5aa4c36d7"),
    "bounded": ("bounded_rect", 1500, 0.3, 23, {"c": 3.0},
                "c5abe530428f05d64ffbc4681efabb3ba8fa62ca1350f42ec8dce813faed071e"),
    "universe": ("universe_rect", 1500, 0.3, 24, {"universe": 64},
                 "f749c52b156f117cd2f371d609af68486f0cdccb12b85a6d646516f3c80df8d6"),
}


def stream_digest(structure: str, kind: str, n: int, delete_ratio: float, seed: int,
                  params: dict) -> str:
    adapter = make_structure(structure, **params)
    h = hashlib.sha256()
    for ev in generate_workload(kind, n, delete_ratio, seed, **params):
        if ev["op"] == "insert":
            diff = adapter.insert(ev["id"], ev["object"])
        else:
            diff = adapter.delete(ev["id"])
        h.update(repr((ev["op"], ev["id"], sorted(diff.changed.items()), diff.assigned,
                       diff.removed)).encode())
    h.update(repr(sorted(adapter.colors().items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("structure", sorted(GOLDEN))
def test_golden_stream_digest(structure):
    kind, n, delete_ratio, seed, params, digest = GOLDEN[structure]
    assert stream_digest(structure, kind, n, delete_ratio, seed, params) == digest
