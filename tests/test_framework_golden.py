"""Golden digests of the framework engines' behaviour on seeded streams.

Each digest hashes, event by event, the RecolorDiff of the update (changed,
assigned, removed) and the engine's framework_info() afterwards, then the
final global_colors().  A refactor of the engines or the unimax colorers
must leave all three digests unchanged.
"""

import hashlib

import pytest

from cfcolor.geom import Pt
from cfcolor.harness import generate_workload, make_structure
from cfcolor.unimax import RectPointColorer

# structure: (object kind, inserts, delete ratio, seed, sha256 digest)
GOLDEN = {
    "semi-1d": ("point_1d", 600, 0.0, 11,
                "d94e98835ea69e41a819e353dcd017210b473cdad710c978987dd852c3e3cdb2"),
    "full-1d": ("point_1d", 1000, 0.9, 12,
                "76b2153dbe43cb4128101b11cd168472bb3a7ece23839f2dc72a3be94f594941"),
    "full-2d": ("point_2d", 300, 0.8, 13,
                "5d88da2df87045c4ae2e83e0ef8d266f3f4d9f61cd451155fb92b326d4041070"),
}


def stream_digest(structure: str, kind: str, n: int, delete_ratio: float, seed: int) -> str:
    adapter = make_structure(structure)
    h = hashlib.sha256()
    for ev in generate_workload(kind, n, delete_ratio, seed):
        if ev["op"] == "insert":
            diff = adapter.insert(ev["id"], ev["object"])
        else:
            diff = adapter.delete(ev["id"])
        h.update(repr((ev["op"], ev["id"], sorted(diff.changed.items()), diff.assigned,
                       diff.removed, adapter.framework_info())).encode())
    h.update(repr(sorted(adapter.colors().items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("structure", sorted(GOLDEN))
def test_golden_stream_digest(structure):
    kind, n, delete_ratio, seed, digest = GOLDEN[structure]
    assert stream_digest(structure, kind, n, delete_ratio, seed) == digest


def test_rect_colorer_colors_is_the_stored_dict():
    c = RectPointColorer({i: Pt(float(i % 5), float(i * 7 % 11)) for i in range(20)})
    assert c.colors is c.colors
