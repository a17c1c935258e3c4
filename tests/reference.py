"""Test-side helpers and reference implementations.

Walks, decoders, per-square color readings and palette sizes that only
tests need, and the plain oracle checks that the sweeps and running-count
versions in cfcolor.oracle are compared with: per probe point over the
probe grid, and per window over canonical intervals and rectangles.
Also the colored rectangles of a geometric structure, a dirty log as one
entry per node, the tree audit as a closure that the module-level walk in
cfcolor.augtree is compared with, the engines' locate/actual check object
by object, the workload reader that runs json.loads line by line, and the
definitional color recomputations from tree shape.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from cfcolor.augtree import RED, AugTree, Node, ViolationReport
from cfcolor.geom import AxisRect, KeyOrder, Pt
from cfcolor.harness import ParseError, _object_error
from cfcolor.oracle import Witness, _between, _group_bounds


def nodes(tree: AugTree) -> Iterator[Node]:
    """Every node of the tree, preorder."""
    def walk(v: Node) -> Iterator[Node]:
        yield v
        if v.payload is None:
            yield from walk(v.left)
            yield from walk(v.right)
    if tree.root is not None:
        yield from walk(tree.root)


def leaves(tree: AugTree) -> Iterator[Node]:
    """The tree's leaves in key order."""
    return (v for v in nodes(tree) if v.payload is not None)


def audit(tree: AugTree) -> ViolationReport | None:
    """AugTree.audit as a recursive closure that returns the first
    violation up the call chain."""
    if tree.root is None:
        return None if tree.size == 0 else ViolationReport(None, "size mismatch")
    if tree.root.color is RED:
        return ViolationReport(tree.root, "root is red")

    leaves_seen: list[Node] = []

    def check(v: Node) -> tuple[int, object, object] | ViolationReport:
        """Returns (black-height, min key, max key) or the first violation."""
        if v.payload is not None:
            leaves_seen.append(v)
            if v.height != 0:
                return ViolationReport(v, f"leaf height {v.height} != 0")
            if v.color is RED:
                return ViolationReport(v, "red leaf")
            return 1, v.key, v.key
        if v.left is None or v.right is None:
            return ViolationReport(v, "internal node missing a child")
        if v.left.parent is not v or v.right.parent is not v:
            return ViolationReport(v, "broken parent link")
        if v.color is RED and (v.left.color is RED or v.right.color is RED):
            return ViolationReport(v, "red node with red child")
        lres = check(v.left)
        if isinstance(lres, ViolationReport):
            return lres
        rres = check(v.right)
        if isinstance(rres, ViolationReport):
            return rres
        lbh, lmin, lmax = lres
        rbh, rmin, rmax = rres
        if lbh != rbh:
            return ViolationReport(v, f"black-height mismatch {lbh} != {rbh}")
        if not (lmax <= v.key < rmin):
            return ViolationReport(v, "routing split out of order")
        if v.height != max(v.left.height, v.right.height) + 1:
            return ViolationReport(v, f"stale height {v.height}")
        if v.ymax != max(v.left.ymax, v.right.ymax):
            return ViolationReport(v, "stale ymax summary")
        if v.ymin != min(v.left.ymin, v.right.ymin):
            return ViolationReport(v, "stale ymin summary")
        return lbh + (0 if v.color is RED else 1), lmin, rmax

    res = check(tree.root)
    if isinstance(res, ViolationReport):
        return res
    if len(leaves_seen) != tree.size:
        return ViolationReport(None, f"size {tree.size} != {len(leaves_seen)} leaves")
    for a, b in zip(leaves_seen, leaves_seen[1:]):
        if not a.key < b.key:
            return ViolationReport(b, "in-order keys not strictly increasing")
    for oid, leaf in tree.leaf_by_payload.items():
        if leaf.payload != oid:
            return ViolationReport(leaf, "payload index out of sync")
    return None


@dataclass
class DirtyEntry:
    """One node of a DirtyLog with its augmentation before the update (None
    if created) and whether the update created or removed it."""

    node: Node
    old_ymax: KeyOrder | None
    old_ymin: KeyOrder | None
    created: bool
    removed: bool


def dirty_entries(log) -> list[DirtyEntry]:
    """A DirtyLog as one DirtyEntry per node, in first-touch order."""
    return [DirtyEntry(node, *(old or (None, None)), old is None, node in log.removed)
            for node, old in log.old.items()]


def reference_dirty_candidates(log) -> set[int]:
    """cfcolor.augtree.dirty_candidates read straight from its definition:
    every object a touched node names before the update (old summaries) or
    after it (payload; unless removed, its own and its children's
    summaries)."""
    out = set()
    for e in dirty_entries(log):
        out.update(old.tiebreak for old in (e.old_ymax, e.old_ymin) if old is not None)
        node = e.node
        if node.payload is not None:
            out.add(node.payload)
        elif not e.removed:
            out.update(s.tiebreak for v in (node, node.left, node.right)
                       for s in (v.ymax, v.ymin))
    return out


def colored_rects(structure) -> list[tuple[AxisRect, object]]:
    """Each stored object's rectangle and global color from the structure's
    view, by cell key, then id."""
    if hasattr(structure, "cells"):
        cells = [structure.cells[key] for key in sorted(structure.cells)]
    else:
        cells = [structure]
    return [pair for cell in cells for _, pair in sorted(cell.colored_objects())]


def skeleton_path_values(n_slots: int, lo_val: int, hi_val: int) -> list[int]:
    """Midpoint values of the strict ancestors cfcolor.rects.skeleton_locate
    visits before the located node."""
    out = []
    lo, hi = 0, n_slots - 1
    while True:
        mid = (lo + hi) // 2
        if lo_val <= mid <= hi_val:
            return out
        out.append(mid)
        if hi_val < mid:
            hi = mid
        else:
            lo = mid + 1


def category_heights(cell, oid: int) -> dict[str, int]:
    """Max node height per direction whose summary selects the square, over
    every ancestor of its leaf in a PinnedSquareCF cell."""
    cat = dict.fromkeys(("ne", "se", "sw", "nw"), 0)
    v = cell.trees[0].leaf_by_payload[oid].parent
    while v is not None:
        for name, (side, summary) in zip(cat, cell.SELECTORS[0]):
            if getattr(getattr(v, side), summary).tiebreak == oid:
                cat[name] = max(cat[name], v.height)
        v = v.parent
    return cat


def pinned_color(cell, oid: int) -> tuple[int, int | None]:
    """(h, j) of a PinnedSquareCF color 4*h + j; j is None for the pure-leaf
    color 0."""
    c = cell.colors[oid]
    return (0, None) if c == 0 else divmod(c, 4)


def pair_decode(z: int) -> tuple[int, int]:
    """Inverse of cfcolor.geom.pair_encode."""
    s = (math.isqrt(8 * z + 1) - 1) // 2
    b = z - s * (s + 1) // 2
    return s - b, b


def interval_palette_size(n0: int) -> int:
    """Colors an IntervalPointColorer uses on n0 points: floor(log2 n0) + 1."""
    return n0.bit_length() if n0 > 0 else 0


def probe_grid(rects: list[AxisRect]) -> list[Pt]:
    """Coordinates and midpoints in both axes, crossed: every cell, edge and
    vertex of the axis-parallel arrangement carries a probe."""
    if not rects:
        return []
    xs = sorted({r.x1 for r in rects} | {r.x2 for r in rects})
    ys = sorted({r.y1 for r in rects} | {r.y2 for r in rects})
    px = _with_midpoints(xs)
    py = _with_midpoints(ys)
    return [Pt(x, y) for x in px for y in py]


def _with_midpoints(coords: list[float]) -> list[float]:
    out = []
    for a, b in zip(coords, coords[1:]):
        out.append(a)
        out.append(_between(a, b))
    out.append(coords[-1])
    return out


def check_cf_probes(colored: list[tuple[AxisRect, object]],
                    probes: list[Pt] | None = None) -> Witness | None:
    """Direct conflict-free check at every probe.  Quadratic; small inputs."""
    if probes is None:
        probes = probe_grid([r for r, _ in colored])
    for p in probes:
        cover = [c for r, c in colored if r.contains(p)]
        if cover and not _has_singleton(cover):
            return Witness(p, sorted(cover))
    return None


def check_unimax_probes(colored: list[tuple[AxisRect, object]],
                        probes: list[Pt] | None = None) -> Witness | None:
    """Unique-maximum check at every probe.  Quadratic; small inputs."""
    if probes is None:
        probes = probe_grid([r for r, _ in colored])
    for p in probes:
        cover = [c for r, c in colored if r.contains(p)]
        if cover and cover.count(max(cover)) != 1:
            return Witness(p, sorted(cover))
    return None


def _has_singleton(colors: list) -> bool:
    counts: dict = {}
    for c in colors:
        counts[c] = counts.get(c, 0) + 1
    return any(v == 1 for v in counts.values())


def _window_violates(colors: list, unimax: bool) -> bool:
    if not colors:
        return False
    if unimax:
        return colors.count(max(colors)) != 1
    return not _has_singleton(colors)


def intervals_reference(points):
    """Every canonical window checked on its own, by coordinate value: the
    first without a color that occurs once, as ((lo, hi), sorted colors),
    or None."""
    xs = sorted({x for x, _ in points})
    for lo in xs:
        for hi in xs:
            window = [c for x, c in points if lo <= x <= hi]
            if hi >= lo and 1 not in Counter(window).values():
                return (lo, hi), sorted(window)
    return None


def exhaustive_rect_ranges(points, unimax: bool) -> Witness | None:
    """Every canonical rectangle, each window rebuilt and judged from scratch."""
    xs = sorted({p.x for p, _ in points})
    by_x = sorted(points, key=lambda pc: (pc[0].x, pc[0].y))
    for a in range(len(xs)):
        for b in range(a, len(xs)):
            xlo, xhi = xs[a], xs[b]
            strip = [(p.y, c) for p, c in by_x if xlo <= p.x <= xhi]
            strip.sort(key=lambda t: t[0])
            m = len(strip)
            is_start, is_end = _group_bounds([y for y, _ in strip])
            for i in range(m):
                if not is_start[i]:
                    continue
                seen: list = []
                for j in range(i, m):
                    seen.append(strip[j][1])
                    if is_end[j] and _window_violates(seen, unimax):
                        return Witness((xlo, xhi, strip[i][0], strip[j][0]),
                                       sorted(seen))
    return None


def next_pending(members: set, star: set, colors: dict):
    """The definitional next object of a migration step: the pending member
    of maximal final color, ties to the lowest id."""
    return min(members - star, key=lambda o: (-colors[o], o))


def star_target(piece) -> set:
    """The definitional star of a migrating or frozen framework piece, at its
    current size: the pinned object plus the other members of top final
    colors, ranked by a full sort."""
    colors = piece.colors
    ranked = sorted((o for o in colors if o != piece.pinned),
                    key=lambda o: (-colors[o], o))
    target = set(ranked[:len(piece.star) - (piece.pinned is not None)])
    if piece.pinned is not None:
        target.add(piece.pinned)
    return target


def locate_actual_report(engine) -> ViolationReport | None:
    """The last checks of an engine's check_invariants, object by object:
    locate and the worn colors against the live objects and the level pieces."""
    if engine.locate.keys() != engine.live.keys():
        return ViolationReport(None, "locate out of sync with the live objects")
    for oid, i in engine.locate.items():
        piece = engine.levels[i] if 0 <= i < len(engine.levels) else None
        if piece is None or oid not in piece.colors:
            return ViolationReport(
                None, f"locate puts {oid} at level {i}, which does not hold it")
        if engine._resolve(piece, oid) != engine.live[oid][1]:
            return ViolationReport(None, f"worn color of {oid} out of sync")
    return None


def read_workload(path: str) -> list[dict]:
    """cfcolor.harness.read_workload, one json.loads per binary line."""
    events = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            if type(ev) is not dict or ev.get("op") not in ("insert", "delete") \
                    or "id" not in ev:
                raise ParseError(f"line {lineno}: malformed event {ev!r}")
            if type(ev["id"]) is not int:
                raise ParseError(f"line {lineno}: id must be an int, got {ev['id']!r}")
            if ev["op"] == "insert":
                if "object" not in ev:
                    raise ParseError(f"line {lineno}: insert without object")
                error = _object_error(ev["object"])
                if error is not None:
                    raise ParseError(f"line {lineno}: {error}")
            events.append(ev)
    return events


# -- definitional recomputation from tree shape ---------------------------
#
# The definitional color recomputations, which cross-check the incremental
# assignments.  Each is one post-order pass over a tree for one selector
# set (anchored NE; unit squares NE, SE, SW, NW; the east and west halves
# of a common-point cell): it recomputes heights and summaries from the
# children, ignoring the stored fields, and reads the rule node by node,
# with its own selector table, apart from the structures' leaf climb.

# The recompute's own selector table: a child side, and where the summary
# sits in the (height, ymax, ymin) triples that _recompute builds.
NE = ("right", 1)
SE = ("right", 2)
SW = ("left", 2)
NW = ("left", 1)


def _recompute(tree: AugTree, selectors: tuple) -> dict[int, int]:
    """Colors by the rule over k selectors, from one post-order pass that
    recomputes (height, ymax, ymin) from the children, ignoring the stored
    fields.  At an internal node of height h, the object that selector j
    names gets the key (h, -j); an object's color is k*h + j from its
    largest key, which is (0, 0) when no node names it."""
    best: dict[int, tuple[int, int]] = {}

    def go(v: Node) -> tuple:
        if v.payload is not None:
            best[v.payload] = (0, 0)
            return 0, v.ymax, v.ymin
        left, right = go(v.left), go(v.right)
        h = max(left[0], right[0]) + 1
        for j, (side, summary) in enumerate(selectors):
            oid = (right if side == "right" else left)[summary].tiebreak
            if (h, -j) > best[oid]:
                best[oid] = (h, -j)
        return h, max(left[1], right[1]), min(left[2], right[2])

    if tree.root is not None:
        go(tree.root)
    k = len(selectors)
    return {oid: k * h - neg_j for oid, (h, neg_j) in best.items()}


def recompute_anchored_colors(tree: AugTree) -> dict[int, int]:
    """The anchored rule: the height of the highest node whose NE summary
    names the object."""
    return _recompute(tree, (NE,))


def recompute_pinned_square_colors(tree: AugTree) -> dict[int, int]:
    """The unit-square rule: 4*h + j over NE, SE, SW, NW."""
    return _recompute(tree, (NE, SE, SW, NW))


def recompute_common_point_colors(east: AugTree, west: AugTree) -> dict[int, tuple[int, int]]:
    """Pair colors of a common-point cell: (NE, SE) east, (NW, SW) west."""
    e = _recompute(east, (NE, SE))
    w = _recompute(west, (NW, SW))
    return {oid: (e[oid], w[oid]) for oid in e}
