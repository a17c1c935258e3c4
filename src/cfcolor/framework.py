"""Generic dynamization engines over static unimax colorers.

Both engines partition the live set into level sets S_0..S_l of capacity
2^i and maintain, per set, a final unimax coloring drawn from a reserved
color set C(i, t) plus the machinery to migrate objects toward it a few
recolorings at a time.

The coloring state of one level is a Piece: the final colorer over all
members, the subset `star` already wearing final colors, an optional
pinned object (the insertion that created the migration, always worn
final), and child Pieces carrying the temporary colorings the remaining
members still wear.  A settled set is a Piece with star == members and no
children.  Upward migrations absorb settled pieces as children; the
downward migration of the last set may absorb pieces frozen mid-upward-
migration, which keeps the recursion depth bounded.

Apart from the pinned object, the star is always a prefix of the members
in (-final color, id) order.  A migrating or frozen Piece keeps that order
as a list, `order`, and the prefix length, `cut`: star ==
set(order[:cut]) | {pinned}.  A migration step takes the entry at the cut
(skipping the pinned object) and advances it, in O(1).  A weak deletion
changes at most a few final colors, so the star repair re-sorts only those
members and compares the old and new stars only near the new cut.
Settled pieces drop the order: they never migrate or repair again.

One insertion serves both engines: merge the sets below the first empty
one, plus the new object, into S_j with j = ceil(log2(merged size)),
final-color it from an unused color set, then recolor one pending object
of maximal final color in every migrating set.  The engines differ only
in their policy: how many color sets C(j, t) the availability lemma
allows in use before the allocation, how many migration steps the last
set takes per update, and the per-insertion recoloring bound.

* SemiDynamicEngine, insertion only: the lower sets are full, so j is
  the first empty level i; t <= l - i; one step at the last set; at most
  ceil(log2 n) recolorings per insertion.

* FullyDynamicEngine adds weak deletions: a deletion weak-deletes inside
  the hosting temporary piece and on the final coloring, then repairs the
  star so it again consists of the top final colors (plus the pinned
  object); when the last set shrinks to a quarter capacity the last three
  sets merge into a downward migration.  t <= l; two steps at the last
  set per insertion, and per deletion that touched it; at most 2(l+1)
  recolorings per insertion and 6r+2 per deletion.

An insertion is atomic up to its recoloring check: the colorer build and
the availability check run before the engine changes.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field

from .augtree import ViolationReport
from .geom import GlobalColor, ObjectId, RecolorDiff, UnknownId, pair_encode

PaletteKey = tuple[int, int]  # (level, t)

EMPTY = "empty"
SETTLED = "full"          # the paper's full / non-empty state
UP = "up-migration"
DOWN = "down-migration"


class BoundExceeded(AssertionError):
    """An update broke one of the paper's per-update bounds.

    Raised by explicit checks, so it fires under `python -O` too."""


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length() if n >= 1 else 0


def rank(colors: dict[ObjectId, int]):
    """Sort key of the migration order: higher final color first, then lower id."""
    return lambda o: (-colors[o], o)


class PalettePool:
    """Reserved color sets C(level, t); a palette is in use while any live
    coloring references it."""

    def __init__(self) -> None:
        self.in_use: set[PaletteKey] = set()
        self.load: dict[int, int] = {}  # level -> palettes of that level in use

    def level_load(self, level: int) -> int:
        return self.load.get(level, 0)

    def allocate(self, level: int, limit: int) -> PaletteKey:
        """Smallest free slot C(level, t).

        The color-set availability lemma: at most `limit` color sets of the
        level are in use, so some t <= limit is free."""
        if self.level_load(level) > limit:
            raise BoundExceeded(
                f"color-set availability lemma failed: more than {limit} "
                f"color sets C({level}, t) in use")
        t = 0
        while (level, t) in self.in_use:
            t += 1
        key = (level, t)
        self.in_use.add(key)
        self.load[level] = self.load.get(level, 0) + 1
        return key

    def release(self, key: PaletteKey) -> None:
        self.in_use.remove(key)
        self.load[key[0]] -= 1


@dataclass
class Piece:
    """One set's coloring: final colorer, worn subset, temporary children.

    `colors` is the colorer's own colors dict, bound once: the colorer
    updates it in place, and the hot paths read it directly.

    While the piece migrates or is frozen, `order` lists the members by
    rank(colors) and star == set(order[:cut]) | {pinned}; a settled piece
    has order None."""

    palette: PaletteKey
    colorer: object
    colors: dict[ObjectId, int]
    members: set[ObjectId]
    star: set[ObjectId]
    pinned: ObjectId | None
    children: list["Piece"] = field(default_factory=list)
    order: list[ObjectId] | None = None
    cut: int = 0

    @property
    def level(self) -> int:
        return self.palette[0]

    @property
    def settled(self) -> bool:
        return not self.children and self.star == self.members

    def final_color(self, oid: ObjectId) -> GlobalColor:
        return GlobalColor(pair_encode(*self.palette), self.colors[oid])


@dataclass
class Level:
    index: int
    state: str = EMPTY
    piece: Piece | None = None

    def size(self) -> int:
        return len(self.piece.members) if self.piece is not None else 0


class _EngineBase:
    """Shared level/piece machinery and the insertion.

    A subclass gives the policy: LAST_STEPS, _palette_limit(ell, level),
    the color sets C(level, t) that may be in use before an insertion's
    allocation, and _insert_bound(), the recolorings allowed for the
    insertion just made."""

    LAST_STEPS = 1  # migration steps per update at the last set

    def __init__(self, colorer_cls, range_checker=None) -> None:
        self.colorer_cls = colorer_cls
        self.range_checker = range_checker  # (points, colors) -> Witness | None
        self.pool = PalettePool()
        self.levels: list[Level] = [Level(0)]
        self.objects: dict[ObjectId, object] = {}
        self.locate: dict[ObjectId, int] = {}
        self.actual: dict[ObjectId, GlobalColor] = {}
        self.total_recolorings = 0

    # -- views ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.objects)

    @property
    def ell(self) -> int:
        return len(self.levels) - 1

    def set_states(self) -> list[str]:
        return [lv.state for lv in self.levels]

    def global_colors(self) -> dict[ObjectId, GlobalColor]:
        return dict(self.actual)

    # -- piece helpers ---------------------------------------------------------

    def _resolve(self, piece: Piece, oid: ObjectId) -> GlobalColor:
        while oid not in piece.star:
            piece = next(ch for ch in piece.children if oid in ch.members)
        return piece.final_color(oid)

    def _release_piece(self, piece: Piece) -> None:
        self.pool.release(piece.palette)
        for ch in piece.children:
            self._release_piece(ch)

    def _settle_if_done(self, level: Level) -> None:
        piece = level.piece
        # the star is a subset of the members
        if piece is not None and len(piece.star) == len(piece.members):
            for ch in piece.children:
                self._release_piece(ch)
            piece.children = []
            piece.pinned = None
            piece.order = None
            level.state = SETTLED

    def _progress_one(self, level: Level) -> set[ObjectId]:
        """Recolor the pending object with maximal final color (ties: lowest
        id): the entry at the cut, or past it when that one is pinned."""
        piece = level.piece
        order, cut = piece.order, piece.cut
        if order[cut] == piece.pinned:
            cut += 1
        chosen = order[cut]
        piece.cut = cut + 1
        piece.star.add(chosen)
        self._settle_if_done(level)
        return {chosen}

    def _advance(self, level: Level, steps: int) -> set[ObjectId]:
        """Up to `steps` migration steps at a level, stopping once it settles."""
        cands: set[ObjectId] = set()
        for _ in range(steps):
            if level.state not in (UP, DOWN):
                break
            cands |= self._progress_one(level)
        return cands

    def _repair_cut(self, piece: Piece, changed: dict[ObjectId, int]) -> set[ObjectId]:
        """Re-sort the members whose final colors changed and restore the
        star to {top final colors} + pinned, size-preserving.

        Members off `changed` keep their relative order, so the old and new
        stars, less those members and the pinned one, are prefixes of one
        sequence whose lengths differ by at most k = len(changed).  They
        differ only within 2k+1 places of the new cut."""
        order, star, pinned = piece.order, piece.star, piece.pinned
        key = rank(piece.colors)
        for m in changed:
            order.remove(m)
        for m in changed:
            insort(order, m, key=key)
        cut = len(star) - (pinned is not None)
        if pinned is not None and bisect_left(order, key(pinned), key=key) < cut:
            cut += 1
        edge = key(order[cut - 1]) if cut else None
        w = 2 * len(changed) + 1
        added: set[ObjectId] = set()
        removed: set[ObjectId] = set()
        for o in set(order[max(0, cut - w):cut + w]).union(changed):
            if o == pinned or (edge is not None and key(o) <= edge):
                if o not in star:
                    added.add(o)
            elif o in star:
                removed.add(o)
        budget = max(1, len(changed))
        if len(added) > budget or len(removed) > budget:
            raise BoundExceeded("star repair exceeded the weak-deletion budget")
        star -= removed
        star |= added
        piece.cut = cut
        return added | removed

    def _piece_delete(self, piece: Piece, oid: ObjectId) -> set[ObjectId]:
        """Weak deletion inside a piece tree; returns recolor candidates."""
        order = piece.order
        if order is not None:
            # found while oid still has its final color; the repair below
            # sets the cut afresh
            key = rank(piece.colors)
            del order[bisect_left(order, key(oid), key=key)]
        piece.members.remove(oid)
        piece.star.discard(oid)
        if piece.pinned == oid:
            piece.pinned = None
        cands: set[ObjectId] = set()
        # temporary coloring first (the hosting child), then the final coloring
        child = next((c for c in piece.children if oid in c.members), None)
        if child is not None:
            cands |= self._piece_delete(child, oid)
            if not child.members:
                piece.children.remove(child)
                self._release_piece(child)
        changed_final = piece.colorer.weak_delete(oid)
        cands |= set(changed_final)
        if piece.children:
            cands |= self._repair_cut(piece, changed_final)
        else:
            # every member wears its final color: the piece has settled
            piece.order = None
        return cands

    def _reconcile(self, cands: set[ObjectId], diff: RecolorDiff,
                   assigned: ObjectId | None = None) -> None:
        for oid in sorted(cands):
            if oid not in self.objects:
                continue
            piece = self.levels[self.locate[oid]].piece
            new = self._resolve(piece, oid)
            old = self.actual.get(oid)
            if oid == assigned:
                self.actual[oid] = new
                diff.assigned = (oid, new)
            elif old != new:
                self.actual[oid] = new
                diff.changed[oid] = (old, new)
        self.total_recolorings += diff.recolorings

    def _take_levels(self, lo: int, hi: int) -> tuple[list[Piece], set[ObjectId]]:
        """Empty levels lo..hi-1: their non-empty pieces, lowest level
        first, and the union of their members."""
        pieces: list[Piece] = []
        members: set[ObjectId] = set()
        for lv in self.levels[lo:hi]:
            if lv.piece is not None:
                if lv.piece.members:
                    pieces.append(lv.piece)
                    members |= lv.piece.members
                else:
                    self._release_piece(lv.piece)
            lv.piece = None
            lv.state = EMPTY
        return pieces, members

    def _open(self, level: Level, state: str, palette: PaletteKey, colorer,
              members: set[ObjectId], children: list[Piece],
              pinned: ObjectId | None = None) -> None:
        """Start a migration of `members` at a level toward the colorer's coloring."""
        colors = colorer.colors
        # by id, then stably by falling color: the order rank(colors) gives
        order = sorted(members)
        order.sort(key=colors.__getitem__, reverse=True)
        level.piece = Piece(palette, colorer, colors, members,
                            star=set() if pinned is None else {pinned},
                            pinned=pinned, children=children, order=order)
        level.state = state
        index = level.index
        for o in members:
            self.locate[o] = index
        self._settle_if_done(level)

    # -- updates ------------------------------------------------------------------

    def insert(self, oid: ObjectId, obj) -> RecolorDiff:
        """Merge the sets below the first empty one, plus oid, into S_j with
        j = ceil(log2(merged size)), then advance every migrating set."""
        if oid in self.objects:
            raise ValueError(f"duplicate object id {oid}")
        levels = self.levels
        i = next((lv.index for lv in levels if lv.state == EMPTY), len(levels))
        below = levels[:i]
        for lv in below:
            assert lv.state == SETTLED, \
                "sets below the first empty one must be non-empty and settled"
        points = {o: self.objects[o] for lv in below for o in lv.piece.members}
        points[oid] = obj
        j = ceil_log2(len(points))
        colorer = self.colorer_cls(points)
        palette = self.pool.allocate(j, self._palette_limit(max(self.ell, i), j))

        if i == len(levels):
            levels.append(Level(i))
        # members by union, not set(points): half the table size, and every
        # migration step scans the table
        children, members = self._take_levels(0, i)
        members.add(oid)
        self.objects[oid] = obj
        self._open(levels[j], UP, palette, colorer, members, children, pinned=oid)
        # when the merge consumed every set, the merged one is the new last set
        while len(levels) > j + 1 and levels[-1].state == EMPTY:
            levels.pop()

        ell = self.ell
        cands = {oid}
        for lv in levels:
            if lv.state in (UP, DOWN):
                cands |= (self._advance(lv, self.LAST_STEPS) if lv.index == ell
                          else self._progress_one(lv))
        diff = RecolorDiff()
        self._reconcile(cands, diff, assigned=oid)
        if diff.recolorings > self._insert_bound():
            raise BoundExceeded("recoloring bound per insertion exceeded")
        return diff

    # -- shared invariant checks ------------------------------------------------

    def _check_pieces(self, unimax_limit: int) -> ViolationReport | None:
        seen_palettes: set[PaletteKey] = set()

        def walk(piece: Piece) -> ViolationReport | None:
            if piece.palette in seen_palettes:
                return ViolationReport(None, f"palette {piece.palette} used twice")
            seen_palettes.add(piece.palette)
            colors = piece.colors
            if set(colors) != piece.members:
                return ViolationReport(None, "final coloring out of sync with members")
            if not piece.star <= piece.members:
                return ViolationReport(None, "star not a subset of members")
            if piece.pinned is not None and piece.pinned not in piece.star:
                return ViolationReport(None, "pinned object not wearing final color")
            hosted: set[ObjectId] = set()
            for ch in piece.children:
                if hosted & ch.members:
                    return ViolationReport(None, "children overlap")
                hosted |= ch.members
                bad = walk(ch)
                if bad is not None:
                    return bad
            levels_used = [ch.level for ch in piece.children]
            if len(set(levels_used)) != len(levels_used):
                return ViolationReport(None, "two children share a color-set level")
            extra = piece.members - hosted
            allowed_extra = {piece.pinned} if piece.pinned is not None else set()
            if piece.children and not extra <= allowed_extra:
                return ViolationReport(
                    None, "Inv-C-Mig-2: member without a temporary color is not the pinned one")
            if piece.children:
                out = piece.members - piece.star
                if out:
                    z = max(colors[o] for o in out)
                    violators = [o for o in piece.star if colors[o] < z]
                    if len(violators) > 1:
                        return ViolationReport(
                            None, f"Inv-C-Mig-2: star cut broken below z={z}")
            if not piece.children and piece.star != piece.members:
                return ViolationReport(None, "settled piece with unworn members")
            order = piece.order
            if order is not None:
                if len(order) != len(piece.members) or set(order) != piece.members:
                    return ViolationReport(
                        None, "migration order is not a permutation of the members")
                # one pairwise pass, no sort
                keys = list(map(rank(colors), order))
                if any(map(tuple.__gt__, keys, keys[1:])):
                    return ViolationReport(None, "migration order not sorted by final color")
                if set(order[:piece.cut]) | allowed_extra != piece.star:
                    return ViolationReport(
                        None, "star is not the migration order's prefix plus the pinned object")
            if (self.range_checker is not None
                    and len(piece.members) <= unimax_limit and piece.members):
                witness = self.range_checker(
                    {o: self.objects[o] for o in piece.members},
                    dict(colors))
                if witness is not None:
                    return ViolationReport(
                        None, f"final coloring not unimax: {witness}")
            return None

        for lv in self.levels:
            if (lv.piece is None) != (lv.state == EMPTY):
                return ViolationReport(None, f"level {lv.index} state/piece mismatch")
            if lv.piece is not None:
                bad = walk(lv.piece)
                if bad is not None:
                    return bad
                if not lv.piece.members:
                    return ViolationReport(None, f"level {lv.index} empty but marked {lv.state}")
                if lv.state == SETTLED and not lv.piece.settled:
                    return ViolationReport(None, f"level {lv.index} marked settled mid-migration")
                if lv.state in (UP, DOWN) and lv.piece.settled:
                    return ViolationReport(None, f"level {lv.index} migration already complete")
        if seen_palettes != self.pool.in_use:
            return ViolationReport(None, "palette pool out of sync with live colorings")
        # Counter equality treats a level whose load fell to 0 as absent
        if Counter(self.pool.load) != Counter(lv for lv, _ in seen_palettes):
            return ViolationReport(None, "palette pool level loads out of sync")
        if self.locate.keys() != self.objects.keys():
            return ViolationReport(None, "locate out of sync with the live objects")
        if self.actual.keys() != self.objects.keys():
            return ViolationReport(None, "actual colors out of sync with the live objects")
        for oid, i in self.locate.items():
            piece = self.levels[i].piece if 0 <= i < len(self.levels) else None
            if piece is None or oid not in piece.members:
                return ViolationReport(
                    None, f"locate puts {oid} at level {i}, which does not hold it")
            if self._resolve(piece, oid) != self.actual[oid]:
                return ViolationReport(None, f"actual color of {oid} out of sync")
        return None


class SemiDynamicEngine(_EngineBase):
    """Insertion-only engine: at most ceil(log2 n) recolorings per insertion."""

    def _palette_limit(self, ell: int, level: int) -> int:
        # the color sets for level i are C(i, 0..l-i); one must be free
        return ell - level

    def _insert_bound(self) -> int:
        return ceil_log2(len(self.objects))

    def check_invariants(self, unimax_limit: int = 32) -> ViolationReport | None:
        for lv in self.levels:
            if lv.state not in (EMPTY, SETTLED, UP):
                return ViolationReport(None, f"level {lv.index} in state {lv.state}")
            if lv.piece is not None and lv.size() != 2 ** lv.index:
                return ViolationReport(
                    None, f"level {lv.index} holds {lv.size()} != 2^{lv.index} objects")
        return self._check_pieces(unimax_limit)


class FullyDynamicEngine(_EngineBase):
    """Insertions and deletions via weak deletions and downward migrations."""

    LAST_STEPS = 2

    def _palette_limit(self, ell: int, level: int) -> int:
        return ell

    def _insert_bound(self) -> int:
        return 2 * (self.ell + 1)

    def delete(self, oid: ObjectId) -> RecolorDiff:
        if oid not in self.objects:
            raise UnknownId(oid)
        i = self.locate[oid]
        level = self.levels[i]
        last = self.ell
        at_minimum = (i == last and level.size() == 2 ** (last - 2)
                      and last >= 2)
        old_color = self.actual[oid]
        cands: set[ObjectId] = set()

        if not at_minimum:
            cands |= self._piece_delete(level.piece, oid)
            if not level.piece.members:
                self._take_levels(i, i + 1)
            else:
                self._settle_if_done(level)
        else:
            cands |= self._merge_last_three(oid)

        del self.objects[oid]
        del self.locate[oid]
        del self.actual[oid]

        # two recolorings in the last set when the deletion touched it
        last_level = self.levels[self.ell]
        if i >= self.ell and last_level.state in (UP, DOWN):
            cands |= self._advance(last_level, self.LAST_STEPS)

        diff = RecolorDiff()
        self._reconcile(cands - {oid}, diff)
        diff.removed = (oid, old_color)
        r = self.colorer_cls.max_recolorings(len(self.objects) + 1)
        if diff.recolorings > 6 * r + 2:
            raise BoundExceeded("recoloring bound per deletion exceeded")
        return diff

    def _merge_last_three(self, oid: ObjectId) -> set[ObjectId]:
        """Downward migration: the last set hit quarter capacity."""
        ell_prime = self.ell
        last = self.levels[ell_prime]
        assert last.state == SETTLED, \
            "last set must not be in migration when a downward migration starts"
        cands = self._piece_delete(last.piece, oid)
        parts, members = self._take_levels(ell_prime - 2, ell_prime + 1)
        if not members:
            # the engine emptied out entirely
            assert set(self.objects) == {oid}
            self.levels = [Level(0)]
            return cands

        fits = len(members) <= 2 ** (ell_prime - 1)
        if fits:
            self.levels.pop()
        target = self.levels[ell_prime - 1 if fits else ell_prime]
        colorer = self.colorer_cls({o: self.objects[o] for o in members})
        palette = self.pool.allocate(target.index, self.ell + 1)
        self._open(target, DOWN, palette, colorer, members, parts)
        return cands

    def check_invariants(self, unimax_limit: int = 32) -> ViolationReport | None:
        last = self.ell
        for lv in self.levels:
            if lv.state == DOWN and lv.index != last:
                return ViolationReport(None, "downward migration below the last set")
            if lv.index < last and lv.size() > 2 ** lv.index:
                return ViolationReport(None, f"Inv-S: level {lv.index} over capacity")
        last_size = self.levels[last].size()
        if last_size > 2 ** last:
            return ViolationReport(None, "Inv-S: last set over capacity")
        if len(self.objects) > 1 and last_size < 2 ** (last - 2):
            return ViolationReport(None, "Inv-S: last set below quarter capacity")
        return self._check_pieces(unimax_limit)
