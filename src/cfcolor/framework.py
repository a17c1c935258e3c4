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

The semi-dynamic engine implements the insertion-only scheme: merge the
lowest sets into the first empty one, final-color it from an unused color
set, and on every insertion recolor one pending object of maximal final
color in every migrating set, which caps recolorings per insertion at
ceil(log2 n).

The fully dynamic engine adds weak deletions: a deletion weak-deletes
inside the hosting temporary piece and on the final coloring, then repairs
the star so it again consists of the top final colors (plus the pinned
object); when the last set shrinks to a quarter capacity the last three
sets merge into a downward migration.  Insertions recolor up to two
objects in the last set, deletions finish with two recolorings there.
"""

from __future__ import annotations

import math
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


class PalettePool:
    """Reserved color sets C(level, t); a palette is in use while any live
    coloring references it."""

    def __init__(self) -> None:
        self.in_use: set[PaletteKey] = set()
        self.load: dict[int, int] = {}  # level -> palettes of that level in use

    def level_load(self, level: int) -> int:
        return self.load.get(level, 0)

    def allocate(self, level: int, t_limit: int) -> PaletteKey:
        """Smallest free slot; the caller's lemma guarantees t <= t_limit."""
        t = 0
        while (level, t) in self.in_use:
            t += 1
        if t > t_limit:
            raise BoundExceeded(
                f"no free color set C({level}, t) within t <= {t_limit}")
        key = (level, t)
        self.in_use.add(key)
        self.load[level] = self.load.get(level, 0) + 1
        return key

    def release(self, key: PaletteKey) -> None:
        self.in_use.remove(key)
        self.load[key[0]] -= 1


@dataclass
class Piece:
    """One set's coloring: final colorer, worn subset, temporary children."""

    palette: PaletteKey
    colorer: object
    members: set[ObjectId]
    star: set[ObjectId]
    pinned: ObjectId | None
    children: list["Piece"] = field(default_factory=list)

    @property
    def level(self) -> int:
        return self.palette[0]

    @property
    def settled(self) -> bool:
        return not self.children and self.star == self.members

    def final_color(self, oid: ObjectId) -> GlobalColor:
        return GlobalColor(pair_encode(*self.palette), self.colorer.colors[oid])


@dataclass
class Level:
    index: int
    state: str = EMPTY
    piece: Piece | None = None

    def size(self) -> int:
        return len(self.piece.members) if self.piece is not None else 0


class _EngineBase:
    """Shared level/piece machinery; subclasses drive the update steps."""

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
        if piece is not None and piece.star == piece.members:
            for ch in piece.children:
                self._release_piece(ch)
            piece.children = []
            piece.pinned = None
            level.state = SETTLED

    def _progress_one(self, level: Level) -> set[ObjectId]:
        """Recolor the pending object with maximal final color (ties: lowest id)."""
        piece = level.piece
        pending = piece.members - piece.star
        if not pending:
            self._settle_if_done(level)
            return set()
        chosen = min(pending, key=lambda o: (-piece.colorer.colors[o], o))
        piece.star.add(chosen)
        self._settle_if_done(level)
        return {chosen}

    def _repair_cut(self, piece: Piece, budget: int) -> set[ObjectId]:
        """Restore the star to {top final colors} + pinned, size-preserving."""
        others_quota = len(piece.star) - (1 if piece.pinned is not None else 0)
        ranked = sorted((o for o in piece.members if o != piece.pinned),
                        key=lambda o: (-piece.colorer.colors[o], o))
        target = set(ranked[:others_quota])
        if piece.pinned is not None:
            target.add(piece.pinned)
        added = target - piece.star
        removed = piece.star - target
        if len(added) > budget or len(removed) > budget:
            raise BoundExceeded("star repair exceeded the weak-deletion budget")
        piece.star = target
        return added | removed

    def _piece_delete(self, piece: Piece, oid: ObjectId) -> set[ObjectId]:
        """Weak deletion inside a piece tree; returns recolor candidates."""
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
            cands |= self._repair_cut(piece, budget=max(1, len(changed_final)))
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

    def _first_empty(self) -> int:
        for lv in self.levels:
            if lv.state == EMPTY:
                return lv.index
        self.levels.append(Level(len(self.levels)))
        return self.ell

    def _gather_children(self, upto: int) -> tuple[list[Piece], set[ObjectId]]:
        children: list[Piece] = []
        members: set[ObjectId] = set()
        for m in range(upto):
            lv = self.levels[m]
            children.append(lv.piece)
            members |= lv.piece.members
            lv.piece = None
            lv.state = EMPTY
        return children, members

    # -- shared invariant checks ------------------------------------------------

    def _check_pieces(self, unimax_limit: int) -> ViolationReport | None:
        seen_palettes: set[PaletteKey] = set()

        def walk(piece: Piece, top: bool) -> ViolationReport | None:
            if piece.palette in seen_palettes:
                return ViolationReport(None, f"palette {piece.palette} used twice")
            seen_palettes.add(piece.palette)
            if set(piece.colorer.colors) != piece.members:
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
                bad = walk(ch, top=False)
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
                    z = max(piece.colorer.colors[o] for o in out)
                    violators = [o for o in piece.star
                                 if piece.colorer.colors[o] < z]
                    if len(violators) > 1:
                        return ViolationReport(
                            None, f"Inv-C-Mig-2: star cut broken below z={z}")
            if not piece.children and piece.star != piece.members:
                return ViolationReport(None, "settled piece with unworn members")
            if (self.range_checker is not None
                    and len(piece.members) <= unimax_limit and piece.members):
                witness = self.range_checker(
                    {o: self.objects[o] for o in piece.members},
                    dict(piece.colorer.colors))
                if witness is not None:
                    return ViolationReport(
                        None, f"final coloring not unimax: {witness}")
            return None

        for lv in self.levels:
            if (lv.piece is None) != (lv.state == EMPTY):
                return ViolationReport(None, f"level {lv.index} state/piece mismatch")
            if lv.piece is not None:
                bad = walk(lv.piece, top=True)
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
        for oid in self.objects:
            piece = self.levels[self.locate[oid]].piece
            if self._resolve(piece, oid) != self.actual[oid]:
                return ViolationReport(None, f"actual color of {oid} out of sync")
        return None


class SemiDynamicEngine(_EngineBase):
    """Insertion-only engine: at most ceil(log2 n) recolorings per insertion."""

    def insert(self, oid: ObjectId, obj) -> RecolorDiff:
        if oid in self.objects:
            raise ValueError(f"duplicate object id {oid}")
        i = self._first_empty()
        for m in range(i):
            assert self.levels[m].state == SETTLED, \
                "sets below the first empty one must be full"
        children, members = self._gather_children(i)
        members.add(oid)
        self.objects[oid] = obj

        # the color sets for level i are C(i, 0..l-i); one must be free
        t_limit = self.ell - i
        if self.pool.level_load(i) > t_limit:
            raise BoundExceeded("color-set availability lemma failed")
        palette = self.pool.allocate(i, t_limit)
        colorer = self.colorer_cls({o: self.objects[o] for o in members})
        piece = Piece(palette, colorer, members, star={oid}, pinned=oid,
                      children=children)
        target = self.levels[i]
        target.piece = piece
        target.state = UP
        for o in members:
            self.locate[o] = i
        self._settle_if_done(target)

        cands: set[ObjectId] = set()
        for lv in self.levels:
            if lv.state == UP:
                cands |= self._progress_one(lv)
        diff = RecolorDiff()
        self._reconcile(cands | {oid}, diff, assigned=oid)
        if diff.recolorings > ceil_log2(len(self.objects)):
            raise BoundExceeded("recoloring bound per insertion exceeded")
        return diff

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

    def insert(self, oid: ObjectId, obj) -> RecolorDiff:
        if oid in self.objects:
            raise ValueError(f"duplicate object id {oid}")
        i = self._first_empty()
        for m in range(i):
            assert self.levels[m].state == SETTLED, \
                "sets below the first empty one must be non-empty and settled"
        total = 1 + sum(self.levels[m].size() for m in range(i))
        j = 0
        while 2 ** j < total:
            j += 1
        if j == len(self.levels):
            self.levels.append(Level(len(self.levels)))

        children, members = self._gather_children(i)
        members.add(oid)
        self.objects[oid] = obj

        if self.pool.level_load(j) > self.ell:
            raise BoundExceeded("color-set availability lemma failed")
        palette = self.pool.allocate(j, self.ell + 1)
        colorer = self.colorer_cls({o: self.objects[o] for o in members})
        piece = Piece(palette, colorer, members, star={oid}, pinned=oid,
                      children=children)
        target = self.levels[j]
        target.piece = piece
        target.state = UP
        for o in members:
            self.locate[o] = j
        self._settle_if_done(target)
        # when the merge consumed every set, the merged one is the new last set
        while len(self.levels) > j + 1 and self.levels[-1].state == EMPTY:
            self.levels.pop()

        cands: set[ObjectId] = set()
        for lv in self.levels:
            if lv.state in (UP, DOWN):
                cands |= self._progress_one(lv)
                if lv.index == self.ell and lv.state in (UP, DOWN):
                    cands |= self._progress_one(lv)
        diff = RecolorDiff()
        self._reconcile(cands | {oid}, diff, assigned=oid)
        if diff.recolorings > 2 * (self.ell + 1):
            raise BoundExceeded("recoloring bound per insertion exceeded")
        return diff

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
                self._release_piece(level.piece)
                level.piece = None
                level.state = EMPTY
            else:
                self._settle_if_done(level)
        else:
            cands |= self._merge_last_three(oid)

        del self.objects[oid]
        del self.locate[oid]
        del self.actual[oid]

        # two recolorings in the last set when the deletion touched it
        if i >= self.ell:
            last_level = self.levels[self.ell]
            if last_level.state in (UP, DOWN):
                cands |= self._progress_one(last_level)
                if last_level.state in (UP, DOWN):
                    cands |= self._progress_one(last_level)

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

        parts: list[Piece] = []
        members: set[ObjectId] = set()
        for idx in (ell_prime - 2, ell_prime - 1, ell_prime):
            lv = self.levels[idx]
            if lv.piece is not None and lv.piece.members:
                parts.append(lv.piece)
                members |= lv.piece.members
            elif lv.piece is not None:
                self._release_piece(lv.piece)
            lv.piece = None
            lv.state = EMPTY

        if not members:
            # the engine emptied out entirely
            assert set(self.objects) == {oid}
            self.levels = [Level(0)]
            return cands

        fits = len(members) <= 2 ** (ell_prime - 1)
        if fits:
            self.levels.pop()
        target = self.levels[ell_prime - 1 if fits else ell_prime]

        if self.pool.level_load(target.index) > self.ell + 1:
            raise BoundExceeded("color-set availability lemma failed at downward migration")
        palette = self.pool.allocate(target.index, self.ell + 1)
        colorer = self.colorer_cls(
            {o: self.objects[o] for o in members})
        target.piece = Piece(palette, colorer, members, star=set(), pinned=None,
                             children=parts)
        target.state = DOWN
        for o in members:
            self.locate[o] = target.index
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
