import math
import random

import pytest

from cfcolor.framework import (
    BoundExceeded,
    DOWN,
    EMPTY,
    SETTLED,
    UP,
    FullyDynamicEngine,
    SemiDynamicEngine,
    ceil_log2,
)
from cfcolor.geom import DuplicateId, Pt
from cfcolor.harness import generate_workload, make_structure
from cfcolor.oracle import (
    check_cf_intervals,
    check_cf_rect_ranges,
    check_unimax_intervals,
    check_unimax_rect_ranges,
)
from cfcolor.unimax import IntervalPointColorer, RectPointColorer
from reference import interval_palette_size, next_pending, star_target


def interval_checker(points, colors):
    return check_unimax_intervals([(points[o], colors[o]) for o in points])


def rect_checker(points, colors):
    return check_unimax_rect_ranges([(points[o], colors[o]) for o in points])


def semi_1d():
    return SemiDynamicEngine(IntervalPointColorer, interval_checker)


def full_1d():
    return FullyDynamicEngine(IntervalPointColorer, interval_checker)


def full_2d():
    return FullyDynamicEngine(RectPointColorer, rect_checker)


def combined_cf_1d(engine):
    return check_cf_intervals(list(engine.live.values()))


def combined_cf_2d(engine):
    return check_cf_rect_ranges(list(engine.live.values()))


# -- semi-dynamic hand traces --------------------------------------------------

def test_semi_first_insert():
    e = semi_1d()
    diff = e.insert(0, 1.0)
    assert diff.recolorings == 0
    assert diff.assigned is not None
    assert e.set_states() == [SETTLED]
    assert e.check_invariants() is None


def test_semi_second_insert_migrates_first_object():
    e = semi_1d()
    e.insert(0, 1.0)
    diff = e.insert(1, 2.0)
    assert diff.recolorings == 1
    assert set(diff.changed) == {0}
    assert e.set_states() == [EMPTY, SETTLED]
    assert e.check_invariants() is None


def test_semi_third_insert_fills_level_zero():
    e = semi_1d()
    e.insert(0, 1.0)
    e.insert(1, 2.0)
    diff = e.insert(2, 3.0)
    assert diff.recolorings == 0
    assert e.set_states() == [SETTLED, SETTLED]
    assert len(e.levels[1].colors) == 2
    assert e.check_invariants() is None


def test_semi_lower_sets_full_at_merge():
    e = semi_1d()
    rng = random.Random(1)
    for oid in range(64):  # the Lemma assert inside insert fires on violation
        e.insert(oid, rng.random())
        assert e.check_invariants() is None


def test_semi_recoloring_bound_and_cf():
    e = semi_1d()
    rng = random.Random(2)
    for oid in range(600):
        diff = e.insert(oid, rng.uniform(0, 1000))
        n = len(e)
        assert diff.recolorings <= ceil_log2(n)
        if oid % 25 == 0:
            assert e.check_invariants() is None
            assert combined_cf_1d(e) is None
    assert combined_cf_1d(e) is None


def test_semi_color_budget():
    # distinct colors <= sum over levels of (l - i + 1) palettes of size gamma(2^i)
    e = semi_1d()
    rng = random.Random(3)
    for oid in range(512):
        e.insert(oid, rng.uniform(0, 100))
    ell = e.ell
    budget = sum((ell - i + 1) * interval_palette_size(2 ** i)
                 for i in range(ell + 1))
    assert len(set(e.global_colors().values())) <= budget


def test_semi_rejects_duplicate_id():
    e = semi_1d()
    e.insert(0, 1.0)
    with pytest.raises(ValueError):
        e.insert(0, 2.0)


@pytest.mark.parametrize("make, point", [(semi_1d, 2.0), (full_1d, 2.0), (full_2d, Pt(2.0, 2.0))])
def test_engines_refuse_a_repeated_id_as_the_geometric_structures_do(make, point):
    e = make()
    e.insert(0, point)
    before = (len(e), e.set_states(), e.global_colors())
    with pytest.raises(DuplicateId):
        e.insert(0, point)
    assert (len(e), e.set_states(), e.global_colors()) == before


# -- fully dynamic: insertions ---------------------------------------------------

def test_full_first_insert():
    e = full_1d()
    diff = e.insert(0, 5.0)
    assert diff.recolorings == 0
    assert e.set_states() == [SETTLED]
    assert e.check_invariants() is None


def test_full_merge_into_sublast_level_one_recoloring_there():
    e = full_1d()
    rng = random.Random(4)
    for oid in range(11):
        e.insert(oid, rng.uniform(0, 100))
    # state now: S_0, S_1 settled, S_2 empty, S_3 settled (migration finished)
    assert e.set_states() == [SETTLED, SETTLED, EMPTY, SETTLED]
    diff = e.insert(11, rng.uniform(0, 100))
    lvl2 = e.levels[2]
    assert e.set_states()[2] == UP
    assert {ch.level for ch in lvl2.children} == {0, 1}
    assert len(lvl2.colors) == 4
    assert diff.recolorings <= 1  # S_2 is below the last set: one recoloring
    assert e.check_invariants() is None


def test_full_insert_bound():
    e = full_1d()
    rng = random.Random(5)
    for oid in range(300):
        diff = e.insert(oid, rng.uniform(0, 1000))
        assert diff.recolorings <= 2 * (e.ell + 1)
    assert e.check_invariants() is None


# -- fully dynamic: deletions ----------------------------------------------------

def test_delete_only_object():
    e = full_1d()
    e.insert(0, 5.0)
    diff = e.delete(0)
    assert diff.recolorings == 0
    assert len(e) == 0
    assert e.check_invariants() is None


def test_delete_from_settled_sublast_set_weak_deletion_only():
    e = full_1d()
    rng = random.Random(6)
    for oid in range(13):
        e.insert(oid, rng.uniform(0, 100))
    # pick a set below the last one and delete an object from it
    states = e.set_states()
    target = next(piece for i, piece in enumerate(e.levels)
                  if states[i] == SETTLED and i < e.ell and len(piece.colors) > 0)
    victim = sorted(target.colors)[0]
    diff = e.delete(victim)
    assert diff.recolorings <= IntervalPointColorer.max_recolorings(len(target.colors) + 1)
    assert e.check_invariants() is None


def test_forced_downward_migration_state_machine():
    e = full_1d()
    rng = random.Random(7)
    for oid in range(32):
        e.insert(oid, rng.uniform(0, 100))
    assert e.ell == 5
    # delete from the last set until it hits quarter capacity
    downs = 0
    nid = 32
    for _ in range(200):
        last = e.levels[e.ell]
        size = len(last.colors) if last is not None else 0
        if size == 2 ** (e.ell - 2) and e.set_states()[e.ell] == SETTLED and e.ell >= 2:
            victim = sorted(last.colors)[0]
            e.delete(victim)
            assert e.set_states()[e.ell] in (DOWN, SETTLED)
            downs += 1
            assert e.check_invariants() is None
            break
        pool = sorted(last.colors) if size else sorted(e.live)
        e.delete(pool[0])
        assert e.check_invariants() is None
    assert downs == 1


def test_deletion_bound_and_cf_mixed_workload():
    e = full_1d()
    rng = random.Random(8)
    nid = 0
    live = []
    for step in range(1500):
        if live and rng.random() < 0.55:
            oid = live.pop(rng.randrange(len(live)))
            diff = e.delete(oid)
            assert diff.recolorings <= 6 * 1 + 2
        else:
            diff = e.insert(nid, rng.uniform(0, 1000))
            live.append(nid)
            nid += 1
            assert diff.recolorings <= 2 * (e.ell + 1)
        if step % 50 == 0:
            assert e.check_invariants() is None
            assert combined_cf_1d(e) is None
    assert e.check_invariants() is None
    assert combined_cf_1d(e) is None


def test_full_2d_mixed_workload():
    e = full_2d()
    rng = random.Random(9)
    nid = 0
    live = []
    for step in range(400):
        if live and rng.random() < 0.5:
            e.delete(live.pop(rng.randrange(len(live))))
        else:
            e.insert(nid, Pt(rng.uniform(0, 100), rng.uniform(0, 100)))
            live.append(nid)
            nid += 1
        if step % 40 == 0:
            assert e.check_invariants() is None
            assert combined_cf_2d(e) is None
    assert e.check_invariants() is None


def test_full_color_budget_rect_colorer():
    e = full_2d()
    rng = random.Random(10)
    nid = 0
    live = []
    for step in range(500):
        if live and rng.random() < 0.3:
            e.delete(live.pop(rng.randrange(len(live))))
        else:
            e.insert(nid, Pt(rng.uniform(0, 200), rng.uniform(0, 200)))
            live.append(nid)
            nid += 1
        ell = e.ell
        budget = sum((ell + 2) * 2 * math.ceil(math.sqrt(2 ** i)) * i
                     for i in range(ell + 2))
        if len(e) > 1:
            assert len(set(e.global_colors().values())) <= budget


def test_invariant_checker_catches_star_corruption():
    # move an object out of the worn subset without recoloring: the cut shape
    # breaks and the checker must cite Inv-C-Mig-2
    e = full_1d()
    rng = random.Random(11)
    chosen = None
    for oid in range(200):
        e.insert(oid, rng.uniform(0, 100))
        for piece, state in zip(e.levels, e.set_states()):
            if state not in (UP, DOWN):
                continue
            star = sorted((o for o in piece.star if o != piece.pinned),
                          key=lambda o: (-piece.colorer.colors[o], o))
            if len(star) >= 3 and piece.colors.keys() - piece.star:
                victim = star[0]
                below = [o for o in star[1:]
                         if piece.colorer.colors[o] < piece.colorer.colors[victim]]
                if len(below) >= 2:
                    chosen = (piece, victim)
                    break
        if chosen:
            break
    assert chosen is not None, "expected a deep migration in this scenario"
    piece, victim = chosen
    piece.star.discard(victim)
    report = e.check_invariants()
    assert report is not None
    assert "Inv-C-Mig-2" in report.reason


def _migrating_piece_with_pending(seed):
    """A full-1d engine and one of its migrating pieces with two or more
    pending members, the first of them not pinned."""
    e = full_1d()
    rng = random.Random(seed)
    for oid in range(200):
        e.insert(oid, rng.uniform(0, 100))
        for piece, state in zip(e.levels, e.set_states()):
            if (state in (UP, DOWN) and len(piece.order) - piece.cut >= 2
                    and piece.order[piece.cut] != piece.pinned):
                return e, piece
    raise AssertionError("expected a migration with two pending members")


def test_invariant_checker_catches_children_without_an_order():
    e, piece = _migrating_piece_with_pending(14)
    assert e.check_invariants() is None
    piece.order = None
    report = e.check_invariants()
    assert report is not None and report.reason == "piece keeps a star but no migration order"
    piece.star = None
    report = e.check_invariants()
    assert report is not None and report.reason == "piece with children keeps no migration order"


@pytest.mark.parametrize("fault, reason", [
    ("settled piece given a star", "piece keeps a star but no migration order"),
    ("settled piece given a pinned object", "pinned object outside the star"),
    ("migrating piece without a star", "piece keeps an order but no star"),
])
def test_invariant_checker_catches_migration_state_on_the_wrong_piece(fault, reason):
    # star, order and pinned exist only while a piece migrates or is frozen
    if fault.startswith("migrating"):
        e, piece = _migrating_piece_with_pending(14)
        assert e.check_invariants() is None
        piece.star = None
    else:
        e = full_1d()
        for oid in range(3):
            e.insert(oid, float(oid))
        assert e.set_states() == [SETTLED, SETTLED] and e.check_invariants() is None
        piece = e.levels[1]
        assert piece.star is piece.order is piece.pinned is None and not piece.children
        if fault.endswith("star"):
            piece.star = set(piece.colors)
        else:
            piece.pinned = min(piece.colors)
    report = e.check_invariants()
    assert report is not None and report.reason == reason


def test_invariant_checker_catches_a_level_holding_an_empty_piece():
    e = full_1d()
    for oid in range(3):
        e.insert(oid, float(oid))
    assert e.set_states() == [SETTLED, SETTLED]
    # an emptied piece left in place of None: its palette stays in use
    e.levels[0].colors.clear()
    report = e.check_invariants()
    assert report is not None and "level 0 holds an empty piece" in report.reason


def test_invariant_checker_catches_unsorted_order():
    e, piece = _migrating_piece_with_pending(12)
    assert e.check_invariants() is None
    order, cut = piece.order, piece.cut
    order[cut], order[cut + 1] = order[cut + 1], order[cut]
    report = e.check_invariants()
    assert report is not None and "not sorted" in report.reason


def test_invariant_checker_catches_shifted_cut():
    e, piece = _migrating_piece_with_pending(13)
    assert e.check_invariants() is None
    piece.cut += 1
    report = e.check_invariants()
    assert report is not None and "prefix" in report.reason


@pytest.mark.parametrize("fault", ["wrong level", "missing id", "no such level"])
def test_invariant_checker_reports_corrupt_index(fault):
    # a checker must report a broken index, not raise while following it
    e = full_1d()
    for oid in range(6):
        e.insert(oid, float(oid))
    assert e.check_invariants() is None
    if fault == "wrong level":
        e.locate[0] = 1  # level 1 holds 4 and 5, not 0
    elif fault == "missing id":
        del e.locate[3]
    else:
        e.locate[2] = len(e.levels)
    report = e.check_invariants()
    assert report is not None and "locate" in report.reason


def _migrating_or_frozen(engine):
    """Every piece that still carries temporary colorings, at any depth."""
    stack = [piece for piece in engine.levels if piece is not None]
    while stack:
        piece = stack.pop()
        if piece.children:
            yield piece
            stack.extend(piece.children)


# structure: (object kind, inserts, delete ratio, seed)
DIFFERENTIAL = {
    "semi-1d": ("point_1d", 700, 0.0, 31),
    "full-1d": ("point_1d", 700, 0.9, 32),
    "full-2d": ("point_2d", 250, 0.8, 33),
}


@pytest.mark.parametrize("structure", sorted(DIFFERENTIAL))
def test_migration_matches_the_definitional_rules(structure):
    # each insertion's migration steps take the reference's next pending
    # object, and after every update each star is the reference's target
    kind, n, delete_ratio, seed = DIFFERENTIAL[structure]
    adapter = make_structure(structure)
    e = adapter.structure
    checked = 0
    for ev in generate_workload(kind, n, delete_ratio, seed):
        if ev["op"] == "insert":
            before = {index: (piece, set(piece.star))
                      for index, (piece, state) in enumerate(zip(e.levels, e.set_states()))
                      if state in (UP, DOWN)}
            adapter.insert(ev["id"], ev["object"])
            for index, (piece, star) in before.items():
                members = piece.colors.keys()
                for _ in range(e.LAST_STEPS if index == e.ell else 1):
                    if star != members:
                        star.add(next_pending(members, star, piece.colors))
                # a settled piece keeps no star: all its members wear final colors
                assert (members if piece.star is None else piece.star) == star
        else:
            adapter.delete(ev["id"])
        for piece, state in zip(e.levels, e.set_states()):
            if state == SETTLED:
                assert piece.star is piece.pinned is None and not piece.children
        for piece in _migrating_or_frozen(e):
            assert piece.star == star_target(piece)
            checked += 1
    assert checked > 0
    assert e.check_invariants() is None


def test_palette_exclusivity_checked():
    e = full_1d()
    for oid in range(8):
        e.insert(oid, float(oid))
    # grab two live pieces and alias their palettes
    pieces = [piece for piece in e.levels if piece is not None]
    if len(pieces) >= 2:
        pieces[0].palette = pieces[1].palette
        report = e.check_invariants()
        assert report is not None


def test_level_loads_checked():
    e = full_1d()
    for oid in range(8):
        e.insert(oid, float(oid))
    assert e.check_invariants() is None
    for lv, _ in e.pool.in_use:
        assert e.pool.level_load(lv) == sum(1 for m, _ in e.pool.in_use if m == lv)
    e.pool.load[e.ell] += 1
    report = e.check_invariants()
    assert report is not None and "level loads" in report.reason


def test_bound_checks_survive_python_O():
    # a colorer that promises no deletion recolorings at all makes the
    # deletion bound 6r+2 negative, so the first deletion breaks it
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "from cfcolor.framework import BoundExceeded, FullyDynamicEngine\n"
        "from cfcolor.unimax import IntervalPointColorer\n"
        "class Overpromising(IntervalPointColorer):\n"
        "    @staticmethod\n"
        "    def max_recolorings(n0):\n"
        "        return -1\n"
        "e = FullyDynamicEngine(Overpromising)\n"
        "e.insert(0, 0.0)\n"
        "e.insert(1, 1.0)\n"
        "try:\n"
        "    e.delete(0)\n"
        "except BoundExceeded as exc:\n"
        "    print('optimized', not __debug__, 'raised', exc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == \
        "optimized True raised recoloring bound per deletion exceeded"


def test_precondition_checks_survive_python_O():
    # a full-1d stream with deletions replays clean under -O, then each
    # planted precondition fault raises InvariantBroken before any change
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "from cfcolor.framework import FullyDynamicEngine, InvariantBroken\n"
        "from cfcolor.harness import generate_workload, make_structure\n"
        "from cfcolor.unimax import IntervalPointColorer\n"
        "adapter = make_structure('full-1d')\n"
        "e = adapter.structure\n"
        "events = generate_workload('point_1d', 300, 0.3, seed=5)\n"
        "for ev in events:\n"
        "    if ev['op'] == 'insert':\n"
        "        adapter.insert(ev['id'], ev['object'])\n"
        "    else:\n"
        "        adapter.delete(ev['id'])\n"
        "print('optimized', not __debug__, 'deletions',\n"
        "      sum(ev['op'] == 'delete' for ev in events), 'clean', e.check_invariants() is None)\n"
        "live = sorted(e.live)\n"
        "e.levels[0].order = sorted(e.levels[0].colors)\n"
        "try:\n"
        "    adapter.insert(10_000, {'kind': 'point_1d', 'x': 0.5})\n"
        "except InvariantBroken as exc:\n"
        "    print('insert:', exc, sorted(e.live) == live)\n"
        "e.levels[0].order = None\n"
        "e.levels[e.ell].order = sorted(e.levels[e.ell].colors)\n"
        "try:\n"
        "    e._merge_last_three(live[0])\n"
        "except InvariantBroken as exc:\n"
        "    print('merge:', exc, sorted(e.live) == live)\n"
        "last = FullyDynamicEngine(IntervalPointColorer)\n"
        "for oid in range(4):\n"
        "    last.insert(oid, float(oid))\n"
        "for oid in range(3):\n"
        "    last.delete(oid)\n"
        "last.levels[-1].order = [3]\n"
        "try:\n"
        "    last.delete(3)\n"
        "except InvariantBroken as exc:\n"
        "    print('settled last:', exc, len(last) == 1)\n"
        "last.levels[-1].order = None\n"
        "last.live[99] = (9.0, None)\n"
        "try:\n"
        "    last.delete(3)\n"
        "except InvariantBroken as exc:\n"
        "    print('emptied:', exc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "optimized True deletions 90 clean True",
        "insert: sets below the first empty one must be non-empty and settled True",
        "merge: last set must not be in migration when a downward migration starts True",
        "settled last: last set must not be in migration when a downward migration starts True",
        "emptied: no set holds a member, but other objects are live",
    ]


class _Overpromising(IntervalPointColorer):
    @staticmethod
    def max_recolorings(n0):
        return -1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the deletion bound is checked after the engine has changed")
def test_delete_refused_by_its_bound_leaves_the_engine_unchanged():
    e = FullyDynamicEngine(_Overpromising)
    e.insert(0, 0.0)
    e.insert(1, 1.0)
    before = (len(e), e.set_states(), e.colored_objects())
    with pytest.raises(BoundExceeded, match="per deletion"):
        e.delete(0)
    assert (len(e), e.set_states(), e.colored_objects()) == before


class _NoRecolorings(IntervalPointColorer):
    @staticmethod
    def max_recolorings(n0):
        return 0


def test_a_deletion_may_make_exactly_its_bound_of_recolorings():
    """With r = 0 the deletion bound 6r + 2 is 2.  Step 11 of this stream is
    a deletion making exactly 2 recolorings, and no earlier one makes more:
    a deletion at the bound is accepted."""
    e = FullyDynamicEngine(_NoRecolorings)
    events = generate_workload("point_1d", 60, 0.5, seed=0)[:12]
    assert events[11]["op"] == "delete"
    for ev in events:
        if ev["op"] == "insert":
            diff = e.insert(ev["id"], ev["object"]["x"])
        else:
            diff = e.delete(ev["id"])
            assert diff.recolorings <= 2
    assert diff.recolorings == 2


class _InsertOverpromising(FullyDynamicEngine):
    def _insert_bound(self):
        return -1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the insertion bound is checked after the engine has changed")
def test_insert_refused_by_its_bound_leaves_the_engine_unchanged():
    e = _InsertOverpromising(IntervalPointColorer)
    before = (len(e), e.set_states(), e.colored_objects())
    with pytest.raises(BoundExceeded, match="per insertion"):
        e.insert(0, 0.0)
    assert (len(e), e.set_states(), e.colored_objects()) == before


@pytest.mark.parametrize("engine_cls", [SemiDynamicEngine, FullyDynamicEngine])
def test_insert_is_atomic_when_the_colorer_build_fails(engine_cls):
    builds = []

    class FailsOnFourthBuild(IntervalPointColorer):
        def __init__(self, points):
            builds.append(len(points))
            if len(builds) == 4:
                raise RuntimeError("colorer build failed")
            super().__init__(points)

    e = engine_cls(FailsOnFourthBuild, interval_checker)
    for oid in range(3):
        e.insert(oid, float(oid))
    before = (len(e), e.set_states(), e.global_colors(), set(e.pool.in_use))
    with pytest.raises(RuntimeError):
        e.insert(3, 3.0)
    assert (len(e), e.set_states(), e.global_colors(), set(e.pool.in_use)) == before
    assert e.check_invariants() is None
    # the engine still takes the insertion once the colorer builds again
    e.insert(3, 3.0)
    assert len(e) == 4 and e.check_invariants() is None


def test_insert_is_atomic_when_no_color_set_is_free():
    e = semi_1d()
    for oid in range(3):
        e.insert(oid, float(oid))
    before = (len(e), e.set_states(), e.global_colors(), set(e.pool.in_use))
    # occupy C(2, 0): the merge into level 2 finds no free color set there
    e.pool.in_use.add((2, 0))
    e.pool.load[2] = 1
    with pytest.raises(BoundExceeded, match="availability"):
        e.insert(3, 3.0)
    e.pool.release((2, 0))
    assert (len(e), e.set_states(), e.global_colors(), set(e.pool.in_use)) == before
    assert e.check_invariants() is None


NAN = float("nan")


@pytest.mark.parametrize("make, points", [
    (semi_1d, [0.5, NAN, 0.2, 0.9, 0.1, 0.7, 0.3]),
    (full_1d, [0.5, NAN, 0.2, 0.9, 0.1, 0.7, 0.3]),
    (full_2d, [Pt(0.5, 0.4), Pt(NAN, 0.1), Pt(0.2, 0.8), Pt(0.9, NAN), Pt(0.1, 0.6),
               Pt(0.7, 0.3), Pt(NAN, NAN), Pt(0.3, 0.2)]),
])
def test_a_nan_point_is_refused_before_any_change(make, points):
    """A NaN coordinate cannot be ordered: inserting it raises ValueError
    and leaves the engine as it was, and the engine stays sound after."""
    e = make()
    taken = 0
    for oid, p in enumerate(points):
        before = (len(e), e.set_states(), e.global_colors())
        if any(map(math.isnan, [p] if isinstance(p, float) else [p.x, p.y])):
            with pytest.raises(ValueError, match="NaN"):
                e.insert(oid, p)
            assert (len(e), e.set_states(), e.global_colors()) == before
        else:
            e.insert(oid, p)
            taken += 1
        assert e.check_invariants() is None
    assert len(e) == taken < len(points)
