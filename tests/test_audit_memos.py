"""The audits that keep a snapshot of what last passed, and the view a
passing partition audit hands over, each against the full audit and a
freshly built view: after every update of seeded streams, and after faults
planted in a cell the last update did not touch.  A fresh result is the
same call with every memo set aside, then put back, so the memoized chain
of calls goes on undisturbed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cfcolor import cells as cells_module
from cfcolor.anchored import AnchoredCF
from cfcolor.augtree import RED
from cfcolor.geom import KeyOrder, Pt
from cfcolor.harness import STRUCTURES, generate_workload, make_structure
from cfcolor.rects import CommonPointCF
from cfcolor.squares import PinnedSquareCF
from reference import nodes

PARAMS = {"squares": {}, "bounded": {"c": 3.0}, "universe": {"universe": 32}}
PARTITIONS = sorted(PARAMS)


def _memo_holders(s):
    """(object, attribute) for every memo of s, its cells' and their trees'.
    A partition's passed holds its cell records, each cell's snapshot and
    view, and the cells' fingerprints in one list."""
    cells = list(s.cells.values()) if hasattr(s, "cells") else [s]
    holders = [(s, "passed")] if hasattr(s, "cells") else []
    for cell in cells:
        holders += [(cell, "passed")]
        holders += [(tree, "passed") for tree in cell.trees]
    return holders


def _outcome(call):
    """call()'s value, or the type of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc)


def fresh(s, call):
    """call() with every memo of s set aside: the full audit or a view built
    anew.  The memos are put back afterwards."""
    holders = _memo_holders(s)
    saved = [getattr(obj, name) for obj, name in holders]
    for obj, name in holders:
        setattr(obj, name, None)
    try:
        return call()
    finally:
        for (obj, name), value in zip(holders, saved):
            setattr(obj, name, value)


def _replay(name, n, seed, delete_ratio=0.3):
    """The adapter and its events, not yet applied."""
    params = PARAMS.get(name, {})
    adapter = make_structure(name, **params)
    return adapter, generate_workload(STRUCTURES[name].kind, n, delete_ratio, seed, **params)


def _apply(adapter, ev):
    if ev["op"] == "insert":
        adapter.insert(ev["id"], ev["object"])
    else:
        adapter.delete(ev["id"])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", PARTITIONS + ["anchored"])
def test_memoized_audit_and_view_equal_fresh_ones_after_every_update(name, seed):
    adapter, events = _replay(name, 120, seed)
    s = adapter.structure
    for ev in events:
        _apply(adapter, ev)
        assert s.audit() is None
        assert fresh(s, s.audit) is None
        # a second call finds everything unchanged
        assert s.audit() is None
        assert s.colored_objects() == fresh(s, s.colored_objects)
        assert s.colored_objects() == fresh(s, s.colored_objects)


def _passed_then_updated(name, seed):
    """A structure whose audit and view passed, then one more update: the
    structure and the key of the cell that update touched."""
    adapter, events = _replay(name, 150, seed, delete_ratio=0.0)
    s = adapter.structure
    for ev in events[:-1]:
        _apply(adapter, ev)
    assert s.audit() is None
    s.colored_objects()
    last = events[-1]
    _apply(adapter, last)
    return s, s.location[last["id"]]


def _untouched(s, touched):
    """The key of a cell other than `touched` with three objects or more, so
    its tree has an internal node below the root."""
    return next(key for key, cell in s.cells.items() if key != touched and len(cell) >= 3)


def _internal(cell, ok):
    return next(v for v in nodes(cell.trees[0]) if v.payload is None and ok(v))


def _stale_ymax(s, key, spare):
    cell = s.cells[key]
    _internal(cell, lambda v: True).ymax = KeyOrder(999.0, 999)


def _red_red(s, key, spare):
    tree = s.cells[key].trees[0]
    v = _internal(s.cells[key], lambda v: v is not tree.root)
    v.color = RED
    v.left.color = RED


def _broken_parent_link(s, key, spare):
    tree = s.cells[key].trees[0]
    _internal(s.cells[key], lambda v: v is not tree.root).left.parent = tree.root


def _moved_between_cells(s, key, spare):
    oid = next(iter(s.cells[key].objects))
    s.cells[spare].objects[oid] = s.cells[key].objects.pop(oid)


def _moved_pin(s, key, spare):
    s.cells[key].pin = Pt(-99.0, -99.0)


def _redirected_location(s, key, spare):
    oid = next(iter(s.cells[key].objects))
    s.location[oid] = spare


FAULTS = {
    "stale ymax summary": _stale_ymax,
    "red node with red child": _red_red,
    "broken parent link": _broken_parent_link,
    "tree leaves out of sync with the cell's objects": _moved_between_cells,
    "does not contain its pin": _moved_pin,
    "cells out of step with the location map": _redirected_location,
}


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("name", PARTITIONS)
def test_a_fault_in_an_untouched_cell_is_reported_at_the_next_call(name, fault, seed):
    s, touched = _passed_then_updated(name, seed)
    # the fault's cell and a second one, both untouched by the last update
    key = _untouched(s, touched)
    spare = next(k for k in s.cells if k not in (key, touched))
    FAULTS[fault](s, key, spare)
    want = fresh(s, s.audit)
    assert want is not None and fault in want.reason
    got = s.audit()
    assert got is not None and got.reason == want.reason and got.node is want.node
    # a failing audit keeps no snapshot: the next call reports it again
    again = s.audit()
    assert again is not None and again.reason == want.reason and again.node is want.node
    # an object moved between cells has no color in its new cell: both raise
    assert _outcome(s.colored_objects) == fresh(s, lambda: _outcome(s.colored_objects))


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", PARTITIONS)
def test_swapped_colors_in_an_untouched_cell_show_in_the_next_view(name, seed):
    s, touched = _passed_then_updated(name, seed)
    before = s.colored_objects()
    key = next(key for key, cell in s.cells.items()
               if key != touched and len(set(cell.colors.values())) >= 2)
    colors = s.cells[key].colors
    a = next(iter(colors))
    b = next(o for o in colors if colors[o] != colors[a])
    colors[a], colors[b] = colors[b], colors[a]
    after = s.colored_objects()
    assert after == fresh(s, s.colored_objects) and after != before
    assert s.global_colors()[a] == s.cells[key].global_color(colors[a])


# -- the view a passing partition audit hands over ------------------------------

def _swapped_index_entries(s, key, spare):
    index = s.cells[key].trees[0].leaf_by_payload
    a, b = list(index)[:2]
    index[a], index[b] = index[b], index[a]


def _size_off_by_one(s, key, spare):
    s.cells[key].trees[0].size += 1


def _cell_swapped_for_an_empty_one(s, key, spare):
    cell = s.cells[key]
    s.cells[key] = type(cell)(cell.pin, cell.tag)


SETTLED_FAULTS = dict(FAULTS, **{
    "payload index out of sync": _swapped_index_entries,
    "size": _size_off_by_one,
    "empty cell": _cell_swapped_for_an_empty_one,
})

@pytest.fixture(params=["fingerprints", "full audits"])
def mode(request, monkeypatch):
    """Both ways a partition audit goes: it skips the cells whose
    fingerprint is unchanged, or, where gc.get_referents lists less, it
    audits every cell."""
    if request.param == "full audits":
        monkeypatch.setattr(cells_module, "FINGERPRINTS", False)
    return request.param


@pytest.mark.parametrize("stride", [1, 5])
@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", PARTITIONS)
def test_the_handed_view_is_the_fresh_view(name, seed, stride, mode):
    """After every update, or every fifth, as a sampled replay audits."""
    adapter, events = _replay(name, 150, seed)
    s = adapter.structure
    assert sum(ev["op"] == "delete" for ev in events) > 30
    for step, ev in enumerate(events):
        _apply(adapter, ev)
        if step % stride:
            continue
        report, view = s.audited_view()
        assert report is None and view == fresh(s, s.colored_objects)
        assert fresh(s, s.audited_view) == (None, view)


def _swap_colors(s, key):
    colors = s.cells[key].colors
    a = next(iter(colors))
    b = next((o for o in colors if colors[o] != colors[a]), None)
    if b is None:
        return False
    colors[a], colors[b] = colors[b], colors[a]
    return True


def _retag(s, key):
    s.cells[key].tag += 1
    return True


def _move(shift):
    def move(s, key):
        objects = s.cells[key].objects
        oid = next(iter(objects))
        obj = objects[oid]
        objects[oid] = obj._replace(x1=obj.x1 + shift, x2=obj.x2 + shift)
        return True
    return move


# fault -> whether the audit mostly reports it (else mostly only the view
# shows it)
VIEW_FAULTS = {"swapped colors": (_swap_colors, False), "changed tag": (_retag, False),
               "object moved a little": (_move(1e-9), False),
               "object moved far": (_move(5.0), True)}


@pytest.mark.parametrize("fault", sorted(VIEW_FAULTS))
@pytest.mark.parametrize("name", PARTITIONS)
def test_a_fault_in_an_untouched_cell_shows_in_the_handed_view(name, fault, mode):
    """After each planted fault, the report and view audited_view() hands
    over are the fresh ones; when the audit passes, the view differs from
    the one before the fault."""
    plant, reported = VIEW_FAULTS[fault]
    changed_views = reports = 0
    for seed in range(4):
        s, touched = _passed_then_updated(name, seed)
        before = s.audited_view()[1]
        keys = [key for key in s.cells if key != touched]
        for key in keys[:3]:
            if not plant(s, key):
                continue
            want_report, want_view = fresh(s, s.audited_view)
            got_report, got_view = s.audited_view()
            assert (got_report is None) == (want_report is None)
            if want_report is None:
                assert got_view == want_view == fresh(s, s.colored_objects)
                changed_views += got_view != before
                before = got_view
            else:
                assert got_report.reason == want_report.reason
                assert got_report.node is want_report.node and got_view is None
                reports += 1
                break
    assert (reports if reported else changed_views) > 0


@pytest.mark.parametrize("fault", sorted(SETTLED_FAULTS))
@pytest.mark.parametrize("name", PARTITIONS)
def test_a_fault_after_a_passing_audited_view_is_reported(name, fault, mode):
    """A fault planted in an untouched cell once audited_view() has passed
    twice, so every cell's snapshot is the one a passing audit took."""
    s, touched = _passed_then_updated(name, 0)
    assert s.audited_view()[0] is None and s.audited_view()[0] is None
    key = _untouched(s, touched)
    spare = next(k for k in s.cells if k not in (key, touched))
    SETTLED_FAULTS[fault](s, key, spare)
    want = fresh(s, s.audit)
    assert want is not None and fault in want.reason
    got, view = s.audited_view()
    assert got.reason == want.reason and got.node is want.node and view is None


@pytest.mark.parametrize("name", PARTITIONS)
def test_an_object_inserted_and_deleted_between_audits_makes_every_cell_audited(
        name, mode, monkeypatch):
    """An object inserted into an untouched cell and deleted again changes
    no location entry, but the cell's trees and recoloring count changed:
    its fingerprint differs, so the next audit audits every cell, and its
    report and view are the fresh ones."""
    s, touched = _passed_then_updated(name, 0)
    assert s.audited_view()[0] is None
    location = dict(s.location)
    twin_id = max(location) + 1
    before = sum(cell.total_recolorings for cell in s.cells.values())
    for key, cell in list(s.cells.items()):
        if key == touched:
            continue
        twin = next(iter(cell.objects.values()))._replace(id=twin_id)
        s.insert(twin)
        assert s.location[twin_id] == key
        s.delete(twin_id)
        if sum(cell.total_recolorings for cell in s.cells.values()) != before:
            break
    else:
        pytest.fail("no insert and delete recolored an object")
    assert s.location == location
    audited = []
    audit = s.CELL.audit

    def counting(cell):
        audited.append(cell)
        return audit(cell)

    monkeypatch.setattr(s.CELL, "audit", counting)
    report, view = s.audited_view()
    assert report is None
    assert sorted(map(id, audited)) == sorted(map(id, s.cells.values()))
    assert view == fresh(s, s.colored_objects)
    assert fresh(s, s.audited_view) == (None, view)


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="a CPython traversal")
def test_fingerprints_are_on_and_no_cell_has_an_instance_dict():
    """Where the import probe fails, or a cell class forgot __slots__ = ()
    and get_referents lists its __dict__ instead of its fields, every
    verified step audits every cell; the verdicts stay right, so only this
    test would see it."""
    assert cells_module.FINGERPRINTS
    for cell in (PinnedSquareCF(Pt(0.0, 0.0)), CommonPointCF(Pt(0.0, 0.0)), AnchoredCF()):
        assert not hasattr(cell, "__dict__"), type(cell).__name__


def test_a_stale_summary_in_an_untouched_cell_is_reported_under_python_O():
    """A squares and a bounded stream with deletions pass audited_view()
    after every step under -O; then a stale ymax planted in a cell the
    last update did not touch is reported by the next audited_view()."""
    script = (
        "from cfcolor.geom import KeyOrder\n"
        "from cfcolor.harness import STRUCTURES, generate_workload, make_structure\n"
        "print('optimized', not __debug__)\n"
        "for name, params in (('squares', {}), ('bounded', {'c': 3.0})):\n"
        "    adapter = make_structure(name, **params)\n"
        "    s = adapter.structure\n"
        "    events = generate_workload(STRUCTURES[name].kind, 150, 0.3, 5, **params)\n"
        "    passed = 0\n"
        "    for ev in events:\n"
        "        if ev['op'] == 'insert':\n"
        "            adapter.insert(ev['id'], ev['object'])\n"
        "        else:\n"
        "            adapter.delete(ev['id'])\n"
        "        report, view = s.audited_view()\n"
        "        passed += report is None and len(view) == len(s)\n"
        "    last = next(ev for ev in reversed(events) if ev['op'] == 'insert'\n"
        "                and ev['id'] in s.location)\n"
        "    touched = s.location[last['id']]\n"
        "    adapter.delete(last['id'])\n"
        "    adapter.insert(last['id'], last['object'])\n"
        "    cell = next(c for key, c in s.cells.items() if key != touched and len(c) >= 2)\n"
        "    cell.trees[0].root.ymax = KeyOrder(999.0, 999)\n"
        "    report, view = s.audited_view()\n"
        "    print(name, passed == len(events), report.reason, view)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["optimized True",
                                        "squares True stale ymax summary None",
                                        "bounded True stale ymax summary None"]
