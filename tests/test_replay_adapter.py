"""The one replay adapter over every STRUCTURES entry: the contract that
callers outside the harness (perfbench's library pass among them) rely on,
the engines' audited_view() on a failing check, and a replay that a
structure's failing update ends after a recorded violation."""

import json

import pytest

from cfcolor import harness
from cfcolor.cli import main as cli_main
from cfcolor.geom import GlobalColor, Pt
from cfcolor.harness import KindMismatch, STRUCTURES, generate_workload, make_structure
from cfcolor.squares import GridSquareCF

PARAMS = {"c": 3.0, "universe": 64}


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_adapter_contract(name):
    adapter = make_structure(name, **PARAMS)
    ratio = 0.3 if adapter.supports_delete else 0.0
    params = {"bounded": {"c": 3.0}, "universe": {"universe": 64}}.get(name, {})
    events = generate_workload(STRUCTURES[name].kind, 60, ratio, seed=7, **params)
    assert ratio == 0.0 or any(ev["op"] == "delete" for ev in events)
    live = set()
    recolorings = 0
    for ev in events:
        if ev["op"] == "insert":
            diff = adapter.insert(ev["id"], ev["object"])
            live.add(ev["id"])
        else:
            diff = adapter.delete(ev["id"])
            live.discard(ev["id"])
        recolorings += diff.recolorings
        assert len(adapter) == len(live)
        assert adapter.colors() == adapter.structure.global_colors()
        info = adapter.framework_info()
        assert info is None or (type(info[0]) is int and type(info[1]) is str and len(info) == 2)
    assert adapter.total_recolorings() == recolorings
    # the oracle with no check_invariants() call before it, on a fresh read
    fresh = make_structure(name, **PARAMS)
    for ev in events:
        if ev["op"] == "insert":
            fresh.insert(ev["id"], ev["object"])
        else:
            fresh.delete(ev["id"])
    assert fresh.check_oracle() is None
    assert fresh.colors() == adapter.colors()


def test_insert_only_adapter_refuses_delete():
    adapter = make_structure("semi-1d")
    adapter.insert(0, {"kind": "point_1d", "x": 0.5})
    with pytest.raises(KindMismatch):
        adapter.delete(0)
    assert len(adapter) == 1


@pytest.mark.parametrize("name, kind", [("semi-1d", "point_1d"), ("full-1d", "point_1d"),
                                        ("full-2d", "point_2d")])
def test_engine_audited_view_failure_still_checks_colors(name, kind, monkeypatch):
    """A wrong actual entry planted after insert 20: the audit fails at that
    step, and the colors check still runs over the view it handed over."""
    make = harness.make_structure

    def planted(structure_name, c=None, universe=None):
        adapter = make(structure_name, c=c, universe=universe)
        engine = adapter.structure
        insert = engine.insert

        def insert_then_plant(oid, obj):
            diff = insert(oid, obj)
            if oid == 20:
                engine.actual[next(iter(engine.actual))] = GlobalColor(-1, -1)
            return diff
        engine.insert = insert_then_plant
        return adapter

    monkeypatch.setattr(harness, "make_structure", planted)
    events = generate_workload(kind, 40, 0.0, seed=5)
    report = harness.run_workload(name, events, verify="invariants")
    step = next(i for i, ev in enumerate(events) if ev["id"] == 20)
    bad = report["summary"]["violations"]
    assert [v["check"] for v in bad if v["step"] == step] == ["invariants", "colors"]
    assert min(v["step"] for v in bad) == step
    assert "-1" in next(v["detail"] for v in bad if v["check"] == "colors")
    assert report["steps"][step]["verified"] is False


class _PinMoved(GridSquareCF):
    """Squares whose insert of id 150 then moves that cell's pin, so the
    audit fails and a later insert routed to the cell raises."""

    def insert(self, sq):
        diff = super().insert(sq)
        if sq.id == 150:
            cell = self.cells[self.location[sq.id]]
            cell.pin = Pt(cell.pin.x + 0.5, cell.pin.y + 0.5)
        return diff


def _pin_moved(name, c=None, universe=None):
    return harness._Adapter(_PinMoved(), STRUCTURES["squares"])


def test_a_failing_update_after_a_violation_ends_the_replay(monkeypatch):
    monkeypatch.setattr(harness, "make_structure", _pin_moved)
    events = generate_workload("unit_square", 400, 0.3, seed=0)
    # unverified, nothing is recorded before the update fails: it propagates
    with pytest.raises(ValueError, match="does not contain pin"):
        harness.run_workload("squares", events, verify="none")
    report = harness.run_workload("squares", events, verify="invariants")
    bad = report["summary"]["violations"]
    last = bad[-1]
    assert bad[0]["check"] == "invariants" and "does not contain its pin" in bad[0]["detail"]
    assert last["check"] == "update" and last["detail"].startswith("PinNotContained: ")
    assert [v for v in bad if v["check"] == "update"] == [last]
    # the failing update's step gets no row, and no later event is replayed
    assert len(report["steps"]) == last["step"]
    assert report["summary"]["events"] == len(events)


def test_cli_writes_the_report_of_a_replay_a_failing_update_ended(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "make_structure", _pin_moved)
    wl, rep = tmp_path / "w.jsonl", tmp_path / "rep.json"
    harness.write_workload(generate_workload("unit_square", 400, 0.3, seed=0), str(wl))
    rc = cli_main(["run", "--structure", "squares", "--workload", str(wl),
                   "--verify", "invariants", "--report", str(rep)])
    assert rc == 2
    report = json.loads(rep.read_text())
    last = report["summary"]["violations"][-1]
    assert last["check"] == "update" and last["detail"].startswith("PinNotContained: ")
    assert (tmp_path / "rep.csv").read_text().count("\n") == len(report["steps"]) + 1
