import json

import pytest

from cfcolor import harness
from cfcolor.cli import main as cli_main
from cfcolor.geom import GlobalColor
from cfcolor.harness import (
    InvalidParams,
    KindMismatch,
    ParseError,
    generate_workload,
    read_workload,
    run_workload,
    write_report,
    write_workload,
)


def test_gen_insert_only_deterministic():
    a = generate_workload("unit_square", 10, 0.0, seed=1)
    b = generate_workload("unit_square", 10, 0.0, seed=1)
    assert a == b
    assert len(a) == 10
    assert all(ev["op"] == "insert" for ev in a)


def test_gen_rejects_out_of_universe_coordinate():
    with pytest.raises(InvalidParams):
        generate_workload("universe_rect", 5, 0.0, seed=1, universe=16, span=17)


def test_gen_requires_structure_params():
    with pytest.raises(InvalidParams):
        generate_workload("bounded_rect", 5, 0.0, seed=1)
    with pytest.raises(InvalidParams):
        generate_workload("universe_rect", 5, 0.0, seed=1)


def test_gen_deletes_reference_live_ids():
    events = generate_workload("point_2d", 1000, 0.3, seed=7)
    assert len(events) == 1000 + round(1000 * 0.3)
    live = set()
    for ev in events:
        if ev["op"] == "insert":
            assert ev["id"] not in live
            live.add(ev["id"])
        else:
            assert ev["id"] in live
            live.discard(ev["id"])


def test_workload_roundtrip(tmp_path):
    events = generate_workload("anchored_rect", 20, 0.2, seed=3)
    path = tmp_path / "w.jsonl"
    write_workload(events, str(path))
    assert read_workload(str(path)) == events


def test_read_workload_parse_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"op": "noop", "id": 1}\n')
    with pytest.raises(ParseError):
        read_workload(str(path))
    path.write_text("not json\n")
    with pytest.raises(ParseError):
        read_workload(str(path))


def test_run_empty_workload():
    report = run_workload("anchored", [], verify="oracle-every-step")
    assert report["steps"] == []
    assert report["summary"]["violations"] == []


def test_run_anchored_oracle_every_step():
    events = generate_workload("anchored_rect", 64, 0.3, seed=5)
    report = run_workload("anchored", events, verify="oracle-every-step")
    assert report["summary"]["violations"] == []
    assert all(row["verified"] is True for row in report["steps"])
    total = sum(row["recolorings"] for row in report["steps"])
    assert total == report["summary"]["structure_recoloring_counter"]


def test_run_kind_mismatch():
    events = generate_workload("unit_square", 5, 0.0, seed=1)
    with pytest.raises(KindMismatch):
        run_workload("anchored", events)


def test_run_anchored_256_every_step_within_frozen_bound():
    import math
    events = generate_workload("anchored_rect", 256, 0.3, seed=13)
    report = run_workload("anchored", events, verify="oracle-every-step")
    assert report["summary"]["violations"] == []
    for row in report["steps"]:
        n = max(row["n"], 1)
        assert row["recolorings"] <= 3 * math.log2(n + 2) + 4


def test_run_framework_reports_level_states():
    events = generate_workload("point_1d", 40, 0.0, seed=2)
    report = run_workload("semi-1d", events, verify="invariants")
    assert report["summary"]["violations"] == []
    assert "level" in report["steps"][-1]
    assert "set_states" in report["steps"][-1]


def test_semi_structure_rejects_deletions():
    events = generate_workload("point_1d", 10, 0.3, seed=2)
    with pytest.raises(KindMismatch):
        run_workload("semi-1d", events)


def test_broken_structure_produces_witness():
    events = generate_workload("unit_square", 30, 0.0, seed=9)

    class Sabotaged(harness._GeometricAdapter):
        def colors(self):
            return {oid: GlobalColor(0, 0) for oid in super().colors()}

        def check_oracle(self):
            colored = [(r, GlobalColor(0, 0))
                       for r, _ in self.structure.colored_rects()]
            from cfcolor.oracle import check_cf
            return check_cf(colored)

    import cfcolor.squares as squares
    from cfcolor.geom import UnitSquare
    adapter = Sabotaged(squares.GridSquareCF(),
                        lambda oid, p: UnitSquare(p["x"], p["y"], oid))

    violations = []
    live = set()
    for step, ev in enumerate(events):
        adapter.insert(ev["id"], ev["object"])
        live.add(ev["id"])
        witness = adapter.check_oracle()
        if witness is not None:
            violations.append((step, str(witness)))
            break
    assert violations, "uniform coloring must violate conflict-freeness"


def test_replay_determinism_byte_identical(tmp_path):
    events = generate_workload("unit_square", 80, 0.3, seed=11)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for p in (p1, p2):
        report = run_workload("squares", events, verify="oracle-sampled")
        write_report(report, str(p))
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


def test_cli_gen_run_roundtrip(tmp_path, capsys):
    wl = tmp_path / "w.jsonl"
    rep = tmp_path / "rep.json"
    rc = cli_main(["gen", "--kind", "unit_square", "--n", "40",
                   "--delete-ratio", "0.2", "--seed", "4", "--out", str(wl)])
    assert rc == 0
    rc = cli_main(["run", "--structure", "squares", "--workload", str(wl),
                   "--verify", "oracle-every-step", "--report", str(rep)])
    assert rc == 0
    report = json.loads(rep.read_text())
    assert report["summary"]["violations"] == []
    assert (tmp_path / "rep.csv").exists()


def test_cli_input_error_exit_code(tmp_path):
    rc = cli_main(["gen", "--kind", "universe_rect", "--n", "5", "--seed", "1",
                   "--universe", "16", "--span", "17",
                   "--out", str(tmp_path / "w.jsonl")])
    assert rc == 3


def test_cli_verification_failure_exit_code(tmp_path, monkeypatch):
    # a deliberately broken structure build: every square wears one color
    from cfcolor.geom import UnitSquare
    import cfcolor.squares as squares

    class Broken(harness._GeometricAdapter):
        def check_oracle(self):
            from cfcolor.oracle import check_cf
            colored = [(r, GlobalColor(0, 0))
                       for r, _ in self.structure.colored_rects()]
            return check_cf(colored)

    def broken_structure(name, c=None, universe=None):
        return Broken(squares.GridSquareCF(),
                      lambda oid, p: UnitSquare(p["x"], p["y"], oid))

    monkeypatch.setattr(harness, "make_structure", broken_structure)
    wl = tmp_path / "w.jsonl"
    rep = tmp_path / "rep.json"
    events = generate_workload("unit_square", 40, 0.0, seed=3, span=3.0)
    write_workload(events, str(wl))
    rc = cli_main(["run", "--structure", "squares", "--workload", str(wl),
                   "--verify", "oracle-every-step", "--report", str(rep)])
    assert rc == 2
    report = json.loads(rep.read_text())
    assert report["summary"]["violations"]
    assert "violation at" in report["summary"]["violations"][0]["detail"]


def test_cli_bench(tmp_path):
    rep = tmp_path / "bench.json"
    rc = cli_main(["bench", "--structure", "universe", "--sizes", "32,64",
                   "--seeds", "1,2", "--universe", "16", "--report", str(rep)])
    assert rc == 0
    bench = json.loads(rep.read_text())
    assert len(bench["trials"]) == 4
    assert (tmp_path / "bench.csv").exists()


def test_universe_run_with_params():
    events = generate_workload("universe_rect", 50, 0.3, seed=6, universe=16)
    report = run_workload("universe", events, verify="oracle-every-step", universe=16)
    assert report["summary"]["violations"] == []


def test_bounded_run_with_params():
    events = generate_workload("bounded_rect", 50, 0.3, seed=6, c=1.5)
    report = run_workload("bounded", events, verify="oracle-every-step", c=1.5)
    assert report["summary"]["violations"] == []


def test_full_framework_runs():
    events = generate_workload("point_1d", 120, 0.4, seed=8)
    report = run_workload("full-1d", events, verify="oracle-sampled")
    assert report["summary"]["violations"] == []
    total = sum(row["recolorings"] for row in report["steps"])
    assert total == report["summary"]["structure_recoloring_counter"]
    events2 = generate_workload("point_2d", 80, 0.4, seed=8)
    report2 = run_workload("full-2d", events2, verify="oracle-sampled")
    assert report2["summary"]["violations"] == []


STRUCTURE_STREAMS = {
    # structure: (kind, inserts, delete ratio, make_structure params)
    "anchored": ("anchored_rect", 150, 0.3, {}),
    "squares": ("unit_square", 150, 0.3, {}),
    "bounded": ("bounded_rect", 150, 0.3, {"c": 3.0}),
    "universe": ("universe_rect", 150, 0.3, {"universe": 32}),
    "semi-1d": ("point_1d", 150, 0.0, {}),
    "full-1d": ("point_1d", 150, 0.6, {}),
    "full-2d": ("point_2d", 60, 0.3, {}),
}


@pytest.mark.parametrize("structure", sorted(STRUCTURE_STREAMS))
def test_distinct_colors_match_global_colors(structure):
    kind, n, ratio, params = STRUCTURE_STREAMS[structure]
    events = generate_workload(kind, n, ratio, seed=31, **params)
    report = run_workload(structure, events, verify="none", **params)
    # an independent replay that counts every step from global_colors()
    s = harness.make_structure(structure, **params)
    expected = []
    for ev in events:
        if ev["op"] == "insert":
            s.insert(ev["id"], ev["object"])
        else:
            s.delete(ev["id"])
        expected.append(len(set(s.colors().values())))
    assert [row["distinct_colors"] for row in report["steps"]] == expected
    assert report["summary"]["max_distinct_colors"] == max(expected)
    checked = run_workload(structure, events, verify="invariants", **params)
    assert checked["summary"]["violations"] == []
    assert checked["steps"] == [dict(row, verified=True) for row in report["steps"]]


def _leaky_squares(name, c=None, universe=None):
    """Squares whose every insert also rewrites one other square's stored
    color without reporting it in the diff."""
    import cfcolor.squares as squares
    from cfcolor.geom import UnitSquare

    class LeakySquares(squares.GridSquareCF):
        def insert(self, sq):
            diff = super().insert(sq)
            cell = self.cells[self.location[sq.id]]
            victim = min((o for o in cell.colors if o != sq.id), default=None)
            if victim is not None:
                cell.colors[victim] += 1000
            return diff

    return harness._GeometricAdapter(
        LeakySquares(), lambda oid, p: UnitSquare(p["x"], p["y"], oid))


def test_unreported_recoloring_is_a_colors_violation(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "make_structure", _leaky_squares)
    events = generate_workload("unit_square", 40, 0.0, seed=3, span=3.0)
    assert run_workload("squares", events, verify="none")["summary"]["violations"] == []
    report = run_workload("squares", events, verify="invariants")
    bad = report["summary"]["violations"]
    assert bad and {v["check"] for v in bad} == {"colors"}
    assert all(report["steps"][v["step"]]["verified"] is False for v in bad)

    wl = tmp_path / "w.jsonl"
    write_workload(events, str(wl))
    rc = cli_main(["run", "--structure", "squares", "--workload", str(wl),
                   "--verify", "invariants", "--report", str(tmp_path / "rep.json")])
    assert rc == 2


BAD_INPUTS = {
    # case: (structure arguments, the workload's only line, as bytes)
    "inverted_bounded_rect": (
        ["bounded", "--c", "3"],
        b'{"op": "insert", "id": 0, "object": {"kind": "bounded_rect", '
        b'"x1": 5, "x2": 3, "y1": 0, "y2": 2}}'),
    "unit_square_missing_x": (
        ["squares"],
        b'{"op": "insert", "id": 0, "object": {"kind": "unit_square", "y": 1.0}}'),
    "point_nan": (
        ["full-1d"],
        b'{"op": "insert", "id": 0, "object": {"kind": "point_1d", "x": NaN}}'),
    "point_infinite": (
        ["full-1d"],
        b'{"op": "insert", "id": 0, "object": {"kind": "point_1d", "x": -Infinity}}'),
    "string_id": (
        ["full-1d"],
        b'{"op": "insert", "id": "a", "object": {"kind": "point_1d", "x": 1.0}}'),
    "bool_id": (
        ["full-1d"],
        b'{"op": "delete", "id": true}'),
    "bool_coordinate": (
        ["full-1d"],
        b'{"op": "insert", "id": 0, "object": {"kind": "point_1d", "x": false}}'),
    "anchored_below_origin": (
        ["anchored"],
        b'{"op": "insert", "id": 0, "object": {"kind": "anchored_rect", "x2": -1, "y2": 2}}'),
    "event_not_an_object": (
        ["full-1d"],
        b'[1, 2]'),
    "object_not_an_object": (
        ["full-1d"],
        b'{"op": "insert", "id": 0, "object": 7}'),
    "deeply_nested": (
        ["full-1d"],
        b"[" * 100_000),
    "not_utf8": (
        ["full-1d"],
        b'{"op": "delete", "id": 0, "note": "\xff"}'),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_cli_bad_input_exit_code(case, tmp_path, capsys):
    structure, line = BAD_INPUTS[case]
    wl = tmp_path / "w.jsonl"
    wl.write_bytes(line + b"\n")
    rc = cli_main(["run", "--structure", *structure, "--workload", str(wl),
                   "--report", str(tmp_path / "rep.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: ") and "Traceback" not in err


def test_python_dash_m_front_end(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    wl = tmp_path / "w.jsonl"
    wl.write_bytes(BAD_INPUTS["unit_square_missing_x"][1] + b"\n")
    proc = subprocess.run(
        [sys.executable, "-m", "cfcolor", "run", "--structure", "squares",
         "--workload", str(wl), "--report", str(tmp_path / "rep.json")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr == "error: line 1: unit_square without field 'x'\n"
