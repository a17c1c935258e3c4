import argparse
import contextlib
import csv
import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from cfcolor import harness
from cfcolor.cli import build_parser
from cfcolor.cli import main as cli_main
from cfcolor.framework import DOWN, EMPTY, SETTLED, UP
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
from reference import colored_rects


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

    class Sabotaged(harness._Adapter):
        def colors(self):
            return {oid: GlobalColor(0, 0) for oid in super().colors()}

        def check_oracle(self):
            colored = [(r, GlobalColor(0, 0))
                       for r, _ in colored_rects(self.structure)]
            from cfcolor.oracle import check_cf
            return check_cf(colored)

    import cfcolor.squares as squares
    adapter = Sabotaged(squares.GridSquareCF(),
                        harness.STRUCTURES["squares"])

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


def _reference_json_csv(doc, rows, fields):
    """The stdlib writers the report format is defined by."""
    text, table = io.StringIO(), io.StringIO()
    json.dump(doc, text, indent=2, sort_keys=True)
    text.write("\n")
    writer = csv.DictWriter(table, fieldnames=fields, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return text.getvalue().encode(), table.getvalue().encode()


ODD_PATH = 'runs/"quoted"\\back\nline/d\u00e9j\u00e0-\u2603.jsonl'


def _byte_identity_cases(monkeypatch):
    events = generate_workload("unit_square", 40, 0.0, seed=3, span=3.0)
    with monkeypatch.context() as m:
        m.setattr(harness, "make_structure", _leaky_squares)
        leaky = run_workload("squares", events, verify="oracle-sampled")
    assert leaky["summary"]["violations"]
    full = run_workload("full-1d", generate_workload("point_1d", 300, 0.9, seed=4),
                        verify="oracle-sampled")
    assert "set_states" in full["steps"][0]
    # the rows are encoded a block at a time: cover a partial last block
    assert len(full["steps"]) % harness._ROWS_PER_ENCODE
    assert len(full["steps"]) > 2 * harness._ROWS_PER_ENCODE
    invariants = run_workload("squares", events, verify="invariants")
    assert all(row["verified"] is True for row in invariants["steps"])
    bench = harness.run_bench("universe", [0, 6], [1, 2], universe=16)
    # floats whose repr has an exponent, is a bare zero, or has many digits
    for trial, us in zip(bench["trials"], (1e-05, 1.5e+16, 0.0, 123456.78)):
        trial["us_per_event"] = us
    return {
        "violation": ("steps", leaky),
        "full-1d": ("steps", full),
        "full-1d unverified": ("steps", run_workload(
            "full-1d", generate_workload("point_1d", 60, 0.5, seed=5))),
        "semi-1d unverified": ("steps", run_workload(
            "semi-1d", generate_workload("point_1d", 60, 0.0, seed=5))),
        "full-2d": ("steps", run_workload(
            "full-2d", generate_workload("point_2d", 40, 0.3, seed=6), verify="invariants")),
        "invariants": ("steps", invariants),
        "empty": ("steps", run_workload("anchored", [], verify="invariants")),
        "odd path": ("steps", run_workload(
            "bounded", generate_workload("bounded_rect", 5, 0.0, seed=1, c=2.0),
            c=2.0, config_extra={"workload": ODD_PATH})),
        "bench": ("trials", bench),
    }


def test_written_files_are_the_stdlib_writers_bytes(tmp_path, monkeypatch):
    for name, (key, doc) in _byte_identity_cases(monkeypatch).items():
        path = tmp_path / f"{name}.json"
        if key == "steps":
            write_report(doc, str(path))
            fields = harness.REPORT_FIELDS
        else:
            harness.write_bench(doc, str(path))
            fields = harness.BENCH_FIELDS
        want_json, want_csv = _reference_json_csv(doc, doc[key], fields)
        assert path.read_bytes() == want_json, name
        assert path.with_suffix(".csv").read_bytes() == want_csv, name
    assert json.loads((tmp_path / "odd path.json").read_text(encoding="utf-8"))[
        "config"]["workload"] == ODD_PATH


def test_closed_strings_encode_to_themselves():
    """The row templates write these strings bare inside JSON quotes and as
    bare CSV cells, so each must be its own JSON encoding and need no CSV
    quoting."""
    strings = ["insert", "delete", "skipped", EMPTY, SETTLED, UP, DOWN, *harness.STRUCTURES]
    for s in strings:
        assert json.dumps(s)[1:-1] == s, s
        assert not set(s) & set('"\r\n,'), s


def test_rows_take_only_closed_values():
    """Replay and bench refuse what the row templates could not write."""
    insert = generate_workload("unit_square", 1, 0.0, seed=1)[0]
    with pytest.raises(ParseError, match="unknown op"):
        run_workload("squares", [insert, {"op": "remove", "id": 0}])
    with pytest.raises(ParseError, match="must be an int"):
        run_workload("squares", [dict(insert, id="0")])
    with pytest.raises(InvalidParams, match="must be ints"):
        harness.run_bench("squares", [4], ["seed"])


class _OwnReprFloat(float):
    def __repr__(self):
        return "not JSON"


def _insert(**obj):
    return {"op": "insert", "id": 3, "object": obj}


# every kind at its default span and, where its rules allow, at spans of
# 1e-300 and 1e300; bounded rectangles round to no side at 1e300
_WRITER_PARAMS = {"bounded_rect": {"c": 3.0}, "universe_rect": {"universe": int(1e300) + 1}}
_WRITER_STREAMS = {
    f"{kind} span {span}": generate_workload(kind, 30, 0.3, seed=9, span=span,
                                              **_WRITER_PARAMS.get(kind, {}))
    for kind in harness.KINDS for span in (None, 1e-300, 1e300)
    if (kind, span) != ("bounded_rect", 1e300)
}
# one event per branch that leaves the templates for the stdlib encoder
_WRITER_FALLBACKS = {
    "non-dict event": [["op", "delete"], ["id", 4]],
    "bool id": {"op": "delete", "id": True},
    "bool coordinate": _insert(kind="point_1d", x=False),
    "nan": _insert(kind="point_2d", x=1.0, y=float("nan")),
    "inf": _insert(kind="unit_square", x=float("-inf"), y=float("inf")),
    "int beyond floats": _insert(kind="universe_rect", x1=0, x2=10 ** 400, y1=0, y2=1),
    "float subclass": _insert(kind="point_1d", x=_OwnReprFloat(2.5)),
    "missing field": _insert(kind="point_2d", x=1.0),
    "field swapped for another key": _insert(kind="point_2d", x=1.0, z=2.0),
    "extra object key": _insert(kind="point_1d", x=1.0, note=2),
    "extra top-level key": {"op": "delete", "id": 4, "note": 5},
    "extra top-level key on an insert": dict(_insert(kind="point_1d", x=1.0), note=5),
    "non-dict object": {"op": "insert", "id": 3, "object": [1.0, 2.0]},
    "unknown kind": _insert(kind="hexagon", x=1.0),
    "non-str kind": _insert(kind=["point_1d"], x=1.0),
}


@pytest.mark.parametrize("events", [
    [],
    generate_workload("point_2d", 30, 0.3, seed=5),
    generate_workload("universe_rect", 30, 0.3, seed=5, universe=16),
    [{"op": "insert", "id": 0, "object": {"kind": "unit_square", "x": 1e-310, "y": -0.0,
                                          "note": ODD_PATH}}],
    *_WRITER_STREAMS.values(),
    *([ev] for ev in _WRITER_FALLBACKS.values()),
], ids=["empty", "point_2d", "universe_rect", "odd strings", *_WRITER_STREAMS,
        *_WRITER_FALLBACKS])
def test_written_workload_is_the_stdlib_writers_bytes(tmp_path, events):
    path = tmp_path / "w.jsonl"
    write_workload(events, str(path))
    want = "".join(json.dumps(ev, sort_keys=True) + "\n" for ev in events)
    assert path.read_bytes() == want.encode()


def test_kind_names_json_escapes_get_no_template():
    assert harness._insert_template("point_1d", ("x",)) is not None
    for kind, fields in (('quoted "kind"', ("x",)), ("d\u00e9j\u00e0", ("x",)),
                         ("point_1d", ("x\n",))):
        assert harness._insert_template(kind, fields) is None, kind
    assert harness._INSERT_LINES.keys() == harness.KINDS.keys()


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
    import cfcolor.squares as squares

    class Broken(harness._Adapter):
        def check_oracle(self):
            from cfcolor.oracle import check_cf
            colored = [(r, GlobalColor(0, 0))
                       for r, _ in colored_rects(self.structure)]
            return check_cf(colored)

    def broken_structure(name, c=None, universe=None):
        return Broken(squares.GridSquareCF(),
                      harness.STRUCTURES["squares"])

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
    # wall-clock cost per event, a bench-only column
    assert all(t["us_per_event"] > 0 for t in bench["trials"])
    header = (tmp_path / "bench.csv").read_text().splitlines()[0]
    assert header.split(",") == list(harness.BENCH_FIELDS) and header.endswith("us_per_event")


def test_cli_bench_insert_only_structure_defaults_to_no_deletions(tmp_path, capsys):
    rep = tmp_path / "bench.json"
    argv = ["bench", "--structure", "semi-1d", "--sizes", "16", "--seeds", "1",
            "--report", str(rep)]
    assert cli_main(argv) == 0
    assert json.loads(rep.read_text())["config"]["delete_ratio"] == 0.0
    capsys.readouterr()
    # an explicit ratio is still refused
    assert cli_main(argv + ["--delete-ratio", "0.2"]) == 3
    assert "insert-only structure cannot replay deletions" in capsys.readouterr().err


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

    class LeakySquares(squares.GridSquareCF):
        def insert(self, sq):
            diff = super().insert(sq)
            cell = self.cells[self.location[sq.id]]
            victim = min((o for o in cell.colors if o != sq.id), default=None)
            if victim is not None:
                cell.colors[victim] += 1000
            return diff

    return harness._Adapter(
        LeakySquares(), harness.STRUCTURES["squares"])


def test_unreported_recoloring_is_a_colors_violation(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "make_structure", _leaky_squares)
    events = generate_workload("unit_square", 40, 0.0, seed=3, span=3.0)
    assert run_workload("squares", events, verify="none")["summary"]["violations"] == []
    report = run_workload("squares", events, verify="invariants")
    bad = report["summary"]["violations"]
    assert bad and {v["check"] for v in bad} == {"colors"}
    assert all(report["steps"][v["step"]]["verified"] is False for v in bad)
    assert bad[0] == {"step": 2, "check": "colors", "detail":
                      "object 1: GlobalColor(scheme_tag=6, local=1006) in the view, "
                      "GlobalColor(scheme_tag=6, local=6) from the diffs"}

    wl = tmp_path / "w.jsonl"
    write_workload(events, str(wl))
    rc = cli_main(["run", "--structure", "squares", "--workload", str(wl),
                   "--verify", "invariants", "--report", str(tmp_path / "rep.json")])
    assert rc == 2


def test_unreported_recoloring_to_a_fresh_color_is_flagged_at_its_step(monkeypatch):
    """A uniquely colored object rewritten, unreported, to a color nobody
    wears keeps every multiplicity; only a keyed count can see it."""
    import cfcolor.squares as squares
    from collections import Counter

    planted = []

    class RewritingSquares(squares.GridSquareCF):
        def insert(self, sq):
            diff = super().insert(sq)
            if sq.id == 12:
                counts = Counter(self.global_colors().values())
                victim = min(o for o, c in self.global_colors().items()
                             if counts[c] == 1 and o != sq.id)
                cell = self.cells[self.location[victim]]
                cell.colors[victim] = 10**6
                planted.append(victim)
            return diff

    def make(name, c=None, universe=None):
        return harness._Adapter(
            RewritingSquares(), harness.STRUCTURES["squares"])

    monkeypatch.setattr(harness, "make_structure", make)
    events = generate_workload("unit_square", 30, 0.0, seed=3, span=3.0)
    report = run_workload("squares", events, verify="invariants")
    bad = report["summary"]["violations"]
    assert planted
    assert bad[0]["step"] == 12 and bad[0]["check"] == "colors"
    assert "1000000" in bad[0]["detail"]


@pytest.mark.parametrize("verify", ["invariants", "oracle-every-step"])
def test_unreported_swap_is_a_colors_violation(verify, monkeypatch):
    """Two objects of one cell trade stored colors, unreported: every color
    count stays the same, so only the object -> color map can see it."""
    import cfcolor.squares as squares

    planted = []

    class SwappingSquares(squares.GridSquareCF):
        def insert(self, sq):
            diff = super().insert(sq)
            if sq.id == 3:
                colors = self.cells[self.location[sq.id]].colors
                a, b = next((a, b) for a in sorted(colors) for b in sorted(colors)
                            if a < b and colors[a] != colors[b])
                colors[a], colors[b] = colors[b], colors[a]
                planted.extend((a, b))
            return diff

    def make(name, c=None, universe=None):
        return harness._Adapter(
            SwappingSquares(), harness.STRUCTURES["squares"])

    monkeypatch.setattr(harness, "make_structure", make)
    events = generate_workload("unit_square", 12, 0.0, seed=3, span=1.0)
    report = run_workload("squares", events, verify=verify)
    bad = report["summary"]["violations"]
    assert planted
    assert bad and bad[0]["step"] == 3 and bad[0]["check"] == "colors"
    a, b = planted
    assert f"object {a}: " in bad[0]["detail"] and f"object {b}: " in bad[0]["detail"]


@pytest.mark.parametrize("structure", sorted(harness.STRUCTURES))
def test_diff_colors_are_the_reported_colors(structure):
    """Every color in a diff is one global_colors() reports: a new color
    the object wears after the update, an old or removed one it wore
    before."""
    kind, _, ratio, params = STRUCTURE_STREAMS[structure]
    s = harness.make_structure(structure, **params)
    before = s.colors()
    for ev in generate_workload(kind, 200, ratio, seed=17, **params):
        if ev["op"] == "insert":
            diff = s.insert(ev["id"], ev["object"])
        else:
            diff = s.delete(ev["id"])
        after = s.colors()
        assert diff.assigned is None or after[diff.assigned[0]] == diff.assigned[1]
        assert diff.removed is None or before[diff.removed[0]] == diff.removed[1]
        for oid, (old, new) in diff.changed.items():
            assert (before[oid], after[oid]) == (old, new)
        before = after


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


def _exit_code(argv):
    """cli.main's exit code, also when argparse exits on a usage error."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code


BAD_PARAMS = {
    # case: argv; run gets an empty workload, and every command an output path
    "run_c_below_one": ["run", "--structure", "bounded", "--c", "0.5"],
    "run_c_nan": ["run", "--structure", "bounded", "--c", "nan"],
    "run_c_inf": ["run", "--structure", "bounded", "--c", "inf"],
    "run_universe_zero": ["run", "--structure", "universe", "--universe", "0"],
    "run_universe_not_int": ["run", "--structure", "universe", "--universe", "2.5"],
    "run_unknown_structure": ["run", "--structure", "disks"],
    "bench_c_below_one": ["bench", "--structure", "bounded", "--sizes", "8", "--seeds", "1",
                          "--c", "0.5"],
    "bench_c_nan": ["bench", "--structure", "bounded", "--sizes", "8", "--seeds", "1",
                    "--c", "nan"],
    "bench_c_inf": ["bench", "--structure", "bounded", "--sizes", "8", "--seeds", "1",
                    "--c", "inf"],
    "bench_universe_zero": ["bench", "--structure", "universe", "--sizes", "8", "--seeds", "1",
                            "--universe", "0"],
    "bench_sizes_not_ints": ["bench", "--structure", "squares", "--sizes", "1,x",
                             "--seeds", "1"],
    "bench_seeds_empty": ["bench", "--structure", "squares", "--sizes", "8", "--seeds", ","],
    "gen_anchored_negative_span": ["gen", "--kind", "anchored_rect", "--n", "5", "--seed", "1",
                                   "--span", "-5"],
    "gen_bounded_c_nan": ["gen", "--kind", "bounded_rect", "--n", "5", "--seed", "1",
                          "--c", "nan"],
    "gen_bounded_sides_round_away": ["gen", "--kind", "bounded_rect", "--n", "20", "--seed", "1",
                                     "--c", "2", "--span", "1e17"],
    "gen_square_span_inf": ["gen", "--kind", "unit_square", "--n", "5", "--seed", "1",
                            "--span", "inf"],
    "gen_universe_negative_span": ["gen", "--kind", "universe_rect", "--n", "5", "--seed", "1",
                                   "--universe", "8", "--span", "-2"],
}


@pytest.mark.parametrize("case", sorted(BAD_PARAMS))
def test_cli_bad_params_exit_code(case, tmp_path, capsys):
    argv = list(BAD_PARAMS[case])
    if argv[0] == "run":
        (tmp_path / "w.jsonl").write_text("")
        argv += ["--workload", str(tmp_path / "w.jsonl")]
    argv += ["--out" if argv[0] == "gen" else "--report", str(tmp_path / "out.json")]
    assert _exit_code(argv) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(("error: ", "usage: ")) and err.count("error:") == 1
    assert not (tmp_path / "out.json").exists()


@given(kind=st.sampled_from(sorted(harness.KINDS)),
       span=st.none() | st.floats() | st.integers(min_value=-2**1030, max_value=2**1030),
       c=st.none() | st.floats(),
       universe=st.none() | st.integers(min_value=-3, max_value=2**1030))
# ints beyond the float range, which span + c must not overflow on
@example(kind="bounded_rect", span=2**1030, c=2.0, universe=None)
@example(kind="bounded_rect", span=-2**1030, c=2.0, universe=None)
@example(kind="universe_rect", span=None, c=None, universe=2**1030)
# sides that round away at a large span: (0.0, 0.0), and some outside [1, c]
@example(kind="bounded_rect", span=1e17, c=2.0, universe=None)
@example(kind="bounded_rect", span=1e14, c=2.2, universe=None)
def test_gen_writes_only_workloads_that_read_back(kind, span, c, universe):
    try:
        events = generate_workload(kind, 6, 0.3, seed=5, span=span, c=c, universe=universe)
    except InvalidParams:
        return
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "w.jsonl")
        write_workload(events, path)
        assert read_workload(path) == events
    if kind == "bounded_rect":
        run_workload("bounded", events, c=c)


REGISTRY_PARAMS = ["--c", "3", "--universe", "32"]


@pytest.mark.parametrize("structure", sorted(harness.STRUCTURES))
def test_every_registered_structure_runs_through_the_cli(structure, tmp_path):
    kind = harness.STRUCTURES[structure].kind
    deletes = harness.make_structure(structure, c=3, universe=32).supports_delete
    ratio = "0.3" if deletes else "0"
    wl = str(tmp_path / "w.jsonl")
    assert cli_main(["gen", "--kind", kind, "--n", "40", "--delete-ratio", ratio,
                     "--seed", "2", "--out", wl, *REGISTRY_PARAMS]) == 0
    assert cli_main(["run", "--structure", structure, "--workload", wl,
                     "--verify", "oracle-sampled", "--report", str(tmp_path / "r.json"),
                     *REGISTRY_PARAMS]) == 0
    assert cli_main(["bench", "--structure", structure, "--sizes", "16,32", "--seeds", "1",
                     "--delete-ratio", ratio, "--report", str(tmp_path / "b.json"),
                     *REGISTRY_PARAMS]) == 0


def test_cli_choices_are_the_registry_keys():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    choices = {(name, a.dest): list(a.choices)
               for name, sub in commands.items() for a in sub._actions if a.choices}
    assert choices == {
        ("gen", "kind"): list(harness.KINDS),
        ("run", "structure"): list(harness.STRUCTURES),
        ("run", "verify"): list(harness.VERIFY_MODES),
        ("bench", "structure"): list(harness.STRUCTURES),
    }


_small = st.sampled_from([0, 1, 2.5, 3, 5, 31, 32, 40.5]) | st.floats(min_value=0, max_value=40)
_junk = st.one_of(
    st.floats(), st.integers(min_value=-2**1030, max_value=2**1030),
    st.booleans(), st.none(), st.text(max_size=2), st.lists(st.integers(), max_size=2))


# true about one time in eight; plain integer draws lean towards their bounds
_rare = st.sampled_from(range(8)).map(lambda k: k == 3)


@st.composite
def _junk_runs(draw):
    """A structure and a few events; most inserts carry the structure's kind
    and small numbers, so that they get past validation into the structure."""
    structure = draw(st.sampled_from(sorted(harness.STRUCTURES)))
    events = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        oid = draw(st.integers(min_value=0, max_value=3))
        if draw(_rare):
            events.append({"op": "delete", "id": oid})
            continue
        kind = harness.STRUCTURES[structure].kind
        if draw(_rare):
            kind = draw(st.sampled_from(sorted(harness.KINDS)))
        fields = harness.KINDS[kind].fields
        if draw(_rare):
            values = [draw(_junk) for _ in fields]
        else:  # small numbers, often ascending as rectangle bounds must be
            values = [draw(_small) for _ in fields]
            if draw(st.booleans()):
                values.sort()
        obj = {"kind": kind, **dict(zip(fields, values))}
        if draw(_rare):
            del obj[draw(st.sampled_from(fields))]
        events.append({"op": "insert", "id": oid, "object": obj})
    return structure, events


@settings(max_examples=150)
@given(run=_junk_runs(), verify=st.sampled_from(harness.VERIFY_MODES))
def test_cli_fuzz_junk_records_exit_cleanly(run, verify):
    structure, events = run
    with tempfile.TemporaryDirectory() as d:
        wl = os.path.join(d, "w.jsonl")
        with open(wl, "w") as fh:
            fh.writelines(json.dumps(ev) + "\n" for ev in events)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli_main(["run", "--structure", structure, "--workload", wl,
                           "--verify", verify, "--report", os.path.join(d, "r.json"),
                           *REGISTRY_PARAMS])
    assert rc in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
