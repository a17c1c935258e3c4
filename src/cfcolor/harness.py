"""Workload generation, replay, verification, and reporting.

Workloads are JSONL event streams: one {"op", "id", "object"} record per
line, where "object" is a tagged union present on inserts.  read_workload
rejects a record with a missing or non-finite coordinate, one its kind's
rule forbids (inverted rectangle bounds, say), or an id that is not an
int.  Replay applies events in order against one of the named structures
and writes the report as JSON plus a CSV mirror of the step table.

Two tables drive it all.  KINDS maps an object kind to its coordinate
fields, the generator's draw(rng, span, c), its validity rule, and the
parameter it needs with that parameter's range rule (from rects.py, which
the structure's constructor applies too); STRUCTURES maps a structure name
to the kind it holds and build(c, universe) -> adapter.  Generation,
validation, make_structure, run_workload, run_bench and the CLI's choices
read only these.  Adding a structure is one STRUCTURES entry, plus a KINDS
entry for a new kind.

Report schema (run_workload):

  config   {"structure", "verify", and "c" / "universe" / "workload" when
           given}
  steps    one row per event:
             step             event index
             op, id           the event
             n                live objects after the event
             recolorings      len(diff.changed): pre-existing objects whose
                              color the event changed
             distinct_colors  colors in use over the live objects
             verified         true / false, or "skipped" when no check ran
             level            framework structures only: the last level l
             set_states       framework structures only: each level's state,
                              comma-separated
  summary  {"events", "final_n", "max_recolorings", "max_distinct_colors",
           "total_recolorings" (sum of the recolorings column),
           "structure_recoloring_counter" (the structure's own counter),
           "violations": [{"step", "check", "detail"}], where check is
           "invariants", "colors" or "oracle"}

File contract: the report JSON is the bytes of json.dump(report, indent=2,
sort_keys=True) plus a newline, and the CSV those of csv.DictWriter over
REPORT_FIELDS with restval "" and newline line ends; a bench file is the
same over its trials and BENCH_FIELDS.  A workload line is
json.dumps(event, sort_keys=True).  The writers produce these bytes through
the C encoder, and for that rely on every step and trial row being a
non-empty, flat dict of scalars.

distinct_colors is counted from the RecolorDiff of each update: replay
keeps a color -> multiplicity map, so a step costs O(recolorings), not
O(n).  At every step where invariants are checked, the map is recounted
from the structure's global_colors() and compared with it color by color,
after the adapter has mapped the diffs' colors into global_colors()' color
space (AnchoredCF's plain ints c become GlobalColor(ANCHORED_SCHEME_TAG,
c)).  Any color whose count differs, including an unreported recoloring
to a color nobody else wears, is a violation with check "colors".

Generation is deterministic for a fixed seed: the documented generator is
Python's Mersenne Twister (random.Random(seed)), so workloads regenerate
identically across platforms.

Verification modes: "none", "invariants" (structure audits and the color
count every step), "oracle-sampled" (both, plus ground-truth conflict-free
checks, every step while n <= 256, every 32nd step beyond, and always at
the final state), and "oracle-every-step".
"""

from __future__ import annotations

import csv
import json
import random
import sys
from collections import Counter
from typing import Callable, NamedTuple

from .anchored import AnchoredCF
from .framework import FullyDynamicEngine, SemiDynamicEngine
from .geom import AxisRect, Pt, UnitSquare
from .oracle import (
    check_cf,
    check_cf_intervals,
    check_cf_rect_ranges,
    check_unimax_intervals,
    check_unimax_rect_ranges,
)
from .rects import (BoundedRectCF, SizeOutOfRange, UniverseRectCF, check_sides,
                    check_size_bound, check_universe_size)
from .squares import GridSquareCF
from .unimax import IntervalPointColorer, RectPointColorer

ORACLE_EVERY_STEP_LIMIT = 256
ORACLE_SAMPLE_STRIDE = 32
VERIFY_MODES = ("none", "invariants", "oracle-sampled", "oracle-every-step")
_FLOAT_MAX = sys.float_info.max
# Without indent, json encodes in C.  Report rows are written one key per
# line, six spaces in: their depth under json.dump(indent=2).
_ROWS_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
_ROWS_PER_ENCODE = 256
_encode_event = json.JSONEncoder(sort_keys=True).encode


class InvalidParams(ValueError):
    pass


class ParseError(ValueError):
    pass


class KindMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# the registry: object kinds and the structures that hold them
# ---------------------------------------------------------------------------

class Kind(NamedTuple):
    fields: tuple[str, ...]          # coordinate fields, all finite numbers
    draw: Callable                   # (rng, span, c) -> coordinates, for gen
    needs: str | None = None         # "c" or "universe": a required parameter
    invalid: Callable | None = None  # coordinates -> why they are invalid, or None
    check: Callable | None = None    # the needed parameter's range rule, owned by rects


class Structure(NamedTuple):
    kind: str
    build: Callable                  # (c, universe) -> adapter


def _inverted_bounds(o: dict) -> str | None:
    return "with inverted bounds" if o["x1"] > o["x2"] or o["y1"] > o["y2"] else None


def _draw_bounded(rng, span, c):
    x1 = rng.uniform(0, span)
    y1 = rng.uniform(0, span)
    x2 = x1 + rng.uniform(1.0, c)
    y2 = y1 + rng.uniform(1.0, c)
    # at a large span, adding a side length to a corner rounds
    try:
        check_sides(x2 - x1, y2 - y1, c)
    except SizeOutOfRange as exc:
        raise InvalidParams(f"span {span} too large for c {c}: {exc}") from None
    return {"x1": x1, "x2": x2, "y1": y1, "y2": y2}


def _draw_universe(rng, span, c):
    hi = int(span)
    x1, x2 = sorted((rng.randint(0, hi), rng.randint(0, hi)))
    y1, y2 = sorted((rng.randint(0, hi), rng.randint(0, hi)))
    return {"x1": x1, "x2": x2, "y1": y1, "y2": y2}


KINDS = {
    "anchored_rect": Kind(
        ("x2", "y2"),
        lambda rng, span, c: {"x2": rng.uniform(0.001, span), "y2": rng.uniform(0.001, span)},
        invalid=lambda o: "corner below the origin" if o["x2"] < 0 or o["y2"] < 0 else None),
    "unit_square": Kind(
        ("x", "y"), lambda rng, span, c: {"x": rng.uniform(0, span), "y": rng.uniform(0, span)}),
    "bounded_rect": Kind(("x1", "x2", "y1", "y2"), _draw_bounded, "c", _inverted_bounds,
                         check_size_bound),
    # integer coordinates in {0..universe-1}; span is the largest one drawn
    "universe_rect": Kind(("x1", "x2", "y1", "y2"), _draw_universe, "universe",
                          _inverted_bounds, check_universe_size),
    "point_1d": Kind(("x",), lambda rng, span, c: {"x": rng.uniform(0, span)}),
    "point_2d": Kind(
        ("x", "y"), lambda rng, span, c: {"x": rng.uniform(0, span), "y": rng.uniform(0, span)}),
}


def _anchored(c, universe):
    cf = AnchoredCF()
    return _GeometricAdapter(
        cf, lambda oid, p: AxisRect(0.0, p["x2"], 0.0, p["y2"], oid), cf.global_color)


def _payload_to_rect(oid, payload):
    return AxisRect(payload["x1"], payload["x2"], payload["y1"], payload["y2"], oid)


# Oracle checks are called by name inside lambdas, so they are looked up in
# this module's namespace on every call.
STRUCTURES = {
    "anchored": Structure("anchored_rect", _anchored),
    "squares": Structure("unit_square", lambda c, universe: _GeometricAdapter(
        GridSquareCF(), lambda oid, p: UnitSquare(p["x"], p["y"], oid))),
    "bounded": Structure("bounded_rect", lambda c, universe: _GeometricAdapter(
        BoundedRectCF(c), _payload_to_rect)),
    "universe": Structure("universe_rect", lambda c, universe: _GeometricAdapter(
        UniverseRectCF(universe), _payload_to_rect)),
    "semi-1d": Structure("point_1d", lambda c, universe: _FrameworkAdapter(
        SemiDynamicEngine(IntervalPointColorer, _interval_checker), lambda oid, p: p["x"],
        lambda colored: check_cf_intervals(colored))),
    "full-1d": Structure("point_1d", lambda c, universe: _FrameworkAdapter(
        FullyDynamicEngine(IntervalPointColorer, _interval_checker), lambda oid, p: p["x"],
        lambda colored: check_cf_intervals(colored))),
    "full-2d": Structure("point_2d", lambda c, universe: _FrameworkAdapter(
        FullyDynamicEngine(RectPointColorer, _rect_checker),
        lambda oid, p: Pt(p["x"], p["y"]),
        lambda colored: check_cf_rect_ranges(colored, samples=20_000))),
}


# ---------------------------------------------------------------------------
# workload generation
# ---------------------------------------------------------------------------

def _needed_param(who: str, needs: str | None, c: float | None, universe: int | None):
    """The value of the parameter `needs` names, None if it names none;
    InvalidParams if it is missing."""
    if needs is None:
        return None
    value = c if needs == "c" else universe
    if value is None:
        raise InvalidParams(f"{who} needs --{needs}")
    return value


def generate_workload(kind: str, n: int, delete_ratio: float, seed: int,
                      span: float | None = None, c: float | None = None,
                      universe: int | None = None) -> list[dict]:
    """Deterministic event stream: n inserts plus ~delete_ratio*n deletions
    of uniformly random live ids, interleaved."""
    spec = KINDS.get(kind)
    if spec is None:
        raise InvalidParams(f"unknown object kind {kind!r}")
    if n < 0:
        raise InvalidParams("n must be non-negative")
    if not 0.0 <= delete_ratio < 1.0:
        raise InvalidParams("delete ratio must be in [0, 1)")
    if c is not None and not -_FLOAT_MAX <= c <= _FLOAT_MAX:
        raise InvalidParams(f"size bound c must be finite, got {c}")
    value = _needed_param(kind, spec.needs, c, universe)
    if value is not None:
        try:
            spec.check(value)
        except ValueError as exc:
            raise InvalidParams(str(exc)) from None
    if spec.needs == "universe":
        if span is None:
            span = universe - 1
        elif span > universe - 1:
            raise InvalidParams(
                f"coordinate {span} requested outside universe [0, {universe - 1}]")
    elif span is None:
        span = 10.0
    # the chained comparisons rule out NaN too; c is finite by now
    if not 0 <= span <= _FLOAT_MAX:
        raise InvalidParams(f"span must be finite and >= 0, got {span}")
    if spec.needs == "c" and not span + c <= _FLOAT_MAX:
        raise InvalidParams(f"span + c must be finite, got {span} + {c}")

    rng = random.Random(seed)
    draw = spec.draw
    tokens = ["I"] * n + ["D"] * round(n * delete_ratio)
    rng.shuffle(tokens)

    events: list[dict] = []
    live: list[int] = []
    next_id = 0
    deferred = 0
    for tok in tokens:
        if tok == "I":
            obj = draw(rng, span, c)
            obj["kind"] = kind
            events.append({"op": "insert", "id": next_id, "object": obj})
            live.append(next_id)
            next_id += 1
        else:
            deferred += 1
        # a deletion drawn while nothing is live waits for the next insert
        while deferred and live:
            idx = rng.randrange(len(live))
            live[idx], live[-1] = live[-1], live[idx]
            events.append({"op": "delete", "id": live.pop()})
            deferred -= 1
    return events


def write_workload(events: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join([_encode_event(ev) + "\n" for ev in events]))


def _object_error(obj) -> str | None:
    """Why an insert's object breaks its kind's schema, or None."""
    if type(obj) is not dict:
        return f"object is not a JSON object: {obj!r}"
    kind = obj.get("kind")
    spec = KINDS.get(kind) if type(kind) is str else None
    if spec is None:
        return f"unknown object kind {kind!r}"
    for name in spec.fields:
        if name not in obj:
            return f"{kind} without field {name!r}"
        v = obj[name]
        # type() rules out bool; the chained comparison rules out NaN and +-inf
        if type(v) not in (int, float) or not -_FLOAT_MAX <= v <= _FLOAT_MAX:
            return f"{kind} field {name!r} is not a finite number: {v!r}"
    problem = spec.invalid(obj) if spec.invalid is not None else None
    return None if problem is None else f"{kind} {problem}: {obj!r}"


def read_workload(path: str) -> list[dict]:
    """Parse and validate a JSONL workload; any bad record raises ParseError."""
    events = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            # ValueError covers bad JSON and bytes that are not UTF-8
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


# ---------------------------------------------------------------------------
# structure adapters
# ---------------------------------------------------------------------------

def _interval_checker(points, colors):
    return check_unimax_intervals([(points[o], colors[o]) for o in points])


def _rect_checker(points, colors):
    return check_unimax_rect_ranges([(points[o], colors[o]) for o in points])


class _GeometricAdapter:
    """The replay interface over one structure: insert a payload, delete an
    id, read colors and counters, and run its audits and oracle check."""

    supports_delete = True

    def __init__(self, structure, to_object, global_color=None):
        self.structure = structure
        self.to_object = to_object
        # maps a diff color to its global_colors() color; None: they agree
        self.global_color = global_color

    def insert(self, oid, payload):
        return self.structure.insert(self.to_object(oid, payload))

    def delete(self, oid):
        return self.structure.delete(oid)

    def __len__(self):
        return len(self.structure)

    def colors(self):
        return self.structure.global_colors()

    def global_counts(self, counts):
        """A diff-space color -> count map, keyed in global_colors()' space."""
        if self.global_color is None:
            return counts
        return {self.global_color(c): k for c, k in counts.items()}

    def total_recolorings(self):
        return self.structure.total_recolorings

    def check_invariants(self):
        return self.structure.audit()

    def check_oracle(self):
        return check_cf(self.structure.colored_rects())

    def framework_info(self):
        return None


class _FrameworkAdapter(_GeometricAdapter):
    """A dynamization engine: its diffs carry the GlobalColor it reports,
    and range_check(colored points) stands in for check_cf."""

    def __init__(self, engine, to_object, range_check):
        super().__init__(engine, to_object)
        self.range_check = range_check
        self.supports_delete = hasattr(engine, "delete")

    def insert(self, oid, payload):
        return self.structure.insert(oid, self.to_object(oid, payload))

    def delete(self, oid):
        if not self.supports_delete:
            raise KindMismatch("insert-only structure cannot replay deletions")
        return self.structure.delete(oid)

    def check_invariants(self):
        return self.structure.check_invariants()

    def check_oracle(self):
        engine = self.structure
        return self.range_check([(engine.objects[o], c) for o, c in engine.actual.items()])

    def framework_info(self):
        return self.structure.ell, ",".join(self.structure.set_states())


def make_structure(name: str, c: float | None = None, universe: int | None = None):
    spec = STRUCTURES.get(name)
    if spec is None:
        raise InvalidParams(f"unknown structure {name!r}")
    _needed_param(f"{name} structure", KINDS[spec.kind].needs, c, universe)
    return spec.build(c, universe)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def _should_verify(mode: str, step: int, total: int, n: int) -> tuple[bool, bool]:
    """(run invariants, run oracle) for this step."""
    last = step == total - 1
    if mode == "none":
        return False, False
    if mode == "invariants":
        return True, False
    if mode == "oracle-every-step":
        return True, True
    if mode == "oracle-sampled":
        due = n <= ORACLE_EVERY_STEP_LIMIT or step % ORACLE_SAMPLE_STRIDE == 0 or last
        return due, due
    raise InvalidParams(f"unknown verify mode {mode!r}")


def _count(counts: dict, color, delta: int) -> None:
    k = counts.get(color, 0) + delta
    if k:
        counts[color] = k
    else:
        del counts[color]


def _count_diff(counts: dict, diff) -> None:
    """Apply one update's RecolorDiff to a color -> multiplicity map."""
    for old, new in diff.changed.values():
        _count(counts, old, -1)
        _count(counts, new, 1)
    if diff.assigned is not None:
        _count(counts, diff.assigned[1], 1)
    if diff.removed is not None:
        _count(counts, diff.removed[1], -1)


def _colors_mismatch(recount: dict, counted: dict) -> str:
    extra = sorted((Counter(recount) - Counter(counted)).elements())
    missing = sorted((Counter(counted) - Counter(recount)).elements())
    return (f"colors {extra} in global_colors() but not in the diffs, "
            f"{missing} in the diffs but not in global_colors()")


def run_workload(structure_name: str, events: list[dict], verify: str = "none",
                 c: float | None = None, universe: int | None = None,
                 config_extra: dict | None = None) -> dict:
    """Replay events; returns the report dict (schema in the module docstring)."""
    adapter = make_structure(structure_name, c=c, universe=universe)
    expected_kind = STRUCTURES[structure_name].kind
    steps = []
    violations = []
    live_ids: set[int] = set()
    # colors in use, in the structure's own color space (that of its diffs)
    color_counts: dict = {}
    for step, ev in enumerate(events):
        op = ev["op"]
        oid = ev["id"]
        if op == "insert":
            obj = ev["object"]
            if obj.get("kind") != expected_kind:
                raise KindMismatch(
                    f"step {step}: structure {structure_name} cannot hold {obj.get('kind')!r}")
            if oid in live_ids:
                raise ParseError(f"step {step}: duplicate insert id {oid}")
            diff = adapter.insert(oid, obj)
            live_ids.add(oid)
        else:
            if oid not in live_ids:
                raise ParseError(f"step {step}: delete of non-live id {oid}")
            diff = adapter.delete(oid)
            live_ids.discard(oid)
        _count_diff(color_counts, diff)

        n = len(adapter)
        inv_due, oracle_due = _should_verify(verify, step, len(events), n)
        verified: bool | str = "skipped"
        if inv_due or oracle_due:
            verified = True
            if inv_due:
                report = adapter.check_invariants()
                if report is not None:
                    verified = False
                    violations.append({"step": step, "check": "invariants",
                                       "detail": str(report.reason)})
                recount = Counter(adapter.colors().values())
                counted = adapter.global_counts(color_counts)
                if recount != counted:
                    verified = False
                    violations.append({"step": step, "check": "colors",
                                       "detail": _colors_mismatch(recount, counted)})
            if oracle_due and verified is True:
                witness = adapter.check_oracle()
                if witness is not None:
                    verified = False
                    violations.append({"step": step, "check": "oracle",
                                       "detail": str(witness)})
        row = {
            "step": step,
            "op": op,
            "id": oid,
            "n": n,
            "recolorings": diff.recolorings,
            "distinct_colors": len(color_counts),
            "verified": verified,
        }
        info = adapter.framework_info()
        if info is not None:
            row["level"] = info[0]
            row["set_states"] = info[1]
        steps.append(row)

    summary = {
        "events": len(events),
        "final_n": len(adapter),
        "max_recolorings": max((s["recolorings"] for s in steps), default=0),
        "max_distinct_colors": max((s["distinct_colors"] for s in steps), default=0),
        "total_recolorings": sum(s["recolorings"] for s in steps),
        "structure_recoloring_counter": adapter.total_recolorings(),
        "violations": violations,
    }
    config = {"structure": structure_name, "verify": verify}
    if c is not None:
        config["c"] = c
    if universe is not None:
        config["universe"] = universe
    config.update(config_extra or {})
    return {"config": config, "steps": steps, "summary": summary}


REPORT_FIELDS = ("step", "op", "id", "n", "recolorings", "distinct_colors",
                 "verified", "level", "set_states")
BENCH_FIELDS = ("structure", "n", "seed", "events", "final_n",
                "max_recolorings", "max_distinct_colors", "total_recolorings")


def _write_json_csv(doc: dict, key: str, fields: tuple, path: str) -> None:
    """doc as JSON at path, and its rows table doc[key] as CSV next to it
    (.json becomes .csv), in the bytes of the file contract (module
    docstring) but through the C encoders."""
    rows = doc[key]
    # the rows table is doc's only top-level key of that name, and a newline
    # followed by two spaces and a quote opens a top-level key, nothing else
    head, tail = json.dumps({**doc, key: []}, indent=2, sort_keys=True).split(
        f'\n  "{key}": []')
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        fh.write(f'\n  "{key}": ')
        if rows:
            # A newline in the encoder's output comes only from a separator
            # (strings escape theirs), and rows are flat dicts of scalars, so
            # "},\n      {" is always a break between two rows.  Blocks of rows
            # bound the encoder's memory: it holds every piece of its output
            # as a separate string until it returns.
            row_break = "\n    },\n    {\n      "
            for i in range(0, len(rows), _ROWS_PER_ENCODE):
                fh.write(row_break if i else "[\n    {\n      ")
                block = _ROWS_ENCODER.encode(rows[i:i + _ROWS_PER_ENCODE])
                fh.write(block[2:-2].replace("},\n      {", row_break))
            fh.write("\n    }\n  ]")
        else:
            fh.write("[]")
        fh.write(tail)
        fh.write("\n")
    csv_path = path[:-5] + ".csv" if path.endswith(".json") else path + ".csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows([row.get(f, "") for f in fields] for row in rows)


def write_report(report: dict, path: str) -> None:
    _write_json_csv(report, "steps", REPORT_FIELDS, path)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def run_bench(structure_name: str, sizes: list[int], seeds: list[int],
              delete_ratio: float | None = None, c: float | None = None,
              universe: int | None = None) -> dict:
    """Seeded trials per size; delete_ratio None means 0.3, or 0 for a
    structure that cannot delete."""
    kind = STRUCTURES[structure_name].kind
    if delete_ratio is None:
        deletes = make_structure(structure_name, c=c, universe=universe).supports_delete
        delete_ratio = 0.3 if deletes else 0.0
    trials = []
    for n in sizes:
        for seed in seeds:
            events = generate_workload(kind, n, delete_ratio, seed,
                                       c=c, universe=universe)
            summary = run_workload(structure_name, events, verify="none",
                                   c=c, universe=universe)["summary"]
            trials.append({"structure": structure_name, "n": n, "seed": seed,
                           "events": len(events), "final_n": summary["final_n"],
                           "max_recolorings": summary["max_recolorings"],
                           "max_distinct_colors": summary["max_distinct_colors"],
                           "total_recolorings": summary["total_recolorings"]})
    return {"config": {"structure": structure_name, "sizes": sizes,
                       "seeds": seeds, "delete_ratio": delete_ratio,
                       "c": c, "universe": universe},
            "trials": trials}


def write_bench(bench: dict, path: str) -> None:
    _write_json_csv(bench, "trials", BENCH_FIELDS, path)
