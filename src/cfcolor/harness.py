"""Workload generation, replay, verification, and reporting.

Workloads are JSONL event streams: one {"op", "id", "object"} record per
line, where "object" is a tagged union present on inserts.  read_workload
rejects a record with a missing or non-finite coordinate, one its kind's
rule forbids (inverted rectangle bounds, say), or an id that is not an
int.  Replay applies events in order against one of the named structures
and writes the report as JSON plus a CSV mirror of the step table.

Two tables drive it all.  KINDS maps an object kind to its coordinate
fields, the generator's draw(rng, span, c), to_object(id, coordinates),
its validity rule, and the parameter it needs with that parameter's range
rule (from rects.py, which the structure's constructor applies too).
STRUCTURES maps a structure name to the kind it holds, build(c, universe)
-> structure, insert(structure, id, object) -> RecolorDiff, oracle(),
which makes one replay's view -> Witness | None check, and
levels(structure), an engine's (ell, set states).  Every structure
answers colored_objects() and audited_view() (below), so one adapter
replays every structure from its entry, and deletes where the structure
has a delete method.  Generation, validation, make_structure,
run_workload, run_bench and the CLI's choices read only these tables.
Adding a structure is one STRUCTURES entry, plus a KINDS entry for a new
kind.

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
                              empty, full, up-migration or down-migration,
                              comma-separated
  summary  {"events", "final_n", "max_recolorings", "max_distinct_colors",
           "total_recolorings" (sum of the recolorings column),
           "structure_recoloring_counter" (the structure's own counter),
           "violations": [{"step", "check", "detail"}], where check is
           "invariants", "colors", "oracle" or "update": an update raised
           after a violation, so replay ended before its row; detail
           "<exception type>: <message>"}

File contract: the report JSON is the bytes of json.dump(report, indent=2,
sort_keys=True) plus a newline, and the CSV those of csv.DictWriter over
REPORT_FIELDS with restval "" and newline line ends; a bench file is the
same over its trials and BENCH_FIELDS.  The writers use json.dumps for all
but the rows, and one %-template per row shape (geometric step, framework
step, bench trial) for each row's JSON object and CSV line, a block of
_ROWS_PER_ENCODE rows at a time to bound the text held.  So they rely on
closed schemas, every row holding exactly one shape's fields, and closed
value types: ints; one finite float, us_per_event, whose repr is its JSON
and CSV text; verified true, false or "skipped"; and strings from closed
sets (ops, level states, structure names) that JSON writes as themselves
and CSV writes bare, but for a set_states of several states, which CSV
quotes for its commas.

A workload file holds one JSON object per line, each line the bytes of
json.dumps(event, sort_keys=True) plus a newline: keys sorted, ", " and
": " separators, ints and finite floats as repr writes them.
write_workload fills one %-template per line shape, built at import from
KINDS: one for a delete, and one for an insert of each kind whose name and
fields JSON writes as themselves.  An event takes a template only when it
has exactly that shape: a dict keyed exactly "op" and "id" with op
"delete", or "op", "id" and "object" with op "insert"; an id of type int;
an object keyed exactly "kind" and that kind's fields; and coordinates of
type int or float within +-sys.float_info.max.  Every other event (a bool,
NaN or +-inf, an int beyond the float range, a float subclass, a key
missing or extra, a kind unknown or not a str) goes to the stdlib encoder.

distinct_colors is counted from the RecolorDiff of each update, whose
colors are those global_colors() reports: replay keeps an object -> color
map and a color -> multiplicity map over it, so a step costs
O(recolorings), not O(n).  At every step where invariants are checked,
the colors of the structure's view (below) must equal the object -> color
map; any object whose color differs, an unreported recoloring or swap
say, is a violation with check "colors".

Generation is deterministic for a fixed seed: the documented generator is
Python's Mersenne Twister (random.Random(seed)), so workloads regenerate
identically across platforms.

Verification modes: "none", "invariants" (structure audits and the color
check every step), "oracle-sampled" (both, plus ground-truth conflict-free
checks, every step while n <= 256, every 32nd step beyond, and always at
the final state), and "oracle-every-step".  A verified step reads the
structure's view once: colored_objects(), (id, (object, color)) per
stored object, the object being the one the kind's to_object built (an
AxisRect or a point).  The structure's audited_view() audits it and
hands over the view of the state it checked: always for an engine, and
for a geometric structure when the audit passes; otherwise the step
reads colored_objects().  The colors check and the oracle share the
view, and an update drops it.  After a passing check the next rectangle
check sweeps only the box around the old and new rectangles of objects
changed since (oracle.IncrementalCF): a point outside keeps the cover
that passed, and a set whose colors are all distinct passes without a
sweep.  The audits re-check only what changed since they last passed
(cells.py, framework.py), but every check still covers the whole state,
so each verdict is the full check's.
"""

from __future__ import annotations

import json
import random
import sys
import time
from operator import itemgetter
from typing import Callable, NamedTuple

from .anchored import AnchoredCF
from .framework import FullyDynamicEngine, SemiDynamicEngine
from .geom import AxisRect, Pt
from .oracle import (
    IncrementalCF,
    check_cf,
    check_cf_intervals,
    check_cf_rect_ranges,
    check_unimax_intervals,
    check_unimax_rect_ranges,
)
from .rects import (BoundedRectCF, SizeOutOfRange, UniverseRectCF, check_sides,
                    check_size_bound, check_universe_size)
from .squares import GridSquareCF, unit_square
from .unimax import IntervalPointColorer, RectPointColorer

ORACLE_EVERY_STEP_LIMIT = 256
ORACLE_SAMPLE_STRIDE = 32
VERIFY_MODES = ("none", "invariants", "oracle-sampled", "oracle-every-step")
_FLOAT_MAX = sys.float_info.max
_ROWS_PER_ENCODE = 256
_encode_event = json.JSONEncoder(sort_keys=True).encode
_decode_event = json.JSONDecoder().raw_decode
_ASCII_WHITESPACE = " \t\n\r\x0b\x0c"   # what bytes.strip() strips


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
    to_object: Callable              # (id, coordinates) -> the object a structure holds
    needs: str | None = None         # "c" or "universe": a required parameter
    invalid: Callable | None = None  # coordinates -> why they are invalid, or None
    check: Callable | None = None    # the needed parameter's range rule, owned by rects


class Structure(NamedTuple):
    kind: str
    build: Callable                  # (c, universe) -> the structure
    insert: Callable                 # (structure, id, object) -> RecolorDiff
    oracle: Callable                 # () -> a view's check -> Witness | None, one per replay
    levels: Callable = lambda structure: None  # engine -> (ell, its set states)


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


def _payload_to_rect(oid, payload):
    return AxisRect(payload["x1"], payload["x2"], payload["y1"], payload["y2"], oid)


KINDS = {
    "anchored_rect": Kind(
        ("x2", "y2"),
        lambda rng, span, c: {"x2": rng.uniform(0.001, span), "y2": rng.uniform(0.001, span)},
        lambda oid, p: AxisRect(0.0, p["x2"], 0.0, p["y2"], oid),
        invalid=lambda o: "corner below the origin" if o["x2"] < 0 or o["y2"] < 0 else None),
    "unit_square": Kind(
        ("x", "y"), lambda rng, span, c: {"x": rng.uniform(0, span), "y": rng.uniform(0, span)},
        lambda oid, p: unit_square(p["x"], p["y"], oid)),
    "bounded_rect": Kind(("x1", "x2", "y1", "y2"), _draw_bounded, _payload_to_rect, "c",
                         _inverted_bounds, check_size_bound),
    # integer coordinates in {0..universe-1}; span is the largest one drawn
    "universe_rect": Kind(("x1", "x2", "y1", "y2"), _draw_universe, _payload_to_rect,
                          "universe", _inverted_bounds, check_universe_size),
    "point_1d": Kind(("x",), lambda rng, span, c: {"x": rng.uniform(0, span)},
                     lambda oid, p: p["x"]),
    "point_2d": Kind(
        ("x", "y"), lambda rng, span, c: {"x": rng.uniform(0, span), "y": rng.uniform(0, span)},
        lambda oid, p: Pt(p["x"], p["y"])),
}


# Entry parts.  Oracle checks are called by name inside lambdas, so they
# are looked up in this module's namespace on every call.
_second = itemgetter(1)
_insert_object = lambda structure, oid, obj: structure.insert(obj)
_cf_boxes = lambda: IncrementalCF(lambda colored: check_cf(colored)).check
_insert_keyed = lambda engine, oid, obj: engine.insert(oid, obj)
_levels = lambda engine: (engine.ell, ",".join(engine.set_states()))
_cf_intervals = lambda: lambda view: check_cf_intervals(list(map(_second, view)))
_cf_rects = lambda: lambda view: check_cf_rect_ranges(list(map(_second, view)))
_interval_checker = lambda points, colors: check_unimax_intervals(
    [(points[o], colors[o]) for o in points])
_rect_checker = lambda points, colors: check_unimax_rect_ranges(
    [(points[o], colors[o]) for o in points])


STRUCTURES = {
    "anchored": Structure("anchored_rect", lambda c, universe: AnchoredCF(),
                          _insert_object, _cf_boxes),
    "squares": Structure("unit_square", lambda c, universe: GridSquareCF(),
                         _insert_object, _cf_boxes),
    "bounded": Structure("bounded_rect", lambda c, universe: BoundedRectCF(c),
                         _insert_object, _cf_boxes),
    "universe": Structure("universe_rect", lambda c, universe: UniverseRectCF(universe),
                          _insert_object, _cf_boxes),
    "semi-1d": Structure("point_1d", lambda c, universe: SemiDynamicEngine(
        IntervalPointColorer, _interval_checker), _insert_keyed, _cf_intervals, _levels),
    "full-1d": Structure("point_1d", lambda c, universe: FullyDynamicEngine(
        IntervalPointColorer, _interval_checker), _insert_keyed, _cf_intervals, _levels),
    "full-2d": Structure("point_2d", lambda c, universe: FullyDynamicEngine(
        RectPointColorer, _rect_checker), _insert_keyed, _cf_rects, _levels),
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


def _insert_template(kind: str, fields: tuple[str, ...]) -> tuple | None:
    """(object size, object -> its coordinates in sorted field order, line
    template) of a kind's insert, as json.dumps(sort_keys=True) writes it
    with the id and coordinates left to %r; None if JSON would escape the
    kind or a field name."""
    keys = sorted(("kind", *fields))
    if any(json.dumps(k) != f'"{k}"' for k in (kind, *keys)):
        return None
    slots = ", ".join(f'"{k}": "{kind}"' if k == "kind" else f'"{k}": %r' for k in keys)
    coords = [k for k in keys if k != "kind"]
    get = itemgetter(*coords)
    if len(coords) == 1:
        get = lambda obj, one=get: (one(obj),)
    return len(keys), get, '{"id": %r, "object": {' + slots + '}, "op": "insert"}\n'


_DELETE_LINE = '{"id": %r, "op": "delete"}\n'
_INSERT_LINES = {kind: line for kind, spec in KINDS.items()
                 if (line := _insert_template(kind, spec.fields)) is not None}


def _event_line(ev) -> str:
    """ev's workload line: its template filled in when ev has exactly a
    template's shape (module docstring), json's encoder's line otherwise."""
    oid = ev.get("id") if type(ev) is dict else None
    if type(oid) is int:
        op = ev.get("op")
        # with "id" and "op" present, the size rules out any other key
        if len(ev) == 2 and op == "delete":
            return _DELETE_LINE % oid
        obj = ev.get("object") if len(ev) == 3 and op == "insert" else None
        kind = obj.get("kind") if type(obj) is dict else None
        shape = _INSERT_LINES.get(kind) if type(kind) is str else None
        if shape is not None and len(obj) == shape[0]:
            try:
                coords = shape[1](obj)
            except KeyError:  # a field missing, another key in its place
                return _encode_event(ev) + "\n"
            for v in coords:
                # type() rules out bool and float subclasses, whose %r may
                # differ; the comparison rules out NaN and +-inf
                if type(v) not in (int, float) or not -_FLOAT_MAX <= v <= _FLOAT_MAX:
                    break
            else:
                return shape[2] % (oid, *coords)
    return _encode_event(ev) + "\n"


def write_workload(events: list[dict], path: str) -> None:
    """Write events to path as a JSONL workload, one line per event in the
    bytes of json.dumps(event, sort_keys=True) (module docstring)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join([_event_line(ev) for ev in events]))


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


def _checked_event(lineno: int, ev):
    """ev, if it is a valid event; ParseError otherwise."""
    if type(ev) is not dict or ev.get("op") not in ("insert", "delete") or "id" not in ev:
        raise ParseError(f"line {lineno}: malformed event {ev!r}")
    if type(ev["id"]) is not int:
        raise ParseError(f"line {lineno}: id must be an int, got {ev['id']!r}")
    if ev["op"] == "insert":
        if "object" not in ev:
            raise ParseError(f"line {lineno}: insert without object")
        error = _object_error(ev["object"])
        if error is not None:
            raise ParseError(f"line {lineno}: {error}")
    return ev


def _read_lines(data: bytes) -> list[dict]:
    """Each line stripped of ASCII whitespace and parsed by json.loads."""
    events = []
    for lineno, line in enumerate(data.split(b"\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            ev = json.loads(line)
        # ValueError covers bad JSON and bytes that are not UTF-8
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        events.append(_checked_event(lineno, ev))
    return events


def read_workload(path: str) -> list[dict]:
    """Parse and validate a JSONL workload; any bad record raises ParseError.

    The file is decoded once, as json.loads decodes UTF-8 bytes, and each
    line, stripped as bytes.strip() would, goes to one raw_decode.  A line
    raw_decode takes whole is one json.loads(bytes) reads as UTF-8 to the
    same value: it picks another codec only for a line that opens with a
    BOM or has a NUL byte, and raw_decode takes neither.  A file that is
    not UTF-8, or has a line raw_decode does not take whole, is read again
    line by line, which words the error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8", "surrogatepass")
    except UnicodeDecodeError:
        return _read_lines(data)
    events = []
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip(_ASCII_WHITESPACE)
        if not line:
            continue
        try:
            ev, end = _decode_event(line)
        except (ValueError, RecursionError):
            return _read_lines(data)
        if end != len(line):
            return _read_lines(data)
        events.append(_checked_event(lineno, ev))
    return events


# ---------------------------------------------------------------------------
# the replay adapter
# ---------------------------------------------------------------------------

class _Adapter:
    """The replay interface over a structure and its STRUCTURES entry:
    updates, counters, and audits and oracle over one view per state."""

    def __init__(self, structure, spec: Structure):
        self.structure = structure
        self.to_object = KINDS[spec.kind].to_object
        self._insert, self._levels = spec.insert, spec.levels
        self.oracle = spec.oracle()
        self.supports_delete = hasattr(structure, "delete")
        self._view = None   # the view of the state as it is, once read

    def insert(self, oid, payload):
        self._view = None
        return self._insert(self.structure, oid, self.to_object(oid, payload))

    def delete(self, oid):
        if not self.supports_delete:
            raise KindMismatch("insert-only structure cannot replay deletions")
        self._view = None
        return self.structure.delete(oid)

    def __len__(self):
        return len(self.structure)

    def _read(self):
        """The view of the state, read once: the one the last audit handed
        over, else colored_objects()."""
        view = self._view
        if view is None:
            view = self._view = self.structure.colored_objects()
        return view

    def colors(self):
        return {oid: entry[-1] for oid, entry in self._read()}

    def total_recolorings(self):
        return self.structure.total_recolorings

    def check_invariants(self):
        report, self._view = self.structure.audited_view()
        return report

    def check_oracle(self):
        return self.oracle(self._read())

    def framework_info(self):
        return self._levels(self.structure)


def make_structure(name: str, c: float | None = None, universe: int | None = None):
    spec = STRUCTURES.get(name)
    if spec is None:
        raise InvalidParams(f"unknown structure {name!r}")
    _needed_param(f"{name} structure", KINDS[spec.kind].needs, c, universe)
    return _Adapter(spec.build(c, universe), spec)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def _apply_diff(worn: dict, counts: dict, diff) -> None:
    """Apply one update's RecolorDiff to the object -> color map and the
    color -> multiplicity map over it, in one pass over what it names:
    changed objects, then the assigned one, then the removed one, which
    leaves.  An object's old color is the one it wears in worn, not the
    diff's."""
    wear = [*diff.changed.items()]
    if diff.assigned is not None:
        oid, color = diff.assigned
        wear.append((oid, (None, color)))
    if diff.removed is not None:
        wear.append((diff.removed[0], (None, None)))
    for oid, (_, color) in wear:
        old = worn.pop(oid, None)
        if old is not None and (k := counts.pop(old) - 1):
            counts[old] = k
        if color is not None:
            worn[oid] = color
            counts[color] = counts.get(color, 0) + 1


def _colors_mismatch(reported: dict, worn: dict) -> str:
    """The first five objects whose colors differ, by id."""
    differ = sorted(o for o in reported.keys() | worn.keys() if reported.get(o) != worn.get(o))
    return "; ".join(f"object {o}: {reported.get(o)} in the view, "
                     f"{worn.get(o)} from the diffs" for o in differ[:5])


def run_workload(structure_name: str, events: list[dict], verify: str = "none",
                 c: float | None = None, universe: int | None = None,
                 config_extra: dict | None = None) -> dict:
    """Replay events; returns the report dict (schema in the module docstring)."""
    adapter = make_structure(structure_name, c=c, universe=universe)
    expected_kind = STRUCTURES[structure_name].kind
    if verify not in VERIFY_MODES:
        raise InvalidParams(f"unknown verify mode {verify!r}")
    # the verify schedule: every step, or while n <= the limit, every
    # stride-th step and the last one
    checked = verify != "none"
    sampled = verify == "oracle-sampled"
    oracle = verify in ("oracle-sampled", "oracle-every-step")
    last = len(events) - 1
    framework_info = adapter.framework_info
    framework = framework_info() is not None   # the row shape
    insert, delete = adapter.insert, adapter.delete
    steps = []
    append_row = steps.append
    violations = []
    live_ids: set[int] = set()
    # each live object's color and the colors in use, from the diffs
    worn: dict = {}
    color_counts: dict = {}
    for step, ev in enumerate(events):
        op = ev["op"]
        oid = ev["id"]
        # the row's op and id are written unescaped (file contract)
        if type(oid) is not int:
            raise ParseError(f"step {step}: id must be an int, got {oid!r}")
        if op == "insert":
            obj = ev["object"]
            if obj.get("kind") != expected_kind:
                raise KindMismatch(
                    f"step {step}: structure {structure_name} cannot hold {obj.get('kind')!r}")
            if oid in live_ids:
                raise ParseError(f"step {step}: duplicate insert id {oid}")
            live_ids.add(oid)
        elif op == "delete":
            if oid not in live_ids:
                raise ParseError(f"step {step}: delete of non-live id {oid}")
            live_ids.discard(oid)
        else:
            raise ParseError(f"step {step}: unknown op {op!r}")
        try:
            diff = insert(oid, obj) if op == "insert" else delete(oid)
        except Exception as exc:
            if not violations:   # else a broken structure's report is kept
                raise
            violations.append({"step": step, "check": "update",
                               "detail": f"{type(exc).__name__}: {exc}"})
            break
        _apply_diff(worn, color_counts, diff)

        n = len(adapter)
        verified: bool | str = "skipped"
        if checked and (not sampled or n <= ORACLE_EVERY_STEP_LIMIT
                        or step % ORACLE_SAMPLE_STRIDE == 0 or step == last):
            verified = True
            report = adapter.check_invariants()
            if report is not None:
                verified = False
                violations.append({"step": step, "check": "invariants",
                                   "detail": str(report.reason)})
            reported = adapter.colors()
            if reported != worn:
                verified = False
                violations.append({"step": step, "check": "colors",
                                   "detail": _colors_mismatch(reported, worn)})
            if oracle and verified:
                witness = adapter.check_oracle()
                if witness is not None:
                    verified = False
                    violations.append({"step": step, "check": "oracle",
                                       "detail": str(witness)})
        row = {"step": step, "op": op, "id": oid, "n": n, "recolorings": len(diff.changed),
               "distinct_colors": len(color_counts), "verified": verified}
        if framework:
            row["level"], row["set_states"] = framework_info()
        append_row(row)

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
                "max_recolorings", "max_distinct_colors", "total_recolorings",
                "us_per_event")


_VERIFIED_JSON = {True: "true", False: "false", "skipped": '"skipped"'}
_STRING_FIELDS = ("op", "set_states", "structure")


def _row_shape(table_fields: tuple, fields: tuple) -> tuple[Callable, Callable]:
    """The writers of a row with exactly these fields, in a table of
    table_fields: row -> its JSON object as json.dump(indent=2) writes it in
    the table, and row -> its CSV line, where a field the row lacks is an
    empty cell.  The JSON template is one per value of "verified"; the CSV
    cell of "set_states", the last field, is quoted when it joins states."""
    keys = sorted(fields)
    json_values = itemgetter(*(k for k in keys if k != "verified"))
    by_verified = {}
    for value, text in (_VERIFIED_JSON if "verified" in fields else {None: None}).items():
        slots = (text if k == "verified" else '"%s"' if k in _STRING_FIELDS else "%s" for k in keys)
        by_verified[value] = ("{\n" + ",\n".join(f'      "{k}": {v}' for k, v in zip(keys, slots))
                              + "\n    }")
    to_json = lambda row: by_verified[row.get("verified")] % json_values(row)
    csv_values = itemgetter(*fields)
    line = ",".join("%s" if f in fields else "" for f in table_fields) + "\n"
    if "set_states" not in fields:
        return to_json, lambda row: line % csv_values(row)
    quoted = line[:-3] + '"%s"\n'
    return to_json, lambda row: (quoted if "," in row["set_states"] else line) % csv_values(row)


def _write_json_csv(doc: dict, key: str, fields: tuple, shapes: dict, path: str) -> None:
    """doc as JSON at path, and its rows table doc[key] as CSV next to it
    (.json becomes .csv), in the bytes of the file contract (module
    docstring): json.dumps writes all but the rows, and each row is its
    shape's templates filled in.  shapes maps a row's length to its
    _row_shape writers; a row that fits none fails with KeyError, as does
    one that lacks a field of its shape."""
    rows = doc[key]
    # the rows table is doc's only top-level key of that name, and a newline
    # followed by two spaces and a quote opens a top-level key, nothing else
    head, tail = json.dumps({**doc, key: []}, indent=2, sort_keys=True).split(
        f'\n  "{key}": []')
    csv_path = path[:-5] + ".csv" if path.endswith(".json") else path + ".csv"
    to_json = {size: writers[0] for size, writers in shapes.items()}
    to_csv = {size: writers[1] for size, writers in shapes.items()}
    with open(path, "w", encoding="utf-8", newline="\n") as fh, \
            open(csv_path, "w", encoding="utf-8", newline="\n") as table:
        fh.write(head)
        fh.write(f'\n  "{key}": [' if rows else f'\n  "{key}": []')
        table.write(",".join(fields) + "\n")
        # a block of rows at a time bounds the text held at once
        for i in range(0, len(rows), _ROWS_PER_ENCODE):
            block = rows[i:i + _ROWS_PER_ENCODE]
            fh.write(",\n    " if i else "\n    ")
            fh.write(",\n    ".join([to_json[len(row)](row) for row in block]))
            table.write("".join([to_csv[len(row)](row) for row in block]))
        if rows:
            fh.write("\n  ]")
        fh.write(tail)
        fh.write("\n")


_REPORT_ROWS = {len(f): _row_shape(REPORT_FIELDS, f) for f in (REPORT_FIELDS[:-2], REPORT_FIELDS)}
_BENCH_ROWS = {len(BENCH_FIELDS): _row_shape(BENCH_FIELDS, BENCH_FIELDS)}


def write_report(report: dict, path: str) -> None:
    _write_json_csv(report, "steps", REPORT_FIELDS, _REPORT_ROWS, path)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def run_bench(structure_name: str, sizes: list[int], seeds: list[int],
              delete_ratio: float | None = None, c: float | None = None,
              universe: int | None = None) -> dict:
    """Seeded trials per size; delete_ratio None means 0.3, or 0 for a
    structure that cannot delete.  A trial's us_per_event is the wall-clock
    time of its replay (verify "none") over its events: the one column that
    differs between runs, which is why only bench files carry it."""
    kind = STRUCTURES[structure_name].kind
    # the trial rows' n and seed are written unescaped (file contract)
    if any(type(v) is not int for v in (*sizes, *seeds)):
        raise InvalidParams(f"sizes and seeds must be ints, got {sizes!r} and {seeds!r}")
    if delete_ratio is None:
        deletes = make_structure(structure_name, c=c, universe=universe).supports_delete
        delete_ratio = 0.3 if deletes else 0.0
    trials = []
    for n in sizes:
        for seed in seeds:
            events = generate_workload(kind, n, delete_ratio, seed,
                                       c=c, universe=universe)
            start = time.perf_counter()
            summary = run_workload(structure_name, events, verify="none",
                                   c=c, universe=universe)["summary"]
            elapsed = time.perf_counter() - start
            trials.append({"structure": structure_name, "n": n, "seed": seed,
                           "events": len(events), "final_n": summary["final_n"],
                           "max_recolorings": summary["max_recolorings"],
                           "max_distinct_colors": summary["max_distinct_colors"],
                           "total_recolorings": summary["total_recolorings"],
                           "us_per_event": round(elapsed * 1e6 / max(len(events), 1), 2)})
    return {"config": {"structure": structure_name, "sizes": sizes,
                       "seeds": seeds, "delete_ratio": delete_ratio,
                       "c": c, "universe": universe},
            "trials": trials}


def write_bench(bench: dict, path: str) -> None:
    _write_json_csv(bench, "trials", BENCH_FIELDS, _BENCH_ROWS, path)
