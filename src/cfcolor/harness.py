"""Workload generation, replay, verification, and reporting.

Workloads are JSONL event streams: one {"op", "id", "object"} record per
line, where "object" is a tagged union present on inserts.  Each kind has a
fixed set of coordinate fields (see OBJECT_FIELDS); read_workload rejects a
record with a missing or non-finite coordinate, inverted rectangle bounds,
or an id that is not an int.  Replay applies events in order against one of
the named structures and writes the report as JSON plus a CSV mirror of
the step table.

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
import io
import json
import random
import sys
from collections import Counter

from .anchored import ANCHORED_SCHEME_TAG, AnchoredCF
from .framework import FullyDynamicEngine, SemiDynamicEngine
from .geom import AxisRect, GlobalColor, Pt, UnitSquare
from .oracle import (
    check_cf,
    check_cf_intervals,
    check_cf_rect_ranges,
    check_unimax_intervals,
    check_unimax_rect_ranges,
)
from .rects import BoundedRectCF, UniverseRectCF
from .squares import GridSquareCF
from .unimax import IntervalPointColorer, RectPointColorer

ORACLE_EVERY_STEP_LIMIT = 256
ORACLE_SAMPLE_STRIDE = 32


class InvalidParams(ValueError):
    pass


class ParseError(ValueError):
    pass


class KindMismatch(ValueError):
    pass


STRUCTURES = ("anchored", "squares", "bounded", "universe",
              "semi-1d", "full-1d", "full-2d")
KINDS = ("anchored_rect", "unit_square", "bounded_rect", "universe_rect",
         "point_1d", "point_2d")

KIND_FOR_STRUCTURE = {
    "anchored": "anchored_rect",
    "squares": "unit_square",
    "bounded": "bounded_rect",
    "universe": "universe_rect",
    "semi-1d": "point_1d",
    "full-1d": "point_1d",
    "full-2d": "point_2d",
}

# Coordinate fields of each object kind; rectangles with four fields must
# have x1 <= x2 and y1 <= y2, anchored rectangles x2, y2 >= 0.
OBJECT_FIELDS = {
    "anchored_rect": ("x2", "y2"),
    "unit_square": ("x", "y"),
    "bounded_rect": ("x1", "x2", "y1", "y2"),
    "universe_rect": ("x1", "x2", "y1", "y2"),
    "point_1d": ("x",),
    "point_2d": ("x", "y"),
}
_FLOAT_MAX = sys.float_info.max


# ---------------------------------------------------------------------------
# workload generation
# ---------------------------------------------------------------------------

def generate_workload(kind: str, n: int, delete_ratio: float, seed: int,
                      span: float | None = None, c: float | None = None,
                      universe: int | None = None) -> list[dict]:
    """Deterministic event stream: n inserts plus ~delete_ratio*n deletions
    of uniformly random live ids, interleaved."""
    if kind not in KINDS:
        raise InvalidParams(f"unknown object kind {kind!r}")
    if n < 0:
        raise InvalidParams("n must be non-negative")
    if not 0.0 <= delete_ratio < 1.0:
        raise InvalidParams("delete ratio must be in [0, 1)")
    if kind == "bounded_rect":
        if c is None or c < 1:
            raise InvalidParams("bounded_rect needs a size bound c >= 1")
    if kind == "universe_rect":
        if universe is None or universe < 1:
            raise InvalidParams("universe_rect needs a universe size N >= 1")
        if span is not None and span > universe - 1:
            raise InvalidParams(
                f"coordinate {span} requested outside universe [0, {universe - 1}]")
    if span is None:
        span = float(universe - 1) if kind == "universe_rect" else 10.0

    rng = random.Random(seed)
    tokens = ["I"] * n + ["D"] * round(n * delete_ratio)
    rng.shuffle(tokens)

    def make_object(oid: int) -> dict:
        if kind == "anchored_rect":
            return {"kind": kind, "x2": rng.uniform(0.001, span), "y2": rng.uniform(0.001, span)}
        if kind == "unit_square":
            return {"kind": kind, "x": rng.uniform(0, span), "y": rng.uniform(0, span)}
        if kind == "bounded_rect":
            x1 = rng.uniform(0, span)
            y1 = rng.uniform(0, span)
            return {"kind": kind, "x1": x1, "x2": x1 + rng.uniform(1.0, c),
                    "y1": y1, "y2": y1 + rng.uniform(1.0, c)}
        if kind == "universe_rect":
            hi = int(span)
            xa, xb = sorted((rng.randint(0, hi), rng.randint(0, hi)))
            ya, yb = sorted((rng.randint(0, hi), rng.randint(0, hi)))
            return {"kind": kind, "x1": xa, "x2": xb, "y1": ya, "y2": yb}
        if kind == "point_1d":
            return {"kind": kind, "x": rng.uniform(0, span)}
        return {"kind": kind, "x": rng.uniform(0, span), "y": rng.uniform(0, span)}

    events: list[dict] = []
    live: list[int] = []
    next_id = 0
    deferred = 0
    for tok in tokens:
        if tok == "I":
            obj = make_object(next_id)
            events.append({"op": "insert", "id": next_id, "object": obj})
            live.append(next_id)
            next_id += 1
            while deferred and live:
                idx = rng.randrange(len(live))
                live[idx], live[-1] = live[-1], live[idx]
                events.append({"op": "delete", "id": live.pop()})
                deferred -= 1
        else:
            if not live:
                deferred += 1
                continue
            idx = rng.randrange(len(live))
            live[idx], live[-1] = live[-1], live[idx]
            events.append({"op": "delete", "id": live.pop()})
    return events


def write_workload(events: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True) + "\n")


def _object_error(obj) -> str | None:
    """Why an insert's object breaks its kind's schema, or None."""
    if type(obj) is not dict:
        return f"object is not a JSON object: {obj!r}"
    kind = obj.get("kind")
    fields = OBJECT_FIELDS.get(kind) if type(kind) is str else None
    if fields is None:
        return f"unknown object kind {kind!r}"
    for name in fields:
        if name not in obj:
            return f"{kind} without field {name!r}"
        v = obj[name]
        # type() rules out bool; the chained comparison rules out NaN and +-inf
        if type(v) not in (int, float) or not -_FLOAT_MAX <= v <= _FLOAT_MAX:
            return f"{kind} field {name!r} is not a finite number: {v!r}"
    if len(fields) == 4:
        if obj["x1"] > obj["x2"] or obj["y1"] > obj["y2"]:
            return f"{kind} with inverted bounds: {obj!r}"
    elif kind == "anchored_rect" and (obj["x2"] < 0 or obj["y2"] < 0):
        return f"anchored_rect corner below the origin: {obj!r}"
    return None


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


class _FrameworkAdapter:
    def __init__(self, engine, to_object, range_check):
        self.engine = engine
        self.to_object = to_object
        self.range_check = range_check
        self.supports_delete = isinstance(engine, FullyDynamicEngine)

    def insert(self, oid, payload):
        return self.engine.insert(oid, self.to_object(oid, payload))

    def delete(self, oid):
        if not self.supports_delete:
            raise KindMismatch("insert-only structure cannot replay deletions")
        return self.engine.delete(oid)

    def __len__(self):
        return len(self.engine)

    def colors(self):
        return self.engine.global_colors()

    def global_counts(self, counts):
        return counts  # engine diffs carry the GlobalColor they report

    def total_recolorings(self):
        return self.engine.total_recolorings

    def check_invariants(self):
        return self.engine.check_invariants()

    def check_oracle(self):
        colored = [(self.engine.objects[o], c) for o, c in self.engine.actual.items()]
        return self.range_check(colored)

    def framework_info(self):
        return self.engine.ell, ",".join(self.engine.set_states())


def _payload_to_rect(oid, payload):
    return AxisRect(payload["x1"], payload["x2"], payload["y1"], payload["y2"], oid)


def make_structure(name: str, c: float | None = None, universe: int | None = None):
    if name == "anchored":
        return _GeometricAdapter(
            AnchoredCF(), lambda oid, p: AxisRect(0.0, p["x2"], 0.0, p["y2"], oid),
            lambda c: GlobalColor(ANCHORED_SCHEME_TAG, c))
    if name == "squares":
        return _GeometricAdapter(
            GridSquareCF(), lambda oid, p: UnitSquare(p["x"], p["y"], oid))
    if name == "bounded":
        if c is None:
            raise InvalidParams("bounded structure needs --c")
        return _GeometricAdapter(BoundedRectCF(c), _payload_to_rect)
    if name == "universe":
        if universe is None:
            raise InvalidParams("universe structure needs --universe")
        return _GeometricAdapter(UniverseRectCF(universe), _payload_to_rect)
    if name == "semi-1d":
        return _FrameworkAdapter(
            SemiDynamicEngine(IntervalPointColorer, _interval_checker),
            lambda oid, p: p["x"], check_cf_intervals)
    if name == "full-1d":
        return _FrameworkAdapter(
            FullyDynamicEngine(IntervalPointColorer, _interval_checker),
            lambda oid, p: p["x"], check_cf_intervals)
    if name == "full-2d":
        return _FrameworkAdapter(
            FullyDynamicEngine(RectPointColorer, _rect_checker),
            lambda oid, p: Pt(p["x"], p["y"]),
            lambda colored: check_cf_rect_ranges(colored, samples=20_000))
    raise InvalidParams(f"unknown structure {name!r}")


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
    expected_kind = KIND_FOR_STRUCTURE[structure_name]
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
    if config_extra:
        config.update(config_extra)
    return {"config": config, "steps": steps, "summary": summary}


def report_to_csv(report: dict) -> str:
    fields = ["step", "op", "id", "n", "recolorings", "distinct_colors",
              "verified", "level", "set_states"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, restval="", lineterminator="\n")
    writer.writeheader()
    for row in report["steps"]:
        writer.writerow(row)
    return buf.getvalue()


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    csv_path = path[:-5] + ".csv" if path.endswith(".json") else path + ".csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_to_csv(report))


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def run_bench(structure_name: str, sizes: list[int], seeds: list[int],
              delete_ratio: float = 0.3, c: float | None = None,
              universe: int | None = None) -> dict:
    kind = KIND_FOR_STRUCTURE[structure_name]
    trials = []
    for n in sizes:
        for seed in seeds:
            events = generate_workload(kind, n, delete_ratio, seed,
                                       c=c, universe=universe)
            report = run_workload(structure_name, events, verify="none",
                                  c=c, universe=universe)
            trials.append({
                "structure": structure_name,
                "n": n,
                "seed": seed,
                "events": len(events),
                "final_n": report["summary"]["final_n"],
                "max_recolorings": report["summary"]["max_recolorings"],
                "max_distinct_colors": report["summary"]["max_distinct_colors"],
                "total_recolorings": report["summary"]["total_recolorings"],
            })
    return {"config": {"structure": structure_name, "sizes": sizes,
                       "seeds": seeds, "delete_ratio": delete_ratio,
                       "c": c, "universe": universe},
            "trials": trials}


def bench_to_csv(bench: dict) -> str:
    fields = ["structure", "n", "seed", "events", "final_n",
              "max_recolorings", "max_distinct_colors", "total_recolorings"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in bench["trials"]:
        writer.writerow(row)
    return buf.getvalue()


def write_bench(bench: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")
    csv_path = path[:-5] + ".csv" if path.endswith(".json") else path + ".csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(bench_to_csv(bench))
