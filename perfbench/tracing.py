"""Span tracing of cfcolor's layers, installed from outside the package.

A Tracer wraps the public entry points listed in TARGETS (methods,
properties and module functions) with a timing shim, records one span per
call, and restores the originals when it is uninstalled.  A span is
    (name, start_ns, end_ns, parent_index, event_id, info, phase)
kept in memory in call-entry order, so a parent always precedes its
children.  `info` is a small per-role measurement taken from the call's
arguments or result (dirty-log length, objects checked, cells live ...).

layer_metrics() turns the spans of one traced library pass and one traced
replay of every stream into the per-layer metrics; self times are a span's
duration minus the durations of its direct children.

A target that no longer exists (after a refactor, say) is reported as
missing and skipped; it never stops the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time

UPDATE = "update"                # a structure's or engine's insert/delete
CELL_UPDATE = "cell_update"      # a grid cell's insert/delete inside an update
COLORS = "colors"                # global_colors(), read by the harness each step
AUDIT = "audit"
TREE_UPDATE = "tree_update"
TREE_AUDIT = "tree_audit"
CHECK_INVARIANTS = "check_invariants"
BUILD = "build"                  # static unimax colorer construction
WEAK_DELETE = "weak_delete"
COLORS_READ = "colors_read"      # RectPointColorer.colors property
ORACLE = "oracle"
READ = "read"
REPLAY = "replay"
WRITE = "write"
FRONT_END = "front_end"


def _len_result(args, result):
    return len(result)


def _len_first_arg(args, result):
    return len(args[0])


def _len_points(args, result):
    return len(args[1])  # args[0] is the colorer being constructed


def _recolorings(args, result):
    return (result.recolorings, None, None)


def _recolorings_cells(args, result):
    return (result.recolorings, len(args[0].cells), None)


def _engine_state(args, result):
    engine = args[0]
    migrating = sum(1 for s in engine.set_states() if s in ("up-migration", "down-migration"))
    return (result.recolorings, migrating, len(engine.pool.in_use))


def _structure(module, cls, cells):
    info = _recolorings_cells if cells else _recolorings
    return [
        (module, f"{cls}.insert", UPDATE, info),
        (module, f"{cls}.delete", UPDATE, info),
        (module, f"{cls}.global_colors", COLORS, _len_result),
        (module, f"{cls}.audit", AUDIT, None),
    ]


def _engine(cls, deletes):
    out = [("framework", f"{cls}.insert", UPDATE, _engine_state)]
    if deletes:
        out.append(("framework", f"{cls}.delete", UPDATE, _engine_state))
    out += [("framework", f"{cls}.global_colors", COLORS, _len_result),
            ("framework", f"{cls}.check_invariants", CHECK_INVARIANTS, None)]
    return out


# (module in cfcolor, attribute path, role, info(args, result) or None).
# Oracle checkers are wrapped in the harness namespace, where replay calls them.
TARGETS = (
    [("cli", "main", FRONT_END, None),
     ("harness", "read_workload", READ, _len_result),
     ("harness", "run_workload", REPLAY, None),
     ("harness", "write_report", WRITE, None)]
    + [("harness", name, ORACLE, _len_first_arg)
       for name in ("check_cf", "check_cf_intervals", "check_cf_rect_ranges",
                    "check_unimax_intervals", "check_unimax_rect_ranges")]
    + [("augtree", "AugTree.insert", TREE_UPDATE, _len_result),
       ("augtree", "AugTree.delete", TREE_UPDATE, _len_result),
       ("augtree", "AugTree.audit", TREE_AUDIT, None)]
    + _structure("anchored", "AnchoredCF", cells=False)
    + _structure("squares", "GridSquareCF", cells=True)
    + [("squares", "PinnedSquareCF.insert", CELL_UPDATE, None),
       ("squares", "PinnedSquareCF.delete", CELL_UPDATE, None)]
    + _structure("rects", "BoundedRectCF", cells=True)
    + _structure("rects", "UniverseRectCF", cells=True)
    + [("rects", "CommonPointCF.insert", CELL_UPDATE, None),
       ("rects", "CommonPointCF.delete", CELL_UPDATE, None),
       ("rects", "CommonPointCF.audit", AUDIT, None)]
    + _engine("SemiDynamicEngine", deletes=False)
    + _engine("FullyDynamicEngine", deletes=True)
    + [("unimax", "IntervalPointColorer.__init__", BUILD, _len_points),
       ("unimax", "RectPointColorer.__init__", BUILD, _len_points),
       ("unimax", "IntervalPointColorer.weak_delete", WEAK_DELETE, None),
       ("unimax", "RectPointColorer.weak_delete", WEAK_DELETE, None),
       ("unimax", "RectPointColorer.colors", COLORS_READ, None)]
)


class Tracer:
    """Wraps TARGETS while installed and records their calls as spans."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans: list[tuple] = []
        self.roles: dict[str, str] = {}
        self.missing: list[str] = []
        self.phase = ""
        self._stack: list[int] = []
        self._event = 0
        self._update_depth = 0
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> list[str]:
        for module_name, path, role, info in self.targets:
            name = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(f"cfcolor.{module_name}")
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                static = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self.roles[name] = role
            own = attr in vars(owner)
            self._restore.append((owner, attr, vars(owner).get(attr), own))
            if isinstance(static, property):
                setattr(owner, attr, property(self._wrap(static.fget, name, role, info)))
            else:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, role, info))
        return self.missing

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, fn, name, role, info):
        tracer = self
        clock = time.perf_counter_ns
        starts_update = role == UPDATE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_update:
                if tracer._update_depth == 0:
                    tracer._event += 1
                tracer._update_depth += 1
            spans = tracer.spans
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            event = tracer._event
            idx = len(spans)
            spans.append(None)  # reserved, so parents precede their children
            stack.append(idx)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = clock()
                stack.pop()
                if starts_update:
                    tracer._update_depth -= 1
                # a tuple of atomic values, which the cyclic GC stops tracking
                spans[idx] = (name, start, end, parent, event,
                              info(args, result) if done and info is not None else None,
                              tracer.phase)
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent",
                                            "event", "info", "phase"],
                                 "missing": self.missing}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple], roles: dict[str, str], replay_wall_ns: int,
                  replay_events: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced library pass ("lib" phase) and one
    traced replay ("replay" phase) of every stream."""
    role = [roles[s[0]] for s in spans]
    module = [s[0].split(".", 1)[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    self_ns = list(dur)
    top_update = [-1] * len(spans)
    for i, s in enumerate(spans):
        parent = s[3]
        if parent >= 0:
            self_ns[parent] -= dur[i]
        if role[i] == UPDATE:
            top_update[i] = i
        elif parent >= 0:
            top_update[i] = top_update[parent]

    def info(i, k=None):
        value = spans[i][5]  # None when the call raised
        if value is None:
            return 0
        return value if k is None else value[k]

    def select(phase, *roles_, modules=None, names=None):
        return [i for i, s in enumerate(spans)
                if s[6] == phase and role[i] in roles_
                and (modules is None or module[i] in modules)
                and (names is None or s[0] in names)]

    def mean_us(idx):
        return _ratio(sum(dur[i] for i in idx), len(idx)) / 1e3

    out: dict[str, tuple[float, str]] = {}

    # harness: the replay loop's own work and the per-step global_colors() rebuild
    replays = select("replay", REPLAY)
    colors = select("replay", COLORS)
    out["harness.self_us_per_event"] = (
        _ratio(sum(self_ns[i] for i in replays), replay_events) / 1e3, "us")
    out["harness.colors_us_per_event"] = (
        _ratio(sum(dur[i] for i in colors), replay_events) / 1e3, "us")
    out["harness.colors_objects_per_event"] = (
        _ratio(sum(info(i) for i in colors), replay_events), "count")
    out["harness.read_s"] = (sum(dur[i] for i in select("replay", READ)) / 1e9, "s")
    out["harness.write_s"] = (sum(dur[i] for i in select("replay", WRITE)) / 1e9, "s")

    # augtree, in the library pass, per update of a tree-backed structure
    geo_updates = select("lib", UPDATE, modules=("anchored", "squares", "rects"))
    tree = select("lib", TREE_UPDATE)
    out["augtree.update_us"] = (mean_us(tree), "us")
    out["augtree.calls_per_update"] = (_ratio(len(tree), len(geo_updates)), "count")
    out["augtree.dirty_per_update"] = (
        _ratio(sum(info(i) for i in tree), len(geo_updates)), "count")
    out["augtree.audit_us_per_call"] = (mean_us(select("replay", TREE_AUDIT)), "us")

    # color recompute and cell routing
    for mod in ("anchored", "squares", "rects"):
        updates = select("lib", UPDATE, modules=(mod,))
        own = select("lib", UPDATE, CELL_UPDATE, modules=(mod,))
        dirty = sum(info(i) for i in tree
                    if top_update[i] >= 0 and module[top_update[i]] == mod)
        out[f"{mod}.self_us_per_update"] = (
            _ratio(sum(self_ns[i] for i in own), len(updates)) / 1e3, "us")
        out[f"{mod}.recolor_yield"] = (
            _ratio(sum(info(i, 0) for i in updates), dirty), "ratio")
        if mod != "anchored":
            out[f"{mod}.cells_live_max"] = (
                max((info(i, 1) for i in updates), default=0), "count")

    # framework: level sets and migration
    fw = select("lib", UPDATE, modules=("framework",))
    builds = select("lib", BUILD)
    top_builds = [i for i in builds if spans[i][3] >= 0 and role[spans[i][3]] == UPDATE]
    out["framework.self_us_per_update"] = (
        _ratio(sum(self_ns[i] for i in fw), len(fw)) / 1e3, "us")
    out["framework.colorer_builds"] = (len(top_builds), "count")
    out["framework.build_points_per_update"] = (
        _ratio(sum(info(i) for i in top_builds), len(fw)), "count")
    out["framework.migrating_levels_mean"] = (
        _ratio(sum(info(i, 1) for i in fw), len(fw)), "count")
    out["framework.down_migrations"] = (
        sum(1 for i in top_builds if spans[spans[i][3]][0].endswith(".delete")), "count")
    out["framework.palettes_in_use_max"] = (max((info(i, 2) for i in fw), default=0), "count")
    out["framework.check_invariants_us_per_call"] = (
        mean_us(select("replay", CHECK_INVARIANTS)), "us")

    # unimax: static colorers, weak deletions and the rebuilt colors view
    outer_builds = [i for i in builds if spans[i][3] < 0 or role[spans[i][3]] != BUILD]
    weak = [i for i in select("lib", WEAK_DELETE)
            if spans[i][3] < 0 or role[spans[i][3]] != WEAK_DELETE]
    reads = select("lib", COLORS_READ)
    out["unimax.build_us_per_point"] = (
        _ratio(sum(dur[i] for i in outer_builds),
               sum(info(i) for i in outer_builds)) / 1e3, "us")
    out["unimax.weak_delete_us"] = (mean_us(weak), "us")
    out["unimax.colors_reads_per_update"] = (_ratio(len(reads), len(fw)), "count")
    out["unimax.colors_read_us_per_update"] = (
        _ratio(sum(dur[i] for i in reads), len(fw)) / 1e3, "us")

    # oracle, as replay verification calls it
    checks = select("replay", ORACLE)
    for key, name in (("check_cf", "harness.check_cf"),
                      ("check_cf_intervals", "harness.check_cf_intervals")):
        idx = [i for i in checks if spans[i][0] == name]
        out[f"oracle.{key}_us_per_object"] = (
            _ratio(sum(dur[i] for i in idx), sum(info(i) for i in idx)) / 1e3, "us")
    out["oracle.check_calls"] = (len(checks), "count")
    outer_checks = [i for i in checks if spans[i][3] < 0 or role[spans[i][3]] != ORACLE]
    out["oracle.share_of_replay"] = (
        _ratio(sum(dur[i] for i in outer_checks), replay_wall_ns), "ratio")
    return out
