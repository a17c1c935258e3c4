#!/usr/bin/env python3
"""cfcolor benchmark: per-update latency, replay cost and recoloring quality.

    python3 perfbench/run.py --workload geo-churn --seed 1 --seconds 30 --trace 0

Run from the repository root (or any checkout of it); the program under test
is imported from ./src.  One run has three parts:

1. set-up: generate the workload's event streams from --seed with
   harness.generate_workload and write them as JSONL;
2. library pass: for each stream, a fresh harness.make_structure and a
   timer around every public insert/delete call;
3. replay pass: cli.main(["run", ...]) in-process over the same files,
   exactly as a user runs `cfcolor run`.

Rounds of all three repeat until --seconds have been measured (see
measure()).  Every timed piece is scaled to a reference speed measured
around it (see at_reference_speed()).  Set-up time is the median over the
set-ups, an event's latency its median over the library passes, and a
stream's replay cost the median over its replays.  With --trace 1 the run
instead makes one traced library pass and one traced replay per stream (see
tracing.py) and reports per-layer metrics plus the tracing overhead.

Every run checks its outputs (see Gate); the last stdout line is a JSON
object {"correct", "attempted", "failed", "metrics"}.  Exit code 0 means
every check passed, 1 that some failed, 2 that the run could not start.
See perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE_LOOP_S = 1e-3
LIBRARY_SHARE = 0.5  # library-pass time per round, as a share of the round's replay time
SETUP_SHARE = 0.1  # share of the run's time that repeated set-ups may take


@dataclass(frozen=True)
class Stream:
    structure: str
    kind: str
    n: int
    delete_ratio: float
    c: float | None = None
    universe: int | None = None

    def cli_args(self) -> list[str]:
        out = []
        if self.c is not None:
            out += ["--c", str(self.c)]
        if self.universe is not None:
            out += ["--universe", str(self.universe)]
        return out


@dataclass(frozen=True)
class Workload:
    verify: str
    streams: tuple[Stream, ...]


# Why each workload exists is recorded in README.md; in short:
# geo-churn works the tree and the coloring/routing modules only,
# dyn-churn the framework engines and unimax colorers only (90% deletions
# on full-1d so downward migrations fire), verified the oracle and audits.
# Streams are repeated, each copy with its own seed, because a latency
# percentile over one stream's deletions depends on that stream's random
# walk of live sizes; many independent streams make it repeat across seeds.
WORKLOADS = {
    "geo-churn": Workload("none", (
        Stream("anchored", "anchored_rect", 1000, 0.3),
        Stream("squares", "unit_square", 1000, 0.3),
        Stream("bounded", "bounded_rect", 1000, 0.3, c=3.0),
        Stream("universe", "universe_rect", 1000, 0.3, universe=64),
    )),
    "dyn-churn": Workload("none", (
        (Stream("semi-1d", "point_1d", 1500, 0.0),) * 2
        + (Stream("full-1d", "point_1d", 1500, 0.9),) * 24
        + (Stream("full-2d", "point_2d", 200, 0.3),) * 12
    )),
    "verified": Workload("oracle-sampled", (
        Stream("squares", "unit_square", 200, 0.3),
        Stream("bounded", "bounded_rect", 200, 0.3, c=3.0),
        Stream("full-1d", "point_1d", 150, 0.3),
    ) * 4),
}


class Gate:
    """Counts failed operations and failed checks; a run with any fails."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
            print(f"FAIL: {message}", file=sys.stderr)
        return ok


@dataclass
class StreamRun:
    stream: Stream
    seed: int
    path: Path
    report_path: Path
    events: list[dict] = field(default_factory=list)
    passes_ns: list[list[float]] = field(default_factory=list)
    recolorings: list[int] | None = None
    replay_s: list[float] = field(default_factory=list)
    report_sha: str | None = None
    summary: dict = field(default_factory=dict)
    fingerprint: str = ""
    broken: bool = False

    @property
    def label(self) -> str:
        return f"{self.stream.structure}#{self.seed}"


def recoloring_bound(structure: str, op: str, n: int, ell: int, unimax) -> int | None:
    """The paper's per-update recoloring bound for the framework engines."""
    if structure == "semi-1d":
        return (n - 1).bit_length() if n >= 1 else 0        # ceil(log2 n)
    if structure not in ("full-1d", "full-2d"):
        return None
    if op == "insert":
        return 2 * (ell + 1)
    colorer = unimax.IntervalPointColorer if structure == "full-1d" else unimax.RectPointColorer
    return 6 * colorer.max_recolorings(n + 1) + 2


def plan(workload: Workload, seed: int, work: Path) -> list[StreamRun]:
    runs = []
    for i, stream in enumerate(workload.streams):
        runs.append(StreamRun(stream, seed * 100 + i, work / f"{i}-{stream.structure}.jsonl",
                              work / f"{i}-{stream.structure}.report.json"))
    return runs


def set_up(runs: list[StreamRun], gate: Gate, harness) -> float:
    """Generate and write every stream; returns the seconds this took."""
    t0 = time.perf_counter()
    generated = []
    for run in runs:
        s = run.stream
        events = harness.generate_workload(s.kind, s.n, s.delete_ratio, run.seed,
                                           c=s.c, universe=s.universe)
        harness.write_workload(events, str(run.path))
        generated.append(events)
    elapsed = time.perf_counter() - t0
    for run, events in zip(runs, generated):
        if not run.events:
            run.events = events
        gate.check(events == run.events, f"{run.label}: set-up generated different events")
    return elapsed


def library_pass(run: StreamRun, gate: Gate, harness, unimax, first: bool) -> list[int]:
    """One fresh structure over the stream; returns each insert/delete call's ns."""
    s = run.stream
    adapter = harness.make_structure(s.structure, c=s.c, universe=s.universe)
    events = run.events
    lat = [0] * len(events)
    rec = [0] * len(events)
    states = []
    clock = time.perf_counter_ns
    gc.collect()
    gc.disable()  # as timeit does: a collection's cost depends on the whole heap
    try:
        for i, ev in enumerate(events):
            oid = ev["id"]
            if ev["op"] == "insert":
                obj = ev["object"]
                t0 = clock()
                diff = adapter.insert(oid, obj)
                t1 = clock()
            else:
                t0 = clock()
                diff = adapter.delete(oid)
                t1 = clock()
            lat[i] = t1 - t0
            rec[i] = diff.recolorings
            if first:
                states.append((len(adapter), adapter.framework_info()))
    finally:
        gc.enable()
    if first:
        run.recolorings = rec
        gate.check(adapter.total_recolorings() == sum(rec),
                   f"{run.label}: structure counter {adapter.total_recolorings()} "
                   f"!= {sum(rec)} recolorings reported")
        for i, (ev, (n, info), r) in enumerate(zip(events, states, rec)):
            bound = recoloring_bound(s.structure, ev["op"], n, info[0] if info else 0, unimax)
            if bound is not None and not gate.check(
                    r <= bound, f"{run.label}: step {i} {ev['op']} made {r} recolorings "
                                f"> bound {bound}"):
                break
        witness = adapter.check_oracle()
        gate.check(witness is None, f"{run.label}: final-state oracle check failed: {witness}")
    else:
        gate.check(rec == run.recolorings,
                   f"{run.label}: recolorings differ between library passes")
    return lat


def replay(run: StreamRun, verify: str, gate: Gate, cli) -> float:
    """`cfcolor run` over the stream's file, in-process; returns wall seconds."""
    argv = ["run", "--structure", run.stream.structure, "--workload", str(run.path),
            "--verify", verify, "--report", str(run.report_path)] + run.stream.cli_args()
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    gate.check(code == 0, f"{run.label}: cfcolor run exited {code}: {sink.getvalue().strip()}")
    raw = run.report_path.read_bytes()
    sha = hashlib.sha256(raw).hexdigest()
    if run.report_sha is None:
        run.report_sha = sha
        check_report(run, json.loads(raw), gate)
    else:
        gate.check(sha == run.report_sha, f"{run.label}: replay report changed between replays")
    return elapsed


def check_report(run: StreamRun, report: dict, gate: Gate) -> None:
    steps = report["steps"]
    summary = report["summary"]
    run.summary = summary
    replayed = [row["recolorings"] for row in steps]
    if run.recolorings is not None:
        mismatch = next((i for i, (a, b) in enumerate(zip(replayed, run.recolorings)) if a != b),
                        None if len(replayed) == len(run.recolorings) else -1)
        gate.check(mismatch is None,
                   f"{run.label}: replay and library recolorings differ at step {mismatch}")
    gate.check(summary["structure_recoloring_counter"] == summary["total_recolorings"],
               f"{run.label}: structure_recoloring_counter "
               f"{summary['structure_recoloring_counter']} != total_recolorings "
               f"{summary['total_recolorings']}")
    digest = hashlib.sha256()
    for row in steps:
        digest.update(json.dumps([row["op"], row["id"], row["recolorings"], row["distinct_colors"],
                                  row.get("level"), row.get("set_states")]).encode())
        digest.update(b"\n")
    run.fingerprint = digest.hexdigest()


def guarded(run: StreamRun, gate: Gate, what: str, fn, *args):
    """Run one pass; an exception fails the run and retires the stream."""
    try:
        return fn(*args)
    except Exception:
        gate.check(False, f"{run.label}: {what} raised\n{traceback.format_exc()}")
        run.broken = True
        return None


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def worst_share_mean(values: list[int], share: float) -> float:
    """Mean of the largest `share` of the values (at least one)."""
    if not values:
        return 0.0
    k = max(1, math.ceil(share * len(values)))
    return sum(sorted(values, reverse=True)[:k]) / k


def calibration_loop() -> int:
    """Fixed interpreter work (dict updates, integer arithmetic, a sort)."""
    acc: dict[int, int] = {}
    for i in range(10_000):
        key = i & 255
        acc[key] = acc.get(key, 0) + (i ^ key)
    return len(sorted(acc.values()))


def loop_seconds() -> float:
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference_speed(fn, *args):
    """Call fn(*args); return its result and the factor that scales times
    measured during the call to the reference speed, at which
    calibration_loop() takes REFERENCE_LOOP_S.  The loop is timed just
    before and just after the call."""
    before = loop_seconds()
    result = fn(*args)
    return result, REFERENCE_LOOP_S / ((before + loop_seconds()) / 2)


def scaled_library_pass(run: StreamRun, gate: Gate, harness, unimax,
                        factors: list[float]) -> None:
    """One library pass over the stream; keeps each event's scaled time."""
    lat, factor = at_reference_speed(guarded, run, gate, "library pass", library_pass,
                                     run, gate, harness, unimax, run.recolorings is None)
    if lat is not None:
        factors.append(factor)
        run.passes_ns.append([ns * factor for ns in lat])


def measure(workload: Workload, runs: list[StreamRun], seconds: float, gate: Gate,
            harness, unimax, cli) -> tuple[list[float], list[float]]:
    """Rounds until `seconds` are spent; returns the set-up times and the
    speed factors seen.

    A round is the replay of one stream (in turn), then library passes over
    that stream until they have taken LIBRARY_SHARE of the replay's time (at
    least one pass).  A set-up of all streams precedes the first round, and
    another precedes each round while set-ups have taken at most SETUP_SHARE
    of the time spent.  Every time is scaled to the reference speed measured
    around it, and every kind of pass is spread over the whole run, because
    the host's speed swings by up to 2x over seconds (see README.md)."""
    start = time.perf_counter()
    factors: list[float] = []
    setup_times: list[float] = []
    rounds = 0
    setup_spent = 0.0
    while not all(run.broken for run in runs):
        if setup_spent <= SETUP_SHARE * (time.perf_counter() - start):
            t0 = time.perf_counter()
            elapsed, factor = at_reference_speed(set_up, runs, gate, harness)
            setup_spent += time.perf_counter() - t0
            setup_times.append(elapsed * factor)
        if not rounds:
            for run in runs:  # the first, checked, pass precedes every replay
                scaled_library_pass(run, gate, harness, unimax, factors)
        run = runs[rounds % len(runs)]
        if not run.broken:
            replay_s, factor = at_reference_speed(
                guarded, run, gate, "replay", replay, run, workload.verify, gate, cli)
            if replay_s is not None:
                run.replay_s.append(replay_s * factor)
                factors.append(factor)
            lib_start = time.perf_counter()
            scaled_library_pass(run, gate, harness, unimax, factors)
            while (not run.broken and
                   time.perf_counter() - lib_start < (replay_s or 0.0) * LIBRARY_SHARE):
                scaled_library_pass(run, gate, harness, unimax, factors)
        rounds += 1
        spent = time.perf_counter() - start
        # every stream is replayed at least once: replay checks the library pass
        if rounds >= len(runs) and spent + spent / rounds > seconds:
            break
    return setup_times, factors


def event_latencies_us(runs: list[StreamRun]) -> tuple[list[float], list[float]]:
    """Each insert's and each delete's median scaled time over the passes."""
    ins, dels = [], []
    for r in runs:
        for ev, times in zip(r.events, zip(*r.passes_ns)):
            (ins if ev["op"] == "insert" else dels).append(statistics.median(times) / 1e3)
    return ins, dels


def end_to_end(runs: list[StreamRun], setup_times: list[float]) -> dict[str, tuple[float, str]]:
    ins, dels = event_latencies_us(runs)
    events = sum(len(r.events) for r in runs)
    recolorings = [x for r in runs for x in (r.recolorings or [])]
    replay_s = sum(statistics.median(r.replay_s) for r in runs if r.replay_s)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "insert_us_p50": (percentile(ins, 50), "us"),
        "insert_us_p90": (percentile(ins, 90), "us"),
        "delete_us_p50": (percentile(dels, 50), "us"),
        "delete_us_p90": (percentile(dels, 90), "us"),
        "replay_us_per_event": (replay_s / events * 1e6, "us"),
        "recolorings_per_update": (sum(recolorings) / events, "count"),
        "recolorings_worst1pct": (worst_share_mean(recolorings, 0.01), "count"),
        "max_distinct_colors": (max((r.summary.get("max_distinct_colors", 0) for r in runs),
                                    default=0), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def traced_run(workload: Workload, runs: list[StreamRun], seconds: float, gate: Gate,
               harness, unimax, cli, trace_path: Path) -> dict[str, tuple[float, str]]:
    """One traced library pass and replay per stream for the layer metrics,
    then untraced/traced replay pairs, scaled to the reference speed, until
    --seconds for the overhead ratio."""
    start = time.perf_counter()
    tracer = tracing.Tracer()
    replay_wall_s = 0.0
    with tracer:
        tracer.phase = "lib"
        for run in runs:
            guarded(run, gate, "library pass", library_pass, run, gate, harness, unimax, True)
        tracer.phase = "replay"
        for run in runs:
            if not run.broken:
                elapsed = guarded(run, gate, "replay", replay, run, workload.verify, gate, cli)
                replay_wall_s += elapsed or 0.0

    def scaled_replay(run: StreamRun, traced: bool) -> float | None:
        def once():
            if not traced:
                return guarded(run, gate, "replay", replay, run, workload.verify, gate, cli)
            with tracing.Tracer():
                return guarded(run, gate, "replay", replay, run, workload.verify, gate, cli)
        elapsed, factor = at_reference_speed(once)
        return None if elapsed is None else elapsed * factor

    plain_s = {i: [] for i in range(len(runs))}
    traced_s = {i: [] for i in range(len(runs))}
    rounds = 0
    while True:
        for i, run in enumerate(runs):
            plain = None if run.broken else scaled_replay(run, traced=False)
            traced = None if run.broken else scaled_replay(run, traced=True)
            if plain is not None and traced is not None:
                plain_s[i].append(plain)
                traced_s[i].append(traced)
        rounds += 1
        spent = time.perf_counter() - start
        if spent + spent / (rounds + 1) > seconds:
            break
    for i, run in enumerate(runs):
        run.replay_s = plain_s[i]
    overhead = (sum(statistics.median(v) for v in traced_s.values() if v)
                / max(1e-12, sum(statistics.median(v) for v in plain_s.values() if v)))
    metrics = tracing.layer_metrics(tracer.spans, tracer.roles, round(replay_wall_s * 1e9),
                                    sum(len(r.events) for r in runs))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.missing_targets"] = (len(tracer.missing), "count")
    if tracer.missing:
        print(f"trace: missing targets: {', '.join(tracer.missing)}")
    tracer.write(trace_path)
    print(f"trace: {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to measure (at least one replay per stream)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not __debug__:
        print("error: refusing to run under python -O: the framework's recoloring-bound "
              "checks are assert statements", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from cfcolor import cli, harness, unimax
    except ImportError as exc:
        print(f"error: cannot import the program under test from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    finally:
        sys.path.pop(0)

    workload = WORKLOADS[args.workload]
    gate = Gate()
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        runs = plan(workload, args.seed, work)
        if args.trace:
            set_up(runs, gate, harness)
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            metrics = traced_run(workload, runs, args.seconds, gate, harness, unimax, cli,
                                 trace_path)
            metrics["insert_samples"] = (
                sum(ev["op"] == "insert" for r in runs for ev in r.events), "count")
            metrics["delete_samples"] = (
                sum(ev["op"] == "delete" for r in runs for ev in r.events), "count")
        else:
            setup_times, factors = measure(workload, runs, args.seconds, gate, harness,
                                           unimax, cli)
            metrics = end_to_end(runs, setup_times)
            if factors:
                print(f"speed: times scaled to the reference speed by factors "
                      f"{min(factors):.3f}-{max(factors):.3f} (median "
                      f"{statistics.median(factors):.3f})")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(r.events) for r in runs)
    failed = len(gate.failures)
    report(args, runs, metrics, attempted, failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def report(args, runs: list[StreamRun], metrics, attempted: int, failed: int) -> None:
    """Human-readable lines before the JSON result: metrics with units and
    sample counts, the deterministic quality counts, and the fingerprint."""
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for run in runs:
        s = run.summary
        print(f"  stream {run.label}: {len(run.events)} events, "
              f"replays {' '.join(f'{x:.3f}' for x in run.replay_s)} s, "
              f"max_recolorings {s.get('max_recolorings')}, "
              f"max_distinct_colors {s.get('max_distinct_colors')}, "
              f"fingerprint {run.fingerprint[:16]}")
    if not args.trace:
        ins, dels = event_latencies_us(runs)
        print(f"  samples: insert {len(ins)}, delete {len(dels)}, "
              f"library passes {min(len(r.passes_ns) for r in runs)}+ per stream, "
              f"replays {sum(len(r.replay_s) for r in runs)}")
        print(f"  insert_us_p99 {percentile(ins, 99):.6g} us, delete_us_p99 "
              f"{percentile(dels, 99):.6g} us (not in the JSON: they do not repeat across seeds)")
        worst = max((r.summary.get("max_recolorings", 0) for r in runs), default=0)
        print(f"  max_recolorings {worst} count (not in the JSON: it does not repeat "
              f"across seeds)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  fail_ratio {failed / attempted:.6g} ratio ({failed} failed / {attempted} events)")
    workload_digest = hashlib.sha256("".join(r.fingerprint for r in runs).encode()).hexdigest()
    print(f"fingerprint {args.workload} seed {args.seed} {workload_digest}")


if __name__ == "__main__":
    sys.exit(main())
