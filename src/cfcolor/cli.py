"""Command-line front end: gen / run / bench.

Exit codes: 0 success, 2 verification failure, 3 input error.  Usage
errors (an unknown option, a value of the wrong type) are input errors
too: they print the usage line and one "error:" message and exit 3.
Every choice list comes from the harness registry (KINDS, STRUCTURES,
VERIFY_MODES).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import harness
from .rects import CoordinateOutOfUniverse, SizeOutOfRange

# What bad input can raise: replay checks ids before the structures see
# them, and routing always picks a pin its rectangle contains.
INPUT_ERRORS = (harness.InvalidParams, harness.ParseError, harness.KindMismatch,
                CoordinateOutOfUniverse, SizeOutOfRange, OSError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    try:
        values = [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of ints: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("must list at least one int")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process, since in-process replays
    call main again and again; callers read it and never change it."""
    parser = _Parser(
        prog="cfcolor",
        description="Dynamic conflict-free coloring workloads: generate, replay, bench.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a deterministic JSONL workload")
    gen.add_argument("--kind", required=True, choices=list(harness.KINDS))
    gen.add_argument("--n", type=int, required=True, help="number of insertions")
    gen.add_argument("--delete-ratio", type=float, default=0.0)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--span", type=float, default=None,
                     help="coordinate range (integer universes: max coordinate)")
    gen.add_argument("--c", type=float, default=None, help="side bound for bounded rectangles")
    gen.add_argument("--universe", type=int, default=None, help="universe size N")
    gen.add_argument("--out", required=True, help="output workload path")

    run = sub.add_parser("run", help="replay a workload against a structure")
    run.add_argument("--structure", required=True, choices=list(harness.STRUCTURES))
    run.add_argument("--workload", required=True)
    run.add_argument("--verify", default="invariants", choices=harness.VERIFY_MODES)
    run.add_argument("--c", type=float, default=None)
    run.add_argument("--universe", type=int, default=None)
    run.add_argument("--report", required=True, help="report path (JSON; CSV twin)")

    bench = sub.add_parser("bench", help="seeded trials across sizes")
    bench.add_argument("--structure", required=True, choices=list(harness.STRUCTURES))
    bench.add_argument("--sizes", required=True, type=_int_list,
                       help="comma-separated insertion counts, e.g. 128,256,512")
    bench.add_argument("--seeds", required=True, type=_int_list, help="comma-separated seeds")
    bench.add_argument("--delete-ratio", type=float, default=None,
                       help="default 0.3, or 0 for an insert-only structure")
    bench.add_argument("--c", type=float, default=None)
    bench.add_argument("--universe", type=int, default=None)
    bench.add_argument("--report", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            events = harness.generate_workload(
                args.kind, args.n, args.delete_ratio, args.seed,
                span=args.span, c=args.c, universe=args.universe)
            harness.write_workload(events, args.out)
            print(f"wrote {len(events)} events to {args.out}")
            return 0
        if args.command == "run":
            events = harness.read_workload(args.workload)
            report = harness.run_workload(
                args.structure, events, verify=args.verify,
                c=args.c, universe=args.universe,
                config_extra={"workload": args.workload})
            harness.write_report(report, args.report)
            bad = report["summary"]["violations"]
            if bad:
                print(json.dumps(bad[0], sort_keys=True), file=sys.stderr)
                print(f"report written to {args.report}: "
                      f"{len(bad)} verification failure(s)", file=sys.stderr)
                return 2
            print(f"report written to {args.report}: all checks passed")
            return 0
        bench = harness.run_bench(args.structure, args.sizes, args.seeds,
                                  delete_ratio=args.delete_ratio,
                                  c=args.c, universe=args.universe)
        harness.write_bench(bench, args.report)
        print(f"bench report written to {args.report} "
              f"({len(bench['trials'])} trials)")
        return 0
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
