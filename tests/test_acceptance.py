"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 5's interval-palette bound of ceil(log2 n0) colors is provably
unattainable when n0 is a power of two (see the strict-xfail test below
for the counting argument); it holds verbatim for every other n0, and the
tight achievable bound ceil(log2(n0+1)) holds everywhere.
"""

import math
import random
import time

import pytest

from cfcolor.anchored import AnchoredCF
from cfcolor.framework import DOWN, FullyDynamicEngine, SemiDynamicEngine, ceil_log2
from cfcolor.geom import AxisRect, Pt
from cfcolor.harness import generate_workload, run_workload, write_report
from cfcolor.oracle import (
    check_unimax_intervals,
    check_unimax_rect_ranges,
)
from cfcolor.rects import CommonPointCF
from cfcolor.squares import GridSquareCF
from cfcolor.unimax import (
    IntervalPointColorer,
    RectPointColorer,
    chain_decompose,
)
from reference import (
    interval_palette_size,
    recompute_anchored_colors,
    recompute_common_point_colors,
    recompute_pinned_square_colors,
)

SUITE_RUNTIME_LIMIT = 180.0  # seconds per structure suite (criterion 1)


def _interval_checker(points, colors):
    return check_unimax_intervals([(points[o], colors[o]) for o in points])


def _rect_checker(points, colors):
    return check_unimax_rect_ranges([(points[o], colors[o]) for o in points])


# -- criterion 1: conflict-freeness of all four structures ---------------------

CRIT1_SUITES = [
    ("anchored", [("anchored_rect", s, {}) for s in range(10)]),
    ("squares", [("unit_square", s, {}) for s in range(10)]),
    ("bounded", [("bounded_rect", s, {"c": 1.5}) for s in range(5)]
     + [("bounded_rect", s, {"c": 3.0}) for s in range(5, 10)]),
    ("universe", [("universe_rect", s, {"universe": 16}) for s in range(5)]
     + [("universe_rect", s, {"universe": 64}) for s in range(5, 10)]),
]


@pytest.mark.parametrize("structure,workloads", CRIT1_SUITES,
                         ids=[s for s, _ in CRIT1_SUITES])
def test_criterion_1_conflict_freeness(structure, workloads):
    start = time.time()
    for kind, seed, params in workloads:
        events = generate_workload(kind, 1024, 0.3, seed=seed, **params)
        report = run_workload(structure, events, verify="oracle-sampled", **params)
        assert report["summary"]["violations"] == [], \
            f"{structure} seed {seed}: {report['summary']['violations'][:1]}"
    elapsed = time.time() - start
    assert elapsed < SUITE_RUNTIME_LIMIT
    print(f"\nACCEPTANCE 1 [{structure}]: PASS - 10 workloads to n=1024, 30% deletions, "
          f"zero oracle violations ({elapsed:.1f}s)")


# -- criterion 2: semi-dynamic recoloring exactness -----------------------------

def test_criterion_2_semi_dynamic_recolorings():
    for seed in range(3):
        rng = random.Random(seed)
        engine = SemiDynamicEngine(IntervalPointColorer, _interval_checker)
        for oid in range(4096):
            diff = engine.insert(oid, rng.uniform(0, 1e6))
            n = len(engine.objects)
            assert diff.recolorings <= ceil_log2(n), \
                f"seed {seed}: {diff.recolorings} recolorings at n={n}"
            if oid % 512 == 0:
                assert engine.check_invariants(unimax_limit=16) is None
        assert engine.check_invariants(unimax_limit=16) is None
    print("\nACCEPTANCE 2: PASS - semi-dynamic recolorings <= ceil(log2 n) "
          "for every insertion up to n=4096 (3 seeds)")


# -- criterion 3: fully dynamic invariants under scripted updates ----------------

def test_criterion_3_fully_dynamic_invariants():
    engine = FullyDynamicEngine(IntervalPointColorer, _interval_checker)
    rng = random.Random(0)
    nid = 0
    live = []
    updates = 0
    down_onsets = 0
    was_down = False
    phases = [(600, 0.0), (550, 1.0), (400, 0.2), (500, 0.85)] * 10
    for count, del_prob in phases:
        for _ in range(count):
            if live and (rng.random() < del_prob or len(live) >= 1400):
                diff = engine.delete(live.pop(rng.randrange(len(live))))
                assert diff.recolorings <= 6 * 1 + 2
            else:
                diff = engine.insert(nid, rng.uniform(0, 1e6))
                live.append(nid)
                nid += 1
                assert diff.recolorings <= 2 * (engine.ell + 1)
            updates += 1
            is_down = engine.set_states()[engine.ell] == DOWN
            if is_down and not was_down:
                down_onsets += 1
            was_down = is_down
            assert engine.check_invariants(unimax_limit=12) is None, \
                f"invariant violation at update {updates}"
    assert updates >= 20_000
    assert down_onsets >= 5, "scripted plan must force downward migrations"
    print(f"\nACCEPTANCE 3: PASS - {updates} scripted updates, invariants verified "
          f"after every one, {down_onsets} forced downward migrations, "
          "insert <= 2(l+1) and delete <= 6r+2 recolorings throughout")


def test_criterion_3_fully_dynamic_invariants_2d():
    engine = FullyDynamicEngine(RectPointColorer, _rect_checker)
    rng = random.Random(1)
    nid = 0
    live = []
    for step in range(2500):
        if live and (rng.random() < 0.45 or len(live) >= 300):
            diff = engine.delete(live.pop(rng.randrange(len(live))))
            assert diff.recolorings <= 6 * 1 + 2
        else:
            diff = engine.insert(nid, Pt(rng.uniform(0, 1e3), rng.uniform(0, 1e3)))
            live.append(nid)
            nid += 1
            assert diff.recolorings <= 2 * (engine.ell + 1)
        assert engine.check_invariants(unimax_limit=10) is None
    print("\nACCEPTANCE 3 [2d colorer]: PASS - 2500 scripted updates with the "
          "rectangle colorer, invariants verified after every one")


# -- criterion 4: color budgets ---------------------------------------------------

def test_criterion_4_color_budget_anchored():
    rng = random.Random(2)
    s = AnchoredCF()
    nid = 0
    live = []
    for step in range(3000):
        if live and rng.random() < 0.35:
            s.delete(live.pop(rng.randrange(len(live))))
        else:
            s.insert(AxisRect(0.0, rng.uniform(0.1, 1e4), 0.0, rng.uniform(0.1, 1e4), nid))
            live.append(nid)
            nid += 1
        n = len(s)
        if n:
            assert len(set(s.colors.values())) <= 2 * math.log2(n + 1) + 1
    print("\nACCEPTANCE 4 [anchored]: PASS - distinct colors <= 2 log2(n+1) + 1 "
          "at every one of 3000 steps")


def test_criterion_4_color_budget_squares():
    from cfcolor.squares import unit_square
    rng = random.Random(3)
    s = GridSquareCF()
    nid = 0
    live = []
    for step in range(3000):
        if live and rng.random() < 0.35:
            s.delete(live.pop(rng.randrange(len(live))))
        else:
            s.insert(unit_square(rng.uniform(0, 12), rng.uniform(0, 12), nid))
            live.append(nid)
            nid += 1
        n = len(s)
        if n:
            assert len(set(s.global_colors().values())) <= 9 * (8 * math.log2(n + 1) + 4)
    print("\nACCEPTANCE 4 [squares]: PASS - distinct colors <= 9(8 log2(n+1) + 4) "
          "at every one of 3000 steps")


def test_criterion_4_color_budget_fully_dynamic_rect():
    engine = FullyDynamicEngine(RectPointColorer, _rect_checker)
    rng = random.Random(4)
    nid = 0
    live = []
    for step in range(2000):
        if live and (rng.random() < 0.4 or len(live) > 600):
            engine.delete(live.pop(rng.randrange(len(live))))
        else:
            engine.insert(nid, Pt(rng.uniform(0, 1e3), rng.uniform(0, 1e3)))
            live.append(nid)
            nid += 1
        if len(engine) > 1:
            ell = engine.ell
            budget = sum((ell + 2) * 2 * math.ceil(math.sqrt(2 ** i)) *
                         math.ceil(math.log2(2 ** i)) for i in range(ell + 2))
            assert len(set(engine.actual.values())) <= budget
    print("\nACCEPTANCE 4 [fully dynamic rect]: PASS - distinct colors within the "
          "sum_i (l+2) * 2 ceil(sqrt(2^i)) * ceil(log2 2^i) budget at every step")


# -- criterion 5: unimax colorers ---------------------------------------------------

def _power_of_two(n):
    return n & (n - 1) == 0


def test_criterion_5_interval_palette_and_deletions():
    for n0 in range(1, 65):
        pts = {i: float(i * 7 % 1009) for i in range(n0)}
        c = IntervalPointColorer(pts)
        used = set(c.colors.values())
        # tight achievable bound everywhere
        assert len(used) <= math.ceil(math.log2(n0 + 1))
        # the stated ceil(log2 n0) bound holds verbatim off powers of two
        if n0 > 1 and not _power_of_two(n0):
            assert len(used) <= math.ceil(math.log2(n0))
        colored = [(pts[oid], col) for oid, col in c.colors.items()]
        assert check_unimax_intervals(colored) is None  # exhaustive, n0 <= 64
        # full deletion sequence: at most one recoloring each, palette fixed
        rng = random.Random(n0)
        order = list(pts)
        rng.shuffle(order)
        for oid in order:
            changed = c.weak_delete(oid)
            assert len(changed) <= 1
            assert set(c.colors.values()) <= used
    print("\nACCEPTANCE 5 [intervals]: PASS - exhaustive unimax for all n0 <= 64; "
          "<= 1 recoloring per weak deletion; palette bound met for every "
          "non-power-of-two n0 (powers of two are provably infeasible: see "
          "the strict xfail companion test and the decisions ledger)")


@pytest.mark.xfail(strict=True,
                   reason="ceil(log2 n0) colors are impossible for n0 a power of "
                          "two: with k colors a unimax coloring w.r.t. intervals "
                          "covers at most 2^k - 1 points (the whole-range maximum "
                          "is unique; induction on the two sides), so n0 = 2^k "
                          "needs k + 1 colors")
def test_criterion_5_interval_palette_literal_bound_at_powers_of_two():
    for n0 in (2, 4, 8, 16, 32, 64):
        c = IntervalPointColorer({i: float(i) for i in range(n0)})
        assert len(set(c.colors.values())) <= math.ceil(math.log2(n0))


def test_criterion_5_rect_unimax_exhaustive():
    for n0 in range(1, 15):
        rng = random.Random(200 + n0)
        pts = {i: Pt(rng.uniform(0, 40), rng.uniform(0, 40)) for i in range(n0)}
        c = RectPointColorer(pts)
        colored = [(pts[oid], col) for oid, col in c.colors.items()]
        assert check_unimax_rect_ranges(colored) is None  # exhaustive, n0 <= 40
        rng2 = random.Random(n0)
        order = list(pts)
        rng2.shuffle(order)
        for oid in order:
            assert len(c.weak_delete(oid)) <= 1
            colored = [(pts[o], col) for o, col in c.colors.items()]
            assert check_unimax_rect_ranges(colored) is None
    print("\nACCEPTANCE 5 [rectangles]: PASS - exhaustive unimax over all canonical "
          "rectangles for n0 <= 14, through full deletion sequences")


def test_criterion_5_chain_count():
    for trial in range(100):
        rng = random.Random(trial)
        n = rng.randint(1, 400)
        pts = {i: Pt(rng.uniform(0, 1e4), rng.uniform(0, 1e4)) for i in range(n)}
        chains = chain_decompose(pts)
        assert len(chains) <= 2 * math.ceil(math.sqrt(n))
    print("\nACCEPTANCE 5 [chains]: PASS - chain count <= 2 ceil(sqrt(n)) on 100 "
          "random instances up to n=400")


# -- criterion 6: definitional equivalence -------------------------------------------

def test_criterion_6_definitional_equivalence_anchored():
    rng = random.Random(5)
    s = AnchoredCF()
    nid = 0
    live = []
    for step in range(10_000):
        if live and (rng.random() < 0.48 or len(live) > 900):
            s.delete(live.pop(rng.randrange(len(live))))
        else:
            s.insert(AxisRect(0.0, rng.uniform(0.1, 1e4), 0.0, rng.uniform(0.1, 1e4), nid))
            live.append(nid)
            nid += 1
        assert s.colors == recompute_anchored_colors(s.trees[0]), f"step {step}"
    print("\nACCEPTANCE 6 [anchored]: PASS - incremental colors equal the "
          "definitional recomputation after every one of 10^4 updates")


def test_criterion_6_definitional_equivalence_squares():
    from cfcolor.squares import unit_square
    rng = random.Random(6)
    s = GridSquareCF()
    nid = 0
    live = []
    for step in range(10_000):
        if live and (rng.random() < 0.48 or len(live) > 900):
            s.delete(live.pop(rng.randrange(len(live))))
        else:
            s.insert(unit_square(rng.uniform(0, 6), rng.uniform(0, 6), nid))
            live.append(nid)
            nid += 1
        for cell in s.cells.values():
            assert cell.colors == recompute_pinned_square_colors(cell.trees[0]), f"step {step}"
    print("\nACCEPTANCE 6 [squares]: PASS - every cell equals the definitional "
          "recomputation after every one of 10^4 updates")


def test_criterion_6_definitional_equivalence_common_point():
    rng = random.Random(7)
    cp = CommonPointCF(Pt(0.0, 0.0))
    nid = 0
    live = []
    for step in range(10_000):
        if live and (rng.random() < 0.48 or len(live) > 900):
            cp.delete(live.pop(rng.randrange(len(live))))
        else:
            cp.insert(AxisRect(-rng.uniform(0.1, 1e3), rng.uniform(0.1, 1e3),
                               -rng.uniform(0.1, 1e3), rng.uniform(0.1, 1e3), nid))
            live.append(nid)
            nid += 1
        assert cp.colors == recompute_common_point_colors(cp.trees[0], cp.trees[1]), f"step {step}"
    print("\nACCEPTANCE 6 [common point]: PASS - pair colors equal the definitional "
          "recomputation after every one of 10^4 updates")


# -- criterion 7: replay determinism ---------------------------------------------------

def test_criterion_7_replay_determinism(tmp_path):
    configs = [
        ("squares", "unit_square", {}, {}),
        ("universe", "universe_rect", {"universe": 64}, {"universe": 64}),
        ("full-1d", "point_1d", {}, {}),
    ]
    for structure, kind, gen_params, run_params in configs:
        events_a = generate_workload(kind, 512, 0.3, seed=42, **gen_params)
        events_b = generate_workload(kind, 512, 0.3, seed=42, **gen_params)
        assert events_a == events_b
        paths = []
        for tag in ("a", "b"):
            report = run_workload(structure, events_a, verify="oracle-sampled",
                                  **run_params)
            path = tmp_path / f"{structure}-{tag}.json"
            write_report(report, str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        csv_a = paths[0].with_suffix(".csv")
        csv_b = paths[1].with_suffix(".csv")
        assert csv_a.read_bytes() == csv_b.read_bytes()
    print("\nACCEPTANCE 7: PASS - byte-identical reports (JSON and CSV) for "
          "repeated runs of identical (workload, structure, flags)")
