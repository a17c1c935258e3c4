"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {name: replace(w, streams=tuple(replace(s, n=max(4, s.n // 50)) for s in w.streams))
        for name, w in bench.WORKLOADS.items()}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(bench, "WORKLOADS", TINY)


def run_bench(capsys, workload, seed=3, trace=0):
    code = bench.main(["--workload", workload, "--seed", str(seed), "--trace", str(trace),
                       "--seconds", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    fingerprint = next(line.split()[-1] for line in lines if line.startswith("fingerprint "))
    return code, json.loads(lines[-1]), fingerprint


def test_spec_lists_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY)


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_with_unit_and_no_failures(capsys, workload, trace, section):
    code, result, _ = run_bench(capsys, workload, trace=trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.missing_targets"]["value"] == 0


def test_planted_skipped_recoloring_fails_the_run(capsys, monkeypatch):
    from cfcolor.squares import GridSquareCF

    original = GridSquareCF.insert

    def insert_reporting_one_recoloring_less(self, sq):
        diff = original(self, sq)
        if diff.changed:
            diff.changed.pop(next(iter(diff.changed)))
        return diff

    monkeypatch.setattr(GridSquareCF, "insert", insert_reporting_one_recoloring_less)
    code, result, _ = run_bench(capsys, "geo-churn")
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_seed_changes_inputs_not_metric_names(capsys):
    _, first, print_a = run_bench(capsys, "dyn-churn", seed=1)
    _, again, print_b = run_bench(capsys, "dyn-churn", seed=1)
    _, other, print_c = run_bench(capsys, "dyn-churn", seed=2)
    assert print_a == print_b != print_c
    assert first["metrics"].keys() == other["metrics"].keys()
    for name in ("recolorings_per_update", "recolorings_worst1pct", "max_distinct_colors"):
        assert first["metrics"][name] == again["metrics"][name]


def test_missing_trace_target_is_reported_not_fatal():
    targets = tracing.TARGETS + [("anchored", "NoSuchStructure.insert", tracing.UPDATE, None)]
    with tracing.Tracer(targets) as tracer:
        from cfcolor import harness
        adapter = harness.make_structure("anchored")
        adapter.insert(0, {"kind": "anchored_rect", "x2": 1.0, "y2": 1.0})
    assert tracer.missing == ["anchored.NoSuchStructure.insert"]
    assert [s[0] for s in tracer.spans] == ["anchored.AnchoredCF.insert", "augtree.AugTree.insert"]
    from cfcolor.anchored import AnchoredCF
    assert not hasattr(AnchoredCF.insert, "__wrapped__")


def test_refuses_python_optimize_mode():
    proc = subprocess.run(
        [sys.executable, "-O", str(HERE / "run.py"), "--workload", "verified", "--seed", "1",
         "--seconds", "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "-O" in proc.stderr and proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geo-churn", "--seed", "1",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
