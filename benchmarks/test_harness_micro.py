"""Micro-benchmarks of the harness's file writers, reader and replay loop.

    python -m pytest benchmarks -q

Kept out of the tier-1 testpaths; needs pytest-benchmark.  The stream is
shaped like one full-1d stream of perfbench's dyn-churn workload (1,500
inserts, 90% deletions); its events and report are built once per module.
The workload writer also runs over a bounded_rect stream of the same
shape, since a line's cost grows with its kind's coordinate count.
"""

import pytest

from cfcolor.harness import (generate_workload, read_workload, run_workload, write_report,
                             write_workload)

N = 1500
DELETE_RATIO = 0.9
SEED = 1


@pytest.fixture(scope="module")
def stream():
    events = generate_workload("point_1d", N, DELETE_RATIO, SEED)
    return events, run_workload("full-1d", events)


def test_write_report(benchmark, stream, tmp_path):
    _, report = stream
    path = tmp_path / "report.json"
    benchmark(write_report, report, str(path))
    assert path.with_suffix(".csv").exists()


def test_replay_loop(benchmark, stream):
    events, report = stream
    assert benchmark(run_workload, "full-1d", events, "none") == report


@pytest.mark.parametrize("kind, params", [("point_1d", {}), ("bounded_rect", {"c": 4.0})],
                         ids=["full-1d", "bounded"])
def test_write_workload(benchmark, kind, params, tmp_path):
    events = generate_workload(kind, N, DELETE_RATIO, SEED, **params)
    path = tmp_path / "w.jsonl"
    benchmark(write_workload, events, str(path))
    assert read_workload(str(path)) == events


def test_read_workload(benchmark, stream, tmp_path):
    events, _ = stream
    path = tmp_path / "w.jsonl"
    write_workload(events, str(path))
    assert benchmark(read_workload, str(path)) == events
