"""Tests of the benchmark's own helpers and of its command-line contract.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from perfbench.spans import Recorder, Span, attribute
from perfbench.stats import (TAIL_BEYOND, Tally, check_name, check_unit,
                             result_line, tail, windowed_rate)

ROOT = Path(__file__).resolve().parents[2]


# The tail-percentile rule ---------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 101))           # 1..100, shuffled order is fine
    value, pct, n = tail(reversed(values))
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(v > value for v in values) == TAIL_BEYOND


def test_tail_with_the_fewest_samples_is_the_minimum():
    value, pct, n = tail([5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 8.0, 7.0, 6.0,
                          10.0, 11.0])
    assert value == 1.0 and n == 11
    assert pct == pytest.approx(100 / 11)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError, match="at least 11"):
        tail([1.0] * TAIL_BEYOND)


# The windowed request rate --------------------------------------------------


def test_windowed_rate_takes_the_median_window():
    # Five windows of two requests: 1 s, 1 s, 4 s (a slow stretch), 1 s,
    # 0.5 s -> rates 2, 2, 0.5, 2, 4 per second; the median is 2.
    ends = [0.5, 1.0, 1.5, 2.0, 4.0, 6.0, 6.5, 7.0, 7.25, 7.5]
    assert windowed_rate(0.0, reversed(ends)) == pytest.approx(2.0)


def test_windowed_rate_counts_from_the_loop_start():
    assert windowed_rate(10.0, [11.0, 12.0, 13.0], windows=3) == 1.0
    with pytest.raises(ValueError, match="at least 5"):
        windowed_rate(0.0, [1.0, 2.0])


# Failure counting -----------------------------------------------------------


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    assert not tally.correct and tally.ratio == 0.0   # nothing attempted
    tally.record(True, "fine")
    tally.record(False, "wrong spectrum")
    tally.fail("shed")
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.ratio == pytest.approx(2 / 3)
    assert not tally.correct
    assert tally.messages == ["wrong spectrum", "shed"]


def test_tally_keeps_only_the_first_messages():
    tally = Tally()
    for k in range(20):
        tally.fail(f"failure {k}")
    assert tally.failed == 20
    assert tally.messages == [f"failure {k}" for k in range(Tally.KEEP_MESSAGES)]


def test_tally_loses_no_update_under_threads():
    tally = Tally()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(k):
            for i in range(2000):
                tally.record(i % 7 != k)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(old)
    assert tally.attempted == 6 * 2000
    assert tally.failed == sum(i % 7 == k for k in range(6) for i in range(2000))


# Metric names and the result line --------------------------------------------


@pytest.mark.parametrize("name", [
    "setup_s", "coded.burst_p50_ms", "coding.decode_kbit_per_s.64blk",
    "trace.wall_ms.coded-link", "9lives", "a" * 64,
])
def test_valid_metric_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", [
    "", "_lead", ".lead", "-lead", "has space", "slash/name", "a" * 65,
    "semi;colon", "ünïcode", None, 3,
])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_name(name)


@pytest.mark.parametrize("unit", ["ms", "s", "1/s", "count", "%", "kbit/s"])
def test_valid_units(unit):
    assert check_unit(unit) == unit


@pytest.mark.parametrize("unit", ["", "milli seconds", "x" * 17, "m*s"])
def test_invalid_units(unit):
    with pytest.raises(ValueError):
        check_unit(unit)


def test_result_line_reports_failures_as_incorrect():
    tally = Tally()
    tally.record(True)
    tally.fail("bad")
    line = result_line(tally, {"latency_ms": (1.5, "ms")},
                       {"latency_ms": "ms"})
    assert line == {"correct": False, "attempted": 2, "failed": 1,
                    "metrics": {"latency_ms": {"value": 1.5, "unit": "ms"}}}


@pytest.mark.parametrize("metrics, declared, message", [
    ({"a_ms": (1.0, "ms")}, {"a_ms": "ms", "b_ms": "ms"}, "missing"),
    ({"a_ms": (1.0, "ms"), "c": (1.0, "ms")}, {"a_ms": "ms"}, "undeclared"),
    ({"a_ms": (1.0, "s")}, {"a_ms": "ms"}, "declared"),
    ({"a_ms": (math.nan, "ms")}, {"a_ms": "ms"}, "finite"),
    ({"bad name": (1.0, "ms")}, {"bad name": "ms"}, "invalid metric"),
])
def test_result_line_refuses_a_metric_set_unlike_the_declared_one(
        metrics, declared, message):
    tally = Tally()
    tally.record(True)
    with pytest.raises(ValueError, match=message):
        result_line(tally, metrics, declared)


# Attribution -------------------------------------------------------------------


def _recorder(spans):
    recorder = Recorder()
    recorder.spans.extend(Span(name, start, end, thread=1)
                          for name, start, end in spans)
    return recorder


def test_attribution_adds_up_to_the_wall_time():
    recorder = _recorder([
        ("req", 0.0, 0.010), ("a", 0.001, 0.003), ("b", 0.004, 0.008),
        ("req", 0.020, 0.024), ("a", 0.020, 0.022),
        ("a", 0.030, 0.031),                   # outside every request
    ])
    split = attribute(recorder, "req", {"a": "layer.a", "b": "layer.b"})
    assert split["requests"] == 2
    assert split["wall_ms"] == pytest.approx(7.0)
    assert split["layers"] == pytest.approx({"layer.a": 2.0, "layer.b": 2.0})
    assert split["unattributed_ms"] == pytest.approx(3.0)
    assert (sum(split["layers"].values()) + split["unattributed_ms"]
            == pytest.approx(split["wall_ms"]))


def test_attribution_refuses_overlapping_layer_spans():
    recorder = _recorder([("req", 0.0, 0.010), ("a", 0.0, 0.008),
                          ("b", 0.002, 0.009)])
    with pytest.raises(ValueError, match="overlap"):
        attribute(recorder, "req", {"a": "x", "b": "y"})


# BENCHMARK.json and the command line ---------------------------------------------


def _spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def test_benchmark_json_is_well_formed():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        check_name(name)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert 0 < max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_a_short_run_prints_the_declared_metrics_and_writes_no_tracked_file():
    watched = [ROOT / "BENCHMARK.json", ROOT / "BENCH_engine.json"]
    before = {p: _digest(p) for p in watched if p.exists()}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coded-link",
         "--seed", "3", "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert {p: _digest(p) for p in before} == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coded-link",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "{" not in proc.stdout
