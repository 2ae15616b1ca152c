"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload coded-link --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics of the named workload with
tracing off.  ``--trace 1`` is the separate traced run: it profiles every
workload (the named one for half of ``--seconds``, the other three for a
sixth each) and prints the per-layer metrics.  Metric names and units are
those declared in ``BENCHMARK.json``; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run exits 1 if any output check failed and 2 if it
cannot run at all.  A record of the run, stamped with the host, is written
under ``perfbench/results/``, and the traced run also writes its spans
there as a Chrome trace.  Nothing else is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
SETUP_REPEATS = 3

# The benchmark's own modules; none of them imports the program at import
# time, so this works even where there is no program to measure.
sys.path.insert(0, str(ROOT))
from perfbench.spans import (NULL_RECORDER, Recorder, attribute,  # noqa: E402
                             program_trace, write_chrome_trace)
from perfbench.stats import (Tally, median, result_line, tail,  # noqa: E402
                             windowed_rate)
from perfbench.workloads import WORKLOADS, get_workload  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this run."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def host_stamp() -> dict:
    """The host a result came from; only like stamps are comparable."""
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing ``repro``."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import repro"
    times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       timeout=120, cwd=ROOT)
        times.append(time.perf_counter() - began)
    return median(times)


def end_to_end(name, seed, seconds, tally):
    """The untraced run: set-up, the measured loop, the output checks."""
    imported = import_seconds()
    workload = get_workload(name)(seed)
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - began)
        sample = workload.run(seconds, tally, NULL_RECORDER)
        workload.check_once(tally)
    finally:
        workload.close()
    tail_s, tail_pct, samples = tail(sample.latencies)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (imported + median(setups), "s"),
        "requests_per_s": (windowed_rate(sample.start, sample.ends), "1/s"),
        "latency_p50_ms": (median(sample.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    detail = dict(sample.detail)
    detail.update({
        "import_s": (imported, "s"),
        "setup_repeats_s": (setups, "s"),
        "requests": (samples, "count"),
        "latency_tail_pct": (tail_pct, "%"),
        "failed_ratio": (tally.ratio, "ratio"),
    })
    return metrics, detail, None


def traced(name, seed, seconds, tally):
    """The traced run: every workload profiled, the named one longest."""
    recorder = Recorder()
    order = [name] + [w for w in WORKLOADS if w != name]
    metrics, detail = {}, {}
    for index, wname in enumerate(order):
        share = seconds / 2 if index == 0 else seconds / 6
        workload = get_workload(wname)(seed)
        try:
            workload.setup()
            plain = workload.run(share / 2, tally, NULL_RECORDER,
                                 min_requests=3)
            with program_trace(recorder):
                spanned = workload.run(share / 2, tally, recorder,
                                       min_requests=3)
            split = attribute(recorder, workload.REQUEST_SPAN,
                              workload.LAYER_SPANS)
            tally.record(split["unattributed_ms"] >= 0,
                         f"{wname}: layer spans exceed the request wall")
            metrics[f"trace.wall_ms.{wname}"] = (split["wall_ms"], "ms")
            metrics[f"trace.overhead_ms.{wname}"] = (
                (mean(spanned.latencies) - mean(plain.latencies)) * 1e3,
                "ms")
            metrics[f"pipelines.unattributed_ms.{wname}"] = (
                split["unattributed_ms"], "ms")
            metrics.update(workload.layer_metrics(recorder, split))
            detail[f"attribution.{wname}"] = split
        finally:
            workload.close()
    return metrics, detail, recorder


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    sys.path.insert(0, str(SRC))

    origin = time.perf_counter()
    tally = Tally()
    measure = traced if args.trace else end_to_end
    metrics, detail, recorder = measure(args.workload, args.seed,
                                        args.seconds, tally)
    result = result_line(tally, metrics, declared)

    host = host_stamp()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"host": host, "args": vars(args), "result": result,
              "detail": detail, "failures": tally.messages}
    with open(RESULTS / f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    if recorder is not None:
        spans = write_chrome_trace(recorder, RESULTS / f"{stem}-spans.json",
                                   origin)
        print(f"# spans: {spans} written to perfbench/results/"
              f"{stem}-spans.json")

    print("# host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"# workload: {args.workload}  seed: {args.seed}  "
          f"seconds: {args.seconds:g}  trace: {args.trace}")
    for key, (value, unit) in sorted(metrics.items()):
        print(f"{key:44s} {value:14.6g} {unit}")
    for key, entry in sorted(detail.items()):
        if isinstance(entry, tuple):
            value, unit = entry
            shown = (f"{value:14.6g}" if isinstance(value, (int, float))
                     else " ".join(f"{v:.4g}" for v in value))
            print(f"  {key:42s} {shown} {unit}")
        else:
            layers = " ".join(f"{k}={v:.3f}" for k, v in
                              entry["layers"].items())
            print(f"  {key}: wall={entry['wall_ms']:.3f} ms  {layers}  "
                  f"unattributed={entry['unattributed_ms']:.3f} ms  "
                  f"requests={entry['requests']}")
    for message in tally.messages:
        print(f"# FAILED: {message}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
