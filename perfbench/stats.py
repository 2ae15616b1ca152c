"""Pure helpers of the benchmark: percentiles, failure counting, result lines.

Nothing here imports the program under test, so these rules are tested on
their own (``perfbench/tests/test_perfbench.py``).
"""

from __future__ import annotations

import math
import re
import statistics
import threading

__all__ = [
    "TAIL_BEYOND",
    "Tally",
    "check_name",
    "check_unit",
    "median",
    "tail",
    "windowed_rate",
    "result_line",
]

# A metric name: starts with a letter or digit, at most 64 of [A-Za-z0-9_.-].
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
# A unit: at most 16 of [A-Za-z0-9_/%.-].
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

# The tail percentile is the highest one that still has this many samples
# strictly beyond it, so it never rests on a handful of outliers.
TAIL_BEYOND = 10


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not isinstance(name, str) or not _NAME.match(name):
        raise ValueError(
            f"invalid metric name {name!r}: use 1-64 of [A-Za-z0-9_.-], "
            f"starting with a letter or digit"
        )
    return name


def check_unit(unit: str) -> str:
    """Return ``unit`` if it is a valid unit, else raise ValueError."""
    if not isinstance(unit, str) or not _UNIT.match(unit):
        raise ValueError(f"invalid unit {unit!r}: use 1-16 of [A-Za-z0-9_/%.-]")
    return unit


def median(values) -> float:
    """Median of a non-empty sequence (mean of the middle two when even)."""
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values, beyond: int = TAIL_BEYOND) -> tuple:
    """The tail sample: the highest percentile with ``beyond`` samples past it.

    Returns ``(value, percentile, samples)``.  With ``n`` samples sorted
    ascending the tail is the ``(beyond + 1)``-th largest, whose percentile
    is ``100 * (n - beyond) / n``; exactly ``beyond`` samples exceed its
    rank.  Fewer than ``beyond + 1`` samples have no such percentile and
    raise ValueError.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < beyond + 1:
        raise ValueError(
            f"a tail needs at least {beyond + 1} samples, got {n}"
        )
    return float(ordered[n - beyond - 1]), 100.0 * (n - beyond) / n, n


def windowed_rate(start: float, ends, windows: int = 5) -> float:
    """Median completion rate over ``windows`` consecutive request groups.

    ``ends`` are the requests' completion times and ``start`` is when the
    loop began, on the same clock.  The requests are split, in completion
    order, into ``windows`` groups of (nearly) equal size.  Each group's
    rate is its size over the time from the previous group's last
    completion to its own.  The median of these rates is less moved by a
    slow stretch of the host than the overall rate is.
    """
    ends = sorted(ends)
    n = len(ends)
    if n < windows:
        raise ValueError(f"{windows} windows need at least {windows} "
                         f"requests, got {n}")
    rates = []
    for g in range(windows):
        lo, hi = n * g // windows, n * (g + 1) // windows
        began = start if lo == 0 else ends[lo - 1]
        rates.append((hi - lo) / (ends[hi - 1] - began))
    return median(rates)


class Tally:
    """Attempted and failed operations; every output check feeds it.

    Thread-safe, so client threads of one workload share a tally.  The
    first few failure messages are kept for the report.
    """

    KEEP_MESSAGES = 8

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self._lock = threading.Lock()

    def record(self, ok: bool, what: str = "") -> bool:
        """Count one attempted operation; ``ok`` False counts it failed."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.messages) < self.KEEP_MESSAGES:
                    self.messages.append(what)
        return ok

    def fail(self, what: str) -> None:
        """Count one attempted operation that failed."""
        self.record(False, what)

    @property
    def ratio(self) -> float:
        """Failed operations over attempted ones (0 when none attempted)."""
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        """True when something was attempted and nothing failed."""
        return self.attempted > 0 and self.failed == 0


def result_line(tally: Tally, metrics: dict, declared: dict) -> dict:
    """The benchmark's final JSON object.

    ``metrics`` maps name -> ``(value, unit)``; ``declared`` maps name ->
    unit as listed in ``BENCHMARK.json``.  The two must name the same
    metrics with the same units, and every value must be a finite number:
    anything else raises ValueError rather than printing a result.
    """
    missing = sorted(set(declared) - set(metrics))
    extra = sorted(set(metrics) - set(declared))
    if missing or extra:
        raise ValueError(
            f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}"
        )
    out = {}
    for name in sorted(metrics):
        value, unit = metrics[name]
        check_name(name)
        check_unit(unit)
        if unit != declared[name]:
            raise ValueError(
                f"metric {name!r} measured in {unit!r}, declared "
                f"{declared[name]!r}"
            )
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value}")
        out[name] = {"value": value, "unit": unit}
    return {
        "correct": tally.correct,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": out,
    }
