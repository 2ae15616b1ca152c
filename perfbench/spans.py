"""In-memory spans for the traced run, and the per-layer attribution.

The benchmark opens its own spans around each call into a layer.  While
tracing it also installs a :mod:`repro.telemetry` tracer and folds the
program's existing spans (``stage.*``, ``viterbi.*``, ...) into the same
timeline.  Nothing is written until :func:`write_chrome_trace` runs at the
end of the benchmark.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import threading
import time

__all__ = [
    "Span",
    "Recorder",
    "NULL_RECORDER",
    "program_trace",
    "attribute",
    "write_chrome_trace",
]


class Span:
    """One finished interval; times are ``time.perf_counter()`` seconds."""

    __slots__ = ("name", "start", "end", "thread", "source")

    def __init__(self, name, start, end, thread, source="bench"):
        self.name = name
        self.start = start
        self.end = end
        self.thread = thread
        self.source = source

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, other: "Span") -> bool:
        return (self.thread == other.thread and self.start <= other.start
                and other.end <= self.end)


class Recorder:
    """Collects the benchmark's spans in memory; thread-safe."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            record = Span(name, start, time.perf_counter(),
                          threading.get_ident())
            with self._lock:
                self.spans.append(record)

    def named(self, name: str) -> list:
        """Finished spans called ``name``, in start order."""
        with self._lock:
            found = [s for s in self.spans if s.name == name]
        return sorted(found, key=lambda s: s.start)


class _NullRecorder:
    """The untraced run's recorder: every span is a shared no-op."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL_RECORDER = _NullRecorder()


@contextlib.contextmanager
def program_trace(recorder: Recorder):
    """Install a ``repro.telemetry`` tracer; on exit, copy its spans in.

    The program's spans are converted onto the recorder's clock and
    tagged ``source="program"``.
    """
    from repro import telemetry

    tracer = telemetry.Tracer("perfbench")
    offset = time.perf_counter() - tracer.now()
    telemetry.install(tracer)
    try:
        yield tracer
    finally:
        telemetry.uninstall(tracer)
        copied = [
            Span(s.name, s.start + offset, s.end + offset, s.thread_id,
                 source="program")
            for s in tracer.finished() if s.end is not None
        ]
        with recorder._lock:
            recorder.spans.extend(copied)


def attribute(recorder: Recorder, request: str, layers: dict) -> dict:
    """Split each traced ``request`` span into layer time and the rest.

    ``layers`` maps a span name to the layer it is charged to.  Those
    spans must not overlap inside one request (they are sequential calls
    on the request's thread).  Returns per-request means in milliseconds:
    ``wall_ms``, ``layers`` (layer -> ms) and ``unattributed_ms``, which is
    ``wall_ms`` minus the layer sum, so the parts add up to the wall time.
    Raises ValueError if the layer spans cover more than the wall time,
    which would mean they overlap.
    """
    requests = recorder.named(request)
    if not requests:
        raise ValueError(f"no traced {request!r} spans")
    with recorder._lock:
        candidates = [s for s in recorder.spans if s.name in layers]
    candidates.sort(key=lambda s: s.start)
    starts = [s.start for s in candidates]
    totals = dict.fromkeys(sorted(set(layers.values())), 0.0)
    wall = 0.0
    for outer in requests:
        inside = 0.0
        first = bisect.bisect_left(starts, outer.start)
        for index in range(first, len(candidates)):
            inner = candidates[index]
            if inner.start > outer.end:
                break
            if outer.contains(inner):
                totals[layers[inner.name]] += inner.duration
                inside += inner.duration
        if inside > outer.duration * (1 + 1e-9) + 1e-9:
            raise ValueError(
                f"layer spans cover {inside:.6f} s of a {outer.duration:.6f}"
                f" s {request!r} span; they overlap"
            )
        wall += outer.duration
    count = len(requests)
    per_layer = {k: v / count * 1e3 for k, v in totals.items()}
    wall_ms = wall / count * 1e3
    return {
        "requests": count,
        "wall_ms": wall_ms,
        "layers": per_layer,
        "unattributed_ms": wall_ms - sum(per_layer.values()),
    }


def write_chrome_trace(recorder: Recorder, path, origin: float) -> int:
    """Write every span as Chrome trace-event JSON; returns the span count.

    Loadable in Perfetto or ``chrome://tracing``; ``origin`` is the
    ``perf_counter`` time shown as zero.
    """
    with recorder._lock:
        spans = list(recorder.spans)
    events = [
        {
            "name": s.name, "cat": s.source, "ph": "X", "pid": 0,
            "tid": s.thread,
            "ts": round((s.start - origin) * 1e6, 3),
            "dur": round(s.duration * 1e6, 3),
        }
        for s in sorted(spans, key=lambda s: s.start)
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events}, handle)
    return len(events)
