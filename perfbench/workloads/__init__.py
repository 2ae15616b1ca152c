"""The four benchmark workloads and the closed loop they share.

Every workload draws all of its inputs from the ``--seed`` it is given, in
its constructor, before anything is timed; the program only ever sees the
generated inputs.  A workload exposes:

* ``setup()`` — build (or rebuild) the program objects and warm them up;
  this is what ``setup_s`` times, several times per run;
* ``run(seconds, tally, recorder)`` — the measured loop, returning a
  :class:`Sample`; every output is checked and counted in ``tally``;
* ``check_once(tally)`` — the heavier checks made once per run;
* ``layer_metrics(recorder, attribution)`` — the traced run's per-layer
  figures for the layers this workload exercises;
* ``close()`` — release what ``setup()`` built.

``REQUEST_SPAN`` names the span around one request and ``LAYER_SPANS``
maps the spans inside it to layers, for :func:`perfbench.spans.attribute`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..stats import median

__all__ = ["Sample", "closed_loop", "timed_median", "WORKLOADS", "get_workload"]

# The tail metric needs TAIL_BEYOND + 1 samples; a run never stops short
# of this many requests, however small ``--seconds`` is.
MIN_REQUESTS = 20


@dataclass
class Sample:
    """What one measured loop produced."""

    latencies: list            # seconds, one per request
    ends: list                 # perf_counter time each request completed
    start: float               # perf_counter time the loop began
    detail: dict = field(default_factory=dict)   # name -> (value, unit)

    @property
    def requests(self) -> int:
        return len(self.latencies)

    @property
    def wall_s(self) -> float:
        """Loop wall time up to the last completion, checks included."""
        return max(self.ends) - self.start


def closed_loop(call, check, seconds: float, recorder, span: str,
                min_requests: int = MIN_REQUESTS) -> tuple:
    """One caller: ``call(i)``, then ``check(i, output)``, until time is up.

    Only ``call`` is timed (and traced as ``span``); checks run between
    requests and count towards the completion times.  Returns
    ``(latencies, ends, start)`` as :class:`Sample` holds them.
    """
    latencies, ends = [], []
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        with recorder.span(span):
            began = time.perf_counter()
            output = call(index)
            ended = time.perf_counter()
        latencies.append(ended - began)
        check(index, output)
        ends.append(time.perf_counter())
        index += 1
        if ended >= deadline and index >= min_requests:
            break
    return latencies, ends, start


def timed_median(call, repeats: int = 3) -> float:
    """Median seconds of ``repeats`` timed calls (one untimed call first)."""
    call()
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        call()
        times.append(time.perf_counter() - began)
    return median(times)


WORKLOADS = ("coded-link", "asip-fft", "fft-bulk", "serve-mix")


def get_workload(name: str):
    """The workload class called ``name`` (one of :data:`WORKLOADS`).

    Imported on demand: the workload modules import the program, which
    must not happen before the caller has put it on ``sys.path``.
    """
    from . import asip_fft, coded_link, fft_bulk, serve_mix

    classes = (coded_link.CodedLink, asip_fft.AsipFFT, fft_bulk.FFTBulk,
               serve_mix.ServeMix)
    return {cls.NAME: cls for cls in classes}[name]
