"""``fft-bulk``: large float and Q1.15 batches through the compiled engine.

Why: the paper's array-FFT kernel (``core``/``compiled``) does nearly all
of the work.  It is about one fiftieth of ``coded-link`` and absent from
``asip-fft``, yet against ``np.fft`` it is the repository's largest gap, so
without this workload the kernel would go unmeasured.  One caller; one
request is a round of four ``Engine.transform_many`` calls: 512x1024 and
64x8192 blocks, each in float and in Q1.15.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

import repro
from repro import ArrayFFT

from ..stats import median
from . import MIN_REQUESTS, Sample, closed_loop, timed_median
from .asip_fft import q15_blocks

SHAPES = ((512, 1024), (64, 8192))
PRECISIONS = ("float", "q15")
POOL = 2                 # distinct input batches per shape, used in turn
CHECK_ROWS = 8           # float rows compared with np.fft per request
PAIRS = 3                # interleaved engine/core pairs per comparison
SHARDED_WORKERS = 2


def _elapsed(call) -> float:
    began = time.perf_counter()
    call()
    return time.perf_counter() - began


def _label(shape) -> str:
    return f"{shape[0]}x{shape[1]}"


class FFTBulk:
    NAME = "fft-bulk"
    REQUEST_SPAN = "fft-bulk.round"
    LAYER_SPANS = {
        f"engines.transform_many.{p}.{_label(s)}": f"engines.{p}.{_label(s)}"
        for s in SHAPES for p in PRECISIONS
    }

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = {s: [q15_blocks(rng, *s) for _ in range(POOL)]
                       for s in SHAPES}
        self.float_rows = {s: rng.choice(s[0], size=CHECK_ROWS, replace=False)
                           for s in SHAPES}
        self.q15_row = {s: int(rng.integers(0, s[0])) for s in SHAPES}
        self.expected_float = {
            s: [np.fft.fft(x, axis=1) for x in self.inputs[s]] for s in SHAPES
        }
        # One row per batch through the Q1.15 reference datapath (the
        # oracle the compiled plan must match bit for bit).
        self.expected_q15 = {}
        for s in SHAPES:
            row = self.q15_row[s]
            with repro.engine(s[1], backend="reference",
                              precision="q15") as oracle:
                self.expected_q15[s] = [
                    oracle.transform_many(x[row:row + 1]).spectrum[0]
                    for x in self.inputs[s]
                ]
        self.engines = {}
        self.last = {}

    def setup(self) -> None:
        self.close()
        for s in SHAPES:
            for p in PRECISIONS:
                eng = repro.engine(s[1], precision=p)
                eng.transform_many(self.inputs[s][0][:1])
                self.engines[(p, s)] = eng

    def run(self, seconds, tally, recorder, min_requests=MIN_REQUESTS):
        busy = {p: [] for p in PRECISIONS}

        def call(index):
            results = {}
            for s in SHAPES:
                blocks = self.inputs[s][index % POOL]
                for p in PRECISIONS:
                    with recorder.span(f"engines.transform_many.{p}."
                                       f"{_label(s)}"):
                        began = time.perf_counter()
                        results[(p, s)] = self.engines[(p, s)].transform_many(
                            blocks)
                        busy[p].append(time.perf_counter() - began)
            return results

        def check(index, results):
            for s in SHAPES:
                rows = self.float_rows[s]
                got = results[("float", s)].spectrum[rows]
                want = self.expected_float[s][index % POOL][rows]
                tally.record(np.allclose(got, want, rtol=1e-9, atol=1e-8),
                             f"round {index}: float {_label(s)} differs "
                             f"from np.fft")
                got = results[("q15", s)].spectrum[self.q15_row[s]]
                want = self.expected_q15[s][index % POOL]
                tally.record(np.array_equal(got, want),
                             f"round {index}: q15 {_label(s)} differs from "
                             f"the reference datapath")
            self.last = (index, results)

        sample = Sample(*closed_loop(call, check, seconds, recorder,
                                     self.REQUEST_SPAN, min_requests))
        samples = sample.requests * sum(m * n for m, n in SHAPES)
        for p in PRECISIONS:
            sample.detail[f"fft.{p}_msamples_per_s"] = (
                samples / sum(busy[p]) / 1e6, "Msample/s")
        overflow = sum(r.overflow_count for r in self.last[1].values())
        sample.detail["fft.q15_overflow_last_round"] = (overflow, "count")
        return sample

    def check_once(self, tally) -> None:
        """The whole float output of the last round matches ``np.fft``."""
        index, results = self.last
        for s in SHAPES:
            got = results[("float", s)].spectrum
            want = self.expected_float[s][index % POOL]
            tally.record(np.allclose(got, want, rtol=1e-9, atol=1e-8),
                         f"float {_label(s)}: full batch differs from np.fft")

    def layer_metrics(self, recorder, attribution) -> dict:
        out = {}
        for s in SHAPES:
            label = _label(s)
            blocks = self.inputs[s][0]
            out[f"fft.numpy_ms.{label}"] = (
                timed_median(lambda: np.fft.fft(blocks, axis=1), 5) * 1e3,
                "ms")
            for p in PRECISIONS:
                eng = self.engines[(p, s)]
                core = ArrayFFT(s[1], fixed_point=(p == "q15"))
                core.transform_many(blocks[:1])
                facade, kernel = [], []
                for _ in range(PAIRS):
                    facade.append(_elapsed(lambda: eng.transform_many(blocks)))
                    kernel.append(_elapsed(lambda: core.transform_many(blocks)))
                out[f"engines.transform_ms.{p}.{label}"] = (
                    attribution["layers"][f"engines.{p}.{label}"], "ms")
                out[f"core.compiled_{p}_ms.{label}"] = (
                    median(kernel) * 1e3, "ms")
                out[f"engines.facade_overhead_ms.{p}.{label}"] = (
                    median(f - k for f, k in zip(facade, kernel)) * 1e3,
                    "ms")
        if "sharded" in repro.backend_names():
            out["engines.sharded_over_compiled"] = (
                self._sharded_ratio(), "ratio")
        return out

    def _sharded_ratio(self) -> float:
        """Sharded over serial compiled time, 512x1024 float."""
        shape = SHAPES[0]
        blocks = self.inputs[shape][0]
        serial = self.engines[("float", shape)]
        sharded = repro.engine(shape[1], backend="sharded",
                               workers=SHARDED_WORKERS)
        try:
            ratio = (timed_median(lambda: sharded.transform_many(blocks))
                     / timed_median(lambda: serial.transform_many(blocks)))
        finally:
            sharded.close()
            for child in multiprocessing.active_children():
                child.join(timeout=30)
        return ratio

    def close(self) -> None:
        for eng in self.engines.values():
            eng.close()
        self.engines = {}
