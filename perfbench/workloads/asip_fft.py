"""``asip-fft``: Q1.15 blocks through the instruction-level ASIP simulator.

Why: the simulator (``asip``/``sim``) does nearly all of the work; there is
no decode and no serving.  It is the only workload with simulated-time
figures.  One request is a round over the paper's scalable sizes
N = 256, 1024 and 2048, one 16-symbol ``transform_many`` call each on
``repro.engine(N, backend="asip-batch", precision="q15")``.  Inputs are
scaled into the Q1.15 range as the ``spectral`` preset does.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.asip.codegen import generate_fft_program

from ..stats import median
from . import MIN_REQUESTS, Sample, closed_loop, timed_median

SIZES = (256, 1024, 2048)
SYMBOLS = 16
POOL = 4                 # distinct input blocks per size, used in turn
SCALE = 0.25             # the spectral preset's source scale
SERIAL_SYMBOLS = 4
COUNT_SIZE = 1024        # the size whose simulated counts are reported


def q15_blocks(rng, rows: int, n: int) -> np.ndarray:
    """Complex Gaussian blocks scaled (and clipped) into the Q1.15 range."""
    blocks = SCALE * (rng.standard_normal((rows, n))
                      + 1j * rng.standard_normal((rows, n)))
    return (np.clip(blocks.real, -0.999, 0.999)
            + 1j * np.clip(blocks.imag, -0.999, 0.999))


class AsipFFT:
    NAME = "asip-fft"
    REQUEST_SPAN = "asip-fft.round"
    LAYER_SPANS = {f"asip.transform_many.{n}": f"asip.{n}" for n in SIZES}

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = {n: [q15_blocks(rng, SYMBOLS, n) for _ in range(POOL)]
                       for n in SIZES}
        self.engines = {}
        self.last = {}
        # The check oracle: the compiled Q1.15 engine, bit-exact by design.
        self.expected = {}
        for n in SIZES:
            with repro.engine(n, precision="q15") as oracle:
                self.expected[n] = [oracle.transform_many(x).spectrum
                                    for x in self.inputs[n]]

    def setup(self) -> None:
        self.close()
        for n in SIZES:
            self.engines[n] = repro.engine(n, backend="asip-batch",
                                           precision="q15")
            self.engines[n].transform_many(self.inputs[n][0])

    def run(self, seconds, tally, recorder, min_requests=MIN_REQUESTS):
        per_size = {n: [] for n in SIZES}
        counted = {"instructions": 0}
        cycles = {}

        def call(index):
            results = {}
            for n in SIZES:
                with recorder.span(f"asip.transform_many.{n}"):
                    began = time.perf_counter()
                    results[n] = self.engines[n].transform_many(
                        self.inputs[n][index % POOL])
                    per_size[n].append(time.perf_counter() - began)
            return results

        def check(index, results):
            for n, result in results.items():
                want = self.expected[n][index % POOL]
                cycles.setdefault(n, result.cycles)
                tally.record(
                    np.array_equal(result.spectrum, want)
                    and result.overflow_count == 0
                    and result.cycles == cycles[n],
                    f"round {index}, N={n}: spectrum, overflow count "
                    f"({result.overflow_count}) or cycles differ",
                )
                counted["instructions"] += result.stats.instructions
            self.last = results

        sample = Sample(*closed_loop(call, check, seconds, recorder,
                                     self.REQUEST_SPAN, min_requests))
        sample.detail = {
            "asip.sim_instr_per_s": (counted["instructions"] / sample.wall_s,
                                     "instr/s"),
            "asip.cycles_per_fft": (cycles[COUNT_SIZE][0], "cycles"),
        }
        for n in SIZES:
            sample.detail[f"asip.ms_per_fft.{n}"] = (
                median(per_size[n]) / SYMBOLS * 1e3, "ms")
        return sample

    def check_once(self, tally) -> None:
        """Every symbol of a round retires the same exact counts."""
        stats = self.last[COUNT_SIZE].stats
        tally.record(stats.instructions % SYMBOLS == 0
                     and stats.cycles % SYMBOLS == 0,
                     "simulated counts are not a whole multiple of the "
                     "symbols in the batch")

    def layer_metrics(self, recorder, attribution) -> dict:
        out = {}
        for n in SIZES:
            out[f"asip.run_batch_ms_per_fft.{n}"] = (
                attribution["layers"][f"asip.{n}"] / SYMBOLS, "ms")
        codegen = sum(
            timed_median(lambda n=n: generate_fft_program(
                n, self.engines[n].machine.plan))
            for n in SIZES
        )
        out["asip.codegen_ms"] = (codegen * 1e3, "ms")
        for n in SIZES:
            blocks = self.inputs[n][0][:SERIAL_SYMBOLS]
            with repro.engine(n, backend="asip", precision="q15") as serial:
                seconds = timed_median(lambda: serial.transform_many(blocks))
            out[f"engines.asip_serial_ms_per_fft.{n}"] = (
                seconds / SERIAL_SYMBOLS * 1e3, "ms")
        stats = self.last[COUNT_SIZE].stats
        counts = {
            "sim.instructions": stats.instructions,
            "sim.cycles": stats.cycles,
            "sim.stall_cycles": stats.stall_cycles,
            "sim.dcache_misses": stats.dcache_misses,
        }
        for op in ("ldin", "but4", "stout"):
            counts[f"sim.custom.{op}"] = stats.custom_ops.get(op, 0)
        for name, total in counts.items():
            out[name] = (total / SYMBOLS, "count")
        return out

    def close(self) -> None:
        for eng in self.engines.values():
            eng.close()
        self.engines = {}
