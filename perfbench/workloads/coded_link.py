"""``coded-link``: repeated 4-symbol DVB-T 2k bursts through one pipeline.

Why: Viterbi decode is about nine tenths of each burst and the FFT about
one fiftieth, so this is where decode work shows; it bypasses the ASIP
simulator and the serving tier.  One caller, closed loop, on the preset's
default ``compiled`` float backend.  Each burst gets its own seed (drawn
from ``--seed``), from which the pipeline draws payload bits and noise.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.coding import resolve_code
from repro.scenarios import get_scenario

from ..spans import attribute
from . import MIN_REQUESTS, Sample, closed_loop, timed_median

SCENARIO = "dvbt-2k"
SYMBOLS = 4
# Stage spans of the coded chain charged to a layer other than the
# pipeline's own stages (source, modulate, channel, equalize, metrics).
STAGE_LAYERS = {
    "decode": "coding.decode",
    "soft-demodulate": "coding.demap",
    "encode": "coding.encode",
    "interleave": "coding.interleave",
    "deinterleave": "coding.interleave",
    "ifft": "engines.transform",
    "transform": "engines.transform",
}
VITERBI_PHASES = {
    "viterbi.branch-metrics": "coding.viterbi.branch_metrics_ms",
    "viterbi.acs": "coding.viterbi.acs_ms",
    "viterbi.traceback": "coding.viterbi.traceback_ms",
}
DECODE_SWEEP = (1, 4, 64)


class CodedLink:
    NAME = "coded-link"
    REQUEST_SPAN = "coded-link.burst"
    LAYER_SPANS = {
        f"stage.{name}": STAGE_LAYERS.get(name, "pipelines.stages")
        for name in get_scenario(SCENARIO).stages
    }

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.burst_seeds = [int(s) for s in rng.integers(0, 2**31, 4096)]
        self.warm_seed = int(rng.integers(0, 2**31))
        self.check_block = int(rng.integers(0, SYMBOLS))
        self.pipe = None
        self.last = None

    def setup(self) -> None:
        self.close()
        self.pipe = repro.build_scenario(SCENARIO)
        self.pipe.run(symbols=SYMBOLS, seed=self.warm_seed)

    def _burst(self, index: int):
        seed = self.burst_seeds[index % len(self.burst_seeds)]
        return self.pipe.run(symbols=SYMBOLS, seed=seed)

    def run(self, seconds, tally, recorder, min_requests=MIN_REQUESTS):
        errors = {"coded": 0, "uncoded": 0, "bits": 0, "coded_bits": 0}

        def check(index, result):
            metrics = result.metrics
            decoded = result.stage_outputs["decode"]
            shape = (SYMBOLS, metrics["info_bits_per_symbol"])
            ok = (decoded.shape == shape
                  and metrics["bit_errors"] <= metrics["uncoded_bit_errors"])
            tally.record(ok, f"burst {index}: decoded shape {decoded.shape}, "
                             f"{metrics['bit_errors']} coded bit errors > "
                             f"{metrics['uncoded_bit_errors']} uncoded")
            errors["coded"] += metrics["bit_errors"]
            errors["bits"] += metrics["total_bits"]
            errors["uncoded"] += metrics["uncoded_bit_errors"]
            errors["coded_bits"] += SYMBOLS * metrics["coded_bits_per_symbol"]
            self.last = result

        sample = Sample(*closed_loop(self._burst, check, seconds, recorder,
                                     self.REQUEST_SPAN, min_requests))
        info_bits = SYMBOLS * self.last.metrics["info_bits_per_symbol"]
        sample.detail = {
            "coded.info_bits_per_s": (sample.requests * info_bits
                                      / sample.wall_s, "bit/s"),
            "coded.ber": (errors["coded"] / errors["bits"], "ratio"),
            "coded.uncoded_ber": (errors["uncoded"] / errors["coded_bits"],
                                  "ratio"),
        }
        return sample

    def _code(self):
        spec = get_scenario(SCENARIO)
        return resolve_code(spec.code, spec.code_rate)

    def _llrs(self):
        """The last burst's per-block LLRs, trimmed to the coded bits."""
        coded = self.last.metrics["coded_bits_per_symbol"]
        return self.last.stage_outputs["deinterleave"][:, :coded]

    def check_once(self, tally) -> None:
        """One block of the last burst: fast decode == the per-step oracle."""
        block = self.check_block
        oracle = self._code().decode(self._llrs()[block], reference=True)
        fast = self.last.stage_outputs["decode"][block]
        tally.record(np.array_equal(np.asarray(oracle, dtype=np.uint8), fast),
                     f"block {block}: vectorised decode differs from the "
                     f"reference decoder")

    def layer_metrics(self, recorder, attribution) -> dict:
        layers = attribution["layers"]
        wall = attribution["wall_ms"]
        out = {
            "coding.decode_ms": (layers["coding.decode"], "ms"),
            "coding.decode_share": (layers["coding.decode"] / wall, "ratio"),
            "coding.demap_ms": (layers["coding.demap"], "ms"),
            "coding.encode_ms": (layers["coding.encode"], "ms"),
            "engines.transform_ms.coded-link": (layers["engines.transform"],
                                                "ms"),
        }
        phases = attribute(recorder, self.REQUEST_SPAN, VITERBI_PHASES)
        for metric in VITERBI_PHASES.values():
            out[metric] = (phases["layers"][metric], "ms")

        # Speed of light for decode: throughput at growing batch sizes,
        # on real LLR blocks from the last burst.
        code = self._code()
        llrs = self._llrs()
        info = self.last.metrics["info_bits_per_symbol"]
        for blocks in DECODE_SWEEP:
            batch = np.resize(llrs, (blocks, llrs.shape[1]))
            seconds = timed_median(lambda: code.decode(batch))
            out[f"coding.decode_kbit_per_s.{blocks}blk"] = (
                blocks * info / seconds / 1e3, "kbit/s")

        spectra = self.last.stage_outputs["ifft"]
        numpy_s = timed_median(lambda: np.fft.fft(spectra, axis=1), 101)
        out["fft.numpy_ms.coded-link"] = (2 * numpy_s * 1e3, "ms")
        return out

    def close(self) -> None:
        if self.pipe is not None:
            self.pipe.close()
            self.pipe = None
