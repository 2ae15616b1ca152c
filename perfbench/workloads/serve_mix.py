"""``serve-mix``: two closed-loop clients of one ``SessionServer``.

Why: it exercises ``serve``/``sessions``/``pool``.  Each client opens a
session, submits 4-symbol chunks and drains each one before the next,
closes the session and then reads ``health()``, so health reads run beside
submit writes on the other client.  Sessions alternate N = 64, which is
overhead-bound, and N = 1024, which is FFT-bound.  An N = 64 session sends
8 chunks and an N = 1024 session 4, so two thirds of the chunks are small:
the median chunk latency then sits inside the small-chunk mode instead of
flipping between the two modes from run to run.

Each client keeps one tenant name per size and reuses it for every
session of that size.  Before timing, each tenant's rolling latency window
in the server's metrics is filled, so that ``health()``, which walks every
window, costs what it costs on a long-running server from the first
measured request on.
"""

from __future__ import annotations

import threading
import time

import numpy as np

import repro
from repro import SessionServer
from repro.serve.metrics import TenantMetrics

from ..stats import median, tail
from . import MIN_REQUESTS, Sample, timed_median

SIZES = (64, 1024)
CHUNK = 4                       # symbols per submit, and the session batch
CHUNKS = {64: 8, 1024: 4}       # chunks per session, by size
CLIENTS = 2
POOL = 16                       # distinct input chunks per size
DEADLINE = 5.0                  # per-submit deadline, seconds


class ServeMix:
    NAME = "serve-mix"
    REQUEST_SPAN = "serve-mix.chunk"
    LAYER_SPANS = {"serve.submit": "serve.submit", "serve.drain": "serve.drain"}

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = {
            n: [rng.standard_normal((CHUNK, n))
                + 1j * rng.standard_normal((CHUNK, n)) for _ in range(POOL)]
            for n in SIZES
        }
        self.expected = {n: [np.fft.fft(x, axis=1) for x in self.inputs[n]]
                         for n in SIZES}
        self.picks = [rng.integers(0, POOL, 8192) for _ in range(CLIENTS)]
        self.server = None
        self.chunks_by_size = dict.fromkeys(SIZES, 0)
        self.filled = False

    @staticmethod
    def _tenant(client: int, n: int) -> str:
        return f"client{client}-n{n}"

    def setup(self) -> None:
        self.close()
        self.server = SessionServer(batch=CHUNK)
        for n in SIZES:
            name = f"warm-{n}"
            self.server.open_session(name, n)
            self.server.submit(name, self.inputs[n][0], deadline=DEADLINE)
            self.server.drain(name)
            self.server.close_session(name)
        self.server.health()
        self.filled = False

    def _fill_windows(self) -> None:
        """One window's worth of chunks through every client tenant."""
        for client in range(CLIENTS):
            for n in SIZES:
                tenant = self._tenant(client, n)
                self.server.open_session(tenant, n)
                for k in range(TenantMetrics.LATENCY_WINDOW):
                    self.server.submit(tenant, self.inputs[n][k % POOL],
                                       deadline=DEADLINE)
                    self.server.drain(tenant)
                self.server.close_session(tenant)
        self.filled = True

    def _client(self, client, deadline, quota, tally, recorder, out):
        server = self.server
        picks = self.picks[client]
        latencies, ends, sessions, sent = [], [], 0, 0
        counts = dict.fromkeys(SIZES, 0)
        try:
            while True:
                n = SIZES[(client + sessions) % len(SIZES)]
                tenant = self._tenant(client, n)
                with recorder.span("serve.open_session"):
                    server.open_session(tenant, n)
                for _ in range(CHUNKS[n]):
                    pick = int(picks[sent % len(picks)])
                    sent += 1
                    with recorder.span(self.REQUEST_SPAN):
                        began = time.perf_counter()
                        with recorder.span("serve.submit"):
                            server.submit(tenant, self.inputs[n][pick],
                                          deadline=DEADLINE)
                        with recorder.span("serve.drain"):
                            got = server.drain(tenant)
                        ended = time.perf_counter()
                    latencies.append(ended - began)
                    ends.append(ended)
                    counts[n] += 1
                    tally.record(
                        len(got) == 1 and np.allclose(
                            got[0].spectrum, self.expected[n][pick],
                            rtol=1e-9, atol=1e-9),
                        f"{tenant}: drained {len(got)} results, or the "
                        f"spectrum differs from np.fft",
                    )
                with recorder.span("serve.close_session"):
                    leftover = server.close_session(tenant)
                tally.record(not leftover,
                             f"{tenant}: {len(leftover)} chunks left at close")
                with recorder.span("serve.health"):
                    server.health()
                sessions += 1
                if time.perf_counter() >= deadline and len(latencies) >= quota:
                    break
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            tally.fail(f"client {client}: {type(exc).__name__}: {exc}")
        out[client] = (latencies, ends, sessions, counts)

    def run(self, seconds, tally, recorder, min_requests=MIN_REQUESTS):
        if not self.filled:
            self._fill_windows()
        out = {}
        start = time.perf_counter()
        quota = -(-min_requests // CLIENTS)
        threads = [
            threading.Thread(
                target=self._client, name=f"perfbench-client-{c}",
                args=(c, start + seconds, quota, tally, recorder, out))
            for c in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
        sample = Sample([x for c in sorted(out) for x in out[c][0]],
                        [x for c in sorted(out) for x in out[c][1]], start)
        sessions = sum(out[c][2] for c in out)
        for c in out:
            for n, count in out[c][3].items():
                self.chunks_by_size[n] += count
        sample.detail = {
            "serve.sessions_per_s": (sessions / sample.wall_s, "1/s"),
        }
        return sample

    def check_once(self, tally) -> None:
        """Nothing was shed, pushed back or timed out."""
        totals = self.server.metrics.totals()
        for key in ("shed", "backpressure", "timeouts"):
            tally.record(totals[key] == 0, f"server counted {totals[key]} "
                                           f"{key} events")

    def layer_metrics(self, recorder, attribution) -> dict:
        def durations(name):
            return [s.duration for s in recorder.named(name)]

        out = {}
        for span in ("submit", "drain", "open_session", "close_session"):
            out[f"serve.{span}_ms"] = (
                median(durations(f"serve.{span}")) * 1e3, "ms")
        health = durations("serve.health")
        out["serve.health_p50_ms"] = (median(health) * 1e3, "ms")
        out["serve.health_tail_ms"] = (tail(health)[0] * 1e3, "ms")

        # Serving overhead: mean chunk wall minus a standalone engine call
        # on the same chunk, weighted by how many chunks each size sent.
        standalone = 0.0
        total = sum(self.chunks_by_size.values())
        for n in SIZES:
            with repro.engine(n) as eng:
                chunk = self.inputs[n][0]
                seconds = timed_median(lambda: eng.transform_many(chunk), 51)
            standalone += seconds * self.chunks_by_size[n] / total
        out["serve.overhead_ms"] = (
            attribution["wall_ms"] - standalone * 1e3, "ms")

        pool = self.server.pool.stats()
        leases = pool["built"] + pool["reused"]
        out["pool.reuse_ratio"] = (pool["reused"] / leases, "ratio")
        totals = self.server.metrics.totals()
        for key in ("shed", "backpressure", "timeouts"):
            out[f"serve.{key}"] = (totals[key], "count")
        return out

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
