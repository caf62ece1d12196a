"""How fast the host runs right now, from a fixed reference computation.

The host this benchmark was built on slows down by up to 2x for minutes
at a time; every operation of a run slows with it. A run therefore
times, every second or so between its operations, a reference made of
four fixed kernels of the kinds the program spends its time in (a NumPy
sort, a pure-Python loop, ``np.unique`` over strings and a small
one-thread matrix product). Each sample's *slowness* is the geometric
mean of the kernels' times over their nominal times below; the run's
factor is the median over its samples. Dividing a run's timings by it
(:meth:`HostSpeed.factor`) reports them at nominal host speed: on the
build host this cut the run-to-run spread of a recommend's median from
about 0.22 to about 0.08 of its median (15- to 45-second windows).

The reference is the benchmark's own code, so no change to the program
can move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

clock = time.perf_counter

#: Nominal seconds of each kernel: its median on the build host.
NOMINAL = {"sort": 0.0102, "python": 0.0140, "unique": 0.0175,
           "matmul": 0.0057}
#: Seconds of operations between two reference samples.
INTERVAL = 1.0


class HostSpeed:
    """Reference samples taken between a run's operations."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._floats = rng.random(1_000_000)
        self._strings = np.array([f"v{i:06d}" for i in
                                  rng.integers(0, 40_000, 50_000)])
        self._matrix = rng.random((300, 300))
        self.samples: list[float] = []
        self._last = -math.inf
        self._kernels()  # first calls pay one-time costs; not sampled

    def _kernels(self) -> dict[str, float]:
        times = {}
        t0 = clock()
        np.sort(self._floats)
        times["sort"] = clock() - t0
        t0 = clock()
        x = 0
        for i in range(200_000):
            x += i * i
        times["python"] = clock() - t0
        t0 = clock()
        np.unique(self._strings)
        times["unique"] = clock() - t0
        t0 = clock()
        for _ in range(5):
            self._matrix @ self._matrix
        times["matmul"] = clock() - t0
        return times

    def sample(self) -> None:
        times = self._kernels()
        self.samples.append(math.exp(statistics.fmean(
            math.log(times[k] / NOMINAL[k]) for k in NOMINAL)))
        self._last = clock()

    def due(self) -> bool:
        return clock() - self._last >= INTERVAL

    def factor(self) -> float:
        """Median slowness over the run's samples (1.0 = nominal)."""
        return statistics.median(self.samples)
