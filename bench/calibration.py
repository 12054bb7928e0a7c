"""Machine-speed calibration for timings on a shared machine.

Other tenants of a shared host slow every process on it, in phases of a
fraction of a second to minutes, by up to 1.8x on the 2-vCPU machine the
benchmark was written on.  The same slowdown shows in a fixed pure-Python
kernel.  So the benchmark runs the kernel between operations and around each
set-up, and scales each measured time by NOMINAL_NS / kernel time: every
reported time is "as on a machine where the kernel takes NOMINAL_NS".

The kernel composes permutation tuples the way `Permutation.__mul__` does,
but uses none of the package's code, so a change to the package cannot move
it.  It walks a pool of a few MB, so that it feels contention for the caches
as the workloads do; with a pool that fits in the first-level caches, the
scaled throughput spread 2-3 times wider between 20 s windows.
"""

from __future__ import annotations

import random
import time

# The kernel's time on that machine when the host was quiet.
NOMINAL_NS = 700_000

POOL_SIZE = 4096
DEGREE = 64
STEPS = 240
STRIDE = 97


class Calibration:
    def __init__(self):
        rng = random.Random(0)
        self._pool = tuple(tuple(rng.sample(range(DEGREE), DEGREE)) for _ in range(POOL_SIZE))
        self._at = 0

    def _kernel(self) -> tuple:
        pool, at = self._pool, self._at
        acc = pool[at]
        for _ in range(STEPS):
            p = pool[at]
            acc = tuple(p[j] for j in acc)
            at = (at + STRIDE) % POOL_SIZE
        self._at = at
        return acc

    def speed(self) -> float:
        """NOMINAL_NS over the faster of two kernel runs: the factor that
        turns a time measured now into a time at nominal speed."""
        clock = time.perf_counter_ns
        best = None
        for _ in range(2):
            t0 = clock()
            self._kernel()
            d = clock() - t0
            best = d if best is None else min(best, d)
        return NOMINAL_NS / best
