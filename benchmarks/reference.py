"""A fixed reference kernel that measures the machine's speed at the moment.

On a shared machine the CPU time of the same call drifts by up to 2x between
minutes, as other tenants come and go, and one run of the benchmark lasts
well under a minute.  The benchmark therefore times this kernel between the
program's calls, in the same process, and scales the program's times by
``NOMINAL_S`` / the kernel's time.  The kernel is the benchmark's own code,
so no change to the program moves it.  Its four parts mirror the program's
mix of work: integer loops, tuples and dicts, ``Fraction`` arithmetic and
small int64 matrix products in numpy.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# CPU seconds of one ``kernel()`` at the reference speed: the median on the
# 2-vCPU x86-64 machine the benchmark was written on.
NOMINAL_S = 0.03
# Least wall-clock time between two samples taken during a pass, so that the
# kernel adds about 3 % to a pass.
EVERY_S = 1.0
# Samples taken right after set-up, in workers that make no calls.
SETUP_PROBES = 5

_MATRIX = np.arange(41 * 41, dtype=np.int64).reshape(41, 41) % 3


def kernel() -> int:
    total = 0
    for i in range(90000):
        total += (i * 7919) % 257
    rows = [tuple((i * j) % 97 for j in range(8)) for i in range(6000)]
    index = {row: i for i, row in enumerate(rows)}
    total += len(index) + len(sorted(rows[:2000]))
    acc = Fraction(0)
    for i in range(1, 1200):
        acc += Fraction(i % 13, i % 7 + 1)
    for _ in range(60):
        total += int((_MATRIX @ _MATRIX).sum() % 7)
    return total + acc.numerator


class Probe:
    """CPU times of ``kernel()``, sampled at most once per ``EVERY_S``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -EVERY_S

    def sample(self) -> None:
        start = time.process_time()
        kernel()
        self.samples.append(time.process_time() - start)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor that takes this process's times to the reference speed."""
        return NOMINAL_S / statistics.median(self.samples)
