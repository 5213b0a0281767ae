"""The machine's speed, sampled during a run, to report times at a fixed speed.

The benchmark's host is shared: the same op, repeated in one process, runs
at two speeds about 1.8x apart, in phases of a few seconds to a minute.  A
run of half a minute can fall wholly in either, so raw times of one op set
moved by +-30% from run to run.  A fixed kernel, timed between ops every
``EVERY_S`` seconds of op time, slows in step with the ops.  Times are
reported at the reference speed: multiplied by ``REFERENCE_S`` over the
mean time of the kernel in the same run.  Means, not medians, on both
sides: the median of a two-speed mix jumps from one speed to the other as
the mix shifts, the mean follows it smoothly, and op time and kernel time
follow it alike.

The kernel is exact Gaussian elimination over ``Fraction`` on a fixed
integer matrix: the same kind of work as the library's exact simplex, but
code of the benchmark's own, so no change to the library moves it.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

# op time between two samples; each sample costs about 0.03 s
EVERY_S = 0.25
# mean kernel time on the machine the benchmark was written on
REFERENCE_S = 0.0370

ROWS, COLS = 14, 40
_rng = random.Random(1)
MATRIX = [[_rng.randint(-9, 9) for _ in range(COLS)] for _ in range(ROWS)]


def kernel() -> None:
    """Reduce ``MATRIX`` to reduced row echelon form over the rationals."""
    m = [[Fraction(x) for x in row] for row in MATRIX]
    for c in range(ROWS):
        p = next(r for r in range(c, ROWS) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        row = [x / m[c][c] for x in m[c]]
        m[c] = row
        for r in range(ROWS):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], row)]


class Speed:
    """Kernel timings taken through one run."""

    def __init__(self):
        self.samples: list[float] = []
        self._pending = 0.0

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        self.samples.append(perf_counter() - start)

    def after_op(self, seconds: float) -> None:
        """Count an op's time; sample once ``EVERY_S`` seconds have gathered."""
        self._pending += seconds
        if self._pending >= EVERY_S:
            self._pending = 0.0
            self.sample()

    def factor(self) -> float:
        """Multiplier from this run's times to times at the reference speed."""
        return REFERENCE_S / statistics.fmean(self.samples)
