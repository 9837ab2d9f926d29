"""Fixed reference computations that measure how fast the machine runs right now.

On a shared host the same operation takes up to a third more or less time
from one minute to the next, and a run's pass times move with it.  So after
every operation (outside the timed region) the benchmark times its
workload's reference kernel once, and scales each pass's timings by the
kernel's reference time over its median time in that pass: the timing
metrics read as seconds on the machine running at its reference speed.

The kernels never touch the program under test, so no change to the program
changes them.  Each does the kind of work its workloads are made of:

- `COMPUTE`, for the in-process workloads: numpy reductions over strided
  slices of a 300 000-element array (as `rank_fast` does) and a plain-Python
  next-term loop over a Farey sequence with an exact `Fraction` sum (as the
  deviation scans do);
- `PROCESS_START`, for `cli_sessions`: a fresh Python process that imports
  numpy and exits, the start-up every `farey` process pays.

These kernels tracked the workloads best among the candidates tried.  With
them, ten runs per workload on the 2-core Xeon gave pass-time spreads
(interquartile range over median) of 0.02 to 0.05, where unscaled runs of
rank_queries had given 0.28.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

import numpy as np

_ORDER = 300_000
_SQUAREFREE = np.ones(_ORDER + 1, dtype=bool)
_SQUAREFREE[0] = False
for _p in range(2, math.isqrt(_ORDER) + 1):
    _SQUAREFREE[_p * _p :: _p * _p] = False
# every 20th squarefree e <= _ORDER: the slices rank_fast takes, spread over the whole table
_STRIDES = [int(e) for e in np.nonzero(_SQUAREFREE)[0][::20]]
_FAREY_ORDER = 600
_FAREY_TERMS = 800


def _compute() -> int:
    quotients = np.arange(1, _ORDER + 1, dtype=np.int64) * 7 // 19
    total = 0
    for e in _STRIDES:
        total += int((quotients[e - 1 :: e] // e).sum())
    a, b, c, d = 0, 1, 1, _FAREY_ORDER
    exact, approx = Fraction(0), 0.0
    for _ in range(_FAREY_TERMS):
        k = (_FAREY_ORDER + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        exact += Fraction(a, b)
        approx += a / b
    return total + exact.numerator + int(approx)


def _start_process() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], object]
    reference_s: float  # median time on the 2-core Xeon the benchmark was defined on

    def time(self) -> float:
        t0 = perf_counter()
        self.run()
        return perf_counter() - t0

    def scale(self, times: list[float]) -> float:
        """Factor that turns times measured alongside `times` into reference-speed times."""
        return self.reference_s / statistics.median(times)


COMPUTE = Kernel(_compute, 0.034)
PROCESS_START = Kernel(_start_process, 0.19)
