"""Host-speed scaling: a fixed reference kernel timed next to every op.

On a shared two-core VM the same single-threaded op runs 10-35 % slower --
at times 2x -- for seconds to minutes on end, in bursts a few hundred
milliseconds long.  A minimum over four passes does not remove a slowdown
that outlasts the run, and two sets of runs of identical code then disagree
by more than any honest regression bound.

So the harness runs a small fixed kernel -- one HiGHS LP through scipy and
a pure-Python loop, the two things the program's time is made of, ~3 ms --
twice after every op (outside every clock).  An op's *pace* is the median
of the four kernel timings around it, and every latency is reported as

    measured seconds x NOMINAL_S / pace around the op,

the time the op takes on a host where the kernel takes ``NOMINAL_S``.  The
kernel is part of the benchmark, not of the program, so parent and change
are scaled by the same yardstick; span durations are scaled the same way.

Measured on the reference host, identical code, groups of four passes of
``online_week``: per-pass kernel mean and pass time correlate at 0.99;
quartile spread of op_p50_ms between groups 6-9 % (largest deviation 11 %)
as measured, 2-3 % (largest 3-4 %) scaled.  Neither a wider window, nor a
mean instead of the median, nor a heavier kernel did better.  The numbers as
measured are printed beside the scaled ones in every run's REPORT line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog


class Pace:
    """One run's kernel timings; ``tick`` appends, the rest reads."""

    #: Seconds the kernel takes on the reference host when nothing disturbs it.
    NOMINAL_S = 0.0023
    #: Kernel executions per tick.
    BURST = 2
    #: Timings on either side of an op that make up its pace.
    WINDOW = BURST

    def __init__(self) -> None:
        rng = np.random.default_rng(1)
        self._a = rng.random((25, 30))
        self._b = self._a.sum(axis=1) * 0.5
        self._c = -rng.random(30)
        self.samples: list[float] = []
        #: Seconds spent inside ticks so far (for clocks that span ticks).
        self.spent_s = 0.0

    def _kernel(self) -> None:
        linprog(self._c, A_ub=self._a, b_ub=self._b, bounds=(0, 1), method="highs")
        total = 0
        for i in range(6000):
            total += i * i
        table = {}
        for i in range(300):
            table[i] = str(i)

    def tick(self) -> int:
        """Time the kernel ``BURST`` times; return the index of the first timing."""
        first = len(self.samples)
        for _ in range(self.BURST):
            started = time.perf_counter()
            self._kernel()
            elapsed = time.perf_counter() - started
            self.samples.append(elapsed)
            self.spent_s += elapsed
        return first

    def scale_around(self, mark: int) -> float:
        """Factor that scales an op to nominal speed; ``mark`` is the tick after it."""
        low = max(0, mark - self.WINDOW)
        return self.NOMINAL_S / statistics.median(self.samples[low : mark + self.WINDOW])

    def scale_between(self, low: int, high: int) -> float:
        """The same for a stretch that contained timings ``low`` .. ``high - 1``."""
        return self.NOMINAL_S / statistics.median(self.samples[low:high])

    def summary(self) -> dict[str, float]:
        """How fast the host was during this run, in kernel milliseconds."""
        ordered = sorted(self.samples)
        return {
            "nominal_ms": 1e3 * self.NOMINAL_S,
            "undisturbed_ms": 1e3 * float(np.percentile(ordered, 1)),
            "median_ms": 1e3 * statistics.median(ordered),
            "p90_ms": 1e3 * float(np.percentile(ordered, 90)),
            "ticks": len(ordered),
        }
