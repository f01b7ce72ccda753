"""Host speed, read from a fixed reference loop, to scale gated timings.

On a shared host the same computation runs up to 1.6x slower for a minute or
more: across two ten-seed sets of runs, sweep throughput read anywhere from
263 to 468 documents per second, and the spread of every raw timing across
seeds (20-44%) exceeded any usable regression bound.  A pure-Python loop
timed between the calls tracks those swings: over 20-second windows it cut
the variation of the Gray scan from 14% to 3% and of the CLI sweep from 9%
to 7%.  So every timing the benchmark gates is scaled to a host on which
the loop takes REFERENCE_S:

    gated = measured * REFERENCE_S / (median loop time over the run)

The loop is benchmark code that calls neither metricgap nor numpy, so no
change to the package can move it.  The run prints the raw figures and the
loop's median next to the gated ones.
"""

from __future__ import annotations

import statistics
import time

# Nominal loop time; on the 2-vCPU host where the baseline was recorded the
# loop took 1.6-2.4 ms.
REFERENCE_S = 0.002
# Samples are taken between calls, one per this much time since the last
# sample, so that the median weighs every stretch of the run alike.
INTERVAL_S = 0.5


def reference_loop() -> float:
    acc = 0.0
    xs = [float(i) for i in range(64)]
    for t in range(20000):
        j = t & 63
        acc += xs[j] * 0.5 - acc * 1e-3
        xs[j] = acc
    return acc


class SpeedProbe:
    def __init__(self):
        self.seconds: list[float] = []
        self._last = time.perf_counter()

    def sample(self) -> None:
        """Best of three loops: single timings jump by several times now
        and then."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - t0)
        self.seconds.append(best)
        self._last = time.perf_counter()

    def sample_if_stale(self) -> None:
        due = int(min(time.perf_counter() - self._last, 60.0) / INTERVAL_S)
        for _ in range(due):
            self.sample()

    def scale(self) -> float:
        """Factor from this run's seconds to seconds at the reference speed."""
        return REFERENCE_S / statistics.median(self.seconds)
