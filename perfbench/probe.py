"""Host-speed probe: a fixed CPU task timed between ops.

On a shared host the speed of this process changes by up to 1.5x over
seconds to minutes, as other tenants come and go, and CPU time changes with
it.  Whole runs can fall in a fast or a slow period, so no statistic taken
within a run repeats from run to run.  The probe is a fixed mix of interpreter
work and a small matrix product that does not touch shapgraph.  It is timed
between ops, at most ``EVERY_S`` apart.  An op's latency times ``REF_S``
divided by the mean probe time just before and just after the op is its
latency in reference seconds: seconds on a host as fast as one where the
probe takes ``REF_S``.  A change to shapgraph moves reference seconds exactly
as it moves wall seconds, because the probe does not run its code.
"""

from __future__ import annotations

import bisect
import gc
import time

import numpy as np

# the probe's typical time on the 2-vCPU x86_64 machine where the benchmark
# was defined; it only sets the scale of reference seconds
REF_S = 2.5e-3
EVERY_S = 0.2

# The task allocates no new tables or arrays.  The probe runs when it is due,
# at times that differ from run to run, and blocks it allocated there shifted
# where later ops' memory landed: peak RSS on ``dense`` read 83.3 or 86.5 MB
# in runs of the same code and seed.
_MATRIX = np.random.default_rng(0).random((64, 64))
_PRODUCT = np.empty_like(_MATRIX)
_TABLE = dict.fromkeys(range(2000), 0)


def _task() -> int:
    total = 0
    for i in range(20000):
        total += i * i % 7
    for i in range(2000):
        _TABLE[i] = i
    for _ in range(20):
        np.matmul(_MATRIX, _MATRIX, out=_PRODUCT)
    return total


class Probe:
    """Probe times in time order, and the scale they give each op."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        _task()  # warm-up, not recorded

    def run(self) -> None:
        # no collection inside the probe: its cost grows with the heap that
        # shapgraph leaves, and the probe must measure the host alone
        gc.disable()
        try:
            start = time.perf_counter()
            _task()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)

    def due(self) -> None:
        """Run the probe unless one ended less than EVERY_S ago."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= EVERY_S:
            self.run()

    def seconds(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean time of the last probe that ended by ``start``
        and the first that started at or after ``end``."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        picks = [self.ends[i] - self.starts[i] for i in (before, after) if 0 <= i < len(self.starts)]
        return REF_S * len(picks) / sum(picks)
