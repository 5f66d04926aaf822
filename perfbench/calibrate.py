"""Host-speed calibration: a fixed reference loop timed beside the program.

On a shared host the speed of a core can move by up to 2x over tens of
seconds (seen on a 2-vCPU Xeon VM: zipf-hot served 14.8k to 25.5k
requests per host second across five runs of 20 s).  The program's
host time moves with it, CPU time included (the slowdown is contention
for the core, not time taken away from the process), so neither the
choice of clock nor the length of a run removes it.  What does: time a
fixed pure-Python reference loop every ``REF_EVERY`` seconds while the
program runs, and scale each host time of the timed phase (throughput,
latency) by how fast the reference ran beside it::

    scaled seconds = host seconds * REF_NOMINAL_S / reference seconds

A figure then reads what it would on a host where the reference loop
takes ``REF_NOMINAL_S``.  The reference is the benchmark's own code, so
a change to the program moves a scaled figure by the same ratio as the
host one, while a change of host speed moves the program and the
reference alike and largely cancels (on that VM, over ten seeds of 24 s
per workload, the IQR over median of throughput fell from 9.5-18% to
1.9-6% and that of median latency from 9.6-26% to 2.3-6.6%).

The measurement clock stops while the reference runs: every timestamp
the loop takes comes from :meth:`Calibration.now`, which leaves out the
time spent in the reference, so no request's latency and no window of
throughput includes it.
"""

from __future__ import annotations

import bisect
import statistics
from array import array
from typing import Callable

#: The reference loop's length, and the seconds it takes on the nominal
#: host that scaled figures are expressed on.
REF_ITERATIONS = 30000
REF_NOMINAL_S = 0.005
#: Seconds of the timed phase between two reference samples.
REF_EVERY = 0.25


def reference() -> int:
    """Fixed interpreter work: integer arithmetic and dict traffic, like
    the host side of serving a request."""
    table = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFF
        table[acc & 1023] = i
    return acc + len(table)


class Calibration:
    """A measurement clock that stops while the reference runs, and the
    reference samples taken on it."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.paused = 0.0
        #: Measurement-clock time and duration of every sample.
        self.at = array("d")
        self.seconds = array("d")
        self._due = None

    def now(self) -> float:
        return self._clock() - self.paused

    def sample(self) -> float:
        """Run the reference once, off the measurement clock; returns
        its host seconds."""
        t0 = self._clock()
        reference()
        spent = self._clock() - t0
        self.paused += spent
        self.at.append(self.now())
        self.seconds.append(spent)
        return spent

    def poll(self, t: float) -> None:
        """Take a sample on the first call and then whenever
        ``REF_EVERY`` has passed since the last."""
        if self._due is None or t >= self._due:
            self.sample()
            self._due = self.now() + REF_EVERY

    def scale(self, start: float, stop: float) -> float:
        """``REF_NOMINAL_S`` over the median reference time sampled in
        ``[start, stop)``, or over all samples when none lies there.
        Multiply host seconds by it to get scaled seconds."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, stop)
        samples = self.seconds[lo:hi] or self.seconds
        return REF_NOMINAL_S / statistics.median(samples)
