"""The machine's speed, sampled between ops, and timings scaled by it.

A virtual machine that shares its host can drift in speed: on the
reference machine (README.md) a fixed loop of exact arithmetic runs about
1.6 times slower in episodes that last from seconds to minutes, so the
wall time of one run says as much about the episode it fell in as about
the program.  A *probe* — a fixed, short loop of `Fraction` additions,
the kind of work the program does — is timed between ops.  Each op's wall
time is then scaled by `REFERENCE_PROBE_S / local probe time`, where the
local probe time is the median of the probes taken nearest to the op.
The result reads as the op's time on the reference machine in its faster
state; the raw wall times are reported next to it.

A probe runs with the garbage collector off, so that objects the program
leaves behind cannot slow the probe and hide their own cost.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# The probe's median time on the reference machine (README.md) in its
# faster state.  A constant, never re-measured: it only fixes the
# unit in which scaled times are given.
REFERENCE_PROBE_S = 0.0016
PROBE_TERMS = 600
# Before an op, once this long has passed since the last probe, one probe
# is taken per interval passed, up to BURST, so that a long op has several
# probes on either side.
INTERVAL_S = 0.05
BURST = 4
# An op's local probe time is the median of this many probes nearest to it.
NEAREST = 7


def probe_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, PROBE_TERMS + 1):
        total += Fraction(1, i)
    return total


class SpeedProbe:
    """Probe times along one run, and the scale factor at a given moment."""

    def __init__(self):
        self.at: list[float] = []         # probe start times, ascending
        self.seconds: list[float] = []    # probe durations
        probe_work()                      # untimed, so that no probe runs cold

    def sample(self, count: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                probe_work()
                self.at.append(start)
                self.seconds.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def maybe_sample(self) -> None:
        if not self.at:
            self.sample()
            return
        intervals = int((time.perf_counter() - self.at[-1]) / INTERVAL_S)
        if intervals:
            self.sample(min(BURST, intervals))

    def local(self, moment: float) -> float:
        """Median duration of the NEAREST probes around moment."""
        i = bisect.bisect_left(self.at, moment)
        lo, hi = i, i
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.at)):
            if lo > 0 and (hi == len(self.at) or moment - self.at[lo - 1] <= self.at[hi] - moment):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.seconds[lo:hi])

    def scale(self, moment: float) -> float:
        """Factor turning a wall time at moment into reference-machine time."""
        return REFERENCE_PROBE_S / self.local(moment)
