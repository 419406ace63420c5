"""Machine speed, sampled while the benchmark runs.

On a shared host the same code runs up to 40% slower for stretches of
seconds to minutes, depending on what other tenants do.  A run that falls
into a slow stretch reads slow on every command, and no statistic over one
run's samples can remove that.  So a timer interrupts the program every
INTERVAL seconds and times a fixed reference loop.  The loop touches no
array: a numpy reference would time the program's cache footprint along
with the machine, since the program's arrays evict the reference's.  A command's time is
scaled by NOMINAL over the median reference time seen during the command
(and just before it, for commands shorter than the interval), after taking
out the time the reference loops themselves took.  The result reads in
seconds at the nominal speed, where the reference loop takes NOMINAL s.

The scaling cancels slowdowns that hit the reference loop and the program
alike.  A slowdown of the program's own making does not touch the loop and
shows in full.  It rests on the program running in one thread: work moved
to other threads would slow the loop while it speeds the program up, and
the scaled time would understate the wall time.  So `scaled` takes the
process CPU time of the interval too, and when that is more than one
thread can spend in it, it gives the raw wall time instead.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL = 0.02        # seconds between reference samples
NOMINAL = 1.6e-4       # seconds one reference loop takes at nominal speed
LOOKBACK = 0.2         # seconds of samples before a command that also count
CPU_SLACK = (1.05, 5e-4)  # CPU s per wall s, and CPU s, that still count as one thread


def one_thread(wall: float, cpu: float) -> bool:
    """Whether `cpu` seconds of process CPU time fit in one thread over
    `wall` seconds."""
    share, extra = CPU_SLACK
    return cpu <= wall * share + extra


def reference_loop() -> float:
    """Seconds taken by a fixed piece of interpreter work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc ^= i * 7
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the reference loop from a SIGALRM timer while active."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        d = reference_loop()
        self.starts.append(t)
        self.durations.append(d)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(5):      # the first loops run cold; medians absorb them
            self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float, cpu: float) -> float:
        """The interval [t0, t1] in seconds at nominal speed, or its raw
        length when the process spent `cpu` CPU seconds in it on more than
        one thread."""
        if not one_thread(t1 - t0, cpu):
            return t1 - t0
        lo = bisect.bisect_left(self.starts, t0 - LOOKBACK)
        hi = bisect.bisect_left(self.starts, t1)
        inside = bisect.bisect_left(self.starts, t0)
        if hi == lo:            # no sample yet: take the latest before t1
            lo = max(0, hi - 1)
        factor = statistics.median(self.durations[lo:hi] or self.durations[-1:])
        own = sum(self.durations[inside:hi])
        return (t1 - t0 - own) * NOMINAL / factor
