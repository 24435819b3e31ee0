"""Machine-speed sampler for timing on a shared host.

On a host shared with other tenants the speed of a core swings by up to
half for tens of seconds at a time, which is longer than a benchmark run.
So every pass is timed twice: in seconds, and in reference units.  A
time divided by the mean duration of a fixed pure-Python loop (Fraction
and int arithmetic, the kind of work ucv does) timed alongside it is the
time in reference units: a slow phase stretches both, so the ratio holds
still.

The loop is timed BRACKET times just before and BRACKET times just after
every pass, whatever the program does, and in between by a SIGALRM
handler every PERIOD_S seconds while this process has no children.  With
children (the sweep's pool workers) the loop would time contention with
our own work, so those ticks are skipped; where the kernel does not list
a process's children, no in-pass samples are taken at all.  The bracket
samples alone still define the divisor, so it never depends on whether
the program forks; the in-pass samples follow speed changes during a
long pass.  The loop does not call ucv and runs with the garbage
collector paused, so the program's heap does not enter it; the CPU caches
it runs in are still shared with the program.  The handler costs about 4%
of a pass; it is part of what is measured, the same on every commit.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.025
BRACKET = 10


def reference_loop() -> int:
    x = Fraction(1, 3)
    acc = 0
    for i in range(120):
        x = x * Fraction(7, 5) - Fraction(i, 11)
        acc += i * i
    return acc + x.denominator % 7


def time_reference(count: int) -> list[float]:
    """Durations of `count` reference loops, garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = []
        for _ in range(count):
            t0 = time.perf_counter()
            reference_loop()
            out.append(time.perf_counter() - t0)
        return out
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Context manager that samples the reference loop around and during
    a pass."""

    def __init__(self):
        self.bracket: list[float] = []
        self.samples: list[float] = []
        children = f"/proc/self/task/{os.getpid()}/children"
        self._children = children if os.path.exists(children) else None
        self._previous = None

    def _tick(self, signum, frame) -> None:
        with open(self._children) as fh:
            if fh.read().strip():
                return
        self.samples += time_reference(1)

    def __enter__(self) -> "SpeedSampler":
        self.bracket += time_reference(BRACKET)
        if self._children:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self._children:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.bracket += time_reference(BRACKET)

    def reference_s(self) -> float:
        """Mean duration of the reference loop around and during the pass."""
        return statistics.fmean(self.bracket + self.samples)
