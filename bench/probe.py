"""Speed probe: how much other tenants slow this process down while it runs.

On a shared host the same pure-Python work takes up to about twice as long
while another tenant shares the core.  The slow spells come and go within a
second and their share drifts from minute to minute, and CPU time grows with
wall time through them, so neither clock can tell them apart from a slower
program.  The probe times a fixed piece of work every ``INTERVAL_S`` of CPU
time from a SIGPROF handler, so it samples the slow-down while a task runs.

``run.py`` reports a time at reference speed, the speed at which the probe
takes ``NOMINAL_S``: the measured time minus the probe's own, times
``NOMINAL_S * mean(1 / probe)`` over the probes taken meanwhile, or by the
latest probe before it for a task shorter than ``INTERVAL_S``.  The
reference is a constant, not the fastest probe of a run, because a run spent
all in slow spells has no clean probe.  The probe work is small
list-of-lists and tuple-set code like a matrix mutation.  On a 2-vCPU Xeon
VM it slowed down by 1.64x in slow spells while clusterfold calls (a
commutation word, a class BFS, a seed enumeration) slowed by 1.58-1.69x;
Fraction arithmetic (1.75x) and plain int loops (1.40x) matched less well.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
NOMINAL_S = 0.30e-3  # about the probe's fastest time on an unloaded core of that VM


def work() -> int:
    """A fixed piece of work of a third to half a millisecond."""
    rows = [[(i * j) % 5 - 2 for j in range(6)] for i in range(6)]
    seen = set()
    for k in range(30):
        p = k % 6
        rows = [[-x if p in (r, c) else x + (rows[r][p] * rows[p][c] > 0) for c, x in enumerate(row)]
                for r, row in enumerate(rows)]
        seen.add(tuple(map(tuple, rows)))
    return len(seen)


class Probe:
    """Times ``work()`` every INTERVAL_S of this process's CPU time."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        work()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        for _ in range(3):  # warm up, so the first sample is not a cold start
            work()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int) -> tuple[float, float | None]:
        """Probe time spent since ``mark``, and the mean of 1 / probe time over those probes.

        Where none ran since ``mark`` (a task shorter than INTERVAL_S), the
        latest probe stands in for them; None if there was no probe yet.
        """
        inside = self.samples[mark:]
        if not inside:
            return 0.0, 1 / self.samples[-1] if self.samples else None
        return sum(inside), sum(1 / d for d in inside) / len(inside)
