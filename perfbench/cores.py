"""Keep a benchmark process on whichever usable CPU is fastest right now.

On a shared host each virtual CPU slows down by up to half for seconds to
minutes at a time, independently of the others (a neighbour's work on the
same physical core).  ``settle`` times a short fixed loop on each CPU the
process may use and pins the process to the fastest; processes it starts
afterwards inherit the pin.  Callers settle outside every timed region.
The loop touches no loopgrid code, so a change to the program cannot
change its time.
"""

from __future__ import annotations

import os
import time


class CorePicker:
    """Re-probes at most once per ``PROBE_EVERY_S`` unless forced.  The
    probe times double as a gauge of the host's speed (see ``run.py``)."""

    PROBE_EVERY_S = 1.0
    SPIN = 20_000  # iterations of the probe loop, about 1 ms

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.due = 0.0
        self.probes: list[float] = []  # the chosen CPU's probe time, per probe

    def settle(self, force: bool = False) -> float:
        """Probe and pin when due (or forced); returns the latest probe time
        of the chosen CPU in seconds."""
        if self.probes and time.monotonic() < self.due and not force:
            return self.probes[-1]
        times = {cpu: self._probe(cpu) for cpu in self.cpus}
        best = min(times, key=times.get)
        self.probes.append(times[best])
        os.sched_setaffinity(0, {best})
        self.due = time.monotonic() + self.PROBE_EVERY_S
        return times[best]

    def _probe(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            acc = 0
            for i in range(self.SPIN):
                acc += i * i % 7
            best = min(best, time.perf_counter() - t0)
        return best


CORES = CorePicker()
