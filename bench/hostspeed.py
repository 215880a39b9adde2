"""Host-speed probe: times on a shared host in reference-host seconds.

On a shared 2-core host the same single-threaded op runs up to 1.9x slower,
and the slowdown changes within a second (CPU time rises with wall time, so
it is not descheduling). A fixed piece of pure-Python float work slows by
about the same factor. ``HostClock.call`` times the probe right before and
after an op and, for an op that runs in this process, every ``SAMPLE_S``
seconds while it runs (from a SIGALRM handler, whose own time is taken out
of the op's). The op's wall time divided by the mean probe time over
``REFERENCE_S`` is the time the op takes when the host runs at
``REFERENCE_S`` per probe, so runs made while the host is slow and while it
is fast compare. The raw wall-clock figures are reported next to them.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

#: probe time of the reference host (2-core x86 sandbox) when other
#: tenants do not slow it
REFERENCE_S = 1.5e-3
#: probe period while an in-process op runs (one kernel run per sample)
SAMPLE_S = 0.1


def _kernel() -> float:
    acc = 0.0
    for i in range(10_000):
        x = i * 1e-4
        acc += math.hypot(x, 1.0 + x) - math.sqrt(x + 1.0)
    return acc


def probe() -> float:
    """Seconds for the fixed work, median of three back-to-back runs."""
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


class HostClock:
    """Times calls one after another, with the host's slowdown around each.

    ``in_process=False`` is for ops that wait on a child process: a probe
    run beside the child would compete with it for the host's cores, so
    only the probes before and after count.
    """

    def __init__(self, in_process: bool = True):
        self._in_process = in_process
        self._last = probe()
        self._samples: list[float] = []
        self._probe_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        self._samples.append(time.perf_counter() - t0)
        self._probe_s += time.perf_counter() - t0

    def call(self, fn, *args):
        """Run ``fn(*args)``; return (result, wall seconds, slowdown)."""
        self._samples, self._probe_s = [self._last], 0.0
        previous = None
        if self._in_process:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            raw = time.perf_counter() - t0
            if self._in_process:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        self._last = probe()
        self._samples.append(self._last)
        factor = statistics.fmean(self._samples) / REFERENCE_S
        return result, raw - self._probe_s, factor
