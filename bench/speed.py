"""How fast this process's core runs, sampled while a session runs.

The benchmark shares its host, whose cores slow down by up to about 2x for
stretches of a tenth of a second to minutes, whatever the program does; a
session's wall time follows that, not the program.  So while a session
runs, a SIGALRM interval timer interrupts it every `PERIOD_S` seconds and
times a fixed kernel in the main thread: the probe runs on the session's
core, in the session's moment.  The kernel is small-vector numpy arithmetic
in a Python loop, the kind of work a step does, written here and
independent of the program's code, so a change to the program moves the
session's time but never the probes.

A session's full-speed time is its wall time less the probes' own time,
scaled by the session's mean of REF_PROBE_S / probe time: the seconds the
session would take on a core that runs the probe kernel in REF_PROBE_S,
which is the fastest it ran on the host the benchmark was tuned on.  The
reference is a fixed constant and not the fastest probe of each run,
because many runs there never reach the host's fastest state and their
fastest probe reads up to 10% slow.  On another host the figures are
seconds at that reference speed, a constant factor from the host's own
fastest; the run's own fastest probe is reported beside them.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

__all__ = ["PERIOD_S", "REF_PROBE_S", "SpeedProbe", "kernel", "full_speed_seconds"]

PERIOD_S = 0.03
# the kernel's fastest time on an Intel Xeon (2 vCPUs of a shared host,
# Python 3.11.7, numpy 2.4.6)
REF_PROBE_S = 0.375e-3

_K = np.eye(8) + 0.1
_LO = -np.ones(8)
_HI = np.ones(8)
_X0 = np.linspace(-2.0, 2.0, 8)


def kernel(n: int = 60) -> float:
    """A clipped explicit step of an 8-dimensional linear field, n times."""
    x, acc = _X0, 0.0
    for _ in range(n):
        y = np.clip(x - 0.01 * (_K @ x) + 0.01 * np.sin(acc), _LO, _HI)
        acc += float(np.linalg.norm(y - x))
        x = y
    return acc


def full_speed_seconds(elapsed: float, probes: list) -> float:
    """Wall seconds of a probed stretch less its probes, at the speed the
    probe time REF_PROBE_S stands for."""
    if not probes:
        return elapsed
    return (elapsed - sum(probes)) * statistics.fmean(REF_PROBE_S / p for p in probes)


class SpeedProbe:
    """Times `kernel` every `period` seconds inside `window()` blocks."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.windows: list[list[float]] = []
        self._probes: list[float] | None = None

    def _sample(self, signum, frame) -> None:
        probes = self._probes
        if probes is None:  # the timer fired as the window closed
            return
        self._probes = None  # a signal during the kernel does not nest
        t0 = time.perf_counter()
        kernel()
        probes.append(time.perf_counter() - t0)
        self._probes = probes

    @contextlib.contextmanager
    def window(self):
        """Probe the enclosed code; yields the list its probe times go into."""
        probes: list[float] = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._probes = probes
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield probes
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._probes = None
            signal.signal(signal.SIGALRM, previous)
            self.windows.append(probes)

    def fastest(self) -> float:
        """The run's fastest probe time."""
        return min(p for w in self.windows for p in w)
