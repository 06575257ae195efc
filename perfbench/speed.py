"""This CPU's current speed, sampled while timed sections run.

On a shared host a vCPU's speed changes by up to about 1.8x in phases of
a second or two (another tenant on the same core), far more than the
changes the benchmark must resolve. While a ``Sampler`` is active, a timer
signal every ``PERIOD`` seconds runs a fixed reference loop in the measured
process and times it. A timed section's wall time, less the probes that ran
inside it, is scaled by the mean speed those probes saw (a section too short
to hold a probe takes the nearest probe's speed), so it reads about the same
in a fast and in a slow phase:

    scaled = (wall - probe time) * mean(NOMINAL_PROBE_S / probe duration)
"""
from __future__ import annotations

import signal
import time

import numpy as np

PERIOD = 0.05
# The probe's duration in this host's fast phase (2.1 GHz Xeon vCPU): scaled
# seconds are about the wall seconds such a phase gives.
NOMINAL_PROBE_S = 0.0006
_ARANGE = np.arange(32.0)


def probe() -> float:
    """A fixed mix of interpreter and small numpy work, like the program's
    inner loops."""
    s = 0.0
    for i in range(250):
        s += float((_ARANGE * i).sum()) % 7.0 + (i * i) % 13
    return s


class Sampler:
    """Context manager that probes every ``PERIOD`` s of wall time while
    active, keeping each probe's start and duration."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        self.probes.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Scaled seconds of the section from ``start`` to ``end``, by the
        probes inside it or, if none fell inside, by the nearest probe."""
        inside = [d for t, d in self.probes if start <= t < end]
        if inside:
            wall = end - start - sum(inside)
        elif self.probes:
            wall = end - start
            inside = [min(self.probes, key=lambda p: min(abs(p[0] - start), abs(p[0] - end)))[1]]
        else:
            raise RuntimeError("no speed probe was taken")
        return wall * sum(NOMINAL_PROBE_S / d for d in inside) / len(inside)
