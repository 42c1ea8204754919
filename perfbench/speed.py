"""Machine-speed sampling, so that run times can be given at a fixed speed.

Shared machines drift in speed by tens of percent within seconds, as other
tenants load the cores.  On a shared 2-core Xeon VM, repeating one session
gave wall times with a coefficient of variation of about 12%.  So a session samples the speed while it runs: every ``TICK_S`` seconds
a signal handler times ``kernel``, a fixed piece of Python and small-array
numpy work, like one step of the solvers' right-hand side.  A time is then
reported at the reference speed, at which ``kernel`` takes ``REF_S``::

    scaled = (wall time - time spent in the handler) * REF_S / mean kernel time

The kernel touches a few hundred bytes, so the program's own use of the
caches barely moves it.  Over the same repeated sessions the scaled times
varied about 3%.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

TICK_S = 0.05
# about the kernel's time on a 2-core Xeon VM with Python 3.11 and numpy 2.4
REF_S = 0.8e-3
NEIGHBOURS = 5  # samples used at least, for intervals shorter than a few ticks

_Y0 = np.array([1.0, 0.5, 0.25, 0.125], dtype=complex)
_M = np.ones((4, 4), dtype=complex)


def kernel() -> complex:
    y = _Y0
    for i in range(60):
        q = 2.0 / (1.0 + i * i) - 0.5j
        f = np.array([y[1], q * y[0], y[3], q * y[2]], dtype=complex)
        y = y + 1e-3 * (_M @ f)
        np.max(np.abs(f))
    return complex(y[0])


class SpeedSampler:
    """Times ``kernel`` on SIGALRM every ``TICK_S`` seconds while active."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._samples: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        # one append, so a tick that interrupts this one cannot split a pair
        self._samples.append((start, perf_counter() - start))

    def __enter__(self) -> "SpeedSampler":
        kernel()  # warm up, unrecorded
        self._tick(None, None)  # one sample at each end, so none is ever missing
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)
        self._samples.sort()
        self.starts = [start for start, _ in self._samples]
        self.durations = [duration for _, duration in self._samples]

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` without the handler's time, at the reference speed.

        The speed is the mean over the samples taken inside the interval, or
        over the ``NEIGHBOURS`` samples nearest to it when it holds fewer.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = sum(self.durations[lo:hi])
        while hi - lo < NEIGHBOURS and (lo > 0 or hi < len(self.starts)):
            before = start - self.starts[lo - 1] if lo > 0 else float("inf")
            after = self.starts[hi] - end if hi < len(self.starts) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        speed = sum(self.durations[lo:hi]) / (hi - lo)
        return (end - start - own) * REF_S / speed
