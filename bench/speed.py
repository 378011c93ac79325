"""Machine-speed sampling, to scale times measured on a shared host.

On a shared 2-core host, neighbours slowed stretches of a run by 20-50 %
at time scales from a fraction of a second to minutes, so raw times of the
same code moved by as much between runs.  While a SpeedSampler is active,
a SIGALRM handler times a tiny fixed kernel (interpreter and big-int work)
every PERIOD_S seconds, inside whatever operation is running.  An
operation's time is scaled by REF_S over the mean kernel time in and
around it: a reference second is a second on a machine where the sampled
kernel takes REF_S.  The set-up's import runs in a child process, so the
sampler pauses there and takes its speed from the samples on either side.
"""

from __future__ import annotations

import contextlib
import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.05
REF_S = 0.001
MIN_SAMPLES = 6


_BIG = 3**20000


def _kernel() -> None:
    s = 0
    for i in range(1000):
        s += i * i % 7
    _BIG * _BIG
    _BIG * _BIG


class SpeedSampler:
    """Context manager that samples the kernel time from a timer signal."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        """No samples while another process does the timed work: its
        speed is taken from the samples on either side."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def scale(self, spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
        """For each (start, end): the kernel time spent inside it, and the
        reference seconds per second from the samples in and around it
        (widened to at least MIN_SAMPLES samples)."""
        at = np.array(self.at)
        took = np.array(self.took)
        if at.size == 0:
            raise RuntimeError("no speed samples were taken")
        out = []
        for start, end in spans:
            lo, hi = np.searchsorted(at, [start, end])
            inside = float(took[lo:hi].sum())
            while hi - lo < MIN_SAMPLES and (lo > 0 or hi < at.size):
                lo, hi = max(lo - 1, 0), min(hi + 1, at.size)
            out.append((inside, REF_S / float(took[lo:hi].mean())))
        return out
