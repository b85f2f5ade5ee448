"""Host speed, sampled while the jobs run, and job times scaled by it.

On a shared host the speed of one vCPU drifts with its neighbours' load: on
a 2-vCPU Xeon VM a fixed pure-Python loop took from 13 to 21 ms from one
second to the next, with CPU time tracking wall time, and identical
``normalize`` passes in one process took from 3.3 to 5.1 s for the same
number of ``CRat`` multiplications.  Medians over a run do not smooth
that out, because the slow and fast periods last seconds to minutes.

So the timed passes also time a fixed reference chunk: complex rational
products accumulated in a dict, the operations catlin's exact polynomials
are made of, written with the standard library only, so that no change to
catlin moves it.  A chunk runs just before every job, after the last job of
a pass, and every ``INTERVAL_S`` while a job runs (from a SIGALRM handler,
in the main thread: no thread or process is added).  The time a job spends
in those samples is taken off its wall time, and what remains is scaled by
``REF_NOMINAL_S`` over the mean chunk time around and during the job:

    adjusted = (wall - samples inside) * REF_NOMINAL_S / mean chunk time

which is the job's time on a host where a chunk takes ``REF_NOMINAL_S``.
Raw wall times are printed beside the adjusted ones.
"""

from __future__ import annotations

import bisect
import random
import signal
import time
from fractions import Fraction as F
from typing import List, Tuple

# Median time of one reference chunk on a quiet 2-vCPU Intel Xeon VM,
# Python 3.11.  Only the scale of the adjusted times depends on it.
REF_NOMINAL_S = 0.0040
INTERVAL_S = 0.1
REF_SEED = 1806
REF_TERMS = 16


def _operands() -> List[Tuple[Tuple[int, ...], F, F]]:
    rng = random.Random(REF_SEED)
    return [(tuple(rng.randrange(4) for _ in range(4)),
             F(rng.randrange(1, 9), rng.randrange(1, 9)),
             F(rng.randrange(-4, 5), rng.randrange(1, 9)))
            for _ in range(REF_TERMS)]


_A, _B = _operands(), _operands()[::-1]


def reference_chunk() -> dict:
    """The product of two fixed 16-term complex rational polynomials."""
    out = {}
    for ka, ar, ai in _A:
        for kb, br, bi in _B:
            key = tuple(x + y for x, y in zip(ka, kb))
            re, im = out.get(key, (0, 0))
            out[key] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
    return out


class HostClock:
    """Reference chunk timings taken during a run, in time order.

    Use as a context manager around the timed passes; ``sample()`` takes one
    chunk by hand, the timer takes one every ``INTERVAL_S``."""

    def __init__(self):
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._busy = False
        self._old = None

    def sample(self) -> None:
        if self._busy:          # a tick during a sample: skip it
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference_chunk()
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.ends.append(t1)
        finally:
            self._busy = False

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "HostClock":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def adjust(self, a: float, b: float) -> float:
        """Seconds at nominal host speed for the interval [a, b]."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        inside = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        around = inside[:]
        if lo > 0:
            around.append(self.ends[lo - 1] - self.starts[lo - 1])
        if hi < len(self.starts):
            around.append(self.ends[hi] - self.starts[hi])
        chunk = sum(around) / len(around)
        return (b - a - sum(inside)) * REF_NOMINAL_S / chunk

    def median_chunk(self) -> float:
        xs = sorted(e - s for s, e in zip(self.starts, self.ends))
        return xs[len(xs) // 2]
