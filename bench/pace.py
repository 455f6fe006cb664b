"""The machine's speed, sampled while the jobs run.

The benchmark runs on a few cores of a shared host whose speed changes
under it: a small fixed elimination takes 0.29 ms in one tenth of a
second and 0.50 ms in the next, and the share of slow spells drifts
over minutes, so raw job times of identical code differ by 20 % between
runs minutes apart.  `Pace` measures that speed with the same clock as the jobs: a
timer signal interrupts the running job every `INTERVAL` seconds and
times one `probe`, a fixed piece of the kind of work the program does
(a small elimination mod 3 with numpy row operations, and tuples in a
set).  The probe never calls the program, so a change to the program
cannot move it.

`Pace.scale(start, end)` is how much slower than `REFERENCE` the probe
ran while a job ran; a job's time divided by it is the time the job
would have taken at the reference speed.  The probes' own time is
counted apart (`Pace.spent`) and taken out of the job's time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.005
# Seconds one probe takes on the development machine at its usual speed
# (see README.md), so that scaled times read close to its wall times.
REFERENCE = 0.00026

_MATRIX = np.random.default_rng(20230624).integers(0, 3, size=(6, 10))


def probe() -> int:
    """A fixed slice of program-like work; returns the rank, 6."""
    a = _MATRIX.copy()
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        pivot = next((rr for rr in range(r, nrows) if a[rr, c]), None)
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        a[r] = (a[r] * int(a[r, c])) % 3  # x * x = 1 for x in F_3^*
        for rr in range(nrows):
            if rr != r and a[rr, c]:
                a[rr] = (a[rr] - a[rr, c] * a[r]) % 3
        r += 1
        if r == nrows:
            break
    seen = set()
    for i in range(120):
        seen.add(tuple(sorted((i % 5, i % 7, i % 11))))
    return r


class Pace:
    """Probe timings taken every INTERVAL seconds while the context is open."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        taken = time.perf_counter() - start
        self.starts.append(start)
        self.seconds.append(taken)
        self.spent += taken

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """`scale_of` the probes in [start, end] and the one either side."""
        lo = max(bisect.bisect_left(self.starts, start) - 1, 0)
        hi = bisect.bisect_right(self.starts, end) + 1
        picked = self.seconds[lo:hi]
        if not picked:
            raise RuntimeError("no probe was taken; is SIGALRM blocked?")
        return scale_of(picked)


def scale_of(seconds: list[float]) -> float:
    """How many times slower than REFERENCE these probes ran.

    Work per second is what adds up over a job, so the speeds are
    averaged, not the probe times.
    """
    return 1 / (REFERENCE * statistics.fmean(1 / s for s in seconds))


def burst(count: int = 40) -> list[float]:
    """Times of `count` probes run back to back, for spans that no Pace covers."""
    out = []
    for _ in range(count):
        start = time.perf_counter()
        probe()
        out.append(time.perf_counter() - start)
    return out
