"""Machine-speed probe, so that timings survive a noisy shared host.

On a small shared machine, other tenants slow this process by up to
about 2x, in phases that last from milliseconds to minutes.  That moves
every raw wall time by more than the bounds in BENCHMARK.json.  The
probe runs a fixed pure-Python kernel (tuple building, byte-string
comparison, dict updates and table lookups, the operations the package
spends its time on) from a SIGALRM handler every INTERVAL_S while a
workload runs, and records how long each kernel took.

A timing is reported as the time the same work would take at the
reference speed: its raw duration, less the time spent inside the probe,
times the mean of ``REFERENCE_S / kernel duration`` over the samples in
its window.  The mean of speeds integrates the speed over the window.
A window with fewer than MIN_SAMPLES samples (a single short item)
borrows the nearest ones.
"""

from __future__ import annotations

import bisect
import itertools
import signal
from time import perf_counter

# Typical kernel duration, in seconds, when it interrupts a workload on
# the 2-vCPU Xeon host the bounds were set on.  Any constant would do;
# this one keeps corrected times close to raw ones there.
REFERENCE_S = 0.00038
INTERVAL_S = 0.01
MIN_SAMPLES = 3

_PERMS = list(itertools.permutations(range(1, 6)))[:40]


def kernel() -> int:
    """Fixed work resembling canonical_form and the axiom scans."""
    n = 7
    mul = tuple(tuple((i * j) % n for j in range(n)) for i in range(n))
    best = None
    for p in _PERMS:
        q = (0,) + p + (6,)
        cand = bytes(q[mul[i][j]] for i in range(n) for j in range(n))
        if best is None or cand < best:
            best = cand
    counts: dict[tuple[int, int], int] = {}
    for i in range(400):
        k = (i % 13, i % 7)
        counts[k] = counts.get(k, 0) + 1
    acc = 0
    for x in range(n):
        row = mul[x]
        for y in range(n):
            for z in range(n):
                acc += mul[row[y]][z] == row[mul[y][z]]
    return acc + len(counts) + best[3]


class SpeedProbe:
    """Samples the kernel's duration in the background of the main thread.

    Use as a context manager; ``mark()`` readings taken inside it are
    turned into corrected durations by ``seconds()``.
    """

    def __init__(self) -> None:
        self.at: list[float] = []  # start of each sample
        self.speed: list[float] = []  # REFERENCE_S / its duration
        self.spent = 0.0  # total time inside the probe
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.at.append(t0)
        self.speed.append(REFERENCE_S / (t1 - t0))
        self.spent += perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """Wall seconds that stand still while the probe runs."""
        return perf_counter() - self.spent

    def mark(self) -> tuple[float, float]:
        return perf_counter(), self.spent

    def factor(self, start: float, end: float) -> float:
        """Mean speed over the samples in [start, end], or the nearest ones."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        mid = (start + end) / 2
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            if lo > 0 and (hi == len(self.at) or mid - self.at[lo - 1] <= self.at[hi] - mid):
                lo -= 1
            else:
                hi += 1
        window = self.speed[lo:hi]
        return sum(window) / len(window)

    def raw(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Wall seconds between two marks, less the time spent in the probe."""
        return end[0] - start[0] - (end[1] - start[1])

    def seconds(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Seconds between two marks at the reference speed."""
        return self.raw(start, end) * self.factor(start[0], end[0])
