"""How fast the host runs Python right now, from a fixed reference loop.

The benchmark shares a host whose speed changes by up to 2x, for seconds or
for minutes at a time, with no change to the program.  The probe is a few
milliseconds of the kind of work echkit does (small objects with integer
fields, Euclid's algorithm, `isqrt`, a heap ordered by cross-multiplied
comparisons), and it never changes.  Its time rises and falls with the host.

`to_reference(raw_s, probe_s)` rescales a measured time to a host on which
the probe takes `REFERENCE_S`, and `Rescaler` does the same for work in
this process, interval by interval, with a probe between intervals.
`REFERENCE_S` is the probe's time on a 2-CPU x86-64 VM running
Python 3.11.7 at that host's fastest.  On such a host the reported seconds
are wall seconds; elsewhere they are wall seconds times a constant.  A change
to echkit moves the measured time and leaves the probe alone, so a gain or
a loss shows in full.
"""

from __future__ import annotations

import heapq
import signal
import time
from math import isqrt

REFERENCE_S = 0.0024
PROBE_EVERY_S = 0.05  # a Rescaler's probe interval


class _Item:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        g, x = a, c
        while x:
            g, x = x, g % x
        self.a, self.b, self.c = a // g, b, c // g

    def __lt__(self, other) -> bool:
        return self.a * other.c < other.a * self.c


def probe() -> float:
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    heap: list[_Item] = []
    for i in range(1500):
        heapq.heappush(heap, _Item(i * 7919 % 1009 + 1, isqrt(i * i + 17), 1 + i % 13))
        if i % 3 == 0:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def probes(n: int) -> list[float]:
    return [probe() for _ in range(n)]


def to_reference(raw_s: float, probe_s: list[float]) -> float:
    """`raw_s` rescaled by the median probe time measured around it."""
    # no `statistics` here: a child imports this module before its timed work
    ordered = sorted(probe_s)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return raw_s * REFERENCE_S / median


class Rescaler:
    """Rescales a stretch of in-process work while it runs.

        with Rescaler() as r:
            work()

    A SIGALRM handler runs the probe every `every` seconds (and it runs once
    at each end).  Each interval of work between two probes is rescaled by
    the mean of those two probes.  Afterwards `r.wall` is the work's wall
    time without the probes and `r.scaled` the rescaled time.  `r.probe_s`
    is the time spent probing so far, to take out of a timing nested inside.
    With `every=None` the probe runs at the two ends only.
    """

    def __init__(self, every: float | None = PROBE_EVERY_S):
        self.every = every
        self.samples: list[float] = []
        self._spans: list[tuple[float, float]] = []
        self.probe_s = self.wall = self.scaled = 0.0

    def _probe(self, *_) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        end = time.perf_counter()
        self._spans.append((start, end))
        self.probe_s += end - start

    def __enter__(self) -> "Rescaler":
        if self.every:
            self._handler = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        if self.every:
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc) -> None:
        if self.every:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self._probe()
        for (_, done), (next_start, _), p0, p1 in zip(
                self._spans, self._spans[1:], self.samples, self.samples[1:]):
            self.wall += next_start - done
            self.scaled += (next_start - done) * 2 * REFERENCE_S / (p0 + p1)
