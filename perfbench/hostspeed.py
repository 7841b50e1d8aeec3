"""Host-speed probe: a fixed piece of pure-Python work, timed between items.

The benchmark runs on a few cores of a shared host whose speed shifts by up
to 1.5x for seconds to minutes at a time, and CPU time shifts with wall
time.  The probe -- exact elimination in Fraction arithmetic, small-object
allocation and an interpreter loop, the kinds of work friendlab's layers do
-- is timed after every item.  Each item's latency is scaled by NOMINAL_S
over the mean of the probes taken just before and just after it, which
reads it at one nominal host speed.  The probe is the benchmark's own code,
so no change to friendlab moves it; a change that makes friendlab slower or
faster still shows in full.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# Probe time taken as the nominal host speed: the probe's median between
# items on a 2-vCPU Xeon (Python 3.11.7).  A constant of the benchmark.
NOMINAL_S = 3.5e-3

_HILBERT = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _work() -> None:
    a = [row[:] for row in _HILBERT]
    for k in range(len(a)):
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            for j in range(k, len(a)):
                a[i][j] -= f * a[k][j]
    cells = [_Cell(i, i + 1) for i in range(2000)]
    names = {i: str(i) for i in range(1000)}
    total = 0
    for i in range(20000):
        total += i * i % 7
    del cells, names


def probe_seconds() -> float:
    """One timed probe, with the collector held off so that friendlab's
    garbage does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probes taken between measured spans of work."""

    def __init__(self, warmup: int = 3):
        for _ in range(warmup):
            probe_seconds()
        self.samples: list[float] = []
        self.mark()

    def mark(self) -> None:
        """Probe now, as the 'before' of the next span."""
        self.last = probe_seconds()
        self.samples.append(self.last)

    def scale(self) -> float:
        """Probe now; the factor that turns the seconds spent since the
        previous probe into nominal seconds."""
        before = self.last
        self.mark()
        return NOMINAL_S / ((before + self.last) / 2)
