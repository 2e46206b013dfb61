"""Host-speed probe: corrects measured times for the speed of the core.

The small shared machines the benchmark runs on switch between a fast
and a slow state, about 1.7x apart, every few hundred milliseconds to
seconds, as other tenants of the host come and go.  The probe's work
below takes about 0.18 ms in a tight loop in the fast state and about
0.32 ms in the slow one, and a raw time depends on how much of its run
fell in the slow state.

The probe measures that state alongside the work.  While it is active,
a SIGALRM interval timer interrupts the run every `PERIOD_S` seconds,
and the handler times a fixed exact elimination over `Fraction` (the
kind of arithmetic the program itself does) on the same thread.  A
measured interval [t0, t1] is converted to reference seconds as

    (t1 - t0 - probe time inside it) * REF_PROBE_S / mean probe time near it

where "near" is the interval widened by `WINDOW_S` on each side.  The
probe's work never calls `liepairs`, so a change of the program moves
the corrected time and leaves the probe alone.
"""

from __future__ import annotations

import random
import signal
import time
from array import array
from bisect import bisect_left
from fractions import Fraction

PERIOD_S = 0.02     # one probe per 20 ms of work, under 2% of the run
WINDOW_S = 0.1      # probes this far either side of an interval count
MIN_NEAR = 5        # at least this many probes set an interval's speed
# about the probe's median time (inside the handler, caches cold) on the
# 2-vCPU Xeon machine the benchmark was built on; corrected times read
# as seconds at that speed
REF_PROBE_S = 3.5e-4

_rng = random.Random(7)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9))
            for _ in range(4)] for _ in range(4)]


def probe_work():
    """Gauss-Jordan elimination of a fixed 4 x 4 matrix over Fraction."""
    m = [row[:] for row in _MATRIX]
    n = len(m)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


class Probe:
    """Samples the core's speed while active (`with Probe() as p:`)."""

    def __init__(self):
        self.starts = array("d")    # perf_counter at each probe's start
        self.durs = array("d")      # each probe's duration, s
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe_work()
        self.durs.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def net(self, t0, t1):
        """Time of [t0, t1] minus the probes that ran inside it."""
        lo, hi = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        return t1 - t0 - sum(self.durs[lo:hi])

    def speed(self, t0, t1):
        """Mean probe time near [t0, t1], s."""
        n = len(self.durs)
        if not n:
            raise RuntimeError("the speed probe never ran")
        lo = bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect_left(self.starts, t1 + WINDOW_S)
        while hi - lo < min(MIN_NEAR, n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        return sum(self.durs[lo:hi]) / (hi - lo)

    def scaled(self, t0, t1):
        """Time of [t0, t1] in reference seconds (see the module doc)."""
        return self.net(t0, t1) * REF_PROBE_S / self.speed(t0, t1)
