"""Machine-speed reference: a fixed pure-Python kernel timed every
INTERVAL_S seconds of wall time while ops run, so that op times can be
rescaled to one reference speed.

The machine this benchmark was tuned on (a 2-core VM shared with other
tenants) switches between a fast and a slow state, about 1.45x apart,
that last from a few tens of milliseconds to over a minute.  Every op,
and this kernel, slows down together; a 36 s run therefore reads up to
a third slower or faster as a whole depending on when it ran, and no
length of run averages that away.  The kernel is the benchmark's own
code, never the program's, so a change to the program cannot move it:
dividing an op's time by the kernel's speed around the op removes the
machine's state and leaves the program's work.

    reference seconds = wall seconds * REF_S / (kernel seconds around the op)

The kernel samples run in a SIGALRM handler between bytecodes of the
program, and their time is taken out of the op time they fall in.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Wall seconds between kernel samples.
INTERVAL_S = 0.04
#: Samples whose start lies this close to an op, before or after it,
#: are used for the op as well as those inside it.  The machine's speed
#: moves within a tenth of a second, so a wider window tracks it worse.
MARGIN_S = 0.1
#: Median seconds of one kernel() call in the fast state of the machine
#: the benchmark was tuned on (2-core x86-64 VM, Python 3.11.7).  Only a
#: fixed unit: it scales every reference time by the same factor.
REF_S = 0.0018


class _Poly:
    """Sparse Laurent polynomial with method-call arithmetic."""

    __slots__ = ("c",)

    def __init__(self, c: dict[int, int]):
        self.c = c

    def __mul__(self, other: "_Poly") -> "_Poly":
        c: dict[int, int] = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return _Poly({e: v for e, v in c.items() if v})

    def __add__(self, other: "_Poly") -> "_Poly":
        c = dict(self.c)
        for e, v in other.c.items():
            c[e] = c.get(e, 0) + v
        return _Poly({e: v for e, v in c.items() if v})

    def mod(self, p: int) -> "_Poly":
        return _Poly({e: v % p for e, v in self.c.items() if v % p})


#: A table of about 9000 tuple keys, so that a sample also walks memory
#: beyond the first-level caches, as the program's skein cache does.
_TABLE = [{(i, j): i * 31 + j for j in range(30)} for i in range(300)]


def kernel() -> int:
    """Fixed work shaped like the program's, in three parts that respond
    differently to what slows the machine: dict products of Python ints,
    polynomial objects with method calls and a walk over a larger table,
    and a plain integer loop.  About 2 ms."""
    acc: dict[int, int] = {}
    for k in range(2):
        a = {i: (i * 7919 + k) % 1000003 for i in range(-20, 20)}
        for i, x in a.items():
            for j, y in a.items():
                e = i + j
                acc[e] = acc.get(e, 0) + x * y * (e + k)
    x = _Poly({i: i + 1 for i in range(-6, 7)})
    poly = _Poly({0: 1})
    for _ in range(8):
        poly = (poly * x + x).mod(1000003)
    walk = 0
    for table in _TABLE[::9]:
        for key in table:
            walk += table[key]
    loop = 0
    for i in range(6000):
        loop += i * i % 7
    return len(acc) + len(poly.c) + walk + loop


class Speedometer:
    """Times kernel() on a wall-clock timer while it is entered; records
    (start, seconds) of every sample."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._old = None

    def sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        self.seconds.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _between(self, t0: float, t1: float) -> range:
        return range(bisect.bisect_left(self.starts, t0),
                     bisect.bisect_left(self.starts, t1))

    def op_seconds(self, t0: float, t1: float) -> float:
        """Wall seconds of [t0, t1] without the samples taken inside it
        (a sample runs whole between two bytecodes, so it lies wholly in
        or out of the interval)."""
        return (t1 - t0) - sum(self.seconds[i] for i in self._between(t0, t1))

    def slowness(self, t0: float, t1: float) -> float:
        """Median of the kernel times around [t0, t1], divided by REF_S:
        1.0 at reference speed, about 1.45 in the slow state.  The median
        ignores a sample that was itself preempted."""
        idx = self._between(t0 - MARGIN_S, t1 + MARGIN_S)
        if not idx:     # the timer was held off: take the nearest samples
            idx = range(max(idx.start - 1, 0), min(idx.stop + 1, len(self.seconds)))
        return statistics.median(self.seconds[i] for i in idx) / REF_S
