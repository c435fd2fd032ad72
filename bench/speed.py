"""Host-speed adjustment of every time the benchmark reports.

On a shared host the processor's speed swings: the same pure-Python loop
takes 1.5x longer in one few-second stretch than in the next, and raw
throughput and latencies of whole runs spread by 15-30% from run to run.
So the benchmark times a fixed pure-Python loop every 0.2 s between queries
and scales each query's time by ``REFERENCE_S / r``, where ``r`` is the loop's
median time over the five samples around that query.  A reported time reads
as the time the query would take on a host that runs the loop in
``REFERENCE_S``.  The factor depends only on the host, never on the program,
so a faster program still reads faster.  The raw times are printed beside the
adjusted ones.
"""

import gc
from fractions import Fraction
from statistics import median
from time import perf_counter

# About reference_seconds() on a 2-vCPU virtual machine under CPython 3.11.
REFERENCE_S = 0.006
EVERY_S = 0.2
_NEIGHBOURS = 2


def reference_seconds() -> float:
    """Duration of a fixed pure-Python mix of the program's kinds of work.

    Small-integer arithmetic, tuples, lists and a dict, big integers, and
    exact fractions: a loop of small integers alone followed the program's
    slow-downs less closely (spread over six seeds of 9-18% against 3-7%).
    The garbage collector is off while it runs, so the size of the program's
    heap does not change its time.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i
    table = {}
    for i in range(6000):
        key = i * 7919 % 1013
        table[key] = table.get(key, 0) + len([(i, key), key])
        acc += (i << 40) // (key + 1)
    x = Fraction(0)
    for i in range(1, 400):
        x += Fraction(i, i + 7)
    elapsed = perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


class SpeedTrack:
    """Reference-loop samples taken at most every EVERY_S between queries."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> int:
        """Take a sample if one is due; return the index of the latest sample."""
        if perf_counter() - self._last >= EVERY_S:
            self.samples.append(reference_seconds())
            self._last = perf_counter()
        return len(self.samples) - 1

    def factors(self) -> list[float]:
        """Per sample, REFERENCE_S over the median of it and its neighbours."""
        s = self.samples
        return [REFERENCE_S / median(s[max(0, j - _NEIGHBOURS):j + _NEIGHBOURS + 1])
                for j in range(len(s))]
