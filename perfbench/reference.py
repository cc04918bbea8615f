"""A fixed piece of work that measures how fast the shared host runs right now.

On a shared host the speed of plain CPU work changes from one spell to the
next: on the 2-core x86 VM this benchmark was tuned on, the valuations
workload ran at 175 requests/s for one minute and at 260 requests/s for the
next, and spells of a few seconds alternate within a run as well. A
wall-clock figure cannot tell that from a change in the program, so the
benchmark reports times in reference seconds: a time measured in the
worker is multiplied by ``NOMINAL_S`` over the time ``reference()`` took
around it. The work has the package's ingredients (interpreter loops, small
numpy arrays, big integers) in about equal parts, and is timed between
requests, never inside one. ``run.py`` prints the raw figures beside the
scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# reference() as timed on the 2-core x86 VM the benchmark was tuned on; a
# reference second is a second at that speed
NOMINAL_S = 0.0015
# a worker times reference() at the first request boundary after this gap
EVERY_S = 0.1
# a request is scaled by the reference times within this margin of it
MARGIN_S = 0.5

_ARRAY = np.arange(512, dtype=np.int64)
_MODULUS = 10**1200 + 7


def reference() -> float:
    """Seconds a fixed mix of interpreter, numpy and big-integer work takes."""
    start = perf_counter()
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    a = _ARRAY
    for _ in range(100):
        a = (a * 3 + 1) % 1009
    x = 3**3000
    for _ in range(10):
        x = x * x % _MODULUS
    return perf_counter() - start


def scale(samples: list[list[float]], t0: float, t1: float) -> float:
    """NOMINAL_S over the mean reference time within MARGIN_S of [t0, t1].

    ``samples`` is a list of [start time, duration] in start order, with one
    sample before the first request and one after the last.
    """
    times = [t for t, _ in samples]
    lo = bisect.bisect_left(times, t0 - MARGIN_S)
    hi = bisect.bisect_right(times, t1 + MARGIN_S)
    # the sample just before t0 and the one just after t1 always count
    lo = min(lo, max(0, bisect.bisect_right(times, t0) - 1))
    hi = max(hi, min(len(times), bisect.bisect_left(times, t1) + 1))
    return NOMINAL_S / statistics.fmean(d for _, d in samples[lo:hi])
