"""Prime generation and primality: the substrate for the other modules.

``sieve_primes`` returns an immutable ascending ``PrimeTable`` of every
prime up to a limit; ``is_prime``, the package's one primality check,
looks n below 2^16 up in a cached set of primes and tests larger n by
Miller-Rabin; ``_prime_list`` serves the primes up to a limit as a
read-only int64 array: below 2^24 a prefix of ``_cache``, the package's
one prime cache, and past it a sieve for the call; ``_prime_ints`` counts
and serves them as a list of Python ints.

There is one sieve, ``_segments``: the primes in ascending order from 0
or from a later even start, one segment at a time, marking odd integers
with the base primes each segment reads. Spans double from ``_FIRST_SPAN``
up to ``SEGMENT_SPAN``, so a reader that stops early sieves little at any
limit. ``sieve_primes`` joins the segments from 0, and the cache grows one
power of two at a time, joining its array with the segments from the
power of two it reached, so no cached prime is sieved again. ``_stream``
serves the primes one span at a time: below 2^24 as slices of the cache,
past it from the sieve, or sliced from a given table. Prime-string
searches and the averaging certificate read the stream, and neither holds
a table; ``_stream_bytes`` states what one span of it holds, its mask and
a reader's bytes per prime. No other module reads how the primes are cut
into spans and segments.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import _number, reserve

# Integers covered by one sieve segment (even+odd): 2**23 odds, 8 MiB of mask.
SEGMENT_SPAN = 1 << 24
# Integers covered by the first segment; each later span doubles, so a
# cluster rung that stops at p_m sieves 2^12 integers, not a whole span.
_FIRST_SPAN = 1 << 12

# The prime cache holds the primes below 2^bits for one bits <= _CACHE_BITS:
# below 2^24 that is 1,077,871 primes, 8.2 MiB of int64. A longer request
# is sieved per call.
_CACHE_BITS = 24
# (bits, the primes below 2^bits): ``_prime_list`` grows it and serves its prefixes.
_cache = (0, np.empty(0, dtype=np.int64))

# Peak bytes of ``sieve_primes`` per prime of ``_prime_count_bound``, beside
# one segment's mask and 1 KiB that does not grow. Each segment turns its
# indices into primes in place and drops its mask, so the peak is the join,
# which holds the chunks and their concatenation: 16.0 bytes per prime
# sieved from 1e6 on. tracemalloc, base primes cached, gives a whole peak of
# 18.0 per prime of the bound at 1e3, 14.6 at 1e4, 13.4 at 1e6, 13.2 at 1e7
# and 2^24 and 13.1 at 3e7, 5e7 and 1e8, 0.59-0.76 of the count from 1e6
# on. Below 1e3 array headers show; at limits 0 and 1 the whole peak is
# 465-481 bytes. A step of the cache is counted the same way: joining the
# cached primes below 2^(b-1) with the segments to 2^b peaks at 9.7-11.2
# bytes per prime of the bound beside the cached array from 2^12 to 2^24
# (0.43-0.54 of the count; 0.81 at 2^8). A cold cache grows one step at a
# time, each under its own count, and holds only the array it last built:
# the whole peak, that array included, is 0.59-0.73 of the last count from
# 2^12 to 2^24, and 0.97 at 2^8.
_SIEVE_BYTES = 16

# Peak bytes of ``_prime_ints`` per prime of ``_prime_count_bound``, beside
# 1 KiB that does not grow: a list pointer and an int object per prime, and
# past the cache the sieved int64 array held while the list is built.
# tracemalloc gives 32.9-33.9 per prime of the bound from 2^12 to 2^24 - 1
# (cached), and 39.4-39.5 at 2^24 and 2^25 (sieved for the call).
_INT_BYTES = 48

# Miller-Rabin witnesses: the first 13 primes decide every n below
# 3.317e24 (psi_13, Sorenson & Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# n below this bound is looked up in the cached set of the 6,542 primes
# below it; n at or above it takes Miller-Rabin.
_SMALL_PRIME_BOUND = 1 << 16


def is_prime(n: int) -> bool:
    """Whether n is prime: a lookup in the cached set of the primes below
    ``_SMALL_PRIME_BOUND`` = 2^16 (negative n, 0 and 1 included), and at or
    above it Miller-Rabin with the fixed witnesses 2..41.

    Deterministic for n < 3317044064679887385961981 (about 3.317e24); above
    that bound a True result means a strong probable prime to those bases.
    The set's first use reads it through ``_prime_ints``, which counts it.
    """
    if n < _SMALL_PRIME_BOUND:
        return n in _small_primes()
    for p in _MR_BASES:
        if n % p == 0:
            return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def _small_primes() -> frozenset[int]:
    return frozenset(_prime_ints(_SMALL_PRIME_BOUND - 1))


def _spans(limit: int) -> Iterator[tuple[int, int]]:
    """The bounds [lo, hi) of the sieve's segments, from 0 to limit + 1:
    ``_FIRST_SPAN`` integers, each later span twice the last, up to ``SEGMENT_SPAN``."""
    lo, span = 0, min(_FIRST_SPAN, SEGMENT_SPAN)
    while lo <= limit:
        hi = min(lo + span, limit + 1)
        yield lo, hi
        lo, span = hi, min(2 * span, SEGMENT_SPAN)


def _segments(limit: int, start: int = 0) -> Iterator[np.ndarray]:
    """The primes in [start, limit] in ascending order, one int64 array per
    segment: the spans of ``_spans(limit)`` that end past start, the first
    cut to begin at it (start is 0, or even and past 2). A segment marks the
    odd integers of [lo, hi) with the base primes up to sqrt(hi - 1), read
    for it alone from ``_prime_list``; its unmarked indices become its
    primes in place, after its mask is dropped."""
    if limit < 2:
        return
    for lo, hi in _spans(limit):
        if hi <= start:
            continue
        lo = max(lo, start)
        base = _prime_list(math.isqrt(hi - 1))[1:]  # but 2: segments hold odd numbers only
        mask = np.ones((hi - lo) // 2, dtype=bool)  # lo + 1, lo + 3, ...
        # the mask index of each base prime's first odd multiple past lo, from p^2 on
        starts = (np.maximum(base * base, ((lo // base + 1) | 1) * base) - lo) // 2
        for p, first in zip(base.tolist(), starts.tolist()):
            mask[first::p] = False
        odd = np.flatnonzero(mask).astype(np.int64, copy=False)
        del mask
        odd *= 2
        odd += lo + 1
        if lo == 0:
            odd[0] = 2  # 1 is never marked; 2 takes its place, in order
        yield odd
        del odd  # before the next segment's mask is built


def _stream(limit: int, table: PrimeTable | None = None) -> Iterator[np.ndarray]:
    """The primes <= limit in ascending order, one int64 array per span
    [lo, hi) of ``_spans(limit)``: slices of ``table`` when one is given.
    Otherwise, while hi - 1 < 2^``_CACHE_BITS``, a span's array is a slice
    of ``_prime_list(hi - 1)``, the prime cache; from the span that crosses
    it on, the stream is ``_segments(limit, lo)``, which sieves nothing
    below lo."""
    for lo, hi in _spans(limit):
        if table is None and (hi - 1) >> _CACHE_BITS:
            yield from _segments(limit, lo)
            return
        source = _prime_list(hi - 1) if table is None else table.primes
        yield source[slice(*np.searchsorted(source, (lo, hi)))]


def _stream_bytes(per_prime: int, limit: int | None = None) -> int:
    """The bytes of one span of the stream of the primes to limit (a whole
    segment when no limit is given): the mask of the segment that sieves
    it, and ``per_prime`` bytes per prime of ``_prime_count_bound`` of its
    integers. The span is read from ``SEGMENT_SPAN`` at call time."""
    span = SEGMENT_SPAN if limit is None else min(limit, SEGMENT_SPAN)
    return span // 2 + per_prime * _prime_count_bound(span)


def _sieve_bytes(limit: int) -> int:
    """The count of a sieve to limit: one segment's mask, 1 KiB and
    ``_SIEVE_BYTES`` per prime of ``_prime_count_bound(limit)``."""
    return _stream_bytes(0, limit) + 1024 + _SIEVE_BYTES * _prime_count_bound(limit)


@dataclass(frozen=True)
class PrimeTable:
    """Immutable ascending table of every prime <= limit.

    The table is safe to share across threads; all methods are read-only.
    """

    limit: int
    primes: np.ndarray  # int64, strictly increasing

    def __len__(self) -> int:
        return int(self.primes.size)


def _prime_count_bound(x: int) -> int:
    """An upper bound on pi(x), the number of primes <= x: 1.3 x / ln x.

    pi(x) < 1.25506 x / ln x for every x > 1 (Rosser & Schoenfeld 1962,
    (3.6)); below e the divisor is taken as 1. From 2^1000 on, near float
    range, it is the trivial bound x. Every memory count that scales with a
    number of primes uses this bound.
    """
    if x >= 1 << 1000:
        return x
    return int(1.3 * x / max(math.log(x), 1.0)) if x >= 2 else 0


def _nth_prime_bound(n: int) -> int:
    """An upper bound on p_n, the n-th prime: n (ln n + ln ln n), at least 100.

    p_n < n (ln n + ln ln n) for every n >= 6 (Rosser & Schoenfeld 1962,
    (3.13)); the floor of 100 covers p_1..p_5 = 2..11. From 2^1000 on it is
    the trivial bound n^2.
    """
    if n >= 1 << 1000:
        return n * n
    return max(100, int(n * (math.log(n) + math.log(math.log(n))))) if n >= 6 else 100


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve every prime <= limit into a PrimeTable.

    One segment's mask, 1 KiB and ``_SIEVE_BYTES`` per prime of the
    1.3 x / ln x bound are counted through ``reserve`` before the sieve
    runs; the sieving primes up to sqrt(limit) come from ``_prime_list``,
    whose cache misses are sieves counted the same way.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    reserve(_sieve_bytes(limit), f"sieving to {_number(limit)}")
    primes = np.concatenate([np.empty(0, dtype=np.int64), *_segments(limit)])
    primes.setflags(write=False)
    return PrimeTable(limit=limit, primes=primes)


def _prime_list(limit: int) -> np.ndarray:
    """The primes <= limit, a read-only ascending int64 array.

    Below 2^``_CACHE_BITS`` it is a prefix of ``_cache``, the package's one
    prime cache, first grown to ``limit.bit_length()`` bits if it is short,
    so the scans over many limits up to L sieve only about log2(L) times in
    a process. Each step to 2^b is counted as ``sieve_primes`` counts the
    same limit, through ``reserve``, before anything is built. It joins the
    cached array with ``_segments(2**b - 1, 2**(b - 1))`` (from 0 while
    b <= 2, when the cache is empty), so no cached prime is sieved again,
    and its segments read their base primes, below 2^ceil(b/2), from the
    cache as it stands. The grown array replaces the old one. Past the
    bound the primes are sieved to the limit for this call and kept by
    nobody.
    """
    global _cache
    limit = max(limit, 0)
    if limit >> _CACHE_BITS:
        return sieve_primes(limit).primes
    bits, primes = _cache
    while bits < limit.bit_length():
        bits += 1
        reserve(_sieve_bytes((1 << bits) - 1), f"the primes below 2^{bits}")
        primes = np.concatenate([primes, *_segments((1 << bits) - 1, 1 << (bits - 1) if bits > 2 else 0)])
        primes.setflags(write=False)
        _cache = bits, primes
    return primes[: np.searchsorted(primes, limit, side="right")]


def _prime_ints(limit: int) -> list[int]:
    """The primes <= limit as a list of Python ints, for arithmetic past
    int64. The list is counted through ``reserve``, at ``_INT_BYTES`` per
    prime of the bound and 1 KiB, before its primes are read or sieved."""
    reserve(1024 + _INT_BYTES * _prime_count_bound(limit), f"a list of the primes to {_number(limit)}")
    return _prime_list(limit).tolist()
