"""Prime generation and primality: the substrate for the other modules.

``sieve_primes`` returns an immutable ascending ``PrimeTable`` of every
prime up to a limit; ``is_prime`` is a Miller-Rabin test; ``_prime_list``
serves the small prime lists the scans reuse from a cache of one list per
power of two.

There is one sieve. It marks odd integers segment by segment, so its mask
never outgrows one segment of ``SEGMENT_SPAN`` integers, and limits below
the span are simply one segment.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import reserve

# Integers covered by one sieve segment (even+odd): 2**23 odds, 8 MiB of mask.
SEGMENT_SPAN = 1 << 24

# Peak bytes per prime of a cached prime list: the sieve's int64 array, the
# list ``tolist`` builds and the tuple. tracemalloc gives 48.0 bytes per
# prime at 2^18, 2^20 and 2^22 (40 per unit of ``_prime_count_bound``).
_LIST_BYTES = 48

# Miller-Rabin witnesses: the first 13 primes decide every n below
# 3.317e24 (psi_13, Sorenson & Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the fixed witnesses 2..41.

    Deterministic for n < 3317044064679887385961981 (about 3.317e24); above
    that bound a True result means a strong probable prime to those bases.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor <= 41, so prime
        return True
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


def _sieve(limit: int) -> np.ndarray:
    """All primes <= limit, sieved over odd integers one segment at a time.

    Each segment covers ``SEGMENT_SPAN`` integers, so the mask never
    outgrows one segment whatever the limit. The sieving primes up to
    sqrt(limit) come from the same sieve, through the cached ``_prime_list``.
    """
    if limit < 2:
        return np.array([], dtype=np.int64)
    odd_base = _prime_list(math.isqrt(limit))[1:]  # skip 2; segments hold odd numbers only
    chunks = [np.array([2], dtype=np.int64)]
    lo = 3
    while lo <= limit:
        hi = min(lo + SEGMENT_SPAN, limit + 1)  # exclusive
        n_odd = (hi - lo + 1) // 2
        mask = np.ones(n_odd, dtype=bool)
        for p in odd_base:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start < hi:
                mask[(start - lo) // 2 :: p] = False
        chunks.append(np.flatnonzero(mask).astype(np.int64) * 2 + lo)
        lo = hi if hi % 2 else hi + 1  # keep segment starts odd
    return np.concatenate(chunks)


@dataclass(frozen=True)
class PrimeTable:
    """Immutable ascending table of every prime <= limit.

    The table is safe to share across threads; all methods are read-only.
    """

    limit: int
    primes: np.ndarray  # int64, strictly increasing

    def __len__(self) -> int:
        return int(self.primes.size)

    def count(self, x: int) -> int:
        """pi(x): number of primes <= x (x may be below the table limit)."""
        if x > self.limit:
            raise ValueError(f"count({x}) exceeds table limit {self.limit}")
        return int(np.searchsorted(self.primes, x, side="right"))


def _prime_count_bound(x: int) -> int:
    """An upper bound on pi(x), the number of primes <= x: 1.3 x / ln x.

    pi(x) < 1.25506 x / ln x for every x > 1 (Rosser & Schoenfeld 1962,
    (3.6)); below e the divisor is taken as 1. Every memory count that
    scales with a number of primes uses this bound.
    """
    return int(1.3 * x / max(math.log(x), 1.0)) if x >= 2 else 0


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve every prime <= limit into a PrimeTable.

    One segment's mask plus 8 bytes per prime of the output array are
    counted through ``reserve`` before the sieve runs.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    mask_bytes = min(limit, 2 * SEGMENT_SPAN) // 2 + 1
    reserve(mask_bytes + 8 * _prime_count_bound(limit), f"sieving to {limit}")
    primes = _sieve(limit)
    primes.setflags(write=False)
    return PrimeTable(limit=limit, primes=primes)


def _prime_list(limit: int) -> tuple[int, ...]:
    """Tuple of primes <= limit, for the small limits used in scans.

    It is a prefix of the cached list of primes below the next power of two,
    so a scan over many limits up to L sieves only about log2(L) times.
    """
    primes = _primes_below_power_of_two(max(limit, 0).bit_length())
    return primes[: bisect_right(primes, limit)]


@lru_cache(maxsize=64)
def _primes_below_power_of_two(bits: int) -> tuple[int, ...]:
    """Primes < 2**bits. ``_sieve`` asks ``_prime_list`` for the primes up to
    isqrt(2**bits - 1) < 2**ceil(bits/2), a smaller power of two for
    bits >= 2, so the recursion ends.

    Each miss of the cache counts the list through ``reserve`` before it
    sieves; a hit pays nothing."""
    limit = (1 << bits) - 1
    reserve(_LIST_BYTES * _prime_count_bound(limit), f"a list of the primes below 2^{bits}")
    return tuple(_sieve(limit).tolist())
