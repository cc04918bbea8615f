"""Prime generation, indexed prime access, and base-p arithmetic.

This is the arithmetic substrate for everything else in the package: an
immutable table of primes with 1-based rank access (p_1 = 2), a
Miller-Rabin primality test, and a cached list of small primes.

The sieve is a flat boolean occupancy array over odd integers; above
``SEGMENT_THRESHOLD`` it switches to a segmented scan so that memory stays
proportional to the segment, not the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError

# Limits above this are sieved segment by segment.
SEGMENT_THRESHOLD = 1 << 25
# Integers covered by one segment (even+odd); 2**24 odds ~ 16 MiB of mask.
SEGMENT_SPAN = 1 << 24
# Default memory budget for sieve_primes, in bytes.
DEFAULT_MEMORY_BUDGET = 2 * 1024**3

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


def _odd_sieve(limit: int) -> np.ndarray:
    """All primes <= limit via a boolean mask over odd integers."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    if limit == 2:
        return np.array([2], dtype=np.int64)
    n_odd = (limit + 1) // 2  # odds 1, 3, 5, ..., indexed by (x - 1) // 2
    mask = np.ones(n_odd, dtype=bool)
    mask[0] = False  # 1 is not prime
    for p in range(3, math.isqrt(limit) + 1, 2):
        if mask[p >> 1]:
            mask[(p * p) >> 1 :: p] = False
    odds = np.flatnonzero(mask).astype(np.int64) * 2 + 1
    return np.concatenate([np.array([2], dtype=np.int64), odds])


def _segmented_sieve(limit: int, span: int) -> np.ndarray:
    """Same output as _odd_sieve(limit), computed segment by segment."""
    base = _odd_sieve(math.isqrt(limit))
    odd_base = base[1:]  # skip 2; segments hold odd numbers only
    chunks = [np.array([2], dtype=np.int64)] if limit >= 2 else []
    lo = 3
    while lo <= limit:
        hi = min(lo + span, limit + 1)  # exclusive
        n_odd = (hi - lo + 1) // 2
        mask = np.ones(n_odd, dtype=bool)
        for p in odd_base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start < hi:
                mask[(start - lo) // 2 :: p] = False
        chunks.append(np.flatnonzero(mask).astype(np.int64) * 2 + lo)
        lo = hi if hi % 2 else hi + 1  # keep segment starts odd
    return np.concatenate(chunks) if chunks else np.array([], dtype=np.int64)


@dataclass(frozen=True)
class PrimeTable:
    """Immutable ascending table of every prime <= limit.

    Rank access is 1-based so that ``table.p(1) == 2``. The table is safe to
    share across threads; all methods are read-only.
    """

    limit: int
    primes: np.ndarray  # int64, strictly increasing

    def __len__(self) -> int:
        return int(self.primes.size)

    def __iter__(self) -> Iterator[int]:
        return (int(p) for p in self.primes)

    def __contains__(self, x: object) -> bool:
        if not isinstance(x, (int, np.integer)):
            return False
        i = int(np.searchsorted(self.primes, x))
        return i < len(self) and int(self.primes[i]) == x

    def p(self, n: int) -> int:
        """The n-th prime, 1-based (p(1) = 2)."""
        if not 1 <= n <= len(self):
            raise IndexError(f"prime rank {n} outside table of size {len(self)}")
        return int(self.primes[n - 1])

    def index_of(self, p: int) -> int:
        """1-based rank of p; raises if p is not in the table."""
        i = int(np.searchsorted(self.primes, p))
        if i >= len(self) or int(self.primes[i]) != p:
            raise ValueError(f"{p} is not a prime <= {self.limit}")
        return i + 1

    def count(self, x: int) -> int:
        """pi(x): number of primes <= x (x may be below the table limit)."""
        if x > self.limit:
            raise ValueError(f"count({x}) exceeds table limit {self.limit}")
        return int(np.searchsorted(self.primes, x, side="right"))


def sieve_primes(
    limit: int,
    *,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    segment_threshold: int = SEGMENT_THRESHOLD,
    segment_span: int = SEGMENT_SPAN,
) -> PrimeTable:
    """Sieve every prime <= limit into a PrimeTable.

    Raises ResourceLimitError when the mask plus the output array would not
    fit in ``memory_budget`` bytes.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit >= 3:
        # mask bytes (segmented runs cap this at the span) + 8 bytes per prime
        mask_bytes = min(limit, segment_threshold, 2 * segment_span) // 2 + 1
        out_bytes = 8 * int(1.3 * limit / max(math.log(limit), 1.0))
        if mask_bytes + out_bytes > memory_budget:
            raise ResourceLimitError(
                f"sieving to {limit} needs ~{mask_bytes + out_bytes} bytes; "
                f"budget is {memory_budget}"
            )
    if limit > segment_threshold:
        primes = _segmented_sieve(limit, segment_span)
    else:
        primes = _odd_sieve(limit)
    primes.setflags(write=False)
    return PrimeTable(limit=limit, primes=primes)


@lru_cache(maxsize=64)
def _prime_list(limit: int) -> tuple[int, ...]:
    """Cached tuple of primes <= limit, for the small limits used in scans."""
    return tuple(int(p) for p in _odd_sieve(limit))
