"""Independent oracles the tests check the library against.

Everything here is deliberately naive: trial division, direct big-integer
factorization, floor sums written out from the definition, grid brute
force, and element-level sumsets of the basis. None of it shares code with
the package; the basis gap check only calls the coloring it is handed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def trial_division_primes(limit: int) -> list[int]:
    out = []
    for x in range(2, limit + 1):
        if all(x % d for d in range(2, math.isqrt(x) + 1)):
            out.append(x)
    return out


def is_prime_oracle(x: int) -> bool:
    if x < 2:
        return False
    return all(x % d for d in range(2, math.isqrt(x) + 1))


def prime_exponent(x: int, p: int) -> int:
    """Exponent of p in x by repeated division."""
    e = 0
    while x and x % p == 0:
        x //= p
        e += 1
    return e


def comb_exponent(n: int, k: int, p: int) -> int:
    """Exponent of p in C(n, k), by factoring the big integer."""
    return prime_exponent(math.comb(n, k), p)


def small_prime_part(n: int, k: int, primes: list[int]) -> int:
    """u(n, k) by factoring C(n, k) over the given primes <= k."""
    c = math.comb(n, k)
    u = 1
    for p in primes:
        if p > k:
            break
        while c % p == 0:
            c //= p
            u *= p
    return u


def legendre_valuation(n: int, k: int, p: int) -> int:
    """Triple floor sum, written out from the definition."""
    total = 0
    q = p
    while q <= n:
        total += n // q - (n - k) // q - k // q
        q *= p
    return total


def f_oracle(n: int, primes: list[int], bound: int) -> int | None:
    """f(n) from the definition: exact u(n, k) versus n^2, k ascending.

    ``primes`` must include every prime <= bound; the scan fails loudly if
    f(n) would exceed the bound rather than silently dropping primes.
    """
    nn = n * n
    for k in range(n + 1):
        if k > bound:
            raise AssertionError(f"f_oracle bound {bound} too small for n={n}")
        u = 1
        for p in primes:
            if p > k:
                break
            v = legendre_valuation(n, k, p)
            if v:
                u *= p**v
        if u > nn:
            return k
    return None


def grid_discrepancy(points: list[float], steps: int = 1024) -> float:
    """Brute-force sup of |count/k - length| over closed grid intervals."""
    xs = np.sort(np.asarray(points, dtype=np.float64))
    k = xs.size
    grid = np.arange(steps + 1) / steps
    le = np.searchsorted(xs, grid, side="right")  # points <= grid value
    lt = np.searchsorted(xs, grid, side="left")  # points <  grid value
    i, j = np.triu_indices(steps + 1)
    counts = le[j] - lt[i]
    lengths = (j - i) / steps
    return float(np.max(np.abs(counts / k - lengths)))


def representations_bruteforce(n: int, members: set[int]) -> list[tuple[int, int]]:
    return [(a, n - a) for a in range(2, n // 2 + 1) if a in members and (n - a) in members]


def basis_intervals(limit: int, stages: int | None = None) -> list[tuple[int, int]]:
    """A within [0, limit] as ascending intervals, from the definition.

    A = [2, 3] plus, per stage k (Q = 5^(k-1)), {4Q}, [5Q, 6Q - 1] and
    [10Q - 1, 15Q]; ``stages`` keeps only stages 1..stages.
    """
    out = [(2, 3)]
    k = 1
    while 4 * 5 ** (k - 1) <= limit and (stages is None or k <= stages):
        q = 5 ** (k - 1)
        out += [(4 * q, 4 * q), (5 * q, 6 * q - 1), (10 * q - 1, 15 * q)]
        k += 1
    return [(lo, min(hi, limit)) for lo, hi in out if lo <= limit]


def interval_mask(intervals: list[tuple[int, int]]) -> int:
    """The union of the intervals as a bit mask (bit x set iff x is in it)."""
    bits = 0
    for lo, hi in intervals:
        bits |= ((1 << (hi - lo + 1)) - 1) << lo
    return bits


def sumset_mask(intervals: list[tuple[int, int]]) -> int:
    """S + S as a bit mask (bit x set iff x in S + S), S the union of intervals.

    Element-level shift-or: S + S is the OR of mask(S) << a over every a in
    S; the shifts for a run of consecutive a are OR-ed by doubling.
    """
    bits = interval_mask(intervals)
    out = 0
    for lo, hi in intervals:
        run, covered = bits, 1  # run = OR of bits << s for s < covered
        while covered < hi - lo + 1:
            step = min(covered, hi - lo + 1 - covered)
            run |= run << step
            covered += step
        out |= run << lo
    return out


def first_missing(mask: int, lo: int, hi: int) -> int | None:
    """Least x in [lo, hi] whose bit is clear in mask, or None."""
    missing = ~mask & (((1 << (hi - lo + 1)) - 1) << lo)
    return (missing & -missing).bit_length() - 1 if missing else None


def window_representations(
    elements: list[int], lo: int, hi: int
) -> tuple[np.ndarray, list[int]]:
    """Pairs a <= b of the sorted elements with a + b in [lo, hi].

    Returns the number of pairs for each n = lo..hi and the distinct smaller
    summands a that occur, counted element by element.
    """
    els = np.asarray(elements, dtype=np.int64)
    half = els[els <= hi // 2]
    starts = np.searchsorted(els, np.maximum(lo - half, half))
    ends = np.searchsorted(els, hi - half, side="right")
    counts = np.zeros(hi - lo + 1, dtype=np.int64)
    smaller = []
    for a, i0, i1 in zip(half.tolist(), starts.tolist(), ends.tolist()):
        if i1 > i0:
            np.add.at(counts, a + els[i0:i1] - lo, 1)
            smaller.append(a)
    return counts, smaller


def color_class_misses_window(color_of, k: int, color: int) -> bool:
    """True iff no two elements of A colored ``color`` sum into J_k.

    J_k = [9Q, 10Q - 1] with Q = 5^(k-1); summands are at most 10Q - 3
    because the least element of A is 2. Every element is colored with
    ``color_of``.
    """
    q = 5 ** (k - 1)
    lo, hi = 9 * q, 10 * q - 1
    mine = [
        x
        for a, b in basis_intervals(hi - 2)
        for x in range(a, b + 1)
        if color_of(x) == color
    ]
    counts, _ = window_representations(mine, lo, hi)
    return not counts.any()
