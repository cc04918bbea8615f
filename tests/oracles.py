"""Independent oracles the tests check the library against.

Everything here is deliberately naive: trial division, direct big-integer
factorization, floor sums written out from the definition, a grid scan of
the discrepancy, the exact two-family discrepancy scan, a prime-by-prime
search for a prime string over a whole table, every pairwise distance of a
cluster, element-level sumsets of the basis, and the command line read by
argparse. None of it shares code with the package, and it imports nothing
from it; the basis gap check only calls the coloring it is handed.
"""

from __future__ import annotations

import argparse
import itertools
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


def valuation_row_oracle(n: int, p: int, method: str) -> np.ndarray:
    """v_p(C(n, k)) for k = 0..n as int64, rebuilt from n on every call.

    ``indicator`` counts (n mod q) < (k mod q) over q = p^t <= n;
    ``legendre`` takes sum_t n // q - k // q - (n - k) // q, the floor sum
    of k reversed giving that of n - k.
    """
    ks = np.arange(n + 1, dtype=np.int64)
    out = np.zeros(n + 1, dtype=np.int64)
    q = p
    if method == "indicator":
        while q <= n:
            out += n % q < ks % q
            q *= p
        return out
    if method == "legendre":
        nf = 0
        while q <= n:
            nf += n // q
            out += ks // q
            q *= p
        return nf - out - out[::-1]
    raise ValueError(f"unknown method {method!r}")


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
    """Sup of |count/k - length| over the closed grid intervals
    [i/steps, j/steps], i <= j, by a running min and max over the grid.

    count/k - length is A[j] - B[i], with A[j] = le[j]/k - j/steps and
    B[i] = lt[i]/k - i/steps, where le and lt count the points <= and < each
    grid value. The sup is therefore the larger of max_j (A[j] - min_{i<=j}
    B[i]) and max_j (max_{i<=j} B[i] - A[j]).
    """
    xs = np.sort(np.asarray(points, dtype=np.float64))
    k = xs.size
    grid = np.arange(steps + 1) / steps
    a = np.searchsorted(xs, grid, side="right") / k - grid
    b = np.searchsorted(xs, grid, side="left") / k - grid
    excess = np.max(a - np.minimum.accumulate(b))
    deficit = np.max(np.maximum.accumulate(b) - a)
    return float(max(excess, deficit))


def family_discrepancy(points) -> Fraction:
    """Interval discrepancy from its two finite families, exactly, in O(k^2).

    Over sorted x_1..x_k the supremum of |count/k - length| is attained on
    the closed intervals [x_i, x_j] (j - i + 1 points, an excess) or on the
    open gaps (x_i, x_j) with sentinels x_0 = 0 and x_{k+1} = 1 (j - i - 1
    points, a deficit). Both are scored in integers, times k and the points'
    common denominator, from one difference per pair. (For points in
    [0, 1), a gap that ends at a sentinel never beats the best closed one.)
    """
    xs = sorted(Fraction(x) for x in points)
    k = len(xs)
    den = math.lcm(*(x.denominator for x in xs))
    ext = [0] + [x.numerator * (den // x.denominator) for x in xs] + [den]
    best = den  # the excess on [x_i, x_i]: one point, length 0
    for i in range(k + 1):
        for j in range(i + 1, k + 2):
            width = k * (ext[j] - ext[i])
            best = max(best, width - (j - i - 1) * den)
            if i and j <= k:
                best = max(best, (j - i + 1) * den - width)
    return Fraction(best, k * den)


def whole_table_prime_string(
    ps: np.ndarray, q: int, a: int, m: int, max_diameter: int | None = None
) -> tuple[int, tuple[int, ...]] | None:
    """(r, run) for the first m consecutive primes ps[r..r+m-1] all = a (mod q)
    and at most ``max_diameter`` wide, or None: one plain loop over the whole
    ascending table of primes ``ps``, prime by prime."""
    primes = ps.tolist()
    start = 0  # where the current stretch of primes = a (mod q) began
    for i, p in enumerate(primes):
        if p % q != a % q:
            start = i + 1
        elif i - start + 1 >= m:
            r = i - m + 1
            if max_diameter is None or p - primes[r] <= max_diameter:
                return r, tuple(primes[r : i + 1])
    return None


def max_pair_distance(alpha: Fraction, primes: tuple[int, ...]) -> Fraction:
    """The largest distance of alpha (p_j - p_i) to the nearest integer over
    every pair i < j of the primes, one pair at a time."""

    def to_integers(x: Fraction) -> Fraction:
        return min(x - math.floor(x), math.ceil(x) - x)

    return max(to_integers(alpha * (pj - pi)) for i, pi in enumerate(primes) for pj in primes[i + 1 :])


def one_prime_later(primes: tuple[int, ...]) -> list[int]:
    """The window of as many consecutive primes that starts at primes[1]."""
    return [*primes[1:], next(p for p in itertools.count(primes[-1] + 1) if is_prime_oracle(p))]


def star_discrepancy(points) -> float:
    """Classical star discrepancy sup_x |#{x_i <= x}/k - x| over prefixes."""
    xs = np.sort(np.asarray(list(points), dtype=np.float64))
    k = xs.size
    up = np.arange(1, k + 1) / k - xs
    down = xs - np.arange(0, k) / k
    return float(max(np.max(up), np.max(down), 0.0))


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


def witness_holds(n: int, K: int) -> bool:
    """u(n, k) = 1 for every k <= K, checked per k in two forms: Legendre's
    floor sum gives v_p(C(n, k)) = 0 for every prime p <= k, and factoring
    C(n, k) over those primes leaves u(n, k) = 1."""
    primes = trial_division_primes(K)
    for k in range(K + 1):
        if any(legendre_valuation(n, k, p) for p in primes if p <= k):
            return False
        if small_prime_part(n, k, primes) != 1:
            return False
    return True


class ArgparseRefusal(Exception):
    pass


class _RaisingParser(argparse.ArgumentParser):
    """argparse with its error exit turned into ``ArgparseRefusal``; help
    still ends in ``SystemExit(0)``."""

    def error(self, message: str):  # noqa: D102 (argparse override)
        raise ArgparseRefusal(message)


def argparse_cli_parser() -> argparse.ArgumentParser:
    """The ``erdos-trio`` command line as three nested argparse parsers:
    the global flags, one subparser per group and one per command. Its
    ``parse_args`` raises ``ArgparseRefusal`` on bad arguments and
    ``SystemExit(0)`` on help; ``handler`` is the ``(group, cmd)`` pair."""
    parser = _RaisingParser(prog="erdos-trio")
    parser.add_argument("--format", choices=("table", "csv", "json"), default="table")
    parser.add_argument("--output", default=None)
    parser.add_argument("--precision", type=int, default=256)
    parser.add_argument("--threads", type=int, default=1)
    groups = parser.add_subparsers(dest="group", required=True)

    def command(group, cmd):
        p = subparsers[group].add_parser(cmd)
        p.set_defaults(handler=(group, cmd))
        return p

    subparsers = {
        group: groups.add_parser(group).add_subparsers(dest="cmd", required=True)
        for group in ("binomial", "basis", "equidist")
    }
    command("binomial", "f").add_argument("--n", type=int, required=True)
    p = command("binomial", "f-scan")
    p.add_argument("--from", dest="from_n", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    p = command("binomial", "certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--C", type=float, default=24.0 / (math.pi**2 - 6.0) + 0.01)
    command("binomial", "witness").add_argument("--K", type=int, required=True)

    command("basis", "cover").add_argument("--k", type=int, required=True)
    command("basis", "rigidity").add_argument("--k", type=int, required=True)
    p = command("basis", "gaps")
    p.add_argument("--rule", required=True)
    p.add_argument("--k", type=int, required=True)
    command("basis", "reps").add_argument("--n", type=int, required=True)

    p = command("equidist", "scan")
    p.add_argument("--alpha", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    p = command("equidist", "approx")
    p.add_argument("--alpha", required=True)
    p.add_argument("--Q", type=int, required=True)
    p = command("equidist", "string")
    for flag in ("--q", "--a", "--m", "--limit"):
        p.add_argument(flag, type=int, required=True)
    p = command("equidist", "cluster")
    p.add_argument("--alpha", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    return parser
