"""Windowed discrepancy of {alpha * p_n} and the clustering that breaks it.

A sequence is well-distributed when its windowed interval counts converge
to interval lengths uniformly over the window start. For x_m = {alpha p_m}
that fails: a Dirichlet approximant a/q of alpha plus a run of m consecutive
primes in one residue class mod q forces the m fractional parts into an
interval of width delta, so the window's discrepancy is at least 1 - delta.

Every comparison that decides a result, and every value reported about
alpha, is exact. alpha is held as a Fraction (a float input contributes its
exact dyadic value; "sqrt:N" and "golden" are synthesized to a configurable
number of bits), {alpha p} is an exact rational reduced mod 1, and the
clustering inequalities are re-checked in exact arithmetic before a
witness is reported. No float decides anything.

A clustering witness is found by reading the stream of primes in order,
one span at a time: below 2^24 slices of the package's prime cache, past it
sieve segments. A witness near the start costs one small span at any limit,
and a search holds no table. One exact count also ends a search early:
every run of m >= 2 consecutive primes in one class mod q >= 2 is of odd
primes, so it is at least lcm(2, q)(m - 1) wide; for q >= 3 with 3 not
dividing q its primes also miss the multiples of 3, which makes it at least
lcm(2, q)(3 ((m - 1) // 2) + (m - 1) % 2) wide. A diameter budget (or a
limit) below that rules the class out.

Interval discrepancy has a closed form (Kuipers & Niederreiter, Uniform
Distribution of Sequences, 1974, Ch. 2, Thm 1.4): for sorted x_1..x_k in
[0, 1), D = 1/k + max_i(x_i - i/k) - min_i(x_i - i/k). Every kernel of it
is exact and in integers: ``interval_discrepancy`` compares the terms of
points with any denominators by cross-multiplication, a float point at its
exact dyadic value; the one window scorer ``_exact_discrepancy`` scores a
window's sorted residues over alpha's denominator, for a scan's re-checked
windows (``_window_discrepancy``) and ``cluster_verify``'s window; and a
scan's chunk scorer scores rows of truncated parts over 2^b, for each row
at once.

A found cluster is certified by its arc. ``cluster_verify`` sorts the
run's residues num p mod den once; the shortest arc of the circle that
holds them leaves out the widest gap between neighbours, the wrap gap from
the last to the first included, and it must be at most delta long. m points
in one arc of length L force a discrepancy of at least 1 - L, which the
window check confirms exactly from the same sorted list. At L <= 1/2 the
arc's length is the largest pairwise distance ||alpha (p - p')||, but the
arc is the stronger check: 0, 2/5 and 4/5 are pairwise within 2/5 and lie
in no arc shorter than 3/5.

A window scan decides nothing in floats. Its fractional parts are 64-bit
fixed-point numbers, each within 2^-64 of the exact part. Every window is
screened from each part's top b1 = min(16, 31 - bitlen(k)) bits as uint16,
scored exactly for those truncated points in int32, which puts it within
E = 2k + 1 units of 1/(k 2^b1) of its exact discrepancy, skipping those
that a Lipschitz bound from scored neighbours certifies below the band;
only the windows within 2E of the screen's maximum are re-scored from the
top b2 = 63 - bitlen(k) bits in int64, again within E units of
1/(k 2^b2), and every window within 2E of that maximum is then re-scored
exactly, in integers over alpha's denominator, so the reported argmax
window and its value are exact.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence

import numpy as np

from .errors import VerificationError, _count, _number, _str_digits_limit, reserve
from .primes import PrimeTable, _nth_prime_bound, _prime_count_bound, _prime_list, _stream, _stream_bytes

# A scan's fractional parts are the top 64 bits of 96-bit fixed-point
# numbers, from two limb-by-prime products in uint64.
_FRAC_BITS = 96

# Peak bytes of a window scan, counted in four parts. Per scanned prime:
# the two uint64 arrays of the fixed-point product, then its uint64 parts
# beside the uint16 ones of the screen, the window scores, the prune's grid
# and per-offset arrays (O(windows / _GRID)) and the band; the uint16 parts
# go before the band is formed. The primes themselves are counted by the
# cache or the sieve that serves them. tracemalloc of the whole scan, primes
# read from the cache, less its chunk and exact-window counts, at k = 10:
# 15.8 at 1e6 primes and stride 1000; 20.7 at stride 1, where the prune's
# arrays are largest, and when every window is in both bands (alpha =
# 0.33...3, 24 digits); 21.9 at 2e5 primes when every part is recomputed
# exactly (alpha = 1 - 2^-100); 23.4 at 1e6 primes and stride 1 when every
# window is in the screen's band (alpha = 0), the worst case. Past 2^24 the
# primes the scan sieves for the call add their share, within this count
# and the sieve's: 30.1 and 33.0 at 4e6 primes, golden and alpha = 0. Per
# entry of one chunk of windows: the screen's int32 rows and the uint16
# parts gathered for them, or the re-score's int64 rows and gathered parts.
# Per point of a window: the ramp i 2^b that the chunk scorer builds once
# per call, int32 or int64. tracemalloc of the chunk scorer per entry, its
# rows and ramp included, at k = 10, 50, 1,000, 20,000, 70,000 and 1e6: the
# screen 6.6-7.9 with many rows and 10.0-10.5 with one (k >= 70,000), the
# re-score 16.2-18.7 and 24.0-24.1 with one, within the two counts. Per
# point of the one window re-scored exactly at a time: _POINT_BYTES + 24 *
# (bits // 30), bits the bit length of alpha's denominator. That covers the
# integer score of ``_window_discrepancy``, whose primes, residues and
# scaled residues are Python ints (tracemalloc per point at k = 10 / 50 /
# 2,000 / 200,000: 110 / 60 / 48 / 48 with a 2-bit denominator, 150 / 93 /
# 81 / 84 with 31- and 55-bit ones, 198 / 147 / 136 / 136 at 257 bits, 436 /
# 361 / 345 / 344 at 1,025 bits and 2,731 / 2,350 / 2,258 / 2,256 at 8,193
# bits), and ``cluster_verify``'s check of a run of m primes, its arc and
# its window read from one sorted list of residues (tracemalloc per point at
# m = 2,000 / 20,000 / 100,000, the run given: 80 / 81 / 80 with a 40-bit
# denominator, 145 / 145 / 145 at 284 bits and 350 / 350 / 348 at 1,052).
_PART_BYTES = 28
_ENTRY_BYTES = 24
_RAMP_BYTES = 12
_POINT_BYTES = 128
# Peak bytes per point of ``window_sample``, with 16 more per 30 bits of
# alpha's denominator: the point's prime and residue as Python ints, its
# Fraction, whose numerator and denominator are ints of their own, and the
# list and tuple slots. tracemalloc per point at k = 10 / 50 / 2,000 /
# 20,000 / 200,000, at n = 0 and at n + k = 1e6, primes read from the cache:
# 88-129 with a 2-bit denominator, 182-259 with 31- and 55-bit ones,
# 268-355 at 257 bits, 580-688 at 1,025 bits and 3,448-3,747 at 8,193 bits
# (to k = 20,000): 189 + 12 per 30 bits from k = 2,000 on, and more at
# k = 10, where the big-int temporaries of one point weigh.
_SAMPLE_BYTES = 256
# Peak bytes per point of ``interval_discrepancy``: its sorted copy as a
# Fraction (a float's numerator and denominator are ints of their own, the
# denominator up to 1,075 bits) and its list slot; the closed form's running
# max and min hold a few numbers two denominators wide, not one per point.
# tracemalloc per point at k = 100 / 1,000 / 20,000 / 100,000: 283 / 265 /
# 265 / 264 for subnormal floats (denominators up to 2^1074), 129 / 129 /
# 129 / 128 for random floats, 59 / 57 / 57 / 56 for zeros, 60 / 57 / 57 /
# 44 over the k denominators 3, 5, ..., p_(k+1) and 65 / 61 / 61 / 60 over
# 257-bit ones. At k = 10 fixed costs weigh: 574 for subnormal floats.
_FRACTION_BYTES = 288
# Beside the points, the closed form's few numbers two denominators wide,
# which weigh at small k: its running max and min, their cross-products and
# the result's numerator, denominator and gcd. They are counted at
# _WIDE_BYTES per byte of the widest denominator, plus 24, the bytes of an
# int's header. tracemalloc of the whole call less the points' count, per
# byte of the widest denominator (its bits // 8): 13.5 for the one point
# 1/3^20000, 14.2-14.9 for two points over 3^n, 12.3-13.3 over 3^n and 5^n,
# 14.0-14.3 for ten over the n-th powers of 3, 5, ..., 31 and 13.2-17.0 for
# ten random numerators over 3^n, n = 5,000 to 100,000; 17.4 for one
# subnormal float.
_WIDE_BYTES = 20
# The first call in a process also fills the isinstance caches of
# ``numbers.Rational`` (``abc``) for the points' types, once per type.
# tracemalloc of a first call in a fresh interpreter, less the two counts
# above: 307 for [Fraction(1, 3)], 993 for [0.0], 1,009 for [0.3], 1,058 for
# [numpy.int64(0)], 771 for [False] and 720 for [0, 0.5, Fraction(1, 3)].
_FIRST_CALL_BYTES = 2048
# Windows scored per chunk: chunks hold about 2^16 entries (256 KiB of
# int32 rows in the screen, 512 KiB of int64 in the re-score), which sort
# and score faster than chunks of 2^22 and need 1/64 the memory.
_CHUNK_ENTRIES = 1 << 16
# A scan first scores every _GRID-th window and the last, and then only the
# windows between them that a Lipschitz bound cannot rule out of the band
# (``_bounded_windows``); 4 scored the benchmark's scans faster than 2, 8 or 16.
_GRID = 4

# Peak bytes of a prime-string search per prime of a whole segment, beside
# its mask: the primes, their join with the carry and the indices of the
# class's primes. Per prime of its carry of min(m - 1, the bound at the
# limit): the carry and its join, and a found run listed as a tuple of
# Python ints, 52 B per prime (a 28 B int, a list and a tuple pointer, and
# the int64 prime). tracemalloc, the cache warm to 2^24, at limit 1e8: 12.4
# per prime of the segment's bound at q = 4, m = 100 (every segment read);
# beyond 40 per prime of the segment, 8.8 per carried prime at q = 4,
# m = 5e6 (no run), and 29.8, 38.3 and 46.5 when (2, 3, ..., p_m) is found
# at m = 2e6 (limit 5e7), 3e6 and 5e6, q = 1: 0.64, 0.70 and 0.77 of the count.
_RUN_BYTES = 40
_CARRY_BYTES = 64

DEFAULT_ALPHA_BITS = 256

# Most fractional bits of a synthesized alpha: synthesis takes 3.3 s at 1e6
# bits, and past ~14,000 bits a/b is too long for Python's int-to-str limit.
_MAX_ALPHA_BITS = 8192


class _MalformedAlpha(ValueError):
    """An alpha string of none of the forms ``parse_alpha`` accepts."""


def parse_alpha(value: float | int | str | Fraction, precision_bits: int = DEFAULT_ALPHA_BITS) -> Fraction:
    """Parse alpha into an exact Fraction.

    Accepted forms: Fraction/int (taken as-is), float (its exact dyadic
    value), decimal or 'a/b' strings (exact), 'sqrt:N' with N >= 0 and
    'golden' (rounded down to ``precision_bits`` fractional bits).
    ``precision_bits`` outside [1, 8192] is a ValueError, whatever the form,
    as is a string with a run of more digits than Python's int-to-str limit
    lets ``int`` read, and a string of none of the forms, which raises
    ``_MalformedAlpha``, naming them.
    """
    if not 1 <= precision_bits <= _MAX_ALPHA_BITS:
        raise ValueError(f"precision must be between 1 and {_MAX_ALPHA_BITS} bits")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if text == "golden":
            root5 = isqrt(5 << (2 * precision_bits))
            return Fraction((1 << precision_bits) + root5, 1 << (precision_bits + 1))
        try:
            if not text.startswith("sqrt:"):
                return Fraction(text)
            n = int(text.split(":", 1)[1])
            if n >= 0:
                return Fraction(isqrt(n << (2 * precision_bits)), 1 << precision_bits)
        except ZeroDivisionError:
            raise ValueError(f"alpha {text!r} has a zero denominator") from None
        except ValueError:
            most = _str_digits_limit()
            run = max(map(len, re.findall(r"\d+", text)), default=0)
            if 0 < most < run:
                raise ValueError(
                    f"alpha has a run of {run} digits, past the {most}-digit int-to-str limit"
                ) from None
        raise _MalformedAlpha(f"alpha {text!r} is not a decimal, a/b, sqrt:N with N >= 0 or golden")
    raise TypeError(f"cannot parse alpha from {type(value).__name__}")


def fractional_part(alpha: Fraction, p: int) -> Fraction:
    """{alpha * p} as an exact rational in [0, 1)."""
    num, den = alpha.numerator, alpha.denominator
    return Fraction(num * p % den, den)


def torus_distance(alpha: Fraction, delta: int) -> Fraction:
    """Distance of alpha * delta to the nearest integer, exactly."""
    num, den = alpha.numerator, alpha.denominator
    r = num * delta % den
    return Fraction(min(r, den - r), den)


def window_sample(alpha: float | int | str | Fraction, n: int, k: int) -> tuple[Fraction, ...]:
    """Sorted fractional parts {alpha p_m} for n < m <= n + k, as exact
    rationals, from ``_prime_list`` up to ``_nth_prime_bound(n + k)``. The
    k primes, residues and Fractions are counted through ``reserve`` before
    any prime is read; the cache or the sieve counts the primes it holds."""
    if k < 1:
        raise ValueError("window size k must be >= 1")
    if n < 0:
        raise ValueError("start index must be >= 0")
    a = parse_alpha(alpha)
    reserve(k * (_SAMPLE_BYTES + 16 * (a.denominator.bit_length() // 30)), f"a sample of {_count(k)} points")
    ps = _prime_list(_nth_prime_bound(n + k))[n : n + k].tolist()
    return tuple(Fraction(r, a.denominator) for r in _sorted_residues(a, ps))


def _sorted_residues(alpha: Fraction, primes: Sequence[int]) -> list[int]:
    """The residues num p mod den of the primes, ascending, with num/den =
    alpha: den times their fractional parts {alpha p}."""
    num, den = alpha.numerator, alpha.denominator
    return sorted(num * p % den for p in primes)


def _window_discrepancy(alpha: Fraction, ps: Sequence[int]) -> Fraction:
    """The exact interval discrepancy of {alpha p} over a window's primes
    ``ps``, Python ints, in integers: a window of a scan's band."""
    return _exact_discrepancy(_sorted_residues(alpha, ps), alpha.denominator)


def _exact_point_bytes(alpha: Fraction) -> int:
    """The count per point of a window scored exactly over alpha's
    denominator (see ``_POINT_BYTES``)."""
    return _POINT_BYTES + 24 * (alpha.denominator.bit_length() // 30)


def _exact_discrepancy(residues: list[int], den: int) -> Fraction:
    """The interval discrepancy of the points r_i / den, r_1 <= ... <= r_k
    in [0, den), exactly.

    The closed form scaled by k den is
    k den D = min(k den, den + max_i(k r_i - i den) - min_i(k r_i - i den)).
    """
    k = len(residues)
    ys = [k * r - i * den for i, r in enumerate(residues)]
    return Fraction(min(k * den, den + max(ys) - min(ys)), k * den)


def interval_discrepancy(points: Sequence[Fraction | float]) -> Fraction:
    """Sup over intervals [a, b] of |count/k - (b - a)| for points in [0, 1).

    Uses the closed form D = 1/k + max_i y_i - min_i y_i, y_i = x_i - i/k,
    over the sorted points (Kuipers & Niederreiter 1974, Ch. 2, Thm 1.4),
    exactly and with no common denominator: with x_i = n_i / d_i, each
    k y_i is kept as the pair (k n_i - i d_i, d_i), and a running max and
    min compare two pairs by cross-multiplication, numbers two denominators
    wide, so the result is the exact Fraction in O(k) comparisons past the
    sort; a float point counts at its exact dyadic value. A point outside
    [0, 1), infinities and NaN included, raises ValueError.

    The points' sorted copies as Fractions are counted through ``reserve``
    before they are made, at ``_FRACTION_BYTES`` per point, and then again
    with the closed form's numbers two denominators wide, at ``_WIDE_BYTES``
    per byte of the widest denominator, which takes one more pass, and the
    type caches a first call fills, ``_FIRST_CALL_BYTES``.
    """
    k = len(points)
    if not k:
        raise ValueError("discrepancy needs at least one point")
    outside = [x for x in points if not 0 <= x < 1]
    if outside:
        raise ValueError(f"points must lie in [0, 1); got {outside[0]}")
    what = f"the discrepancy of {k} points"
    reserve(_FRACTION_BYTES * k, what)  # the copies alone: refused before another pass
    # a rational's denominator, or a float's from its exact ratio
    widest = max(getattr(x, "denominator", None) or x.as_integer_ratio()[1] for x in points).bit_length()
    reserve(_FRACTION_BYTES * k + _WIDE_BYTES * (24 + widest // 8) + _FIRST_CALL_BYTES, what)
    xs = sorted(map(Fraction, points))
    high_y, high_d = low_y, low_d = k * xs[0].numerator, xs[0].denominator
    for i, x in enumerate(xs):
        y, d = k * x.numerator - i * x.denominator, x.denominator
        if y * high_d > high_y * d:
            high_y, high_d = y, d
        elif y * low_d < low_y * d:
            low_y, low_d = y, d
    return min(Fraction(1), Fraction(high_d * low_d + high_y * low_d - low_y * high_d, k * high_d * low_d))


@dataclass(frozen=True)
class WindowScanResult:
    """Max windowed discrepancy over scanned start indices (a lower bound
    on the true supremum over all starts).

    ``argmax_start`` is the smallest scanned start whose window has the
    largest exact discrepancy and ``max_discrepancy_exact`` is that exact
    value.
    """

    alpha: Fraction
    k: int
    scan_limit: int
    stride: int
    windows: int
    max_discrepancy_exact: Fraction
    argmax_start: int


def _fixed_point_parts(alpha: Fraction, ps: np.ndarray) -> np.ndarray:
    """{alpha p} 2^64 for each prime p < 2^32 of ``ps``, as uint64 within 1
    of its exact value: a part m stands for m 2^-64, within 2^-64 of
    {alpha p}.

    A = ceil({alpha} 2^96) mod 2^96 exceeds {alpha} 2^96 by less than 1,
    modulo 2^96, so Y = A p mod 2^96 is {alpha p} 2^96 raised by less than
    p < 2^32, modulo 2^96. Written A = A_hi 2^32 + A_lo with A_lo < 2^32,
    Y's top 64 bits are (A_hi p + (A_lo p >> 32)) mod 2^64: two limb
    products, of which only A_hi p wraps in uint64, and A_lo p < 2^64. A
    raise that wraps past 2^96 leaves Y < p, so the top 64 bits of Y are
    zero; those parts (a superset of the wrapped ones) are recomputed
    exactly, as floor({alpha p} 2^64). Every other part is Y's top 64 bits:
    the raise and the dropped low 32 bits, each less than 2^32 units of
    2^-96, leave it within 1 of {alpha p} 2^64. When A is exactly
    {alpha} 2^96 nothing is raised, and no part is recomputed.
    """
    num, den = alpha.numerator, alpha.denominator
    lifted = (num % den) << _FRAC_BITS
    a = -(-lifted // den) % (1 << _FRAC_BITS)  # the ceiling may be 2^96
    # two uint64 arrays of len(ps): top, and the primes turned into A_lo p >> 32
    low = ps.astype(np.uint64)
    top = low * np.uint64(a >> 32)  # mod 2^64
    low *= np.uint64(a & (1 << 32) - 1)
    low >>= 32
    top += low  # mod 2^64: Y's top 64 bits
    del low
    if lifted % den:
        for i in np.flatnonzero(top == 0):
            part = fractional_part(alpha, int(ps[i]))
            top[i] = (part.numerator << 64) // part.denominator
    return top


def _score_windows(windows: np.ndarray, js: np.ndarray, rows: np.ndarray, scores: np.ndarray, bits: int) -> None:
    """Score the windows ``windows[js]`` into ``scores[js]``, one chunk of
    ``rows`` at a time, exactly. A window is a row of k integers m, a part's
    top b = ``bits`` bits, that stand for the points m 2^-b, and its score is
    k 2^b times their closed-form discrepancy, the formula of
    ``_exact_discrepancy`` over the denominator 2^b, as an int64:
    min(k 2^b, 2^b + max_i y_i - min_i y_i), y_i = k m_(i) - i 2^b over the
    sorted m_(i), i = 0..k-1. Each chunk is gathered with ``windows[at]``
    (``np.take`` with ``out=`` on a sliding view is 10-20x slower), sorted in
    place, and its y_i are formed in ``rows``, whose integer type holds
    k 2^b."""
    k = rows.shape[1]
    ramp = np.arange(k, dtype=rows.dtype)
    ramp <<= bits
    high, low = np.empty(len(rows), rows.dtype), np.empty(len(rows), rows.dtype)
    for off in range(0, js.size, len(rows)):
        at = js[off : off + len(rows)]
        got = windows[at]
        got.sort(axis=1)
        ys = rows[: at.size]
        np.multiply(got, k, out=ys, dtype=rows.dtype)
        del got  # before the next chunk is gathered
        ys -= ramp
        width = ys.max(axis=1, out=high[: at.size])
        width -= ys.min(axis=1, out=low[: at.size])
        width += 1 << bits
        scores[at] = np.minimum(width, k << bits, out=width)


def _bounded_windows(scores: np.ndarray, r: int, stride: int, k: int, bits: int, floor: int) -> np.ndarray:
    """The windows j = r (mod G), G = ``_GRID`` and 0 < r < G, that a
    scan's second pass scores, ascending. Scores are in units of
    1/(k 2^b), b = ``bits``, each within E = 2k + 1 of its window's exact
    discrepancy, and ``floor`` is best - 4E.

    Each such j lies between two scored neighbours g: the grid windows
    0, G, 2G, ... and the last window, n - 1. The windows g and j share all
    but t = min(|j - g| stride, k) of their k primes, so (see
    ``well_distribution_statistic``) j's exact discrepancy is at most
    U(j) = min_g(score(g) + E + t 2^b). j is returned exactly when U(j) >=
    best - 3E, tested in integers as score(g) >= floor - t 2^b for both
    neighbours g.
    """
    last = scores.size - 1
    cells = last // _GRID  # the full cells [cG, (c + 1)G]

    def cut(d: int) -> int:
        return floor - (min(d * stride, k) << bits)

    keep = scores[: cells * _GRID : _GRID] >= cut(r)
    keep &= scores[_GRID : cells * _GRID + 1 : _GRID] >= cut(_GRID - r)
    js = np.flatnonzero(keep)
    js *= _GRID
    js += r
    tail = cells * _GRID + r  # in the short cell [cells G, last], if any
    if tail < last and scores[tail - r] >= cut(r) and scores[last] >= cut(last - tail):
        js = np.append(js, tail)
    return js


def _checked(exact: Fraction, score: int, unit: int, err: int, n: int) -> Fraction:
    """``exact``, the exact discrepancy of the window at ``n``, once its
    ``score`` over ``unit`` is within ``err / unit`` of it;
    VerificationError otherwise."""
    if abs(exact * unit - score) > err:
        raise VerificationError(
            f"window at {n}: scan scored {score / unit}, exact discrepancy is {float(exact)}"
        )
    return exact


def well_distribution_statistic(
    alpha: float | int | str | Fraction,
    k: int,
    scan_limit: int,
    stride: int = 1,
) -> WindowScanResult:
    """Scan windows of size k starting at n = 0, stride, ..., <= scan_limit.

    ``argmax_start`` is exact: the smallest scanned start whose window has
    the largest exact discrepancy. Windows are scored in two tiers of one
    integer kernel (``_score_windows``), one chunk at a time, from 64-bit
    fixed-point fractional parts (``_fixed_point_parts``, each within 2^-64
    of {alpha p}). A tier of b bits reads each part's top b bits as an
    integer m, and scores a window exactly for the points m 2^-b, as an
    integer in units of 1/(k 2^b); the screen reads b1 = min(16,
    31 - bitlen(k)) bits as uint16 and forms its y_i in int32, and the
    re-score reads b2 = 63 - bitlen(k) bits, with int64 rows, so that
    k 2^b < 2^31 and k 2^b < 2^63: no y_i, and no score, overflows. A k
    with no bit left, k >= 2^30, is a ValueError. Every score of a tier is
    within E = 2k + 1 units of the window's exact discrepancy: the top b
    bits truncate each part by less than 2^-b, so it errs by
    eps < 2^-b + 2^-64; sorting moves each order statistic by at most eps,
    so the max and the min of x_(i) - i/k each move by at most eps, and the
    discrepancy by at most 2 eps, which is 2k + k 2^(b - 63) <= 2k + 1
    units. Nothing is rounded.

    Not every window is screened. Replacing t of a window's k points moves
    any interval's count by at most t, so it moves the interval discrepancy
    by at most t/k, t 2^b units; two windows whose starts are d apart share
    all but t = min(d, k) of their primes. A first pass scores every
    ``_GRID``-th window and the last. A window j between two scored
    neighbours g then has an exact discrepancy of at most U(j) =
    min_g(score(g) + E + min(|j - g| stride, k) 2^b), and the second pass
    scores exactly the windows whose U(j) reaches best - 3E, best the first
    pass's maximum (``_bounded_windows``). A skipped window would score below
    U(j) + E < best - 2E, and the final maximum is at least best, so it lies
    outside the band below, whose windows and scores are those of a scan
    that scores every window.

    A tier's band is every window whose score is within 2E of the tier's
    maximum. The exact maximum's windows all lie in it, since each scores at
    least exact max - E >= max score - 2E. With q the denominator of alpha
    and r_i = q {alpha p_i} the sorted residues, k q D = q + max(k r_i - i q)
    - min(k r_i - i q) is an integer, so an exact discrepancy is a multiple
    of 1/(k q), and none exceeds the ceiling min(1, (max score + E) / (k 2^b)).
    The screen's band's first window is scored exactly in integers
    (``_window_discrepancy``) when the next multiple above the most its
    exact value can be, min(1, (its score + E) / (k 2^b1)), passes the
    screen's ceiling; if the next multiple above its exact value does, no
    window can exceed it, and it is the argmax: at an exact 1, and whenever
    q (2k + 1) < 2^(b1 - 2), so the many exact ties of a rational alpha cost
    one exact window and no re-scored one. Otherwise the screen's band is
    re-scored at b2 bits, and that band is scored exactly in ascending start
    order, keeping the first largest value; the re-scoring stops once the
    next multiple above the best value found passes the re-score's ceiling
    (at the first window when q (2k + 1) < 2^(b2 - 2)). A window whose exact
    value is more than E units from its score raises VerificationError.

    The scan reads its scan_limit + k primes from ``primes._prime_list``
    up to the bound ``_nth_prime_bound(scan_limit + k)``: a slice of the
    prime cache while that bound is below 2^24, and a sieve for this call
    past it; the call itself holds nothing after it returns. A scanned
    prime >= 2^32 is a ValueError. Its parts, one chunk of windows, the
    chunk scorer's ramp and one exact window are counted through
    ``reserve`` before any prime is read; the cache and the sieve count the
    primes.
    """
    if k < 1 or stride < 1 or scan_limit < 0:
        raise ValueError("need k >= 1, stride >= 1, scan_limit >= 0")
    a = parse_alpha(alpha)
    needed = scan_limit + k
    n_windows = scan_limit // stride + 1
    chunk = max(1, _CHUNK_ENTRIES // k)
    reserve(
        _PART_BYTES * needed
        + _ENTRY_BYTES * k * min(n_windows, chunk)
        + _RAMP_BYTES * k
        + k * _exact_point_bytes(a),
        f"a scan of {_count(n_windows)} windows of {k} primes",
    )
    bits = min(16, 31 - k.bit_length())
    if bits < 1:
        raise ValueError(f"a scan needs k below 2^30; got {k}")
    ps = _prime_list(_nth_prime_bound(needed))[:needed]
    if ps[-1] >> 32:
        raise ValueError(f"scan needs primes below 2^32; prime {needed} is {int(ps[-1])}")
    top = _fixed_point_parts(a, ps)
    err = 2 * k + 1  # E: each score's bound, in units of 1/(k 2^b), at either width
    window_view = np.lib.stride_tricks.sliding_window_view
    # the screen: the parts' top b1 bits as uint16, scored in int32
    ints = np.right_shift(top, 64 - bits, out=np.empty(needed, np.uint16), casting="unsafe")
    windows = window_view(ints, k)[::stride]
    rows = np.empty((min(n_windows, chunk), k), np.int32)
    scores = np.full(n_windows, np.iinfo(np.int64).min)  # below every band; stays on skipped windows
    _score_windows(windows, np.append(np.arange(0, n_windows - 1, _GRID), n_windows - 1), rows, scores, bits)
    best = int(scores.max())
    for r in range(1, _GRID):
        _score_windows(windows, _bounded_windows(scores, r, stride, k, bits, best - 4 * err), rows, scores, bits)
    del windows, rows, ints
    best = int(scores.max())
    band = np.flatnonzero(scores >= best - 2 * err)
    # no window's exact value exceeds a tier's ceiling, and every exact value
    # is a multiple of the step
    step, unit = Fraction(1, k * a.denominator), k << bits
    ceiling = min(Fraction(1), Fraction(best + err, unit))
    first, first_n, score = None, int(band[0]) * stride, int(scores[band[0]])
    # the band's first window can end the scan only if the next multiple
    # above the most its exact value can be passes the ceiling
    if min(Fraction(1), Fraction(score + err, unit)) + step > ceiling:
        window = ps[first_n : first_n + k].tolist()
        first = _checked(_window_discrepancy(a, window), score, unit, err, first_n)
    exact, best_n = first, first_n
    if first is None or first + step <= ceiling:
        # the re-score: the parts' top b2 bits, as int64, for the screen's band only
        bits = 63 - k.bit_length()
        unit = k << bits
        np.right_shift(top, 64 - bits, out=top)
        rows = np.empty((min(band.size, chunk), k), np.int64)
        _score_windows(window_view(top.view(np.int64), k)[::stride], band, rows, scores, bits)
        del top, rows
        best = int(scores[band].max())
        ceiling = min(Fraction(1), Fraction(best + err, unit))
        exact, best_n = Fraction(-1), 0
        for i in band:
            n, score = int(i) * stride, int(scores[i])
            if score < best - 2 * err:
                continue
            known = n == first_n and first is not None
            d = first if known else _window_discrepancy(a, ps[n : n + k].tolist())
            if _checked(d, score, unit, err, n) > exact:
                exact, best_n = d, n
                if exact + step > ceiling:
                    break
    return WindowScanResult(
        alpha=a,
        k=k,
        scan_limit=scan_limit,
        stride=stride,
        windows=n_windows,
        max_discrepancy_exact=exact,
        argmax_start=best_n,
    )


@dataclass(frozen=True)
class Approximant:
    """Reduced fraction a/q with q <= Q and |alpha - a/q| <= 1/(qQ).

    ``err`` is the exact value of |alpha - a/q| (the tightest bound). The
    bound is re-checked in exact arithmetic for every approximant built,
    by ``dirichlet_approx`` and on every rung of ``cluster_verify``.
    """

    a: int
    q: int
    Q: int
    err: Fraction


def _convergents(alpha: Fraction):
    """Yield the continued-fraction convergents (h, k) of alpha."""
    num, den = alpha.numerator, alpha.denominator
    h, h_prev = 1, 0
    k, k_prev = 0, 1
    while den:
        a = num // den
        num, den = den, num - a * den
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        yield h, k


def _approximants(x: Fraction, Q: int):
    """Yield the Dirichlet approximant of x for Q, then each later
    convergent a/q of x as the approximant for Q = q, from one walk of the
    convergents.

    The first is the last convergent a/q with q <= Q: the next convergent's
    denominator q' exceeds Q, so |x - a/q| < 1/(q q') < 1/(qQ) (or x = a/q
    exactly). Each later convergent a/q is within 1/(q q') < 1/q^2 of x in
    the same way, q' the next convergent's denominator (or equals x, if it
    is the last). Each bound is re-checked in exact arithmetic before its
    approximant is yielded; a violation raises VerificationError.
    """
    walk = _convergents(x)
    a, q = next(walk)  # the first convergent has q = 1 <= Q
    while q is not None:
        h, k = next(walk, (None, None))
        if k is None or k > Q:
            err = abs(x - Fraction(a, q))
            if err * q * Q > 1:
                raise VerificationError(f"convergent {a}/{q} of {x} misses the Dirichlet bound for Q={Q}")
            yield Approximant(a=a, q=q, Q=Q, err=err)
            Q = k  # each later rung is its own Q
        a, q = h, k


def dirichlet_approx(alpha: float | int | str | Fraction, Q: int) -> Approximant:
    """Best rational a/q with q <= Q in the Dirichlet sense: the last
    continued-fraction convergent a/q with q <= Q, whose bound
    |alpha - a/q| <= 1/(qQ) is re-checked in exact arithmetic; a violation
    raises VerificationError.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    return next(_approximants(parse_alpha(alpha), Q))


@dataclass(frozen=True)
class PrimeString:
    """m consecutive primes p_{r+1..r+m}, all congruent to a mod q."""

    q: int
    a: int
    m: int
    r: int
    primes: tuple[int, ...]
    diameter: int


def find_prime_string(
    q: int,
    a: int,
    m: int,
    limit: int,
    table: PrimeTable | None = None,
    *,
    max_diameter: int | None = None,
) -> PrimeString | None:
    """First run of m consecutive primes = a (mod q) with all primes <= limit.

    Returns None when no run exists below the limit (raise the limit and
    retry; absence below a finite horizon never refutes anything). With
    ``max_diameter`` set, returns the first run at least that tight. It is
    the package's one prime-string search: each rung of ``cluster_verify``
    is a call, whose convergent a/q passes the argument checks.

    The search reads the primes in ascending order, one span at a time,
    from ``primes._stream(limit, table)`` (slices of the prime cache below
    2^24 and sieved past it, or slices of ``table``), and carries the last
    m - 1 primes across each boundary, so the first run found is the first
    overall. A ``max_diameter`` or a limit below ``_narrowest_run(q, m)``,
    the width of every run but (2, 3, ..., p_m) at least, ends the search
    once p_m is read. One whole segment of the stream
    (``primes._stream_bytes``, at ``_RUN_BYTES`` per prime) and the carry,
    at ``_CARRY_BYTES`` per prime, are counted through ``reserve``,
    whatever the limit, so a search is bounded by time, not memory: it
    reads the primes to 1e9 in ~4.8 s on a 2-core x86 host.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if gcd(a, q) != 1:
        raise ValueError(f"need gcd(a, q) = 1, got gcd({a}, {q}) = {gcd(a, q)}")
    if m < 1:
        raise ValueError("m must be >= 1")
    carried = min(m - 1, _prime_count_bound(limit))
    reserve(_stream_bytes(_RUN_BYTES) + _CARRY_BYTES * carried, f"a prime-string search to {_number(limit)}")
    if table is not None and table.limit < limit:
        raise ValueError(f"table limit {table.limit} is below search limit {_number(limit)}")
    a %= q
    widest = limit if max_diameter is None else min(max_diameter, limit)
    too_tight = widest < _narrowest_run(q, m)
    carry, r = np.empty(0, dtype=np.int64), 0  # r: the index of carry[0] among the primes
    for segment in _stream(limit, table):
        ps = np.concatenate((carry, segment))
        del carry, segment
        if ps.size >= m:
            i = _first_run(ps, q, a, m, max_diameter)
            if i >= 0:
                run = tuple(ps[i : i + m].tolist())
                return PrimeString(q=q, a=a, m=m, r=r + i, primes=run, diameter=run[-1] - run[0])
            if too_tight:  # p_m is read
                return None
        keep = min(m - 1, ps.size)
        carry = ps[ps.size - keep :].copy()
        r += ps.size - keep
        del ps  # before the next segment is sieved
    return None


def _first_run(ps: np.ndarray, q: int, a: int, m: int, max_diameter: int | None) -> int:
    """The index in ps of the first run of m consecutive primes = a (mod q),
    at most max_diameter wide when it is set, or -1. It reads the indices of
    the class's primes: a run starts at at[j] when at[j + m - 1] is m - 1
    past it. Its arrays are dropped on return, before a run is listed."""
    # a prime below q is its own residue, and q may be past int64
    at = np.flatnonzero((ps if q > ps[-1] else ps % q) == a)
    first, last = at[: max(at.size - m + 1, 0)], at[m - 1 :]
    runs = first[last - first == m - 1]
    del at, first, last
    if max_diameter is not None:
        wide = ps[runs + m - 1]
        wide -= ps[runs]
        runs = runs[wide <= max_diameter]
    return int(runs[0]) if runs.size else -1


def _narrowest_run(q: int, m: int) -> int:
    """A lower bound on the width of every run of m consecutive primes in
    one class mod q but (2, 3, ..., p_m).

    Such a run is of odd primes, so its primes are p + c_i lcm(2, q) with
    0 = c_1 < ... < c_m. For q >= 3 it also misses 3: 2, 3 and 5 are
    consecutive primes, and neither 3 - 2 nor 5 - 3 is a multiple of q. If
    moreover 3 does not divide q, lcm(2, q) is a unit mod 3 and no prime of
    the run is 0 mod 3, so the c_i miss the class of -p / lcm(2, q), which
    is not the class of c_1 = 0: at most two of any three consecutive
    integers are c_i, and c_m >= 3 ((m - 1) // 2) + (m - 1) % 2, which
    (89, 97, 101) mod 4 attains. Otherwise c_m >= m - 1, which (47, 53, 59)
    mod 3 attains. This is the admissibility of prime k-tuples (Hardy &
    Littlewood, Acta Math. 44, 1923) at the prime 3.
    """
    steps = 3 * ((m - 1) // 2) + (m - 1) % 2 if q >= 3 and q % 3 else m - 1
    return math.lcm(2, q) * steps


@dataclass(frozen=True)
class ClusterReport:
    """Outcome of the end-to-end clustering verification.

    When ``found``, the report carries the approximant, the prime string,
    ``max_pair_distance``, the exact length of the shortest arc of the
    circle that holds every {alpha p} of the string (verified <= delta, so
    it equals the largest distance of alpha * (p - p') to the integers),
    and the window discrepancy (verified >= 1 - delta). When not found, the
    search horizon was exhausted (soft failure).
    """

    found: bool
    alpha: Fraction
    delta: Fraction
    m: int
    limit: int
    approximant: Approximant | None = None
    string: PrimeString | None = None
    max_pair_distance: Fraction | None = None
    window_discrepancy: Fraction | None = None
    rounds: tuple[dict, ...] = ()


def cluster_verify(
    alpha: float | int | str | Fraction,
    delta: float | Fraction,
    m: int,
    limit: int,
    *,
    table: PrimeTable | None = None,
) -> ClusterReport:
    """Find and verify a window of m consecutive primes clustering {alpha p}.

    The search climbs one ladder of approximants a/q of alpha and stops at
    the first rung with a run. The first rung follows the proof: the
    Dirichlet approximant with q <= Q = ceil(1 / delta) (the proof's
    ineffective run-diameter constant taken as 1). Each later rung is a
    continued-fraction convergent a/q with first q < q <= limit // (m - 1),
    taken with Q = q: a Dirichlet approximant with a far smaller error and a
    rarer residue class (a run of m primes in one class mod q is at least
    q (m - 1) wide). Every rung comes from one walk of the convergents, and
    its bound |alpha - a/q| <= 1/(qQ) is re-checked in exact arithmetic
    before the rung searches. A run of m consecutive primes = a (mod q)
    with diameter d has its points {alpha p} in one arc of length at most
    err * d: q divides each difference p - p', so {a p / q} is one point for
    the whole run, and each {alpha p} is that point shifted by
    (alpha - a/q) p. Each rung accepts only runs with err * d <= delta. The found run is then
    re-checked exactly, from one sorted list of its residues num p mod den:
    the shortest arc of the circle that holds its points is at most delta
    long, and its window's discrepancy, read from the same list, is at least
    1 - delta. A violation raises VerificationError. A ladder with no run is
    a soft failure.

    Each rung is one ``find_prime_string`` call with the rung's a, q and
    diameter budget; it reads the primes from 2, from the prime cache below
    2^24 and sieved past it (or slices ``table``), and stops at its run,
    and a rung whose diameter budget is below the narrowest run it could
    hold (``_narrowest_run``) stops once it has read p_m. The checks read
    the run's own primes, which are the window, so no table is held between
    rungs. The check's m residues and scaled residues are counted through
    ``reserve`` before any rung searches, at a scan's exact count per point,
    and each rung counts its search before it reads.
    """
    a = parse_alpha(alpha)
    d = Fraction(delta)
    if not Fraction(0) < d < Fraction(1, 2):
        raise ValueError("delta must lie strictly between 0 and 1/2")
    if m < 2:
        raise ValueError("m must be >= 2")
    reserve(m * _exact_point_bytes(a), f"a cluster check of {_count(m)} points")
    rounds: list[dict] = []
    for apx in _approximants(a, math.ceil(1 / d)):
        if rounds and apx.q > limit // (m - 1):  # the first rung always runs
            break
        bound = None if apx.err == 0 else int(d / apx.err)
        string = find_prime_string(apx.q, apx.a, m, limit, table, max_diameter=bound)
        rounds.append(
            {
                "Q": apx.Q,
                "q": apx.q,
                "a": apx.a,
                "err": apx.err,
                "max_diameter": bound,
                "found": string is not None,
            }
        )
        if string is not None:
            break
    worst = disc = None
    if string is not None:
        den = a.denominator
        residues = _sorted_residues(a, string.primes)
        # the shortest arc that holds every point leaves out the widest gap
        # between neighbours on the circle, the wrap gap from the last
        # residue round to the first included
        gap = max(hi - lo for lo, hi in itertools.pairwise(residues))
        worst = Fraction(den - max(gap, den - residues[-1] + residues[0]), den)
        if worst > d:
            raise VerificationError(f"cluster arc bound violated: {worst} > {d}")
        disc = _exact_discrepancy(residues, den)
        if disc < 1 - d:
            raise VerificationError(f"window discrepancy {disc} below 1 - delta = {1 - d}")
    return ClusterReport(
        found=string is not None,
        alpha=a,
        delta=d,
        m=m,
        limit=limit,
        approximant=None if string is None else apx,
        string=string,
        max_pair_distance=worst,
        window_discrepancy=disc,
        rounds=tuple(rounds),
    )
