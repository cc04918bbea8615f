"""Windowed discrepancy of {alpha * p_n} and the clustering that breaks it.

A sequence is well-distributed when its windowed interval counts converge
to interval lengths uniformly over the window start. For x_m = {alpha p_m}
that fails: a Dirichlet approximant a/q of alpha plus a run of m consecutive
primes in one residue class mod q forces the m fractional parts into an
interval of width delta, so the window's discrepancy is at least 1 - delta.

Everything here runs on exact rationals. alpha is held as a Fraction (a
float input contributes its exact dyadic value; "sqrt:N" and "golden" are
synthesized to a configurable number of bits), {alpha p} is an exact
rational reduced mod 1, and the clustering inequalities are re-checked in
exact arithmetic before a witness is reported.

Interval discrepancy has a closed form (Kuipers & Niederreiter, Uniform
Distribution of Sequences, 1974, Ch. 2, Thm 1.4): for sorted x_1..x_k in
[0, 1), D = 1/k + max_i(x_i - i/k) - min_i(x_i - i/k). One kernel
evaluates it along the last axis of an array, so the same code scores a
float64 matrix of scan windows, one float sample, or an object array of
Fractions, where it is exact. The result type follows the input: Fraction
points (such as a ``window_sample``) give a Fraction, floats give a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence

import numpy as np

from .errors import VerificationError, reserve
from .primes import PrimeTable, _prime_count_bound, sieve_primes

# Largest gap allowed between a scan's float64 maximum and the exact
# discrepancy of its argmax window.
_SCAN_RECHECK_TOL = 1e-12

# Peak bytes of a window scan, counted in three parts. Per scanned prime:
# its share of the table, a Python float and the float64 array of
# fractional parts (tracemalloc: 49.4-49.6 at 1e6, 4e6 and 8e6 primes,
# k = 10, stride 1000). Per float64 entry of one chunk of windows: three
# 8-byte copies live at once while a chunk is gathered, sorted and scored
# (18.9-24.0). Per point of the exact re-check of the argmax window:
# _POINT_BYTES + 24 * (bits // 30), bits the bit length of alpha's
# denominator, for the Fraction sample, its sorted copy and the kernel's
# Fraction rows (400 + 24 * (bits // 30) at k = 2,000 and 20,000 with
# 54- to 4,096-bit denominators).
_PART_BYTES = 56
_ENTRY_BYTES = 32
_POINT_BYTES = 440
# Windows scored per chunk: chunks hold about 2^22 float64 entries.
_CHUNK_ENTRIES = 1 << 22

# Peak bytes of a prime-string search per prime of the 1.3 x / ln x bound:
# the 8-byte table entry plus 18 bytes of mask, cumulative sums and run
# test (tracemalloc, sieve included: 24.3, 22.4, 21.8 and 21.5 at limits
# 1e4, 1e5, 1e6 and 1e7).
_STRING_BYTES = 26

DEFAULT_ALPHA_BITS = 256

# Most fractional bits of a synthesized alpha: synthesis takes 3.3 s at 1e6
# bits, and past ~14,000 bits a/b is too long for Python's int-to-str limit.
_MAX_ALPHA_BITS = 8192


def parse_alpha(value: float | int | str | Fraction, precision_bits: int = DEFAULT_ALPHA_BITS) -> Fraction:
    """Parse alpha into an exact Fraction.

    Accepted forms: Fraction/int (taken as-is), float (its exact dyadic
    value), decimal or 'a/b' strings (exact), 'sqrt:N' and 'golden'
    (rounded down to ``precision_bits`` fractional bits). ``precision_bits``
    outside [1, 8192] is a ValueError, whatever the form.
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
        if text.startswith("sqrt:"):
            n = int(text.split(":", 1)[1])
            if n < 0:
                raise ValueError("sqrt requires a nonnegative integer")
            return Fraction(isqrt(n << (2 * precision_bits)), 1 << precision_bits)
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"alpha {text!r} has a zero denominator") from None
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


def window_sample(
    alpha: float | int | str | Fraction, n: int, k: int, table: PrimeTable
) -> tuple[Fraction, ...]:
    """Sorted fractional parts {alpha p_m} for n < m <= n + k, as exact rationals."""
    if k < 1:
        raise ValueError("window size k must be >= 1")
    if n < 0:
        raise ValueError("start index must be >= 0")
    if n + k > len(table):
        raise ValueError(
            f"window needs prime index {n + k}; table holds {len(table)} primes"
        )
    a = parse_alpha(alpha)
    return tuple(sorted(fractional_part(a, int(p)) for p in table.primes[n : n + k]))


def _discrepancy(xs: np.ndarray):
    """Closed-form interval discrepancy along the last axis of a sorted array.

    Works on float64 arrays and on object arrays of Fractions (exactly).
    Float rounding can overshoot 1 by an ulp; exact values never exceed 1,
    so the cap returns them unchanged.
    """
    k = xs.shape[-1]
    ys = k * xs - np.arange(1, k + 1)
    return np.minimum((1 + ys.max(axis=-1) - ys.min(axis=-1)) / k, 1)


def interval_discrepancy(points: Sequence[Fraction | float]) -> float | Fraction:
    """Sup over intervals [a, b] of |count/k - (b - a)| for points in [0, 1).

    Uses the closed form D = 1/k + max_i(x_i - i/k) - min_i(x_i - i/k) over
    the sorted points (Kuipers & Niederreiter 1974, Ch. 2, Thm 1.4). The
    result type follows the input: any Fraction among the points gives the
    exact Fraction (floats among them count at their exact dyadic value);
    all-float input is scored in float64 and gives a float. A point outside
    [0, 1) raises ValueError.
    """
    pts = list(points)
    if not pts:
        raise ValueError("discrepancy needs at least one point")
    exact = any(isinstance(x, Fraction) for x in pts)
    if exact:
        xs = np.array(sorted(Fraction(x) for x in pts), dtype=object)
    else:
        xs = np.sort(np.asarray(pts, dtype=np.float64))
    if not 0 <= xs[0] <= xs[-1] < 1:
        raise ValueError(f"points must lie in [0, 1); got {xs[0]} .. {xs[-1]}")
    d = _discrepancy(xs)
    return d if exact else float(d)


@dataclass(frozen=True)
class WindowScanResult:
    """Max windowed discrepancy over scanned start indices (a lower bound
    on the true supremum over all starts).

    ``max_discrepancy_exact`` is the exact discrepancy of the window at
    ``argmax_start``; ``max_discrepancy`` is its float value.
    """

    alpha: Fraction
    k: int
    scan_limit: int
    stride: int
    windows: int
    max_discrepancy: float
    max_discrepancy_exact: Fraction
    argmax_start: int


def well_distribution_statistic(
    alpha: float | int | str | Fraction,
    k: int,
    scan_limit: int,
    stride: int = 1,
    table: PrimeTable | None = None,
) -> WindowScanResult:
    """Scan windows of size k starting at n = 0, stride, ..., <= scan_limit.

    Every window is scored in float64; ties in the maximum resolve to the
    smallest start index. The argmax window is then re-sampled and scored
    exactly, and a float maximum more than 1e-12 away from that exact value
    raises VerificationError. Only the reported value is exact: which of
    several windows within float rounding of each other wins is not
    re-decided (for a rational alpha every window can tie, so re-scoring
    the ties could cost more than the scan). The scan needs scan_limit + k
    primes; a table that cannot supply them is an error. Its primes, one
    chunk of windows and the exact re-check are counted through
    ``reserve`` before the table is sieved.
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
        + k * (_POINT_BYTES + 24 * (a.denominator.bit_length() // 30)),
        f"a scan of {n_windows} windows of {k} primes",
    )
    if table is None:
        bound = max(100, int(needed * (math.log(max(needed, 6)) + math.log(math.log(max(needed, 6))) + 1)))
        table = sieve_primes(bound)
    if len(table) < needed:
        raise ValueError(f"scan needs {needed} primes; table holds {len(table)}")
    num, den = a.numerator, a.denominator
    parts = np.array(
        [(num * int(p) % den) / den for p in table.primes[:needed]], dtype=np.float64
    )
    starts = np.arange(0, scan_limit + 1, stride)
    best_d = -1.0
    best_n = 0
    for off in range(0, starts.size, chunk):
        sub = starts[off : off + chunk]
        windows = np.sort(parts[sub[:, None] + np.arange(k)[None, :]], axis=1)
        ds = _discrepancy(windows)
        i = int(np.argmax(ds))
        if ds[i] > best_d:
            best_d = float(ds[i])
            best_n = int(sub[i])
    exact = interval_discrepancy(window_sample(a, best_n, k, table))
    if abs(float(exact) - best_d) > _SCAN_RECHECK_TOL:
        raise VerificationError(
            f"window at {best_n}: scan scored {best_d}, exact discrepancy is {float(exact)}"
        )
    return WindowScanResult(
        alpha=a,
        k=k,
        scan_limit=scan_limit,
        stride=stride,
        windows=int(starts.size),
        max_discrepancy=float(exact),
        max_discrepancy_exact=exact,
        argmax_start=best_n,
    )


@dataclass(frozen=True)
class Approximant:
    """Reduced fraction a/q with q <= Q and |alpha - a/q| <= 1/(qQ).

    ``err`` is the exact value of |alpha - a/q| (the tightest bound).
    """

    a: int
    q: int
    Q: int
    err: Fraction


def _convergents(alpha: Fraction):
    """Yield the continued-fraction convergents (h, k) of alpha."""
    num, den = alpha.numerator, alpha.denominator
    h_prev, h = 1, None
    k_prev, k = 0, None
    while den:
        a = num // den
        num, den = den, num - a * den
        if h is None:
            h, k = a, 1
        else:
            h, h_prev = a * h + h_prev, h
            k, k_prev = a * k + k_prev, k
        yield h, k


def dirichlet_approx(alpha: float | int | str | Fraction, Q: int) -> Approximant:
    """Best rational a/q with q <= Q in the Dirichlet sense.

    Takes the last continued-fraction convergent a/q with q <= Q. The next
    convergent's denominator q' exceeds Q, so |alpha - a/q| < 1/(q q') <
    1/(qQ) (or alpha = a/q exactly). The bound is re-checked in exact
    arithmetic; a violation raises VerificationError.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    x = parse_alpha(alpha)
    for h, k in _convergents(x):  # the first convergent has k = 1 <= Q
        if k > Q:
            break
        a, q = h, k
    err = abs(x - Fraction(a, q))
    if err * q * Q > 1:
        raise VerificationError(f"convergent {a}/{q} of {x} misses the Dirichlet bound for Q={Q}")
    return Approximant(a=a, q=q, Q=Q, err=err)


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
    ``max_diameter`` set, returns the first run at least that tight. The
    table and the search are counted through ``reserve`` before the table
    is sieved.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if gcd(a, q) != 1:
        raise ValueError(f"need gcd(a, q) = 1, got gcd({a}, {q}) = {gcd(a, q)}")
    if m < 1:
        raise ValueError("m must be >= 1")
    table = _string_table(limit, table)
    if table.limit < limit:
        raise ValueError(f"table limit {table.limit} is below search limit {limit}")
    ps = table.primes[: table.count(limit)]
    if ps.size < m:
        return None
    mask = (ps % q) == (a % q)
    cums = np.concatenate([[0], np.cumsum(mask)])
    run_starts = np.flatnonzero(cums[m:] - cums[:-m] == m)
    if run_starts.size == 0:
        return None
    diameters = ps[run_starts + m - 1] - ps[run_starts]
    if max_diameter is not None:
        run_starts = run_starts[diameters <= max_diameter]
        if run_starts.size == 0:
            return None
    r = int(run_starts[0])
    run = tuple(int(p) for p in ps[r : r + m])
    return PrimeString(
        q=q, a=a % q, m=m, r=r, primes=run, diameter=run[-1] - run[0]
    )


def _string_table(limit: int, table: PrimeTable | None) -> PrimeTable:
    """``table``, or the primes <= limit when it is None, once a prime-string
    search to ``limit`` has been counted through ``reserve``."""
    reserve(_STRING_BYTES * _prime_count_bound(limit), f"a prime-string search to {limit}")
    return sieve_primes(limit) if table is None else table


@dataclass(frozen=True)
class ClusterReport:
    """Outcome of the end-to-end clustering verification.

    When ``found``, the report carries the approximant, the prime string,
    the exact maximum pairwise distance of alpha * (p - p') to the integers
    (verified <= delta), and the window discrepancy (verified >= 1 - delta).
    When not found, the search horizon was exhausted (soft failure).
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

    Round 1 follows the proof shape directly: Q = ceil(1 / delta) (the
    proof's ineffective run-diameter constant taken as 1) and the Dirichlet
    approximant a/q with q <= Q. A run of m consecutive primes = a (mod q)
    with diameter d satisfies every pairwise bound
    ||alpha (p - p')|| <= err * d (q divides each difference), so the
    search accepts only runs with err * d <= delta. If none exists below
    the limit, later rounds climb the convergent ladder of alpha: each
    convergent a_i/q_i is itself a Dirichlet approximant (for Q = q_i) with
    rapidly shrinking error, trading a rarer residue class for a far looser
    diameter budget. On success every inequality is re-checked in exact
    rational arithmetic; exhausting the ladder is a soft failure.
    """
    a = parse_alpha(alpha)
    d = Fraction(delta)
    if not Fraction(0) < d < Fraction(1, 2):
        raise ValueError("delta must lie strictly between 0 and 1/2")
    if m < 2:
        raise ValueError("m must be >= 2")
    table = _string_table(limit, table)
    rounds: list[dict] = []
    # any run of m distinct primes in one class mod q has diameter >= q(m-1)
    q_cap = max(1, limit // max(m - 1, 1))

    def _try(apx: Approximant) -> ClusterReport | None:
        res = apx.a % apx.q
        bound = None if apx.err == 0 else int(d / apx.err)
        string = find_prime_string(
            apx.q, res, m, limit, table=table, max_diameter=bound
        )
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
        if string is None:
            return None
        worst = max(
            torus_distance(a, pj - pi)
            for i, pi in enumerate(string.primes)
            for pj in string.primes[i + 1 :]
        )
        if worst > d:
            raise VerificationError(
                f"pairwise clustering bound violated: {worst} > {d}"
            )
        disc = interval_discrepancy(window_sample(a, string.r, m, table))
        if disc < 1 - d:
            raise VerificationError(
                f"window discrepancy {disc} below 1 - delta = {1 - d}"
            )
        return ClusterReport(
            found=True,
            alpha=a,
            delta=d,
            m=m,
            limit=limit,
            approximant=apx,
            string=string,
            max_pair_distance=worst,
            window_discrepancy=disc,
            rounds=tuple(rounds),
        )

    first = dirichlet_approx(a, math.ceil(1 / d))
    report = _try(first)
    if report is not None:
        return report
    for h, q in _convergents(a):
        if q > q_cap:
            break
        if q <= first.q:
            continue
        err = abs(a - Fraction(h, q))
        report = _try(Approximant(a=h, q=q, Q=q, err=err))
        if report is not None:
            return report
    return ClusterReport(
        found=False,
        alpha=a,
        delta=d,
        m=m,
        limit=limit,
        rounds=tuple(rounds),
    )
