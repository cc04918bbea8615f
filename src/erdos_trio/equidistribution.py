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
exact arithmetic before a witness is reported. Discrepancies of float
samples evaluate the two finite families over the sorted points; both an
O(k^2) family scan and an equivalent O(k) sweep are provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence

import numpy as np

from .errors import VerificationError
from .primes import PrimeTable, sieve_primes

# Family scan above this size switches to the O(k) sweep (same maximum).
_FAMILY_SIZE_CUTOFF = 2048

DEFAULT_ALPHA_BITS = 256


def parse_alpha(value: float | int | str | Fraction, precision_bits: int = DEFAULT_ALPHA_BITS) -> Fraction:
    """Parse alpha into an exact Fraction.

    Accepted forms: Fraction/int (taken as-is), float (its exact dyadic
    value), decimal or 'a/b' strings (exact), 'sqrt:N' and 'golden'
    (rounded down to ``precision_bits`` fractional bits).
    """
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


@dataclass(frozen=True)
class WindowSample:
    """Sorted fractional parts {alpha p_m} for n < m <= n + k.

    ``points`` is the float64 view used by the fast paths; ``exact_points``
    carries the same values as exact rationals.
    """

    alpha: Fraction
    start: int
    size: int
    points: np.ndarray
    exact_points: tuple[Fraction, ...]


def window_sample(
    alpha: float | int | str | Fraction, n: int, k: int, table: PrimeTable
) -> WindowSample:
    """Sample the window of k fractional parts starting after index n."""
    if k < 1:
        raise ValueError("window size k must be >= 1")
    if n < 0:
        raise ValueError("start index must be >= 0")
    if n + k > len(table):
        raise ValueError(
            f"window needs prime index {n + k}; table holds {len(table)} primes"
        )
    a = parse_alpha(alpha)
    exact = sorted(fractional_part(a, int(p)) for p in table.primes[n : n + k])
    pts = np.array([float(x) for x in exact], dtype=np.float64)
    return WindowSample(alpha=a, start=n, size=k, points=pts, exact_points=tuple(exact))


def _family_discrepancy_float(xs: np.ndarray) -> float:
    """Max over the excess and deficit interval families, O(k^2) pairwise."""
    k = xs.size
    inv_k = 1.0 / k
    ys = xs - np.arange(1, k + 1) / k
    iu, ju = np.triu_indices(k)
    d_plus = float(np.max(ys[iu] - ys[ju])) + inv_k
    ext = np.concatenate([[0.0], ys, [-inv_k]])  # sentinels x_0 = 0, x_{k+1} = 1
    iu, ju = np.triu_indices(k + 2, 1)
    d_minus = float(np.max(ext[ju] - ext[iu])) + inv_k
    return min(max(d_plus, d_minus, 0.0), 1.0)


def _sweep_discrepancy(xs: np.ndarray) -> float:
    """Same maximum as the family scan, via running extrema in O(k)."""
    k = xs.size
    inv_k = 1.0 / k
    ys = xs - np.arange(1, k + 1) / k
    d_plus = float(np.max(np.maximum.accumulate(ys) - ys)) + inv_k
    ext = np.concatenate([[0.0], ys, [-inv_k]])
    d_minus = float(np.max(ext[1:] - np.minimum.accumulate(ext)[:-1])) + inv_k
    return min(max(d_plus, d_minus, 0.0), 1.0)


def _sweep_discrepancy_batch(mat: np.ndarray) -> np.ndarray:
    """Row-wise sweep discrepancy for a matrix of sorted windows."""
    w, k = mat.shape
    inv_k = 1.0 / k
    ys = mat - np.arange(1, k + 1) / k
    d_plus = np.max(np.maximum.accumulate(ys, axis=1) - ys, axis=1) + inv_k
    ext = np.concatenate(
        [np.zeros((w, 1)), ys, np.full((w, 1), -inv_k)], axis=1
    )
    cm = np.minimum.accumulate(ext, axis=1)
    d_minus = np.max(ext[:, 1:] - cm[:, :-1], axis=1) + inv_k
    return np.clip(np.maximum(d_plus, d_minus), 0.0, 1.0)


def _family_discrepancy_exact(pts: Sequence[Fraction]) -> Fraction:
    """Exact rational family maximum (both families, sentinels included)."""
    k = len(pts)
    inv_k = Fraction(1, k)
    ys = [x - Fraction(t, k) for t, x in enumerate(pts, start=1)]
    best_plus = max(
        ys[i] - ys[j] for j in range(k) for i in range(j + 1)
    ) + inv_k
    ext = [Fraction(0)] + ys + [-inv_k]
    best_minus = max(
        ext[j] - ext[i] for j in range(1, k + 2) for i in range(j)
    ) + inv_k
    best = max(best_plus, best_minus, Fraction(0))
    return min(best, Fraction(1))


def interval_discrepancy(
    sample: WindowSample | Sequence[Fraction | float], *, exact: bool | None = None
) -> float | Fraction:
    """Sup over intervals [a, b] of |count/k - (b - a)|, computed exactly.

    The supremum over all subintervals of [0, 1] is attained on two finite
    families indexed by the sorted points (excess: closed intervals between
    points; deficit: open gaps, with sentinels at 0 and 1). Float input
    evaluates the families in float64; Fraction input (or ``exact=True`` on
    a WindowSample) evaluates them in exact rational arithmetic.
    """
    if isinstance(sample, WindowSample):
        if exact:
            return _family_discrepancy_exact(list(sample.exact_points))
        xs = sample.points
    else:
        pts = list(sample)
        if not pts:
            raise ValueError("discrepancy needs at least one point")
        if exact or (exact is None and any(isinstance(x, Fraction) for x in pts)):
            return _family_discrepancy_exact(sorted(Fraction(x) for x in pts))
        xs = np.sort(np.asarray(pts, dtype=np.float64))
    if xs.size > _FAMILY_SIZE_CUTOFF:
        return _sweep_discrepancy(xs)
    return _family_discrepancy_float(xs)


def star_discrepancy(points: Sequence[float]) -> float:
    """Classical star discrepancy sup_x |#{x_i < ... <= x}/k - x| over prefixes."""
    xs = np.sort(np.asarray(list(points), dtype=np.float64))
    k = xs.size
    if k == 0:
        raise ValueError("star discrepancy needs at least one point")
    up = np.arange(1, k + 1) / k - xs
    down = xs - np.arange(0, k) / k
    return float(max(np.max(up), np.max(down), 0.0))


@dataclass(frozen=True)
class WindowScanResult:
    """Max windowed discrepancy over scanned start indices (a lower bound
    on the true supremum over all starts)."""

    alpha: Fraction
    k: int
    scan_limit: int
    stride: int
    windows: int
    max_discrepancy: float
    argmax_start: int


def well_distribution_statistic(
    alpha: float | int | str | Fraction,
    k: int,
    scan_limit: int,
    stride: int = 1,
    table: PrimeTable | None = None,
) -> WindowScanResult:
    """Scan windows of size k starting at n = 0, stride, ..., <= scan_limit.

    Ties in the maximum resolve to the smallest start index. The scan needs
    scan_limit + k primes; a table that cannot supply them is an error.
    """
    if k < 1 or stride < 1 or scan_limit < 0:
        raise ValueError("need k >= 1, stride >= 1, scan_limit >= 0")
    a = parse_alpha(alpha)
    needed = scan_limit + k
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
    chunk = max(1, (1 << 22) // max(k, 1))
    for off in range(0, starts.size, chunk):
        sub = starts[off : off + chunk]
        windows = np.sort(parts[sub[:, None] + np.arange(k)[None, :]], axis=1)
        ds = _sweep_discrepancy_batch(windows)
        i = int(np.argmax(ds))
        if ds[i] > best_d:
            best_d = float(ds[i])
            best_n = int(sub[i])
    return WindowScanResult(
        alpha=a,
        k=k,
        scan_limit=scan_limit,
        stride=stride,
        windows=int(starts.size),
        max_discrepancy=best_d,
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


def dirichlet_approx(
    alpha: float | int | str | Fraction, Q: int, *, precision_bits: int = DEFAULT_ALPHA_BITS
) -> Approximant:
    """Best rational a/q with q <= Q in the Dirichlet sense.

    Takes the last continued-fraction convergent with denominator <= Q,
    which satisfies the (non-strict) bound |alpha - a/q| <= 1/(qQ); an
    exhaustive scan over q <= Q is kept as a fallback and the bound is
    verified before returning.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    x = parse_alpha(alpha, precision_bits)
    best: tuple[int, int] | None = None
    for h, k in _convergents(x):
        if k > Q:
            break
        best = (h, k)
    if best is None:  # cannot happen: the first convergent has k = 1
        best = (round(x), 1)
    a, q = best
    err = abs(x - Fraction(a, q))
    if err * q * Q > 1:  # fallback: exhaustive over q <= Q
        for q2 in range(1, Q + 1):
            a2 = round(x * q2)
            err2 = abs(x - Fraction(a2, q2))
            if err2 * q2 * Q <= 1:
                g = gcd(a2, q2) or 1
                a, q, err = a2 // g, q2 // g, err2
                break
        else:
            raise VerificationError(f"no Dirichlet approximant for {x} with Q={Q}")
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
    ``max_diameter`` set, returns the first run at least that tight.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if gcd(a, q) != 1:
        raise ValueError(f"need gcd(a, q) = 1, got gcd({a}, {q}) = {gcd(a, q)}")
    if m < 1:
        raise ValueError("m must be >= 1")
    if table is None:
        table = sieve_primes(limit)
    elif table.limit < limit:
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
    d_target: Fraction
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
    d_target: float | Fraction | None = None,
    table: PrimeTable | None = None,
    precision_bits: int = DEFAULT_ALPHA_BITS,
) -> ClusterReport:
    """Find and verify a window of m consecutive primes clustering {alpha p}.

    Round 1 follows the proof shape directly: Q = ceil(d_target / delta)
    (``d_target`` stands in for the ineffective run-diameter constant,
    default 1) and the Dirichlet approximant a/q with q <= Q. A run of m
    consecutive primes = a (mod q) with diameter d satisfies every pairwise
    bound ||alpha (p - p')|| <= err * d (q divides each difference), so the
    search accepts only runs with err * d <= delta. If none exists below
    the limit, later rounds climb the convergent ladder of alpha: each
    convergent a_i/q_i is itself a Dirichlet approximant (for Q = q_i) with
    rapidly shrinking error, trading a rarer residue class for a far looser
    diameter budget. On success the observed diameter / q replaces
    ``d_target`` in the report and every inequality is re-checked in exact
    rational arithmetic; exhausting the ladder is a soft failure.
    """
    a = parse_alpha(alpha, precision_bits)
    d = Fraction(delta)
    if not Fraction(0) < d < Fraction(1, 2):
        raise ValueError("delta must lie strictly between 0 and 1/2")
    if m < 2:
        raise ValueError("m must be >= 2")
    if table is None:
        table = sieve_primes(limit)
    target = Fraction(d_target) if d_target is not None else Fraction(1)
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
        window = window_sample(a, string.r, m, table)
        disc = _family_discrepancy_exact(list(window.exact_points))
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
            d_target=Fraction(string.diameter, string.q),
            approximant=apx,
            string=string,
            max_pair_distance=worst,
            window_discrepancy=disc,
            rounds=tuple(rounds),
        )

    first = dirichlet_approx(a, math.ceil(target / d))
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
        d_target=target,
        rounds=tuple(rounds),
    )
