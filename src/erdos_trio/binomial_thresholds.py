"""Small-prime parts of binomial coefficients and the threshold they define.

For 0 <= k <= n let u(n, k) be the product over primes p <= k of
p^{v_p(C(n, k))}, and let f(n) be the least k with u(n, k) > n^2 (strict).
This module computes v_p(C(n, k)) in two independent forms, builds the full
valuation profile of u(n, k), scans for f(n) in exact integers along one
streaming pass that carries u(n, k) from k to k + 1, sums log u(n, k) over
k <= Y in closed form, by counting Kummer carries per prime power, for the
averaging certificate that witnesses f(n) = O((log n)^2), and constructs the
composite witness M_K = prod_{p<=K} p^{floor(log_p K)+1} whose predecessor
satisfies f(M_K - 1) > K.

n is never expanded into factorials: ``valuation_binomial`` peels the base-p
digits of n and k by repeated division by p, the f(n) scan divides only
n - k + 1 and n // k by primes p <= k or their gcds, and u by k, and the
certificate reads residues n mod p^t, so n may be an arbitrary-precision
integer.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .errors import VerificationError, _number, reserve
from .primes import _prime_ints, _stream, _stream_bytes, is_prime

# Default certificate constant: 24/(pi^2 - 6) + 0.01, slightly above the
# smallest constant for which the averaging argument closes.
DEFAULT_CERTIFICATE_C = 24.0 / (math.pi**2 - 6.0) + 0.01

# Peak bytes per entry of k = 0..n in valuation_row, beside any table it
# fills (tracemalloc, p = 2, 3 and 997): the indicator form takes 10.0 at
# n = 65535 and 17.3 at n = 1e3 (numpy's 8,192-entry cast buffer) from
# cached residues, and 18.0 at n = 1e5 and 1e6 where it builds them; the
# legendre form takes 12.0-12.2 from a cached table and 16.0 building one.
_ROW_BYTES = 20

# valuation_row reads k mod p^t and v_p(k!) from tables of length 2^bits > n,
# cached for the last (p, bits) while 2^bits <= _ROW_MEMO_BOUND; past it,
# each call builds the same tables at length n + 1 and keeps nothing.
_ROW_MEMO_BOUND = 1 << 16

# Peak bytes per entry and row of a residue table fill, the k row counted
# as one more row: tracemalloc gives 4.00-4.04 at 2^12 and 2^16 (4.15-4.29
# at 2^10, where array headers show), p = 2, 3 and 997.
_RESIDUE_BYTES = 4

# Peak bytes per entry of a factorial-valuation table fill: the int32 table,
# the int32 k row and one quotient row. tracemalloc gives 12.0-12.1 at 2^12
# and 2^16 (12.5 at 2^10), p = 2, 3 and 997.
_FACTORIAL_BYTES = 12

# Peak bytes per prime of one span of the certificate's stream, beside its
# mask and 4 KiB that does not grow: its int64 primes and their Python ints.
# Below 2^24 a span is a slice of the prime cache and builds no mask, and
# past it a sieve segment does. tracemalloc of the certificate, the cache
# warm, the whole peak per prime of the bound at Y, or at a whole segment's
# span when Y is longer: 35.5 at Y = 1e3, 20.0 at 1e4, 12.2 at 1e5, 11.3 at
# 3e6 (cache slices) and 36.1 at 34,356,299 (n = 1e18, c = 2e4; segments
# past 2^24), 0.21-0.66 of the count.
_STREAM_BYTES = 48

# Peak bytes per prime the u(n, k) series behind f_threshold schedules, each
# prime above _WHEEL_TOP: a one-entry list, an int key and a dict slot.
# tracemalloc on the series read to k, the worst over every prefix, per
# prime scheduled: 206-258 from 122 to 625 primes, 275-297 up to 4,034 and
# 310-335 from 5,572 to 28,884 (n = 1e6, k to 6.5e5), highest just after the
# dict resizes; n = 1.2e6 reads at most 334 to k = 6.5e5, and n = 1e18,
# 2^64 - 59 and 2^200 + 235 at most 300 to k = 3e5. f_threshold(M_40 - 1)
# peaks at 194 per prime of its 58. A scan that schedules no prime, as most
# do, peaks below 1 KB (n = 3..1999), which does not grow.
_PRIME_BYTES = 400

# Peak bytes per entry of a dict keyed by the primes to a bound, beside
# 1 KiB that does not grow: u_profile's valuations and lower_bound_witness's
# exponents. tracemalloc, filled by a loop or a comprehension, gives 45-83
# per entry from 2^6 to 2^25 entries, highest just after a resize (82.6 at
# the 23,000 primes below 2^18); a table of 4-byte indices that has just
# doubled holds at most ~90 per entry with the one it replaces.
_MAP_BYTES = 96

# The u(n, k) series takes the primes up to this bound out of n - k + 1 by
# one gcd against their product, 614,889,782,588,491,410 < 2^60, and keeps
# a position for each larger prime.
_WHEEL_TOP = 47


def valuation_binomial(
    n: int, k: int, p: int, method: Literal["indicator", "legendre"] = "indicator"
) -> int:
    """v_p(C(n, k)): exponent of the prime p in the binomial coefficient.

    Both forms divide only by p, never by p^t, and sum over t = 1, 2, ...
    only while p^t <= n, since every later term is zero. Each also stops at
    its own first t past which every remaining term is provably zero.

    ``legendre`` sums n_t - m_t - k_t, where x_t = x // p^t and m = n - k,
    using x_{t+1} = x_t // p. Every term is >= 0 because floor is
    superadditive, so n_t == m_t forces k_t == 0; every later quotient then
    keeps n == m and k == 0, and every later term is 0 - 0.

    ``indicator`` counts the t with (n mod p^t) < (k mod p^t), i.e. the
    carries when adding k and n-k in base p. It peels the base-p digits of n
    and k from the bottom; the comparison of the residues mod p^t is decided
    by their highest differing digit below t. Once k has no digits left and
    n mod p^t >= k mod p^t, every higher digit of k is 0 and cannot make n's
    residue the smaller, so no later power counts.
    """
    if k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    count = 0
    if method == "indicator":
        less = False  # (n mod p^t) < (k mod p^t) for the digits peeled so far
        while n >= p:
            a = n % p
            n //= p
            b = k % p
            k //= p
            if a != b:
                less = a < b
            if less:
                count += 1
            elif not k:
                break
        return count
    if method == "legendre":
        m = n - k
        while n >= p and n != m:
            n //= p
            m //= p
            k //= p
            count += n - m - k
        return count
    raise ValueError(f"unknown method {method!r}")


def _residue_rows(p: int, length: int) -> Iterator[tuple[int, np.ndarray]]:
    """(q, k mod q for k < length) for q = p, p^2, ... below length: one
    int32 row per power, built when it is asked for."""
    ks = np.arange(length, dtype=np.int32)
    q = p
    while q < length:
        yield q, ks % q
        q *= p


@lru_cache(maxsize=1)
def _residue_table(p: int, bits: int) -> tuple[tuple[int, np.ndarray], ...]:
    """Every row of ``_residue_rows(p, 2**bits)``, read-only. A miss counts
    the rows and the k row through ``reserve`` before it builds them."""
    length = 1 << bits
    powers, q = 0, p
    while q < length:
        powers += 1
        q *= p
    reserve(
        _RESIDUE_BYTES * (powers + 1) * length,
        f"a table of k mod {p}^t below 2^{bits}",
    )
    rows = tuple(_residue_rows(p, length))
    for _, residues in rows:
        residues.flags.writeable = False
    return rows


def _factorial_valuations(p: int, length: int) -> np.ndarray:
    """v_p(k!) = sum_t k // p^t for k < length (Legendre), as int32."""
    ks = np.arange(length, dtype=np.int32)
    out = np.zeros(length, dtype=np.int32)
    q = p
    while q < length:
        out += ks // q
        q *= p
    return out


@lru_cache(maxsize=1)
def _factorial_table(p: int, bits: int) -> np.ndarray:
    """``_factorial_valuations(p, 2**bits)``, read-only. A miss counts its
    fill through ``reserve`` before it builds the table."""
    length = 1 << bits
    reserve(_FACTORIAL_BYTES * length, f"a table of v_{p}(k!) below 2^{bits}")
    table = _factorial_valuations(p, length)
    table.flags.writeable = False
    return table


def valuation_row(
    n: int, p: int, method: Literal["indicator", "legendre"] = "indicator"
) -> np.ndarray:
    """Vector of v_p(C(n, k)) for k = 0..n, as a fresh int64 array.

    Vectorized over k; the scalar ``valuation_binomial`` covers
    arbitrary-precision n. ``indicator`` counts, for each p^t <= n, the k
    with (n mod p^t) < (k mod p^t), reading a table of residue rows k mod
    p^t. ``legendre`` reads the table F[k] = v_p(k!) and returns
    F[n] - F[k] - F[n - k]. The two tables share no code.

    The tables do not depend on n. For n < ``_ROW_MEMO_BOUND`` = 2^16 they
    are built at the power-of-two length 2^bits > n and cached read-only
    for the last (p, bits) asked, one table per form; a longer row builds
    them at length n + 1 and keeps nothing. Callers walk n upward for one p
    at a time, so a table is read until the walk outgrows it and never
    after. A residue table holds floor(log_p(2^bits - 1)) int32 rows of
    2^bits entries and a factorial table one, so the caches hold at most
    4 MiB: 3.75 MiB of residue rows (p = 2 at 2^16) and 256 KiB of v_p(k!).
    A miss builds its table before the old one is dropped.

    Every row's temporaries are counted through ``reserve`` before any is
    built, and each table fill on a cache miss; a hit counts no fill. The
    default budget also keeps n far below 2^31, where int32 would overflow.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    reserve(_ROW_BYTES * (n + 1), f"valuation_row(n={_number(n)})")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    bits = int(n).bit_length()
    memo = 1 << bits <= _ROW_MEMO_BOUND
    if method == "indicator":
        out = None  # carry counts; the first power's comparison starts them
        rows = _residue_table(p, bits) if memo else _residue_rows(p, n + 1)
        for q, residues in rows:
            if q > n:
                break
            carry = residues[: n + 1] > n % q
            del residues  # a row built for this call goes before the next is built
            if out is None:
                out = carry.astype(np.int64)
            else:
                out += carry
        return np.zeros(n + 1, dtype=np.int64) if out is None else out
    if method == "legendre":
        table = _factorial_table(p, bits) if memo else _factorial_valuations(p, n + 1)
        # v_p((n - k)!) at k is the table at n - k: the row reversed
        out = table[n] - table[: n + 1]
        out -= table[n::-1]
        return out.astype(np.int64)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class ValuationProfile:
    """Map p -> v_p(C(n, k)) over primes p <= k, with the exact integer
    u(n, k) = prod p^v they define."""

    n: int
    k: int
    valuations: dict[int, int]
    exact_u: int


def u_profile(n: int, k: int) -> ValuationProfile:
    """Valuation profile of the small-prime part u(n, k).

    Every prime p <= k appears as a key, including those with exponent 0;
    k in {0, 1} gives the empty product u = 1. The list of the primes and
    the map are each counted through ``reserve`` before they are built.
    """
    if k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    ps = _prime_ints(k)
    reserve(1024 + _MAP_BYTES * len(ps), f"the valuations of the primes to {k}")
    vals: dict[int, int] = {}
    u = 1
    for p in ps:
        v = valuation_binomial(n, k, p)
        vals[p] = v
        if v:
            u *= p**v
    return ValuationProfile(n=n, k=k, valuations=vals, exact_u=u)


def _u_series(n: int) -> Iterator[tuple[int, int]]:
    """Yield (k, u(n, k)) for k = 1, 2, ..., n in one ascending pass, u as an
    exact integer.

    Uses C(n, k) = C(n, k-1) * (n - k + 1) / k, the multiplications first.
    A prime k joins u with exponent v_k(C(n, k)) = v_k(n // k): of the
    numerators n - k + 1..n only k * (n // k) is a multiple of k, and
    v_k(k!) = 1. A composite k has only prime factors below k, all joined,
    so the step divides u by exactly k; v_p(C(n, k)) >= 0 makes that exact.

    The numerator m = n - k + 1 gives u its powers of the joined primes in
    two ways. The joined primes up to ``_WHEEL_TOP`` = 47 are one product w,
    below 2^60: g = gcd(m, w) is the product of those dividing m, and
    m //= g, u *= g, g = gcd(m, g) repeats while g > 1, one gcd per power.
    Each larger prime p is kept at its next numerator position, a k with
    k = n + 1 (mod p): the first past p is p + (n + 1) mod p, or 2p when
    that residue is 0, and a position moves on by p when it fires. Each such
    prime is counted through ``reserve`` before its position is stored; w
    is bounded, not request-sized, and is not counted.
    """
    positions: dict[int, list[int]] = {}
    u = w = 1
    scheduled = 0
    for k in range(1, n + 1):
        m = n - k + 1
        g = math.gcd(m, w)
        while g > 1:
            m //= g
            u *= g
            g = math.gcd(m, g)
        for p in positions.pop(k, ()):
            m //= p
            u *= p
            while not m % p:
                m //= p
                u *= p
            positions.setdefault(k + p, []).append(p)
        if is_prime(k):
            j = n // k
            while not j % k:
                j //= k
                u *= k
            if k <= _WHEEL_TOP:
                w *= k
            else:
                scheduled += 1
                reserve(_PRIME_BYTES * scheduled, f"the u(n, k) series past k = {k}")
                positions.setdefault(k + ((n + 1) % k or k), []).append(k)
        else:
            u //= k
        yield k, u


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of the f(n) scan.

    ``f`` is None when no k <= n satisfies u(n, k) > n^2 (tiny n only).
    ``decided_exactly`` is True for every result: every comparison of the
    scan is between exact integers.
    """

    n: int
    f: int | None
    decided_exactly: bool


def f_threshold(n: int) -> ThresholdResult:
    """Least k <= n with u(n, k) > n^2, scanning k ascending.

    The scan reads u(n, k) as an exact integer from ``_u_series`` and stops
    at the first k whose u exceeds n^2. Every u met before f(n) is at most
    n^2, so u stays small.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    square = n * n
    for k, u in _u_series(n):
        if u > square:
            return ThresholdResult(n=n, f=k, decided_exactly=True)
    return ThresholdResult(n=n, f=None, decided_exactly=True)


def _carries(n: int, y: int, p: int) -> int:
    """N_p = sum of v_p(C(n, k)) over p <= k <= y, for a prime p <= y <= n.

    By Kummer, v_p(C(n, k)) counts the t >= 1 with k mod p^t > n mod p^t,
    so N_p adds, for each q = p^t, the k in [p, y] with k mod q > r, where
    r = n mod q. Of k in [0, y], the (y + 1) // q full periods hold q - 1 - r
    each and the partial one max(0, (y + 1) mod q - 1 - r); of k in
    [0, p - 1], all below q, max(0, p - 1 - r) count. r never decreases in
    t and no k <= y counts once r >= y, which ends the powers; past n,
    r = n >= y.
    """
    count = 0
    q = p
    r = n % q
    while r < y:
        full, part = divmod(y + 1, q)
        count += full * (q - 1 - r) + max(0, part - 1 - r) - max(0, p - 1 - r)
        q *= p
        r = n % q
    return count


@dataclass(frozen=True)
class CertificateReport:
    """Averaging certificate for the polylog upper bound on f(n).

    ``average`` is (1/Y) * sum_{k<=Y} log u(n, k) with Y = floor(C (log n)^2);
    average > 2 log n certifies f(n) <= Y.
    """

    n: int
    c: float
    y: int
    average: float
    threshold: float
    certified: bool


def certificate_average(n: int, c: float = DEFAULT_CERTIFICATE_C) -> CertificateReport:
    """Mean of log u(n, k) over 1 <= k <= Y, Y = floor(c * (log n)^2).

    Requires Y >= 1 and Y <= n (the mean is over defined u values only).
    The sum is sum_{p<=Y} N_p log p, each N_p from ``_carries`` in O(log_p n)
    floor divisions, added by ``math.fsum``. The primes <= Y are read once,
    in ascending order, from ``primes._stream(Y)``, one span at a time:
    slices of the prime cache below 2^24, sieve segments past it. The
    certificate holds no prime list of its own; one span of the stream
    (``primes._stream_bytes`` at ``_STREAM_BYTES`` per prime) and 4 KiB are
    counted through ``reserve`` before a prime is read.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if not 0 < c < math.inf:  # NaN fails both comparisons
        raise ValueError(f"c must be a finite positive number, not {c}")
    log_n = math.log(n)
    y = int(c * log_n * log_n)
    if y < 1:
        raise ValueError(f"Y = floor(c (log n)^2) = {y} < 1")
    if y > n:
        raise ValueError(f"Y = {y} exceeds n = {n}; u(n, k) is undefined past n")
    reserve(_stream_bytes(_STREAM_BYTES, y) + 4096, f"a segment of the primes to {y}")
    average = math.fsum(_carries(n, y, p) * math.log(p) for ps in _stream(y) for p in ps.tolist()) / y
    return CertificateReport(
        n=n,
        c=c,
        y=y,
        average=average,
        threshold=2.0 * log_n,
        certified=average > 2.0 * log_n,
    )


@dataclass(frozen=True)
class WitnessMK:
    """The composite witness M_K and its verified properties.

    M_K = prod_{p<=K} p^{e_p} with p^{e_p - 1} <= K < p^{e_p}. Its
    predecessor n = M_K - 1 satisfies u(n, k) = 1 for every k <= K, hence
    f(n) > K. Since M_K = lcm(1..K) * prod_{p<=K} p, ``log_ratio`` =
    log(M_K)/K equals (psi(K) + theta(K))/K. It is below 2.06 for every K
    (Rosser-Schoenfeld 1962, Theorems 9 and 12) and at least 1.5 for every
    K >= 17; below 17 it can dip lower (1.3179 at K = 10).
    """

    K: int
    M_K: int
    exponents: dict[int, int]
    log_ratio: float


def _witness_exponent(p: int, K: int) -> int:
    """The least e with p^e > K: the exponent of p in M_K."""
    e = 1
    while p**e <= K:
        e += 1
    return e


def lower_bound_witness(K: int) -> WitnessMK:
    """Construct M_K and machine-check that f(M_K - 1) > K, in closed form.

    For every prime p <= K, checks p^{e_p - 1} <= K < p^{e_p} and
    n = M_K - 1 = -1 (mod p^{e_p}): the low e_p base-p digits of n are all
    p - 1, and every k <= K fits in them, so k + (n - k) has no carry in
    base p and v_p(C(n, k)) = 0 by Kummer's theorem. Hence u(n, k) = 1 for
    every k <= K. That is pi(K) big-integer reductions; ``tests/oracles.py``
    keeps the check per k as the reference. A failure is a
    VerificationError: it would contradict a proved statement. The list of
    the primes and the map of exponents are each counted through ``reserve``
    before they are built.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    ps = _prime_ints(K)
    reserve(1024 + _MAP_BYTES * len(ps), f"the exponents of the primes to {K}")
    exponents = {p: _witness_exponent(p, K) for p in ps}
    m = math.prod(p**e for p, e in exponents.items())
    n = m - 1
    for p, e in exponents.items():
        q = p**e
        if not (q // p <= K < q and n % q == q - 1):
            raise VerificationError(
                f"M_{K}-1 is not -1 mod {p}^{e} with {p}^{e - 1} <= {K} < {p}^{e}; "
                "witness property fails"
            )
    return WitnessMK(
        K=K, M_K=m, exponents=exponents, log_ratio=math.log(m) / K
    )
