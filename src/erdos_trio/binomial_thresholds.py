"""Small-prime parts of binomial coefficients and the threshold they define.

For 0 <= k <= n let u(n, k) be the product over primes p <= k of
p^{v_p(C(n, k))}, and let f(n) be the least k with u(n, k) > n^2 (strict).
This module computes v_p(C(n, k)) in two independent forms, builds the full
valuation profile of u(n, k), scans for f(n) with a float fast path that
falls back to exact big-integer comparison near the decision boundary,
evaluates the averaging certificate that witnesses f(n) = O((log n)^2), and
constructs the composite witness M_K = prod_{p<=K} p^{floor(log_p K)+1}
whose predecessor satisfies f(M_K - 1) > K.

n is never expanded into factorials: ``valuation_binomial`` peels the base-p
digits of n and k by repeated division by p, and the incremental sweep reads
residues n mod p^t, so n may be an arbitrary-precision integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Literal

import numpy as np

from .errors import ResourceLimitError, VerificationError
from .primes import DEFAULT_MEMORY_BUDGET, _prime_list, is_prime

# Half-width of the log-space band around log(n^2) inside which the
# u(n,k) > n^2 decision is re-made with exact integers. Accumulated float
# error in the scan is ~1e-11, far inside the band.
GUARD_BAND = 1e-6

# Default certificate constant: 24/(pi^2 - 6) + 0.01, slightly above the
# smallest constant for which the averaging argument closes.
DEFAULT_CERTIFICATE_C = 24.0 / (math.pi**2 - 6.0) + 0.01

# Block indices j = 2..9 reported in the certificate diagnostics.
_DIAGNOSTIC_BLOCKS = 8

# Primes below this bound are checked against a cached set, larger ones by
# Miller-Rabin; the set holds the 6,542 primes below 2^16.
_SMALL_PRIME_BOUND = 1 << 16

# Peak bytes per entry of k = 0..n in valuation_row: the legendre path holds
# seven int32 rows at once (the zero row, k, n - k, both floor sums, one
# temporary and the difference), and the int64 result plus the five rows
# still alive at that point take the same 28 bytes.
_ROW_BYTES = 7 * 4


def _check_prime(p: int) -> None:
    """Raise ValueError unless p is prime: a set lookup below
    ``_SMALL_PRIME_BOUND``, Miller-Rabin at and above it."""
    if not (p in _small_primes() if p < _SMALL_PRIME_BOUND else is_prime(p)):
        raise ValueError(f"{p} is not prime")


@cache
def _small_primes() -> frozenset[int]:
    return frozenset(_prime_list(_SMALL_PRIME_BOUND - 1))


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
    _check_prime(p)
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


def valuation_row(
    n: int, p: int, method: Literal["indicator", "legendre"] = "indicator"
) -> np.ndarray:
    """Vector of v_p(C(n, k)) for k = 0..n.

    Vectorized over k in int32 rows; the scalar ``valuation_binomial`` covers
    arbitrary-precision n. Raises ResourceLimitError when the rows would not
    fit in ``DEFAULT_MEMORY_BUDGET`` bytes (read at call time), which also
    keeps n far below 2^31, where int32 would overflow.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    need = _ROW_BYTES * (n + 1)
    if need > DEFAULT_MEMORY_BUDGET:
        raise ResourceLimitError(
            f"valuation_row(n={n}) needs ~{need} bytes; budget is {DEFAULT_MEMORY_BUDGET}"
        )
    _check_prime(p)
    out = np.zeros(n + 1, dtype=np.int32)
    ks = np.arange(n + 1, dtype=np.int32)
    q = p
    if method == "indicator":
        while q <= n:
            out += n % q < ks % q
            q *= p
    elif method == "legendre":
        nm = n - ks
        nf = 0  # sum_t n // p^t, accumulated scalar
        down = np.zeros(n + 1, dtype=np.int32)  # sum_t (n - k) // p^t
        up = np.zeros(n + 1, dtype=np.int32)  # sum_t k // p^t
        while q <= n:
            nf += n // q
            down += nm // q
            up += ks // q
            q *= p
        out = nf - down - up
    else:
        raise ValueError(f"unknown method {method!r}")
    return out.astype(np.int64)


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
    k in {0, 1} gives the empty product u = 1.
    """
    if k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    vals: dict[int, int] = {}
    u = 1
    for p in _prime_list(k) if k >= 2 else ():
        v = valuation_binomial(n, k, p)
        vals[p] = v
        if v:
            u *= p**v
    return ValuationProfile(n=n, k=k, valuations=vals, exact_u=u)


def _log_u_series(n: int, k_max: int) -> np.ndarray:
    """log u(n, k) for k = 0..k_max, in one incremental sweep.

    Uses C(n, k) = C(n, k-1) * (n - k + 1) / k: each step adjusts the
    exponent ledger by the tracked-prime factors of the numerator n - k + 1
    and the denominator k. A prime p joins the product u at k = p, at which
    point its accumulated exponent is added to the running log. Factor
    positions come from residues n mod p^t, so n may be huge.
    """
    if not 1 <= k_max <= n:
        raise ValueError("need 1 <= k_max <= n")
    primes = _prime_list(k_max)
    events: list[list[tuple[int, int]]] = [[] for _ in range(k_max + 1)]
    for p in primes:
        # numerator n - k + 1 divisible by p^t  <=>  k = (n + 1) mod p^t (+ j p^t)
        q = p
        while q <= n:
            k0 = (n + 1) % q
            if k0 == 0:
                k0 = q
            for k in range(k0, k_max + 1, q):
                events[k].append((p, 1))
            q *= p
        # denominator k divisible by p^t
        q = p
        while q <= k_max:
            for k in range(q, k_max + 1, q):
                events[k].append((p, -1))
            q *= p

    prime_set = frozenset(primes)
    logs = {p: math.log(p) for p in primes}
    exponents: dict[int, int] = dict.fromkeys(primes, 0)
    out = np.zeros(k_max + 1, dtype=np.float64)
    running = 0.0
    for k in range(1, k_max + 1):
        for p, step in events[k]:
            exponents[p] += step
            if p < k:
                running += step * logs[p]
        if k in prime_set:
            running += exponents[k] * logs[k]
        out[k] = running
    return out


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of the f(n) scan.

    ``f`` is None when no k <= n satisfies u(n, k) > n^2 (tiny n only).
    ``decided_exactly`` records whether the deciding comparison fell inside
    the float guard band and was settled with exact integers.
    """

    n: int
    f: int | None
    decided_exactly: bool


def _exceeds_square(n: int, k: int) -> bool:
    """Exact big-integer test u(n, k) > n^2 (used inside the guard band)."""
    return u_profile(n, k).exact_u > n * n


def f_threshold(n: int) -> ThresholdResult:
    """Least k <= n with u(n, k) > n^2, scanning k ascending.

    The scan compares log u(n, k) against 2 log n in float; any comparison
    landing within ``GUARD_BAND`` of the boundary is re-decided with exact
    integer arithmetic, so float rounding can never pick the wrong k.

    The sweep covers k <= min(n, 64) first and doubles its window until it
    finds f(n) or reaches n. This is exact for every n: the value of
    ``_log_u_series(n, K)`` at k depends only on factor events at positions
    <= k, and a prime p enters the running sum only at k = p, so the first
    k + 1 entries are the same bits for every K >= k. A wider window only
    repeats the comparisons a narrower one already made.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    target = 2.0 * math.log(n)
    k_max = min(n, 64)
    while True:
        logs = _log_u_series(n, k_max)
        for k in range(1, k_max + 1):
            d = logs[k] - target
            if d > GUARD_BAND:
                return ThresholdResult(n=n, f=k, decided_exactly=False)
            if d >= -GUARD_BAND and _exceeds_square(n, k):
                return ThresholdResult(n=n, f=k, decided_exactly=True)
        if k_max == n:
            return ThresholdResult(n=n, f=None, decided_exactly=False)
        k_max = min(n, 2 * k_max)


@dataclass(frozen=True)
class CertificateReport:
    """Averaging certificate for the polylog upper bound on f(n).

    ``average`` is (1/Y) * sum_{k<=Y} log u(n, k) with Y = floor(C (log n)^2);
    average > 2 log n certifies f(n) <= Y. Diagnostics expose, for each
    block index j, the prime set P_j = {p <= Y/j}, T_j = sum log p,
    R_j = sum (p - n mod p) log p and the block depth M_j = floor(Y/(j log n))
    used by the averaging argument.
    """

    n: int
    c: float
    y: int
    average: float
    threshold: float
    certified: bool
    argmax_k: int
    max_log_u: float
    diagnostics: tuple[dict, ...] = ()


def certificate_average(n: int, c: float = DEFAULT_CERTIFICATE_C) -> CertificateReport:
    """Mean of log u(n, k) over 1 <= k <= Y, Y = floor(c * (log n)^2).

    Requires Y >= 1 and Y <= n (the mean is over defined u values only).
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if c <= 0:
        raise ValueError("c must be positive")
    log_n = math.log(n)
    y = int(c * log_n * log_n)
    if y < 1:
        raise ValueError(f"Y = floor(c (log n)^2) = {y} < 1")
    if y > n:
        raise ValueError(f"Y = {y} exceeds n = {n}; u(n, k) is undefined past n")
    logs = _log_u_series(n, y)
    body = logs[1:]
    average = float(np.mean(body))
    argmax = int(np.argmax(body)) + 1
    diag = []
    for j in range(2, _DIAGNOSTIC_BLOCKS + 2):
        bound = y // j
        block = _prime_list(bound) if bound >= 2 else ()
        diag.append(
            {
                "j": j,
                "prime_bound": bound,
                "T_j": sum(math.log(p) for p in block),
                "R_j": sum((p - n % p) * math.log(p) for p in block),
                "M_j": int(y / (j * log_n)),
            }
        )
    return CertificateReport(
        n=n,
        c=c,
        y=y,
        average=average,
        threshold=2.0 * log_n,
        certified=average > 2.0 * log_n,
        argmax_k=argmax,
        max_log_u=float(body[argmax - 1]),
        diagnostics=tuple(diag),
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


def lower_bound_witness(K: int) -> WitnessMK:
    """Construct M_K and machine-check that f(M_K - 1) > K.

    Verifies, for n = M_K - 1 and every k <= K, in two independent ways
    that u(n, k) = 1: (i) v_p(C(n, k)) = 0 for every p <= K by Legendre floor
    sums, and (ii) ``u_profile``, which counts base-p carries, gives an exact
    u of 1. A failure is a VerificationError: it would contradict a proved
    statement.

    Both checks are cheap however large n is: n = -1 mod p^{e_p} makes the
    low e_p base-p digits of n all p - 1, and k <= K < p^{e_p}, so both
    forms of ``valuation_binomial`` reach their early exit within e_p digits.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    exponents: dict[int, int] = {}
    m = 1
    for p in _prime_list(K):
        e = 1
        while p**e <= K:
            e += 1
        exponents[p] = e
        m *= p**e
    n = m - 1
    for k in range(K + 1):
        for p in exponents:
            v = valuation_binomial(n, k, p, method="legendre")
            if v != 0:
                raise VerificationError(
                    f"v_{p}(C(M_{K}-1, {k})) = {v} != 0; witness property fails"
                )
        if u_profile(n, k).exact_u != 1:
            raise VerificationError(f"u(M_{K}-1, {k}) != 1")
    return WitnessMK(
        K=K, M_K=m, exponents=exponents, log_ratio=math.log(m) / K
    )
