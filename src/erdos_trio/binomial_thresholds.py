"""Small-prime parts of binomial coefficients and the threshold they define.

For 0 <= k <= n let u(n, k) be the product over primes p <= k of
p^{v_p(C(n, k))}, and let f(n) be the least k with u(n, k) > n^2 (strict).
This module computes v_p(C(n, k)) in two independent forms, builds the full
valuation profile of u(n, k), keeps one exponent ledger of u(n, k) over
k = 1, 2, ... that both scans for f(n) in exact integers and sums log u(n, k)
for the averaging certificate that witnesses f(n) = O((log n)^2), and
constructs the composite witness M_K = prod_{p<=K} p^{floor(log_p K)+1}
whose predecessor satisfies f(M_K - 1) > K.

n is never expanded into factorials: ``valuation_binomial`` peels the base-p
digits of n and k by repeated division by p, and the ledger reads residues
n mod p^t, so n may be an arbitrary-precision integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Literal

import numpy as np

from .errors import VerificationError, reserve
from .primes import _prime_list, is_prime

# Default certificate constant: 24/(pi^2 - 6) + 0.01, slightly above the
# smallest constant for which the averaging argument closes.
DEFAULT_CERTIFICATE_C = 24.0 / (math.pi**2 - 6.0) + 0.01

# Block indices j = 2..9 reported in the certificate diagnostics.
_DIAGNOSTIC_BLOCKS = 8

# Primes below this bound are checked against a cached set, larger ones by
# Miller-Rabin; the set holds the 6,542 primes below 2^16.
_SMALL_PRIME_BOUND = 1 << 16

# Peak bytes per entry of k = 0..n in valuation_row (tracemalloc at n = 1e5,
# 1e6 and 3e6): the legendre path ends holding three int32 rows (k, the
# floor sum and the difference) beside the int64 result; the indicator path
# peaks at 16.
_ROW_BYTES = 3 * 4 + 8

# Peak bytes per position k of the u(n, k) ledger in _log_u_series:
# tracemalloc at n = 1e18 gives 511, 530 and 542 bytes per k at
# k_max = 29,718 / 118,872 / 343,562. Each step takes ~70 bytes and the
# steps per position grow like log log k_max, which extrapolates to ~566
# at k_max = 3.5e6, the largest window the default memory budget admits.
_STEP_BYTES = 600


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
    arbitrary-precision n. The rows are counted through ``reserve`` before
    any is built; the default budget also keeps n far below 2^31, where
    int32 would overflow.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    reserve(_ROW_BYTES * (n + 1), f"valuation_row(n={n})")
    _check_prime(p)
    ks = np.arange(n + 1, dtype=np.int32)
    q = p
    if method == "indicator":
        out = np.zeros(n + 1, dtype=np.int32)
        while q <= n:
            out += n % q < ks % q
            q *= p
    elif method == "legendre":
        nf = 0  # sum_t n // p^t, accumulated scalar
        up = np.zeros(n + 1, dtype=np.int32)  # sum_t k // p^t
        while q <= n:
            nf += n // q
            up += ks // q
            q *= p
        # sum_t (n - k) // p^t at k is the floor sum of k at n - k: up reversed
        out = nf - up - up[::-1]
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


def _u_steps(n: int, k_max: int) -> list[list[tuple[int, int]]]:
    """The exponent ledger of u(n, k): entry k, for k = 1..k_max, lists the
    factors (p, e) with u(n, k) = u(n, k - 1) * prod p^e (entry 0 is empty).

    Uses C(n, k) = C(n, k-1) * (n - k + 1) / k. Entry k holds (p, +1) or
    (p, -1) for each power of a prime p < k dividing the numerator n - k + 1
    or the denominator k, then (k, e) with e = v_k(C(n, k)) > 0 when a prime
    k joins u. For each p, its +1 steps come before its -1 steps, so its
    exponent in u only falls towards v_p(C(n, k)) >= 0 and dividing u by p
    on a -1 step is exact. Factor positions come from residues n mod p^t,
    so n may be huge.

    Entry k depends only on n and k, so the first k + 1 entries are the
    same for every k_max >= k. The ledger is counted through ``reserve``
    before any entry is built.
    """
    if not 1 <= k_max <= n:
        raise ValueError("need 1 <= k_max <= n")
    reserve(_STEP_BYTES * k_max, f"a u(n, k) sweep to k = {k_max}")
    steps: list[list[tuple[int, int]]] = [[] for _ in range(k_max + 1)]
    for p in _prime_list(k_max):
        # p joins u at k = p with v_p(C(n, p)): one for each power of p
        # dividing a numerator n - k + 1 with k <= p, less the denominator p.
        join = -1
        # numerator n - k + 1 divisible by q = p^t  <=>  k = (n + 1) mod q (+ j q)
        q = p
        while q <= n:
            k0 = (n + 1) % q or q
            if k0 <= p:
                join += 1
                k0 += q
            for k in range(k0, k_max + 1, q):
                steps[k].append((p, 1))
            q *= p
        if join:
            steps[p].append((p, join))
        # denominator k > p divisible by q = p^t
        q = p
        while q <= k_max:
            for k in range(q if q > p else 2 * p, k_max + 1, q):
                steps[k].append((p, -1))
            q *= p
    return steps


def _log_u_series(n: int, k_max: int) -> np.ndarray:
    """log u(n, k) for k = 0..k_max: the running sum of e * log p over the
    entries of ``_u_steps``, in ledger order."""
    ledger = _u_steps(n, k_max)
    logs = {p: math.log(p) for p in _prime_list(k_max)}
    out = np.zeros(k_max + 1, dtype=np.float64)
    running = 0.0
    for k in range(1, k_max + 1):
        for p, e in ledger[k]:
            running += e * logs[p]
        out[k] = running
    return out


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

    The scan carries u(n, k) itself as an exact integer, applying the steps
    of ``_u_steps`` and comparing u > n^2 after each k. Every u met before
    f(n) is at most n^2, so u stays small.

    The sweep covers k <= min(n, 64) first and doubles its window until it
    finds f(n) or reaches n. This is exact for every n: the ledger's steps
    at k do not depend on the window, so a wider window only repeats the
    comparisons a narrower one already made.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    square = n * n
    k_max = min(n, 64)
    while True:
        ledger = _u_steps(n, k_max)
        u = 1
        for k in range(1, k_max + 1):
            for p, e in ledger[k]:
                if e == -1:
                    u //= p
                else:
                    u *= p**e
            if u > square:
                return ThresholdResult(n=n, f=k, decided_exactly=True)
        if k_max == n:
            return ThresholdResult(n=n, f=None, decided_exactly=True)
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
