"""Small-prime parts of binomial coefficients and the threshold they define.

For 0 <= k <= n let u(n, k) be the product over primes p <= k of
p^{v_p(C(n, k))}, and let f(n) be the least k with u(n, k) > n^2 (strict).
This module computes v_p(C(n, k)) in two independent forms, builds the full
valuation profile of u(n, k), scans for f(n) with a float fast path that
falls back to exact big-integer comparison near the decision boundary,
evaluates the averaging certificate that witnesses f(n) = O((log n)^2), and
constructs the composite witness M_K = prod_{p<=K} p^{floor(log_p K)+1}
whose predecessor satisfies f(M_K - 1) > K.

n is never expanded into factorials: every valuation is derived from
residues n mod p^t, so n may be an arbitrary-precision integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import VerificationError
from .primes import _prime_list, is_prime

# Half-width of the log-space band around log(n^2) inside which the
# u(n,k) > n^2 decision is re-made with exact integers. Accumulated float
# error in the scan is ~1e-11, far inside the band.
GUARD_BAND = 1e-6

# Default certificate constant: 24/(pi^2 - 6) + 0.01, slightly above the
# smallest constant for which the averaging argument closes.
DEFAULT_CERTIFICATE_C = 24.0 / (math.pi**2 - 6.0) + 0.01


def valuation_binomial(
    n: int, k: int, p: int, method: Literal["indicator", "legendre"] = "indicator"
) -> int:
    """v_p(C(n, k)): exponent of the prime p in the binomial coefficient.

    ``indicator`` counts the powers p^t with (n mod p^t) < (k mod p^t), i.e.
    the carries when adding k and n-k in base p; ``legendre`` sums the floor
    differences n//p^t - (n-k)//p^t - k//p^t. Both terminate once p^t > n.
    """
    if k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    count = 0
    q = p
    if method == "indicator":
        while q <= n:
            if n % q < k % q:
                count += 1
            q *= p
    elif method == "legendre":
        m = n - k
        while q <= n:
            count += n // q - m // q - k // q
            q *= p
    else:
        raise ValueError(f"unknown method {method!r}")
    return count


def valuation_row(
    n: int,
    p: int,
    k_max: int | None = None,
    method: Literal["indicator", "legendre"] = "indicator",
) -> np.ndarray:
    """Vector of v_p(C(n, k)) for k = 0..k_max (default k_max = n).

    Vectorized over k for moderate n (everything must fit in int64); the
    scalar ``valuation_binomial`` covers arbitrary-precision n.
    """
    if k_max is None:
        k_max = n
    if not 0 <= k_max <= n:
        raise ValueError("need 0 <= k_max <= n")
    if n >= 2**62:
        raise ValueError("valuation_row requires n < 2**62; use valuation_binomial")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    dtype = np.int32 if n < 2**31 else np.int64
    out = np.zeros(k_max + 1, dtype=dtype)
    q = p
    if method == "indicator":
        ks = np.arange(k_max + 1, dtype=dtype)
        while q <= n:
            if q <= k_max:
                # k mod q is periodic; tiling beats an elementwise modulo
                res_k = np.resize(ks[:q], k_max + 1)
            else:
                res_k = ks
            out += n % q < res_k
            q *= p
    elif method == "legendre":
        ks = np.arange(k_max + 1, dtype=dtype)
        nm = n - ks
        nf = 0  # sum_t n // p^t, accumulated scalar
        down = np.zeros(k_max + 1, dtype=dtype)  # sum_t (n - k) // p^t
        up = np.zeros(k_max + 1, dtype=dtype)  # sum_t k // p^t
        while q <= n:
            nf += n // q
            down += nm // q
            up += ks // q
            q *= p
        out = nf - down - up
    else:
        raise ValueError(f"unknown method {method!r}")
    return out.astype(np.int64)


@dataclass
class ValuationProfile:
    """Map p -> v_p(C(n, k)) over primes p <= k, with its log and exact value.

    ``log_u`` is the float natural log of u(n, k); ``exact_u`` materializes
    the big integer on first use.
    """

    n: int
    k: int
    valuations: dict[int, int]
    log_u: float
    _exact_u: int | None = field(default=None, repr=False)

    @property
    def exact_u(self) -> int:
        if self._exact_u is None:
            u = 1
            for p, v in self.valuations.items():
                if v:
                    u *= p**v
            self._exact_u = u
        return self._exact_u


def u_profile(n: int, k: int) -> ValuationProfile:
    """Valuation profile of the small-prime part u(n, k).

    Every prime p <= k appears as a key, including those with exponent 0;
    k in {0, 1} gives the empty product u = 1.
    """
    if k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    vals: dict[int, int] = {}
    log_u = 0.0
    for p in _prime_list(k) if k >= 2 else ():
        v = valuation_binomial(n, k, p)
        vals[p] = v
        if v:
            log_u += v * math.log(p)
    return ValuationProfile(n=n, k=k, valuations=vals, log_u=log_u)


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


def f_threshold(n: int, *, guard: float = GUARD_BAND) -> ThresholdResult:
    """Least k <= n with u(n, k) > n^2, scanning k ascending.

    The scan compares log u(n, k) against 2 log n in float; any comparison
    landing within ``guard`` of the boundary is re-decided with exact
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
            if d > guard:
                return ThresholdResult(n=n, f=k, decided_exactly=False)
            if d >= -guard and _exceeds_square(n, k):
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


def certificate_average(
    n: int, c: float = DEFAULT_CERTIFICATE_C, *, diagnostics_blocks: int = 8
) -> CertificateReport:
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
    for j in range(2, diagnostics_blocks + 2):
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
