"""Independent checks of the benchmark's outputs.

Nothing here imports the package under test. Every claim an output makes is
re-derived from its definition: valuations by Kummer's carry count, f(n) by
exact big-integer products, the basis from its stage intervals, fractional
parts and discrepancies in ``Fraction`` arithmetic, and primes from a sieve
of this module's own. ``check`` returns None for an accepted output and a
one-line reason otherwise.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

ALPHA_BITS = 256  # bits the command line uses to synthesize sqrt:N and golden
CERTIFICATE_C = 24.0 / (math.pi**2 - 6.0) + 0.01  # the command's default C
FLOAT_TOL = 1e-9


@lru_cache(maxsize=4)
def _sieve(limit: int) -> np.ndarray:
    """Ascending primes <= limit, over all integers (not the odd-only layout)."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return np.flatnonzero(flags)


@lru_cache(maxsize=1)
def _small() -> list[int]:
    return [int(p) for p in _sieve(3000)]


def _primes_le(k: int) -> list[int]:
    small = _small()
    return small[: bisect.bisect_right(small, k)]


def carries(n: int, k: int, p: int) -> int:
    """v_p(C(n, k)) by Kummer: the carries when adding k and n - k in base p."""
    m = n - k
    carry = count = 0
    while k or m or carry:
        carry = 1 if k % p + m % p + carry >= p else 0
        count += carry
        k //= p
        m //= p
    return count


def small_prime_part(n: int, k: int) -> int:
    u = 1
    for p in _primes_le(k):
        u *= p ** carries(n, k, p)
    return u


def _least_f(n: int, upto: int) -> int | None:
    """Least k <= upto with u(n, k) > n^2, by an exponent ledger over k."""
    square = n * n
    exps = dict.fromkeys(_primes_le(upto), 0)
    for k in range(1, upto + 1):
        for p in exps:
            if p > max(k, n - k + 1):
                break
            x, y = n - k + 1, k
            while x % p == 0:
                x //= p
                exps[p] += 1
            while y % p == 0:
                y //= p
                exps[p] -= 1
        u = 1
        for p, e in exps.items():
            if p > k:
                break
            u *= p**e
        if u > square:
            return k
    return None


def _check_f(n: int, f, full: bool) -> str | None:
    if f is None or not 1 <= f <= n:
        return f"f({n}) = {f} is not in [1, n]"
    if full:
        want = _least_f(n, f)
        return None if want == f else f"f({n}) = {f}, least k with u(n,k) > n^2 is {want}"
    if small_prime_part(n, f) <= n * n:
        return f"u({n}, {f}) <= n^2"
    if f > 1 and small_prime_part(n, f - 1) > n * n:
        return f"u({n}, {f - 1}) > n^2, so f({n}) < {f}"
    return None


def _f_scan(req, rows, rng) -> str | None:
    argv = req["argv"]
    lo, hi = int(argv[argv.index("--from") + 1]), int(argv[argv.index("--to") + 1])
    if [r["n"] for r in rows] != list(range(lo, hi + 1)):
        return "f-scan rows do not cover the requested n"
    full = rng.randrange(len(rows))
    for i, row in enumerate(rows):
        err = _check_f(row["n"], row["f"], i == full)
        if err:
            return err
    return None


def _certificate(req, rows, rng) -> str | None:
    (row,) = rows
    n = row["n"]
    log_n = math.log(n)
    if row["Y"] != int(CERTIFICATE_C * log_n * log_n):
        return f"Y = {row['Y']} is not floor(C (log n)^2)"
    if abs(row["threshold_2_log_n"] - 2 * log_n) > FLOAT_TOL:
        return "threshold is not 2 log n"
    if row["certified"] != (row["average_log_u"] > row["threshold_2_log_n"]):
        return "certified disagrees with average > threshold"
    if not row["certified"]:
        return f"certificate for n = {n} not certified"
    if row["f"] > row["Y"]:
        return f"f = {row['f']} exceeds Y = {row['Y']}"
    return _check_f(n, row["f"], True)


def _witness(req, rows, rng) -> str | None:
    (row,) = rows
    K = row["K"]
    exps = {}
    m = 1
    for p in _primes_le(K):
        e = 1
        while p**e <= K:
            e += 1
        exps[p] = e
        m *= p**e
    if row["M_K"] != m:
        return f"M_{K} = {row['M_K']}, expected {m}"
    if row["factorization"] != "*".join(f"{p}^{e}" for p, e in exps.items()):
        return "factorization does not match M_K"
    if abs(row["log_ratio"] - math.log(m) / K) > FLOAT_TOL:
        return "log_ratio is not log(M_K)/K"
    n = m - 1
    for p in exps:
        digits = []
        x = n
        while x:
            x, d = divmod(x, p)
            digits.append(d)
        for k in range(K + 1):
            # no carry adding k and n - k <=> every base-p digit of k <= that of n
            i, y = 0, k
            while y:
                y, d = divmod(y, p)
                if d > digits[i]:
                    return f"v_{p}(C(M_{K}-1, {k})) > 0"
                i += 1
    return None


def _valuations(req, values, rng) -> str | None:
    for n, k, p, v in rng.sample(values, min(8, len(values))):
        want = carries(n, k, p)
        if v != want:
            return f"v_{p}(C({n}, {k})) = {v}, Kummer gives {want}"
    return None


# ---------------------------------------------------------------------------
# basis


def _stage_intervals(limit: int, stages: int | None = None) -> list[tuple[int, int]]:
    """A (restricted to stages <= ``stages``) within [0, limit], as intervals."""
    out = [(2, 3)]
    k = 1
    while 4 * 5 ** (k - 1) <= limit and (stages is None or k <= stages):
        q = 5 ** (k - 1)
        out += [(4 * q, 4 * q), (5 * q, 6 * q - 1), (10 * q - 1, 15 * q)]
        k += 1
    return [(lo, min(hi, limit)) for lo, hi in out if lo <= limit]


def _pairs(n: int):
    """Every a <= b with a + b = n and a, b in A (unordered)."""
    ivs = _stage_intervals(n)
    for lo, hi in ivs:
        for lo2, hi2 in ivs:
            # a in [lo, hi], b = n - a in [lo2, hi2], a <= n - a
            a_lo, a_hi = max(lo, n - hi2), min(hi, n - lo2, n // 2)
            if a_lo <= a_hi:
                yield from ((a, n - a) for a in range(a_lo, a_hi + 1))


def _stage(k: int) -> tuple[int, tuple[int, int]]:
    """Q = 5^(k-1) and J_k = [9Q, 10Q - 1]."""
    q = 5 ** (k - 1)
    return q, (9 * q, 10 * q - 1)


def _cover(req, rows, rng) -> str | None:
    (row,) = rows
    k = row["k"]
    hi = 6 * 5**k
    if (row["lo"], row["hi"], row["covered"], row["first_gap"]) != (4, hi, True, None):
        return f"cover row {row} does not claim [4, {hi}] covered"
    ivs = _stage_intervals(hi, stages=k)
    sums = sorted((a + c, b + d) for a, b in ivs for c, d in ivs)
    reach = 3
    for lo, up in sums:
        if lo > reach + 1:
            break
        reach = max(reach, up)
    if reach < hi:
        return f"A_{k} + A_{k} misses {reach + 1}"
    return None


def _rigidity(req, rows, rng) -> str | None:
    (row,) = rows
    k = row["k"]
    q, (j_lo, j_hi) = _stage(k)
    if (row["j_lo"], row["j_hi"], row["checked"], row["anchor"]) != (j_lo, j_hi, q, 4 * q):
        return f"rigidity row {row} does not match stage {k}"
    for n in (j_lo, j_hi, rng.randint(j_lo, j_hi)):
        if list(_pairs(n)) != [(4 * q, n - 4 * q)]:
            return f"{n} does not have the single representation through c_{k}"
    return None


def _gaps(req, rows, rng) -> str | None:
    (row,) = rows
    k = row["k"]
    q, (j_lo, j_hi) = _stage(k)
    rule = req["argv"][req["argv"].index("--rule") + 1]
    want = {"k": k, "rule": rule, "j_lo": j_lo, "j_hi": j_hi, "gap_length": q, "truncation": 10 * q}
    if any(row[key] != value for key, value in want.items()):
        return f"gaps row {row} does not match stage {k}"
    if row["anchor_color"] not in (1, 2) or row["gapped_color"] != 3 - row["anchor_color"]:
        return "gapped color is not the color missing the anchor"
    return None


def _reps(req, digest, rng) -> str | None:
    n = int(req["argv"][-1])
    pairs = sorted(_pairs(n))
    text = "".join(f"{a},{b}\n" for a, b in pairs)
    if digest["count"] != len(pairs) or digest["sha256"] != hashlib.sha256(text.encode()).hexdigest():
        return f"representations of {n} differ from the {len(pairs)} derived from the stage intervals"
    return None


# ---------------------------------------------------------------------------
# equidistribution


def _alpha(spec: str) -> Fraction:
    if spec == "golden":
        return Fraction((1 << ALPHA_BITS) + math.isqrt(5 << (2 * ALPHA_BITS)), 1 << (ALPHA_BITS + 1))
    n = int(spec.split(":", 1)[1])
    return Fraction(math.isqrt(n << (2 * ALPHA_BITS)), 1 << ALPHA_BITS)


def _echoed_alpha(req, row) -> str | None:
    alpha = _alpha(req["alpha_spec"])
    if row["alpha"] != f"{alpha.numerator}/{alpha.denominator}":
        return f"alpha {row['alpha']} is not {req['alpha_spec']} at {ALPHA_BITS} bits"
    return None


def discrepancy(points) -> Fraction:
    """Interval discrepancy of points in [0, 1): 1/k + max(x_i - i/k) - min(x_i - i/k)."""
    xs = sorted(points)
    k = len(xs)
    ys = [x - Fraction(i, k) for i, x in enumerate(xs, start=1)]
    return min(Fraction(1, k) + max(ys) - min(ys), Fraction(1))


def _window(alpha: Fraction, start: int, k: int) -> Fraction:
    ps = _sieve(10**7)[start : start + k]
    num, den = alpha.numerator, alpha.denominator
    return discrepancy(Fraction(num * int(p) % den, den) for p in ps)


def _scan(req, rows, rng) -> str | None:
    (row,) = rows
    err = _echoed_alpha(req, row)
    if err:
        return err
    argv = req["argv"]
    k, limit, stride = (int(argv[argv.index(f) + 1]) for f in ("--k", "--limit", "--stride"))
    if (row["k"], row["scan_limit"], row["stride"]) != (k, limit, stride):
        return "scan row does not echo k, limit, stride"
    if row["windows"] != len(range(0, limit + 1, stride)):
        return f"windows = {row['windows']}, expected {len(range(0, limit + 1, stride))}"
    start = row["argmax_start"]
    if start % stride or not 0 <= start <= limit:
        return f"argmax start {start} is not a scanned start"
    alpha = _alpha(req["alpha_spec"])
    best = row["max_discrepancy"]
    exact = _window(alpha, start, k)
    if abs(float(exact) - best) > FLOAT_TOL:
        return f"window at {start} has discrepancy {float(exact)}, reported {best}"
    for s in rng.sample(range(0, limit + 1, stride), min(4, row["windows"])):
        if float(_window(alpha, s, k)) > best + FLOAT_TOL:
            return f"window at {s} exceeds the reported maximum {best}"
    return None


def _run_of_primes(row, q, a, m, limit) -> str | None:
    ps = [int(p) for p in row["primes"].split()]
    table = _sieve(10**7)
    r = row["r"]
    if len(ps) != m or [int(p) for p in table[r : r + m]] != ps:
        return f"{ps} are not the consecutive primes p_{r + 1}..p_{r + m}"
    if any(p % q != a % q for p in ps) or ps[-1] > limit:
        return f"{ps} are not all {a} mod {q} and <= {limit}"
    if row["diameter"] != ps[-1] - ps[0]:
        return "diameter is not last - first"
    return None


def _string(req, rows, rng) -> str | None:
    (row,) = rows
    argv = req["argv"]
    q, a, m, limit = (int(argv[argv.index(f) + 1]) for f in ("--q", "--a", "--m", "--limit"))
    if not row["found"]:
        return "no prime string found"
    err = _run_of_primes(row, q, a, m, limit)
    if err:
        return err
    table = _sieve(10**7)
    table = table[: np.searchsorted(table, limit, side="right")]
    hits = np.concatenate([[0], np.cumsum(table % q == a % q)])
    first = int(np.flatnonzero(hits[m:] - hits[:-m] == m)[0])
    if first != row["r"]:
        return f"first run starts at index {first}, reported {row['r']}"
    return None


def _cluster(req, rows, rng) -> str | None:
    (row,) = rows
    err = _echoed_alpha(req, row)
    if err:
        return err
    if not row["found"]:
        return "no cluster found"
    alpha = _alpha(req["alpha_spec"])
    q, a, m = row["q"], row["a"], row["m"]
    delta = Fraction(row["delta"])
    err = _run_of_primes(row, q, a, m, row["limit"])
    if err:
        return err
    ps = [int(p) for p in row["primes"].split()]
    num, den = alpha.numerator, alpha.denominator

    def torus(x: int) -> Fraction:
        r = num * x % den
        return Fraction(min(r, den - r), den)

    worst = max(torus(pj - pi) for i, pi in enumerate(ps) for pj in ps[i + 1 :])
    if worst != Fraction(row["max_pair_distance"]) or worst > delta:
        return f"max pair distance {worst} (reported {row['max_pair_distance']}, delta {delta})"
    disc = discrepancy(Fraction(num * p % den, den) for p in ps)
    if disc != Fraction(row["window_discrepancy"]) or disc < 1 - delta:
        return f"window discrepancy {disc} (reported {row['window_discrepancy']}) below 1 - delta"
    if abs(float(abs(alpha - Fraction(a, q))) - row["err_float"]) > FLOAT_TOL:
        return "err_float is not |alpha - a/q|"
    return None


def _approx(req, rows, rng) -> str | None:
    (row,) = rows
    err = _echoed_alpha(req, row)
    if err:
        return err
    alpha = _alpha(req["alpha_spec"])
    a, q, Q = row["a"], row["q"], row["Q"]
    err = abs(alpha - Fraction(a, q))
    if not 1 <= q <= Q or math.gcd(a, q) != 1:
        return f"{a}/{q} is not reduced with q <= {Q}"
    if Fraction(row["err"]) != err or err * q * Q > 1:
        return f"|alpha - {a}/{q}| * q * Q = {float(err * q * Q)} > 1"
    if Fraction(row["bound_1_over_qQ"]) != Fraction(1, q * Q):
        return "bound is not 1/(qQ)"
    return None


_CHECKS = {
    "f-scan": _f_scan,
    "certificate": _certificate,
    "witness": _witness,
    "row-block": _valuations,
    "binomial-big": _valuations,
    "cover": _cover,
    "rigidity": _rigidity,
    "gaps": _gaps,
    "reps": _reps,
    "scan": _scan,
    "cluster": _cluster,
    "string": _string,
    "approx": _approx,
}


def check(outcome: dict, seed: int) -> str | None:
    """None if the outcome is a verified, correct output; else why it is not."""
    if outcome["status"] != "ok":
        return outcome["status"] + (": " + outcome["error"] if outcome.get("error") else "")
    req = outcome["request"]
    output = outcome.get("rows", outcome.get("values"))
    rng = random.Random(f"{seed}/{req}")
    try:
        return _CHECKS[req["kind"]](req, output, rng)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return f"malformed output: {exc!r}"
