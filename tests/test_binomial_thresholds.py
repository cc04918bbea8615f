"""u(n,k), f(n), the averaging certificate and the composite witness.

Expected values are either tiny enough to factor by hand in the test or
derived from big-integer factorization oracles in ``oracles.py``.
"""

import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from erdos_trio import (
    ResourceLimitError,
    certificate_average,
    f_threshold,
    is_prime,
    lower_bound_witness,
    sieve_primes,
    u_profile,
    valuation_binomial,
    valuation_row,
)
from erdos_trio import binomial_thresholds as bt
from erdos_trio import errors
from erdos_trio import primes as pr
from erdos_trio.errors import VerificationError

from budget import assert_counted, peak_bytes
from oracles import (
    comb_exponent,
    f_oracle,
    legendre_valuation,
    prime_exponent,
    small_prime_part,
    valuation_row_oracle,
    witness_holds,
)


def test_valuation_examples():
    for n in (1, 7, 100, 10**18):
        assert valuation_binomial(n, 0, 5) == 0
    # C(10,5) = 252 = 2^2 * 3^2 * 7
    assert valuation_binomial(10, 5, 2) == 2
    assert valuation_binomial(10, 5, 3) == 2
    assert valuation_binomial(10, 5, 5) == 0
    assert valuation_binomial(10, 5, 7) == 1
    assert comb_exponent(10, 5, 2) == 2 and comb_exponent(10, 5, 7) == 1


def test_valuation_rejects_bad_input():
    with pytest.raises(ValueError):
        valuation_binomial(5, 6, 2)
    with pytest.raises(ValueError):
        valuation_binomial(10, 5, 6)


def test_indicator_equals_legendre_and_factorization_small():
    primes = sieve_primes(120).primes.tolist()
    for n in range(0, 121):
        for k in range(0, n + 1):
            for p in primes:
                if p > k:
                    break
                ind = valuation_binomial(n, k, p, "indicator")
                leg = valuation_binomial(n, k, p, "legendre")
                assert ind == leg == comb_exponent(n, k, p), (n, k, p)


def test_prime_check_boundary():
    """Primes below 2^16 are looked up in a set, larger ones go to Miller-Rabin;
    both valuation functions refuse the same non-primes on either side."""
    for p in (0, 1, -3, 65535, 65536, 318665857834031151167461):
        with pytest.raises(ValueError):
            valuation_binomial(10, 5, p)
        with pytest.raises(ValueError):
            valuation_row(3, p)
    for p in (65521, 65537, 2**61 - 1):
        assert valuation_binomial(10, 5, p) == valuation_binomial(10, 5, p, "legendre") == 0
        assert valuation_row(3, p).tolist() == [0, 0, 0, 0]
    assert valuation_binomial(65537, 1, 65537) == valuation_binomial(65537, 1, 65537, "legendre") == 1


def _assert_forms_match(n, k, p, oracle):
    assert valuation_binomial(n, k, p, "indicator") == oracle(n, k, p), (n, k, p)
    assert valuation_binomial(n, k, p, "legendre") == oracle(n, k, p), (n, k, p)


def test_valuation_early_exits_on_edge_inputs():
    """Both forms stop at the first provably zero tail; check the stopping
    rules where digits run out, repeat or vanish."""
    rng = random.Random(31)
    for p in (2, 3, 5, 7, 97, 65537):
        for j in range(1, 70 if p < 10 else 8):
            for n in (p**j - 1, p**j, p**j + 1):
                ks = {0, 1, n - 1, n, *(rng.randint(0, n) for _ in range(8))}
                for k in ks:
                    if 0 <= k <= n:
                        oracle = comb_exponent if min(k, n - k) <= 400 else legendre_valuation
                        _assert_forms_match(n, k, p, oracle)
    # n = M_K - 1: the low e_p base-p digits of n are all p - 1, every v_p is 0
    for K in range(2, 31):
        n = lower_bound_witness(K).M_K - 1
        for k in range(K + 1):
            for p in sieve_primes(K).primes.tolist():
                _assert_forms_match(n, k, p, comb_exponent)
    for _ in range(60):
        n = rng.getrandbits(rng.randint(200, 400)) | 1 << 199
        p = rng.choice([2, 3, 5, 7, 31, 997, 4999])
        for d in rng.sample(range(60), 6):
            _assert_forms_match(n, d, p, comb_exponent)
            _assert_forms_match(n, n - d, p, comb_exponent)
        _assert_forms_match(n, rng.randint(0, n), p, legendre_valuation)


def _table_fill_bytes(n, p, method):
    """Bytes a cache miss of valuation_row(n, p) counts for its table:
    the residue rows k mod p^t below 2^bits > n plus the k row, or the
    factorial-valuation table."""
    length = 1 << n.bit_length()
    if method == "legendre":
        return bt._FACTORIAL_BYTES * length
    powers = sum(1 for t in range(1, length.bit_length()) if p**t < length)
    return bt._RESIDUE_BYTES * (powers + 1) * length


def _clear_row_tables():
    bt._residue_table.cache_clear()
    bt._factorial_table.cache_clear()


def _check_row_counts(n, p, method):
    """A cold call counts its table fill and its row; a warm one only its
    row. The peak stays within what was counted, the larger count exactly
    fits the budget, and one byte less refuses."""
    pr.is_prime(p)  # the prime set counts its own fill
    row_need = bt._ROW_BYTES * (n + 1)
    fill_need = _table_fill_bytes(n, p, method)
    want = valuation_row_oracle(n, p, method)
    row = lambda: valuation_row(n, p, method)  # noqa: E731
    cold = assert_counted(
        max(row_need, fill_need), row, before=_clear_row_tables, peak=row_need + fill_need
    )
    np.testing.assert_array_equal(cold, want)
    np.testing.assert_array_equal(assert_counted(row_need, row, before=row), want)  # warm


def test_valuation_row_memory_budget():
    """The budget counts every temporary row, and is read at call time."""
    n = 1000
    need = bt._ROW_BYTES * (n + 1)
    valuation_row(n, 3)  # fills the prime caches, which count their own fill
    for method in ("indicator", "legendre"):
        row = assert_counted(need, lambda: valuation_row(n, 3, method=method))
        assert row[500] == comb_exponent(n, 500, 3)
    # ~28 GB of rows: refused before any row is built
    with pytest.raises(ResourceLimitError):
        valuation_row(10**9, 2, method="legendre")
    # cold and warm tables, both forms: the table fill binds when cold
    for n, p in ((1000, 3), (600, 2), (520, 509)):
        for method in ("indicator", "legendre"):
            _check_row_counts(n, p, method)


def test_valuation_row_past_the_memo_bound_keeps_nothing():
    """Past the memo bound a row builds its tables at n + 1 within its own
    count, and the caches do not grow."""
    n = bt._ROW_MEMO_BOUND + 4463
    pr.is_prime(3)
    _clear_row_tables()
    for method in ("indicator", "legendre"):
        row = assert_counted(bt._ROW_BYTES * (n + 1), lambda: valuation_row(n, 3, method))
        np.testing.assert_array_equal(row, valuation_row_oracle(n, 3, method))
    assert bt._residue_table.cache_info().currsize == 0
    assert bt._factorial_table.cache_info().currsize == 0


def test_valuation_row_cache_holds_under_its_stated_bound():
    """One table per form is enough: an ascending walk for one p misses once
    per bit length of n. After a sweep over many p and lengths that ends at
    p = 2 and 2^16, the caches keep those tables, within the stated 4 MiB."""
    _clear_row_tables()
    for n in range(2, 3001):
        for method in ("indicator", "legendre"):
            valuation_row(n, 2, method)
    caches = (bt._residue_table, bt._factorial_table)
    assert [c.cache_info()[1:] for c in caches] == [(11, 1, 1)] * 2  # misses, maxsize, currsize
    for bits in (10, 12, 14, 15, 16):
        for p in reversed(sieve_primes(400).primes.tolist()):
            for method in ("indicator", "legendre"):
                valuation_row((1 << bits) - 1, p, method)
    misses = [c.cache_info().misses for c in caches]
    held = sum(row.nbytes for _, row in bt._residue_table(2, 16)) + bt._factorial_table(2, 16).nbytes
    assert [c.cache_info().misses for c in caches] == misses  # both were held
    assert held <= 4 * 2**20
    _clear_row_tables()


def _row_cases():
    """Seeded (n, p) plus the edges of the tables: n = 0, 1, 2^j - 1, 2^j,
    either side of the memo bound; p = 2, p > n and a prime past 2^16."""
    bound = bt._ROW_MEMO_BOUND
    cases = [(n, p) for n in (0, 1, 2, 3) for p in (2, 3, 5, 65537)]
    for j in range(1, 17):
        for n in (2**j - 1, 2**j):
            cases += [(n, 2), (n, 3), (n, 65521), (n, 65537)]
    for n in (bound - 2, bound - 1, bound, bound + 1):
        cases += [(n, 2), (n, 7), (n, 251), (n, 65537)]
    primes = sieve_primes(3000).primes.tolist()
    rng = random.Random(14)
    for _ in range(300):
        p = rng.choice(primes)
        cases.append((rng.randrange(p, 3001), p))
        cases.append((rng.randrange(0, 5000), rng.choice(primes[:20])))
    return cases


def test_valuation_row_forms_equal_the_row_oracle():
    for n, p in _row_cases():
        for method in ("indicator", "legendre"):
            row = valuation_row(n, p, method)
            assert row.dtype == np.int64, (n, p, method)
            np.testing.assert_array_equal(row, valuation_row_oracle(n, p, method), f"{n} {p} {method}")


def test_valuation_row_after_cache_evictions():
    """Rows stay the oracle's when their tables are evicted and rebuilt:
    more (p, bits) keys than the caches keep, revisited in a shuffled order."""
    primes = sieve_primes(1000).primes.tolist()[:80]
    keys = [(n, p) for p in primes for n in (p, 700)]
    rng = random.Random(15)
    _clear_row_tables()
    for sweep in range(3):
        rng.shuffle(keys)
        for n, p in keys:
            for method in ("indicator", "legendre"):
                np.testing.assert_array_equal(
                    valuation_row(n, p, method), valuation_row_oracle(n, p, method)
                )
        assert bt._residue_table.cache_info().currsize == 1
    assert bt._residue_table.cache_info().misses > len(keys)


def test_valuation_row_returns_a_fresh_row():
    """Mutating a returned row leaves the cached tables, and the next
    call's row, unchanged; the tables themselves are read-only."""
    for n, p in ((100, 2), (100, 97), (0, 2)):
        for method in ("indicator", "legendre"):
            first = valuation_row(n, p, method)
            want = first.copy()
            first += 7
            np.testing.assert_array_equal(valuation_row(n, p, method), want)
    with pytest.raises(ValueError):
        bt._factorial_table(2, 7)[3] = 0
    with pytest.raises(ValueError):
        bt._residue_table(2, 7)[0][1][3] = 0


def test_valuation_row_matches_scalar():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 3000)
        p = rng.choice([2, 3, 5, 7, 11, 13, 97, 101])
        row_i = valuation_row(n, p, method="indicator")
        row_l = valuation_row(n, p, method="legendre")
        np.testing.assert_array_equal(row_i, row_l)
        for k in rng.sample(range(n + 1), min(20, n + 1)):
            assert row_i[k] == valuation_binomial(n, k, p)


def test_kummer_digit_bound():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 10**12)
        k = rng.randrange(0, n + 1)
        p = rng.choice([2, 3, 5, 7, 31, 997])
        v = valuation_binomial(n, k, p)
        assert v <= int(math.log(n, p)) + 1


def test_u_profile_examples():
    assert u_profile(10, 1).exact_u == 1
    assert u_profile(10, 0).exact_u == 1
    prof = u_profile(10, 5)
    assert prof.exact_u == 36
    assert prof.valuations == {2: 2, 3: 2, 5: 0}
    assert u_profile(10, 7).exact_u == 120


def test_u_profile_against_big_integer_factorization():
    primes = sieve_primes(200).primes.tolist()
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randrange(1, 400)
        k = rng.randrange(0, n + 1)
        assert u_profile(n, k).exact_u == small_prime_part(n, k, primes)


def test_ledger_exponents_match_profiles():
    """The u(n, k) that ``_u_series`` yields at k factors over the primes
    p <= k with exponent v_p(C(n, k)) for every such p: the exponents
    u_profile reads digit by digit."""
    primes = sieve_primes(120).primes.tolist()
    for n in (10, 1799, 10**6, 2**64 - 59):
        k_max = min(n, 120)
        for k, u in islice(bt._u_series(n), k_max):
            got = {}
            for p in primes:
                if p > k:
                    break
                e = prime_exponent(u, p)
                if e:
                    got[p] = e
                    u //= p**e
            assert u == 1, (n, k)
            want = {p: v for p, v in u_profile(n, k).valuations.items() if v}
            assert got == want, (n, k)


def _step_factors(n: int, k: int, primes: list[int]) -> tuple[int, int]:
    """The multiplier and the divisor that take u(n, k - 1) to u(n, k)
    through C(n, k) = C(n, k - 1) * (n - k + 1) / k: the powers of the
    primes p < k in n - k + 1, times k^{v_k(C(n, k))} when k is prime, and
    the powers of the primes p < k in k, which are all of a composite k."""
    num = 1
    den = 1
    for p in primes:
        if p >= k:
            break
        num *= p ** prime_exponent(n - k + 1, p)
        den *= p ** prime_exponent(k, p)
    if k in primes:
        num *= k ** comb_exponent(n, k, k)
    return num, den


def test_ledger_replays_exact_u_with_exact_divisions():
    """``_u_series`` yields k = 1, 2, ... in order with u_profile's exact u
    at every k. Each step from u(n, k - 1) to u(n, k) multiplies before it
    divides, so the division by k's factors leaves no remainder."""
    primes = sieve_primes(120).primes.tolist()
    for n in (10, 1007, 1799, 10**6, 10**6 + 3, 2**64 - 59, lower_bound_witness(12).M_K - 1):
        k_max = min(n, 120)
        series = list(islice(bt._u_series(n), k_max))
        assert [k for k, _ in series] == list(range(1, k_max + 1)), n
        prev = 1
        for k, u in series:
            num, den = _step_factors(n, k, primes)
            assert (prev * num) % den == 0, (n, k)
            assert u == prev * num // den == u_profile(n, k).exact_u, (n, k)
            prev = u


def test_ledger_early_exit_at_full_powers():
    """Where q = p^t divides n + 1, every base-p digit of n below q is
    p - 1, so no k < q carries and p divides no C(n, k) (Kummer): each step's
    multiplier n - k + 1 = (n + 1) - k and divisor k hold the same power of
    p. At n = p^t - 1 and M_K - 1 every low power divides n + 1:
    ``_u_series`` still yields the big-integer u(n, k) at every k <= 150,
    and f(n) still equals the definition's."""
    primes = sieve_primes(400).primes.tolist()
    ns = [2**20 - 1, 2**64 - 1, 3**13 - 1, 5**9 - 1, 7**8 - 1, 31**4 - 1]
    ns += [lower_bound_witness(K).M_K - 1 for K in (5, 12, 20)]
    for n in ns:
        assert any((n + 1) % (p * p) == 0 for p in (2, 3, 5, 7, 31)), n
        assert f_threshold(n).f == f_oracle(n, primes, 400), n
        for k, u in islice(bt._u_series(n), min(n, 150)):
            assert u == small_prime_part(n, k, primes), (n, k)


def test_u_series_across_the_wheel_edge():
    """The primes up to 47 enter u through one gcd per power, the primes
    from 53 on through their scheduled positions, and a composite k divides
    u by exactly k. Where high powers of 2, 3, 5, 7, 47 or 53 divide n or
    n + 1, ``_u_series`` yields the big-integer u(n, k) at every k <= 60,
    across the edge between the two (k = 46..60)."""
    primes = sieve_primes(60).primes.tolist()
    mixed = 2**12 * 3**7 * 5**5 * 7**4 * 47**3 * 53**3
    ns = [mixed, mixed - 1]
    for p, t in ((2, 70), (3, 44), (5, 30), (7, 25), (47, 12), (53, 11)):
        ns += [p**t, p**t - 1]
    for n in ns:
        series = list(islice(bt._u_series(n), 60))
        assert [k for k, _ in series] == list(range(1, 61)), n
        for k, u in series:
            assert u == small_prime_part(n, k, primes), (n, k)


def test_f_threshold_at_long_scans():
    primes = sieve_primes(400).primes.tolist()
    # f(M_40 - 1) = 371: 73 primes join the series before it stops
    n = lower_bound_witness(40).M_K - 1
    assert f_threshold(n).f == f_oracle(n, primes, 400) == 371
    # f(4549) = 67 is the largest f(n) for n <= 5000
    assert f_threshold(4549).f == f_oracle(4549, primes, 400) == 67


def test_f_threshold_examples():
    assert f_threshold(2).f is None
    assert f_threshold(1).f is None
    res = f_threshold(10)
    assert res.f == 7
    # the full u sequence for n = 10, frozen from direct factorization
    assert [u_profile(10, k).exact_u for k in range(8)] == [1, 1, 1, 24, 6, 36, 30, 120]
    with pytest.raises(ValueError):
        f_threshold(0)


def test_f_threshold_matches_oracle_small():
    primes = sieve_primes(500).primes.tolist()
    for n in range(1, 300):
        assert f_threshold(n).f == f_oracle(n, primes, 500), n


def test_f_threshold_decides_ties_and_near_misses_exactly():
    """u(105, 8) = 105^2 is an exact tie, the only one for 2 <= n <= 2e4 and
    k <= f(n): the strict comparison passes over it. At n = 154338, log u
    comes within 1e-6 of 2 log n at the deciding k, the only n <= 3e5 where
    it does."""
    primes = sieve_primes(100).primes.tolist()
    assert u_profile(105, 8).exact_u == 105**2
    for n, f in ((105, 10), (154338, 34)):
        res = f_threshold(n)
        assert res.f == f_oracle(n, primes, 100) == f
        assert res.decided_exactly


def test_u_series_memory_budget(monkeypatch):
    """The series behind ``f_threshold`` counts each prime above 47 through
    ``reserve`` before it stores the prime's position, under the budget read
    at call time; the primes up to 47 are one product below 2^60 and are not
    counted. f(M_40 - 1) = 371 schedules the 58 primes from 53 to 367: the
    scan's peak stays within their count, the exact count passes and one
    byte less refuses. A series read to just past a resize of its dict
    (k = 27,881 at n = 10^6) also stays within its count. f(10^6) = 29
    schedules no prime, so a budget below one prime's count first refuses
    M_40 - 1, at k = 53."""
    is_prime(2)  # the primality check's cached set counts itself, once
    n = lower_bound_witness(40).M_K - 1
    need = bt._PRIME_BYTES * 58
    long_need = bt._PRIME_BYTES * (len(sieve_primes(27_881).primes) - 15)
    assert assert_counted(need, lambda: f_threshold(n), match="k = 367").f == 371

    def read_long_series():
        for k, _ in bt._u_series(10**6):
            if k == 27_881:
                break

    assert peak_bytes(read_long_series) <= long_need
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", bt._PRIME_BYTES - 1)
    assert f_threshold(10**6).f == 29
    with pytest.raises(ResourceLimitError, match="k = 53"):
        f_threshold(n)


def test_u_profile_memory_budget():
    """``u_profile`` counts its map of the primes to k, 1 KiB and
    ``_MAP_BYTES`` per prime, after the list of those primes has counted
    itself and before any valuation is stored. At k = 24,671 the map holds
    2,731 primes, just past a resize at 2,730: the call's peak stays within
    the two counts, and the map's, the larger, passes exactly and refuses
    one byte less."""
    k = 24_671
    is_prime(2), pr._prime_list(k)  # cached sets and arrays count themselves, once
    listed = 1024 + pr._INT_BYTES * pr._prime_count_bound(k)
    need = 1024 + bt._MAP_BYTES * 2731
    assert listed < need
    prof = assert_counted(
        need, lambda: u_profile(10**6 + 3, k), peak=listed + need, match="the valuations of the primes to 24671"
    )
    assert len(prof.valuations) == 2731 and max(prof.valuations) == k


def test_witness_memory_budget():
    """``lower_bound_witness`` counts its map of exponents as ``u_profile``
    counts its valuations, after the list of the primes to K has counted
    itself: at K = 24,671 the peak, M_K included, stays within the two
    counts, and the map's passes exactly and refuses one byte less."""
    K = 24_671
    pr._prime_list(K)  # the cached array counts itself, once
    listed = 1024 + pr._INT_BYTES * pr._prime_count_bound(K)
    need = 1024 + bt._MAP_BYTES * 2731
    w = assert_counted(
        need, lambda: lower_bound_witness(K), peak=listed + need, match="the exponents of the primes to 24671"
    )
    assert len(w.exponents) == 2731 and w.exponents[2] == 15


@pytest.mark.parametrize("n, c", [(10**6, 6.21), (10**18, 200.0)])
def test_certificate_memory_budget(n, c):
    """The certificate reads the primes <= Y a segment at a time and counts
    one segment of min(Y, SEGMENT_SPAN) integers: its mask, 4 KiB and
    ``_STREAM_BYTES`` per prime of the bound. Its peak stays within that
    count, the exact count passes and one byte less refuses."""
    y = int(c * math.log(n) ** 2)
    span = min(y, pr.SEGMENT_SPAN)
    need = span // 2 + 4096 + bt._STREAM_BYTES * pr._prime_count_bound(span)
    want = certificate_average(n, c)  # the base primes count their own list
    assert assert_counted(need, lambda: certificate_average(n, c)) == want


def test_certificate_counts_the_span_read_at_call_time(monkeypatch):
    """The count reads ``primes.SEGMENT_SPAN`` when the certificate runs: at
    a span of 2^12 it is one segment of 2^12 integers, far below the
    Y = 343,562 integers counted at the sieve's own span."""
    n, c = 10**18, 200.0
    want = certificate_average(n, c)
    monkeypatch.setattr(pr, "SEGMENT_SPAN", 1 << 12)
    need = (1 << 11) + 4096 + bt._STREAM_BYTES * pr._prime_count_bound(1 << 12)
    assert assert_counted(need, lambda: certificate_average(n, c)) == want


def test_certificate_holds_no_prime_list():
    """After the certificate returns it holds nothing but the one prime
    cache array. The ~29,000 primes <= Y = 343,562 are read from the stream,
    slices of the cache grown to the primes below 2^19, and their Python
    ints are dropped span by span, where a list of them held ~1.4 MB. What
    is held is that array, within its ``sys.getsizeof`` (data and header)
    and 4 KiB for numpy's small objects. Measured from a cold cache, code
    paths warm."""
    certificate_average(10**6, 6.21)
    pr._cache = (0, np.empty(0, dtype=np.int64))
    tracemalloc.start()
    rep = certificate_average(10**18, 200.0)
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    bits, cached = pr._cache
    assert bits == 19 and len(cached) == 43390
    assert rep.y == 343562 and held < sys.getsizeof(cached) + 4096


def test_f_threshold_of_witness_predecessor():
    w = lower_bound_witness(13)
    res = f_threshold(w.M_K - 1)
    assert res.f is not None and res.f > 13


def test_certificate_trivial_y1():
    n = 50
    c = 1.0 / math.log(n) ** 2 * 1.5  # Y = 1
    rep = certificate_average(n, c)
    assert rep.y == 1
    assert rep.average == 0.0


def test_certificate_against_direct_scan():
    n = 10**4
    rep = certificate_average(n, 6.21)
    logs = [math.log(u_profile(n, k).exact_u) for k in range(1, rep.y + 1)]
    assert abs(rep.average - sum(logs) / rep.y) < 1e-9


def _carries_oracle(n: int, y: int, p: int, start: int) -> int:
    """sum of v_p(C(n, k)) over start <= k <= y, each by factoring C(n, k)."""
    return sum(comb_exponent(n, k, p) for k in range(start, y + 1))


def test_carries_equal_summed_valuations():
    """N_p from ``_carries`` is the sum of v_p(C(n, k)) over p <= k <= Y,
    by factoring each C(n, k), for odd n <= 120 and Y <= n, and at edge n:
    M_K - 1, prime powers and their neighbours, and 2^64 - 59.

    Mutation control: the oracle counted from k = 1 differs on these inputs,
    so a count that starts at k = 1 instead of k = p fails here."""
    cases = [(n, y) for n in range(3, 121, 2) for y in range(1, n + 1, 9)]
    edges = [lower_bound_witness(K).M_K - 1 for K in (5, 10, 20)]
    edges += [2**16, 2**16 - 1, 3**10 - 1, 5**7, 5**7 + 1, 7**6 - 1, 2**64 - 59]
    cases += [(n, y) for n in edges for y in (1, 2, 30, 97, 160)]
    checked = differs_from_one = 0
    for n, y in cases:
        for p in (sieve_primes(y).primes.tolist() if y >= 2 else ()):
            checked += 1
            below_p = _carries_oracle(n, p - 1, p, 1)
            want = _carries_oracle(n, y, p, p)
            assert bt._carries(n, y, p) == want, (n, y, p)
            differs_from_one += below_p > 0
    assert differs_from_one > checked // 2


def test_certificate_certifies_f_bound():
    for n in (10**4, 10**6):
        rep = certificate_average(n, 6.21)
        if rep.certified:
            res = f_threshold(n)
            assert res.f is not None and res.f <= rep.y


def test_certificate_rejects_tiny_y():
    with pytest.raises(ValueError):
        certificate_average(3, 0.001)


@pytest.mark.parametrize("c", [0, -1, float("nan"), float("inf")])
def test_certificate_rejects_c_not_finite_and_positive(c):
    with pytest.raises(ValueError, match="c must be a finite positive number"):
        certificate_average(10**6, c)


def test_witness_examples():
    w2 = lower_bound_witness(2)
    assert w2.M_K == 4
    assert [u_profile(3, k).exact_u for k in range(3)] == [1, 1, 1]
    w5 = lower_bound_witness(5)
    assert w5.M_K == 1800
    assert w5.exponents == {2: 3, 3: 2, 5: 2}
    # oracle: factor C(1799, k) directly
    for k in range(6):
        c = math.comb(1799, k)
        assert all(c % p for p in (2, 3, 5)) or k == 0, k
    assert abs(w5.log_ratio - math.log(1800) / 5) < 1e-12
    with pytest.raises(ValueError):
        lower_bound_witness(1)


def test_witness_at_300_verifies():
    """K = 300: 62 primes, each checked in closed form against an 832-bit n."""
    w = lower_bound_witness(300)
    assert w.M_K == math.lcm(*range(1, 301)) * math.prod(sieve_primes(300).primes.tolist())
    assert 1.5 <= w.log_ratio <= 2.06


def test_witness_closed_form_matches_per_k_oracle():
    """Every witness the closed form passes has u(M_K - 1, k) = 1 for each
    k <= K by the per-k oracle, K = 2..54 and two seeded K up to 300; n = M_K,
    where 2 divides C(n, 2), fails the oracle."""
    rng = random.Random(0x3113)
    for K in [*range(2, 55), *rng.sample(range(55, 301), 2)]:
        m = lower_bound_witness(K).M_K
        assert witness_holds(m - 1, K), K
        assert not witness_holds(m, K), K


def test_witness_check_fires(monkeypatch):
    """An exponent of 2 one short (2^2 <= 5) breaks the closed-form check; the
    n it builds, 899, has v_2(C(899, 4)) = 5, so the witness property fails."""
    real = bt._witness_exponent
    monkeypatch.setattr(bt, "_witness_exponent", lambda p, K: real(p, K) - (p == 2))
    with pytest.raises(VerificationError) as err:
        lower_bound_witness(5)
    assert str(err.value) == "M_5-1 is not -1 mod 2^2 with 2^1 <= 5 < 2^2; witness property fails"
    assert not witness_holds(2**2 * 3**2 * 5**2 - 1, 5)


def test_witness_exponent_bracketing():
    for K in (2, 7, 16, 20):
        w = lower_bound_witness(K)
        m = 1
        for p, e in w.exponents.items():
            assert p ** (e - 1) <= K < p**e
            m *= p**e
        assert m == w.M_K
