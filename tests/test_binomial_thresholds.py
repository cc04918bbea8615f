"""u(n,k), f(n), the averaging certificate and the composite witness.

Expected values are either tiny enough to factor by hand in the test or
derived from big-integer factorization oracles in ``oracles.py``.
"""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from erdos_trio import (
    ResourceLimitError,
    certificate_average,
    f_threshold,
    lower_bound_witness,
    sieve_primes,
    u_profile,
    valuation_binomial,
    valuation_row,
)
from erdos_trio import binomial_thresholds as bt
from erdos_trio import errors
from erdos_trio.binomial_thresholds import _log_u_series

from oracles import comb_exponent, f_oracle, legendre_valuation, small_prime_part


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


def test_valuation_row_memory_budget(monkeypatch):
    """The budget counts every temporary row, and is read at call time."""
    n = 1000
    need = bt._ROW_BYTES * (n + 1)
    valuation_row(n, 3)  # fills the prime caches, which count their own fill
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", need)
    for method in ("indicator", "legendre"):
        row = valuation_row(n, 3, method=method)
        assert row[500] == comb_exponent(n, 500, 3)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", need - 1)
    with pytest.raises(ResourceLimitError):
        valuation_row(n, 3)
    monkeypatch.undo()
    # ~28 GB of rows: refused before any row is built
    with pytest.raises(ResourceLimitError):
        valuation_row(10**9, 2, method="legendre")


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


def test_log_u_series_matches_profiles():
    for n in (10, 1799, 10**6, 2**64 - 59):
        k_max = min(n, 120)
        series = _log_u_series(n, k_max)
        for k in range(1, k_max + 1):
            assert abs(series[k] - math.log(u_profile(n, k).exact_u)) < 1e-9, (n, k)


def test_ledger_replays_exact_u_with_exact_divisions():
    """Multiplying out the ledger's steps gives u_profile's exact u at every
    k, and every division by p on a -1 step leaves no remainder."""
    for n in (10, 1799, 10**6, 2**64 - 59, lower_bound_witness(12).M_K - 1):
        k_max = min(n, 120)
        ledger = bt._u_steps(n, k_max)
        assert ledger[0] == []
        u = 1
        for k in range(1, k_max + 1):
            for p, e in ledger[k]:
                if e == -1:
                    assert u % p == 0, (n, k, p)
                    u //= p
                else:
                    assert e > 0, (n, k, p)
                    u *= p**e
            assert u == u_profile(n, k).exact_u, (n, k)


def test_log_u_series_prefix_is_window_independent():
    """The entry at k is the same bits whatever the window K >= k: the sweep
    only sees factor events at positions <= k, and a prime p joins the sum
    at k = p. ``f_threshold``'s 64-then-double window rests on this."""
    for n in (1007, 10**6 + 3, 2**64 - 59):
        assert np.array_equal(_log_u_series(n, 64), _log_u_series(n, min(n, 1024))[:65]), n


def test_f_threshold_across_window_doublings():
    primes = sieve_primes(400).primes.tolist()
    # f(M_40 - 1) = 371: the window widens 64 -> 128 -> 256 -> 512
    n = lower_bound_witness(40).M_K - 1
    assert f_threshold(n).f == f_oracle(n, primes, 400) == 371
    # f(4549) = 67 is the largest f(n) for n <= 5000, one doubling past 64
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


def test_ledger_memory_budget(monkeypatch):
    """The u(n, k) ledger is refused before it is built when its positions
    would exceed the budget, which is read at call time."""
    n, c = 10**6, 6.21
    y = certificate_average(n, c).y
    need = bt._STEP_BYTES * y
    tracemalloc.start()
    try:
        certificate_average(n, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", need)
    assert certificate_average(n, c).y == y
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", need - 1)
    with pytest.raises(ResourceLimitError):
        certificate_average(n, c)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", bt._STEP_BYTES * 64 - 1)
    with pytest.raises(ResourceLimitError):
        f_threshold(n)
    monkeypatch.undo()
    # Y ~ 3.4e7 positions, ~20 GB of ledger: refused before any is built
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        certificate_average(10**18, 20000)
    assert time.perf_counter() - start < 1.0


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
    assert rep.argmax_k == int(np.argmax(logs)) + 1
    assert abs(rep.max_log_u - max(logs)) < 1e-12
    assert rep.diagnostics[0]["j"] == 2


def test_certificate_certifies_f_bound():
    for n in (10**4, 10**6):
        rep = certificate_average(n, 6.21)
        if rep.certified:
            res = f_threshold(n)
            assert res.f is not None and res.f <= rep.y


def test_certificate_rejects_tiny_y():
    with pytest.raises(ValueError):
        certificate_average(3, 0.001)


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
    """The witness check runs the legendre form's early exit on every (k, p):
    K = 300 is 62 primes times 301 values of k over an 832-bit n."""
    w = lower_bound_witness(300)
    assert w.M_K == math.lcm(*range(1, 301)) * math.prod(sieve_primes(300).primes.tolist())
    assert 1.5 <= w.log_ratio <= 2.06


def test_witness_exponent_bracketing():
    for K in (2, 7, 16, 20):
        w = lower_bound_witness(K)
        m = 1
        for p, e in w.exponents.items():
            assert p ** (e - 1) <= K < p**e
            m *= p**e
        assert m == w.M_K
