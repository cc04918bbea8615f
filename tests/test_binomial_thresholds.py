"""u(n,k), f(n), the averaging certificate and the composite witness.

Expected values are either tiny enough to factor by hand in the test or
derived from big-integer factorization oracles in ``oracles.py``.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from erdos_trio import (
    certificate_average,
    f_threshold,
    lower_bound_witness,
    sieve_primes,
    u_profile,
    valuation_binomial,
    valuation_row,
)
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
    primes = list(sieve_primes(120))
    for n in range(0, 121):
        for k in range(0, n + 1):
            for p in primes:
                if p > k:
                    break
                ind = valuation_binomial(n, k, p, "indicator")
                leg = valuation_binomial(n, k, p, "legendre")
                assert ind == leg == comb_exponent(n, k, p), (n, k, p)


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
    # log_u agrees with the materialized product
    for n, k in ((10, 5), (100, 40), (5000, 120)):
        prof = u_profile(n, k)
        if prof.exact_u > 1:
            assert math.isclose(prof.log_u, math.log(prof.exact_u), rel_tol=1e-9)


def test_u_profile_against_big_integer_factorization():
    primes = list(sieve_primes(200))
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
            assert abs(series[k] - u_profile(n, k).log_u) < 1e-9, (n, k)


def test_log_u_series_prefix_is_window_independent():
    """The entry at k is the same bits whatever the window K >= k: the sweep
    only sees factor events at positions <= k, and a prime p joins the sum
    at k = p. ``f_threshold``'s 64-then-double window rests on this."""
    for n in (1007, 10**6 + 3, 2**64 - 59):
        assert np.array_equal(_log_u_series(n, 64), _log_u_series(n, min(n, 1024))[:65]), n


def test_f_threshold_across_window_doublings():
    primes = list(sieve_primes(400))
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
    primes = list(sieve_primes(500))
    for n in range(1, 300):
        assert f_threshold(n).f == f_oracle(n, primes, 500), n


def test_f_threshold_guard_band_paths_agree():
    """A huge guard band forces every decision through exact arithmetic."""
    for n in range(2, 120):
        default = f_threshold(n)
        exact = f_threshold(n, guard=1e9)
        assert default.f == exact.f
        if exact.f is not None:
            assert exact.decided_exactly
    # and a zero band (pure float) still agrees on moderate n
    for n in (10, 97, 1799, 123456):
        assert f_threshold(n, guard=0.0).f == f_threshold(n).f


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
    logs = [u_profile(n, k).log_u for k in range(1, rep.y + 1)]
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


def test_witness_exponent_bracketing():
    for K in (2, 7, 16, 20):
        w = lower_bound_witness(K)
        m = 1
        for p, e in w.exponents.items():
            assert p ** (e - 1) <= K < p**e
            m *= p**e
        assert m == w.M_K
