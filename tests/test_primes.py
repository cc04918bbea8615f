"""Sieve, rank access, residues and factorial valuations against naive oracles."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdos_trio import (
    DigitExpansion,
    ResourceLimitError,
    digit_expansion,
    factorial_valuation,
    is_prime,
    residue,
    sieve_primes,
)
from erdos_trio.primes import _odd_sieve, _segmented_sieve

from oracles import prime_exponent, trial_division_primes


def test_sieve_examples():
    assert list(sieve_primes(1)) == []
    assert list(sieve_primes(0)) == []
    assert list(sieve_primes(2)) == [2]
    assert list(sieve_primes(10)) == [2, 3, 5, 7]
    assert len(sieve_primes(100)) == 25


def test_sieve_matches_trial_division():
    oracle = trial_division_primes(10**5)
    table = sieve_primes(10**5)
    assert list(table) == oracle
    # pi(x) agrees everywhere below the limit
    arr = np.array(oracle)
    for x in (1, 2, 3, 10, 97, 100, 1000, 99991, 10**5):
        assert table.count(x) == int(np.searchsorted(arr, x, side="right"))


def test_segmented_sieve_matches_simple():
    for limit in (10, 100, 65537, 10**5, 123456):
        np.testing.assert_array_equal(
            _segmented_sieve(limit, 1 << 12), _odd_sieve(limit)
        )


def test_prime_table_rank_roundtrip():
    table = sieve_primes(10**4)
    assert table.p(1) == 2
    assert table.p(2) == 3
    for n in range(1, len(table) + 1):
        assert table.index_of(table.p(n)) == n
    assert 9973 in table
    assert 9975 not in table
    with pytest.raises(ValueError):
        table.index_of(4)
    with pytest.raises(IndexError):
        table.p(len(table) + 1)


def test_memory_budget_enforced():
    with pytest.raises(ResourceLimitError):
        sieve_primes(10**12, memory_budget=10**6)


def test_residue_examples():
    assert residue(7, 5) == 2
    assert residue(3, 4) == 3  # M_2 - 1 = 2^2 - 1
    for n in (0, 1, 17, 10**30):
        assert residue(n, 1) == 0
    with pytest.raises(ValueError):
        residue(5, 0)


def test_residue_matches_divmod_on_512_bit_inputs():
    rng = random.Random(0xE5D05)
    for _ in range(200):
        n = rng.getrandbits(512)
        m = rng.getrandbits(rng.randrange(1, 128)) + 1
        assert residue(n, m) == divmod(n, m)[1]
        assert 0 <= residue(n, m) < m


def test_factorial_valuation_examples():
    assert factorial_valuation(0, 2) == 0
    assert factorial_valuation(10, 2) == 8
    assert factorial_valuation(10, 7) == 1
    # direct big-integer anchor
    assert prime_exponent(math.factorial(10), 2) == 8
    with pytest.raises(ValueError):
        factorial_valuation(10, 4)


def test_factorial_valuation_against_accumulated_factorization():
    """v_p(n!) for all n <= 2000, p <= n: accumulate exponents of 1..n."""
    limit = 2000
    primes = list(sieve_primes(limit))
    exponents = dict.fromkeys(primes, 0)
    for n in range(1, limit + 1):
        x = n
        for p in primes:
            if p * p > x:
                break
            while x % p == 0:
                x //= p
                exponents[p] += 1
        if x > 1:
            exponents[x] += 1
        for p in primes:
            if p > n:
                break
            assert factorial_valuation(n, p) == exponents[p], (n, p)


def test_factorial_valuation_big_integer_anchor():
    fact = math.factorial(2000)
    for p in (2, 3, 5, 97, 1999):
        assert factorial_valuation(2000, p) == prime_exponent(fact, p)


def test_is_prime_matches_trial_division():
    oracle = set(trial_division_primes(2000))
    for x in range(2000 + 1):
        assert is_prime(x) == (x in oracle)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)
    # strong pseudoprime to every prime base up to 37 (Sorenson & Webster)
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=2, max_value=10**6))
def test_digit_expansion_roundtrip(n, base):
    exp = digit_expansion(n, base)
    assert exp.value == n
    assert all(0 <= d < base for d in exp.digits)
    if n:
        assert exp.digits[-1] != 0
    else:
        assert exp.digits == (0,)
    for t in (0, 1, 2, 5):
        assert exp.residue(t) == n % base**t


def test_digit_expansion_rejects_leading_zero():
    with pytest.raises(ValueError):
        DigitExpansion(base=10, digits=(1, 0))
