"""Sieve, rank access and primality against naive oracles."""

import numpy as np
import pytest

from erdos_trio import ResourceLimitError, is_prime, sieve_primes
from erdos_trio.primes import _odd_sieve, _segmented_sieve

from oracles import trial_division_primes


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


def test_is_prime_matches_trial_division():
    oracle = set(trial_division_primes(2000))
    for x in range(2000 + 1):
        assert is_prime(x) == (x in oracle)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)
    # strong pseudoprime to every prime base up to 37 (Sorenson & Webster)
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
