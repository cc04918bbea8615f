"""Sieve, prime counting and primality against naive oracles."""

import time
import tracemalloc

import numpy as np
import pytest

from erdos_trio import ResourceLimitError, is_prime, lower_bound_witness, sieve_primes
from erdos_trio import errors, primes

from oracles import trial_division_primes


def test_sieve_examples():
    assert sieve_primes(1).primes.tolist() == []
    assert sieve_primes(0).primes.tolist() == []
    assert sieve_primes(2).primes.tolist() == [2]
    assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]
    assert len(sieve_primes(100)) == 25


def test_sieve_matches_trial_division():
    oracle = trial_division_primes(10**5)
    table = sieve_primes(10**5)
    assert table.primes.tolist() == oracle
    # pi(x) agrees everywhere below the limit
    arr = np.array(oracle)
    for x in (1, 2, 3, 10, 97, 100, 1000, 99991, 10**5):
        assert table.count(x) == int(np.searchsorted(arr, x, side="right"))


def test_segmented_sieve_matches_simple(monkeypatch):
    """The one sieve against simple trial division, with a span small enough
    that a run crosses many segment boundaries."""
    span = 1 << 12
    monkeypatch.setattr(primes, "SEGMENT_SPAN", span)
    oracle = trial_division_primes(123456)
    for limit in (0, 1, 2, 3, 10, span - 1, span, span + 1, 2 * span + 1, 65537, 123456):
        table = sieve_primes(limit)
        assert table.primes.dtype == np.int64
        assert table.primes.tolist() == [p for p in oracle if p <= limit], limit


def test_memory_budget_enforced(monkeypatch):
    with pytest.raises(ResourceLimitError):
        sieve_primes(10**12)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", 10**6)
    with pytest.raises(ResourceLimitError):
        sieve_primes(10**6)
    assert len(sieve_primes(10**4)) == 1229


def test_prime_list_counted_on_a_cache_miss(monkeypatch):
    """A cached prime list is counted before it is sieved, at a size per
    prime that covers what tracemalloc measures; a cache hit pays nothing."""
    bits = 18
    need = primes._LIST_BYTES * primes._prime_count_bound((1 << bits) - 1)
    primes._primes_below_power_of_two.cache_clear()
    tracemalloc.start()
    try:
        primes._primes_below_power_of_two(bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need
    primes._primes_below_power_of_two.cache_clear()
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", need)
    assert len(primes._prime_list((1 << bits) - 1)) == 23000
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", 0)
    assert len(primes._prime_list((1 << bits) - 1)) == 23000  # a hit
    primes._primes_below_power_of_two.cache_clear()
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", need - 1)
    with pytest.raises(ResourceLimitError):
        primes._prime_list((1 << bits) - 1)
    monkeypatch.undo()
    # M_K for K = 1e10 asks for the primes below 2^34, ~45 GB as a list
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        lower_bound_witness(10**10)
    assert time.perf_counter() - start < 1.0


def test_is_prime_matches_trial_division():
    oracle = set(trial_division_primes(2000))
    for x in range(2000 + 1):
        assert is_prime(x) == (x in oracle)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)
    # strong pseudoprime to every prime base up to 37 (Sorenson & Webster)
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
