"""Sieve, prime counting and primality against naive oracles."""

import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from erdos_trio import ResourceLimitError, is_prime, lower_bound_witness, sieve_primes, u_profile
from erdos_trio import errors, primes

from budget import assert_counted, peak_bytes
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


def test_prime_bounds_past_float_range_are_trivial():
    """From 2^1000 on the bounds are pi(x) <= x and p_n <= n^2, in integers;
    below it they are the float formulas, unchanged."""
    for x in (2**1000, 10**400, 10**5000):
        assert primes._prime_count_bound(x) == x
        assert primes._nth_prime_bound(x) == x * x
    x = 2**1000 - 1
    assert primes._prime_count_bound(x) == int(1.3 * x / math.log(x))
    assert primes._nth_prime_bound(x) == int(x * (math.log(x) + math.log(math.log(x))))


def test_nth_prime_bound_covers_every_prime_to_2e5():
    """n (ln n + ln ln n), floored at 100, is at least p_n for every n up to
    2e5, read from one sieve, so a scan's table always holds its primes."""
    n = 2 * 10**5
    ps = sieve_primes(primes._nth_prime_bound(n)).primes[:n].tolist()
    assert len(ps) == n
    assert all(primes._nth_prime_bound(i) >= p for i, p in enumerate(ps, 1))


def test_segmented_sieve_matches_simple(monkeypatch):
    """The one sieve against simple trial division, with spans small enough
    that a run crosses many segment boundaries: 2^8 integers first, doubling
    to 2^12. Each segment holds the primes of its span of ``_spans``, from 0
    or from a later start. So does each array of the stream, with the cache
    capped at 2^12 so that the stream crosses it at the span [3840, 7936)."""
    span = 1 << 12
    monkeypatch.setattr(primes, "_FIRST_SPAN", 1 << 8)
    monkeypatch.setattr(primes, "SEGMENT_SPAN", span)
    monkeypatch.setattr(primes, "_CACHE_BITS", 12)
    oracle = trial_division_primes(123456)
    for limit in (0, 1, 2, 3, 10, 255, 256, 257, span - 1, span, span + 1, 2 * span + 1, 65537, 123456):
        table = sieve_primes(limit)
        assert table.primes.dtype == np.int64
        assert table.primes.tolist() == [p for p in oracle if p <= limit], limit
        spans = list(primes._spans(limit))
        assert spans[0][0] == 0 and spans[-1][1] == limit + 1
        assert [hi - lo for lo, hi in spans[:-1]] == [min(256 << i, span) for i in range(len(spans) - 1)]
        segments = list(primes._segments(limit))
        assert len(segments) == (len(spans) if limit >= 2 else 0)
        for (lo, hi), segment in zip(spans, segments):
            assert segment.tolist() == [p for p in oracle if lo <= p < hi], (limit, lo)
        # from an even start past 2, the spans that end past it, the first cut
        for start in (4, 256, 1000, 3840, span, 65536):
            later = [(max(lo, start), hi) for lo, hi in spans if hi > start]
            segments = list(primes._segments(limit, start))
            assert len(segments) == (len(later) if limit >= 2 else 0)
            for (lo, hi), segment in zip(later, segments):
                assert segment.tolist() == [p for p in oracle if lo <= p < hi], (limit, start, lo)
        streamed = list(primes._stream(limit))
        assert len(streamed) == len(spans)
        for (lo, hi), segment in zip(spans, streamed):
            assert segment.tolist() == [p for p in oracle if lo <= p < hi], (limit, lo)


def test_stream_reads_the_cache_below_2_to_the_24(monkeypatch):
    """The stream gives the primes of ``sieve_primes(limit)``, one array per
    span of ``_spans(limit)``, on both sides of 2^24 and across the span
    that crosses it, [2^24 - 2^12, 2^25 - 2^12). Spans below 2^24 are slices
    of the warm cache; from the crossing span on the stream is one
    ``_segments`` call from that span's start, so nothing below it is
    sieved again. Given a table, the stream is sliced from it at the same
    spans, and equals the cache's stream span for span."""
    cap = 1 << primes._CACHE_BITS
    crossing = next((lo, hi) for lo, hi in primes._spans(2 * cap) if hi > cap)
    assert crossing == (cap - primes._FIRST_SPAN, 2 * cap - primes._FIRST_SPAN)
    table = sieve_primes(crossing[1])
    whole = table.primes
    primes._prime_list(cap - 1)
    calls = []
    real = primes._segments
    monkeypatch.setattr(primes, "_segments", lambda *args: calls.append(args) or real(*args))
    limits = (cap - 1, cap, cap + 1, cap + 10**6, crossing[1] - 1, crossing[1])
    for limit in limits:
        streamed = list(primes._stream(limit))
        spans = list(primes._spans(limit))
        assert len(streamed) == len(spans)
        for (lo, hi), segment in zip(spans, streamed):
            assert np.all((lo <= segment) & (segment < hi)), (limit, lo)
        expect = whole[: np.searchsorted(whole, limit, side="right")]
        assert np.array_equal(np.concatenate(streamed), expect), limit
        sliced = list(primes._stream(limit, table))
        assert len(sliced) == len(streamed) and all(map(np.array_equal, sliced, streamed)), limit
    assert calls == [(limit, crossing[0]) for limit in limits[1:]]


def test_memory_budget_enforced(monkeypatch):
    with pytest.raises(ResourceLimitError):
        sieve_primes(10**12)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", 10**6)
    with pytest.raises(ResourceLimitError):
        sieve_primes(10**6)
    assert len(sieve_primes(10**4)) == 1229


def _cold_cache():
    primes._cache = (0, np.empty(0, dtype=np.int64))


def test_prime_list_counted_on_a_cache_miss(monkeypatch):
    """A miss of the prime cache is counted as a sieve to the same limit,
    by the cache's own ``reserve``, before anything is built. From a cold
    cache it grows one power of two at a time, each step counted alike, and
    the peak holds only the last array and its join: 0.65 of the count at
    2^18 - 1. With the primes below 2^17 cached, the miss joins them with
    one ``_segments`` call from 2^17, so no cached prime is sieved again:
    0.48 of the count. A hit pays nothing. Past 2^24 the primes are sieved
    per call, under the same count, and not cached."""
    limit = (1 << 18) - 1
    need = min(limit, primes.SEGMENT_SPAN) // 2 + 1024 + primes._SIEVE_BYTES * primes._prime_count_bound(limit)
    listed = assert_counted(need, lambda: primes._prime_list(limit), before=_cold_cache)
    assert len(listed) == 23000 and listed.dtype == np.int64

    def below_2_to_the_17():
        _cold_cache()
        primes._prime_list((1 << 17) - 1)

    grown = assert_counted(need, lambda: primes._prime_list(limit), before=below_2_to_the_17)
    assert np.array_equal(grown, listed)
    below_2_to_the_17()
    calls = []
    real = primes._segments
    monkeypatch.setattr(primes, "_segments", lambda *args: calls.append(args) or real(*args))
    assert np.array_equal(primes._prime_list(limit), listed) and calls == [(limit, 1 << 17)]
    monkeypatch.undo()
    primes._prime_list(limit)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", 0)
    assert len(primes._prime_list(limit)) == 23000  # a hit
    monkeypatch.undo()
    assert np.shares_memory(primes._prime_list(limit), primes._prime_list(limit))  # one cached array
    past = primes._prime_list(1 << 24)
    assert len(past) == 1077871 and not np.shares_memory(past, primes._prime_list(1 << 24))


def test_cache_holds_one_array():
    """From a cold cache, the primes below 2^20 leave one array held, within
    its ``sys.getsizeof`` (data and header) and 4 KiB for numpy's small
    objects: each step drops the array it grew from. Every smaller request
    is a prefix of that array."""
    _cold_cache()
    primes._prime_list(1 << 12)  # code paths warm
    _cold_cache()
    tracemalloc.start()
    listed = primes._prime_list((1 << 20) - 1)
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    cached = primes._cache[1]
    assert len(listed) == len(cached) == 82025
    assert held <= sys.getsizeof(cached) + 4096
    assert np.shares_memory(primes._prime_list(1000), listed)


@pytest.mark.parametrize("limit", [(1 << 18) - 1, 1 << 24])
def test_prime_ints_counted_before_they_are_read(limit):
    """``_prime_ints`` counts its list of Python ints before it reads a
    prime: a cached prefix below 2^24, and at 2^24 a sieve for the call,
    whose own count is below the list's and whose array the peak holds."""
    need = 1024 + primes._INT_BYTES * primes._prime_count_bound(limit)
    ints = assert_counted(need, lambda: primes._prime_ints(limit))
    assert ints == primes._prime_list(limit).tolist() and type(ints[-1]) is int


def test_prime_ints_refused_before_any_sieve():
    """The callers that take the primes as Python ints are refused by the
    list's count before a prime is sieved: ~3.0 GB for the primes to 1e9,
    ~27 GB to 1e10."""
    for call in (lambda: u_profile(10**10, 10**9), lambda: lower_bound_witness(10**10)):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="a list of the primes to 10000000000? needs"):
            call()
        assert time.perf_counter() - start < 1.0


def test_cached_primes_refuse_writes():
    """The cached array, and every prefix ``_prime_list`` serves from it, is
    read-only: a caller cannot corrupt the primes other callers read."""
    for served in (primes._prime_list(1000), primes._cache[1], primes._prime_list(1 << 24)):
        assert not served.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            served[0] = 4


@pytest.mark.parametrize("limit, count", [(10**4, 1229), (10**6, 78498), (3 * 10**7, 1857859)])
def test_sieve_counted_before_it_runs(limit, count):
    """``sieve_primes`` counts one segment's mask, 1 KiB and ``_SIEVE_BYTES``
    per prime of the bound before it sieves, covering what tracemalloc
    measures, on one segment and on two (3e7 > 2^24). The sieving primes
    are cached first: their list counts itself."""
    mask = min(limit, primes.SEGMENT_SPAN) // 2
    need = mask + 1024 + primes._SIEVE_BYTES * primes._prime_count_bound(limit)
    primes._prime_list(math.isqrt(limit))
    assert len(assert_counted(need, lambda: sieve_primes(limit))) == count


@pytest.mark.parametrize("limit", [10**6, 10**7, 3 * 10**7])
def test_sieve_peak_within_three_quarters_of_its_count(limit):
    """Segments turn their indices into primes in place and drop their
    masks before the join, which holds the chunks and their concatenation."""
    need = min(limit, primes.SEGMENT_SPAN) // 2 + 1024 + primes._SIEVE_BYTES * primes._prime_count_bound(limit)
    primes._prime_list(math.isqrt(limit))
    assert peak_bytes(lambda: sieve_primes(limit)) <= 0.75 * need


def test_is_prime_matches_trial_division():
    """On both sides of the set's bound 2^16: below it is_prime is a set
    lookup, and from 65536 on Miller-Rabin, whose first prime is 65537."""
    bound = primes._SMALL_PRIME_BOUND
    assert bound == 1 << 16
    oracle = set(trial_division_primes(bound + 30000))
    for x in [*range(-5, 2001), *range(bound - 3000, bound + 30001)]:
        assert is_prime(x) == (x in oracle), x
    assert min(p for p in oracle if p >= bound) == 65537
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)
    # strong pseudoprime to every prime base up to 37 (Sorenson & Webster)
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
