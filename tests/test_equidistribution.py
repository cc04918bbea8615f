"""Fractional parts, exact discrepancy, approximants, prime strings, clustering."""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erdos_trio import (
    ResourceLimitError,
    VerificationError,
    cluster_verify,
    dirichlet_approx,
    find_prime_string,
    fractional_part,
    interval_discrepancy,
    parse_alpha,
    sieve_primes,
    torus_distance,
    well_distribution_statistic,
    window_sample,
)
from erdos_trio import equidistribution, errors, primes
from erdos_trio.equidistribution import _discrepancy

from oracles import family_discrepancy, grid_discrepancy, is_prime_oracle, star_discrepancy


@pytest.fixture(scope="module")
def table_1e5():
    return sieve_primes(10**5)


def test_parse_alpha_forms():
    assert parse_alpha(0.5) == Fraction(1, 2)
    assert parse_alpha("22/7") == Fraction(22, 7)
    assert parse_alpha("1.25") == Fraction(5, 4)
    assert parse_alpha(Fraction(3, 11)) == Fraction(3, 11)
    assert parse_alpha(2) == Fraction(2)
    root2 = parse_alpha("sqrt:2", 128)
    assert abs(root2 * root2 - 2) < Fraction(1, 2**120)
    golden = parse_alpha("golden", 128)
    assert abs(golden * golden - golden - 1) < Fraction(1, 2**120)
    with pytest.raises(ValueError):
        parse_alpha("sqrt:-1")
    with pytest.raises(TypeError):
        parse_alpha([1])  # type: ignore[arg-type]
    root2 = parse_alpha("sqrt:2", 8192)
    assert abs(root2 * root2 - 2) < Fraction(1, 2**8190)
    for bits in (0, 8193):
        with pytest.raises(ValueError, match="between 1 and 8192 bits"):
            parse_alpha("sqrt:2", bits)


def test_window_sample_examples(table_1e5):
    assert window_sample(0, 0, 3, table_1e5) == (Fraction(0), Fraction(0), Fraction(0))
    # primes 2, 3, 5
    assert window_sample(0.5, 0, 3, table_1e5) == (Fraction(0), Fraction(1, 2), Fraction(1, 2))
    # primes 3, 5
    assert window_sample(Fraction(1, 3), 1, 2, table_1e5) == (Fraction(0), Fraction(2, 3))
    with pytest.raises(ValueError):
        window_sample(0.5, len(table_1e5), 5, table_1e5)
    with pytest.raises(ValueError):
        window_sample(0.5, 0, 0, table_1e5)


def test_fractional_part_is_exact():
    a = Fraction(10**40 + 7, 3 * 10**40)
    p = 99991
    fp = fractional_part(a, p)
    assert 0 <= fp < 1
    assert (a * p - fp).denominator == 1


def test_discrepancy_single_point_is_one():
    for x in (0.0, 0.3, 0.999):
        assert interval_discrepancy([x]) == 1.0
    assert interval_discrepancy([Fraction(1, 3)]) == Fraction(1)


def test_discrepancy_rejects_points_outside_unit_interval():
    for pts in ([0.2, 1.7], [-0.3], [Fraction(1)], [Fraction(1, 2), Fraction(-1, 9)]):
        with pytest.raises(ValueError):
            interval_discrepancy(pts)
    assert interval_discrepancy([0]) == 1.0
    assert interval_discrepancy([1 - 2**-53]) == 1.0
    assert interval_discrepancy([0, 1 - 2**-53]) == 1 - 2**-53


def test_discrepancy_two_point_example():
    assert interval_discrepancy([0.0, 0.5]) == 0.5
    assert interval_discrepancy([Fraction(0), Fraction(1, 2)]) == Fraction(1, 2)


def test_discrepancy_equally_spaced_exact():
    for k in (1, 2, 3, 5, 8, 13, 64):
        pts = [Fraction(i, k) for i in range(k)]
        d = interval_discrepancy(pts)
        assert isinstance(d, Fraction) and d == Fraction(1, k)
        floats = [i / k for i in range(k)]
        assert abs(interval_discrepancy(floats) - 1 / k) < 1e-12


def test_discrepancy_matches_grid_bruteforce():
    rng = random.Random(5)
    for _ in range(60):
        k = rng.randrange(1, 13)
        pts = [rng.random() for _ in range(k)]
        exact = interval_discrepancy(pts)
        grid = grid_discrepancy(pts)
        assert exact >= grid - 1e-12
        assert exact <= grid + 2 / 1024 + 1e-12


def test_float_batch_rows_match_1d_and_oracle():
    rng = np.random.RandomState(6)
    for k in (1, 2, 3, 7, 50, 199):
        batch = np.sort(rng.rand(40, k), axis=1)
        if k > 3:
            batch[::2, k // 2] = batch[::2, k // 2 - 1]  # force duplicates
        batch[1::5, 0] = 0.0
        ds = _discrepancy(batch)
        assert ds.shape == (40,)
        for row, d in zip(batch, ds):
            assert abs(interval_discrepancy(list(row)) - d) < 1e-12
            assert abs(float(family_discrepancy(list(row))) - d) < 1e-12


@settings(max_examples=300, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=Fraction(63, 64), max_denominator=64), min_size=1, max_size=12))
@example([Fraction(0)])
@example([Fraction(1, 2)] * 5)
@example([Fraction(0), Fraction(0), Fraction(1, 3)])
def test_closed_form_equals_family_oracle_exactly(pts):
    d = interval_discrepancy(pts)
    assert isinstance(d, Fraction)
    assert d == family_discrepancy(pts)
    assert 0 < d <= 1


def test_star_discrepancy_bracketing():
    rng = random.Random(8)
    for _ in range(100):
        k = rng.randrange(1, 40)
        pts = [rng.random() for _ in range(k)]
        d = interval_discrepancy(pts)
        ds = star_discrepancy(pts)
        assert ds <= d + 1e-12
        assert d <= 2 * ds + 1e-12


def test_scan_alpha_zero_is_one(table_1e5):
    res = well_distribution_statistic(0, 5, 50, table=table_1e5)
    assert res.max_discrepancy == 1.0
    assert res.argmax_start == 0  # ties resolve to the smallest start


def test_scan_monotone_in_limit(table_1e5):
    a = parse_alpha("golden", 128)
    d1 = well_distribution_statistic(a, 20, 300, table=table_1e5).max_discrepancy
    d2 = well_distribution_statistic(a, 20, 1200, table=table_1e5).max_discrepancy
    assert d2 >= d1


def test_scan_golden_regression_lock():
    """k = 50 windows over the first 1e4 starts; value frozen from the first run."""
    table = sieve_primes(2 * 10**5)
    res = well_distribution_statistic(parse_alpha("golden"), 50, 10**4, table=table)
    assert res.max_discrepancy == pytest.approx(0.27446853496761325, abs=1e-12)
    assert res.argmax_start == 8174
    assert res.windows == 10001


def test_scan_stride_subsets_full(table_1e5):
    a = Fraction(1, 7)
    full = well_distribution_statistic(a, 10, 200, stride=1, table=table_1e5)
    strided = well_distribution_statistic(a, 10, 200, stride=10, table=table_1e5)
    assert strided.max_discrepancy <= full.max_discrepancy
    assert strided.windows == 21


def test_scan_matches_per_window_family(table_1e5):
    a = parse_alpha("sqrt:3", 96)
    res = well_distribution_statistic(a, 12, 80, table=table_1e5)
    best = -1.0
    argmax = 0
    for n in range(81):
        w = window_sample(a, n, 12, table_1e5)
        d = interval_discrepancy(w)
        if d > best + 1e-15:
            best = d
            argmax = n
    assert abs(res.max_discrepancy - best) < 1e-12
    assert res.argmax_start == argmax
    assert res.max_discrepancy_exact == best
    assert res.max_discrepancy == float(best)


def test_scan_recheck_catches_a_wrong_window(table_1e5, monkeypatch):
    """The exact re-check must score the window the float scan picked."""
    a = parse_alpha("golden")
    res = well_distribution_statistic(a, 20, 200, table=table_1e5)
    after = interval_discrepancy(window_sample(a, res.argmax_start + 1, 20, table_1e5))
    assert abs(after - res.max_discrepancy_exact) > 1e-12
    real = equidistribution.window_sample
    monkeypatch.setattr(
        equidistribution, "window_sample", lambda al, n, k, t: real(al, n + 1, k, t)
    )
    with pytest.raises(VerificationError):
        well_distribution_statistic(a, 20, 200, table=table_1e5)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_budget_is_exact(monkeypatch, need, fn):
    """fn runs when the budget is exactly ``need`` and is refused one byte below."""
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", need)
    fn()
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", need - 1)
    with pytest.raises(ResourceLimitError):
        fn()
    monkeypatch.undo()


def test_scan_memory_budget(monkeypatch):
    """A scan counts its primes, one chunk of windows and the exact re-check
    before it sieves, covering what tracemalloc measures."""
    eq = equidistribution
    for alpha, k, limit, stride in (("golden", 10, 20000, 1), ("sqrt:2", 10, 10**5, 100),
                                    (Fraction(1, 7), 300, 2000, 1), ("golden", 2000, 0, 1)):
        a = parse_alpha(alpha)
        windows = limit // stride + 1
        need = (
            eq._PART_BYTES * (limit + k)
            + eq._ENTRY_BYTES * k * min(windows, eq._CHUNK_ENTRIES // k)
            + k * (eq._POINT_BYTES + 24 * (a.denominator.bit_length() // 30))
        )
        scan = lambda: well_distribution_statistic(a, k, limit, stride)  # noqa: E731
        scan()  # fills the prime caches the sieve reads, which count their own fill
        assert _peak_bytes(scan) <= need, (alpha, k, limit, stride)
        _assert_budget_is_exact(monkeypatch, need, scan)
    # ~7.4 GB of fractional parts, and ~3 GB of exact points: refused up front
    for k, limit, stride in ((10, 150_000_000, 1000), (5_000_000, 0, 1)):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            well_distribution_statistic("golden", k, limit, stride)
        assert time.perf_counter() - start < 1.0


def test_prime_string_memory_budget(monkeypatch):
    """A prime-string search, and the cluster search built on it, count the
    table and the search per prime of the 1.3 x / ln x bound before they
    sieve."""
    limit = 10**6
    need = equidistribution._STRING_BYTES * primes._prime_count_bound(limit)
    for search in (lambda: find_prime_string(4, 1, 2, limit),
                   lambda: cluster_verify("sqrt:2", 0.2, 2, limit)):
        search()
        assert _peak_bytes(search) <= need
        _assert_budget_is_exact(monkeypatch, need, search)
    # ~6 GB against the sieve's ~1.9 GB: refused before the sieve runs
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        find_prime_string(4, 1, 2, 4 * 10**9)
    assert time.perf_counter() - start < 1.0


def test_dirichlet_examples():
    apx = dirichlet_approx(0.5, 3)
    assert (apx.a, apx.q, apx.err) == (1, 2, Fraction(0))
    apx = dirichlet_approx(math.pi, 10)
    assert (apx.a, apx.q) == (22, 7)
    assert abs(float(apx.err) - abs(math.pi - 22 / 7)) < 1e-12
    for alpha in (0.1, 2.9, -0.7, 123.456):
        apx = dirichlet_approx(alpha, 1)
        assert apx.q == 1
        assert abs(Fraction(alpha) - apx.a) <= 1


def test_dirichlet_invariants_random():
    rng = random.Random(9)
    for _ in range(2000):
        alpha = Fraction(rng.getrandbits(40), rng.getrandbits(40) + 1)
        if rng.random() < 0.5:
            alpha = -alpha
        q_cap = rng.randrange(1, 1000)
        apx = dirichlet_approx(alpha, q_cap)
        assert 1 <= apx.q <= q_cap
        assert math.gcd(apx.a, apx.q) == 1
        assert apx.err == abs(alpha - Fraction(apx.a, apx.q))
        assert apx.err * apx.q * q_cap <= 1  # the non-strict Dirichlet bound


def test_dirichlet_rejects_bad_q():
    with pytest.raises(ValueError):
        dirichlet_approx(0.5, 0)


def test_prime_string_examples(table_1e5):
    s = find_prime_string(4, 1, 2, 100, table=table_1e5)
    assert s.primes == (13, 17) and s.r == 5 and s.diameter == 4
    s = find_prime_string(3, 1, 2, 100, table=table_1e5)
    assert s.primes == (31, 37)
    s = find_prime_string(2, 1, 3, 100, table=table_1e5)
    assert s.primes == (3, 5, 7)
    assert find_prime_string(4, 1, 40, 100, table=table_1e5) is None
    with pytest.raises(ValueError):
        find_prime_string(4, 2, 2, 100, table=table_1e5)
    with pytest.raises(ValueError):
        find_prime_string(100, 1, 2, 10**6, table=table_1e5)  # table too small


def test_prime_string_runs_are_consecutive_primes(table_1e5):
    """Re-verify runs independently: residues plus primality of the gaps."""
    for q, a, m in ((4, 1, 3), (12, 5, 3), (7, 2, 3), (1, 0, 5)):
        s = find_prime_string(q, a, m, 10**5, table=table_1e5)
        assert s is not None
        assert all(p % q == a % q for p in s.primes)
        assert all(is_prime_oracle(p) for p in s.primes)
        for lo, hi in zip(s.primes, s.primes[1:]):
            assert all(not is_prime_oracle(x) for x in range(lo + 1, hi))
        assert s.diameter == s.primes[-1] - s.primes[0]
        # r is the 0-based offset: primes[r] is the first element of the run
        assert int(table_1e5.primes[s.r]) == s.primes[0]


def test_prime_string_max_diameter(table_1e5):
    plain = find_prime_string(4, 1, 2, 10**5, table=table_1e5)
    tight = find_prime_string(4, 1, 2, 10**5, table=table_1e5, max_diameter=4)
    assert plain.diameter == 4 and tight.r == plain.r
    # first m=3 run mod 4 is (89, 97, 101); no tighter run than diameter 12 exists
    first = find_prime_string(4, 1, 3, 10**5, table=table_1e5)
    assert first.primes == (89, 97, 101) and first.diameter == 12
    assert find_prime_string(4, 1, 3, 10**5, table=table_1e5, max_diameter=11) is None
    capped = find_prime_string(4, 1, 3, 10**5, table=table_1e5, max_diameter=12)
    assert capped.r == first.r


def test_cluster_example_one_seventh_plus_epsilon():
    alpha = Fraction(1, 7) + Fraction(1, 10**9)
    rep = cluster_verify(alpha, 0.1, 3, 10**6)
    assert rep.found
    assert rep.approximant.q == 7
    assert rep.max_pair_distance <= Fraction(1, 10)
    assert rep.window_discrepancy >= Fraction(9, 10)


def test_cluster_exact_rational_collapses():
    rep = cluster_verify(Fraction(3, 7), 0.2, 4, 10**6)
    assert rep.found
    assert rep.approximant.err == 0
    assert rep.max_pair_distance == 0
    assert rep.window_discrepancy == 1


def test_cluster_sqrt2(table_1e5):
    rep = cluster_verify("sqrt:2", 0.2, 2, 10**5, table=table_1e5)
    assert rep.found
    assert rep.max_pair_distance <= Fraction(1, 5)
    assert rep.window_discrepancy >= Fraction(4, 5)
    # pairwise inequality re-checked here as well, straight from the primes
    a = rep.alpha
    for i, pi in enumerate(rep.string.primes):
        for pj in rep.string.primes[i + 1 :]:
            assert torus_distance(a, pj - pi) <= Fraction(1, 5)


def test_cluster_soft_failure_reports_horizon():
    rep = cluster_verify("sqrt:2", 0.2, 3, 30)
    assert not rep.found
    assert rep.rounds  # it did try
    assert rep.limit == 30


def test_cluster_validation():
    with pytest.raises(ValueError):
        cluster_verify(0.5, 0.7, 3, 100)
    with pytest.raises(ValueError):
        cluster_verify(0.5, 0.2, 1, 100)
