"""Fractional parts, exact discrepancy, approximants, prime strings, clustering."""

import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erdos_trio import (
    ResourceLimitError,
    VerificationError,
    cluster_verify,
    dirichlet_approx,
    enumerate_A,
    find_prime_string,
    fractional_part,
    interval_discrepancy,
    parse_alpha,
    sieve_primes,
    torus_distance,
    valuation_row,
    well_distribution_statistic,
    window_sample,
)
from erdos_trio import PrimeString, basis_splits, binomial_thresholds, equidistribution, errors, primes
from erdos_trio.equidistribution import _fixed_point_parts, _score_windows, _window_discrepancy

from budget import assert_counted
from oracles import (
    family_discrepancy,
    grid_discrepancy,
    is_prime_oracle,
    max_pair_distance,
    one_prime_later,
    star_discrepancy,
    whole_table_prime_string,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def table_1e5():
    return sieve_primes(10**5)


@pytest.fixture(scope="module")
def table_1e6():
    return sieve_primes(10**6)


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
    assert window_sample(0, 0, 3) == (Fraction(0), Fraction(0), Fraction(0))
    # primes 2, 3, 5
    assert window_sample(0.5, 0, 3) == (Fraction(0), Fraction(1, 2), Fraction(1, 2))
    # primes 3, 5
    assert window_sample(Fraction(1, 3), 1, 2) == (Fraction(0), Fraction(2, 3))
    # the first prime past 1e5, 100003, read from the cache
    assert window_sample(Fraction(1, 4), len(table_1e5), 1) == (Fraction(3, 4),)
    with pytest.raises(ValueError):
        window_sample(0.5, -1, 5)
    with pytest.raises(ValueError):
        window_sample(0.5, 0, 0)


def test_window_sample_memory_budget():
    """A sample counts its k primes, residues and Fractions before it reads
    a prime, covering what tracemalloc measures with its primes read from
    the cache, for small and long denominators, small and large k, near 0
    and near the cache's end. A sample of 1e7 points is refused up front."""
    eq = equidistribution
    for alpha, n, k in (("golden", 0, 10), (Fraction(1, 3), 0, 2000), (Fraction(1, 3), 10**6 - 10, 10),
                        ("sqrt:2", 5000, 20000), (parse_alpha("sqrt:3", 8192), 10**6 - 50, 50),
                        (Fraction(2**1024 + 1, 2**1025 - 1), 0, 2000)):
        a = parse_alpha(alpha)
        need = k * (eq._SAMPLE_BYTES + 16 * (a.denominator.bit_length() // 30))
        sample = lambda: window_sample(a, n, k)  # noqa: E731
        want = sample()  # fills the prime cache, whose misses count themselves
        assert assert_counted(need, sample, match="a sample of") == want
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="a sample of 10000000 points"):
        window_sample("golden", 0, 10**7)
    assert time.perf_counter() - start < 1.0


def test_fractional_part_is_exact():
    a = Fraction(10**40 + 7, 3 * 10**40)
    p = 99991
    fp = fractional_part(a, p)
    assert 0 <= fp < 1
    assert (a * p - fp).denominator == 1


def test_interval_discrepancy_memory_budget():
    """The points' sorted copies as Fractions, and the closed form's numbers
    two denominators wide, are counted before they are made, and the count
    covers what tracemalloc measures, passes exactly and refuses one byte
    less: 1,000 random floats, 1,000 subnormal floats, whose denominators
    reach 2^1074, 40,000 points over the distinct denominators 3, 5, ...,
    p_40001, which no common denominator joins (its lcm has ~670,000 bits),
    and the small cases where the wide numbers weigh most: the one point
    1/3^20000 and 10 subnormal floats. 7.5e6 zeros, ~2.16 GB by the count,
    are refused in under 1 s."""
    eq = equidistribution
    rng = random.Random(35)
    odd = primes._prime_ints(10**6)[1:]
    for points in (
        [rng.random() for _ in range(1000)],
        [2.0**-1074 * rng.randrange(1, 2**52) for _ in range(1000)],
        [Fraction(1, p) for p in odd[:40000]],
        [Fraction(1, 3**20000)],
        [2.0**-1074 * rng.randrange(1, 2**52) for _ in range(10)],
    ):
        want = interval_discrepancy(points)
        call = lambda: interval_discrepancy(points)  # noqa: E731
        widest = max(Fraction(x).denominator for x in points).bit_length()
        need = eq._FRACTION_BYTES * len(points) + eq._WIDE_BYTES * (24 + widest // 8) + eq._FIRST_CALL_BYTES
        match = f"the discrepancy of {len(points)} points"
        assert assert_counted(need, call, match=match) == want
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="the discrepancy of 7500000 points"):
        interval_discrepancy([0] * 7_500_000)
    assert time.perf_counter() - start < 1.0


# One first call of ``interval_discrepancy`` in a fresh interpreter: it
# prints the call's tracemalloc peak and the most it counted.
_FIRST_CALL = """
import sys, tracemalloc
from fractions import Fraction
from erdos_trio import equidistribution as eq
counted = [0]
reserve = eq.reserve
def counting(need, what):
    counted[0] = max(counted[0], need)
    reserve(need, what)
eq.reserve = counting
points = eval(sys.argv[1])
tracemalloc.start()
eq.interval_discrepancy(points)
print(tracemalloc.get_traced_memory()[1], counted[0])
"""


@pytest.mark.parametrize("points", ["[Fraction(1, 3)]", "[0.0]", "[0.3]"])
def test_interval_discrepancy_first_call_within_its_count(points):
    """The first call in a process fills the type caches that later calls
    reuse; its tracemalloc peak is within its count all the same."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_CALL, points], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    peak, counted = map(int, proc.stdout.split())
    assert peak <= counted, (peak, counted)


def test_discrepancy_single_point_is_one():
    for x in (0.0, 0.3, 0.999):
        assert interval_discrepancy([x]) == 1.0
    assert interval_discrepancy([Fraction(1, 3)]) == Fraction(1)


def test_discrepancy_rejects_points_outside_unit_interval():
    inf, nan = float("inf"), float("nan")
    for pts in ([0.2, 1.7], [-0.3], [Fraction(1)], [Fraction(1, 2), Fraction(-1, 9)], [inf],
                [0.5, -inf], [nan], [0.2, nan, 0.4], [Fraction(1, 2), inf], [Fraction(1, 2), nan]):
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


def _pairwise_grid_discrepancy(points, steps):
    """The grid oracle's sup formed over every pair i <= j of grid points."""
    xs = np.sort(np.asarray(points, dtype=np.float64))
    grid = np.arange(steps + 1) / steps
    le = np.searchsorted(xs, grid, side="right")
    lt = np.searchsorted(xs, grid, side="left")
    i, j = np.triu_indices(steps + 1)
    return float(np.max(np.abs((le[j] - lt[i]) / xs.size - (j - i) / steps)))


def test_grid_oracle_equals_its_pairwise_form():
    """The grid oracle's running min and max give the sup over every closed
    grid interval, as the pairwise form does: on seeded points, half of the
    sets with points on the grid, and grids from 1 to 1024 steps.

    Mutation control: B's min and max taken over the whole grid instead of
    over i <= j also count the open gaps (j/steps, i/steps). Those differ
    from the closed intervals only at a point on the grid, and the mutant
    differs from the pairwise form on such inputs."""
    rng = random.Random(0x6D1D)
    differs = 0
    for case in range(200):
        steps = rng.choice([1, 2, 7, 64, 1024])
        pts = [rng.random() for _ in range(rng.randrange(1, 13))]
        if case % 2:
            pts += [rng.randrange(steps) / steps for _ in range(rng.randrange(1, 4))]
        want = _pairwise_grid_discrepancy(pts, steps)
        assert abs(grid_discrepancy(pts, steps) - want) < 1e-15, (pts, steps)
        xs = np.sort(pts)
        grid = np.arange(steps + 1) / steps
        a = np.searchsorted(xs, grid, side="right") / xs.size - grid
        b = np.searchsorted(xs, grid, side="left") / xs.size - grid
        mutant = max(np.max(a - b.min()), np.max(b.max() - a))
        differs += abs(mutant - want) > 1e-12
    assert differs >= 10


# The scan's two widths: (bits, part dtype, row dtype) of the screen and of
# the re-score for a window of k points.
def _widths(k: int):
    return ((min(16, 31 - k.bit_length()), np.uint16, np.int32), (63 - k.bit_length(), np.int64, np.int64))


def test_integer_kernel_scores_truncated_points_exactly():
    """At both widths the kernel scores each row of parts m, in units of
    1/(k 2^b), as exactly k 2^b times the family oracle's discrepancy of the
    points m 2^-b, among them rows with a repeated point, rows with a point
    at 0 and rows with the largest part, 2^b - 1, over several chunks."""
    rng = np.random.RandomState(6)
    for k in (1, 2, 3, 7, 50, 199):
        for bits, part, row in _widths(k):
            ms = rng.randint(0, 2**bits, size=(40, k), dtype=np.int64)
            if k > 3:
                ms[::2, k // 2] = ms[::2, k // 2 - 1]  # force duplicates
            ms[1::5, 0] = 0
            ms[2::5, -1] = 2**bits - 1
            scores = np.zeros(40, np.int64)
            _score_windows(ms.astype(part), np.arange(40), np.empty((16, k), row), scores, bits)
            for m, score in zip(ms.tolist(), scores.tolist()):
                assert Fraction(score, k << bits) == family_discrepancy([Fraction(x, 2**bits) for x in m]), (k, bits)


def test_scan_rows_score_within_E_of_exact(table_1e5):
    """A scan's rows at both widths, the top b bits of the fixed-point parts
    of primes' windows, score within E = 2k + 1 units of 1/(k 2^b) of the
    windows' exact discrepancy: each part errs by eps < 2^-b + 2^-64, and
    2 eps k 2^b <= 2k + 1 since k 2^b <= 2^63."""
    ps = table_1e5.primes[:3000]
    for alpha in (parse_alpha("golden"), parse_alpha("sqrt:2"), Fraction(355, 113), 1 - Fraction(1, 2**100)):
        top = _fixed_point_parts(alpha, ps)
        for k in (1, 5, 50, 1000):
            starts = np.arange(0, ps.size - k + 1, 97)
            exact = [_window_discrepancy(alpha, ps[n : n + k].tolist()) for n in starts.tolist()]
            for bits, part, row in _widths(k):
                assert 2 * (Fraction(1, 2**bits) + Fraction(1, 2**64)) * (k << bits) <= 2 * k + 1
                windows = np.lib.stride_tricks.sliding_window_view((top >> np.uint64(64 - bits)).astype(part), k)
                scores = np.zeros(len(windows), np.int64)
                _score_windows(windows, starts, np.empty((8, k), row), scores, bits)
                for n, d in zip(starts.tolist(), exact):
                    assert abs(d * (k << bits) - int(scores[n])) <= 2 * k + 1, (alpha, k, bits, n)


def _scored_rows(monkeypatch) -> list:
    """Record, for each call of the chunk scorer, its bits, its rows' dtype,
    the windows it scored and their scores."""
    seen, real = [], equidistribution._score_windows

    def record(windows, js, rows, scores, bits):
        real(windows, js, rows, scores, bits)
        seen.append((bits, rows.dtype.type, js.copy(), scores[js].copy()))

    monkeypatch.setattr(equidistribution, "_score_windows", record)
    return seen


def test_screen_keeps_its_rows_in_int32_past_k_2_to_the_15(monkeypatch):
    """At k = 2^15 + 1 the screen reads b1 = 15 bits, so that k 2^b1 stays
    below 2^31 and every y_i fits its int32 row: every window a scan scores,
    in the screen and in the re-score (b2 = 47), is within E = 2k + 1 units
    of its exact discrepancy. alpha = 1 - 2^-100 puts every part near 1, so
    at 16 bits the first y_i, k (2^16 - 1), would pass 2^31."""
    k = 2**15 + 1
    ps = primes._prime_list(10**6)[: k + 12].tolist()
    for alpha in (parse_alpha("golden"), 1 - Fraction(1, 2**100), Fraction(1, 2) + Fraction(1, 10**7)):
        seen = _scored_rows(monkeypatch)
        res = well_distribution_statistic(alpha, k, 12)
        monkeypatch.undo()
        assert {(bits, dtype) for bits, dtype, _, _ in seen} <= {(15, np.int32), (47, np.int64)}
        assert seen[0][:2] == (15, np.int32)
        exact = {}
        for bits, _, js, scores in seen:
            for n, score in zip(js.tolist(), scores.tolist()):
                d = exact.setdefault(n, _window_discrepancy(alpha, ps[n : n + k]))
                assert abs(d * (k << bits) - score) <= 2 * k + 1, (alpha, bits, n)
        assert res.max_discrepancy_exact == max(exact.values())


def test_scan_refuses_k_with_no_bit_left(monkeypatch):
    """A k from 2^30 on leaves the screen no bit, since k 2^b1 must stay
    below 2^31: under a budget that admits it, the scan raises ValueError
    before it reads a prime, and k = 2^30 - 1, with b1 = 1, goes on to read
    its primes."""
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", 1 << 60)

    def read(bound):
        raise LookupError("primes read")

    monkeypatch.setattr(equidistribution, "_prime_list", read)
    with pytest.raises(ValueError, match=r"k below 2\^30"):
        well_distribution_statistic("golden", 2**30, 0)
    with pytest.raises(LookupError, match="primes read"):
        well_distribution_statistic("golden", 2**30 - 1, 0)


def test_float_points_are_scored_exactly():
    """Float-only points give the exact Fraction of their dyadic values,
    the family oracle's value, with repeated points and 0.0 among them."""
    rng = random.Random(0xF10A7)
    for k in range(1, 41):
        pts = [rng.random() for _ in range(k)]
        if k > 2:
            pts[1] = pts[0]  # a repeated point
            pts[rng.randrange(k)] = 0.0
        d = interval_discrepancy(pts)
        assert isinstance(d, Fraction)
        assert d == family_discrepancy(pts), pts


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


def test_scan_alpha_zero_is_one():
    res = well_distribution_statistic(0, 5, 50)
    assert res.max_discrepancy_exact == 1
    assert res.argmax_start == 0  # ties resolve to the smallest start


def test_scan_monotone_in_limit():
    a = parse_alpha("golden", 128)
    d1 = well_distribution_statistic(a, 20, 300).max_discrepancy_exact
    d2 = well_distribution_statistic(a, 20, 1200).max_discrepancy_exact
    assert d2 >= d1


def test_scan_golden_regression_lock():
    """k = 50 windows over the first 1e4 starts; value frozen from the first run."""
    res = well_distribution_statistic(parse_alpha("golden"), 50, 10**4)
    assert float(res.max_discrepancy_exact) == pytest.approx(0.27446853496761325, abs=1e-12)
    assert res.argmax_start == 8174
    assert res.windows == 10001


def test_scan_float_scores_under_half_the_regression_lock_windows(monkeypatch):
    """The Lipschitz prune screens fewer than half of the regression lock's
    windows and leaves its result as it was."""
    seen = _scored_rows(monkeypatch)
    res = well_distribution_statistic(parse_alpha("golden"), 50, 10**4)
    assert (float(res.max_discrepancy_exact), res.argmax_start, res.windows) == (0.27446853496761325, 8174, 10001)
    assert sum(js.size for _, dtype, js, _ in seen if dtype == np.int32) < res.windows / 2


def _tier_recorder(monkeypatch) -> dict:
    """Count the rows each tier scores and the windows scored exactly."""
    seen = {"screen": 0, "re-score": 0, "exact": 0}
    kernel, exact = equidistribution._score_windows, equidistribution._window_discrepancy

    def record(windows, js, rows, scores, bits):
        seen["screen" if rows.dtype == np.int32 else "re-score"] += js.size
        return kernel(windows, js, rows, scores, bits)

    def record_exact(alpha, ps):
        seen["exact"] += 1
        return exact(alpha, ps)

    monkeypatch.setattr(equidistribution, "_score_windows", record)
    monkeypatch.setattr(equidistribution, "_window_discrepancy", record_exact)
    return seen


@pytest.mark.parametrize("alpha, k, limit", [(Fraction(0), 2000, 20000), (Fraction(1, 3), 500, 10**5)])
def test_small_denominator_scans_score_one_window(monkeypatch, alpha, k, limit):
    """At alpha = 0 every window is 1, and at alpha = 1/3 the exact values
    are multiples of 1/(3k), far apart at the screen's E, q (2k + 1) < 2^14:
    the screen's band's first window, scored exactly, ends either scan, with
    no re-scored row."""
    seen = _tier_recorder(monkeypatch)
    res = well_distribution_statistic(alpha, k, limit)
    assert (seen["re-score"], seen["exact"]) == (0, 1)
    assert seen["screen"] > 0
    # at 1/3 the windows at 0 and 1 hold 3 (part 0) and score below 2/3;
    # every later window holds only 1/3s and 2/3s and scores 2/3
    want = (Fraction(1), 0) if alpha == 0 else (interval_discrepancy(window_sample(alpha, 2, k)), 2)
    assert (res.max_discrepancy_exact, res.argmax_start) == want


def test_re_score_narrows_the_screen_band(table_1e5, monkeypatch):
    """At alpha = 1/2 + 10^-7 and k = 6 the exact values are multiples of
    1/(6 * 10^7), under the screen's E apart: 2,000 windows lie in the
    screen's band and are re-scored in int64, and one window, the exhaustive
    exact argmax, is scored exactly."""
    a, k, limit = Fraction(1, 2) + Fraction(1, 10**7), 6, 2000
    best, argmax = Fraction(-1), None
    for n in range(limit + 1):
        d = family_discrepancy([_exact_part(a, p) for p in table_1e5.primes[n : n + k].tolist()])
        if d > best:
            best, argmax = d, n
    seen = _tier_recorder(monkeypatch)
    res = well_distribution_statistic(a, k, limit)
    assert (res.argmax_start, res.max_discrepancy_exact) == (argmax, best)
    assert (seen["re-score"], seen["exact"]) == (2000, 1)


@pytest.mark.parametrize("stride", [1, 3, 20])
def test_bounded_windows_keeps_every_window_its_bound_reaches(stride):
    """``_bounded_windows`` returns exactly the windows j whose Lipschitz
    bound U(j) = min_g(score(g) + E + min(|j - g| stride, k) 2^b), taken over
    its scored neighbours g in units of 1/(k 2^b) with E = 2k + 1, reaches
    best - 3E. Each case puts one neighbour c units from where it makes one
    window's bound equal best - 3E, in the full cells and in the short last
    one: the window is kept at c = 0 and dropped at c = -1. At stride
    20 >= k every t saturates at k."""
    eq = equidistribution
    G, k, bits = eq._GRID, 10, 12
    E, best, n = 2 * k + 1, 10 << 12, 2 * G + 3  # scored: 0, G, 2G and the last, 2G + 2
    for j in (j for j in range(1, n - 1) if j % G):
        left = j - j % G
        for g in (left, min(left + G, n - 1)):
            for c in (-E, -2, -1, 0, 1, E):
                scores = np.full(n, best)
                scores[g] = best - 4 * E - (min(abs(j - g) * stride, k) << bits) + c  # U(j) = best - 3E + c
                for r in range(1, G):
                    got = eq._bounded_windows(scores, r, stride, k, bits, best - 4 * E).tolist()
                    assert got == sorted(got)
                    for i in range(r, n - 1, G):
                        lo = i - i % G
                        bound = min(
                            int(scores[h]) + E + (min(abs(i - h) * stride, k) << bits)
                            for h in (lo, min(lo + G, n - 1))
                        )
                        assert (i in got) == (bound >= best - 3 * E), (stride, j, g, c, i)
                        if i == j:
                            assert (i in got) == (c >= 0)


def test_scan_stride_subsets_full():
    a = Fraction(1, 7)
    full = well_distribution_statistic(a, 10, 200, stride=1)
    strided = well_distribution_statistic(a, 10, 200, stride=10)
    assert strided.max_discrepancy_exact <= full.max_discrepancy_exact
    assert strided.windows == 21


def test_scan_matches_per_window_family():
    a = parse_alpha("sqrt:3", 96)
    res = well_distribution_statistic(a, 12, 80)
    best = -1.0
    argmax = 0
    for n in range(81):
        w = window_sample(a, n, 12)
        d = interval_discrepancy(w)
        if d > best + 1e-15:
            best = d
            argmax = n
    assert res.argmax_start == argmax
    assert res.max_discrepancy_exact == best


def test_scan_recheck_catches_a_wrong_window(monkeypatch):
    """The exact re-check must score the window the scan picked."""
    a = parse_alpha("golden")
    res = well_distribution_statistic(a, 20, 200)
    after = interval_discrepancy(window_sample(a, res.argmax_start + 1, 20))
    assert abs(after - res.max_discrepancy_exact) > 1e-12
    real = equidistribution._window_discrepancy
    monkeypatch.setattr(
        equidistribution, "_window_discrepancy", lambda al, ps: real(al, one_prime_later(ps))
    )
    with pytest.raises(VerificationError):
        well_distribution_statistic(a, 20, 200)


def test_integer_window_score_equals_fraction_oracle(table_1e5):
    """The integer window score equals the exact two-family oracle on the
    window's Fraction sample."""
    alphas = [parse_alpha(x) for x in ("golden", "sqrt:2", "0.333333333333333333333333", "-22/7")]
    alphas += [Fraction(0), Fraction(3, 4), 1 - Fraction(1, 2**100)]
    for a in alphas:
        for k in (1, 2, 3, 10, 50, 200):
            for n in (0, 1, 997):
                d = _window_discrepancy(a, table_1e5.primes[n : n + k].tolist())
                assert d == family_discrepancy(window_sample(a, n, k)), (a, n, k)


def test_all_band_scan_scores_every_window_exactly(table_1e5, monkeypatch):
    """Every window of alpha = 0.33...3 (24 digits) but the first, which
    holds the prime 3, scores 2/3 within ~1e-19, far inside either tier's
    E, so each is re-scored exactly; the argmax still equals the
    exhaustive exact one."""
    a = parse_alpha("0.333333333333333333333333")
    k, limit, stride = 20, 600, 3
    best, argmax = Fraction(-1), None
    for n in range(0, limit + 1, stride):
        d = interval_discrepancy(window_sample(a, n, k))
        if d > best:
            best, argmax = d, n
    scored = []
    real = equidistribution._window_discrepancy
    monkeypatch.setattr(
        equidistribution, "_window_discrepancy", lambda al, ps: scored.append(ps[0]) or real(al, ps)
    )
    res = well_distribution_statistic(a, k, limit, stride)
    assert scored == table_1e5.primes[stride : limit + 1 : stride].tolist()
    assert (res.argmax_start, res.max_discrepancy_exact) == (argmax, best)


# The proven error of a fixed-point part: under 2^-64 from the raise and the
# dropped low bits.
_PART_ERR = Fraction(1, 2**64)


def _exact_part(alpha: Fraction, p: int) -> Fraction:
    x = alpha * p
    return x - math.floor(x)


def _seeded_alphas() -> list[Fraction]:
    rng = random.Random(12)
    return [Fraction(rng.getrandbits(200) - 2**199, rng.getrandbits(150) + 1) for _ in range(4)]


@pytest.mark.parametrize(
    "alpha",
    [
        parse_alpha("golden"),
        parse_alpha("sqrt:2"),
        parse_alpha("sqrt:11", 64),
        Fraction(1, 7),
        Fraction(355, 113),
        Fraction(3, 4),
        Fraction(-22, 7),
        parse_alpha("sqrt:1000003", 128),
        parse_alpha("sqrt:3", 8192),
        1 - Fraction(1, 2**100),
        *_seeded_alphas(),
    ],
)
def test_fixed_point_parts_within_proven_bound(table_1e5, alpha):
    # the first 2,000 primes and the three largest primes below 2^32
    ps = np.concatenate([table_1e5.primes[:2000], [4294967231, 4294967279, 4294967291]])
    parts = _fixed_point_parts(alpha, ps)
    assert parts.dtype == np.uint64
    for p, part in zip(ps.tolist(), parts.tolist()):
        assert abs(Fraction(part, 2**64) - _exact_part(alpha, p)) < _PART_ERR, (alpha, p)


def test_fixed_point_parts_are_the_96_bit_products_bits(table_1e5):
    """Every part whose 96-bit product has nonzero top 64 bits is, bit for
    bit, those bits, from A = ceil({alpha} 2^96) mod 2^96 and A p in Python
    ints; every other part is floor({alpha p} 2^64)."""
    rng = random.Random(0x96B)
    alphas = [1 - Fraction(1, 2**100), Fraction(-22, 7), parse_alpha("sqrt:3", 8192)]
    for bits in (31, 32, 33, 63, 64, 65, 96, 97, 200, 1000):
        for _ in range(4):
            den = rng.getrandbits(bits) | 1 << bits - 1
            alphas.append(Fraction(rng.randrange(-5 * den, 5 * den), den))
    # the first 2,000 primes and the three largest primes below 2^32
    ps = table_1e5.primes[:2000].tolist() + [4294967231, 4294967279, 4294967291]
    for alpha in alphas:
        a = -(-(alpha.numerator % alpha.denominator << 96) // alpha.denominator) % 2**96
        got = _fixed_point_parts(alpha, np.array(ps)).tolist()
        for p, part in zip(ps, got):
            top = (a * p) % 2**96 >> 32
            assert part == (top or math.floor(_exact_part(alpha, p) * 2**64)), (alpha, p)


def test_wrap_recompute_makes_parts_exact():
    ps = np.array([2, 3, 5, 7, 11, 13])
    # A = ceil(2^96 / 7) raises 7 A past 2^96, to 7 A mod 2^96 = 6
    assert -(-(2**96) // 7) * 7 % 2**96 == 6
    assert _fixed_point_parts(Fraction(1, 7), ps)[3] == 0
    # 1 - 2^-100 lifts to A = 2^96, so every product wraps to 0 and is recomputed
    b = 1 - Fraction(1, 2**100)
    assert _fixed_point_parts(b, ps).tolist() == [math.floor(_exact_part(b, p) * 2**64) for p in ps.tolist()]
    # a dyadic alpha is exact in 96 bits: nothing is raised
    got = _fixed_point_parts(Fraction(3, 4), ps).tolist()
    assert got == [x * 2**62 for x in (2, 1, 3, 1, 1, 3)]


@pytest.mark.parametrize(
    "alpha, k, limit, stride",
    [
        # the first maximum score is a later window than the first exact one
        ("sqrt:2", 5, 300, 1),
        ("sqrt:5", 12, 600, 3),
        (Fraction(1, 7), 5, 600, 3),
        (Fraction(355, 113), 5, 600, 3),
        (Fraction(3, 13), 6, 600, 3),
        (Fraction(-22, 7), 12, 600, 3),
        ("golden", 8, 400, 1),
        # every window ties at 1; every window but the first ties at 1
        (0, 5, 60, 1),
        (Fraction(1, 2), 6, 80, 1),
        (Fraction(3, 4), 7, 200, 2),
        # the prune's edges: stride >= k, where t saturates at k
        ("sqrt:3", 5, 600, 5),
        ("sqrt:7", 6, 700, 9),
        # fewer windows than the grid's step
        ("golden", 6, 4, 2),
        ("sqrt:2", 9, 1, 1),
        # 401 windows, so the last is on the grid; 292 and 727 skipped
        ("sqrt:11", 10, 400, 1),
        ("golden", 30, 1000, 1),
    ],
)
def test_scan_argmax_equals_exhaustive_exact_oracle(table_1e5, alpha, k, limit, stride):
    a = parse_alpha(alpha)
    best, argmax = Fraction(-1), None
    for n in range(0, limit + 1, stride):
        d = family_discrepancy([_exact_part(a, p) for p in table_1e5.primes[n : n + k].tolist()])
        if d > best:
            best, argmax = d, n
    res = well_distribution_statistic(a, k, limit, stride)
    assert res.argmax_start == argmax
    assert res.max_discrepancy_exact == best


def test_scan_refuses_primes_from_2_to_the_32(monkeypatch):
    """A scan whose primes reach 2^32 is refused, here with a fake prime
    list whose second prime is the first past 2^32."""
    fake = np.array([4294967291, 4294967311])
    monkeypatch.setattr(equidistribution, "_prime_list", lambda limit: fake)
    res = well_distribution_statistic("golden", 1, 0)
    assert res.max_discrepancy_exact == 1
    with pytest.raises(ValueError, match=r"below 2\^32"):
        well_distribution_statistic("golden", 2, 0)
    with pytest.raises(ValueError, match=r"below 2\^32"):
        well_distribution_statistic("golden", 1, 1)


def test_scan_memory_budget():
    """A scan counts its parts, one chunk of windows, the chunk scorer's
    ramp and the exact re-check before it reads a prime, covering what
    tracemalloc measures with its primes read from the cache, among them a
    scan whose every window is in both bands, so that the re-score scores
    full chunks. Past 2^24 its primes are sieved for the call,
    and the whole peak is within its count and the sieve's."""
    eq = equidistribution
    for alpha, k, limit, stride in (("golden", 10, 20000, 1), ("sqrt:2", 10, 10**5, 100),
                                    (Fraction(1, 7), 300, 2000, 1), ("golden", 2000, 0, 1),
                                    ("0.333333333333333333333333", 300, 1000, 1)):
        a = parse_alpha(alpha)
        windows = limit // stride + 1
        need = (
            eq._PART_BYTES * (limit + k)
            + eq._ENTRY_BYTES * k * min(windows, eq._CHUNK_ENTRIES // k)
            + eq._RAMP_BYTES * k
            + k * (eq._POINT_BYTES + 24 * (a.denominator.bit_length() // 30))
        )
        scan = lambda: well_distribution_statistic(a, k, limit, stride)  # noqa: E731
        scan()  # fills the prime cache, whose misses count themselves
        assert_counted(need, scan)
    k, bits = 10, parse_alpha("golden").denominator.bit_length()
    limit = _last_cached_need(24) + 1 - k
    bound = primes._nth_prime_bound(limit + k)
    sieved = primes.SEGMENT_SPAN // 2 + 1024 + primes._SIEVE_BYTES * primes._prime_count_bound(bound)
    need = (
        eq._PART_BYTES * (limit + k)
        + eq._ENTRY_BYTES * k * (eq._CHUNK_ENTRIES // k)
        + eq._RAMP_BYTES * k
        + k * (eq._POINT_BYTES + 24 * (bits // 30))
    )
    assert bound >= 1 << 24 and sieved <= need  # the sieve runs under a budget of the scan's count
    assert_counted(need, lambda: well_distribution_statistic("golden", k, limit), peak=need + sieved)
    # ~4.2 GB of fractional parts, and ~3 GB of exact points: refused up front
    for k, limit, stride in ((10, 150_000_000, 1000), (10_000_000, 0, 1)):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            well_distribution_statistic("golden", k, limit, stride)
        assert time.perf_counter() - start < 1.0


def _last_cached_need(bits: int) -> int:
    """The most primes a scan reads from the cached array below 2^bits: the
    largest n whose bound ``_nth_prime_bound(n)`` is below 2^bits."""
    lo, hi = 6, 1 << bits
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if primes._nth_prime_bound(mid) < 1 << bits else (lo, mid - 1)
    return lo


@pytest.mark.parametrize("bits", [17, 18, 19, 20, 24])
def test_cached_scan_equals_scan_of_the_sieved_table(bits):
    """A scan of ``needed`` primes reads ``_prime_list`` up to the bound on
    p_needed: a slice of the prime cache while the bound is below 2^24, and
    a sieve for the call past it. On both sides of the bound crossing
    2^bits that list is ``sieve_primes`` of the bound, and holds the
    primes the scan reads."""
    last = _last_cached_need(bits)
    assert primes._nth_prime_bound(last) < 1 << bits <= primes._nth_prime_bound(last + 1)
    for needed in (last, last + 1):
        bound = primes._nth_prime_bound(needed)
        listed = primes._prime_list(bound)
        assert listed.size >= needed
        assert np.array_equal(listed, sieve_primes(bound).primes), (bits, needed)


def test_scan_past_the_cache_cap_holds_no_primes():
    """A scan whose bound on p_needed reaches 2^24 sieves its ~1e6 primes
    (~8 MiB) for the call and drops them. After it returns, what is held is
    the base primes its sieve's segments cached, the one array of the 1,028
    primes below 2^13 (8,224 bytes of int64), within its ``sys.getsizeof``
    (data and header) and 4 KiB for numpy's small objects. Measured from a
    cold cache, code paths warm."""
    k, needed = 10, _last_cached_need(24) + 1
    well_distribution_statistic("golden", k, 100)
    primes._cache = (0, np.empty(0, dtype=np.int64))
    tracemalloc.start()
    scan = well_distribution_statistic("golden", k, needed - k, 1000)
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    bits, cached = primes._cache
    assert bits == 13 and cached.nbytes == 8224
    assert scan.windows == 1020 and held < sys.getsizeof(cached) + 4096


def _farthest_read(monkeypatch, search) -> int:
    """The largest prime ``search`` reads from the stream of primes."""
    read = [0]
    real = equidistribution._stream

    def stream(limit, table=None):
        for segment in real(limit, table):
            read.extend(segment[-1:].tolist())
            yield segment

    monkeypatch.setattr(equidistribution, "_stream", stream)
    search()
    monkeypatch.undo()
    return max(read)


def test_prime_string_memory_budget(monkeypatch):
    """A prime-string search, and each rung of the cluster search built on
    it, counts one whole segment and its carry of min(m - 1, 1.3 x / ln x)
    primes before it sieves: the same bytes at limits 1e6, 1e8 and 4e9,
    whether it stops in the first segment or reads up to the limit. A run
    of 2e5 primes, listed as Python ints from spans of 2^18, where the carry
    outweighs the segment, stays within its carry's count. A search past
    the sieve's own budget is served: it holds no table."""
    for limit in (10**6, 10**8, 4 * 10**9):
        primes._prime_list(math.isqrt(limit))  # the base primes count their own list
    eq = equidistribution

    def need(m, limit):
        carry = min(m - 1, primes._prime_count_bound(limit))
        segment = primes.SEGMENT_SPAN // 2 + eq._RUN_BYTES * primes._prime_count_bound(primes.SEGMENT_SPAN)
        return segment + eq._CARRY_BYTES * carry

    assert need(2, 10**6) == need(2, 10**8) == need(2, 4 * 10**9)
    for search, m, limit, farthest in (
        (lambda: find_prime_string(4, 1, 2, 10**6), 2, 10**6, 4093),
        (lambda: find_prime_string(4, 1, 100, 10**6), 100, 10**6, 999983),
        (lambda: find_prime_string(4, 1, 100, 10**8), 100, 10**8, 99999989),
        (lambda: find_prime_string(1, 0, 10**5, 10**8), 10**5, 10**8, 2093041),
        (lambda: cluster_verify("sqrt:2", 0.2, 2, 10**6), 2, 10**6, 4093),
        # every round fails, and some read up to the limit
        (lambda: cluster_verify("sqrt:3", 0.1, 4, 10**6), 4, 10**6, 999983),
    ):
        assert _farthest_read(monkeypatch, search) == farthest
        assert_counted(need(m, limit), search)
    start = time.perf_counter()
    served = assert_counted(need(2, 4 * 10**9), lambda: find_prime_string(4, 1, 2, 4 * 10**9))
    assert served.primes == (13, 17) and time.perf_counter() - start < 1.0
    # the span is read when the search runs: at 2^12 a search that reads
    # through 245 segments to 1e6 counts one 2^12 segment and its carry
    monkeypatch.setattr(primes, "SEGMENT_SPAN", 1 << 12)
    assert need(100, 10**6) < 40_000
    assert assert_counted(need(100, 10**6), lambda: find_prime_string(4, 1, 100, 10**6)) is None
    # (2, 3, ..., p_m) at m = 2e5 in spans of 2^18: at 40 B per carried
    # prime the peak was 1.22 of the count; it is 0.80 of this one
    monkeypatch.setattr(primes, "SEGMENT_SPAN", 1 << 18)
    run = assert_counted(need(2 * 10**5, 10**7), lambda: find_prime_string(1, 0, 2 * 10**5, 10**7))
    assert len(run.primes) == 2 * 10**5 and run.primes[:3] == (2, 3, 5) and run.primes[-1] == 2750159
    # a carry of 1e9 primes is refused before anything is sieved
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        find_prime_string(4, 1, 10**9, 10**12)
    assert time.perf_counter() - start < 1.0


def test_warm_ladder_below_2_to_the_24_sieves_nothing(monkeypatch):
    """Below 2^24 a search reads the prime cache. From a cold cache a ladder
    whose failing rungs read to 1e7 sieves each power of two once, from the
    power of two below it (from 0 for the primes below 2^1 and 2^2); once
    the cache is warm, the same ladder, a search to 1e7 and a certificate
    whose Y = 343,562 call ``primes._segments`` 0 times."""
    ladder = lambda: cluster_verify("sqrt:3", 0.1, 4, 10**7)  # noqa: E731
    calls = []
    real = primes._segments
    monkeypatch.setattr(primes, "_segments", lambda *args: calls.append(args) or real(*args))
    primes._cache = (0, np.empty(0, dtype=np.int64))
    cold = ladder()
    assert not cold.found and len(cold.rounds) == 21
    assert sorted(calls) == [((1 << b) - 1, 1 << (b - 1) if b > 2 else 0) for b in range(1, 25)]
    calls.clear()
    assert ladder() == cold and find_prime_string(4, 1, 100, 10**7) is None
    assert binomial_thresholds.certificate_average(10**18, 200.0).y == 343562
    assert calls == []


def _digits(n: int) -> int:
    """The decimal digits of n, read with Python's int-to-str limit lifted."""
    most = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        return len(str(n))
    finally:
        sys.set_int_max_str_digits(most)


def test_long_arguments_are_refused_by_their_digit_count():
    """A library caller's argument past the int-to-str limit, of any module,
    is named by its exact digit count in the refusal, as is the need; a
    prime-string search to such a limit that fits is served."""
    huge = 10**4301
    assert find_prime_string(4, 1, 2, huge).primes == (13, 17)
    bits = parse_alpha("golden").denominator.bit_length()
    for call, what, need in (
        (
            lambda: find_prime_string(4, 1, huge, huge),
            "a prime-string search to a 4302-digit number",
            primes.SEGMENT_SPAN // 2
            + equidistribution._RUN_BYTES * primes._prime_count_bound(primes.SEGMENT_SPAN)
            + equidistribution._CARRY_BYTES * (huge - 1),
        ),
        (
            lambda: window_sample("golden", 0, huge),
            "a sample of a 4302-digit number of points",
            huge * (equidistribution._SAMPLE_BYTES + 16 * (bits // 30)),
        ),
        (lambda: sieve_primes(huge), "sieving to a 4302-digit number", primes._sieve_bytes(huge)),
        (
            lambda: valuation_row(huge, 2),
            "valuation_row(n=a 4302-digit number)",
            binomial_thresholds._ROW_BYTES * (huge + 1),
        ),
        (
            lambda: enumerate_A(huge),
            "the list of a 4301-digit number of elements of A up to a 4302-digit number",
            basis_splits._ELEMENT_BYTES * sum(hi - lo + 1 for lo, hi in basis_splits.stage_intervals(huge)),
        ),
    ):
        with pytest.raises(ResourceLimitError) as refused:
            call()
        assert str(refused.value) == (
            f"{what} needs ~a {_digits(need)}-digit number of bytes; budget is {errors.DEFAULT_MEMORY_BUDGET}"
        )


def test_prime_string_refusal_past_the_int_to_str_limit():
    """A carry of 10^4299 - 1 primes needs more bytes than Python prints:
    the refusal keeps its start and its end and states the need by its
    exact digit count."""
    limit = 10**4299
    need = (
        primes.SEGMENT_SPAN // 2
        + equidistribution._RUN_BYTES * primes._prime_count_bound(primes.SEGMENT_SPAN)
        + equidistribution._CARRY_BYTES * (limit - 1)
    )
    digits = _digits(need)
    assert digits > sys.get_int_max_str_digits()
    with pytest.raises(ResourceLimitError) as refused:
        find_prime_string(4, 1, limit, limit)
    assert str(refused.value) == (
        f"a prime-string search to {limit} needs ~a {digits}-digit number of bytes; "
        f"budget is {errors.DEFAULT_MEMORY_BUDGET}"
    )


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


def test_dirichlet_bound_check_fires(monkeypatch):
    """A convergent whose numerator is off by one misses the Dirichlet bound."""
    real = equidistribution._convergents
    monkeypatch.setattr(equidistribution, "_convergents", lambda x: ((h + 1, k) for h, k in real(x)))
    with pytest.raises(VerificationError, match="convergent 14/8 of .* misses the Dirichlet bound for Q=10"):
        dirichlet_approx("golden", 10)


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


def _oracle_string(table, q, a, m, limit, max_diameter=None):
    hit = whole_table_prime_string(table.primes[table.primes <= limit], q, a, m, max_diameter)
    if hit is None:
        return None
    r, run = hit
    return PrimeString(q=q, a=a % q, m=m, r=r, primes=run, diameter=run[-1] - run[0])


def _seeded_string_inputs() -> list[tuple]:
    rng = random.Random(13)
    cases = []
    for _ in range(40):
        q = rng.randrange(1, 61)
        a = rng.choice([a for a in range(-q, q) if math.gcd(a, q) == 1])
        m = rng.randrange(1, 5)
        stop = math.lcm(2, q) * (m - 1)  # the early stop's bound
        max_diameter = rng.choice([None, None, rng.randrange(stop, 20 * stop + 2), stop - 1, stop])
        cases.append((q, a, m, int(10 ** rng.uniform(3, 6)), max_diameter))
    return cases


# (first span, segment span): the sieve's own, and spans small enough that
# runs and carries straddle many segment boundaries
_SPANS = [(primes._FIRST_SPAN, primes.SEGMENT_SPAN), (1 << 8, 1 << 12)]


def test_prime_string_equals_whole_table_oracle(table_1e6, monkeypatch):
    """Streamed and sliced from a table, at the sieve's spans and at small
    ones, the search finds the run, r included, that one loop over the whole
    table finds."""
    edges = [
        (4, 1, 40, 100, None),  # the horizon is exhausted
        (17, 16, 2, 77416, 34),  # ... one short of the first tight run
        (1, 0, 7000, 10**5, None),  # (2, 3, ..., p_7000) crosses many segments
        (1, 0, 7000, 10**5, 70655),  # ... at exactly its diameter
        (1, 0, 7000, 10**5, 70654),
        (2, 1, 2000, 10**5, None),  # (3, ..., p_2001): the carry spans segments
        (1, 0, 5000, 10**5, 48000),  # a carry of 4,999 primes read to the limit
        (1, 0, 3, 100, 3),  # (2, 3, 5) is tighter than 2(m - 1)
        (1, 0, 3, 100, 2),
        (15, 8, 3, 10**6, 60),  # diameter exactly lcm(2, q)(m - 1), past 2^16
        (9, 5, 4, 10**6, 54),
    ]
    for first, span in _SPANS:
        monkeypatch.setattr(primes, "_FIRST_SPAN", first)
        monkeypatch.setattr(primes, "SEGMENT_SPAN", span)
        found = 0
        for q, a, m, limit, max_diameter in _seeded_string_inputs() + edges:
            expect = _oracle_string(table_1e6, q, a, m, limit, max_diameter)
            for table in (None, table_1e6):
                got = find_prime_string(q, a, m, limit, table, max_diameter=max_diameter)
                assert got == expect, (q, a, m, limit, max_diameter, table is None, span)
            found += expect is not None
        assert 0 < found < 51
        assert find_prime_string(1, 0, 7000, 10**5).r == 0
        assert find_prime_string(2, 1, 2000, 10**5).r == 1
        assert find_prime_string(1, 0, 3, 100, max_diameter=3).primes == (2, 3, 5)


def test_prime_string_run_straddles_a_boundary(table_1e6, monkeypatch):
    """The first run is found wherever a segment boundary cuts it: spans of
    run[j] - 1 integers leave exactly j of its m primes in the first
    segment, for each j = 1..m-1.

    Mutation control: a carry of m - 2 primes in place of m - 1 passes the
    whole-table oracle test above, and fails here at j = m - 1."""
    for q, a, m in ((4, 1, 3), (12, 5, 3), (10, 9, 4), (4, 3, 5)):
        expect = _oracle_string(table_1e6, q, a, m, 10**6)
        for j in range(1, m):
            monkeypatch.setattr(primes, "_FIRST_SPAN", expect.primes[j] - 1)
            monkeypatch.setattr(primes, "SEGMENT_SPAN", expect.primes[j] - 1)
            for table in (None, table_1e6):
                assert find_prime_string(q, a, m, 10**6, table) == expect, (q, a, m, j)


def test_prime_string_early_stop_is_strict(table_1e6):
    """Mutation control for the early stop. The first run of two consecutive
    primes = 16 (mod 17) at most lcm(2, 17) = 34 wide is exactly that wide
    and lies far past the first segment, 2^12 integers, which holds p_2; a
    stop at max_diameter <= 34 would miss it."""
    for table in (None, table_1e6):
        s = find_prime_string(17, 16, 2, 10**5, table, max_diameter=34)
        assert s is not None and s.primes == (77383, 77417) and s.primes[0] > primes._FIRST_SPAN


def test_prime_string_modulus_past_int64():
    """Every prime below q is its own residue: m = 1 finds the prime a mod q
    when it is below the limit, and no two primes share a class."""
    q = 10**20
    assert find_prime_string(q, 3, 1, 1000) == PrimeString(q=q, a=3, m=1, r=1, primes=(3,), diameter=0)
    assert find_prime_string(q, q + 997, 1, 1000).primes == (997,)
    assert find_prime_string(q, 1, 1, 1000) is None
    assert find_prime_string(q, 1009, 1, 1000) is None
    assert find_prime_string(q, 1, 2, 1000) is None
    start = time.perf_counter()
    assert find_prime_string(q, 1, 2, 10**12) is None  # no run can fit below the limit
    assert time.perf_counter() - start < 1.0


def test_narrowest_run_is_a_lower_bound(table_1e6):
    """No run of m = 3..6 consecutive primes in one class mod q <= 60 below
    1e6 but (2, 3, ..., p_m) is narrower than ``_narrowest_run(q, m)``, read
    from the whole table. At budgets one below the bound, at the bound and
    at the narrowest run's width, the search finds the whole table's first
    run of the narrowest run's class within the budget."""
    ps = table_1e6.primes
    tight = 0
    for q in range(1, 61):
        same = ps[1:] % q == ps[:-1] % q
        for m in range(3, 7):
            heads = ps[: ps.size - m + 1]
            runs = np.ones(heads.size, dtype=bool)  # ps[i], ..., ps[i + m - 1] share a class
            for j in range(m - 1):
                runs &= same[j : j + heads.size]
            widths = ps[m - 1 :] - heads
            others = runs.copy()
            others[0] = False  # every run but (2, 3, ..., p_m)
            if not others.any():
                continue  # no such run below 1e6
            bound = equidistribution._narrowest_run(q, m)
            narrowest = int(widths[others].min())
            assert narrowest >= bound, (q, m)
            tight += narrowest == bound
            a = int(heads[others & (widths == narrowest)][0]) % q
            for budget in (bound - 1, bound, narrowest):
                first = np.flatnonzero(runs & (heads % q == a) & (widths <= budget))
                expect = None
                if first.size:
                    run = tuple(ps[first[0] : first[0] + m].tolist())
                    expect = PrimeString(q=q, a=a, m=m, r=int(first[0]), primes=run, diameter=run[-1] - run[0])
                assert find_prime_string(q, a, m, 10**6, max_diameter=budget) == expect, (q, m, budget)
    assert tight > 0


def test_narrowest_run_is_attained(monkeypatch):
    """(89, 97, 101), the first run of three consecutive primes = 1 (mod 4),
    is exactly 3 lcm(2, 4) wide, the mod-3 bound; a budget one below it
    ends the search in the stream's first span. (47, 53, 59), three
    consecutive primes = 2 (mod 3), is 2 lcm(2, 3) wide: for 3 | q the
    offsets may meet every class mod 3, and the bound is lcm(2, q)(m - 1)."""
    narrowest = equidistribution._narrowest_run
    assert narrowest(4, 3) == 3 * math.lcm(2, 4) == 101 - 89
    assert find_prime_string(4, 1, 3, 1000, max_diameter=12).primes == (89, 97, 101)
    assert narrowest(3, 3) == 2 * math.lcm(2, 3) == 59 - 47
    assert find_prime_string(3, 2, 3, 1000, max_diameter=12).primes == (47, 53, 59)
    spans = []
    real = equidistribution._stream

    def stream(limit, table=None):
        for segment in real(limit, table):
            spans.append(segment.size)
            yield segment

    monkeypatch.setattr(equidistribution, "_stream", stream)
    assert find_prime_string(4, 1, 3, 10**7, max_diameter=11) is None
    assert len(spans) == 1


def _seeded_cluster_inputs() -> list[tuple]:
    rng = random.Random(14)
    alphas = ["golden", "sqrt:2", "sqrt:3", "sqrt:7", "sqrt:11", "sqrt:13", "sqrt:35"]
    cases = [
        (rng.choice(alphas), Fraction(rng.choice(["0.1", "0.2", "0.3", "0.45"])),
         rng.randrange(2, 6), int(10 ** rng.uniform(1.5, 6)))
        for _ in range(30)
    ]
    return cases + [
        ("sqrt:2", Fraction(1, 5), 3, 30),  # the horizon is exhausted
        ("sqrt:3", Fraction(1, 10), 4, 10**6),  # ... after rounds that read to the limit
        (Fraction(3, 7), Fraction(1, 5), 4, 10**6),  # err = 0: no diameter bound
        (Fraction(1, 7) + Fraction(1, 10**9), Fraction(1, 10), 3, 10**6),
    ]


def test_cluster_equals_whole_table_oracle(table_1e6, monkeypatch):
    """With and without a table, at the sieve's spans and at small ones,
    the report, rounds included, is the one a whole-table search gives."""

    def whole_table(q, a, m, limit, table=None, *, max_diameter=None):
        return _oracle_string(table_1e6, q, a, m, limit, max_diameter)

    cases = _seeded_cluster_inputs()
    expected = []
    for alpha, delta, m, limit in cases:
        monkeypatch.setattr(equidistribution, "find_prime_string", whole_table)
        expected.append(cluster_verify(alpha, delta, m, limit, table=table_1e6))
        monkeypatch.undo()
    assert 0 < sum(e.found for e in expected) < 34
    for first, span in _SPANS:
        monkeypatch.setattr(primes, "_FIRST_SPAN", first)
        monkeypatch.setattr(primes, "SEGMENT_SPAN", span)
        for (alpha, delta, m, limit), expect in zip(cases, expected):
            reports = [cluster_verify(alpha, delta, m, limit, table=t) for t in (None, table_1e6)]
            assert reports == [expect, expect], (alpha, delta, m, limit, span)


def _convergent_denominators(alpha: Fraction, cap: int) -> list[int]:
    """Denominators up to ``cap`` of the continued-fraction convergents of
    alpha, each found by evaluating its prefix of partial quotients."""
    terms, x, dens = [], alpha, []
    while not dens or dens[-1] <= cap:
        terms.append(math.floor(x))
        value = Fraction(terms[-1])
        for t in reversed(terms[:-1]):
            value = t + 1 / value
        dens.append(value.denominator)
        if x == terms[-1]:
            break
        x = 1 / (x - terms[-1])
    return [q for q in dens if q <= cap]


def test_cluster_climbs_one_ladder(table_1e6):
    """The rounds are the ladder's rungs, (Q, q) = (ceil(1/delta), q of the
    Dirichlet approximant) and then (q, q) for each convergent with
    first q < q <= limit // (m - 1), up to the first rung that found a run."""
    cases = _seeded_cluster_inputs() + [
        (Fraction(5, 12), Fraction(1, 10), 3, 10**5),  # err = 0 on a later rung
        ("golden", Fraction(1, 10), 5, 1000),  # the horizon is exhausted
    ]
    exact = exhausted = 0
    for alpha, delta, m, limit in cases:
        rep = cluster_verify(alpha, delta, m, limit, table=table_1e6)
        Q = math.ceil(1 / delta)
        dens = _convergent_denominators(parse_alpha(alpha), max(Q, limit))
        first = max(q for q in dens if q <= Q)
        ladder = [(Q, first)] + [(q, q) for q in dens if first < q <= limit // (m - 1)]
        rounds = [(r["Q"], r["q"]) for r in rep.rounds]
        found = [r["found"] for r in rep.rounds]
        if rep.found:
            assert rounds == ladder[: len(rounds)], (alpha, delta, m, limit)
            assert found == [False] * (len(rounds) - 1) + [True]
            assert rep.approximant.q == rounds[-1][1]
        else:
            assert rounds == ladder and not any(found), (alpha, delta, m, limit)
        exact += any(r["err"] == 0 for r in rep.rounds)
        exhausted += not rep.found
    assert exact >= 2 and exhausted >= 2


def test_cluster_arc_check_fires(monkeypatch):
    """A loose string, searched with no diameter bound, lies in no arc of
    length delta."""
    real = equidistribution.find_prime_string
    monkeypatch.setattr(
        equidistribution,
        "find_prime_string",
        lambda q, a, m, limit, table=None, *, max_diameter=None: real(q, a, m, limit, table),
    )
    with pytest.raises(VerificationError, match="cluster arc bound violated: .* > "):
        cluster_verify("sqrt:2", 0.2, 3, 10**5)


def test_cluster_arc_is_stronger_than_the_pairwise_bound(monkeypatch):
    """{2p/5} for p = 2, 5, 11 is 4/5, 0 and 2/5: every pair is within 2/5
    on the circle, but the shortest arc that holds all three is 3/5 long, so
    a string of these primes, patched in, fails at delta = 2/5."""
    alpha, delta, ps = Fraction(2, 5), Fraction(2, 5), (2, 5, 11)
    assert max_pair_distance(alpha, ps) == delta
    string = PrimeString(q=2, a=1, m=3, r=0, primes=ps, diameter=9)
    monkeypatch.setattr(equidistribution, "find_prime_string", lambda *args, **kwargs: string)
    with pytest.raises(VerificationError, match="cluster arc bound violated: 3/5 > 2/5"):
        cluster_verify(alpha, delta, 3, 100)


def test_cluster_arc_equals_the_pairwise_oracle():
    """A found cluster's arc, at most delta < 1/2, is its largest pairwise
    distance, over a seeded sample of sqrt:N for non-square N < 60, with
    runs that straddle 0 among them: sqrt:2 at delta 2/5 and m = 3 finds
    (3, 5, 7), whose parts 0.243, 0.071 and 0.899 wrap through 0."""
    rng = random.Random(38)
    sweep = [
        (f"sqrt:{n}", delta, m)
        for n in range(2, 60)
        if math.isqrt(n) ** 2 != n
        for delta in (Fraction(1, 10), Fraction(1, 5), Fraction(1, 3), Fraction(2, 5))
        for m in range(2, 6)
    ]
    found = straddles = 0
    for alpha, delta, m in [("sqrt:2", Fraction(2, 5), 3), *rng.sample(sweep, 80)]:
        rep = cluster_verify(alpha, delta, m, 10**6)
        if rep.found:
            ps = rep.string.primes
            assert rep.max_pair_distance == max_pair_distance(rep.alpha, ps) <= delta, (alpha, delta, m)
            parts = sorted(fractional_part(rep.alpha, p) for p in ps)
            found += 1
            straddles += parts[-1] - parts[0] > rep.max_pair_distance
            if (alpha, delta, m) == ("sqrt:2", Fraction(2, 5), 3):
                assert ps == (3, 5, 7) and parts[-1] - parts[0] > delta
    assert found >= 40 and straddles >= 5


def test_cluster_check_is_linear_in_m():
    """The run (2, 3, ..., p_m) of alpha = 1/10^12 is verified at m = 1e5 in
    under 1 s: the check sorts m residues once, where a pairwise check
    would take ~5e9 distances."""
    alpha, delta = Fraction(1, 10**12), Fraction(2, 5)
    primes._prime_list(2 * 10**6)  # the prime cache, which fills at its own cost
    start = time.perf_counter()
    rep = cluster_verify(alpha, delta, 10**5, 10**7)
    assert time.perf_counter() - start < 1.0
    assert rep.string.primes[-1] == 1299709 and rep.max_pair_distance == Fraction(1299707, 10**12)


def test_cluster_rungs_are_find_prime_string_calls(monkeypatch):
    """Each round of a cluster search is one ``find_prime_string`` call with
    that round's q, a and diameter bound, in a found case and in one whose
    every round fails."""
    real = equidistribution.find_prime_string
    calls = []

    def recorder(q, a, m, limit, table=None, *, max_diameter=None):
        calls.append((q, a, max_diameter))
        return real(q, a, m, limit, table, max_diameter=max_diameter)

    monkeypatch.setattr(equidistribution, "find_prime_string", recorder)
    for alpha, delta, m, limit, found in (("sqrt:2", 0.2, 3, 10**7, True), ("sqrt:3", 0.1, 4, 10**6, False)):
        calls.clear()
        rep = cluster_verify(alpha, delta, m, limit)
        assert rep.found is found and len(rep.rounds) >= 2
        assert calls == [(r["q"], r["a"], r["max_diameter"]) for r in rep.rounds]


def test_cluster_window_check_fires(monkeypatch):
    """A window score that drops the closed form's 1/k term falls below
    1 - delta. The fault is past the sort, which the arc check reads too."""
    real = equidistribution._exact_discrepancy
    monkeypatch.setattr(
        equidistribution, "_exact_discrepancy", lambda rs, den: real(rs, den) - Fraction(1, len(rs))
    )
    with pytest.raises(VerificationError, match=r"window discrepancy \S+ below 1 - delta = "):
        cluster_verify("sqrt:2", 0.2, 3, 10**5)


def test_cluster_memory_budget(monkeypatch):
    """The check's m residues and scaled residues are counted before any
    rung searches, at a scan's exact count per point, at m = 20,000 with
    40- and 284-bit denominators: the check peaks at ~81 and ~145 B per
    point against 152 and 344. Each rung counts its own search, so the
    whole peak is within the two counts; the spans are cut to 2^16 so that
    the search's count is the smaller."""
    eq = equidistribution
    monkeypatch.setattr(primes, "SEGMENT_SPAN", 1 << 16)
    m, limit, delta = 20_000, 10**7, Fraction(2, 5)
    search = primes._stream_bytes(eq._RUN_BYTES) + eq._CARRY_BYTES * (m - 1)
    for alpha in (Fraction(1, 10**12), Fraction(1, 10**12) + Fraction(1, 2**256)):
        need = m * (eq._POINT_BYTES + 24 * (alpha.denominator.bit_length() // 30))
        assert search < need
        check = lambda: cluster_verify(alpha, delta, m, limit)  # noqa: E731
        rep = check()  # fills the prime cache, whose misses count themselves
        assert rep.string.primes[-1] == 224737
        match = "a cluster check of 20000 points"
        assert assert_counted(need, check, peak=need + search, match=match) == rep


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
