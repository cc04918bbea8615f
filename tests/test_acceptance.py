"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Each criterion carries its stated wall-clock budget; the checks
are exact unless a tolerance is spelled out inline.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import erdos_trio as et
from erdos_trio.cli import main as cli_main

from oracles import (
    basis_intervals,
    color_class_misses_window,
    f_oracle,
    first_missing,
    grid_discrepancy,
    small_prime_part,
    sumset_mask,
    trial_division_primes,
    window_representations,
)


@pytest.fixture(scope="module")
def table_1e7():
    return et.sieve_primes(10**7)


class _Criterion:
    """Times a criterion body and prints the PASS/FAIL line on exit."""

    def __init__(self, ident: str, summary: str, budget_s: float):
        self.ident = ident
        self.summary = summary
        self.budget_s = budget_s
        self.notes: list[str] = []

    def note(self, text: str):
        self.notes.append(text)

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        extra = ("; " + "; ".join(self.notes)) if self.notes else ""
        print(
            f"ACCEPTANCE {self.ident}: {status} [{elapsed:.1f}s / budget {self.budget_s:.0f}s]"
            f" {self.summary}{extra}"
        )
        if exc_type is None and elapsed > self.budget_s:
            raise AssertionError(
                f"criterion {self.ident} exceeded its {self.budget_s}s budget: {elapsed:.1f}s"
            )
        return False


def test_criterion_1_valuation_oracle_equivalence():
    with _Criterion("1", "valuation oracle equivalence", 60.0):
        # (a) n <= 300: both forms match big-integer factorization of C(n, k)
        primes300 = et.sieve_primes(300).primes.tolist()
        for n in range(301):
            for k in range(n + 1):
                c = math.comb(n, k)
                for p in primes300:
                    if p > k:
                        break
                    e = 0
                    cc = c
                    while cc % p == 0:
                        cc //= p
                        e += 1
                    assert et.valuation_binomial(n, k, p, "indicator") == e, (n, k, p)
                    assert et.valuation_binomial(n, k, p, "legendre") == e, (n, k, p)
        # (b) n <= 3000: indicator form equals Legendre floor-sum form everywhere
        for p in et.sieve_primes(3000).primes.tolist():
            for n in range(p, 3001):
                row_i = et.valuation_row(n, p, method="indicator")
                row_l = et.valuation_row(n, p, method="legendre")
                if not np.array_equal(row_i[p:], row_l[p:]):
                    raise AssertionError(f"forms disagree at p={p}, n={n}")


def test_criterion_2_f_threshold_oracle_equivalence():
    with _Criterion("2", "f(n) matches the big-integer definition, n <= 5000", 120.0) as c:
        primes = et.sieve_primes(400).primes.tolist()
        worst = 0
        for n in range(1, 5001):
            got = et.f_threshold(n).f
            want = f_oracle(n, primes, 400)
            assert got == want, (n, got, want)
            if want is not None:
                worst = max(worst, want)
        c.note(f"max f(n) seen: {worst}")


def test_criterion_3_lower_bound_witness():
    with _Criterion(
        "3",
        "M_K = lcm(1..K) * prod_{p<=K} p for K = 2..54; u(M_K - 1, k) = 1 for k <= K, "
        "K = 2..20, by factoring C(n, k); log(M_K)/K in [1.5, 2.5] for K = 17..54 "
        "(K >= 55 by Rosser-Schoenfeld)",
        30.0,
    ) as c:
        # Since M_K = lcm(1..K) * prod_{p<=K} p, log M_K = psi(K) + theta(K)
        # exactly, so log(M_K)/K >= 2 theta(K)/K. Rosser & Schoenfeld, Illinois
        # J. Math. 6 (1962): (3.16) theta(x) > x(1 - 1/log x) for x >= 41, so the
        # ratio exceeds 2(1 - 1/log K) >= 2(1 - 1/log 55) = 1.5009 for K >= 55;
        # Theorems 9 and 12, theta(x) < 1.01624x and psi(x) < 1.03883x, keep it
        # below 2.06 for every K. The window for 17 <= K <= 54 is computed here.
        # Below 17 it is not claimed: the ratio is 1.3179, 1.4979 and 1.4874 at
        # K = 10, 12 and 16.
        lowest = (math.inf, None)
        for K in range(2, 55):
            w = et.lower_bound_witness(K)  # raises if its own u(M_K - 1, k) = 1 check fails
            primes = trial_division_primes(K)
            want = math.lcm(*range(1, K + 1)) * math.prod(primes)
            assert w.M_K == want, (K, w.M_K, want)
            assert math.isclose(w.log_ratio, math.log(want) / K, rel_tol=1e-12), K
            if K <= 20:
                n = want - 1
                for k in range(K + 1):
                    assert small_prime_part(n, k, primes) == 1, (K, k)
            if K >= 17:
                assert 1.5 <= w.log_ratio <= 2.5, (K, w.log_ratio)
                lowest = min(lowest, (w.log_ratio, K))
        c.note(f"min log(M_K)/K for K = 17..54: {lowest[0]:.4f} at K = {lowest[1]}")


def test_criterion_4_certificate_behavior():
    with _Criterion("4", "averaging certificate on 100 random n in [1e4, 1e7]", 600.0) as c:
        rng = random.Random(0x5EC4)
        ns = [rng.randrange(10**4, 10**7 + 1) for _ in range(100)]
        ratio_max = 0.0
        certified = 0
        for n in ns:
            rep = et.certificate_average(n, 6.21)
            if rep.average > rep.threshold:
                certified += 1
                res = et.f_threshold(n)
                assert res.f is not None and res.f <= rep.y, (n, res.f, rep.y)
                # independent exact confirmation that u(n, f) > n^2
                assert et.u_profile(n, res.f).exact_u > n * n
                ratio_max = max(ratio_max, res.f / math.log(n) ** 2)
        c.note(f"certified {certified}/100")
        c.note(f"max f(n)/(log n)^2 = {ratio_max:.4f} (informational)")


def test_criterion_5_coverage():
    with _Criterion("5", "[4, 6*5^k] subset of A_k + A_k for k <= 8", 60.0):
        for k in range(9):
            rep = et.sumset_cover_check(k)
            assert rep.covered and rep.hi == 6 * 5**k
            # element-level shift-or sumset of A_k agrees
            assert first_missing(sumset_mask(basis_intervals(3 * 5**k)), 4, rep.hi) is None


def test_criterion_6_rigidity():
    with _Criterion("6", "unique anchored representation on J_k for k <= 7", 60.0):
        for k in range(1, 8):
            rep = et.rigidity_check(k)
            assert rep.checked == 5 ** (k - 1)
            # element-level count: one pair per n in J_k, always through c_k
            j_lo, j_hi = rep.interval
            elements = [x for a, b in basis_intervals(j_hi - 2) for x in range(a, b + 1)]
            counts, smaller = window_representations(elements, j_lo, j_hi)
            assert (counts == 1).all() and smaller == [rep.anchor]


def test_criterion_7_gap_witnesses():
    with _Criterion("7", "gap witnesses for 50 seeded rules, k <= 7", 120.0):
        for seed in range(50):
            rule = et.seeded_rule(seed)
            for k in range(1, 8):
                rep = et.gap_witness(rule, k)
                assert rep.gap_length == 5 ** (k - 1)
                assert rep.gapped_color == 3 - rule.anchor_color(k)
                # element-level check over the rule's full coloring agrees
                assert color_class_misses_window(rule.color_of, k, rep.gapped_color)


def test_criterion_8_discrepancy_exactness():
    with _Criterion("8", "discrepancy: grid brute force + equally spaced", 60.0):
        rng = random.Random(0xD15C)
        for _ in range(500):
            k = rng.randrange(1, 13)
            pts = [rng.random() for _ in range(k)]
            exact = et.interval_discrepancy(pts)
            grid = grid_discrepancy(pts, steps=1024)
            assert grid - 1e-12 <= exact <= grid + 2 / 1024 + 1e-12
        for k in range(1, 65):
            pts = [Fraction(i, k) for i in range(k)]
            assert et.interval_discrepancy(pts) == Fraction(1, k)


def test_criterion_9_dirichlet_property():
    with _Criterion("9", "Dirichlet invariants on 1e4 random (alpha, Q)", 30.0):
        rng = random.Random(0xD161)
        for _ in range(10**4):
            if rng.random() < 0.5:
                alpha = Fraction(rng.getrandbits(50), rng.getrandbits(50) + 1)
            else:
                alpha = Fraction(rng.uniform(-1000, 1000))
            q_cap = rng.randrange(1, 10**4 + 1)
            apx = et.dirichlet_approx(alpha, q_cap)
            assert math.gcd(apx.a, apx.q) == 1
            assert 1 <= apx.q <= q_cap
            assert abs(alpha - Fraction(apx.a, apx.q)) * apx.q * q_cap <= 1


def test_criterion_10_cluster_mechanism(table_1e7):
    with _Criterion("10", "clustering witnesses for sqrt2, golden, 1/7 + 1e-9", 600.0) as c:
        alphas = {
            "sqrt2": et.parse_alpha("sqrt:2"),
            "golden": et.parse_alpha("golden"),
            "1/7+1e-9": Fraction(1, 7) + Fraction(1, 10**9),
        }
        for name, alpha in alphas.items():
            rep = et.cluster_verify(alpha, 0.2, 3, 10**7, table=table_1e7)
            assert rep.found, f"{name}: horizon exhausted below 1e7"
            assert rep.max_pair_distance <= Fraction(1, 5)
            assert rep.window_discrepancy >= Fraction(4, 5)
            c.note(f"{name}: q={rep.approximant.q} primes={rep.string.primes}")


def test_criterion_11_cli_determinism(capsys):
    commands = [
        ["--format", "json", "--threads", "1", "binomial", "f-scan", "--from", "2", "--to", "40"],
        ["--format", "json", "--threads", "4", "binomial", "f-scan", "--from", "2", "--to", "40"],
        ["--format", "csv", "basis", "gaps", "--rule", "random:9", "--k", "5"],
        ["--format", "json", "equidist", "cluster", "--alpha", "sqrt:2",
         "--delta", "0.2", "--m", "2", "--limit", "100000"],
        ["--format", "table", "binomial", "witness", "--K", "12"],
        ["--format", "csv", "equidist", "scan", "--alpha", "golden", "--k", "20", "--limit", "200"],
    ]
    with _Criterion("11", "byte-identical CLI reruns, threads varied", 120.0):
        outputs = []
        for argv in commands:
            code = cli_main(argv)
            out1 = capsys.readouterr().out
            assert code == 0
            code = cli_main(argv)
            out2 = capsys.readouterr().out
            assert code == 0
            assert out1 == out2, f"rerun differs for {argv}"
            outputs.append(out1)
        # varying --threads must not change the bytes either
        assert outputs[0] == outputs[1]
