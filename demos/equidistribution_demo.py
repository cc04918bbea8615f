#!/usr/bin/env python3
"""How {alpha p_n} fails to be well-distributed, step by step.

First the diagnostics: exact interval discrepancy of windows and the
windowed scan statistic. Then the construction: Dirichlet approximant
a/q, a run of consecutive primes in one class mod q, and the resulting
window whose fractional parts crowd into a width-delta interval, pushing
the window discrepancy up to 1 - delta no matter how far out it sits.
"""

from fractions import Fraction

from erdos_trio import (
    cluster_verify,
    dirichlet_approx,
    find_prime_string,
    interval_discrepancy,
    parse_alpha,
    sieve_primes,
    well_distribution_statistic,
    window_sample,
)

table = sieve_primes(10**7)

print("=" * 72)
print("1. Exact interval discrepancy of small samples")
print("=" * 72)
half, tenth = Fraction(1, 2), Fraction(1, 10)
for pts in ([half], [0, half], [Fraction(i, 8) for i in range(8)], [tenth] * 3):
    print(f"  D({', '.join(map(str, pts))}) = {interval_discrepancy(pts)}")

print()
print("=" * 72)
print("2. Window scans: irrational alphas look flat, but only on average")
print("=" * 72)
for label in ("sqrt:2", "golden"):
    alpha = parse_alpha(label)
    res = well_distribution_statistic(alpha, k=50, scan_limit=2000, table=table)
    print(
        f"  alpha = {label:<7} max window discrepancy over n <= 2000: "
        f"{res.max_discrepancy:.4f} at n = {res.argmax_start}"
    )

print()
print("=" * 72)
print("3. The two ingredients, for alpha = sqrt(2)")
print("=" * 72)
alpha = parse_alpha("sqrt:2")
apx = dirichlet_approx(alpha, 12)
print(f"  Dirichlet approximant with q <= 12: {apx.a}/{apx.q}, err = {float(apx.err):.6f}")
s = find_prime_string(apx.q, apx.a % apx.q, 3, 10**7, table=table)
print(f"  first 3 consecutive primes = {apx.a % apx.q} (mod {apx.q}): {s.primes}")
print(f"  diameter {s.diameter}: err * diameter = {float(apx.err) * s.diameter:.4f}")

print()
print("=" * 72)
print("4. End-to-end clustering witnesses (delta = 0.2, m = 3)")
print("=" * 72)
for label, alpha in (
    ("sqrt(2)", parse_alpha("sqrt:2")),
    ("golden", parse_alpha("golden")),
    ("1/7 + 1e-9", Fraction(1, 7) + Fraction(1, 10**9)),
):
    rep = cluster_verify(alpha, 0.2, 3, 10**7, table=table)
    w = window_sample(alpha, rep.string.r, rep.m, table)
    print(f"  alpha = {label}")
    print(f"    primes {rep.string.primes} (all = {rep.string.a} mod {rep.string.q})")
    print(f"    fractional parts {[round(float(x), 4) for x in w]}")
    print(
        f"    max pairwise ||alpha (p - p')|| = {float(rep.max_pair_distance):.4f} <= 0.2"
    )
    print(
        f"    window discrepancy = {float(rep.window_discrepancy):.4f} >= 0.8"
        "  (verified in exact rational arithmetic)"
    )
