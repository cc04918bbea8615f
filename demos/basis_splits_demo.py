#!/usr/bin/env python3
"""Tour of the order-2 basis that cannot be split into two syndetic sumsets.

The set A keeps, per stage k (Q = 5^(k-1)), an anchor c_k = 4Q, a block
B_k = [5Q, 6Q-1] and a filler F_k = [10Q-1, 15Q]. Three finite facts drive
everything: A + A covers [4, 6*5^k]; the window J_k = [9Q, 10Q-1] is only
reachable as c_k + B_k; so whichever color misses c_k has a gap of length
5^(k-1) in its sumset.
"""

from erdos_trio import (
    alternating_rule,
    classify,
    constant_rule,
    enumerate_A,
    gap_witness,
    representations,
    rigidity_check,
    seeded_rule,
    sumset_cover_check,
)

print("=" * 72)
print("1. The first stages of A")
print("=" * 72)
print(f"  A up to 80: {enumerate_A(80)}")
for x in (4, 5, 9, 6, 20, 25, 49, 99):
    cls = classify(x)
    print(f"  classify({x:>3}) = {cls.kind:<4} stage {cls.stage}")

print()
print("=" * 72)
print("2. Coverage: [4, 6*5^k] inside A_k + A_k (exact interval sums)")
print("=" * 72)
for k in range(9):
    rep = sumset_cover_check(k)
    print(f"  k = {k}:  [4, {rep.hi:>9}] covered ({rep.method})")

print()
print("=" * 72)
print("3. Rigidity: inside J_k every n has exactly one representation")
print("=" * 72)
for n in (9, 45, 47, 225, 240):
    rep = representations(n)
    pairs = tuple((a, n - a) for lo, hi in rep.ranges for a in range(lo, hi + 1))
    print(f"  representations({n:>4}) = {pairs}")
for k in range(1, 8):
    rep = rigidity_check(k)
    print(
        f"  k = {k}:  all {rep.checked:>6} points of J_k = {rep.interval} "
        f"force the anchor {rep.anchor}"
    )

print()
print("=" * 72)
print("4. Gap witnesses for assorted two-colorings")
print("=" * 72)
rules = [constant_rule(1), constant_rule(2), alternating_rule(), seeded_rule(7)]
for rule in rules:
    rep = gap_witness(rule, 4)
    print(
        f"  rule {rep.rule:<12} anchor color {rep.anchor_color} -> color "
        f"{rep.gapped_color} misses J_4 = {rep.interval} (gap length {rep.gap_length})"
    )
print("  every partition leaves one color with unbounded sumset gaps:")
for k in (1, 3, 5, 7):
    rep = gap_witness(seeded_rule(123), k)
    print(f"    k = {k}: certified gap of length {rep.gap_length}")
