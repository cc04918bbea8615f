"""An order-2 additive basis that no two-coloring splits into syndetic halves.

The set is A = [2,3] together with, for each stage k >= 1 (Q = 5^{k-1}):

    anchor  c_k = 4Q,    block  B_k = [5Q, 6Q - 1],    filler  F_k = [10Q - 1, 15Q]

Stage ranges are pairwise disjoint, so membership is decided in O(1) from
the stage index. Three finite verifications are provided:

* coverage: [4, 6 * 5^k] is contained in A_k + A_k, where A_k keeps the
  core and stages 1..k;
* rigidity: every n in J_k = [9Q, 10Q - 1] has exactly one representation
  a + b with a, b in A, namely c_k + (n - c_k) with n - c_k in B_k;
* gap witness: for any two-coloring of A, the color class missing c_k has
  no pairwise sum landing in J_k, so its sumset has a gap of length 5^{k-1}.

A truncated to any bound is a union of O(k) disjoint integer intervals, and
[a, b] + [c, d] = [a + c, b + d] with every point reached, so sumsets are
computed exactly as unions of O(k^2) interval sums, never element by element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

from .errors import VerificationError, reserve

Kind = Literal["core", "c", "B", "F", "none"]

# One held (lo, hi) interval of ints of at most ``bits`` bits, an interval
# sum of ``_sumset`` or a stage interval, takes at most
# _SUM_BYTES + 8 * (bits // 30) bytes (``_interval_bytes``): the tuple (56),
# its list slot and sort scratch (13), and two ints of at most
# 32 + 4 * (bits // 30) bytes each.
# tracemalloc gives 169, 209 and 292 bytes per pair for cover and rigidity
# at k = 100, 200 and 400 (sums of 235, 467 and 932 bits), against bounds
# of 189, 253 and 381; ``stage_intervals(3 * 5^k)`` peaks at 100, 364 and
# 614 bytes per interval at k = 100, 1000 and 2000, against 189, 1237 and
# 2365.
_SUM_BYTES = 133

# Peak bytes per element of ``enumerate_A``: a 28-byte int below 2^30, its
# list slot and the list's over-allocation while it grows (tracemalloc: 40.0
# per element at limits 1e5 and 1e6, 41.0 at 1e7).
_ELEMENT_BYTES = 48


def _interval_bytes(bits: int) -> int:
    """Bytes one held interval of ints of at most ``bits`` bits takes."""
    return _SUM_BYTES + 8 * (bits // 30)


def stage_anchor(k: int) -> int:
    """c_k = 4 * 5^(k-1)."""
    return 4 * 5 ** (k - 1)


def stage_block(k: int) -> tuple[int, int]:
    """B_k = [5 * 5^(k-1), 6 * 5^(k-1) - 1], inclusive endpoints."""
    q = 5 ** (k - 1)
    return 5 * q, 6 * q - 1


def stage_filler(k: int) -> tuple[int, int]:
    """F_k = [10 * 5^(k-1) - 1, 15 * 5^(k-1)], inclusive endpoints."""
    q = 5 ** (k - 1)
    return 10 * q - 1, 15 * q


def rigidity_interval(k: int) -> tuple[int, int]:
    """J_k = [9 * 5^(k-1), 10 * 5^(k-1) - 1], inclusive endpoints."""
    q = 5 ** (k - 1)
    return 9 * q, 10 * q - 1


@dataclass(frozen=True)
class StageClassification:
    """Which part of A an integer lies in (stage is None for core/none)."""

    kind: Kind
    stage: int | None = None


def classify(x: int) -> StageClassification:
    """O(1) membership: estimate the stage from log_5(x/4), then check exactly."""
    if x in (2, 3):
        return StageClassification(kind="core")
    if x < 4:
        return StageClassification(kind="none")
    # largest k with 4 * 5^(k-1) <= x; float estimate corrected by +-1 steps
    k = max(1, int((math.log2(x) - 2) / math.log2(5)) + 1)
    while stage_anchor(k + 1) <= x:
        k += 1
    while k > 1 and stage_anchor(k) > x:
        k -= 1
    if x == stage_anchor(k):
        return StageClassification(kind="c", stage=k)
    lo, hi = stage_block(k)
    if lo <= x <= hi:
        return StageClassification(kind="B", stage=k)
    lo, hi = stage_filler(k)
    if lo <= x <= hi:
        return StageClassification(kind="F", stage=k)
    return StageClassification(kind="none")


def stage_intervals(limit: int) -> list[tuple[int, int]]:
    """Disjoint ascending intervals whose union is A intersected with [0, limit].

    Their ints grow with the stage, so the list is quadratic in the number
    of stages; it is counted through ``reserve`` before it is built, as at
    most 3 intervals for each of the <= bits/2 + 1 stages plus the core, each
    at the size of the largest.
    """
    bits = max(limit, 0).bit_length()
    reserve(
        (3 * (bits // 2 + 1) + 1) * _interval_bytes(bits),
        f"the interval list of A up to a {bits}-bit limit",
    )
    out: list[tuple[int, int]] = []
    if limit >= 2:
        out.append((2, min(3, limit)))
    k = 1
    while stage_anchor(k) <= limit:
        c = stage_anchor(k)
        out.append((c, c))
        for lo, hi in (stage_block(k), stage_filler(k)):
            if lo <= limit:
                out.append((lo, min(hi, limit)))
        k += 1
    return out


def enumerate_A(limit: int) -> list[int]:
    """All elements of A up to limit, ascending.

    About half of [0, limit] lies in A; the elements are counted from the
    intervals through ``reserve`` before the list is built.
    """
    intervals = stage_intervals(limit)
    count = sum(hi - lo + 1 for lo, hi in intervals)
    reserve(_ELEMENT_BYTES * count, f"the list of {count} elements of A up to {limit}")
    out: list[int] = []
    for lo, hi in intervals:
        out.extend(range(lo, hi + 1))
    return out


def _sumset(
    left: Sequence[tuple[int, int]], right: Sequence[tuple[int, int]]
) -> list[tuple[int, int]]:
    """{a + b : a in left, b in right} as disjoint ascending intervals.

    Both arguments are lists of inclusive intervals. [a, b] + [c, d] is
    exactly [a + c, b + d], so the merged union of the pairwise interval
    sums is the sumset itself; intervals that touch are merged.

    The len(left) * len(right) sums are counted through ``reserve`` before
    any is built.
    """
    bits = (2 * max(hi for _, hi in (*left, *right))).bit_length()
    reserve(
        len(left) * len(right) * _interval_bytes(bits),
        f"a sumset of {len(left)} x {len(right)} interval sums",
    )
    out: list[list[int]] = []
    for lo, hi in sorted((a + c, b + d) for a, b in left for c, d in right):
        if out and lo <= out[-1][1] + 1:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


@dataclass(frozen=True)
class CoverageReport:
    k: int
    lo: int
    hi: int
    covered: bool
    first_gap: int | None
    method: str = "intervals"  # the one sumset engine, named for report readers


def sumset_cover_check(k: int) -> CoverageReport:
    """Verify [4, 6 * 5^k] is contained in A_k + A_k; fatal if not.

    A_k + A_k is the merged union of the pairwise sums of the intervals of
    A_k, and the first point of [4, 6 * 5^k] it misses is the first gap. A
    gap would contradict a proved coverage lemma, so it raises
    VerificationError.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    hi = 6 * 5**k
    # A_k = A truncated to stages 1..k; its max element is 15 * 5^(k-1) = 3 * 5^k.
    intervals = stage_intervals(3 * 5**k)
    reach = 4  # least point of [4, hi] not yet known to be covered
    for lo, up in _sumset(intervals, intervals):
        if lo > reach:
            break
        reach = max(reach, up + 1)
    first_gap = reach if reach <= hi else None
    report = CoverageReport(k=k, lo=4, hi=hi, covered=first_gap is None, first_gap=first_gap)
    if not report.covered:
        raise VerificationError(
            f"sumset coverage fails at stage {k}: {first_gap} not in A_{k} + A_{k}"
        )
    return report


@dataclass(frozen=True)
class RepresentationList:
    """All ways to write n = a + b with a <= b and both in A: one for each
    a in the disjoint ascending inclusive ``ranges``, ``count`` in all."""

    n: int
    ranges: tuple[tuple[int, int], ...]
    count: int


def representations(n: int) -> RepresentationList:
    """The a with a <= n - a and both a and n - a in A, as ascending ranges.

    The admissible a form A ∩ (n - A) ∩ [2, n // 2]. The intervals of A up
    to n - 2 and their mirrors [n - hi, n - lo] are two disjoint ascending
    lists, so one merge pass intersects them into disjoint ascending ranges,
    at most one per interval of either list. The ranges are the closed form
    of the answer: they hold O(stages) ints however many representations
    they count.
    """
    if n < 4:
        raise ValueError("n must be >= 4")
    intervals = stage_intervals(n - 2)
    mirrors = [(n - hi, n - lo) for lo, hi in reversed(intervals)]
    ranges = []
    i = j = 0
    while i < len(intervals) and j < len(mirrors):
        (lo, hi), (lo2, hi2) = intervals[i], mirrors[j]
        a_lo, a_hi = max(lo, lo2), min(hi, hi2, n // 2)
        if a_lo <= a_hi:
            ranges.append((a_lo, a_hi))
        if hi < hi2:
            i += 1
        else:
            j += 1
    count = sum(a_hi - a_lo + 1 for a_lo, a_hi in ranges)
    return RepresentationList(n=n, ranges=tuple(ranges), count=count)


@dataclass(frozen=True)
class RigidityReport:
    k: int
    interval: tuple[int, int]
    checked: int
    anchor: int


def rigidity_check(k: int) -> RigidityReport:
    """Verify every n in J_k has exactly the representation {c_k, n - c_k}.

    Summands are at most max(J_k) - 2, since the smallest element of A is 2.
    Every point of an interval sum is reached, so n in J_k has exactly one
    representation, through c_k, iff J_k = c_k + B_k and no other pair of
    intervals of A has a sum meeting J_k: neither two intervals avoiding
    {c_k}, nor {c_k} with an interval other than B_k. Anything else raises
    VerificationError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    j_lo, j_hi = rigidity_interval(k)
    c = stage_anchor(k)
    block = stage_block(k)
    intervals = stage_intervals(j_hi - 2)
    anchor = (c, c)
    others = [iv for iv in intervals if iv != anchor]
    stray = _sumset(others, others) + _sumset(
        [anchor], [iv for iv in intervals if iv != block]
    )
    for lo, hi in stray:
        if lo <= j_hi and hi >= j_lo:
            raise VerificationError(
                f"stage {k}: n = {max(lo, j_lo)} has a representation avoiding c_k + B_k"
            )
    if (c + block[0], c + block[1]) != (j_lo, j_hi):
        raise VerificationError(f"stage {k}: c_k + B_k differs from J_k")
    return RigidityReport(
        k=k, interval=(j_lo, j_hi), checked=j_hi - j_lo + 1, anchor=c
    )


@dataclass(frozen=True)
class PartitionRule:
    """A two-coloring of A, specified by the anchor colors plus a default.

    ``anchor_color`` maps the stage index k to the color (1 or 2) of c_k;
    ``default_color`` colors every non-anchor element. The gap witness only
    depends on the anchor colors, but ``color_of`` colors every element, so
    element-level checks can run on batteries of random total colorings.
    """

    name: str
    anchor_color: Callable[[int], int]
    default_color: Callable[[int], int]

    def color_of(self, x: int) -> int:
        cls = classify(x)
        if cls.kind == "c":
            return self.anchor_color(cls.stage)
        return self.default_color(x)


def _mix(x: int, seed: int) -> int:
    """splitmix64-style integer hash, stable across runs."""
    z = (x * 0x9E3779B97F4A7C15 + seed * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB) % (
        1 << 64
    )
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) % (1 << 64)
    z ^= z >> 27
    return z


def constant_rule(color: int = 1) -> PartitionRule:
    """Every element, anchors included, gets the same color."""
    if color not in (1, 2):
        raise ValueError("color must be 1 or 2")
    return PartitionRule(
        name=f"all-c-to-{color}",
        anchor_color=lambda k: color,
        default_color=lambda x: color,
    )


def alternating_rule() -> PartitionRule:
    """c_k gets color (k mod 2) + 1; everything else color 1."""
    return PartitionRule(
        name="alternating",
        anchor_color=lambda k: (k % 2) + 1,
        default_color=lambda x: 1,
    )


def seeded_rule(seed: int) -> PartitionRule:
    """Pseudorandom total coloring, a pure function of (seed, element)."""
    return PartitionRule(
        name=f"random:{seed}",
        anchor_color=lambda k: 1 + (_mix(stage_anchor(k), seed) & 1),
        default_color=lambda x: 1 + (_mix(x, seed) & 1),
    )


def rule_from_name(spec: str) -> PartitionRule:
    """Parse 'all-c-to-1', 'all-c-to-2', 'alternating' or 'random:SEED'."""
    if spec in ("all-c-to-1", "all-c-to-2"):
        return constant_rule(int(spec[-1]))
    if spec == "alternating":
        return alternating_rule()
    if spec.startswith("random:"):
        return seeded_rule(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown partition rule {spec!r}")


@dataclass(frozen=True)
class GapReport:
    """A certified gap: the sumset of ``gapped_color`` misses all of J_k."""

    k: int
    rule: str
    anchor_color: int
    gapped_color: int
    interval: tuple[int, int]
    gap_length: int
    truncation: int


def gap_witness(rule: PartitionRule, k: int) -> GapReport:
    """Certify that the color class not containing c_k misses J_k entirely.

    Rigidity says every point of J_k is reached only as c_k + b with b in
    B_k, so the class without c_k has no pairwise sum in J_k, whatever color
    the other elements get. Only elements up to 10 * 5^(k-1) can take part
    in a representation of a point of J_k (the partner would otherwise be
    below the minimum of A); the report records that truncation bound.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ac = rule.anchor_color(k)
    if ac not in (1, 2):
        raise ValueError("anchor color must be 1 or 2")
    rigid = rigidity_check(k)
    return GapReport(
        k=k,
        rule=rule.name,
        anchor_color=ac,
        gapped_color=3 - ac,
        interval=rigid.interval,
        gap_length=5 ** (k - 1),
        truncation=10 * 5 ** (k - 1),
    )
