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
[a, b] + [c, d] = [a + c, b + d] with every point reached, so both checks
read one sorted list of the unordered pair sums that meet their range, never
single elements: all O(k^2) of them for coverage, and for rigidity the one
that meets J_k, found by O(k) bisections of O(log k) steps each.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Literal, Sequence

from .errors import VerificationError, _count, _number, reserve

Kind = Literal["core", "c", "B", "F", "none"]

# One held (lo, hi) interval of ints of at most ``bits`` bits, an interval
# sum of ``_pair_sums`` or a stage interval, takes at most
# _SUM_BYTES + 8 * (bits // 30) bytes (``_interval_bytes``): the tuple (56),
# its list slot, sort key and sort scratch (25), and two ints of at most
# 32 + 4 * (bits // 30) bytes each.
# tracemalloc gives 76, 156, 178, 222 and 304 bytes per pair sum for cover at
# k = 10, 60, 100, 200 and 400 (sums of 26, 142, 235, 467 and 932 bits),
# against bounds of 145, 177, 201, 265 and 393;
# ``stage_intervals(3 * 5^k)`` peaks at 82, 334 and 611 bytes per interval
# at k = 100, 1000 and 2000, against counts of 237, 885 and 1,600.
_SUM_BYTES = 145

# Bytes per interval of the four lists ``_pair_sums`` bisects and bounds its
# runs with: four list slots and their growth, and two run ends past the
# small-int cache (28 each). tracemalloc gives 91 bytes per interval on
# rigidity's range at k = 100, 1000 and 2000 (300-6,000 intervals, one sum);
# the lists' headers take 736 bytes at one interval, counted as 8 intervals
# more. Every count from k = 1 to 40, cover and rigidity, holds its peak.
_RUN_BYTES = 112

# Peak bytes per element of ``enumerate_A``: a 28-byte int below 2^30, its
# list slot and the list's over-allocation while it grows (tracemalloc: 40.0
# per element at limits 1e5 and 1e6, 41.0 at 1e7).
_ELEMENT_BYTES = 48


def _interval_bytes(bits: int) -> int:
    """Bytes one held interval of ints of at most ``bits`` bits takes."""
    return _SUM_BYTES + 8 * (bits // 30)


# The core [2, 3], below every stage.
_CORE = (2, 3)


def _stage(q: int) -> tuple[int, tuple[int, int], tuple[int, int], tuple[int, int]]:
    """(c_k, B_k, F_k, J_k) of the stage with Q = 5^(k-1) = ``q``, inclusive
    endpoints: the one statement of the stage geometry."""
    return 4 * q, (5 * q, 6 * q - 1), (10 * q - 1, 15 * q), (9 * q, 10 * q - 1)


@dataclass(frozen=True)
class StageClassification:
    """Which part of A an integer lies in (stage is None for core/none)."""

    kind: Kind
    stage: int | None = None


def classify(x: int) -> StageClassification:
    """O(1) membership: estimate the stage from log_5(x/4), then check exactly."""
    if x < _CORE[0]:
        return StageClassification(kind="none")
    if x <= _CORE[1]:
        return StageClassification(kind="core")
    # largest k with c_k <= x; float estimate corrected by +-1 steps
    k = max(1, int((math.log2(x) - 2) / math.log2(5)) + 1)
    q = 5 ** (k - 1)
    c, block, filler, _ = _stage(q)
    while k > 1 and c > x:
        k, q = k - 1, q // 5
        c, block, filler, _ = _stage(q)
    while _stage(5 * q)[0] <= x:
        k, q = k + 1, 5 * q
        c, block, filler, _ = _stage(q)
    if x == c:
        return StageClassification(kind="c", stage=k)
    if block[0] <= x <= block[1]:
        return StageClassification(kind="B", stage=k)
    if filler[0] <= x <= filler[1]:
        return StageClassification(kind="F", stage=k)
    return StageClassification(kind="none")


def _count_intervals(bits: int) -> None:
    """Count, through ``reserve``, the interval list of A up to a limit of
    ``bits`` bits: at most 3 intervals for each of the <= bits/2 + 1 stages
    plus the core, each at the size of the largest. The count grows with
    ``bits``, so a check may first count a lower bound on its limit's bits,
    from k alone, and refuse a stage far past the budget before it forms
    any power of 5."""
    reserve(
        (3 * (bits // 2 + 1) + 1) * _interval_bytes(bits),
        f"the interval list of A up to a {bits}-bit limit",
    )


def stage_intervals(limit: int) -> list[tuple[int, int]]:
    """Disjoint ascending intervals whose union is A intersected with [0, limit].

    Q = 5^(k-1) steps by one multiplication by 5 per stage, and each stage's
    parts are read from ``_stage(Q)``. Their ints grow with the stage, so
    the list is quadratic in the number of stages; it is counted by
    ``_count_intervals`` before it is built.
    """
    _count_intervals(max(limit, 0).bit_length())
    out: list[tuple[int, int]] = []
    if limit >= _CORE[0]:
        out.append((_CORE[0], min(_CORE[1], limit)))
    q = 1
    c, block, filler, _ = _stage(q)
    while c <= limit:
        out.append((c, c))
        for lo, hi in (block, filler):
            if lo <= limit:
                out.append((lo, min(hi, limit)))
        q *= 5
        c, block, filler, _ = _stage(q)
    return out


def enumerate_A(limit: int) -> list[int]:
    """All elements of A up to limit, ascending.

    About half of [0, limit] lies in A; the elements are counted from the
    intervals through ``reserve`` before the list is built.
    """
    intervals = stage_intervals(limit)
    count = sum(hi - lo + 1 for lo, hi in intervals)
    reserve(_ELEMENT_BYTES * count, f"the list of {_count(count)} elements of A up to {_number(limit)}")
    out: list[int] = []
    for lo, hi in intervals:
        out.extend(range(lo, hi + 1))
    return out


def _pair_sums(intervals: Sequence[tuple[int, int]], lo: int, hi: int) -> list[tuple[int, int]]:
    """[a + c, b + d] for each unordered pair of the disjoint ascending
    inclusive ``intervals`` whose sum meets [lo, hi], sorted by lower end.

    Each pair i <= j is taken once, an interval with itself included
    (4 = 2 + 2). Every point of a sum is reached, and the sums are not
    merged: a sum equal to another is a second representation of its
    points. Both endpoints c_j and d_j ascend with j, so the partners j >= i
    of interval i = [a, b] whose sum meets [lo, hi] are one run: from the
    first j >= i with d_j >= lo - b to the last with c_j <= hi - a, two
    bisections. The runs' sums, ties in pair order, are counted through
    ``reserve`` with the per-interval lists before any sum is built.
    """
    starts = [a for a, _ in intervals]
    ends = [b for _, b in intervals]
    firsts = [bisect_left(ends, lo - b, i) for i, b in enumerate(ends)]
    lasts = [bisect_right(starts, hi - a, first) for a, first in zip(starts, firsts)]
    count = sum(lasts) - sum(firsts)
    bits = (2 * ends[-1]).bit_length()
    reserve(
        count * _interval_bytes(bits) + (len(intervals) + 8) * _RUN_BYTES,
        f"{count} interval sums of {len(intervals)} intervals",
    )
    sums = [
        (a + c, b + d)
        for (a, b), first, last in zip(intervals, firsts, lasts)
        for c, d in intervals[first:last]
    ]
    sums.sort(key=itemgetter(0))
    return sums


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

    A_k + A_k is the union of the pair sums of the intervals of A_k, and one
    sweep in ascending order finds the first point of [4, 6 * 5^k] it
    misses, the first gap. A gap would contradict a proved coverage lemma,
    so it raises VerificationError. The interval list is first counted from
    k alone, so a stage far past the memory budget is refused before 5^k is
    formed.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    _count_intervals(2 * k)  # the limit 3 * 5^k has more than 2k bits
    # A_k = A truncated to stages 1..k; its max element is max(F_k) = 3 * 5^k,
    # or the core's 3 at k = 0, and [4, 6 * 5^k] runs to twice that.
    top = _stage(5 ** (k - 1))[2][1] if k else _CORE[1]
    hi = 2 * top
    intervals = stage_intervals(top)
    reach = 4  # least point of [4, hi] not yet known to be covered
    for lo, up in _pair_sums(intervals, 4, hi):
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
    Every point of an interval sum is reached, so each n in J_k has exactly
    one representation, through c_k, iff the only pair of intervals whose sum
    meets J_k is ({c_k}, B_k) and that sum equals J_k. ``_pair_sums`` builds
    only the sums that meet J_k, one on the true set, after two bisections
    per interval, O(k log k) steps in all. Any other sum meeting J_k, an
    identical copy included, raises VerificationError naming the least n it
    reaches in J_k; so does c_k + B_k differing from J_k. As in
    ``sumset_cover_check``, a stage far past the memory budget is refused
    from k alone, before 5^(k-1) is formed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _count_intervals(2 * k)  # the limit 10 * 5^(k-1) - 3 has at least 2k bits
    c, block, _, (j_lo, j_hi) = _stage(5 ** (k - 1))
    intervals = stage_intervals(j_hi - 2)
    meeting = _pair_sums(intervals, j_lo, j_hi)
    through_anchor = (c + block[0], c + block[1])
    if through_anchor in meeting and (c, c) in intervals and block in intervals:
        meeting.remove(through_anchor)  # the pair ({c_k}, B_k) itself
    if meeting:
        raise VerificationError(
            f"stage {k}: n = {max(meeting[0][0], j_lo)} has a representation avoiding c_k + B_k"
        )
    if through_anchor != (j_lo, j_hi):
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
        anchor_color=lambda k: 1 + (_mix(_stage(5 ** (k - 1))[0], seed) & 1),
        default_color=lambda x: 1 + (_mix(x, seed) & 1),
    )


def rule_from_name(spec: str) -> PartitionRule:
    """Parse 'all-c-to-1', 'all-c-to-2', 'alternating' or 'random:SEED'."""
    if spec in ("all-c-to-1", "all-c-to-2"):
        return constant_rule(int(spec[-1]))
    if spec == "alternating":
        return alternating_rule()
    if spec.startswith("random:"):
        try:
            return seeded_rule(int(spec.split(":", 1)[1]))
        except ValueError:
            pass  # a seed that is not an integer
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
    the other elements get; the gap is J_k, of length 5^(k-1). Only elements
    up to 10 * 5^(k-1) = max(J_k) + 1 can take part in a representation of
    a point of J_k (the partner would otherwise be below the minimum of A);
    the report records that truncation bound.
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
        gap_length=rigid.checked,
        truncation=rigid.interval[1] + 1,
    )
