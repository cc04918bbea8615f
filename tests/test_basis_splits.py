"""Stage membership, coverage, rigidity and gap witnesses for the basis."""

import random
import time

import pytest

from erdos_trio import (
    ResourceLimitError,
    VerificationError,
    alternating_rule,
    classify,
    constant_rule,
    enumerate_A,
    gap_witness,
    interval_sum_table,
    representations,
    rigidity_check,
    rigidity_interval,
    rule_from_name,
    seeded_rule,
    stage_anchor,
    stage_block,
    stage_filler,
    sumset_cover_check,
)
from erdos_trio import basis_splits
from erdos_trio.basis_splits import _sumset, stage_intervals

from oracles import (
    basis_intervals,
    color_class_misses_window,
    first_missing,
    interval_mask,
    representations_bruteforce,
    sumset_mask,
    window_representations,
)


def test_classify_examples():
    assert classify(4).kind == "c" and classify(4).stage == 1
    assert classify(9).kind == "F" and classify(9).stage == 1
    assert classify(6).kind == "none"
    assert classify(2).kind == "core" and classify(3).kind == "core"
    assert classify(0).kind == "none" and classify(1).kind == "none"
    assert classify(20) == classify(20)  # frozen dataclass equality
    assert classify(25).kind == "B" and classify(25).stage == 2


def test_classify_stage_boundaries():
    for k in range(1, 12):
        q = 5 ** (k - 1)
        assert classify(4 * q).kind == "c"
        assert classify(4 * q + 1).kind == ("B" if k == 1 else "none")
        assert classify(5 * q - 1).kind in ("c", "none")
        assert classify(5 * q).kind == "B"
        assert classify(6 * q - 1).kind == "B"
        assert classify(6 * q).kind == "none"
        assert classify(10 * q - 2).kind == "none"
        assert classify(10 * q - 1).kind == "F"
        assert classify(15 * q).kind == "F"
        assert classify(15 * q + 1).kind == "none"
        assert classify(20 * q - 1).kind == "none"
        assert classify(20 * q).kind == "c" and classify(20 * q).stage == k + 1


def test_classify_huge_values():
    k = 200
    q = 5 ** (k - 1)
    assert classify(4 * q).stage == k
    assert classify(14 * q).kind == "F"
    assert classify(7 * q).kind == "none"


def test_enumerate_examples():
    assert enumerate_A(5) == [2, 3, 4, 5]
    assert enumerate_A(25) == [2, 3, 4, 5, 9, 10, 11, 12, 13, 14, 15, 20, 25]
    assert enumerate_A(0) == []
    assert enumerate_A(1) == []


def test_enumerate_matches_classify():
    limit = 20000
    members = set(enumerate_A(limit))
    for x in range(limit + 1):
        assert (x in members) == bool(classify(x)), x


def test_classify_agrees_with_enumeration_to_1e7():
    """The stage intervals equal A from its definition up to 1e7, and classify
    agrees with them at every interval edge and at random points."""
    limit = 10**7
    intervals = stage_intervals(limit)
    assert intervals == basis_intervals(limit)
    edges = [x for lo, hi in intervals for x in (lo - 1, lo, hi, hi + 1) if x <= limit]
    rng = random.Random(17)
    for x in edges + rng.sample(range(limit + 1), 2000):
        member = any(lo <= x <= hi for lo, hi in intervals)
        assert bool(classify(x)) == member, x


def test_representations_examples():
    assert representations(9).pairs == ((4, 5),)
    assert representations(45).pairs == ((20, 25),)
    assert representations(4).pairs == ((2, 2),)
    with pytest.raises(ValueError):
        representations(3)


def test_representations_bruteforce_oracle():
    limit = 3 * 10**5
    members = {x for lo, hi in basis_intervals(limit) for x in range(lo, hi + 1)}
    rng = random.Random(5)
    for n in [*range(4, 3001), *(rng.randrange(3001, limit) for _ in range(30))]:
        assert list(representations(n).pairs) == representations_bruteforce(n, members), n


def test_representations_memory_budget(monkeypatch):
    n = 251500
    need = 32878 * basis_splits._PAIR_BYTES
    monkeypatch.setattr(basis_splits, "DEFAULT_MEMORY_BUDGET", need)
    assert len(representations(n).pairs) == 32878
    monkeypatch.setattr(basis_splits, "DEFAULT_MEMORY_BUDGET", need - 1)
    with pytest.raises(ResourceLimitError):
        representations(n)
    monkeypatch.undo()
    # ~4e11 pairs: refused from the interval count, before any pair is built
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        representations(10**13)
    assert time.perf_counter() - start < 1.0


def test_interval_sum_table_ranges():
    """The eight stage sums land exactly on the ranges that chain to [4Q, 30Q]."""
    for k in range(1, 9):
        q = 5 ** (k - 1)
        table = {row["label"]: row["sum"] for row in interval_sum_table(k)}
        assert table["I+I"] == (4 * q, 6 * q)
        assert table["I+c"] == (6 * q, 7 * q)
        assert table["I+B"] == (7 * q, 9 * q - 1)
        assert table["c+B"] == (9 * q, 10 * q - 1)
        assert table["B+B"] == (10 * q, 12 * q - 2)
        assert table["I+F"] == (12 * q - 1, 18 * q)
        assert table["B+F"] == (15 * q - 1, 21 * q - 1)
        assert table["F+F"] == (20 * q - 2, 30 * q)
        # consecutive overlap: union is one interval [4q, 30q]
        spans = sorted(table.values())
        reach = spans[0][1]
        for lo, hi in spans[1:]:
            assert lo <= reach + 1
            reach = max(reach, hi)
        assert spans[0][0] == 4 * q and reach == 30 * q
        # I = [2Q, 3Q] really lies inside A_k (core for k=1, else filler k-1)
        for x in (2 * q, 2 * q + 1, 3 * q):
            cls = classify(x)
            if k == 1:
                assert cls.kind == "core" or x == 2 * q + 1 and q == 1
            else:
                assert cls.kind == "F" and cls.stage == k - 1


def test_cover_examples_and_method_agreement():
    """The interval engine agrees with the element-level shift-or oracle."""
    r0 = sumset_cover_check(0)
    assert (r0.lo, r0.hi, r0.covered) == (4, 6, True)
    r1 = sumset_cover_check(1)
    assert (r1.lo, r1.hi, r1.covered, r1.method) == (4, 30, True, "intervals")
    for k in range(0, 9):
        rep = sumset_cover_check(k)
        assert rep.covered and rep.first_gap is None
        oracle = sumset_mask(basis_intervals(3 * 5**k))
        assert first_missing(oracle, 4, rep.hi) is None
        intervals = stage_intervals(3 * 5**k)
        assert interval_mask(_sumset(intervals, intervals)) == oracle


def test_cover_detects_gaps_on_broken_set(monkeypatch):
    """Drop B_2 from the stage intervals: 45..49 loses its only representations."""
    limit = 15 * 5  # A_2 region
    intervals = [iv for iv in stage_intervals(limit) if iv != stage_block(2)]
    sums = _sumset(intervals, intervals)
    missing = {x for x in range(4, 6 * 25 + 1) if not any(lo <= x <= hi for lo, hi in sums)}
    assert set(range(45, 50)) <= missing  # J_2 has no representation without B_2
    assert interval_mask(sums) == sumset_mask(intervals)
    # the check itself reports the first gap and raises
    monkeypatch.setattr(
        basis_splits,
        "stage_intervals",
        lambda lim: [iv for iv in stage_intervals(lim) if iv != stage_block(2)],
    )
    with pytest.raises(VerificationError, match=f"{min(missing)} not in A_2"):
        sumset_cover_check(2)


def test_rigidity_examples():
    r1 = rigidity_check(1)
    assert r1.interval == (9, 9) and r1.checked == 1 and r1.anchor == 4
    r2 = rigidity_check(2)
    assert r2.interval == (45, 49) and r2.checked == 5 and r2.anchor == 20
    # cross-check against the literal scan for the small stages
    for k in (1, 2, 3):
        lo, hi = rigidity_interval(k)
        c = stage_anchor(k)
        b_lo, b_hi = stage_block(k)
        for n in range(lo, hi + 1):
            pairs = representations(n).pairs
            assert pairs == ((c, n - c),)
            assert b_lo <= n - c <= b_hi


def _rigid_by_oracle(k, intervals):
    lo, hi = rigidity_interval(k)
    elements = [x for a, b in intervals for x in range(a, b + 1)]
    counts, smaller = window_representations(elements, lo, hi)
    return bool((counts == 1).all()) and smaller == [stage_anchor(k)]


def test_rigidity_detects_extra_summand(monkeypatch):
    """Add one non-member x <= max(J_k) - 2 to A: the interval engine raises
    exactly when the element-level count finds a second representation."""
    for k in (2, 3, 4):
        lo, hi = rigidity_interval(k)
        assert _rigid_by_oracle(k, stage_intervals(hi - 2))
        breaking = 0
        for x in (x for x in range(2, hi - 1) if not classify(x)):
            def patched(limit, x=x):
                return sorted(stage_intervals(limit) + ([(x, x)] if x <= limit else []))

            rigid = _rigid_by_oracle(k, patched(hi - 2))
            monkeypatch.setattr(basis_splits, "stage_intervals", patched)
            if rigid:
                rigidity_check(k)
            else:
                breaking += 1
                with pytest.raises(VerificationError):
                    rigidity_check(k)
            monkeypatch.undo()
        assert breaking > 0


def test_stage_40_checks_are_fast():
    for check in (
        lambda: sumset_cover_check(40),
        lambda: rigidity_check(40),
        lambda: gap_witness(seeded_rule(40), 40),
    ):
        t0 = time.perf_counter()
        check()
        assert time.perf_counter() - t0 < 1.0


def test_gap_witness_examples():
    rep = gap_witness(constant_rule(1), 3)
    assert rep.interval == (225, 249)
    assert rep.gap_length == 25
    assert rep.gapped_color == 2
    rep = gap_witness(alternating_rule(), 4)
    assert rep.anchor_color == 1 and rep.gapped_color == 2
    for rule in (constant_rule(2), seeded_rule(5), alternating_rule()):
        rep = gap_witness(rule, 1)
        assert rep.interval == (9, 9)


def test_gap_witness_positive_control():
    """The color class holding c_k does reach J_k (constant rule, both colors)."""
    for color in (1, 2):
        rule = constant_rule(color)
        k = 3
        lo, hi = rigidity_interval(k)
        members = [x for x in enumerate_A(hi) if rule.color_of(x) == color]
        sums = {a + b for a in members for b in members if a <= b and a + b <= hi}
        assert set(range(lo, hi + 1)) <= sums


def test_gap_witness_battery_small():
    rng = random.Random(42)
    rules = [constant_rule(1), constant_rule(2), alternating_rule()] + [
        seeded_rule(rng.randrange(1 << 30)) for _ in range(10)
    ]
    for rule in rules:
        for k in range(1, 6):
            rep = gap_witness(rule, k)
            assert rep.gap_length == 5 ** (k - 1)
            assert rep.gapped_color != rule.anchor_color(k)
            assert color_class_misses_window(rule.color_of, k, rep.gapped_color)


def test_rule_parsing():
    assert rule_from_name("all-c-to-1").name == "all-c-to-1"
    assert rule_from_name("alternating").name == "alternating"
    assert rule_from_name("random:7").name == "random:7"
    with pytest.raises(ValueError):
        rule_from_name("nope")


def test_input_validation():
    with pytest.raises(ValueError):
        sumset_cover_check(-1)
    with pytest.raises(ValueError):
        rigidity_check(0)
    with pytest.raises(ValueError):
        gap_witness(constant_rule(1), 0)
