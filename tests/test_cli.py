"""Exit codes, output formats and byte-determinism of the command line."""

import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdos_trio import ResourceLimitError, binomial_thresholds, cli, equidistribution, errors
from erdos_trio.cli import EXIT_HORIZON, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main

from budget import assert_counted, peak_bytes
from oracles import one_prime_later


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_binomial_f(capsys):
    code, out = run_cli(capsys, "binomial", "f", "--n", "10")
    assert code == EXIT_OK
    assert "7" in out and "verdict: verified" in out


def test_binomial_f_rejects_zero(capsys):
    assert run_cli(capsys, "binomial", "f", "--n", "0")[0] == EXIT_USAGE


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(capsys, "binomial", "f", "--wat", "1")[0] == EXIT_USAGE


def test_binomial_witness(capsys):
    code, out = run_cli(capsys, "--format", "json", "binomial", "witness", "--K", "5")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verdict"] == "verified"
    assert doc["rows"][0]["M_K"] == 1800
    assert doc["rows"][0]["factorization"] == "2^3*3^2*5^2"
    assert doc["meta"]["params"]["K"] == 5


def test_binomial_certificate(capsys):
    code, out = run_cli(
        capsys, "--format", "json", "binomial", "certificate", "--n", "100000", "--C", "6.21"
    )
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert row["certified"] is True
    assert row["f"] <= row["Y"]


def test_binomial_f_scan_threads_deterministic(capsys):
    base = None
    for threads in ("1", "3"):
        code, out = run_cli(
            capsys,
            "--format", "csv", "--threads", threads,
            "binomial", "f-scan", "--from", "2", "--to", "60",
        )
        assert code == EXIT_OK
        base = base or out
        assert out == base
    assert base.splitlines()[0] == "n,f,decided_exactly"


def test_basis_cover(capsys):
    code, out = run_cli(capsys, "--format", "json", "basis", "cover", "--k", "1")
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert (row["lo"], row["hi"], row["covered"]) == (4, 30, True)


def test_basis_reps(capsys):
    code, out = run_cli(capsys, "--format", "json", "basis", "reps", "--n", "9")
    rows = json.loads(out)["rows"]
    assert code == EXIT_OK
    assert rows == [{"n": 9, "a": 4, "b": 5}]


def test_basis_gaps(capsys):
    code, out = run_cli(
        capsys, "--format", "json", "basis", "gaps", "--rule", "all-c-to-1", "--k", "3"
    )
    row = json.loads(out)["rows"][0]
    assert code == EXIT_OK
    assert (row["j_lo"], row["j_hi"], row["gapped_color"]) == (225, 249, 2)


def test_basis_gaps_seeded_rule(capsys):
    """A seeded coloring has one spelling, random:SEED; bare random is refused."""
    code, out = run_cli(capsys, "--format", "json", "basis", "gaps", "--rule", "random:11", "--k", "4")
    assert code == EXIT_OK
    assert json.loads(out)["rows"][0]["rule"] == "random:11"
    assert main(["basis", "gaps", "--rule", "random", "--k", "4"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: unknown partition rule 'random'\n"


def test_equidist_approx(capsys):
    code, out = run_cli(
        capsys, "--format", "json",
        "equidist", "approx", "--alpha", "3.14159265358979", "--Q", "10",
    )
    row = json.loads(out)["rows"][0]
    assert code == EXIT_OK
    assert (row["a"], row["q"]) == (22, 7)


def test_equidist_string(capsys):
    code, out = run_cli(
        capsys, "--format", "csv",
        "equidist", "string", "--q", "4", "--a", "1", "--m", "2", "--limit", "100",
    )
    assert code == EXIT_OK
    assert "13 17" in out


def test_equidist_string_horizon(capsys):
    code, out = run_cli(
        capsys, "--format", "json",
        "equidist", "string", "--q", "4", "--a", "1", "--m", "40", "--limit", "100",
    )
    assert code == EXIT_HORIZON
    assert json.loads(out)["verdict"] == "horizon-exhausted"


def test_equidist_scan(capsys):
    code, out = run_cli(
        capsys, "--format", "json",
        "equidist", "scan", "--alpha", "golden", "--k", "10", "--limit", "100",
    )
    row = json.loads(out)["rows"][0]
    assert code == EXIT_OK
    assert 0 < row["max_discrepancy"] <= 1
    assert row["windows"] == 101


def test_equidist_cluster(capsys):
    code, out = run_cli(
        capsys, "--format", "json",
        "equidist", "cluster", "--alpha", "1.4142135623730951",
        "--delta", "0.2", "--m", "2", "--limit", "1000000",
    )
    row = json.loads(out)["rows"][0]
    assert code == EXIT_OK
    assert row["found"] is True
    assert row["window_discrepancy_float"] >= 0.8


def test_equidist_cluster_bad_delta(capsys):
    code, _ = run_cli(
        capsys,
        "equidist", "cluster", "--alpha", "0.5", "--delta", "0.9", "--m", "2",
        "--limit", "1000",
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        # a search's carry of 1e9 primes is refused up front by the memory budget
        ("equidist", "string", "--q", "4", "--a", "1", "--m", "1000000000", "--limit", "1000000000000"),
        # an alpha beyond float range cannot fill the alpha_float column
        ("equidist", "approx", "--alpha", "1e400", "--Q", "10"),
        # ~3.7e7 representation pairs are refused up front by the memory budget
        ("basis", "reps", "--n", "1000000000"),
        # a zero denominator, and an unwritable --output path
        ("equidist", "approx", "--alpha", "1/0", "--Q", "10"),
        ("--output", ".", "binomial", "f", "--n", "10"),
        # each rung of the ladder counts a carry of ~1e9 primes
        ("equidist", "cluster", "--alpha", "sqrt:2", "--delta", "0.2", "--m", "1000000000",
         "--limit", "1000000000000"),
        # ~4.5e6 interval sums of ~2,300 bits are refused by the memory budget
        ("basis", "cover", "--k", "1000"),
        # stage 40,000's J_k has ~27,960 digits, past Python's 4,300-digit
        # int-to-str limit: refused before its ~120,000 intervals are built
        ("basis", "rigidity", "--k", "40000"),
        # M_K for K = 1e10 needs its primes as Python ints, ~27 GB
        ("binomial", "witness", "--K", "10000000000"),
        # M_K's digit count reads the primes to 1e9 as Python ints, ~3.0 GB,
        # counted before any of them is sieved
        ("binomial", "witness", "--K", "1000000000"),
        # stage 1e5 intervals would hold ~21 GB of endpoints before any sum;
        # its rows' ~69,900-digit integers are refused before that
        ("basis", "cover", "--k", "100000"),
        ("basis", "rigidity", "--k", "100000"),
        ("basis", "gaps", "--rule", "alternating", "--k", "100000"),
        # a 1,001-digit n has ~1e999 representations
        ("basis", "reps", "--n", "1" + "0" * 1000),
        # ~1.5e8 scanned primes at ~28 bytes each, past the sieve's 8
        ("equidist", "scan", "--alpha", "golden", "--k", "10", "--limit", "150000000",
         "--stride", "1000"),
        # M_K has 867,752 digits, past Python's 4,300-digit int-to-str
        # limit: refused before M_K is built
        ("binomial", "witness", "--K", "1000000"),
        # err and 1/(qQ) have ~8,000-digit denominators, past Python's
        # 4,300-digit int-to-str limit, so no format can print them
        ("equidist", "approx", "--alpha", "1234567/" + "7" * 4000, "--Q", "3" * 4000),
        # synthesizing alpha is bounded at 8192 bits
        ("--precision", "100000", "equidist", "approx", "--alpha", "sqrt:2", "--Q", "10"),
        # 1e12 f-scan rows at ~800 bytes each are refused before the first f(n)
        ("binomial", "f-scan", "--from", "1", "--to", "1000000000000"),
        # past float range pi(K) <= K counts M_K's primes, and refuses them
        ("binomial", "witness", "--K", "9" * 400),
        # an alpha beyond float range cannot fill the alpha_float column of a
        # scan or a cluster row either
        ("equidist", "scan", "--alpha", "1e400", "--k", "5", "--limit", "10"),
        ("equidist", "cluster", "--alpha", "1e400", "--delta", "0.2", "--m", "3", "--limit", "1000"),
        # the representations of a 4,300-digit n need a 4,301-digit number
        # of bytes, stated by its digit count
        ("basis", "reps", "--n", "1" + "0" * 4299),
        # alpha's denominator, 10^4300, has 4,301 digits: refused as the row
        # renders, naming the alpha column
        ("equidist", "cluster", "--alpha", "1e-4300", "--delta", "0.2", "--m", "3", "--limit", "1000"),
        # an --alpha of none of the accepted forms is refused naming the flag
        ("equidist", "approx", "--alpha", "abc", "--Q", "3"),
        ("equidist", "approx", "--alpha", "sqrt:x", "--Q", "3"),
    ],
)
def test_unservable_request_is_one_line_usage_error(capsys, argv):
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv",
    [["basis", "rigidity", "--k", "1000"], ["basis", "gaps", "--rule", "alternating", "--k", "1000"]],
)
def test_late_stage_rigidity_is_served(capsys, argv):
    """Rigidity builds only the interval sums that meet J_k, one on the true
    set, so stage 1000 is served: J_1000 holds 5^999 points."""
    start = time.perf_counter()
    code, out = run_cli(capsys, "--format", "json", *argv)
    assert code == EXIT_OK and time.perf_counter() - start < 1.0
    row = json.loads(out)["rows"][0]
    assert row.get("checked", row.get("gap_length")) == 5**999
    assert (row["j_lo"], row["j_hi"]) == (9 * 5**999, 10 * 5**999 - 1)


@pytest.mark.parametrize(
    "limit", ["4000000000", "1000000000000", "100000000000000000000", pytest.param("9" * 400, id="400-nines")]
)
def test_prime_string_search_past_the_sieve_budget_is_served(capsys, limit):
    """A search holds one segment and its carry, not a table, and each
    segment reads only the base primes up to its own square root, so a
    limit whose sieve the budget refuses is served, past float range too;
    its first run is (13, 17)."""
    start = time.perf_counter()
    code, out = run_cli(capsys, "--format", "json", "equidist", "string", "--q", "4", "--a", "1",
                        "--m", "2", "--limit", limit)
    assert code == EXIT_OK and time.perf_counter() - start < 1.0
    assert json.loads(out)["rows"][0]["primes"] == "13 17"


def test_cluster_past_the_sieve_budget_is_served(capsys):
    """Each rung reads the primes segment by segment from 2, so a limit of
    1e20, whose base primes to 1e10 would take ~9 GB, is served."""
    start = time.perf_counter()
    code, out = run_cli(capsys, "--format", "json", "equidist", "cluster", "--alpha", "sqrt:2",
                        "--delta", "0.2", "--m", "3", "--limit", "100000000000000000000")
    assert code == EXIT_OK and time.perf_counter() - start < 1.0
    assert json.loads(out)["rows"][0]["primes"] == "4397 4409 4421"


def test_prime_string_modulus_past_int64(capsys):
    """A modulus past int64 leaves every prime below the limit its own
    residue: m = 1 finds the prime a, and m = 2 exhausts the horizon."""
    tail = ["--a", "3", "--m", "1", "--limit", "1000"]
    code, out = run_cli(capsys, "--format", "csv", "equidist", "string", "--q", str(10**20), *tail)
    assert code == EXIT_OK and out.splitlines()[1].endswith(",3,0")
    code, out = run_cli(capsys, "equidist", "string", "--q", str(10**20), "--a", "1", "--m", "2",
                        "--limit", "1000")
    assert code == EXIT_HORIZON and "verdict: horizon-exhausted" in out


def test_witness_refused_past_the_int_to_str_limit(capsys, monkeypatch):
    """M_4998 has 4,297 digits and prints; M_4999 has 4,304 and is refused
    before it is built, as M_1000000 is; with no limit (0) it prints."""
    code, out = run_cli(capsys, "--format", "csv", "binomial", "witness", "--K", "4998")
    assert code == EXIT_OK and len(out.splitlines()[1].split(",")[1]) == 4297
    start = time.perf_counter()
    for K in ("4999", "1000000"):
        assert main(["binomial", "witness", "--K", K]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error: M_4999 has 4304 digits, past the 4300-digit int-to-str limit",
        "error: M_1000000 has 867752 digits, past the 4300-digit int-to-str limit",
    ]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        code, out = run_cli(capsys, "--format", "csv", "binomial", "witness", "--K", "4999")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == EXIT_OK and len(out.splitlines()[1].split(",")[1]) == 4304


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_approx_refused_past_the_int_to_str_limit(capsys, fmt):
    """``equidist approx`` refuses, as the row renders, a row whose err or
    bound_1_over_qQ has a denominator past the int-to-str limit, naming its
    column. For golden at 8,192 bits, Q one below the first convergent
    denominator whose err's denominator has 4,301 digits keeps the last
    convergent, whose err's has 4,299, and prints; that Q is refused. For
    1/7, qQ = 7Q has 4,300 digits up to Q = ceil(10^4300 / 7) - 1 and 4,301
    from there."""
    alpha = equidistribution.parse_alpha("golden", 8192)
    q = next(
        q
        for h, q in equidistribution._convergents(alpha)
        # err's denominator divides alpha's times q: test the cheap bound first
        if alpha.denominator * q >= 10**4300 and abs(alpha - Fraction(h, q)).denominator >= 10**4300
    )
    seventh = -(-(10**4300) // 7)
    for tail, served, refused in (
        (["--precision", "8192", "equidist", "approx", "--alpha", "golden"], q - 1, q),
        (["equidist", "approx", "--alpha", "1/7"], seventh - 1, seventh),
    ):
        code, out = run_cli(capsys, "--format", fmt, *tail, "--Q", str(served))
        assert code == EXIT_OK and out
        assert main(["--format", fmt, *tail, "--Q", str(refused)]) == EXIT_USAGE
        captured = capsys.readouterr()
        subject = "err's denominator" if tail[-1] == "golden" else "bound_1_over_qQ's denominator"
        assert captured.out == "" and captured.err == (
            f"error: {subject} has 4301 digits, past the 4300-digit int-to-str limit\n"
        )


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_scan_refused_past_the_int_to_str_limit(capsys, fmt):
    """``equidist scan`` refuses, as the row renders, a row whose exact
    discrepancy has a denominator past the int-to-str limit. alpha =
    0.1...17 has the 4,300-digit denominator 10^4299; over its first 10
    primes the k = 7 window's discrepancy has a 4,300-digit denominator and
    prints, and the k = 11 window's, 11 * 10^4299, is refused."""
    alpha = "0." + "1" * 4298 + "7"
    exact = equidistribution.well_distribution_statistic(alpha, 7, 10).max_discrepancy_exact
    assert len(str(exact.denominator)) == 4300
    tail = ["equidist", "scan", "--alpha", alpha, "--limit", "10"]
    code, out = run_cli(capsys, "--format", fmt, *tail, "--k", "7")
    assert code == EXIT_OK and f"/{exact.denominator}" in out
    assert main(["--format", fmt, *tail, "--k", "11"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: max_discrepancy_exact's denominator has 4301 digits, past the 4300-digit int-to-str limit\n"
    )


@pytest.mark.parametrize("cmd", [["rigidity"], ["gaps", "--rule", "all-c-to-1"]])
def test_stage_refused_past_the_int_to_str_limit(capsys, cmd):
    """Stage 6,151's row prints 10 * 5^6150, of 4,300 digits; stage 6,152's
    would print 4,301 and is refused before the stage is built, as stage
    31,441's is. With no limit (0), stage 31,442 is refused by the memory
    budget, before any interval is built."""
    code, out = run_cli(capsys, "--format", "csv", "basis", *cmd, "--k", "6151")
    assert code == EXIT_OK and max(map(len, out.splitlines()[1].split(","))) == 4300
    start = time.perf_counter()
    for k in ("6152", "31441"):
        assert main(["basis", *cmd, "--k", k]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: stage 6152's 10 * 5^6151 has 4301 digits, past the 4300-digit int-to-str limit",
        "error: stage 31441's 10 * 5^31440 has 21977 digits, past the 4300-digit int-to-str limit",
    ]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        start = time.perf_counter()
        assert main(["basis", *cmd, "--k", "31442"]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
    finally:
        sys.set_int_max_str_digits(limit)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the interval list of A") and "budget" in err[0]


def test_cover_refused_past_the_int_to_str_limit(capsys):
    """Cover prints hi = 6 * 5^k, of 4,300 digits at stage 6,150, which the
    memory budget refuses for its interval sums; stage 6,151's hi would
    have 4,301 digits and is refused for printing before any power of 5
    is formed."""
    start = time.perf_counter()
    for k in ("6150", "6151"):
        assert main(["basis", "cover", "--k", k]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: 170228926 interval sums of 18451 intervals") and "budget" in err[0]
    assert err[1:] == ["error: stage 6151's 6 * 5^6151 has 4301 digits, past the 4300-digit int-to-str limit"]


@pytest.mark.parametrize("cmd", [["cover"], ["rigidity"], ["gaps", "--rule", "all-c-to-1"]])
@pytest.mark.parametrize("k", ["10000000", "1" + "0" * 400])
def test_huge_stage_refused_at_once(capsys, cmd, k):
    """A stage whose row is far too long to print is refused from k alone:
    its digit count is never formed from a float of a k past float range,
    and no power of 5 is built first."""
    start = time.perf_counter()
    assert main(["basis", *cmd, "--k", k]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: stage {k}'s ")
    assert captured.err.endswith(" digits, past the 4300-digit int-to-str limit\n")


def _served(argv):
    """``main(argv)`` as a call for ``assert_counted``: ``main`` reports a
    refused request as a usage error, which this raises as the refusal."""

    def call():
        code = main(argv)
        if code == EXIT_USAGE:
            raise ResourceLimitError(f"refused: {argv}")
        assert code == EXIT_OK

    return call


def test_basis_reps_counts_rendered_rows(capsys):
    """``basis reps`` counts its rendered rows, at the size per pair of its
    costliest format for every format, before it builds them; the count
    covers the command's tracemalloc peak."""
    need = 32878 * cli._REP_ROW_BYTES  # 32,878 representations of 251,500
    for fmt in ("json", "csv", "table"):
        assert_counted(need, _served(["--format", fmt, "basis", "reps", "--n", "251500"]))
    err = capsys.readouterr().err
    assert err.count("error: rendering 32878 representations needs ~") == 3


def test_basis_reps_refused_before_any_row(capsys, monkeypatch):
    """The rows are counted from the ranges' total, so a request past the
    budget is refused before any row exists."""
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", 100 * 1024**2)
    argv = ["basis", "reps", "--n", "100000000"]
    start = time.perf_counter()
    assert main(argv) == EXIT_USAGE
    assert time.perf_counter() - start < 0.05
    codes = []
    assert peak_bytes(lambda: codes.append(main(argv))) < 1024**2
    assert codes == [EXIT_USAGE]
    err = capsys.readouterr().err
    assert err.count("error: rendering 2148464 representations needs ~") == 2


def test_f_scan_counts_its_rows(capsys):
    """``binomial f-scan`` counts its rows, at the size per row of its
    costliest format for every format, before it computes any f(n); the
    count covers the command's tracemalloc peak."""
    argv = ["--format", "json", "binomial", "f-scan", "--from", "1000", "--to", "4999", "--stride", "2"]
    need = 2000 * cli._F_ROW_BYTES
    assert main(argv) == EXIT_OK  # fills the prime caches, which count their own fill
    for fmt in ("json", "csv", "table"):
        argv[1] = fmt
        assert_counted(need, _served(argv))
    err = capsys.readouterr().err
    assert err.count("error: an f-scan of 2000 rows needs ~") == 3


def test_scan_exact_check_failure_exits_2(capsys, monkeypatch):
    """A scanned window whose exact discrepancy is not within the error
    bound E of its score is a verification failure."""
    real = equidistribution._window_discrepancy
    monkeypatch.setattr(
        equidistribution, "_window_discrepancy", lambda al, ps: real(al, one_prime_later(ps))
    )
    code = main(["equidist", "scan", "--alpha", "golden", "--k", "20", "--limit", "200"])
    captured = capsys.readouterr()
    assert code == EXIT_VERIFICATION
    assert captured.out == ""
    assert captured.err.startswith("verification failure: window at 122: scan scored ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "seam, fault, message",
    [
        # a loose string: the search ignores its diameter bound
        ("find_prime_string",
         lambda real: lambda q, a, m, limit, table=None, *, max_diameter=None: real(q, a, m, limit, table),
         "cluster arc bound violated: "),
        # a short window score: the closed form's 1/k term is dropped
        ("_exact_discrepancy", lambda real: lambda rs, den: real(rs, den) - Fraction(1, len(rs)),
         "window discrepancy "),
    ],
    ids=["loose-string", "short-window-score"],
)
def test_cluster_check_failure_exits_2(capsys, monkeypatch, seam, fault, message):
    monkeypatch.setattr(equidistribution, seam, fault(getattr(equidistribution, seam)))
    code = main(["equidist", "cluster", "--alpha", "sqrt:2", "--delta", "0.2", "--m", "3",
                 "--limit", "100000"])
    captured = capsys.readouterr()
    assert code == EXIT_VERIFICATION
    assert captured.out == ""
    assert captured.err.startswith(f"verification failure: {message}")
    assert captured.err.count("\n") == 1


def test_precision_is_bounded_at_8192_bits(capsys):
    tail = ["--format", "json", "equidist", "approx", "--alpha", "sqrt:2", "--Q", "100"]
    code, out = run_cli(capsys, "--precision", "8192", *tail)
    assert code == EXIT_OK
    assert json.loads(out)["rows"][0]["q"] == 70
    assert main(["--precision", "8193", *tail]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: precision must be between 1 and 8192 bits\n"


def test_parser_reuse_keeps_no_state(capsys):
    """The parser is built once per process; a flag given to one run must not
    become the default of the next."""
    tail = ["equidist", "scan", "--alpha", "golden", "--k", "10", "--limit", "100"]
    code, out = run_cli(
        capsys, "--precision", "64", "--format", "json", *tail, "--stride", "7"
    )
    assert code == EXIT_OK
    assert json.loads(out)["meta"]["params"]["stride"] == 7
    code, out = run_cli(capsys, "--format", "json", *tail)
    assert code == EXIT_OK
    assert json.loads(out)["meta"]["params"] == {
        "alpha": "golden", "k": 10, "limit": 100, "precision": 256, "stride": 1,
    }
    assert run_cli(capsys, *tail)[1].endswith("verdict: verified\n")  # table again


def test_certificate_confirmation_failure_exits_2(capsys, monkeypatch):
    """A scan that contradicts a certified bound is a verification failure."""
    real = binomial_thresholds.f_threshold
    monkeypatch.setattr(
        binomial_thresholds, "f_threshold",
        lambda n: dataclasses.replace(real(n), f=n),  # f(n) = n > Y
    )
    code = main(["binomial", "certificate", "--n", "100000", "--C", "6.21"])
    captured = capsys.readouterr()
    assert code == EXIT_VERIFICATION
    assert captured.out == ""
    assert captured.err.startswith("verification failure: certificate says f(100000) <= ")
    assert captured.err.count("\n") == 1


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out = run_cli(
        capsys, "--format", "json", "--output", str(path),
        "binomial", "f", "--n", "10",
    )
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(path.read_text())["rows"][0]["f"] == 7


def test_reruns_byte_identical(capsys):
    outputs = set()
    for _ in range(2):
        for fmt in ("table", "csv", "json"):
            _, out = run_cli(
                capsys, "--format", fmt, "basis", "gaps", "--rule", "random:3", "--k", "5"
            )
            outputs.add((fmt, out))
    assert len(outputs) == 3  # one distinct output per format


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "erdos_trio.cli", "binomial", "f", "--n", "10"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "7" in proc.stdout
    assert "elapsed" in proc.stderr  # timing goes to stderr only


# SHA-256 of stdout at small inputs, per argv and format, with the exit code.
# Stdout is part of the contract: a change that alters it on purpose updates
# the hash here and says why in CHANGES.md.
GOLDEN = {
    "binomial f --n 10": (0, {
        "table": "189233ce6a5d409bef5442d4f2e775ac53e51f97f2f817977be04f7f9d580596",
        "csv": "c7ecf07c8196c33dca749fbd6b5057beef04b30f0b8a367ed5af132e7f6f0a19",
        "json": "0bdf600d06ebead646099d50936500dd82035389df5824f2fbb0df27bef81eee",
    }),
    "binomial f-scan --from 2 --to 60 --stride 3": (0, {
        "table": "e3f7684e3aa64304d5760b58c0b80d0239db00789e00ad5542d4518917f558c7",
        "csv": "3965177abcdc9f65edbdd025042627e4a12aaf8950dbea4ffbf80b5abd98edeb",
        "json": "392936b23ac1ecea5a2bb5e482e7c396f0efd1f668770124be0fccae7482d71d",
    }),
    "binomial certificate --n 100000 --C 6.21": (0, {
        "table": "616a75eabafdcc090a4875306be6b4b5770cbe314b7259237033eccaee7c9b8d",
        "csv": "a747f46d4e240d3ff62f6edda94e97ec34d12065fc5be3bcdb1fa7be7919c421",
        "json": "48823d7b0690376f710cadcd488be46e79b3bfaf37db6d1edcf04396b5a7d959",
    }),
    "binomial witness --K 12": (0, {
        "table": "aaa1b3c5174038eac3c938496789062ead1e4d8199bb4501ebd0afccbf50d0d1",
        "csv": "faddf8eb117dec353478feb7e39cf6a107a01192638bacda2fd9f1eb1b9e2175",
        "json": "b28fd892fd56a9e0f5719d9aeca870016a7cfa75baa763638b6bbae3b336780e",
    }),
    "basis cover --k 3": (0, {
        "table": "f03263f2f227d2de163bf5faa98d9dcb0e4cef1f5e6657ea210a7c15fc50515d",
        "csv": "093da6571c2c64a6cb5ab594010d9873284f6a560b5e3343f1cf806bffd8fa91",
        "json": "a49a42983ca234a417fffe4a63c5cb0d6029a6f30ff3ae853b519f3b90d214aa",
    }),
    "basis rigidity --k 3": (0, {
        "table": "072a2b7a55d60129b7cfbbd252757ca9e5324ce09995485593dd3e7404d872f5",
        "csv": "44d1909d560da594f4f13d72c084bf8ecbf6d5a166144666be259c267c79f138",
        "json": "b1c53be601c6a3e2c3e65ccce022cbe1e5cdb6c0956123aa9c593efe929477d3",
    }),
    "basis gaps --rule random:11 --k 4": (0, {
        "table": "56e02b99ba582ddbd5b16ee8494e5bf221c12b3af0e8cb7d1ce729204e6d315b",
        "csv": "1b1df89d701d472d42d421451f23c220cf508b3389cae93c9b4d5853c3ead002",
        "json": "3d02b38e404674e8eb87b85bc6908b53b2a07c19c902d813a00a996d7fccae0f",
    }),
    "basis reps --n 1000": (0, {
        "table": "2d33faff5e6fb4acfcc79b6edec3d2b6a285176556fa6e55db2585c2495c3a24",
        "csv": "c0a03e832e4ca7fdd43f904fcbfffcaeb55181efc9ada6cfe681a8e1911dc23d",
        "json": "7538953d6abdba5871f0feb1b5ff5f11ab064c8acf626c519d833756bce75c78",
    }),
    "basis reps --n 30000": (0, {
        "table": "42ca44ef6f69024af8be3c76fba5232198113705aa2e82f047fba09a770d2692",
        "csv": "ce7ea4c0bdd0659d8aa741ac380e0bec480d525486873809962669dc033011ad",
        "json": "f864bbbad56c0d3da7a820f1b9d63c9e04a5afa9059350b898b75a0e6ab2e6e7",
    }),
    "equidist scan --alpha golden --k 20 --limit 200": (0, {
        "table": "5423d18f8c6c6e48c7a63a7c435229e71142bc444a3aa8ae09eaa2c897c70996",
        "csv": "73cf3849f88cb7931876b009d11a011a23fde3aaa971bcce3ba2e50e86010ca4",
        "json": "e215b798d898687bed61143bd4a13d5aa7cdf45f489ae07b55ffd08065f42516",
    }),
    "--precision 64 equidist approx --alpha sqrt:2 --Q 100": (0, {
        "table": "c43928d163bdc610435b7695b60d244c36cd7c9ca210adb480b91c44ebfcb3fe",
        "csv": "86e90c6a201a27dc424e633abb407e3bba59f6e6d721c6cd0e04cb5aa519c35f",
        "json": "db967e328d389796f76b1c907a1edcacae78d0ebe37d802cb80bf89b9750abd0",
    }),
    "equidist string --q 4 --a 1 --m 2 --limit 100": (0, {
        "table": "47c2435dc746521b64d99dcb2202072142cf078ee990edbbeba2d3fb5ea34887",
        "csv": "8f80b1f1d979bbbbbfdae6e3903e20da30087f215adf2ad6be053a4913799021",
        "json": "c2a9cd250ebd7bd6bdd26ee0e0e45e365e614dfaef2aef152221552240aa3423",
    }),
    "equidist string --q 4 --a 1 --m 40 --limit 100": (3, {
        "table": "5a03eba8412fbb48b3d354db314c04e80a519c97dd67b138f550c9e31ad29f7f",
        "csv": "c413806a14e376ae90924d7507b864673fe55a38453c9b41073ff5bd3852467c",
        "json": "545bcdfe761767755d28aae56ad0f95f2b898f71a692561ecb0e69ad218f948d",
    }),
    "equidist cluster --alpha sqrt:2 --delta 0.2 --m 2 --limit 100000": (0, {
        "table": "38464ce9f83ef34b80c4f1e2ce9ac74fc0369d9b7f90e1fb2bddc15c2c4d3eb9",
        "csv": "c57b48063abce5a98da047381d43c49f1806bae9f0c1183b151ff067fcb90398",
        "json": "6ffd3d601e302bb10b092817cc9cf759b521526dd95016fe7d2a94ec41ffcd75",
    }),
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_stdout_golden(capsys, args, fmt):
    code, out = run_cli(capsys, "--format", fmt, *args.split())
    want_code, hashes = GOLDEN[args]
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == hashes[fmt]


def test_every_command_rows_share_the_first_rows_keys():
    """The JSON row template and the table and csv columns are read from the
    first row: every row of a command has its keys in the same order, and
    each cell is a scalar."""
    argvs = [args.split() for args in sorted(GOLDEN)] + [
        ["basis", "reps", "--n", "251500"],
        ["binomial", "f-scan", "--from", "1000", "--to", "1015"],
    ]
    for argv in argvs:
        args = cli._parse_argv(argv)
        rows, _, _ = args.handler(args)
        columns = list(rows[0])
        assert all(list(row) == columns for row in rows), argv
        assert all(
            v is None or isinstance(v, (bool, int, float, str, Fraction))
            for row in rows for v in row.values()
        ), argv


# Characters that could end a cell, a row or a string early if the renderer
# split or templated on them, beside any character at all.
_TEXT = st.lists(
    st.sampled_from(["\x00", '"', "\\", "{", "}", ",", '": "', "\n", "\t", "%s", "é", " "])
    | st.characters(),
    max_size=6,
).map("".join)
_CELL = st.one_of(
    st.integers(),
    st.integers(-(10**300), 10**300),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308]),
    st.booleans(),
    st.none(),
    st.fractions(),
    _TEXT,
)
_NESTED = st.recursive(
    _CELL,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _documents(draw):
    keys = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    values = st.lists(_CELL, min_size=len(keys), max_size=len(keys))
    rows = [dict(zip(keys, row)) for row in draw(st.lists(values, min_size=1, max_size=5))]
    meta = draw(st.dictionaries(_TEXT, _NESTED, max_size=3))
    # a list of dicts nested in meta, beside empty containers
    meta |= {
        "nested": draw(st.lists(st.dictionaries(_TEXT, _CELL, max_size=3), max_size=3)),
        "empty_dict": {},
        "empty_list": [],
    }
    return rows, meta, draw(_TEXT)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(doc=_documents())
def test_json_render_matches_indented_dumps(doc):
    """The one-pass JSON renderer gives the bytes of the whole-document
    ``json.dumps(..., indent=2)``."""
    rows, meta, verdict = doc
    want = json.dumps(
        {"meta": meta, "rows": rows, "verdict": verdict}, indent=2, default=cli._json_default
    ) + "\n"
    assert cli._render(rows, meta, verdict, "json") == want
