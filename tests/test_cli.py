"""Exit codes, output formats and byte-determinism of the command line."""

import dataclasses
import hashlib
import json
import subprocess
import sys
import time
import tracemalloc

import pytest

from erdos_trio import binomial_thresholds, cli, errors
from erdos_trio.cli import EXIT_HORIZON, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main


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
    code, out = run_cli(
        capsys, "--format", "json", "--seed", "11",
        "basis", "gaps", "--rule", "random", "--k", "4",
    )
    assert code == EXIT_OK
    assert json.loads(out)["rows"][0]["rule"] == "random:11"


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
        # sieving to 1e12 is refused up front by the memory budget
        ("equidist", "string", "--q", "4", "--a", "1", "--m", "2", "--limit", "1000000000000"),
        # an alpha beyond float range cannot fill the alpha_float column
        ("equidist", "approx", "--alpha", "1e400", "--Q", "10"),
        # ~3.7e7 representation pairs are refused up front by the memory budget
        ("basis", "reps", "--n", "1000000000"),
        # a zero denominator, and an unwritable --output path
        ("equidist", "approx", "--alpha", "1/0", "--Q", "10"),
        ("--output", ".", "binomial", "f", "--n", "10"),
        # a u(n, k) ledger of Y ~ 3.4e7 positions is refused by the memory budget
        ("binomial", "certificate", "--n", "1000000000000000000", "--C", "20000"),
        # ~9e6 interval sums of ~2,300 bits are refused by the memory budget
        ("basis", "cover", "--k", "1000"),
        ("basis", "rigidity", "--k", "1000"),
        # M_K for K = 1e10 needs the primes below 2^34, ~45 GB as a list
        ("binomial", "witness", "--K", "10000000000"),
        # stage 1e5 intervals hold ~21 GB of endpoints before any sum
        ("basis", "cover", "--k", "100000"),
        ("basis", "rigidity", "--k", "100000"),
        ("basis", "gaps", "--rule", "alternating", "--k", "100000"),
        # a 1,001-digit n has ~1e999 representations
        ("basis", "reps", "--n", "1" + "0" * 1000),
        # ~1.5e8 scanned primes at ~50 bytes each, past the sieve's 8
        ("equidist", "scan", "--alpha", "golden", "--k", "10", "--limit", "150000000",
         "--stride", "1000"),
        # the search holds ~26 bytes per prime, past the sieve's 8
        ("equidist", "string", "--q", "4", "--a", "1", "--m", "2", "--limit", "4000000000"),
        # err and 1/(qQ) have ~8,000-digit denominators, past Python's
        # 4,300-digit int-to-str limit, so no format can print them
        ("equidist", "approx", "--alpha", "1234567/" + "7" * 4000, "--Q", "3" * 4000),
        # synthesizing alpha is bounded at 8192 bits
        ("--precision", "100000", "equidist", "approx", "--alpha", "sqrt:2", "--Q", "10"),
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


def test_basis_reps_counts_rendered_rows(capsys, monkeypatch):
    """``basis reps`` counts its rendered rows, at the JSON size per pair for
    every format, before it builds them; the count covers the command's
    tracemalloc peak."""
    argv = ["--format", "json", "basis", "reps", "--n", "251500"]
    need = 32878 * cli._REP_ROW_BYTES  # 32,878 representations of 251,500
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need
    capsys.readouterr()
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", need)
    for fmt in ("json", "csv", "table"):
        argv[1] = fmt
        assert main(argv) == EXIT_OK
        monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", need - 1)
        assert main(argv) == EXIT_USAGE
        monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", need)
    err = capsys.readouterr().err
    assert err.count("error: rendering 32878 representations needs ~") == 3


def test_basis_reps_refused_before_any_row(capsys, monkeypatch):
    """The rows are counted from the ranges' total, so a request past the
    budget is refused before any row exists."""
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", 100 * 1024**2)
    argv = ["basis", "reps", "--n", "100000000"]
    cli.build_parser()  # the one parser is not part of the request
    start = time.perf_counter()
    assert main(argv) == EXIT_USAGE
    assert time.perf_counter() - start < 0.05
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_USAGE
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024**2
    err = capsys.readouterr().err
    assert err.count("error: rendering 2148464 representations needs ~") == 2


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
        capsys, "--seed", "5", "--precision", "64", "--format", "json", *tail, "--stride", "7"
    )
    assert code == EXIT_OK
    assert json.loads(out)["meta"]["params"]["stride"] == 7
    code, out = run_cli(capsys, "--format", "json", *tail)
    assert code == EXIT_OK
    assert json.loads(out)["meta"]["params"] == {
        "alpha": "golden", "k": 10, "limit": 100, "precision": 256, "seed": 0, "stride": 1,
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
        "json": "968adf37a5a6718f54cf06160dcb80bb70b51a3d58b37d92821c6f829ffb743e",
    }),
    "binomial f-scan --from 2 --to 60 --stride 3": (0, {
        "table": "e3f7684e3aa64304d5760b58c0b80d0239db00789e00ad5542d4518917f558c7",
        "csv": "3965177abcdc9f65edbdd025042627e4a12aaf8950dbea4ffbf80b5abd98edeb",
        "json": "f817187c1a48f6b9e8a50144e4fc35bc8fd7de8c77bf121ee0678b3b49fb5ccc",
    }),
    "binomial certificate --n 100000 --C 6.21": (0, {
        "table": "2eb68ef52713b0fdb63bc0ab78d895d6f2e5c6832938a43360500c070514ae61",
        "csv": "9fe4aa17745f91e21f33851cb4ad19c4017f785b003f39b211d564d20242b2bc",
        "json": "05b3fe1bc428ffc444690291bb23fc7a0cbe463c1d093292f604080529500bea",
    }),
    "binomial witness --K 12": (0, {
        "table": "aaa1b3c5174038eac3c938496789062ead1e4d8199bb4501ebd0afccbf50d0d1",
        "csv": "faddf8eb117dec353478feb7e39cf6a107a01192638bacda2fd9f1eb1b9e2175",
        "json": "620384ca66f7f81303c91ea1b7e8e51853d1564082f15c96e70f6a9f76499bb9",
    }),
    "basis cover --k 3": (0, {
        "table": "f03263f2f227d2de163bf5faa98d9dcb0e4cef1f5e6657ea210a7c15fc50515d",
        "csv": "093da6571c2c64a6cb5ab594010d9873284f6a560b5e3343f1cf806bffd8fa91",
        "json": "2434a30c3210cfcc69eee7fc00913664b41dad940e0e61d05238b9717be2902c",
    }),
    "basis rigidity --k 3": (0, {
        "table": "072a2b7a55d60129b7cfbbd252757ca9e5324ce09995485593dd3e7404d872f5",
        "csv": "44d1909d560da594f4f13d72c084bf8ecbf6d5a166144666be259c267c79f138",
        "json": "6e1e02bc933c363a5059b73db724c2cc7241c952b5487908ce4adc031e015d09",
    }),
    "--seed 11 basis gaps --rule random --k 4": (0, {
        "table": "56e02b99ba582ddbd5b16ee8494e5bf221c12b3af0e8cb7d1ce729204e6d315b",
        "csv": "1b1df89d701d472d42d421451f23c220cf508b3389cae93c9b4d5853c3ead002",
        "json": "931c41719e616b432bc9eb09b054286cb21eb8e1a51794f03daee3d2fa29de2a",
    }),
    "basis reps --n 1000": (0, {
        "table": "2d33faff5e6fb4acfcc79b6edec3d2b6a285176556fa6e55db2585c2495c3a24",
        "csv": "c0a03e832e4ca7fdd43f904fcbfffcaeb55181efc9ada6cfe681a8e1911dc23d",
        "json": "d89b117f8deb75ad9593838902cb8533a3cdb51f4ab565c2a193aeb93d92bccd",
    }),
    "basis reps --n 30000": (0, {
        "table": "42ca44ef6f69024af8be3c76fba5232198113705aa2e82f047fba09a770d2692",
        "csv": "ce7ea4c0bdd0659d8aa741ac380e0bec480d525486873809962669dc033011ad",
        "json": "7db10143817226dfa56db46aa3a9207a622ebab6843592892c742a09e37504ab",
    }),
    "equidist scan --alpha golden --k 20 --limit 200": (0, {
        "table": "5423d18f8c6c6e48c7a63a7c435229e71142bc444a3aa8ae09eaa2c897c70996",
        "csv": "73cf3849f88cb7931876b009d11a011a23fde3aaa971bcce3ba2e50e86010ca4",
        "json": "763f202a037e2175685a20567b1cafbec69666d24e1f2d2026d7e5b5c061dff3",
    }),
    "--precision 64 equidist approx --alpha sqrt:2 --Q 100": (0, {
        "table": "c43928d163bdc610435b7695b60d244c36cd7c9ca210adb480b91c44ebfcb3fe",
        "csv": "86e90c6a201a27dc424e633abb407e3bba59f6e6d721c6cd0e04cb5aa519c35f",
        "json": "2a0b963312f18963cd29a2810c7d810eb41ac42216478ffa9294c47ca2bd319b",
    }),
    "equidist string --q 4 --a 1 --m 2 --limit 100": (0, {
        "table": "47c2435dc746521b64d99dcb2202072142cf078ee990edbbeba2d3fb5ea34887",
        "csv": "8f80b1f1d979bbbbbfdae6e3903e20da30087f215adf2ad6be053a4913799021",
        "json": "1f3b8ecdd2aa1f8b475bf868b9841067fac7ae8d8db631e3cb59c00bb2d95907",
    }),
    "equidist string --q 4 --a 1 --m 40 --limit 100": (3, {
        "table": "5a03eba8412fbb48b3d354db314c04e80a519c97dd67b138f550c9e31ad29f7f",
        "csv": "c413806a14e376ae90924d7507b864673fe55a38453c9b41073ff5bd3852467c",
        "json": "d55327bb374c1472568696a1c233f8e3cdeb5cd9fb28ff4c1f02fa1d39fbb701",
    }),
    "equidist cluster --alpha sqrt:2 --delta 0.2 --m 2 --limit 100000": (0, {
        "table": "38464ce9f83ef34b80c4f1e2ce9ac74fc0369d9b7f90e1fb2bddc15c2c4d3eb9",
        "csv": "c57b48063abce5a98da047381d43c49f1806bae9f0c1183b151ff067fcb90398",
        "json": "9dd1f1a37c0f1f30e82c8d4541f5122bce22df5109590340b536eeaa86542041",
    }),
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_stdout_golden(capsys, args, fmt):
    code, out = run_cli(capsys, "--format", fmt, *args.split())
    want_code, hashes = GOLDEN[args]
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == hashes[fmt]
