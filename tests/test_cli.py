"""Exit codes, output formats and byte-determinism of the command line."""

import json
import subprocess
import sys

import pytest

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
    ],
)
def test_unservable_request_is_one_line_usage_error(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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
