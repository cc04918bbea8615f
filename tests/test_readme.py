"""The README's contract, read from the README itself.

Each line of its command block and of its Library block gives the output
its comment claims. Each refusal it quotes ends in exit 1 with one
``error:`` line that names its own subject and no traceback, and each
request it says is served is served. A README line with no check here, or a
quoted example that is no longer in the README, fails.
"""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

import erdos_trio as et
from erdos_trio.cli import EXIT_OK, EXIT_USAGE, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
# the README's prose with every run of whitespace one space, so a quoted
# example may wrap across lines
_PROSE = " ".join(README.split())


def _block(heading: str, lang: str) -> list[str]:
    """The non-blank lines of the first ``lang`` code block after ``heading``."""
    body = README.split(f"\n{heading}\n", 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]
    return [line for line in body.splitlines() if line.strip()]


def _code(line: str) -> str:
    """A block line without its comment."""
    return line.split("#", 1)[0].strip()


def _first(**cells):
    """A check that the first JSON row holds these cells."""
    return lambda rows: all(rows[0][key] == value for key, value in cells.items())


# each command line of the README's block, without `erdos-trio` and its
# comment, and what its JSON rows must show
COMMANDS = {
    "binomial f --n 10": _first(f=7),
    "binomial f-scan --from 2 --to 100 --stride 1": lambda rows: [r["n"] for r in rows] == [*range(2, 101)],
    "binomial certificate --n 1000000 --C 6.21": _first(certified=True),
    "binomial witness --K 5": _first(M_K=1800, verified_k_range="0..5"),
    "basis cover --k 8": _first(lo=4, hi=2343750, covered=True),
    "basis rigidity --k 7": _first(checked=15625, anchor=4 * 5**6),
    "basis gaps --rule all-c-to-1 --k 3": _first(j_lo=225, j_hi=249),
    "basis reps --n 45": lambda rows: rows == [{"n": 45, "a": 20, "b": 25}],
    "equidist approx --alpha 3.14159265358979 --Q 10": _first(a=22, q=7),
    "equidist string --q 4 --a 1 --m 2 --limit 100": _first(primes="13 17"),
    "equidist scan --alpha golden --k 50 --limit 2000": _first(windows=2001),
    "equidist cluster --alpha sqrt:2 --delta 0.2 --m 3 --limit 10000000": _first(found=True),
}

# each line of the README's Library block, without its comment, and what
# its value (or, for an assignment, the value bound) must be
LIBRARY = {
    "et.f_threshold(10).f": lambda v: v == 7,
    "et.u_profile(10, 7).exact_u": lambda v: v == 120,
    "et.lower_bound_witness(20).log_ratio": lambda v: round(v, 2) == 1.77,
    "et.sumset_cover_check(8).covered": lambda v: v is True and et.sumset_cover_check(8).hi == 2343750,
    "et.rigidity_check(7).checked": lambda v: v == 15625,
    "et.gap_witness(et.seeded_rule(7), 5)": lambda v: v.gap_length == 625,
    'apx = et.dirichlet_approx("sqrt:2", 12)': lambda v: (v.a, v.q) == (17, 12) and v.err <= Fraction(1, 144),
    "et.find_prime_string(12, 5, 3, 10**7)": lambda v: v.primes == (4397, 4409, 4421),
    'et.cluster_verify("sqrt:2", 0.2, 3, 10**7).window_discrepancy': lambda v: v >= Fraction(4, 5),
}

NINES = "9" * 400
# (the example as the README quotes it, the argv it stands for, the subject
# its one error line names)
REFUSALS = [
    ("`equidist string --q 4 --a 1 --m 1000000000 --limit 1000000000000`", None,
     "a prime-string search to 1000000000000 needs ~"),
    ("`equidist scan --alpha golden --k 10 --limit 150000000 --stride 1000`", None,
     "a scan of 150001 windows of 10 primes needs ~"),
    ("`binomial witness --K 10000000000`", None, "a list of the primes to 10000000000 needs ~"),
    ("`binomial witness --K <400 nines>`", f"binomial witness --K {NINES}",
     f"a list of the primes to {NINES} needs ~"),
    ("(`basis cover --k 1000`)", "basis cover --k 1000",
     "4504501 interval sums of 3001 intervals needs ~"),
    ("`basis reps` (`--n 1000000000`", "basis reps --n 1000000000",
     "rendering 37109378 representations needs ~"),
    ("or a 1,001-digit `--n`", "basis reps --n 1" + "0" * 1000, "rendering "),
    ("a 4,300-digit `--n`", "basis reps --n 1" + "0" * 4299, "rendering "),
    ("`binomial f-scan` (`--from 1 --to 1000000000000`", "binomial f-scan --from 1 --to 1000000000000",
     "an f-scan of 1000000000000 rows needs ~"),
    ("(`equidist approx --alpha 1e400`)", "equidist approx --alpha 1e400 --Q 10",
     "alpha is outside float range for the alpha_float column"),
    ("`equidist scan --alpha 1e400`", "equidist scan --alpha 1e400 --k 5 --limit 10",
     "alpha is outside float range for the alpha_float column"),
    ("`equidist cluster --alpha 1e400`", "equidist cluster --alpha 1e400 --delta 0.2 --m 3 --limit 1000",
     "alpha is outside float range for the alpha_float column"),
    ("`equidist approx --alpha 1234567/<4000 sevens> --Q <4000 threes>`",
     f"equidist approx --alpha 1234567/{'7' * 4000} --Q {'3' * 4000}",
     "err's denominator has 8000 digits, past the 4300-digit int-to-str limit"),
    ("`--precision 8192 --alpha golden` and a 2,001-digit `--Q`",
     "--precision 8192 equidist approx --alpha golden --Q 1" + "0" * 2000,
     "err's denominator has 4467 digits, past the 4300-digit int-to-str limit"),
    ("`--alpha 0.1...17` of 4,299 decimals, `--k 11` and `--limit 10`",
     f"equidist scan --alpha 0.{'1' * 4298}7 --k 11 --limit 10",
     "max_discrepancy_exact's denominator has 4301 digits, past the 4300-digit int-to-str limit"),
    ("`equidist cluster --alpha 1e-4300 --delta 0.2 --m 3 --limit 1000`", None,
     "alpha's denominator has 4301 digits, past the 4300-digit int-to-str limit\n"),
    ("an `--alpha` of 4,300 decimal places",
     f"equidist cluster --alpha 0.{'3' * 4300} --delta 0.2 --m 3 --limit 1000",
     "alpha's denominator has 4301 digits, past the 4300-digit int-to-str limit\n"),
    ("refused as it is parsed, `alpha has a run of <d> digits`",
     f"equidist approx --alpha 0.{'3' * 4301} --Q 10",
     "alpha has a run of 4301 digits, past the 4300-digit int-to-str limit\n"),
    ("`equidist scan --alpha golden --k 5 --limit <4300 nines>`",
     f"equidist scan --alpha golden --k 5 --limit {'9' * 4300}",
     "a scan of a 4301-digit number of windows of 5 primes needs ~a 4302-digit number of bytes; "
     "budget is 2147483648\n"),
    ("`binomial witness` refuses such a `--K`, from 4,999 up", "binomial witness --K 4999",
     "M_4999 has 4304 digits, past the 4300-digit int-to-str limit"),
    ("so `--K 1000000` ends at once", "binomial witness --K 1000000",
     "M_1000000 has 867752 digits, past the 4300-digit int-to-str limit"),
    ("`basis rigidity` and `gaps` refuse such a `--k`, from 6,152 up", "basis rigidity --k 6152",
     "stage 6152's 10 * 5^6151 has 4301 digits, past the 4300-digit int-to-str limit"),
    ("`basis rigidity` and `gaps` refuse such a `--k`, from 6,152 up",
     "basis gaps --rule all-c-to-1 --k 6152",
     "stage 6152's 10 * 5^6151 has 4301 digits, past the 4300-digit int-to-str limit"),
    ("`basis cover` one from 6,151 up", "basis cover --k 6151",
     "stage 6151's 6 * 5^6151 has 4301 digits, past the 4300-digit int-to-str limit"),
    ("so `--k 10000000` or a 401-digit `--k` ends at once", "basis rigidity --k 10000000",
     "stage 10000000's 10 * 5^9999999 has 6989701 digits, past the 4300-digit int-to-str limit"),
    ("so `--k 10000000` or a 401-digit `--k` ends at once", "basis cover --k 1" + "0" * 400,
     f"stage 1{'0' * 400}'s 6 * 5^1{'0' * 400} has over 2^31 digits"),
    ("`equidist approx --alpha abc --Q 3`", None,
     "--alpha 'abc' is not a decimal, a/b, sqrt:N with N >= 0 or golden\n"),
    ("`--alpha sqrt:x`", "equidist approx --alpha sqrt:x --Q 3",
     "--alpha 'sqrt:x' is not a decimal, a/b, sqrt:N with N >= 0 or golden\n"),
    ("a `--precision` outside 1 to 8192 bits", "--precision 0 equidist approx --alpha sqrt:2 --Q 10",
     "precision must be between 1 and 8192 bits"),
    ("a `--precision` outside 1 to 8192 bits", "--precision 8193 equidist approx --alpha sqrt:2 --Q 10",
     "precision must be between 1 and 8192 bits"),
]

# (the example as the README quotes it, the argv it stands for, what its
# JSON rows must show)
SERVED = [
    ("`equidist string --limit 1000000000000`", "equidist string --q 4 --a 1 --m 2 --limit 1000000000000",
     _first(primes="13 17")),
    ("`--limit 4000000000`", "equidist string --q 4 --a 1 --m 2 --limit 4000000000", _first(primes="13 17")),
    ("`--limit 100000000000000000000`", "equidist string --q 4 --a 1 --m 2 --limit 100000000000000000000",
     _first(primes="13 17")),
    ("`equidist string --q 4 --a 1 --m 2 --limit <400 nines>`",
     f"equidist string --q 4 --a 1 --m 2 --limit {NINES}", _first(primes="13 17")),
    ("`equidist cluster --alpha sqrt:2 --delta 0.2 --m 3 --limit 100000000000000000000`", None,
     _first(found=True, primes="4397 4409 4421")),
    ("so `--k 1000`, once refused, is served", "basis rigidity --k 1000", _first(checked=5**999)),
]


def _cases() -> list:
    commands = [("command", _code(line).removeprefix("erdos-trio "))
                for line in _block("## Command line", "bash")]
    library = [("library", _code(line)) for line in _block("## Library", "python") if "import" not in line]
    return (
        commands
        + library
        + [("refused", quote, argv or quote.strip("(`)"), want) for quote, argv, want in REFUSALS]
        + [("served", quote, argv or quote.strip("(`)"), want) for quote, argv, want in SERVED]
    )


def _id(case) -> str:
    return f"{case[0]}: {case[1]}"[:100]


def test_every_check_has_its_readme_line():
    """No check outlives its README line: every command and Library check
    is for a line of its block. Each quoted example's case checks that the
    quote is still in the README."""
    kinds = {kind: {case[1] for case in _cases() if case[0] == kind} for kind in ("command", "library")}
    assert kinds == {"command": set(COMMANDS), "library": set(LIBRARY)}


@pytest.mark.parametrize("case", _cases(), ids=_id)
def test_readme_contract(capsys, case):
    kind, text = case[:2]
    if kind == "command":
        code = main(["--format", "json", *text.split()])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK and doc["verdict"] == "verified" and COMMANDS[text](doc["rows"])
    elif kind == "library":
        statement = ast.parse(text).body[0]
        scope = {"et": et}
        if isinstance(statement, ast.Assign):
            exec(text, scope)
            value = scope[statement.targets[0].id]
        else:
            value = eval(text, scope)
        assert LIBRARY[text](value)
    else:
        argv, want = case[2:]
        assert " ".join(text.split()) in _PROSE
        code = main(["--format", "json", *argv.split()])
        captured = capsys.readouterr()
        if kind == "served":
            assert code == EXIT_OK and want(json.loads(captured.out)["rows"])
        else:
            assert code == EXIT_USAGE and captured.out == ""
            assert captured.err.startswith(f"error: {want}") and captured.err.count("\n") == 1
            assert "Traceback" not in captured.err
