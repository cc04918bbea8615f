"""Fuzz over command-line argv: every run ends in a documented exit code.

Argv is built from the real subcommands and flags, each flag spelled in
full or by a unique prefix, its value the next token or after ``=``, now
and then given twice; values are drawn from small integers (so every run
finishes in well under a second) and a few malformed values, and junk
tokens are dropped in anywhere. Whatever the input, ``main`` must return
0, 1, 2 or 3 and must not let an exception escape, ``SystemExit``
included, which the console script would print as a traceback.

The same argv are read by the command table and by the argparse parser of
``tests/oracles.py``: whatever the table accepts, argparse accepts with the
same namespace, and whatever argparse accepts the table accepts too, but
for argv holding ``--``, which the table refuses. ``-h`` and ``--help``
print every command and flag and exit 0.

A second property runs every subcommand with values at Python's 4,300-digit
int-to-str limit and past float range, and a sweep runs each such flag at
its edges: every run exits 0 or 3, or exits 1 with one ``error:`` line in
the package's own words.
"""

import contextlib
import io
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from erdos_trio import cli
from erdos_trio.cli import main

from oracles import ArgparseRefusal, argparse_cli_parser

INT = st.integers(-3, 60).map(str)
VALUES = {
    "int": INT,
    "float": st.one_of(
        INT, st.sampled_from(["0.5", "0.2", "6.21", "-0.1", "1e-9", "nan", "inf", "1e400"])
    ),
    "alpha": st.sampled_from(
        ["golden", "sqrt:2", "sqrt:4", "sqrt:-3", "sqrt:x", "1/3", "-2/7", "1/0",
         "0.5", "-0.5", "0", "3.14159", "1e400", "1e-400", "abc", "", "-golden"]
    ),
    "rule": st.sampled_from(
        ["all-c-to-1", "all-c-to-2", "alternating", "random", "random:3",
         "random:-1", "random:", "bogus"]
    ),
    "format": st.sampled_from(["table", "csv", "json", "xml"]),
    "output": st.sampled_from(["@file", "@dir"]),
    "threads": st.one_of(INT, st.sampled_from(["0", "-7", "1000000", "many"])),
}
GLOBAL_FLAGS = {
    "--format": "format",
    "--output": "output",
    "--precision": "int",
    "--threads": "threads",
}
COMMANDS = {
    ("binomial", "f"): {"--n": "int"},
    ("binomial", "f-scan"): {"--from": "int", "--to": "int", "--stride": "int"},
    ("binomial", "certificate"): {"--n": "int", "--C": "float"},
    ("binomial", "witness"): {"--K": "int"},
    ("basis", "cover"): {"--k": "int"},
    ("basis", "rigidity"): {"--k": "int"},
    ("basis", "gaps"): {"--rule": "rule", "--k": "int"},
    ("basis", "reps"): {"--n": "int"},
    ("equidist", "scan"): {"--alpha": "alpha", "--k": "int", "--limit": "int", "--stride": "int"},
    ("equidist", "approx"): {"--alpha": "alpha", "--Q": "int"},
    ("equidist", "string"): {"--q": "int", "--a": "int", "--m": "int", "--limit": "int"},
    ("equidist", "cluster"): {"--alpha": "alpha", "--delta": "float", "--m": "int", "--limit": "int"},
}
# A unique prefix of each flag wherever the flag occurs: `--a` is `--alpha`
# on `scan`, `approx` and `cluster` (on `string`, `--a` is a flag of its own).
PREFIXES = {
    "--format": "--form", "--output": "--o", "--precision": "--prec", "--threads": "--t",
    "--from": "--fr", "--stride": "--str", "--rule": "--r", "--alpha": "--a", "--limit": "--lim",
    "--delta": "--d",
}
JUNK = st.sampled_from(
    [[""], ["-"], ["--"], ["x"], ["--wat"], ["-h"], ["--he"], ["--n"], ["--format"], ["--form"],
     ["binomial"], ["reps"], ["1.5"], ["-1"], ["0x10"], ["é"], ["--threads=2"], ["--k=3"],
     ["--k", "-5"], ["--output", "-x"], ["--alpha", "-golden"], ["--a", "0.5"]]
)


def _given(draw, flag: str, kind: str) -> list[str]:
    """A flag with a value drawn for its kind: the flag spelled in full or
    by its prefix, the value the next token or after ``=``."""
    spelled = draw(st.sampled_from([flag, PREFIXES.get(flag, flag)]))
    value = draw(VALUES[kind])
    return [f"{spelled}={value}"] if draw(st.booleans()) else [spelled, value]


@st.composite
def argvs(draw):
    argv = []
    for flag in draw(st.lists(st.sampled_from(sorted(GLOBAL_FLAGS)), max_size=3, unique=True)):
        argv += _given(draw, flag, GLOBAL_FLAGS[flag])
    group, cmd = draw(st.sampled_from(sorted(COMMANDS)))
    # the global flags before the group, and one time in ten each after the
    # group or after the command, where they are refused
    at = draw(st.sampled_from([0] * 8 + [1, 2]))
    argv = [group, cmd][:at] + argv + [group, cmd][at:]
    for flag, kind in COMMANDS[group, cmd].items():
        if draw(st.integers(0, 9)):  # keep each flag nine times in ten
            argv += _given(draw, flag, kind)
        if not draw(st.integers(0, 9)):  # and give it again one time in ten
            argv += _given(draw, flag, kind)
    if not draw(st.integers(0, 3)):  # junk in one argv in four
        for tokens in draw(st.lists(JUNK, min_size=1, max_size=2)):
            at = draw(st.integers(0, len(argv)))
            argv[at:at] = tokens
    return argv


@settings(
    max_examples=1000,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=argvs())
def test_cli_argv_fuzz(tmp_path_factory, argv):
    out_dir = tmp_path_factory.getbasetemp()
    # "@file" and "@dir" stand for paths under the test's directory, also
    # after "="
    argv = [a.replace("@file", str(out_dir / "out.txt")).replace("@dir", str(out_dir)) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue(), argv


# Values at Python's 4,300-digit int-to-str limit: alphas a/b whose b has
# 4,000 to 4,300 digits, decimals of 4,290 to 4,310 places, 1e-4300 (whose
# denominator has 4,301 digits) and +-1e400, past float range; and ints of
# 4,300 digits, the longest argparse reads, of either sign.
LONG = {
    "alpha": st.one_of(
        st.builds("{}/{}".format, st.integers(-(10**6), 10**6), st.integers(10**3999, 10**4300 - 1)),
        st.builds(
            lambda head, places, digit: head + digit * (places - 1) + "7",
            st.sampled_from(["0.", "-0.", "1.", "-12.", "."]),
            st.sampled_from(range(4290, 4311)),
            st.sampled_from("0123456789"),
        ),
        st.sampled_from(["1e-4300", "1e400", "-1e400"]),
    ),
    "int": st.one_of(
        st.integers(10**4299, 10**4300 - 1), st.sampled_from([10**4300 - 1, 10**4299])
    ).flatmap(lambda v: st.sampled_from([str(v), f"-{v}"])),
}
# The flags that take a long value: every alpha, and the ints whose cost
# does not grow with their value (an f(n) or certificate n, a
# representations n, an f-scan's first n and the limit of a search that may
# find nothing do grow, and stay small).
LONG_FLAGS = {
    ("binomial", "f-scan"): ["--to", "--stride"],
    ("binomial", "witness"): ["--K"],
    ("basis", "cover"): ["--k"],
    ("basis", "rigidity"): ["--k"],
    ("basis", "gaps"): ["--k"],
    ("equidist", "scan"): ["--alpha", "--k", "--limit", "--stride"],
    ("equidist", "approx"): ["--alpha", "--Q"],
    ("equidist", "string"): ["--q", "--a", "--m"],
    ("equidist", "cluster"): ["--alpha", "--m"],
}
# every command, with each of its long flags or, if it has none, alone
SITES = [(command, flag) for command in sorted(COMMANDS) for flag in LONG_FLAGS.get(command, [None])]
PYTHON_WORDINGS = (
    "Exceeds the limit", "integer string conversion", "too large for a float", "int too large to convert"
)


@st.composite
def long_argvs(draw):
    """One command with one long flag, each of its other long flags long
    one time in four, and small values elsewhere."""
    (group, cmd), chosen = draw(st.sampled_from(SITES))
    argv = ["--format", draw(st.sampled_from(["table", "csv", "json"])), group, cmd]
    for flag, kind in COMMANDS[group, cmd].items():
        long = flag == chosen or (flag in LONG_FLAGS.get((group, cmd), []) and not draw(st.integers(0, 3)))
        argv.append(f"{flag}={draw(LONG[kind] if long else VALUES[kind])}")  # "=": a value may start with -
    return argv


def _ends_in_the_package_words(argv: list[str]) -> None:
    """The run exits 0 or 3, or exits 1 with one ``error:`` line, and
    Python's own wording of the int-to-str limit or of a float overflow
    never reaches the user."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 3), (argv, code, err)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not [w for w in PYTHON_WORDINGS if w in err], err[:300]


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=long_argvs())
def test_values_at_the_int_to_str_limit_end_in_the_package_words(argv):
    """Whatever value is too long to print or too large for a float, every
    subcommand ends in a documented exit and the package's own words."""
    _ends_in_the_package_words(argv)


# a small valid value for each flag, and the edges of each long kind
SMALL = {
    "--n": "10", "--from": "2", "--to": "5", "--stride": "1", "--C": "6.21", "--K": "5", "--k": "3",
    "--rule": "alternating", "--alpha": "golden", "--Q": "10", "--q": "4", "--a": "1", "--m": "2",
    "--limit": "1000", "--delta": "0.2",
}
EDGES = {
    "int": [str(10**4300 - 1), str(1 - 10**4300), str(10**4299)],
    "alpha": ["1e-4300", "1e400", "-1e400", "0." + "3" * 4300, "0." + "3" * 4301, "1/" + "9" * 4300,
              "-7/" + "3" * 4000],
}


@pytest.mark.parametrize("site", SITES, ids=lambda site: " ".join([*site[0], site[1] or ""]).strip())
def test_each_long_flag_at_its_edges_ends_in_the_package_words(site):
    """Each long flag of each command, at each edge of its kind, the other
    flags small and valid, ends as the property above says."""
    (group, cmd), chosen = site
    for value in EDGES[COMMANDS[group, cmd][chosen]] if chosen else [None]:
        _ends_in_the_package_words(
            [group, cmd, *(f"{flag}={value if flag == chosen else SMALL[flag]}" for flag in COMMANDS[group, cmd])]
        )


def test_digit_count_is_exact_past_the_limit(capsys):
    """An alpha of 10^4301 - 1 over 10^4301, written with no run of digits
    past the limit, parses; its numerator has 4,301 digits, though its float
    log10 is 4301.0, and the refusal counts them exactly. The same value
    written as 0.9...9 has a run of 4,301 digits, and is refused as it is
    parsed."""
    assert math.log10(10**4301 - 1) == 4301.0
    for alpha, subject in (
        ("9" * 2200 + "." + "9" * 2101 + "e-2200", "alpha's numerator has 4301 digits"),
        ("0." + "9" * 4301, "alpha has a run of 4301 digits"),
    ):
        assert main(["equidist", "approx", "--alpha", alpha, "--Q", "10"]) == 1
        assert capsys.readouterr().err == f"error: {subject}, past the 4300-digit int-to-str limit\n"


ARGPARSE = argparse_cli_parser()


def _reprs(args: dict) -> dict:
    """Each value by its repr, so that two nan (or 0.0 and -0.0) compare as
    the same value (or two)."""
    return {key: repr(value) for key, value in args.items()}


def _read_by_argparse(argv: list[str]):
    """The namespace's vars, ``"help"`` or ``"refused"``."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _reprs(vars(ARGPARSE.parse_args(argv)))
        except SystemExit as exc:
            assert exc.code == 0, argv
            return "help"
        except ArgparseRefusal:
            return "refused"


def _read_by_the_table(argv: list[str]):
    """The namespace's vars, with its handler, ``cli._cmd_<group>_<cmd>``,
    as the pair ``(group, cmd)``; ``"help"`` or ``"refused"``."""
    try:
        args = vars(cli._parse_argv(argv))
    except cli._HelpAsked:
        return "help"
    except cli._UsageError:
        return "refused"
    group, cmd = args["group"], args["cmd"]
    assert args["handler"] is getattr(cli, f"_cmd_{group}_{cmd.replace('-', '_')}"), argv
    return _reprs({**args, "handler": (group, cmd)})


@settings(max_examples=1000, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_table_reads_argv_as_argparse_does(argv):
    """Both directions: what the table accepts, argparse accepts with equal
    vars, and what argparse accepts, the table accepts, but for ``--``, which
    the table refuses. Where the table prints help, so does argparse."""
    ours, theirs = _read_by_the_table(argv), _read_by_argparse(argv)
    if isinstance(ours, dict) or ours == "help":
        assert ours == theirs, argv
    if isinstance(theirs, dict) and "--" not in argv:
        assert ours == theirs, argv


@pytest.mark.parametrize("argv", [["--help"], ["basis", "cover", "-h"]])
def test_help_names_every_command_and_flag(capsys, argv):
    """Help exits 0, with no ``SystemExit``, and prints every group,
    command and flag."""
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = [line.replace("[", " ").split() for line in out.splitlines()]
    for (group, cmd), flags in COMMANDS.items():
        line = next(words for words in lines if words[:2] == [group, cmd])
        assert set(flags) <= set(line), (group, cmd)
    assert set(GLOBAL_FLAGS) <= set(lines[0])
