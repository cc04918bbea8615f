"""Fuzz over command-line argv: every run ends in a documented exit code.

Argv is built from the real subcommands and flags, with values drawn from
small integers (so every run finishes in well under a second), a few
malformed values, and junk tokens dropped in anywhere. Whatever the input,
``main`` must return 0, 1, 2 or 3 (argparse's own ``--help`` exit counts as
0) and must not let an exception escape, which the console script would
print as a traceback.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from erdos_trio.cli import main

INT = st.integers(-3, 60).map(str)
VALUES = {
    "int": INT,
    "float": st.one_of(
        INT, st.sampled_from(["0.5", "0.2", "6.21", "-0.1", "1e-9", "nan", "inf", "1e400"])
    ),
    "alpha": st.sampled_from(
        ["golden", "sqrt:2", "sqrt:4", "sqrt:-3", "sqrt:x", "1/3", "-2/7", "1/0",
         "0.5", "0", "3.14159", "1e400", "1e-400", "abc", ""]
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
    "--seed": "int",
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
JUNK = st.sampled_from(
    ["", "-", "--", "x", "--wat", "-h", "--n", "--format", "binomial", "reps",
     "1.5", "-1", "0x10", "é", "--threads=2", "--k=3"]
)


@st.composite
def argvs(draw):
    argv = []
    for flag in draw(st.lists(st.sampled_from(sorted(GLOBAL_FLAGS)), max_size=3, unique=True)):
        argv += [flag, draw(VALUES[GLOBAL_FLAGS[flag]])]
    group, cmd = draw(st.sampled_from(sorted(COMMANDS)))
    argv += [group, cmd]
    for flag, kind in COMMANDS[group, cmd].items():
        if draw(st.integers(0, 9)):  # keep each flag nine times in ten
            argv += [flag, draw(VALUES[kind])]
    if not draw(st.integers(0, 3)):  # junk in one argv in four
        for token in draw(st.lists(JUNK, min_size=1, max_size=2)):
            argv.insert(draw(st.integers(0, len(argv))), token)
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
    argv = [
        {"@file": str(out_dir / "out.txt"), "@dir": str(out_dir)}.get(a, a) for a in argv
    ]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue(), argv
