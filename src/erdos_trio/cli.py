"""Batch command line driving every verification with machine-readable output.

Three command groups mirror the library: ``binomial`` (threshold scans,
averaging certificate, composite witness), ``basis`` (coverage, rigidity,
gap witnesses, representations) and ``equidist`` (window scans, Dirichlet
approximants, prime strings, cluster verification).

Argv is read from one command table, which maps each ``(group, command)``
to its handler and flags, each flag with a dest, a type and a default or
none (required); the global flags form the same kind of table and come
before the group. A flag's value is the next argument, which may be a
negative number, or follows ``=``; a unique prefix names a flag, and a
flag given twice keeps its last value. ``-h`` or ``--help`` prints the
table's groups, commands and flags to stdout and exits 0.

Output is a flat row list in one of three formats (``table``, ``csv``,
``json``); JSON wraps the rows with a ``meta`` object (echoed parameters
plus the mathematical claim each check certifies) and a ``verdict``. The
JSON text has the bytes of ``json.dumps(doc, indent=2)``, but every row cell
is encoded in one pass of the json module's C encoder. Runs with identical
parameters produce byte-identical stdout; wall-clock timing goes to stderr
only. Scans run serially: the global ``--threads`` flag is still accepted
as an integer but changes nothing.

Exit codes: 0 verified/ok, 1 bad arguments (including a request whose
memory, counted before it is built, exceeds the budget, an ``--output`` path
that cannot be written, a value too large to print as a float, a cell too
long to print as digits, named by its column as ``_render``, the one place
row values become text, renders it, and a ``--precision`` out of range), 2
mathematical verification failure (never expected: it would contradict a
proved statement), 3 search horizon exhausted (soft failure: raise the limit
and retry). Every failure prints one line to stderr, never a traceback.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
import time
from fractions import Fraction
from types import SimpleNamespace
from typing import Sequence

from . import __version__
from . import basis_splits as bs
from . import binomial_thresholds as bt
from . import equidistribution as eq
from .errors import ResourceLimitError, VerificationError, _digits, _str_digits_limit, reserve
from .primes import _prime_ints

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_HORIZON = 3


# Peak bytes per row of ``basis reps`` as a table, the costliest format: the
# row dict and its ints, the cell strings and the padded lines (tracemalloc
# of the whole command, parser build included: 641 and 649 bytes per row at
# n = 251,500 and 1e6; json 640 and 645, csv 374 and 382), plus 10%. Every
# format is counted at this size, before any row is built.
_REP_ROW_BYTES = 720

# Peak bytes per row of ``binomial f-scan`` as JSON, the costliest format,
# measured the same way: 642 at n = 1..20,000 and 1..60,000, and 668, 704
# and 739 over 4,000 n from 1e6, 1e12 and 1e18 (table 533, 531, 550, 578
# and 603; csv 320, 314, 362, 375 and 403), plus 8% over the last. Every
# format is counted at this size, before the first f(n) is computed.
_F_ROW_BYTES = 800


class _UsageError(Exception):
    pass


def _fmt(value) -> str:
    """Deterministic scalar rendering for table/csv cells."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if value is None:
        return ""
    return str(value)


def _json_default(value) -> str:
    """``json.dumps`` hook: a Fraction is the string a/b; nothing else is JSON."""
    if isinstance(value, Fraction):
        return _fmt(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# Encodes every cell of a JSON document's rows in one call. With ``indent``
# None the json module runs its C encoder; its output is ASCII and escapes
# every control character inside a string, so a raw NUL is only ever the
# separator between two cells.
_CELLS = json.JSONEncoder(separators=("\x00", ": "), default=_json_default)


def _render_json(rows: list[dict], meta: dict, verdict: str) -> str:
    """The bytes of ``json.dumps({"meta": meta, "rows": rows, "verdict":
    verdict}, indent=2, default=_json_default)`` and a newline, for one or
    more flat rows with the first row's keys: the cells go through
    ``_CELLS`` in one pass and fill one row template built from those keys.
    ``meta`` is dumped with ``indent=2`` and indented one more level; an
    ASCII JSON string holds no raw newline, so that only re-indents."""
    head = json.dumps(meta, indent=2, default=_json_default).replace("\n", "\n  ")
    fields = ",\n".join(f"      {json.dumps(key).replace('%', '%%')}: %s" for key in rows[0])
    template = ",\n".join([f"    {{\n{fields}\n    }}"] * len(rows))
    cells = _CELLS.encode([v for row in rows for v in row.values()])[1:-1].split("\x00")
    return (
        f'{{\n  "meta": {head},\n  "rows": [\n{template % tuple(cells)}\n  ],\n'
        f'  "verdict": {json.dumps(verdict)}\n}}\n'
    )


def _render(rows: list[dict], meta: dict, verdict: str, fmt: str) -> str:
    """The command's output in ``fmt``. Every row of a command has the first
    row's keys, in the same order: the table and csv columns and the JSON
    row template are all read from ``rows[0]``."""
    if fmt == "json":
        return _render_json(rows, meta, verdict)
    columns = list(rows[0])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        return buf.getvalue()
    # table
    cells = [[_fmt(row[c]) for c in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in cells)) for i, col in enumerate(columns)]
    lines = ["  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() for r in [columns, *cells]]
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines) + "\n"


def _refuse_unprintable_cell(rows: list[dict]) -> None:
    """The cold path of a render that raised ValueError: refuse the first
    int or Fraction part too long to print, in row and column order, naming
    its column and its exact digit count; return if no cell is at fault."""
    for row in rows:
        for column, value in row.items():
            parts = [("", value)] if isinstance(value, int) else []
            if isinstance(value, Fraction):
                parts = [("'s numerator", value.numerator), ("'s denominator", value.denominator)]
            for part, number in parts:
                _refuse_unprintable(column + part, _digits(number))


def _alpha_cols(alpha: Fraction) -> dict:
    try:
        as_float = float(alpha)
    except OverflowError:
        raise ValueError("alpha is outside float range for the alpha_float column") from None
    return {"alpha": alpha, "alpha_float": as_float}


# --------------------------------------------------------------------------
# binomial group

def _cmd_binomial_f(args) -> tuple[list[dict], dict, str]:
    res = bt.f_threshold(args.n)
    rows = [{"n": res.n, "f": res.f, "decided_exactly": res.decided_exactly}]
    claim = "f(n): least k <= n whose small-prime part u(n,k) exceeds n^2"
    return rows, {"claim": claim}, "verified"


def _cmd_binomial_f_scan(args) -> tuple[list[dict], dict, str]:
    if args.from_n < 1 or args.to < args.from_n or args.stride < 1:
        raise ValueError("need 1 <= from <= to and stride >= 1")
    count = (args.to - args.from_n) // args.stride + 1
    reserve(_F_ROW_BYTES * count, f"an f-scan of {count} rows")
    rows = [
        {"n": r.n, "f": r.f, "decided_exactly": r.decided_exactly}
        for r in map(bt.f_threshold, range(args.from_n, args.to + 1, args.stride))
    ]
    claim = "f(n) scan: least k <= n with u(n,k) > n^2, per n"
    return rows, {"claim": claim}, "verified"


def _cmd_binomial_certificate(args) -> tuple[list[dict], dict, str]:
    rep = bt.certificate_average(args.n, args.C)
    row = {
        "n": rep.n,
        "C": rep.c,
        "Y": rep.y,
        "average_log_u": rep.average,
        "threshold_2_log_n": rep.threshold,
        "certified": rep.certified,
    }
    meta = {
        "claim": "mean of log u(n,k) over k <= Y = floor(C (log n)^2); "
        "a mean above 2 log n certifies f(n) <= Y",
    }
    if rep.certified:
        confirmed = bt.f_threshold(args.n)
        row["f"] = confirmed.f
        if confirmed.f is None or confirmed.f > rep.y:
            raise VerificationError(
                f"certificate says f({args.n}) <= {rep.y} but scan found {confirmed.f}"
            )
    return [row], meta, "verified"


def _refuse_unprintable(subject: str, digits: int) -> None:
    """Refuse an integer, built or not, of ``digits`` decimal digits if that
    is more than Python's int-to-str limit allows (0, or no such limit:
    none); ``subject`` names it in the error line."""
    most = _str_digits_limit()
    if 0 < most < digits:
        raise ValueError(f"{subject} has {digits} digits, past the {most}-digit int-to-str limit")


def _cmd_binomial_witness(args) -> tuple[list[dict], dict, str]:
    # M_K is printed in full
    log10_m = math.fsum(bt._witness_exponent(p, args.K) * math.log10(p) for p in _prime_ints(args.K))
    _refuse_unprintable(f"M_{args.K}", int(log10_m) + 1)
    w = bt.lower_bound_witness(args.K)
    factorization = "*".join(f"{p}^{e}" for p, e in sorted(w.exponents.items()))
    rows = [
        {
            "K": w.K,
            "M_K": w.M_K,
            "factorization": factorization,
            "log_ratio": w.log_ratio,
            "verified_k_range": f"0..{w.K}",
        }
    ]
    claim = "u(M_K - 1, k) = 1 for every k <= K, hence f(M_K - 1) > K"
    return rows, {"claim": claim}, "verified"


# --------------------------------------------------------------------------
# basis group

def _refuse_unprintable_stage(k: int, scale: int, exponent: int) -> None:
    """Refuse stage k before it is built if the largest integer its row
    prints, scale * 5^exponent, is too long to print. Below 2^32 its digits
    are counted from the exponent in float64. From 2^32 on, 5^exponent has
    over 2^31 digits, past the highest limit Python accepts (2^31 - 1), and
    no float of the exponent is formed."""
    if exponent < 0:  # no stage's: the library refuses k < 1
        return
    subject = f"stage {k}'s {scale} * 5^{exponent}"
    most = _str_digits_limit()
    if most and exponent >= 1 << 32:
        raise ValueError(f"{subject} has over 2^31 digits, past the {most}-digit int-to-str limit")
    if exponent < 1 << 32:
        _refuse_unprintable(subject, int(math.log10(scale) + exponent * math.log10(5)) + 1)


def _cmd_basis_cover(args) -> tuple[list[dict], dict, str]:
    _refuse_unprintable_stage(args.k, 6, args.k)  # hi = 6 * 5^k
    rep = bs.sumset_cover_check(args.k)
    rows = [
        {
            "k": rep.k,
            "lo": rep.lo,
            "hi": rep.hi,
            "covered": rep.covered,
            "first_gap": rep.first_gap,
            "method": rep.method,
        }
    ]
    return rows, {"claim": "[4, 6*5^k] is contained in A_k + A_k"}, "verified"


def _cmd_basis_rigidity(args) -> tuple[list[dict], dict, str]:
    _refuse_unprintable_stage(args.k, 10, args.k - 1)  # j_hi = 10 * 5^(k-1) - 1
    rep = bs.rigidity_check(args.k)
    rows = [
        {
            "k": rep.k,
            "j_lo": rep.interval[0],
            "j_hi": rep.interval[1],
            "checked": rep.checked,
            "anchor": rep.anchor,
        }
    ]
    claim = "every n in J_k has exactly one representation: c_k + (n - c_k), n - c_k in B_k"
    return rows, {"claim": claim}, "verified"


def _cmd_basis_gaps(args) -> tuple[list[dict], dict, str]:
    rule = bs.rule_from_name(args.rule)
    _refuse_unprintable_stage(args.k, 10, args.k - 1)  # the truncation, 10 * 5^(k-1)
    rep = bs.gap_witness(rule, args.k)
    rows = [
        {
            "k": rep.k,
            "rule": rep.rule,
            "anchor_color": rep.anchor_color,
            "gapped_color": rep.gapped_color,
            "j_lo": rep.interval[0],
            "j_hi": rep.interval[1],
            "gap_length": rep.gap_length,
            "truncation": rep.truncation,
        }
    ]
    claim = "the color class not containing c_k has no pairwise sum inside J_k"
    return rows, {"claim": claim}, "verified"


def _cmd_basis_reps(args) -> tuple[list[dict], dict, str]:
    rep = bs.representations(args.n)
    reserve(_REP_ROW_BYTES * rep.count, f"rendering {rep.count} representations")
    rows = [
        {"n": rep.n, "a": a, "b": rep.n - a} for lo, hi in rep.ranges for a in range(lo, hi + 1)
    ] or [{"n": rep.n, "a": None, "b": None}]
    claim = "all unordered representations n = a + b with a, b in A"
    return rows, {"claim": claim}, "verified"


# --------------------------------------------------------------------------
# equidist group

def _alpha(args) -> Fraction:
    """``--alpha`` parsed at ``--precision`` bits; a text of none of the
    accepted forms is refused naming the flag."""
    try:
        return eq.parse_alpha(args.alpha, args.precision)
    except eq._MalformedAlpha as exc:
        raise ValueError(f"--{exc}") from None


def _cmd_equidist_scan(args) -> tuple[list[dict], dict, str]:
    res = eq.well_distribution_statistic(_alpha(args), args.k, args.limit, args.stride)
    rows = [
        {
            **_alpha_cols(res.alpha),
            "k": res.k,
            "scan_limit": res.scan_limit,
            "stride": res.stride,
            "windows": res.windows,
            "max_discrepancy": float(res.max_discrepancy_exact),
            "max_discrepancy_exact": res.max_discrepancy_exact,
            "argmax_start": res.argmax_start,
        }
    ]
    claim = (
        "max over scanned starts of each window's interval discrepancy: every window "
        "is scored in integers within a proven bound, and each that can attain the max "
        "is scored exactly; max_discrepancy_exact is that max, first attained at "
        "argmax_start, and max_discrepancy its float"
    )
    return rows, {"claim": claim}, "verified"


def _cmd_equidist_approx(args) -> tuple[list[dict], dict, str]:
    alpha = _alpha(args)
    apx = eq.dirichlet_approx(alpha, args.Q)
    rows = [
        {
            **_alpha_cols(alpha),
            "Q": apx.Q,
            "a": apx.a,
            "q": apx.q,
            "err": apx.err,
            "err_float": float(apx.err),
            "bound_1_over_qQ": Fraction(1, apx.q * apx.Q),
        }
    ]
    claim = "reduced a/q with q <= Q and |alpha - a/q| <= 1/(qQ)"
    return rows, {"claim": claim}, "verified"


def _cmd_equidist_string(args) -> tuple[list[dict], dict, str]:
    s = eq.find_prime_string(args.q, args.a, args.m, args.limit)
    row = {"q": args.q, "a": args.a, "m": args.m, "limit": args.limit, "found": s is not None}
    if s is not None:
        row.update(
            {"a": s.a, "r": s.r, "primes": " ".join(map(str, s.primes)), "diameter": s.diameter}
        )
    claim = "first run of m consecutive primes all = a (mod q) below the limit"
    return [row], {"claim": claim}, "verified" if s is not None else "horizon-exhausted"


def _cmd_equidist_cluster(args) -> tuple[list[dict], dict, str]:
    alpha = _alpha(args)
    rep = eq.cluster_verify(alpha, args.delta, args.m, args.limit)
    row = {
        **_alpha_cols(alpha),
        "delta": float(rep.delta),
        "m": rep.m,
        "limit": rep.limit,
        "found": rep.found,
    }
    if rep.found:
        s, apx = rep.string, rep.approximant
        row.update(
            {
                "q": apx.q,
                "a": apx.a,
                "err_float": float(apx.err),
                "r": s.r,
                "primes": " ".join(map(str, s.primes)),
                "diameter": s.diameter,
                "max_pair_distance": rep.max_pair_distance,
                "max_pair_distance_float": float(rep.max_pair_distance),
                "window_discrepancy": rep.window_discrepancy,
                "window_discrepancy_float": float(rep.window_discrepancy),
            }
        )
    claim = (
        "m consecutive primes whose fractional parts {alpha p} cluster in a "
        "width-delta interval; window discrepancy >= 1 - delta"
    )
    return [row], {"claim": claim}, "verified" if rep.found else "horizon-exhausted"


# --------------------------------------------------------------------------

# The command table. A flag maps to (dest, type, default): the type is int,
# float, str or a tuple of the accepted strings, and a _REQUIRED flag must
# be given. The global flags come before the group.
_REQUIRED = object()
_GLOBAL_FLAGS = {
    "--format": ("format", ("table", "csv", "json"), "table"),
    "--output": ("output", str, None),
    "--precision": ("precision", int, eq.DEFAULT_ALPHA_BITS),
    "--threads": ("threads", int, 1),
}
_COMMANDS = {
    ("binomial", "f"): (_cmd_binomial_f, {"--n": ("n", int, _REQUIRED)}),
    ("binomial", "f-scan"): (_cmd_binomial_f_scan, {
        "--from": ("from_n", int, _REQUIRED), "--to": ("to", int, _REQUIRED),
        "--stride": ("stride", int, 1)}),
    ("binomial", "certificate"): (_cmd_binomial_certificate, {
        "--n": ("n", int, _REQUIRED), "--C": ("C", float, bt.DEFAULT_CERTIFICATE_C)}),
    ("binomial", "witness"): (_cmd_binomial_witness, {"--K": ("K", int, _REQUIRED)}),
    ("basis", "cover"): (_cmd_basis_cover, {"--k": ("k", int, _REQUIRED)}),
    ("basis", "rigidity"): (_cmd_basis_rigidity, {"--k": ("k", int, _REQUIRED)}),
    ("basis", "gaps"): (_cmd_basis_gaps, {
        "--rule": ("rule", str, _REQUIRED), "--k": ("k", int, _REQUIRED)}),
    ("basis", "reps"): (_cmd_basis_reps, {"--n": ("n", int, _REQUIRED)}),
    ("equidist", "scan"): (_cmd_equidist_scan, {
        "--alpha": ("alpha", str, _REQUIRED), "--k": ("k", int, _REQUIRED),
        "--limit": ("limit", int, _REQUIRED), "--stride": ("stride", int, 1)}),
    ("equidist", "approx"): (_cmd_equidist_approx, {
        "--alpha": ("alpha", str, _REQUIRED), "--Q": ("Q", int, _REQUIRED)}),
    ("equidist", "string"): (_cmd_equidist_string, {
        "--q": ("q", int, _REQUIRED), "--a": ("a", int, _REQUIRED),
        "--m": ("m", int, _REQUIRED), "--limit": ("limit", int, _REQUIRED)}),
    ("equidist", "cluster"): (_cmd_equidist_cluster, {
        "--alpha": ("alpha", str, _REQUIRED), "--delta": ("delta", float, _REQUIRED),
        "--m": ("m", int, _REQUIRED), "--limit": ("limit", int, _REQUIRED)}),
}
_GROUPS = {group for group, _ in _COMMANDS}
_HELP = ("-h", "--help")
# a negative number, which is read as a value and not as a flag
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _HelpAsked(Exception):
    pass


def _flag(token: str, flags: dict) -> tuple[str, str | None] | None:
    """The flag ``token`` names at a level with ``flags`` (and help), with
    its value after ``=`` or None; None if the token is a value. A long
    flag may be a unique prefix. A value does not start with ``-``, or is
    ``-``, a negative number or has a space; any other token is returned
    as it is, an unknown flag."""
    if token in flags or token in _HELP:
        return token, None
    if token[:1] != "-" or token == "-":
        return None
    if token == "--":
        raise _UsageError("'--' is not accepted")
    name, equals, value = token.partition("=")
    value = value if equals else None
    if name in flags or name in _HELP:
        return name, value
    if token[1] == "-":
        hits = [flag for flag in (*flags, "--help") if flag.startswith(name)]
        if len(hits) > 1:
            raise _UsageError(f"ambiguous flag {token}: {', '.join(hits)}")
        if hits:
            return hits[0], value
    if _NEGATIVE.match(token) or " " in token:
        return None
    return token, None


def _read_flags(argv: Sequence[str], at: int, flags: dict, into: dict) -> int:
    """Read the flags of ``flags`` from ``argv[at:]`` into ``into`` by dest,
    each with its value converted, up to the first value token; return its
    index (``len(argv)`` if none)."""
    while at < len(argv):
        hit = _flag(argv[at], flags)
        if hit is None:
            return at
        name, value = hit
        if name in _HELP:
            if value is not None:
                raise _UsageError(f"{name} takes no value")
            raise _HelpAsked
        if name not in flags:
            raise _UsageError(f"unknown flag {name}")
        if value is None:
            at += 1
            if at == len(argv) or _flag(argv[at], flags) is not None:
                raise _UsageError(f"{name} needs a value")
            value = argv[at]
        dest, kind, _ = flags[name]
        if isinstance(kind, tuple):
            if value not in kind:
                raise _UsageError(f"{name} must be one of {', '.join(kind)}, not {value!r}")
        else:
            try:
                value = kind(value)
            except ValueError:
                raise _UsageError(f"{name} takes {kind.__name__} values, not {value!r}") from None
        into[dest] = value
        at += 1
    return at


def _parse_argv(argv: Sequence[str]) -> SimpleNamespace:
    """``[global flags] GROUP CMD [flags]`` as a namespace of ``group``,
    ``cmd``, ``handler`` and every flag's dest, its default where it is not
    given. Raises ``_HelpAsked`` on ``-h`` or ``--help`` and ``_UsageError``
    on anything the table does not accept."""
    args = {dest: default for dest, _, default in _GLOBAL_FLAGS.values()}
    at = _read_flags(argv, 0, _GLOBAL_FLAGS, args)
    if at == len(argv) or argv[at] not in _GROUPS:
        raise _UsageError(f"expected a group, one of {', '.join(sorted(_GROUPS))}")
    group = argv[at]
    at = _read_flags(argv, at + 1, {}, args)
    if at == len(argv) or (group, argv[at]) not in _COMMANDS:
        cmds = ", ".join(cmd for g, cmd in _COMMANDS if g == group)
        raise _UsageError(f"expected a {group} command, one of {cmds}")
    cmd = argv[at]
    handler, flags = _COMMANDS[group, cmd]
    given = {dest: default for dest, _, default in flags.values()}
    at = _read_flags(argv, at + 1, flags, given)
    if at < len(argv):
        raise _UsageError(f"unexpected argument {argv[at]!r}")
    missing = [flag for flag, (dest, _, _) in flags.items() if given[dest] is _REQUIRED]
    if missing:
        raise _UsageError(f"{group} {cmd} needs {', '.join(missing)}")
    return SimpleNamespace(**args, group=group, cmd=cmd, **given, handler=handler)


def _usage() -> str:
    """The help text: every group, command and flag of the table."""

    def spelled(flags: dict) -> str:
        words = []
        for flag, (_, kind, default) in flags.items():
            value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else kind.__name__.upper()
            words.append(f"{flag} {value}" if default is _REQUIRED else f"[{flag} {value}]")
        return " ".join(words)

    lines = [
        f"usage: erdos-trio {spelled(_GLOBAL_FLAGS)} GROUP COMMAND [flags]",
        "",
        __doc__.splitlines()[0],
        "",
        "commands:",
        *(f"  {group} {cmd} {spelled(flags)}" for (group, cmd), (_, flags) in _COMMANDS.items()),
        "",
        "A flag's value follows it or its '='; a unique prefix names a flag;",
        "-h or --help prints this text.",
    ]
    return "\n".join(lines) + "\n"


def _param_echo(args: SimpleNamespace) -> dict:
    skip = {"handler", "group", "cmd", "format", "output", "threads"}
    return {
        k.replace("from_n", "from"): v
        for k, v in sorted(vars(args).items())
        if k not in skip
    }


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
    except _HelpAsked:
        sys.stdout.write(_usage())
        return EXIT_OK
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    started = time.perf_counter()
    try:
        rows, meta, verdict = args.handler(args)
        command = f"{args.group} {args.cmd}"
        meta = {"command": command, "version": __version__, "params": _param_echo(args), **meta}
        try:
            text = _render(rows, meta, verdict, args.format)
        except ValueError:
            _refuse_unprintable_cell(rows)
            raise
    except (ValueError, TypeError, ResourceLimitError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    if args.output:
        try:
            with open(args.output, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return EXIT_HORIZON if verdict == "horizon-exhausted" else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
