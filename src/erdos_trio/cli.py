"""Batch command line driving every verification with machine-readable output.

Three command groups mirror the library: ``binomial`` (threshold scans,
averaging certificate, composite witness), ``basis`` (coverage, rigidity,
gap witnesses, representations) and ``equidist`` (window scans, Dirichlet
approximants, prime strings, cluster verification).

Output is a flat row list in one of three formats (``table``, ``csv``,
``json``); JSON wraps the rows with a ``meta`` object (echoed parameters
plus the mathematical claim each check certifies) and a ``verdict``. Runs
with identical parameters produce byte-identical stdout; wall-clock timing
goes to stderr only. Scans run serially: the global ``--threads`` flag is
still accepted as an integer but changes nothing.

Exit codes: 0 verified/ok, 1 bad arguments (including a sieve or a
representation list over the memory budget, an ``--output`` path that cannot
be written and a value too large to print as a float), 2
mathematical verification failure (never expected: it would contradict a
proved statement), 3 search horizon exhausted (soft failure: raise the limit
and retry). Every failure prints one line to stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction
from typing import Sequence

from . import __version__
from . import basis_splits as bs
from . import binomial_thresholds as bt
from . import equidistribution as eq
from .errors import ResourceLimitError, VerificationError
from .primes import sieve_primes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_HORIZON = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract wants 1."""

    def error(self, message: str):  # noqa: D102 (argparse override)
        raise _UsageError(message)


def _fmt(value) -> str:
    """Deterministic scalar rendering for table/csv cells."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if value is None:
        return ""
    return str(value)


def _json_safe(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _render(rows: list[dict], meta: dict, verdict: str, fmt: str) -> str:
    if fmt == "json":
        doc = {"meta": _json_safe(meta), "rows": _json_safe(rows), "verdict": verdict}
        return json.dumps(doc, indent=2) + "\n"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
        return buf.getvalue()
    # table
    cells = [[_fmt(row.get(c)) for c in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    lines = ["  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip()]
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines) + "\n"


def _alpha_cols(alpha: Fraction) -> dict:
    return {
        "alpha": f"{alpha.numerator}/{alpha.denominator}",
        "alpha_float": float(alpha),
    }


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
    results = [bt.f_threshold(n) for n in range(args.from_n, args.to + 1, args.stride)]
    rows = [
        {"n": r.n, "f": r.f, "decided_exactly": r.decided_exactly} for r in results
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
        "argmax_k": rep.argmax_k,
        "max_log_u": rep.max_log_u,
    }
    meta = {
        "claim": "mean of log u(n,k) over k <= Y = floor(C (log n)^2); "
        "a mean above 2 log n certifies f(n) <= Y",
        "diagnostics": [dict(d) for d in rep.diagnostics],
    }
    if rep.certified:
        confirmed = bt.f_threshold(args.n)
        row["f"] = confirmed.f
        if confirmed.f is None or confirmed.f > rep.y:
            raise VerificationError(
                f"certificate says f({args.n}) <= {rep.y} but scan found {confirmed.f}"
            )
    return [row], meta, "verified"


def _cmd_binomial_witness(args) -> tuple[list[dict], dict, str]:
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

def _cmd_basis_cover(args) -> tuple[list[dict], dict, str]:
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
    rule = (
        bs.seeded_rule(args.seed) if args.rule == "random" else bs.rule_from_name(args.rule)
    )
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
    rows = [{"n": rep.n, "a": a, "b": b} for a, b in rep.pairs]
    if not rows:
        rows = [{"n": rep.n, "a": None, "b": None}]
    claim = "all unordered representations n = a + b with a, b in A"
    return rows, {"claim": claim}, "verified"


# --------------------------------------------------------------------------
# equidist group

def _cmd_equidist_scan(args) -> tuple[list[dict], dict, str]:
    res = eq.well_distribution_statistic(
        eq.parse_alpha(args.alpha, args.precision), args.k, args.limit, args.stride
    )
    rows = [
        {
            **_alpha_cols(res.alpha),
            "k": res.k,
            "scan_limit": res.scan_limit,
            "stride": res.stride,
            "windows": res.windows,
            "max_discrepancy": res.max_discrepancy,
            "argmax_start": res.argmax_start,
        }
    ]
    claim = "max over scanned starts of the window's exact interval discrepancy"
    return rows, {"claim": claim}, "verified"


def _cmd_equidist_approx(args) -> tuple[list[dict], dict, str]:
    alpha = eq.parse_alpha(args.alpha, args.precision)
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
    if s is None:
        rows = [
            {
                "q": args.q,
                "a": args.a,
                "m": args.m,
                "limit": args.limit,
                "found": False,
            }
        ]
        return rows, {"claim": _STRING_CLAIM}, "horizon-exhausted"
    rows = [
        {
            "q": s.q,
            "a": s.a,
            "m": s.m,
            "limit": args.limit,
            "found": True,
            "r": s.r,
            "primes": " ".join(str(p) for p in s.primes),
            "diameter": s.diameter,
        }
    ]
    return rows, {"claim": _STRING_CLAIM}, "verified"


_STRING_CLAIM = "first run of m consecutive primes all = a (mod q) below the limit"


def _cmd_equidist_cluster(args) -> tuple[list[dict], dict, str]:
    alpha = eq.parse_alpha(args.alpha, args.precision)
    rep = eq.cluster_verify(alpha, args.delta, args.m, args.limit)
    claim = (
        "m consecutive primes whose fractional parts {alpha p} cluster in a "
        "width-delta interval; window discrepancy >= 1 - delta"
    )
    if not rep.found:
        rows = [
            {
                **_alpha_cols(alpha),
                "delta": float(rep.delta),
                "m": rep.m,
                "limit": rep.limit,
                "found": False,
            }
        ]
        return rows, {"claim": claim}, "horizon-exhausted"
    s = rep.string
    apx = rep.approximant
    rows = [
        {
            **_alpha_cols(alpha),
            "delta": float(rep.delta),
            "m": rep.m,
            "limit": rep.limit,
            "found": True,
            "q": apx.q,
            "a": apx.a,
            "err_float": float(apx.err),
            "r": s.r,
            "primes": " ".join(str(p) for p in s.primes),
            "diameter": s.diameter,
            "max_pair_distance": rep.max_pair_distance,
            "max_pair_distance_float": float(rep.max_pair_distance),
            "window_discrepancy": rep.window_discrepancy,
            "window_discrepancy_float": float(rep.window_discrepancy),
        }
    ]
    return rows, {"claim": claim}, "verified"


# --------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="erdos-trio", description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("table", "csv", "json"), default="table")
    parser.add_argument("--output", default=None, help="write output to this path")
    parser.add_argument("--seed", type=int, default=0, help="seed for random rules")
    parser.add_argument(
        "--precision", type=int, default=eq.DEFAULT_ALPHA_BITS,
        help="bits used when synthesizing sqrt:/golden alphas",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility; scans run serially and this changes nothing",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    binom = groups.add_parser("binomial").add_subparsers(dest="cmd", required=True)
    p = binom.add_parser("f")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_binomial_f)
    p = binom.add_parser("f-scan")
    p.add_argument("--from", dest="from_n", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    p.set_defaults(handler=_cmd_binomial_f_scan)
    p = binom.add_parser("certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--C", type=float, default=bt.DEFAULT_CERTIFICATE_C)
    p.set_defaults(handler=_cmd_binomial_certificate)
    p = binom.add_parser("witness")
    p.add_argument("--K", type=int, required=True)
    p.set_defaults(handler=_cmd_binomial_witness)

    basis = groups.add_parser("basis").add_subparsers(dest="cmd", required=True)
    p = basis.add_parser("cover")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_basis_cover)
    p = basis.add_parser("rigidity")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_basis_rigidity)
    p = basis.add_parser("gaps")
    p.add_argument("--rule", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_basis_gaps)
    p = basis.add_parser("reps")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_basis_reps)

    equi = groups.add_parser("equidist").add_subparsers(dest="cmd", required=True)
    p = equi.add_parser("scan")
    p.add_argument("--alpha", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    p.set_defaults(handler=_cmd_equidist_scan)
    p = equi.add_parser("approx")
    p.add_argument("--alpha", required=True)
    p.add_argument("--Q", type=int, required=True)
    p.set_defaults(handler=_cmd_equidist_approx)
    p = equi.add_parser("string")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=_cmd_equidist_string)
    p = equi.add_parser("cluster")
    p.add_argument("--alpha", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=_cmd_equidist_cluster)
    return parser


def _param_echo(args: argparse.Namespace) -> dict:
    skip = {"handler", "group", "cmd", "format", "output", "threads"}
    return {
        k.replace("from_n", "from"): v
        for k, v in sorted(vars(args).items())
        if k not in skip
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    started = time.perf_counter()
    try:
        rows, meta, verdict = args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError, ResourceLimitError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    meta_full = {
        "command": f"{args.group} {args.cmd}",
        "version": __version__,
        "params": _param_echo(args),
        **meta,
    }
    text = _render(rows, meta_full, verdict, args.format)
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
