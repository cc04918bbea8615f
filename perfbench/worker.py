"""Runs one workload in this process and prints its raw results as JSON.

Started by ``run.py`` as a fresh process per workload (and per set-up
sample), so that peak resident memory and import time belong to that
workload alone. Modes:

* ``setup``: import the package, generate the inputs, run one warm-up
  request of each kind, report the time that took and the reference time
  just after it (see ``reference.py``);
* ``measure``: set up, then issue a fixed number of rounds (see ROUND_S) in
  a closed loop: one client, the next request starts when the previous one
  returns; the reference work is timed between requests;
* ``trace``: set up, then run a fixed, even number of rounds twice, once
  plain and once with spans installed (alternating which goes first), and
  replay the first rounds' f-scan requests at one and at two threads.

Standard output carries one JSON line per request outcome, reduced to a
small record for ``run.py`` to check (this process never judges them),
then one summary line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

_t0 = perf_counter()

import numpy as np  # noqa: E402  (the package's own import cost; part of set-up)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from reference import EVERY_S, NOMINAL_S, reference  # noqa: E402

# Nominal seconds of request time per round, measured on a 2-core x86 box at
# the commit that introduced the benchmark. A run issues round(--seconds /
# ROUND_S) whole rounds, a fixed request list for a given seed and
# --seconds: two runs of the same seed issue exactly the same requests, on
# any commit, and the traced run's counts repeat exactly. On that box the
# loop lasts about --seconds.
ROUND_S = {
    "binomial-scan": 0.28,
    "valuations": 0.45,
    "basis-stages": 5.5,
    "equidist-cluster": 1.07,
}
# reference() samples each set-up takes right after it is timed
SETUP_REFERENCES = 20
# binomial-scan rounds whose f-scan requests are replayed at 1 and 2 threads
FSCAN_REPLAY_ROUNDS = 4


def _import_package():
    if not (SRC / "erdos_trio" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import erdos_trio

    if Path(erdos_trio.__file__).resolve().parent != SRC / "erdos_trio":
        raise SystemExit(f"error: imported erdos_trio from {erdos_trio.__file__}, not {SRC}")
    from erdos_trio import basis_splits, binomial_thresholds, cli, equidistribution, primes

    return {
        "erdos_trio": erdos_trio,
        "primes": primes,
        "binomial_thresholds": binomial_thresholds,
        "basis_splits": basis_splits,
        "equidistribution": equidistribution,
        "cli": cli,
    }


class Runner:
    """Issues requests against the package and reduces each output to a record."""

    def __init__(self, modules: dict):
        self.m = modules

    def execute(self, req: dict) -> dict:
        """Run one request; return latency, status and a record for the checker."""
        try:
            if "argv" in req:
                return self._cli(req)
            return self._library(req)
        except Exception:  # a failing request is a measured outcome, not a crash
            return {"latency_s": None, "status": "exception", "error": traceback.format_exc(limit=3)}

    def _cli(self, req: dict) -> dict:
        out, err = io.StringIO(), io.StringIO()
        main = self.m["cli"].main
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            code = main(req["argv"])
            latency = perf_counter() - start
        if code != 0:
            return {"latency_s": latency, "status": f"exit {code}", "error": err.getvalue()[-500:]}
        doc = json.loads(out.getvalue())
        if doc["verdict"] != "verified":
            return {"latency_s": latency, "status": f"verdict {doc['verdict']}"}
        rows = doc["rows"]
        if req["kind"] == "reps":
            pairs = [f"{r['a']},{r['b']}\n" for r in rows if r["a"] is not None]
            text = "".join(pairs).encode()
            rows = {"count": len(pairs), "sha256": hashlib.sha256(text).hexdigest()}
        return {"latency_s": latency, "status": "ok", "rows": rows, "stdout": out.getvalue()}

    def _library(self, req: dict) -> dict:
        bt = self.m["binomial_thresholds"]
        agree = True
        if req["kind"] == "row-block":
            p = req["p"]
            rows = {}
            start = perf_counter()
            for n in range(*req["ns"]):
                row_i = bt.valuation_row(n, p, method="indicator")
                row_l = bt.valuation_row(n, p, method="legendre")
                agree &= bool(np.array_equal(row_i[p:], row_l[p:]))
                rows[n] = row_i
            latency = perf_counter() - start
            values = [[n, k, p, int(row[k])] for n, row in rows.items() for k in (n // 3, 2 * n // 3)]
        else:
            triples = workloads.big_triples(req["seed"])
            values = []
            start = perf_counter()
            for n, k, p in triples:
                v = bt.valuation_binomial(n, k, p, "indicator")
                agree &= v == bt.valuation_binomial(n, k, p, "legendre")
                values.append([n, k, p, v])
            latency = perf_counter() - start
        if not agree:
            return {"latency_s": latency, "status": "forms disagree"}
        return {"latency_s": latency, "status": "ok", "values": values}


def _emit(req: dict, result: dict) -> None:
    """Stream one outcome to the parent, so records never pile up in this process."""
    result.pop("stdout", None)
    sys.stdout.write(json.dumps({"request": req, **result}) + "\n")


def _setup(workload: str, seed: int, rounds: int):
    modules = _import_package()
    stream = workloads.plan(workload, seed, rounds)
    runner = Runner(modules)
    for req in workloads.WARMUP[workload]:
        result = runner.execute(req)
        if result["status"] != "ok":
            raise SystemExit(f"error: warm-up request {req} failed: {result}")
    return modules, stream, runner, perf_counter() - _t0


def _measure(runner: Runner, stream, seconds: float) -> tuple[float, list[list[float]]]:
    """Closed loop over the rounds; returns the time spent inside requests
    and the reference samples taken between them (see ``reference.py``).

    If the program runs much slower than when ROUND_S was measured, the loop
    ends at the first round boundary past 1.5 x ``seconds`` in reference
    seconds, or past 3 x ``seconds`` of wall-clock time, instead. A slow
    host alone does not cut the request list short.
    """
    busy = scaled = 0.0
    samples = []
    due = 0.0
    for reqs in stream:
        for req in reqs:
            if perf_counter() >= due:
                samples.append([perf_counter(), reference()])
                due = perf_counter() + EVERY_S
            t0 = perf_counter()
            result = runner.execute(req)
            busy += result["latency_s"] or 0.0
            scaled += (result["latency_s"] or 0.0) * NOMINAL_S / samples[-1][1]
            _emit(req, {**result, "t0": t0})
        if scaled > 1.5 * seconds or busy > 3 * seconds:
            break
    samples.append([perf_counter(), reference()])
    return busy, samples


def _trace(workload: str, seed: int, modules, runner: Runner, stream) -> dict:
    from spans import Tracer

    tracer = Tracer(modules)
    busy = {False: 0.0, True: 0.0}
    for i, reqs in enumerate(stream):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                for req in reqs:
                    result = runner.execute(req)
                    busy[traced] += result["latency_s"] or 0.0
                    _emit(req, result)
            finally:
                tracer.uninstall()
    metrics = tracer.layer_metrics()
    calls = metrics["binomial_thresholds.f_threshold.calls"]
    decided = metrics.pop("binomial_thresholds.f_threshold.decided_exactly", 0)
    metrics["binomial_thresholds.f_threshold.exact_ratio"] = decided / calls if calls else 0.0
    metrics["trace.overhead_ratio"] = busy[True] / busy[False]
    threads = {1: 0.0, 2: 0.0}
    replay = [r for reqs in stream[:FSCAN_REPLAY_ROUNDS] for r in reqs if r["kind"] == "f-scan"]
    for i, req in enumerate(replay):
        texts = {}
        for t in ((1, 2) if i % 2 == 0 else (2, 1)):
            argv = list(req["argv"])
            argv[argv.index("--threads") + 1] = str(t)
            result = runner.execute({**req, "argv": argv})
            threads[t] += result["latency_s"] or 0.0
            texts[t] = result.get("stdout")
            _emit({**req, "argv": argv}, result)
        if texts[1] != texts[2]:
            _emit(req, {"latency_s": None, "status": "stdout differs between --threads 1 and 2"})
    metrics["cli.f_scan.threads1_s"] = threads[1]
    metrics["cli.f_scan.threads2_s"] = threads[2]
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload}-seed{seed}.jsonl")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    args = ap.parse_args(argv)
    rounds = max(1, round(args.seconds / ROUND_S[args.workload]))
    if args.mode == "trace":
        # plain and traced passes, alternating which goes first: an even count, in ~--seconds
        rounds = 2 * max(1, round(rounds / 4))
    modules, stream, runner, setup_s = _setup(args.workload, args.seed, rounds)
    summary = {"setup_s": setup_s}
    if args.mode in ("setup", "measure"):
        # the host's speed just after set-up, to scale setup_s by
        summary["setup_reference_s"] = statistics.fmean(reference() for _ in range(SETUP_REFERENCES))
    if args.mode == "measure":
        summary["busy_s"], summary["reference"] = _measure(runner, stream, args.seconds)
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    elif args.mode == "trace":
        summary["layers"] = _trace(args.workload, args.seed, modules, runner, stream)
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
