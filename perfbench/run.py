#!/usr/bin/env python3
"""The erdos-trio benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src/``. Each workload runs in fresh worker processes (``worker.py``): a
few that only set up, for the set-up time, and one that measures, so peak
memory belongs to that workload alone. This process never imports the
package; it checks every output with ``checks.py`` and prints the metrics.

With ``--trace 0`` the metrics are the end-to-end ones, from an untraced
closed loop of one client, with times in reference seconds (see
``reference.py``; the summary lines give the wall-clock figures too). With ``--trace 1`` they are the per-layer ones,
from a separate traced run (see ``spans.py``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``). Exit status is 0 when every
worker ran, whatever the checks found; a worker that could not run (for
example, no ``src/`` beside this directory) ends the run with status 1 and
no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from reference import NOMINAL_S, scale  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the metric names and units this benchmark reports
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# set-up-only worker processes per run, besides the measuring one
SETUP_SAMPLES = 9
DEADLINE_S = 170
# a fixed string-hash seed, so that set iteration order is the same every run
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def _metrics(kind: str, values: dict) -> dict:
    """Every metric BENCHMARK.json lists under ``kind``, with its unit."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}


class WorkerError(Exception):
    pass


def _worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=WORKER_ENV,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} {mode} worker passed the deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{workload} {mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    *outcomes, summary = map(json.loads, proc.stdout.splitlines())
    return {**summary, "outcomes": outcomes}


def _checked(outcomes: list[dict], seed: int) -> tuple[int, list[str]]:
    failures = []
    for outcome in outcomes:
        reason = checks.check(outcome, seed)
        if reason:
            failures.append(f"{outcome['request']['kind']}: {reason}")
    return len(outcomes), failures


def _end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    reports = [_worker(workload, seed, seconds, "setup", deadline) for _ in range(SETUP_SAMPLES)]
    report = _worker(workload, seed, seconds, "measure", deadline)
    reports.append(report)
    setups = [r["setup_s"] for r in reports]
    setups_ref = [r["setup_s"] * NOMINAL_S / r["setup_reference_s"] for r in reports]
    outcomes = report["outcomes"]
    attempted, failures = _checked(outcomes, seed)
    timed = [o for o in outcomes if o["latency_s"] is not None]
    raw = sorted(o["latency_s"] for o in timed)
    latencies = sorted(
        o["latency_s"] * scale(report["reference"], o["t0"], o["t0"] + o["latency_s"]) for o in timed
    )
    values = {
        "ops_per_s": (attempted - len(failures)) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * _p90(latencies),
        "setup_s": statistics.median(setups_ref),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    wall = {
        "ops_per_s": (attempted - len(failures)) / report["busy_s"],
        "latency_p50_ms": 1000 * statistics.median(raw),
        "latency_p90_ms": 1000 * _p90(raw),
        "setup_s": statistics.median(setups),
    }
    return {
        "attempted": attempted,
        "failures": failures,
        "above_p90": sum(x > _p90(latencies) for x in latencies),
        "metrics": _metrics("end_to_end", values),
        "wall": wall,
    }


def _p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def _per_layer(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    report = _worker(workload, seed, seconds, "trace", deadline)
    attempted, failures = _checked(report["outcomes"], seed)
    # a layer the workload never calls reports 0
    layers = dict.fromkeys((m["name"] for m in SPEC["per_layer"]), 0)
    layers.update(report["layers"])
    return {"attempted": attempted, "failures": failures, "metrics": _metrics("per_layer", layers)}


def _summary(workload: str, result: dict) -> str:
    failed = len(result["failures"])
    lines = [f"{workload}: {result['attempted']} requests, failed_ratio "
             f"{failed / result['attempted']:.4f} fraction"]
    if "above_p90" in result:
        lines[0] += f", {result['above_p90']} samples above p90"
    wall = result.get("wall", {})
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<58} {m['value']:>14.6g} {m['unit']}")
        if name in wall:
            lines[-1] += f"   ({wall[name]:.6g} {m['unit']} wall clock)"
    lines += [f"  FAILED {reason}" for reason in result["failures"][:10]]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = _per_layer if args.trace else _end_to_end
    results = {}
    try:
        for name in names:
            results[name] = run(name, args.seed, args.seconds, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        print(_summary(name, result))
    failed = sum(len(r["failures"]) for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
