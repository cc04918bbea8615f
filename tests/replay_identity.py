"""Replay the benchmark's request plans and print one sha256 per workload.

For each workload of ``perfbench/``, the plans of seeds 1, 11 and 12 at
``--seconds 18`` are issued in order through ``perfbench/worker.py``'s
``Runner``, and every request's status and its CLI stdout or library value
are hashed, in order, with the request. Two checkouts whose hashes agree
gave the same bytes for every request. ``perfbench/`` is read, not edited,
and nothing is timed.

    python tests/replay_identity.py [CHECKOUT]

CHECKOUT, by default the checkout this file is in, supplies both
``perfbench/`` and the ``src/`` it imports, so the same command replays
any commit's tree. Each hash is compared with the one committed for its
workload in ``replay_hashes.json`` beside this file; a change that means
to change an output updates that file. The exit status is 1 if any
request failed or any hash differs from the committed one, and each
mismatch is named on stderr. This is not a pytest module: a replay of the
14,112 requests takes ~20 s on a 2-core x86 host.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

SEEDS = (1, 11, 12)
SECONDS = 18
EXPECTED = Path(__file__).resolve().with_name("replay_hashes.json")


def _worker(checkout: Path):
    """``perfbench/worker.py`` of the checkout, imported as a module."""
    spec = importlib.util.spec_from_file_location("worker", checkout / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent)
    args = ap.parse_args(argv)
    worker = _worker(args.checkout.resolve())
    runner = worker.Runner(worker._import_package())
    expected = json.loads(EXPECTED.read_text())
    failed, mismatched = 0, []
    for workload in worker.workloads.WORKLOADS:
        digest, count = hashlib.sha256(), 0
        rounds = max(1, round(SECONDS / worker.ROUND_S[workload]))
        for seed in SEEDS:
            for reqs in worker.workloads.plan(workload, seed, rounds):
                for req in reqs:
                    result = runner.execute(req)
                    failed += result["status"] != "ok"
                    out = result.get("stdout", result.get("values"))
                    record = {"request": req, "status": result["status"], "out": out}
                    digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
                    count += 1
        print(f"{workload}: {count} requests, sha256 {digest.hexdigest()}", flush=True)
        want = expected.get(workload)
        if digest.hexdigest() != want:
            mismatched.append(workload)
            print(f"{workload}: sha256 differs from {EXPECTED.name}'s {want}", file=sys.stderr)
    if failed:
        print(f"{failed} requests failed", file=sys.stderr)
    return 1 if failed or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
