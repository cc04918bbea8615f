"""Seeded request streams for the four benchmark workloads.

A workload is a fixed mix of request kinds, issued in rounds. Every round of
a workload holds the same number of requests of each kind; the seed picks
only the parameters inside each kind's range and the order of the requests,
so runs with different seeds stay comparable. Parameters are spread over a
whole run, not over each round: a continuous range gives one value per equal
log-slice of all the run's draws of it, and a discrete range deals its
values from shuffled decks, each value as often as the others. So the
run's total work hardly depends on the seed.

A request is a plain dict: ``kind`` names it, ``argv`` (for command-line
requests) or the library parameters describe it, and nothing in it refers
to the package under test. A big-n valuation batch carries only a seed,
expanded by ``big_triples`` just before the request is timed, so set-up
does not spend its time drawing random 200-bit integers.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("binomial-scan", "valuations", "basis-stages", "equidist-cluster")

# consecutive n per `binomial f-scan` request
SCAN_WINDOW = 16
# (n, p) rows per valuation_row block and (n, k, p) triples per big-n batch
ROW_BLOCK = 32
BIG_BATCH = 64
# cap on window starts x window size per `equidist scan` request; the stride
# grows to respect it, so one request never sorts more than this many points
SCAN_CELLS = 2_000_000
# Non-square N < 100 for which `equidist cluster --alpha sqrt:N` finds a
# witness below 1e7 for every (delta, m) in {0.1, 0.2} x {3, 4}. For the
# other N the search ends in exit 3 (horizon exhausted): a true answer, but
# one the benchmark would count as a failed request.
CLUSTER_N = (
    2, 6, 8, 10, 15, 17, 19, 21, 24, 26, 33, 34, 35, 37, 38, 39, 44, 45, 47,
    48, 50, 51, 55, 57, 60, 62, 63, 65, 66, 68, 70, 74, 78, 79, 80, 82, 83,
    84, 92, 93, 95, 96, 97, 98, 99,
)
# Moduli q for which every class a (mod q) has a run of m <= 4 consecutive
# primes below 1e5, the lowest `equidist string` limit used.
STRING_Q = (3, 4, 5, 6, 8, 10, 12)


def _primes_upto(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i, f in enumerate(flags) if f]


_PRIMES_3000 = _primes_upto(3000)
_NON_SQUARES = tuple(n for n in range(2, 1000) if math.isqrt(n) ** 2 != n)


def _strata(rng: random.Random, count: int) -> list[float]:
    """count numbers in [0, 1), one per equal slice, shuffled."""
    vals = [(j + rng.random()) / count for j in range(count)]
    rng.shuffle(vals)
    return vals


def _log_strata(rng: random.Random, lo: float, hi: float, count: int) -> list[int]:
    """count integers, one per equal slice of [log lo, log hi], shuffled."""
    return [int(lo * (hi / lo) ** u) for u in _strata(rng, count)]


def _deck(rng: random.Random, values, count: int) -> list:
    """count values dealt from shuffled decks of ``values``."""
    values = list(values)
    dealt = []
    while len(dealt) < count:
        rng.shuffle(values)
        dealt += values
    return dealt[:count]


def _cli(kind: str, *argv, **params) -> dict:
    return {"kind": kind, "argv": ["--format", "json", *map(str, argv)], **params}


def _binomial_scan_run(rng: random.Random, rounds: int) -> list[list[dict]]:
    scans = [
        _cli("f-scan", "--threads", 2, "binomial", "f-scan",
             "--from", n0, "--to", n0 + SCAN_WINDOW - 1)
        for n0 in _log_strata(rng, 1e3, 1e7, 3 * rounds)
    ]
    certificates = [
        _cli("certificate", "binomial", "certificate", "--n", n)
        for n in _log_strata(rng, 1e4, 1e7, rounds)
    ]
    return _deal(rounds, scans, certificates)


def _big_batch(rng: random.Random) -> dict:
    return {"kind": "binomial-big", "seed": rng.getrandbits(64)}


def big_triples(seed: int) -> list[list[int]]:
    """The (n, k, p) inputs of a big-n batch: n of 64 to 200 bits, 0 <= k <= n."""
    rng = random.Random(seed)
    triples = []
    for _ in range(BIG_BATCH):
        n = rng.getrandbits(rng.randint(64, 200)) | 1 << 63
        triples.append([n, rng.randint(0, n), rng.choice(_PRIMES_3000)])
    return triples


def _valuations_run(rng: random.Random, rounds: int) -> list[list[dict]]:
    # Witness time grows like K^2.3 (0.003 s at K = 20, 0.5 s at K = 150); 96
    # tiny requests per 4 witnesses keep it to about half of the time. Row
    # blocks outnumber big-n batches so that the median falls inside one kind.
    # A block's first n is spread over [p, 3001 - ROW_BLOCK].
    count = 64 * rounds
    blocks = []
    for p, u in zip(_deck(rng, _PRIMES_3000, count), _strata(rng, count)):
        n0 = p + int(u * max(1, 3002 - ROW_BLOCK - p))
        blocks.append({"kind": "row-block", "p": p, "ns": [n0, min(n0 + ROW_BLOCK, 3001)]})
    bigs = [_big_batch(rng) for _ in range(32 * rounds)]
    witnesses = [_cli("witness", "binomial", "witness", "--K", K)
                 for K in _log_strata(rng, 20, 151, 4 * rounds)]
    return _deal(rounds, blocks, bigs, witnesses)


def _basis_run(rng: random.Random, rounds: int) -> list[list[dict]]:
    # cover --k 10 alone takes ~1.5 s. Rigidity and gaps come six times per
    # round, so that p90 falls among the near-identical k = 9 requests and p50
    # among the k = 7 ones, rather than at the edge of the reps range.
    covers = [_cli("cover", "basis", "cover", "--k", k)
              for _ in range(rounds) for k in range(6, 11)]
    rigidity = [_cli("rigidity", "basis", "rigidity", "--k", k)
                for _ in range(6 * rounds) for k in range(5, 10)]
    gaps = [_cli("gaps", "basis", "gaps", "--rule", f"random:{rng.getrandbits(32)}", "--k", k)
            for _ in range(6 * rounds) for k in range(5, 10)]
    reps = [_cli("reps", "basis", "reps", "--n", n) for n in _log_strata(rng, 1e4, 3e5, 5 * rounds)]
    return _deal(rounds, covers, rigidity, gaps, reps)


def _equidist_run(rng: random.Random, rounds: int) -> list[list[dict]]:
    scans = []
    ks = _log_strata(rng, 50, 501, 4 * rounds)
    limits = _log_strata(rng, 2e4, 2e5, 4 * rounds)
    alphas = ["golden", "golden", "sqrt", "sqrt"] * rounds
    for alpha, k, limit in zip(alphas, ks, limits):
        if alpha == "sqrt":
            alpha = f"sqrt:{rng.choice(_NON_SQUARES)}"
        stride = max(1, math.ceil(k * (limit + 1) / SCAN_CELLS))
        scans.append(_cli("scan", "equidist", "scan", "--alpha", alpha, "--k", k,
                          "--limit", limit, "--stride", stride, alpha_spec=alpha))
    # one cluster request per (delta, m) each round, N dealt from one deck per pair
    pairs = [(d, m) for d in ("0.1", "0.2") for m in (3, 4)]
    decks = [_deck(rng, CLUSTER_N, rounds) for _ in pairs]
    clusters = []
    for r in range(rounds):
        for (delta, m), deck in zip(pairs, decks):
            alpha = f"sqrt:{deck[r]}"
            clusters.append(_cli("cluster", "equidist", "cluster", "--alpha", alpha,
                                 "--delta", delta, "--m", m, "--limit", 10**7, alpha_spec=alpha))
    strings = []
    for limit, q in zip(_log_strata(rng, 1e5, 1e6, 4 * rounds), _deck(rng, STRING_Q, 4 * rounds)):
        a = rng.choice([a for a in range(q) if math.gcd(a, q) == 1])
        strings.append(_cli("string", "equidist", "string", "--q", q, "--a", a,
                            "--m", rng.randint(2, 4), "--limit", limit))
    approxes = []
    for Q in _log_strata(rng, 10, 1e9, 2 * rounds):
        alpha = "golden" if rng.random() < 0.25 else f"sqrt:{rng.choice(_NON_SQUARES)}"
        approxes.append(_cli("approx", "equidist", "approx", "--alpha", alpha, "--Q", Q,
                             alpha_spec=alpha))
    return _deal(rounds, scans, clusters, strings, approxes)


def _deal(rounds: int, *kinds: list[dict]) -> list[list[dict]]:
    """Split each kind's requests evenly over the rounds, one slice per round."""
    return [
        [req for reqs in kinds for req in reqs[r * len(reqs) // rounds:(r + 1) * len(reqs) // rounds]]
        for r in range(rounds)
    ]


_RUNS = {
    "binomial-scan": _binomial_scan_run,
    "valuations": _valuations_run,
    "basis-stages": _basis_run,
    "equidist-cluster": _equidist_run,
}

# One request of each kind at the cheap end of its range, run untimed during
# set-up so that lazy imports and first-call costs stay out of the loop.
WARMUP = {
    "binomial-scan": [
        _cli("f-scan", "--threads", 2, "binomial", "f-scan", "--from", 1000, "--to", 1003),
        _cli("certificate", "binomial", "certificate", "--n", 10**4),
    ],
    "valuations": [
        {"kind": "row-block", "p": 2999, "ns": [2999, 3001]},
        {"kind": "binomial-big", "seed": 0},
        _cli("witness", "binomial", "witness", "--K", 20),
    ],
    "basis-stages": [
        _cli("cover", "basis", "cover", "--k", 6),
        _cli("rigidity", "basis", "rigidity", "--k", 5),
        _cli("gaps", "basis", "gaps", "--rule", "random:0", "--k", 5),
        _cli("reps", "basis", "reps", "--n", 10**4),
    ],
    "equidist-cluster": [
        _cli("scan", "equidist", "scan", "--alpha", "golden", "--k", 50, "--limit", 20000,
             "--stride", 1, alpha_spec="golden"),
        _cli("cluster", "equidist", "cluster", "--alpha", "sqrt:2", "--delta", "0.2",
             "--m", 3, "--limit", 10**7, alpha_spec="sqrt:2"),
        _cli("string", "equidist", "string", "--q", 4, "--a", 1, "--m", 2, "--limit", 10**5),
        _cli("approx", "equidist", "approx", "--alpha", "golden", "--Q", 10,
             alpha_spec="golden"),
    ],
}


def plan(workload: str, seed: int, rounds: int) -> list[list[dict]]:
    """The rounds of a run of ``workload`` for ``seed``, each in shuffled order."""
    rng = random.Random(f"{workload}/{seed}")
    run = _RUNS[workload](rng, rounds)
    for reqs in run:
        rng.shuffle(reqs)
    return run
