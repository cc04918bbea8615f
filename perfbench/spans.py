"""Spans recorded from outside the package, by swapping module globals.

``Tracer.install`` replaces each traced function with a timing wrapper in
every module that binds it, so calls made across modules and inside one
module (``binomial_thresholds.is_prime``, ``basis_splits.classify``) both go
through the wrapper; ``uninstall`` puts the originals back.

Most functions get one span per call: name, parent span, thread, start and
end, held in memory. Hot inner functions get an aggregated call count and
time instead, charged to the enclosing frame so its self time excludes them.
Every thread keeps its own frame stack; a span opened on a thread with an
empty stack (a ``ThreadPoolExecutor`` worker) takes the current request's
top-level span as its parent. Self time is a span's duration minus the
union of its child spans' intervals and its aggregated inner time.
"""

from __future__ import annotations

import json
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (module, function): one span per call
SPANNED = (
    ("primes", "sieve_primes"),
    ("binomial_thresholds", "f_threshold"),
    ("binomial_thresholds", "certificate_average"),
    ("binomial_thresholds", "valuation_row"),
    ("binomial_thresholds", "u_profile"),
    ("binomial_thresholds", "lower_bound_witness"),
    ("basis_splits", "sumset_cover_check"),
    ("basis_splits", "rigidity_check"),
    ("basis_splits", "gap_witness"),
    ("basis_splits", "representations"),
    ("basis_splits", "enumerate_A"),
    ("equidistribution", "well_distribution_statistic"),
    ("equidistribution", "cluster_verify"),
    ("equidistribution", "find_prime_string"),
    ("equidistribution", "window_sample"),
    ("equidistribution", "dirichlet_approx"),
    ("cli", "main"),
)
# (module, function): aggregated count and time, no span per call
AGGREGATED = (
    ("primes", "is_prime"),
    ("binomial_thresholds", "valuation_binomial"),
    ("basis_splits", "classify"),
    ("equidistribution", "torus_distance"),
)
LAYERS = tuple(f"{m}.{f}" for m, f in SPANNED + AGGREGATED)


def _sieve_counts(args, kwargs, result):
    limit = kwargs.get("limit", args[0] if args else 0)
    # bytes of the odd-only boolean mask the sieve writes, from the limit
    return {"integers": limit, "mask_bytes_computed": (limit + 1) // 2}


# Layer-specific counts, read from a traced call's arguments and result.
_OBSERVE = {
    "primes.sieve_primes": _sieve_counts,
    "binomial_thresholds.f_threshold": lambda a, kw, r: {"decided_exactly": int(r.decided_exactly)},
    "basis_splits.sumset_cover_check": lambda a, kw, r: {f"method_{r.method}": 1},
    "basis_splits.enumerate_A": lambda a, kw, r: {"elements": len(r)},
    "equidistribution.well_distribution_statistic": lambda a, kw, r: {"windows": r.windows},
    "equidistribution.cluster_verify": lambda a, kw, r: {"rounds": len(r.rounds)},
}


class _Frame:
    __slots__ = ("span", "inner")

    def __init__(self, span):
        self.span = span  # span id, or None for an aggregated call
        self.inner = 0.0  # time of aggregated calls made directly inside


class Tracer:
    def __init__(self, modules: dict):
        """``modules`` maps short module names to the imported modules."""
        self._modules = modules
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = None
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[list] = []  # [id, name, parent, thread, start, end, inner]
        self.aggregates: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _spanned(self, name, fn):
        observe = _OBSERVE.get(name)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = len(self.spans)
                self.spans.append(None)
            if stack:
                parent = stack[-1].span
            elif threading.current_thread() is threading.main_thread():
                parent = None
                self._root = sid
            else:
                parent = self._root
            frame = _Frame(sid)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans[sid] = [sid, name, parent, threading.get_ident(), start, end, frame.inner]
            if observe is not None:
                with self._lock:
                    for key, value in observe(args, kwargs, result).items():
                        self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def _aggregated(self, name, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = _Frame(None)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].inner += elapsed
                with self._lock:
                    entry = self.aggregates[name]
                    entry[0] += 1
                    entry[1] += elapsed - frame.inner

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANNED, self._spanned), (AGGREGATED, self._aggregated)):
            for mod_name, fn_name in table:
                original = getattr(self._modules[mod_name], fn_name)
                wrapper = make(f"{mod_name}.{fn_name}", original)
                for module in self._modules.values():
                    if getattr(module, fn_name, None) is original:
                        self._saved.append((module, fn_name, original))
                        setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, fn_name, original = self._saved.pop()
            setattr(module, fn_name, original)

    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.calls`` and ``<layer>.self_s`` for every layer, plus counts."""
        children = defaultdict(list)
        for span in self.spans:
            if span[2] is not None:
                children[span[2]].append((span[4], span[5]))
        out = {f"{name}.{key}": 0 for name in LAYERS for key in ("calls", "self_s")}
        for sid, name, _, _, start, end, inner in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - _covered(children[sid], start, end) - inner
        for name, (calls, self_s) in self.aggregates.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for key, value in self.counts.items():
            out[key] = value
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, then one line per aggregated layer."""
        with open(path, "w") as fh:
            for sid, name, parent, thread, start, end, inner in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent, "thread": thread,
                                     "start": start, "end": end, "inner_s": inner}) + "\n")
            for name, (calls, self_s) in sorted(self.aggregates.items()):
                fh.write(json.dumps({"name": name, "calls": calls, "self_s": self_s}) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
