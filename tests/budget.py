"""The memory contract of a ``reserve`` site, checked by one helper.

Every structure the package builds to a request's size is counted through
``errors.reserve`` before it is built. A test of such a site checks three
clauses: the call's tracemalloc peak is at most the counted bytes, the call
runs when the budget is exactly the count, and it is refused one byte below.
"""

from __future__ import annotations

import tracemalloc

import pytest

from erdos_trio import ResourceLimitError, errors


def peak_bytes(call) -> int:
    """The tracemalloc peak of ``call()``, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _under_budget(budget: int, call):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(errors, "DEFAULT_MEMORY_BUDGET", budget)
        return call()


def assert_counted(need: int, call, *, before=None, peak=None, match=None):
    """Check the three clauses for a call that counts ``need`` bytes, and
    return what the call gave under a budget of exactly ``need``.

    ``before()``, when given, runs before each of the three calls, under the
    real budget, for example to empty a cache. ``peak`` bounds the peak in
    place of ``need`` where the two differ, as when a call counts two
    structures through two ``reserve`` calls. ``match`` is matched against
    the refusal's message. The budget is restored on return.
    """
    before = before or (lambda: None)
    before()
    measured = peak_bytes(call)
    bound = need if peak is None else peak
    assert measured <= bound, f"tracemalloc peak {measured} B exceeds the {bound} B counted"
    before()
    result = _under_budget(need, call)
    before()
    with pytest.raises(ResourceLimitError, match=match):
        _under_budget(need - 1, call)
    return result
