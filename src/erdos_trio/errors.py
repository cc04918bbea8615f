"""Exception types shared across the package, and the one memory guard."""

import math
import sys

# Bytes any one request-sized structure may take. ``reserve`` reads this
# binding at call time, so rebinding it here changes every guarded site.
DEFAULT_MEMORY_BUDGET = 2 * 1024**3


class VerificationError(RuntimeError):
    """A finite check that is mathematically guaranteed to pass has failed.

    Raising this means either the implementation is wrong or the underlying
    claim is false; it is never a recoverable user error.
    """


class ResourceLimitError(MemoryError):
    """A request-sized structure, counted before it is built, would not fit
    in ``DEFAULT_MEMORY_BUDGET``; raised only by ``reserve``."""


def reserve(need_bytes: int, what: str) -> None:
    """Refuse a request-sized structure that would not fit in the budget.

    The contract: every structure whose size follows a request (a sieve, a
    prime list, a row, the pending positions of the primes above 47 an f(n)
    scan has met, a list of interval sums or rendered rows) is counted before
    any of it is built, or, for the scan, before each prime's position is
    stored.
    It is counted at a measured number of bytes per unit, so the count
    covers the tracemalloc peak of building it, temporaries and copies
    included. It must fit in ``DEFAULT_MEMORY_BUDGET`` bytes, which is read
    at call time. A need of exactly the budget fits; one byte more raises
    ResourceLimitError with the message "<what> needs ~<need> bytes; budget
    is <budget>", or, for a need too long for Python to print, "<what>
    needs ~a <d>-digit number of bytes; budget is <budget>".
    """
    if need_bytes > DEFAULT_MEMORY_BUDGET:
        raise ResourceLimitError(
            f"{what} needs ~{_count(need_bytes)} bytes; budget is {DEFAULT_MEMORY_BUDGET}"
        )


def _number(n: int) -> str:
    """``n`` in digits, or "a <d>-digit number" if it has more digits than
    Python's int-to-str limit allows."""
    try:
        return f"{n}"
    except ValueError:
        return f"a {_digits(n)}-digit number"


def _count(n: int) -> str:
    """``_number(n)`` before a plural: "a <d>-digit number of" past the limit."""
    text = _number(n)
    return text if text[-1].isdigit() else f"{text} of"


def _digits(value: int) -> int:
    """The exact number of decimal digits of an int (0 for 0), counted
    without ``str``, which Python refuses past its int-to-str limit."""
    value = abs(value)
    digits = int((value.bit_length() - 1) * math.log10(2))  # at most the count
    while value >= 10**digits:
        digits += 1
    return digits


def _str_digits_limit() -> int:
    """The most decimal digits Python's int-to-str conversion allows, read
    at call time: 0 when there is no limit, as before Python 3.11."""
    return getattr(sys, "get_int_max_str_digits", int)()
