"""Exception types shared across the package, and the one memory guard."""

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
    prime list, a row, a ledger, a list of interval sums or rendered rows) is
    counted, at a measured number of bytes per unit, before any of it is
    built, and must fit in ``DEFAULT_MEMORY_BUDGET`` bytes, which is read at
    call time. A need of exactly the budget fits; one byte more raises
    ResourceLimitError with the message
    "<what> needs ~<need> bytes; budget is <budget>".
    """
    if need_bytes > DEFAULT_MEMORY_BUDGET:
        raise ResourceLimitError(
            f"{what} needs ~{need_bytes} bytes; budget is {DEFAULT_MEMORY_BUDGET}"
        )
