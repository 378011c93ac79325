"""Exception types shared across the package."""


def _int_text(n: int) -> str:
    """n in decimal for an error message, or only its size beyond 4096
    bits: CPython formats no int of more than 4300 digits."""
    if n.bit_length() <= 1 << 12:
        return str(n)
    return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"


class RobinAuditError(Exception):
    """Base class for errors raised by this package."""


class DomainError(RobinAuditError):
    """An input lies outside the mathematical domain of an operation."""


class PrecisionError(RobinAuditError):
    """A certified decision could not be reached at any tried precision.

    Carries ``suggested_precision_bits``, the next precision worth trying.
    """

    def __init__(self, message: str, suggested_precision_bits: int = 0):
        super().__init__(message)
        self.suggested_precision_bits = suggested_precision_bits


class ResourceBudgetError(RobinAuditError):
    """A computation would exceed an explicit resource budget."""


class TableTooSmallError(ResourceBudgetError):
    """A prime table does not cover the primes a computation needs.

    Carries ``needed``, a value (prime bound or index) the table must cover.
    """

    def __init__(self, message: str, needed: int = 0):
        super().__init__(message)
        self.needed = needed


class CandidateFormatError(RobinAuditError):
    """A serialized candidate is malformed.  ``field`` names the bad field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class InvariantError(RobinAuditError):
    """An internal cross-check failed; indicates a bug, not bad input."""
