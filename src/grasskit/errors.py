"""Exception types shared across the kernel.

Every error the library raises on bad input derives from GrasskitError,
so callers (the CLI included) can catch one base class and map it to a
stable, printable name via ``type(exc).__name__``.
"""

from __future__ import annotations

__all__ = [
    "GrasskitError",
    "RankMismatch",
    "IndexOutOfRange",
    "NonCanonicalRank",
    "NotInvertible",
    "NotOdd",
    "NotHomogeneous",
    "NoOddSector",
    "DomainMismatch",
    "NotClosed",
    "ParityViolation",
    "BudgetExceeded",
    "InternalCheckFailed",
    "ParseError",
]


class GrasskitError(Exception):
    """Base class for all kernel errors."""


class RankMismatch(GrasskitError):
    """Operands declare different ambient ranks."""


class IndexOutOfRange(GrasskitError):
    """A generator index falls outside the declared rank or dimension."""


class NonCanonicalRank(GrasskitError):
    """A rank or dimension is negative."""


class NotInvertible(GrasskitError):
    """The element has zero constant term, hence no inverse."""


class NotOdd(GrasskitError):
    """An image that must be odd-homogeneous contains an even monomial."""


class NotHomogeneous(GrasskitError):
    """A value that must be parity-homogeneous mixes parities."""


class NoOddSector(GrasskitError):
    """The subalgebra's odd part is trivial."""


class DomainMismatch(GrasskitError):
    """Values belong to different superdomains."""


class NotClosed(GrasskitError):
    """The form is not annihilated by the differential."""


class ParityViolation(GrasskitError):
    """A value breaks a declared parity constraint."""


class BudgetExceeded(GrasskitError):
    """A size cap was reached before the computation finished."""


class InternalCheckFailed(GrasskitError):
    """A self-check of a computed result failed: a fault in the kernel,
    not in the input."""


class ParseError(GrasskitError):
    """Malformed expression text.

    ``position`` is the 0-based offset into the source text where the
    problem was detected, when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
