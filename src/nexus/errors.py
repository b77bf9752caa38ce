"""Exception hierarchy shared by every nexus module.

Each error carries a machine-readable ``code`` (the class name) and an
optional ``detail`` dict so the CLI can emit structured error records.
"""

from __future__ import annotations


class NexusError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, **detail):
        super().__init__(message)
        self.message = message
        self.detail = detail

    @property
    def code(self) -> str:
        return type(self).__name__

    def record(self) -> dict:
        rec = {"error": self.code, "message": self.message}
        if self.detail:
            rec.update(self.detail)
        return rec


class ParseError(NexusError):
    """Malformed input text; detail carries the offending line number."""


class EmptyInput(NexusError):
    """A dataset build received no atoms."""


class NotGround(NexusError):
    """A dataset build received an atom containing a variable."""


class ArityConflict(NexusError):
    """A predicate was used with two different arities."""


class NotClosed(NexusError):
    """A structure offered as a dataset is not closed under top."""


class TupleOutsideDomain(NexusError):
    """A tuple mentions a constant outside the dataset domain."""


class SelectorViolation(NexusError):
    """A summary selector returned a set violating its contract."""


class EmptyUnit(NexusError):
    """A unit must contain at least one tuple."""


class MixedArity(NexusError):
    """Tuples of different arities in one unit."""


class NotProper(NexusError):
    """A unit whose rows produce a duplicate column."""


class UnknownConstant(NexusError):
    """A unit tuple mentions a constant not in the dataset."""


class ArityMismatch(NexusError):
    """Two formulas of different arities where equal arities are required."""


class BudgetExceeded(NexusError):
    """The homomorphism search exceeded its node budget."""


class TooLarge(NexusError):
    """A brute-force oracle refused an input beyond its enumeration guard."""


class TupleSpaceTooLarge(NexusError):
    """|domain|^arity exceeds the expansion-graph tuple cap."""


class OverlapWithUnit(NexusError):
    """A comparison tuple may not belong to the unit itself."""


class ReservedSymbolCollision(NexusError):
    """Input uses a predicate or constant reserved for gadget encodings."""


class InvariantViolation(NexusError):
    """A result failed one of the engine's own consistency checks: a bug,
    reported as an error record rather than a traceback."""
