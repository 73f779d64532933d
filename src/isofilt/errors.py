"""Exception types shared across the package."""


class IsofiltError(Exception):
    """Base class for all package errors."""


class PrecisionError(IsofiltError):
    """A certified decision could not be made at the working precision.

    Callers are expected to retry with a higher precision cap (typically
    doubled), up to a configured ceiling.
    """


class BudgetExhaustedError(IsofiltError):
    """A randomized search ran out of budget; retry with a larger budget."""


class MultiplicityError(IsofiltError):
    """Exact submodule enumeration requires multiplicity-free input.

    ``components`` carries the isoclinic decomposition that showed the
    multiplicity, so that a sampled retry need not compute it again.
    """

    def __init__(self, message, components=None):
        super().__init__(message)
        self.components = components


class FieldIncompatibilityError(IsofiltError):
    """A required root of unity cannot live in any unramified extension."""


class NotFiniteOrderError(IsofiltError):
    """Input matrix is not of (known, bounded) finite order."""


class InternalContradictionError(IsofiltError):
    """A dichotomy that is a theorem for valid inputs failed; either the
    input violated a precondition or there is a bug."""


class ValidationError(IsofiltError):
    """Structured input failed its invariants."""
