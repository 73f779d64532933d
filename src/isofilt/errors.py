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

    A sampled retry on the same module need not split it again: the
    isoclinic decomposition that showed the multiplicity is stored on the
    module (see ``isocrystal.slopes``).
    """


class FieldIncompatibilityError(IsofiltError):
    """A required root of unity cannot live in any unramified extension."""


class NotFiniteOrderError(IsofiltError):
    """Input matrix is not of (known, bounded) finite order."""


class InternalContradictionError(IsofiltError):
    """A dichotomy that is a theorem for valid inputs failed; either the
    input violated a precondition or there is a bug."""


class ValidationError(IsofiltError):
    """Structured input failed its invariants."""
