"""Exception taxonomy shared by all ergokit modules."""


class ErgokitError(Exception):
    """Base class for all ergokit errors."""


class ValidationError(ErgokitError):
    """Input fails a structural or numerical validity check."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible dimensions."""


class NotHermitianError(ValidationError):
    """Matrix is not Hermitian within the requested tolerance."""


class NotUnitaryError(ValidationError):
    """Matrix is not unitary within the requested tolerance."""


class NotDiagonalError(ValidationError):
    """State has off-diagonal weight where a diagonal state is required."""


class NoConvergenceError(ErgokitError):
    """Numerical failure: an iterative solver exhausted its sweep budget,
    or a result failed its own consistency check."""


class TargetOutOfRangeError(ValidationError):
    """Requested entropy target lies outside [0, ln d]."""


class CapExceededError(ErgokitError):
    """Requested enumeration is larger than the configured cap.

    Attributes carry enough context for callers to report what was
    feasible: ``required`` (the size that was asked for), ``cap``, and,
    when raised mid-computation, ``largest_feasible_n`` plus ``partial``
    (the result restricted to the feasible range).
    """

    def __init__(self, message, required=None, cap=None,
                 largest_feasible_n=None, partial=None):
        super().__init__(message)
        self.required = required
        self.cap = cap
        self.largest_feasible_n = largest_feasible_n
        self.partial = partial
