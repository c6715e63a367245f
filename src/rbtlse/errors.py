"""Exception taxonomy shared by the solvers and the conditioning module."""

__all__ = [
    "RbtlseError", "DimensionMismatch", "AssumptionViolated",
    "GapConditionFailed", "BlockNotInvertible", "DegenerateSpectrum",
    "ConditioningUndefined", "FactorizationFailed", "NonFiniteInput",
    "FileFormatError",
]


class RbtlseError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(RbtlseError):
    """Operands have incompatible shapes."""


class AssumptionViolated(RbtlseError):
    """A structural precondition of the solver does not hold.

    Raised when the data matrix is not tall enough for the reduced problem
    or when the stacked constraint block is numerically rank deficient.
    """


class GapConditionFailed(RbtlseError):
    """The singular-value gap separating the trailing subspace is too small.

    Without the gap the trailing singular subspace, and with it the solution,
    is not unique; no representative is chosen.
    """


class BlockNotInvertible(RbtlseError):
    """The trailing block of the partitioned singular vectors is too
    ill-conditioned to invert."""


class DegenerateSpectrum(RbtlseError):
    """The smallest retained singular value is not strictly positive."""


class ConditioningUndefined(RbtlseError):
    """A factor needed by the condition number is singular."""


class FactorizationFailed(RbtlseError):
    """A LAPACK factorization or solve inside a solver failed (for
    example, an SVD that did not converge)."""


class NonFiniteInput(RbtlseError):
    """A data block holds nan or inf."""


class FileFormatError(RbtlseError):
    """A matrix file does not conform to the RBMAT v1 layout."""
