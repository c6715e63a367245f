"""Exception taxonomy shared by the solvers and the conditioning module."""

__all__ = [
    "RbtlseError", "DimensionMismatch", "AssumptionViolated",
    "GapConditionFailed", "BlockNotInvertible", "ConditioningUndefined",
    "FactorizationFailed", "NonFiniteInput", "FileFormatError",
]


class RbtlseError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(RbtlseError):
    """Operands have incompatible shapes."""


class AssumptionViolated(RbtlseError):
    """A structural precondition of the solver does not hold.

    Raised when the stacked constraint block is numerically rank
    deficient, or when the baseline's reduced block Ac Q2 is.
    """


class GapConditionFailed(RbtlseError):
    """The singular-value gap separating the trailing subspace is too small.

    Without the gap the trailing singular subspace, and with it the solution,
    is not unique; no representative is chosen.
    """


class BlockNotInvertible(RbtlseError):
    """The trailing block of the partitioned singular vectors is too
    ill-conditioned to invert."""


class ConditioningUndefined(RbtlseError):
    """The condition number or a relative perturbation size is undefined:
    a factor it needs is singular or cannot be formed, a norm it divides
    by is zero, or the data given are not the data solved."""


class FactorizationFailed(RbtlseError):
    """A LAPACK factorization or solve inside a solver failed (for
    example, an SVD that did not converge)."""


class NonFiniteInput(RbtlseError):
    """A data block holds nan or inf."""


class FileFormatError(RbtlseError):
    """A matrix file does not conform to the RBMAT v1 layout."""
