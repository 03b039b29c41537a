"""Exception types shared across the toolkit, each under one of three bases:
the failure class that a result record reports.
"""


class PhqmError(Exception):
    """Base class for all toolkit errors."""


class InputError(PhqmError, ValueError):
    """An input the toolkit cannot accept: malformed, mis-sized or out of range."""
    category = "input"


class DomainError(PhqmError):
    """A valid input outside the constructions' domain, e.g. an exceptional point."""
    category = "domain"


class ResidualError(PhqmError):
    """A certifying gate failed."""
    category = "residual"


class SchemaError(InputError):
    """Scenario file does not validate against the schema."""


class NotHermitianError(InputError):
    """A Hermitian matrix was required."""


class NotPositiveDefiniteError(InputError):
    """A positive-definite metric was required; eta has a negative eigenvalue."""


class DegenerateStructureError(InputError):
    """Symplectic structure parameters are degenerate."""


class DefectiveOperatorError(DomainError):
    """Eigenvector matrix is numerically singular (exceptional point)."""


class NonPositiveDError(DomainError):
    """Two-level model parameter D must be positive for a metric to exist."""


class RealityViolatedError(DomainError):
    """Coupling constraint guaranteeing a real spectrum fails."""


class ComplexSpectrumError(DomainError):
    """Operation requires an all-real spectrum."""


class UnpairedComplexEigenvalueError(DomainError):
    """A nonreal eigenvalue has no conjugate partner."""


class SpectrumOutOfDomainError(DomainError):
    """Scalar function is undefined on part of the spectrum."""


class SingularOperatorError(DomainError):
    """Matrix is numerically singular."""


class UnsolvableCommutatorError(DomainError):
    """Commutator equation has no solution on a degenerate block."""


class EigenpairsNotConvergedError(DomainError):
    """Iterative eigensolver did not converge to resolved eigenpairs."""


class GridTooSmallError(DomainError):
    """Grid does not resolve the eigenfunction tails."""


class StepOverflowError(DomainError):
    """Trajectory diverged beyond the integrator guard."""


class OutOfDomainError(DomainError):
    """Coordinate outside the declared domain."""


class NotPseudoHermitianError(ResidualError):
    """Pseudo-Hermiticity residual exceeds tolerance."""
