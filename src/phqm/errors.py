"""Exception types shared across the toolkit."""


class PhqmError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(PhqmError):
    """Operands have incompatible shapes."""


class DefectiveOperatorError(PhqmError):
    """Eigenvector matrix is numerically singular (exceptional point)."""


class NotHermitianError(PhqmError):
    """A Hermitian matrix was required."""


class SpectrumOutOfDomainError(PhqmError):
    """Scalar function is undefined on part of the spectrum."""


class ComplexSpectrumError(PhqmError):
    """Operation requires an all-real spectrum."""


class UnpairedComplexEigenvalueError(PhqmError):
    """A nonreal eigenvalue has no conjugate partner."""


class LengthMismatchError(PhqmError):
    """Sign sequence length disagrees with the number of real eigenvalues."""


class NotPseudoHermitianError(PhqmError):
    """Pseudo-Hermiticity residual exceeds tolerance."""


class NotPositiveDefiniteError(PhqmError):
    """Positive-definite matrix required."""


class SingularOperatorError(PhqmError):
    """Matrix is numerically singular."""


class UnsolvableCommutatorError(PhqmError):
    """Commutator equation has no solution on a degenerate block."""


class ZeroVectorError(PhqmError):
    """State vector must be nonzero."""


class IdenticalStatesError(PhqmError):
    """Initial and final states coincide; no evolution needed."""


class NonPositiveDError(PhqmError):
    """Two-level model parameter D must be positive for a metric to exist."""


class RealityViolatedError(PhqmError):
    """Coupling constraint guaranteeing a real spectrum fails."""


class NotPTSymmetricError(PhqmError):
    """Operator is not invariant under grid reversal times conjugation."""


class EigenpairsNotConvergedError(PhqmError):
    """Iterative eigensolver did not converge to resolved eigenpairs."""


class GridTooSmallError(PhqmError):
    """Grid does not resolve the eigenfunction tails."""


class UnsupportedKindError(PhqmError):
    """Unknown model or potential kind."""


class StepOverflowError(PhqmError):
    """Trajectory diverged beyond the integrator guard."""


class DegenerateStructureError(PhqmError):
    """Symplectic structure parameters are degenerate."""


class OutOfDomainError(PhqmError):
    """Coordinate outside the declared domain."""


class CFLViolationError(PhqmError):
    """Time step violates the CFL stability bound."""


class SchemaError(PhqmError):
    """Scenario file does not validate against the schema."""


class NothingToPlotError(PhqmError):
    """Result record carries no sampled curves."""
