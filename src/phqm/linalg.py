"""Dense complex linear-algebra primitives shared by every module.

All tolerances are relative to the spectral norm of the input operator.
A gate that compares a spectral norm with such a tolerance is decided by
``norm_ratio_above``, which first tries a certified bound: since
|X|_2 <= |X|_F and |M|_2 >= |M|_F / sqrt(n), the cheap test
|X|_F <= c |M|_F / sqrt(n) proves |X|_2 <= c |M|_2.  Only when that test
is inconclusive are the two exact norms (one SVD each) computed, so every
gate decides as the exact comparison would, and a failing gate reports the
exact ratio.

Eigenpairs follow a deterministic convention: eigenvalues sorted by
(real part, imaginary part), and each eigenvector phase-fixed so that its
largest-magnitude entry is real and positive.  Real-dtype input goes to real
LAPACK (dgeev); the dtype decides, not the values.  A decomposition reports
whether cond(V) < 1e12, by the kappa bound sqrt(n) |V^-1|_F, then by an SVD;
``biortho.biorthonormal_extension`` is the one place that rejects it.  No
eigenpair residual is formed here: the ``diagnose`` command's gate is its
one reading, and a wrong eigenvalue fails the gates of the commands that use
it, as a residual failure.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ._record import Record
from .errors import InputError, NotHermitianError, SpectrumOutOfDomainError

DEFAULT_TOL = 1e-10
CONDITION_THRESHOLD = 1e12


def as_matrix(a) -> np.ndarray:
    """Coerce to a non-empty square, finite complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix has non-finite entries")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(a.T)


def opnorm(a: np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(a, 2))


def norm_ratio_above(x: np.ndarray, m: np.ndarray, bound: float) -> float | None:
    """|x|_2 / max(|m|_2, 1e-300) when it exceeds ``bound``, else None.

    The Frobenius certificate settles the passing case without an SVD; the
    factor 1 - 1e-9 keeps it sound under the rounding of both norms, and
    outside (1e-140, inf) the squares summed by either norm may over- or
    underflow, so the exact norms decide there.
    """
    with np.errstate(over="ignore", under="ignore"):
        x_fro, m_fro = np.linalg.norm(x), np.linalg.norm(m)
    limit = (1 - 1e-9) * bound * m_fro / np.sqrt(max(min(m.shape), 1))
    if 1e-140 < limit < np.inf and x_fro <= limit:
        return None
    scale = max(opnorm(m), 1e-300)
    x_norm = opnorm(x)
    return x_norm / scale if x_norm > bound * scale else None


def binade(a) -> float:
    """The greatest power of four at or below max |a| > 0: dividing by it, or
    by its square root, is exact and leaves max |a| in [1, 4), so a quantity
    of degree 0 in ``a`` keeps every bit while its products stay finite.  A
    power of four above max |a| would not exist for max |a| >= 4**511."""
    e = np.frexp(np.abs(a).max())[1] - 1
    return np.ldexp(1.0, e - e % 2)


def over_binade(a) -> np.ndarray:
    """a / binade(a), exact at every finite scale: the real view is divided,
    since numpy divides a complex array through the reciprocal of the divisor,
    which overflows once the binade is subnormal."""
    a = np.ascontiguousarray(a, dtype=complex)
    return (a.view(float) / binade(a)).view(complex)


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return norm_ratio_above(a - dagger(a), a, tol) is None


def fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    size = np.abs(pivots)
    return vectors * np.divide(size, pivots, out=np.ones_like(pivots), where=size > 0)


class EigenDecomposition(Record):
    """Eigenpairs of a general complex matrix.

    values sorted by (real, imag); right_vectors V with unit, phase-fixed columns;
    inverse V^-1 if computed; condition, the exact cond(V), costs an SVD when read.
    """

    values: np.ndarray
    right_vectors: np.ndarray
    inverse: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.values)

    @cached_property
    def condition(self) -> float:
        return float(np.linalg.cond(self.right_vectors))

    @cached_property
    def diagonalizable(self) -> bool:
        """cond(V) < CONDITION_THRESHOLD; sqrt(n) |V^-1|_F >= cond(V) decides if clear
        of the n u cond(V) by which the inverse and the SVD each err."""
        n = self.dim
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.inf if self.inverse is None else np.sqrt(n) * np.linalg.norm(self.inverse)
            certified = bound * (1 + 10 * n * np.finfo(float).eps * bound) < CONDITION_THRESHOLD
        return bool(certified) or self.condition < CONDITION_THRESHOLD


def eig_nonhermitian(a) -> EigenDecomposition:
    """Eigendecomposition of a general matrix; real dtype goes to real LAPACK.

    It only decomposes: a numerical exceptional point is reported, through
    ``diagonalizable`` and ``condition``, each computed when read, and the
    eigenpairs are not checked against A.
    """
    m = as_matrix(a)
    values, vectors = np.linalg.eig(m.real if np.isrealobj(a) else m)
    order = np.lexsort((values.imag, values.real))
    values = values[order].astype(complex)
    vectors = fix_phases(vectors[:, order].astype(complex, copy=False))

    try:
        return EigenDecomposition(values, vectors, np.linalg.inv(vectors))
    except np.linalg.LinAlgError:
        return EigenDecomposition(values, vectors)


def hermitian_function(h, f) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    f is evaluated on the real eigenvalues; non-finite values mean the
    spectrum leaves the domain of f (e.g. sqrt of a non-positive-definite
    matrix) and raise SpectrumOutOfDomainError.
    """
    m = as_matrix(h)
    if not is_hermitian(m):
        raise NotHermitianError("input is not Hermitian within tolerance")
    values, vectors = np.linalg.eigh(m)
    with np.errstate(all="ignore"):
        fvals = np.asarray(f(values))
    if not np.all(np.isfinite(fvals)):
        raise SpectrumOutOfDomainError(
            "function returned non-finite values on the spectrum"
        )
    result = (vectors * fvals[None, :]) @ dagger(vectors)
    if np.isrealobj(fvals) or np.all(np.abs(fvals.imag) == 0):
        result = 0.5 * (result + dagger(result))
    return result


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise InputError(f"shapes {ma.shape} and {mb.shape} differ")
    return ma @ mb - mb @ ma
