"""Biorthonormal systems {(psi_n, phi_n)} built from an eigendecomposition.

The left family is phi = (Psi^{-1})^dagger, so <phi_m|psi_n> = delta_mn and
sum_n |psi_n><phi_n| = I hold by construction up to conditioning.  Nonreal
eigenvalues are matched into conjugate pairs, which later feeds the paired
pseudo-metric construction.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .errors import DefectiveOperatorError
from .linalg import CONDITION_THRESHOLD, EigenDecomposition, dagger

PAIR_TOL = 1e-8          # |Im a| / max |a| at or below which an eigenvalue counts as real
DEGENERACY_TOL = 1e-10   # |a_m - a_n| / max |a| at or below which a block is orthonormalized


class BiorthonormalSystem(Record):
    """Eigenvalues with right vectors psi_n and left-system vectors phi_n.

    partner[n] is n when a_n is treated as real, the index of its
    conjugate-pair partner for a nonreal a_n, and -1 when none was matched.
    """

    values: np.ndarray
    psis: np.ndarray
    phis: np.ndarray
    partner: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.values)

    @property
    def all_real(self) -> bool:
        return bool(np.all(self.partner == np.arange(self.dim)))

    def real_indices(self) -> np.ndarray:
        return np.flatnonzero(self.partner == np.arange(self.dim))

    def unpaired_indices(self) -> np.ndarray:
        return np.flatnonzero(self.partner == -1)


def _scale(values: np.ndarray) -> float:
    """max |a|, the scale of the spectral tolerances, so H and cH share verdicts."""
    return float(np.abs(values).max(initial=0.0))


def _match_conjugate_pairs(values: np.ndarray) -> np.ndarray:
    """partner: n where |Im a_n| <= PAIR_TOL max |a|, else greedy
    nearest-conjugate matching, ties broken by index order, and -1 unmatched."""
    tol = PAIR_TOL * _scale(values)
    real = np.abs(values.imag) <= tol
    partner = np.where(real, np.arange(len(values)), -1)
    unused = set(np.flatnonzero(~real).tolist())
    for i in np.flatnonzero(~real).tolist():
        if i not in unused:
            continue
        unused.discard(i)
        target = np.conj(values[i])
        best, best_dist = -1, np.inf
        for j in sorted(unused):
            d = abs(values[j] - target)
            if d < best_dist - 1e-15:
                best, best_dist = j, d
        if best >= 0 and best_dist <= tol:
            partner[i], partner[best] = best, i
            unused.discard(best)
    return partner


def _orthonormalize_degenerate_blocks(values: np.ndarray, psis: np.ndarray, tol: float):
    """Gram-Schmidt (QR) within numerically degenerate eigenvalue clusters.

    Gauge choice for repeated eigenvalues; leaves nondegenerate columns
    untouched.  Returns ``psis`` itself when no cluster exists, else a new array.
    """
    close = np.abs(values[:, None] - values[None, :]) <= tol * _scale(values)
    np.fill_diagonal(close, False)
    if not close.any():  # no cluster at all, the usual case
        return psis
    psis = psis.copy()
    used = np.zeros(len(values), dtype=bool)
    for i in range(len(values)):
        if used[i]:
            continue
        # every j < i is used by now, so these are the later unused j close to i
        block = [i, *np.flatnonzero(close[i] & ~used).tolist()]
        used[block] = True
        if len(block) > 1:
            q, _ = np.linalg.qr(psis[:, block])
            psis[:, block] = q
    return psis


def require_basis(eig: EigenDecomposition) -> EigenDecomposition:
    """``eig``, or the one DefectiveOperatorError if its V is no basis."""
    if not eig.diagonalizable:
        raise DefectiveOperatorError(f"eigenvector matrix condition {eig.condition:.3e} "
                                     f"exceeds threshold {CONDITION_THRESHOLD:.1e}")
    return eig


def biorthonormal_extension(eig: EigenDecomposition) -> BiorthonormalSystem:
    """Extend right eigenvectors to a complete biorthonormal system, reusing
    the decomposition's V^-1 unless a degenerate block was re-orthonormalized."""
    require_basis(eig)
    psis = _orthonormalize_degenerate_blocks(eig.values, eig.right_vectors, DEGENERACY_TOL)
    return _system(eig.values, psis, eig.inverse if psis is eig.right_vectors else None)


def _system(values, psis, inverse=None) -> BiorthonormalSystem:
    """The system of the right eigenvectors ``psis``, normalized as given;
    phi = (Psi^-1)^dagger from ``inverse`` when it holds Psi^-1."""
    values = np.asarray(values, dtype=complex)
    psis = np.asarray(psis, dtype=complex)
    phis = dagger(np.linalg.inv(psis) if inverse is None else inverse)
    return BiorthonormalSystem(values, psis, phis, _match_conjugate_pairs(values))
