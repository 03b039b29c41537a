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
from .linalg import EigenDecomposition, dagger

PAIR_TOL = 1e-8          # |Im a| / scale below which an eigenvalue counts as real
DEGENERACY_TOL = 1e-10   # |a_m - a_n| / scale below which a block is orthonormalized


class BiorthonormalSystem(Record):
    """Eigenvalues with right vectors psi_n and left-system vectors phi_n.

    reality_mask[n] is True when a_n is treated as real.  conj_partner[n]
    is the index of the conjugate-pair partner for nonreal eigenvalues,
    -1 for real ones, and -2 when no partner could be matched.
    """

    values: np.ndarray
    psis: np.ndarray
    phis: np.ndarray
    reality_mask: np.ndarray
    conj_partner: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.values)

    @property
    def all_real(self) -> bool:
        return bool(np.all(self.reality_mask))

    def real_indices(self) -> np.ndarray:
        return np.flatnonzero(self.reality_mask)

    def pair_indices(self) -> list[tuple[int, int]]:
        """Conjugate pairs (nu, -nu), each listed once with Im a_nu > 0."""
        pairs = []
        for n in np.flatnonzero(~self.reality_mask):
            p = self.conj_partner[n]
            if p >= 0 and self.values[n].imag > 0:
                pairs.append((int(n), int(p)))
        return pairs

    def unpaired_indices(self) -> np.ndarray:
        return np.flatnonzero((~self.reality_mask) & (self.conj_partner == -2))


def _scale(values: np.ndarray) -> float:
    """max(1, max |a|), the scale of the spectral tolerances."""
    return max(1.0, float(np.max(np.abs(values))) if len(values) else 1.0)


def reality_mask(values: np.ndarray) -> np.ndarray:
    """True where |Im a| <= PAIR_TOL max(1, max |a|): the eigenvalues treated as real."""
    return np.abs(values.imag) <= PAIR_TOL * _scale(values)


def _match_conjugate_pairs(values: np.ndarray):
    """Reality mask, then greedy nearest-conjugate matching; ties broken by index order."""
    real_mask = reality_mask(values)
    tol = PAIR_TOL * _scale(values)
    partner = np.full(len(values), -1, dtype=int)
    nonreal = [int(i) for i in np.flatnonzero(~real_mask)]
    unused = set(nonreal)
    for i in nonreal:
        if i not in unused:
            continue
        target = np.conj(values[i])
        best, best_dist = -1, np.inf
        for j in sorted(unused):
            if j == i:
                continue
            d = abs(values[j] - target)
            if d < best_dist - 1e-15:
                best, best_dist = j, d
        if best >= 0 and best_dist <= tol:
            partner[i] = best
            partner[best] = i
            unused.discard(i)
            unused.discard(best)
        else:
            partner[i] = -2
            unused.discard(i)
    return real_mask, partner


def _orthonormalize_degenerate_blocks(values: np.ndarray, psis: np.ndarray, tol: float):
    """Gram-Schmidt (QR) within numerically degenerate eigenvalue clusters.

    Gauge choice for repeated eigenvalues; leaves nondegenerate columns
    untouched.
    """
    psis = psis.copy()
    n = len(values)
    scale = _scale(values)
    # no cluster at all (the usual case): skip the O(n^2) Python scan
    gaps = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(gaps, np.inf)
    if not np.any(gaps <= tol * scale):
        return psis
    used = np.zeros(n, dtype=bool)
    for i in range(n):
        if used[i]:
            continue
        block = [i] + [
            j
            for j in range(i + 1, n)
            if not used[j] and abs(values[j] - values[i]) <= tol * scale
        ]
        used[block] = True
        if len(block) > 1:
            q, _ = np.linalg.qr(psis[:, block])
            psis[:, block] = q
    return psis


def biorthonormal_extension(eig: EigenDecomposition) -> BiorthonormalSystem:
    """Extend right eigenvectors to a complete biorthonormal system, reusing
    the decomposition's V^-1 unless a degenerate block was re-orthonormalized."""
    if not eig.diagonalizable:
        raise DefectiveOperatorError("cannot extend a defective eigendecomposition")
    values = eig.values.copy()
    psis = _orthonormalize_degenerate_blocks(values, eig.right_vectors, DEGENERACY_TOL)
    return _system(values, psis, eig.inverse if np.array_equal(psis, eig.right_vectors) else None)


def from_right_vectors(values, psis) -> BiorthonormalSystem:
    """Build a system from explicitly normalized right eigenvectors.

    For callers that fix the normalization constants c_n themselves
    instead of relying on the default phase convention.
    """
    return _system(values, psis, None)


def _system(values, psis, inverse) -> BiorthonormalSystem:
    values = np.asarray(values, dtype=complex)
    psis = np.asarray(psis, dtype=complex)
    phis = dagger(np.linalg.inv(psis) if inverse is None else inverse)
    return BiorthonormalSystem(values, psis, phis, *_match_conjugate_pairs(values))


def spectral_assembly(bs: BiorthonormalSystem) -> np.ndarray:
    """Reassemble A = sum_n a_n |psi_n><phi_n| from the system."""
    return (bs.psis * bs.values[None, :]) @ dagger(bs.phis)
