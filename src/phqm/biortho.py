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
DEGENERACY_TOL = 1e-10   # |a_m - a_n| / max |a| at or below which a cluster may be orthonormalized


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
    nonreal = np.flatnonzero(~real)
    # row a: |a_b - conj(a_a)| over the nonreal b; column b turns inf once b is taken
    distance = np.abs(values[nonreal][None, :] - np.conj(values[nonreal])[:, None])
    for a, i in enumerate(nonreal.tolist()):
        if partner[i] >= 0:
            continue
        distance[:, a] = np.inf
        b = int(np.argmin(distance[a]))  # the first index wins a tie
        if distance[a, b] <= tol:
            partner[i], partner[nonreal[b]] = nonreal[b], i
            distance[:, b] = np.inf
    return partner


def biorthonormal_extension(eig: EigenDecomposition) -> BiorthonormalSystem:
    """The biorthonormal system psi = V, phi = (V^-1)^dagger of ``eig``, its
    own V^-1 reused; DefectiveOperatorError at a numerical exceptional point.

    Gauge within a degenerate eigenspace: in each cluster |a_m - a_n| <=
    DEGENERACY_TOL max |a|, V_b = QR becomes Q, and V^-1_b becomes R V^-1_b,
    only when the cluster's spread times |R^-1|_2 is within that tolerance,
    so Q is still an eigenbasis; nearly equal eigenvalues of a non-normal H
    keep their vectors as computed.
    """
    if eig.inverse is None or not eig.diagonalizable:
        raise DefectiveOperatorError(f"eigenvector matrix condition {eig.condition:.3e} "
                                     f"exceeds threshold {CONDITION_THRESHOLD:.1e}")
    values, psis, inverse = eig.values, eig.right_vectors, eig.inverse
    tol = DEGENERACY_TOL * _scale(values)
    close = np.abs(values[:, None] - values[None, :]) <= tol
    np.fill_diagonal(close, False)
    used = ~close.any(axis=1)  # a value with no close partner needs no gauge
    if not used.all():
        psis, inverse = psis.copy(), inverse.copy()
    for i in np.flatnonzero(~used).tolist():
        # every j < i close to i is used by now, so these are the later ones
        block = [i, *np.flatnonzero(close[i] & ~used).tolist()]
        if used[i] or len(block) < 2:  # i, or each of its partners, joined an earlier cluster
            continue
        used[block] = True
        q, r = np.linalg.qr(psis[:, block])
        spread = np.abs(values[block] - values[i]).max()
        if spread <= tol * np.linalg.svd(r, compute_uv=False)[-1]:
            psis[:, block], inverse[block] = q, r @ inverse[block]
    return BiorthonormalSystem(values, psis, dagger(inverse), _match_conjugate_pairs(values))
