"""Perturbative metric eta_+ = exp(-Q) for H = H0 + eps*H1.

The exponent solves the commutator hierarchy [H0, Q_j] = R_j with
R_1 = -2 H1 and higher R_j assembled from nested commutators of H0 with
the lower Q_s, read from one table that a plain loop over the orders
extends in H0's eigenbasis; even-order Q_j are set to zero, which the
hierarchy permits.  Everything acts on finite matrix truncations.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import factorial

import numpy as np

from ._record import Record
from .linalg import as_matrix, commutator, dagger, hermitian_function, is_hermitian, opnorm
from .metric import MetricOperator, pseudo_hermiticity_residual
from .errors import InputError, NotHermitianError, UnsolvableCommutatorError

DEGENERACY_TOL = 1e-9
HERMITICITY_TOL = 1e-9  # how far H0 and i H1 may be from Hermitian


class PerturbationProblem(Record):
    """H0 Hermitian, H1 anti-Hermitian, expansion parameter and max order."""

    H0: np.ndarray
    H1: np.ndarray
    epsilon: float
    order: int

    def __post_init__(self):
        H0 = as_matrix(self.H0)
        H1 = as_matrix(self.H1)
        if H0.shape != H1.shape:
            raise InputError("H0 and H1 must share a shape")
        if not is_hermitian(H0, HERMITICITY_TOL):
            raise NotHermitianError("H0 must be Hermitian")
        if not is_hermitian(1j * H1, HERMITICITY_TOL):
            raise NotHermitianError("H1 must be anti-Hermitian")
        if self.order < 1 or self.order % 2 == 0:
            raise InputError("order must be a positive odd integer")
        object.__setattr__(self, "H0", H0)
        object.__setattr__(self, "H1", H1)


class QSeries(Record):
    """Map j -> Hermitian Q_j; even orders are stored as zero matrices."""

    terms: dict

    def exponent(self, epsilon: float) -> np.ndarray:
        """Q(eps) = sum_j eps^j Q_j."""
        dim = self.terms[1].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for j, qj in self.terms.items():
            total += (epsilon ** j) * qj
        return total


def _eigenbasis(h0: np.ndarray):
    """H0's eigenvectors U, gaps E_m - E_n and degenerate blocks |E_m - E_n| <=
    DEGENERACY_TOL max |E| (a scale H0 and c H0 share), from its Hermitian part."""
    energies, basis = np.linalg.eigh(0.5 * (h0 + dagger(h0)))
    gaps = energies[:, None] - energies[None, :]
    return basis, gaps, np.abs(gaps) <= DEGENERACY_TOL * float(np.max(np.abs(energies)))


def _divide_gaps(r_tilde: np.ndarray, gaps: np.ndarray, degenerate: np.ndarray) -> np.ndarray:
    """Q~ = R~ / gaps off the degenerate blocks and zero on them (minimal-norm
    gauge); a nonzero R~ entry on a block, against |R~|_2 = |R|_2, has no solution."""
    blocked = np.abs(r_tilde[degenerate])
    if blocked.size and blocked.max() > 1e-8 * max(opnorm(r_tilde), 1e-300):
        raise UnsolvableCommutatorError("R has a nonzero entry on a degenerate block of H0 "
                                        f"(max {blocked.max():.3e})")
    q_tilde = np.zeros_like(r_tilde)
    np.divide(r_tilde, gaps, out=q_tilde, where=~degenerate)
    return q_tilde


def solve_commutator(h0, r) -> np.ndarray:
    """Solve [H0, Q] = R for Hermitian H0 in its eigenbasis: Q~_mn = R~_mn / (E_m - E_n)."""
    H0, R = as_matrix(h0), as_matrix(r)
    if H0.shape != R.shape:
        raise InputError("H0 and R must share a shape")
    basis, gaps, degenerate = _eigenbasis(H0)
    return basis @ _divide_gaps(dagger(basis) @ R @ basis, gaps, degenerate) @ dagger(basis)


@lru_cache(maxsize=None)
def _q_coefficient(k: int) -> float:
    """q_k of the recursion, the t^k coefficient of -2 tanh(t/2): 0 for even k and, for odd
    k, -2 (-1)^((k-1)/2) T_k / (k! 2^k), the tangent number T_k from an integer Seidel triangle."""
    if k % 2 == 0:
        return 0.0
    row = [1]
    for _ in range(k):
        row = list(accumulate(reversed(row), initial=0))
    return -2 * (-1) ** (k // 2) * row[-1] / (factorial(k) * 2**k)


def q_series(prob: PerturbationProblem) -> QSeries:
    """Solve the hierarchy up to prob.order, odd orders only, in H0's eigenbasis.

    R_1 = -2 H1 and R_j = sum_k q_k Z[k, j] for odd j >= 3, where Z[k, m]
    is the sum of the k-fold nested commutators [[H0, Q_s1], ..., Q_sk]
    over odd s_1 + ... + s_k = m (Q_even = 0 removes every other
    composition).  Every order reads Z from one table built by the
    recursion Z[k, m] = sum_s [Z[k-1, m-s], Q_s] from Z[1, m] = [H0, Q_m],
    so each nested commutator is formed once.  The table lives in H0's
    eigenbasis, found once: there [H0, Q~_m] = gaps * Q~_m, elementwise.
    """
    basis, gaps, degenerate = _eigenbasis(prob.H0)
    q_tilde, z = {}, {}  # j -> Q~_j and (k, m) -> Z[k, m], both in the eigenbasis
    for j in range(1, prob.order + 1, 2):
        if j == 1:
            rhs = -2.0 * (dagger(basis) @ prob.H1 @ basis)
        else:
            # columns m = j - 1 (even k) and m = j (odd k >= 3) of the
            # table need Q_s for s <= j - 2 only
            for k in range(2, j + 1):
                m = j if k % 2 else j - 1
                z[k, m] = sum(commutator(z[k - 1, m - s], q_tilde[s])
                              for s in range(1, m - k + 2, 2))
            rhs = sum(_q_coefficient(k) * z[k, j] for k in range(3, j + 1, 2))
        qj = _divide_gaps(rhs, gaps, degenerate)
        q_tilde[j] = qj = 0.5 * (qj + dagger(qj))
        z[1, j] = gaps * qj
    return QSeries({j: basis @ q_tilde[j] @ dagger(basis) if j % 2
                    else np.zeros_like(basis) for j in range(1, prob.order + 1)})


def metric_from_q(qs: QSeries, epsilon: float) -> MetricOperator:
    """eta_+ = exp(-Q(eps)); positive-definite by construction."""
    q_total = qs.exponent(epsilon)
    eta = hermitian_function(q_total, lambda x: np.exp(-x))
    return MetricOperator(eta)


def metric_residual(prob: PerturbationProblem, qs: QSeries, epsilon: float) -> float:
    """``pseudo_hermiticity_residual`` of H = H0 + eps H1 and e^-Q at the given epsilon."""
    return pseudo_hermiticity_residual(prob.H0 + epsilon * prob.H1, metric_from_q(qs, epsilon))


def ladder_operators(n_max: int):
    """(a, a_dagger) in the n_max-dim truncation."""
    n = np.arange(1, n_max)
    a = np.zeros((n_max, n_max), dtype=complex)
    a[n - 1, n] = np.sqrt(n)
    return a, a.T.conj()
