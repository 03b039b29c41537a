"""Metric operators, the grading operator, and Hermitian representations.

Spectral constructions from a biorthonormal system:

    eta_+      = sum_n |phi_n><phi_n|                 (positive metric)
    eta_sigma  = sum_n sigma_n |phi_n><phi_n| + conjugate-pair terms
    C_sigma    = sum_n sigma_n |psi_n><phi_n|

and the similarity bundle (H, eta_+, rho = sqrt(eta_+), h = rho H rho^-1).

Pseudo-Hermiticity eta H = H^dagger eta is read one way, as the backward
error |eta H - H^dagger eta|_2 / (|eta|_2 |H|_2) on eta's Hermitian part.
No residual forms eta^-1: towards an exceptional point cond(eta) grows
without bound, and an identity read through eta^-1 would measure how the
inverse rounds rather than whether H meets it.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .biortho import BiorthonormalSystem
from .errors import (
    ComplexSpectrumError,
    InputError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NotPseudoHermitianError,
    SingularOperatorError,
    UnpairedComplexEigenvalueError,
)
from .linalg import (as_matrix, binade, dagger, is_hermitian, norm_ratio_above, opnorm,
                     over_binade)

PSEUDO_HERMITICITY_TOL = 1e-8


class MetricOperator(Record):
    """Hermitian invertible eta of a metric <.|eta .> or a pseudo-metric,
    built unchecked: ``positive_metric`` decides whether it is a metric where
    an inner product is used."""

    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eta", as_matrix(self.eta))


def metric_matrix(eta, dim: int | None = None) -> np.ndarray:
    """The matrix of a metric argument: the identity of size ``dim`` for
    None, the ``eta`` of a MetricOperator, else the matrix itself;
    InputError when ``dim`` is given and the sizes differ."""
    if eta is None:
        return np.eye(dim, dtype=complex)
    m = as_matrix(eta.eta if isinstance(eta, MetricOperator) else eta)
    if dim is not None and len(m) != dim:
        raise InputError(f"eta is {len(m)}x{len(m)}, expected {dim}x{dim}")
    return m


def positive_metric(eta, dim: int | None = None):
    """(matrix, eigenvalues, eigenvectors) of a metric argument whose
    matrix is a metric: Hermitian, else NotHermitianError, with the Hermitian
    part's lowest eigenvalue above the rounding s = 4 n u |eta|_F, else
    NotPositiveDefiniteError below -s and SingularOperatorError within s."""
    eta_m = metric_matrix(eta, dim)
    if not is_hermitian(eta_m):
        raise NotHermitianError("eta must be Hermitian")
    evals, vecs = np.linalg.eigh(0.5 * (eta_m + dagger(eta_m)))
    # lambda_min and the rounding s that eta's eigenvalues carry, both over
    # eta's ``binade``, exactly: there |eta|_F is summed with finite squares
    scale = binade(eta_m)
    slack = 4 * len(eta_m) * np.finfo(float).eps * np.linalg.norm(over_binade(eta_m))
    rounding = f"{slack * scale:.3e}, the rounding of its eigenvalues"
    if evals[0] / scale < -slack:
        raise NotPositiveDefiniteError(f"eta has negative eigenvalue {evals[0]:.3e}, "
                                       f"below -{rounding}")
    if evals[0] / scale <= slack:
        raise SingularOperatorError(f"eta is numerically singular: lowest eigenvalue "
                                    f"{evals[0]:.3e} is within +-{rounding}")
    return eta_m, evals, vecs


class QuasiHermitianSystem(Record):
    """Bundle (H, eta_+, rho, h) realizing the Hermitian representation."""

    H: np.ndarray
    eta_plus: MetricOperator
    rho: np.ndarray
    rho_inv: np.ndarray
    h: np.ndarray


def _check_sigma(sigma, n_real: int) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float).ravel()
    if len(sigma) != n_real:
        raise InputError(
            f"sigma has length {len(sigma)}, expected {n_real} (one per real eigenvalue)"
        )
    if not np.all(np.isin(sigma, (-1.0, 1.0))):
        raise InputError("sigma entries must be +1 or -1")
    return sigma


def metric_from_spectrum(bs: BiorthonormalSystem) -> MetricOperator:
    """eta_+ = sum_n |phi_n><phi_n|, the sigma = (+1, ..., +1) pseudo-metric;
    needs an all-real spectrum."""
    if not bs.all_real:
        raise ComplexSpectrumError(
            "spectrum has nonreal eigenvalues; no positive-definite metric exists"
        )
    return pseudo_metric_family(bs, np.ones(bs.dim))


def pseudo_metric_family(bs: BiorthonormalSystem, sigma) -> MetricOperator:
    """Pseudo-metric with arbitrary signs on the real sector and the
    off-diagonal pairing |phi_nu><phi_-nu| + h.c. on conjugate pairs."""
    unpaired = bs.unpaired_indices()
    if len(unpaired) > 0:
        raise UnpairedComplexEigenvalueError(
            f"eigenvalues at indices {unpaired.tolist()} have no conjugate partner"
        )
    real_idx = bs.real_indices()
    sigma = _check_sigma(sigma, len(real_idx))

    # eta = phis @ w^dagger, w = phis with sigma on the real columns and
    # each conjugate pair's columns swapped
    signs = np.ones(bs.dim)
    signs[real_idx] = sigma
    eta = bs.phis @ dagger(bs.phis[:, bs.partner] * signs[None, :])
    return MetricOperator(0.5 * (eta + dagger(eta)))


def charge_operator(bs: BiorthonormalSystem, sigma) -> np.ndarray:
    """Grading operator C_sigma = sum_n sigma_n |psi_n><phi_n|."""
    if not bs.all_real:
        raise ComplexSpectrumError("charge operator requires a real spectrum")
    sigma = _check_sigma(sigma, bs.dim)
    return (bs.psis * sigma[None, :]) @ dagger(bs.phis)


def _scaled_commutator(h: np.ndarray, eta: np.ndarray):
    """(X, eta^, H^) with X = eta^ H^ - (eta^ H^)^dagger, the one place eta H is
    formed: H^ and eta^ (Hermitian part) are over their ``binade``s, exactly."""
    h, eta = over_binade(h), over_binade(eta)
    eta = 0.5 * (eta + dagger(eta))
    eta_h = eta @ h
    return eta_h - dagger(eta_h), eta, h


def pseudo_hermiticity_residual(h, eta) -> float:
    """Backward error |eta H - H^dagger eta|_2 / (|eta|_2 |H|_2) of a metric
    argument eta, on its Hermitian part; a singular eta is ``positive_metric``'s
    to reject."""
    h = as_matrix(h)
    x, eta, h = _scaled_commutator(h, metric_matrix(eta, len(h)))
    return opnorm(x) / max(np.abs(np.linalg.eigvalsh(eta)).max() * opnorm(h), 1e-300)


def build_system(h_op, eta) -> QuasiHermitianSystem:
    """Assemble (H, eta_+, rho, h) after certifying the inputs.

    ``positive_metric`` certifies eta, and its one ``eigh`` gives |eta|_2 =
    lambda_max, rho and rho^-1.  NotPseudoHermitianError when the backward
    error of ``pseudo_hermiticity_residual`` exceeds PSEUDO_HERMITICITY_TOL,
    decided by ``norm_ratio_above`` on its scaled commutator; h at unit scale.
    """
    H = as_matrix(h_op)
    eta_m, evals, vecs = positive_metric(eta, len(H))
    # over eta's binade, a power of four: |eta^|_2 = lam[-1], rho = rho^ unit
    unit = np.sqrt(binade(eta_m))
    lam = evals / unit**2
    x, _, h_unit = _scaled_commutator(H, eta_m)
    residual = norm_ratio_above(x, h_unit, PSEUDO_HERMITICITY_TOL * lam[-1])
    if residual is not None:
        raise NotPseudoHermitianError(f"pseudo-Hermiticity residual {residual / lam[-1]:.3e} "
                                      f"exceeds tol {PSEUDO_HERMITICITY_TOL:.1e}")
    root = np.sqrt(lam)
    rho = (vecs * root) @ dagger(vecs)
    rho_inv = (vecs / root) @ dagger(vecs)
    rho, rho_inv = 0.5 * (rho + dagger(rho)), 0.5 * (rho_inv + dagger(rho_inv))
    h = binade(H) * (rho @ h_unit @ rho_inv)
    return QuasiHermitianSystem(H, MetricOperator(eta_m), rho * unit, rho_inv / unit, h)


def observable_map(o, sys: QuasiHermitianSystem) -> np.ndarray:
    """Physical observable O = rho^-1 o rho from a Hermitian o."""
    o = as_matrix(o)
    if not is_hermitian(o):
        raise NotHermitianError("observable source must be Hermitian")
    return sys.rho_inv @ o @ sys.rho
