"""Projective state-space geometry and time-optimal evolutions.

Covers the two-level line element of an eta-deformed Fubini-Study metric,
the optimal-speed Hamiltonian with its minimal travel time
tau_min = hbar * s / E, a spectral propagator, fidelities and the energy
uncertainty.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .errors import InputError
from .biortho import biorthonormal_extension
from .linalg import as_matrix, binade, dagger, eig_nonhermitian, over_binade
from .metric import positive_metric

ANTIPODAL_TOL = 1e-12  # s below it: identical endpoints; |q| below it: orthogonal ones


def _states(eta=None, **states):
    """Each state, a vector or a stack of them one per row, each row's largest entry
    normal, then eta as a ``positive_metric`` (the identity when None) over its
    ``binade``: every quantity here has degree 0 in eta.  InputError unless all share one size."""
    vectors = [np.asarray(psi, dtype=complex) for psi in states.values()]
    peak = min(np.abs(v).max(axis=-1, initial=0.0).min() for v in vectors)
    if peak < np.finfo(float).tiny:
        raise InputError(f"state vector must be nonzero, its largest entry normal; got {peak:.3e}")
    eta_m = np.eye(vectors[0].shape[-1], dtype=complex) if eta is None else positive_metric(eta)[0]
    if any(v.shape[-1] != len(eta_m) for v in vectors):
        raise InputError(f"{', '.join(states)} and eta sizes differ")
    return (*vectors, over_binade(eta_m))


def _overlaps(v, w, eta_m):
    """<v|eta w>, <v|eta v>, <w|eta w> over the ``binade``s of w and v, or of each row of v,
    which matmul takes as a 1 x n matrix, as it takes one state: a row reads as that state."""
    v, w = np.apply_along_axis(over_binade, -1, v)[..., None, :], over_binade(w)
    p, nv = np.conj(v) @ eta_m @ w, np.real(np.conj(v) @ eta_m @ v.swapaxes(-1, -2))
    return p[..., 0], nv[..., 0, 0], np.real(np.conj(w) @ eta_m @ w)


def _hamiltonian(h_op, v) -> np.ndarray:
    H = as_matrix(h_op)
    if v.shape != (len(H),):
        raise InputError(f"H is {len(H)}x{len(H)}, the state's components have shape {v.shape}")
    return H


class TwoLevelLineElement(Record):
    """Coefficients of the two-level eta-deformed line element.

    ds^2 = k1 (dtheta^2 + sin^2 theta dphi^2)
           / (1 + k2 cos theta + k3 cos(phi - beta) sin theta)^2
    """

    k1: float
    k2: float
    k3: float
    beta: float

    def conformal_factor(self, theta, phi):
        """k1 / (1 + k2 cos t + k3 cos(p - beta) sin t)^2 at (theta, phi)."""
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        denom = 1.0 + self.k2 * np.cos(theta) + self.k3 * np.cos(phi - self.beta) * np.sin(theta)
        return self.k1 / denom**2


def two_level_geometry(eta) -> TwoLevelLineElement:
    """Line-element coefficients (k1, k2, k3, beta) of a 2x2 metric."""
    eta_m = over_binade(positive_metric(eta, 2)[0])  # the coefficients have degree 0 in eta
    a, c = float(eta_m[0, 0].real), float(eta_m[1, 1].real)
    b1, b2 = float(eta_m[0, 1].real), float(-eta_m[0, 1].imag)
    trace = a + c
    det = a * c - (b1**2 + b2**2)
    k1 = det / trace**2
    k2 = (a - c) / trace
    k3 = 2.0 * np.hypot(b1, b2) / trace
    beta = float(np.arctan2(b2, b1))
    return TwoLevelLineElement(k1, k2, k3, beta)


class BrachistochroneProblem(Record):
    psi_i: np.ndarray
    psi_f: np.ndarray
    energy: float
    hbar: float = 1.0
    eta: np.ndarray | None = None

    def __post_init__(self):
        psi_i, psi_f, eta_m = _states(self.eta, psi_i=self.psi_i, psi_f=self.psi_f)
        object.__setattr__(self, "psi_i", psi_i)
        object.__setattr__(self, "psi_f", psi_f)
        object.__setattr__(self, "eta", eta_m)
        if self.energy <= 0 or self.hbar <= 0:
            raise InputError("E and hbar must be positive")
        if not np.isfinite(self.hbar * np.pi / (2.0 * self.energy)):
            raise InputError(f"the time bound hbar pi / (2 E) is not finite at "
                             f"E = {self.energy:g}, hbar = {self.hbar:g}")


class OptimalEvolution(Record):
    H_star: np.ndarray
    tau_min: float
    distance: float


def optimal_hamiltonian(prob: BrachistochroneProblem) -> OptimalEvolution:
    """Traceless Hamiltonian with eigenvalues +-E evolving psi_i -> psi_f
    along a geodesic in the minimal time tau_min = hbar * s / E.

    For (eta-)orthogonal endpoints the generic formula degenerates; the
    pre-limit form with unit representatives (any relative phase is
    optimal; this takes 0) is used instead.
    """
    vi, vf, eta_m = over_binade(prob.psi_i), over_binade(prob.psi_f), prob.eta
    p, ni, nf = (x.item() for x in _overlaps(vi, vf, eta_m))  # numpy's complex / takes a reciprocal
    ui, uf = vi / np.sqrt(ni), vf / np.sqrt(nf)
    q = p / np.sqrt(ni * nf)
    cos_s = min(abs(q), 1.0)
    s = float(np.arccos(cos_s))
    if s <= ANTIPODAL_TOL:
        raise InputError("initial and final states coincide")

    # make <ui|eta uf_hat> real positive
    uf_hat = uf if abs(q) < ANTIPODAL_TOL else uf * (abs(q) / q)
    outer_fi = np.outer(uf_hat, np.conj(eta_m @ ui))
    outer_if = np.outer(ui, np.conj(eta_m @ uf_hat))
    with np.errstate(over="ignore", invalid="ignore"):
        h_star = 1j * prob.energy * (outer_fi - outer_if) / np.sin(s)
    if not np.isfinite(h_star).all():
        raise InputError(f"H* overflows at E = {prob.energy:g}: an entry exceeds the largest float")
    tau_min = prob.hbar * s / prob.energy
    return OptimalEvolution(h_star, tau_min, s)


def evolve(h_op, psi0, t, hbar: float = 1.0) -> np.ndarray:
    """psi(t) = sum_n exp(-i a_n t / hbar) psi_n <phi_n|psi0> over H's
    ``biorthonormal_extension``.

    ``t`` is a time or an array of times; the result is psi(t) with the
    times' shape in front of the state's, so one row per time for a 1-D
    ``t``.  No norm is imposed: for a pseudo-Hermitian H the eta-norm is
    conserved by the dynamics alone.
    """
    v, _ = _states(psi0=psi0)
    bs = biorthonormal_extension(eig_nonhermitian(_hamiltonian(h_op, v)))
    phases = np.exp(-1j * np.multiply.outer(t, bs.values) / hbar)
    return (phases * (dagger(bs.phis) @ v)) @ bs.psis.T


def projective_fidelity(psi, target, eta=None):
    """|<psi|eta target>|^2 / (<psi|eta psi><target|eta target>), a float for a state psi and
    one per row, each the state's to the bit, for a stack of them; eta is certified once."""
    p, nv, nw = _overlaps(*_states(eta, psi=psi, target=target))
    return (p.real * p.real + p.imag * p.imag) / (nv * nw)  # numpy's abs rounds arrays apart


def energy_uncertainty(h_op, psi, eta=None) -> float:
    """Delta E = sqrt(<H^2> - <H>^2) in the eta inner product."""
    v, eta_m = _states(eta, psi=psi)
    H = _hamiltonian(h_op, v)
    # degree 0 in psi and 1 in H: <H^2> is formed at unit scale, exactly
    scale = binade(H)
    v, H = over_binade(v), over_binade(H)
    norm = complex(np.conj(v) @ eta_m @ v)
    hv = H @ v
    mean = complex(np.conj(v) @ eta_m @ hv) / norm
    mean2 = complex(np.conj(v) @ eta_m @ (H @ hv)) / norm
    variance = float(np.real(mean2 - mean**2))
    return scale * float(np.sqrt(max(variance, 0.0)))
