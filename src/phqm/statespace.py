"""Projective state-space geometry and time-optimal evolutions.

Covers rank-1 projectors, the (eta-deformed) Fubini-Study metric, geodesic
distances, the optimal-speed Hamiltonian with its minimal travel time
tau_min = hbar * s / E, and a spectral propagator.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .errors import InputError
from .linalg import as_matrix, eig_nonhermitian
from .metric import metric_matrix, positive_metric

ANTIPODAL_TOL = 1e-12  # s below it: identical endpoints; |q| below it: orthogonal ones


def _states(eta=None, **states):
    """Each state as a vector whose largest entry is normal, then eta as a
    ``positive_metric`` (the identity when None); InputError unless all share one size."""
    vectors = [np.asarray(psi, dtype=complex).ravel() for psi in states.values()]
    peak = min(np.abs(v).max(initial=0.0) for v in vectors)
    if peak < np.finfo(float).tiny:
        raise InputError(f"state vector must be nonzero, its largest entry normal; got {peak:.3e}")
    eta_m = metric_matrix(None, len(vectors[0])) if eta is None else positive_metric(eta)[0]
    if any(len(v) != len(eta_m) for v in vectors):
        raise InputError(f"{', '.join(states)} and eta sizes differ")
    return (*vectors, eta_m)


def _binade(a) -> float:
    """The power of two above max |a|: dividing by it is exact, so a quantity
    of degree 0 in ``a`` keeps every bit while its products stay finite."""
    return np.ldexp(1.0, np.frexp(np.abs(a).max())[1])


def _overlaps(v, w, eta_m):
    """<v|eta w>, <v|eta v> and <w|eta w> of v and w over their ``_binade``."""
    v, w = v / _binade(v), w / _binade(w)
    return (complex(np.conj(v) @ eta_m @ w), float(np.real(np.conj(v) @ eta_m @ v)),
            float(np.real(np.conj(w) @ eta_m @ w)))


def _hamiltonian(h_op, v) -> np.ndarray:
    H = as_matrix(h_op)
    if len(H) != len(v):
        raise InputError(f"H is {len(H)}x{len(H)}, the state has {len(v)} components")
    return H


def projector(psi, eta=None) -> np.ndarray:
    """Rank-1 projector Lambda = |psi><psi| eta / <psi|eta psi> onto the ray
    of psi (eta = I when omitted)."""
    v, eta_m = _states(eta, psi=psi)
    v = v / _binade(v)
    w = eta_m @ v
    norm = complex(np.conj(v) @ w)
    return np.outer(v, np.conj(w)) / norm


def fs_metric(psi, eta=None) -> np.ndarray:
    """Fubini-Study metric g[a, b] with ds^2 = sum g[a,b] dz_a conj(dz_b).

    With eta supplied this is the physical-inner-product deformation; it
    reduces to the standard Fubini-Study metric at eta = I.
    """
    v, eta_m = _states(eta, psi=psi)
    w = eta_m @ v                     # (eta z)_b
    wc = np.conj(v) @ eta_m           # sum_c eta_cb z*_c, row vector
    norm = complex(wc @ v)
    g = (norm * eta_m.T - np.outer(wc, w)) / norm**2
    return g


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

    def ds2(self, theta, phi, dtheta, dphi):
        return self.conformal_factor(theta, phi) * (
            np.asarray(dtheta) ** 2 + np.sin(theta) ** 2 * np.asarray(dphi) ** 2
        )


def two_level_geometry(eta) -> TwoLevelLineElement:
    """Line-element coefficients (k1, k2, k3, beta) of a 2x2 metric."""
    eta_m = positive_metric(eta, 2)[0]
    eta_m = eta_m / _binade(eta_m)  # the coefficients have degree 0 in eta
    a = float(eta_m[0, 0].real)
    c = float(eta_m[1, 1].real)
    b1 = float(eta_m[0, 1].real)
    b2 = float(-eta_m[0, 1].imag)
    trace = a + c
    det = a * c - (b1**2 + b2**2)
    k1 = det / trace**2
    k2 = (a - c) / trace
    k3 = 2.0 * np.hypot(b1, b2) / trace
    beta = float(np.arctan2(b2, b1))
    return TwoLevelLineElement(k1, k2, k3, beta)


def geodesic_distance(psi_i, psi_f, eta=None) -> float:
    """Geodesic distance s in [0, pi/2] on the (eta-deformed) state space."""
    p, ni, nf = _overlaps(*_states(eta, psi_i=psi_i, psi_f=psi_f))
    cos_s = np.clip(abs(p) / np.sqrt(ni * nf), 0.0, 1.0)
    return float(np.arccos(cos_s))


class BrachistochroneProblem(Record):
    psi_i: np.ndarray
    psi_f: np.ndarray
    energy: float
    hbar: float = 1.0
    eta: np.ndarray | None = None

    def __post_init__(self):
        psi_i, psi_f, _ = _states(self.eta, psi_i=self.psi_i, psi_f=self.psi_f)
        object.__setattr__(self, "psi_i", psi_i)
        object.__setattr__(self, "psi_f", psi_f)
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
    vi, vf = prob.psi_i / _binade(prob.psi_i), prob.psi_f / _binade(prob.psi_f)
    eta_m = metric_matrix(prob.eta, len(vi))
    p, ni, nf = _overlaps(vi, vf, eta_m)
    ui = vi / np.sqrt(ni)
    uf = vf / np.sqrt(nf)
    q = p / np.sqrt(ni * nf)
    cos_s = min(abs(q), 1.0)
    s = float(np.arccos(cos_s))
    if s <= ANTIPODAL_TOL:
        raise InputError("initial and final states coincide")

    # make <ui|eta uf_hat> real positive
    uf_hat = uf if abs(q) < ANTIPODAL_TOL else uf * (abs(q) / q)
    outer_fi = np.outer(uf_hat, np.conj(eta_m @ ui))
    outer_if = np.outer(ui, np.conj(eta_m @ uf_hat))
    h_star = 1j * prob.energy * (outer_fi - outer_if) / np.sin(s)
    tau_min = prob.hbar * s / prob.energy
    return OptimalEvolution(h_star, tau_min, s)


def three_stage_switching_demo(psi_i, psi_f, energy: float, k1: float,
                               hbar: float = 1.0) -> dict:
    """Demonstrate the apparent sub-bound travel time of metric switching.

    Stage 2 evolves between two nearly antipodal intermediate states with
    an eta-deformed optimal Hamiltonian whose k1 makes the deformed
    distance, and hence the stage time, arbitrarily small.  The report
    flags that the scheme requires switching the physical inner product
    midway, which is what invalidates it as a unitary evolution; no
    unitarity claim is made.  A 2x2 metric has k1 = det/trace^2 in (0, 1/4].
    """
    if not 0 < k1 <= 0.25:
        raise InputError(f"k1 must lie in (0, 1/4], got {k1}")
    s_flat = geodesic_distance(psi_i, psi_f)
    tau_flat = hbar * s_flat / energy
    trace_target = 1.0 / np.sqrt(k1)
    a = 0.5 * (trace_target + np.sqrt(trace_target**2 - 4.0))
    eta = np.diag([a, 1.0 / a]).astype(complex)
    inter = optimal_hamiltonian(
        BrachistochroneProblem(psi_i, psi_f, energy, hbar, eta)
    )
    return {
        "tau_min_hermitian": tau_flat,
        "stage_time_deformed": inter.tau_min,
        "violates_hermitian_bound": bool(inter.tau_min < tau_flat),
        "requires_metric_switching": True,
    }


def evolve(h_op, psi0, t, hbar: float = 1.0) -> np.ndarray:
    """psi(t) = exp(-i t H / hbar) psi0 through one eigendecomposition.

    ``t`` is a time or an array of times; the result is psi(t) with the
    times' shape in front of the state's, so one row per time for a 1-D
    ``t``.  No norm is imposed: for a pseudo-Hermitian H the eta-norm is
    conserved by the dynamics alone.
    """
    v, _ = _states(psi0=psi0)
    H = _hamiltonian(h_op, v)
    dec = eig_nonhermitian(H, check=True)
    coeff = np.linalg.solve(dec.right_vectors, v)
    phases = np.exp(-1j * np.multiply.outer(t, dec.values) / hbar)
    return (phases * coeff) @ dec.right_vectors.T


def projective_fidelity(psi, target, eta=None) -> float:
    """|<psi|eta target>|^2 / (<psi|eta psi><target|eta target>)."""
    p, nv, nw = _overlaps(*_states(eta, psi=psi, target=target))
    return abs(p) ** 2 / (nv * nw)


def energy_uncertainty(h_op, psi, eta=None) -> float:
    """Delta E = sqrt(<H^2> - <H>^2) in the eta inner product."""
    v, eta_m = _states(eta, psi=psi)
    H = _hamiltonian(h_op, v)
    # degree 0 in psi and 1 in H: <H^2> is formed at unit scale, exactly
    scale = _binade(H)
    v, H = v / _binade(v), H / scale
    norm = complex(np.conj(v) @ eta_m @ v)
    hv = H @ v
    mean = complex(np.conj(v) @ eta_m @ hv) / norm
    mean2 = complex(np.conj(v) @ eta_m @ (H @ hv)) / norm
    variance = float(np.real(mean2 - mean**2))
    return scale * float(np.sqrt(max(variance, 0.0)))
