"""The paper's constructions that no scenario runs, as test oracles: the tests
check the paper's identities on them, and each stays here until a command
records it."""

import numpy as np

from phqm import classical, em, metric, models, perturbation, statespace
from phqm._record import Record
from phqm.errors import ComplexSpectrumError, InputError, SingularOperatorError
from phqm.linalg import as_matrix, binade, dagger, opnorm

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_2 = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
GRADIENT_STEP = 1e-6   # central-difference step of symmetry_flow
KG_EXCLUSION = 3.5     # grid spacings klein_gordon_residual leaves out around each kink


def two_level_observables(params):
    """S_j = rho^-1 sigma_j rho with rho = e^{(theta/2) sigma_1}, theta = ln(D)/2;
    sigma_2 and sigma_3 anticommute with sigma_1, pulling in a full rho^2."""
    theta = 0.5 * np.log(float(params.D))
    ch, sh = np.cosh(theta), np.sinh(theta)
    s3 = models.SIGMA_3
    return SIGMA_1.copy(), ch * SIGMA_2 - 1j * sh * s3, 1j * sh * SIGMA_2 + ch * s3


def two_level_intertwiner(params, phi1: float = 0.0, phi2: float = 0.0):
    """Operator L = lambda_- C + lambda_+ I with eta_general = L^dagger eta_plus L,
    lambda_+- from the (r1, r2, phi1, phi2) parametrization of the metric family."""
    D = float(params.D)
    theta = 0.5 * np.log(D)
    r1 = (1.0 + params.s) * params.r * np.sqrt(D) / 4.0
    r2 = (1.0 - params.s) * params.r * np.sqrt(D) / 4.0
    lam_p = D ** (-0.25) * (np.sqrt(r1) * np.exp(1j * phi1) + np.sqrt(r2) * np.exp(1j * phi2))
    lam_m = D ** (-0.25) * (np.sqrt(r1) * np.exp(1j * phi1) - np.sqrt(r2) * np.exp(1j * phi2))
    ch, sh = np.cosh(theta), np.sinh(theta)
    return np.array([[lam_m * ch + lam_p, lam_m * sh], [-lam_m * sh, -lam_m * ch + lam_p]],
                    dtype=complex)


class AntilinearSymmetry(Record):
    """Antilinear involution acting as S zeta = M conj(zeta)."""

    M: np.ndarray

    def __call__(self, zeta) -> np.ndarray:
        return self.M @ np.conj(np.asarray(zeta, dtype=complex))


def antilinear_symmetry(bs, phases=None) -> AntilinearSymmetry:
    """Antilinear generator S with S zeta = M conj(zeta), M = sum psi_n phi_n^T;
    ``phases`` (radians, one per eigenvalue) rotates psi_n -> e^{i theta_n} psi_n
    with the compensating phi rotation, the phase freedom M depends on."""
    if not bs.all_real:
        raise ComplexSpectrumError("exact antilinear symmetry requires a real spectrum")
    psis, phis = bs.psis, bs.phis
    if phases is not None:
        rot = np.exp(1j * np.asarray(phases, dtype=float))
        if len(rot) != bs.dim:
            raise InputError("need one phase per eigenvalue")
        psis = psis * rot[None, :]
        phis = phis * rot[None, :]
    return AntilinearSymmetry(psis @ phis.T)


def _inverse(eta_m) -> np.ndarray:
    try:
        return np.linalg.inv(eta_m)
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError("eta is singular") from exc


def pseudo_adjoint(l_op, eta) -> np.ndarray:
    """eta-pseudo-adjoint L^# = eta^-1 L^dagger eta."""
    L = as_matrix(l_op)
    eta_m = metric.metric_matrix(eta, len(L))
    return _inverse(eta_m) @ dagger(L) @ eta_m


def forward_pseudo_hermiticity(h_op, eta) -> float:
    """Forward error |eta H eta^-1 - H^dagger|_2 / |H|_2 through eta's LU
    inverse: ``metric.pseudo_hermiticity_residual``'s backward error times at
    most cond(eta), the reading that a check written against it keeps."""
    H = as_matrix(h_op)
    eta_m = metric.metric_matrix(eta, len(H))
    return opnorm(eta_m @ H @ _inverse(eta_m) - dagger(H)) / max(opnorm(H), 1e-300)


def projector(psi, eta=None) -> np.ndarray:
    """Rank-1 projector Lambda = |psi><psi| eta / <psi|eta psi> onto the ray
    of psi (eta = I when omitted)."""
    v, eta_m = statespace._states(eta, psi=psi)
    v = v / binade(v)
    w = eta_m @ v
    norm = complex(np.conj(v) @ w)
    return np.outer(v, np.conj(w)) / norm


def fs_metric(psi, eta=None) -> np.ndarray:
    """(eta-deformed) Fubini-Study metric g[a, b] with
    ds^2 = sum g[a,b] dz_a conj(dz_b); the standard one at eta = I."""
    v, eta_m = statespace._states(eta, psi=psi)
    w = eta_m @ v                     # (eta z)_b
    wc = np.conj(v) @ eta_m           # sum_c eta_cb z*_c, row vector
    norm = complex(wc @ v)
    return (norm * eta_m.T - np.outer(wc, w)) / norm**2


def geodesic_distance(psi_i, psi_f, eta=None) -> float:
    """Geodesic distance s in [0, pi/2] on the (eta-deformed) state space."""
    p, ni, nf = statespace._overlaps(*statespace._states(eta, psi_i=psi_i, psi_f=psi_f))
    cos_s = np.clip(abs(p) / np.sqrt(ni * nf), 0.0, 1.0)
    return float(np.arccos(cos_s))


def cauchy_riemann_residual(potential, z: complex) -> float:
    """Max finite-difference violation of the Cauchy-Riemann conditions.

    With V_x, V_y the derivatives of V(x + i y), an analytic V has
    V_y = i V_x.
    """
    # as a Python complex the difference divides by the real step exactly
    v_x, v_y = classical._gradient(lambda w: complex(potential(w[0] + 1j * w[1])),
                                   (z.real, z.imag))
    return max(abs(v_x.real - v_y.imag), abs(v_y.real + v_x.imag))


def integrability_report(potential, points, m: float) -> dict:
    """Ranks of the Jacobian of (K, H_i) at Darboux points (rank 2 everywhere
    is the generic integrable case; degenerate potentials may lose it)."""

    def k_plus_i_hi(w):
        cpt = classical.DarbouxPoint(*w).to_complex()
        return complex(*classical.real_hamiltonians(potential, cpt.z, cpt.p, m))

    ranks = []
    for pt in points:
        w = [pt.x1, pt.p1, pt.x2, pt.p2] if isinstance(pt, classical.DarbouxPoint) else pt
        grad = classical._gradient(k_plus_i_hi, w)
        ranks.append(int(np.linalg.matrix_rank(np.array([grad.real, grad.imag]), tol=1e-8)))
    return {"ranks": ranks, "independent_everywhere": all(r == 2 for r in ranks)}


def symmetry_flow(potential, pt, xi: float, m: float):
    """One explicit-Euler step of the H_i-generated flow: delta x1 = xi x2 / 2m,
    delta p2 = -xi p1 / 2m and V_r-gradient terms for x2, p1; K and H_i are
    invariant to O(xi^2)."""

    def vr_tilde(w):
        return potential((w[0] + 1j * w[1]) / np.sqrt(2.0)).real

    dvr_dx1, dvr_dp2 = classical._gradient(vr_tilde, (pt.x1, pt.p2), GRADIENT_STEP).real
    return classical.DarbouxPoint(pt.x1 + xi * pt.x2 / (2.0 * m), pt.p1 + xi * dvr_dp2,
                                  pt.x2 + xi * dvr_dx1, pt.p2 - xi * pt.p1 / (2.0 * m))


def oscillator_basis(n_max: int, mass: float = 1.0, hbar: float = 1.0, omega: float = 1.0):
    """Position and momentum matrices in the n_max-dim oscillator basis."""
    if n_max < 2:
        raise InputError("n_max must be at least 2")
    lower, raise_ = perturbation.ladder_operators(n_max)
    x = np.sqrt(hbar / (2.0 * mass * omega)) * (lower + raise_)
    p = 1j * np.sqrt(mass * hbar * omega / 2.0) * (raise_ - lower)
    return x, p


def klein_gordon_residual(spec) -> float:
    """Max |(-d_x^2 + d_y^2 + mu^2) eta(x,y)| away from kernel kinks.

    mu^2(x, y) = 2m/hbar^2 (v(x)* - v(y)); kink lines (x = +-y, the
    potential edges and delta axes) are excluded with a band of
    KG_EXCLUSION grid spacings.  There the first-order kernel solves the
    massless equation, so this reads the dropped O(zeta^2) term mu^2 k.
    """
    x = spec.points()
    dx = spec.dx
    k = models.kernel_first_order(spec, x)  # smooth part only; delta part drops out
    # (H_x^* - H_y) k scaled by 2m/hbar^2 is -d_x^2 k + d_y^2 k + mu^2 k
    h = models.apply_hamiltonian
    residual = (2.0 * spec.mass / spec.hbar**2) * (np.conj(h(spec, np.conj(k))) - h(spec, k.T).T)
    xx = x[:, None]
    yy = x[None, :]
    band = KG_EXCLUSION * dx
    mask = (np.abs(xx - yy) > band) & (np.abs(xx + yy) > band)
    if spec.kind in ("square_well", "barrier"):
        L = spec.length
        mask &= (np.abs(np.abs(xx + yy) - L) > band)
        mask &= (np.abs(np.abs(xx) - L / 2) > band) & (np.abs(np.abs(yy) - L / 2) > band)
    else:
        mask &= (np.abs(xx) > band) & (np.abs(yy) > band)
    # one interior ring to keep the wall rows out
    mask[:2, :] = mask[-2:, :] = False
    mask[:, :2] = mask[:, -2:] = False
    return float(np.max(np.abs(residual[mask])))


def wave_operator(profile, z: np.ndarray) -> np.ndarray:
    """Dense matrix of the discretized Omega^2 (clamped boundaries)."""
    lower, main, upper = em._omega2_bands(profile, z)
    return np.diag(main) + np.diag(upper, 1) + np.diag(lower, -1)
