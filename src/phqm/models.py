"""Closed-form model constructors.

* two_level:        2x2 toy operator with exact metric family, equivalent
                    Hermitian form and grading operator.
* swanson_*:        su(1,1) oscillator with the Lie-algebraic metric
                    eta_+ = exp(z K+) exp(2r K3) exp(z* K-), solved in the
                    2x2 standard representation and lifted to a truncated
                    oscillator basis.
* quartic_pair:     wrong-sign quartic on the hyperbola contour; the low
                    spectra of the s-representation Hamiltonian
                    (contour_hamiltonian) and of its Hermitian partner in
                    the wave-number representation.
* kernel_metric:    first-order integral-kernel metrics for the imaginary
                    square well, barrier, and complex delta potentials.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ._record import Record
from .errors import (
    DefectiveOperatorError,
    EigenpairsNotConvergedError,
    GridTooSmallError,
    InputError,
    NonPositiveDError,
    RealityViolatedError,
    SingularOperatorError,
)
from .linalg import binade, dagger, opnorm
from .metric import MetricOperator
from .perturbation import ladder_operators

SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


# ----------------------------------------------------------------------
# two-level toy model
# ----------------------------------------------------------------------

class TwoLevelParams(Record):
    D: float
    r: float = 1.0
    s: float = 0.0

    def __post_init__(self):
        if self.r <= 0:
            raise InputError("r must be positive")
        if not -1.0 < self.s < 1.0:
            raise InputError("s must lie in (-1, 1)")


class TwoLevelModel(Record):
    A: np.ndarray
    eta_plus: np.ndarray
    eta_general: np.ndarray
    h: np.ndarray
    C: np.ndarray


def two_level(params: TwoLevelParams) -> TwoLevelModel:
    """All closed forms of the two-level model at parameter D.

    Uses the eigenvector normalization c1 = c2 = D^{-1/4}/2, for which
    eta_+ = exp(theta sigma_1) with theta = ln(D)/2, h = sqrt(D) sigma_3,
    and the antilinear symmetry is plain conjugation (M = I): A is real.
    """
    D = float(params.D)
    if D == 0.0:
        raise DefectiveOperatorError("D = 0 is an exceptional point")
    if D < 0.0:
        raise NonPositiveDError("D < 0 gives an imaginary spectrum; no metric exists")

    A = 0.5 * np.array([[D + 1, D - 1], [-D + 1, -D - 1]], dtype=complex)
    theta = 0.5 * np.log(D)
    ch, sh = np.cosh(theta), np.sinh(theta)

    eta_plus = np.array([[ch, sh], [sh, ch]], dtype=complex)
    eta_general = params.r * np.array(
        [[ch + params.s, sh], [sh, ch - params.s]], dtype=complex
    )
    h = np.sqrt(D) * SIGMA_3
    C = np.array([[ch, sh], [-sh, -ch]], dtype=complex)
    return TwoLevelModel(A, eta_plus, eta_general, h, C)


# ----------------------------------------------------------------------
# Swanson model
# ----------------------------------------------------------------------

class SwansonParams(Record):
    """Couplings of H = hbar w (a^dag a + 1/2) + alpha (a^dag)^2 + beta a^2.

    alpha multiplies the raising pair and beta the lowering pair, matching
    the 2x2 matrix form of the pseudo-Hermiticity condition used below.
    Reality of the spectrum needs hbar^2 omega^2 > 4 alpha beta.
    """

    hbar: float = 1.0
    omega: float = 1.0
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.hbar <= 0 or self.omega <= 0:
            raise InputError("hbar and omega must be positive")
        if self.hbar**2 * self.omega**2 <= 4.0 * self.alpha * self.beta:
            raise RealityViolatedError(
                "requires hbar^2 omega^2 > 4 alpha beta for a real spectrum"
            )

    @property
    def alpha_tilde(self) -> float:
        return self.alpha / (self.hbar * self.omega)

    @property
    def beta_tilde(self) -> float:
        return self.beta / (self.hbar * self.omega)


class SwansonMetric(Record):
    z: complex
    w: float
    eta_2x2: np.ndarray
    residual: float


def swanson_w(params: SwansonParams, r: float, branch: int = +1) -> float:
    """Real root w of the quadratic closing the pseudo-Hermiticity system.

    branch=+1 is continuous with the alpha -> 0 limit w -> -beta_t/s.
    """
    at, bt = params.alpha_tilde, params.beta_tilde
    s = np.exp(r)
    # > 0 as SwansonParams has 4 at bt < 1, but an ulp from it rounding may go below
    disc = max(4.0 * at**2 * s**2 + 1.0 - 4.0 * at * bt, 0.0)
    if at == 0.0:
        return -bt / s
    return (-1.0 + branch * np.sqrt(disc)) / (2.0 * at * s)


def _swanson_2x2(params: SwansonParams) -> np.ndarray:
    """H in the 2x2 standard representation, hbar w [[1, 2i at], [2i bt, -1]]."""
    hw = params.hbar * params.omega
    return hw * np.array([[1.0, 2j * params.alpha_tilde], [2j * params.beta_tilde, -1.0]],
                         dtype=complex)


def swanson_metric(params: SwansonParams, r: float = 0.0, branch: int = +1) -> SwansonMetric:
    """Metric factors (z, r) and the 2x2 matrix identity's backward error
    |eta H - H^T eta|_2 / (|eta|_2 |H|_2): H^T stands for H^dagger in the
    standard representation."""
    w = swanson_w(params, r, branch)
    z = np.exp(r) * w
    er, emr = np.exp(r), np.exp(-r)
    eta = np.array(
        [[er - emr * abs(z) ** 2, 1j * emr * z], [1j * emr * np.conj(z), emr]],
        dtype=complex,
    )
    H = _swanson_2x2(params)
    residual = opnorm(eta @ H - H.T @ eta) / (opnorm(eta) * opnorm(H))
    return SwansonMetric(complex(z), float(w), eta, residual)


def _exp_k_plus(z: complex, n_max: int) -> np.ndarray:
    """exp(z K+) with K+ = (a^dag)^2/2 in the n_max-dim number basis.

    K+ raises n by two, so the series terminates:
    exp(z K+)[m+2k, m] = (z/2)^k/k! sqrt((m+2k)!/m!).  Each band k
    follows from band k-1 by one ratio, which keeps the entries within a
    few ulp; log-gamma differences lose about a digit at n_max = 120.
    """
    out = np.eye(n_max, dtype=complex)
    m = np.arange(n_max)
    band = np.ones(n_max, dtype=complex)
    for k in range(1, (n_max + 1) // 2):
        mm = m[: n_max - 2 * k]
        band = band[: n_max - 2 * k] * (0.5 * z / k) * np.sqrt((mm + 2 * k) * (mm + 2 * k - 1.0))
        out[mm + 2 * k, mm] = band
    return out


def _sqrtm_2x2(m: np.ndarray) -> np.ndarray:
    """Principal square root (M + sI)/sqrt(tr M + 2s), s = sqrt(det M).

    This is the principal root when s = sqrt(l1) sqrt(l2) for the
    eigenvalues l1, l2 of M; the Swanson avatar has det M = 1 and the
    caller keeps its eigenvalues off the negative real axis.
    """
    s = np.sqrt(complex(np.linalg.det(m)))
    return (m + s * np.eye(2)) / np.sqrt(np.trace(m) + 2.0 * s)


class TruncatedSwanson(Record):
    """H, eta_+ and h; h is lifted from the 2x2 transport, so no similarity
    of the truncated space maps H to it (only the low spectra agree): no rho."""

    H: np.ndarray
    eta_plus: MetricOperator
    h: np.ndarray


def swanson_truncated(params: SwansonParams, r: float = 0.0, n_max: int = 60,
                      branch: int = +1) -> TruncatedSwanson:
    """Truncated-basis realization of the Lie-algebraic metric.

    eta_+ = exp(z K+) exp(2r K3) exp(z* K-) with K+ = (a^dag)^2/2,
    K- = a^2/2, K3 = (a^dag a + 1/2)/2.  The equivalent Hermitian h is
    transported through the 2x2 representation (rho = sqrt(eta) there)
    and lifted to the generators, which keeps it exactly Hermitian and
    free of truncation-edge contamination.
    """
    if n_max < 16:
        raise InputError("n_max must be at least 16")
    sm = swanson_metric(params, r, branch)
    avatar_eigs = np.linalg.eigvals(sm.eta_2x2)
    # the principal family is connected to eta = I, so its avatar stays
    # off the negative real axis and the principal square root is the
    # operator branch; the second root family (|z| ~ 1/alpha_t) crosses
    # the cut and its truncated metric is numerically inaccessible anyway
    if np.any(np.abs(np.angle(avatar_eigs)) > np.pi - 0.05):
        raise RealityViolatedError(
            "factored metric avatar crosses the negative real axis; the "
            "truncated construction only supports the principal branch"
        )
    a, ad = ladder_operators(n_max)
    k_plus = 0.5 * (ad @ ad)
    k_minus = 0.5 * (a @ a)
    k3 = 0.5 * (ad @ a + 0.5 * np.eye(n_max))
    # scaling by 2 and 1/2 is exact: this is hbar w (a^dag a + 1/2) +
    # alpha (a^dag)^2 + beta a^2 to the bit
    H = 2.0 * (params.hbar * params.omega * k3 + params.alpha * k_plus + params.beta * k_minus)

    # exp(z* K-) = exp(z K+)^dag and K3 is diagonal, (n + 1/2)/2
    e_plus = _exp_k_plus(sm.z, n_max)
    scale = np.exp(r * (np.arange(n_max) + 0.5))
    eta = (e_plus * scale) @ dagger(e_plus)
    eta = 0.5 * (eta + dagger(eta))

    # h in the 2x2 representation, expanded back onto the generators.
    # The standard representation is not a *-representation, so eta_2x2 is
    # not a Hermitian matrix; the principal square root is the avatar of
    # the positive operator root (its eigenvalues are the positive pair
    # lambda, 1/lambda).
    rho2 = _sqrtm_2x2(sm.eta_2x2)
    h2 = rho2 @ _swanson_2x2(params) @ np.linalg.inv(rho2)
    eps3 = 2.0 * h2[0, 0]
    eps_plus = -1j * h2[0, 1]
    eps_minus = -1j * h2[1, 0]
    coeff_plus = 0.5 * (eps_plus + np.conj(eps_minus))
    h = (
        float(np.real(eps3)) * k3
        + coeff_plus * k_plus
        + np.conj(coeff_plus) * k_minus
    )
    h = 0.5 * (h + dagger(h))
    return TruncatedSwanson(H, MetricOperator(eta), h)


# ----------------------------------------------------------------------
# wrong-sign quartic on the hyperbola contour
# ----------------------------------------------------------------------

TAIL_TOL = 1e-8  # largest eigenfunction tail quartic_pair accepts at the s-grid edges


class QuarticParams(Record):
    lam: float
    omega: float = 0.0
    n: int = 576
    length: float = 18.0
    n_k: int = 256
    length_k: float = 10.0

    def __post_init__(self):
        if self.lam <= 0:
            raise InputError("lambda must be positive")
        if self.omega < 0:
            raise InputError("omega must be non-negative")
        if self.n < 64 or self.n_k < 64:
            raise InputError("grids need at least 64 points")
        if self.length <= 0 or self.length_k <= 0:
            raise InputError("grid half-widths length and length_k must be positive")


def _wavenumber_column(n: int, half_width: float, power: int) -> np.ndarray:
    """Column c of (-i d/ds)^power under periodic embedding, the inverse FFT
    of the spectrum; real and even for an even power, whose spectrum is."""
    dx = 2.0 * half_width / n
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    col = np.fft.ifft(k**power)
    if power % 2 == 0:
        col = 0.5 * (col.real + np.roll(col.real[::-1], 1))
    return col


def _circulant(col: np.ndarray) -> np.ndarray:
    """Read-only view of the circulant C[i, j] = col[(i - j) mod n]: row i
    is col reversed and rotated, a window of the doubled reversal."""
    doubled = np.concatenate((col[::-1], col[::-1]))[:-1]
    return np.lib.stride_tricks.sliding_window_view(doubled, len(col))[::-1]


def fourier_wavenumber_operator(n: int, half_width: float, power: int = 1) -> np.ndarray:
    """Dense matrix of (-i d/ds)^power under periodic embedding, a circulant;
    real symmetric for an even power."""
    return _circulant(_wavenumber_column(n, half_width, power)).copy()


class QuarticPair(Record):
    """Both low spectra, the partner h and the grids; the n x n contour
    Hamiltonian is not kept (contour_hamiltonian rebuilds it)."""

    h: np.ndarray
    s_grid: np.ndarray
    k_grid: np.ndarray
    spectrum_H: np.ndarray
    spectrum_h: np.ndarray
    tail: float


def _s_grid(params: QuarticParams) -> np.ndarray:
    """Cell-centred s-grid on [-length, length]; reversed it is -s."""
    n = params.n
    return (np.arange(n) + 0.5 - 0.5 * n) * (2.0 * params.length / n)


def contour_hamiltonian(params: QuarticParams) -> np.ndarray:
    """H = (1+is) K^2 + K/2 - 16 lam (1+is)^2 - 4 w^2 (1+is) on the s-grid.

    Built in one complex n x n array: (1+is) times the circulant view of
    K^2, then the view of K/2 added in place.  Scaling K's column by 1/2
    is exact, so this equals the sum of the dense operators to the bit.
    """
    n, ls = params.n, params.length
    one_is = 1.0 + 1j * _s_grid(params)
    H = one_is[:, None] * _circulant(_wavenumber_column(n, ls, 2))
    H += _circulant(0.5 * _wavenumber_column(n, ls, 1))
    H[np.diag_indices(n)] -= 16.0 * params.lam * one_is**2 + 4.0 * params.omega**2 * one_is
    return H


def _pt_real_form(H: np.ndarray) -> np.ndarray:
    """Real B = (I - iP) H (I + iP)/2 of a PT-symmetric H (P the index
    reversal, P conj(H) P = H as contour_hamiltonian builds it), similar
    to H.  Holds no n x n temporary besides H and B."""
    re, im = H.real, H.imag
    b = im[::-1, :] - im[:, ::-1]
    b *= 0.5
    b += re
    return b


def _pt_symmetric_eig(b: np.ndarray, n_lowest: int):
    """The n_lowest eigenpairs nearest 0, sorted by real part, of the
    PT-symmetric H whose real form is b = _pt_real_form(H): v = u + i P u
    maps B's eigenvector u to H's (unit columns).
    Shift-invert Arnoldi at 0 on B (fixed start, Gram-Schmidt twice) stops
    when the n_lowest + 3 Ritz pairs nearest 0 have |B u - E u| <= 1e-13
    |B|_F and each kept E's error disc kappa |B u - E u| holds no other
    Ritz value (a defective E fails that); the Krylov dimension doubles up
    to n, then EigenpairsNotConvergedError.  B^-1 is exact only to
    u cond(B): a kept pair above 1e-15 |B|_F takes one inverse iteration.
    """
    n = last = len(b)
    try:
        b_inv = np.linalg.inv(b)
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError("H is singular; no shift-invert at 0") from exc
    want, b_norm = min(n, n_lowest + 3), np.linalg.norm(b)
    m, done = min(n, max(40, 3 * want)), 0
    basis, hess = np.empty((n + 1, n)), np.zeros((n + 1, n))
    basis[0] = np.random.default_rng(0).standard_normal(n)
    basis[0] /= np.linalg.norm(basis[0])
    while True:
        for j in range(done, m):
            w = b_inv @ basis[j]
            for _ in range(2):
                c = basis[: j + 1] @ w
                w -= c @ basis[: j + 1]
                hess[: j + 1, j] += c
            hess[j + 1, j] = beta = np.linalg.norm(w)
            if beta == 0.0:  # invariant subspace: its Ritz pairs are all there is
                m = last = j + 1
                break
            basis[j + 1] = w / beta
        done = m
        theta, y = (a.astype(complex) for a in np.linalg.eig(hess[:m, :m]))
        near = np.argsort(-np.abs(theta), kind="stable")[:want]
        kept, evals, u = near[:n_lowest], 1.0 / theta[near], basis[:m].T @ y[:, near]
        residual = np.linalg.norm((b @ u.view(float)).view(complex) - u * evals, axis=0)
        # error discs in theta = 1/E have radius |theta|^2 kappa |B u - E u| to first order
        kappa_theta = np.abs(theta[kept]) ** 2 * np.linalg.norm(np.linalg.pinv(y)[kept], axis=1)
        gap = np.abs(theta[kept, None] - theta)
        gap[np.arange(len(kept)), kept] = np.inf
        if (len(near) == want and np.all(residual <= 1e-13 * b_norm)
                and np.all(kappa_theta * residual[:n_lowest] < gap.min(axis=1))):
            break
        if m == last:
            raise EigenpairsNotConvergedError(f"{want} Ritz pairs nearest 0 not converged "
                                              f"and resolved at Krylov dimension {m}")
        m = min(last, 2 * m)
    del b_inv, basis, hess  # the refinement needs only b
    for i in np.flatnonzero(residual[:n_lowest] > 1e-15 * b_norm):
        e = np.real_if_close(evals[i])
        shifted = b.astype(np.result_type(b, e))
        shifted[np.diag_indices(n)] -= e
        z = np.linalg.solve(shifted, np.real_if_close(u[:, i]))
        evals[i], u[:, i] = np.vdot(z, b @ z) / np.vdot(z, z), z / np.linalg.norm(z)
    order = np.argsort(evals[:n_lowest].real, kind="stable")
    v = u[:, order] + 1j * u[::-1, order]
    return evals[order], v / np.linalg.norm(v, axis=0)


def quartic_pair(params: QuarticParams, n_lowest: int = 5) -> QuarticPair:
    """Low spectra of the non-Hermitian contour Hamiltonian and its Hermitian partner.

    H = contour_hamiltonian(params) on a cell-centred s-grid with spectral
    K; h = -16 lam d^2/dK^2 + (K^2-4w^2)^2/(64 lam) - K/2 on a K-grid
    (real).  s reversed is -s, so H is exactly PT-symmetric; only its real
    form B is kept, and _pt_symmetric_eig finds the eigenvalues nearest 0,
    which are the lowest because every observed low spectrum of H is real
    and positive.  The two discretizations are independent, so agreement
    of their low spectra validates both and shows none is missed.
    """
    n, nk, lk = params.n, params.n_k, params.length_k
    if not 1 <= n_lowest <= min(n, nk):
        raise InputError(f"n_lowest must lie in [1, min(n, n_k)] = [1, {min(n, nk)}]")
    kg = np.linspace(-lk, lk, nk, endpoint=False)
    potential = (kg**2 - 4.0 * params.omega**2) ** 2 / (64.0 * params.lam) - 0.5 * kg
    h = 16.0 * params.lam * fourier_wavenumber_operator(nk, lk, 2)
    h[np.diag_indices(nk)] += potential

    # H lives only until its real form is built, B only inside the solver
    evals_H, low = _pt_symmetric_eig(_pt_real_form(contour_hamiltonian(params)), n_lowest)
    evals_h = np.linalg.eigvalsh(h)

    edge = max(2, n // 64)
    tail = float(np.abs(np.vstack([low[:edge], low[-edge:]])).max() / np.abs(low).max())
    if tail > TAIL_TOL:
        raise GridTooSmallError(
            f"eigenfunction tail {tail:.2e} exceeds {TAIL_TOL:.1e}; "
            "increase the s-grid half-width"
        )
    return QuarticPair(h, _s_grid(params), kg, evals_H, evals_h[:n_lowest], tail)


# ----------------------------------------------------------------------
# first-order kernel metrics (square well / barrier / delta)
# ----------------------------------------------------------------------

class KernelPotentialSpec(Record):
    """Imaginary-coupling potential with a first-order metric kernel, and
    its uniform grid of ``n`` points over [x_min, x_max].

    kind       'square_well', 'barrier' (width L, strength zeta), or
               'delta' (Im coupling zeta, kappa = m Re(coupling)/hbar^2).

    An unset box end takes the kind's box: the square well's Dirichlet box
    [-L/2, L/2], the barrier's [-2L, 2L], the delta's [-h, h] with
    h = max(2, 2/kappa).  The well and barrier sit on midpoints, which puts
    a jump at x_j between nodes unless (x_j - x_min) / dx - 1/2 is an
    integer.  On the default boxes the well's jump at 0 falls on a node for
    odd n, and the barrier's at 0 and +-L/2 for odd n and for n = 4 (mod 8);
    a node at 0 takes v = -+i zeta from the sign of its rounding residue.
    The delta sits on nodes with x = 0 on one, so the lumped delta lies on
    the kernel kink line and the box must contain 0.
    """

    kind: str
    zeta: float
    length: float = 1.0
    kappa: float = 1.0
    mass: float = 1.0
    hbar: float = 1.0
    n: int = 400
    x_min: float | None = None
    x_max: float | None = None

    def __post_init__(self):
        if self.kind not in ("square_well", "barrier", "delta"):
            raise InputError(f"unknown kernel potential kind {self.kind!r}")
        if self.kind in ("square_well", "barrier") and self.length <= 0:
            raise InputError("width L must be positive")
        if self.kind == "delta" and self.kappa <= 0:
            raise InputError("kappa must be positive (spectral singularity otherwise)")
        if self.mass <= 0 or self.hbar <= 0:
            raise InputError("mass and hbar must be positive")
        if self.kind == "delta":
            half = max(2.0, 2.0 / self.kappa)
        else:
            half = self.length / 2.0 if self.kind == "square_well" else 2.0 * self.length
        if self.x_min is None:
            object.__setattr__(self, "x_min", -half)
        if self.x_max is None:
            object.__setattr__(self, "x_max", half)
        if self.n < 2 or not self.x_min < self.x_max:
            raise InputError("a kernel grid needs n >= 2 and x_min < x_max")
        if self.kind == "delta" and not self.x_min <= 0.0 <= self.x_max:
            raise InputError("a node grid's box must contain 0")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    def points(self) -> np.ndarray:
        dx = self.dx
        if self.kind == "delta":
            # x = 0 on a node, every node within dx/2 of [x_min, x_max]
            return (np.arange(self.n) - math.ceil(-self.x_min / dx - 0.5)) * dx
        return self.x_min + dx * (np.arange(self.n) + 0.5)


def kernel_first_order(spec: KernelPotentialSpec, x: np.ndarray) -> np.ndarray:
    """Pointwise first-order kernel k(x, y) with eta = delta(x-y) + k.

    Free functions w_+- are set to zero (minimal representative); sgn(0)
    is taken as 0 so the kernel is Hermitian with a real diagonal.
    """
    pref = spec.mass * spec.zeta / spec.hbar**2
    xx = x[:, None]
    yy = x[None, :]
    sgn_xy = np.sign(xx - yy)
    if spec.kind == "square_well":
        return 0.5j * pref * np.abs(xx + yy) * sgn_xy
    if spec.kind == "barrier":
        u = xx + yy
        L = spec.length
        profile = 2.0 * L + 2.0 * np.abs(u) - np.abs(u + L) - np.abs(u - L)
        return 0.25j * pref * profile * sgn_xy
    # delta
    theta = lambda t: 0.5 * (1.0 + np.sign(t))
    same = theta(xx * yy) * np.exp(-spec.kappa * np.abs(xx - yy))
    cross = theta(-xx * yy) * np.exp(-spec.kappa * np.abs(xx + yy))
    return 0.5j * pref * (same + cross) * np.sign(yy**2 - xx**2)


def potential_on_grid(spec: KernelPotentialSpec) -> np.ndarray:
    """Model potential sampled on the grid (delta -> 1/dx at nearest node)."""
    x = spec.points()
    if spec.kind in ("square_well", "barrier"):
        inside = np.abs(x) < spec.length / 2.0
        return np.where(inside, -1j * spec.zeta * np.sign(x), 0.0)
    v = np.zeros(len(x), dtype=complex)
    j = int(np.argmin(np.abs(x)))
    re_coupling = spec.kappa * spec.hbar**2 / spec.mass
    v[j] = (re_coupling + 1j * spec.zeta) / spec.dx
    return v


def apply_hamiltonian(spec: KernelPotentialSpec, psi: np.ndarray) -> np.ndarray:
    """H psi, one state per column, for the central-difference H = -hbar^2/(2m)
    d^2/dx^2 + v(x) on spec's grid, with psi = 0 beyond the walls (Dirichlet
    walls for the square well, whose domain is [-L/2, L/2]; the scattering
    models use the grid box as-is).  This stencil is the one form of H."""
    padded = np.pad(psi, ((1, 1), (0, 0)))
    d2 = (padded[2:] - 2.0 * psi + padded[:-2]) / spec.dx**2
    return -(spec.hbar**2 / (2.0 * spec.mass)) * d2 + potential_on_grid(spec)[:, None] * psi


class KernelMetricResult(Record):
    eta_matrix: np.ndarray
    x: np.ndarray
    residual_report: dict


def _packet_family(spec: KernelPotentialSpec) -> np.ndarray:
    """Normalized Gaussian wave packets concentrated in the box interior."""
    x = spec.points()
    span = x[-1] - x[0]
    sigma = span / 12.0
    centers = 0.5 * (spec.x_min + spec.x_max) + np.linspace(-span / 8.0, span / 8.0, 5)
    momenta = np.array([0.0, 0.75, 1.5]) / sigma
    cols = []
    for c in centers:
        for k in momenta:
            psi = np.exp(-((x - c) ** 2) / (2.0 * sigma**2) + 1j * k * x)
            cols.append(psi / np.linalg.norm(psi))
    return np.column_stack(cols)


def _weak_residual(eta: np.ndarray, spec: KernelPotentialSpec) -> float:
    """Weak pseudo-Hermiticity residual of eta against spec's discretized H.

    The kernels are distributions: their identity with H holds in the
    bilinear-form sense.  eta H - H^dag eta is therefore measured as
    max |<psi_a|C|psi_b>| over smooth interior wave packets (normalized
    by the same form of H).  Pointwise collocation would instead see the
    O(zeta) band at the diagonal and the box-truncation rows at the grid
    walls, neither of which is part of the continuum statement.  As eta is
    Hermitian to the bit, <a|eta H - H^dag eta|b> is G - G^dag, G = (eta a)^dag H b.
    """
    tests = _packet_family(spec)
    h_tests = apply_hamiltonian(spec, tests)
    gram = dagger(eta @ tests) @ h_tests
    num = float(np.max(np.abs(gram - dagger(gram))))
    den = float(np.max(np.abs(dagger(tests) @ h_tests)))
    return num / max(den, 1e-300)


def kernel_metric(spec: KernelPotentialSpec) -> KernelMetricResult:
    """First-order metric matrix on spec's grid, the grid and residuals
    against the discretized Hamiltonian (apply_hamiltonian applies it).

    The residual report carries the weak pseudo-Hermiticity residual at
    zeta and zeta/2 with the fitted order in zeta (2.0 for a correct
    first-order kernel), plus a first-order-regime ratio diagnostic.
    """
    x = spec.points()
    eta = kernel_first_order(spec, x)
    eta *= spec.dx
    # first-order-regime diagnostic |dx k|_2, whose square estimates the dropped O(zeta^2):
    # dx k = iB, B real antisymmetric, so it is sqrt(lambda_max(B^T B)), B over its binade
    scale = binade(eta.imag)
    b = eta.imag / scale
    kernel_scale = float(scale * np.sqrt(np.linalg.eigvalsh(b.T @ b)[-1]))
    # the kernel is linear in zeta, vanishes on the diagonal, and halving
    # is exact, so eta(zeta/2) is I + (dx/2) k(zeta) to the bit
    eta *= 0.5
    np.fill_diagonal(eta, 1.0)
    r_half = _weak_residual(eta, spec.replace(zeta=spec.zeta / 2.0))
    eta *= 2.0
    np.fill_diagonal(eta, 1.0)
    r_full = _weak_residual(eta, spec)
    order = float(np.log2(r_full / r_half)) if r_half > 0 else float("nan")
    if kernel_scale > 0.1:
        warnings.warn(f"first-order kernel correction {kernel_scale:.2f} is large; the dropped "
                      "O(zeta^2) terms exceed 10% of the O(zeta) term", stacklevel=2)
    report = {"residual_zeta": r_full, "residual_half_zeta": r_half, "fitted_order": order,
              "first_order_kernel_scale": kernel_scale}
    return KernelMetricResult(eta, x, report)
