"""1D electromagnetic propagation in z-stratified dispersionless media.

The wave operator Omega^2 = -eps^-1 d_z mu^-1 d_z is eps-pseudo-Hermitian,
which underwrites a WKB closed-form propagator in terms of the optical
path u(z) = int sqrt(eps mu), taken from the profile's lower end (only
differences u(z) -+ t enter); a leapfrog finite-difference solver of
E_tt + Omega^2 E = 0 serves as the independent oracle.  Units set the
vacuum speed to 1.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .errors import InputError, OutOfDomainError

DIAGNOSTIC_SAMPLES = 400  # points of the slow-variation scan
TABLE_POINTS = 20001      # nodes of the optical-path and E0_dot antiderivative tables
PATH_MARGIN = 1.0         # optical path the end nodes reach beyond the farthest foot
CFL = 0.5                 # leapfrog step over dz * min(sqrt(eps mu)); stable up to 1
MAX_STEPS = 100_000       # leapfrog steps: ~2-3 s at n = 3000, 158x em_sampled_fdtd's 633


class MediumProfile(Record):
    """Relative permittivity and permeability as functions of z.

    Outside [z_min, z_max] the profile is extended by its boundary values.
    """

    eps: callable
    mu: callable
    z_min: float
    z_max: float

    def eps_at(self, z):
        return self.eps(np.clip(z, self.z_min, self.z_max))

    def mu_at(self, z):
        return self.mu(np.clip(z, self.z_min, self.z_max))

    def index(self, z):
        """sqrt(eps mu), the inverse local speed."""
        return np.sqrt(self.eps_at(z) * self.mu_at(z))

    @property
    def constant_index(self) -> float | None:
        """sqrt(eps mu) when eps and mu are constant by construction, else
        None: a scan could miss a feature between its points."""
        if isinstance(self.eps, _Flat) and isinstance(self.mu, _Flat):
            return float(np.sqrt(self.eps.value * self.mu.value))
        return None

    def slow_variation_diagnostic(self, scale: float) -> float:
        """The larger of max |eps'| * scale / eps and max |mu'| * scale / mu
        over the domain (finite differences)."""
        z = np.linspace(self.z_min, self.z_max, DIAGNOSTIC_SAMPLES)
        h = (self.z_max - self.z_min) / (4 * DIAGNOSTIC_SAMPLES)
        return float(max(np.max(np.abs((f(z + h) - f(z - h)) / (2 * h)) * scale / f(z))
                         for f in (self.eps_at, self.mu_at)))


Z_MIN, Z_MAX = -10.0, 10.0  # domain of the analytic profiles


class _Flat(Record):
    """z -> value, constant by construction."""

    value: float

    def __call__(self, z):
        return np.full_like(np.asarray(z, dtype=float), self.value)


def vacuum(z_min: float = Z_MIN, z_max: float = Z_MAX) -> MediumProfile:
    return MediumProfile(_Flat(1.0), _Flat(1.0), z_min, z_max)


def constant_medium(eps: float, mu: float = 1.0, z_min: float = Z_MIN,
                    z_max: float = Z_MAX) -> MediumProfile:
    return MediumProfile(_Flat(eps), _Flat(mu), z_min, z_max)


def tanh_medium(eps0: float = 1.0, amp: float = 0.1, z_min: float = Z_MIN,
                z_max: float = Z_MAX) -> MediumProfile:
    """eps = eps0 + amp tanh(z), mu = 1."""
    return MediumProfile(lambda z: eps0 + amp * np.tanh(np.asarray(z, dtype=float)),
                         _Flat(1.0), z_min, z_max)


def sampled_profile(z: list, eps: list, mu: list) -> MediumProfile:
    """Profile from samples (lists or arrays) with linear interpolation."""
    z, eps, mu = (np.asarray(a, dtype=float) for a in (z, eps, mu))
    if not len(z) == len(eps) == len(mu) >= 2 or np.any(np.diff(z) <= 0):
        raise InputError("z, eps and mu need one length of at least 2, z increasing")
    if np.any(eps <= 0) or np.any(mu <= 0):
        raise InputError("eps and mu samples must be strictly positive")
    if np.all(eps == eps[0]) and np.all(mu == mu[0]):  # the same values np.interp gives
        return constant_medium(*(float(a) for a in (eps[0], mu[0], z[0], z[-1])))
    return MediumProfile(
        lambda zz: np.interp(zz, z, eps),
        lambda zz: np.interp(zz, z, mu),
        float(z[0]),
        float(z[-1]),
    )


class InitialFields(Record):
    """Initial transverse field E0(z), its time derivative and, where
    known, the length over which E0 varies."""

    E0: callable
    E0_dot: callable
    width: float | None = None

    @property
    def at_rest(self) -> bool:
        """E0_dot = 0 by construction."""
        return isinstance(self.E0_dot, _Flat) and self.E0_dot.value == 0


def gaussian_pulse(center: float = 0.0, width: float = 0.5,
                   amplitude: float = 1.0) -> InitialFields:
    if not 0 < width < np.inf:
        raise InputError("width must be positive")

    def e0(z):
        return amplitude * np.exp(-((np.asarray(z) - center) ** 2) / (2.0 * width**2))

    return InitialFields(e0, _Flat(0.0), width)


def _antiderivative(f, lo: float, hi: float):
    """Grid on [lo, hi] and int_lo^z f at each grid point by cumulative
    Simpson with f sampled at the panel midpoints."""
    z = np.linspace(lo, hi, TABLE_POINTS)
    fz = np.asarray(f(z), dtype=float)
    dz = z[1] - z[0]
    mid = np.asarray(f(z[:-1] + 0.5 * dz), dtype=float)
    return z, np.concatenate(([0.0], np.cumsum((fz[:-1] + 4.0 * mid + fz[1:]) * dz / 6.0)))


def propagate(profile: MediumProfile, init: InitialFields, z, t: float) -> np.ndarray:
    """WKB closed-form field E(z, t).

    Quarter-power impedance factors multiply the two translated initial
    pulses, plus the mu^{1/4} eps^{3/4}-weighted integral of E0_dot
    between the characteristics w_-(z,t) and w_+(z,t).  Outside the domain
    that integrand continues with the boundary medium values, as the
    profile does.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z_arr < profile.z_min) or np.any(z_arr > profile.z_max):
        raise OutOfDomainError("evaluation points outside the profile domain")
    # u on the profile and one node past each end, |t| + PATH_MARGIN out at
    # the boundary index where u is linear: every foot u(z) -+ t lies inside
    z_tab, u_tab = _antiderivative(profile.index, profile.z_min, profile.z_max)
    reach = abs(t) + PATH_MARGIN
    ends = profile.index(np.array([profile.z_min, profile.z_max]))
    z_tab = np.concatenate(([profile.z_min - reach / ends[0]], z_tab,
                            [profile.z_max + reach / ends[1]]))
    u_tab = np.concatenate(([-reach], u_tab, [u_tab[-1] + reach]))
    u_z = np.interp(z_arr, z_tab, u_tab)
    w_minus = np.interp(u_z - t, u_tab, z_tab)
    w_plus = np.interp(u_z + t, u_tab, z_tab)
    local = (np.asarray(profile.mu_at(z_arr)) / np.asarray(profile.eps_at(z_arr))) ** 0.25
    left = (np.asarray(profile.eps_at(w_minus)) / np.asarray(profile.mu_at(w_minus))) ** 0.25
    right = (np.asarray(profile.eps_at(w_plus)) / np.asarray(profile.mu_at(w_plus))) ** 0.25

    def weighted_dot(w):
        return (np.asarray(profile.mu_at(w)) ** 0.25 * np.asarray(profile.eps_at(w)) ** 0.75
                * np.asarray(init.E0_dot(w)))

    # one table from the lowest characteristic foot, so both ends share its origin
    feet = np.concatenate((w_minus, w_plus))
    grid, dot = _antiderivative(weighted_dot, min(float(feet.min()), profile.z_min),
                                max(float(feet.max()), profile.z_max))
    dot_terms = np.interp(w_plus, grid, dot) - np.interp(w_minus, grid, dot)
    out = 0.5 * local * (
        left * np.asarray(init.E0(w_minus)) + right * np.asarray(init.E0(w_plus)) + dot_terms
    )
    return out if np.ndim(z) else float(out[0])


def _omega2_bands(profile: MediumProfile, z: np.ndarray):
    """Sub-, main and super-diagonal of the discretized
    Omega^2 = -eps^-1 d_z mu^-1 d_z on the uniform grid z.

    mu is sampled between the nodes and no flux passes the ends, so
    eps * Omega^2 is a symmetric tridiagonal matrix: Omega^2 is
    eps-pseudo-Hermitian by construction.
    """
    dz = z[1] - z[0]
    coupling = 1.0 / (np.asarray(profile.mu_at(z[:-1] + 0.5 * dz), dtype=float) * dz**2)
    inv_eps = 1.0 / np.asarray(profile.eps_at(z), dtype=float)
    main = np.zeros(len(z))
    main[:-1] += coupling
    main[1:] += coupling
    return -coupling * inv_eps[1:], main * inv_eps, -coupling * inv_eps[:-1]


class FdtdResult(Record):
    z: np.ndarray
    field: np.ndarray           # E(z, t_end)


def fdtd_oracle(profile: MediumProfile, init: InitialFields, t_end: float,
                n: int = 3000) -> FdtdResult:
    """Second-order leapfrog integration of E_tt + Omega^2 E = 0 between
    clamped walls, returning the field at t_end.

    Time step dt = CFL * dz * min(sqrt(eps mu)), at most MAX_STEPS of them
    (else InputError); for t_end < 0 they are negative: leapfrog runs backward.
    """
    z = np.linspace(profile.z_min, profile.z_max, n)
    dz = z[1] - z[0]
    v_max = float(np.max(1.0 / profile.index(z)))
    dt = CFL * dz / v_max
    n_steps = int(min(max(1.0, np.ceil(abs(t_end) / dt)), MAX_STEPS + 1))
    if n_steps > MAX_STEPS:
        raise InputError(f"t = {t_end:.3g} takes more than MAX_STEPS = {MAX_STEPS} leapfrog steps")
    dt = t_end / n_steps
    lower, main, upper = _omega2_bands(profile, z)

    def apply_omega2(e):
        out = main * e
        out[1:] += lower * e[:-1]
        out[:-1] += upper * e[1:]
        return out

    e_prev = np.asarray(init.E0(z), dtype=float)
    e_curr = (
        e_prev
        + dt * np.asarray(init.E0_dot(z), dtype=float)
        - 0.5 * dt**2 * apply_omega2(e_prev)
    )
    e_curr[0] = e_curr[-1] = 0.0
    for _ in range(2, n_steps + 1):
        e_prev, e_curr = e_curr, 2.0 * e_curr - e_prev - dt**2 * apply_omega2(e_curr)
        e_curr[0] = e_curr[-1] = 0.0
    return FdtdResult(z, e_curr)
