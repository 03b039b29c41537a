"""Complex classical mechanics of analytic potentials.

Flows of m dz/dt = p, dp/dt = -V'(z), generalized Poisson brackets on
R^4 = C^2, the Darboux chart for the a=b=c=d=0 structure, the equivalent
real Hamiltonian K = 2 Re(h) and its integral of motion H_i = Im(h).
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .errors import DegenerateStructureError, InputError, StepOverflowError

OVERFLOW_GUARD = 1e12
MAX_STEPS = 1_000_000  # RK4 steps of one flow: ~3 s at ~2.5 us, 333x classical_cubic's
FD_STEP = 1e-5         # central-difference step of brackets

J_STANDARD = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


class SymplecticParams(Record):
    """Parameters (a, b, c, d) of the dynamically compatible structures."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def matrix(self) -> np.ndarray:
        if abs(self.c**2 + self.d**2 - self.a * self.b - 1.0) < 1e-12:
            raise DegenerateStructureError("c^2 + d^2 - a b must differ from 1")
        a, b, c, d = self.a, self.b, self.c, self.d
        return 0.5 * np.array(
            [
                [0.0, 1.0 + c, -a, -d],
                [-(1.0 + c), 0.0, -d, -b],
                [a, d, 0.0, -1.0 + c],
                [d, b, 1.0 - c, 0.0],
            ]
        )


class ComplexPhasePoint(Record):
    z: complex
    p: complex


class DarbouxPoint(Record):
    """Canonical chart for the a=b=c=d=0 structure."""

    x1: float
    p1: float
    x2: float
    p2: float

    def to_complex(self) -> ComplexPhasePoint:
        return ComplexPhasePoint(
            (self.x1 + 1j * self.p2) / np.sqrt(2.0),
            (self.p1 + 1j * self.x2) / np.sqrt(2.0),
        )


def to_darboux(pt: ComplexPhasePoint) -> DarbouxPoint:
    """(x1, p1, x2, p2) = sqrt(2) (Re z, Re p, Im p, Im z)."""
    s = np.sqrt(2.0)
    return DarbouxPoint(s * pt.z.real, s * pt.p.real, s * pt.p.imag, s * pt.z.imag)


class Trajectory(Record):
    times: np.ndarray
    z: np.ndarray
    p: np.ndarray


def flow(v_prime, m: float, s0: ComplexPhasePoint, t_end: float, dt: float,
         sample_every: int = 1) -> Trajectory:
    """RK4 integration of m dz/dt = p, dp/dt = -V'(z) from t = 0 to t_end.

    Takes the fewest equal steps of at most dt (to 1e-9 relative) that end
    at t_end, backward in time when t_end < 0, InputError past MAX_STEPS;
    t_end = 0 returns the start point alone.  A V' that raises an
    ArithmeticError or a non-finite step ends the flow with StepOverflowError.
    """
    if dt <= 0:
        raise InputError("dt must be positive")
    if m == 0:
        raise InputError("mass must be nonzero")
    if sample_every < 1:
        raise InputError("sample_every must be at least 1")
    n_steps = int(min(np.ceil(abs(t_end) / dt * (1.0 - 1e-9)), MAX_STEPS + 1))
    if n_steps > MAX_STEPS:
        raise InputError(f"|t_end| / dt asks for more than MAX_STEPS = {MAX_STEPS} steps")
    h = t_end / max(n_steps, 1)
    z, p = complex(s0.z), complex(s0.p)
    times = [0.0]
    zs = [z]
    ps = [p]

    def rhs(zz, pp):
        try:
            return pp / m, -v_prime(zz)
        except ArithmeticError as exc:
            raise StepOverflowError(f"V' fails at z = {zz}: {exc}") from exc

    for step in range(1, n_steps + 1):
        k1z, k1p = rhs(z, p)
        k2z, k2p = rhs(z + 0.5 * h * k1z, p + 0.5 * h * k1p)
        k3z, k3p = rhs(z + 0.5 * h * k2z, p + 0.5 * h * k2p)
        k4z, k4p = rhs(z + h * k3z, p + h * k3p)
        z = z + h * (k1z + 2 * k2z + 2 * k3z + k4z) / 6.0
        p = p + h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
        if not (abs(z) <= OVERFLOW_GUARD and abs(p) <= OVERFLOW_GUARD):
            raise StepOverflowError(f"trajectory diverged at step {step}")
        if step % sample_every == 0 or step == n_steps:
            times.append(step * h)
            zs.append(z)
            ps.append(p)
    return Trajectory(np.array(times), np.array(zs), np.array(ps))


def _gradient(func, w, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of ``func`` at the real vector ``w``.

    ``func`` takes a real vector of the same length and may return complex
    values.  Every derivative in this module comes from here.
    """
    w = np.asarray(w, dtype=float)
    return np.array([(func(w + e) - func(w - e)) / (2.0 * step) for e in step * np.eye(len(w))],
                    dtype=complex)


def bracket(params: SymplecticParams, func_a, func_b, pt):
    """Generalized bracket sum_jk J_jk dA/dw_j dB/dw_k by central differences.

    Functions take the real 4-vector w = (x, p, y, q) and may return
    complex values.
    """
    return complex(_gradient(func_a, pt) @ params.matrix() @ _gradient(func_b, pt))


def standard_bracket(func_a, func_b, pt):
    """Standard Poisson bracket on R^4 (pairs (x, p) and (y, q))."""
    return complex(_gradient(func_a, pt) @ J_STANDARD @ _gradient(func_b, pt))


def phase_functions(potential, m: float):
    """Complex coordinate, momentum and Hamilton functions of w = (x,p,y,q)."""

    def z_of(w):
        return w[0] + 1j * w[2]

    def p_of(w):
        return w[1] + 1j * w[3]

    def h_of(w):
        return p_of(w) ** 2 / (2.0 * m) + potential(z_of(w))

    return z_of, p_of, h_of


def real_hamiltonians(potential, z, p, m: float):
    """(K, H_i) = (2 Re h, Im h) of h = p^2/2m + V(z), elementwise on z and p.

    A non-finite h, such as V at a pole, ends it with StepOverflowError.
    """
    z = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):
        h = p**2 / (2.0 * m) + potential(z)
    bad = ~np.isfinite(h)
    if bad.any():
        raise StepOverflowError(f"h = p^2/2m + V(z) is not finite at z = {z[bad][0]}")
    return 2.0 * h.real, h.imag
