import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erf

from phqm import em
from phqm.errors import OutOfDomainError, PhqmError
from phqm.linalg import opnorm

RNG = np.random.default_rng(2718)

QUAD_EPSABS = 1e-12


class OutOfRangeError(PhqmError):
    """Value outside the invertible range of the oracle's u(z)."""


# ----------------------------------------------------------------------
# reference optical path: adaptive quadrature and root bracketing, the
# oracle for the tabulated u(z) that em.propagate uses
# ----------------------------------------------------------------------

def optical_path(profile: em.MediumProfile, z: float) -> float:
    """u(z) = int_0^z sqrt(eps mu) by adaptive quadrature.

    full_output silences the roundoff chatter quad emits on piecewise
    (sampled) profiles; the achieved error estimate is checked instead.
    """
    if z < profile.z_min or z > profile.z_max:
        raise OutOfDomainError(f"z = {z} outside [{profile.z_min}, {profile.z_max}]")
    out = quad(lambda t: float(profile.index(t)), 0.0, z,
               epsabs=QUAD_EPSABS, epsrel=1e-12, limit=200, full_output=1)
    val, abserr = out[0], out[1]
    # sampled profiles have a kink per panel; the conservative estimate
    # then sits well above the smooth-profile roundoff floor
    if abserr > 1e-6 * max(1.0, abs(val)):
        raise ValueError(f"optical path quadrature error {abserr:.2e} too large")
    return float(val)


def invert_u(profile: em.MediumProfile, s: float) -> float:
    """Monotone inversion of u; raises OutOfRangeError beyond the domain image."""
    lo, hi = optical_path(profile, profile.z_min), optical_path(profile, profile.z_max)
    if s < lo or s > hi:
        raise OutOfRangeError(f"s = {s} outside [{lo:.6g}, {hi:.6g}]")
    if s == lo:
        return profile.z_min
    if s == hi:
        return profile.z_max
    return float(brentq(lambda z: optical_path(profile, z) - s, profile.z_min,
                        profile.z_max, xtol=1e-12, rtol=1e-14))


def test_optical_path_vacuum():
    prof = em.vacuum()
    for z in (-3.0, 0.0, 2.5):
        assert optical_path(prof, z) == pytest.approx(z, abs=1e-12)


def test_optical_path_constant_medium():
    prof = em.constant_medium(4.0, 1.0)
    assert optical_path(prof, 1.5) == pytest.approx(3.0, abs=1e-12)


def test_optical_path_quadratic_profile():
    # int_0^1 sqrt(1 + z^2) dz = (sqrt 2 + asinh 1)/2
    prof = em.MediumProfile(
        lambda z: 1.0 + np.asarray(z, dtype=float) ** 2,
        lambda z: np.ones_like(np.asarray(z, dtype=float)),
        0.0, 1.0,
    )
    exact = 0.5 * (np.sqrt(2.0) + np.arcsinh(1.0))
    assert optical_path(prof, 1.0) == pytest.approx(exact, abs=1e-11)


def test_optical_path_domain_guard():
    with pytest.raises(OutOfDomainError):
        optical_path(em.vacuum(-1.0, 1.0), 2.0)


def test_invert_u_round_trip():
    prof = em.tanh_medium()
    for s in (-4.0, 0.3, 5.5):
        z = invert_u(prof, s)
        assert optical_path(prof, z) == pytest.approx(s, abs=1e-10)


def test_invert_u_constant_medium():
    prof = em.constant_medium(4.0)
    assert invert_u(prof, 3.0) == pytest.approx(1.5, abs=1e-10)


def test_invert_u_range_guard():
    with pytest.raises(OutOfRangeError):
        invert_u(em.vacuum(-1.0, 1.0), 5.0)


@pytest.mark.parametrize("name, tol", [
    ("constant", 1e-8), ("tanh", 1e-8), ("tanh_steep", 1e-8), ("sampled", 1e-6),
])
def test_path_table_matches_quadrature_oracle(name, tol):
    # the table interpolates linearly between 1e-3-spaced nodes (and the
    # sampled profile has a kink per panel); both stay far below the 1e-2
    # WKB error budget of propagate
    z_s = np.linspace(-5.0, 5.0, 200)
    prof = {
        "constant": em.constant_medium(4.0, 1.0),
        "tanh": em.tanh_medium(amp=0.1),
        "tanh_steep": em.tanh_medium(amp=0.3),
        "sampled": em.sampled_profile(z_s, 1.0 + 0.1 * np.tanh(z_s), np.ones_like(z_s)),
    }[name]
    table = em._PathTable(prof)
    zs = np.linspace(prof.z_min, prof.z_max, 23)
    u = np.array([optical_path(prof, z) for z in zs])
    np.testing.assert_allclose(table.forward(zs), u, rtol=0, atol=tol)
    ss = np.linspace(u[1], u[-2], 7)
    z_ref = np.array([invert_u(prof, s) for s in ss])
    np.testing.assert_allclose(table.inverse(ss, strict=True), z_ref, rtol=0, atol=tol)


@pytest.mark.parametrize("name", ["tanh", "tanh_strong", "sine"])
def test_path_table_nodes_match_quadrature(name):
    # cumulative Simpson alone is accurate to ~1e-11 at the nodes; mixing
    # in a trapezoid sum with the Simpson-pair Richardson weight 1/15
    # would add ~1e-9 there
    prof = {
        "tanh": em.tanh_medium(1.0, 0.1),
        "tanh_strong": em.tanh_medium(2.0, 0.5),
        "sine": em.MediumProfile(lambda z: 1.0 + 0.3 * np.sin(np.asarray(z, dtype=float)),
                                 lambda z: np.ones_like(np.asarray(z, dtype=float)),
                                 em.Z_MIN, em.Z_MAX),
    }[name]
    table = em._PathTable(prof)
    nodes = table.z[::500]
    u = np.array([optical_path(prof, z) for z in nodes])
    np.testing.assert_allclose(table.u[::500], u, rtol=0, atol=1e-10)


@pytest.mark.parametrize("z_min, z_max", [(1.0, 5.0), (-5.0, -1.0)])
@pytest.mark.parametrize("eps, mu", [(4.0, 1.0), (2.0, 3.0)])
def test_path_table_on_a_domain_without_the_origin(z_min, z_max, eps, mu):
    # u(z) = int_0^z sqrt(eps mu), with the medium extended to the origin
    prof = em.constant_medium(eps, mu, z_min, z_max)
    table = em._PathTable(prof)
    z = np.linspace(z_min, z_max, 41)
    np.testing.assert_allclose(table.forward(z), np.sqrt(eps * mu) * z, rtol=0, atol=1e-10)
    inner = z[1:-1]
    np.testing.assert_allclose(table.inverse(np.sqrt(eps * mu) * inner, strict=True), inner,
                               rtol=0, atol=1e-10)


def test_vacuum_closed_form_is_dalembert():
    # Gaussian E0 and Gaussian-derivative E0_dot give a closed-form
    # d'Alembert solution to compare against
    sigma, t = 0.5, 1.3
    e0 = lambda z: np.exp(-(np.asarray(z) ** 2) / (2 * sigma**2))
    e0dot = lambda z: -np.asarray(z) / sigma**2 * np.exp(-(np.asarray(z) ** 2) / (2 * sigma**2))
    init = em.InitialFields(e0, e0dot)
    prof = em.vacuum()
    z = np.linspace(-4.0, 4.0, 101)
    # d'Alembert: (E0(z-t) + E0(z+t))/2 + (1/2) [E0-type antiderivative]
    exact = 0.5 * (e0(z - t) + e0(z + t)) + 0.5 * (e0(z + t) - e0(z - t))
    np.testing.assert_allclose(em.propagate(prof, init, z, t), exact, atol=1e-10)


@pytest.mark.parametrize("t", [3.0, -3.0])
@pytest.mark.parametrize("center", [-9.5, 9.5])
def test_initial_velocity_at_an_edge_matches_dalembert(center, t):
    # E0 = 0 and a Gaussian E0_dot near a wall: the characteristic feet
    # leave the domain on one side, and d'Alembert gives (G(z+t) - G(z-t))/2
    # with G the antiderivative of E0_dot
    sigma = 0.5
    init = em.InitialFields(
        lambda z: np.zeros_like(np.asarray(z, dtype=float)),
        lambda z: np.exp(-((np.asarray(z) - center) ** 2) / (2 * sigma**2)),
    )
    antiderivative = lambda z: sigma * np.sqrt(np.pi / 2) * erf((z - center) / (sigma * np.sqrt(2)))
    z = np.linspace(-10.0, 10.0, 401)
    exact = 0.5 * (antiderivative(z + t) - antiderivative(z - t))
    np.testing.assert_allclose(em.propagate(em.vacuum(), init, z, t), exact, rtol=0, atol=1e-6)


def test_vacuum_zero_velocity_pulse():
    init = em.gaussian_pulse(0.0, 0.5)
    prof = em.vacuum()
    z = np.linspace(-4, 4, 81)
    exact = 0.5 * (init.E0(z - 2.0) + init.E0(z + 2.0))
    np.testing.assert_allclose(em.propagate(prof, init, z, 2.0), exact, atol=1e-10)


def test_constant_medium_pulse_speed():
    # the right-moving half of the split pulse travels at 1 / sqrt(eps mu)
    prof = em.constant_medium(4.0, 1.0, -10.0, 10.0)
    init = em.gaussian_pulse(0.0, 0.4)
    z = np.linspace(0.05, 5.0, 4001)

    def peak_position(t):
        field = em.propagate(prof, init, z, t)
        j = np.argmax(field)
        # quadratic refinement around the sampled maximum
        a, b, c = field[j - 1], field[j], field[j + 1]
        return z[j] + 0.5 * (a - c) / (a - 2 * b + c) * (z[1] - z[0])

    speed = (peak_position(4.0) - peak_position(2.0)) / 2.0
    assert abs(speed - 0.5) <= 1e-4


def test_wave_operator_eps_pseudo_hermitian():
    prof = em.tanh_medium(amp=0.3)
    z = np.linspace(-8, 8, 300)
    omega2 = em.wave_operator(prof, z)
    eps = prof.eps_at(z)
    lhs = eps[:, None] * omega2
    assert opnorm(lhs - np.conj(lhs.T)) <= 1e-12 * opnorm(lhs)
    # equivalent Hermitian operator has real non-negative spectrum
    h = np.sqrt(eps)[:, None] * omega2 / np.sqrt(eps)[None, :]
    evals = np.linalg.eigvalsh(0.5 * (h + np.conj(h.T)))
    assert evals.min() >= -1e-10 * abs(evals).max()


@pytest.mark.parametrize("seed", range(8))
def test_eps_omega2_is_symmetric_to_rounding_for_any_medium(seed):
    # eps Omega^2 has -c_i eps_i / eps_i+1 and -c_i eps_i / eps_i on its two
    # off-diagonals, each -c_i to within three roundings, so the record gates
    # no symmetry
    rng = np.random.default_rng(seed)
    z = np.sort(rng.uniform(-5.0, 5.0, 12))
    eps, mu = (np.exp(rng.uniform(-3.0, 3.0, 12)) for _ in range(2))
    prof = em.sampled_profile(z, eps, mu)
    grid = np.linspace(z[0], z[-1], int(rng.integers(3, 300)))
    lhs = prof.eps_at(grid)[:, None] * em.wave_operator(prof, grid)
    assert opnorm(lhs - lhs.T) <= 64 * np.finfo(float).eps * opnorm(lhs)


def test_fdtd_standing_mode():
    # vacuum eigenmode sin(pi z / L) cos(pi t / L) with clamped walls
    length = 10.0
    prof = em.vacuum(0.0, length)
    k = np.pi / length
    init = em.InitialFields(
        lambda z: np.sin(k * np.asarray(z)),
        lambda z: np.zeros_like(np.asarray(z, dtype=float)),
    )
    t_end = 2.0
    out = em.fdtd_oracle(prof, init, t_end, n=1200)
    exact = np.sin(k * out.z) * np.cos(k * t_end)
    err = np.linalg.norm(out.field - exact) / np.linalg.norm(exact)
    assert err < 1e-5


def test_fdtd_convergence_order_two():
    prof = em.tanh_medium(amp=0.1)
    init = em.gaussian_pulse(-2.0, 0.5)
    t_end = 1.0
    errors = []
    ref = em.fdtd_oracle(prof, init, t_end, n=6400).field
    z_ref = np.linspace(prof.z_min, prof.z_max, 6400)
    for n in (800, 1600):
        out = em.fdtd_oracle(prof, init, t_end, n=n)
        coarse = np.interp(z_ref, out.z, out.field)
        errors.append(np.linalg.norm(coarse - ref) / np.linalg.norm(ref))
    order = np.log2(errors[0] / errors[1])
    assert order == pytest.approx(2.0, abs=0.4)


def test_closed_form_matches_fdtd_on_slow_profile():
    prof = em.tanh_medium(amp=0.1)
    init = em.gaussian_pulse(-3.0, 0.45)
    assert prof.slow_variation_diagnostic(0.45) < 0.05
    t_end = 2.0
    oracle = em.fdtd_oracle(prof, init, t_end, n=3000)
    closed = em.propagate(prof, init, oracle.z, t_end)
    err = np.linalg.norm(closed - oracle.field) / np.linalg.norm(oracle.field)
    assert err <= 1e-2


def test_fdtd_runs_backward_for_negative_t_end():
    # with E0_dot = 0 the field is even in t, so leapfrog's negative steps
    # must reproduce the forward run; the closed form agrees at -t too
    prof = em.tanh_medium(amp=0.1)
    init = em.gaussian_pulse(-3.0, 0.45)
    back = em.fdtd_oracle(prof, init, -2.0, n=3000)
    np.testing.assert_array_equal(back.field, em.fdtd_oracle(prof, init, 2.0, n=3000).field)
    closed = em.propagate(prof, init, back.z, -2.0)
    assert np.linalg.norm(closed - back.field) / np.linalg.norm(back.field) <= 1e-2


def test_fdtd_backward_moving_pulse_matches_closed_form():
    # E0_dot = -E0' moves the pulse right, so at t < 0 it sits to the left
    prof = em.tanh_medium(amp=0.1)
    sigma, center = 0.45, -3.0
    e0 = lambda z: np.exp(-((np.asarray(z) - center) ** 2) / (2 * sigma**2))
    init = em.InitialFields(e0, lambda z: (np.asarray(z) - center) / sigma**2 * e0(z), sigma)
    oracle = em.fdtd_oracle(prof, init, -2.0, n=3000)
    closed = em.propagate(prof, init, oracle.z, -2.0)
    assert np.linalg.norm(closed - oracle.field) / np.linalg.norm(oracle.field) <= 1e-2
    assert oracle.z[np.argmax(np.abs(oracle.field))] < center - 1.5


def test_propagate_rejects_points_outside_the_domain():
    prof = em.vacuum(-5.0, 5.0)
    with pytest.raises(OutOfDomainError, match="evaluation points"):
        em.propagate(prof, em.gaussian_pulse(), np.array([0.0, 5.5]), 1.0)


def test_strict_propagate_rejects_characteristics_leaving_the_domain():
    prof = em.vacuum(-5.0, 5.0)
    z = np.array([-1.0, 0.0, 1.0])
    em.propagate(prof, em.gaussian_pulse(), z, 2.0, strict=True)
    with pytest.raises(OutOfDomainError, match="characteristics"):
        em.propagate(prof, em.gaussian_pulse(), z, 4.5, strict=True)


@pytest.mark.parametrize("eps, mu", [([1.0, 0.0, 1.0], [1.0] * 3), ([1.0] * 3, [1.0, -1.0, 1.0])])
def test_sampled_profile_rejects_non_positive_samples(eps, mu):
    with pytest.raises(ValueError, match="strictly positive"):
        em.sampled_profile([-1.0, 0.0, 1.0], eps, mu)


def test_time_reversal():
    # forward snapshot (E, E_dot) propagated with -t recovers the pulse
    prof = em.tanh_medium(amp=0.1)
    init = em.gaussian_pulse(-2.0, 0.6)
    z = np.linspace(-8.0, 8.0, 401)
    t = 1.5
    forward = em.propagate(prof, init, z, t)
    h = 1e-5
    e_dot = (em.propagate(prof, init, z, t + h) - em.propagate(prof, init, z, t - h)) / (2 * h)
    snapshot_init = em.InitialFields(
        lambda zz: np.interp(zz, z, forward),
        lambda zz: np.interp(zz, z, e_dot),
    )
    back = em.propagate(prof, snapshot_init, z, -t)
    orig = init.E0(z)
    err = np.linalg.norm(back - orig) / np.linalg.norm(orig)
    assert err <= 2e-2  # twice the one-way WKB error budget
    # zero initial derivative makes the closed form even in t
    np.testing.assert_allclose(em.propagate(prof, init, z, -t), forward, atol=1e-12)


def test_sampled_profile_interpolation():
    z = np.linspace(-5, 5, 200)
    prof = em.sampled_profile(z, 1.0 + 0.1 * np.tanh(z), np.ones_like(z))
    analytic = em.tanh_medium(amp=0.1, z_min=-5.0, z_max=5.0)
    zz = np.linspace(-4, 4, 50)
    np.testing.assert_allclose(prof.eps_at(zz), analytic.eps_at(zz), atol=1e-4)
    assert optical_path(prof, 3.0) == pytest.approx(
        optical_path(analytic, 3.0), abs=1e-4
    )


def test_fdtd_constant_medium_speed():
    prof = em.constant_medium(4.0, 1.0, -10.0, 10.0)
    init = em.gaussian_pulse(-3.0, 0.4)
    out = em.fdtd_oracle(prof, init, 6.0, n=4000)
    j = int(np.argmax(out.field[out.z > -3.0]))
    z_pos = out.z[out.z > -3.0]
    a, b, c = (out.field[out.z > -3.0])[j - 1 : j + 2]
    peak = z_pos[j] + 0.5 * (a - c) / (a - 2 * b + c) * (z_pos[1] - z_pos[0])
    assert peak == pytest.approx(-3.0 + 6.0 / 2.0, abs=2e-3)
