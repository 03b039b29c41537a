import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erf

from phqm import em
from phqm.errors import InputError, OutOfDomainError, PhqmError
from phqm.linalg import opnorm

from oracles import wave_operator

RNG = np.random.default_rng(2718)

QUAD_EPSABS = 1e-12
PIECE = 0.5  # longest range of one quadrature in the optical-path oracle


class OutOfRangeError(PhqmError):
    """Value outside the invertible range of the oracle's u(z)."""


# ----------------------------------------------------------------------
# reference optical path: adaptive quadrature and root bracketing, the
# oracle for the tabulated u(z) that em.propagate builds and inverts
# ----------------------------------------------------------------------

def optical_path(profile: em.MediumProfile, z: float, origin: float = 0.0) -> float:
    """u(z) = int_origin^z sqrt(eps mu) by adaptive quadrature.

    The range is cut into pieces of at most PIECE, so that each holds few
    kinks of a sampled profile; full_output silences the roundoff chatter
    quad emits on such profiles, and the summed error estimate is checked
    instead.
    """
    if z < profile.z_min or z > profile.z_max:
        raise OutOfDomainError(f"z = {z} outside [{profile.z_min}, {profile.z_max}]")
    edges = np.linspace(origin, z, int(np.ceil(abs(z - origin) / PIECE)) + 1)
    val = abserr = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        out = quad(lambda t: float(profile.index(t)), lo, hi,
                   epsabs=QUAD_EPSABS, epsrel=1e-12, limit=200, full_output=1)
        val, abserr = val + out[0], abserr + out[1]
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


def _oracle_at(prof, nodes):
    """The oracle's u at increasing nodes, from z_min, summed node to node."""
    steps = [optical_path(prof, b, origin=a) for a, b in zip(nodes[:-1], nodes[1:])]
    return np.cumsum([optical_path(prof, nodes[0], origin=prof.z_min)] + steps)


def _impedance(prof, z):
    return (np.asarray(prof.eps_at(z)) / np.asarray(prof.mu_at(z))) ** 0.25


@pytest.mark.parametrize("name, tol", [
    ("constant", 1e-8), ("tanh", 1e-8), ("tanh_steep", 1e-8), ("sampled", 1e-6),
])
def test_path_table_matches_quadrature_oracle(name, tol):
    # propagate interpolates linearly between 1e-3-spaced nodes (and the
    # sampled profile has a kink per panel); both stay far below the 1e-2
    # WKB error budget of propagate
    z_s = np.linspace(-5.0, 5.0, 200)
    prof = {
        "constant": em.constant_medium(4.0, 1.0),
        "tanh": em.tanh_medium(amp=0.1),
        "tanh_steep": em.tanh_medium(amp=0.3),
        "sampled": em.sampled_profile(z_s, 1.0 + 0.1 * np.tanh(z_s), np.ones_like(z_s)),
    }[name]
    # the nodes and optical path, from z_min, that em.propagate tabulates
    z, u = em._antiderivative(prof.index, prof.z_min, prof.z_max)
    nodes = np.linspace(0, em.TABLE_POINTS - 1, 23).round().astype(int)
    np.testing.assert_allclose(u[nodes], _oracle_at(prof, z[nodes]), rtol=0, atol=tol)
    # inversion: for a foot w of z at t = |u(z) - u(w)|, an E0 that vanishes
    # on the far side of z leaves 0.5 (eps/mu)^(1/4)(w) E0(w) / (eps/mu)^(1/4)(z)
    # with E0(w) = w - z, so the field reads off the inverted foot
    starts = np.linspace(prof.z_min + 0.3, prof.z_max - 0.9, 7)
    for k, x in enumerate(starts):
        w, zz = (x, x + 0.6) if k % 2 else (x + 0.6, x)
        t = abs(optical_path(prof, zz, origin=w))
        init = em.InitialFields(
            lambda y, w=w, zz=zz: np.where((y - zz) * (w - zz) > 0, y - zz, 0.0),
            lambda y: np.zeros_like(np.asarray(y, dtype=float)))
        expected = 0.5 * _impedance(prof, w) / _impedance(prof, zz) * (w - zz)
        assert abs(em.propagate(prof, init, zz, t) - expected) <= tol, (k, w, zz)


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
    z, u = em._antiderivative(prof.index, prof.z_min, prof.z_max)
    np.testing.assert_allclose(u[::500], _oracle_at(prof, z[::500]), rtol=0, atol=1e-10)


@pytest.mark.parametrize("z_min, z_max", [(1.0, 5.0), (-5.0, -1.0)])
@pytest.mark.parametrize("eps, mu", [(4.0, 1.0), (2.0, 3.0)])
def test_path_table_on_a_domain_without_the_origin(z_min, z_max, eps, mu):
    # a constant medium splits the pulse into halves moving at 1/sqrt(eps mu),
    # and the feet of the points near each end leave the domain
    prof = em.constant_medium(eps, mu, z_min, z_max)
    init = em.gaussian_pulse(0.5 * (z_min + z_max), 0.3)
    z = np.linspace(z_min, z_max, 41)
    shift = 3.0 / np.sqrt(eps * mu)
    exact = 0.5 * (init.E0(z - shift) + init.E0(z + shift))
    np.testing.assert_allclose(em.propagate(prof, init, z, 3.0), exact, rtol=0, atol=1e-10)


def test_feet_beyond_the_ends_continue_with_each_boundary_index():
    # eps = 1 + 0.5 tanh(z) on [-2, 2] has sqrt(eps) 0.72 at z_min and 1.21
    # at z_max; at t = 4 both feet of every z leave the domain, where u is
    # linear with the boundary index: w_-+ = end -+ (t - |u(end) - u(z)|) / n_end
    prof = em.tanh_medium(1.0, 0.5, -2.0, 2.0)
    t = 4.0
    init = em.InitialFields(lambda y: np.asarray(y, dtype=float),
                            lambda y: np.zeros_like(np.asarray(y, dtype=float)))
    z = np.linspace(-1.5, 1.5, 5)
    lo, hi = (float(prof.index(end)) for end in (prof.z_min, prof.z_max))
    w_minus = np.array([prof.z_min - (t - optical_path(prof, x, origin=prof.z_min)) / lo
                        for x in z])
    w_plus = np.array([prof.z_max + (t - optical_path(prof, prof.z_max, origin=x)) / hi
                       for x in z])
    assert w_minus.max() < prof.z_min and w_plus.min() > prof.z_max
    expected = 0.5 / _impedance(prof, z) * (_impedance(prof, prof.z_min) * w_minus
                                            + _impedance(prof, prof.z_max) * w_plus)
    np.testing.assert_allclose(em.propagate(prof, init, z, t), expected, rtol=0, atol=1e-9)


@pytest.mark.parametrize("prof", [em.tanh_medium(amp=0.3), em.constant_medium(2.0, 3.0, 1.0, 5.0)],
                         ids=["tanh", "off_origin"])
def test_zero_time_returns_the_initial_field(prof):
    # at t = 0 both feet are z itself and the E0_dot integral is empty;
    # the end nodes still lie PATH_MARGIN of optical path past the
    # profile's ends, so the table stays strictly increasing
    init = em.InitialFields(lambda z: np.cos(np.asarray(z, dtype=float)),
                            lambda z: np.exp(np.asarray(z, dtype=float) / 5.0))
    z = np.linspace(prof.z_min, prof.z_max, 201)
    np.testing.assert_allclose(em.propagate(prof, init, z, 0.0), init.E0(z), rtol=0, atol=1e-12)


def test_vacuum_far_past_the_walls_matches_dalembert():
    # t = 25 on [-10, 10]: every foot z -+ t lies outside the domain, between
    # an end and the node past it; E0 = cos(z/3) and E0_dot = sin(z/2)/2 give
    # E = (cos((z-t)/3) + cos((z+t)/3))/2 + (cos((z-t)/2) - cos((z+t)/2))/2
    t = 25.0
    init = em.InitialFields(lambda z: np.cos(np.asarray(z, dtype=float) / 3.0),
                            lambda z: 0.5 * np.sin(np.asarray(z, dtype=float) / 2.0))
    z = np.linspace(em.Z_MIN, em.Z_MAX, 201)
    exact = 0.5 * (np.cos((z - t) / 3.0) + np.cos((z + t) / 3.0)
                   + np.cos((z - t) / 2.0) - np.cos((z + t) / 2.0))
    np.testing.assert_allclose(em.propagate(em.vacuum(), init, z, t), exact, rtol=0, atol=1e-6)


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
    omega2 = wave_operator(prof, z)
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
    lhs = prof.eps_at(grid)[:, None] * wave_operator(prof, grid)
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


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_fdtd_takes_at_most_max_steps(sign, monkeypatch):
    # five nodes on [-1, 1] in vacuum: dz = 0.5 and dt = CFL dz = 0.25, so
    # |t_end| = 2.5 takes ten steps and 2.6 eleven
    monkeypatch.setattr(em, "MAX_STEPS", 10)
    prof, init = em.vacuum(-1.0, 1.0), em.gaussian_pulse(0.0, 0.3)
    assert np.isfinite(em.fdtd_oracle(prof, init, sign * 2.5, n=5).field).all()
    with pytest.raises(InputError, match="more than MAX_STEPS = 10 leapfrog steps"):
        em.fdtd_oracle(prof, init, sign * 2.6, n=5)


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
