import re

import numpy as np
import pytest

from phqm import classical
from phqm.classical import (
    FD_STEP,
    J_STANDARD,
    ComplexPhasePoint,
    DarbouxPoint,
    SymplecticParams,
    bracket,
    flow,
    phase_functions,
    real_hamiltonians,
    standard_bracket,
    to_darboux,
)
from phqm.errors import DegenerateStructureError, InputError, StepOverflowError

from oracles import GRADIENT_STEP, cauchy_riemann_residual, integrability_report, symmetry_flow

RNG = np.random.default_rng(1618)


def cubic(z):
    return 1j * z**3


def cubic_prime(z):
    return 3j * z**2


def hamiltonians_at(pt, potential=cubic, m=1.0):
    """(K, H_i) at a Darboux point."""
    cpt = pt.to_complex()
    return real_hamiltonians(potential, cpt.z, cpt.p, m)


def test_free_flow_is_straight_line():
    traj = flow(lambda z: 0.0 * z, 2.0, ComplexPhasePoint(0.5 + 0.2j, 1.0 - 0.4j), 1.0, 1e-3)
    expected = 0.5 + 0.2j + (1.0 - 0.4j) * traj.times / 2.0
    np.testing.assert_allclose(traj.z, expected, atol=1e-12)


def test_harmonic_flow_closed_orbit():
    # closed form: z(t) = z0 cos(w t) + p0 sin(w t)/(m w)
    omega, m = 2.0, 1.0
    z0, p0 = 1.0 + 0.3j, 0.2 - 0.5j
    traj = flow(lambda z: m * omega**2 * z, m, ComplexPhasePoint(z0, p0), 2 * np.pi / omega, 1e-3)
    exact = z0 * np.cos(omega * traj.times) + p0 * np.sin(omega * traj.times) / (m * omega)
    np.testing.assert_allclose(traj.z, exact, atol=1e-9)


def test_cubic_conservation_along_flow():
    traj = flow(cubic_prime, 1.0, ComplexPhasePoint(0.0, 1.0), 10.0, 1e-3, sample_every=100)
    h_vals = traj.p**2 / 2.0 + cubic(traj.z)
    assert np.max(np.abs(h_vals.imag)) <= 1e-8
    assert np.ptp(h_vals.real) <= 1e-8


def test_flow_ends_at_t_end_in_steps_of_at_most_dt():
    # 1.0 is no whole number of 0.3 steps: four steps of 0.25, not three of 0.3
    traj = flow(lambda z: z, 1.0, ComplexPhasePoint(1.0, 0.0), 1.0, 0.3)
    np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(traj.z[-1], np.cos(1.0), atol=1e-3)


def test_flow_step_count_tolerates_rounding_of_t_end_over_dt():
    # 3 * 0.1 / 0.1 evaluates to 3.0000000000000004: three steps, not four
    t_end = 3 * 0.1
    assert t_end / 0.1 > 3.0
    traj = flow(lambda z: z, 1.0, ComplexPhasePoint(1.0, 0.0), t_end, 0.1)
    np.testing.assert_allclose(traj.times, [0.0, 0.1, 0.2, t_end], rtol=0.0, atol=1e-15)


def test_flow_keeps_dt_when_it_divides_t_end():
    traj = flow(cubic_prime, 1.0, ComplexPhasePoint(0.0, 1.0), 3.0, 1e-3, sample_every=50)
    assert len(traj.times) == 61
    np.testing.assert_array_equal(traj.times, np.arange(0, 3001, 50) * 1e-3)


def test_harmonic_flow_runs_backward_to_negative_t_end():
    traj = flow(lambda z: z, 1.0, ComplexPhasePoint(1.0, 0.0), -1.0, 1e-3)
    assert traj.times[-1] == pytest.approx(-1.0, abs=1e-15)
    assert np.all(np.diff(traj.times) < 0)
    np.testing.assert_allclose(traj.z, np.cos(traj.times), atol=1e-12)
    np.testing.assert_allclose(traj.p, -np.sin(traj.times), atol=1e-12)


def test_flow_to_zero_returns_the_start_point():
    traj = flow(cubic_prime, 1.0, ComplexPhasePoint(0.2 + 0.1j, 1.0), 0.0, 1e-3)
    np.testing.assert_array_equal(traj.times, [0.0])
    np.testing.assert_array_equal(traj.z, [0.2 + 0.1j])
    np.testing.assert_array_equal(traj.p, [1.0])


@pytest.mark.parametrize("dt", [0.0, -1e-3])
def test_flow_rejects_non_positive_dt(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        flow(cubic_prime, 1.0, ComplexPhasePoint(0.0, 1.0), 1.0, dt)


def test_flow_overflow_guard():
    with pytest.raises(StepOverflowError):
        flow(lambda z: -50.0 * z, 1.0, ComplexPhasePoint(1.0, 1.0), 50.0, 0.05)


@pytest.mark.parametrize(
    "v_prime, z0, cause",
    [(lambda z: -(z ** -2), 0.0, ZeroDivisionError),
     (lambda z: z ** 2000, 2.0, OverflowError),
     (lambda z: complex("nan") * z, 1.0, type(None))],
    ids=["pole", "complex-overflow", "nan"],
)
def test_flow_ends_with_step_overflow_where_the_force_fails(v_prime, z0, cause):
    # a NaN step compares false against the guard, so it must be caught apart
    with pytest.raises(StepOverflowError) as info:
        flow(v_prime, 1.0, ComplexPhasePoint(z0, 1.0), 1.0, 0.1)
    assert type(info.value.__cause__) is cause


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_flow_takes_at_most_max_steps(sign, monkeypatch):
    # ten steps of 0.1 reach |t_end| = 1; 1.01 needs an eleventh
    monkeypatch.setattr(classical, "MAX_STEPS", 10)
    traj = flow(cubic_prime, 1.0, ComplexPhasePoint(0.0, 1.0), sign * 1.0, 0.1)
    assert len(traj.times) == 11
    with pytest.raises(InputError, match="more than MAX_STEPS = 10 steps"):
        flow(cubic_prime, 1.0, ComplexPhasePoint(0.0, 1.0), sign * 1.01, 0.1)


def test_flow_rejects_zero_mass():
    with pytest.raises(ValueError, match="mass must be nonzero"):
        flow(cubic_prime, 0.0, ComplexPhasePoint(0.0, 1.0), 1.0, 0.1)


def test_standard_bracket_canonical_pairs():
    pt = RNG.standard_normal(4)
    assert standard_bracket(lambda w: w[0], lambda w: w[1], pt).real == pytest.approx(
        J_STANDARD[0, 1], abs=1e-9
    )
    assert abs(standard_bracket(lambda w: w[0], lambda w: w[3], pt)) < 1e-9


def test_standard_bracket_incompatibility():
    # {z, h}_PB = {p, h}_PB = 0: complex dynamics is invisible to the
    # standard symplectic structure
    z_of, p_of, h_of = phase_functions(cubic, 1.0)
    for _ in range(5):
        pt = RNG.standard_normal(4)
        assert abs(standard_bracket(z_of, h_of, pt)) < 1e-8
        assert abs(standard_bracket(p_of, h_of, pt)) < 1e-8


def test_j0_bracket_compatibility():
    # the a=b=c=d=0 member reproduces dz/dt = p/m
    z_of, p_of, h_of = phase_functions(cubic, 1.3)
    params = SymplecticParams()
    for _ in range(5):
        pt = RNG.standard_normal(4)
        lhs = bracket(params, z_of, h_of, pt)
        assert abs(lhs - p_of(pt) / 1.3) < 1e-6
        rhs = bracket(params, p_of, h_of, pt)
        assert abs(rhs + cubic_prime(z_of(pt))) < 1e-6


def test_coordinate_bracket_matches_matrix_entry():
    params = SymplecticParams(0.2, -0.1, 0.4, 0.3)
    j = params.matrix()
    pt = RNG.standard_normal(4)
    for a in range(4):
        for b in range(4):
            val = bracket(params, lambda w, a=a: w[a], lambda w, b=b: w[b], pt)
            assert abs(val - j[a, b]) < 1e-9


def test_degenerate_structure_rejected():
    with pytest.raises(DegenerateStructureError):
        SymplecticParams(0.0, 0.0, 1.0, 0.0).matrix()


def test_darboux_round_trip():
    pt = ComplexPhasePoint(0.3 - 0.7j, 1.1 + 0.2j)
    d = to_darboux(pt)
    back = d.to_complex()
    assert abs(back.z - pt.z) < 1e-14
    assert abs(back.p - pt.p) < 1e-14
    np.testing.assert_allclose(
        [d.x1, d.p1, d.x2, d.p2],
        np.sqrt(2.0) * np.array([pt.z.real, pt.p.real, pt.p.imag, pt.z.imag]),
    )


def test_free_particle_hamiltonians():
    m = 1.7
    pt = DarbouxPoint(0.4, 1.2, -0.3, 0.8)
    k, h_i = hamiltonians_at(pt, lambda z: 0.0 * z, m)
    assert k == pytest.approx((pt.p1**2 - pt.x2**2) / (2 * m))
    assert h_i == pytest.approx(pt.x2 * pt.p1 / (2 * m))


def test_real_hamiltonians_match_complex_values():
    z, p = np.array([0.3 + 0.9j, -1.1, 0.0]), np.array([-0.4 + 0.6j, 0.2j, 1.0])
    k, h_i = real_hamiltonians(cubic, z, p, 2.0)
    h = [complex(pp) ** 2 / 4.0 + cubic(complex(zz)) for zz, pp in zip(z, p)]
    np.testing.assert_allclose(k, 2 * np.real(h), rtol=1e-15)
    np.testing.assert_allclose(h_i, np.imag(h), rtol=1e-15)


@pytest.mark.parametrize("potential, z", [(lambda z: z ** -1, 0.0), (lambda z: z ** 2000, 2.0),
                                          (lambda z: np.where(z == 1.0, np.nan, z), 1.0)],
                         ids=["pole", "overflow", "nan"])
def test_a_non_finite_hamiltonian_ends_with_step_overflow_naming_z(potential, z):
    # numpy returns inf or NaN where Python would raise
    with pytest.raises(StepOverflowError, match=re.escape(f"at z = {complex(z)}")):
        real_hamiltonians(potential, np.array([0.5, z, 0.5]), np.ones(3), 1.0)


def test_conservation_in_darboux_chart():
    traj = flow(cubic_prime, 1.0, ComplexPhasePoint(0.0, 1.0), 5.0, 1e-3, sample_every=50)
    chart = [to_darboux(ComplexPhasePoint(z, p)) for z, p in zip(traj.z, traj.p)]
    ks, his = np.array([hamiltonians_at(pt) for pt in chart]).T
    assert np.ptp(ks) <= 1e-8
    assert np.ptp(his) <= 1e-8


def test_hi_commutes_with_k():
    # {H_i, K}_PB = 0 in Darboux coordinates (standard bracket)
    def k_fn(w):
        return hamiltonians_at(DarbouxPoint(*w))[0]

    def hi_fn(w):
        return hamiltonians_at(DarbouxPoint(*w))[1]

    for _ in range(5):
        pt = RNG.standard_normal(4)
        assert abs(standard_bracket(hi_fn, k_fn, pt)) < 1e-6


def test_cauchy_riemann_oracle_tells_an_analytic_potential_from_a_conjugated_one():
    assert cauchy_riemann_residual(cubic, 0.4 + 0.2j) < 1e-8
    assert cauchy_riemann_residual(lambda z: np.conj(z) ** 2, 0.4 + 0.2j) > 0.1


def test_symmetry_flow_identity_at_zero():
    pt = DarbouxPoint(0.5, -0.2, 0.7, 0.1)
    out = symmetry_flow(cubic, pt, 0.0, 1.0)
    np.testing.assert_allclose([out.x1, out.p1, out.x2, out.p2], [pt.x1, pt.p1, pt.x2, pt.p2],
                               atol=1e-14)


def test_symmetry_flow_free_particle_form():
    m, xi = 1.4, 1e-3
    pt = DarbouxPoint(0.5, -0.2, 0.7, 0.1)
    out = symmetry_flow(lambda z: 0.0 * z, pt, xi, m)
    assert out.x1 - pt.x1 == pytest.approx(xi * pt.x2 / (2 * m))
    assert out.p2 - pt.p2 == pytest.approx(-xi * pt.p1 / (2 * m))
    assert out.x2 == pytest.approx(pt.x2, abs=1e-12)
    assert out.p1 == pytest.approx(pt.p1, abs=1e-12)


def test_symmetry_flow_preserves_invariants_to_second_order():
    pt = DarbouxPoint(0.8, 0.3, -0.5, 0.6)
    m = 1.0

    def drift(xi):
        out = symmetry_flow(cubic, pt, xi, m)
        (k0, h0), (k1, h1) = hamiltonians_at(pt, m=m), hamiltonians_at(out, m=m)
        return abs(k1 - k0), abs(h1 - h0)

    dk1, dh1 = drift(2e-2)
    dk2, dh2 = drift(1e-2)
    assert dk1 / dk2 == pytest.approx(4.0, rel=0.2)
    assert dh1 / dh2 == pytest.approx(4.0, rel=0.2)


def test_darboux_consistency_of_flows():
    # the complex flow pushed through the chart equals the K-generated
    # Hamiltonian flow under the standard bracket
    m, dt, t_end = 1.0, 1e-3, 1.0

    def k_fn(w):
        return hamiltonians_at(DarbouxPoint(*w), m=m)[0]

    def grad(w, h=1e-6):
        g = np.zeros(4)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            g[j] = (k_fn(w + e) - k_fn(w - e)) / (2 * h)
        return g

    def k_rhs(w):
        g = grad(w)
        return np.array([g[1], -g[0], g[3], -g[2]])

    d = to_darboux(ComplexPhasePoint(0.1 + 0.1j, 1.0))
    w = np.array([d.x1, d.p1, d.x2, d.p2])
    n = int(t_end / dt)
    for _ in range(n):
        k1 = k_rhs(w)
        k2 = k_rhs(w + 0.5 * dt * k1)
        k3 = k_rhs(w + 0.5 * dt * k2)
        k4 = k_rhs(w + dt * k3)
        w = w + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    traj = flow(cubic_prime, m, ComplexPhasePoint(0.1 + 0.1j, 1.0), t_end, dt)
    d = to_darboux(ComplexPhasePoint(traj.z[-1], traj.p[-1]))
    expected = [d.x1, d.p1, d.x2, d.p2]
    np.testing.assert_allclose(w, expected, atol=1e-6)


def test_integrability_report():
    pts = [DarbouxPoint(*RNG.standard_normal(4)) for _ in range(4)]
    report = integrability_report(cubic, pts, 1.0)
    assert report["independent_everywhere"]
    assert report["ranks"] == [2, 2, 2, 2]
    # free particle: K and H_i stay independent too
    free = integrability_report(lambda z: 0.0 * z, pts, 1.0)
    assert free["independent_everywhere"]


# ----------------------------------------------------------------------
# every derivative against the hand-written central differences the
# module used before all of them came from classical._gradient
# ----------------------------------------------------------------------

POTENTIALS = {
    "cubic": cubic,
    "quadratic": lambda z: (0.7 - 0.2j) * z**2,
    "quartic": lambda z: (0.3 + 1.1j) * z**4 - 0.5j * z,
    "exp_iz": lambda z: np.exp(1j * z),
}


def oracle_gradient(func, w):
    grad = np.empty(4, dtype=complex)
    for j in range(4):
        e = np.zeros(4)
        e[j] = FD_STEP
        grad[j] = (func(w + e) - func(w - e)) / (2.0 * FD_STEP)
    return grad


def oracle_cauchy_riemann(potential, z):
    """(V_x, V_y) from separate differences of Re V and Im V, and the residual."""
    x, y, h = z.real, z.imag, FD_STEP

    def vr(xx, yy):
        return potential(xx + 1j * yy).real

    def vi(xx, yy):
        return potential(xx + 1j * yy).imag

    vr_x = (vr(x + h, y) - vr(x - h, y)) / (2 * h)
    vr_y = (vr(x, y + h) - vr(x, y - h)) / (2 * h)
    vi_x = (vi(x + h, y) - vi(x - h, y)) / (2 * h)
    vi_y = (vi(x, y + h) - vi(x, y - h)) / (2 * h)
    return [vr_x + 1j * vi_x, vr_y + 1j * vi_y], max(abs(vr_x - vi_y), abs(vr_y + vi_x))


def oracle_jacobian(potential, w, m):
    jac = np.zeros((2, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = FD_STEP
        up = hamiltonians_at(DarbouxPoint(*(w + e)), potential, m)
        dn = hamiltonians_at(DarbouxPoint(*(w - e)), potential, m)
        jac[:, j] = (np.array(up) - np.array(dn)) / (2 * FD_STEP)
    return jac


def oracle_symmetry_gradient(potential, pt):
    def vr_tilde(x1, p2):
        return potential((x1 + 1j * p2) / np.sqrt(2.0)).real

    h = GRADIENT_STEP
    dvr_dx1 = (vr_tilde(pt.x1 + h, pt.p2) - vr_tilde(pt.x1 - h, pt.p2)) / (2 * h)
    dvr_dp2 = (vr_tilde(pt.x1, pt.p2 + h) - vr_tilde(pt.x1, pt.p2 - h)) / (2 * h)
    return [dvr_dx1, dvr_dp2]


@pytest.fixture
def gradients(monkeypatch):
    """(step, gradient) of every classical._gradient call, in the order they return."""
    calls = []
    gradient = classical._gradient

    def spy(func, w, step=FD_STEP):
        grad = gradient(func, w, step)
        calls.append((step, grad))
        return grad

    monkeypatch.setattr(classical, "_gradient", spy)
    return calls


def assert_derivatives_match(got, expected):
    expected = np.asarray(expected, dtype=complex)
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13 * np.abs(expected).max())


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_every_derivative_matches_its_inline_oracle(name, gradients):
    potential, m = POTENTIALS[name], 1.3
    params = SymplecticParams(0.2, -0.1, 0.4, 0.3)
    z_of, p_of, h_of = phase_functions(potential, m)
    for w in np.random.default_rng(31).uniform(-1.5, 1.5, size=(20, 4)):
        pt = DarbouxPoint(*w)

        gradients.clear()
        value = bracket(params, z_of, h_of, w)
        ga, gb = oracle_gradient(z_of, w), oracle_gradient(h_of, w)
        assert [step for step, _ in gradients] == [FD_STEP, FD_STEP]
        assert_derivatives_match(gradients[0][1], ga)
        assert_derivatives_match(gradients[1][1], gb)
        assert value == pytest.approx(complex(ga @ params.matrix() @ gb), rel=1e-13, abs=1e-13)

        gradients.clear()
        value = standard_bracket(p_of, h_of, w)
        ga, gb = oracle_gradient(p_of, w), oracle_gradient(h_of, w)
        assert_derivatives_match(gradients[0][1], ga)
        assert_derivatives_match(gradients[1][1], gb)
        assert value == pytest.approx(complex(ga @ J_STANDARD @ gb), rel=1e-13, abs=1e-13)

        gradients.clear()
        z = complex(w[0], w[1])
        residual = cauchy_riemann_residual(potential, z)
        derivatives, expected = oracle_cauchy_riemann(potential, z)
        [(step, grad)] = gradients
        assert step == FD_STEP
        assert_derivatives_match(grad, derivatives)
        assert residual == pytest.approx(expected, abs=1e-13 * np.abs(derivatives).max())

        gradients.clear()
        integrability_report(potential, [pt], m)
        [(step, grad)] = gradients
        assert step == FD_STEP and len(grad) == 4
        jac = oracle_jacobian(potential, w, m)
        assert_derivatives_match(grad, jac[0] + 1j * jac[1])

        gradients.clear()
        xi = 0.3
        out = symmetry_flow(potential, pt, xi, m)
        [(step, grad)] = gradients
        dvr_dx1, dvr_dp2 = oracle_symmetry_gradient(potential, pt)
        assert step == GRADIENT_STEP
        assert_derivatives_match(grad, [dvr_dx1, dvr_dp2])
        np.testing.assert_allclose(
            [out.x1, out.p1, out.x2, out.p2],
            [pt.x1 + xi * pt.x2 / (2 * m), pt.p1 + xi * dvr_dp2,
             pt.x2 + xi * dvr_dx1, pt.p2 - xi * pt.p1 / (2 * m)],
            rtol=1e-13, atol=1e-13,
        )


def test_gradient_of_a_complex_function_of_any_length():
    def func(w):
        return np.exp(1j * w[0]) * w[1] ** 2 + w[2] * w[3] * w[4]

    w = np.array([0.3, -1.1, 0.7, 2.0, -0.4])
    exact = [1j * np.exp(1j * w[0]) * w[1] ** 2, 2 * np.exp(1j * w[0]) * w[1],
             w[3] * w[4], w[2] * w[4], w[2] * w[3]]
    np.testing.assert_allclose(classical._gradient(func, w), exact, rtol=1e-9)
    np.testing.assert_allclose(classical._gradient(func, w, GRADIENT_STEP), exact, rtol=1e-8)
