import numpy as np
import pytest
from scipy.linalg import expm

from phqm import metric, statespace
from phqm.errors import (
    InputError,
    NotHermitianError,
    NotPositiveDefiniteError,
    SingularOperatorError,
)
from phqm.metric import MetricOperator
from phqm.statespace import (
    BrachistochroneProblem,
    energy_uncertainty,
    evolve,
    fs_metric,
    geodesic_distance,
    optimal_hamiltonian,
    projective_fidelity,
    projector,
    two_level_geometry,
)

RNG = np.random.default_rng(31415)

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def random_state(n=2):
    return RNG.standard_normal(n) + 1j * RNG.standard_normal(n)


def random_metric_2x2():
    b = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
    return b @ b.conj().T + 0.3 * np.eye(2)


def test_projector_basic():
    np.testing.assert_allclose(projector(E1), np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(
        projector([1.0, 1.0]), 0.5 * np.ones((2, 2)), atol=1e-14
    )


def test_projector_eta_aligned_basis_vector():
    lam = projector(E1, eta=np.diag([2.0, 1.0]))
    np.testing.assert_allclose(lam, np.diag([1.0, 0.0]), atol=1e-14)


def test_projector_invariants():
    eta = random_metric_2x2()
    psi = random_state()
    lam = projector(psi, eta)
    np.testing.assert_allclose(lam @ lam, lam, atol=1e-12)
    assert abs(np.trace(lam) - 1.0) < 1e-12
    # eta-pseudo-Hermitian projector
    np.testing.assert_allclose(
        np.conj(lam.T), eta @ lam @ np.linalg.inv(eta), atol=1e-10
    )


def test_projector_rejects_zero():
    with pytest.raises(InputError, match="nonzero"):
        projector(np.zeros(2))


@pytest.mark.parametrize("power", [600, -600])
def test_ray_quantities_are_scale_free_to_the_bit(power):
    # the overlaps of states x 2^600 overflowed and of states x 2^-600
    # flushed to 0; <H^2> overflowed for H x 2^600
    for _ in range(20):
        v, w, eta = random_state(3), random_state(3), random_state(3)
        eta = np.outer(eta, eta.conj()) + np.eye(3)
        h = np.outer(w, w.conj()) - np.diag([1.0, 0.5, 0.0])
        f = 2.0**power
        assert geodesic_distance(v * f, w * f, eta) == geodesic_distance(v, w, eta)
        assert projective_fidelity(v * f, w / f, eta) == projective_fidelity(v, w, eta)
        np.testing.assert_array_equal(projector(v * f, eta), projector(v, eta))
        assert energy_uncertainty(h, v * f, eta) == energy_uncertainty(h, v, eta)
        assert energy_uncertainty(h * f, v, eta) == f * energy_uncertainty(h, v, eta)


def test_a_state_whose_largest_entry_is_subnormal_is_rejected():
    # its norm underflowed to 0, which read as "state vector must be nonzero"
    assert projective_fidelity([1e-300, 0], [1, 1]) == 0.5
    with pytest.raises(InputError, match="largest entry normal; got 1.000e-310"):
        projective_fidelity([1e-310, 0], [1, 1])


def test_fs_metric_basis_state():
    g = fs_metric(E1)
    np.testing.assert_allclose(g, np.diag([0.0, 1.0]), atol=1e-14)


def test_fs_metric_eta_identity_reduction():
    for _ in range(5):
        psi = random_state(3)
        np.testing.assert_allclose(
            fs_metric(psi, eta=np.eye(3)), fs_metric(psi), atol=1e-12
        )


def test_fs_metric_annihilates_scaling_direction():
    for _ in range(5):
        psi = random_state(3)
        b = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        eta = b @ b.conj().T + 0.2 * np.eye(3)
        g = fs_metric(psi, eta)
        contraction = psi @ g  # sum_a g[a, b] psi_a
        np.testing.assert_allclose(contraction, np.zeros(3), atol=1e-12)
        # positive semidefinite as a form
        v = random_state(3)
        val = np.real(np.conj(v) @ g.T @ v)
        assert val >= -1e-12


def test_two_level_geometry_euclidean():
    geo = two_level_geometry(np.eye(2))
    assert geo.k1 == 0.25 and geo.k2 == 0.0 and geo.k3 == 0.0
    # ds^2 = (1/4)(dtheta^2 + sin^2 theta dphi^2)
    assert geo.ds2(0.7, 0.3, 1.0, 0.0) == pytest.approx(0.25)
    assert geo.ds2(0.7, 0.3, 0.0, 1.0) == pytest.approx(0.25 * np.sin(0.7) ** 2)


def test_two_level_geometry_diagonal():
    geo = two_level_geometry(np.diag([2.0, 1.0]))
    assert geo.k1 == pytest.approx(2.0 / 9.0)
    assert geo.k2 == pytest.approx(1.0 / 3.0)
    assert geo.k3 == pytest.approx(0.0)


def test_two_level_geometry_off_diagonal():
    eta = np.array([[1.0, 0.1 - 0.1j], [0.1 + 0.1j, 1.0]])
    geo = two_level_geometry(eta)
    assert geo.k3 == pytest.approx(0.1 * np.sqrt(2.0))
    assert geo.beta == pytest.approx(np.pi / 4.0)


def test_two_level_geometry_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        two_level_geometry(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("eta", [[[1.0, 0.0], [5.0, 1.0]], [[1.0, 0.5j], [0.0, 1.0]]])
def test_two_level_geometry_rejects_a_non_hermitian_metric(eta):
    # the coefficients read only eta[0, 1] and the real diagonal
    with pytest.raises(NotHermitianError, match="eta must be Hermitian"):
        two_level_geometry(np.array(eta))


@pytest.mark.parametrize("power", [600, -600])
def test_two_level_geometry_is_scale_free_to_the_bit(power):
    # k1 = det / trace^2 overflowed at 2^600 and flushed to 0 at 2^-600
    for _ in range(20):
        eta = random_metric_2x2()
        assert (_field_values(two_level_geometry(eta * 2.0**power))
                == _field_values(two_level_geometry(eta)))


def test_two_level_geometry_requires_a_2x2_metric():
    with pytest.raises(ValueError, match="2x2"):
        two_level_geometry(np.eye(3))


def _field_values(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


def _metric_readers(psi, h_op):
    """name -> output of each metric-taking function for a metric argument."""
    return {
        "projector": lambda e: projector(psi, e),
        "fs_metric": lambda e: fs_metric(psi, e),
        "geodesic_distance": lambda e: geodesic_distance(psi, PLUS, e),
        "projective_fidelity": lambda e: projective_fidelity(psi, PLUS, e),
        "energy_uncertainty": lambda e: energy_uncertainty(h_op, psi, e),
        "two_level_geometry": lambda e: _field_values(two_level_geometry(e)),
        "optimal_hamiltonian": lambda e: optimal_hamiltonian(
            BrachistochroneProblem(psi, PLUS, 1.0, 1.0, e)).H_star,
        "build_system": lambda e: metric.build_system(h_op, e).h,
        "pseudo_adjoint": lambda e: metric.pseudo_adjoint(h_op, e),
    }


def _forms(eta):
    return [eta, MetricOperator(eta)]


def test_a_metric_operator_acts_as_its_matrix():
    eta = random_metric_2x2()
    # eta h is Hermitian, so h is eta-pseudo-Hermitian and build_system accepts it
    k = random_metric_2x2()
    readers = _metric_readers(random_state(), np.linalg.solve(eta, k))
    for name, read in readers.items():
        as_matrix, *as_objects = (read(e) for e in _forms(eta))
        for out in as_objects:
            np.testing.assert_array_equal(out, as_matrix, err_msg=name)
    for name, read in readers.items():
        for e in _forms(np.eye(3)):
            with pytest.raises(InputError):
                read(e)


# readers that accept any invertible Hermitian eta: eta-pseudo-Hermiticity
# needs no positivity
PSEUDO_METRIC_READERS = {"pseudo_adjoint"}


@pytest.mark.parametrize("eta,error", [
    ([[1.0, 0.3], [0.0, 1.0]], NotHermitianError),
    (np.diag([1.0, -1.0]), NotPositiveDefiniteError),
    (np.diag([1.0, 0.0]), SingularOperatorError),
], ids=["non_hermitian", "indefinite", "singular"])
def test_every_positive_metric_reader_rejects_a_bad_eta_alike(eta, error):
    readers = _metric_readers(random_state(), np.diag([1.0, 2.0]))
    for name, read in readers.items():
        if name in PSEUDO_METRIC_READERS:
            continue
        for e in _forms(np.asarray(eta, dtype=complex)):
            with pytest.raises(error):
                read(e)


def test_pseudo_adjoint_accepts_an_indefinite_eta():
    sigma = np.diag([1.0, -1.0]).astype(complex)
    h_op = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    read = _metric_readers(random_state(), h_op)["pseudo_adjoint"]
    for e in _forms(sigma):
        np.testing.assert_array_equal(read(e), sigma @ h_op.conj().T @ sigma)


E3 = np.array([0.0, 0.0, 1.0], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


@pytest.mark.parametrize("call", [
    lambda: geodesic_distance(E1, E3),
    lambda: geodesic_distance(E1, E2, np.eye(3)),
    lambda: projective_fidelity(E1, E3),
    lambda: projective_fidelity(E3, E1),
    lambda: BrachistochroneProblem(E1, E3, 1.0),
    lambda: energy_uncertainty(SIGMA_Z, E3),
    lambda: energy_uncertainty(np.eye(3), E1),
    lambda: evolve(SIGMA_Z, E3, 1.0),
    lambda: evolve(np.eye(3), E1, 1.0),
    lambda: projector(E1, np.eye(3)),
    lambda: fs_metric(E3, np.eye(2)),
], ids=["distance", "distance_eta", "fidelity", "fidelity_swapped", "problem",
        "uncertainty_state", "uncertainty_H", "evolve_state", "evolve_H", "projector",
        "fs_metric"])
def test_states_and_operators_of_different_sizes_are_input_errors(call):
    # numpy's bare ValueError from matmul escaped before, outside the
    # classified errors
    with pytest.raises(InputError, match="differ|components"):
        call()


def test_geodesic_distance_examples():
    assert geodesic_distance(E1, 3.0 * E1) == pytest.approx(0.0, abs=1e-8)
    assert geodesic_distance(E1, E2) == pytest.approx(np.pi / 2.0)
    assert geodesic_distance(E1, PLUS) == pytest.approx(np.pi / 4.0)


def test_isometry_property():
    # distances agree between the eta geometry and the rho-mapped flat one
    from phqm.linalg import sqrtm_pd

    for _ in range(20):
        eta = random_metric_2x2()
        rho = sqrtm_pd(eta)
        psi_i, psi_f = random_state(), random_state()
        d_eta = geodesic_distance(psi_i, psi_f, eta)
        d_flat = geodesic_distance(rho @ psi_i, rho @ psi_f)
        assert abs(d_eta - d_flat) < 1e-10


def test_optimal_hamiltonian_antipodal():
    opt = optimal_hamiltonian(BrachistochroneProblem(E1, E2, 1.0))
    assert opt.tau_min == pytest.approx(np.pi / 2.0)
    evals = np.sort(np.linalg.eigvals(opt.H_star).real)
    np.testing.assert_allclose(evals, [-1.0, 1.0], atol=1e-12)
    assert abs(np.trace(opt.H_star)) < 1e-12
    final = evolve(opt.H_star, E1, opt.tau_min)
    assert projective_fidelity(final, E2) >= 1.0 - 1e-10


def test_optimal_hamiltonian_pi_over_four():
    opt = optimal_hamiltonian(BrachistochroneProblem(E1, PLUS, 1.0))
    assert opt.tau_min == pytest.approx(np.pi / 4.0)
    # independent integrator oracle for the evolution
    final_oracle = expm(-1j * opt.tau_min * opt.H_star) @ E1
    assert projective_fidelity(final_oracle, PLUS) >= 1.0 - 1e-10
    final = evolve(opt.H_star, E1, opt.tau_min)
    assert projective_fidelity(final, PLUS) >= 1.0 - 1e-8


def test_optimal_hamiltonian_eta_deformed():
    eta = random_metric_2x2()
    psi_i, psi_f = random_state(), random_state()
    prob = BrachistochroneProblem(psi_i, psi_f, 2.0, 1.0, eta)
    opt = optimal_hamiltonian(prob)
    # eta-pseudo-Hermitian with eigenvalues +-E
    from phqm.metric import pseudo_hermiticity_residual

    assert pseudo_hermiticity_residual(opt.H_star, eta) < 1e-10
    evals = np.sort(np.linalg.eigvals(opt.H_star).real)
    np.testing.assert_allclose(evals, [-2.0, 2.0], atol=1e-9)
    final = evolve(opt.H_star, psi_i, opt.tau_min)
    assert projective_fidelity(final, psi_f, eta) >= 1.0 - 1e-8
    # eta norm is conserved along the evolution
    n0 = np.real(np.conj(psi_i) @ eta @ psi_i)
    nt = np.real(np.conj(final) @ eta @ final)
    assert abs(nt - n0) < 1e-9 * abs(n0)


def test_optimal_hamiltonian_representative_independence():
    psi_i, psi_f = random_state(), random_state()
    opt1 = optimal_hamiltonian(BrachistochroneProblem(psi_i, psi_f, 1.0))
    opt2 = optimal_hamiltonian(
        BrachistochroneProblem((2.0 - 1.3j) * psi_i, (0.1 + 0.7j) * psi_f, 1.0)
    )
    np.testing.assert_allclose(opt1.H_star, opt2.H_star, atol=1e-11)


def test_optimal_hamiltonian_identical_states():
    with pytest.raises(InputError, match="coincide"):
        optimal_hamiltonian(BrachistochroneProblem(E1, 2.0 * E1, 1.0))


def test_quasi_hermitian_speedup_is_monotone():
    # k1 halving from 1/4 to 1/1024 shrinks tau_min strictly
    taus = []
    k1 = 0.25
    while k1 >= 1.0 / 1024.0:
        trace_target = 1.0 / np.sqrt(k1)
        a = 0.5 * (trace_target + np.sqrt(trace_target**2 - 4.0))
        eta = np.diag([a, 1.0 / a])
        opt = optimal_hamiltonian(BrachistochroneProblem(E1, PLUS, 1.0, 1.0, eta))
        taus.append(opt.tau_min)
        k1 /= 2.0
    assert all(t2 < t1 for t1, t2 in zip(taus, taus[1:]))
    assert taus[0] == pytest.approx(np.pi / 4.0)


def test_evolve_basics():
    psi = random_state(3)
    np.testing.assert_allclose(evolve(np.zeros((3, 3)), psi, 2.0), psi, atol=1e-12)
    final = evolve(np.diag([1.0, -1.0]).astype(complex), E1, np.pi)
    np.testing.assert_allclose(final, -E1, atol=1e-12)


def test_evolve_takes_an_array_of_times():
    # one row per time, each equal to the scalar call and to expm
    h = np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.4]]) + np.diag([0.1j, -0.1j])
    psi0 = random_state()
    times = np.linspace(-1.0, 2.0, 7)
    states = evolve(h, psi0, times, 0.7)
    assert states.shape == (7, 2)
    for t, psi_t in zip(times, states):
        np.testing.assert_allclose(psi_t, evolve(h, psi0, t, 0.7), rtol=0, atol=1e-14)
        np.testing.assert_allclose(psi_t, expm(-1j * t * h / 0.7) @ psi0, rtol=0, atol=1e-12)
    assert evolve(h, psi0, 0.5).shape == (2,)
    assert evolve(h, psi0, times.reshape(7, 1)).shape == (7, 1, 2)


def test_energy_uncertainty_eigenvector_is_zero():
    h = np.diag([1.0, -1.0]).astype(complex)
    assert energy_uncertainty(h, E1) == pytest.approx(0.0, abs=1e-12)


def test_energy_uncertainty_balanced_superposition():
    h = 3.0 * np.diag([1.0, -1.0]).astype(complex)
    assert energy_uncertainty(h, PLUS) == pytest.approx(3.0)


def test_speed_identity():
    # ds/dt measured by geodesic steps equals Delta E / hbar
    h = np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.4]])
    psi0 = random_state()
    hbar = 0.7
    de = energy_uncertainty(h, psi0)
    dt = 1e-3  # large enough that arccos near 1 keeps its digits
    for t in (0.0, 0.4, 1.1):
        a = evolve(h, psi0, t, hbar)
        b = evolve(h, psi0, t + dt, hbar)
        speed = geodesic_distance(a, b) / dt
        assert speed == pytest.approx(de / hbar, rel=1e-5)


def test_travel_time_distance_relation():
    # tau = hbar s / Delta E along the optimal trajectory
    opt = optimal_hamiltonian(BrachistochroneProblem(E1, PLUS, 1.0))
    de = energy_uncertainty(opt.H_star, E1)
    assert de == pytest.approx(1.0)
    s = geodesic_distance(E1, PLUS)
    assert opt.tau_min == pytest.approx(s / de)


def test_three_stage_switching_demo():
    demo = statespace.three_stage_switching_demo(E1, PLUS, 1.0, 1.0 / 400.0)
    assert demo["requires_metric_switching"]
    assert demo["violates_hermitian_bound"]
    assert demo["stage_time_deformed"] < demo["tau_min_hermitian"]


def test_three_stage_switching_demo_at_the_euclidean_k1():
    # k1 = 1/4 is eta = I: the deformed stage takes the Hermitian time
    demo = statespace.three_stage_switching_demo(E1, PLUS, 1.0, 0.25)
    assert demo["stage_time_deformed"] == pytest.approx(demo["tau_min_hermitian"])


@pytest.mark.parametrize("k1", [0.5, 0.25 + 1e-12, 0.0, -0.1, float("nan")])
def test_three_stage_switching_demo_rejects_k1_no_metric_has(k1):
    # every 2x2 metric has k1 = det / trace^2 in (0, 1/4]
    with pytest.raises(InputError, match="k1 must lie in"):
        statespace.three_stage_switching_demo(E1, PLUS, 1.0, k1)


def test_evolve_rejects_defective_generator():
    from phqm.errors import DefectiveOperatorError

    jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(DefectiveOperatorError):
        evolve(jordan, E1, 1.0)
