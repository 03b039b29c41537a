import numpy as np
import pytest

from phqm import biortho, linalg, metric
from phqm.errors import (
    ComplexSpectrumError,
    InputError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NotPseudoHermitianError,
    SingularOperatorError,
)

from oracles import antilinear_symmetry, forward_pseudo_hermiticity, pseudo_adjoint

RNG = np.random.default_rng(424242)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
THETA = np.log(2.0)


def two_level_system(d=4.0):
    c = d ** (-0.25) / 2.0
    vals = [np.sqrt(d), -np.sqrt(d)]
    psis = np.column_stack(
        [
            c * np.array([1 + np.sqrt(d), 1 - np.sqrt(d)]),
            c * np.array([1 - np.sqrt(d), 1 + np.sqrt(d)]),
        ]
    ).astype(complex)
    a = 0.5 * np.array([[d + 1, d - 1], [-d + 1, -d - 1]], dtype=complex)
    dec = linalg.EigenDecomposition(np.asarray(vals, dtype=complex), psis, np.linalg.inv(psis))
    return a, biortho.biorthonormal_extension(dec)


def quasi_hermitian_pair(n, cond_scale=0.6):
    """H = B a B^-1 with Hermitian a: quasi-Hermitian by construction."""
    a = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
    a = 0.5 * (a + a.conj().T)
    b = np.eye(n) + cond_scale * (
        RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
    ) / np.sqrt(n)
    return b @ a @ np.linalg.inv(b)


def test_self_dual_metric_is_identity():
    h = RNG.standard_normal((4, 4))
    h = h + h.T
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(h))
    np.testing.assert_allclose(metric.metric_from_spectrum(bs).eta, np.eye(4), atol=1e-10)


def test_two_level_metric_closed_form():
    _, bs = two_level_system(4.0)
    eta = metric.metric_from_spectrum(bs).eta
    np.testing.assert_allclose(eta, [[1.25, 0.75], [0.75, 1.25]], atol=1e-12)


def test_metric_requires_real_spectrum():
    a = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(a))
    assert not bs.all_real
    with pytest.raises(ComplexSpectrumError):
        metric.metric_from_spectrum(bs)


def test_metric_inverse_is_psi_sum():
    a, bs = two_level_system(2.5)
    eta = metric.metric_from_spectrum(bs).eta
    inv_direct = bs.psis @ np.conj(bs.psis.T)
    np.testing.assert_allclose(np.linalg.inv(eta), inv_direct, atol=1e-10)


def test_pseudo_metric_all_plus_matches_metric():
    _, bs = two_level_system(3.0)
    pm = metric.pseudo_metric_family(bs, [1, 1])
    np.testing.assert_allclose(pm.eta, metric.metric_from_spectrum(bs).eta, atol=1e-12)


def test_metric_is_the_all_plus_member_of_the_family():
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(quasi_hermitian_pair(6)))
    plus = metric.metric_from_spectrum(bs)
    member = metric.pseudo_metric_family(bs, np.ones(bs.dim))
    assert isinstance(plus, metric.MetricOperator) and isinstance(member, metric.MetricOperator)
    np.testing.assert_array_equal(plus.eta, member.eta)


def test_pseudo_metric_mixed_signs_gives_sigma3():
    _, bs = two_level_system(4.0)
    pm = metric.pseudo_metric_family(bs, [1, -1])
    np.testing.assert_allclose(pm.eta, SIGMA3, atol=1e-12)


def test_pseudo_metric_residual_real_spectrum():
    for _ in range(5):
        n = int(RNG.integers(2, 9))
        h = quasi_hermitian_pair(n)
        bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(h))
        sigma = RNG.choice([-1, 1], size=n)
        pm = metric.pseudo_metric_family(bs, sigma)
        assert forward_pseudo_hermiticity(h, pm.eta) <= 1e-9


def test_pseudo_metric_residual_conjugate_pairs():
    for _ in range(5):
        a = RNG.standard_normal((6, 6))
        bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(a))
        sigma = RNG.choice([-1, 1], size=len(bs.real_indices()))
        pm = metric.pseudo_metric_family(bs, sigma)
        assert forward_pseudo_hermiticity(a, pm.eta) <= 1e-9


def test_residual_reads_a_metric_operator_as_its_matrix():
    # a MetricOperator raised TypeError from as_matrix
    a, bs = two_level_system(4.0)
    mo = metric.metric_from_spectrum(bs)
    assert metric.pseudo_hermiticity_residual(a, mo) == metric.pseudo_hermiticity_residual(a, mo.eta)


def test_no_metric_is_the_identity_of_the_given_size():
    eye = metric.metric_matrix(None, 3)
    assert eye.dtype == complex
    np.testing.assert_array_equal(eye, np.eye(3))


def test_residual_rejects_a_metric_of_another_size():
    # numpy's matmul raised a bare ValueError
    with pytest.raises(InputError, match="eta is 3x3, expected 2x2"):
        metric.pseudo_hermiticity_residual(np.eye(2), np.eye(3))


def test_pseudo_metric_sigma_length_checked():
    _, bs = two_level_system(4.0)
    with pytest.raises(InputError, match="one per real eigenvalue"):
        metric.pseudo_metric_family(bs, [1, -1, 1])


def test_charge_operator_trivial_and_closed_form():
    _, bs = two_level_system(4.0)
    np.testing.assert_allclose(metric.charge_operator(bs, [1, 1]), np.eye(2), atol=1e-12)
    c = metric.charge_operator(bs, [1, -1])
    expected = np.array(
        [[np.cosh(THETA), np.sinh(THETA)], [-np.sinh(THETA), -np.cosh(THETA)]]
    )
    np.testing.assert_allclose(c, expected, atol=1e-12)


def test_charge_operator_properties():
    a, bs = two_level_system(4.0)
    c = metric.charge_operator(bs, [1, -1])
    np.testing.assert_allclose(c @ c, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(linalg.commutator(c, a), np.zeros((2, 2)), atol=1e-12)
    # C = eta_1^{-1} eta_sigma
    eta1 = metric.metric_from_spectrum(bs).eta
    eta_sigma = metric.pseudo_metric_family(bs, [1, -1]).eta
    np.testing.assert_allclose(c, np.linalg.inv(eta1) @ eta_sigma, atol=1e-12)


def test_charge_equals_a_over_sqrt_a_squared():
    a, bs = two_level_system(4.0)
    c = metric.charge_operator(bs, [1, -1])
    root = linalg.hermitian_function(a @ a, np.sqrt)  # A^2 = 4 I
    np.testing.assert_allclose(c, a @ np.linalg.inv(root), atol=1e-12)


def test_antilinear_symmetry_real_symmetric_case():
    h = RNG.standard_normal((4, 4))
    h = h + h.T
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(h))
    s = antilinear_symmetry(bs)
    np.testing.assert_allclose(s.M, np.eye(4), atol=1e-10)


def test_antilinear_symmetry_two_level_is_conjugation():
    _, bs = two_level_system(4.0)
    np.testing.assert_allclose(antilinear_symmetry(bs).M, np.eye(2), atol=1e-12)


def test_antilinear_symmetry_properties():
    for _ in range(4):
        h = quasi_hermitian_pair(4)
        bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(h))
        m = antilinear_symmetry(bs).M
        np.testing.assert_allclose(m @ np.conj(m), np.eye(4), atol=1e-9)
        np.testing.assert_allclose(h @ m, m @ np.conj(h), atol=1e-9)


def test_antilinear_symmetry_phase_dependence():
    _, bs = two_level_system(4.0)
    phases = np.array([0.3, -0.2])
    m = antilinear_symmetry(bs, phases=phases).M
    base = antilinear_symmetry(bs).M
    assert linalg.opnorm(m - base) > 0.1
    np.testing.assert_allclose(m @ np.conj(m), np.eye(2), atol=1e-12)


def test_build_system_trivial():
    h = np.diag([1.0, 2.0]).astype(complex)
    sys_ = metric.build_system(h, metric.MetricOperator(np.eye(2)))
    np.testing.assert_allclose(sys_.h, h, atol=1e-14)


def test_build_system_two_level():
    a, bs = two_level_system(4.0)
    sys_ = metric.build_system(a, metric.metric_from_spectrum(bs))
    np.testing.assert_allclose(sys_.h, np.diag([2.0, -2.0]), atol=1e-12)


def test_build_system_random_quasi_hermitian():
    for _ in range(4):
        h = quasi_hermitian_pair(5)
        bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(h))
        sys_ = metric.build_system(h, metric.metric_from_spectrum(bs))
        herm = linalg.opnorm(sys_.h - np.conj(sys_.h.T)) / linalg.opnorm(sys_.h)
        assert herm <= 1e-9
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(sys_.h)),
            np.sort(np.linalg.eigvals(h).real),
            atol=1e-8 * linalg.opnorm(h),
        )


def test_build_system_rejects_bad_inputs():
    with pytest.raises(NotPseudoHermitianError):
        metric.build_system(np.array([[0, 1], [0, 0]], dtype=complex),
                            metric.MetricOperator(np.eye(2)))
    with pytest.raises(NotPositiveDefiniteError):
        metric.build_system(np.eye(2, dtype=complex), SIGMA3)


@pytest.mark.parametrize("scale", [1e-160, 1.0, 1e160])
def test_positive_metric_classifies_alike_at_every_scale(scale):
    # |eta|_F's sum of squares under- or overflows at the extreme scales
    eta, evals, _ = metric.positive_metric(scale * np.diag([1.0, 2.0]))
    np.testing.assert_array_equal(evals, scale * np.array([1.0, 2.0]))
    np.testing.assert_array_equal(metric.build_system(np.diag([1.0, 2.0]), eta).h,
                                  np.diag([1.0, 2.0]))
    with pytest.raises(NotPositiveDefiniteError):
        metric.positive_metric(scale * SIGMA3)
    with pytest.raises(SingularOperatorError):
        metric.positive_metric(scale * np.diag([1.0, 0.0]))


def test_observable_map_two_level():
    a, bs = two_level_system(4.0)
    sys_ = metric.build_system(a, metric.metric_from_spectrum(bs))
    np.testing.assert_allclose(metric.observable_map(np.eye(2), sys_), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(metric.observable_map(SIGMA1, sys_), SIGMA1, atol=1e-12)
    s3 = metric.observable_map(SIGMA3, sys_)
    expected = 1j * np.sinh(THETA) * SIGMA2 + np.cosh(THETA) * SIGMA3
    np.testing.assert_allclose(s3, expected, atol=1e-12)
    # spectrum preserved and eta-pseudo-Hermitian
    np.testing.assert_allclose(np.sort(np.linalg.eigvals(s3).real), [-1, 1], atol=1e-12)
    assert forward_pseudo_hermiticity(s3, sys_.eta_plus.eta) < 1e-12


def test_observable_map_requires_hermitian_source():
    a, bs = two_level_system(4.0)
    sys_ = metric.build_system(a, metric.metric_from_spectrum(bs))
    with pytest.raises(NotHermitianError):
        metric.observable_map(np.array([[0, 1], [0, 0]], dtype=complex), sys_)


def test_pseudo_adjoint_identity_metric():
    l_op = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
    np.testing.assert_allclose(
        pseudo_adjoint(l_op, np.eye(3)), np.conj(l_op.T), atol=1e-14
    )


def test_pseudo_adjoint_involution_and_fixed_point():
    h = quasi_hermitian_pair(4)
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(h))
    eta = metric.metric_from_spectrum(bs)
    sharp = pseudo_adjoint(h, eta)
    np.testing.assert_allclose(sharp, h, atol=1e-8 * linalg.opnorm(h))
    l_op = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    np.testing.assert_allclose(
        pseudo_adjoint(pseudo_adjoint(l_op, eta), eta), l_op, atol=1e-10
    )


def test_pseudo_adjoint_trace_identity():
    # tr(L^# J) = tr((rho L rho^-1)^dag rho J rho^-1)
    h = quasi_hermitian_pair(4)
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(h))
    sys_ = metric.build_system(h, metric.metric_from_spectrum(bs))
    for _ in range(3):
        l_op = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
        j_op = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
        lhs = np.trace(pseudo_adjoint(l_op, sys_.eta_plus) @ j_op)
        tl = sys_.rho @ l_op @ sys_.rho_inv
        tj = sys_.rho @ j_op @ sys_.rho_inv
        rhs = np.trace(np.conj(tl.T) @ tj)
        assert abs(lhs - rhs) < 1e-9 * max(abs(rhs), 1.0)


def test_real_expectation_values_property():
    # reality of <psi|eta H psi> for eta-pseudo-Hermitian H
    h = quasi_hermitian_pair(6)
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(h))
    eta = metric.metric_from_spectrum(bs).eta
    bound = 1e-10 * linalg.opnorm(h) * linalg.opnorm(eta)
    for _ in range(200):
        psi = RNG.standard_normal(6) + 1j * RNG.standard_normal(6)
        val = np.conj(psi) @ eta @ (h @ psi)
        assert abs(val.imag) <= bound * (np.linalg.norm(psi) ** 2)


def test_eta_trace_identity():
    # sum_n <psi_n | eta K psi_n> over an eta-orthonormal basis equals tr K
    h = quasi_hermitian_pair(5)
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(h))
    sys_ = metric.build_system(h, metric.metric_from_spectrum(bs))
    basis = sys_.rho_inv @ np.linalg.qr(
        RNG.standard_normal((5, 5)) + 1j * RNG.standard_normal((5, 5))
    )[0]
    k_op = RNG.standard_normal((5, 5)) + 1j * RNG.standard_normal((5, 5))
    total = sum(
        np.conj(basis[:, n]) @ sys_.eta_plus.eta @ (k_op @ basis[:, n]) for n in range(5)
    )
    assert abs(total - np.trace(k_op)) < 1e-9


def test_metric_non_uniqueness():
    # B^dag eta B is again a pseudo-metric for invertible B commuting with A
    h = quasi_hermitian_pair(4)
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(h))
    eta = metric.metric_from_spectrum(bs).eta
    b = 0.5 * np.eye(4) + 0.3 * h + 0.1 * h @ h
    eta2 = np.conj(b.T) @ eta @ b
    assert forward_pseudo_hermiticity(h, eta2) <= 1e-8


def test_evolution_preserves_eta_norm():
    from phqm.statespace import evolve

    h = quasi_hermitian_pair(4)
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(h))
    eta = metric.metric_from_spectrum(bs).eta
    psi0 = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
    norm0 = np.real(np.conj(psi0) @ eta @ psi0)
    for t in (0.3, 1.7, 4.9):
        psi_t = evolve(h, psi0, t)
        norm_t = np.real(np.conj(psi_t) @ eta @ psi_t)
        assert abs(norm_t - norm0) < 1e-8 * abs(norm0)


def test_pseudo_adjoint_singular_eta():
    from phqm.errors import SingularOperatorError

    with pytest.raises(SingularOperatorError):
        pseudo_adjoint(np.eye(2), np.zeros((2, 2)))


def test_general_family_at_unit_r_zero_s_is_eta_plus():
    from phqm.models import TwoLevelParams, two_level

    m = two_level(TwoLevelParams(4.0, r=1.0, s=0.0))
    np.testing.assert_allclose(m.eta_general, m.eta_plus, atol=1e-14)
    np.testing.assert_allclose(
        m.eta_general,
        [[np.cosh(THETA), np.sinh(THETA)], [np.sinh(THETA), np.cosh(THETA)]],
        atol=1e-12,
    )


def test_charge_and_antilinear_symmetry_commute():
    # C and S are commuting involutions: as operators, C (M conj(.))
    # equals M conj(C .), i.e. C M = M conj(C)
    h = quasi_hermitian_pair(5)
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(h))
    sigma = RNG.choice([-1.0, 1.0], size=5)
    c = metric.charge_operator(bs, sigma)
    m = antilinear_symmetry(bs).M
    np.testing.assert_allclose(c @ m, m @ np.conj(c), atol=1e-9)


@pytest.mark.parametrize("sigma", [[1, 2], [0, 1], [-1, 0.5]])
def test_sigma_entries_must_be_plus_or_minus_one(sigma):
    _, bs = two_level_system(4.0)
    with pytest.raises(ValueError, match="sigma entries"):
        metric.pseudo_metric_family(bs, sigma)
    with pytest.raises(ValueError, match="sigma entries"):
        metric.charge_operator(bs, sigma)


def test_charge_and_antilinear_symmetry_require_a_real_spectrum():
    a = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(a))
    assert not bs.all_real
    with pytest.raises(ComplexSpectrumError, match="charge operator"):
        metric.charge_operator(bs, [1, 1, 1, 1])
    with pytest.raises(ComplexSpectrumError, match="antilinear symmetry"):
        antilinear_symmetry(bs)


def test_antilinear_symmetry_needs_one_phase_per_eigenvalue():
    _, bs = two_level_system(4.0)
    with pytest.raises(InputError, match="one phase per eigenvalue"):
        antilinear_symmetry(bs, phases=[0.1, 0.2, 0.3])


def test_antilinear_symmetry_acts_antilinearly_and_commutes_with_h():
    h = quasi_hermitian_pair(4)
    s = antilinear_symmetry(biortho.biorthonormal_extension(linalg.eig_nonhermitian(h)))
    zeta = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
    np.testing.assert_array_equal(s(zeta), s.M @ np.conj(zeta))
    np.testing.assert_allclose(s(1j * zeta), -1j * s(zeta), atol=1e-12)
    np.testing.assert_allclose(s(h @ zeta), h @ s(zeta), atol=1e-9)


def test_metric_inner_product_makes_h_self_adjoint():
    h = quasi_hermitian_pair(4)
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(h))
    eta = metric.metric_from_spectrum(bs)
    x, y = (RNG.standard_normal(4) + 1j * RNG.standard_normal(4) for _ in range(2))
    assert np.conj(x) @ eta.eta @ (h @ y) == pytest.approx(np.conj(h @ x) @ eta.eta @ y, rel=1e-9)
