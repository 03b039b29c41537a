import tracemalloc

import numpy as np
import pytest

from phqm import linalg, metric, models
from phqm.errors import (
    DefectiveOperatorError,
    EigenpairsNotConvergedError,
    GridTooSmallError,
    InputError,
    NonPositiveDError,
    RealityViolatedError,
    SingularOperatorError,
)
from phqm.linalg import dagger, opnorm
from phqm.perturbation import ladder_operators

from oracles import (
    KG_EXCLUSION,
    SIGMA_1,
    SIGMA_2,
    forward_pseudo_hermiticity,
    klein_gordon_residual,
    two_level_intertwiner,
    two_level_observables,
)

RNG = np.random.default_rng(112358)

SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


# ----------------------------------------------------------------------
# two-level
# ----------------------------------------------------------------------

def test_two_level_hermitian_at_unity():
    params = models.TwoLevelParams(1.0)
    m = models.two_level(params)
    assert opnorm(m.A - dagger(m.A)) < 1e-14
    np.testing.assert_allclose(m.eta_plus, np.eye(2), atol=1e-14)
    # theta = ln(D)/2 = 0: the observables are the Pauli matrices
    for s, sigma in zip(two_level_observables(params), (SIGMA_1, SIGMA_2, models.SIGMA_3)):
        np.testing.assert_array_equal(s, sigma)


def test_two_level_closed_forms_d4():
    m = models.two_level(models.TwoLevelParams(4.0))
    np.testing.assert_allclose(np.sort(np.linalg.eigvals(m.A).real), [-2.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(m.eta_plus, [[1.25, 0.75], [0.75, 1.25]], atol=1e-12)
    np.testing.assert_allclose(m.h, np.diag([2.0, -2.0]), atol=1e-12)


def test_two_level_general_metric_family():
    m = models.two_level(models.TwoLevelParams(4.0, r=1.0, s=0.5))
    th = np.log(2.0)
    expected = np.array(
        [[np.cosh(th) + 0.5, np.sinh(th)], [np.sinh(th), np.cosh(th) - 0.5]]
    )
    np.testing.assert_allclose(m.eta_general, expected, atol=1e-12)
    # still a valid metric for A
    assert forward_pseudo_hermiticity(m.A, m.eta_general) < 1e-12
    assert np.linalg.eigvalsh(m.eta_general).min() > 0


def test_two_level_intertwiner_relation():
    # eta'(r, s) = L^dag eta_+ L with L built from the (r1, r2) family
    for r, s in [(1.0, 0.0), (0.7, 0.3), (2.0, -0.6)]:
        params = models.TwoLevelParams(4.0, r=r, s=s)
        m = models.two_level(params)
        l_op = two_level_intertwiner(params)
        np.testing.assert_allclose(
            dagger(l_op) @ m.eta_plus @ l_op, m.eta_general, atol=1e-12
        )
        # L commutes with A
        np.testing.assert_allclose(
            linalg.commutator(l_op, m.A), np.zeros((2, 2)), atol=1e-12
        )


def test_two_level_rejects_bad_d():
    with pytest.raises(DefectiveOperatorError):
        models.two_level(models.TwoLevelParams(0.0))
    with pytest.raises(NonPositiveDError):
        models.two_level(models.TwoLevelParams(-2.0))


def test_two_level_observables():
    params = models.TwoLevelParams(4.0)
    m = models.two_level(params)
    s1, s2, s3 = two_level_observables(params)
    eta = m.eta_plus
    for s in (s1, s2, s3):
        assert forward_pseudo_hermiticity(s, eta) < 1e-12
        np.testing.assert_allclose(np.sort(np.linalg.eigvals(s).real), [-1, 1], atol=1e-12)


# ----------------------------------------------------------------------
# Swanson
# ----------------------------------------------------------------------

def test_swanson_reality_constraint():
    with pytest.raises(RealityViolatedError):
        models.SwansonParams(1.0, 1.0, 0.6, 0.5)


def test_swanson_symmetric_couplings_give_identity_metric():
    params = models.SwansonParams(1.0, 1.0, 0.07, 0.07)
    sm = models.swanson_metric(params, 0.0)
    assert sm.w == pytest.approx(0.0, abs=1e-14)
    assert sm.z == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(sm.eta_2x2, np.eye(2), atol=1e-14)


def test_swanson_alpha_to_zero_limit():
    r = 0.4
    s = np.exp(r)
    beta_t = 0.06
    w_exact = models.swanson_w(models.SwansonParams(1.0, 1.0, 0.0, 0.06), r)
    assert w_exact == pytest.approx(-beta_t / s)
    # continuity of the + branch
    w_near = models.swanson_w(models.SwansonParams(1.0, 1.0, 1e-7, 0.06), r)
    assert w_near == pytest.approx(w_exact, abs=1e-6)


def test_swanson_matrix_identity_residual():
    for at, bt, r in [(0.1, 0.05, 0.2), (0.3, -0.2, -0.5), (0.0, 0.1, 0.7)]:
        params = models.SwansonParams(1.0, 1.0, at, bt)
        sm = models.swanson_metric(params, r)
        assert sm.residual <= 1e-12


def test_swanson_minus_branch_also_solves():
    params = models.SwansonParams(1.0, 1.0, 0.1, 0.05)
    sm = models.swanson_metric(params, 0.3, branch=-1)
    assert sm.residual <= 1e-12


def largest_accepted_beta(hbar, omega, alpha):
    """The largest beta SwansonParams accepts, so hbar^2 omega^2 -> 4 alpha beta+."""
    beta = (hbar * omega) ** 2 / (4.0 * alpha)
    while hbar**2 * omega**2 <= 4.0 * alpha * beta:
        beta = np.nextafter(beta, 0.0)
    return beta


@pytest.mark.parametrize("hbar,omega,alpha", [(1.0, 1.0, 0.5), (1.0, 1.0, 0.3), (0.7, 1.3, 0.2)])
@pytest.mark.parametrize("r", [-1.0, 0.0, 1.0])
def test_swanson_discriminant_stays_positive_at_the_reality_boundary(hbar, omega, alpha, r):
    # w_+ - w_- = sqrt(disc) / (at s) and disc = 4 at^2 s^2 + (1 - 4 at bt); at
    # the boundary the bracket is an ulp, so the roots stay 2 apart
    params = models.SwansonParams(hbar, omega, alpha, largest_accepted_beta(hbar, omega, alpha))
    assert 1.0 - 4.0 * params.alpha_tilde * params.beta_tilde < 1e-15
    w_plus, w_minus = models.swanson_w(params, r, +1), models.swanson_w(params, r, -1)
    assert w_plus - w_minus == pytest.approx(2.0, rel=1e-12)
    assert models.swanson_metric(params, r).residual <= 1e-12


def test_swanson_discriminant_rounded_below_zero_gives_the_double_root():
    # 1 - 4 at bt rounds to -2.2e-16 here and 4 at^2 s^2 = 1.5e-33 cannot lift it
    params = models.SwansonParams(0.5429241453766552, 0.010742013170091347,
                                  0.02649643862377257, 0.0003209239862106472)
    at, s = params.alpha_tilde, np.exp(-40.0)
    assert 1.0 - 4.0 * at * params.beta_tilde < 0.0
    w_plus, w_minus = models.swanson_w(params, -40.0, +1), models.swanson_w(params, -40.0, -1)
    assert w_plus == w_minus == -1.0 / (2.0 * at * s)


def test_swanson_truncated_harmonic_limit():
    params = models.SwansonParams(1.0, 1.0, 0.0, 0.0)
    sys_ = models.swanson_truncated(params, 0.0, 24)
    np.testing.assert_allclose(sys_.eta_plus.eta, np.eye(24), atol=1e-12)
    spec = np.sort(np.linalg.eigvalsh(sys_.h))
    np.testing.assert_allclose(spec[:6], np.arange(6) + 0.5, atol=1e-12)


def test_swanson_truncated_hamiltonian_is_the_ladder_form():
    params = models.SwansonParams(1.3, 0.7, 0.11, -0.06)
    a, ad = ladder_operators(40)
    H = (params.hbar * params.omega * (ad @ a + 0.5 * np.eye(40))
         + params.alpha * (ad @ ad) + params.beta * (a @ a))
    np.testing.assert_array_equal(models.swanson_truncated(params, 0.1, 40).H, H)


def test_swanson_truncated_spectrum_and_hermiticity():
    params = models.SwansonParams(1.0, 1.0, 0.1, 0.05)
    sys_ = models.swanson_truncated(params, 0.0, 60)
    assert opnorm(sys_.h - dagger(sys_.h)) <= 1e-9 * opnorm(sys_.h)
    e_direct = np.sort(np.linalg.eigvals(sys_.H).real)[:5]
    e_h = np.sort(np.linalg.eigvalsh(sys_.h))[:5]
    np.testing.assert_allclose(e_h, e_direct, rtol=1e-6)
    # equidistant low-lying levels at hbar w sqrt(1 - 4 at bt)
    spacing = np.diff(np.sort(np.linalg.eigvalsh(sys_.h))[:6])
    expected = np.sqrt(1.0 - 4.0 * params.alpha_tilde * params.beta_tilde)
    np.testing.assert_allclose(spacing, expected, atol=1e-8)


@pytest.mark.parametrize("n_max", [16, 17, 40, 61])
def test_swanson_truncated_h_is_exactly_hermitian(n_max):
    # h ends as (h + h^dagger) / 2, whose (i, j) and (j, i) entries are exact
    # conjugates, so the record carries no Hermiticity gate for it
    for alpha, beta in [(0.1, 0.05), (0.2, -0.1), (-0.15, 0.3), (0.45, 0.5)]:
        for r in (-0.5, 0.0, 0.7):
            h = models.swanson_truncated(models.SwansonParams(alpha=alpha, beta=beta), r, n_max).h
            assert np.array_equal(h, dagger(h)), (alpha, beta, r)


def test_swanson_truncated_returns_what_it_builds():
    # h is lifted from the 2x2 transport and no similarity of the truncated
    # space maps H to it, so the result carries H, eta_+ and h and no rho
    params = models.SwansonParams(1.0, 1.0, 0.1, 0.05)
    out = models.swanson_truncated(params, 0.0, 40)
    assert type(out) is models.TruncatedSwanson
    assert not isinstance(out, metric.QuasiHermitianSystem)
    assert list(out._fields) == ["H", "eta_plus", "h"]
    assert isinstance(out.eta_plus, metric.MetricOperator)


def test_swanson_truncated_metric_is_positive():
    params = models.SwansonParams(1.0, 1.0, 0.1, 0.05)
    sys_ = models.swanson_truncated(params, 0.2, 40)
    assert np.linalg.eigvalsh(sys_.eta_plus.eta).min() > 0


@pytest.mark.parametrize("n_max", [16, 40, 80, 120])
def test_exp_k_plus_matches_expm(n_max):
    from scipy.linalg import expm

    a, ad = ladder_operators(n_max)
    k_plus = 0.5 * (ad @ ad)
    for z in (0.0, 0.05 - 0.02j, 0.3 + 0.4j, -0.7 + 0.1j, 1.2j):
        ref = expm(z * k_plus)
        assert opnorm(models._exp_k_plus(z, n_max) - ref) <= 1e-12 * opnorm(ref)


def test_sqrtm_2x2_matches_sqrtm():
    from scipy.linalg import sqrtm

    avatars = [
        models.swanson_metric(models.SwansonParams(1.0, 1.0, al, be), r).eta_2x2
        for al, be, r in [(0.1, 0.05, 0.2), (0.3, -0.2, -0.1), (0.0, 0.2, 0.15), (-0.4, 0.1, 0.3)]
    ]
    generic = [
        3.0 * np.eye(2) + RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        for _ in range(4)
    ]
    for m in avatars + generic:
        ref = sqrtm(m)
        root = models._sqrtm_2x2(m)
        assert opnorm(root - ref) <= 1e-12 * opnorm(ref)
        assert opnorm(root @ root - m) <= 1e-12 * opnorm(m)


@pytest.mark.parametrize("n_max", [16, 60, 120])
def test_swanson_truncated_metric_matches_expm_product(n_max):
    from scipy.linalg import expm

    params = models.SwansonParams(1.0, 1.0, 0.1, 0.05)
    r = 0.15
    z = models.swanson_metric(params, r).z
    a, ad = ladder_operators(n_max)
    k3 = 0.5 * (ad @ a + 0.5 * np.eye(n_max))
    ref = expm(0.5 * z * (ad @ ad)) @ expm(2.0 * r * k3) @ expm(0.5 * np.conj(z) * (a @ a))
    eta = models.swanson_truncated(params, r, n_max).eta_plus.eta
    assert opnorm(eta - ref) <= 1e-12 * opnorm(ref)


# ----------------------------------------------------------------------
# quartic
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def quartic_omega0():
    return models.quartic_pair(models.QuarticParams(1.0 / 16.0, 0.0), n_lowest=5)


def test_quartic_dual_discretization_match(quartic_omega0):
    qp = quartic_omega0
    rel = np.abs(qp.spectrum_H.real - qp.spectrum_h) / np.abs(qp.spectrum_h)
    assert rel.max() <= 1e-4
    assert np.abs(qp.spectrum_H.imag).max() <= 1e-6


def test_quartic_positive_spectrum(quartic_omega0):
    assert np.all(quartic_omega0.spectrum_h > 0)
    assert np.all(quartic_omega0.spectrum_H.real > 0)


def test_quartic_linear_potential_reduction(quartic_omega0):
    # at lam = 1/16, omega = 0 the K-representation potential is
    # (x^4 - 2x)/4, i.e. gamma = 1 in the rescaled form
    qp = quartic_omega0
    u = qp.k_grid
    direct = (u**2) ** 2 / (64.0 / 16.0) - 0.5 * u
    np.testing.assert_allclose(direct, 0.25 * (u**4 - 2.0 * u), atol=1e-12)


@pytest.fixture(scope="module", params=[0.0, 1.0], ids=["omega0", "omega1"])
def quartic_low8(request):
    params = models.QuarticParams(1.0 / 16.0, request.param, n=384)
    return models.quartic_pair(params, n_lowest=8), models.contour_hamiltonian(params)


def test_quartic_grid_is_exactly_pt_symmetric(quartic_low8):
    qp, H = quartic_low8
    assert np.array_equal(qp.s_grid[::-1], -qp.s_grid)
    pt_image = np.conj(H)[::-1, ::-1]
    assert np.linalg.norm(pt_image - H) <= 1e-15 * np.linalg.norm(H)


def test_quartic_real_form_matches_complex_eig(quartic_low8):
    # the complex eigensolver on H itself is the oracle
    qp, H = quartic_low8
    oracle = np.linalg.eigvals(H)
    oracle = oracle[np.argsort(oracle.real)][:8]
    assert qp.spectrum_H.shape == (8,)
    np.testing.assert_allclose(qp.spectrum_H, oracle, rtol=1e-10, atol=0)


def test_quartic_real_form_eigenvectors(quartic_low8):
    qp, H = quartic_low8
    values, vectors = models._pt_symmetric_eig(models._pt_real_form(H), 8)
    np.testing.assert_array_equal(values, qp.spectrum_H)
    np.testing.assert_allclose(np.linalg.norm(vectors, axis=0), 1.0, rtol=1e-14)
    residual = np.linalg.norm(H @ vectors - vectors * values, axis=0)
    assert residual.max() <= 1e-10 * np.linalg.norm(H, 2)


def test_pt_symmetric_eig_on_a_random_pt_symmetric_matrix():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    symmetric = 0.5 * (a + np.conj(a)[::-1, ::-1])
    values, _ = models._pt_symmetric_eig(models._pt_real_form(symmetric), 16)
    distance = np.abs(values[:, None] - np.linalg.eigvals(symmetric)[None, :])
    assert max(distance.min(axis=0).max(), distance.min(axis=1).max()) <= 1e-12


def _pt_defect(H):
    """|P conj(H) P - H|_F / |H|_F with P the index reversal."""
    return np.linalg.norm(np.conj(H)[::-1, ::-1] - H) / np.linalg.norm(H)


@pytest.mark.parametrize("length", [6.0, 18.0])
@pytest.mark.parametrize("n", [64, 65, 384, 577])
def test_contour_hamiltonian_is_pt_symmetric(n, length):
    # _pt_real_form takes the symmetry for granted: the cell-centred s-grid
    # reverses to -s exactly and the circulant K^2 and K/2 are mirror-real
    # (the largest defect over this grid is 4.4e-17; the s-grid shifted by a
    # quarter cell reads 2.9e-3 to 4.0e-2)
    for lam in (1 / 16, 0.1, 0.5, 5.0):
        for omega in (0.0, 1.0, 3.0):
            H = models.contour_hamiltonian(models.QuarticParams(lam, omega, n, length))
            assert _pt_defect(H) <= 1e-15, (lam, omega)


def _real_form(H):
    re, im = H.real, H.imag
    return re + 0.5 * (im[::-1, :] - im[:, ::-1])


@pytest.mark.parametrize("lam", [1.0 / 16.0, 0.1])
@pytest.mark.parametrize("omega", [0.0, 1.0])
@pytest.mark.parametrize("n", [384, 576])
def test_shift_invert_matches_dense_eig_oracle(lam, omega, n):
    # the dense dgeev of the same real form B is the oracle; each eigenvalue
    # must agree to within its first-order error bound kappa_i u |B|_F, with
    # kappa_i from the oracle's left and right eigenvectors
    params = models.QuarticParams(lam, omega, n)
    qp = models.quartic_pair(params, n_lowest=8)
    H = models.contour_hamiltonian(params)
    b = _real_form(H)
    values, right = np.linalg.eig(b)
    left = np.linalg.inv(right)
    low = np.argsort(values.real)[:8]
    kappa = np.linalg.norm(right[:, low], axis=0) * np.linalg.norm(left[low], axis=1)
    bound = kappa * 0.5 * np.finfo(float).eps * np.linalg.norm(b)
    for n_lowest in (5, 8):
        got = qp.spectrum_H if n_lowest == 8 else models._pt_symmetric_eig(
            models._pt_real_form(H), 5)[0]
        assert got.shape == (n_lowest,)
        error = np.abs(got - values[low[:n_lowest]])
        assert np.all(error <= bound[:n_lowest])
        if omega == 0.0:
            assert np.all(error <= 1e-10 * np.abs(values[low[:n_lowest]]))


def _pt_from_real(j):
    # U J U^dag with U = (I + iP)/sqrt(2), written out so that for a J of
    # small integers every entry, and the real form B = J, is exact
    return 0.5 * (j + j[::-1, ::-1]) + 0.5j * (j[::-1, :] - j[:, ::-1])


def test_pt_symmetric_eig_rejects_a_jordan_block():
    # a defective eigenvalue at the low end has tiny residuals, so only the
    # error-disc test can refuse it; the Krylov space grows to n first
    rng = np.random.default_rng(7)
    for n, low in ((16, 0.5), (64, 1.0), (200, 3.0)):
        j = np.diag(np.arange(n) + low + 2.0) + 0.5 * np.triu(rng.integers(-3, 4, (n, n)), 2)
        j[0, 0] = j[1, 1] = low
        j[0, 1] = 1.0
        H = _pt_from_real(j)
        assert np.array_equal(_real_form(H), j)
        for n_lowest in (1, 2, 5):
            with pytest.raises(EigenpairsNotConvergedError):
                models._pt_symmetric_eig(models._pt_real_form(H), n_lowest)


def test_pt_symmetric_eig_grows_the_krylov_space_until_converged():
    # a spectrum clustered at 1 converges slowly under shift-invert; the
    # start dimension leaves residuals up to 1e-4 |B|_F, so only the
    # residual gate makes the Krylov space grow (to 320 here)
    spacing = 1e-3
    diagonal = 1.0 + spacing * np.random.default_rng(3).permutation(400)
    H = _pt_from_real(np.diag(diagonal))
    values, vectors = models._pt_symmetric_eig(models._pt_real_form(H), 5)
    np.testing.assert_allclose(values, 1.0 + spacing * np.arange(5), rtol=0, atol=1e-12)
    residual = np.linalg.norm(H @ vectors - vectors * values, axis=0)
    assert residual.max() <= 1e-13 * np.linalg.norm(H)


def test_pt_symmetric_eig_rejects_a_singular_operator():
    j = np.diag(np.arange(1.0, 17.0))
    j[3, :] = 0.0
    j[0, 3] = 2.0
    with pytest.raises(SingularOperatorError):
        models._pt_symmetric_eig(models._pt_real_form(_pt_from_real(j)), 4)


def test_quartic_spectrum_is_reproducible():
    params = models.QuarticParams(0.08, 1.0, n=384)
    first = models.quartic_pair(params, n_lowest=5)
    second = models.quartic_pair(params, n_lowest=5)
    assert np.array_equal(first.spectrum_H, second.spectrum_H)
    assert np.array_equal(first.spectrum_h, second.spectrum_h)


def test_quartic_ill_conditioned_pairs_are_refined():
    # at omega = 2 the upper kept eigenvalues have kappa ~ 1e7-1e8; the
    # Arnoldi pairs alone miss h by 1.4e-4, a dense solver by 1.5e-6
    qp = models.quartic_pair(models.QuarticParams(0.1, 2.0), n_lowest=5)
    rel = np.abs(qp.spectrum_H.real - qp.spectrum_h) / np.abs(qp.spectrum_h)
    assert rel.max() <= 1e-5


def _dense_fourier_operator(n, half_width, power):
    # the FFT of the dense identity: the former construction, kept as oracle
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * half_width / n)
    op = np.fft.ifft(k[:, None] ** power * np.fft.fft(np.eye(n), axis=0), axis=0)
    return 0.5 * (op + dagger(op)) if power % 2 == 0 else op


@pytest.mark.parametrize("n, half_width", [(48, 16.0), (64, 3.0), (257, 10.0), (576, 18.0)])
def test_fourier_operator_matches_dense_fft(n, half_width):
    for power in (1, 2, 3, 4):
        op = models.fourier_wavenumber_operator(n, half_width, power)
        ref = _dense_fourier_operator(n, half_width, power)
        assert np.linalg.norm(op - ref) <= 1e-15 * np.linalg.norm(ref)
        if power % 2 == 0:
            assert op.dtype == float and np.array_equal(op, op.T)


def test_quartic_partner_is_real(quartic_omega0):
    assert quartic_omega0.h.dtype == float
    assert np.array_equal(quartic_omega0.h, quartic_omega0.h.T)


def test_quartic_grid_too_small():
    with pytest.raises(GridTooSmallError):
        models.quartic_pair(models.QuarticParams(1.0 / 16.0, 0.0, n=64, length=2.0))


@pytest.mark.parametrize(
    "n_lowest, n_k",
    [(0, 256), (-1, 256), (385, 512), (600, 256), (257, 256)],
    ids=["zero", "negative", "above-n", "far-above-n", "above-n_k"],
)
def test_quartic_n_lowest_outside_both_grids_is_an_input_error(n_lowest, n_k):
    # both spectra carry n_lowest values, so both grids bound it; an
    # out-of-range count is an input fault, not a domain error
    with pytest.raises(InputError, match="n_lowest"):
        models.quartic_pair(models.QuarticParams(1.0 / 16.0, n=384, n_k=n_k), n_lowest)


def _dense_contour_hamiltonian(params):
    # the sum of dense operators with its n x n temporaries: the former
    # assembly, kept as oracle
    n, ls = params.n, params.length
    s = (np.arange(n) + 0.5 - 0.5 * n) * (2.0 * ls / n)
    one_is = 1.0 + 1j * s
    H = one_is[:, None] * models.fourier_wavenumber_operator(n, ls, 2)
    H += 0.5 * models.fourier_wavenumber_operator(n, ls, 1)
    H[np.diag_indices(n)] -= 16.0 * params.lam * one_is**2 + 4.0 * params.omega**2 * one_is
    return H


@pytest.mark.parametrize("omega", [0.0, 1.5])
@pytest.mark.parametrize("n", [64, 257, 384, 576])
def test_contour_hamiltonian_is_the_dense_assembly(n, omega):
    params = models.QuarticParams(0.1, omega, n)
    H = models.contour_hamiltonian(params)
    np.testing.assert_array_equal(H, _dense_contour_hamiltonian(params))
    np.testing.assert_array_equal(models._pt_real_form(H), _real_form(H))


def test_quartic_pair_holds_one_complex_operator_at_a_time():
    # H alone is one complex n x n array (16 n^2 bytes); after it come B,
    # B^-1, the Krylov basis and the Hessenberg matrix, four real n x n
    # arrays, and the result keeps nothing of size n^2
    params = models.QuarticParams(1.0 / 16.0, 0.0, n=576)
    models.quartic_pair(params)  # FFT and LAPACK set-up outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        qp = models.quartic_pair(params)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 2.5 * 16 * params.n**2
    assert current - before <= 1e6
    assert qp.spectrum_H.shape == (5,)


def test_quartic_translation_identity():
    # e^{g(K)} s e^{-g(K)} = s - i g'(K) on interior grid points, checked
    # in a tame regime: large lam and a coarse wave-number grid keep
    # e^{|g|} small enough that the wrap error is not amplified
    from scipy.linalg import expm

    lam, omega = 10.0, 0.5
    n, half = 48, 16.0
    s = np.linspace(-half, half, n, endpoint=False)
    k_op = models.fourier_wavenumber_operator(n, half, 1)
    g_mat = (
        k_op @ k_op @ k_op / (96.0 * lam)
        - (1.0 + omega**2 / (8.0 * lam)) * k_op
    )
    gp_mat = 3.0 * k_op @ k_op / (96.0 * lam) - (1.0 + omega**2 / (8.0 * lam)) * np.eye(n)
    # g(K) and g'(K) are functions of the same operator: exact commutation
    np.testing.assert_allclose(g_mat @ gp_mat, gp_mat @ g_mat, atol=1e-10)
    lhs = expm(g_mat) @ np.diag(s) @ expm(-g_mat)
    rhs = np.diag(s) - 1j * gp_mat
    psi = np.exp(-(s**2) / (2.0 * 2.0**2))  # smooth, spectrally resolved
    err = np.abs((lhs - rhs) @ psi)
    interior = slice(n // 6, -n // 6)
    assert np.max(err[interior]) < 1e-9


# ----------------------------------------------------------------------
# kernel metrics
# ----------------------------------------------------------------------

def test_kernel_zero_coupling_is_identity():
    spec = models.KernelPotentialSpec("barrier", 0.0, length=1.0)
    out = models.kernel_metric(spec)
    np.testing.assert_allclose(out.eta_matrix, np.eye(len(out.x)), atol=1e-14)


@pytest.mark.parametrize("kind", ["square_well", "barrier", "delta"])
def test_kernel_hermiticity(kind):
    spec = models.KernelPotentialSpec(kind, 0.05, length=1.0, kappa=1.0)
    out = models.kernel_metric(spec)
    assert np.max(np.abs(out.eta_matrix - dagger(out.eta_matrix))) == 0.0


# the symmetry holds at any size of the first-order correction
@pytest.mark.filterwarnings("ignore:first-order kernel correction")
@pytest.mark.parametrize("kind", ["square_well", "barrier", "delta"])
@pytest.mark.parametrize("box", [{}, {"x_min": -1.0, "x_max": 3.0}, {"n": 301},
                                 {"n": 257, "x_min": -0.37, "x_max": 2.9}],
                         ids=["default", "off-centre", "odd-n", "odd-n-off-centre"])
def test_kernel_eta_is_exactly_hermitian_on_any_box(kind, box):
    # k = i c f(x, y) s(x, y) with f symmetric and s antisymmetric to the bit,
    # so eta = I + dx k is Hermitian to the bit and the record gates no symmetry
    for zeta in (0.01, 0.08, -0.05):
        spec = models.KernelPotentialSpec(kind, zeta, length=1.0, kappa=1.0, **box)
        eta = models.kernel_metric(spec).eta_matrix
        assert np.array_equal(eta, dagger(eta)), zeta


def test_kernel_unknown_kind():
    with pytest.raises(InputError, match="unknown kernel potential kind"):
        models.KernelPotentialSpec("gaussian", 0.1)


@pytest.mark.parametrize("x_min, x_max", [(0.0, 4.0), (-1.0, 3.0), (-0.37, 2.9), (-2.0, 2.0)])
def test_node_grid_spans_its_box(x_min, x_max):
    # the node grid ran on [-2, 1.99] whatever its box, e.g. for [0, 4]
    spec = models.KernelPotentialSpec("delta", 0.1, n=400, x_min=x_min, x_max=x_max)
    x, dx = spec.points(), spec.dx
    assert 0.0 in x
    np.testing.assert_allclose(np.diff(x), dx, rtol=1e-12)
    assert x[0] > x_min - 0.5 * dx and x[-1] < x_max + 0.5 * dx
    assert x[0] <= x_min + 0.5 * dx and x[-1] >= x_max - 1.5 * dx


@pytest.mark.parametrize("kappa", [0.5, 1.0, 3.0])
def test_default_delta_grid_is_centred(kappa):
    spec = models.KernelPotentialSpec("delta", 0.1, kappa=kappa)
    np.testing.assert_array_equal(spec.points(), (np.arange(spec.n) - spec.n // 2) * spec.dx)


@pytest.mark.parametrize("x_min, x_max", [(0.5, 4.0), (-4.0, -0.1)])
def test_node_grid_box_must_hold_the_origin(x_min, x_max):
    with pytest.raises(InputError, match="must contain 0"):
        models.KernelPotentialSpec("delta", 0.1, n=400, x_min=x_min, x_max=x_max)


@pytest.mark.parametrize("kind", ["square_well", "barrier", "delta"])
def test_kernel_half_coupling_residual_is_the_rebuilt_one(kind):
    spec = models.KernelPotentialSpec(kind, 0.05)
    out = models.kernel_metric(spec)
    half = models.KernelPotentialSpec(kind, 0.025)
    eta = np.eye(half.n) + half.dx * models.kernel_first_order(half, out.x)
    r_half = models._weak_residual(eta, half)
    assert out.residual_report["residual_half_zeta"] == r_half


def dense_hamiltonian(spec):
    """Oracle: the central-difference H = -hbar^2/(2m) d^2/dx^2 + v(x) as a
    dense matrix, with Dirichlet walls at the grid's ends."""
    n, dx = spec.n, spec.dx
    d2 = (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)) / dx**2
    H = -(spec.hbar**2 / (2.0 * spec.mass)) * d2 + np.diag(models.potential_on_grid(spec))
    return H.astype(complex)


def dense_weak_residual(eta, spec):
    """Oracle: the weak residual from the whole commutator eta H - H^dag eta."""
    H = dense_hamiltonian(spec)
    tests = models._packet_family(spec)
    num = np.max(np.abs(dagger(tests) @ (eta @ H - dagger(H) @ eta) @ tests))
    return num / np.max(np.abs(dagger(tests) @ H @ tests))


KERNEL_CASES = [("barrier", 0.08), ("barrier", 0.15), ("delta", 0.3), ("delta", 0.45),
                ("square_well", 0.1)]


@pytest.mark.parametrize("n", [200, 400, 800])
@pytest.mark.parametrize("kind, zeta", KERNEL_CASES)
def test_the_stencil_is_the_dense_hamiltonian(kind, zeta, n):
    spec = models.KernelPotentialSpec(kind, zeta, n=n)
    H = dense_hamiltonian(spec)
    assert np.array_equal(models.apply_hamiltonian(spec, np.eye(n)), H)
    rng = np.random.default_rng(n)
    psi = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    np.testing.assert_allclose(models.apply_hamiltonian(spec, psi), H @ psi,
                               atol=1e-12 * np.abs(H).max())


@pytest.mark.filterwarnings("ignore:first-order kernel correction")
@pytest.mark.parametrize("n", [200, 400, 800])
@pytest.mark.parametrize("kind, zeta", KERNEL_CASES)
def test_packet_residuals_match_the_dense_commutator(kind, zeta, n):
    spec = models.KernelPotentialSpec(kind, zeta, n=n)
    out = models.kernel_metric(spec)
    report = out.residual_report
    half = spec.replace(zeta=zeta / 2.0)
    eta_half = np.eye(n) + half.dx * models.kernel_first_order(half, out.x)
    assert report["residual_zeta"] == pytest.approx(dense_weak_residual(out.eta_matrix, spec),
                                                    rel=1e-9)
    assert report["residual_half_zeta"] == pytest.approx(dense_weak_residual(eta_half, half),
                                                         rel=1e-9)
    if n == 200:
        # the SVD norm of dx k, which the Hermitian eigenvalues give
        assert report["first_order_kernel_scale"] == pytest.approx(
            opnorm(out.eta_matrix - np.eye(n)), rel=1e-12)


@pytest.mark.filterwarnings("ignore:first-order kernel correction")
@pytest.mark.parametrize("kind, zeta", [("barrier", 0.08), ("delta", 0.3), ("square_well", 0.1)])
def test_kernel_scale_reads_the_complex_hermitian_spectrum(kind, zeta):
    # dx k is i B with B = eta.imag real antisymmetric, so the real spectrum of
    # B^T B gives the largest |eigenvalue| of the Hermitian dx k
    spec = models.KernelPotentialSpec(kind, zeta, n=400)
    out = models.kernel_metric(spec)
    correction = spec.dx * models.kernel_first_order(spec, out.x)
    assert not np.any(correction.real)
    np.testing.assert_array_equal(correction.imag, -correction.imag.T)
    assert out.residual_report["first_order_kernel_scale"] == pytest.approx(
        np.max(np.abs(np.linalg.eigvalsh(correction))), rel=1e-13)


@pytest.mark.parametrize("kind,zeta", [("barrier", 0.1), ("delta", 0.2)])
def test_kernel_residual_order(kind, zeta):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = models.kernel_metric(models.KernelPotentialSpec(kind, zeta))
    assert abs(out.residual_report["fitted_order"] - 2.0) <= 0.3


def test_kernel_first_order_warning():
    with pytest.warns(UserWarning, match="first-order kernel"):
        models.kernel_metric(models.KernelPotentialSpec("barrier", 0.25))


def test_klein_gordon_residual_scaling():
    box = {"n": 400, "x_min": -2.0, "x_max": 2.0}
    r1 = klein_gordon_residual(models.KernelPotentialSpec("barrier", 0.1, **box))
    r2 = klein_gordon_residual(models.KernelPotentialSpec("barrier", 0.05, **box))
    assert r1 / r2 == pytest.approx(4.0, rel=0.05)
    box_w = {"length": 2.0, "n": 400, "x_min": -1.0, "x_max": 1.0}
    w1 = klein_gordon_residual(models.KernelPotentialSpec("square_well", 0.1, **box_w))
    w2 = klein_gordon_residual(models.KernelPotentialSpec("square_well", 0.05, **box_w))
    assert w1 / w2 == pytest.approx(4.0, rel=0.05)
    # the delta kernel solves the off-axis equation exactly
    rd = klein_gordon_residual(models.KernelPotentialSpec("delta", 0.1, **box))
    assert rd <= 10.0 * 0.1**2


def direct_klein_gordon_residual(spec):
    """Oracle: max |(-d_x^2 + d_y^2 + mu^2) k| with the differences taken by
    np.roll, over klein_gordon_residual's mask."""
    x, dx = spec.points(), spec.dx
    k = models.kernel_first_order(spec, x)
    d2x = (np.roll(k, -1, axis=0) - 2 * k + np.roll(k, 1, axis=0)) / dx**2
    d2y = (np.roll(k, -1, axis=1) - 2 * k + np.roll(k, 1, axis=1)) / dx**2
    v = models.potential_on_grid(spec)
    mu2 = (2.0 * spec.mass / spec.hbar**2) * (np.conj(v)[:, None] - v[None, :])
    xx, yy, band = x[:, None], x[None, :], KG_EXCLUSION * dx
    mask = (np.abs(xx - yy) > band) & (np.abs(xx + yy) > band)
    if spec.kind == "delta":
        mask &= (np.abs(xx) > band) & (np.abs(yy) > band)
    else:
        mask &= np.abs(np.abs(xx + yy) - spec.length) > band
        mask &= (np.abs(np.abs(xx) - spec.length / 2) > band)
        mask &= (np.abs(np.abs(yy) - spec.length / 2) > band)
    mask[:2, :] = mask[-2:, :] = mask[:, :2] = mask[:, -2:] = False
    return float(np.max(np.abs((-d2x + d2y + mu2 * k)[mask])))


@pytest.mark.parametrize("kind, zeta, box", [
    ("barrier", 0.1, (-2.0, 2.0)), ("barrier", 0.05, (-2.0, 2.0)), ("delta", 0.1, (-2.0, 2.0)),
    ("square_well", 0.1, (None, None)), ("square_well", 0.2, (-1.0, 1.0))])
def test_klein_gordon_residual_is_the_direct_stencil(kind, zeta, box):
    # the residual applies the one H, conjugated in x and transposed in y
    spec = models.KernelPotentialSpec(kind, zeta, x_min=box[0], x_max=box[1])
    assert klein_gordon_residual(spec) == pytest.approx(
        direct_klein_gordon_residual(spec), rel=1e-12, abs=1e-15)


def test_kernel_metric_positive_definite_at_small_zeta():
    out = models.kernel_metric(models.KernelPotentialSpec("barrier", 0.05))
    assert np.linalg.eigvalsh(out.eta_matrix).min() > 0


def test_well_matches_barrier_kernel():
    # inside |x + y| < L the two kernels coincide exactly; outside, the
    # barrier kernel saturates at the constant (m zeta L / 2 hbar^2) sgn
    spec_w = models.KernelPotentialSpec("square_well", 0.1, length=1.0)
    spec_b = models.KernelPotentialSpec("barrier", 0.1, length=1.0)
    x = np.linspace(-0.4, 0.4, 41)
    np.testing.assert_allclose(
        models.kernel_first_order(spec_b, x),
        models.kernel_first_order(spec_w, x),
        atol=1e-14,
    )
    x_wide = np.array([-1.2, -0.9, 0.9, 1.2])
    kb = models.kernel_first_order(spec_b, x_wide)
    sat = 1j * 0.1 / 2.0  # m zeta L / (2 hbar^2)
    assert kb[3, 2] == pytest.approx(sat)  # x + y = 2.1 > L, x > y
    assert kb[0, 1] == pytest.approx(-sat)


def test_model_outputs_pass_build_system():
    # constructor metrics certify through the similarity bundle
    m = models.two_level(models.TwoLevelParams(4.0, r=0.8, s=0.3))
    for eta in (m.eta_plus, m.eta_general):
        assert metric.pseudo_hermiticity_residual(m.A, eta) <= 1e-10
    sys_plus = metric.build_system(m.A, metric.MetricOperator(m.eta_plus))
    np.testing.assert_allclose(sys_plus.h, m.h, atol=1e-12)
    sys_gen = metric.build_system(m.A, metric.MetricOperator(m.eta_general))
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(sys_gen.h)), [-2.0, 2.0], atol=1e-12
    )


@pytest.mark.parametrize("kind, jumps, count",
                         [("square_well", [0.0], 110), ("barrier", [-0.5, 0.0, 0.5], 138)])
def test_the_sgn_jumps_fall_on_nodes_only_by_the_parity_rule(kind, jumps, count):
    # on the default boxes, x_j falls on a node when (x_j - x_min) / dx - 1/2
    # is an integer: for the well at odd n, for the barrier at odd n and at
    # n = 4 (mod 8); that is 110 and 138 of the 221 grids from 200 to 420
    on_node = set()
    for n in range(200, 421):
        spec = models.KernelPotentialSpec(kind, 0.1, n=n)
        if min(np.abs(spec.points() - x_j).min() for x_j in jumps) < 1e-9 * spec.dx:
            on_node.add(n)
    assert on_node == {n for n in range(200, 421)
                       if n % 2 == 1 or (kind == "barrier" and n % 8 == 4)}
    assert len(on_node) == count
    # at n = 237 the node at 0 sits at -5.6e-17 and rounding picks v = +i zeta
    spec = models.KernelPotentialSpec("square_well", 0.1, n=237)
    node = int(np.argmin(np.abs(spec.points())))
    assert 0 < -spec.points()[node] < 1e-16
    assert models.potential_on_grid(spec)[node] == 0.1j


def test_delta_requires_positive_kappa():
    with pytest.raises(ValueError):
        models.KernelPotentialSpec("delta", 0.1, kappa=0.0)


def test_swanson_truncated_rejects_minus_branch():
    # the second root family has |z| ~ 1/alpha_t: a squeeze whose
    # truncated metric is numerically inaccessible; the constructor
    # refuses it instead of silently mis-branching the transport
    params = models.SwansonParams(1.0, 1.0, 0.1, 0.05)
    with pytest.raises(RealityViolatedError):
        models.swanson_truncated(params, 0.0, 40, branch=-1)


# ----------------------------------------------------------------------
# parameter validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: models.TwoLevelParams(4.0, r=0.0), "r must be positive"),
        (lambda: models.TwoLevelParams(4.0, s=1.0), r"s must lie in \(-1, 1\)"),
        (lambda: models.TwoLevelParams(4.0, s=-1.5), r"s must lie in \(-1, 1\)"),
        (lambda: models.SwansonParams(hbar=0.0), "hbar and omega must be positive"),
        (lambda: models.SwansonParams(omega=-1.0), "hbar and omega must be positive"),
        (lambda: models.swanson_truncated(models.SwansonParams(), n_max=15),
         "n_max must be at least 16"),
        (lambda: models.QuarticParams(0.0), "lambda must be positive"),
        (lambda: models.QuarticParams(0.0625, omega=-0.5), "omega must be non-negative"),
        (lambda: models.QuarticParams(0.0625, n=32), "at least 64 points"),
        (lambda: models.QuarticParams(0.0625, n_k=63), "at least 64 points"),
        (lambda: models.KernelPotentialSpec("square_well", 0.1, length=0.0), "width L"),
        (lambda: models.KernelPotentialSpec("barrier", 0.1, length=-1.0), "width L"),
    ],
)
def test_invalid_model_parameters_raise_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_arnoldi_stops_on_an_invariant_subspace():
    # a 1x1 operator spans its Krylov space in one step (beta = 0)
    values, vectors = models._pt_symmetric_eig(models._pt_real_form(np.array([[2.5 + 0.0j]])), 1)
    np.testing.assert_allclose(values, [2.5], rtol=1e-15)
    np.testing.assert_allclose(np.abs(vectors), [[1.0]], rtol=1e-15)
