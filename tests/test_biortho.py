import numpy as np
import pytest

from phqm import biortho, linalg
from phqm.errors import DefectiveOperatorError

RNG = np.random.default_rng(7331)


def random_diagonalizable(n, real_spectrum=False):
    vals = RNG.standard_normal(n) + (0 if real_spectrum else 1j * RNG.standard_normal(n))
    b = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
    b += 3 * np.eye(n)  # keep well-conditioned
    return b @ np.diag(vals) @ np.linalg.inv(b)


def system(vals, psis):
    """The biorthonormal system of the eigenvectors ``psis``, normalized as given."""
    return biortho.biorthonormal_extension(
        linalg.EigenDecomposition(np.asarray(vals, dtype=complex), psis, np.linalg.inv(psis)))


def test_hermitian_input_is_self_dual():
    h = RNG.standard_normal((4, 4))
    h = h + h.T
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(h))
    np.testing.assert_allclose(bs.phis, bs.psis, atol=1e-10)


def test_two_level_left_vectors_match_closed_form():
    # psi_n with c1 = c2 = D^{-1/4}/2 force phi_1 = (4^{1/4}/2) (1.5, 0.5)^T
    d = 4.0
    c = d ** (-0.25) / 2.0
    vals = [np.sqrt(d), -np.sqrt(d)]
    psis = np.column_stack(
        [
            c * np.array([1 + np.sqrt(d), 1 - np.sqrt(d)]),
            c * np.array([1 - np.sqrt(d), 1 + np.sqrt(d)]),
        ]
    ).astype(complex)
    bs = system(vals, psis)
    expected_phi1 = (4.0**0.25 / 2.0) * np.array([1.5, 0.5])
    np.testing.assert_allclose(bs.phis[:, 0], expected_phi1, atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_completeness_and_biorthonormality(n):
    a = random_diagonalizable(n)
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(a))
    gram = np.conj(bs.phis.T) @ bs.psis
    np.testing.assert_allclose(gram, np.eye(n), atol=1e-10)
    resolution = bs.psis @ np.conj(bs.phis.T)
    np.testing.assert_allclose(resolution, np.eye(n), atol=1e-10)


def test_exchange_symmetry():
    a = random_diagonalizable(5)
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(a))
    np.testing.assert_allclose(bs.phis @ np.conj(bs.psis.T), np.eye(5), atol=1e-10)


def test_spectral_reassembly():
    a = random_diagonalizable(6)
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(a))
    np.testing.assert_allclose((bs.psis * bs.values) @ np.conj(bs.phis.T), a, atol=1e-9)


def test_rescaling_leaves_projectors_invariant():
    a = random_diagonalizable(4)
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(a))
    scales = 0.5 + RNG.random(4) + 1j * RNG.random(4)
    rescaled = system(bs.values, bs.psis * scales[None, :])
    for n in range(4):
        p_old = np.outer(bs.psis[:, n], np.conj(bs.phis[:, n]))
        p_new = np.outer(rescaled.psis[:, n], np.conj(rescaled.phis[:, n]))
        np.testing.assert_allclose(p_new, p_old, atol=1e-10)
    # the left vectors themselves transform as phi -> phi / conj(c)
    np.testing.assert_allclose(
        rescaled.phis, bs.phis / np.conj(scales)[None, :], atol=1e-10
    )


def test_conjugate_pair_matching_on_real_matrix():
    # a generic real matrix has real eigenvalues plus conjugate pairs
    a = RNG.standard_normal((6, 6))
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(a))
    pairs = [(n, p) for n, p in enumerate(bs.partner)
             if p >= 0 and p != n and bs.values[n].imag > 0]
    n_nonreal = bs.dim - len(bs.real_indices())
    assert 2 * len(pairs) == n_nonreal
    assert len(bs.unpaired_indices()) == 0
    for nu, mnu in pairs:
        assert abs(bs.values[nu] - np.conj(bs.values[mnu])) < 1e-8


def _check_partner(bs):
    """partner is an involution that fixes exactly the real eigenvalues and
    maps each matched one to its conjugate; -1 marks the unmatched."""
    n = np.arange(bs.dim)
    matched = bs.partner >= 0
    np.testing.assert_array_equal(bs.partner[bs.partner[matched]], n[matched])
    real = np.abs(bs.values.imag) <= biortho.PAIR_TOL * max(1.0, np.abs(bs.values).max())
    np.testing.assert_array_equal(bs.partner == n, real)
    np.testing.assert_array_equal(n[bs.partner == -1], bs.unpaired_indices())
    for i in n[matched & ~real]:
        assert abs(bs.values[bs.partner[i]] - np.conj(bs.values[i])) < 1e-8
    return matched


def test_partner_maps_pairs_and_fixes_real_eigenvalues():
    paired = biortho.biorthonormal_extension(
        linalg.eig_nonhermitian(np.random.default_rng(0).standard_normal((6, 6))))
    assert np.all(_check_partner(paired))
    assert paired.real_indices().tolist() == [0, 3]
    assert paired.partner.tolist() == [0, 2, 1, 3, 5, 4]
    assert np.flatnonzero(paired.values.imag > 0).tolist() == [2, 5]
    unpaired = biortho.biorthonormal_extension(
        linalg.eig_nonhermitian(np.diag([1.0, 2.0 + 1.0j, 3.0])))
    assert _check_partner(unpaired).tolist() == [True, False, True]
    np.testing.assert_array_equal(unpaired.partner, [0, -1, 2])


def test_degenerate_block_is_orthonormalized():
    # degenerate eigenvalue: extension still satisfies both invariants
    q, _ = np.linalg.qr(RNG.standard_normal((4, 4)))
    a = q @ np.diag([2.0, 2.0, -1.0, 0.5]) @ q.T
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(a))
    np.testing.assert_allclose(np.conj(bs.phis.T) @ bs.psis, np.eye(4), atol=1e-9)
    np.testing.assert_allclose((bs.psis * bs.values) @ np.conj(bs.phis.T), a, atol=1e-9)


def test_defective_input_rejected():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    dec = linalg.eig_nonhermitian(jordan)
    with pytest.raises(DefectiveOperatorError):
        biortho.biorthonormal_extension(dec)


def test_decomposition_without_inverse_rejected():
    # V^-1 is what phi is read from; eig_nonhermitian leaves it unset only
    # when LAPACK could not invert V
    dec = linalg.eig_nonhermitian(np.diag([1.0, 2.0]))
    with pytest.raises(DefectiveOperatorError):
        biortho.biorthonormal_extension(linalg.EigenDecomposition(dec.values, dec.right_vectors))


def test_unpaired_complex_eigenvalue_blocks_pairing():
    from phqm.errors import UnpairedComplexEigenvalueError
    from phqm.metric import pseudo_metric_family

    # one isolated nonreal eigenvalue: no conjugate partner exists
    a = np.diag([1.0, 2.0 + 1.0j, 3.0]).astype(complex)
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(a))
    assert len(bs.unpaired_indices()) == 1
    with pytest.raises(UnpairedComplexEigenvalueError):
        pseudo_metric_family(bs, np.ones(len(bs.real_indices())))
