import numpy as np
import pytest

from phqm import biortho, linalg
from phqm.errors import (
    DefectiveOperatorError,
    InputError,
    NotHermitianError,
    SpectrumOutOfDomainError,
)

RNG = np.random.default_rng(20240811)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def two_level_matrix(d):
    return 0.5 * np.array([[d + 1, d - 1], [-d + 1, -d - 1]], dtype=complex)


def random_matrix(n, scale=1.0):
    return scale * (RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)))


def test_two_level_eigenvalues_d4():
    dec = linalg.eig_nonhermitian(two_level_matrix(4.0))
    np.testing.assert_allclose(dec.values, [-2.0, 2.0], atol=1e-12)


def test_identity_eigenpairs():
    dec = linalg.eig_nonhermitian(np.eye(3))
    np.testing.assert_allclose(dec.values, np.ones(3), atol=1e-14)
    np.testing.assert_allclose(dec.right_vectors, np.eye(3), atol=1e-14)


def test_exceptional_point_is_defective():
    # the decomposition reports the exceptional point; the extension rejects it
    dec = linalg.eig_nonhermitian(two_level_matrix(0.0))
    with pytest.raises(DefectiveOperatorError, match="eigenvector matrix condition"):
        biortho.biorthonormal_extension(dec)


def test_defective_flag_without_check():
    dec = linalg.eig_nonhermitian(two_level_matrix(0.0))
    assert not dec.diagonalizable


def test_eigenvalue_ordering_deterministic():
    a = random_matrix(6)
    v1 = linalg.eig_nonhermitian(a).values
    v2 = linalg.eig_nonhermitian(a.copy()).values
    np.testing.assert_array_equal(v1, v2)
    assert np.all(np.diff(v1.real) >= -1e-12)


def test_reconstruction_property():
    for n in (3, 5, 8):
        a = random_matrix(n)
        dec = linalg.eig_nonhermitian(a)
        rebuilt = dec.right_vectors @ np.diag(dec.values) @ np.linalg.inv(dec.right_vectors)
        assert linalg.opnorm(a - rebuilt) <= 10 * 1e-10 * linalg.opnorm(a) + 1e-12


def test_sqrt_identity():
    np.testing.assert_allclose(linalg.hermitian_function(np.eye(4), np.sqrt), np.eye(4), atol=1e-14)


def test_sqrt_of_two_level_metric():
    # exact exponential: sqrt(e^{theta s1}) = e^{(theta/2) s1}, theta = ln 2
    eta = np.array([[1.25, 0.75], [0.75, 1.25]])
    theta = np.log(2.0)
    expected = np.cosh(theta / 2) * np.eye(2) + np.sinh(theta / 2) * SIGMA1
    np.testing.assert_allclose(linalg.hermitian_function(eta, np.sqrt), expected, atol=1e-13)


def test_log_exponential_round_trip():
    theta = 0.3
    mat = np.cosh(theta) * np.eye(2) + np.sinh(theta) * SIGMA1
    np.testing.assert_allclose(linalg.hermitian_function(mat, np.log), theta * SIGMA1, atol=1e-13)


def test_identity_function_returns_input():
    h = random_matrix(6)
    h = 0.5 * (h + h.conj().T)
    np.testing.assert_allclose(linalg.hermitian_function(h, lambda x: x), h, atol=1e-12)


def test_sqrt_then_square_recovers_input():
    for n in (4, 16, 64):
        b = random_matrix(n)
        pd = b @ b.conj().T + 0.1 * np.eye(n)
        root = linalg.hermitian_function(pd, np.sqrt)
        np.testing.assert_allclose(root @ root, pd, atol=1e-9 * linalg.opnorm(pd))


def test_sqrt_rejects_indefinite():
    with pytest.raises(SpectrumOutOfDomainError):
        linalg.hermitian_function(np.diag([1.0, -1.0]), np.sqrt)


def test_hermitian_function_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        linalg.hermitian_function(np.array([[0.0, 1.0], [0.0, 0.0]]), np.sqrt)


def test_commutator_identity_commutes():
    b = random_matrix(5)
    np.testing.assert_allclose(linalg.commutator(np.eye(5), b), np.zeros((5, 5)), atol=1e-14)


def test_pauli_commutator():
    np.testing.assert_allclose(linalg.commutator(SIGMA3, SIGMA1), 2j * SIGMA2, atol=1e-14)


def test_commutator_dimension_mismatch():
    with pytest.raises(InputError, match="differ"):
        linalg.commutator(np.eye(2), np.eye(3))


def test_canonical_commutator_on_oscillator_truncation():
    # ladder-operator oracle built here, independent of the library helper
    n_max, hbar = 12, 1.0
    k = np.arange(1, n_max)
    a = np.zeros((n_max, n_max), dtype=complex)
    a[k - 1, k] = np.sqrt(k)
    x = (a + a.conj().T) / np.sqrt(2.0)
    p = 1j * (a.conj().T - a) / np.sqrt(2.0)
    comm = linalg.commutator(x, p)
    interior = comm[: n_max - 1, : n_max - 1]
    np.testing.assert_allclose(interior, 1j * hbar * np.eye(n_max - 1), atol=1e-12)


@pytest.mark.parametrize("a", [np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2)), np.ones((0, 0))])
def test_as_matrix_rejects_non_square_input(a):
    with pytest.raises(InputError, match="square matrix"):
        linalg.as_matrix(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_as_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        linalg.as_matrix([[1.0, bad], [0.0, 1.0]])


def test_decomposition_dimension():
    assert linalg.eig_nonhermitian(two_level_matrix(4.0)).dim == 2


def test_over_binade_is_exact_at_every_finite_scale():
    # numpy's complex division by a subnormal binade overflowed in its
    # reciprocal: diag(1, -1) x 2**-1030 came back with NaN entries
    a = np.array([[1.0, 0.5 - 0.25j], [0.0, -3.0]])
    for k in (-1074 + 2, -1030, -600, 0, 600, 1020):
        np.testing.assert_array_equal(linalg.over_binade(a * 2.0**k), a)


def premise_matrix(n, seed, kind, real):
    """A Jordan block plus a random perturbation of size 10^-d, or a random
    matrix graded by D R D^-1 with D = diag(2^-60 ... 2^60)."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, n)) + (0 if real else 1j * rng.standard_normal((n, n)))
    if kind == "jordan":
        return np.diag(np.ones(n - 1), 1) + 10.0 ** -rng.integers(0, 17) * r
    grading = 2.0 ** np.linspace(-60, 60, n)
    return grading[:, None] * r / grading[None, :]


def test_lapack_eigenpairs_of_a_basis_pass_the_diagnose_gate_far_below_its_tolerance():
    # eig_nonhermitian checks no eigenpair, on the premise that LAPACK's never
    # come near the 1e-8 at which the removed check, read only where V is a
    # basis, raised.  The worst such residual seen over these families was
    # 7.7e-11 (600 draws, n <= 64); without a basis, Jordan perturbations
    # read up to 4.4e-9, and 1.3e-8 at n = 128
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from phqm import cli

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 64), st.integers(0, 2**32 - 1), st.sampled_from(["jordan", "graded"]),
           st.booleans(), st.integers(-600, 600))
    def check(n, seed, kind, real, k):
        out = cli._Output()
        cli._run_diagnose(out, matrix=premise_matrix(n, seed, kind, real) * 2.0**k)
        (gate,) = out.residuals
        assert gate["name"] == "eigenpair_residual"
        assert gate["value"] <= 1e-9 or not out.scalars["diagonalizable"], gate

    check()
