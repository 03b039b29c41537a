import numpy as np
import pytest

from phqm import linalg, perturbation
from phqm.errors import InputError, NotHermitianError, UnsolvableCommutatorError
from phqm.linalg import commutator, opnorm

from oracles import oscillator_basis

RNG = np.random.default_rng(998877)


def random_hermitian_nondegenerate(n, min_gap=0.25):
    vals = np.cumsum(min_gap + RNG.random(n))
    vals -= vals.mean()
    q, _ = np.linalg.qr(RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)))
    return q @ np.diag(vals) @ q.conj().T


def random_antihermitian(n, scale=1.0):
    a = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
    return scale * 0.5 * (a - a.conj().T)


def random_graded_problem(n, scale=1.0, min_gap=0.25, rng=RNG):
    """Random solvable perturbation: parity-like grading.

    H0 is block diagonal over a random even/odd split and H1 purely
    off-block anti-Hermitian, the matrix abstraction of an odd potential
    such as i x^3.  Without the grading the commutator hierarchy is
    obstructed at third order (odd chains make the corrections complex)
    and no metric exists.
    """
    n_a = n // 2
    vals = np.cumsum(min_gap + rng.random(n))
    vals -= vals.mean()
    qa, _ = np.linalg.qr(rng.standard_normal((n_a, n_a)) + 1j * rng.standard_normal((n_a, n_a)))
    qb, _ = np.linalg.qr(
        rng.standard_normal((n - n_a, n - n_a)) + 1j * rng.standard_normal((n - n_a, n - n_a))
    )
    h0 = np.zeros((n, n), dtype=complex)
    h0[:n_a, :n_a] = qa @ np.diag(vals[:n_a]) @ qa.conj().T
    h0[n_a:, n_a:] = qb @ np.diag(vals[n_a:]) @ qb.conj().T
    w = rng.standard_normal((n_a, n - n_a)) + 1j * rng.standard_normal((n_a, n - n_a))
    h1 = np.zeros((n, n), dtype=complex)
    h1[:n_a, n_a:] = w
    h1[n_a:, :n_a] = -w.conj().T
    return h0, scale * h1


def test_solve_commutator_zero_rhs():
    h0 = random_hermitian_nondegenerate(4)
    np.testing.assert_allclose(
        perturbation.solve_commutator(h0, np.zeros((4, 4))), np.zeros((4, 4)), atol=1e-14
    )


def test_solve_commutator_two_level_example():
    h0 = np.diag([0.0, 1.0]).astype(complex)
    h1 = np.array([[0.0, 1j], [1j, 0.0]])
    q = perturbation.solve_commutator(h0, -2.0 * h1)
    np.testing.assert_allclose(q, [[0.0, 2j], [-2j, 0.0]], atol=1e-14)
    # verified by explicit commutation
    np.testing.assert_allclose(commutator(h0, q), -2.0 * h1, atol=1e-14)


def test_solve_commutator_unsolvable_on_identity():
    with pytest.raises(UnsolvableCommutatorError):
        perturbation.solve_commutator(np.eye(3), np.ones((3, 3)))


def test_generic_antihermitian_is_obstructed():
    # without the grading the hierarchy fails: generic H1 has nonzero
    # diagonal in the H0 eigenbasis, so no first-order solution exists
    h0 = random_hermitian_nondegenerate(5)
    h1 = random_antihermitian(5)
    with pytest.raises(UnsolvableCommutatorError):
        perturbation.q_series(perturbation.PerturbationProblem(h0, h1, 0.1, 1))


def test_solve_commutator_hermitian_output():
    for _ in range(4):
        h0, h1 = random_graded_problem(6)
        r = -2.0 * h1
        q = perturbation.solve_commutator(h0, r)
        assert opnorm(q - q.conj().T) <= 1e-12 * max(opnorm(q), 1.0)
        np.testing.assert_allclose(commutator(h0, q), r, atol=1e-10 * opnorm(r))


def test_q_series_zero_perturbation():
    h0 = random_hermitian_nondegenerate(4)
    prob = perturbation.PerturbationProblem(h0, np.zeros((4, 4)), 0.1, 3)
    qs = perturbation.q_series(prob)
    for j, term in qs.terms.items():
        np.testing.assert_allclose(term, np.zeros((4, 4)), atol=1e-14)


def test_q_series_two_level_q3():
    h0 = np.diag([0.0, 1.0]).astype(complex)
    h1 = np.array([[0.0, 1j], [1j, 0.0]])
    prob = perturbation.PerturbationProblem(h0, h1, 0.05, 3)
    qs = perturbation.q_series(prob)
    np.testing.assert_allclose(qs.terms[1], [[0.0, 2j], [-2j, 0.0]], atol=1e-14)
    np.testing.assert_allclose(qs.terms[2], np.zeros((2, 2)), atol=1e-14)
    # hand-assembled R3 = -(1/6) [[H1, Q1], Q1]
    r3 = -commutator(commutator(h1, qs.terms[1]), qs.terms[1]) / 6.0
    np.testing.assert_allclose(commutator(h0, qs.terms[3]), r3, atol=1e-12)


def test_q_series_validates_structure():
    h0 = random_hermitian_nondegenerate(3)
    not_anti = np.eye(3, dtype=complex)
    with pytest.raises(NotHermitianError):
        perturbation.PerturbationProblem(h0, not_anti, 0.1, 3)
    with pytest.raises(ValueError):
        perturbation.PerturbationProblem(h0, random_antihermitian(3), 0.1, 4)


def test_q_series_hermiticity_propagation():
    for n in (4, 16, 64):
        h0, h1 = random_graded_problem(n)
        qs = perturbation.q_series(perturbation.PerturbationProblem(h0, h1, 0.01, 5))
        for j in (1, 3, 5):
            qj = qs.terms[j]
            assert opnorm(qj - qj.conj().T) <= 1e-9 * max(opnorm(qj), 1.0)


def test_recursion_matches_literal_forms():
    # the nested-commutator recursion reproduces the explicit low-order
    # right-hand sides: [H0, Q_j] = R_j for j = 3, 5
    from phqm.perturbation import _q_coefficient

    assert float(_q_coefficient(2)) == 0.0
    assert float(_q_coefficient(3)) == pytest.approx(1.0 / 12.0)
    h0, h1 = random_graded_problem(5)
    qs = perturbation.q_series(perturbation.PerturbationProblem(h0, h1, 0.1, 5)).terms
    for j in (3, 5):
        np.testing.assert_allclose(commutator(h0, qs[j]), _rhs_literal(j, h1, qs), atol=1e-10)


def test_metric_from_q_trivial():
    qs = perturbation.QSeries({1: np.zeros((3, 3), dtype=complex)})
    np.testing.assert_allclose(perturbation.metric_from_q(qs, 0.3).eta, np.eye(3), atol=1e-14)


def test_metric_from_q_matches_exponential_oracle():
    from scipy.linalg import expm

    h0 = np.diag([0.0, 1.0]).astype(complex)
    h1 = np.array([[0.0, 1j], [1j, 0.0]])
    qs = perturbation.q_series(perturbation.PerturbationProblem(h0, h1, 0.1, 3))
    eps = 0.1
    eta = perturbation.metric_from_q(qs, eps).eta
    exponent = -(eps * qs.terms[1] + eps**3 * qs.terms[3])
    np.testing.assert_allclose(eta, expm(exponent), atol=1e-12)
    assert np.linalg.eigvalsh(eta).min() > 0


@pytest.mark.parametrize("order,expected_slope", [(1, 3.0), (3, 5.0)])
def test_residual_scaling(order, expected_slope):
    # residual of e^{-Q} H e^{Q} - H^dag falls at the first omitted odd order
    h0, h1 = random_graded_problem(8, scale=2.0)
    prob = perturbation.PerturbationProblem(h0, h1, 0.01, order)
    qs = perturbation.q_series(prob)
    eps_values = np.array([1e-2, 5e-3, 2.5e-3])
    residuals = [perturbation.metric_residual(prob, qs, e) for e in eps_values]
    slope = np.polyfit(np.log(eps_values), np.log(residuals), 1)[0]
    assert slope >= order + 1.7
    assert abs(slope - expected_slope) < 0.4


def test_bch_consistency():
    # truncated BCH sum through order 6 matches e^{-Q} H e^{Q}
    from math import factorial

    h = random_hermitian_nondegenerate(5)
    q = 0.05 * random_hermitian_nondegenerate(5)
    e_minus = linalg.hermitian_function(q, lambda x: np.exp(-x))
    e_plus = linalg.hermitian_function(q, np.exp)
    direct = e_minus @ h @ e_plus
    series = h.copy()
    nested = h.copy()
    for ell in range(1, 7):
        nested = commutator(nested, q)
        series = series + nested / factorial(ell)
    bound = 10 * opnorm(h) * (2 * opnorm(q)) ** 7 / factorial(7)
    assert opnorm(direct - series) <= bound


def test_oscillator_basis_moments():
    n_max, mass, hbar, omega = 24, 1.3, 0.7, 2.1
    x, p = oscillator_basis(n_max, mass, hbar, omega)
    assert opnorm(x - x.conj().T) < 1e-12
    assert opnorm(p - p.conj().T) < 1e-12
    # <0|x^2|0> = hbar / (2 m omega)
    assert abs((x @ x)[0, 0] - hbar / (2 * mass * omega)) < 1e-12
    comm = commutator(x, p)
    interior = comm[: n_max - 1, : n_max - 1]
    np.testing.assert_allclose(interior, 1j * hbar * np.eye(n_max - 1), atol=1e-12)


def test_pt_cubic_ansatz_structure():
    # H = p^2/2m + mu^2 x^2/2 + i eps x^3 truncated: Q1 only connects
    # |m - n| in {1, 3}, matching the anticommutator ansatz terms
    n_max = 40
    x, p = oscillator_basis(n_max)
    h0 = p @ p / 2.0 + x @ x / 2.0
    h1 = 1j * x @ x @ x
    q1 = perturbation.solve_commutator(h0, -2.0 * h1)
    assert opnorm(q1 - q1.conj().T) < 1e-9 * opnorm(q1)
    idx = np.arange(n_max)
    dist = np.abs(idx[:, None] - idx[None, :])
    off_ansatz = q1[(dist != 1) & (dist != 3)]
    interior_scale = np.abs(q1[: n_max - 6, : n_max - 6]).max()
    assert np.abs(off_ansatz).max() <= 1e-10 * interior_scale


def test_recursion_beyond_literal_orders():
    # order-7 solve uses the general coefficient recursion; adding Q7
    # must push the residual decay past the order-5 truncation
    h0, h1 = random_graded_problem(4, scale=1.5)
    prob5 = perturbation.PerturbationProblem(h0, h1, 0.05, 5)
    prob7 = perturbation.PerturbationProblem(h0, h1, 0.05, 7)
    qs5 = perturbation.q_series(prob5)
    qs7 = perturbation.q_series(prob7)
    q7 = qs7.terms[7]
    assert opnorm(q7 - q7.conj().T) <= 1e-9 * max(opnorm(q7), 1e-30)
    eps = np.array([5e-2, 2.5e-2])
    r5 = [perturbation.metric_residual(prob5, qs5, e) for e in eps]
    r7 = [perturbation.metric_residual(prob7, qs7, e) for e in eps]
    slope5 = np.log2(r5[0] / r5[1])
    slope7 = np.log2(r7[0] / r7[1])
    assert slope5 >= 6.5
    assert slope7 >= 8.3
    assert r7[1] < r5[1]


def test_q_series_matches_every_composition_oracle():
    # Q_even = 0 exactly, so the recursion over odd parts sums the same
    # nested commutators as the sum over every composition
    dim = 12
    x, _ = oscillator_basis(dim)
    h0 = np.diag(np.arange(dim) + 0.5).astype(complex)
    h1 = 1j * (x @ x @ x)
    prob = perturbation.PerturbationProblem(h0, h1, 0.01, 13)
    fast = perturbation.q_series(prob)
    ref = _q_series_every_composition(prob)
    assert fast.terms.keys() == ref.keys()
    for j in range(7, 14, 2):
        assert opnorm(ref[j]) > 0.0
    for j in range(1, 14, 2):
        scale = np.max(np.abs(ref[j]))
        assert np.max(np.abs(fast.terms[j] - ref[j])) <= 1e-12 * scale, j
    for j in range(2, 14, 2):
        assert not np.any(fast.terms[j]), j


def test_swanson_anti_hermitian_series_matches_lie_algebraic_form():
    # beta = -alpha: H = H0 + eps H1 with H0 = a^dag a + 1/2 and
    # H1 = a^dag^2 - a^2.  The su(1,1) route gives
    # Q(eps) = -(1/2) arctan(2 eps) (a^dag^2 + a^2), so away from the
    # truncation edge Q_j is the eps^j Taylor coefficient times K
    n_max, rows = 40, 12
    a, a_dag = perturbation.ladder_operators(n_max)
    h0 = a_dag @ a + 0.5 * np.eye(n_max)
    h1 = a_dag @ a_dag - a @ a
    qs = perturbation.q_series(perturbation.PerturbationProblem(h0, h1, 0.1, 13))
    k = (a_dag @ a_dag + a @ a)[:rows, :rows]
    band = k != 0
    for j in range(1, 14, 2):
        c = (-1) ** ((j + 1) // 2) * 2.0 ** (j - 1) / j
        block = qs.terms[j][:rows, :rows]
        coefficients = block[band] / k[band]
        assert np.max(np.abs(coefficients - c)) <= 1e-8 * abs(c), j
        assert np.max(np.abs(block[~band])) <= 1e-8 * abs(c) * np.max(np.abs(k)), j


def test_q_series_leaves_no_reference_cycles():
    # the commutator table must be freed when q_series returns: held in
    # a cycle it waits for the cyclic collector, and on a mixed library
    # workload that raised the process's peak RSS by about 10%
    import gc

    h0, h1 = random_graded_problem(16)
    prob = perturbation.PerturbationProblem(h0, h1, 0.01, 9)
    gc.collect()
    gc.disable()
    try:
        perturbation.q_series(prob)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "order,eps_range", [(5, (0.005, 0.02)), (7, (0.012, 0.04))]
)
def test_metric_residual_order_of_the_truncated_series(order, eps_range):
    # truncating after Q_order leaves an O(eps^(order+1)) residual at worst;
    # on a graded problem Q_(order+1) is zero, so that term cancels and the
    # residual falls as eps^(order+2).  The range sits below the series'
    # asymptotic onset and above the rounding floor.
    h0, h1 = random_graded_problem(8, rng=np.random.default_rng(0))
    eps = np.geomspace(*eps_range, 5)
    residuals = []
    for e in eps:
        prob = perturbation.PerturbationProblem(h0, h1, e, order)
        residuals.append(perturbation.metric_residual(prob, perturbation.q_series(prob), e))
    assert min(residuals) > 100 * np.finfo(float).eps
    slope = np.polyfit(np.log(eps), np.log(residuals), 1)[0]
    assert abs(slope - (order + 2)) <= 0.3


# ----------------------------------------------------------------------
# reference oracles: the explicit low-order forms and the sum over every
# composition that the recursion in q_series replaces
# ----------------------------------------------------------------------

def _rhs_literal(j, h1, qs):
    """Explicit low-order right-hand sides with Q_even = 0."""
    if j == 3:
        return -commutator(commutator(h1, qs[1]), qs[1]) / 6.0
    if j == 5:
        c4 = h1
        for _ in range(4):
            c4 = commutator(c4, qs[1])
        mixed = commutator(commutator(h1, qs[1]), qs[3]) + commutator(
            commutator(h1, qs[3]), qs[1]
        )
        return c4 / 360.0 - mixed / 6.0
    raise ValueError(f"no literal form for order {j}")


def _compositions(total, parts):
    """All tuples of positive integers of given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _nested(h0, qs, indices):
    out = h0
    for s in indices:
        out = commutator(out, qs[s])
    return out


def _q_series_every_composition(prob):
    """Q_j with R_j = sum_k q_k Z_kj summed over every composition of j,
    the ones through an even (zero) Q_s included."""
    from phqm.perturbation import _q_coefficient

    h0 = prob.H0
    qs = {}
    for j in range(1, prob.order + 1):
        if j % 2 == 0:
            qs[j] = np.zeros_like(h0, dtype=complex)
            continue
        if j == 1:
            rhs = -2.0 * prob.H1
        else:
            rhs = np.zeros_like(h0, dtype=complex)
            for k in range(2, j + 1):
                z = np.zeros_like(h0, dtype=complex)
                for comp in _compositions(j, k):
                    z += _nested(h0, qs, comp)
                rhs += float(_q_coefficient(k)) * z
        qj = perturbation.solve_commutator(h0, rhs)
        qs[j] = 0.5 * (qj + qj.conj().T)
    return qs


def test_problem_requires_matching_shapes_and_hermitian_h0():
    h0 = random_hermitian_nondegenerate(3)
    with pytest.raises(InputError, match="share a shape"):
        perturbation.PerturbationProblem(h0, random_antihermitian(4), 0.1, 3)
    with pytest.raises(NotHermitianError, match="H0 must be Hermitian"):
        perturbation.PerturbationProblem(h0 + 0.5j * np.eye(3), random_antihermitian(3), 0.1, 3)


def test_solve_commutator_requires_matching_shapes():
    with pytest.raises(InputError, match="share a shape"):
        perturbation.solve_commutator(random_hermitian_nondegenerate(3), np.zeros((2, 2)))


def test_oscillator_basis_needs_two_states():
    with pytest.raises(ValueError, match="at least 2"):
        oscillator_basis(1)


def test_q_series_order_is_the_highest_stored_order():
    h0, h1 = random_graded_problem(4, scale=0.1)
    assert max(perturbation.q_series(perturbation.PerturbationProblem(h0, h1, 0.1, 5)).terms) == 5
