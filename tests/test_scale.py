"""States are rays, eta counts only up to a positive factor, and E sets the
unit: a brachistochrone record does not move when its states or its metric
are scaled, and only its time scale moves with E.  H and cH share their
metric up to a factor, so no verdict on a matrix depends on its unit of
energy: the spectral tolerances read the spectrum's own scale."""

import json
import os

import numpy as np
import pytest

from phqm import cli, perturbation, statespace

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import fs_metric, geodesic_distance, projector  # noqa: E402

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SCENARIOS = ["brachistochrone_antipodal.json", "brachistochrone_deformed.json"]
# fixed seeds, so a failure reproduces
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
POWERS = st.integers(-600, 600)


def load(name):
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        return json.load(fh)


def scaled(psi, factor):
    return [[re * factor, im * factor] for re, im in psi]


def scaled_eta(eta, factor):
    return [scaled(row, factor) for row in eta]


def with_eta(name):
    """The scenario with its eta, or with an explicit identity eta."""
    return {"eta": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], **load(name)}


def scale_free(record) -> tuple:
    """What a record says that has degree 0 in its states."""
    return (record["scalars"], record["matrices"], record["curves"],
            [(e["name"], e["value"], e["pass"]) for e in record["residuals"]])


@pytest.mark.parametrize("name", SCENARIOS)
def test_scaled_states_leave_the_record_bit_identical(name):
    # states x 1e-100 raised ZeroDivisionError and x 1e100 OverflowError
    base = load(name)
    expected = scale_free(cli.run(base))

    @PROPERTY
    @given(POWERS)
    @example(-600)
    @example(600)
    def check(k):
        factor = 2.0**k
        record = cli.run({**base, "psi_I": scaled(base["psi_I"], factor),
                          "psi_F": scaled(base["psi_F"], factor)})
        assert scale_free(record) == expected

    check()


@pytest.mark.parametrize("name", SCENARIOS)
def test_energy_sets_only_the_time_scale(name):
    # E = 1e155 wrote a bare NaN for uncertainty_saturation: <H^2> overflowed
    base = load(name)
    expected = cli.run(base)["scalars"]["tau_min"] * base["E"]

    @PROPERTY
    @given(POWERS)
    @example(-600)
    @example(600)
    def check(k):
        energy = 2.0**k
        record = cli.run({**base, "E": energy})
        assert record["all_pass"], record.get("error") or record["residuals"]
        assert record["scalars"]["tau_min"] * energy == expected

    check()


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_metric_scaled_by_a_power_of_four_leaves_the_record_bit_identical(name):
    # eta x 2**-600 raised ZeroDivisionError and x 2**600 OverflowError
    base = with_eta(name)
    expected = scale_free(cli.run(base))

    @PROPERTY
    @given(st.integers(-300, 300))
    @example(-300)
    @example(300)
    def check(k):
        record = cli.run({**base, "eta": scaled_eta(base["eta"], 4.0**k)})
        assert scale_free(record) == expected

    check()


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_metric_scaled_by_any_power_of_two_passes_every_gate(name):
    # An odd power cannot leave the record bit-identical: <v|eta v> then
    # carries a factor 2 whose square root, in u = v / sqrt(<v|eta v>), rounds.
    base = with_eta(name)

    @PROPERTY
    @given(POWERS)
    @example(-600)
    @example(600)
    @example(-1030)
    def check(k):
        record = cli.run({**base, "eta": scaled_eta(base["eta"], 2.0**k)})
        assert record["all_pass"], record.get("error") or record["residuals"]

    check()


ETA = np.array([[3.0, 1.0 - 0.5j], [1.0 + 0.5j, 1.0]])
PSI, TARGET = np.array([1.0, 0.5j]), np.array([0.3, 1.0 - 1.0j])
H = np.array([[1.0, 2.0j], [0.5, -1.0]])


def degree_zero_in_eta(eta) -> tuple:
    """The state-space quantities that a positive factor on eta leaves alone."""
    geo = statespace.two_level_geometry(eta)
    return (geodesic_distance(PSI, TARGET, eta),
            statespace.projective_fidelity(PSI, TARGET, eta),
            projector(PSI, eta).tolist(),
            fs_metric(PSI, eta).tolist(),
            statespace.energy_uncertainty(H, PSI, eta),
            (geo.k1, geo.k2, geo.k3, geo.beta))


def test_a_metric_scaled_by_a_power_of_four_leaves_every_quantity_bit_identical():
    # at eta x 2**-600 the geodesic read 0.0 and at x 2**600 pi/2, for 0.3218
    expected = degree_zero_in_eta(ETA)

    @PROPERTY
    @given(st.integers(-300, 300))
    @example(-300)
    @example(300)
    def check(k):
        assert degree_zero_in_eta(ETA * 4.0**k) == expected

    check()


UPPER_TRIANGULAR = [[1.0, 2.0], [0.0, 3.0]]
ROTATION = [[0.0, 1.0], [-1.0, 0.0]]
# S B S^-1 with S = I + (ones above the diagonal) and B = 0.5 (+) [[1, 1], [-1, 1]]
# (+) [[1, 2], [-2, 1]]: the real spectrum {0.5, 1 +- i, 1 +- 2i}, every entry exact
CONJUGATE_PAIRS = [[0.5, 0.5, 0.5, -0.5, 0.5], [0.0, 0.0, 2.0, -2.0, 2.0],
                   [0.0, -1.0, 2.0, -1.0, 3.0], [0.0, 0.0, 0.0, -1.0, 4.0],
                   [0.0, 0.0, 0.0, -2.0, 3.0]]
MATRICES = {"upper_triangular": UPPER_TRIANGULAR, "rotation": ROTATION,
            "diagnose_two_level": [[re for re, _ in row]
                                   for row in load("diagnose_two_level.json")["matrix"]],
            "conjugate_pairs": CONJUGATE_PAIRS}
# the metric command builds the pseudo-metric of this signature on these
SIGMA = {"conjugate_pairs": [1]}


def verdict(record) -> tuple:
    """What a record decides about its matrix, which has degree 0 in it."""
    error, scalars = record.get("error", {}), record.get("scalars", {})
    return (record["all_pass"], error.get("class"), error.get("type"),
            scalars.get("spectrum_real"), scalars.get("diagonalizable"))


@pytest.mark.parametrize("matrix", MATRICES)
@pytest.mark.parametrize("command", ["diagnose", "metric", "hermitize"])
def test_a_matrix_scaled_by_any_power_of_two_keeps_its_verdict(command, matrix):
    # at x 2**-35 metric read pseudo-Hermiticity 0.55 on the upper-triangular
    # matrix and hermitize raised NotPseudoHermitianError: the eigenvalues
    # 2**-35 and 3 * 2**-35 counted as degenerate against max(1, max |a|);
    # at x 2**-30 the rotation's +-9.3e-10 i counted as real; at x 2**-60
    # metric with sigma [1] found no conjugate partner on the paired spectrum,
    # since conjugates were matched by distances compared against 1e-15
    sigma = {"sigma": SIGMA[matrix]} if command == "metric" and matrix in SIGMA else {}

    def run(k):
        entries = [[[value * 2.0**k, 0.0] for value in row] for row in MATRICES[matrix]]
        return verdict(cli.run({"command": command, "matrix": entries, **sigma}))

    expected = run(0)

    @PROPERTY
    @given(POWERS)
    @example(-600)
    @example(600)
    @example(-35)
    @example(-60)
    @example(-1030)
    def check(k):
        assert run(k) == expected

    check()


def test_hermitize_with_its_matrix_and_metric_scaled_by_any_power_of_two_keeps_its_verdict():
    # eta H was formed unscaled, so at x 2**512 it overflowed (LinAlgError, "SVD
    # did not converge"); rho H overflowed at x 2**700 and was subnormal at
    # x 2**-700, failing h_hermiticity at 2.1e-8, and at x 2**-1000, where
    # isospectrality read 0.19
    base = load("hermitize_two_level.json")

    def run(k):
        return verdict(cli.run({**base, "matrix": scaled_eta(base["matrix"], 2.0**k),
                                "eta": scaled_eta(base["eta"], 2.0**k)}))

    expected = run(0)
    assert expected[0] is True

    @PROPERTY
    @given(st.integers(-1000, 1000))
    @example(512)
    @example(700)
    @example(-700)
    @example(-1000)
    def check(k):
        assert run(k) == expected

    check()


def test_a_metric_scaled_by_any_power_of_two_leaves_the_geometry_record_bit_identical():
    # the geometry divides eta by its binade, so an odd power's factor 2 is exact
    eta = [[[3.0, 0.0], [1.0, -0.5]], [[1.0, 0.5], [1.0, 0.0]]]
    expected = scale_free(cli.run({"command": "geometry", "eta": eta}))

    @PROPERTY
    @given(POWERS)
    @example(-600)
    @example(600)
    @example(-35)
    @example(-1030)
    def check(k):
        record = cli.run({"command": "geometry", "eta": scaled_eta(eta, 2.0**k)})
        assert scale_free(record) == expected

    check()


@pytest.mark.parametrize("command", ["geometry", "hermitize"])
def test_an_indefinite_metric_scaled_by_any_power_of_two_is_no_metric(command):
    # at x 2**-1030 eta / binade(eta) went through numpy's complex division,
    # whose reciprocal of the subnormal binade overflowed: geometry read NaN
    # coefficients with all_pass true and hermitize raised LinAlgError
    eta = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    matrix = {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]}

    @PROPERTY
    @given(POWERS)
    @example(-1030)
    def check(k):
        record = cli.run({"command": command, "eta": scaled_eta(eta, 2.0**k),
                          **(matrix if command == "hermitize" else {})})
        assert (record["error"]["class"], record["error"]["type"]) == (
            "input", "NotPositiveDefiniteError")

    check()


def graded_problem(n=16, seed=7):
    """H0 block-diagonal Hermitian with eigenvalues cumsum(0.3 + U(0, 1)),
    H1 anti-Hermitian coupling the blocks: a solvable grading."""
    rng = np.random.default_rng(seed)
    n_a = n // 2
    vals = np.cumsum(0.3 + rng.random(n))

    def unitary(m):
        q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        return q

    qa, qb = unitary(n_a), unitary(n - n_a)
    h0 = np.zeros((n, n), dtype=complex)
    h0[:n_a, :n_a] = qa @ np.diag(vals[:n_a]) @ qa.conj().T
    h0[n_a:, n_a:] = qb @ np.diag(vals[n_a:]) @ qb.conj().T
    w = rng.standard_normal((n_a, n - n_a)) + 1j * rng.standard_normal((n_a, n - n_a))
    h1 = np.zeros((n, n), dtype=complex)
    h1[:n_a, n_a:] = 2.0 * w
    h1[n_a:, :n_a] = -2.0 * w.conj().T
    return h0, h1


def test_a_perturbation_problem_scaled_by_any_power_of_two_keeps_its_metric():
    # at x 2**-40 every gap fell below 1e-9 max(max |E|, 1) and q_series raised
    # UnsolvableCommutatorError; epsilon = 0.02 puts the residual at the
    # dropped O(epsilon^9) term, 1.6e-9, so a Q that moved would show
    h0, h1 = graded_problem()
    epsilon = 0.02

    def residual(k):
        prob = perturbation.PerturbationProblem(h0 * 2.0**k, h1 * 2.0**k, epsilon, 7)
        return perturbation.metric_residual(prob, perturbation.q_series(prob), epsilon)

    expected = residual(0)
    assert 1e-10 < expected < 1e-8

    @PROPERTY
    @given(POWERS)
    @example(-600)
    @example(600)
    @example(-35)
    def check(k):
        assert residual(k) == pytest.approx(expected, rel=0, abs=100 * np.finfo(float).eps)

    check()
