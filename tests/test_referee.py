"""A 50-digit referee for the gates that read an identity of small matrices.

Each gate's float value is recomputed exactly, in ``mpmath`` at 50 digits,
from the same float matrices the record holds (a double is exact in
``mpmath``), so the referee separates the rounding of the gate's own
arithmetic from the representation error of its inputs.  For an n x n
identity read as a backward error, the float value lies within
ROUNDING(n) = 4 n^2 u of the exact one: each product carries at most
n gamma_n |A||B| <= n^2 u |A|_2 |B|_2, and the norms add a few u of
relative error to a value that is itself at rounding level.
"""

import json
import os

import mpmath
import numpy as np
import pytest

from phqm import cli, models

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
# out to D = 1e+-300, where eta H (~D^3/2 unscaled) would overflow
EDGE_D = [1e-300, 1e-10, 1e-8, 1e-6, 4.0, 1e6, 1e8, 1e10, 1e300]
# where the forward forms of both gates failed the model
FORWARD_FAILS = [1e-10, 1e-8, 1e8, 1e10]
mp = mpmath.mp.clone()
mp.dps = 50


def rounding(n: int) -> float:
    return 4 * n**2 * np.finfo(float).eps


def load(name):
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        return json.load(fh)


def exact(a):
    """The float matrix ``a`` (or its [re, im] record encoding) in mpmath."""
    a = cli.parse_matrix(a) if isinstance(a, list) else np.asarray(a, dtype=complex)
    return mp.matrix([[mp.mpc(float(z.real), float(z.imag)) for z in row] for row in a])


def norm2(m):
    return max(mp.svd_c(m, compute_uv=False))


def backward(h, eta):
    """|eta H - H^dagger eta|_2 / (|eta|_2 |H|_2) on eta's Hermitian part."""
    eta = (eta + eta.H) / 2
    return norm2(eta * h - h.H * eta) / (norm2(eta) * norm2(h))


def forward(h, eta):
    """|eta H eta^-1 - H^dagger|_2 / |H|_2, the reading the gate replaced."""
    return norm2(eta * h * eta**-1 - h.H) / norm2(h)


def gates(record) -> dict:
    return {e["name"]: e["value"] for e in record["residuals"]}


def assert_refereed(value, exact_value, n):
    # the inputs meet the identity to rounding, and the gate reads that exactly
    assert float(exact_value) <= rounding(n)
    assert abs(value - float(exact_value)) <= rounding(n)


@pytest.mark.parametrize("d", EDGE_D)
def test_two_level_gates_read_their_exact_backward_errors(d):
    # the forward forms read 3.9e-7 and 5.5e-7 at D = 1e10 through cli.run; the
    # model is right there and passes every gate from D = 1e-300 to 1e300
    record = cli.run({"command": "model", "model": {"kind": "two_level", "D": d}})
    assert record["all_pass"] is True, record["residuals"]
    m = {name: exact(matrix) for name, matrix in record["matrices"].items()}
    value = gates(record)
    assert_refereed(value["pseudo_hermiticity"], backward(m["A"], m["eta_plus"]), 2)
    general = backward(m["A"], m["eta_general"])
    assert_refereed(value["eta_general_pseudo_hermiticity"], general, 2)
    charge = norm2(m["C"] * m["C"] - mp.eye(2)) / norm2(m["C"]) ** 2
    assert_refereed(value["charge_squares_to_identity"], charge, 2)
    # rho = exp(theta sigma_1 / 2), theta = ln(D) / 2, exact: the record holds no rho
    half = mp.log(mp.mpf(d)) / 4
    rho = mp.matrix([[mp.cosh(half), mp.sinh(half)], [mp.sinh(half), mp.cosh(half)]])
    similarity = norm2(rho * m["A"] - m["h"] * rho) / (norm2(rho) * norm2(m["A"]))
    assert_refereed(value["h_similarity"], similarity, 2)
    if d in FORWARD_FAILS:
        # the exact forward error of the same float inputs is u cond(eta), not 0
        assert forward(m["A"], m["eta_plus"]) > 1e-10


@pytest.mark.parametrize("name", ["metric_identity", "non_normal_metric"])
def test_metric_gate_reads_its_exact_backward_error(name):
    if name == "non_normal_metric":
        scenario = {"command": "metric", "matrix": load("hermitize_two_level.json")["matrix"]}
    else:
        scenario = load("metric_identity.json")
    record = cli.run(scenario)
    a = exact(scenario["matrix"])
    exact_value = backward(a, exact(record["matrices"]["eta_plus"]))
    assert_refereed(gates(record)["pseudo_hermiticity"], exact_value, a.rows)


def test_swanson_identity_reads_its_exact_backward_error():
    # H^T stands for H^dagger in the 2x2 standard representation
    scenario = load("swanson.json")["model"]
    params = models.SwansonParams(alpha=scenario["alpha"], beta=scenario["beta"])
    record = cli.run(load("swanson.json"))
    eta, h = exact(record["matrices"]["eta_2x2"]), exact(models._swanson_2x2(params))
    exact_value = norm2(eta * h - h.T * eta) / (norm2(eta) * norm2(h))
    assert_refereed(gates(record)["matrix_identity_residual"], exact_value, 2)


@pytest.mark.parametrize("name", ["brachistochrone_antipodal", "brachistochrone_deformed"])
def test_brachistochrone_gate_reads_its_exact_backward_error(name):
    scenario = load(f"{name}.json")
    record = cli.run(scenario)
    eta = exact(scenario["eta"]) if "eta" in scenario else mp.eye(2)
    exact_value = backward(exact(record["matrices"]["H_star"]), eta)
    assert_refereed(gates(record)["pseudo_hermiticity"], exact_value, 2)


def real_spectrum(m):
    """The real parts of the eigenvalues of ``m``, sorted."""
    return sorted(mp.re(value) for value in mp.eig(m, left=False, right=False))


def test_hermitize_gates_read_their_exact_values():
    # h = rho A rho^-1 is not symmetrized, so both gates read rounding
    scenario = load("hermitize_two_level.json")
    record = cli.run(scenario)
    a, h = exact(scenario["matrix"]), exact(record["matrices"]["h"])
    value = gates(record)
    assert_refereed(value["h_hermiticity"], norm2(h - h.H) / norm2(h), 2)
    spec_a, spec_h = real_spectrum(a), real_spectrum(h)
    spread = max(abs(x - y) for x, y in zip(spec_h, spec_a)) / max(abs(x) for x in spec_a)
    assert_refereed(value["isospectrality"], spread, 2)


def test_diagnose_gate_reads_its_exact_backward_error():
    scenario = load("diagnose_two_level.json")
    record = cli.run(scenario)
    a, vectors = exact(scenario["matrix"]), exact(record["matrices"]["right_vectors"])
    values = exact(np.diag(cli.parse_vector(record["matrices"]["eigenvalues"])))
    exact_value = norm2(a * vectors - vectors * values) / norm2(a)
    assert_refereed(gates(record)["eigenpair_residual"], exact_value, a.rows)
