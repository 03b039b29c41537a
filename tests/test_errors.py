"""The failure taxonomy: every error has one class, and near exceptional
points or under mutated scenarios the CLI reports a class, never a traceback."""

import copy
import functools
import inspect
import json
import operator
import os
import re

import numpy as np
import pytest

from phqm import cli, errors

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
BASES = (errors.InputError, errors.DomainError, errors.ResidualError)
CLASSES = {
    errors.InputError: {"SchemaError", "NotHermitianError", "NotPositiveDefiniteError",
                        "DegenerateStructureError"},
    errors.DomainError: {
        "DefectiveOperatorError", "NonPositiveDError", "RealityViolatedError",
        "ComplexSpectrumError", "UnpairedComplexEigenvalueError", "SpectrumOutOfDomainError",
        "SingularOperatorError", "UnsolvableCommutatorError", "EigenpairsNotConvergedError",
        "GridTooSmallError", "StepOverflowError", "OutOfDomainError",
    },
    errors.ResidualError: {"NotPseudoHermitianError"},
}
# fixed seeds, so a failure reproduces; each property takes a second or two
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def test_every_concrete_error_has_exactly_one_base():
    concrete = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                if issubclass(cls, errors.PhqmError) and cls not in (errors.PhqmError, *BASES)}
    for cls in concrete:
        assert sum(issubclass(cls, base) for base in BASES) == 1, cls
    assert {base: {cls.__name__ for cls in concrete if issubclass(cls, base)}
            for base in BASES} == CLASSES
    assert [base.category for base in BASES] == ["input", "domain", "residual"]
    assert issubclass(errors.InputError, ValueError)


def outcome(record) -> str:
    """A record's failure class; a failed gate is a residual failure."""
    if "error" in record:
        return record["error"]["class"]
    return "pass" if record["all_pass"] else "residual"


@PROPERTY
@given(st.floats(min_value=0.0, max_value=320.0))
def test_two_level_toward_its_exceptional_point(k):
    # D -> 0+: A has eigenvalues +-sqrt(D) and a Jordan block at D = 0
    d = 10.0 ** -k
    a = 0.5 * np.array([[d + 1, d - 1], [1 - d, -d - 1]])
    record = cli.run({"command": "hermitize", "matrix": cli.encode_matrix(a)})
    assert outcome(record) in ("pass", "domain", "residual"), record.get("error")


@PROPERTY
@given(st.floats(0.01, 0.5), st.floats(0.01, 0.5), st.floats(0.0, 16.0), st.booleans())
def test_swanson_toward_its_reality_boundary(alpha, beta, k, truncated):
    # hbar^2 omega^2 -> 4 alpha beta from above, at hbar = 1
    omega = float(np.sqrt(4.0 * alpha * beta * (1.0 + 10.0 ** -k)))
    record = cli.run({"command": "model", "model": {
        "kind": "swanson", "alpha": alpha, "beta": beta, "omega": omega, "truncated": truncated}})
    assert outcome(record) in ("pass", "domain", "residual"), record.get("error")


@PROPERTY
@given(st.integers(2, 8), st.floats(0.0, 16.0), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from(["metric", "hermitize"]))
def test_random_matrices_toward_a_jordan_block(n, k, seed, triangular, command):
    # J + delta R; an upper-triangular R keeps the spectrum real, delta diag(R)
    r = np.random.default_rng(seed).standard_normal((n, n))
    matrix = np.diag(np.ones(n - 1), 1) + 10.0 ** -k * (np.triu(r) if triangular else r)
    record = cli.run({"command": command, "matrix": cli.encode_matrix(matrix)})
    assert outcome(record) in ("pass", "domain", "residual"), record.get("error")


def _near_exceptional_point(eps):
    """Eigenvalues 1 and 1 + eps, cond(V) about 2 / eps and cond(eta_+) its square."""
    return np.array([[1.0, 1.0], [0.0, 1.0 + eps]])


def _rotated(diagonal):
    """Q diag(diagonal) Q^T for a fixed orthogonal Q: Hermitian, and degenerate
    where ``diagonal`` repeats, so its eta_+ is I only in an orthonormal gauge."""
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((len(diagonal),) * 2))
    m = q @ np.diag(diagonal) @ q.T
    return 0.5 * (m + m.T)


# (matrix, outcome, error type); where eta_+ exists and H is Hermitian it is I
EDGES = {
    "near_ep_1e-4": (_near_exceptional_point(1e-4), "pass", None),
    "near_ep_1e-8": (_near_exceptional_point(1e-8), "domain", "SingularOperatorError"),
    # a QR of the near-degenerate cluster once turned V into I: metric read
    # pseudo-Hermiticity 0.618 and hermitize raised NotPseudoHermitianError
    "near_ep_1e-11": (_near_exceptional_point(1e-11), "domain", "SingularOperatorError"),
    "near_ep_1e-12": (_near_exceptional_point(1e-12), "domain", "DefectiveOperatorError"),
    "hermitian_1_1_1_3": (_rotated([1.0, 1.0, 1.0, 3.0]), "pass", None),
    "hermitian_0_0_1_-1": (_rotated([0.0, 0.0, 1.0, -1.0]), "pass", None),
}


@pytest.mark.parametrize("edge", EDGES)
@pytest.mark.parametrize("command", ["metric", "hermitize"])
def test_metric_and_hermitize_at_the_edges_of_their_domain(command, edge):
    matrix, expected, error_type = EDGES[edge]
    record = cli.run({"command": command, "matrix": cli.encode_matrix(matrix)})
    assert (outcome(record), record.get("error", {}).get("type")) == (expected, error_type)
    if edge.startswith("hermitian"):
        eta = cli.parse_matrix(record["matrices"]["eta_plus"])
        assert np.abs(eta - np.eye(len(eta))).max() <= 1e-12


@pytest.mark.parametrize("command", ["metric", "hermitize"])
def test_a_singular_metric_names_its_lowest_eigenvalue_and_the_rounding(command):
    # the message named only lambda_min, 0.5, which reads healthy beside the
    # rounding 4 n u |eta_+|_F of about 36 that it failed to clear
    record = cli.run({"command": command, "matrix": cli.encode_matrix(_near_exceptional_point(1e-8))})
    match = re.fullmatch(r"eta is numerically singular: lowest eigenvalue (\S+) is within "
                         r"\+-(\S+), the rounding of its eigenvalues", record["error"]["message"])
    assert match is not None, record["error"]
    assert (float(match[1]), float(match[2])) == (pytest.approx(0.5), pytest.approx(36, rel=0.05))


def _paths(node, path=()):
    """The path of every node below ``node`` in a JSON tree."""
    items = enumerate(node) if isinstance(node, list) else node.items() if isinstance(node, dict) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load(name):
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        return json.load(fh)


# kernel_barrier and quartic are the two slow scenarios
MUTATED = sorted(name for name in os.listdir(SCENARIO_DIR)
                 if name not in ("kernel_barrier.json", "quartic.json"))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(MUTATED), st.data())
def test_mutated_scenarios_exit_with_a_class(tmp_path_factory, name, data):
    payload = _load(name)
    path = data.draw(st.sampled_from(list(_paths(payload))))
    *head, last = path
    parent = functools.reduce(operator.getitem, head, payload)
    numbers = [0, -1, -0.5, float("nan"), float("inf"), -float("inf")]
    choices = ["drop"] + (numbers if _is_number(parent[last]) else [])
    change = data.draw(st.sampled_from(choices))
    mutated = copy.deepcopy(payload)
    target = functools.reduce(operator.getitem, head, mutated)
    if change == "drop":
        del target[last]
    else:
        target[last] = change
    scenario = tmp_path_factory.mktemp("mutated") / "scenario.json"
    scenario.write_text(json.dumps(mutated))
    assert cli.main(["--scenario", str(scenario), "--out", os.devnull]) in (0, 2, 3, 4)
