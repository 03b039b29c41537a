"""States are rays, eta counts only up to a positive factor, and E sets the
unit: a brachistochrone record does not move when its states or its metric
are scaled, and only its time scale moves with E."""

import json
import os

import numpy as np
import pytest

from phqm import cli, statespace

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
