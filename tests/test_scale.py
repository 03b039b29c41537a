"""States are rays and E sets the unit: a brachistochrone record does not
move when its states are scaled, and only its time scale moves with E."""

import json
import os

import pytest

from phqm import cli

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

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
    def check(k):
        energy = 2.0**k
        record = cli.run({**base, "E": energy})
        assert record["all_pass"], record.get("error") or record["residuals"]
        assert record["scalars"]["tau_min"] * energy == expected

    check()
