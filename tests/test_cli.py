import inspect
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from phqm import biortho, cli, em, metric, models, statespace
from phqm.errors import InputError, SchemaError

from oracles import projector

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def load(name):
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(os.listdir(SCENARIO_DIR)))
def test_every_committed_scenario_passes(name, tmp_path):
    out = tmp_path / "record.json"
    code = cli.main(["--scenario", os.path.join(SCENARIO_DIR, name), "--out", str(out)])
    assert code == cli.EXIT_OK
    records = json.loads(out.read_text())
    for record in records if isinstance(records, list) else [records]:
        assert record["all_pass"]
        for entry in record["residuals"]:
            assert entry["pass"], entry


def test_two_level_record_values(tmp_path):
    out = tmp_path / "r.json"
    cli.main(["--scenario", os.path.join(SCENARIO_DIR, "two_level.json"), "--out", str(out)])
    record = json.loads(out.read_text())
    eta = np.array([[complex(re, im) for re, im in row] for row in record["matrices"]["eta_plus"]])
    np.testing.assert_allclose(eta, [[1.25, 0.75], [0.75, 1.25]], atol=1e-12)
    h = np.array([[complex(re, im) for re, im in row] for row in record["matrices"]["h"]])
    np.testing.assert_allclose(h, np.diag([2.0, -2.0]), atol=1e-12)


def test_metric_identity_record(tmp_path):
    out = tmp_path / "r.json"
    cli.main(["--scenario", os.path.join(SCENARIO_DIR, "metric_identity.json"), "--out", str(out)])
    record = json.loads(out.read_text())
    eta = np.array([[complex(re, im) for re, im in row] for row in record["matrices"]["eta_plus"]])
    np.testing.assert_allclose(eta, np.eye(3), atol=1e-12)
    assert all(e["value"] <= e["tolerance"] for e in record["residuals"])


def test_brachistochrone_tau_min(tmp_path):
    out = tmp_path / "r.json"
    cli.main([
        "--scenario", os.path.join(SCENARIO_DIR, "brachistochrone_antipodal.json"),
        "--out", str(out),
    ])
    record = json.loads(out.read_text())
    assert record["scalars"]["tau_min"] == pytest.approx(np.pi / 2.0)


def _encode_matrix_per_entry(m):
    return [[cli.encode_complex(z) for z in row] for row in np.asarray(m)]


def _encode_vector_per_entry(v):
    return [cli.encode_complex(z) for z in np.asarray(v).ravel()]


@pytest.mark.parametrize(
    "array",
    [
        np.random.default_rng(5).standard_normal((7, 5)) + 1j * np.random.default_rng(6).standard_normal((7, 5)),
        np.random.default_rng(7).standard_normal((4, 6)),
        np.array([[-0.0, 0.0], [complex(-0.0, -0.0), complex(0.0, -0.0)]]),
        np.array([[5e-324, -2.2e-308], [complex(1e-310, -4e-320), 1.0]]),
        np.array([[1, -2], [3, 4]]),
    ],
    ids=["complex", "real", "signed_zero", "subnormal", "integer"],
)
def test_encoders_match_per_entry_reference(array):
    encoded = cli.encode_matrix(array)
    assert encoded == _encode_matrix_per_entry(array)
    assert cli.encode_vector(array) == _encode_vector_per_entry(array)
    # == treats -0.0 as 0.0; the sign bits must survive as well
    assert json.dumps(encoded) == json.dumps(_encode_matrix_per_entry(array))
    assert all(type(x) is float for row in encoded for pair in row for x in pair)


def test_json_round_trip_bit_for_bit():
    record = cli.run(load("two_level.json"))
    text = json.dumps(record)
    back = json.loads(text)
    assert back["matrices"]["eta_plus"] == record["matrices"]["eta_plus"]
    assert json.dumps(back) == text


def test_schema_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "no_such_thing"}))
    assert cli.main(["--scenario", str(bad)]) == cli.EXIT_INPUT
    bad.write_text(json.dumps({"command": "metric"}))  # missing matrix
    assert cli.main(["--scenario", str(bad)]) == cli.EXIT_INPUT
    bad.write_text("{not json")
    assert cli.main(["--scenario", str(bad)]) == cli.EXIT_INPUT


def test_schema_rejects_unknown_field():
    with pytest.raises(SchemaError):
        cli.validate_scenario({"command": "diagnose", "matrix": [], "bogus": 1})


def coarse_cubic():
    """classical_cubic at a step too coarse for the conserved quantities."""
    return {**load("classical_cubic.json"), "dt": 0.05, "sample_every": 1}


def test_residual_failure_exit_code(tmp_path):
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(coarse_cubic()))
    assert cli.main(["--scenario", str(path), "--out", str(tmp_path / "o.json")]) == cli.EXIT_RESIDUAL


def test_a_coarse_step_fails_both_drift_gates():
    record = cli.run(coarse_cubic())
    assert "error" not in record and not record["all_pass"]
    assert {r["name"]: r["pass"] for r in record["residuals"]} == {"K_drift": False,
                                                                  "H_i_drift": False}
    # K drifts by about 6e-5 and H_i by about 3e-5 of max |K|
    assert all(1e-6 < r["value"] < 1e-3 and r["tolerance"] == 1e-8 for r in record["residuals"])


def test_batch_execution(tmp_path):
    out = tmp_path / "batch.json"
    code = cli.main([
        "--scenario", os.path.join(SCENARIO_DIR, "batch_small.json"), "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    records = json.loads(out.read_text())
    assert isinstance(records, list) and len(records) == 2


def test_a_one_scenario_list_writes_a_one_record_list(tmp_path):
    # a list of one wrote a bare record, as a single scenario does
    path, out = tmp_path / "one.json", tmp_path / "out.json"
    path.write_text(json.dumps([load("two_level.json")]))
    assert cli.main(["--scenario", str(path), "--out", str(out)]) == cli.EXIT_OK
    records = json.loads(out.read_text())
    assert isinstance(records, list) and len(records) == 1
    alone = json.loads(json.dumps(cli.run(load("two_level.json"))))
    assert records[0]["matrices"] == alone["matrices"]
    single = tmp_path / "single.json"
    cli.main(["--scenario", os.path.join(SCENARIO_DIR, "two_level.json"), "--out", str(single)])
    assert isinstance(json.loads(single.read_text()), dict)


def test_batch_matches_single_runs(tmp_path):
    # kernel_barrier and quartic are the two slow scenarios
    scenarios = []
    for name in sorted(os.listdir(SCENARIO_DIR)):
        if name not in ("kernel_barrier.json", "quartic.json"):
            payload = load(name)
            scenarios += payload if isinstance(payload, list) else [payload]
    path, out = tmp_path / "batch.json", tmp_path / "out.json"
    path.write_text(json.dumps(scenarios))
    assert cli.main(["--scenario", str(path), "--out", str(out)]) == cli.EXIT_OK
    records = json.loads(out.read_text())
    assert len(records) == len(scenarios) == 13
    for config, record in zip(scenarios, records):
        alone = json.loads(json.dumps(cli.run(config)))
        for key in ("scalars", "matrices", "curves", "residuals", "warnings"):
            assert record[key] == alone[key], (config["command"], key)


def test_csv_emission(tmp_path):
    out = tmp_path / "curve.csv"
    code = cli.main([
        "--scenario", os.path.join(SCENARIO_DIR, "geometry_euclidean.json"),
        "--out", str(out), "--format", "csv",
    ])
    assert code == cli.EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,phi,ds2_factor"
    assert len(lines) > 10
    first = [float(v) for v in lines[1].split(",")]
    assert first[2] == pytest.approx(0.25)  # Euclidean conformal factor


def test_emit_plotdata_errors():
    record = cli.run(load("metric_identity.json"))
    with pytest.raises(InputError, match="no sampled curves"):
        cli.emit_plotdata(record)
    failed = cli.run({"command": "metric"})
    with pytest.raises(InputError, match="no sampled curves"):
        cli.emit_plotdata(failed)


def test_classical_curve_columns():
    record = cli.run(load("classical_cubic.json"))
    assert record["curves"]["trajectory"]["columns"] == ["t", "re_z", "im_z", "K", "H_i"]
    csv = cli.emit_plotdata(record)
    assert csv.startswith("t,re_z,im_z,K,H_i")


def test_em_snapshot_curve():
    record = cli.run(load("em_vacuum.json"))
    cols = record["curves"]["snapshot"]["columns"]
    assert cols == ["z", "E"]
    assert record["all_pass"]


def test_console_entry_point(tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "phqm.cli",
         "--scenario", os.path.join(SCENARIO_DIR, "geometry_euclidean.json"),
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["scalars"]["k1"] == 0.25


def test_deformed_brachistochrone_speedup():
    # eta = diag(3, 1/3): cos^2 s = 0.9 analytically
    record = cli.run(load("brachistochrone_deformed.json"))
    assert record["scalars"]["tau_min"] == pytest.approx(np.arccos(np.sqrt(0.9)))
    assert record["scalars"]["tau_min"] < np.pi / 4.0


def test_sampled_profile_fdtd_scenario():
    record = cli.run(load("em_sampled_fdtd.json"))
    assert record["scalars"]["slow_variation_diagnostic"] < 0.05
    assert record["scalars"]["fdtd_l2_error"] <= 1e-2


@pytest.mark.parametrize(
    "config",
    [
        {"command": "metric", "matrix": "nope"},
        {"command": "metric", "matrix": [[1, 2], [3]]},
        {"command": "brachistochrone", "psi_I": [[1, 0], [0, 0]],
         "psi_F": [[1, 0], [0, 0]], "E": -1.0},
        {"command": "brachistochrone", "psi_I": [[1, 0], [0, 0]],
         "psi_F": [[2, 0], [0, 0]], "E": 1.0},
        {"command": "classical", "potential": {"kind": "weird"},
         "z0": [0, 0], "p0": [1, 0], "t_end": 1.0, "dt": 0.01},
        {"command": "brachistochrone", "psi_I": [[0, 0], [0, 0]],
         "psi_F": [[1, 0], [0, 0]], "E": 1.0},
        {"command": "metric", "matrix": [[[2.5, 0], [1.5, 0]], [[-1.5, 0], [-2.5, 0]]],
         "sigma": [1]},
        {"command": "em", "profile": {"preset": "nope"},
         "init": {"kind": "gaussian"}, "t": 1.0},
    ],
)
def test_degenerate_inputs_exit_as_input_errors(config, tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--scenario", str(path), "--out", os.devnull]) == cli.EXIT_INPUT
    assert "error:" in capsys.readouterr().err


JORDAN = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]


@pytest.mark.parametrize(
    "config, error_type",
    [
        ({"command": "model", "model": {"kind": "two_level", "D": 0.0}}, "DefectiveOperatorError"),
        ({"command": "model", "model": {"kind": "swanson", "alpha": 0.6, "beta": 0.5}},
         "RealityViolatedError"),
        ({"command": "hermitize", "matrix": JORDAN}, "DefectiveOperatorError"),
        ({"command": "metric", "matrix": JORDAN}, "DefectiveOperatorError"),
        ({"command": "model", "model": {"kind": "quartic", "lam": 0.5, "omega": 3.0}},
         "EigenpairsNotConvergedError"),
        ({"command": "classical", "potential": {"kind": "monomial", "coeff": [1, 0], "power": -1},
          "z0": [0, 0], "p0": [1, 0], "t_end": 1, "dt": 0.1}, "StepOverflowError"),
        # flow reads no V' here, so V itself meets the pole when K is read
        ({"command": "classical", "potential": {"kind": "monomial", "coeff": [1, 0], "power": -1},
          "z0": [0, 0], "p0": [1, 0], "t_end": 0, "dt": 0.1}, "StepOverflowError"),
    ],
    ids=["two-level-D0", "swanson-complex", "hermitize-jordan", "metric-jordan",
         "quartic-unconverged", "flow-pole", "flow-pole-at-start"],
)
def test_valid_inputs_outside_the_domain_exit_as_domain_errors(config, error_type, tmp_path,
                                                                capsys):
    path, out = tmp_path / "case.json", tmp_path / "out.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--scenario", str(path), "--out", str(out)]) == cli.EXIT_DOMAIN
    assert f"error: {error_type}: " in capsys.readouterr().err
    record = json.loads(out.read_text())
    assert list(record) == ["command", "inputs", "error", "warnings", "all_pass", "timing_s"]
    assert record["error"]["class"] == "domain" and record["error"]["type"] == error_type
    assert record["inputs"] == config and record["all_pass"] is False
    assert "NaN" not in out.read_text()


def _classical(coeff, power, z0, t_end, dt):
    return {"command": "classical", "potential": {"kind": "monomial", "coeff": coeff, "power": power},
            "z0": [z0, 0], "p0": [1, 0], "t_end": t_end, "dt": dt}


@pytest.mark.parametrize(
    "config, outcome",
    [
        (load("classical_cubic.json"), ("pass", None)),
        # an analytic V is read as given, whatever its coefficient and however fast it grows
        (_classical([1e8, 0], 3, 1e-4, 1e-3, 1e-5), ("pass", None)),
        # a step of 0.5 is too coarse for V = z^2000 near |z| = 1
        (_classical([1, 0], 2000, 0, 1, 0.5), ("residual", {"K_drift": 1.0})),
        ({**load("classical_cubic.json"), "dt": 0.01},
         ("residual", {"K_drift": 7.4e-8, "H_i_drift": 2.5e-8})),
        (_classical([-25, 0], 2, 1, 50, 0.05), ("domain", "StepOverflowError")),
        # past classical.MAX_STEPS; each ran for longer than 30 s
        ({**load("classical_cubic.json"), "t_end": 1e300}, ("input", "InputError")),
        ({**load("classical_cubic.json"), "t_end": -1e300}, ("input", "InputError")),
        ({**load("classical_cubic.json"), "dt": 1e-300}, ("input", "InputError")),
    ],
    ids=["cubic", "cubic-1e8-near-0", "z2000-coarse", "cubic-dt-0.01", "inverted-oscillator",
         "t_end-1e300", "t_end--1e300", "dt-1e-300"],
)
def test_classical_at_the_edges_of_its_domain(config, outcome):
    """ROADMAP item 12's classical rows: the class and the error type or failing gates."""
    assert_outcome(cli.run(config), outcome)


@pytest.mark.parametrize(
    "config, outcome",
    [
        (load("em_sampled_fdtd.json"), ("pass", None)),
        # past em.MAX_STEPS of the leapfrog oracle; each ran for longer than 30 s
        ({**load("em_sampled_fdtd.json"), "t": 1e300}, ("input", "InputError")),
        ({**load("em_sampled_fdtd.json"), "t": -1e300}, ("input", "InputError")),
        ({**load("em_vacuum.json"), "t": 1e300, "fdtd_check": True}, ("input", "InputError")),
    ],
    ids=["sampled-fdtd", "fdtd-t-1e300", "fdtd-t--1e300", "vacuum-fdtd-t-1e300"],
)
def test_em_at_the_edges_of_its_domain(config, outcome):
    """ROADMAP item 12's em rows: the class and the error type or failing gates."""
    assert_outcome(cli.run(config), outcome)


def assert_outcome(record, outcome):
    """(class, error type) of a failed record, or ("pass" or "residual", failing gates)."""
    kind, detail = outcome
    if kind in ("input", "domain"):
        assert (record["error"]["class"], record["error"]["type"]) == (kind, detail)
        return
    failing = {g["name"]: g["value"] for g in record["residuals"] if not g["pass"]}
    assert record["all_pass"] is (kind == "pass")
    assert sorted(failing) == sorted(detail or {})
    for name, value in failing.items():
        assert value == pytest.approx(detail[name], rel=1e-2)


NON_HERMITIAN_ETA = [[[1, 0], [0.3, 0]], [[0, 0], [1, 0]]]
INDEFINITE_ETA = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
SINGULAR_ETA = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]


@pytest.mark.parametrize(
    "eta, code, error",
    [
        (NON_HERMITIAN_ETA, cli.EXIT_INPUT, {"class": "input", "type": "NotHermitianError"}),
        (INDEFINITE_ETA, cli.EXIT_INPUT, {"class": "input", "type": "NotPositiveDefiniteError"}),
        (SINGULAR_ETA, cli.EXIT_DOMAIN, {"class": "domain", "type": "SingularOperatorError"}),
    ],
    ids=["non-hermitian", "indefinite", "singular"],
)
def test_every_command_that_reads_a_metric_rejects_it_alike(eta, code, error, tmp_path):
    configs = [
        {"command": "geometry", "eta": eta},
        {"command": "hermitize", "matrix": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]], "eta": eta},
        {"command": "brachistochrone", "psi_I": [[1, 0], [0, 0]], "psi_F": [[0, 0], [1, 0]],
         "E": 1.0, "eta": eta},
    ]
    path, out = tmp_path / "case.json", tmp_path / "out.json"
    for config in configs:
        path.write_text(json.dumps(config))
        assert cli.main(["--scenario", str(path), "--out", str(out)]) == code, config["command"]
        record_error = json.loads(out.read_text())["error"]
        assert {key: record_error[key] for key in error} == error, config["command"]


def test_brachistochrone_of_three_levels_passes_its_gates(tmp_path):
    # H* has rank 2, so its third eigenvalue is 0, not E
    config = {"command": "brachistochrone", "psi_I": [[1, 0], [0, 0], [0, 0]],
              "psi_F": [[0, 0], [0, 0], [1, 0]], "E": 1.0}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--scenario", str(path), "--out", os.devnull]) == cli.EXIT_OK
    record = cli.run(config)
    assert [e["name"] for e in record["residuals"] if not e["pass"]] == []
    assert record["scalars"]["tau_min"] == pytest.approx(np.pi / 2)


def test_failed_gate_exits_as_residual_error(tmp_path, capsys):
    config = {"command": "hermitize", "matrix": [[[1, 0], [1, 0]], [[0, 0], [2, 0]]], "eta": EYE2}
    path, out = tmp_path / "case.json", tmp_path / "out.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--scenario", str(path), "--out", str(out)]) == cli.EXIT_RESIDUAL
    assert "error: NotPseudoHermitianError: pseudo-Hermiticity residual" in capsys.readouterr().err
    assert json.loads(out.read_text())["error"]["class"] == "residual"


def test_batch_runs_every_scenario_past_a_failure(tmp_path, capsys):
    path, out = tmp_path / "batch.json", tmp_path / "out.json"
    path.write_text(json.dumps([{"command": "metric", "matrix": JORDAN}, load("two_level.json")]))
    assert cli.main(["--scenario", str(path), "--out", str(out)]) == cli.EXIT_DOMAIN
    assert capsys.readouterr().err.count("error: ") == 1
    failed, passed = json.loads(out.read_text())
    assert failed["error"]["class"] == "domain"
    alone = json.loads(json.dumps(cli.run(load("two_level.json"))))
    assert {**passed, "timing_s": 0} == {**alone, "timing_s": 0}


@pytest.mark.parametrize(
    "config, error_type",
    [
        ({"command": "model", "model": {
            "kind": "swanson", "hbar": 1e160, "alpha": 1e159, "beta": 1e158}}, "OverflowError"),
    ],
    ids=["swanson-overflow"],
)
def test_batch_runs_past_an_arithmetic_failure(config, error_type, tmp_path):
    # each ended the batch in a traceback, exit 1, with no record written
    path, out = tmp_path / "batch.json", tmp_path / "out.json"
    path.write_text(json.dumps([config, load("two_level.json")]))
    assert cli.main(["--scenario", str(path), "--out", str(out)]) == cli.EXIT_DOMAIN
    failed, passed = json.loads(out.read_text())
    assert failed["error"]["class"] == "domain" and failed["error"]["type"] == error_type
    assert passed["all_pass"] is True


@pytest.mark.parametrize(
    "name, gates",
    [
        ("kernel_barrier.json", ["residual_order_deviation"]),
        ("swanson.json", ["matrix_identity_residual", "low_spectrum_match"]),
        ("em_vacuum.json", ["dalembert"]),
        ("em_sampled_fdtd.json", ["closed_form_vs_fdtd"]),
        ("hermitize_two_level.json", ["h_hermiticity", "isospectrality"]),
    ],
)
def test_records_gate_only_what_can_fail(name, gates):
    # the kernel eta, the truncated Swanson h and eps Omega^2 are symmetric by
    # construction (tests/test_models.py, tests/test_em.py); the hermitized h
    # is not symmetrized, so its Hermiticity stays gated
    assert [e["name"] for e in cli.run(load(name))["residuals"]] == gates


@pytest.mark.parametrize("scale", [1e-200, 1e160, 1e200])
def test_geometry_of_a_metric_at_any_scale_passes(scale, tmp_path):
    # det and trace^2 of the unscaled eta overflowed or vanished
    eta = [[[scale, 0], [0, 0]], [[0, 0], [scale, 0]]]
    path, out = tmp_path / "case.json", tmp_path / "out.json"
    path.write_text(json.dumps({"command": "geometry", "eta": eta}))
    assert cli.main(["--scenario", str(path), "--out", str(out)]) == cli.EXIT_OK
    scalars = json.loads(out.read_text())["scalars"]
    assert (scalars["k1"], scalars["k2"], scalars["k3"]) == (0.25, 0.0, 0.0)


@pytest.mark.parametrize(
    "config",
    [
        {"command": "model", "model": {"kind": "kernel", "kind_detail": "barrier",
                                       "zeta": 0.08, "length": 1.0, "n": 2}},
        {**load("brachistochrone_antipodal.json"), "hbar": 0.0},
        {**load("brachistochrone_antipodal.json"), "hbar": -1.0},
        {**load("brachistochrone_antipodal.json"), "E": 1e-320},
        {**load("brachistochrone_antipodal.json"), "psi_F": [[0, 0], [1e-310, 0]]},
    ],
    ids=["barrier-n2", "hbar-zero", "hbar-negative", "E-1e-320", "subnormal-state"],
)
def test_values_without_a_finite_record_exit_as_input_errors(config, tmp_path):
    # each wrote a bare NaN or Infinity, or passed with a negative tau_min
    path, out = tmp_path / "case.json", tmp_path / "out.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--scenario", str(path), "--out", str(out)]) == cli.EXIT_INPUT
    record = json.loads(out.read_text(), parse_constant=_no_constant)
    assert record["error"]["class"] == "input"


@pytest.mark.parametrize(
    "batch, code",
    [
        ([{"command": "metric", "matrix": JORDAN}, {"command": "metric"}], cli.EXIT_INPUT),
        ([{"command": "metric", "matrix": JORDAN}, coarse_cubic()], cli.EXIT_DOMAIN),
        ([load("two_level.json"), coarse_cubic()], cli.EXIT_RESIDUAL),
    ],
    ids=["input-over-domain", "domain-over-residual", "residual-over-pass"],
)
def test_exit_code_takes_the_gravest_class(batch, code, tmp_path):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(batch))
    assert cli.main(["--scenario", str(path), "--out", os.devnull]) == code


@pytest.mark.parametrize(
    "config",
    [
        # a misspelt key would silently skip the truncated-model gates
        {"command": "model", "model": {"kind": "swanson", "alpha": 0.1, "beta": 0.05,
                                       "truncatd": True}},
        {"command": "model", "model": {"kind": "quartic", "lam": "1"}},
        {"command": "model", "model": {"kind": "swanson", "alpha": 0.1, "beta": 0.05,
                                       "n_max": 60.5, "truncated": True}},
        {"command": "model", "model": {"kind": ["swanson"], "alpha": 0.1, "beta": 0.05}},
        {"command": ["model"], "model": {"kind": "two_level", "D": 4.0}},
    ],
)
def test_invalid_model_parameters_exit_as_input_errors(config, tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--scenario", str(path), "--out", os.devnull]) == cli.EXIT_INPUT
    assert "error: invalid scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field",
    [{"length": 0}, {"length_k": 0}, {"length": -18.0}],
)
def test_non_positive_quartic_lengths_exit_as_input_errors(field, tmp_path, capsys):
    # a zero length divided by zero in the grid spacing; a negative one ran
    # silently on a mirrored grid
    config = {"command": "model", "model": {"kind": "quartic", "lam": 0.0625, **field}}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--scenario", str(path), "--out", os.devnull]) == cli.EXIT_INPUT
    assert "error: InputError: grid half-widths" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        # a misspelt amp would run silently with the default 0.1
        {"command": "em", "profile": {"preset": "tanh", "ampl": 5.0},
         "init": {"kind": "gaussian"}, "t": 1.0},
        {"command": "em", "profile": {"preset": "vacuum", "z_min": "a"},
         "init": {"kind": "gaussian"}, "t": 1.0},
        {"command": "classical", "potential": {"kind": "monomial", "coeff": [0, 1], "power": [3]},
         "z0": [0, 0], "p0": [1, 0], "t_end": 1.0, "dt": 0.01},
    ],
)
def test_invalid_nested_objects_exit_as_input_errors(config, tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--scenario", str(path), "--out", os.devnull]) == cli.EXIT_INPUT
    assert "error: invalid scenario" in capsys.readouterr().err


CUBIC_FLOW = {"command": "classical", "potential": {"kind": "monomial", "coeff": [0, 1], "power": 3},
              "z0": [0, 0], "p0": [1, 0], "t_end": 1.0, "dt": 0.01}
TWO_LEVEL_A = [[[2.5, 0.0], [1.5, 0.0]], [[-1.5, 0.0], [-2.5, 0.0]]]  # eigenvalues +-2


# a real 3x3 with the pair 3 +- 5e-9 i: real to biortho (|Im a| <= 1e-8 * 3)
NEAR_REAL_PAIR = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [3.0, 0.0], [5e-9, 0.0]],
                  [[0.0, 0.0], [-5e-9, 0.0], [3.0, 0.0]]]


def test_diagnose_reads_reality_as_the_metric_build_does(tmp_path):
    # diagnose used 1e-9 * scale and called the pair complex, while metric
    # took it as real, built eta_+ and failed its residual gate
    diagnosed = cli.run({"command": "diagnose", "matrix": NEAR_REAL_PAIR})
    assert diagnosed["scalars"]["spectrum_real"] is True
    built = cli.run({"command": "metric", "matrix": NEAR_REAL_PAIR})
    gates = {g["name"]: g["pass"] for g in built["residuals"]}
    assert "error" not in built and "eta_plus" in built["matrices"]
    assert gates["pseudo_hermiticity"] is False
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"command": "metric", "matrix": NEAR_REAL_PAIR}))
    assert cli.main(["--scenario", str(path), "--out", os.devnull]) == cli.EXIT_RESIDUAL


@pytest.mark.parametrize(
    "config",
    [
        {**CUBIC_FLOW, "z0": [None, 0]},
        {"command": "diagnose", "matrix": [[[None, 0]]]},
        {**CUBIC_FLOW, "p0": ["0.1", 0]},
        {**CUBIC_FLOW, "p0": [True, 0]},
    ],
    ids=["null-scalar", "null-matrix-entry", "string", "bool"],
)
def test_complex_pairs_of_non_numbers_exit_as_input_errors(config, tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--scenario", str(path), "--out", os.devnull]) == cli.EXIT_INPUT
    assert "error: invalid scenario: complex scalar must be a [re, im] pair of numbers" in (
        capsys.readouterr().err
    )


EYE2, EYE3 = ([[[float(i == j), 0.0] for j in range(n)] for i in range(n)] for n in (2, 3))
SAMPLED = {"z": [-1.0, 0.0, 1.0], "eps": [1.0, 2.0, 1.0], "mu": [1.0, 1.0, 1.0]}
SAMPLED_EM = {"command": "em", "profile": SAMPLED, "init": {"kind": "gaussian"}, "t": 0.1}


@pytest.mark.parametrize(
    "config, message",
    [
        ({"command": "model", "model": {"kind": "two_level", "D": 4.0, "r": 0.0}},
         "InputError: r must be positive"),
        ({"command": "model", "model": {"kind": "two_level", "D": 4.0, "s": 1.0}},
         "InputError: s must lie in"),
        ({"command": "model", "model": {"kind": "swanson", "alpha": 0.1, "beta": 0.05,
                                        "hbar": 0.0}}, "InputError: hbar and omega"),
        ({"command": "model", "model": {"kind": "swanson", "alpha": 0.1, "beta": 0.05,
                                        "omega": -1.0}}, "InputError: hbar and omega"),
        ({"command": "model", "model": {"kind": "swanson", "alpha": 0.1, "beta": 0.05,
                                        "truncated": True, "n_max": 8}},
         "InputError: n_max must be at least 16"),
        ({"command": "model", "model": {"kind": "quartic", "lam": -1.0}},
         "InputError: lambda must be positive"),
        ({"command": "model", "model": {"kind": "quartic", "lam": 0.0625, "omega": -1.0}},
         "InputError: omega must be non-negative"),
        ({"command": "model", "model": {"kind": "quartic", "lam": 0.0625, "n": 32}},
         "InputError: grids need at least 64 points"),
        ({"command": "model", "model": {"kind": "kernel", "kind_detail": "barrier",
                                        "zeta": 0.1, "length": 0.0}},
         "InputError: width L must be positive"),
        ({"command": "em", "profile": {"z": [-1.0, 0.0, 1.0], "eps": [1.0, 0.0, 1.0],
                                       "mu": [1.0, 1.0, 1.0]},
          "init": {"kind": "gaussian"}, "t": 0.1},
         "InputError: eps and mu samples must be strictly positive"),
        ({"command": "geometry", "eta": EYE3}, "InputError: eta is 3x3, expected 2x2"),
        ({"command": "metric", "matrix": TWO_LEVEL_A, "sigma": [1, 2]},
         "InputError: sigma entries must be +1 or -1"),
        ({**CUBIC_FLOW, "dt": 0.0}, "InputError: dt must be positive"),
        ({"command": "metric", "matrix": [[[1.0, 0.0], [2.0, 0.0]]]},
         "InputError: expected a square matrix"),
        ({"command": "brachistochrone", "psi_I": [], "psi_F": [[1, 0], [0, 0]], "E": 1.0},
         "invalid scenario: vector must be a non-empty list"),
        ({"command": "metric", "matrix": []}, "invalid scenario: matrix must be a non-empty list"),
        ({"command": "metric", "matrix": [[]]},
         "invalid scenario: vector must be a non-empty list"),
        ({"command": "metric", "matrix": [[[1, 0], [2, 0]], [[3, 0]]]},
         "invalid scenario: matrix rows have unequal lengths"),
        (5, "invalid scenario: scenario must be a JSON object"),
        ([load("metric_identity.json"), "metric"],
         "invalid scenario: scenario must be a JSON object"),
        ({**SAMPLED_EM, "profile": {**SAMPLED, "mu": [1.0, 1.0]}},
         "InputError: z, eps and mu need one length of at least 2"),
        ({**SAMPLED_EM, "profile": {"z": [0.0], "eps": [1.0], "mu": [1.0]}},
         "InputError: z, eps and mu need one length of at least 2"),
        ({**SAMPLED_EM, "profile": {**SAMPLED, "z": [-1.0, 1.0, 0.5]}},
         "InputError: z, eps and mu need one length of at least 2, z increasing"),
        ({**SAMPLED_EM, "profile": {**SAMPLED, "z": ["a", 0.0, 1.0]}},
         "invalid scenario: field 'z' must have type list"),
        ({"command": "brachistochrone", "psi_I": [[1, 0], [0, 0]],
          "psi_F": [[0, 0], [1, 0], [0, 0]], "E": 1.0},
         "InputError: psi_i, psi_f and eta sizes differ"),
        ({"command": "brachistochrone", "psi_I": [[1, 0], [0, 0]], "psi_F": [[0, 0], [1, 0]],
          "E": 1.0, "eta": EYE3}, "InputError: psi_i, psi_f and eta sizes differ"),
        ({"command": "brachistochrone", "psi_I": [[1, 0], [0, 0]], "psi_F": [[0, 0], [1, 0]],
          "E": 1.0, "eta": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]},
         "NotPositiveDefiniteError: eta has negative eigenvalue"),
        ({"command": "geometry", "eta": EYE2, "n_theta": 0},
         "InputError: n_theta and n_phi must be at least 1"),
        ({"command": "geometry", "eta": EYE2, "n_phi": -2},
         "InputError: n_theta and n_phi must be at least 1"),
        ({**SAMPLED_EM, "n_eval": 0}, "InputError: n_eval must be at least 1"),
        ({**SAMPLED_EM, "n_eval": -3}, "InputError: n_eval must be at least 1"),
        ({"command": "model", "model": {"kind": "kernel", "kind_detail": "barrier", "zeta": 0.1,
                                        "n": -1}}, "InputError: a kernel grid needs n >= 2"),
        ({"command": "model", "model": {"kind": "kernel", "kind_detail": "delta", "zeta": 0.1,
                                        "hbar": 0.0}}, "InputError: mass and hbar must be positive"),
        *(({**load("em_vacuum.json"), "init": {"kind": "gaussian", "width": width}},
           "InputError: width must be positive") for width in (0.0, -0.5)),
        # json reads NaN, and the schema rejects a non-finite scalar
        ({**load("em_vacuum.json"), "init": {"kind": "gaussian", "width": float("nan")}},
         "invalid scenario: field 'width' must be finite"),
        ({"command": "model", "model": {"kind": "swanson", "alpha": 0.1, "beta": 0.05,
                                        "n_max": 200}},
         "InputError: n_max sets the truncation, so it needs truncated: true"),
        ({"command": "model", "model": {"kind": "kernel", "kind_detail": "delta", "zeta": 0.1,
                                        "x_min": 0.5, "x_max": 4.0}},
         "InputError: a node grid's box must contain 0"),
        ({"command": "geometry", "eta": [[[1, 0], [0, 0]], [[5, 0], [1, 0]]]},
         "NotHermitianError: eta must be Hermitian"),
        ({"command": "geometry", "eta": [[[1, 0], [0, 0.5]], [[0, 0], [1, 0]]]},
         "NotHermitianError: eta must be Hermitian"),
        # the deformed H*'s largest entry, 3 E, is past the largest float
        ({**load("brachistochrone_deformed.json"), "E": 1e308},
         "InputError: H* overflows at E = 1e+308"),
    ],
)
def test_invalid_values_exit_as_input_errors(config, message, tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--scenario", str(path), "--out", os.devnull]) == cli.EXIT_INPUT
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("name, energy", [("brachistochrone_deformed.json", 3e307),
                                          ("brachistochrone_antipodal.json", 1e308)])
def test_brachistochrone_whose_h_star_is_finite_passes_near_the_float_range(name, energy):
    # the antipodal H*'s largest entry is E itself, the deformed one's 3 E
    assert cli.run({**load(name), "E": energy})["all_pass"] is True


@pytest.mark.parametrize("sample_every", [0, -5])
def test_non_positive_sample_every_exits_as_input_error(sample_every, tmp_path, capsys):
    # 0 raised ZeroDivisionError (a traceback, exit 1); -5 sampled every 5 steps
    path = tmp_path / "case.json"
    path.write_text(json.dumps({**CUBIC_FLOW, "sample_every": sample_every}))
    assert cli.main(["--scenario", str(path), "--out", os.devnull]) == cli.EXIT_INPUT
    assert "error: InputError: sample_every must be at least 1" in capsys.readouterr().err


def test_non_finite_matrix_entries_exit_as_input_errors(tmp_path, capsys):
    # Python's json reads the NaN literal, so the value reaches as_matrix
    path = tmp_path / "case.json"
    path.write_text('{"command": "diagnose", "matrix": [[[NaN, 0]]]}')
    assert cli.main(["--scenario", str(path), "--out", os.devnull]) == cli.EXIT_INPUT
    assert "error: InputError: matrix has non-finite entries" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "config, field",
    [
        ({**load("em_sampled_fdtd.json"), "t": NAN}, "t"),
        ({**load("em_vacuum.json"), "t": INF}, "t"),
        ({**load("classical_cubic.json"), "dt": NAN}, "dt"),
        ({**load("classical_cubic.json"), "t_end": NAN}, "t_end"),
        ({**load("classical_cubic.json"), "z0": [-INF, 0.0]}, "z0"),
        ({**SAMPLED_EM, "profile": {**SAMPLED, "eps": [1.0, NAN, 1.0]}}, "eps"),
        ({"command": "model", "model": {"kind": "kernel", "kind_detail": "barrier", "zeta": NAN}},
         "zeta"),
        ({"command": "model", "model": {"kind": "swanson", "alpha": NAN, "beta": 0.05}}, "alpha"),
        ({"command": "model", "model": {"kind": "quartic", "lam": NAN}}, "lam"),
        ({**load("brachistochrone_antipodal.json"), "E": INF}, "E"),
        ({**load("brachistochrone_antipodal.json"), "psi_I": [[NAN, 0], [0, 0]]}, "psi_I"),
        ({**load("brachistochrone_antipodal.json"), "psi_F": [[0, 0], [INF, 0]]}, "psi_F"),
    ],
    ids=["em-t-nan", "em-t-inf", "flow-dt-nan", "flow-t_end-nan", "flow-z0-inf", "profile-eps-nan",
         "kernel-zeta-nan", "swanson-alpha-nan", "quartic-lam-nan", "brachistochrone-E-inf",
         "brachistochrone-psi_I-nan", "brachistochrone-psi_F-inf"],
)
def test_non_finite_scalars_exit_as_input_errors(config, field, tmp_path, capsys):
    # json reads NaN and Infinity: a NaN em time or flow step raised ValueError
    # out of run, an infinite em time passed with a NaN snapshot, and the model
    # couplings and E were domain errors
    path, out = tmp_path / "case.json", tmp_path / "out.json"
    path.write_text(json.dumps([config, load("two_level.json")]))
    assert cli.main(["--scenario", str(path), "--out", str(out)]) == cli.EXIT_INPUT
    failed, after = json.loads(out.read_text())
    assert failed["error"] == {"class": "input", "type": "SchemaError",
                               "message": f"field {field!r} must be finite"}
    assert after["all_pass"] is True
    assert f"error: invalid scenario: field {field!r} must be finite" in capsys.readouterr().err


def test_record_goes_to_stdout_without_out(capsys):
    path = os.path.join(SCENARIO_DIR, "geometry_euclidean.json")
    assert cli.main(["--scenario", path]) == cli.EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    expected = cli.run(load("geometry_euclidean.json"))
    for field in ("scalars", "curves", "residuals", "inputs"):
        assert printed[field] == expected[field]


def test_em_fdtd_check_runs_backward_in_time():
    # a negative t took one leapfrog step of size t, far beyond the CFL bound
    config = {"command": "em", "profile": {"preset": "tanh"},
              "init": {"kind": "gaussian", "center": -3.0, "width": 0.45}, "fdtd_check": True}
    back = cli.run({**config, "t": -2.0})
    forward = cli.run({**config, "t": 2.0})
    assert back["all_pass"]
    assert back["scalars"]["fdtd_l2_error"] <= 1e-2
    assert back["scalars"]["fdtd_l2_error"] == pytest.approx(
        forward["scalars"]["fdtd_l2_error"], rel=1e-6)


@pytest.mark.parametrize("name", ["brachistochrone_antipodal.json",
                                  "brachistochrone_deformed.json"])
def test_brachistochrone_trajectory_takes_one_evolve_call(name, monkeypatch):
    calls = []
    evolve = statespace.evolve

    def counting(h_op, psi0, t, hbar=1.0):
        calls.append(np.shape(t))
        return evolve(h_op, psi0, t, hbar)

    monkeypatch.setattr(statespace, "evolve", counting)
    config = load(name)
    record = cli.run(config)
    assert calls == [(33,)]           # all 33 samples at once; the last is the final state
    assert record["scalars"]["fidelity"] == record["curves"]["trajectory"]["rows"][-1][1]
    psi_i, psi_f = cli.parse_vector(config["psi_I"]), cli.parse_vector(config["psi_F"])
    eta = cli.parse_matrix(config["eta"]) if "eta" in config else None
    h_star = np.array(record["matrices"]["H_star"])
    h_star = h_star[..., 0] + 1j * h_star[..., 1]
    for t, fidelity in record["curves"]["trajectory"]["rows"]:
        psi_t = evolve(h_star, psi_i, t)
        assert fidelity == pytest.approx(statespace.projective_fidelity(psi_t, psi_f, eta),
                                         abs=1e-15)


def test_a_brachistochrone_record_certifies_its_eta_three_times(monkeypatch):
    # once in BrachistochroneProblem, once in energy_uncertainty and once for the
    # whole trajectory's fidelities; each of its 33 samples certified it again before
    calls = []
    positive_metric = metric.positive_metric

    def counting(*args, **kwargs):
        calls.append(args)
        return positive_metric(*args, **kwargs)

    monkeypatch.setattr(metric, "positive_metric", counting)
    monkeypatch.setattr(statespace, "positive_metric", counting)
    assert cli.run(load("brachistochrone_deformed.json"))["all_pass"]
    assert len(calls) == 3


def test_a_geometry_record_evaluates_its_grid_in_one_call(monkeypatch):
    # one conformal_factor call on the meshgrid, not one per grid point
    calls = []
    conformal_factor = statespace.TwoLevelLineElement.conformal_factor

    def counting(self, theta, phi):
        calls.append(np.shape(theta))
        return conformal_factor(self, theta, phi)

    monkeypatch.setattr(statespace.TwoLevelLineElement, "conformal_factor", counting)
    record = cli.run(load("geometry_euclidean.json"))
    assert calls == [(13, 25)]
    rows = record["curves"]["line_element"]["rows"]
    # theta-major, as the record has always listed them
    assert [row[:2] for row in rows[:2]] == [[0.0, 0.0], [0.0, 2.0 * np.pi / 24]]
    assert rows[25][:2] == [np.pi / 12, 0.0]


def _real_matrix(encoded):
    m = np.array(encoded)
    assert not np.any(m[..., 1])
    return m[..., 0]


def test_metric_with_sigma_builds_the_indefinite_pseudo_metric():
    record = cli.run({"command": "metric", "matrix": TWO_LEVEL_A, "sigma": [1, -1]})
    assert list(record["matrices"]) == ["eta"]
    assert [r["name"] for r in record["residuals"]] == ["pseudo_hermiticity",
                                                        "biorthonormal_completeness"]
    assert record["all_pass"]
    evals = np.linalg.eigvalsh(_real_matrix(record["matrices"]["eta"]))
    assert evals[0] < 0 < evals[1]


def test_hermitize_without_eta_uses_the_spectral_metric():
    record = cli.run({"command": "hermitize", "matrix": TWO_LEVEL_A})
    assert record["all_pass"]
    spectral = cli.run({"command": "metric", "matrix": TWO_LEVEL_A})
    assert record["matrices"]["eta_plus"] == spectral["matrices"]["eta_plus"]
    h = _real_matrix(record["matrices"]["h"])
    np.testing.assert_allclose(np.linalg.eigvalsh(h), [-2.0, 2.0], atol=1e-12)


@pytest.mark.parametrize(
    "potential, z_of_t, h_of_zp",
    [
        # V = omega^2 z^2 / 2 with omega = 2
        ({"kind": "harmonic", "omega": 2.0},
         lambda z0, p0, t: z0 * np.cos(2 * t) + p0 / 2 * np.sin(2 * t),
         lambda z, p: p**2 / 2 + 2 * z**2),
        ({"kind": "free"}, lambda z0, p0, t: z0 + p0 * t, lambda z, p: p**2 / 2),
    ],
    ids=["harmonic", "free"],
)
def test_closed_form_potentials(potential, z_of_t, h_of_zp):
    z0, p0 = 0.5 + 0.2j, 1.0 - 0.3j
    record = cli.run({"command": "classical", "potential": potential, "z0": [0.5, 0.2],
                      "p0": [1.0, -0.3], "t_end": 2.0, "dt": 0.001})
    assert record["all_pass"]
    t, re_z, im_z, k, h_i = record["curves"]["trajectory"]["rows"][-1]
    assert t == pytest.approx(2.0)
    assert complex(re_z, im_z) == pytest.approx(z_of_t(z0, p0, 2.0), abs=1e-8)
    h = h_of_zp(z0, p0)
    assert (k, h_i) == pytest.approx((2 * h.real, h.imag), abs=1e-10)


def test_a_wrong_eta_is_no_hermitian_partner_whatever_the_scenario_says():
    # with tol 1.0 this passed every gate and wrote h = A, which is not Hermitian
    config = {**load("hermitize_two_level.json"), "eta": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    assert cli.run(config)["error"]["type"] == "NotPseudoHermitianError"
    error = cli.run({**config, "tol": 1.0})["error"]
    assert (error["class"], error["type"]) == ("input", "SchemaError")


def test_an_inexact_eigenpair_fails_a_residual_gate(monkeypatch, tmp_path):
    # eig_nonhermitian checks no eigenpair: diagnose's gate reads the residual of
    # each pair, at any cond(V), and hermitize's isospectrality catches a wrong spectrum
    true_eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda m: (np.array([1.0, 5.0]),
                                                     np.array([[1.0, 1.0], [0.0, 1e-13]])))
    record = cli.run(load("diagnose_two_level.json"))
    assert "error" not in record and record["scalars"]["diagonalizable"] is False
    (gate,) = record["residuals"]
    assert (gate["name"], gate["pass"], gate["tolerance"]) == ("eigenpair_residual", False, 1e-8)
    assert gate["value"] == pytest.approx(0.7288689868557268)
    monkeypatch.setattr(np.linalg, "eig", lambda m: (lambda w, v: (1.001 * w, v))(*true_eig(m)))
    diagnose = load("diagnose_two_level.json")
    hermitize = {"command": "hermitize", "matrix": diagnose["matrix"]}
    for config, name, value in ((diagnose, "eigenpair_residual", 5.0e-4),
                                (hermitize, "isospectrality", 1.0e-3)):
        record = cli.run(config)
        assert "error" not in record and not record["all_pass"]
        failed = [(e["name"], e["value"]) for e in record["residuals"] if not e["pass"]]
        assert failed == [(name, pytest.approx(value, rel=0.01))]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        assert cli.main(["--scenario", str(path), "--out", str(tmp_path / "r.json")]) \
            == cli.EXIT_RESIDUAL


@pytest.mark.parametrize("scale, passes", [(1.005, True), (1.02, False)])
def test_a_wrong_closed_form_fails_the_em_gate(scale, passes, monkeypatch):
    # closed_form_vs_fdtd is em_sampled_fdtd's one gate: a closed form 0.5 %
    # off reads fdtd_l2_error 8.5e-3 and passes, one 2 % off reads 2.3e-2
    true_propagate = em.propagate
    monkeypatch.setattr(em, "propagate", lambda *args: scale * true_propagate(*args))
    record = cli.run(load("em_sampled_fdtd.json"))
    (gate,) = record["residuals"]
    assert (gate["name"], gate["tolerance"]) == ("closed_form_vs_fdtd", 1e-2)
    assert gate["pass"] is passes and record["all_pass"] is passes
    assert record["scalars"]["fdtd_l2_error"] == pytest.approx(8.5e-3 if passes else 2.3e-2,
                                                               rel=0.05)


CONSTANT_MEDIA = {"eps 2.25": {"preset": "constant", "eps": 2.25},
                  "eps 2, mu 3": {"preset": "constant", "eps": 2.0, "mu": 3.0},
                  "equal samples": {"z": [-10.0, 0.0, 10.0], "eps": [2.25] * 3, "mu": [1.0] * 3}}


@pytest.mark.parametrize("profile", CONSTANT_MEDIA.values(), ids=CONSTANT_MEDIA)
@pytest.mark.parametrize("mutated", [False, True], ids=["true", "n squared"])
def test_a_constant_medium_gates_dalembert(profile, mutated, monkeypatch):
    # the closed form reads 3.1e-14 and 1.2e-13 against d'Alembert; an
    # optical path of eps mu in place of sqrt(eps mu) reads 0.26 and 0.54
    # (in vacuum it is the same path, so GATE_DEFECTS mutates the 1/2 there)
    if mutated:
        monkeypatch.setattr(em.MediumProfile, "index",
                            lambda self, z: self.eps_at(z) * self.mu_at(z))
    record = cli.run({**load("em_vacuum.json"), "profile": profile})
    (gate,) = record["residuals"]
    assert (gate["name"], gate["tolerance"]) == ("dalembert", 1e-10)
    assert gate["pass"] is not mutated and record["all_pass"] is not mutated
    assert gate["value"] > 0.2 if mutated else gate["value"] <= 1e-12


def test_a_spike_between_scan_points_is_no_constant_medium():
    # constancy is read from how the profile was built: this spike falls
    # between the points of any 400- or 800-point scan of [-10, 10], yet it
    # shifts the optical path by about 1e-3, which d'Alembert in vacuum misses
    spike = {"z": [-10.0, 0.001, 0.002, 0.003, 10.0], "eps": [1.0, 1.0, 5.0, 1.0, 1.0],
             "mu": [1.0] * 5}
    record = cli.run({**load("em_vacuum.json"), "profile": spike})
    assert record["residuals"] == [] and record["all_pass"] is True


@pytest.mark.parametrize("model", [{"kind_detail": "barrier", "zeta": 0.08},
                                   {"kind_detail": "delta", "zeta": 0.3}],
                         ids=["barrier", "delta"])
@pytest.mark.parametrize("scale, passes", [(1.0, True), (1.1, False), (-1.0, False)],
                         ids=["true", "x1.1", "negated"])
def test_a_wrong_kernel_fails_the_order_gate(model, scale, passes, monkeypatch):
    # residual_order_deviation is the barrier's and the delta's one gate: a
    # kernel 10 % off fits order 0.95 or 1.05, a negated one 1.00
    true_kernel = models.kernel_first_order
    monkeypatch.setattr(models, "kernel_first_order", lambda *args: scale * true_kernel(*args))
    record = cli.run({"command": "model", "model": {"kind": "kernel", **model}})
    (gate,) = record["residuals"]
    assert (gate["name"], gate["tolerance"]) == ("residual_order_deviation", 0.3)
    assert gate["pass"] is passes and record["all_pass"] is passes
    order = record["scalars"]["fitted_order"]
    assert abs(order - 2.0) <= 0.3 if passes else abs(order - 1.0) <= 0.1


@pytest.mark.parametrize("steep", ["eps", "mu"])
def test_a_steep_medium_fails_the_em_gate_and_its_diagnostic_reads_it(steep):
    # a steep eps read 4.39, skipped the gate and wrote all_pass true at
    # fdtd_l2_error 0.40; a steep mu read 0.0, as only eps' / eps was read
    z = np.linspace(-10.0, 10.0, 401)
    profile = {"z": z.tolist(), "eps": [1.0] * 401, "mu": [1.0] * 401}
    profile[steep] = (1.0 + 0.8 * np.tanh((z + 1.5) / 0.1)).tolist()
    record = cli.run({"command": "em", "profile": profile, "t": 2.0, "fdtd_check": True,
                      "init": {"kind": "gaussian", "center": -3.0, "width": 0.45}})
    (gate,) = record["residuals"]
    assert gate["name"] == "closed_form_vs_fdtd" and gate["value"] > 0.3
    assert gate["pass"] is False and record["all_pass"] is False
    assert record["scalars"]["slow_variation_diagnostic"] >= 1.0


def _anti_hermitian(h, size):
    return h + size * np.abs(h).max() * np.array([[0.0, 1.0], [-1.0, 0.0]])


def _similar(h, size):
    # S fixes brachistochrone_deformed's psi_I = e0 and scales its psi_F = (1, 1) / sqrt 2,
    # so S H* S^-1 keeps H*'s eigenvalues +-E and carries psi_I to psi_F in tau_min, yet
    # it is not eta-self-adjoint: <H> != 0 at psi_I and Delta E != E
    s = np.eye(2) + size * np.array([[0.0, 1.0], [0.0, 1.0]])
    return s @ h @ np.linalg.inv(s)


def _tilted(h, angle):
    # turns H*'s axis by ``angle`` toward brachistochrone_deformed's psi_I: 2P - I
    # with P the eta-projector on psi_I anticommutes with H*, so the tilted H*
    # stays eta-self-adjoint with eigenvalues +-E, but <H> at psi_I is E sin(angle)
    # and Delta E = E cos(angle)
    scenario = load("brachistochrone_deformed.json")
    p = projector(cli.parse_vector(scenario["psi_I"]), cli.parse_matrix(scenario["eta"]))
    return np.cos(angle) * h + np.sin(angle) * scenario["E"] * (2.0 * p - np.eye(2))


def _scenario(name):
    """A committed scenario by its stem, or non_normal_metric: hermitize_two_level's
    A under the metric command, as metric_identity's A = I meets
    eta A eta^-1 = A^dagger with any eta."""
    if name == "non_normal_metric":
        return {"command": "metric", "matrix": load("hermitize_two_level.json")["matrix"]}
    return load(f"{name}.json")


# (scenario, gate) -> (module, function, defect of its result, the gate's value with it)
GATE_DEFECTS = {
    ("hermitize_two_level", "isospectrality"): (
        metric, "build_system", lambda sys_: sys_.replace(h=sys_.h * (1 + 1e-6)), 1e-6),
    ("hermitize_two_level", "h_hermiticity"): (
        metric, "build_system", lambda sys_: sys_.replace(h=_anti_hermitian(sys_.h, 1e-8)), 2e-8),
    # |C^2 - I| / |C|^2 at C (1 + 1e-9): 2e-9 of |C|^2 = 4
    ("two_level", "charge_squares_to_identity"): (
        models, "two_level", lambda m: m.replace(C=m.C * (1 + 1e-9)), 5e-10),
    ("two_level", "pseudo_hermiticity"): (
        models, "two_level",
        lambda m: m.replace(eta_plus=m.eta_plus + 1e-9 * (1 - np.eye(2))), 6.25e-10),
    ("two_level", "eta_general_pseudo_hermiticity"): (
        models, "two_level",
        lambda m: m.replace(eta_general=m.eta_general + 1e-9 * (1 - np.eye(2))), 6.25e-10),
    # |rho A - h (1 + 1e-9) rho| = 1e-9 |h rho| = 2e-9 |rho|, and |A| = 4
    ("two_level", "h_similarity"): (
        models, "two_level", lambda m: m.replace(h=m.h * (1 + 1e-9)), 5e-10),
    ("non_normal_metric", "pseudo_hermiticity"): (
        metric, "metric_from_spectrum",
        lambda m: m.replace(eta=m.eta + 1e-8 * (1 - np.eye(2))), 5e-9),
    # eta is built from the phis, so it stays exact
    ("metric_identity", "biorthonormal_completeness"): (
        biortho, "biorthonormal_extension",
        lambda bs: bs.replace(psis=bs.psis * (1 + 1e-8)), 1e-8),
    ("swanson", "matrix_identity_residual"): (
        models, "swanson_w", lambda w: w * (1 + 1e-9), 1.17e-10),
    ("swanson", "low_spectrum_match"): (
        models, "swanson_truncated", lambda sw: sw.replace(h=sw.h * (1 + 1e-5)), 1e-5),
    ("quartic", "dual_discretization_match"): (
        models, "quartic_pair",
        lambda qp: qp.replace(spectrum_H=qp.spectrum_H * (1 + 1e-3)), 1e-3),
    # the projective fidelity and Delta E are blind to a multiple of I
    ("brachistochrone_antipodal", "eigenvalue_pinning"): (
        statespace, "optimal_hamiltonian",
        lambda opt: opt.replace(H_star=opt.H_star + 1e-8 * np.eye(2)), 1e-8),
    # overshooting s = pi/2 by 1e-4 of it leaves a deficit (pi/2 1e-4)^2
    ("brachistochrone_antipodal", "fidelity_deficit"): (
        statespace, "optimal_hamiltonian",
        lambda opt: opt.replace(tau_min=opt.tau_min * (1 + 1e-4)), 2.47e-8),
    # Delta E reads S H* S^-1 only at second order: 4.5e-10 here
    ("brachistochrone_deformed", "pseudo_hermiticity"): (
        statespace, "optimal_hamiltonian",
        lambda opt: opt.replace(H_star=_similar(opt.H_star, 1e-5)), 2.02e-5),
    # the tilt's deficit in Delta E is 1 - cos(1e-4) = 5e-9; fidelity moves by 1e-10
    ("brachistochrone_deformed", "uncertainty_saturation"): (
        statespace, "optimal_hamiltonian",
        lambda opt: opt.replace(H_star=_tilted(opt.H_star, 1e-4)), 5e-9),
    # the closed form's 1/2 off by 1e-8 of itself, on two half pulses of peak 1/2
    ("em_vacuum", "dalembert"): (em, "propagate", lambda field: field * (1 + 1e-8), 5e-9),
}


def _gate_id(scenario, gate):
    # the gate alone names its row unless two rows share it
    return f"{scenario}-{gate}" if sum(g == gate for _, g in GATE_DEFECTS) > 1 else gate


@pytest.mark.parametrize("scenario, gate", sorted(GATE_DEFECTS),
                         ids=[_gate_id(*key) for key in sorted(GATE_DEFECTS)])
@pytest.mark.parametrize("defect", [False, True], ids=["true", "defect"])
def test_a_defect_fails_its_gate_and_no_other(scenario, gate, defect, monkeypatch):
    module, function, change, value = GATE_DEFECTS[scenario, gate]
    if defect:
        true_function = getattr(module, function)
        monkeypatch.setattr(module, function,
                            lambda *args, **kwargs: change(true_function(*args, **kwargs)))
    record = cli.run(_scenario(scenario))
    failed = {e["name"] for e in record["residuals"] if not e["pass"]}
    assert gate in {e["name"] for e in record["residuals"]}
    assert failed == ({gate} if defect else set()) and record["all_pass"] is not defect
    if defect:
        (entry,) = (e for e in record["residuals"] if e["name"] == gate)
        assert entry["value"] == pytest.approx(value, rel=0.1)


@pytest.mark.parametrize("flag", [["--strict"], ["--tol", "1e-3"]])
def test_removed_run_overrides_are_usage_errors(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--scenario", os.path.join(SCENARIO_DIR, "two_level.json"), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_monomial_of_power_zero_flows_freely():
    start = {"command": "classical", "z0": [0, 0], "p0": [1, 0], "t_end": 1.0, "dt": 0.1}
    constant = cli.run({**start, "potential": {"kind": "monomial", "coeff": [1, 0], "power": 0}})
    free = cli.run({**start, "potential": {"kind": "free"}})
    assert constant["all_pass"]
    assert [row[:3] for row in constant["curves"]["trajectory"]["rows"]] \
        == [row[:3] for row in free["curves"]["trajectory"]["rows"]]


# builder -> argument tuples; complex coefficients x 2^+-60 and powers -3 ... 12
POTENTIAL_ARGS = {
    "monomial": [((0.7 - 1.3j) * 2.0**k, power) for power in range(-3, 13) for k in (-60, 0, 60)],
    "harmonic": [(omega * 2.0**k,) for omega in (0.4, 3.0) for k in (-30, 0, 30)],
    "free": [()],
}


def derivative_mismatch(v, v_prime, z):
    """Largest |D V - V'|/|V'| over z, D the central differences of V along
    1 and along i with step 1e-6 |z|; 0 where both are exactly 0."""
    step = 1e-6 * np.abs(z)
    along_1 = (v(z + step) - v(z - step)) / (2 * step)
    along_i = (v(z + 1j * step) - v(z - 1j * step)) / (2j * step)
    exact = v_prime(z)
    gap = np.maximum(np.abs(along_1 - exact), np.abs(along_i - exact))
    return float(np.max(gap / np.where(gap == 0, 1.0, np.abs(exact))))


def test_every_potential_builder_has_derivative_cases():
    assert sorted(POTENTIAL_ARGS) == sorted(cli._POTENTIALS)


@pytest.mark.parametrize("kind", sorted(POTENTIAL_ARGS))
def test_each_potential_derivative_is_the_complex_derivative_of_its_value(kind):
    # K and H_i read V, the flow reads V': the run assumes, and checks nowhere, that they agree
    rng = np.random.default_rng(2718)
    z = 10.0 ** rng.uniform(-1, 1, 64) * np.exp(2j * np.pi * rng.uniform(size=64))
    for args in POTENTIAL_ARGS[kind]:
        v, v_prime = cli._POTENTIALS[kind](*args)
        assert derivative_mismatch(v, v_prime, z) <= 1e-6, args


def test_the_derivative_check_reads_a_conjugated_or_wrong_derivative():
    z = np.array([0.3 + 0.4j, -2.0 + 1.0j, 5.0j])
    v, v_prime = cli._monomial(0.7 - 1.3j, 3)
    assert derivative_mismatch(v, lambda w: np.conj(v_prime(w)), z) > 0.5
    assert derivative_mismatch(v, lambda w: v_prime(w) * (1 + 1e-3), z) > 5e-4


def test_csv_of_a_record_without_curves_exits_as_input_error(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = cli.main(["--scenario", os.path.join(SCENARIO_DIR, "metric_identity.json"),
                     "--out", str(out), "--format", "csv"])
    assert code == cli.EXIT_INPUT
    assert "error: record contains no sampled curves" in capsys.readouterr().err
    assert not out.exists()


def test_csv_of_a_batch_leaves_out_records_without_curves(tmp_path):
    # batch_small's diagnose record has no curve: the batch exited 3 and wrote nothing
    out = tmp_path / "curves.csv"
    code = cli.main(["--scenario", os.path.join(SCENARIO_DIR, "batch_small.json"),
                     "--out", str(out), "--format", "csv"])
    assert code == cli.EXIT_OK
    assert out.read_text() == cli.emit_plotdata(cli.run(load("batch_small.json")[0]))


@pytest.mark.parametrize("name", sorted(os.listdir(SCENARIO_DIR)))
def test_every_committed_scenario_validates(name):
    payload = load(name)
    for config in payload if isinstance(payload, list) else [payload]:
        cli.validate_scenario(config)


# The scenario schema file this CLI once shipped, frozen: the fields that
# the handler and builder signatures declare must accept exactly this set.
FROZEN_SCHEMA = {
    "common": {
        "required": {"command": "string"},
        "optional": {"tol": "number", "strict": "boolean"},
    },
    "commands": {
        "diagnose": {"required": {"matrix": "matrix"}, "optional": {}},
        "metric": {"required": {"matrix": "matrix"},
                   "optional": {"sigma": "array", "normalize": "boolean"}},
        "hermitize": {"required": {"matrix": "matrix"}, "optional": {"eta": "matrix"}},
        "model": {"required": {"model": "object"}, "optional": {}},
        "brachistochrone": {"required": {"psi_I": "vector", "psi_F": "vector", "E": "number"},
                            "optional": {"hbar": "number", "eta": "matrix"}},
        "geometry": {"required": {"eta": "matrix"},
                     "optional": {"n_theta": "integer", "n_phi": "integer"}},
        "classical": {"required": {"potential": "object", "z0": "pair", "p0": "pair",
                                   "t_end": "number", "dt": "number"},
                      "optional": {"mass": "number", "sample_every": "integer"}},
        "em": {"required": {"profile": "object", "init": "object", "t": "number"},
               "optional": {"n_eval": "integer", "fdtd_check": "boolean"}},
    },
    "objects": {
        "model": {"tag": "kind", "variants": {
            "two_level": {"required": {"D": "number"},
                          "optional": {"r": "number", "s": "number"}},
            "swanson": {"required": {"alpha": "number", "beta": "number"},
                        "optional": {"hbar": "number", "omega": "number", "r": "number",
                                     "branch": "integer", "n_max": "integer",
                                     "truncated": "boolean"}},
            "quartic": {"required": {"lam": "number"},
                        "optional": {"omega": "number", "n": "integer", "length": "number",
                                     "n_k": "integer", "length_k": "number"}},
            "kernel": {"required": {"kind_detail": "string", "zeta": "number"},
                       "optional": {"length": "number", "kappa": "number", "mass": "number",
                                    "hbar": "number", "n": "integer", "x_min": "number",
                                    "x_max": "number"}},
        }},
        "profile": {"tag": "preset", "untagged": "sampled", "variants": {
            "vacuum": {"required": {}, "optional": {"z_min": "number", "z_max": "number"}},
            "constant": {"required": {"eps": "number"},
                         "optional": {"mu": "number", "z_min": "number", "z_max": "number"}},
            "tanh": {"required": {}, "optional": {"eps0": "number", "amp": "number",
                                                  "z_min": "number", "z_max": "number"}},
            "sampled": {"required": {"z": "array", "eps": "array", "mu": "array"},
                        "optional": {}},
        }},
        "init": {"tag": "kind", "variants": {
            "gaussian": {"required": {}, "optional": {"center": "number", "width": "number",
                                                      "amplitude": "number"}},
        }},
        "potential": {"tag": "kind", "variants": {
            "monomial": {"required": {"coeff": "pair", "power": "integer"}, "optional": {}},
            "harmonic": {"required": {"omega": "number"}, "optional": {}},
            "free": {"required": {}, "optional": {}},
        }},
    },
}

# annotation of a handler or builder parameter -> frozen schema type
SCHEMA_TYPE = {"float": "number", "int": "integer", "bool": "boolean", "str": "string",
               "list": "array", "complex": "pair", "Vector": "vector", "Matrix": "matrix",
               "Model": "object", "Profile": "object", "Init": "object", "Potential": "object"}


def _declared(fn):
    fields = cli._fields(fn)
    return {"required": {name: SCHEMA_TYPE[t] for name, (t, required) in fields.items() if required},
            "optional": {name: SCHEMA_TYPE[t] for name, (t, required) in fields.items()
                         if not required}}


# (command, field) pairs of the frozen schema that are no longer fields
REMOVED = {("metric", "normalize")}


def test_signatures_declare_the_frozen_schema():
    assert set(SCHEMA_TYPE) == set(cli._TYPES)
    frozen = {command: {part: {name: t for name, t in fields.items()
                               if (command, name) not in REMOVED}
                        for part, fields in spec.items()}
              for command, spec in FROZEN_SCHEMA["commands"].items()}
    assert {command: _declared(handler) for command, handler in cli._HANDLERS.items()} == frozen
    builders = {"model": {kind: build for kind, (build, _) in cli._MODELS.items()},
                "profile": cli._PROFILES, "init": cli._INITS, "potential": cli._POTENTIALS}
    for name, spec in FROZEN_SCHEMA["objects"].items():
        assert {tag: _declared(build) for tag, build in builders[name].items()} \
            == spec["variants"], name


def test_common_fields_match_the_frozen_schema():
    # each gate's tolerance is its own constant and em has no strict mode,
    # so no common optional field of the frozen schema is left
    assert FROZEN_SCHEMA["common"]["optional"].keys() == {"tol", "strict"}
    base = {"command": "geometry", "eta": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    _, kwargs = cli.validate_scenario(base)
    assert set(kwargs) == {"eta"}
    for bad in ({"tol": 1e-9}, {"tol": "1e-9"}, {"strict": True}):
        with pytest.raises(SchemaError, match=f"unexpected field {next(iter(bad))!r}"):
            cli.validate_scenario({**base, **bad})
    with pytest.raises(SchemaError, match="unexpected field 'normalize'"):
        cli.validate_scenario({"command": "metric", "matrix": TWO_LEVEL_A, "normalize": True})
    with pytest.raises(SchemaError, match=re.escape(
            f"expected one of {sorted(FROZEN_SCHEMA['commands'])}")):
        cli.validate_scenario({"eta": base["eta"]})


@pytest.mark.parametrize("name", sorted(FROZEN_SCHEMA["objects"]))
def test_nested_objects_are_selected_by_their_frozen_tag(name):
    spec = FROZEN_SCHEMA["objects"][name]
    build = cli._TYPES[name.capitalize()][1]
    known = sorted(spec["variants"])
    with pytest.raises(SchemaError, match=re.escape(
            f"unknown {name} {spec['tag']} 'nope'; expected one of {known}")):
        build({spec["tag"]: "nope"})
    if "untagged" in spec:
        untagged = spec["variants"][spec["untagged"]]["required"]
        with pytest.raises(SchemaError, match=f"{name} {spec['untagged']!r} requires"):
            build({key: None for key in list(untagged)[1:]})


DELTA_KERNEL = {"command": "model",
                "model": {"kind": "kernel", "kind_detail": "delta", "zeta": 0.3}}


def test_run_records_its_warnings():
    record = cli.run(DELTA_KERNEL)
    assert any("first-order kernel correction" in text and "is large" in text
               for text in record["warnings"])
    assert json.loads(json.dumps(record))["warnings"] == record["warnings"]
    assert cli.run(load("two_level.json"))["warnings"] == []


def test_warning_filters_set_to_error_still_raise():
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        with pytest.raises(UserWarning, match="first-order kernel"):
            cli.run(DELTA_KERNEL)


def test_batch_warnings_stay_with_their_scenario(tmp_path, capsys):
    # each record keeps its own warnings, and the filters and hook are
    # restored afterwards
    path, out = tmp_path / "batch.json", tmp_path / "out.json"
    path.write_text(json.dumps([DELTA_KERNEL, load("two_level.json"), DELTA_KERNEL]))
    filters, hook = list(warnings.filters), warnings.showwarning
    cli.main(["--scenario", str(path), "--out", str(out)])
    records = json.loads(out.read_text())
    assert [len(r["warnings"]) for r in records] == [1, 0, 1]
    assert warnings.filters == filters and warnings.showwarning is hook
    assert capsys.readouterr().err.count("warning: first-order kernel correction") == 2


@pytest.mark.parametrize(
    "model",
    [
        {"kind_detail": "square_well", "zeta": 0.08, "length": 1.0},
        {"kind_detail": "barrier", "zeta": 0.08, "length": 0.5},
        {"kind_detail": "delta", "zeta": 0.05, "kappa": 0.5},
    ],
)
def test_kernel_default_grid_size_is_the_default(model):
    # stating the default n must not move the kind-dependent grid
    base = {"command": "model", "model": {"kind": "kernel", **model}}
    explicit = {"command": "model", "model": {"kind": "kernel", "n": 400, **model}}
    implicit_record = cli.run(base)
    explicit_record = cli.run(explicit)
    for key in ("scalars", "matrices", "residuals", "all_pass"):
        assert explicit_record[key] == implicit_record[key], key


@pytest.mark.parametrize("kind_detail, zeta", [("delta", 0.3), ("barrier", 0.08)])
def test_kernel_order_holds_on_an_off_centre_box(kind_detail, zeta):
    # packets centred on 0 instead of the box centre fitted order 1.00 on [-1, 3]
    record = cli.run({"command": "model", "model": {
        "kind": "kernel", "kind_detail": kind_detail, "zeta": zeta, "x_min": -1.0, "x_max": 3.0}})
    assert abs(record["scalars"]["fitted_order"] - 2.0) <= 0.3
    assert record["all_pass"] is True


def _no_constant(name):
    raise ValueError(f"record holds a bare {name}")


def test_zero_coupling_kernel_exits_as_input_error_with_valid_json(tmp_path, capsys):
    # the order fit divided 0 by 0, wrote a bare NaN and exited 2
    path, out = tmp_path / "case.json", tmp_path / "out.json"
    path.write_text(json.dumps({"command": "model", "model": {
        "kind": "kernel", "kind_detail": "barrier", "zeta": 0.0}}))
    assert cli.main(["--scenario", str(path), "--out", str(out)]) == cli.EXIT_INPUT
    record = json.loads(out.read_text(), parse_constant=_no_constant)
    assert record["error"]["class"] == "input"
    assert "zeta must be nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("kind_detail", ["barrier", "delta", "square_well"])
def test_an_overflowing_kernel_residual_exits_as_input_error(kind_detail, tmp_path, capsys):
    # at zeta = 1e300 the residuals are not finite on every kind
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"command": "model", "model": {
        "kind": "kernel", "kind_detail": kind_detail, "zeta": 1e300}}))
    code = cli.main(["--scenario", str(path), "--out", str(tmp_path / "out.json")])
    assert code == cli.EXIT_INPUT
    assert "leave the order undefined" in capsys.readouterr().err


def _stated_defaults(kind):
    """Every optional model field of ``kind`` at its library default."""
    if kind == "quartic":
        params = models.QuarticParams(0.0625)
        return {name: getattr(params, name) for name in params._fields}
    if kind == "swanson":
        params = models.SwansonParams(alpha=0.1, beta=0.05)
        stated = {"hbar": params.hbar, "omega": params.omega}
        for fn in (models.swanson_metric, models.swanson_truncated):
            stated |= {name: p.default for name, p in inspect.signature(fn).parameters.items()
                       if p.default is not inspect.Parameter.empty}
        return stated
    spec = models.KernelPotentialSpec("delta", 0.05)
    return {"length": spec.length, "kappa": spec.kappa, "mass": spec.mass,
            "hbar": spec.hbar, "n": spec.n, "x_min": spec.x_min, "x_max": spec.x_max}


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "quartic", "lam": 0.0625},
        {"kind": "swanson", "alpha": 0.1, "beta": 0.05, "truncated": True},
        {"kind": "kernel", "kind_detail": "delta", "zeta": 0.05},
    ],
    ids=["quartic", "swanson", "kernel"],
)
def test_stating_the_defaults_changes_nothing(model):
    # the defaults live in the model records and signatures alone
    stated = {"command": "model", "model": {**model, **_stated_defaults(model["kind"])}}
    assert len(stated["model"]) > len(model)
    cli.validate_scenario(stated)
    implicit_record = cli.run({"command": "model", "model": model})
    explicit_record = cli.run(stated)
    for key in ("scalars", "matrices", "residuals", "all_pass"):
        assert explicit_record[key] == implicit_record[key], key



@pytest.mark.parametrize("lowest, passes", [(0.5, True), (1e-17, False), (0.0, False), (-0.5, False)])
def test_quartic_positivity_gate_is_the_margin_of_the_lowest_level(lowest, passes, monkeypatch):
    # the gate recorded 0 or 1; it now records how far h's lowest level
    # sits above 0, relative to the largest, and fails at or below rounding
    levels = np.array([lowest, 1.0, 2.0])
    pair = models.QuarticPair(np.eye(3), np.zeros(3), np.zeros(3), levels.astype(complex),
                              levels, 0.0)
    monkeypatch.setattr(models, "quartic_pair", lambda params: pair)
    record = cli.run({"command": "model", "model": {"kind": "quartic", "lam": 0.0625}})
    gate = {r["name"]: r for r in record["residuals"]}["negated_positivity_margin"]
    assert gate["value"] == -lowest / 2.0
    assert gate["pass"] is passes
    assert record["all_pass"] is passes

_RUN_WITHOUT_SCIPY = """
import json, os, sys
import phqm.cli
scenario_dir, out_dir = sys.argv[1], sys.argv[2]
codes = {}
for name in sorted(os.listdir(scenario_dir)):
    if name in ("kernel_barrier.json", "quartic.json"):
        continue
    codes[name] = phqm.cli.main(["--scenario", os.path.join(scenario_dir, name),
                                 "--out", os.path.join(out_dir, name)])
scipy_modules = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy_modules}))
"""


def test_runtime_imports_no_scipy(tmp_path):
    # kernel_barrier and quartic are the two slow scenarios; their code
    # sits in phqm.models, which every launch imports anyway
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_SCIPY, SCENARIO_DIR, str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert len(result["codes"]) == 12
    assert set(result["codes"].values()) == {cli.EXIT_OK}
    assert result["scipy"] == []


def test_the_package_exposes_only_its_submodules():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, phqm; print(json.dumps([n for n in dir(phqm) if not n.startswith('_')]))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["biortho", "classical", "em", "errors", "linalg", "metric",
                                       "models", "perturbation", "statespace"]
