"""Command-line front end: scenario ingestion, dispatch, result records.

Scenario files are JSON (single object or list for a batch).  Complex
scalars are serialized as [re, im] pairs and matrices row-major, so the
records round-trip bit-for-bit through json.  Exit codes: 0 all residual
checks pass, 2 residual failure, 3 input error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from importlib import resources

import numpy as np

from . import biortho, em, linalg, metric, models, statespace
from .classical import ComplexPhasePoint, flow, real_hamiltonians, to_darboux
from .errors import NothingToPlotError, PhqmError, SchemaError

EXIT_OK = 0
EXIT_RESIDUAL = 2
EXIT_INPUT = 3


# ----------------------------------------------------------------------
# (de)serialization
# ----------------------------------------------------------------------

def _load_schema() -> dict:
    with resources.files("phqm").joinpath("scenario_schema.json").open() as fh:
        return json.load(fh)


def parse_complex(pair) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise SchemaError(f"complex scalar must be a [re, im] pair, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def parse_vector(data) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise SchemaError("vector must be a non-empty list of [re, im] pairs")
    return np.array([parse_complex(p) for p in data], dtype=complex)


def parse_matrix(data) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise SchemaError("matrix must be a non-empty list of rows")
    rows = [parse_vector(row) for row in data]
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise SchemaError("matrix rows have unequal lengths")
    return np.vstack(rows)


def encode_complex(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def encode_vector(v) -> list:
    return encode_matrix(np.ravel(v))


def encode_matrix(m) -> list:
    """[re, im] pairs in the array's own shape, as Python floats."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "vector": lambda v: isinstance(v, list),
    "matrix": lambda v: isinstance(v, list),
    "pair": lambda v: isinstance(v, list) and len(v) == 2,
}


def _check_fields(fields: dict, required: dict, allowed: dict, owner: str) -> None:
    for key in required:
        if key not in fields:
            raise SchemaError(f"{owner} requires field {key!r}")
    for key, value in fields.items():
        if key not in allowed:
            raise SchemaError(f"unexpected field {key!r} for {owner}")
        if not _TYPE_CHECKS[allowed[key]](value):
            raise SchemaError(f"field {key!r} must have type {allowed[key]}")


def validate_scenario(config: dict, schema: dict | None = None) -> None:
    """Validate a scenario dict against the shipped schema."""
    schema = schema or _load_schema()
    if not isinstance(config, dict):
        raise SchemaError("scenario must be a JSON object")
    command = config.get("command")
    if not isinstance(command, str) or command not in schema["commands"]:
        raise SchemaError(
            f"unknown or missing command {command!r}; "
            f"expected one of {sorted(schema['commands'])}"
        )
    spec = schema["commands"][command]
    allowed = dict(spec["required"]) | dict(spec["optional"])
    allowed |= dict(schema["common"]["required"]) | dict(schema["common"]["optional"])
    _check_fields(config, spec["required"], allowed, f"command {command!r}")
    for name, spec in schema["objects"].items():
        if name in config:
            _check_tagged(config[name], spec, name)


def _check_tagged(fields: dict, spec: dict, owner: str) -> None:
    """Check a nested object whose tag field (kind, preset) selects its fields."""
    fields = dict(fields)
    tag = fields.pop(spec["tag"], spec.get("untagged"))
    if not isinstance(tag, str) or tag not in spec["variants"]:
        raise SchemaError(f"unknown {owner} {spec['tag']} {tag!r}")
    variant = spec["variants"][tag]
    allowed = dict(variant["required"]) | dict(variant["optional"])
    _check_fields(fields, variant["required"], allowed, f"{owner} {tag!r}")


# ----------------------------------------------------------------------
# residual bookkeeping
# ----------------------------------------------------------------------

class Residuals:
    def __init__(self):
        self.entries = []

    def add(self, name: str, value: float, tolerance: float):
        self.entries.append(
            {
                "name": name,
                "value": float(value),
                "tolerance": float(tolerance),
                "pass": bool(value <= tolerance),
            }
        )

    @property
    def all_pass(self) -> bool:
        return all(e["pass"] for e in self.entries)


# ----------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------

def _run_diagnose(config, tol, record, res):
    a = parse_matrix(config["matrix"])
    dec = linalg.eig_nonhermitian(a, tol=tol, check=False)
    record["scalars"]["condition"] = dec.condition
    record["scalars"]["diagonalizable"] = dec.diagonalizable
    record["matrices"]["eigenvalues"] = encode_vector(dec.values)
    record["matrices"]["right_vectors"] = encode_matrix(dec.right_vectors)
    residual = linalg.opnorm(a @ dec.right_vectors - dec.right_vectors * dec.values[None, :])
    res.add("eigenpair_residual", residual / max(linalg.opnorm(a), 1e-300), 100 * tol)
    record["scalars"]["spectrum_real"] = bool(
        np.all(np.abs(dec.values.imag) <= 1e-9 * max(1.0, np.abs(dec.values).max()))
    )


def _run_metric(config, tol, record, res):
    a = parse_matrix(config["matrix"])
    dec = linalg.eig_nonhermitian(a)
    bs = biortho.biorthonormal_extension(dec)
    normalize = bool(config.get("normalize", False))
    if "sigma" in config:
        pm = metric.pseudo_metric_family(bs, config["sigma"], normalize=normalize)
        eta = pm.eta
        record["matrices"]["eta"] = encode_matrix(eta)
    else:
        mo = metric.metric_from_spectrum(bs, normalize=normalize)
        eta = mo.eta
        record["matrices"]["eta_plus"] = encode_matrix(eta)
        res.add("eta_min_eigenvalue_margin", 0.0 if np.linalg.eigvalsh(eta).min() > 0 else 1.0, 0.5)
    res.add("pseudo_hermiticity", metric.pseudo_hermiticity_residual(a, eta), max(tol, 1e-9))
    completeness = linalg.opnorm(bs.psis @ np.conj(bs.phis.T) - np.eye(bs.dim))
    res.add("biorthonormal_completeness", completeness, max(tol, 1e-9))


def _run_hermitize(config, tol, record, res):
    a = parse_matrix(config["matrix"])
    if "eta" in config:
        eta = parse_matrix(config["eta"])
    else:
        dec = linalg.eig_nonhermitian(a)
        eta = metric.metric_from_spectrum(biortho.biorthonormal_extension(dec)).eta
    sys_ = metric.build_system(a, metric.MetricOperator(eta), tol=max(tol, 1e-8))
    record["matrices"]["eta_plus"] = encode_matrix(eta)
    record["matrices"]["rho"] = encode_matrix(sys_.rho)
    record["matrices"]["h"] = encode_matrix(sys_.h)
    res.add(
        "h_hermiticity",
        linalg.opnorm(sys_.h - np.conj(sys_.h.T)) / max(linalg.opnorm(sys_.h), 1e-300),
        max(tol, 1e-9),
    )
    spec_h = np.sort(np.linalg.eigvalsh(sys_.h))
    spec_a = np.sort(np.linalg.eigvals(a).real)
    res.add(
        "isospectrality",
        float(np.max(np.abs(spec_h - spec_a)) / max(np.abs(spec_a).max(), 1e-300)),
        max(tol, 1e-8),
    )


def _take(fields: dict, *keys) -> dict:
    """Pop the given keys that ``fields`` sets; defaults stay in the models."""
    return {key: fields.pop(key) for key in keys if key in fields}


def _run_model(config, tol, record, res):
    mspec = dict(config["model"])
    kind = mspec.pop("kind")
    if kind == "two_level":
        m = models.two_level(models.TwoLevelParams(**mspec))
        for name, mat in [
            ("A", m.A), ("eta_plus", m.eta_plus), ("eta_general", m.eta_general),
            ("h", m.h), ("C", m.C), ("S", m.S),
        ]:
            record["matrices"][name] = encode_matrix(mat)
        res.add("pseudo_hermiticity", metric.pseudo_hermiticity_residual(m.A, m.eta_plus), max(tol, 1e-10))
        res.add("charge_squares_to_identity", linalg.opnorm(m.C @ m.C - np.eye(2)), max(tol, 1e-10))
    elif kind == "swanson":
        truncated = mspec.pop("truncated", False)
        size = _take(mspec, "n_max")
        call = _take(mspec, "r", "branch")
        params = models.SwansonParams(**mspec)
        sm = models.swanson_metric(params, **call)
        record["scalars"]["z"] = encode_complex(sm.z)
        record["scalars"]["w"] = sm.w
        record["matrices"]["eta_2x2"] = encode_matrix(sm.eta_2x2)
        res.add("matrix_identity_residual", sm.residual, 1e-12)
        if truncated:
            sys_ = models.swanson_truncated(params, **call, **size)
            eH = np.sort(np.linalg.eigvals(sys_.H).real)[:5]
            eh = np.sort(np.linalg.eigvalsh(sys_.h))[:5]
            record["matrices"]["low_spectrum_H"] = encode_vector(eH.astype(complex))
            record["matrices"]["low_spectrum_h"] = encode_vector(eh.astype(complex))
            res.add(
                "h_hermiticity",
                linalg.opnorm(sys_.h - np.conj(sys_.h.T)) / max(linalg.opnorm(sys_.h), 1e-300),
                1e-9,
            )
            res.add("low_spectrum_match", float(np.max(np.abs(eH - eh) / np.abs(eH))), 1e-6)
    elif kind == "quartic":
        params = models.QuarticParams(**mspec)
        qp = models.quartic_pair(params, n_lowest=5)
        record["matrices"]["spectrum_H"] = encode_vector(qp.spectrum_H)
        record["matrices"]["spectrum_h"] = encode_vector(qp.spectrum_h.astype(complex))
        record["scalars"]["tail"] = qp.tail
        rel = np.max(np.abs(qp.spectrum_H.real - qp.spectrum_h) / np.abs(qp.spectrum_h))
        res.add("dual_discretization_match", float(rel), 1e-4)
        if params.omega == 0.0:
            res.add(
                "spectrum_positivity_margin",
                0.0 if np.all(qp.spectrum_h > 0) else 1.0, 0.5,
            )
    elif kind == "kernel":
        grid_fields = _take(mspec, "n", "x_min", "x_max")
        spec = models.KernelPotentialSpec(mspec.pop("kind_detail"), **mspec)
        grid = models.kernel_grid(spec, **grid_fields)
        out = models.kernel_metric(spec, grid)
        record["scalars"].update(out.residual_report)
        record["matrices"]["eta"] = encode_matrix(out.eta_matrix)
        herm = float(np.max(np.abs(out.eta_matrix - np.conj(out.eta_matrix.T))))
        res.add("kernel_hermiticity", herm, 1e-14)
        if spec.kind in ("barrier", "delta"):
            res.add(
                "residual_order_deviation",
                abs(out.residual_report["fitted_order"] - 2.0), 0.3,
            )
    else:
        raise SchemaError(f"unknown model kind {kind!r}")


def _run_brachistochrone(config, tol, record, res):
    psi_i = parse_vector(config["psi_I"])
    psi_f = parse_vector(config["psi_F"])
    eta = parse_matrix(config["eta"]) if "eta" in config else None
    prob = statespace.BrachistochroneProblem(
        psi_i, psi_f, float(config["E"]), float(config.get("hbar", 1.0)), eta
    )
    opt = statespace.optimal_hamiltonian(prob)
    record["scalars"]["tau_min"] = opt.tau_min
    record["scalars"]["distance"] = opt.distance
    record["matrices"]["H_star"] = encode_matrix(opt.H_star)
    evals = np.sort(np.linalg.eigvals(opt.H_star).real)
    res.add(
        "eigenvalue_pinning",
        float(np.max(np.abs(np.sort(np.abs(evals)) - prob.energy)) / prob.energy),
        max(tol, 1e-9),
    )
    final = statespace.evolve(opt.H_star, psi_i, opt.tau_min, prob.hbar)
    fidelity = statespace.projective_fidelity(final, psi_f, eta)
    record["scalars"]["fidelity"] = fidelity
    res.add("fidelity_deficit", 1.0 - fidelity, 1e-8)
    de = statespace.energy_uncertainty(opt.H_star, psi_i, eta)
    res.add("uncertainty_saturation", abs(de - prob.energy) / prob.energy, max(tol, 1e-9))
    ts = np.linspace(0.0, opt.tau_min, 33)
    rows = []
    for t in ts:
        psi_t = statespace.evolve(opt.H_star, psi_i, t, prob.hbar)
        rows.append([t, statespace.projective_fidelity(psi_t, psi_f, eta)])
    record["curves"]["trajectory"] = {"columns": ["t", "fidelity"], "rows": rows}


def _run_geometry(config, tol, record, res):
    eta = parse_matrix(config["eta"])
    geo = statespace.two_level_geometry(eta)
    record["scalars"].update(
        {"k1": geo.k1, "k2": geo.k2, "k3": geo.k3, "beta": geo.beta}
    )
    n_t = int(config.get("n_theta", 13))
    n_p = int(config.get("n_phi", 25))
    rows = []
    for theta in np.linspace(0.0, np.pi, n_t):
        for phi in np.linspace(0.0, 2.0 * np.pi, n_p):
            rows.append([theta, phi, float(geo.conformal_factor(theta, phi))])
    record["curves"]["line_element"] = {"columns": ["theta", "phi", "ds2_factor"], "rows": rows}
    res.add("k1_positive_margin", 0.0 if geo.k1 > 0 else 1.0, 0.5)


def _potential_from_config(pot: dict):
    kind = pot["kind"]
    if kind == "monomial":
        coeff = parse_complex(pot["coeff"])
        power = pot["power"]
        return lambda z: coeff * z**power, lambda z: coeff * power * z ** (power - 1)
    if kind == "harmonic":
        w = float(pot["omega"])
        return lambda z: 0.5 * w**2 * z**2, lambda z: w**2 * z
    return lambda z: 0.0 * z, lambda z: 0.0 * z


def _run_classical(config, tol, record, res):
    v, v_prime = _potential_from_config(config["potential"])
    mass = float(config.get("mass", 1.0))
    s0 = ComplexPhasePoint(parse_complex(config["z0"]), parse_complex(config["p0"]))
    traj = flow(v_prime, mass, s0, float(config["t_end"]), float(config["dt"]),
                sample_every=int(config.get("sample_every", 10)))
    ks, his = [], []
    for z, p in zip(traj.z, traj.p):
        vals = real_hamiltonians(v, to_darboux(ComplexPhasePoint(z, p)), mass)
        ks.append(vals["K"])
        his.append(vals["H_i"])
    ks = np.array(ks)
    his = np.array(his)
    scale = max(np.abs(ks).max(), 1.0)
    res.add("K_drift", float(np.ptp(ks)) / scale, max(tol, 1e-8))
    res.add("H_i_drift", float(np.ptp(his)) / scale, max(tol, 1e-8))
    rows = [
        [t, z.real, z.imag, k, hi]
        for t, z, k, hi in zip(traj.times, traj.z, ks, his)
    ]
    record["curves"]["trajectory"] = {
        "columns": ["t", "re_z", "im_z", "K", "H_i"],
        "rows": rows,
    }


def _profile_from_config(pconf: dict) -> em.MediumProfile:
    preset = pconf.get("preset", "sampled")
    z_min, z_max = pconf.get("z_min", -10.0), pconf.get("z_max", 10.0)
    if preset == "vacuum":
        return em.vacuum(z_min, z_max)
    if preset == "constant":
        return em.constant_medium(float(pconf["eps"]), float(pconf.get("mu", 1.0)), z_min, z_max)
    if preset == "tanh":
        eps0 = float(pconf.get("eps0", 1.0))
        amp = float(pconf.get("amp", 0.1))
        return em.MediumProfile(
            lambda z: eps0 + amp * np.tanh(np.asarray(z, dtype=float)),
            lambda z: np.ones_like(np.asarray(z, dtype=float)),
            z_min, z_max,
        )
    return em.sampled_profile(pconf["z"], pconf["eps"], pconf["mu"])


def _run_em(config, tol, record, res):
    profile = _profile_from_config(config["profile"])
    init_conf = config["init"]
    init = em.gaussian_pulse(
        float(init_conf.get("center", 0.0)), float(init_conf.get("width", 0.5)),
        float(init_conf.get("amplitude", 1.0)),
    )
    t = float(config["t"])
    n_eval = int(config.get("n_eval", 400))
    z_eval = np.linspace(profile.z_min, profile.z_max, n_eval)
    field = em.propagate(profile, init, z_eval, t, strict=bool(config.get("strict", False)))
    record["curves"]["snapshot"] = {
        "columns": ["z", "E"],
        "rows": [[float(z), float(e)] for z, e in zip(z_eval, field)],
    }
    z_op = np.linspace(profile.z_min, profile.z_max, 220)
    omega2 = em.wave_operator(profile, z_op)
    eps_diag = np.asarray(profile.eps_at(z_op), dtype=float)
    lhs = eps_diag[:, None] * omega2
    res.add(
        "omega2_eps_pseudo_hermiticity",
        linalg.opnorm(lhs - np.conj(lhs.T)) / max(linalg.opnorm(lhs), 1e-300),
        1e-10,
    )
    if config.get("fdtd_check", False):
        width = float(init_conf.get("width", 0.5))
        diag = profile.slow_variation_diagnostic(width)
        record["scalars"]["slow_variation_diagnostic"] = diag
        oracle = em.fdtd_oracle(profile, init, t, n=3000)
        closed = em.propagate(profile, init, oracle.z, t)
        err = np.linalg.norm(closed - oracle.fields[-1]) / max(
            np.linalg.norm(oracle.fields[-1]), 1e-300
        )
        record["scalars"]["fdtd_l2_error"] = float(err)
        if diag < 0.05:
            res.add("closed_form_vs_fdtd", float(err), 1e-2)


_capture = threading.local()
_capture_lock = threading.Lock()
_capture_state = {"users": 0}


@contextmanager
def _collect_warnings():
    """Collect the messages of the warnings this thread raises into a list.

    The warnings filters and hook are process-wide, so the concurrent runs
    of a batch share one installation: the first run to enter installs it
    and the last to leave restores what was there.  Warnings raised by a
    thread that is not collecting pass through to the previous hook.
    """
    with _capture_lock:
        if _capture_state["users"] == 0:
            saved = warnings.catch_warnings()
            saved.__enter__()
            # ignore and error filters stand; a warning shown once per
            # location would be lost to every later run, so show it each time
            warnings.filters[:] = [("always", *f[1:]) if f[0] in ("default", "module", "once")
                                   else f for f in warnings.filters]
            warnings.simplefilter("always", append=True)
            passthrough = warnings.showwarning

            def show(message, *args, **kwargs):
                sink = getattr(_capture, "sink", None)
                if sink is None:
                    passthrough(message, *args, **kwargs)
                else:
                    sink.append(str(message))

            warnings.showwarning = show
            _capture_state["saved"] = saved
        _capture_state["users"] += 1
    _capture.sink = sink = []
    try:
        yield sink
    finally:
        _capture.sink = None
        with _capture_lock:
            _capture_state["users"] -= 1
            if _capture_state["users"] == 0:
                _capture_state.pop("saved").__exit__(None, None, None)


_HANDLERS = {
    "diagnose": _run_diagnose,
    "metric": _run_metric,
    "hermitize": _run_hermitize,
    "model": _run_model,
    "brachistochrone": _run_brachistochrone,
    "geometry": _run_geometry,
    "classical": _run_classical,
    "em": _run_em,
}


def run(config: dict, tol: float | None = None) -> dict:
    """Execute one validated scenario and return its result record."""
    validate_scenario(config)
    started = time.perf_counter()
    record = {
        "command": config["command"],
        "inputs": config,
        "scalars": {},
        "matrices": {},
        "curves": {},
    }
    res = Residuals()
    effective_tol = float(tol if tol is not None else config.get("tol", 1e-10))
    with _collect_warnings() as caught:
        _HANDLERS[config["command"]](config, effective_tol, record, res)
    record["warnings"] = caught
    record["residuals"] = res.entries
    record["all_pass"] = res.all_pass
    record["timing_s"] = time.perf_counter() - started
    return record


def emit_plotdata(record: dict, kind: str | None = None) -> str:
    """Render one of the record's sampled curves as headered CSV."""
    curves = record.get("curves") or {}
    if not curves:
        raise NothingToPlotError("record contains no sampled curves")
    if kind is None:
        kind = sorted(curves)[0]
    if kind not in curves:
        raise NothingToPlotError(f"no curve named {kind!r}; have {sorted(curves)}")
    curve = curves[kind]
    buf = io.StringIO()
    buf.write(",".join(curve["columns"]) + "\n")
    for row in curve["rows"]:
        buf.write(",".join(repr(float(v)) for v in row) + "\n")
    return buf.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phqm-kit",
        description="pseudo-Hermitian quantum mechanics toolkit",
    )
    parser.add_argument("--scenario", required=True, help="path to a JSON scenario (object or list)")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--tol", type=float, default=None, help="override residual tolerance")
    parser.add_argument("--strict", action="store_true", help="domain errors are fatal")
    args = parser.parse_args(argv)

    try:
        with open(args.scenario) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_INPUT

    scenarios = payload if isinstance(payload, list) else [payload]
    if args.strict:
        for sc in scenarios:
            if isinstance(sc, dict):
                sc["strict"] = True

    max_workers = max(1, int(os.environ.get("PHQM_THREADS", "4")))

    def _one(sc):
        return run(sc, tol=args.tol)

    try:
        if len(scenarios) == 1:
            records = [_one(scenarios[0])]
        else:
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                records = list(pool.map(_one, scenarios))
    except SchemaError as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (PhqmError, ValueError, KeyError, np.linalg.LinAlgError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT

    for record in records:
        for text in record["warnings"]:
            print(f"warning: {text}", file=sys.stderr)
    output = records[0] if len(records) == 1 else records
    if args.format == "json":
        text = json.dumps(output, indent=2)
    else:
        try:
            text = "".join(emit_plotdata(r) for r in records)
        except NothingToPlotError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)

    return EXIT_OK if all(r["all_pass"] for r in records) else EXIT_RESIDUAL


if __name__ == "__main__":
    sys.exit(main())
