"""Command-line front end: scenario ingestion, dispatch, result records.

Scenario files are JSON (single object or list for a batch).  A scenario
names its ``command``; its other fields are the annotated keyword
parameters of the command's handler below, and a nested object's fields
are those of the builder its tag (``kind``, ``preset``) selects.  Each
gate's tolerance is a constant of that gate, recorded with its value in
the record's ``residuals``.  Complex scalars are serialized as [re, im]
pairs and matrices row-major, so the records round-trip bit-for-bit
through json.  Exit codes, first match wins: 3 an input error, 4 a domain
error, 2 a failed residual check, 0 all pass.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import io
import json
import sys
import time
import warnings

import numpy as np

from . import biortho, em, linalg, metric, models, statespace
from .classical import ComplexPhasePoint, flow, real_hamiltonians, to_darboux
from .errors import InputError, PhqmError, SchemaError

EXIT_OK = 0
EXIT_RESIDUAL = 2
EXIT_INPUT = 3
EXIT_DOMAIN = 4


# ----------------------------------------------------------------------
# (de)serialization
# ----------------------------------------------------------------------

def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_complex(pair) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_is_number, pair))):
        raise SchemaError(f"complex scalar must be a [re, im] pair of numbers, got {pair!r}")
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


# ----------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------

# Field types that handlers and builders annotate their parameters with,
# named for what the parameter receives (see _TYPES for the JSON side).
Vector = Matrix = np.ndarray
Profile, Init, Potential, Model = em.MediumProfile, em.InitialFields, tuple, functools.partial


class _Output:
    """What a handler writes: its record's scalars, matrices, curves and
    gated residuals."""

    def __init__(self):
        self.scalars, self.matrices, self.curves, self.residuals = {}, {}, {}, []

    def gate(self, name: str, value: float, tolerance: float):
        self.residuals.append({"name": name, "value": float(value),
                               "tolerance": float(tolerance), "pass": bool(value <= tolerance)})


def _given(**fields) -> dict:
    """The fields a scenario set; those it left out keep the library defaults."""
    return {name: value for name, value in fields.items() if value is not None}


def _run_diagnose(out, *, matrix: Matrix):
    dec = linalg.eig_nonhermitian(matrix, check=False)
    out.scalars["condition"] = dec.condition
    out.scalars["diagonalizable"] = dec.diagonalizable
    out.matrices["eigenvalues"] = encode_vector(dec.values)
    out.matrices["right_vectors"] = encode_matrix(dec.right_vectors)
    residual = linalg.opnorm(matrix @ dec.right_vectors - dec.right_vectors * dec.values[None, :])
    out.gate("eigenpair_residual", residual / max(linalg.opnorm(matrix), 1e-300), 1e-8)
    real = biortho._match_conjugate_pairs(dec.values) == np.arange(dec.dim)
    out.scalars["spectrum_real"] = bool(np.all(real))


def _run_metric(out, *, matrix: Matrix, sigma: list | None = None):
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(matrix))
    if sigma is not None:
        eta = metric.pseudo_metric_family(bs, sigma).eta
        out.matrices["eta"] = encode_matrix(eta)
    else:
        eta = metric.metric_from_spectrum(bs).eta
        out.matrices["eta_plus"] = encode_matrix(eta)
        metric.positive_metric(eta)
    out.gate("pseudo_hermiticity", metric.pseudo_hermiticity_residual(matrix, eta), 1e-9)
    completeness = linalg.opnorm(bs.psis @ np.conj(bs.phis.T) - np.eye(bs.dim))
    out.gate("biorthonormal_completeness", completeness, 1e-9)


def _run_hermitize(out, *, matrix: Matrix, eta: Matrix | None = None):
    if eta is None:
        dec = linalg.eig_nonhermitian(matrix)
        eta = metric.metric_from_spectrum(biortho.biorthonormal_extension(dec)).eta
    sys_ = metric.build_system(matrix, eta)
    out.matrices["eta_plus"] = encode_matrix(eta)
    out.matrices["rho"] = encode_matrix(sys_.rho)
    out.matrices["h"] = encode_matrix(sys_.h)
    # h = rho A rho^-1 is not symmetrized, so its Hermiticity can fail
    h_anti = linalg.opnorm(sys_.h - np.conj(sys_.h.T)) / max(linalg.opnorm(sys_.h), 1e-300)
    out.gate("h_hermiticity", h_anti, 1e-9)
    spec_h = np.sort(np.linalg.eigvalsh(sys_.h))
    spec_a = np.sort(np.linalg.eigvals(matrix).real)
    out.gate(
        "isospectrality",
        float(np.max(np.abs(spec_h - spec_a)) / max(np.abs(spec_a).max(), 1e-300)),
        1e-8,
    )


def _run_model(out, *, model: Model):
    model(out)


def _two_level(params, out):
    m = models.two_level(params)
    for name in ("A", "eta_plus", "eta_general", "h", "C", "S"):
        out.matrices[name] = encode_matrix(getattr(m, name))
    out.gate("pseudo_hermiticity", metric.pseudo_hermiticity_residual(m.A, m.eta_plus), 1e-10)
    out.gate("charge_squares_to_identity", linalg.opnorm(m.C @ m.C - np.eye(2)), 1e-10)


def _swanson_case(alpha: float, beta: float, hbar: float | None = None,
                  omega: float | None = None, r: float | None = None,
                  branch: int | None = None, n_max: int | None = None,
                  truncated: bool = False):
    """Swanson parameters, the metric's arguments and, when truncated, the
    truncation's arguments."""
    if n_max is not None and not truncated:
        raise InputError("n_max sets the truncation, so it needs truncated: true")
    params = models.SwansonParams(alpha=alpha, beta=beta, **_given(hbar=hbar, omega=omega))
    return params, _given(r=r, branch=branch), _given(n_max=n_max) if truncated else None


def _swanson(case, out):
    params, call, truncation = case
    sm = models.swanson_metric(params, **call)
    out.scalars["z"] = encode_complex(sm.z)
    out.scalars["w"] = sm.w
    out.matrices["eta_2x2"] = encode_matrix(sm.eta_2x2)
    out.gate("matrix_identity_residual", sm.residual, 1e-12)
    if truncation is not None:
        sys_ = models.swanson_truncated(params, **call, **truncation)
        eH = np.sort(np.linalg.eigvals(sys_.H).real)[:5]
        eh = np.sort(np.linalg.eigvalsh(sys_.h))[:5]
        out.matrices["low_spectrum_H"] = encode_vector(eH.astype(complex))
        out.matrices["low_spectrum_h"] = encode_vector(eh.astype(complex))
        out.gate("low_spectrum_match", float(np.max(np.abs(eH - eh) / np.abs(eH))), 1e-6)


def _quartic(params, out):
    qp = models.quartic_pair(params)
    out.matrices["spectrum_H"] = encode_vector(qp.spectrum_H)
    out.matrices["spectrum_h"] = encode_vector(qp.spectrum_h.astype(complex))
    out.scalars["tail"] = qp.tail
    rel = np.max(np.abs(qp.spectrum_H.real - qp.spectrum_h) / np.abs(qp.spectrum_h))
    out.gate("dual_discretization_match", float(rel), 1e-4)
    if params.omega == 0.0:
        # h's lowest level over its largest, negated as gates pass at or below
        # their tolerance; it must clear a rounding unit of the largest
        margin = qp.spectrum_h.min() / np.abs(qp.spectrum_h).max()
        out.gate("negated_positivity_margin", -margin, -np.finfo(float).eps)


def _kernel_case(kind_detail: str, zeta: float, length: float | None = None,
                 kappa: float | None = None, mass: float | None = None,
                 hbar: float | None = None, n: int | None = None,
                 x_min: float | None = None, x_max: float | None = None):
    """Kernel potential on its grid."""
    return models.KernelPotentialSpec(kind_detail, zeta, **_given(
        length=length, kappa=kappa, mass=mass, hbar=hbar, n=n, x_min=x_min, x_max=x_max))


def _kernel(spec, out):
    if not np.any(models.potential_on_grid(spec).imag):  # only rounding would be left to fit
        raise InputError("the potential's imaginary part vanishes on every grid node: zeta must "
                         "be nonzero and the grid fine enough to resolve the potential")
    result = models.kernel_metric(spec)
    report = result.residual_report
    if not np.isfinite(report["fitted_order"]):  # the residuals overflow
        raise InputError(f"residuals {report['residual_zeta']:.3e} at zeta and "
                         f"{report['residual_half_zeta']:.3e} at zeta/2 leave the order undefined")
    out.scalars.update(report)
    out.matrices["eta"] = encode_matrix(result.eta_matrix)
    if spec.kind in ("barrier", "delta"):
        out.gate("residual_order_deviation", abs(report["fitted_order"] - 2.0), 0.3)


def _run_brachistochrone(out, *, psi_I: Vector, psi_F: Vector, E: float,
                         hbar: float | None = None, eta: Matrix | None = None):
    prob = statespace.BrachistochroneProblem(psi_I, psi_F, E, eta=eta, **_given(hbar=hbar))
    opt = statespace.optimal_hamiltonian(prob)
    out.scalars["tau_min"] = opt.tau_min
    out.scalars["distance"] = opt.distance
    out.matrices["H_star"] = encode_matrix(opt.H_star)
    # H* has rank 2: |eigenvalues| (0, ..., 0, E, E)
    levels = np.sort(np.abs(np.linalg.eigvals(opt.H_star).real))
    levels[-2:] -= prob.energy
    out.gate("eigenvalue_pinning", float(np.max(np.abs(levels)) / prob.energy), 1e-9)
    # linspace ends exactly at tau_min, so the last row is the final state's
    times = np.linspace(0.0, opt.tau_min, 33)
    states = statespace.evolve(opt.H_star, psi_I, times, prob.hbar)
    rows = [[t, statespace.projective_fidelity(psi_t, psi_F, eta)] for t, psi_t in zip(times, states)]
    fidelity = rows[-1][1]
    out.scalars["fidelity"] = fidelity
    out.gate("fidelity_deficit", 1.0 - fidelity, 1e-8)
    de = statespace.energy_uncertainty(opt.H_star, psi_I, eta)
    out.gate("uncertainty_saturation", abs(de - prob.energy) / prob.energy, 1e-9)
    out.curves["trajectory"] = {"columns": ["t", "fidelity"], "rows": rows}


def _run_geometry(out, *, eta: Matrix, n_theta: int = 13, n_phi: int = 25):
    if min(n_theta, n_phi) < 1:
        raise InputError("n_theta and n_phi must be at least 1")
    geo = statespace.two_level_geometry(eta)
    out.scalars.update({"k1": geo.k1, "k2": geo.k2, "k3": geo.k3, "beta": geo.beta})
    rows = [[theta, phi, float(geo.conformal_factor(theta, phi))]
            for theta in np.linspace(0.0, np.pi, n_theta) for phi in np.linspace(0.0, 2.0 * np.pi, n_phi)]
    out.curves["line_element"] = {"columns": ["theta", "phi", "ds2_factor"], "rows": rows}


# a potential is the pair (V, V')
def _monomial(coeff: complex, power: int):
    # z ** -1 at power 0 would make V' = 0 raise at z = 0
    dv = (lambda z: 0.0 * z) if power == 0 else (lambda z: coeff * power * z ** (power - 1))
    return lambda z: coeff * z**power, dv


def _harmonic(omega: float):
    return lambda z: 0.5 * omega**2 * z**2, lambda z: omega**2 * z


def _free():
    return lambda z: 0.0 * z, lambda z: 0.0 * z


def _run_classical(out, *, potential: Potential, z0: complex, p0: complex,
                   t_end: float, dt: float, mass: float = 1.0, sample_every: int = 10):
    v, v_prime = potential
    traj = flow(v_prime, mass, ComplexPhasePoint(z0, p0), t_end, dt, sample_every=sample_every)
    vals = [real_hamiltonians(v, to_darboux(ComplexPhasePoint(z, p)), mass)
            for z, p in zip(traj.z, traj.p)]
    ks, his = (np.array([x[key] for x in vals]) for key in ("K", "H_i"))
    scale = max(np.abs(ks).max(), 1.0)
    out.gate("K_drift", float(np.ptp(ks)) / scale, 1e-8)
    out.gate("H_i_drift", float(np.ptp(his)) / scale, 1e-8)
    rows = [[t, z.real, z.imag, k, hi] for t, z, k, hi in zip(traj.times, traj.z, ks, his)]
    out.curves["trajectory"] = {"columns": ["t", "re_z", "im_z", "K", "H_i"], "rows": rows}


def _run_em(out, *, profile: Profile, init: Init, t: float, n_eval: int = 400,
            fdtd_check: bool = False):
    if n_eval < 1:
        raise InputError("n_eval must be at least 1")
    z_eval = np.linspace(profile.z_min, profile.z_max, n_eval)
    field = em.propagate(profile, init, z_eval, t)
    out.curves["snapshot"] = {
        "columns": ["z", "E"],
        "rows": [[float(z), float(e)] for z, e in zip(z_eval, field)],
    }
    if fdtd_check:
        diag = profile.slow_variation_diagnostic(init.width)
        out.scalars["slow_variation_diagnostic"] = diag
        oracle = em.fdtd_oracle(profile, init, t)
        closed = em.propagate(profile, init, oracle.z, t)
        err = np.linalg.norm(closed - oracle.field) / max(np.linalg.norm(oracle.field), 1e-300)
        out.scalars["fdtd_l2_error"] = float(err)
        if diag < 0.05:
            out.gate("closed_form_vs_fdtd", float(err), 1e-2)


# ----------------------------------------------------------------------
# registries and field binding
# ----------------------------------------------------------------------

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

# model kind -> (builder whose parameters are the model's fields, record writer)
_MODELS = {
    "two_level": (models.TwoLevelParams, _two_level),
    "swanson": (_swanson_case, _swanson),
    "quartic": (models.QuarticParams, _quartic),
    "kernel": (_kernel_case, _kernel),
}
_PROFILES = {"vacuum": em.vacuum, "constant": em.constant_medium, "tanh": em.tanh_medium,
             "sampled": em.sampled_profile}
_INITS = {"gaussian": em.gaussian_pulse}
_POTENTIALS = {"monomial": _monomial, "harmonic": _harmonic, "free": _free}


def _is(kind: type):
    return lambda value: isinstance(value, kind)


# Annotation -> (check of the JSON value, conversion to the parameter's value).
# The parsers are looked up per call, so a rebinding of them applies.
_TYPES = {
    "float": (_is_number, float),
    "int": (lambda value: isinstance(value, int) and not isinstance(value, bool), int),
    "bool": (_is(bool), bool),
    "str": (_is(str), str),
    "list": (lambda value: isinstance(value, list) and all(map(_is_number, value)), list),
    "complex": (_is(list), parse_complex),
    "Vector": (_is(list), lambda value: parse_vector(value)),
    "Matrix": (_is(list), lambda value: parse_matrix(value)),
    "Model": (_is(dict), lambda value: _model(value)),
    "Profile": (_is(dict), lambda value: _build(value, "preset", _PROFILES, "profile", "sampled")),
    "Init": (_is(dict), lambda value: _build(value, "kind", _INITS, "init")),
    "Potential": (_is(dict), lambda value: _build(value, "kind", _POTENTIALS, "potential")),
}


def _fields(fn) -> dict:
    """Field name -> (type name, required) for each annotated parameter of ``fn``."""
    return {p.name: (p.annotation.removesuffix(" | None"), p.default is p.empty)
            for p in inspect.signature(fn).parameters.values() if p.annotation is not p.empty}


def _convert(name: str, value, type_name: str):
    check, convert = _TYPES[type_name]
    if not check(value):
        raise SchemaError(f"field {name!r} must have type {type_name}")
    value = convert(value)
    # json reads NaN and Infinity; matrix and vector entries meet as_matrix's check
    if type_name in ("float", "complex", "list") and not np.isfinite(np.asarray(value, complex)).all():
        raise SchemaError(f"field {name!r} must be finite")
    return value


def _bind(fn, fields: dict, owner: str) -> dict:
    """``fields`` checked against the fields of ``fn`` and converted."""
    spec = _fields(fn)
    for name, (_, required) in spec.items():
        if required and name not in fields:
            raise SchemaError(f"{owner} requires field {name!r}")
    for name in fields:
        if name not in spec:
            raise SchemaError(f"unexpected field {name!r} for {owner}")
    return {name: _convert(name, value, spec[name][0]) for name, value in fields.items()}


def _tagged(fields: dict, tag_field: str, table: dict, owner: str, untagged=None):
    """The entry of ``table`` that a nested object's tag names, its other
    fields and its name in error messages."""
    fields = dict(fields)
    tag = fields.pop(tag_field, untagged)
    if not isinstance(tag, str) or tag not in table:
        raise SchemaError(f"unknown {owner} {tag_field} {tag!r}")
    return table[tag], fields, f"{owner} {tag!r}"


def _build(fields: dict, tag_field: str, builders: dict, owner: str, untagged=None):
    build, fields, owner = _tagged(fields, tag_field, builders, owner, untagged)
    return build(**_bind(build, fields, owner))


def _model(fields: dict) -> Model:
    (build, write), fields, owner = _tagged(fields, "kind", _MODELS, "model")
    return functools.partial(write, build(**_bind(build, fields, owner)))


def validate_scenario(config: dict):
    """The handler of a scenario and its arguments, every field checked and
    converted; nested objects come built."""
    if not isinstance(config, dict):
        raise SchemaError("scenario must be a JSON object")
    fields = dict(config)
    command = fields.pop("command", None)
    if not isinstance(command, str) or command not in _HANDLERS:
        raise SchemaError(
            f"unknown or missing command {command!r}; expected one of {sorted(_HANDLERS)}"
        )
    handler = _HANDLERS[command]
    return handler, _bind(handler, fields, f"command {command!r}")


def run(config: dict) -> dict:
    """Execute one scenario and return its result record.

    A failed scenario's record carries ``error``: the class (input, domain
    or residual), type and message of the failure; LAPACK failing, a float
    overflow or a division by zero on a validated input is domain.
    """
    started = time.perf_counter()
    out, error = _Output(), None
    with warnings.catch_warnings(record=True) as caught:
        # ignore and error filters stand; a warning shown once per location
        # would be lost to every later run, so record it each time
        warnings.filters[:] = [("always", *f[1:]) if f[0] in ("default", "module", "once")
                               else f for f in warnings.filters]
        warnings.simplefilter("always", append=True)
        try:
            handler, kwargs = validate_scenario(config)
            handler(out, **kwargs)
        except (PhqmError, ArithmeticError, np.linalg.LinAlgError) as exc:
            error = {"class": getattr(exc, "category", "domain"), "type": type(exc).__name__,
                     "message": str(exc)}
    record = {
        "command": config.get("command") if isinstance(config, dict) else None,
        "inputs": config,
        "error": error,
        "scalars": out.scalars,
        "matrices": out.matrices,
        "curves": out.curves,
        "warnings": [str(w.message) for w in caught],
        "residuals": out.residuals,
        "all_pass": error is None and all(e["pass"] for e in out.residuals),
        "timing_s": time.perf_counter() - started,
    }
    unset = ("error",) if error is None else ("scalars", "matrices", "curves", "residuals")
    return {key: value for key, value in record.items() if key not in unset}


def emit_plotdata(record: dict) -> str:
    """Render the record's sampled curve as headered CSV."""
    curves = record.get("curves") or {}
    if not curves:
        raise InputError("record contains no sampled curves")
    (curve,) = curves.values()
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
    args = parser.parse_args(argv)

    try:
        with open(args.scenario) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_INPUT

    records = [run(sc) for sc in (payload if isinstance(payload, list) else [payload])]
    for record in records:
        for text in record["warnings"]:
            print(f"warning: {text}", file=sys.stderr)
        if "error" in record:
            error = record["error"]
            kind = "invalid scenario" if error["type"] == SchemaError.__name__ else error["type"]
            print(f"error: {kind}: {error['message']}", file=sys.stderr)
    if args.format == "json":
        text = json.dumps(records if isinstance(payload, list) else records[0], indent=2)
    else:
        # failed records and records without curves are left out
        done = [r for r in records if "error" not in r]
        if done and not any(r["curves"] for r in done):
            print("error: record contains no sampled curves", file=sys.stderr)
            return EXIT_INPUT
        text = "".join(emit_plotdata(r) for r in done if r["curves"])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)

    failed = {r["error"]["class"] for r in records if "error" in r}
    return (EXIT_INPUT if "input" in failed else EXIT_DOMAIN if "domain" in failed
            else EXIT_OK if all(r["all_pass"] for r in records) else EXIT_RESIDUAL)


if __name__ == "__main__":
    sys.exit(main())
