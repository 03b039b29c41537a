"""The certified norm gates against the exact gates they replaced.

``is_hermitian`` and ``build_system`` decide their gates through
``linalg.norm_ratio_above``, a Frobenius certificate with an exact
fallback; ``eig_nonhermitian`` checks no eigenpair and reports cond(V) < 1e12 by the kappa
bound before an SVD, ``biorthonormal_extension`` rejects it as the oracle's
``check=True`` does, and ``build_system`` decides pseudo-Hermiticity as the
backward error |eta H - H^dagger eta| / (|eta| |H|), never inverting eta,
and takes rho and rho^-1 from one ``eigh``.  The exact forms below (one SVD
per spectral norm and for cond(V), an LU inverse for rho^-1, a second
``eigh`` for the square root, the same LAPACK eigensolver by dtype) are the
oracles: every case must raise the same error class, or pass, exactly as
they do.  The per-column
and per-eigenvalue loops that the vectorised ``fix_phases``,
``pseudo_metric_family`` and degenerate-block scan replaced are oracles too.
"""

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from phqm import biortho, cli, linalg, metric
from phqm.errors import (
    DefectiveOperatorError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NotPseudoHermitianError,
    PhqmError,
    SingularOperatorError,
    SpectrumOutOfDomainError,
)
from phqm.linalg import (
    CONDITION_THRESHOLD,
    DEFAULT_TOL,
    as_matrix,
    dagger,
    opnorm,
)

SIGMA3 = np.diag([1.0, -1.0]).astype(complex)


# ----------------------------------------------------------------------
# oracles: the exact implementations
# ----------------------------------------------------------------------

def fix_phases_loop(vectors):
    out = vectors.copy()
    for j in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, j])))
        pivot = out[k, j]
        if np.abs(pivot) > 0:
            out[:, j] *= np.abs(pivot) / pivot
    return out


def exact_is_hermitian(a, tol=DEFAULT_TOL):
    scale = max(opnorm(a), 1e-300)
    return opnorm(a - dagger(a)) <= tol * scale


def exact_eig_nonhermitian(a, condition_threshold=CONDITION_THRESHOLD, check=True):
    m = as_matrix(a)
    # the same LAPACK routine as the code under test: dgeev for real dtype
    values, vectors = np.linalg.eig(np.asarray(a) if np.isrealobj(a) else m)
    values, vectors = values.astype(complex), vectors.astype(complex)
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = fix_phases_loop(vectors[:, order])
    condition = float(np.linalg.cond(vectors))
    diagonalizable = bool(np.isfinite(condition) and condition < condition_threshold)
    if check and not diagonalizable:
        raise DefectiveOperatorError("condition")
    return SimpleNamespace(values=values, right_vectors=vectors, condition=condition,
                           diagonalizable=diagonalizable)


def exact_positive_root(h, tol=DEFAULT_TOL):
    m = as_matrix(h)
    if not exact_is_hermitian(m, tol):
        raise NotHermitianError("not Hermitian")
    values, vectors = np.linalg.eigh(m)
    with np.errstate(all="ignore"):
        root = np.sqrt(values)
    if not np.all(np.isfinite(root)):
        raise SpectrumOutOfDomainError("sqrt")
    result = (vectors * root[None, :]) @ dagger(vectors)
    return 0.5 * (result + dagger(result))


def exact_build_system(h_op, eta, tol=metric.PSEUDO_HERMITICITY_TOL):
    H = as_matrix(h_op)
    eta_m = eta.eta if isinstance(eta, metric.MetricOperator) else as_matrix(eta)
    if not exact_is_hermitian(eta_m):
        raise NotHermitianError("Hermiticity")
    # lambda_min against the band +-4 n u |eta|_F that its rounding spans
    lam = np.linalg.eigvalsh(0.5 * (eta_m + dagger(eta_m))).min()
    band = 4 * len(eta_m) * np.finfo(float).eps * np.linalg.norm(eta_m)
    if lam < -band:
        raise NotPositiveDefiniteError("positivity")
    if lam <= band:
        raise SingularOperatorError("singular")
    # the backward error on eta's Hermitian part, every norm an SVD
    eta_h = 0.5 * (eta_m + dagger(eta_m))
    if opnorm(eta_h @ H - dagger(H) @ eta_h) > tol * opnorm(eta_h) * max(opnorm(H), 1e-300):
        raise NotPseudoHermitianError("residual")
    rho = exact_positive_root(eta_m)
    rho_inv = np.linalg.inv(rho)
    rho_inv = 0.5 * (rho_inv + dagger(rho_inv))
    return metric.QuasiHermitianSystem(H, metric.MetricOperator(eta_m), rho, rho_inv,
                                       rho @ H @ rho_inv)


def pseudo_metric_outer_sum(bs, sigma):
    eta = np.zeros((bs.dim, bs.dim), dtype=complex)
    for s, n in zip(sigma, bs.real_indices()):
        phi = bs.phis[:, n]
        eta += s * np.outer(phi, np.conj(phi))
    for nu, mnu in enumerate(bs.partner):
        if mnu >= 0 and mnu != nu and bs.values[nu].imag > 0:
            a, b = bs.phis[:, nu], bs.phis[:, mnu]
            eta += np.outer(a, np.conj(b)) + np.outer(b, np.conj(a))
    return 0.5 * (eta + dagger(eta))


def outcome(fn, *args, **kwargs):
    """("ok", result) or (error class, None)."""
    try:
        return "ok", fn(*args, **kwargs)
    except PhqmError as exc:
        return type(exc), None


def assert_same_outcome(new, old, *args, **kwargs):
    kind_new, out_new = outcome(new, *args, **kwargs)
    kind_old, out_old = outcome(old, *args, **kwargs)
    assert kind_new == kind_old
    return out_new, out_old


def extended(a):
    """``eig_nonhermitian`` once ``biorthonormal_extension`` has accepted it:
    the extension rejects a numerical exceptional point, as the oracle's
    ``check=True`` does."""
    dec = linalg.eig_nonhermitian(a)
    biortho.biorthonormal_extension(dec)
    return dec


def assert_same_route(a):
    """eig, metric and build_system against the exact chain; returns the kind."""
    dec_new, dec_old = assert_same_outcome(extended, exact_eig_nonhermitian, a)
    if dec_new is None:
        return "eig"
    np.testing.assert_array_equal(dec_new.right_vectors, dec_old.right_vectors)
    bs = biortho.biorthonormal_extension(dec_new)
    if not bs.all_real:
        return "complex"
    mo = metric.metric_from_spectrum(bs)
    sys_new, sys_old = assert_same_outcome(metric.build_system, exact_build_system, a, mo)
    if sys_new is None:
        return "build"
    scale = opnorm(sys_old.h)
    for name in ("rho", "rho_inv", "h"):
        new, old = getattr(sys_new, name), getattr(sys_old, name)
        assert opnorm(new - old) <= 1e-9 * max(opnorm(old), scale), name
    return "ok"


class OpnormCounter:
    def __init__(self, monkeypatch):
        self.calls = 0
        original = linalg.opnorm

        def counted(a):
            self.calls += 1
            return original(a)

        monkeypatch.setattr(linalg, "opnorm", counted)


# ----------------------------------------------------------------------
# decisions on the paths toward and away from exceptional points
# ----------------------------------------------------------------------

def two_level_matrix(d):
    return 0.5 * np.array([[d + 1, d - 1], [-d + 1, -d - 1]], dtype=complex)


@pytest.mark.parametrize("n,spread", [(4, 0.3), (16, 0.6), (16, 3.0), (48, 1.0), (64, 6.0)])
def test_random_quasi_hermitian_gates_match_exact(n, spread):
    rng = np.random.default_rng([n, int(10 * spread)])
    kinds = set()
    for _ in range(3):
        lam = np.sort(rng.uniform(-n, n, n))
        s = np.eye(n) + spread * (rng.standard_normal((n, n))
                                  + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
        kinds.add(assert_same_route(s @ np.diag(lam) @ np.linalg.inv(s)))
    assert "ok" in kinds


def test_two_level_toward_exceptional_point_matches_exact():
    kinds = [assert_same_route(two_level_matrix(10.0 ** -k)) for k in range(0, 17)]
    kinds.append(assert_same_route(two_level_matrix(0.0)))
    # the route works far from the EP and the condition gate fires at it
    assert kinds[0] == "ok" and kinds[-1] == "eig"


def test_real_two_level_toward_exceptional_point_matches_exact():
    # dgeev's eta is accurate, and the backward error reads it so: at D = 1e-9
    # it is 1.3e-21, where the forward residual through eta's LU inverse reads
    # 2.9e-8 and once failed this gate.  So every D down to 1e-14 passes, and
    # from D = 1e-15 (cond(eta) 9e14) the positivity gate calls eta singular.
    # Only verdicts are compared: toward D = 1e-15 the oracle's LU rho^-1 is
    # the less accurate one and misses the eigh rho^-1 by > 1e-9.
    kinds = []
    for d in np.append(10.0 ** -np.arange(0, 17), 0.0):
        a = two_level_matrix(d).real
        dec, _ = assert_same_outcome(extended, exact_eig_nonhermitian, a)
        if dec is None:
            kinds.append("eig")
            continue
        mo = metric.metric_from_spectrum(biortho.biorthonormal_extension(dec))
        built, _ = assert_same_outcome(metric.build_system, exact_build_system, a, mo)
        kinds.append("build" if built is None else "ok")
    assert kinds == ["ok"] * 15 + ["build"] * 2 + ["eig"]


def assert_same_eig_verdicts(a):
    """The extended decomposition against the oracle with its check, and the
    bare one against the oracle without; returns the diagonalizable flag."""
    for decomposition, check in ((extended, True), (linalg.eig_nonhermitian, False)):
        new, old = assert_same_outcome(decomposition,
                                       partial(exact_eig_nonhermitian, check=check), a)
        if new is not None:
            assert new.diagonalizable == old.diagonalizable
            np.testing.assert_array_equal(new.right_vectors, old.right_vectors)
    return new.diagonalizable


def jordan_perturbations(n, real):
    rng = np.random.default_rng(n)
    jordan = np.diag(np.ones(n - 1), 1).astype(complex)
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    corner = np.zeros((n, n), dtype=complex)
    corner[-1, 0] = 1.0
    for delta in np.append(10.0 ** -np.arange(0, 17, 2), 0.0):
        for a in (jordan + delta * e, jordan + delta * corner):
            yield a.real if real else a


def assert_jordan_perturbations_match_exact(n, real):
    kinds = set()
    for a in jordan_perturbations(n, real):
        kinds.add(assert_same_route(a))
        assert_same_eig_verdicts(a)
    assert "eig" in kinds


@pytest.mark.parametrize("n", [3, 5, 8])
def test_jordan_block_perturbations_match_exact(n):
    assert_jordan_perturbations_match_exact(n, real=False)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_real_jordan_block_perturbations_match_exact(n):
    # real dtype: dgeev, then the kappa bound or the SVD, against the oracle
    assert_jordan_perturbations_match_exact(n, real=True)


@pytest.mark.parametrize(
    "h,eta,expected",
    [
        # eta not Hermitian, whether the residual passes (H = 2I commutes
        # with it) or fails: Hermiticity is decided first
        (2.0 * np.eye(2), [[1.0, 0.3], [0.0, 1.0]], NotHermitianError),
        (np.diag([1.0, 2.0]), [[1.0, 0.3], [0.0, 1.0]], NotHermitianError),
        # eta Hermitian within 1e-10 but not exactly
        (np.diag([1.0, 2.0]), [[1.0, 1e-12], [0.0, 1.0]], "ok"),
        # eta not positive
        (np.eye(2), SIGMA3, NotPositiveDefiniteError),
        (np.eye(2), -np.eye(2), NotPositiveDefiniteError),
        # eta singular: lambda_min within the rounding band
        (np.eye(2), np.diag([1.0, 0.0]), SingularOperatorError),
        # (H, eta) not pseudo-Hermitian
        ([[0.0, 1.0], [0.0, 0.0]], np.eye(2), NotPseudoHermitianError),
        ([[1.0, 2.0], [0.0, -1.0]], [[2.0, 0.5], [0.5, 1.0]], NotPseudoHermitianError),
        # pseudo-Hermitian with a nontrivial metric
        (two_level_matrix(4.0), [[1.25, 0.75], [0.75, 1.25]], "ok"),
        # eta H is exactly Hermitian but eta is not, so eta H - (eta H)^dagger
        # is 0 while the residual is about 0.1: eta is rejected before any
        # certificate
        (np.diag([1.0, 2.0]), [[1.0, 0.1], [0.2, 1.0]], NotHermitianError),
    ],
)
def test_metric_inputs_raise_as_exact(h, eta, expected):
    h = np.asarray(h, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    assert outcome(exact_build_system, h, eta)[0] == expected
    assert outcome(metric.build_system, h, eta)[0] == expected


# ----------------------------------------------------------------------
# inconclusive certificates: the exact fallback decides, both ways
# ----------------------------------------------------------------------

N_INCONCLUSIVE = 16


def dominant_hermitian(n):
    """diag(1, 0, ..., 0): |A|_F = |A|_2, so the certificate is sqrt(n) loose."""
    a = np.zeros((n, n), dtype=complex)
    a[0, 0] = 1.0
    return a


def antihermitian_pair(n, delta):
    """delta (e2 e3^dagger - e3 e2^dagger): spectral norm delta, Frobenius sqrt(2) delta."""
    k = np.zeros((n, n), dtype=complex)
    k[1, 2], k[2, 1] = delta, -delta
    return k


@pytest.mark.parametrize("fraction,expected", [(0.5, True), (2.0, False)])
def test_is_hermitian_fallback_matches_exact(monkeypatch, fraction, expected):
    # |a - a^dagger|_2 = 2 delta = 2 fraction tol; the certificate needs
    # 2 sqrt(2) delta <= tol / 4, which neither case meets
    tol = 1e-10
    a = dominant_hermitian(N_INCONCLUSIVE) + antihermitian_pair(N_INCONCLUSIVE, fraction * tol / 2)
    assert exact_is_hermitian(a, tol) is expected
    counter = OpnormCounter(monkeypatch)
    assert linalg.is_hermitian(a, tol) is expected
    assert counter.calls == 2


@pytest.mark.parametrize("scale", [1e-160, 1e160])
@pytest.mark.parametrize("fraction,expected", [(0.5, True), (2.0, False)])
def test_is_hermitian_at_extreme_scales_matches_exact(scale, fraction, expected):
    # the Frobenius sums of squares underflow to 0 or overflow to inf here;
    # the SVD scales internally and must still decide
    tol = 1e-10
    a = scale * (dominant_hermitian(N_INCONCLUSIVE)
                 + antihermitian_pair(N_INCONCLUSIVE, fraction * tol / 2))
    assert exact_is_hermitian(a, tol) is expected
    assert linalg.is_hermitian(a, tol) is expected


def test_is_hermitian_certificate_skips_the_svd(monkeypatch):
    a = dominant_hermitian(N_INCONCLUSIVE) + antihermitian_pair(N_INCONCLUSIVE, 1e-13)
    counter = OpnormCounter(monkeypatch)
    assert linalg.is_hermitian(a)
    assert counter.calls == 0


@pytest.mark.parametrize("fraction,expected", [(0.5, "ok"), (2.0, NotPseudoHermitianError)])
def test_build_system_fallback_matches_exact(monkeypatch, fraction, expected):
    tol = metric.PSEUDO_HERMITICITY_TOL
    n = N_INCONCLUSIVE
    h = dominant_hermitian(n) + antihermitian_pair(n, fraction * tol)
    # equal weights 1 on the defect's two rows make |eta H - H^dagger eta|_2
    # exactly 2 delta, and |eta|_2 = 2 the backward error delta
    eta = np.diag(np.linspace(1.0, 2.0, n)).astype(complex)
    eta[1, 1] = eta[2, 2] = 1.0
    kind_old, _ = outcome(exact_build_system, h, eta)
    assert kind_old == expected
    counter = OpnormCounter(monkeypatch)
    kind_new, _ = outcome(metric.build_system, h, eta)
    assert kind_new == expected
    assert counter.calls == 2


def test_certificate_leaves_a_ratio_at_the_bound_to_the_svd(monkeypatch):
    # rank-one x against a scaled identity is the one case where the
    # certificate is tight; its margin hands the tie to the exact norms
    n = 9
    m = 3.0 * np.eye(n)
    x = np.zeros((n, n))
    x[0, 0] = 3.0 * 1e-6
    counter = OpnormCounter(monkeypatch)
    assert linalg.norm_ratio_above(x, m, 1e-6) is None
    assert counter.calls == 2
    assert linalg.norm_ratio_above(x * (1 + 1e-6), m, 1e-6) == pytest.approx(1e-6 * (1 + 1e-6))


# ----------------------------------------------------------------------
# the SVD budget of the Hermitisation route
# ----------------------------------------------------------------------

class SvdCounter:
    """Counts numpy SVDs, np.linalg.cond's included."""

    def __init__(self, monkeypatch):
        self.calls = 0
        internal = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
        real_svd = internal.svd

        def svd(*args, **kwargs):
            self.calls += 1
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(internal, "svd", svd)


class InvCounter:
    """Counts np.linalg.inv calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real_inv = np.linalg.inv

        def inv(m):
            self.calls += 1
            return real_inv(m)

        monkeypatch.setattr(np.linalg, "inv", inv)


def test_hermitian_route_makes_no_svd(monkeypatch):
    # the kappa bound settles the exceptional-point gate and a certificate
    # every norm gate, so a well-conditioned route needs no SVD at all
    rng = np.random.default_rng(64)
    n = 64
    lam = np.arange(n) - 0.5 * n + rng.uniform(-0.25, 0.25, n)
    s = np.eye(n) + 0.3 * (rng.standard_normal((n, n))
                           + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    a = s @ np.diag(lam) @ np.linalg.inv(s)

    counts = {"opnorm": 0}
    real_opnorm = linalg.opnorm

    def opnorm(m):
        counts["opnorm"] += 1
        return real_opnorm(m)

    monkeypatch.setattr(linalg, "opnorm", opnorm)
    monkeypatch.setattr(metric, "opnorm", opnorm)
    svds = SvdCounter(monkeypatch)
    inverses = InvCounter(monkeypatch)

    dec = linalg.eig_nonhermitian(a)
    bs = biortho.biorthonormal_extension(dec)
    metric.build_system(a, metric.metric_from_spectrum(bs))
    assert {**counts, "svd": svds.calls} == {"opnorm": 0, "svd": 0}
    # V^-1 once, shared by the gate and the extension; eta is never inverted
    assert inverses.calls == 1
    np.testing.assert_array_equal(bs.phis, dagger(np.linalg.inv(dec.right_vectors)))


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("d,svds,diagonalizable", [(1e-16, 0, True), (1e-20, 1, False)])
def test_svd_fallback_fires_only_near_the_exceptional_point(monkeypatch, real, d, svds,
                                                             diagonalizable):
    # cond(V) is 9.2e7 at D = 1e-16, where the kappa bound decides; at
    # D = 1e-20 the bound is 1.7e12, above the threshold, and the SVD decides
    a = two_level_matrix(d).real if real else two_level_matrix(d)
    dec = linalg.eig_nonhermitian(a)
    counter = SvdCounter(monkeypatch)
    assert dec.diagonalizable is diagonalizable
    assert counter.calls == svds
    assert exact_eig_nonhermitian(a, check=False).diagonalizable is diagonalizable


@pytest.mark.parametrize("d", [4.0, 1e-8, 1e-16, 1e-20, 0.0])
def test_diagnose_condition_is_the_exact_svd_value(d):
    a = two_level_matrix(d)
    record = cli.run({"command": "diagnose", "matrix": [[[z.real, z.imag] for z in row]
                                                       for row in a]})
    vectors = linalg.eig_nonhermitian(a).right_vectors
    assert record["scalars"]["condition"] == float(np.linalg.cond(vectors))


# ----------------------------------------------------------------------
# the loops replaced by array expressions
# ----------------------------------------------------------------------

def test_fix_phases_matches_column_loop():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 64):
        _, vectors = np.linalg.eig(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        vectors[:, 0] = 0.0
        np.testing.assert_array_equal(linalg.fix_phases(vectors), fix_phases_loop(vectors))


def paired_spectrum_matrix(rng, n):
    """Real matrix whose spectrum holds n // 4 conjugate pairs."""
    n_pairs = n // 4
    b = np.diag(np.arange(n, dtype=float))
    for k in range(n_pairs):
        b[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[2.0 * k, 1.0], [-1.0, 2.0 * k]]
    s = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    return s @ b @ np.linalg.inv(s), n - 2 * n_pairs


@pytest.mark.parametrize("n", [4, 9, 32, 96])
def test_pseudo_metric_matmul_matches_outer_sum(n):
    rng = np.random.default_rng(n)
    a, n_real = paired_spectrum_matrix(rng, n)
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(a))
    assert len(bs.real_indices()) == n_real and not len(bs.unpaired_indices())
    sigma = rng.choice([-1.0, 1.0], size=n_real)
    new = metric.pseudo_metric_family(bs, sigma).eta
    old = pseudo_metric_outer_sum(bs, sigma)
    assert opnorm(new - old) <= 1e-12 * opnorm(old)


def paired_toward_exceptional_point(n, delta):
    """Real block-diagonal matrix whose pair +-i sqrt(delta) meets at an
    exceptional point as delta -> 0; cond(V) is about delta^-1/2."""
    b = np.diag(np.arange(n, dtype=float) + 2.0)
    b[:2, :2] = [[0.0, 1.0], [-delta, 0.0]]
    return b


@pytest.mark.parametrize("n", [4, 9, 32])
@pytest.mark.parametrize("real", [False, True])
def test_paired_spectrum_verdicts_match_exact(n, real):
    # cond(V) crosses CONDITION_THRESHOLD at delta = 1e-24, so the sweep
    # passes the kappa bound, its margin and the SVD fallback; where the pair
    # counts as real, build_system must decide as the oracle does
    rng = np.random.default_rng([n, 3])
    s = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    verdicts, routes = set(), set()
    for delta in np.append(10.0 ** -np.arange(0.0, 32.5, 0.5), 0.0):
        b = paired_toward_exceptional_point(n, delta)
        for a in (b, s @ b @ np.linalg.inv(s)):
            a = a if real else a.astype(complex)
            verdicts.add(assert_same_eig_verdicts(a))
            routes.add(assert_same_route(a))
    assert verdicts == {True, False} and "build" in routes


@pytest.mark.parametrize("n", [9, 32, 96])
def test_real_and_complex_dtype_agree(n):
    rng = np.random.default_rng([n, 4])
    a, n_real = paired_spectrum_matrix(rng, n)
    sigma = rng.choice([-1.0, 1.0], size=n_real)
    s = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    h = s @ np.diag(np.arange(n) - 0.5 * n + rng.uniform(-0.25, 0.25, n)) @ np.linalg.inv(s)

    def system(m):
        return biortho.biorthonormal_extension(linalg.eig_nonhermitian(m))

    def relative(x, y):
        return np.linalg.norm(x - y) / np.linalg.norm(y)

    paired_real, paired_complex = system(a), system(a.astype(complex))
    # dgeev returns each nonreal eigenvalue beside its exact conjugate
    assert len(paired_real.real_indices()) == n_real and not len(paired_real.unpaired_indices())
    for nu, mnu in enumerate(paired_real.partner):
        if mnu != nu:
            assert paired_real.values[mnu] == np.conj(paired_real.values[nu])
    # zgeev's pair partners differ in real part by rounding, so sort order may
    # swap them: match each eigenvalue to the nearest one
    nearest = np.abs(paired_real.values[:, None] - paired_complex.values[None, :]).min(axis=1)
    assert np.linalg.norm(nearest) <= 1e-12 * np.linalg.norm(paired_complex.values)
    assert relative(metric.pseudo_metric_family(paired_real, sigma).eta,
                    metric.pseudo_metric_family(paired_complex, sigma).eta) <= 1e-12

    real_spectrum, complex_spectrum = system(h), system(h.astype(complex))
    assert relative(real_spectrum.values, complex_spectrum.values) <= 1e-12
    assert relative(metric.metric_from_spectrum(real_spectrum).eta,
                    metric.metric_from_spectrum(complex_spectrum).eta) <= 1e-12


def degenerate_blocks_loop(values, psis, inverse, tol):
    """The eigenspace gauge cluster by cluster: V_b = QR becomes Q, and
    V^-1_b becomes R V^-1_b, where the cluster's spread times |R^-1|_2 is
    within tol max |a|."""
    psis, inverse = psis.copy(), inverse.copy()
    n = len(values)
    scale = float(np.max(np.abs(values)))
    used = np.zeros(n, dtype=bool)
    for i in range(n):
        if used[i]:
            continue
        block = [i] + [j for j in range(i + 1, n)
                       if not used[j] and abs(values[j] - values[i]) <= tol * scale]
        used[block] = True
        if len(block) > 1:
            q, r = np.linalg.qr(psis[:, block])
            spread = max(abs(values[j] - values[i]) for j in block)
            if spread * np.linalg.norm(np.linalg.inv(r), 2) <= tol * scale:
                psis[:, block] = q
                inverse[block] = r @ inverse[block]
    return psis, inverse


@pytest.mark.parametrize("clustered", [False, True])
def test_degenerate_block_scan_matches_loop(clustered):
    rng = np.random.default_rng(17)
    n = 40
    values = np.sort(rng.uniform(-5, 5, n)).astype(complex)
    psis = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if clustered:
        values[10:13] = values[10]
        values[30] = values[29] + 1e-12
        # a chain: 6 joins 5's cluster, so 7, close to 6 alone, stays single
        values[6:8] = values[5] + np.array([0.7, 1.4]) * 1e-10 * np.abs(values).max()
        # a non-normal near-degenerate cluster: nearly parallel vectors whose
        # eigenvalues differ by 1e-11 max |a|, so Q would be no eigenbasis
        values[21] = values[20] + 1e-11 * np.abs(values).max()
        psis[:, 21] = psis[:, 20] + 1e-3 * psis[:, 21]
    inverse = np.linalg.inv(psis)
    before = psis.copy(), inverse.copy()
    bs = biortho.biorthonormal_extension(linalg.EigenDecomposition(values, psis, inverse))
    expected_psis, expected_inverse = degenerate_blocks_loop(values, psis, inverse, 1e-10)
    np.testing.assert_array_equal(bs.psis, expected_psis)
    np.testing.assert_array_equal(bs.phis, np.conj(expected_inverse.T))
    if clustered:
        np.testing.assert_allclose(np.conj(bs.psis[:, 10:13].T) @ bs.psis[:, 10:13],
                                   np.eye(3), atol=1e-14)
        np.testing.assert_array_equal(bs.psis[:, 20:22], psis[:, 20:22])
    # the input itself when nothing is degenerate, else a new array; never altered
    assert (bs.psis is psis) is not clustered
    np.testing.assert_array_equal(psis, before[0])
    np.testing.assert_array_equal(inverse, before[1])
