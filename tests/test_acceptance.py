"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; the suite is desk-scale (< 60 s total).
"""

import numpy as np

from phqm import biortho, em, linalg, metric, models, perturbation, statespace
from phqm.classical import (
    ComplexPhasePoint,
    SymplecticParams,
    bracket,
    flow,
    phase_functions,
    real_hamiltonians,
    standard_bracket,
)
from phqm.linalg import dagger, opnorm

from oracles import (forward_pseudo_hermiticity, fs_metric, geodesic_distance,
                     klein_gordon_residual, wave_operator)

RNG = np.random.default_rng(20260808)


def _report(number, label, passed):
    print(f"ACCEPTANCE {number:>2}: {label:<58} {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} failed: {label}"


# ----------------------------------------------------------------------
# 1. two-level closed forms
# ----------------------------------------------------------------------

def test_criterion_1_two_level_closed_forms():
    m = models.two_level(models.TwoLevelParams(4.0))
    theta = np.log(2.0)
    eta_ok = np.max(np.abs(m.eta_plus - np.array([[1.25, 0.75], [0.75, 1.25]]))) <= 1e-12
    h_ok = np.max(np.abs(m.h - np.diag([2.0, -2.0]))) <= 1e-12
    c_expected = np.array(
        [[np.cosh(theta), np.sinh(theta)], [-np.sinh(theta), -np.cosh(theta)]]
    )
    c_ok = np.max(np.abs(m.C - c_expected)) <= 1e-12
    root = linalg.hermitian_function(m.A @ m.A, np.sqrt)
    c_from_a = m.A @ np.linalg.inv(root)
    caa_ok = np.max(np.abs(m.C - c_from_a)) <= 1e-12
    _report(1, "two-level eta_+, h, C and C = A/sqrt(A^2) at 1e-12",
            eta_ok and h_ok and c_ok and caa_ok)


# ----------------------------------------------------------------------
# 2. pseudo-metric family residuals
# ----------------------------------------------------------------------

def test_criterion_2_pseudo_metric_family():
    worst_real = 0.0
    for _ in range(100):
        n = int(RNG.integers(2, 9))
        lam = np.sort(RNG.standard_normal(n)) + 2.0 * np.arange(n) / n
        b = np.eye(n) + 0.5 * (
            RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
        ) / np.sqrt(n)
        h = b @ np.diag(lam) @ np.linalg.inv(b)
        bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(h))
        sigma = RNG.choice([-1.0, 1.0], size=n)
        pm = metric.pseudo_metric_family(bs, sigma)
        worst_real = max(worst_real, forward_pseudo_hermiticity(h, pm.eta))
    worst_pairs = 0.0
    for _ in range(40):
        a = RNG.standard_normal((6, 6))
        bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(a))
        sigma = RNG.choice([-1.0, 1.0], size=len(bs.real_indices()))
        pm = metric.pseudo_metric_family(bs, sigma)
        worst_pairs = max(worst_pairs, forward_pseudo_hermiticity(a, pm.eta))
    print(f"    worst residual: real {worst_real:.2e}, paired {worst_pairs:.2e}")
    _report(2, "pseudo-metric residual <= 1e-9 (real + conjugate pairs)",
            worst_real <= 1e-9 and worst_pairs <= 1e-9)


# ----------------------------------------------------------------------
# 3. Swanson model
# ----------------------------------------------------------------------

def test_criterion_3_swanson():
    worst = 0.0
    for at in (-0.3, 0.0, 0.1, 0.25):
        for bt in (-0.2, 0.05, 0.3):
            for r in (-0.6, 0.0, 0.4):
                if 1.0 <= 4.0 * at * bt:
                    continue
                params = models.SwansonParams(1.0, 1.0, at, bt)
                worst = max(worst, models.swanson_metric(params, r).residual)
    sweep_ok = worst <= 1e-12
    params = models.SwansonParams(1.0, 1.0, 0.1, 0.05)
    sys_ = models.swanson_truncated(params, 0.0, 60)
    herm = opnorm(sys_.h - dagger(sys_.h)) / opnorm(sys_.h)
    e_direct = np.sort(np.linalg.eigvals(sys_.H).real)[:5]
    e_h = np.sort(np.linalg.eigvalsh(sys_.h))[:5]
    spec_rel = np.max(np.abs(e_direct - e_h) / np.abs(e_direct))
    print(f"    sweep residual {worst:.2e}, h-herm {herm:.2e}, spectrum rel {spec_rel:.2e}")
    _report(3, "Swanson 2x2 identity 1e-12; truncated h 1e-9 / 1e-6",
            sweep_ok and herm <= 1e-9 and spec_rel <= 1e-6)


# ----------------------------------------------------------------------
# 4. perturbative Q-series scaling
# ----------------------------------------------------------------------

def _graded_problem(n, scale=2.0):
    n_a = n // 2
    vals = np.cumsum(0.3 + RNG.random(n))
    qa, _ = np.linalg.qr(RNG.standard_normal((n_a, n_a)) + 1j * RNG.standard_normal((n_a, n_a)))
    qb, _ = np.linalg.qr(
        RNG.standard_normal((n - n_a, n - n_a)) + 1j * RNG.standard_normal((n - n_a, n - n_a))
    )
    h0 = np.zeros((n, n), dtype=complex)
    h0[:n_a, :n_a] = qa @ np.diag(vals[:n_a]) @ qa.conj().T
    h0[n_a:, n_a:] = qb @ np.diag(vals[n_a:]) @ qb.conj().T
    w = RNG.standard_normal((n_a, n - n_a)) + 1j * RNG.standard_normal((n_a, n - n_a))
    h1 = np.zeros((n, n), dtype=complex)
    h1[:n_a, n_a:] = w
    h1[n_a:, :n_a] = -w.conj().T
    return h0, scale * h1


def test_criterion_4_q_series_scaling():
    eps_values = np.array([1e-2, 5e-3, 2.5e-3])
    ok = True
    for order in (1, 3):
        for n in (6, 12, 16):
            h0, h1 = _graded_problem(n)
            prob = perturbation.PerturbationProblem(h0, h1, 0.01, order)
            qs = perturbation.q_series(prob)
            residuals = [forward_pseudo_hermiticity(h0 + e * h1, perturbation.metric_from_q(qs, e))
                         for e in eps_values]
            slope = np.polyfit(np.log(eps_values), np.log(residuals), 1)[0]
            print(f"    order {order}, dim {n}: slope {slope:.3f}")
            ok &= slope >= order + 1.7
    _report(4, "metric residual slope >= order + 1.7 for orders 1, 3", ok)


# ----------------------------------------------------------------------
# 5. kernel metrics
# ----------------------------------------------------------------------

def test_criterion_5_kernel_metrics():
    import warnings

    ok = True
    for kind, zeta in (("barrier", 0.1), ("delta", 0.2)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = models.kernel_metric(models.KernelPotentialSpec(kind, zeta))
        order = out.residual_report["fitted_order"]
        herm = np.max(np.abs(out.eta_matrix - dagger(out.eta_matrix)))
        print(f"    {kind}: order {order:.3f}, kernel hermiticity dev {herm:.1e}")
        ok &= abs(order - 2.0) <= 0.3 and herm == 0.0
    # Klein-Gordon residual O(zeta^2) away from kinks
    box = {"n": 400, "x_min": -2.0, "x_max": 2.0}
    kg = {
        z: klein_gordon_residual(models.KernelPotentialSpec("barrier", z, **box))
        for z in (0.1, 0.05)
    }
    ratio = kg[0.1] / kg[0.05]
    kg_delta = klein_gordon_residual(models.KernelPotentialSpec("delta", 0.1, **box))
    print(f"    KG barrier ratio {ratio:.2f}, delta residual {kg_delta:.1e}")
    ok &= abs(ratio - 4.0) <= 0.4 and kg[0.1] <= 10.0 * 0.1**2 and kg_delta <= 10.0 * 0.1**2
    _report(5, "kernel residual order 2.0 +- 0.3; Hermitian; KG O(zeta^2)", ok)


# ----------------------------------------------------------------------
# 6. wrong-sign quartic
# ----------------------------------------------------------------------

def test_criterion_6_quartic():
    ok = True
    for omega in (0.0, 1.0):
        qp = models.quartic_pair(models.QuarticParams(1.0 / 16.0, omega), n_lowest=5)
        rel = np.max(np.abs(qp.spectrum_H.real - qp.spectrum_h) / np.abs(qp.spectrum_h))
        print(f"    omega {omega}: max relative gap {rel:.2e}")
        ok &= rel <= 1e-4
        if omega == 0.0:
            ok &= bool(np.all(qp.spectrum_h > 0) and np.all(qp.spectrum_H.real > 0))
    _report(6, "quartic H vs h lowest-5 at 1e-4; omega=0 spectrum positive", ok)


# ----------------------------------------------------------------------
# 7. brachistochrone
# ----------------------------------------------------------------------

def test_criterion_7_brachistochrone():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    opt = statespace.optimal_hamiltonian(statespace.BrachistochroneProblem(e1, e2, 1.0))
    tau_ok = abs(opt.tau_min - np.pi / 2.0) <= 1e-12
    final = statespace.evolve(opt.H_star, e1, opt.tau_min)
    fid = statespace.projective_fidelity(final, e2)
    fid_ok = fid >= 1.0 - 1e-8
    de = statespace.energy_uncertainty(opt.H_star, e1)
    de_ok = abs(de - 1.0) <= 1e-10
    taus = []
    k1 = 0.25
    while k1 >= 1.0 / 1024.0:
        trace_target = 1.0 / np.sqrt(k1)
        a = 0.5 * (trace_target + np.sqrt(max(trace_target**2 - 4.0, 0.0)))
        eta = np.diag([a, 1.0 / a])
        taus.append(
            statespace.optimal_hamiltonian(
                statespace.BrachistochroneProblem(e1, plus, 1.0, 1.0, eta)
            ).tau_min
        )
        k1 /= 2.0
    mono_ok = all(t2 < t1 for t1, t2 in zip(taus, taus[1:]))
    print(f"    tau_min pi/2 dev {abs(opt.tau_min - np.pi/2):.1e}, fidelity {fid:.12f}")
    print(f"    speedup taus: {np.round(taus, 6).tolist()}")
    _report(7, "tau_min, fidelity, Delta E = E, k1-speedup monotone",
            tau_ok and fid_ok and de_ok and mono_ok)


# ----------------------------------------------------------------------
# 8. state-space geometry
# ----------------------------------------------------------------------

def test_criterion_8_geometry():
    geo = statespace.two_level_geometry(np.eye(2))
    exact_ok = geo.k1 == 0.25 and geo.k2 == 0.0 and geo.k3 == 0.0
    worst_iso = 0.0
    for _ in range(100):
        b = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        eta = b @ b.conj().T + 0.2 * np.eye(2)
        rho = linalg.hermitian_function(eta, np.sqrt)
        pi = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
        pf = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
        d1 = geodesic_distance(pi, pf, eta)
        d2 = geodesic_distance(rho @ pi, rho @ pf)
        worst_iso = max(worst_iso, abs(d1 - d2))
    worst_scaling = 0.0
    for _ in range(40):
        psi = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        b = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        eta = b @ b.conj().T + 0.2 * np.eye(3)
        g = fs_metric(psi, eta)
        worst_scaling = max(worst_scaling, float(np.max(np.abs(psi @ g))))
    print(f"    isometry dev {worst_iso:.2e}, scaling-direction {worst_scaling:.2e}")
    _report(8, "k-coefficients exact; isometry 1e-10; FS annihilation 1e-12",
            exact_ok and worst_iso <= 1e-10 and worst_scaling <= 1e-12)


# ----------------------------------------------------------------------
# 9. complex classical mechanics
# ----------------------------------------------------------------------

def test_criterion_9_complex_classical():
    cubic = lambda z: 1j * z**3
    cubic_prime = lambda z: 3j * z**2
    z_of, p_of, h_of = phase_functions(cubic, 1.0)
    worst_std = 0.0
    worst_j0 = 0.0
    params = SymplecticParams()
    for _ in range(10):
        pt = RNG.standard_normal(4)
        worst_std = max(worst_std, abs(standard_bracket(z_of, h_of, pt)))
        worst_std = max(worst_std, abs(standard_bracket(p_of, h_of, pt)))
        worst_j0 = max(worst_j0, abs(bracket(params, z_of, h_of, pt) - p_of(pt)))
    traj = flow(cubic_prime, 1.0, ComplexPhasePoint(0.0, 1.0), 10.0, 1e-3, sample_every=100)
    ks, his = real_hamiltonians(cubic, traj.z, traj.p, 1.0)
    k_drift = float(np.ptp(ks))
    hi_drift = float(np.ptp(his))
    print(f"    std bracket {worst_std:.1e}, J0 dev {worst_j0:.1e}, "
          f"drifts K {k_drift:.1e} H_i {hi_drift:.1e}")
    _report(9, "bracket (in)compatibility; K, H_i drift <= 1e-8 over 1e4 steps",
            worst_std <= 1e-8 and worst_j0 <= 1e-6
            and k_drift <= 1e-8 and hi_drift <= 1e-8)


# ----------------------------------------------------------------------
# 10. EM propagation
# ----------------------------------------------------------------------

def test_criterion_10_em():
    # vacuum closed form vs d'Alembert
    sigma = 0.5
    e0 = lambda z: np.exp(-(np.asarray(z) ** 2) / (2 * sigma**2))
    e0dot = lambda z: -np.asarray(z) / sigma**2 * np.exp(-(np.asarray(z) ** 2) / (2 * sigma**2))
    init = em.InitialFields(e0, e0dot)
    prof = em.vacuum()
    z = np.linspace(-4.0, 4.0, 201)
    t = 1.3
    exact = 0.5 * (e0(z - t) + e0(z + t)) + 0.5 * (e0(z + t) - e0(z - t))
    dalembert_dev = float(np.max(np.abs(em.propagate(prof, init, z, t) - exact)))
    # constant-medium speed
    prof_c = em.constant_medium(4.0, 1.0)
    pulse = em.gaussian_pulse(0.0, 0.4)
    z_track = np.linspace(0.05, 5.0, 4001)

    def peak(t_val):
        field = em.propagate(prof_c, pulse, z_track, t_val)
        j = int(np.argmax(field))
        a, b, c = field[j - 1], field[j], field[j + 1]
        return z_track[j] + 0.5 * (a - c) / (a - 2 * b + c) * (z_track[1] - z_track[0])

    speed_dev = abs((peak(4.0) - peak(2.0)) / 2.0 - 0.5)
    # slowly varying profile vs FDTD
    prof_s = em.MediumProfile(
        lambda zz: 1.0 + 0.1 * np.tanh(np.asarray(zz, dtype=float)),
        lambda zz: np.ones_like(np.asarray(zz, dtype=float)),
        -10.0, 10.0,
    )
    pulse_s = em.gaussian_pulse(-3.0, 0.45)
    diag = prof_s.slow_variation_diagnostic(0.45)
    oracle = em.fdtd_oracle(prof_s, pulse_s, 2.0, n=3000)
    closed = em.propagate(prof_s, pulse_s, oracle.z, 2.0)
    l2 = float(
        np.linalg.norm(closed - oracle.field) / np.linalg.norm(oracle.field)
    )
    # eps-pseudo-Hermiticity of the discretized wave operator
    z_op = np.linspace(-10.0, 10.0, 250)
    omega2 = wave_operator(prof_s, z_op)
    lhs = np.asarray(prof_s.eps_at(z_op))[:, None] * omega2
    ph_residual = opnorm(lhs - dagger(lhs)) / opnorm(lhs)
    print(f"    d'Alembert {dalembert_dev:.1e}, speed dev {speed_dev:.1e}, "
          f"L2 {l2:.3e} (diag {diag:.3f}), Omega^2 residual {ph_residual:.1e}")
    _report(10, "vacuum 1e-10; speed 1e-4; FDTD L2 1e-2; Omega^2 1e-10",
            dalembert_dev <= 1e-10 and speed_dev <= 1e-4
            and diag < 0.05 and l2 <= 1e-2 and ph_residual <= 1e-10)


# ----------------------------------------------------------------------
# 11. reality of expectation values across the suite's systems
# ----------------------------------------------------------------------

def _expectation_imag_bound(h, eta, n_states=1000, interior=None):
    dim = h.shape[0]
    scale = opnorm(h) * opnorm(eta)
    worst = 0.0
    for _ in range(n_states):
        psi = RNG.standard_normal(dim) + 1j * RNG.standard_normal(dim)
        if interior is not None:
            psi[interior:] = 0.0
        val = np.conj(psi) @ eta @ (h @ psi)
        worst = max(worst, abs(val.imag) / (scale * np.linalg.norm(psi) ** 2))
    return worst


def test_criterion_11_reality_of_expectations():
    systems = []
    for d in (4.0, 2.5):
        m = models.two_level(models.TwoLevelParams(d))
        systems.append((f"two-level D={d}", m.A, m.eta_plus, None))
    lam = np.sort(RNG.standard_normal(6))
    b = np.eye(6) + 0.4 * (RNG.standard_normal((6, 6)) + 1j * RNG.standard_normal((6, 6))) / 2.0
    h_rand = b @ np.diag(lam) @ np.linalg.inv(b)
    bs = biortho.biorthonormal_extension(linalg.eig_nonhermitian(h_rand))
    systems.append(("random quasi-Hermitian", h_rand, metric.metric_from_spectrum(bs).eta, None))
    sw = models.swanson_truncated(models.SwansonParams(1.0, 1.0, 0.1, 0.05), 0.0, 40)
    # random states supported away from the truncation edge, where the
    # factored metric represents the untruncated operator exactly
    systems.append(("Swanson truncated", sw.H, sw.eta_plus.eta, 38))
    e1 = np.array([1.0, 0.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    eta_b = np.diag([3.0, 1.0 / 3.0]).astype(complex)
    opt = statespace.optimal_hamiltonian(
        statespace.BrachistochroneProblem(e1, plus, 1.0, 1.0, eta_b)
    )
    systems.append(("optimal-speed H", opt.H_star, eta_b, None))
    prof = em.MediumProfile(
        lambda zz: 1.0 + 0.1 * np.tanh(np.asarray(zz, dtype=float)),
        lambda zz: np.ones_like(np.asarray(zz, dtype=float)),
        -10.0, 10.0,
    )
    z_op = np.linspace(-10.0, 10.0, 120)
    omega2 = wave_operator(prof, z_op)
    systems.append(("EM wave operator", omega2, np.diag(prof.eps_at(z_op)).astype(complex), None))

    ok = True
    for label, h, eta, interior in systems:
        worst = _expectation_imag_bound(np.asarray(h, dtype=complex),
                                        np.asarray(eta, dtype=complex),
                                        interior=interior)
        print(f"    {label}: worst relative imaginary part {worst:.2e}")
        ok &= worst <= 1e-10
    _report(11, "Im <psi|eta H psi> <= 1e-10 relative across all systems", ok)
