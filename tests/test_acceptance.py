"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single PASS/FAIL line with
the governing tolerances and its runtime budget. Sampling suites are
marked slow so `--skip-slow` leaves the deterministic gates only.
"""

import time

import numpy as np
import pytest

from betalab import ensembles as ens
from betalab import operators as ops
from betalab import universality as uni
from betalab.equilibrium import solve_equilibrium
from betalab.potentials import make_potential, support_endpoints
from betalab.transport import solve_transport

import oracles

QUARTIC_G = 0.1


def _finish(name, checks, elapsed, budget):
    bad = [detail for ok, detail in checks if not ok]
    ok = not bad and elapsed < budget
    print(f"{'PASS' if ok else 'FAIL'} {name}: {len(checks)} checks, {elapsed:.1f}s of {budget:.0f}s budget")
    for detail in bad:
        print(f"  failed: {detail}")
    if elapsed >= budget:
        print(f"  failed: runtime {elapsed:.1f}s over budget {budget:.0f}s")
    assert ok


def _pipeline(kind, **params):
    eq = solve_equilibrium(make_potential(kind, **params))
    tmap = solve_transport(eq)
    grid = ops.cheb_grid(256, eq.interval)
    spectrum = ops.eigendecompose(ops.kernel_matrix(tmap, grid), grid)
    return eq, tmap, spectrum


def _se_inflated(vals):
    """Standard error with a lag-1 autocorrelation correction."""
    vals = np.asarray(vals, dtype=float)
    m = vals.mean()
    c0 = float(np.mean((vals - m) ** 2))
    c1 = float(np.mean((vals[1:] - m) * (vals[:-1] - m)))
    rho = max(0.0, c1 / c0) if c0 > 0 else 0.0
    infl = np.sqrt((1.0 + rho) / max(1.0 - rho, 1e-6))
    return np.sqrt(c0 / len(vals)) * infl


def test_criterion_1_gaussian_degeneracy():
    t0 = time.perf_counter()
    eq, tmap, spectrum = _pipeline("gaussian")
    xs = np.linspace(-2.0, 2.0, 801)
    p_dev = float(np.max(np.abs(eq.p_value(xs) - 1.0)))
    ys = np.linspace(-2.2, 2.2, 801)
    z_dev = float(np.max(np.abs(tmap.value(ys) - ys)))
    eta_max = float(np.max(np.abs(spectrum.eigenvalues))) if len(spectrum.eigenvalues) else 0.0
    checks = [
        (p_dev < 1e-10, f"|P-1| = {p_dev:.2e} (tol 1e-10)"),
        (z_dev < 1e-8, f"|map - identity| = {z_dev:.2e} (tol 1e-8)"),
        (eta_max < 1e-10, f"max |eta| = {eta_max:.2e} (tol 1e-10)"),
    ]
    _finish("gaussian-degeneracy", checks, time.perf_counter() - t0, 10.0)


def test_criterion_2_quartic_pipeline():
    t0 = time.perf_counter()
    pot = make_potential("even-quartic", g=QUARTIC_G)
    a, b = support_endpoints(pot)
    eq = solve_equilibrium(pot)
    tmap = solve_transport(eq)
    xs = np.linspace(-2.0, 2.0, 801)
    closed = QUARTIC_G * xs * xs + (1.0 - QUARTIC_G)
    p_dev = float(np.max(np.abs(eq.p_value(xs) - closed)))
    probe_dev = max(
        abs(eq.p_value(z) - oracles.density_value_oracle(pot.dv, z))
        for z in (-1.7, -0.3, 0.0, 0.9, 1.999)
    )
    checks = [
        (abs(a + 2.0) < 1e-8 and abs(b - 2.0) < 1e-8, f"endpoints ({a:.2e}+2, {b:.2e}-2) (tol 1e-8)"),
        (p_dev < 1e-8, f"|P - closed form| = {p_dev:.2e} (tol 1e-8)"),
        (probe_dev < 1e-8, f"|P - quadrature oracle| = {probe_dev:.2e} (tol 1e-8)"),
        (tmap.residual_max < 1e-7, f"pushforward residual = {tmap.residual_max:.2e} (tol 1e-7)"),
        (tmap.overlap_max < 1e-8, f"series/grid overlap gap = {tmap.overlap_max:.2e} (tol 1e-8)"),
    ]
    _finish("quartic-pipeline", checks, time.perf_counter() - t0, 60.0)


def test_criterion_3_operator_identities():
    t0 = time.perf_counter()
    battery = [
        lambda x: np.asarray(x, dtype=float) ** 3,
        lambda x: np.asarray(x, dtype=float) ** 5 - np.asarray(x, dtype=float),
        lambda x: np.asarray(x, dtype=float) ** 4 - 2.0 * np.asarray(x, dtype=float) ** 2,
        np.cos,
        lambda x: np.sin(2.0 * np.asarray(x, dtype=float)),
        lambda x: np.cos(3.0 * np.asarray(x, dtype=float)),
        lambda x: np.exp(0.5 * np.asarray(x, dtype=float)),
        lambda x: np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
        lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float) ** 2),
        lambda x: np.log(3.0 + np.asarray(x, dtype=float)),
    ]
    inv_worst = max(ops.rank_one_identity_residual(v) for v in battery)

    rng = np.random.default_rng(17)
    route_worst = 0.0
    for _ in range(20):
        deg = int(rng.integers(1, 11))
        poly = np.polynomial.Polynomial(rng.standard_normal(deg + 1) / np.arange(1.0, deg + 2.0))
        route_worst = max(route_worst, ops.cov_form(poly).rel_discrepancy)

    norm_worst = 0.0
    decay_min = np.inf
    recon_worst = 0.0
    for g in (0.02, 0.05, 0.1, 0.2):
        eq, tmap, spectrum = _pipeline("even-quartic", g=g)
        cm = ops.contraction_matrices(spectrum)
        norm_worst = max(norm_worst, cm.norm_plus, cm.norm_minus)
        decay_min = min(decay_min, spectrum.decay_rate)
        grid = spectrum.grid
        kmat = ops.kernel_matrix(tmap, grid)
        s = np.sqrt(grid.weights)
        m = spectrum.truncation
        vals = np.stack([spectrum.phi(grid.nodes, k) for k in range(m)], axis=1)
        recon = s[:, None] * ((vals * spectrum.eigenvalues[:m]) @ vals.T) * s[None, :]
        recon_worst = max(recon_worst, float(np.max(np.abs(s[:, None] * kmat * s[None, :] - recon))))
    checks = [
        (inv_worst < 1e-6, f"inversion identity residual = {inv_worst:.2e} over 10 functions (tol 1e-6)"),
        (route_worst < 1e-6, f"route discrepancy = {route_worst:.2e} over 20 polynomials (tol 1e-6)"),
        (norm_worst < 1.0 - 1e-3, f"contraction norm = {norm_worst:.4f} over 4 couplings (tol 1-1e-3)"),
        (decay_min > 0.0, f"eigenvalue decay rate = {decay_min:.2f} (must be positive)"),
        (recon_worst < 1e-10, f"kernel reconstruction error = {recon_worst:.2e} (tol 1e-10)"),
    ]
    _finish("operator-identities", checks, time.perf_counter() - t0, 120.0)


def test_criterion_4_structural_identities():
    t0 = time.perf_counter()
    eq, tmap, spectrum = _pipeline("even-quartic", g=QUARTIC_G)
    dres = ops.deformation_residual(eq, tmap)

    rng = np.random.default_rng(5)
    configs = rng.uniform(-2.05, 2.05, (50, 8))
    ham = uni.hamiltonian_identity_residual(eq, tmap, spectrum, 2.0, configs)
    lin = uni.linearization_check(
        eq, tmap, spectrum, 2.0, lambda c: (c**2).sum(axis=1), n=2, modes=3
    )

    perturbed = uni.hamiltonian_identity_residual(
        eq, oracles.PerturbedMap(tmap), spectrum, 2.0, configs
    )
    truncated = uni.hamiltonian_identity_residual(eq, tmap, spectrum, 2.0, configs, modes=2)

    checks = [
        (dres.residual < 1e-6, f"deformation constancy = {dres.residual:.2e} (tol 1e-6)"),
        (ham.residual < 1e-6, f"energy identity constancy = {ham.residual:.2e} over 50 configs (tol 1e-6)"),
        (lin.rel_discrepancy < 1e-3, f"linearization discrepancy = {lin.rel_discrepancy:.2e} (tol 1e-3)"),
        (perturbed.residual > 1e-2, f"perturbed-map control = {perturbed.residual:.2e} (must exceed 1e-2)"),
        (truncated.residual > 1e-2, f"truncated-modes control = {truncated.residual:.2e} (must exceed 1e-2)"),
    ]
    _finish("structural-identities", checks, time.perf_counter() - t0, 300.0)


@pytest.mark.slow
def test_criterion_5_fluctuation_reports():
    t0 = time.perf_counter()
    gauss_eq = solve_equilibrium(make_potential("gaussian"))
    bank = [
        ("lambda", lambda x: np.asarray(x, dtype=float)),
        ("lambda2", lambda x: np.asarray(x, dtype=float) ** 2),
        ("lambda3", lambda x: np.asarray(x, dtype=float) ** 3),
        ("cos", np.cos),
    ]
    checks = []
    for beta, seed in ((1.0, 101), (2.0, 102), (4.0, 103)):
        sample = ens.sample_gaussian(200, beta, 5000, seed=seed)
        for name, h in bank:
            rep = uni.clt_report(sample, h, gauss_eq, name=name)
            checks.append(
                (
                    rep.passed(3.0),
                    f"gaussian beta={beta} {name}: z_mean={rep.z_mean:.2f} z_var={rep.z_var:.2f} (|z|<3)",
                )
            )
            checks.append(
                (
                    rep.normality_p > 0.01,
                    f"gaussian beta={beta} {name}: normality p={rep.normality_p:.3f} (>0.01)",
                )
            )
        if beta == 2.0:
            rep = uni.clt_report(sample, bank[0][1], gauss_eq, name="total")
            anchor_dev = abs(rep.emp_var - 1.0)
            checks.append(
                (
                    anchor_dev < 3.0 * rep.se_var and abs(rep.pred_var - 1.0) < 1e-10,
                    f"variance anchor: |emp-1| = {anchor_dev:.4f} vs 3se = {3 * rep.se_var:.4f}",
                )
            )

    quartic_pot = make_potential("even-quartic", g=QUARTIC_G)
    quartic_eq = solve_equilibrium(quartic_pot)
    msample = ens.sample_mcmc(quartic_pot, 200, 2.0, 2000, seed=104, eq=quartic_eq)
    rep = uni.clt_report(msample, bank[1][1], quartic_eq, name="lambda2")
    checks.append(
        (rep.passed(3.0), f"quartic mcmc lambda2: z_mean={rep.z_mean:.2f} z_var={rep.z_var:.2f} (|z|<3)")
    )
    _finish("fluctuation-reports", checks, time.perf_counter() - t0, 1200.0)


@pytest.mark.slow
def test_criterion_6_bulk_universality():
    t0 = time.perf_counter()
    quartic_pot = make_potential("even-quartic", g=QUARTIC_G)
    quartic_eq = solve_equilibrium(quartic_pot)
    gauss_eq = solve_equilibrium(make_potential("gaussian"))
    n, count, hw = 400, 1000, 0.1
    checks = []
    for beta, seed in ((2.0, 201), (1.0, 202), (4.0, 203)):
        qs = ens.sample_mcmc(quartic_pot, n, beta, count, seed=seed, eq=quartic_eq)
        gs = ens.sample_gaussian(n, beta, count, seed=seed + 50, window=qs.window)
        for center in (0.0, 0.5, -1.0):
            dist = uni.universality_distance(qs, quartic_eq, center, gs, gauss_eq, 0.0, hw)
            pooled = min(dist.gaps_a, dist.gaps_b)
            checks.append(
                (
                    dist.ks_distance < dist.noise_floor + 0.02,
                    f"beta={beta} center={center}: ks={dist.ks_distance:.4f} floor={dist.noise_floor:.4f} (+0.02)",
                )
            )
            checks.append(
                (pooled >= 20000, f"beta={beta} center={center}: pooled gaps {pooled} (>=20000)")
            )
    _finish("bulk-universality", checks, time.perf_counter() - t0, 3600.0)


@pytest.mark.slow
def test_criterion_7_tiny_n_oracles():
    t0 = time.perf_counter()
    bank = [
        ("sum", lambda c: c.sum(axis=1)),
        ("square", lambda c: (c**2).sum(axis=1)),
        ("quartic", lambda c: (c**4).sum(axis=1)),
        ("cosine", lambda c: np.cos(c).sum(axis=1)),
        ("largest", lambda c: c[:, -1]),
    ]
    checks = []
    for kind, params, seed in (("gaussian", {}, 301), ("even-quartic", {"g": QUARTIC_G}, 302)):
        pot = make_potential(kind, **params)
        eq = solve_equilibrium(pot)
        for n in (2, 3):
            direct = ens.direct_expectation(pot, n, 2.0, [ob for _, ob in bank])
            sample = ens.sample_mcmc(pot, n, 2.0, 4000, seed=seed + n, eq=eq)
            for j, (name, ob) in enumerate(bank):
                vals = np.asarray(ob(sample.configs), dtype=float)
                se = _se_inflated(vals)
                z = (vals.mean() - direct[j]) / se
                checks.append(
                    (abs(z) < 3.0, f"{kind} n={n} {name}: z={z:.2f} (|z|<3)")
                )
    _finish("tiny-n-oracles", checks, time.perf_counter() - t0, 600.0)
