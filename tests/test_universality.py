import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from betalab import cli
from betalab import ensembles as ens
from betalab import operators as ops
from betalab import universality as uni
from betalab.equilibrium import solve_equilibrium
from betalab.errors import NumericalError, UsageError
from betalab.potentials import make_potential
from betalab.transport import solve_transport

import oracles


# ----------------------------------------------------------------------
# CLT reports


def test_clt_predictions_match_oracles(gauss_eq, sample_cache):
    h = lambda x: np.asarray(x, dtype=float) ** 2
    for beta, seed in ((1.0, 21), (2.0, 22), (4.0, 23)):
        s = sample_cache("gaussian", n=150, beta=beta, count=1500, seed=seed)
        rep = uni.clt_report(s, h, gauss_eq, name="square")
        assert abs(rep.pred_mean - oracles.mean_shift_square_oracle(beta)) < 1e-9
        want_var = oracles.variance_form_oracle(h) / beta
        assert abs(rep.pred_var - want_var) < 1e-7
        assert abs(rep.centering - s.n) < 1e-9
        assert rep.passed(z_max=3.5)


def test_clt_cos_prediction(gauss_eq, sample_cache):
    s = sample_cache("gaussian", n=150, beta=1.0, count=1500, seed=21)
    rep = uni.clt_report(s, np.cos, gauss_eq, name="cos")
    assert abs(rep.pred_mean - oracles.mean_shift_cos_oracle(1.0)) < 1e-9
    assert rep.passed(z_max=3.5)


def test_clt_exact_variance_anchor(gauss_eq, sample_cache):
    # Var(sum lambda) = 2/beta with no n-dependence; at beta = 2 it is 1
    s = sample_cache("gaussian", n=150, beta=2.0, count=1500, seed=22)
    rep = uni.clt_report(s, lambda x: np.asarray(x, dtype=float), gauss_eq, name="total")
    assert abs(rep.pred_var - 1.0) < 1e-10
    assert abs(rep.pred_mean) < 1e-12
    assert rep.passed(z_max=3.5)


@pytest.mark.parametrize("which", ["gaussian", "quartic"])
def test_clt_predictions_read_only_coefficients(monkeypatch, which, gauss_eq, quartic_eq, sample_cache):
    # the centering, the variance and the mean shift are coefficient
    # algebra on h's one resolved series: no semicircle rule
    eq = gauss_eq if which == "gaussian" else quartic_eq
    s = sample_cache("gaussian", n=150, beta=1.0, count=1500, seed=21)
    want = {name: uni.clt_report(s, h, eq, name=name) for name, h in cli._H_BANK.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("the CLT prediction took a quadrature")

    monkeypatch.setattr(ops, "gauss_semicircle", refuse)
    for name, h in cli._H_BANK.items():
        got = uni.clt_report(s, h, eq, name=name)
        w = want[name]
        assert (got.centering, got.pred_mean, got.pred_var) == (w.centering, w.pred_mean, w.pred_var)


def test_log_p_is_fitted_once_per_equilibrium(monkeypatch, quartic_eq, sample_cache):
    # three reports on one equilibrium fit each h once and log p once,
    # and the cached series changes no bit: each report matches one made
    # on a fresh copy, which fits log p itself
    s = sample_cache("gaussian", n=150, beta=1.0, count=1500, seed=21)
    assert len(cli._H_BANK) == 3
    want = {name: uni.clt_report(s, h, dataclasses.replace(quartic_eq), name=name) for name, h in cli._H_BANK.items()}
    calls = []
    fit = ops.fit_resolved
    monkeypatch.setattr(ops, "fit_resolved", lambda *a, **k: calls.append(1) or fit(*a, **k))
    eq = dataclasses.replace(quartic_eq)
    for name, h in cli._H_BANK.items():
        got = uni.clt_report(s, h, eq, name=name)
        w = want[name]
        assert (got.centering, got.pred_mean, got.pred_var) == (w.centering, w.pred_mean, w.pred_var)
    assert len(calls) == 4


def _skewed_sample(n, seed):
    return np.random.default_rng(seed).exponential(size=n)


def _normal_sample(n, seed):
    return np.random.default_rng(seed).standard_normal(n)


def _mirrored_sample(n, seed):
    # symmetric about its mean up to rounding; an odd n adds the centre point
    half = np.random.default_rng(seed).standard_normal(n // 2)
    return np.concatenate([half, -half, np.zeros(n % 2)])


@pytest.mark.parametrize("n", [20, 21, 50, 1000])
@pytest.mark.parametrize("draw", [_normal_sample, _skewed_sample, _mirrored_sample])
def test_normality_p_matches_normaltest(n, draw):
    x = draw(n, seed=n)
    want = stats.normaltest(x).pvalue
    assert abs(uni._normality_p(x) - want) <= 1e-12 * want


def test_normality_p_zero_skewness():
    # the skewness z-score of an exactly symmetric sample is 0, so K^2 is the
    # kurtosis term alone; scipy's skewtest replaces y = 0 by 1 instead
    for x in (np.arange(-10.0, 11.0), np.repeat([-1.5, 0.0, 1.5], [13, 4, 13])):
        assert stats.skew(x) == 0.0
        want = np.exp(-0.5 * stats.kurtosistest(x).statistic ** 2)
        assert abs(uni._normality_p(x) - want) <= 1e-12 * want


def test_normality_p_constant_sample_is_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (np.zeros(30), np.full(30, 0.1), np.full(50, 3.7)):
            assert np.isnan(uni._normality_p(x))


def test_clt_normality_needs_twenty_values(gauss_eq):
    s = ens.sample_gaussian(10, 2.0, 19, seed=3)
    assert np.isnan(uni.clt_report(s, np.cos, gauss_eq).normality_p)
    s = ens.sample_gaussian(10, 2.0, 20, seed=3)
    assert 0.0 < uni.clt_report(s, np.cos, gauss_eq).normality_p <= 1.0


@pytest.mark.parametrize("sizes", [(1, 3), (7, 300), (250, 40), (1000, 1000)])
def test_ks_distance_matches_ks_2samp(sizes):
    rng = np.random.default_rng(sum(sizes))
    na, nb = sizes
    # continuous draws, then heavily tied ones on a small integer lattice
    pairs = [
        (rng.standard_normal(na), 1.1 * rng.standard_normal(nb) + 0.05),
        (rng.integers(0, 12, na).astype(float), rng.integers(2, 15, nb).astype(float)),
    ]
    for a, b in pairs:
        # the "asymp" statistic is the plain ECDF difference; the default
        # "exact" mode re-rounds it to a multiple of 1/lcm(na, nb)
        assert uni._ks_distance(a, b) == stats.ks_2samp(a, b, method="asymp").statistic


def test_reports_leave_scipy_stats_unloaded():
    # A pipeline run after `import betalab.cli`, the structural identities
    # included, loads no scipy module and imports no numpy submodule for
    # the first time: a lazy import inside a call would be paid inside
    # that call's wall time. The one exception is
    # the reference sampler above the dense order, which loads scipy.linalg
    # for LAPACK's tridiagonal solver; the reports then still load none of
    # scipy.stats, scipy.optimize and scipy.integrate.
    root = Path(__file__).resolve().parent.parent
    script = """
import sys
import betalab.cli
loaded = set(sys.modules)
import numpy as np
from betalab import ensembles as ens, operators as ops, universality as uni
from betalab.equilibrium import solve_equilibrium
from betalab.potentials import make_potential
from betalab.transport import solve_transport

pot = make_potential("even-quartic", g=0.1)
eq = solve_equilibrium(pot)
grid = ops.cheb_grid(64, eq.interval)
tmap = solve_transport(eq)
spec = ops.eigendecompose(ops.kernel_matrix(tmap, grid), grid)
ops.deformation_residual(eq, tmap)
configs = ens.sample_gaussian(8, 2.0, 20, seed=3, window=(-2.05, 2.05)).configs
uni.hamiltonian_identity_residual(eq, tmap, spec, 2.0, configs)
uni.linearization_check(eq, tmap, spec, 2.0, lambda c: (c * c).sum(axis=1), n=2)
gauss_eq = solve_equilibrium(make_potential("gaussian"))
a = ens.sample_gaussian(ens._DENSE_MAX_ORDER, 2.0, 40, seed=1)
b = ens.sample_gaussian(ens._DENSE_MAX_ORDER, 2.0, 40, seed=2)
ens.sample_mcmc(pot, 6, 2.0, 8, seed=4, eq=eq, chains=4, tune_sweeps=20, measure_sweeps=40)
uni.clt_report(a, np.cos, gauss_eq)
uni.universality_distance(a, gauss_eq, 0.0, b, gauss_eq, 0.0, 0.4, floor_repeats=5)
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy"))))
print(" ".join(sorted(m for m in sys.modules if m.startswith("numpy.") and m not in loaded)))
a = ens.sample_gaussian(100, 2.0, 40, seed=1)
b = ens.sample_gaussian(100, 2.0, 40, seed=2)
uni.clt_report(a, np.cos, gauss_eq)
uni.universality_distance(a, gauss_eq, 0.0, b, gauss_eq, 0.0, 0.4, floor_repeats=5)
print(" ".join(m for m in ("scipy.linalg", "scipy.stats", "scipy.optimize", "scipy.integrate") if m in sys.modules))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    scipy_mods, late_numpy, after_large_n = proc.stdout.split("\n")[:3]
    assert scipy_mods == ""
    assert late_numpy == ""
    assert after_large_n == "scipy.linalg"


# ----------------------------------------------------------------------
# local statistics


def test_unfolded_gap_mean_is_unit(gauss_eq, sample_cache):
    s = sample_cache("gaussian", n=150, beta=2.0, count=1500, seed=22)
    gaps = uni.unfold_gaps(s, gauss_eq, 0.0, 0.15)
    assert gaps.size > 3000
    assert abs(gaps.mean() - 1.0) < 0.05


def test_unfold_rejects_bad_window(gauss_eq, sample_cache):
    s = sample_cache("gaussian", n=150, beta=2.0, count=1500, seed=22)
    with pytest.raises(UsageError):
        uni.unfold_gaps(s, gauss_eq, 2.5, 0.1)
    with pytest.raises(UsageError):
        uni.unfold_gaps(s, gauss_eq, 0.0, -0.1)


def test_config_gaps_match_per_row_oracle(quartic_eq, sample_cache):
    s = sample_cache("gaussian", n=150, beta=2.0, count=1500, seed=22)
    # a narrow window leaves many configurations with fewer than two points;
    # the wide one unfolds about 1.5e5 gaps through one density call
    for center, halfwidth in ((0.3, 0.01), (0.0, 0.15), (-0.2, 1.7)):
        got = uni._config_gaps(s, quartic_eq, center, halfwidth)
        want = oracles.config_gaps_per_row(s, quartic_eq, center, halfwidth)
        assert len(got) == len(want) == s.count
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert any(b.size == 0 for b in want) == (halfwidth < 0.1)


def test_phi_estimate_basic(gauss_eq, sample_cache):
    s = sample_cache("gaussian", n=150, beta=2.0, count=1500, seed=22)
    est = uni.phi_estimate(s, gauss_eq, 0.0, lambda u: np.exp(-0.5 * u * u))
    assert est.count == s.count
    assert est.value > 0.1
    assert est.se < est.value


def test_split_noise_floor_sane(gauss_eq, sample_cache):
    s = sample_cache("gaussian", n=150, beta=2.0, count=1500, seed=22)
    floor = uni.split_noise_floor(s, gauss_eq, 0.0, 0.15)
    assert 0.0 < floor < 0.2


def test_split_noise_floor_accepts_negative_seed(gauss_eq, sample_cache):
    # the samplers take any integer seed; so does the floor's split stream
    s = sample_cache("gaussian", n=40, beta=2.0, count=60, seed=1)
    floor = uni.split_noise_floor(s, gauss_eq, 0.0, 0.3, repeats=5, seed=-1)
    assert 0.0 < floor < 1.0


def test_same_law_distance_within_floor(gauss_eq, sample_cache):
    a = sample_cache("gaussian", n=150, beta=2.0, count=1500, seed=22)
    b = sample_cache("gaussian", n=150, beta=2.0, count=1500, seed=31)
    dist = uni.universality_distance(a, gauss_eq, 0.0, b, gauss_eq, 0.0, 0.15)
    assert dist.ks_distance < dist.noise_floor + 0.02
    assert dist.passed()


def _run_sweeps_stacked(vfun, beta, lt, gens, widths, window, n_sweeps, collect=None):
    """`ens._run_sweeps` with each chunk's draws made as fresh per-chain arrays and stacked."""
    n, chains = lt.shape
    chunk = max(1, ens._DRAW_CAP // ((n + 2) * chains))
    acc = np.zeros(3)
    for start in range(0, n_sweeps, chunk):
        k = min(chunk, n_sweeps - start)
        z = np.stack([g.standard_normal((k, n + 2)) for g in gens], axis=-1)
        logu = np.log(np.stack([g.random((k, n + 2)) for g in gens], axis=-1) + 1e-300)
        acc += ens._sweep_block(vfun, beta, lt, widths, window, z, logu, collect)
    return acc


def test_blocked_layouts_match_unblocked(monkeypatch, gauss_eq, quartic_eq):
    # the sampler's reused draw buffers (measured over two draw chunks)
    # against freshly stacked draws, and phi_estimate's row chunks (the
    # reference sample spans two) against one chunk, bit for bit
    pot = make_potential("even-quartic", g=0.1)
    main = ens.sample_mcmc(pot, 12, 2.0, 100, seed=4, eq=quartic_eq)
    ref = ens.sample_gaussian(12, 2.0, 3000, seed=7)
    assert ens._DRAW_CAP // (14 * 64) < 120 and ops._BLOCK // 12 < ref.count
    dist = uni.universality_distance(main, quartic_eq, 0.0, ref, gauss_eq, 0.0, 0.3)

    monkeypatch.setattr(ens, "_run_sweeps", _run_sweeps_stacked)
    monkeypatch.setattr(ops, "_BLOCK", 1 << 30)
    want = ens.sample_mcmc(pot, 12, 2.0, 100, seed=4, eq=quartic_eq)
    assert np.array_equal(main.configs, want.configs)
    assert main.diagnostics == want.diagnostics
    whole = uni.universality_distance(want, quartic_eq, 0.0, ref, gauss_eq, 0.0, 0.3)
    assert (dist.ks_distance, dist.noise_floor) == (whole.ks_distance, whole.noise_floor)
    assert np.array_equal(dist.phi_z, whole.phi_z)


def test_mismatched_samples_rejected(gauss_eq, sample_cache):
    a = sample_cache("gaussian", n=150, beta=2.0, count=1500, seed=22)
    c = sample_cache("gaussian", n=40, beta=2.0, count=60, seed=1)
    with pytest.raises(UsageError):
        uni.universality_distance(a, gauss_eq, 0.0, c, gauss_eq, 0.0, 0.15)


def test_empty_window_reported(gauss_eq, sample_cache):
    s = sample_cache("gaussian", n=40, beta=2.0, count=60, seed=1)
    with pytest.raises(NumericalError) as err:
        uni.split_noise_floor(s, gauss_eq, 1.999, 1e-7)
    assert err.value.code == "empty-window"


# ----------------------------------------------------------------------
# structural identities


def _probe_configs(count, n, seed, lo=-2.05, hi=2.05):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, (count, n))


def test_energy_identity_constancy(quartic_eq, quartic_tmap, quartic_spectrum):
    configs = _probe_configs(50, 8, seed=5)
    out = uni.hamiltonian_identity_residual(
        quartic_eq, quartic_tmap, quartic_spectrum, 2.0, configs
    )
    assert out.residual < 1e-6


def test_pair_log_ratio_matches_per_config_loop(quartic_tmap):
    for count, n in ((50, 8), (7, 60)):
        lam = np.sort(_probe_configs(count, n, seed=n), axis=1)
        zeta = quartic_tmap.value(lam)
        got = ens._pair_log_sum(zeta, lam)
        want = oracles.pair_log_ratio_loop(lam, zeta)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_energy_identity_other_beta(quartic_eq, quartic_tmap, quartic_spectrum):
    configs = _probe_configs(20, 8, seed=6)
    out = uni.hamiltonian_identity_residual(
        quartic_eq, quartic_tmap, quartic_spectrum, 1.0, configs
    )
    assert out.residual < 1e-6


def test_energy_identity_truncation_control(quartic_eq, quartic_tmap, quartic_spectrum):
    configs = _probe_configs(50, 8, seed=5)
    out = uni.hamiltonian_identity_residual(
        quartic_eq, quartic_tmap, quartic_spectrum, 2.0, configs, modes=2
    )
    assert out.residual > 1e-2


def test_identities_see_a_shifted_robin_constant(quartic_eq, quartic_tmap, quartic_spectrum):
    # both identities are measured about their closed-form constants, so a
    # Robin constant off by 1e-9 shows at its full size, (beta/2) n^2 1e-9
    # and 1e-9; a constant fitted to the values themselves absorbs it
    shifted = dataclasses.replace(quartic_eq, robin_constant=quartic_eq.robin_constant + 1e-9)
    configs = _probe_configs(50, 8, seed=5)
    out = uni.hamiltonian_identity_residual(shifted, quartic_tmap, quartic_spectrum, 2.0, configs)
    assert out.residual >= 0.5 * 2.0 * 8**2 * 1e-9
    assert ops.deformation_residual(shifted, quartic_tmap).residual >= 1e-9


def test_energy_identity_perturbed_map_control(quartic_eq, quartic_tmap, quartic_spectrum):
    configs = _probe_configs(50, 8, seed=5)
    bad = oracles.PerturbedMap(quartic_tmap)
    out = uni.hamiltonian_identity_residual(
        quartic_eq, bad, quartic_spectrum, 2.0, configs
    )
    assert out.residual > 1e-2


def test_whole_series_recurrence_passes(monkeypatch, quartic_eq, quartic_spectrum):
    # each stage sums the map's whole series by one recurrence pass, its
    # derivative's riding along; the kernel's pass gives its images and
    # its diagonal, and its other close pairs take the closed-form
    # divided difference
    passes = []
    cheb_val = ops.cheb_val

    def counted(coeffs, x, interval=ops.SIGMA):
        passes.append(coeffs)
        return cheb_val(coeffs, x, interval)

    def series_passes(tmap):
        names = ("value", "derivative", "both")
        series = (tmap.interior_cheb, tmap._der_cheb, tmap._pair)
        got = [name for coeffs in passes for name, c in zip(names, series) if coeffs is c]
        passes.clear()
        return got

    monkeypatch.setattr(ops, "cheb_val", counted)
    tmap = solve_transport(quartic_eq)
    assert series_passes(tmap) == ["both"]
    uni.hamiltonian_identity_residual(quartic_eq, tmap, quartic_spectrum, 2.0, _probe_configs(50, 8, seed=5))
    assert series_passes(tmap) == ["both"]
    # one pass per rung of the linearization rule's ladder
    out = uni.linearization_check(quartic_eq, tmap, quartic_spectrum, 2.0, lambda c: (c**2).sum(axis=1), n=2, modes=3)
    assert series_passes(tmap) == ["both"] * (uni._LINEARIZATION_LADDER.index(out.gl_nodes) + 1)
    ops.kernel_matrix(tmap, ops.cheb_grid(256, tmap.eq.interval))
    assert series_passes(tmap) == ["both"]


def test_energy_identity_guards(quartic_eq, quartic_tmap, quartic_spectrum):
    with pytest.raises(UsageError):
        uni.hamiltonian_identity_residual(
            quartic_eq, quartic_tmap, quartic_spectrum, 2.0, np.array([[0.3]])
        )
    twin = np.array([[0.5, 0.5, 1.0]])
    with pytest.raises(NumericalError) as err:
        uni.hamiltonian_identity_residual(
            quartic_eq, quartic_tmap, quartic_spectrum, 2.0, twin
        )
    assert err.value.code == "coincident-nodes"


def test_linearization_two_routes(quartic_eq, quartic_tmap, quartic_spectrum):
    obs = lambda c: (c**2).sum(axis=1)
    out = uni.linearization_check(
        quartic_eq, quartic_tmap, quartic_spectrum, 2.0, obs, n=2, modes=3
    )
    assert out.rel_discrepancy < 1e-3
    assert out.left > 0 and out.right > 0


def test_linearization_factorized_weight_matches_tensor_grid(quartic_eq, quartic_tmap, quartic_spectrum):
    # beta = 1 keeps the Jacobian factor active; modes 1 and 2 are
    # negative. The closed-form Gaussian integral against the full
    # Gauss-Hermite tensor grid, whose own error is 8.3e-16 at 8 nodes
    # (1.2e-11 at 6)
    obs = lambda c: (c**2).sum(axis=1)
    out = uni.linearization_check(quartic_eq, quartic_tmap, quartic_spectrum, 1.0, obs, n=2, modes=3)
    want = oracles.linearization_right_tensor(
        quartic_eq, quartic_tmap, quartic_spectrum, 1.0, obs, n=2, modes=3, gh_nodes=8, gl_nodes=out.gl_nodes
    )
    assert abs(out.right - want) < 1e-12 * abs(want)


def test_linearization_ignores_gh_nodes(quartic_eq, quartic_tmap, quartic_spectrum):
    # the Gaussian integral is in closed form: no rule, so no node count
    obs = lambda c: (c**2).sum(axis=1)
    runs = [
        uni.linearization_check(quartic_eq, quartic_tmap, quartic_spectrum, 1.0, obs, n=2, modes=3, gh_nodes=m)
        for m in (6, 12, 24)
    ]
    assert all(r == runs[0] for r in runs[1:])


def test_linearization_truncation_control(quartic_eq, quartic_tmap, quartic_spectrum):
    # dropping every mode leaves only the reference law: two orders above budget
    obs = lambda c: (c**2).sum(axis=1)
    out = uni.linearization_check(
        quartic_eq, quartic_tmap, quartic_spectrum, 2.0, obs, n=2, modes=0
    )
    assert out.rel_discrepancy > 2e-3


def test_linearization_jacobian_control(quartic_eq, quartic_tmap, quartic_spectrum):
    # the oracle's right route without the log-derivative reweighting must
    # miss the left route loudly away from beta=2
    obs = lambda c: (c**2).sum(axis=1)
    full = uni.linearization_check(
        quartic_eq, quartic_tmap, quartic_spectrum, 1.0, obs, n=2, modes=3
    )
    assert full.rel_discrepancy < 1e-3
    broken = oracles.linearization_right_tensor(
        quartic_eq, quartic_tmap, quartic_spectrum, 1.0, obs, n=2, modes=3, gh_nodes=6,
        gl_nodes=full.gl_nodes, jacobian=False,
    )
    assert abs(full.left - broken) / abs(full.left) > 1e-2


def test_linearization_gaussian_degenerate(gauss_eq, gauss_tmap, gauss_spectrum):
    obs = lambda c: (c**2).sum(axis=1)
    out = uni.linearization_check(
        gauss_eq, gauss_tmap, gauss_spectrum, 2.0, obs, n=2, modes=0
    )
    assert out.rel_discrepancy < 1e-10


def _quartic_chain(g):
    eq = solve_equilibrium(make_potential("even-quartic", g=g))
    tmap = solve_transport(eq)
    grid = ops.cheb_grid(256, eq.interval)
    return eq, tmap, ops.eigendecompose(ops.kernel_matrix(tmap, grid), grid)


def test_linearization_rule_follows_the_integrand(quartic_eq, quartic_tmap, quartic_spectrum):
    # g=0.1 resolves on a small rule in the map's variable; both routes
    # agree with the plain rule in lambda at 96 nodes, which is resolved there
    obs = lambda c: (c**2).sum(axis=1)
    out = uni.linearization_check(quartic_eq, quartic_tmap, quartic_spectrum, 2.0, obs, n=2, modes=3)
    assert out.gl_nodes <= 32
    assert out.quadrature_change <= uni._LINEARIZATION_TOL
    left, right = oracles.linearization_plain(
        quartic_eq, quartic_tmap, quartic_spectrum, 2.0, obs, n=2, modes=3, nodes=96
    )
    assert abs(out.left - left) < 1e-10 * abs(left)
    assert abs(out.right - right) < 1e-10 * abs(right)

    # g=0.8: the map's near-real singularity; the plain rule needs 384
    # nodes where the mapped one stops by 128, and misses at 96 (1.2e-5);
    # a rule stopped at a looser move misses by 1.7e-11 (48 nodes)
    eq, tmap, spec = _quartic_chain(0.8)
    out = uni.linearization_check(eq, tmap, spec, 2.0, obs, n=2)
    assert out.gl_nodes <= 128
    want = oracles.linearization_plain(eq, tmap, spec, 2.0, obs, n=2, modes=0, nodes=384)[0]
    assert abs(out.left - want) < 1e-12 * abs(want)
    coarse = oracles.linearization_plain(eq, tmap, spec, 2.0, obs, n=2, modes=0, nodes=96)[0]
    assert abs(coarse - want) > 1e-6 * abs(want)
    # every kept mode: the routes agree to the kernel's accuracy, not the rule's
    assert out.rel_discrepancy < 2e-8


def test_linearization_unresolved_raises(monkeypatch):
    eq, tmap, spec = _quartic_chain(0.5)
    monkeypatch.setattr(uni, "_LINEARIZATION_LADDER", uni._LINEARIZATION_LADDER[:2])
    with pytest.raises(NumericalError) as err:
        uni.linearization_check(eq, tmap, spec, 2.0, lambda c: (c**2).sum(axis=1), n=2, modes=3)
    assert err.value.code == "unresolved-quadrature"


def test_linearization_certified_beta_range(quartic_eq, quartic_tmap, quartic_spectrum):
    # integer beta makes each level's (x_{i+1} - x_i)^beta a polynomial,
    # and the rule stops at 24-48 nodes for n = 2 and 3; at beta = 0.5 it
    # is an endpoint singularity, Gauss-Legendre converges algebraically,
    # and at n=2 the left route still moves by 3.9e-9 on 256 nodes
    obs = lambda c: (c**2).sum(axis=1)
    for n in (2, 3):
        for beta in (1.0, 2.0, 4.0):
            out = uni.linearization_check(quartic_eq, quartic_tmap, quartic_spectrum, beta, obs, n=n)
            assert out.gl_nodes <= 48 and out.rel_discrepancy < 1e-13
    with pytest.raises(NumericalError) as err:
        uni.linearization_check(quartic_eq, quartic_tmap, quartic_spectrum, 0.5, obs, n=2)
    assert err.value.code == "unresolved-quadrature"


def test_linearization_dimension_guard(monkeypatch, quartic_eq, quartic_tmap, quartic_spectrum):
    # n=4 never resolves within the budget (the 32-node rule's 2^20 rows
    # still move by 1.1e-12 at g=0.1): refused before any rule is built
    def refuse(*args, **kwargs):
        raise AssertionError("the linearization rule was built")

    monkeypatch.setattr(uni, "_linearization_rule", refuse)
    for n in (0, 4, 6):
        with pytest.raises(UsageError) as err:
            uni.linearization_check(
                quartic_eq, quartic_tmap, quartic_spectrum, 2.0, lambda c: c.sum(axis=1), n=n
            )
        assert err.value.code == "dimension-too-large"
