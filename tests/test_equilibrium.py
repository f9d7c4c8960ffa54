import dataclasses

import numpy as np
import pytest

from betalab import operators as ops
from betalab.equilibrium import EquilibriumData, _contour_density, _log_potential, solve_equilibrium
from betalab.errors import NumericalError, UsageError
from betalab.potentials import make_potential, normalize_support, support_endpoints

import oracles
from conftest import QUARTIC_G, traced_peak


def test_gaussian_density_factor_is_one(gauss_eq):
    xs = np.linspace(-2.0, 2.0, 101)
    assert np.max(np.abs(gauss_eq.p_value(xs) - 1.0)) < 1e-10
    assert abs(gauss_eq.genericity_margin - 1.0) < 1e-12
    assert abs(gauss_eq.robin_constant + 1.0) < 1e-10
    assert abs(gauss_eq.mass - 1.0) < 1e-10


def test_quartic_density_factor_closed_form(quartic_eq):
    g = 0.1
    xs = np.linspace(-2.0, 2.0, 101)
    assert np.max(np.abs(quartic_eq.p_value(xs) - (g * xs * xs + 1.0 - g))) < 1e-8
    assert abs(quartic_eq.genericity_margin - (1.0 - g)) < 1e-10


def test_quartic_density_factor_quadrature_oracle(quartic_eq):
    pot = quartic_eq.potential
    for z in (-1.7, -0.3, 0.0, 0.9, 1.999):
        assert abs(quartic_eq.p_value(z) - oracles.density_value_oracle(pot.dv, z)) < 1e-8


def test_robin_constant_gaussian_oracle(gauss_eq):
    # effective potential at an interior point, fully by quadrature
    lam = 0.37
    want = 2.0 * oracles.log_potential_oracle(lam) - 0.5 * lam * lam
    assert abs(gauss_eq.robin_constant - want) < 1e-9


def test_density_normalization_and_positivity(quartic_eq):
    xs = np.linspace(-1.999, 1.999, 2001)
    dens = quartic_eq.density(xs)
    assert np.all(dens > 0)
    assert quartic_eq.density(2.5) == 0.0
    integral = float(np.sum(0.5 * (dens[1:] + dens[:-1])) * (xs[1] - xs[0]))
    assert abs(integral - 1.0) < 1e-3
    assert abs(quartic_eq.mass - 1.0) < 1e-10


def test_cdf_and_quantile_roundtrip(quartic_eq):
    for t in (-1.5, -0.2, 0.8, 1.9):
        q = quartic_eq.cdf(t)
        assert abs(oracles.quartic_cdf_oracle(0.1, t) - q) < 1e-10
        assert abs(quartic_eq.quantile(q) - t) < 1e-9


@pytest.mark.parametrize("g", [0.1, 0.8])
def test_quantile_matches_brentq_oracle(g, quartic_eq):
    eq = quartic_eq if g == 0.1 else solve_equilibrium(make_potential("even-quartic", g=g))
    qs = np.concatenate(([1e-6], np.linspace(0.005, 0.995, 199), [1.0 - 1e-6]))
    got = eq.quantile(qs)
    want = np.array([oracles.quantile_brentq(eq, q) for q in qs])
    assert np.max(np.abs(got - want)) < 1e-13
    # one level gives the same bits alone as in a batch
    assert all(eq.quantile(q) == z for q, z in zip(qs, got))
    assert eq.quantile(0.0) == -2.0 and eq.quantile(1.0) == 2.0


def test_quantile_without_a_root_raises_coded_error(quartic_eq):
    short = dataclasses.replace(quartic_eq, cdf_modes=0.9 * quartic_eq.cdf_modes)  # mass 0.9
    with pytest.raises(NumericalError) as err:
        short.quantile([0.5, 0.95])
    assert err.value.code == "no-convergence"


def test_cdf_matches_per_mode_sum(quartic_eq):
    xs = np.linspace(-2.0, 2.0, 101)
    want = np.array([oracles.cdf_per_mode(quartic_eq.cdf_modes, x) for x in xs])
    assert np.max(np.abs(quartic_eq.cdf(xs) - want)) < 1e-15


def test_effective_potential_residual_and_exterior(quartic_eq, gauss_eq):
    assert quartic_eq.v_residual < 1e-7
    assert gauss_eq.v_residual < 1e-7


def test_not_generic_detected():
    with pytest.raises(NumericalError) as err:
        solve_equilibrium(make_potential("even-quartic", g=1.0))
    assert err.value.code == "not-generic"


def test_unnormalized_support_rejected_with_hint():
    pot = make_potential("polynomial", coeffs=[0.0, 0.0, 1.0])  # support is not (-2, 2)
    with pytest.raises(NumericalError) as err:
        solve_equilibrium(pot)
    assert err.value.code == "variational-failure"
    assert "support_endpoints" in err.value.message


def test_serialization_roundtrip(quartic_eq):
    data = quartic_eq.to_dict()
    back = EquilibriumData.from_dict(data)
    xs = np.linspace(-1.99, 1.99, 17)
    assert np.allclose(back.p_value(xs), quartic_eq.p_value(xs), atol=1e-14)
    assert np.allclose(back.cdf(xs), quartic_eq.cdf(xs), atol=1e-14)
    assert back.robin_constant == quartic_eq.robin_constant
    # files written before the contour fields were dropped still load
    assert "contour_radius" not in data and "contour_nodes" not in data
    older = EquilibriumData.from_dict({**data, "contour_radius": 2.5, "contour_nodes": 512})
    assert np.array_equal(older.p_cheb, back.p_cheb) and np.array_equal(older.cdf_modes, back.cdf_modes)


def test_serialization_user_potential_needs_closures(gauss_eq):
    pot = make_potential(
        "user-analytic",
        v=lambda x: 0.5 * x * x,
        dv=lambda x: np.asarray(x),
        d2v=lambda x: np.ones_like(np.asarray(x)),
        analyticity_radius=100.0,
        label="quad",
    )
    eq = solve_equilibrium(pot)
    data = eq.to_dict()
    with pytest.raises(UsageError):
        EquilibriumData.from_dict(data)
    back = EquilibriumData.from_dict(data, potential=pot)
    assert abs(back.robin_constant - eq.robin_constant) < 1e-14


def test_recentering_coefficients():
    c = oracles.recentering_coeffs(lambda x: np.full_like(np.asarray(x, dtype=float), 3.0))
    assert abs(c.c1) < 1e-9 and abs(c.c2) < 1e-9
    c = oracles.recentering_coeffs(lambda x: np.asarray(x, dtype=float))
    assert abs(c.c1 - 1.0) < 1e-9 and abs(c.c2) < 1e-9
    c = oracles.recentering_coeffs(lambda x: 0.5 * np.asarray(x, dtype=float) ** 2)
    assert abs(c.c1) < 1e-9 and abs(c.c2 - 1.0) < 1e-9


def test_exterior_effective_potential_dips_nowhere(quartic_eq):
    probe = 2.15
    vout = 2.0 * oracles.log_potential_oracle(probe, quartic_eq.p_value) - quartic_eq.potential.v(probe)
    assert vout <= quartic_eq.robin_constant + 1e-6


@pytest.mark.parametrize("g", [-0.1, 0.1, 0.5, 0.9])
def test_log_potential_matches_quadrature_oracle(g):
    # the closed form of the CDF modes, inside the support and just past
    # either end, where the oracle's Gauss rule agrees to 4.4e-16
    eq = solve_equilibrium(make_potential("even-quartic", g=g))
    xs = np.array([-1.5, -0.7, 0.0, 0.37, 1.3])
    xs = np.concatenate((xs, [s * (2.0 + t) for s in (-1.0, 1.0) for t in (1e-3, 0.05, 0.18)]))
    want = np.array([oracles.log_potential_oracle(x, eq.p_value) for x in xs])
    assert np.max(np.abs(_log_potential(eq.cdf_modes, xs) - want)) < 1e-15
    assert eq.v_residual <= 5e-15


@pytest.mark.parametrize("eps", [0.2, 0.5])
def test_exterior_dip_raises(eps):
    # g < 0 drives the effective potential above its support level just
    # outside the support: the one-interval ansatz fails there
    with pytest.raises(NumericalError) as err:
        solve_equilibrium(make_potential("even-quartic", g=-0.3, eps=eps))
    assert err.value.code == "variational-failure"
    assert "exceeds its support level" in err.value.message


def test_certificate_reads_only_the_modes(monkeypatch):
    # the variational checks take the log potential from the CDF modes:
    # no resampled density or second quadrature (the library keeps no
    # resampling log-kernel route at all)
    pot = make_potential("even-quartic", g=QUARTIC_G)
    want = solve_equilibrium(pot)

    def refuse(*args, **kwargs):
        raise AssertionError("the certificate resampled the equilibrium")

    monkeypatch.setattr(EquilibriumData, "density", refuse)
    monkeypatch.setattr(ops, "gauss_semicircle", refuse)
    got = solve_equilibrium(pot)
    assert np.array_equal(got.p_cheb, want.p_cheb) and np.array_equal(got.cdf_modes, want.cdf_modes)
    assert got.robin_constant == want.robin_constant and got.v_residual == want.v_residual


def test_contour_quadrature_working_set(monkeypatch):
    # the parent held three complex 256 x 512 quotients (6.2 MiB)
    pot = make_potential("even-quartic", g=QUARTIC_G)
    with traced_peak() as peak:
        eq = solve_equilibrium(pot, contour_nodes=512, grid_nodes=256)
    assert peak.bytes <= 1 << 20
    # the row blocks do not change a bit of the density polynomial
    monkeypatch.setattr(ops, "_PV_BLOCK", 1 << 30)
    whole = solve_equilibrium(pot, contour_nodes=512, grid_nodes=256)
    assert np.array_equal(eq.p_cheb, whole.p_cheb)


def test_contour_sum_where_its_terms_cancel():
    # at g=0.99 the density polynomial g x^2 + 1 - g is 0.01 at 0, where
    # the contour terms cancel to 1/3000 of their moduli; summed pairwise,
    # the 64 values lie within 1.1e-15 of it (5.3e-15 by a BLAS dot)
    g = 0.99
    pot = make_potential("even-quartic", g=g)
    half = pot.domain[1]
    x = ops.cheb_grid(64, (-half, half)).nodes
    exact = g * x.astype(np.longdouble) ** 2 + (1 - np.longdouble(g))
    err = _contour_density(pot, 512)(x) - exact
    assert np.max(np.abs(err)) <= 1.5e-15


def _window_grids(monkeypatch, pot):
    """Record the sizes of the first-kind grids built on the window of
    ``pot``, the interval ``solve_equilibrium`` fits the density on."""
    eps = pot.domain[1] - 2.0
    interval = (-(2.0 + eps), 2.0 + eps)
    sizes = []
    build = ops.cheb_grid

    def recording(n=256, interval_=ops.SIGMA):
        if tuple(interval_) == tuple(interval):
            sizes.append(n)
        return build(n, interval_)

    monkeypatch.setattr(ops, "cheb_grid", recording)
    return sizes


SWEEP_POLYNOMIAL = [0.0, 0.05, 0.55, 0.01, 0.02]


@pytest.mark.parametrize("g", [-0.1, 0.0, 0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.99, "polynomial"])
def test_polynomial_density_resolves_on_the_first_grid(monkeypatch, g):
    # a polynomial V has a polynomial density factor: the first grid, of
    # FIT_START = 64 nodes, drops at least MIN_DROPPED coefficients, and
    # the fit is the fixed 256-node fit to rounding
    if g == "polynomial":
        pot = make_potential("polynomial", coeffs=SWEEP_POLYNOMIAL)
        pot, _ = normalize_support(pot, support_endpoints(pot))
    else:
        pot = make_potential("even-quartic", g=g)
    sizes = _window_grids(monkeypatch, pot)
    eq = solve_equilibrium(pot)
    assert sizes == [ops.FIT_START]
    want = oracles.density_fit_fixed(pot, 256)
    assert eq.p_cheb.size == want.size
    assert np.max(np.abs(eq.p_cheb - want)) <= 2e-15
    assert eq.v_residual <= (1e-14 if g == "polynomial" else 2e-15)


def _log_potential_v():
    # x^2/2 + log(1 + (x/2.6)^2), poles of V' at +-2.6i, normalized to the
    # reference support; its density factor has 29 coefficients
    a2 = 2.6**2
    pot = make_potential(
        "user-analytic",
        v=lambda x: 0.5 * np.asarray(x) ** 2 + np.log1p(np.asarray(x) ** 2 / a2),
        dv=lambda x: np.asarray(x) + 2.0 * np.asarray(x) / (a2 + np.asarray(x) ** 2),
        d2v=lambda x: 1.0 + 2.0 * (a2 - np.asarray(x) ** 2) / (a2 + np.asarray(x) ** 2) ** 2,
        analyticity_radius=2.6,
        label="log-bump",
    )
    pot, _ = normalize_support(pot, support_endpoints(pot))
    return pot


def test_density_fit_doubles_to_its_plateau(monkeypatch):
    pot = _log_potential_v()
    sizes = _window_grids(monkeypatch, pot)
    # the first grid resolves the 29 coefficients
    eq = solve_equilibrium(pot)
    assert sizes == [64]
    assert eq.p_cheb.size == 29
    assert np.array_equal(eq.p_cheb, oracles.density_fit_fixed(pot, 64))
    # a 32-node cap is the first grid; the chop drops 3 < MIN_DROPPED
    # coefficients there, and the fit is the fixed 32-node one, bit for bit
    sizes.clear()
    capped = solve_equilibrium(pot, grid_nodes=32)
    assert sizes == [32]
    assert np.array_equal(capped.p_cheb, oracles.density_fit_fixed(pot, 32))
    assert capped.p_cheb.size == 29
    # from 16 nodes it doubles to 64, the first grid on the plateau, and
    # returns the direct 64-node fit
    monkeypatch.setattr(ops, "FIT_START", 16)
    sizes.clear()
    doubled = solve_equilibrium(pot)
    assert sizes == [16, 32, 64]
    assert np.array_equal(doubled.p_cheb, eq.p_cheb)
    assert doubled.v_residual <= 2e-15
