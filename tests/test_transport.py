import dataclasses
import json

import numpy as np
import pytest

from betalab import operators as ops
from betalab import transport
from betalab.equilibrium import solve_equilibrium
from betalab.errors import BetalabError, NumericalError, UsageError
from betalab.potentials import make_potential, normalize_support, support_endpoints
from betalab.transport import OVERLAP_TOL, RESIDUAL_TOL, TransportMap, solve_transport

import oracles


def test_gaussian_map_is_identity(gauss_tmap):
    xs = np.linspace(-2.19, 2.19, 401)
    assert np.max(np.abs(gauss_tmap.value(xs) - xs)) < 1e-8
    assert np.max(np.abs(gauss_tmap.derivative(xs) - 1.0)) < 1e-7


def test_map_fixes_endpoints_and_center(quartic_tmap):
    assert abs(quartic_tmap.value(-2.0) + 2.0) < 1e-9
    assert abs(quartic_tmap.value(2.0) - 2.0) < 1e-9
    # quartic family is even, so the median is fixed
    assert abs(quartic_tmap.value(0.0)) < 1e-10


def test_map_strictly_increasing(quartic_tmap):
    xs = np.linspace(-2.19, 2.19, 801)
    assert np.all(np.diff(quartic_tmap.value(xs)) > 0)
    assert np.all(quartic_tmap.derivative(xs) > 0)


def test_map_matches_cdf_oracle(quartic_tmap):
    for x in (-1.9, -1.2, -0.4, 0.3, 1.0, 1.7):
        want = oracles.transport_point_oracle(0.1, x)
        assert abs(quartic_tmap.value(x) - want) < 1e-9


def test_pushforward_residual(quartic_tmap, quartic_eq):
    xs, _ = ops.gauss_inv_sqrt(512)
    res = quartic_tmap.derivative(xs) * quartic_eq.density(quartic_tmap.value(xs)) - ops.semicircle_density(xs)
    assert np.max(np.abs(res)) < 1e-7
    assert quartic_tmap.residual_max < 1e-7


def test_edge_series_first_coefficient(quartic_tmap):
    # zeta = edge + inward * c x (1 + s1 x + ...) in the inward distance x, so
    # zeta' = c and zeta'' = inward * 2 c s1 at the edge (inward = +1 at -2)
    c = (1.0 + 3 * 0.1) ** (-2.0 / 3.0)
    s1 = oracles.edge_slope_oracle(0.1)
    # zeta(lam) = f(t(lam)) for the series f in the map's variable t, so
    # zeta'' = (f'' - zeta' x'') / x'^2 with x(t) = c + eps sinh(A t + B)
    var = quartic_tmap.variable
    second = ops.cheb_der(ops.cheb_der(quartic_tmap.interior_cheb, ops.UNIT), ops.UNIT)
    for edge in (-2.0, 2.0):
        zp = quartic_tmap.derivative(edge)
        assert abs(zp - c) < 1e-12
        t = var.t(edge)
        xpp = var.width * var.scale**2 * np.sinh(var.scale * t + var.shift)
        zpp = (ops.cheb_val(second, t, ops.UNIT) - zp * xpp) / var.dx(t) ** 2
        assert abs(zpp - np.sign(edge) * -2.0 * c * s1) < 1e-10


@pytest.mark.parametrize("g", [-0.1, 0.1, 0.5, 0.8])
def test_continued_equation_beyond_edges(g):
    # zeta' P(zeta) sqrt(zeta^2 - 4) = sqrt(lam^2 - 4) past the support, where P
    # is read from its own Chebyshev series, not from the CDF modes; the whole
    # resolving series is stored, so its derivative keeps its digits up to the
    # window ends
    eq = _quartic_eq(g)
    tmap = solve_transport(eq)
    edge = np.linspace(2.0, 2.0 + eq.eps, 400)[1:]
    for lam in (edge, -edge):
        z = tmap.value(lam)
        keep = np.abs(z) <= eq.interval[1]
        assert keep.sum() > 100
        lam, z = lam[keep], z[keep]
        lhs = tmap.derivative(lam) * eq.p_value(z) * np.sqrt(z * z - 4.0)
        assert np.max(np.abs(lhs - np.sqrt(lam * lam - 4.0))) < 2e-9


def test_edge_overlap_agreement(quartic_tmap):
    assert quartic_tmap.overlap_max < 1e-8


def test_pushforward_of_semicircle_samples(quartic_tmap, quartic_eq):
    # quantile-transform uniform grid through the semicircle, push through the
    # map, and compare against the equilibrium quantiles
    qs = np.linspace(0.01, 0.99, 99)
    from scipy.optimize import brentq

    sc_q = np.array([brentq(lambda t, q=q: oracles.semicircle_cdf(t) - q, -2.0, 2.0) for q in qs])
    pushed = quartic_tmap.value(sc_q)
    direct = np.array([quartic_eq.quantile(q) for q in qs])
    assert np.max(np.abs(pushed - direct)) < 1e-8


def test_serialization_roundtrip(quartic_tmap, quartic_eq):
    # through JSON text, as a *.transport.json file holds it: the series,
    # the variable's center and width and the certificates come back bit
    # for bit, and so do the map's values
    data = json.loads(json.dumps(quartic_tmap.to_dict()))
    back = TransportMap.from_dict(data, quartic_eq)
    assert back.variable == quartic_tmap.variable
    assert np.array_equal(back.interior_cheb, quartic_tmap.interior_cheb)
    assert (back.anchor, back.residual_max, back.overlap_max) == (
        quartic_tmap.anchor,
        quartic_tmap.residual_max,
        quartic_tmap.overlap_max,
    )
    xs = np.linspace(-2.19, 2.19, 57)
    for a, b in zip(back.value_and_derivative(xs), quartic_tmap.value_and_derivative(xs)):
        assert np.array_equal(a, b)


def test_out_of_window_rejected(quartic_tmap):
    with pytest.raises(UsageError):
        quartic_tmap.value(2.3)


def test_foreign_transport_data_refused(quartic_tmap, quartic_eq):
    data = quartic_tmap.to_dict()
    # a series in the plain variable of the window, with no center and
    # width, and the older interior-plus-edge-series layout: one refusal
    plain = {k: v for k, v in data.items() if k not in ("center", "width")}
    edges = {k: v for k, v in plain.items() if k != "interval"}
    edges.update(delta_e=0.1, interior_interval=[-1.9, 1.9], edges={})
    for old in (plain, edges):
        with pytest.raises(UsageError, match="earlier layout") as err:
            TransportMap.from_dict(old, quartic_eq)
        assert err.value.code == "invalid-spec"
    with pytest.raises(UsageError, match="window") as err:
        TransportMap.from_dict({**data, "interval": [-2.3, 2.3]}, quartic_eq)
    assert err.value.code == "invalid-spec"


def _quartic_eq(g):
    return solve_equilibrium(make_potential("even-quartic", g=g))


@pytest.mark.parametrize("g", [-0.1, 0.1, 0.3, 0.5])
def test_interior_matches_ode_oracle(g):
    eq = _quartic_eq(g)
    tmap = solve_transport(eq)
    t = np.linspace(-1.9, 1.9, 77)
    assert np.max(np.abs(tmap.value(t) - oracles.transport_interior_ode(eq, t))) < 1e-10


@pytest.mark.parametrize("g", [0.1, 0.5, 0.9, 0.99])
def test_variable_pulls_back_the_nearest_zero(g):
    # the density polynomial g x^2 + 1 - g vanishes at +-i sqrt((1 - g)/g),
    # and zeta'(0) = 1 / (1 - g) pulls the zeros back to +-i eps with
    # eps = sqrt((1 - g)/g) (1 - g); measured to 5.2e-14 relative at
    # g=0.99 from the density's 64-node fit (1.2e-14 from a 256-node one)
    var = transport._variable(_quartic_eq(g))
    assert abs(var.center) < 1e-15
    want = np.sqrt((1.0 - g) / g) * (1.0 - g)
    assert abs(var.width / want - 1.0) < 1e-13


def test_zero_past_an_edge_pulls_back_to_the_edge():
    # a sextic whose nearest non-real zero, -2.1957 + 2.3199i, lies past
    # the left edge: the variable centres on that edge, where the map's
    # slope is the edge limit (mass / P(-2))^(2/3), and the map certifies
    pot = make_potential("polynomial", coeffs=[0.0, 0.0, 0.73, 0.11, 0.04, 0.015, 0.006])
    pot, _ = normalize_support(pot, support_endpoints(pot))
    eq = solve_equilibrium(pot)
    tmap = solve_transport(eq)
    var = tmap.variable
    slope = (eq.mass / eq.p_value(-2.0)) ** (2.0 / 3.0)
    assert var.center == -2.0
    assert abs(tmap.derivative(-2.0) - slope) < 1e-12
    assert abs(var.width * slope - 2.3199254) < 1e-6
    assert tmap.residual_max < 1e-12 and tmap.overlap_max < 1e-13


@pytest.mark.parametrize("g", [-0.1, 0.0])
def test_no_nonreal_zero_is_the_affine_limit(g):
    # the density polynomial has real zeros only (g < 0) or none: the
    # same variable, at a width where sinh is linear to rounding
    var = solve_transport(_quartic_eq(g)).variable
    hi = var.interval[1]
    t = np.linspace(-1.0, 1.0, 41)
    eps = np.finfo(float).eps
    assert np.max(np.abs(var.x(t) - hi * t)) <= 4 * eps
    assert np.max(np.abs(var.dx(t) - hi)) <= 4 * eps
    assert np.max(np.abs(var.t(hi * t) - t)) <= 4 * eps


# measured certified range of the quartic family: every g from -0.1 to
# 0.99. The first refusal past it is the equilibrium's: at g=1 the density
# polynomial g x^2 + 1 - g vanishes at 0
REFUSED = {-0.2: "series-divergence", 1.0: "not-generic"}


@pytest.mark.parametrize(
    "g", [-0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.97, 0.99, 1.0]
)
def test_quartic_family_certifies_or_refuses(g):
    try:
        eq = _quartic_eq(g)
        tmap = solve_transport(eq)
    except BetalabError as err:
        assert err.code == REFUSED.get(g), err
        return
    assert g not in REFUSED
    assert tmap.residual_max < RESIDUAL_TOL == 1e-7
    assert tmap.overlap_max < OVERLAP_TOL == 1e-8
    # the kept series has reached its rounding plateau ...
    c = np.abs(tmap.interior_cheb)
    assert np.max(c[max(2, c.size - 4) :], initial=0.0) < 1e-12 * np.max(c)
    # ... and interpolates the quantile composition between its nodes
    t = np.random.default_rng(7).uniform(-1.9, 1.9, 200)
    want = eq.quantile(oracles.semicircle_cdf(t))
    assert np.max(np.abs(tmap.value(t) - want)) < 1e-12


@pytest.mark.parametrize("g", [0.1, 0.3, 0.5, 0.8])
def test_interior_resolution_ignores_rounding(g):
    eq = _quartic_eq(g)
    kept = solve_transport(eq).interior_cheb.size
    signs = np.where(np.random.default_rng(3).random(eq.cdf_modes.size) < 0.5, -1.0, 1.0)
    for pattern in (signs, -signs, np.ones_like(signs), -np.ones_like(signs)):
        shaken = dataclasses.replace(eq, cdf_modes=eq.cdf_modes * (1.0 + 4e-16 * pattern))
        assert solve_transport(shaken).interior_cheb.size == kept


def test_anchor_is_map_value_at_zero(quartic_tmap):
    assert quartic_tmap.anchor == quartic_tmap.value(0.0)
    assert quartic_tmap.to_dict()["anchor"] == quartic_tmap.anchor


@pytest.mark.parametrize("g", [0.1, 0.8])
def test_anchor_rides_with_the_probes(monkeypatch, g):
    # the map's series and its derivative's are summed once, together, on
    # the support probes with 0 appended; the values at the extreme points
    # are transforms. The anchor keeps the bits of a value call at 0 alone
    passes = []
    cheb_val = ops.cheb_val

    def counted(coeffs, x, interval=ops.SIGMA):
        passes.append((coeffs, np.size(x)))
        return cheb_val(coeffs, x, interval)

    monkeypatch.setattr(ops, "cheb_val", counted)
    tmap = solve_transport(_quartic_eq(g))
    series = (tmap.interior_cheb, tmap._der_cheb, tmap._pair)
    mine = [(i, size) for coeffs, size in passes for i, c in enumerate(series) if coeffs is c]
    assert mine == [(2, 513)]
    assert tmap.anchor == tmap.value(0.0)


@pytest.mark.parametrize("g", [0.1, 0.8])
def test_value_and_derivative_in_one_pass(g):
    tmap = solve_transport(_quartic_eq(g))
    hi = tmap.eq.interval[1]
    for lam in (np.random.default_rng(9).uniform(-hi, hi, (40, 7)), 0.3):
        z, dz = tmap.value_and_derivative(lam)
        assert np.array_equal(z, tmap.value(lam)) and np.array_equal(dz, tmap.derivative(lam))
    with pytest.raises(UsageError):
        tmap.value_and_derivative(hi + 0.1)


def test_unresolved_or_uncertified_map_is_refused(monkeypatch):
    eq = _quartic_eq(0.8)  # needs 256 nodes in the mapped variable
    monkeypatch.setattr(transport, "_FIT_NODES", (64, 128))
    with pytest.raises(NumericalError, match="not resolved") as err:
        solve_transport(eq)
    assert err.value.code == "ode-failure"
    # accept the 64-node fit anyway: the certificates must catch it
    monkeypatch.setattr(ops, "MIN_DROPPED", 0)
    with pytest.raises(NumericalError, match="overlap|density-matching") as err:
        solve_transport(eq)
    assert err.value.code == "ode-failure"
