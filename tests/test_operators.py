import dataclasses
import functools

import numpy as np
import pytest
from scipy import fft

from betalab import ensembles as ens
from betalab import operators as ops
from betalab import transport
from betalab import universality as uni
from betalab.equilibrium import solve_equilibrium
from betalab.errors import NumericalError, UsageError
from betalab.potentials import make_potential

import oracles
from conftest import traced_peak


# ----------------------------------------------------------------------
# Chebyshev plumbing


@pytest.mark.parametrize("center,width", [(0.0, 2.7), (0.3, 0.05), (-0.1, 1e-3)])
def test_sinh_variable(center, width):
    # A and B fix the window's ends; t and x are inverse to rounding, and
    # the closed-form divided difference agrees with the quotient where
    # that is well conditioned and with dx/dt at t = s
    var = ops.SinhVariable((-2.2, 2.2), center, width)
    assert np.allclose(var.x(np.array([-1.0, 1.0])), [-2.2, 2.2], rtol=0, atol=1e-15)
    t = np.linspace(-1.0, 1.0, 9)
    assert np.max(np.abs(var.t(var.x(t)) - t)) < 1e-15
    s = t[::-1].copy()
    far = t != s
    dd = var.divided_difference(t, s)
    quotient = (var.x(t[far]) - var.x(s[far])) / (t[far] - s[far])
    assert np.max(np.abs(dd[far] / quotient - 1.0)) < 1e-15
    assert dd[~far] == var.dx(t[~far])


def test_cheb_coeffs_low_monomials():
    c0 = oracles.cheb_coeffs(lambda x: np.ones_like(np.asarray(x, dtype=float)), 4)
    assert np.allclose(c0, [2.0, 0, 0, 0, 0], atol=1e-13)
    c1 = oracles.cheb_coeffs(lambda x: np.asarray(x, dtype=float), 4)
    assert np.allclose(c1, [0, 2.0, 0, 0, 0], atol=1e-13)
    c2 = oracles.cheb_coeffs(lambda x: np.asarray(x, dtype=float) ** 2, 4)
    assert np.allclose(c2, [4.0, 0, 2.0, 0, 0], atol=1e-12)


def test_cheb_coeffs_match_quadrature_oracle():
    h = np.cos
    mine = oracles.cheb_coeffs(h, 8)
    for k in range(1, 9):
        assert abs(mine[k] - oracles.cheb_coeff_oracle(h, k)) < 1e-10
    # one call transforms every column, at odd and even node counts
    fns = (np.cos, lambda x: np.exp(0.3 * x))
    for n in (33, 64):
        x = ops.cheb_grid(n).nodes
        both = ops.coeffs_from_values(np.column_stack([f(x) for f in fns]))
        assert both.shape == (n, 2)
        for j, f in enumerate(fns):
            for k in range(9):
                assert abs(both[k, j] - oracles.cheb_coeff_oracle(f, k)) < 1e-12


def test_coeffs_from_values_agrees_with_scipy_dct():
    # the numpy DCT-II rounds in its own order; it agrees with pocketfft's
    # scipy.fft.dct to rounding, relative to the largest coefficient
    rng = np.random.default_rng(0)
    for n in [*range(1, 301), 512, 513, 1024, 2048, 4096]:
        for shape in ((n,), (n, 3)):
            vals = rng.standard_normal(shape)
            want = fft.dct(vals[::-1], type=2, axis=0) / n
            got = ops.coeffs_from_values(vals)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want)), shape
    eye = np.eye(256)
    want = fft.dct(eye[::-1], type=2, axis=0) / 256
    assert np.max(np.abs(ops.coeffs_from_values(eye) - want)) <= 2e-15 * np.max(np.abs(want))


def test_values_from_coeffs_inverts_coeffs_from_values():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 8, 255, 256, 513):
        for shape in ((n,), (n, 3)):
            vals = rng.standard_normal(shape)
            back = ops.values_from_coeffs(ops.coeffs_from_values(vals))
            assert back.shape == shape
            assert np.max(np.abs(back - vals)) <= 4e-15 * np.max(np.abs(vals)), shape
    # and it evaluates the series at the nodes, as Clenshaw does
    c = np.array([0.4, -1.0, 0.25, 0.0, 0.125, -0.5, 0.0])
    x = ops.cheb_grid(c.size).nodes
    want = ops.cheb_val(c, x)
    assert np.max(np.abs(ops.values_from_coeffs(c) - want)) <= 4e-15 * np.max(np.abs(want))


def test_cheb_roundtrip_and_derivative():
    h = lambda x: np.exp(0.3 * x) * np.sin(x)
    c = oracles.cheb_coeffs(h, 40)
    xs = np.linspace(-2.0, 2.0, 23)
    assert np.max(np.abs(ops.cheb_val(c, xs, ops.SIGMA) - h(xs))) < 1e-12
    dc = ops.cheb_der(c, ops.SIGMA)
    want = np.exp(0.3 * xs) * (0.3 * np.sin(xs) + np.cos(xs))
    assert np.max(np.abs(ops.cheb_val(dc, xs, ops.SIGMA) - want)) < 1e-10


def test_cheb_val_matches_chebval_across_blocks():
    rng = np.random.default_rng(11)
    interval = (-2.2, 2.2)
    # degrees up to the 4096 coefficients of the g=0.9 transport map
    for deg in (0, 2, 40, 255, 736, 2076, 4095):
        c = rng.standard_normal(deg + 1) / np.arange(1.0, deg + 2.0) ** 2
        std = c.copy()
        std[0] *= 0.5
        for count in (1, 7, 64, 1001):
            x = rng.uniform(*interval, count)
            u = x / 2.2
            want = np.polynomial.chebyshev.chebval(u, std)
            one = ops.cheb_val(c, x, interval)
            assert one.shape == (count,)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(one - want)) <= 1e-13 * scale
            # T_k(u) = cos(k arccos u), summed directly
            cosines = np.cos(np.multiply.outer(np.arccos(u), np.arange(deg + 1)))
            assert np.max(np.abs(one - cosines @ std)) <= 1e-13 * scale
            # a point's value does not depend on the points evaluated with it
            i = int(rng.integers(count))
            assert ops.cheb_val(c, x[i], interval) == one[i]
    c = rng.standard_normal(9)
    assert np.ndim(ops.cheb_val(c, 0.5)) == 0
    grid2 = rng.uniform(-2.0, 2.0, (4, 6))
    assert ops.cheb_val(c, grid2).shape == (4, 6)
    assert np.array_equal(ops.cheb_val(c, grid2).ravel(), ops.cheb_val(c, grid2.ravel()))
    with pytest.raises(UsageError):
        ops.cheb_val(np.stack([c, 2.0 * c]), grid2)


# the transforms against Clenshaw's recurrence, in units of eps * sum |c|
# over the series' coefficients; Clenshaw's own rounding near the ends
# of the interval dominates (measured at most 15 on the grids and 30 at
# the extreme points for coefficients decaying like 1 / k^2)
FOLD_TOL = 32.0
EXTREMA_TOL = 64.0


def test_grid_values_fold_any_length_onto_the_grid():
    rng = np.random.default_rng(17)
    eps = np.finfo(float).eps
    for m in (4, 5, 64, 255, 256, 1024):
        x = ops.cheb_grid(m).nodes
        for count in (1, m // 2, m - 1, m, m + 1, 2 * m - 1, 2 * m, 2 * m + 1, 40 * m + 3):
            c = rng.standard_normal(count) / np.arange(1.0, count + 1.0) ** 2
            got = ops.grid_values(c, m)
            assert got.shape == (m,)
            assert np.max(np.abs(got - ops.cheb_val(c, x))) <= FOLD_TOL * eps * np.abs(c).sum(), (m, count)
            # two functions along axis 0; doubling is exact, so are their values
            both = ops.grid_values(np.column_stack((c, 2.0 * c)), m)
            assert np.array_equal(both[:, 0], got) and np.array_equal(both[:, 1], 2.0 * got)
            # T_m vanishes on the grid, and so does every T_k with k = m (mod 2m)
            if count > m:
                bumped = c.copy()
                bumped[m :: 2 * m] = rng.standard_normal(bumped[m :: 2 * m].size)
                c[m :: 2 * m] = 0.0
                assert np.array_equal(ops.grid_values(bumped, m), ops.grid_values(c, m))
    # a series of exactly m coefficients is the plain transform
    c = rng.standard_normal(64)
    assert np.array_equal(ops.grid_values(c, 64), ops.values_from_coeffs(c))


def test_extrema_values_are_the_dct1():
    rng = np.random.default_rng(19)
    eps = np.finfo(float).eps
    for n in (1, 2, 3, 8, 255, 256, 1023, 1024, 4095, 4096):
        x = np.cos(np.pi * np.arange(n, -1, -1) / n)
        for count in (max(1, n // 2), n, n + 1):
            c = rng.standard_normal(count) / np.arange(1.0, count + 1.0) ** 2
            got = ops.extrema_values(c, n)
            assert got.shape == (n + 1,)
            want = ops.cheb_val(c, x, (-1.0, 1.0))
            assert np.max(np.abs(got - want)) <= EXTREMA_TOL * eps * np.abs(c).sum(), (n, count)
    # the ends are the plain sums, alternating on the left
    c = np.array([0.5, 1.0, -2.0, 0.25])
    assert np.allclose(ops.extrema_values(c, 3)[[0, -1]], [0.25 - 1.0 - 2.0 - 0.25, 0.25 + 1.0 - 2.0 + 0.25])


def test_chop_keeps_through_last_coefficient_above_threshold():
    c = np.array([1.0, -0.5, 3e-14, -1e-14, 5e-15, 0.0])
    assert np.array_equal(ops.chop_coeffs(c), c[:3])
    assert np.array_equal(ops.chop_coeffs(np.zeros(4)), np.zeros(1))


# ----------------------------------------------------------------------
# covariance operator


def test_apply_cov_op_first_mode():
    # T_1(x/2) maps to (1/pi) T_1 / weight; closed form: x / (pi sqrt(4 - x^2))
    xs = np.linspace(-1.9, 1.9, 41)
    got = oracles.apply_cov_op(lambda t: np.asarray(t, dtype=float), xs)
    want = xs / (np.pi * np.sqrt(4.0 - xs * xs))
    assert np.max(np.abs(got - want)) < 1e-9


def test_apply_cov_op_is_pointwise_for_any_shape():
    lam = np.random.default_rng(4).uniform(-1.9, 1.9, (3, 5))
    got = oracles.apply_cov_op(np.cos, lam)
    flat = oracles.apply_cov_op(np.cos, lam.ravel())
    assert got.shape == (3, 5)
    assert np.array_equal(got, flat.reshape(3, 5))
    one = oracles.apply_cov_op(np.cos, lam[1, 2])
    assert type(one) is float
    # each row of a quadrature block is reduced on its own, so a point
    # alone keeps the bits it has among others
    assert all(oracles.apply_cov_op(np.cos, v) == w for v, w in zip(lam.ravel(), flat))
    with pytest.raises(UsageError) as err:
        oracles.apply_cov_op(np.cos, np.array([[0.1, 0.2], [-2.0, 0.3]]))
    assert err.value.code == "out-of-domain"


def test_cov_form_anchor_values():
    lin = ops.cov_form(lambda x: np.asarray(x, dtype=float))
    assert abs(lin.double_integral - 2.0) < 1e-10
    sq = ops.cov_form(lambda x: np.asarray(x, dtype=float) ** 2)
    assert abs(sq.double_integral - 4.0) < 1e-10


def test_cov_form_route_agreement_random_polynomials():
    rng = np.random.default_rng(11)
    for _ in range(20):
        deg = int(rng.integers(1, 11))
        coeffs = rng.standard_normal(deg + 1) / np.arange(1.0, deg + 2.0)
        poly = np.polynomial.Polynomial(coeffs)
        form = ops.cov_form(poly)
        assert form.rel_discrepancy < 1e-6


def test_cov_form_matches_mode_sum_oracle():
    h = np.cos
    form = ops.cov_form(h)
    want = oracles.variance_form_oracle(h)
    assert abs(form.double_integral - want) < 1e-8


def test_cov_form_reads_no_derivative(monkeypatch):
    # the double integral reads h's values alone: a wrong h_prime changes
    # no bit, and no derivative series is built
    want = ops.cov_form(np.sin)

    def refuse(*args, **kwargs):
        raise AssertionError("cov_form differentiated h")

    monkeypatch.setattr(ops, "cheb_der", refuse)
    assert ops.cov_form(np.sin, h_prime=np.sin) == want
    assert ops.cov_form(np.sin) == want


def _pv_form(h, h_prime, nodes):
    """The principal-value route to the covariance form on a rule of
    ``nodes`` nodes, by the oracle's quadrature: a third route, beside
    the mode sum and the double integral."""
    x = ops.cheb_grid(nodes).nodes
    s = oracles.pv_transform_numer_single_block(h_prime, x, quad_nodes=nodes)
    return float(np.pi / nodes * np.sum(s * np.asarray(h(x), dtype=float)) / np.pi**2)


def test_cov_form_rule_follows_polynomial_degree():
    # degree <= 10: the 64-node rule is exact, and agrees with the
    # principal-value route on 512 nodes to rounding
    rng = np.random.default_rng(7)
    for deg in range(1, 11):
        poly = np.polynomial.Polynomial(rng.standard_normal(deg + 1))
        form = ops.cov_form(poly)
        assert form.nodes == 64
        want = _pv_form(poly, poly.deriv(), 512)
        assert abs(form.double_integral - want) <= 1e-14 * abs(want)


def test_cov_form_rule_follows_a_narrow_bump():
    # exp(-(x/0.1)^2) chops to 229 coefficients on its 256-node fit: the
    # rule takes 458 nodes and agrees with the principal-value route on
    # 512 to rounding; a 64-node double integral misses by 1.7e-6. The
    # Chebyshev route sums the whole resolved series, so the two routes
    # agree to rounding (a 65-coefficient head missed by 5.1e-3)
    h = lambda x: np.exp(-((np.asarray(x, dtype=float) / 0.1) ** 2))
    hp = lambda x: -200.0 * np.asarray(x, dtype=float) * h(x)
    form = ops.cov_form(h)
    assert form.nodes == 458
    assert form.rel_discrepancy < 1e-13
    want = _pv_form(h, hp, 512)
    assert abs(form.double_integral - want) <= 1e-14 * abs(want)
    assert abs(ops._double_integral(h, 64) - want) > 1e-7 * abs(want)
    # 1/(1 + 25x^2) takes the full rule; a 65-coefficient head missed by 3.3e-5
    runge = lambda x: 1.0 / (1.0 + 25.0 * np.asarray(x, dtype=float) ** 2)
    assert ops.cov_form(runge).rel_discrepancy < 1e-13


@pytest.mark.parametrize("h", [np.sin, np.exp, lambda x: 1.0 / (1.0 + x * x)], ids=["sin", "exp", "runge"])
def test_cov_form_fitted_derivative_on_a_smaller_rule(h):
    # cov_form's rule, below the full one, against a 512-term mode sum;
    # the principal-value route on that rule, with h' the derivative of
    # the chopped series, agrees too (unchopped, a rounding tail scaled by
    # the degree put up to 4.5e-14 into these forms)
    form = ops.cov_form(h)
    assert form.nodes < 512
    c = oracles.cheb_coeffs(h, 511)
    want = 0.5 * np.sum(np.arange(c.size) * c * c)
    assert abs(form.double_integral - want) <= 2e-15 * want
    pv = _pv_form(h, oracles._derivative(h, None), form.nodes)
    assert abs(pv - want) <= 2e-15 * want


def test_cov_form_rule_is_capped_at_the_full_rule():
    # |x|^3 resolves only on the 4096-node fit (3937 coefficients): the
    # rule stops at its 512-node cap, where the two routes agree to 2.1e-12
    h = lambda x: np.abs(np.asarray(x, dtype=float)) ** 3
    form = ops.cov_form(h)
    assert form.nodes == 512
    assert form.double_integral == ops._double_integral(h, 512)
    assert form.rel_discrepancy < 1e-11


def test_unresolved_function_is_refused(gauss_eq):
    # |x| keeps 4095 of its 4096 coefficients: the CLT predictions refuse
    # it, while cov_form still reports both routes on the full rule
    h = lambda x: np.abs(np.asarray(x, dtype=float))
    assert not ops.fit_resolved(lambda n, _: h(ops.cheb_grid(n).nodes))[1]
    with pytest.raises(NumericalError) as err:
        ops.mean_shift_pairing(h, gauss_eq, 1.0)
    assert err.value.code == "unresolved-function"
    sample = ens.sample_gaussian(20, 1.0, 30, seed=3)
    with pytest.raises(NumericalError) as err:
        uni.clt_report(sample, h, gauss_eq)
    assert err.value.code == "unresolved-function"
    form = ops.cov_form(h)
    assert form.nodes == 512 and np.isfinite(form.double_integral)


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 199])
def test_cov_form_row_blocks_match_single_block(monkeypatch, rows):
    # blocks of `rows` x rows of the full rule (63 under the default
    # budget) against one block: each row is reduced on its own, so the
    # form keeps its bits
    h = lambda x: np.abs(np.asarray(x, dtype=float)) ** 3
    monkeypatch.setattr(ops, "_BLOCK", 1 << 30)
    want = ops._double_integral(h, 512)
    monkeypatch.setattr(ops, "_BLOCK", rows * 513)
    assert ops._double_integral(h, 512) == want


def test_cov_form_working_set():
    # two reused block buffers of 256 KiB each, beside the 4096-node fit
    # of |x|^3; a cubic's 64-node rule holds far less
    cubic = np.polynomial.Polynomial([0.2, -1.0, 0.3, 0.5])
    with traced_peak() as peak:
        ops.cov_form(cubic)
    assert peak.bytes <= 0.25 * 2**20
    h = lambda x: np.abs(np.asarray(x, dtype=float)) ** 3
    with traced_peak() as peak:
        assert ops.cov_form(h).nodes == 512
    assert peak.bytes <= 0.75 * 2**20


# ----------------------------------------------------------------------
# log kernel


def test_log_kernel_semicircle_closed_form():
    apply_log = oracles.log_kernel_apply(ops.semicircle_density)
    xs = np.linspace(-1.95, 1.95, 31)
    assert np.max(np.abs(apply_log(xs) - (xs * xs / 4.0 - 0.5))) < 1e-10


def test_log_kernel_matches_quadrature_oracle():
    apply_log = oracles.log_kernel_apply(ops.semicircle_density)
    for lam in (-1.3, 0.0, 0.7, 1.9, 2.0):
        assert abs(apply_log(np.array([lam]))[0] - oracles.log_potential_oracle(lam)) < 1e-9


def test_rank_one_inversion_identity():
    # the acceptance battery and the probes that `betalab verify` draws (its
    # seed 0, and seeds 1-10 besides): L and D compose through their mode
    # factors and two DCTs, so the identity holds to rounding of the
    # largest value (x^5 - x reaches 30 on the nodes)
    tests = [
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
    for seed in range(11):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            c = rng.standard_normal(7) / np.arange(1.0, 8.0) ** 2
            tests.append(functools.partial(ops.cheb_val, c))
    x = ops.cheb_grid(256).nodes
    for fn in tests:
        assert ops.rank_one_identity_residual(fn) <= 1e-14 * max(1.0, np.max(np.abs(fn(x))))


def test_adjointness_on_grid():
    # D multiplies mode k by k / pi and divides by the semicircle factor;
    # by discrete orthogonality its weighted form (u, Dv) on the grid is
    # the mode sum of _mode_form, symmetric in u and v
    n = 256
    x = ops.cheb_grid(n).nodes
    sq = np.sqrt(4.0 - x * x)
    u, v = np.cos(x), x**2

    def d_apply(vals):
        return ops.values_from_coeffs(ops.coeffs_from_values(vals) * np.arange(n) / np.pi) / sq

    wq = (np.pi / n) * sq
    uv = float(np.sum(wq * d_apply(u) * v))
    vu = float(np.sum(wq * u * d_apply(v)))
    form = ops._mode_form(ops.coeffs_from_values(u), ops.coeffs_from_values(v))
    assert abs(uv - vu) < 1e-14 and abs(uv - form) < 1e-14


# ----------------------------------------------------------------------
# transported kernel spectrum


def test_gaussian_kernel_spectrum_degenerate(gauss_spectrum):
    assert np.max(np.abs(gauss_spectrum.eigenvalues)) < 1e-10
    assert gauss_spectrum.truncation == 0


def test_quartic_kernel_top_modes_frozen(quartic_spectrum):
    want = np.array([0.1984524, -0.1765541, -0.1143458, -2.783118e-4, 2.176301e-5, -5.371947e-7])
    got = quartic_spectrum.eigenvalues[:6]
    assert np.max(np.abs(got - want)) < 1e-6
    assert quartic_spectrum.decay_rate > 1.0
    assert quartic_spectrum.tail < 1e-12


def test_kernel_matrix_reconstruction(quartic_tmap, quartic_spectrum):
    grid = quartic_spectrum.grid
    kmat = ops.kernel_matrix(quartic_tmap, grid)
    s = np.sqrt(grid.weights)
    a = s[:, None] * kmat * s[None, :]
    m = quartic_spectrum.truncation
    vals = np.stack([quartic_spectrum.phi(grid.nodes, k) for k in range(m)], axis=1)
    recon = (vals * quartic_spectrum.eigenvalues[:m]) @ vals.T
    recon = s[:, None] * recon * s[None, :]
    assert np.max(np.abs(a - recon)) < 1e-10


def test_modal_double_sum_agreement(quartic_tmap, quartic_spectrum):
    rng = np.random.default_rng(3)
    m = quartic_spectrum.truncation
    eta = quartic_spectrum.eigenvalues[:m]
    for _ in range(5):
        pts = rng.uniform(-2.1, 2.1, 16)
        direct = float(ops.log_ratio_kernel(quartic_tmap, pts[:, None], pts[None, :]).sum())
        sums = np.array([quartic_spectrum.phi(pts, k).sum() for k in range(m)])
        assert abs(direct - float(eta @ (sums * sums))) < 1e-9


class CountingMap:
    """A transport map that records its evaluations, one entry per call
    of ``value`` or ``value_and_derivative`` with its number of points.
    It carries the map's series and variable, which the close pairs
    read, and has no ``derivative``: a route that asks for one fails."""

    def __init__(self, tmap):
        self.base = tmap
        self.eq = tmap.eq
        self.interior_cheb = tmap.interior_cheb
        self.variable = tmap.variable
        self.calls = []

    def value(self, lam):
        self.calls.append(("value", np.size(lam)))
        return self.base.value(lam)

    def value_and_derivative(self, lam):
        self.calls.append(("both", np.size(lam)))
        return self.base.value_and_derivative(lam)


def test_kernel_evaluates_map_once_per_node(quartic_tmap):
    # the nodes' images and the diagonal's derivative come from one pass
    # over the grid's nodes; a grid on any other interval is refused
    grid = ops.cheb_grid(256, quartic_tmap.eq.interval)
    counted = CountingMap(quartic_tmap)
    ops.kernel_matrix(counted, grid)
    assert counted.calls == [("both", 256)]
    with pytest.raises(UsageError) as err:
        ops.kernel_matrix(counted, ops.cheb_grid(256))
    assert err.value.code == "invalid-spec"
    x = grid.nodes
    outer = ops.log_ratio_kernel(quartic_tmap, x[:, None], x[None, :])
    full = ops.log_ratio_kernel(quartic_tmap, *np.broadcast_arrays(x[:, None], x[None, :]))
    assert np.array_equal(outer, full)


# the map's images of a plain kernel grid, through its variable, against
# the pointwise construction; measured at most 2.2e-15 on 256 nodes and
# 2.7e-15 on 2048 for g = 0.1, 0.8 and 0.9
IMAGE_TOL = 8e-15


@pytest.mark.parametrize("g", [0.1, 0.8])
def test_kernel_matrix_is_the_pointwise_kernel(g):
    # one pass in t gives the images, which serve both axes, and the
    # diagonal's log-derivative; off the diagonal the kernel keeps the
    # bits of the pointwise arithmetic on them, symmetric with no
    # averaging
    tmap = _transport_data("even-quartic", g)
    grid = ops.cheb_grid(256, tmap.eq.interval)
    x = grid.nodes
    z, dz = tmap.value_and_derivative(x)
    assert np.max(np.abs(z - transport._pointwise(tmap.eq, x, x))) <= IMAGE_TOL
    kmat = ops.kernel_matrix(tmap, grid)
    assert np.array_equal(np.diag(kmat), np.log(dz))
    k = ops.log_ratio_kernel(tmap, x[:, None], x[None, :])
    off = ~np.eye(grid.n, dtype=bool)
    assert np.array_equal(kmat[off], k[off])
    assert np.array_equal(kmat, kmat.T)
    # the pointwise kernel's diagonal is the closed form at t = s, which
    # agrees with the pass's derivative to rounding
    assert np.max(np.abs(np.diag(kmat) - np.diag(k))) < 1e-14


def test_kernel_merges_map_calls(quartic_eq, quartic_tmap):
    # the close pairs read the map's series, never its derivative: the
    # pointwise kernel maps both point sets in one value call, and the
    # deformation identity its probes and its rule's nodes
    hi = quartic_tmap.eq.interval[1]
    pts = np.array([-hi, -hi + 4e-4, -1.3, -1.3 + 5e-4, 0.2, 1.9, hi - 3e-4, hi])
    counted = CountingMap(quartic_tmap)
    ops.log_ratio_kernel(counted, pts[:, None], pts[None, ::-1])
    assert counted.calls == [("value", 16)]
    counted = CountingMap(quartic_tmap)
    ops.deformation_residual(quartic_eq, counted)
    assert [name for name, _ in counted.calls] == ["value"]


# The close pairs' log divided difference against the long-double
# oracle through the map, in absolute log error: measured at most
# 6.4e-16, 8.3e-16 and 8.9e-16 at g = -0.1, 0.3 and 0.8 (before the
# series was taken in the mapped variable: 6.4e-16, 1.3e-15 and
# 1.6e-14). Just past the switch the quotient's rounding, about
# eps max|zeta| / _CLOSE_PAIR relative, read at most 8.7e-13.
QUOTIENT_TOL = 2e-12


@pytest.mark.parametrize("g,bound", [(-0.1, 2e-15), (0.3, 2e-15), (0.8, 2e-15)])
def test_close_pairs_are_the_exact_divided_difference(g, bound):
    tmap = _transport_data("even-quartic", g)
    hi = tmap.eq.interval[1]

    def log_dd(x, y):
        return np.log(np.abs(oracles.divided_difference_longdouble(tmap, x, y))).astype(float)

    # the 256-node grid's close pairs, diagonal included, in the pointwise
    # kernel and in the matrix; then the deformation identity's
    # probe-by-rule close pairs
    grid = ops.cheb_grid(256, tmap.eq.interval)
    x = grid.nodes
    i, j = np.nonzero(np.abs(x[:, None] - x[None, :]) < ops._CLOSE_PAIR)
    assert i.size == 256 + 16
    want = log_dd(x[i], x[j])
    for got in (ops.log_ratio_kernel(tmap, x[i], x[j]), ops.kernel_matrix(tmap, grid)[i, j]):
        assert np.max(np.abs(got - want)) <= bound
    lam = ops.cheb_grid(ops._DEFORMATION_PROBES).nodes
    var = ops.SinhVariable(ops.SIGMA, tmap.variable.center, tmap.variable.width)
    mu, _ = ops.gauss_semicircle(ops._DEFORMATION_NODES, var)
    i, j = np.nonzero(np.abs(lam[:, None] - mu[None, :]) < ops._CLOSE_PAIR)
    assert np.max(np.abs(ops.log_ratio_kernel(tmap, lam[i], mu[j]) - log_dd(lam[i], mu[j]))) <= bound
    # off-grid pairs: on both window ends, near them, and either side of
    # the switch
    x = np.array([-hi, hi, -hi, hi, -1.3, 0.2, -hi, hi, -1.3, 0.2])
    y = x + ops._CLOSE_PAIR * np.array([0.0, 0.0, 0.4, -0.3, 0.999, -0.999, 1.001, -1.001, 1.001, -1.001])
    err = np.abs(ops.log_ratio_kernel(tmap, x, y) - log_dd(x, y))
    near = np.abs(x - y) < ops._CLOSE_PAIR
    assert np.max(err[near]) <= bound
    assert np.max(err[~near]) <= QUOTIENT_TOL


def test_close_pairs_at_the_window_ends():
    # g=0.9 on 256 nodes: the x = y pairs nearest the window ends read
    # 2.3e-13 against the oracle when the series was 4096 coefficients
    # in the plain variable; 3.3e-16 on its 256 in the mapped one
    tmap = _transport_data("even-quartic", 0.9)
    x = ops.cheb_grid(256, tmap.eq.interval).nodes[[0, 1, 254, 255]]
    want = np.log(np.abs(oracles.divided_difference_longdouble(tmap, x, x))).astype(float)
    assert np.max(np.abs(ops.log_ratio_kernel(tmap, x, x) - want)) <= 2e-15


def test_kernel_and_spectrum_working_set(quartic_tmap):
    # the kernel: one n x n scratch beside the result. The spectrum forms
    # no n x n array: its Ritz data are n x r, and its row blocks at most
    # _BLOCK entries; it read 1.53 MiB, where the dense eigh held 16.1
    n = 1024
    grid = ops.cheb_grid(n, quartic_tmap.eq.interval)
    with traced_peak() as peak:
        kmat = ops.kernel_matrix(quartic_tmap, grid)
    assert peak.bytes <= 2.25 * kmat.nbytes
    with traced_peak() as peak:
        ops.eigendecompose(kmat, grid)
    assert peak.bytes <= 2 * 2**20


def test_mode_orthonormality(quartic_spectrum):
    grid = quartic_spectrum.grid
    m = min(quartic_spectrum.stored, 8)
    vals = np.stack([quartic_spectrum.phi(grid.nodes, k) for k in range(m)], axis=1)
    gram = vals.T @ (grid.weights[:, None] * vals)
    assert np.max(np.abs(gram - np.eye(m))) < 1e-9
    # a sequence of modes stacks them on a last axis
    pts = np.linspace(-2.1, 2.1, 12).reshape(3, 4)
    want = np.stack([quartic_spectrum.phi(pts, k) for k in range(m)], axis=-1)
    assert np.max(np.abs(quartic_spectrum.phi(pts, range(m)) - want)) < 1e-13
    with pytest.raises(UsageError):
        quartic_spectrum.phi(pts, [0, quartic_spectrum.stored])


@pytest.mark.parametrize("g,nodes", [(0.1, 256), (0.9, 2048)])
def test_modes_at_the_nodes_are_their_values(g, nodes):
    spec = _kernel_data("even-quartic", g, nodes)[2]
    got = spec.phi(spec.grid.nodes, range(spec.stored))
    assert np.array_equal(got, spec.phi_values)
    k = spec.stored - 1
    assert np.array_equal(spec.phi(spec.grid.nodes[::-3], k), spec.phi_values[::-3, k])


def test_modes_are_pointwise():
    spec = _kernel_data("even-quartic", 0.1)[2]
    lo, hi = spec.grid.interval
    rng = np.random.default_rng(23)
    x = rng.uniform(lo, hi, 2000)
    x[::100] = spec.grid.nodes[::13][:20]  # some points on nodes
    one, many = spec.phi(x, 3), spec.phi(x, range(spec.stored))
    for i in rng.choice(x.size, 60, replace=False):
        assert spec.phi(x[i], 3) == one[i]
        assert np.array_equal(spec.phi(x[i], range(spec.stored)), many[i])
    assert type(spec.phi(0.3, 1)) is np.float64
    assert spec.phi(0.3, [1, 2]).shape == (2,)


# the kept modes against the long-double Clenshaw sum of their whole
# series, in eps * max|phi| over the window: measured 26.6 at g=0.1 and
# 151.5 at g=0.8 (both inside the support at g=0.8), about 3e-14 of the
# mode; the series' own coefficients are the interpolant at the exact
# Chebyshev points, the grid values sit at the rounded nodes
@pytest.mark.parametrize("g,bound", [(0.1, 40.0), (0.8, 240.0)])
def test_kept_modes_match_their_whole_series(g, bound):
    spec = _kernel_data("even-quartic", g)[2]
    m = spec.truncation
    lo, hi = spec.grid.interval
    x = np.linspace(lo, hi, 2003)
    c = ops.coeffs_from_values(spec.phi_values[:, :m]).astype(np.longdouble)
    c[0] *= 0.5
    u = (2.0 * x.astype(np.longdouble) - (lo + hi)) / (hi - lo)
    want = np.polynomial.chebyshev.chebval(u, c).T
    got = spec.phi(x, range(m))
    err = np.max(np.abs(got - want).astype(float), axis=0) / np.max(np.abs(got), axis=0)
    assert np.max(err) <= bound * np.finfo(float).eps


def test_mode_working_set():
    # beside its output, phi holds one buffer of at most _BLOCK
    # barycentric weights and a block's products and denominators
    spec = _kernel_data("even-quartic", 0.1)[2]
    x = np.linspace(*spec.grid.interval, 100_000)
    with traced_peak() as peak:
        out = spec.phi(x, range(spec.stored))
    assert peak.bytes <= out.nbytes + 3 * 8 * ops._BLOCK


@pytest.mark.parametrize("g,nplus,nminus", [
    (0.02, 0.006759, 0.009954),
    (0.05, 0.017125, 0.024749),
    (0.1, 0.034944, 0.049215),
    (0.2, 0.072399, 0.098367),
])
def test_contraction_norms(g, nplus, nminus):
    from betalab.equilibrium import solve_equilibrium
    from betalab.potentials import make_potential
    from betalab.transport import solve_transport

    eq = solve_equilibrium(make_potential("even-quartic", g=g))
    tmap = solve_transport(eq)
    grid = ops.cheb_grid(256, eq.interval)
    spec = ops.eigendecompose(ops.kernel_matrix(tmap, grid), grid)
    cm = ops.contraction_matrices(spec)
    assert cm.contractive
    assert max(cm.norm_plus, cm.norm_minus) < 1.0 - 1e-3
    assert abs(cm.norm_plus - nplus) < 1e-4
    assert abs(cm.norm_minus - nminus) < 1e-4


def test_contractive_reads_the_verify_margin():
    # a norm between the margin's 1 - 1e-3 and one is not contractive
    cm = ops.contraction_matrices(_kernel_data("even-quartic", 0.1)[2])
    assert cm.contractive
    for norm in (0.999, 0.9995):
        assert not dataclasses.replace(cm, norm_plus=norm).contractive
        assert not dataclasses.replace(cm, norm_minus=norm).contractive


@functools.lru_cache(maxsize=None)
def _transport_data(kind, g=None):
    """The certified transport map; the polynomial is the benchmark
    sweep's, normalized onto SIGMA."""
    from betalab.equilibrium import solve_equilibrium
    from betalab.potentials import make_potential, normalize_support, support_endpoints
    from betalab.transport import solve_transport

    if kind == "polynomial":
        pot = make_potential(kind, coeffs=[0.0, 0.05, 0.55, 0.01, 0.02])
        pot, _ = normalize_support(pot, support_endpoints(pot))
    else:
        pot = make_potential(kind, **({} if g is None else {"g": g}))
    return solve_transport(solve_equilibrium(pot))


@functools.lru_cache(maxsize=None)
def _kernel_data(kind, g=None, nodes=256):
    """Kernel matrix, grid and spectrum on the ``nodes``-point grid."""
    tmap = _transport_data(kind, g)
    grid = ops.cheb_grid(nodes, tmap.eq.interval)
    kmat = ops.kernel_matrix(tmap, grid)
    return kmat, grid, ops.eigendecompose(kmat, grid)


@pytest.mark.parametrize("g", [-0.1, 0.1, 0.3, 0.5, 0.7])
def test_truncation_follows_the_kernel_not_the_grid(g):
    # the kernel is resolved on 256 nodes up to g=0.7, so the count of
    # genuine modes does not move with the grid; rounding-level eigenvalues,
    # or an error in the close pairs, would add modes that grow with it
    counts = set()
    for nodes in (256, 512, 1024):
        kmat, grid, spec = _kernel_data("even-quartic", g, nodes)
        assert spec.truncation == oracles.truncation_by_reconstruction(kmat, grid)
        counts.add(spec.truncation)
    assert len(counts) == 1, counts


@pytest.mark.parametrize("g", [0.1, 0.5, 0.8])
def test_contraction_mode_sum_matches_dense_form(g):
    spec = _kernel_data("even-quartic", g)[2]
    cm = ops.contraction_matrices(spec)
    plus, minus, nplus, nminus = oracles.contraction_blocks_dense(spec)
    for got, want in ((cm.plus, plus), (cm.minus, minus)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert abs(cm.norm_plus - nplus) <= 1e-14 * nplus
    assert abs(cm.norm_minus - nminus) <= 1e-14 * nminus


@pytest.mark.parametrize("kind,g,nodes", [
    ("gaussian", None, 256),
    ("even-quartic", 0.1, 256),
    ("even-quartic", 0.5, 256),
    ("even-quartic", 0.8, 256),
    ("polynomial", None, 256),
    # the g=0.9 kernel needs 1024 nodes or more; both grids keep 32 modes,
    # and the eigenvalues zeroed as rounding sum to 6e-12 and 1e-11
    ("even-quartic", 0.9, 1024),
    ("even-quartic", 0.9, 2048),
])
def test_truncation_bound_matches_reconstruction_loop(kind, g, nodes):
    kmat, grid, spec = _kernel_data(kind, g, nodes)
    assert spec.truncation == oracles.truncation_by_reconstruction(kmat, grid)


# the benchmark sweep's potentials on 256 nodes, and g=0.9 on the grids it needs
SWEEP_KERNELS = [
    ("gaussian", None, 256),
    *(("even-quartic", g, 256) for g in (-0.1, 0.1, 0.3, 0.5, 0.7, 0.8)),
    ("polynomial", None, 256),
    ("even-quartic", 0.9, 1024),
    ("even-quartic", 0.9, 2048),
]


@pytest.mark.parametrize("kind,g,nodes", SWEEP_KERNELS)
def test_subspace_spectrum_matches_dense_invariants(kind, g, nodes):
    # near-equal |eta_k| may order deep modes differently on the two
    # routes, so only invariants of the kept modes are compared
    from betalab import universality as uni
    from betalab.ensembles import sample_gaussian

    kmat, grid, spec = _kernel_data(kind, g, nodes)
    dense = oracles.eigendecompose_dense(kmat, grid)
    m = spec.truncation
    assert m == dense.truncation
    top = abs(dense.eigenvalues[0])
    assert np.max(np.abs(spec.eigenvalues[:m] - dense.eigenvalues[:m]), initial=0.0) <= 1e-14 * top

    s = np.sqrt(grid.weights)

    def weighted_reconstruction(sp):
        v = sp.phi(grid.nodes, range(m)) * s[:, None]
        return (v * sp.eigenvalues[:m]) @ v.T

    recon = weighted_reconstruction(spec)
    assert np.max(np.abs(recon - weighted_reconstruction(dense))) <= 1e-14 * max(top, 1e-300)
    assert np.max(np.abs(s[:, None] * kmat * s[None, :] - recon)) <= ops._RECON_TOL
    del recon

    got, want = ops.contraction_matrices(spec), ops.contraction_matrices(dense)
    assert abs(got.norm_plus - want.norm_plus) <= 1e-14
    assert abs(got.norm_minus - want.norm_minus) <= 1e-14

    tmap = _transport_data(kind, g)
    configs = sample_gaussian(8, 2.0, 50, seed=6, window=(-2.05, 2.05)).configs
    a = uni.hamiltonian_identity_residual(tmap.eq, tmap, spec, 2.0, configs)
    b = uni.hamiltonian_identity_residual(tmap.eq, tmap, dense, 2.0, configs)
    assert a.modes == b.modes == m
    assert abs(a.residual - b.residual) <= 1e-13
    assert abs(a.constant - b.constant) <= 1e-12


def test_missed_part_is_what_the_ritz_pairs_leave_of_the_kernel():
    kmat, grid, spec = _kernel_data("even-quartic", 0.5)
    s = np.sqrt(grid.weights)
    theta, psi, _ = ops._ritz_pairs(kmat, s)
    a = s[:, None] * kmat * s[None, :]
    assert ops._missed_part(kmat, s, theta, psi) <= 1e-14 * abs(spec.eigenvalues[0])
    keep = np.argsort(-np.abs(theta))[:6]
    want = np.max(np.abs(a - (psi[:, keep] * theta[keep]) @ psi[:, keep].T))
    assert want > 1e-6
    assert abs(ops._missed_part(kmat, s, theta[keep], psi[:, keep]) - want) <= 1e-15


def test_sigma_coefficients_of_a_spectrum_on_sigma(quartic_tmap):
    # on a grid over SIGMA itself every node of the rule is a grid node,
    # so the modes' coefficients there are the transform of their values
    grid = ops.cheb_grid(128)
    x = grid.nodes
    k = ops.log_ratio_kernel(quartic_tmap, x[:, None], x[None, :])
    spec = ops.eigendecompose(0.5 * (k + k.T), grid)
    assert np.array_equal(spec.sigma_coeffs, ops.coeffs_from_values(spec.phi_values))


def test_subspace_spectrum_is_reproducible():
    kmat, grid, spec = _kernel_data("even-quartic", 0.8)
    again = ops.eigendecompose(kmat, grid)
    assert again.truncation == spec.truncation
    for name in ("eigenvalues", "phi_values", "sigma_coeffs", "semicircle_proj"):
        assert np.array_equal(getattr(again, name), getattr(spec, name)), name


def test_subspace_spectrum_breaks_ties_to_the_positive_mode():
    # a kernel with an exact +-eta pair above a geometric tail: the two Ritz
    # values agree to rounding, and the positive one comes first whichever
    # the rounding makes larger
    n = 128
    grid = ops.cheb_grid(n, (-2.1, 2.1))
    basis = np.linalg.qr(np.random.default_rng(5).standard_normal((n, 8)))[0]
    eta = np.array([0.3, -0.3, 0.1, -0.05, 0.02, 1e-3, -1e-4, 1e-5])
    s = np.sqrt(grid.weights)
    for sign in (1.0, -1.0):
        a = (basis * (sign * eta)) @ basis.T
        kmat = a / np.outer(s, s)
        kmat = 0.5 * (kmat + kmat.T)
        spec = ops.eigendecompose(kmat, grid)
        got = spec.eigenvalues[:2]
        assert got[0] > 0.0 > got[1]
        assert np.max(np.abs(np.abs(got) - 0.3)) <= 1e-14
        assert spec.truncation == eta.size
        # each mode's largest-magnitude weighted grid value is positive
        vals = spec.phi(grid.nodes, range(spec.stored)) * s[:, None]
        lead = vals[np.argmax(np.abs(vals), axis=0), np.arange(spec.stored)]
        assert np.all(lead > 0.0)


def test_no_dense_eigensolver_in_the_spectrum(monkeypatch):
    # every eigh the spectrum calls is the Rayleigh-Ritz one, of order r
    eigh = np.linalg.eigh
    sizes = []

    def guarded(a, *args, **kw):
        sizes.append(a.shape[-1])
        if a.shape[-1] > ops._SUBSPACE_RANK:
            raise AssertionError(f"dense eigh of order {a.shape[-1]}")
        return eigh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", guarded)
    for kind, g, nodes in SWEEP_KERNELS:
        kmat, grid = _kernel_data(kind, g, nodes)[:2]
        spec = ops.eigendecompose(kmat, grid)
        assert spec.eigenvalues.size == ops._SUBSPACE_RANK
    assert sizes == [ops._SUBSPACE_RANK] * len(SWEEP_KERNELS)


# ----------------------------------------------------------------------
# CLT functionals


def test_mean_shift_square_anchors(gauss_eq):
    h = lambda x: np.asarray(x, dtype=float) ** 2
    for beta in (1.0, 2.0, 4.0):
        got = (2.0 / beta) * ops.mean_shift_pairing(h, gauss_eq, beta)
        assert abs(got - oracles.mean_shift_square_oracle(beta)) < 1e-9


def test_mean_shift_cos_anchor(gauss_eq):
    got = (2.0 / 1.0) * ops.mean_shift_pairing(np.cos, gauss_eq, 1.0)
    assert abs(got - oracles.mean_shift_cos_oracle(1.0)) < 1e-9


def test_mean_shift_quartic_moment_anchor(gauss_eq):
    # E tr M^4 = 2n + 5 + 5/n at beta = 1 (Wick count), so the shift is 5
    h = lambda x: np.asarray(x, dtype=float) ** 4
    for beta in (1.0, 4.0):
        got = (2.0 / beta) * ops.mean_shift_pairing(h, gauss_eq, beta)
        assert abs(got - 5.0 * (2.0 / beta - 1.0)) < 1e-9


@pytest.mark.parametrize("h", [lambda x: np.asarray(x, dtype=float) ** 2, np.cos], ids=["square", "cos"])
def test_mean_shift_near_the_critical_point(h):
    # at g=0.99 log p resolves on 1024 nodes (529 coefficients); a fixed
    # 256-node fit missed the 4096-node oracle by 5.3e-14 (square) and
    # 2.3e-14 (cos)
    eq = solve_equilibrium(make_potential("even-quartic", g=0.99))
    want = oracles.mean_shift_on_nodes(h, eq, 1.0)
    assert abs(ops.mean_shift_pairing(h, eq, 1.0) - want) < 1e-15


def test_mean_shift_vanishes_at_beta_two(quartic_eq):
    for h in (np.cos, lambda x: np.asarray(x, dtype=float) ** 2):
        assert abs(ops.mean_shift_pairing(h, quartic_eq, 2.0)) < 1e-12


def test_deformation_identity_constancy(quartic_eq, quartic_tmap, gauss_eq, gauss_tmap):
    # measured about the closed-form constant, robin + 1 (0 for the gaussian)
    assert ops.deformation_residual(quartic_eq, quartic_tmap).residual < 1e-8
    assert ops.deformation_residual(gauss_eq, gauss_tmap).residual < 1e-8


@pytest.mark.parametrize("g", [0.1, 0.8, 0.9])
def test_deformation_rule_follows_the_map(g):
    # the rule in the map's variable on its 256 nodes against the plain
    # rule sized by eps (256, 368 and 1038 nodes). The probe rows go
    # through in blocks of at most _BLOCK entries: one block's
    # differences and results beside the closed form's two buffers read
    # 0.98 MiB at g=0.9 on the plain rule, where one unblocked matrix is
    # 1.5 MiB
    tmap = _transport_data("even-quartic", g)
    with traced_peak() as peak:
        res = ops.deformation_residual(tmap.eq, tmap)
    assert peak.bytes <= 5 * 8 * ops._BLOCK
    assert res.residual < 1e-13
    assert oracles.deformation_residual_plain(tmap.eq, tmap) < 1e-13


@pytest.mark.parametrize("g", [0.95, 0.99])
def test_deformation_rule_near_the_critical_point(g):
    # the plain rule sized by eps takes 2,400 and 40,000 nodes here
    tmap = _transport_data("even-quartic", g)
    assert ops.deformation_residual(tmap.eq, tmap).residual < 1e-13


def test_deformation_plain_rule_control():
    # the plain rule on the library's node count misses at g=0.9 (7.3e-6)
    tmap = _transport_data("even-quartic", 0.9)
    assert oracles.deformation_residual_plain(tmap.eq, tmap, ops._DEFORMATION_NODES) > 1e-6


def test_semicircle_rule_affine_limit():
    # an affine variable gives the plain second-kind rule: 4 times the
    # semicircle's mass and second moment, 2 pi and 2 pi
    mu, w = ops.gauss_semicircle(64, ops.SinhVariable(ops.SIGMA, 0.0, np.inf))
    assert abs(w.sum() - 2.0 * np.pi) < 1e-13 and abs(w @ mu**2 - 2.0 * np.pi) < 1e-13
    # a sinh variable clustered at 0.3 +- 0.01 i integrates the same moments
    mu, w = ops.gauss_semicircle(64, ops.SinhVariable(ops.SIGMA, 0.3, 0.01))
    assert np.all(np.diff(mu) > 0) and mu[0] > -2.0 and mu[-1] < 2.0
    assert abs(w.sum() - 2.0 * np.pi) < 1e-13 and abs(w @ mu**2 - 2.0 * np.pi) < 1e-13


def test_deformation_negative_control(quartic_eq, quartic_tmap):
    bad = oracles.PerturbedMap(quartic_tmap)
    res = ops.deformation_residual(quartic_eq, bad)
    assert res.residual > 1e-2


def test_out_of_domain_rejected():
    with pytest.raises(UsageError):
        oracles.apply_cov_op(np.cos, np.array([2.5]))
