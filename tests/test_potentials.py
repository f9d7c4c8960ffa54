import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from betalab.errors import NumericalError, UsageError
from betalab.potentials import AffineChange, make_potential, normalize_support, support_endpoints

import oracles


def test_gaussian_kind_values():
    pot = make_potential("gaussian")
    xs = np.linspace(-2.1, 2.1, 9)
    assert np.allclose(pot.v(xs), 0.5 * xs * xs)
    assert np.allclose(pot.dv(xs), xs)
    assert np.allclose(pot.domain, (-2.2, 2.2))
    assert pot.confinement_margin > 0


def test_quartic_kind_values():
    g = 0.1
    pot = make_potential("even-quartic", g=g)
    xs = np.linspace(-2.0, 2.0, 7)
    assert np.allclose(pot.v(xs), 0.5 * (1 - 3 * g) * xs**2 + 0.25 * g * xs**4)
    assert np.allclose(pot.dv(xs), (1 - 3 * g) * xs + g * xs**3)


def test_polynomial_kind_matches_closed_form():
    pot = make_potential("polynomial", coeffs=[0.0, 0.0, 0.35, 0.0, 0.025])
    ref = make_potential("even-quartic", g=0.1)
    xs = np.linspace(-2.2, 2.2, 33)
    assert np.allclose(pot.v(xs), ref.v(xs), atol=1e-14)
    assert np.allclose(pot.dv(xs), ref.dv(xs), atol=1e-14)


def test_poly_closures_bit_identical_to_polyval():
    rng = np.random.default_rng(3)
    real = rng.uniform(-2.2, 2.2, 64)
    cplx = rng.uniform(-2.2, 2.2, (4, 16)) + 1j * rng.uniform(-0.5, 0.5, (4, 16))
    for kind, params in (
        ("gaussian", {}),
        ("even-quartic", {"g": 0.1}),
        ("polynomial", {"coeffs": [0.3, -1.2, 0.7, 0.05, 0.0, 1e-3]}),
    ):
        pot = make_potential(kind, **params)
        c = np.asarray(pot.params["coeffs"], dtype=float)
        for fn, cf in ((pot.v, c), (pot.dv, npoly.polyder(c))):
            for x in (real, cplx, np.float64(0.7)):
                got, want = fn(x), npoly.polyval(np.asarray(x), cf)
                assert np.asarray(got).dtype == np.asarray(want).dtype
                assert np.array_equal(got, want)


def test_user_analytic_derivative_audit():
    pot = make_potential(
        "user-analytic",
        v=lambda x: np.cosh(x) - 1.0,
        dv=np.sinh,
        analyticity_radius=10.0,
        label="cosh",
    )
    assert pot.kind == "user-analytic"
    assert pot.confinement_margin > 0


def test_user_analytic_wrong_derivative_rejected():
    with pytest.raises(UsageError) as err:
        make_potential(
            "user-analytic",
            v=lambda x: np.cosh(x),
            dv=np.cosh,  # wrong on purpose
            analyticity_radius=10.0,
            label="bad",
        )
    assert err.value.code == "invalid-spec"


def test_confinement_violation_reported():
    with pytest.raises(NumericalError) as err:
        make_potential("polynomial", coeffs=[0.0, 0.0, -0.5])
    assert err.value.code == "confinement-violation"


def test_invalid_kind_rejected():
    with pytest.raises(UsageError):
        make_potential("mystery")


def test_support_endpoints_pure_quadratic():
    # V = x^2 concentrates the measure on (-sqrt(2), sqrt(2))
    pot = make_potential("polynomial", coeffs=[0.0, 0.0, 1.0])
    a, b = support_endpoints(pot)
    assert abs(a + np.sqrt(2.0)) < 1e-10
    assert abs(b - np.sqrt(2.0)) < 1e-10
    r1, r2 = oracles.support_moment_oracle(pot.dv, a, b)
    assert abs(r1) < 1e-9 and abs(r2) < 1e-9


def test_support_endpoints_scaled_quadratic():
    # V = 2 x^2 halves the squared half-width: support (-1, 1)
    pot = make_potential("polynomial", coeffs=[0.0, 0.0, 2.0])
    a, b = support_endpoints(pot)
    assert abs(a + 1.0) < 1e-10 and abs(b - 1.0) < 1e-10


@pytest.mark.parametrize("g", [0.02, 0.1, 0.3])
def test_quartic_family_already_normalized(g):
    pot = make_potential("even-quartic", g=g)
    a, b = support_endpoints(pot)
    assert abs(a + 2.0) < 1e-9 and abs(b - 2.0) < 1e-9


def test_support_endpoints_oracle_residual_general():
    pot = make_potential(
        "polynomial", coeffs=[0.0, 0.05, 0.55, 0.01, 0.02], eps=0.2
    )
    a, b = support_endpoints(pot)
    r1, r2 = oracles.support_moment_oracle(pot.dv, a, b)
    assert abs(r1) < 1e-9 and abs(r2) < 1e-9


def test_normalize_support_roundtrip():
    pot = make_potential("polynomial", coeffs=[0.0, 0.1, 1.0])
    endpoints = support_endpoints(pot)
    normed, change = normalize_support(pot, endpoints)
    a2, b2 = support_endpoints(normed, guess=(-2.0, 2.0))
    assert abs(a2 + 2.0) < 1e-8 and abs(b2 - 2.0) < 1e-8
    # the affine change maps the reference interval back onto the original support
    assert abs(change.apply(-2.0) - endpoints[0]) < 1e-12
    assert abs(change.apply(2.0) - endpoints[1]) < 1e-12
    assert abs(change.invert(change.apply(0.7)) - 0.7) < 1e-12


def test_affine_change_algebra():
    ch = AffineChange(scale=1.5, shift=-0.25)
    xs = np.linspace(-3.0, 3.0, 11)
    assert np.allclose(ch.invert(ch.apply(xs)), xs)
