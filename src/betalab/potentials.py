"""Confining potentials and support normalization.

A potential here is a smooth even-tempered confining function on a compact
working window around the reference interval, packaged with its derivative,
its margin eps (the one source of the working window and of the samplers'
truncation window) and an analyticity radius (half-width of the complex
strip the analytic continuation is trusted on). Built-in families are
polynomial; user-supplied closures are accepted after a finite-difference
consistency audit, since a silently wrong derivative would poison
everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import operators as ops
from .errors import NumericalError, UsageError

# first-kind nodes of the arcsine moments (endpoint conditions)
_MOMENT_NODES = 256
# the endpoint Newton converges below this moment residual, and gives up
# after this many steps
_ENDPOINT_TOL = 1e-12
_ENDPOINT_MAX_ITER = 80


@dataclass(frozen=True)
class AffineChange:
    """Affine substitution lambda = scale * x + shift.

    ``apply`` maps normalized coordinates to original ones, ``invert``
    goes the other way.
    """

    scale: float
    shift: float

    def apply(self, x):
        return self.scale * np.asarray(x, dtype=float) + self.shift

    def invert(self, lam):
        return (np.asarray(lam, dtype=float) - self.shift) / self.scale


@dataclass(frozen=True)
class Potential:
    """A validated potential; build it with :func:`make_potential`.

    ``eps`` is the margin it was built with, and every window derives
    from it. For the built-in kinds, ``params`` is what
    ``make_potential(kind, eps=eps, **params)`` rebuilds it from.
    """

    kind: str
    label: str
    v: Callable
    dv: Callable
    eps: float
    analyticity_radius: float
    params: dict

    @property
    def domain(self) -> tuple:
        """The working window (-(2 + eps), 2 + eps)."""
        return (-(2.0 + self.eps), 2.0 + self.eps)

    @property
    def window(self) -> tuple:
        """The truncation window (-(2 + eps/2), 2 + eps/2) of every sampler and quadrature."""
        return (-(2.0 + 0.5 * self.eps), 2.0 + 0.5 * self.eps)

    @property
    def confinement_margin(self) -> float:
        """The smaller outward slope of V at the two ends of ``domain``."""
        lo, hi = self.domain
        return float(min(self.dv(hi), -self.dv(lo)))


def _horner(c):
    """Evaluator of the ascending coefficients ``c``, bit-identical to ``npoly.polyval``.

    It performs polyval's IEEE operations (``c[-1] + x*0``, then
    ``c[k] + acc*x``) without its per-call coefficient copy and reshape.
    The dtype is preserved: complex arguments are legitimate (analytic
    continuation).
    """
    top, rest = c[-1], c[-2::-1]

    def value(x):
        x = np.asarray(x)
        acc = top + x * 0
        for ck in rest:
            acc = ck + acc * x
        return acc

    return value


def _poly_closures(coeffs):
    c = np.asarray(coeffs, dtype=float)
    return _horner(c), _horner(npoly.polyder(c))


def _check_derivative(v, dv, domain):
    lo, hi = domain
    x = np.linspace(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), 64)
    t = 1e-6 * np.maximum(1.0, np.abs(x))
    fd = (np.asarray(v(x + t)) - np.asarray(v(x - t))) / (2.0 * t)
    if not np.all(np.abs(fd - np.asarray(dv(x))) <= 1e-5 * np.maximum(1.0, np.abs(fd))):
        raise UsageError(
            "invalid-spec",
            "the supplied derivative disagrees with finite differences of the potential",
        )


def make_potential(kind: str, eps: float = 0.2, **params) -> Potential:
    """Construct a validated potential.

    Parameters
    ----------
    kind : str
        One of "gaussian" (the reference x^2/2), "even-quartic" (one
        parameter ``g``, interpolating from the reference at g = 0),
        "polynomial" (``coeffs`` ascending), or "user-analytic"
        (callables ``v`` and ``dv`` plus ``analyticity_radius``).
    eps : float
        Margin of the working window beyond the reference interval; the
        domain is (-(2 + eps), 2 + eps) and the truncation window
        (-(2 + eps/2), 2 + eps/2).

    Raises
    ------
    UsageError
        Unknown kind, malformed parameters, an inconsistent derivative, or
        a potential that fails to confine (non-positive outward slope at
        the window ends).
    """
    if not 0 < eps <= 1.0:
        raise UsageError("invalid-spec", f"eps must lie in (0, 1], got {eps}")

    if kind == "gaussian":
        coeffs = [0.0, 0.0, 0.5]
        v, dv = _poly_closures(coeffs)
        label = "gaussian"
        radius = float("inf")
        params = {"coeffs": coeffs}
    elif kind == "even-quartic":
        g = float(params.get("g", 0.1))
        coeffs = [0.0, 0.0, (1.0 - 3.0 * g) / 2.0, 0.0, g / 4.0]
        v, dv = _poly_closures(coeffs)
        label = f"even-quartic(g={g:g})"
        radius = float("inf")
        params = {"g": g, "coeffs": coeffs}
    elif kind == "polynomial":
        if "coeffs" not in params:
            raise UsageError("invalid-spec", "polynomial kind needs coeffs")
        coeffs = [float(c) for c in params["coeffs"]]
        if len(coeffs) < 2:
            raise UsageError("invalid-spec", "polynomial needs degree >= 1")
        v, dv = _poly_closures(coeffs)
        label = f"polynomial(deg={len(coeffs) - 1})"
        radius = float("inf")
        params = {"coeffs": coeffs}
    elif kind == "user-analytic":
        try:
            v, dv = params["v"], params["dv"]
            radius = float(params["analyticity_radius"])
        except KeyError as missing:
            raise UsageError(
                "invalid-spec",
                f"user-analytic kind needs v, dv, analyticity_radius ({missing} missing)",
            ) from None
        if radius <= 0:
            raise UsageError("invalid-spec", "analyticity_radius must be positive")
        label = str(params.get("label", "user-analytic"))
        params = {}
    else:
        raise UsageError("invalid-spec", f"unknown potential kind {kind!r}")

    pot = Potential(
        kind=kind, label=label, v=v, dv=dv, eps=float(eps), analyticity_radius=radius, params=params
    )
    if kind == "user-analytic":
        _check_derivative(v, dv, pot.domain)
    margin = pot.confinement_margin
    if margin <= 0:
        raise NumericalError(
            "confinement-violation",
            f"potential slope does not point outward at the window ends (margin {margin:.3g})",
        )
    return pot


def _arcsine_moments(f, a: float, b: float):
    """Means of f(x) and of x f(x) / 2 over the arcsine law of [a, b], by
    the ``_MOMENT_NODES``-point first-kind rule."""
    x = ops.cheb_grid(_MOMENT_NODES, (a, b)).nodes
    fx = np.asarray(f(x), dtype=float)
    return float(np.mean(fx)), float(np.mean(x * fx)) / 2.0


def _moment_residual(pot: Potential, a: float, b: float):
    """The two endpoint conditions: zero odd moment, unit even moment."""
    m1, m2 = _arcsine_moments(pot.dv, a, b)
    return np.array([m1 * np.pi, m2 - 1.0])


def support_endpoints(pot: Potential, guess=(-2.0, 2.0)):
    """Solve the two moment conditions for the single support interval.

    Damped Newton with a finite-difference Jacobian, run until the moment
    residual is below ``_ENDPOINT_TOL``. Convergence is quadratic from any
    reasonable guess for genuinely one-interval data; a stall usually
    means the one-interval ansatz is wrong for this potential (e.g. a
    deep double well).
    """
    a, b = float(guess[0]), float(guess[1])
    r = _moment_residual(pot, a, b)
    for _ in range(_ENDPOINT_MAX_ITER):
        nr = float(np.max(np.abs(r)))
        if nr < _ENDPOINT_TOL:
            return a, b
        h = 1e-7 * max(b - a, 1.0)
        ja = (_moment_residual(pot, a + h, b) - r) / h
        jb = (_moment_residual(pot, a, b + h) - r) / h
        jac = np.column_stack([ja, jb])
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            raise NumericalError(
                "no-convergence", "singular Jacobian in the endpoint iteration"
            ) from None
        damp = 1.0
        for _ in range(40):
            a_new, b_new = a + damp * step[0], b + damp * step[1]
            if b_new - a_new > 1e-6:
                r_new = _moment_residual(pot, a_new, b_new)
                if np.max(np.abs(r_new)) < nr * (1.0 - 1e-4 * damp) + 1e-15:
                    a, b, r = a_new, b_new, r_new
                    break
            damp *= 0.5
        else:
            raise NumericalError(
                "no-convergence",
                f"endpoint iteration stalled at residual {nr:.3g}; "
                "the support may consist of several intervals",
            )
    if b - a < 1e-6:
        raise NumericalError("degenerate-interval", "support interval collapsed")
    raise NumericalError(
        "no-convergence",
        f"endpoint iteration did not reach tolerance (residual {np.max(np.abs(r)):.3g})",
    )


def normalize_support(pot: Potential, endpoints) -> tuple:
    """Rescale a potential so its support becomes the reference interval.

    Returns the transformed potential and the affine change such that
    original = change.apply(normalized). Polynomial families transform
    exactly by coefficient substitution; user closures are composed.
    """
    a, b = float(endpoints[0]), float(endpoints[1])
    if not b > a:
        raise UsageError("invalid-spec", f"bad endpoints ({a}, {b})")
    if b - a < 1e-6:
        raise NumericalError("degenerate-interval", "support interval collapsed")
    scale = (b - a) / 4.0
    shift = 0.5 * (a + b)
    change = AffineChange(scale=scale, shift=shift)

    if "coeffs" in pot.params:
        base = np.polynomial.Polynomial(np.asarray(pot.params["coeffs"], dtype=float))
        composed = base(np.polynomial.Polynomial([shift, scale]))
        coeffs = [float(c) for c in composed.coef]
        out = make_potential("polynomial", eps=pot.eps, coeffs=coeffs)
        out = replace(out, label=f"{pot.label}|normalized", analyticity_radius=pot.analyticity_radius)
        return out, change

    v0, dv0 = pot.v, pot.dv
    out = make_potential(
        "user-analytic",
        eps=pot.eps,
        v=lambda x: v0(scale * np.asarray(x) + shift),
        dv=lambda x: scale * np.asarray(dv0(scale * np.asarray(x) + shift)),
        analyticity_radius=pot.analyticity_radius / scale,
        label=f"{pot.label}|normalized",
    )
    return out, change
