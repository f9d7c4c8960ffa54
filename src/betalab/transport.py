"""Monotone transport from the semicircle law to a one-cut equilibrium law.

The map is characterized by a density-matching equation: its derivative
equals the ratio of the reference semicircle density to the target density
at the image point, and it fixes both support endpoints. Integrated once,
that equation says the map carries semicircle quantiles to equilibrium
quantiles, F_eq(zeta) = mass * F_sc. Both distribution functions are
cosine-mode sums in the arccos angle, so the identity continues
analytically past both edges, where the angle turns imaginary, and the map
is analytic on the whole working window. It is stored as one Chebyshev
series there: the identity is inverted at every Chebyshev node by one
batched Newton solve, and the node count doubles until the fit is
resolved. Its certificates are enforced here, at the ``betalab verify``
tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from .equilibrium import SEMICIRCLE_MODES, EquilibriumData, _newton_decreasing
from .errors import NumericalError, UsageError

# Resolution: node counts double from the first to the last until the
# chop (ops.chop_coeffs) would drop at least ops.MIN_DROPPED trailing
# coefficients, the library's plateau rule.
_FIT_NODES = (64, 4096)
# certificate tolerances, the same as in `betalab verify`
RESIDUAL_TOL = 1e-7
OVERLAP_TOL = 1e-8


@dataclass
class TransportMap:
    """The semicircle-to-equilibrium map as one Chebyshev series.

    ``interior_cheb`` holds its coefficients on the working window
    ``eq.interval``, edges included (the name dates from when the series
    covered the bulk only): the resolving grid's whole series, one
    coefficient per node, its rounding plateau included.
    ``anchor`` is the map's value at 0.
    ``residual_max`` measures the density-matching equation on the
    support with the series' own derivative, so it checks the series
    against the equation rather than against its construction;
    ``overlap_max`` is the largest disagreement of the series with the
    pointwise construction between the fit nodes.

    Off the Chebyshev points, :meth:`value` and :meth:`derivative` sum
    their series by Clenshaw's recurrence (``ops.cheb_val``), and
    :meth:`value_and_derivative` sums both in one pass, with the same
    bits. At Chebyshev points of the window the values are transforms
    of the series, ``ops.grid_values`` and ``ops.extrema_values``.
    """

    eq: EquilibriumData
    interior_cheb: np.ndarray
    anchor: float
    residual_max: float
    overlap_max: float
    _der_cheb: np.ndarray = field(init=False, repr=False)
    _pair: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._der_cheb = ops.cheb_der(self.interior_cheb, self.eq.interval)
        # the map's series and its derivative's, zero-padded, as the real
        # and imaginary parts of one series
        self._pair = self.interior_cheb.astype(complex)
        self._pair.imag[: self._der_cheb.size] = self._der_cheb

    def _eval(self, coeffs, lam):
        lam = np.asarray(lam, dtype=float)
        if np.any(np.abs(lam) > 2.0 + self.eq.eps + 1e-9):
            raise UsageError("out-of-domain", "transport map evaluated outside the working window")
        return ops.cheb_val(coeffs, lam, self.eq.interval)

    def value(self, lam):
        return self._eval(self.interior_cheb, lam)

    def derivative(self, lam):
        return self._eval(self._der_cheb, lam)

    def value_and_derivative(self, lam):
        """:meth:`value` and :meth:`derivative` at the same points, by one
        recurrence pass over both series."""
        z = self._eval(self._pair, lam)
        return z.real, z.imag

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "interval": list(self.eq.interval),
            "interior_cheb": [float(c) for c in self.interior_cheb],
            "anchor": self.anchor,
            "residual_max": self.residual_max,
            "overlap_max": self.overlap_max,
        }

    @classmethod
    def from_dict(cls, d: dict, eq: EquilibriumData) -> "TransportMap":
        if "edges" in d or "delta_e" in d:
            raise UsageError(
                "invalid-spec",
                "transport data has the former interior-plus-edge-series layout; "
                "rebuild it with solve_transport",
            )
        if tuple(d["interval"]) != tuple(eq.interval):
            raise UsageError(
                "invalid-spec",
                f"transport data is on the window {tuple(d['interval'])}, "
                f"the equilibrium on {tuple(eq.interval)}",
            )
        return cls(
            eq=eq,
            interior_cheb=np.asarray(d["interior_cheb"], dtype=float),
            anchor=float(d["anchor"]),
            residual_max=float(d["residual_max"]),
            overlap_max=float(d["overlap_max"]),
        )


def _pointwise(eq: EquilibriumData, t: np.ndarray) -> np.ndarray:
    """The map at window points ``t`` from F_eq(zeta) = mass * F_sc(t).

    Both distribution functions are cosine-mode sums in the arccos angle
    (see :func:`equilibrium._cdf_angle`); the mass is the equilibrium
    sum's value beta0 * pi at the right edge, which ``eq.mass`` records.
    The equation is solved for the shift d of zeta's angle from the
    semicircle angle of t: psi = arccos(t / 2) on the support, and i eta
    beyond the right edge or pi + i eta beyond the left one, with
    eta = arccosh(|t| / 2), where both sums continue analytically.
    Writing the equilibrium sum as mass times the semicircle sum plus the
    deviation modes leaves a residual whose semicircle part depends on d
    alone, so its rounding error scales with the deviation and with d,
    not with the distribution function. Then zeta comes from t and d by
    the angle-addition formula, without rounding the angle itself, whose
    ulp would cost several ulps of zeta in the bulk.
    """
    beta0 = eq.cdf_modes[0]
    dev = eq.cdf_modes.copy()
    dev[:3] -= beta0 * np.pi * SEMICIRCLE_MODES
    dev[0] = 0.0
    m = np.arange(1, dev.size)
    tol = 4.0 * np.finfo(float).eps
    zeta = np.empty_like(t)

    inside = np.abs(t) <= 2.0
    psi = np.arccos(t[inside] / 2.0)

    def on_support(d, todo):
        p = psi[todo]
        mphi = np.multiply.outer(p + d, m)
        terms = np.sin(mphi) * (dev[1:] / m)
        de = -(np.cos(mphi) * dev[1:]).sum(axis=-1)
        r = beta0 * (np.cos(2.0 * p + d) * np.sin(d) - d) - terms.sum(axis=-1)
        dr = de - beta0 * (1.0 - np.cos(2.0 * (p + d)))
        floor = tol * (np.abs(terms).sum(axis=-1) + np.pi * np.abs(de) + 8.0 * beta0 * np.abs(d))
        return r, dr, floor

    d = _newton_decreasing(on_support, np.zeros_like(psi), -psi, np.pi - psi, "transport inversion")
    ti = t[inside]
    zeta[inside] = ti * np.cos(d) - np.sqrt(4.0 - ti * ti) * np.sin(d)

    for sign in (1.0, -1.0):
        beyond = sign * t > 2.0
        eta = np.arccosh(sign * t[beyond] / 2.0)
        b = dev[1:] * sign**m

        def past_edge(d, todo):
            e = eta[todo]
            h = e + d
            mh = np.multiply.outer(h, m)
            terms = np.sinh(mh) * (b / m)
            de = (np.cosh(mh) * b).sum(axis=-1)
            grow = np.cosh(2.0 * e + d) * np.sinh(d)
            r = terms.sum(axis=-1) + beta0 * (d - grow)
            dr = de + beta0 * (1.0 - np.cosh(2.0 * h))
            floor = tol * (np.abs(terms).sum(axis=-1) + h * np.abs(de) + 8.0 * beta0 * (np.abs(d) + np.abs(grow)))
            return r, dr, floor

        # the shift is bracketed by -eta (zeta on the edge) and the first
        # eta (2^k - 1) where the residual is negative
        hi = eta.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(6):
                short = ~(past_edge(hi, np.arange(hi.size))[0] < 0.0)
                if not short.any():
                    break
                hi[short] = 2.0 * hi[short] + eta[short]
            else:
                side = "right" if sign > 0 else "left"
                raise NumericalError(
                    "series-divergence",
                    f"the map has no continuation past the {side} edge at {int(short.sum())} points: "
                    "the density polynomial vanishes beyond the edge",
                )
            d = _newton_decreasing(past_edge, np.zeros_like(eta), -eta, hi, "transport continuation")
        tb = t[beyond]
        zeta[beyond] = tb * np.cosh(d) + sign * np.sqrt(tb * tb - 4.0) * np.sinh(d)
    return zeta


def _fit(eq: EquilibriumData) -> np.ndarray:
    """Resolved Chebyshev coefficients of the map on the working window.

    The chop decides resolution only: the first node count whose series
    has at least ``ops.MIN_DROPPED`` trailing coefficients below the chop
    threshold has reached the rounding plateau, and that grid's whole
    coefficient vector is returned, one coefficient per node. Nothing is
    cut at the threshold, so no coefficient can sit on it and the stored
    series does not move with the last bits of the transform. Raises
    "ode-failure" (the code the map has always used) if even the largest
    grid does not resolve the map.
    """
    n, n_max = _FIT_NODES
    while n <= n_max:
        t = ops.cheb_grid(n, eq.interval).nodes
        coeffs = ops.coeffs_from_values(_pointwise(eq, t))
        if n - ops.chop_coeffs(coeffs).size >= ops.MIN_DROPPED:
            return coeffs
        n *= 2
    raise NumericalError(
        "ode-failure",
        f"transport map is not resolved by {n_max} Chebyshev nodes; "
        "the potential is too close to losing genericity",
    )


def solve_transport(
    eq: EquilibriumData,
    delta_e: float = 0.1,
    edge_count: int = 32,
) -> TransportMap:
    """Build the certified transport map for certified equilibrium data.

    The map is F_eq^-1(mass F_sc), continued past both edges, taken at
    Chebyshev nodes of the working window (so the pushforward matches the
    target distribution exactly, not just up to a constant) and refined
    until resolved. ``delta_e`` and ``edge_count`` are ignored: they sized
    the former edge series and remain only so existing callers still run.
    Raises "series-divergence" if the map has no continuation across the
    window because the density polynomial vanishes beyond an edge, and
    "ode-failure" if the series is not resolved, is not strictly
    increasing on the window, misses the density-matching equation by
    ``RESIDUAL_TOL`` or more, or departs from the pointwise construction
    between its nodes by ``OVERLAP_TOL`` or more.

    Between the nodes means at the Chebyshev extreme points, where the
    series and its derivative are one DCT-I each; the residual, the
    monotonicity on the support and the anchor take both at the support
    probes, and at 0, in one recurrence pass.
    """
    coeffs = _fit(eq)
    n = coeffs.size
    tmap = TransportMap(eq=eq, interior_cheb=coeffs, anchor=0.0, residual_max=0.0, overlap_max=0.0)

    # the Chebyshev extreme points interlace the fit nodes and include
    # both ends of the window; the series' values there are transforms
    lo, hi = eq.interval
    between = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * np.arange(n, -1, -1) / n)
    overlap = float(np.max(np.abs(ops.extrema_values(coeffs, n) - _pointwise(eq, between))))
    if not overlap < OVERLAP_TOL:
        raise NumericalError(
            "ode-failure",
            f"transport series and its pointwise construction disagree between the nodes "
            f"(overlap {overlap:.3g}); the map is not consistent at the requested precision",
        )
    tmap.overlap_max = overlap

    # the anchor, the map's value at 0, rides along with the support probes
    lam, _ = ops.gauss_inv_sqrt(512, ops.SIGMA)
    z, dz = tmap.value_and_derivative(np.append(lam, 0.0))
    tmap.anchor = float(z[-1])
    if np.any(dz <= 0) or np.any(ops.extrema_values(tmap._der_cheb, n) <= 0):
        raise NumericalError("ode-failure", "transport map is not strictly increasing")
    z, dz = z[:-1], dz[:-1]
    resid = float(np.max(np.abs(eq.density(z) * dz - ops.semicircle_density(lam))))
    if not resid < RESIDUAL_TOL:
        raise NumericalError(
            "ode-failure",
            f"transport map misses the density-matching equation by {resid:.3g}",
        )
    tmap.residual_max = resid
    return tmap
