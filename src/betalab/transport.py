"""Monotone transport from the semicircle law to a one-cut equilibrium law.

The map is characterized by a density-matching equation: its derivative
equals the ratio of the reference semicircle density to the target density
at the image point, and it fixes both support endpoints. Integrated once,
that equation says the map carries semicircle quantiles to equilibrium
quantiles, F_eq(zeta) = mass * F_sc. Both distribution functions are
cosine-mode sums in the arccos angle, so the identity continues
analytically past both edges, where the angle turns imaginary, and the map
is analytic on the whole working window. Its nearest singularity is the
zero of the density polynomial nearest the support, pulled back through
the map; as the potential nears a critical point that zero nears the real
axis. The map is stored as one Chebyshev series in a variable t whose sinh
change of variables is fitted to that singularity
(:class:`~betalab.operators.SinhVariable`): the identity is inverted at
every Chebyshev node of t by one batched Newton solve, and the node count
doubles until the fit is resolved. Its certificates are enforced here, at
the ``betalab verify`` tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from .equilibrium import SEMICIRCLE_MODES, EquilibriumData, _invert_cdf, _newton_decreasing
from .errors import NumericalError, UsageError

# Resolution: node counts double from the first to the last until the
# chop (ops.chop_coeffs) would drop at least ops.MIN_DROPPED trailing
# coefficients, the library's plateau rule.
_FIT_NODES = (ops.FIT_START, 4096)
# certificate tolerances, the same as in `betalab verify`
RESIDUAL_TOL = 1e-7
OVERLAP_TOL = 1e-8


@dataclass
class TransportMap:
    """The semicircle-to-equilibrium map as one Chebyshev series.

    ``variable`` is the map's Chebyshev variable t on the working window
    ``eq.interval``, x = c + eps sinh(A t + B), and ``interior_cheb``
    holds the coefficients in t (the name dates from when the series
    covered the bulk only): the resolving grid's whole series, one
    coefficient per node, its rounding plateau included.
    ``anchor`` is the map's value at 0.
    ``residual_max`` measures the density-matching equation on the
    support with the series' own derivative, so it checks the series
    against the equation rather than against its construction;
    ``overlap_max`` is the largest disagreement of the series with the
    pointwise construction between the fit nodes.

    :meth:`value` and :meth:`derivative` sum their series in t by
    Clenshaw's recurrence (``ops.cheb_val``), the derivative as
    f'(t) / x'(t), and :meth:`value_and_derivative` sums both in one
    pass, with the same bits. At Chebyshev points of t the values are
    transforms of the series, ``ops.grid_values`` and
    ``ops.extrema_values``.
    """

    eq: EquilibriumData
    interior_cheb: np.ndarray
    variable: ops.SinhVariable
    anchor: float
    residual_max: float
    overlap_max: float
    _der_cheb: np.ndarray = field(init=False, repr=False)
    _pair: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._der_cheb = ops.cheb_der(self.interior_cheb, ops.UNIT)
        # the map's series and its derivative's in t, zero-padded, as the
        # real and imaginary parts of one series
        self._pair = self.interior_cheb.astype(complex)
        self._pair.imag[: self._der_cheb.size] = self._der_cheb

    def _eval(self, coeffs, lam):
        lam = np.asarray(lam, dtype=float)
        if np.any(np.abs(lam) > 2.0 + self.eq.eps + 1e-9):
            raise UsageError("out-of-domain", "transport map evaluated outside the working window")
        t = self.variable.t(lam)
        return ops.cheb_val(coeffs, t, ops.UNIT), t

    def value(self, lam):
        return self._eval(self.interior_cheb, lam)[0]

    def derivative(self, lam):
        f, t = self._eval(self._der_cheb, lam)
        return f / self.variable.dx(t)

    def value_and_derivative(self, lam):
        """:meth:`value` and :meth:`derivative` at the same points, by one
        recurrence pass over both series."""
        z, t = self._eval(self._pair, lam)
        return z.real, z.imag / self.variable.dx(t)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "interval": list(self.eq.interval),
            "center": self.variable.center,
            "width": self.variable.width,
            "interior_cheb": [float(c) for c in self.interior_cheb],
            "anchor": self.anchor,
            "residual_max": self.residual_max,
            "overlap_max": self.overlap_max,
        }

    @classmethod
    def from_dict(cls, d: dict, eq: EquilibriumData) -> "TransportMap":
        if "center" not in d or "width" not in d:
            raise UsageError(
                "invalid-spec",
                "transport data has no center and width of its Chebyshev variable: it is an "
                "earlier layout; rebuild it with solve_transport",
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
            variable=ops.SinhVariable(eq.interval, float(d["center"]), float(d["width"])),
            anchor=float(d["anchor"]),
            residual_max=float(d["residual_max"]),
            overlap_max=float(d["overlap_max"]),
        )


def _variable(eq: EquilibriumData) -> ops.SinhVariable:
    """The map's Chebyshev variable, fitted to its nearest singularity.

    That singularity is the non-real zero z0 of the density polynomial
    nearest the support in the Bernstein sense, pulled back through the
    map to first order: c = zeta^-1(Re z0), the semicircle quantile of
    F_eq(Re z0), and eps = Im z0 / zeta'(c), with zeta'(c) the density
    ratio mass rho_sc(c) / rho_eq(Re z0), or (mass / P(Re z0))^(2/3) on
    an edge. Re z0 is clipped to the support. With no non-real zero the
    width is infinite, the affine limit. A poor estimate costs nodes,
    never accuracy: the chop and the certificates decide.
    """
    lo, hi = eq.interval
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    p = eq.p_cheb.copy()
    p[0] *= 0.5
    roots = mid + half * np.polynomial.chebyshev.chebroots(p).astype(complex)
    roots = roots[roots.imag > 0.0]
    if roots.size == 0:
        return ops.SinhVariable(eq.interval, mid, np.inf)
    u = 0.5 * roots
    z0 = roots[np.argmin(np.abs(u + np.sqrt(u - 1.0) * np.sqrt(u + 1.0)))]
    x = float(np.clip(z0.real, -2.0, 2.0))
    if abs(x) < 2.0:
        c = 2.0 * np.cos(_invert_cdf(SEMICIRCLE_MODES, np.array([eq.cdf(x) / eq.mass]))[0])
        slope = eq.mass * ops.semicircle_density(c) / eq.density(x)
    else:
        c = x
        slope = (eq.mass / float(eq.p_value(x))) ** (2.0 / 3.0)
    return ops.SinhVariable(eq.interval, float(c), float(z0.imag / slope))


def _pointwise(eq: EquilibriumData, lam: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The map at window points ``lam`` from F_eq(zeta) = mass * F_sc(lam).

    Both distribution functions are cosine-mode sums in the arccos angle
    (see :func:`equilibrium._cdf_angle`); the mass is the equilibrium
    sum's value beta0 * pi at the right edge, which ``eq.mass`` records.
    The equation is solved for the shift d of zeta's angle from the
    semicircle angle of lam: psi = arccos(lam / 2) on the support, and
    i eta beyond the right edge or pi + i eta beyond the left one, with
    eta = arccosh(|lam| / 2), where both sums continue analytically.
    Writing the equilibrium sum as mass times the semicircle sum plus the
    deviation modes leaves a residual whose semicircle part depends on d
    alone, so its rounding error scales with the deviation and with d,
    not with the distribution function. Then zeta comes from lam and d by
    the angle-addition formula, without rounding the angle itself, whose
    ulp would cost several ulps of zeta in the bulk.

    Newton starts from the shift of ``start``, a guess of zeta at each
    point (lam itself, or a coarser series), clipped to each point's
    bracket; it stops on its own residual floor only, so the guess moves
    the iteration count, not the root.
    """
    beta0 = eq.cdf_modes[0]
    dev = eq.cdf_modes.copy()
    dev[:3] -= beta0 * np.pi * SEMICIRCLE_MODES
    dev[0] = 0.0
    m = np.arange(1, dev.size)
    tol = 4.0 * np.finfo(float).eps
    zeta = np.empty_like(lam)

    inside = np.abs(lam) <= 2.0
    psi = np.arccos(lam[inside] / 2.0)

    def on_support(d, todo):
        p = psi[todo]
        mphi = np.multiply.outer(p + d, m)
        terms = np.sin(mphi) * (dev[1:] / m)
        de = -(np.cos(mphi) * dev[1:]).sum(axis=-1)
        r = beta0 * (np.cos(2.0 * p + d) * np.sin(d) - d) - terms.sum(axis=-1)
        dr = de - beta0 * (1.0 - np.cos(2.0 * (p + d)))
        floor = tol * (np.abs(terms).sum(axis=-1) + np.pi * np.abs(de) + 8.0 * beta0 * np.abs(d))
        return r, dr, floor

    d = np.arccos(np.clip(start[inside] / 2.0, -1.0, 1.0)) - psi
    d = _newton_decreasing(on_support, d, -psi, np.pi - psi, "transport inversion")
    li = lam[inside]
    zeta[inside] = li * np.cos(d) - np.sqrt(4.0 - li * li) * np.sin(d)

    for sign in (1.0, -1.0):
        beyond = sign * lam > 2.0
        eta = np.arccosh(sign * lam[beyond] / 2.0)
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
            d = np.clip(np.arccosh(np.maximum(sign * start[beyond] / 2.0, 1.0)) - eta, -eta, hi)
            d = _newton_decreasing(past_edge, d, -eta, hi, "transport continuation")
        lb = lam[beyond]
        zeta[beyond] = lb * np.cosh(d) + sign * np.sqrt(lb * lb - 4.0) * np.sinh(d)
    return zeta


def _fit(eq: EquilibriumData, var: ops.SinhVariable) -> np.ndarray:
    """Resolved Chebyshev coefficients of the map in the variable t.

    The chop decides resolution only: the first node count whose series
    has at least ``ops.MIN_DROPPED`` trailing coefficients below the chop
    threshold has reached the rounding plateau, and that grid's whole
    coefficient vector is returned, one coefficient per node. Nothing is
    cut at the threshold, so no coefficient can sit on it and the stored
    series does not move with the last bits of the transform. Each grid's
    Newton starts from the previous grid's series at its nodes, one
    ``ops.grid_values`` transform; the first starts from the identity.
    Raises "ode-failure" (the code the map has always used) if even the
    largest grid does not resolve the map.
    """
    n, n_max = _FIT_NODES
    coeffs = None
    while n <= n_max:
        lam = var.x(ops.cheb_grid(n, ops.UNIT).nodes)
        start = lam if coeffs is None else ops.grid_values(coeffs, n)
        coeffs = ops.coeffs_from_values(_pointwise(eq, lam, start))
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
    Chebyshev nodes of its variable t (:func:`_variable`; so the
    pushforward matches the target distribution exactly, not just up to a
    constant) and refined until resolved. ``delta_e`` and ``edge_count``
    are ignored: they sized the former edge series and remain only so
    existing callers still run. Raises "series-divergence" if the map has
    no continuation across the window because the density polynomial
    vanishes beyond an edge, and "ode-failure" if the series is not
    resolved, is not strictly increasing on the window, misses the
    density-matching equation by ``RESIDUAL_TOL`` or more, or departs
    from the pointwise construction between its nodes by ``OVERLAP_TOL``
    or more.

    Between the nodes means at the Chebyshev extreme points of t, where
    the series and its derivative are one DCT-I each, and where the
    pointwise construction starts from the series' values; the residual,
    the monotonicity on the support and the anchor take both at the
    support probes, and at 0, in one recurrence pass.
    """
    var = _variable(eq)
    coeffs = _fit(eq, var)
    n = coeffs.size
    tmap = TransportMap(eq=eq, interior_cheb=coeffs, variable=var, anchor=0.0, residual_max=0.0, overlap_max=0.0)

    # the Chebyshev extreme points interlace the fit nodes and include
    # both ends of t's interval; the series' values there are transforms
    series = ops.extrema_values(coeffs, n)
    between = var.x(np.cos(np.pi * np.arange(n, -1, -1) / n))
    overlap = float(np.max(np.abs(series - _pointwise(eq, between, series))))
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
