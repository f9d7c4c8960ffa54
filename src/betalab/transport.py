"""Monotone transport from the semicircle law to a one-cut equilibrium law.

The map is characterized by a density-matching equation: its derivative
equals the ratio of the reference semicircle density to the target density
at the image point, and it fixes both support endpoints. Integrated once,
that equation says the map carries semicircle quantiles to equilibrium
quantiles, zeta = F_eq^-1 o F_sc. Away from the edges the map is computed
that way, with no differential equation: the equilibrium distribution
function is an exact cosine-mode sum, inverted at every Chebyshev node by
one batched Newton solve, and the node count doubles until the fit is
resolved. At the edges both densities vanish like a square root, so the
map is continued there by the edge-regular power series (whose
coefficients satisfy an explicit triangular recursion). The two
representations are cross-checked on overlap windows; their agreement
doubles as the endpoint-fixing certificate. Both certificates are
enforced here, at the ``betalab verify`` tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import operators as ops
from .equilibrium import EquilibriumData
from .errors import NumericalError, UsageError

# Interior resolution: node counts double from the first to the last until
# chopping at _CHOP_REL drops at least _MIN_DROPPED trailing coefficients.
_FIT_NODES = (64, 4096)
_CHOP_REL = 1e-14
_MIN_DROPPED = 8
# certificate tolerances, the same as in `betalab verify`
RESIDUAL_TOL = 1e-7
OVERLAP_TOL = 1e-8


# ----------------------------------------------------------------------
# truncated power-series arithmetic (dense, shared length)


def _smul(a, b):
    return np.convolve(a, b)[: a.size]


def _sdiv(a, b):
    if b[0] == 0.0:
        raise NumericalError("series-divergence", "division by a series with zero constant term")
    k = a.size
    q = np.zeros(k)
    q[0] = a[0] / b[0]
    for i in range(1, k):
        q[i] = (a[i] - np.dot(q[:i], b[i:0:-1])) / b[0]
    return q


def _ssqrt(a):
    if a[0] <= 0.0:
        raise NumericalError("series-divergence", "square root of a series with non-positive lead")
    k = a.size
    r = np.zeros(k)
    r[0] = np.sqrt(a[0])
    for i in range(1, k):
        conv = np.dot(r[1:i], r[i - 1 : 0 : -1]) if i >= 2 else 0.0
        r[i] = (a[i] - conv) / (2.0 * r[0])
    return r


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeSeries:
    """Edge-regular expansion of the transport map at one support edge.

    In the inward coordinate x (distance from the edge into the support),
    the map's inward displacement is scale * x * (1 + sum_k coeffs[k] x^k).
    The leading scale is the -2/3 power of the density polynomial at the
    edge, which is also the ratio of edge scaling constants of the two
    laws. Negative x (outside the support) is the analytic continuation.
    """

    side: str
    scale: float
    coeffs: np.ndarray
    radius_estimate: float

    def inner(self, x):
        x = np.asarray(x, dtype=float)
        grow = npoly.polyval(x, np.concatenate(([1.0], self.coeffs[1:])))
        return self.scale * x * grow

    def inner_deriv(self, x):
        x = np.asarray(x, dtype=float)
        k = np.arange(self.coeffs.size)
        return self.scale * npoly.polyval(x, np.concatenate(([1.0], (k[1:] + 1.0) * self.coeffs[1:])))


def edge_series(eq: EquilibriumData, side: str, count: int = 32) -> EdgeSeries:
    """Solve the triangular recursion for the edge expansion coefficients.

    Feeding the expansion ansatz into the density-matching equation and
    collecting powers of the inward coordinate determines coefficient k
    from the lower ones divided by (k + 3/2); the right-hand sides involve
    only products, quotients, and square roots of known series, all exact
    in truncated arithmetic.
    """
    if count < 4:
        raise UsageError("invalid-spec", "edge expansion needs at least 4 coefficients")
    b = eq.edge_taylor(side, count + 4)
    if b[0] <= 0.0:
        raise NumericalError(
            "zero-leading-edge",
            f"density polynomial vanishes at the {side} edge; the edge is not generic",
        )
    p0 = b[0]
    c = p0 ** (-2.0 / 3.0)
    k_len = count + 1
    s = np.zeros(k_len)
    four_minus_x = np.zeros(k_len)
    four_minus_x[0] = 4.0
    four_minus_x[1] = -1.0
    four_const = np.zeros(k_len)
    four_const[0] = 4.0
    sqrt_num = _ssqrt(four_minus_x)
    bq = b[: min(b.size, k_len)] / p0

    for k in range(1, k_len):
        one_plus_s = s.copy()
        one_plus_s[0] += 1.0
        xs = np.zeros(k_len)
        xs[1:] = one_plus_s[:-1]  # x * (1 + s)
        w = c * xs
        # q = P(edge + inward * w) / P(edge), Horner in series arithmetic
        q = np.zeros(k_len)
        q[0] = bq[-1]
        for m in range(bq.size - 2, -1, -1):
            q = _smul(q, w)
            q[0] += bq[m]
        inner = _smul(one_plus_s, four_const - c * xs)
        f = _sdiv(sqrt_num, _smul(q, _ssqrt(inner)))
        f[0] -= 1.0
        s[k] = f[k] / (k + 1.5)

    nz = np.abs(s) > 1e-300
    tail_idx = np.nonzero(nz)[0]
    if tail_idx.size >= 4:
        idx = tail_idx[-8:] if tail_idx.size >= 8 else tail_idx
        slope = np.polyfit(idx, np.log(np.abs(s[idx])), 1)[0]
        radius = float(np.exp(-slope))
    else:
        radius = float("inf")
    return EdgeSeries(side=side, scale=float(c), coeffs=s, radius_estimate=radius)


@dataclass
class TransportMap:
    """Piecewise representation of the semicircle-to-equilibrium map.

    Interior: Chebyshev interpolant of F_eq^-1 o F_sc on the slightly
    shrunk interval; ``anchor`` is the map's value at 0. Edge zones
    (within ``delta_e`` of an endpoint, and beyond the endpoints up to
    the working window): edge-regular series.
    ``residual_max`` measures the density-matching equation with an
    independently differentiated map, so it is a genuine consistency
    check rather than a restatement of the construction; ``overlap_max``
    is the maximal disagreement of the two representations where both
    are valid.
    """

    eq: EquilibriumData
    delta_e: float
    interior_interval: tuple
    interior_cheb: np.ndarray
    left: EdgeSeries
    right: EdgeSeries
    anchor: float
    residual_max: float
    overlap_max: float

    def _eval(self, lam, deriv: bool):
        lam_arr = np.asarray(lam, dtype=float)
        flat = np.atleast_1d(lam_arr).ravel()
        lim = 2.0 + self.eq.eps + 1e-9
        if np.any(np.abs(flat) > lim):
            raise UsageError("out-of-domain", "transport map evaluated outside the working window")
        cut = 2.0 - self.delta_e
        out = np.empty_like(flat)
        mid = np.abs(flat) <= cut
        if np.any(mid):
            if deriv:
                z = ops.cheb_val(self.interior_cheb, flat[mid], self.interior_interval)
                out[mid] = ops.semicircle_density(flat[mid]) / self.eq.density(z)
            else:
                out[mid] = ops.cheb_val(self.interior_cheb, flat[mid], self.interior_interval)
        lft = flat < -cut
        if np.any(lft):
            x = flat[lft] + 2.0
            out[lft] = self.left.inner_deriv(x) if deriv else -2.0 + self.left.inner(x)
        rgt = flat > cut
        if np.any(rgt):
            x = 2.0 - flat[rgt]
            out[rgt] = self.right.inner_deriv(x) if deriv else 2.0 - self.right.inner(x)
        if lam_arr.ndim == 0:
            return float(out[0])
        return out.reshape(lam_arr.shape)

    def value(self, lam):
        return self._eval(lam, deriv=False)

    def derivative(self, lam):
        return self._eval(lam, deriv=True)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "delta_e": self.delta_e,
            "interior_interval": list(self.interior_interval),
            "interior_cheb": [float(c) for c in self.interior_cheb],
            "anchor": self.anchor,
            "residual_max": self.residual_max,
            "overlap_max": self.overlap_max,
            "edges": {
                e.side: {
                    "scale": e.scale,
                    "coeffs": [float(c) for c in e.coeffs],
                    "radius_estimate": e.radius_estimate,
                }
                for e in (self.left, self.right)
            },
        }

    @classmethod
    def from_dict(cls, d: dict, eq: EquilibriumData) -> "TransportMap":
        edges = {}
        for side in ("left", "right"):
            ed = d["edges"][side]
            edges[side] = EdgeSeries(
                side=side,
                scale=float(ed["scale"]),
                coeffs=np.asarray(ed["coeffs"], dtype=float),
                radius_estimate=float(ed["radius_estimate"]),
            )
        return cls(
            eq=eq,
            delta_e=float(d["delta_e"]),
            interior_interval=tuple(d["interior_interval"]),
            interior_cheb=np.asarray(d["interior_cheb"], dtype=float),
            left=edges["left"],
            right=edges["right"],
            anchor=float(d["anchor"]),
            residual_max=float(d["residual_max"]),
            overlap_max=float(d["overlap_max"]),
        )


def _interior_fit(eq: EquilibriumData, interval: tuple) -> np.ndarray:
    """Chebyshev coefficients of F_eq^-1 o F_sc on ``interval``, resolved.

    The first node count whose fit loses at least ``_MIN_DROPPED``
    trailing coefficients to chopping wins; the fit is then known to
    reach the rounding plateau. Raises "ode-failure" (the code the
    interior has always used) if even the largest grid does not.
    """
    n, n_max = _FIT_NODES
    while n <= n_max:
        t = ops.cheb_grid(n, interval).nodes
        coeffs = ops.coeffs_from_values(eq.quantile(ops.semicircle_cdf(t)))
        kept = ops.chop_coeffs(coeffs, _CHOP_REL)
        if coeffs.size - kept.size >= _MIN_DROPPED:
            return kept
        n *= 2
    raise NumericalError(
        "ode-failure",
        f"interior map is not resolved by {n_max} Chebyshev nodes; "
        "the potential is too close to losing genericity",
    )


def solve_transport(
    eq: EquilibriumData,
    delta_e: float = 0.1,
    edge_count: int = 32,
) -> TransportMap:
    """Build the certified transport map for certified equilibrium data.

    The interior is F_eq^-1 o F_sc on the interval shrunk by ``delta_e``,
    taken at Chebyshev nodes (so the pushforward matches the target
    distribution exactly, not just up to a constant) and refined until
    resolved; the edge series continue it past the shrunk interval.
    Raises "series-divergence" if the edge expansions cannot cover their
    zones at the working precision, and "ode-failure" if the interior is
    not resolved, the map is not strictly increasing, the density-matching
    residual reaches ``RESIDUAL_TOL`` or the two representations disagree
    by ``OVERLAP_TOL`` or more on the overlap.
    """
    if not 0.0 < delta_e <= 0.5:
        raise UsageError("invalid-spec", f"delta_e must lie in (0, 0.5], got {delta_e}")
    cut = 2.0 - delta_e
    interior_interval = (-cut, cut)
    interior_cheb = _interior_fit(eq, interior_interval)

    left = edge_series(eq, "left", edge_count)
    right = edge_series(eq, "right", edge_count)
    x_max = max(eq.eps, delta_e + 0.05)
    for es in (left, right):
        k = np.arange(es.coeffs.size)
        tail = np.abs(es.coeffs[-4:]) * x_max ** k[-4:]
        if np.max(tail) > 1e-9:
            raise NumericalError(
                "series-divergence",
                f"{es.side} edge series does not converge over its zone "
                f"(tail term {np.max(tail):.3g}); enlarge the expansion or shrink delta_e",
            )

    tmap = TransportMap(
        eq=eq,
        delta_e=delta_e,
        interior_interval=interior_interval,
        interior_cheb=interior_cheb,
        left=left,
        right=right,
        anchor=float(ops.cheb_val(interior_cheb, 0.0, interior_interval)),
        residual_max=0.0,
        overlap_max=0.0,
    )

    # overlap agreement of the two representations
    probe = np.linspace(cut - 0.05, cut, 33)
    series_r = 2.0 - right.inner(2.0 - probe)
    series_l = -2.0 + left.inner(2.0 - probe)
    interior_r = ops.cheb_val(interior_cheb, probe, interior_interval)
    interior_l = ops.cheb_val(interior_cheb, -probe, interior_interval)
    overlap = max(
        float(np.max(np.abs(series_r - interior_r))),
        float(np.max(np.abs(series_l - interior_l))),
    )
    if not overlap < OVERLAP_TOL:
        raise NumericalError(
            "ode-failure",
            f"interior map and edge series disagree on the overlap ({overlap:.3g}); "
            "the map is not consistent at the requested precision",
        )
    tmap.overlap_max = overlap

    # density-matching residual with an independent derivative
    lam_probe, _ = ops.gauss_inv_sqrt(512, ops.SIGMA)
    dz_indep = np.empty_like(lam_probe)
    mid = np.abs(lam_probe) <= cut
    der_cheb = ops.cheb_der(interior_cheb, interior_interval)
    dz_indep[mid] = ops.cheb_val(der_cheb, lam_probe[mid], interior_interval)
    dz_indep[~mid] = np.where(
        lam_probe[~mid] > 0,
        right.inner_deriv(2.0 - lam_probe[~mid]),
        left.inner_deriv(lam_probe[~mid] + 2.0),
    )
    if np.any(dz_indep <= 0):
        raise NumericalError("ode-failure", "transport map is not strictly increasing")
    z_probe = tmap.value(lam_probe)
    resid = float(np.max(np.abs(eq.density(z_probe) * dz_indep - ops.semicircle_density(lam_probe))))
    if not resid < RESIDUAL_TOL:
        raise NumericalError(
            "ode-failure",
            f"transport map misses the density-matching equation by {resid:.3g}",
        )
    tmap.residual_max = resid
    return tmap
