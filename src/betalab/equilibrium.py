"""Equilibrium densities for one-cut ensembles on the normalized interval.

The equilibrium density of a confining analytic potential with support
equal to the reference interval factors as a strictly positive analytic
function times the semicircle edge factor. That analytic factor (the
"density polynomial", which is a genuine polynomial for polynomial
potentials and an analytic function otherwise) is produced here by a
contour integral wrapping the support, evaluated by the trapezoid rule on
a circle inside the potential's analyticity region, where it converges
geometrically.

All downstream consumers (transport maps, kernels, samplers) read the
result through :class:`EquilibriumData`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import operators as ops
from .errors import NumericalError, UsageError
from .potentials import Potential, _moment_residual, make_potential

# the certificates' tolerances: flatness on the support, and the mass
V_RESIDUAL_TOL = 1e-7
MASS_TOL = 1e-8


def _sqrt_branch(w):
    """w * sqrt(1 - 4/w^2) with the principal branch, analytic off the cut."""
    w = np.asarray(w, dtype=complex)
    return w * np.sqrt(1.0 - 4.0 / (w * w))


@dataclass
class EquilibriumData:
    """Equilibrium measure data on the working window.

    ``p_cheb`` holds Chebyshev coefficients of the density polynomial on
    ``interval`` (the working window, wider than the support), in the
    halved-constant convention. ``cdf_modes`` are cosine modes of the
    distribution function in the arccos angle, making the CDF exact to
    coefficient truncation. ``robin_constant`` and ``v_residual``
    certify the variational characterization on the support.
    """

    potential: Potential
    eps: float
    interval: tuple
    p_cheb: np.ndarray
    cdf_modes: np.ndarray
    genericity_margin: float
    robin_constant: float
    v_residual: float
    mass: float

    # -- pointwise data ------------------------------------------------

    def p_value(self, x):
        """Density polynomial on the working window."""
        x_arr = np.asarray(x, dtype=float)
        lo, hi = self.interval
        if np.any((x_arr < lo - 1e-12) | (x_arr > hi + 1e-12)):
            raise UsageError("out-of-domain", "density polynomial evaluated outside the window")
        return ops.cheb_val(self.p_cheb, x_arr, self.interval)

    def density(self, x):
        """Equilibrium density; zero outside the support."""
        x_arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x_arr).ravel()
        inside = np.abs(flat) < 2.0
        out = np.zeros_like(flat)
        if np.any(inside):
            xi = flat[inside]
            out[inside] = self.p_value(xi) * np.sqrt(4.0 - xi * xi) / (2.0 * np.pi)
        if x_arr.ndim == 0:
            return float(out[0])
        return out.reshape(x_arr.shape)

    def cdf(self, x):
        """Distribution function, exact mode sum in the arccos angle."""
        x_arr = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
        out, _ = _cdf_angle(self.cdf_modes, np.arccos(x_arr / 2.0))
        return out if np.ndim(x) else float(out)

    def quantile(self, q):
        """Inverse distribution function, all levels in one Newton solve.

        Levels 0 and 1 map to the support edges exactly; the others are
        solved in the arccos angle by :func:`_invert_cdf`.
        """
        q_arr = np.asarray(q, dtype=float)
        if np.any((q_arr < 0.0) | (q_arr > 1.0)):
            raise UsageError("invalid-spec", "quantile levels must lie in [0, 1]")
        inner = (q_arr > 0.0) & (q_arr < 1.0)
        out = np.where(q_arr >= 1.0, 2.0, -2.0)
        out[inner] = 2.0 * np.cos(_invert_cdf(self.cdf_modes, q_arr[inner]))
        return out if np.ndim(q) else float(out)

    @cached_property
    def log_p_series(self) -> np.ndarray:
        """1 + log p's chopped series on SIGMA, fitted once for the mean
        shift (its mode form ignores the constant, which keeps the chop's
        scale above a logarithm's rounding when p is nearly constant)."""
        return ops._sigma_series(lambda x: 1.0 + np.log(self.p_value(x)), "log p")

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        pot = {"kind": self.potential.kind, "eps": self.eps}
        if "coeffs" in self.potential.params:
            pot["coeffs"] = list(self.potential.params["coeffs"])
        if "g" in self.potential.params:
            pot["g"] = self.potential.params["g"]
        return {
            "potential": pot,
            "interval": list(self.interval),
            "eps": self.eps,
            "p_cheb": [float(c) for c in self.p_cheb],
            "cdf_modes": [float(c) for c in self.cdf_modes],
            "genericity_margin": self.genericity_margin,
            "robin_constant": self.robin_constant,
            "v_residual": self.v_residual,
            "mass": self.mass,
        }

    @classmethod
    def from_dict(cls, d: dict, potential: Potential | None = None) -> "EquilibriumData":
        if potential is None:
            pd = d["potential"]
            kind = pd["kind"]
            if kind == "user-analytic":
                raise UsageError(
                    "invalid-spec",
                    "user-analytic equilibrium data needs the potential object to rebuild",
                )
            kwargs = {}
            if kind in ("polynomial",):
                kwargs["coeffs"] = pd["coeffs"]
            if kind == "even-quartic":
                kwargs["g"] = pd["g"]
            potential = make_potential(kind, eps=pd["eps"], **kwargs)
        return cls(
            potential=potential,
            eps=float(d["eps"]),
            interval=tuple(d["interval"]),
            p_cheb=np.asarray(d["p_cheb"], dtype=float),
            cdf_modes=np.asarray(d["cdf_modes"], dtype=float),
            genericity_margin=float(d["genericity_margin"]),
            robin_constant=float(d["robin_constant"]),
            v_residual=float(d["v_residual"]),
            mass=float(d["mass"]),
        )


# cdf_modes of the semicircle law, the equilibrium of the gaussian potential
SEMICIRCLE_MODES = np.array([1.0 / np.pi, 0.0, -1.0 / np.pi])


def _cdf_angle(beta: np.ndarray, phi):
    """CDF mode sum in the angle phi = arccos(x/2), and its phi-derivative.

    G(phi) = beta0 (pi - phi) - sum_m (beta_m / m) sin(m phi) and
    G'(phi) = -(beta0 + sum_m beta_m cos(m phi)), every mode at once.
    G' is -2 sin(phi)^2 P(2 cos phi) / pi, negative inside (0, pi) for a
    generic density polynomial P. The sums run along the last axis, not
    through BLAS, so a point's value does not depend on the other points
    in its call.
    """
    m = np.arange(1, beta.size)
    mphi = np.multiply.outer(phi, m)
    g = beta[0] * (np.pi - phi) - (np.sin(mphi) * (beta[1:] / m)).sum(axis=-1)
    dg = -(beta[0] + (np.cos(mphi) * beta[1:]).sum(axis=-1))
    return g, dg


def _invert_cdf(beta: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Angles phi in [0, pi] with G(phi) = q, by :func:`_newton_decreasing`.

    The start approximates the semicircle angle psi of q and is exact in
    the edge limit, where 1 - q ~ (2 psi)^3 / (12 pi), so the ratio of
    start to root stays bounded at both edges. The bracket starts as
    [0, pi], and a level is done once its residual is within a few ulp
    of the mode sum's rounding error.
    """
    q = np.asarray(q, dtype=float)
    # semicircle angle: 1 - q = (theta - sin theta) / (2 pi) with theta = 2 psi,
    # cube-root asymptote mirrored about theta = pi
    kepler = 2.0 * np.pi * (1.0 - q)
    theta = np.minimum(np.cbrt(6.0 * np.minimum(kepler, 2.0 * np.pi - kepler)), np.pi)
    phi = 0.5 * np.where(kepler <= np.pi, theta, 2.0 * np.pi - theta)
    scale = beta[0] * np.pi + np.sum(np.abs(beta[1:]) / np.arange(1, beta.size))
    tol = 4.0 * np.finfo(float).eps

    def residual(p, todo):
        g, dg = _cdf_angle(beta, p)
        return g - q[todo], dg, tol * (scale + np.pi * np.abs(dg))

    return _newton_decreasing(residual, phi, np.zeros_like(phi), np.full_like(phi, np.pi), "CDF inversion")


def _newton_decreasing(residual, x, lo, hi, what: str) -> np.ndarray:
    """Roots of decreasing functions, one per level, by safeguarded Newton.

    ``residual(x, todo)`` returns, for the levels ``todo`` at the points
    ``x``, the residuals, their derivatives and the floors below which a
    residual counts as zero. Every level is iterated at once. A Newton
    step that leaves the level's current bracket [lo, hi] is replaced by
    bisection. A level is done once its residual is within its floor;
    the step that got it there is still taken. Raises "no-convergence"
    if any level is not done after 40 steps.
    """
    todo = np.arange(x.size)
    for _ in range(40):
        p = x[todo]
        r, dr, floor = residual(p, todo)
        lo[todo] = np.where(r > 0.0, p, lo[todo])
        hi[todo] = np.where(r > 0.0, hi[todo], p)
        done = np.abs(r) <= floor
        with np.errstate(divide="ignore", invalid="ignore"):
            step = p - r / dr
        inside = (step >= lo[todo]) & (step <= hi[todo])
        x[todo] = np.where(inside, step, np.where(done, p, 0.5 * (lo[todo] + hi[todo])))
        todo = todo[~done]
        if todo.size == 0:
            return x
    raise NumericalError(
        "no-convergence",
        f"{what} did not converge in 40 Newton steps at {todo.size} levels",
    )


def _cdf_modes_from_sigma(p_on_sigma_coeffs: np.ndarray) -> np.ndarray:
    """Cosine modes of the CDF from Chebyshev modes of the smooth factor.

    With s = density / edge factor expanded as s = a0/2 + sum a_k T_k on
    the support, the CDF in the angle phi = arccos(x/2) is
    beta0 (pi - phi) - sum (beta_m / m) sin(m phi), where beta are the
    cosine modes of s(2 cos phi) (2 - 2 cos 2 phi). The convolution is
    done exactly here.
    """
    a = np.asarray(p_on_sigma_coeffs, dtype=float) / (2.0 * np.pi)
    alpha = a.copy()
    alpha[0] *= 0.5  # full convention
    k_max = alpha.size - 1
    beta = np.zeros(k_max + 3)
    for k in range(k_max + 1):
        beta[k] += 2.0 * alpha[k]
        beta[k + 2] -= alpha[k]
        beta[abs(k - 2)] -= alpha[k]
    return beta


def _log_potential(beta: np.ndarray, x) -> np.ndarray:
    """The integral of log|x - mu| rho(mu) for the measure with CDF modes
    ``beta``, in closed form on the whole real line.

    On the support it is the Clenshaw sum of
    :func:`~betalab.operators._log_kernel_modes`. Off it, with x = w + 1/w
    and |w| > 1, log|x - 2 cos t| = log|w| - 2 sum_k w^-k cos(kt) / k
    (Saff and Totik, *Logarithmic Potentials with External Fields*,
    ch. I) makes it pi (beta_0 log|w| - sum_k beta_k w^-k / k).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    inside = np.abs(x) <= 2.0
    out[inside] = ops.cheb_val(ops._log_kernel_modes(beta), x[inside])
    log_w = np.arccosh(0.5 * np.abs(x[~inside]))
    series = np.polynomial.polynomial.polyval(
        np.sign(x[~inside]) * np.exp(-log_w), np.r_[0.0, beta[1:] / np.arange(1, beta.size)]
    )
    out[~inside] = np.pi * (beta[0] * log_w - series)
    return out


def _contour_density(potential: Potential, contour_nodes: int):
    """The density polynomial at real points of the working window, as a
    callable: the contour integral wrapping the support, by the trapezoid
    rule on ``contour_nodes`` points of the circle of radius
    2 + min(1, analyticity radius) / 2."""
    radius = 2.0 + min(1.0, potential.analyticity_radius) / 2.0
    theta_c = (np.arange(contour_nodes) + 0.5) * (2.0 * np.pi / contour_nodes)
    w = radius * np.exp(1j * theta_c)
    dvw = np.asarray(potential.dv(w), dtype=complex)
    xw = _sqrt_branch(w)
    dw = 1j * w * (2.0 * np.pi / contour_nodes)

    def p_at(x_real: np.ndarray) -> np.ndarray:
        # the quotients go through in row blocks of two reused buffers, each
        # holding as many bytes as ops._BLOCK floats
        dvx = np.asarray(potential.dv(x_real), dtype=complex)
        out = np.empty(x_real.size)
        rows = max(1, min(x_real.size, ops._BLOCK // (2 * contour_nodes)))
        num = np.empty((rows, contour_nodes), dtype=complex)
        den = np.empty_like(num)
        for s in range(0, x_real.size, rows):
            k = min(rows, x_real.size - s)
            q, d = num[:k], den[:k]
            np.subtract(dvx[s : s + k, None], dvw, out=q)
            np.subtract(x_real[s : s + k, None], w, out=d)
            d *= xw
            q /= d
            q *= dw
            # the real part of the sum over 2 pi i: the terms cancel to as
            # little as 1/3000 of their sum of moduli (g=0.99), so they are
            # added pairwise along each row, which leaves a quarter of the
            # rounding of a sequential (BLAS) dot product
            out[s : s + k] = q.imag.sum(axis=1) / (2.0 * np.pi)
        return out

    return p_at


def solve_equilibrium(
    potential: Potential,
    eps: float | None = None,
    contour_nodes: int = 512,
    grid_nodes: int = 256,
) -> EquilibriumData:
    """Construct and certify the equilibrium measure of a normalized potential.

    Parameters
    ----------
    potential : Potential
        Must already have support equal to the reference interval; use
        support_endpoints + normalize_support first otherwise.
    eps : float, optional
        Working-window margin. Defaults to the potential's own margin.
    contour_nodes : int
        Trapezoid nodes on the circle that wraps the support.
    grid_nodes : int
        The cap of ``ops.fit_resolved`` for the density polynomial's fit
        on the window, where an unresolved fit stops as the fixed fit on
        ``grid_nodes``; a polynomial potential has a polynomial density
        factor and resolves on the first grid. The restriction to the
        support is resampled on ``grid_nodes`` nodes.

    Raises
    ------
    NumericalError
        "variational-failure" if the support normalization, total mass,
        the flatness of the effective potential on the support, or the
        inequality outside the support fails; "not-generic" if the
        density polynomial is not strictly positive on the support.
    """
    if eps is None:
        eps = potential.domain[1] - 2.0
    if not 0 < eps <= potential.domain[1] - 2.0 + 1e-12:
        raise UsageError("invalid-spec", f"eps {eps} exceeds the potential domain")

    res = _moment_residual(potential, -2.0, 2.0)
    if np.max(np.abs(res)) > 1e-7:
        raise NumericalError(
            "variational-failure",
            f"support is not the reference interval (moment residual {np.max(np.abs(res)):.3g}); "
            "run support_endpoints and normalize_support first",
        )

    interval = (-(2.0 + eps), 2.0 + eps)
    p_at = _contour_density(potential, contour_nodes)

    # the first grid that the chop finds resolved, doubling up to grid_nodes
    fit, _ = ops.fit_resolved(lambda n, _: p_at(ops.cheb_grid(n, interval).nodes), grid_nodes)
    p_cheb = ops.chop_coeffs(fit)

    # genericity on the closed support: candidate minima are the endpoints
    # and the real critical points of the (chopped) Chebyshev series
    candidates = [-2.0, 2.0]
    der = ops.cheb_der(p_cheb, interval)
    if der.size > 1:
        dstd = der.copy()
        dstd[0] *= 0.5
        roots = np.polynomial.chebyshev.chebroots(dstd)
        mid_w = 0.5 * (interval[0] + interval[1])
        half_w = 0.5 * (interval[1] - interval[0])
        for r in np.atleast_1d(roots):
            if abs(np.imag(r)) < 1e-9:
                lam_r = mid_w + float(np.real(r)) * half_w
                if -2.0 <= lam_r <= 2.0:
                    candidates.append(lam_r)
    dense = np.linspace(-2.0, 2.0, 2048)
    margin = float(
        min(
            np.min(ops.cheb_val(p_cheb, np.asarray(candidates), interval)),
            np.min(ops.cheb_val(p_cheb, dense, interval)),
        )
    )
    if margin <= 1e-10:
        raise NumericalError(
            "not-generic",
            f"density polynomial is not strictly positive on the support (min {margin:.3g})",
        )

    # CDF modes from the support restriction
    p_sigma = ops.cheb_val(p_cheb, ops.cheb_grid(grid_nodes).nodes, interval)
    sigma_coeffs = ops.chop_coeffs(ops.coeffs_from_values(p_sigma))
    cdf_modes = _cdf_modes_from_sigma(sigma_coeffs)
    mass = float(cdf_modes[0] * np.pi)
    if abs(mass - 1.0) > MASS_TOL:
        raise NumericalError(
            "variational-failure",
            f"equilibrium mass is {mass:.12g}, not 1; data is inconsistent with a "
            "single normalized support interval",
        )

    # variational certificate: flat on the support ...
    probe = ops.cheb_grid(512).nodes
    veff = 2.0 * _log_potential(cdf_modes, probe) - np.asarray(potential.v(probe), dtype=float)
    robin = float(np.mean(veff))  # the arcsine mean, the constant mode: U has none
    v_residual = float(np.max(np.abs(veff - robin)))
    if v_residual > V_RESIDUAL_TOL:
        raise NumericalError(
            "variational-failure",
            f"effective potential is not constant on the support (residual {v_residual:.3g})",
        )

    # ... and dominated outside it
    outside = np.outer([-1.0, 1.0], 2.0 + np.array([0.25, 0.5, 0.9]) * eps).ravel()
    v_out = 2.0 * _log_potential(cdf_modes, outside) - np.asarray(potential.v(outside), dtype=float)
    if np.max(v_out) > robin + 1e-6:
        raise NumericalError(
            "variational-failure",
            f"effective potential exceeds its support level at {outside[np.argmax(v_out)]:.3f}; "
            "the one-interval ansatz is inconsistent for this potential",
        )

    return EquilibriumData(
        potential=potential,
        eps=eps,
        interval=interval,
        p_cheb=p_cheb,
        cdf_modes=cdf_modes,
        genericity_margin=margin,
        robin_constant=robin,
        v_residual=v_residual,
        mass=mass,
    )
