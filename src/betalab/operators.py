"""Chebyshev-grid operator machinery on the reference interval.

Everything in this module lives on (enlargements of) the reference interval
``SIGMA = (-2, 2)``. First-kind Chebyshev nodes carry spectrally accurate
quadrature for integrals with an inverse square-root edge factor, a
second-kind rule handles integrals against the semicircle factor
``sqrt(4 - x^2)``, and the two singular integral operators that control
fluctuations (a weighted principal-value transform and the logarithmic
kernel) act diagonally on Chebyshev modes, which is what makes the whole
scheme cheap and exact to near machine precision for analytic data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.fft  # numpy loads it lazily; load it with the package instead

from .errors import NumericalError, UsageError

SIGMA = (-2.0, 2.0)
# entries of one row block of a pairwise array: cov_form's quotients,
# barycentric weights, divided differences, contour quotients and the
# phi_estimate chunks (256 KiB of floats)
_BLOCK = 1 << 15
# The one chop rule: a series ends after its last coefficient above
# CHOP_REL of its largest one, and it is resolved (on the rounding plateau)
# when that drops at least MIN_DROPPED coefficients. fit_resolved doubles
# its grid from FIT_START nodes until then, up to a cap, FIT_MAX by
# default. Its callers: the density polynomial's fit (equilibrium), the
# transport map's fit, cov_form's h, and the CLT's h and log p.
CHOP_REL = 1e-14
MIN_DROPPED = 8
FIT_START = 64
FIT_MAX = 4096
# the most and the fewest nodes of cov_form's double-integral rule
_COV_NODES = 512
_COV_MIN_NODES = 64
# nodes of the inversion identity on SIGMA
_SIGMA_NODES = 256
# truncation: the eigenvalue tail, and the reconstruction error it bounds
_TAIL_TOL = 1e-12
_RECON_TOL = 1e-10
# the kernel's modes by randomized subspace iteration (Halko, Martinsson
# and Tropp, SIAM Rev. 2011, Algorithms 4.4 and 5.3): the starting rank,
# doubled until the last Ritz value is rounding, the power steps, and the
# seed of the Gaussian starting block
_SUBSPACE_RANK = 48
_POWER_STEPS = 2
_SUBSPACE_SEED = 0
# the deformation identity's first-kind probes on SIGMA, and its semicircle
# rule's nodes in the map's variable, one count for every potential
_DEFORMATION_PROBES = 192
_DEFORMATION_NODES = 256
# the certificates' tolerances; the contraction norm keeps a margin below one
INVERSION_TOL = 1e-6
ROUTE_TOL = 1e-6
CONTRACTION_TOL = 1.0 - 1e-3
DEFORMATION_TOL = 1e-6
# pairs of the log-ratio kernel closer than this take the divided
# difference in closed form; it bounds the difference quotient's rounding,
# eps max|zeta| / _CLOSE_PAIR, by about 5e-13
_CLOSE_PAIR = 1e-3


# ----------------------------------------------------------------------
# grids and transforms


@dataclass(frozen=True)
class ChebGrid:
    """First-kind Chebyshev nodes with positive interpolatory weights.

    ``weights`` integrate plain (unweighted) integrands over ``interval``;
    they are the first-kind Gauss weights with the inverse square-root
    factor lifted. They are spectrally accurate only for integrands that
    vanish like the semicircle factor at the endpoints. K(x, y) phi(y) in
    the kernel eigenproblem does not, so its eigenvalues converge only
    like n^-2: at g=0.1 the leading one is off by 2.98e-7, 7.4e-8 and
    1.9e-8 on 256, 512 and 1024 nodes.
    """

    interval: tuple
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size


def cheb_grid(n: int = 256, interval=SIGMA) -> ChebGrid:
    """Build the n-point first-kind grid on ``interval``, nodes increasing.

    These nodes are the one convention of this module: every
    values-to-coefficients transform reads samples taken at them.
    """
    if n < 4:
        raise UsageError("invalid-spec", f"grid needs at least 4 nodes, got {n}")
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise UsageError("invalid-spec", f"empty interval {interval!r}")
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    j = np.arange(n)
    theta = (2.0 * j + 1.0) * np.pi / (2.0 * n)
    theta = theta[::-1]  # increasing nodes
    nodes = mid + half * np.cos(theta)
    weights = (np.pi / n) * half * np.sin(theta)
    return ChebGrid((lo, hi), nodes, weights)


# the interval of a mapped Chebyshev variable
UNIT = (-1.0, 1.0)
# a width of 2^26 half-windows makes |A t + B| < 2^-26, where sinh is
# linear to rounding: the affine limit of the map
_AFFINE_WIDTH = 2.0**26


@dataclass(frozen=True)
class SinhVariable:
    """The Chebyshev variable t in [-1, 1] of ``interval``, fitted to a
    singularity at ``center`` +- i ``width``.

    x = c + eps sinh(A t + B) with A and B fixing the interval's two
    ends (Johnston and Elliott, Int. J. Numer. Methods Eng. 62, 2005;
    Tee and Trefethen, SIAM J. Sci. Comput. 28, 2006). The sinh clusters
    the Chebyshev points of t near c, and a function singular at c +- i
    eps is singular at t about +-i pi / (2A) instead: a series in t
    converges like one that is far from its singularity. A width past
    ``_AFFINE_WIDTH`` half-intervals, infinity included, is that width:
    there sinh is linear to rounding and t is the plain affine variable.
    """

    interval: tuple
    center: float
    width: float
    scale: float = field(init=False)
    shift: float = field(init=False)

    def __post_init__(self):
        lo, hi = self.interval
        width = min(self.width, _AFFINE_WIDTH * 0.5 * (hi - lo))
        a = np.arcsinh((lo - self.center) / width)
        b = np.arcsinh((hi - self.center) / width)
        object.__setattr__(self, "width", float(width))
        object.__setattr__(self, "scale", float(0.5 * (b - a)))
        object.__setattr__(self, "shift", float(0.5 * (b + a)))

    def x(self, t):
        return self.center + self.width * np.sinh(self.scale * np.asarray(t, dtype=float) + self.shift)

    def t(self, x):
        return (np.arcsinh((np.asarray(x, dtype=float) - self.center) / self.width) - self.shift) / self.scale

    def dx(self, t):
        """dx/dt."""
        return self.width * self.scale * np.cosh(self.scale * np.asarray(t, dtype=float) + self.shift)

    def divided_difference(self, t, s):
        """(x(t) - x(s)) / (t - s), pairwise, and dx/dt where t = s:
        2 eps cosh(A (t + s) / 2 + B) sinh(A (t - s) / 2) / (t - s), a
        product with no cancellation."""
        h = 0.5 * (t - s)
        same = h == 0.0
        ratio = np.sinh(self.scale * h) / np.where(same, 1.0, h)
        ratio[same] = self.scale
        return self.width * np.cosh(self.scale * 0.5 * (t + s) + self.shift) * ratio


def coeffs_from_values(vals: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from samples at the :func:`cheb_grid` nodes.

    Convention: f = c[0]/2 + sum_{k>=1} c[k] T_k. Exact through degree
    n-1 by discrete orthogonality. Works along axis 0, so a 2-D array
    transforms one function per column.

    The DCT-II is Makhoul's: the samples in DCT order (increasing nodes
    reversed) are reordered evens first, odds reversed, and c[k] is
    (2/n) Re(exp(-i pi k / (2n)) V[k]) for the n-point FFT V of the
    reordered samples. V is conjugate-symmetric, so the real FFT's half
    covers every k: c[n-k] is -(2/n) Im of the same product. Its peak
    memory is below that of the FFT of the 2n-point even extension.
    """
    vals = np.asarray(vals, dtype=float)
    n = vals.shape[0]
    # in DCT order x = vals[::-1]: x[::2] is vals[::-2], x[1::2] reversed
    # is vals[n % 2 :: 2]
    v = np.concatenate((vals[::-2], vals[n % 2 :: 2]))
    h = n // 2 + 1
    twiddle = np.exp(-0.5j * np.pi / n * np.arange(h)).reshape((h,) + (1,) * (vals.ndim - 1))
    z = np.fft.rfft(v, axis=0) * twiddle
    out = np.empty(vals.shape)
    out[:h] = z.real
    out[h:] = -z.imag[n - h : 0 : -1]
    out *= 2.0 / n
    return out


def values_from_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Samples at the :func:`cheb_grid` nodes from Chebyshev coefficients.

    The inverse of :func:`coeffs_from_values`, same convention and axis:
    a DCT-III by one inverse real FFT. It undoes that transform's steps:
    (c[k] - i c[n-k]) exp(i pi k / (2n)) is (n/2) times the FFT of the
    reordered samples, which the half-spectrum inverse FFT returns.
    """
    c = np.asarray(coeffs, dtype=float)
    n = c.shape[0]
    h = n // 2 + 1
    z = c[:h].astype(complex)
    z.imag[1:] = -c[n - 1 : n - h : -1]
    z *= np.exp(0.5j * np.pi / n * np.arange(h)).reshape((h,) + (1,) * (c.ndim - 1))
    v = np.fft.irfft(z, n, axis=0, norm="forward")
    v *= 0.5
    # undo the reordering: DCT order is the reversed nodes, evens first
    # and odds reversed
    out = np.empty(c.shape)
    q = (n + 1) // 2
    out[::-1][::2] = v[:q]
    out[::-1][1::2] = v[q:][::-1]
    return out


def grid_values(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Samples at the m :func:`cheb_grid` nodes of a series of any length.

    On the m-point first-kind grid T_{2mq+r} = (-1)^q T_r and
    T_{2mq-r} = (-1)^q T_r, and T_m vanishes (Trefethen, *Approximation
    Theory and Approximation Practice*, ch. 4). The coefficients fold
    onto the first m modes by these identities, and
    :func:`values_from_coeffs` takes the folded series to values. Same
    convention and axis as that transform, and a series of exactly m
    coefficients gets its bits.
    """
    c = np.asarray(coeffs, dtype=float)
    blocks = -(-c.shape[0] // (2 * m))
    f = np.zeros((blocks * 2 * m,) + c.shape[1:])
    f[: c.shape[0]] = c
    f[0] *= 0.5
    f = f.reshape((blocks, 2 * m) + c.shape[1:])
    f[1::2] *= -1.0
    f = f.sum(axis=0)
    # r and 2m - r share a mode; the constant goes back to the halved-c0
    # convention
    folded = f[:m]
    folded[1:] -= f[:m:-1]
    folded[0] *= 2.0
    return values_from_coeffs(folded)


def extrema_values(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Samples at the n + 1 extreme points cos(pi j / n), increasing, of a
    series of at most n + 1 coefficients, in the halved-c0 convention.

    A DCT-I by one inverse real FFT of the even extension: halving every
    coefficient but the n-th makes the half spectrum whose inverse FFT
    of length 2n, unnormalized, is the series at cos(pi j / n). Works
    along axis 0.
    """
    c = np.asarray(coeffs, dtype=float)
    z = np.zeros((n + 1,) + c.shape[1:])
    z[: c.shape[0]] = c
    z[:n] *= 0.5
    return np.fft.irfft(z, 2 * n, axis=0, norm="forward")[n::-1]


def cheb_val(coeffs: np.ndarray, x, interval=SIGMA):
    """Evaluate a Chebyshev series in the halved-c0 convention.

    Clenshaw's recurrence on 1-D ``coeffs``, elementwise on all points at
    once: a few temporaries the size of ``x`` and about 3 numpy calls per
    coefficient. Complex coefficients sum two real series in that one
    pass: with real points the real and imaginary parts go through the
    same real operations, so each part has the bits of its own real call.
    A point's value does not depend on the other points evaluated with
    it, so one call on concatenated point sets returns the same bits as
    separate calls.
    """
    lo, hi = interval
    u = (2.0 * np.asarray(x, dtype=float) - (lo + hi)) / (hi - lo)
    c = np.array(coeffs)
    if c.ndim != 1:
        raise UsageError("invalid-spec", f"cheb_val sums one series, got coefficients of shape {c.shape}")
    c = c.astype(np.result_type(c, float), copy=False)
    c[0] *= 0.5
    return np.polynomial.chebyshev.chebval(u, c)[()]


def cheb_der(coeffs: np.ndarray, interval=SIGMA) -> np.ndarray:
    """Coefficients of the derivative, same convention and interval."""
    lo, hi = interval
    c = np.array(coeffs, dtype=float)
    c[0] *= 0.5
    d = np.polynomial.chebyshev.chebder(c) * (2.0 / (hi - lo))
    if d.size == 0:
        d = np.zeros(1)
    out = np.array(d, dtype=float)
    out[0] *= 2.0
    return out


def chop_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Drop the trailing coefficients at or below ``CHOP_REL`` of the largest."""
    c = np.asarray(coeffs, dtype=float)
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return c[:1].copy()
    keep = np.nonzero(np.abs(c) > CHOP_REL * scale)[0]
    return c[: keep[-1] + 1].copy() if keep.size else c[:1].copy()


def fit_resolved(sample, cap: int | None = None):
    """The whole coefficient vector of the first grid that resolves a
    function, and whether it is resolved (at the cap it may not be).

    ``sample(n, prev)`` returns the values at the n :func:`cheb_grid`
    nodes of the caller's interval; ``prev`` holds the previous grid's
    coefficients (None at first), a warm start. The grid has
    min(``FIT_START``, ``cap``) nodes and doubles up to ``cap``.
    """
    cap = FIT_MAX if cap is None else cap
    n = min(FIT_START, cap)
    coeffs = None
    while True:
        coeffs = coeffs_from_values(sample(n, coeffs))
        resolved = n - chop_coeffs(coeffs).size >= MIN_DROPPED
        if resolved or n >= cap:
            return coeffs, resolved
        n = min(2 * n, cap)


def _sigma_series(f, name: str = "h") -> np.ndarray:
    """f's chopped Chebyshev series on SIGMA by :func:`fit_resolved`;
    raises "unresolved-function" if ``FIT_MAX`` nodes do not resolve it."""
    c, resolved = fit_resolved(lambda n, _: f(cheb_grid(n).nodes))
    if not resolved:
        raise NumericalError("unresolved-function", f"{name} is not resolved by {FIT_MAX} nodes on [-2, 2]")
    return chop_coeffs(c)


# ----------------------------------------------------------------------
# the Gauss rule for the semicircle weight


def gauss_semicircle(n: int, var: SinhVariable):
    """Nodes and weights for integrals of g(x) * sqrt((b-x)(x-a)) over
    ``var.interval`` (a, b): the n-point second-kind Gauss rule in the
    variable t, transplanted (Hale and Trefethen, SIAM J. Numer. Anal. 46,
    2008). As x(1) = b and x(-1) = a, the factor is sqrt(1 - t^2) times
    sqrt(dd(1, t) dd(t, -1)) for dd the variable's divided difference,
    formed without cancellation at the ends; the weights carry it and
    x'(t). An affine ``var`` gives the plain rule."""
    j = np.arange(n, 0, -1)
    t = np.cos(j * np.pi / (n + 1))
    w = (np.pi / (n + 1)) * np.sin(j * np.pi / (n + 1)) ** 2
    edge = var.divided_difference(1.0, t) * var.divided_difference(t, -1.0)
    return var.x(t), w * var.dx(t) * np.sqrt(edge)


def semicircle_density(x):
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.clip(4.0 - x * x, 0.0, None)) / (2.0 * np.pi)


# ----------------------------------------------------------------------
# the covariance form


@dataclass(frozen=True)
class CovForm:
    """Both routes to the covariance quadratic form and their mismatch.

    ``nodes`` is the size n of the double-integral rule that gave
    ``double_integral``: twice the chopped length of h's series on SIGMA,
    at least ``_COV_MIN_NODES`` and at most ``_COV_NODES``.
    """

    double_integral: float
    cheb: float
    rel_discrepancy: float
    nodes: int


def _mode_form(a: np.ndarray, b: np.ndarray):
    """The covariance form (1/2) sum_k k a_k b_k on SIGMA.

    ``a`` and ``b`` hold Chebyshev coefficients on SIGMA along axis 0:
    two functions give a scalar, a column per function gives the matrix
    of the form between the columns of ``a`` and those of ``b``. It is
    the weighted form (u, Dv) of the covariance transform D, which
    multiplies mode k by k / pi, so D is self-adjoint.
    """
    k = np.arange(a.shape[0])
    return 0.5 * (a.T * k) @ b


def _double_integral(h, nodes: int) -> float:
    """The covariance form as (1 / 2 pi^2) int int ((h(x) - h(y)) / (x - y))^2
    (4 - x y) / (sqrt(4 - x^2) sqrt(4 - y^2)) dx dy on SIGMA (Johansson,
    Duke Math. J. 91, 1998), by first-kind rules of n = ``nodes`` nodes
    in x and n + 1 in y: sum_ij q_ij^2 (4 - x_i y_j) / (2 n (n + 1)).

    The two grids' angles differ by odd multiples of pi / 2n(n + 1), so
    they share no node and each q_ij is a plain difference quotient of
    h's values; n >= d makes both rules exact for a polynomial of degree
    d. The x rows go through in row blocks of two reused buffers of at
    most ``_BLOCK`` entries, each row reduced on its own, so the value
    does not depend on the block size.
    """
    x, y = cheb_grid(nodes).nodes, cheb_grid(nodes + 1).nodes
    hx, hy = np.asarray(h(x), dtype=float), np.asarray(h(y), dtype=float)
    rows = max(1, min(nodes, _BLOCK // y.size))
    quot = np.empty((rows, y.size))
    wts = np.empty_like(quot)
    sums = np.empty(nodes)
    for s in range(0, nodes, rows):
        k = min(rows, nodes - s)
        q, w = quot[:k], wts[:k]
        np.subtract(hx[s : s + k, None], hy, out=q)
        np.subtract(x[s : s + k, None], y, out=w)
        q /= w
        q *= q
        np.multiply.outer(x[s : s + k], y, out=w)
        np.subtract(4.0, w, out=w)
        sums[s : s + k] = np.vecdot(q, w)
    return float(sums.sum() / (2.0 * nodes * (nodes + 1)))


def cov_form(h, h_prime=None) -> CovForm:
    """Quadratic form of the symmetrized covariance operator, both routes.

    h is fitted once on SIGMA by :func:`fit_resolved`, resolved or not,
    and chopped to length L. The Chebyshev route is the mode sum
    (1/2) sum_k k h_k^2 of :func:`_mode_form` over that series; its
    independent certificate is :func:`_double_integral`, which reads h's
    values alone on min(``_COV_NODES``, max(``_COV_MIN_NODES``, 2 L))
    nodes. A polynomial h of degree d needs d nodes; 2 L leaves margin
    for an analytic h whose tail lies under ``CHOP_REL``. Their relative
    discrepancy is reported so callers can assert consistency.
    ``h_prime`` is ignored.
    """
    c = chop_coeffs(fit_resolved(lambda n, _: h(cheb_grid(n).nodes))[0])
    nodes = min(_COV_NODES, max(_COV_MIN_NODES, 2 * c.size))
    double = _double_integral(h, nodes)
    cheb = float(_mode_form(c, c))
    rel = abs(double - cheb) / max(abs(double), 1e-300)
    return CovForm(double_integral=double, cheb=cheb, rel_discrepancy=rel, nodes=nodes)


# ----------------------------------------------------------------------
# the log kernel


def _log_kernel_modes(c: np.ndarray) -> np.ndarray:
    """The log kernel L on modes: mode k of f sqrt(4 - x^2) times -pi / k.

    ``c`` holds the Chebyshev coefficients on SIGMA of f times the
    semicircle factor; the result holds those of the integral of
    log|x - mu| f(mu). The constant mode goes to zero because the
    reference interval has logarithmic capacity one.
    """
    d = np.zeros_like(c)
    d[1:] = -np.pi * c[1:] / np.arange(1, c.size)
    return d


def rank_one_identity_residual(v) -> float:
    """Residual of the inversion identity tying L to D.

    Applying the log kernel L after the covariance transform D reproduces
    -v up to the rank-one term c_0 / 2, the mean of v against the inverse
    square-root weight. Both act through their mode factors on values at
    the ``_SIGMA_NODES`` first-kind nodes: D multiplies the coefficients
    of v by k / pi and divides the resulting values by the semicircle
    factor; L multiplies back by it and applies :func:`_log_kernel_modes`.
    Returns the max deviation over the nodes.
    """
    x = cheb_grid(_SIGMA_NODES).nodes
    sq = np.sqrt(4.0 - x * x)
    vals = np.asarray(v(x), dtype=float)
    c = coeffs_from_values(vals)
    dv = values_from_coeffs(c * np.arange(c.size) / np.pi) / sq
    lhs = values_from_coeffs(_log_kernel_modes(coeffs_from_values(dv * sq)))
    return float(np.max(np.abs(lhs + vals - 0.5 * c[0])))


# ----------------------------------------------------------------------
# transported log kernel: matrix, spectrum, contraction data


def log_ratio_kernel(tmap, x, y):
    """Pointwise smooth kernel log |(zeta(x) - zeta(y)) / (x - y)|.

    Safe on and near the diagonal: pairs closer than 1e-3
    (``_CLOSE_PAIR``) take the divided difference of the map in closed
    form, that of its series in t (:func:`_divided_difference`) over its
    variable's own (:meth:`SinhVariable.divided_difference`), in place of
    the difference quotient, whose cancellation error grows like
    eps/|x - y|. The map is
    evaluated on ``x`` and ``y`` as given, before broadcasting, in one
    :meth:`~betalab.transport.TransportMap.value` call, so an outer grid
    costs one evaluation per distinct node.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    z = np.asarray(tmap.value(np.concatenate((x.ravel(), y.ravel()))), dtype=float)
    return _log_ratio(tmap, x, y, z[: x.size].reshape(x.shape), z[x.size :].reshape(y.shape))


def _log_ratio(tmap, x, y, zx, zy, diagonal=None):
    """:func:`log_ratio_kernel` given the images ``zx``, ``zy`` of x and y.

    Works in place in two arrays of the broadcast shape: the differences
    x - y, with each close pair's set to one, and the result. On a square
    grid, ``diagonal`` holds the log-derivative at the nodes, which the
    diagonal takes in place of the closed form.
    """
    x, y = np.broadcast_arrays(x, y)
    diff = np.subtract(x, y)
    out = np.abs(diff)
    near = out < _CLOSE_PAIR
    if diagonal is not None:
        np.fill_diagonal(near, False)
    close = bool(np.any(near))
    if close:
        x_near, y_near = x[near], y[near]
        diff[near] = 1.0
    np.subtract(zx, zy, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= diff
        np.abs(out, out=out)
        np.log(out, out=out)
    del diff
    if diagonal is not None:
        np.fill_diagonal(out, diagonal)
    if close:
        # the series' divided difference in t over the map's own
        var = tmap.variable
        t, s = var.t(x_near), var.t(y_near)
        dd = _divided_difference(tmap.interior_cheb, t, s) / var.divided_difference(t, s)
        out[near] = np.log(np.abs(dd))
    return out


def _sin_multiples(t: np.ndarray, k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sin kt into ``out``, a row per angle t and a column per degree k,
    and returns sin t. Where t = 0 the row is k and sin t is one, so that
    their quotient, U_{k-1}(cos t), takes its limit."""
    np.multiply.outer(t, k, out=out)
    np.sin(out, out=out)
    st = np.sin(t)
    zero = t == 0.0
    out[zero] = k
    st[zero] = 1.0
    return st


def _divided_difference(coeffs, x, y):
    """(f(x) - f(y)) / (x - y) for the Chebyshev series f on [-1, 1],
    pair by pair over the 1-D points x and y, and f'(x) where x = y.

    With x = cos a and y = cos b, and with s = (a + b) / 2 and
    d = (a - b) / 2,
    (T_k(x) - T_k(y)) / (x - y) = U_{k-1}(cos s) U_{k-1}(cos d), where
    U_{k-1}(cos t) = sin kt / sin t tends to k as t -> 0: a sum with no
    cancellation. A pair with s past pi/2 takes its angles from -x and
    -y, since U_{k-1}(-u) = (-1)^{k-1} U_{k-1}(u), so s keeps its
    relative accuracy near either end of [-1, 1] and x = y on an end is
    exact. Points are clipped to [-1, 1]. The whole series is summed. The
    pairs go through in row blocks of two reused buffers of at most
    ``_BLOCK`` entries, and each row is reduced on its own, so a
    pair's value does not depend on the other pairs.
    """
    u = np.clip(x, -1.0, 1.0)
    v = np.clip(y, -1.0, 1.0)
    fold = u + v < 0.0
    u[fold] *= -1.0
    v[fold] *= -1.0
    a, b = np.arccos(u), np.arccos(v)
    s, d = 0.5 * (a + b), 0.5 * (a - b)
    c = np.asarray(coeffs, dtype=float)[1:]
    k = np.arange(1.0, c.size + 1.0)
    rows = max(1, min(s.size, _BLOCK // k.size))
    us = np.empty((rows, k.size))
    ud = np.empty_like(us)
    out = np.empty(s.size)
    for i in range(0, s.size, rows):
        j = slice(i, i + rows)
        m = s[j].size
        sin_s = _sin_multiples(s[j], k, us[:m])
        sin_d = _sin_multiples(d[j], k, ud[:m])
        odd = us[:m, 1::2]  # the columns of k - 1 odd
        np.negative(odd, out=odd, where=fold[j, None])
        us[:m] *= ud[:m]
        out[j] = np.vecdot(us[:m], c) / (sin_s * sin_d)
    return out


def kernel_matrix(tmap, grid: ChebGrid) -> np.ndarray:
    """Symmetric matrix of the transported log-ratio kernel on a grid
    over the map's window.

    The nodes' images serve both axes, and the diagonal is the
    log-derivative at the nodes; both come from one
    :meth:`~betalab.transport.TransportMap.value_and_derivative` pass.
    The other close pairs take the closed form of
    :func:`_divided_difference`; both are even in the pair's order, so
    the matrix is symmetric bit for bit. A grid over any other interval
    raises "invalid-spec".
    """
    if grid.interval != tuple(tmap.eq.interval):
        raise UsageError(
            "invalid-spec",
            f"kernel grid on {grid.interval}, the transport map's window is {tuple(tmap.eq.interval)}",
        )
    x = grid.nodes
    z, dz = tmap.value_and_derivative(x)
    return _log_ratio(tmap, x[:, None], x[None, :], z[:, None], z[None, :], diagonal=np.log(dz))


@dataclass
class KernelSpectrum:
    """Eigendata of the transported log-ratio kernel.

    ``eigenvalues`` holds the Ritz values of :func:`eigendecompose`, one
    per column of its subspace, ordered by decreasing magnitude with
    signs kept. ``truncation`` is the number of modes needed to push the
    absolute eigenvalue tail below ``_TAIL_TOL``. ``phi_values`` holds
    the stored modes' values at the grid nodes, a column each; they are
    orthonormal for the grid weights. :meth:`phi` evaluates the
    polynomial that interpolates them, anywhere on the grid interval, by
    :func:`_barycentric`. ``sigma_coeffs`` holds the stored modes'
    Chebyshev coefficients on SIGMA, a column each, from the same
    routine's values at ``grid.n`` first-kind nodes there; the
    contraction form reads them, and ``semicircle_proj`` holds each
    mode's integral against the semicircle density, (b_0 - b_2) / 2 of
    its coefficients b.
    """

    grid: ChebGrid
    eigenvalues: np.ndarray
    truncation: int
    decay_rate: float
    tail: float
    phi_values: np.ndarray = field(repr=False)
    sigma_coeffs: np.ndarray = field(repr=False)

    @property
    def semicircle_proj(self) -> np.ndarray:
        b = self.sigma_coeffs
        return 0.5 * (b[0] - b[2])

    @property
    def stored(self) -> int:
        return self.phi_values.shape[1]

    def phi(self, x, k):
        """Mode k at x; a sequence of modes is stacked on a last axis."""
        idx = np.asarray(k, dtype=int)
        if np.any((idx < 0) | (idx >= self.stored)):
            raise UsageError("invalid-spec", f"mode {k} not stored (have {self.stored})")
        lo, hi = self.grid.interval
        x_arr = np.asarray(x, dtype=float)
        if np.any((x_arr < lo - 1e-12) | (x_arr > hi + 1e-12)):
            raise UsageError("out-of-domain", "mode evaluated outside the grid interval")
        out = _barycentric(self.grid, self.phi_values[:, idx.ravel()], x_arr.ravel())
        return out.reshape(x_arr.shape + idx.shape)[()]


def _barycentric(grid: ChebGrid, vals: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Values at the points ``y`` (1-D) of the polynomial that takes
    ``vals`` (a column per function) at the grid nodes, shape
    ``(y.size, columns)``.

    The barycentric formula of the second kind, whose weights at
    first-kind nodes alternate in sign with magnitudes proportional to
    the grid weights; it is forward stable at Chebyshev points (Higham,
    IMA J. Numer. Anal. 2004). The points go through in row blocks of
    one reused buffer of at most ``_BLOCK`` entries, and each row is
    reduced on its own, so a point's value does not depend on the other
    points in its call. A point on a node divides by zero; its row is
    then the node's values.
    """
    x = grid.nodes
    lam = grid.weights.copy()
    lam[1::2] *= -1.0
    rows = max(1, min(y.size, _BLOCK // x.size))
    buf = np.empty((rows, x.size))
    out = np.empty((y.size, vals.shape[1]))
    for i in range(0, y.size, rows):
        yb, o = y[i : i + rows], out[i : i + rows]
        d = buf[: yb.size]
        np.subtract(yb[:, None], x, out=d)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(lam, d, out=d)
            den = d.sum(axis=1)
            np.divide(np.matmul(d[:, None, :], vals)[:, 0], den[:, None], out=o)
        bad = np.nonzero(~np.isfinite(den))[0]
        if bad.size:
            j = np.minimum(np.searchsorted(x, yb[bad]), x.size - 1)
            hit = x[j] == yb[bad]
            o[bad[hit]] = vals[j[hit]]
    return out


def _ritz_pairs(kmat: np.ndarray, s: np.ndarray):
    """Ritz pairs of A = S K S on a randomized subspace, and its basis.

    A is applied, never formed. From an n x r Gaussian block of the fixed
    seed, ``_POWER_STEPS`` steps of A @ Q and QR give an orthonormal
    basis Q of A's dominant range, and the eigenpairs of the r x r matrix
    T = Q^T A Q are the Ritz pairs. r starts at ``_SUBSPACE_RANK`` and
    doubles until the smallest Ritz magnitude is below the rounding floor
    n eps |theta_0|, or below ``_TAIL_TOL`` / n, where even n such
    eigenvalues stay under the tail tolerance (a kernel that is rounding
    throughout, such as the gaussian one, has no floor below its own
    noise); at r = n they are the full decomposition. Returns the Ritz
    values, the Ritz vectors Q U and the floor.
    """
    n = s.size

    def apply(q):
        y = kmat @ (s[:, None] * q)
        y *= s[:, None]
        return y

    r = min(_SUBSPACE_RANK, n)
    while True:
        q = np.random.default_rng(_SUBSPACE_SEED).standard_normal((n, r))
        for _ in range(_POWER_STEPS):
            q = np.linalg.qr(apply(q))[0]
        t = q.T @ apply(q)
        theta, u = np.linalg.eigh(0.5 * (t + t.T))
        abs_theta = np.abs(theta)
        top = float(abs_theta.max())
        floor = n * np.finfo(float).eps * (top if top > 0 else 1.0)
        if r == n or abs_theta.min() < max(floor, _TAIL_TOL / n):
            return theta, q @ u, floor
        r = min(2 * r, n)


def _missed_part(kmat: np.ndarray, s: np.ndarray, theta: np.ndarray, psi: np.ndarray) -> float:
    """Largest entry of A - Q T Q^T, the part of A = S K S that the
    Ritz pairs (theta, psi) miss, in row blocks of at most ``_BLOCK``
    entries."""
    n = s.size
    rows = max(1, _BLOCK // n)
    worst = 0.0
    for i in range(0, n, rows):
        blk = np.multiply(kmat[i : i + rows], s)
        blk *= s[i : i + rows, None]
        blk -= (psi[i : i + rows] * theta) @ psi.T
        worst = max(worst, float(np.max(np.abs(blk, out=blk))))
    return worst


def eigendecompose(kmat: np.ndarray, grid: ChebGrid) -> KernelSpectrum:
    """Leading weighted eigenpairs of a symmetric kernel matrix.

    The kernel is weighted by the square roots of the grid weights,
    A = S K S, so the discrete problem is self-adjoint; its eigenpairs
    are the Ritz pairs of :func:`_ritz_pairs`, and the eigenvectors are
    rescaled back to function values at the grid nodes, which the
    spectrum stores as its modes; their coefficients on SIGMA are the
    transform of :func:`_barycentric`'s values at the ``grid.n``
    first-kind nodes there. ``eigenvalues`` holds the r Ritz
    values, ordered by decreasing magnitude; two whose magnitudes agree
    to a relative n eps are a tie, which the positive one wins. Ritz
    values below the floor are zeroed. Each mode's sign makes the
    largest-magnitude entry of its weighted grid values
    sqrt(w_i) phi(x_i) positive.

    The truncation point is the smallest mode count whose absolute
    eigenvalue tail is below ``_TAIL_TOL``, and below ``_RECON_TOL`` once
    a bound on the rest of A is added: the share of the Ritz values
    zeroed as rounding, max_i sum |theta_k| psi_k(i)^2 over them, and the
    largest entry of A - Q T Q^T, the part of A that the rank-r range
    misses. A - A_m at rank m is that part plus the Ritz terms past m,
    so the three bound the weighted reconstruction error max|A - A_m|:
    the tail because orthonormal eigenvectors have entries of modulus at
    most one, the share by Cauchy-Schwarz.
    """
    n = grid.n
    s = np.sqrt(grid.weights)
    theta, psi, floor = _ritz_pairs(kmat, s)
    r = theta.size
    missed = _missed_part(kmat, s, theta, psi)
    tie = 1.0 + n * np.finfo(float).eps * (theta > 0)
    order = np.argsort(-np.abs(theta) * tie, kind="stable")
    eta = theta[order]
    psi = psi[:, order]
    lead = psi[np.argmax(np.abs(psi), axis=0), np.arange(r)]
    psi[:, lead < 0] *= -1

    # kill eigenvalues below the noise floor so the tail sum is
    # dominated by genuine modes, not accumulated rounding
    abs_eta = np.abs(eta)
    rounding = abs_eta < floor
    zeroed = np.where(rounding, abs_eta, 0.0)
    bound = float(np.max(np.einsum("ik,ik,k->i", psi, psi, zeroed))) + missed
    eta = np.where(rounding, 0.0, eta)
    abs_eta = np.abs(eta)
    total = float(abs_eta.sum())
    tails = total - np.cumsum(abs_eta)  # tails[m-1] = sum_{k >= m} |eta_k|
    if total <= _TAIL_TOL:
        m = 0
    else:
        limit = min(_TAIL_TOL, _RECON_TOL - bound)
        m = min(int(np.searchsorted(-tails, -limit) + 1), r)

    # fit the decay over modes within ten decades of the top one; deeper
    # modes sit on the numerical plateau and would flatten the fit
    top = abs_eta[0]
    genuine = int(np.sum(abs_eta >= max(1e-10 * top, 1e-14)))
    if genuine >= 3:
        ks = np.arange(genuine)
        slope = np.polyfit(ks, np.log(abs_eta[:genuine]), 1)[0]
        decay = float(-slope)
    else:
        decay = float("inf")

    stored = min(max(m, 12), r)
    vals = psi[:, :stored] / s[:, None]

    tail_val = float(tails[m - 1]) if m >= 1 else total
    return KernelSpectrum(
        grid=grid,
        eigenvalues=eta,
        truncation=m,
        decay_rate=decay,
        tail=tail_val,
        phi_values=vals,
        sigma_coeffs=coeffs_from_values(_barycentric(grid, vals, cheb_grid(n).nodes)),
    )


@dataclass(frozen=True)
class ContractionMatrices:
    """Sign-split contraction blocks of the transported kernel.

    Entries couple kernel modes through the symmetrized covariance
    transform, scaled by the square roots of the eigenvalue magnitudes.
    Spectral norms below ``CONTRACTION_TOL``, one less a margin, certify
    the contraction property that the fluctuation analysis rests on.
    """

    plus: np.ndarray
    minus: np.ndarray
    norm_plus: float
    norm_minus: float
    indices_plus: np.ndarray
    indices_minus: np.ndarray

    @property
    def contractive(self) -> bool:
        return max(self.norm_plus, self.norm_minus) < CONTRACTION_TOL


def contraction_matrices(spectrum: KernelSpectrum) -> ContractionMatrices:
    """Assemble the sign-split contraction blocks for the leading modes.

    The covariance form of two modes is the mode sum of
    :func:`_mode_form` over their Chebyshev coefficients on SIGMA.
    """
    m = spectrum.truncation
    eta = spectrum.eigenvalues[:m]
    c = spectrum.sigma_coeffs[:, :m]
    form = _mode_form(c, c)
    form = 0.5 * (form + form.T)  # the product rounds (i, j) and (j, i) apart
    scale = np.sqrt(np.abs(eta))
    full = scale[:, None] * form * scale[None, :]
    ip = np.nonzero(eta > 0)[0]
    im = np.nonzero(eta < 0)[0]
    kp = full[np.ix_(ip, ip)]
    km = full[np.ix_(im, im)]
    np_norm = float(np.max(np.abs(np.linalg.eigvalsh(kp)))) if ip.size else 0.0
    nm_norm = float(np.max(np.abs(np.linalg.eigvalsh(km)))) if im.size else 0.0
    return ContractionMatrices(kp, km, np_norm, nm_norm, ip, im)


# ----------------------------------------------------------------------
# pairings against equilibrium data


def mean_shift_pairing(h, eq, beta: float) -> float:
    """Pairing of a test function with the order-one correction measure.

    Multiplied by 2/beta this is the predicted mean of the recentred
    linear statistic. The measure combines endpoint masses, the
    inverse square-root arcsine component, and a term driven by the
    logarithmic derivative of the density polynomial; it vanishes
    identically at beta = 2. It is :func:`_mean_shift` of h's series.
    """
    if beta <= 0:
        raise UsageError("invalid-spec", f"beta must be positive, got {beta}")
    return _mean_shift(_sigma_series(h), eq, beta)


def _mean_shift(c: np.ndarray, eq, beta: float) -> float:
    """:func:`mean_shift_pairing` from h's coefficients ``c`` on SIGMA.

    As T_k(+-1) = (+-1)^k, the edge term (h(-2) + h(2)) / 4 minus the
    arcsine term c_0 / 4 is half the even modes past the constant. The
    log-derivative term is the mode form of h and log p, whose series
    the equilibrium fits once (``eq.log_p_series``).
    """
    edge_minus_arcsine = 0.5 * float(c[2::2].sum())
    log_p = eq.log_p_series
    m = min(c.size, log_p.size)
    t_logp = float(_mode_form(log_p[:m], c[:m]))
    return (1.0 - beta / 2.0) * (edge_minus_arcsine - 0.5 * t_logp)


@dataclass(frozen=True)
class DeformationResidual:
    residual: float


def deformation_residual(eq, tmap) -> DeformationResidual:
    """Flatness of the transported variational combination.

    Pushing the reference semicircle through the transport map must
    reproduce the equilibrium condition of the target potential: twice
    the smooth log-ratio kernel integrated against the semicircle, minus
    the potential at the mapped point, plus the reference quadratic
    confinement, is constant on the interior: the Robin constant offset
    between target and reference, ``eq.robin_constant + 1`` in closed
    form. The residual is the max deviation from it at the probes.

    The semicircle rule is :func:`gauss_semicircle` in a sinh variable
    on ``SIGMA`` with the map's center and width, so its
    ``_DEFORMATION_NODES`` nodes cluster at the map's singularity c +- i
    eps as the map's own series does, and one node count serves every
    potential. The probes and the rule's nodes are mapped in one
    :meth:`~betalab.transport.TransportMap.value` call, and the kernel is
    taken in row blocks of at most ``_BLOCK`` entries.
    """
    lam = cheb_grid(_DEFORMATION_PROBES).nodes
    var = SinhVariable(SIGMA, tmap.variable.center, tmap.variable.width)
    mu, w = gauss_semicircle(_DEFORMATION_NODES, var)
    z = np.asarray(tmap.value(np.concatenate((lam, mu))), dtype=float)
    z_lam, z_mu = z[: lam.size], z[lam.size :]
    inner = np.empty(lam.size)
    rows = max(1, _BLOCK // mu.size)
    for i in range(0, lam.size, rows):
        j = slice(i, i + rows)
        inner[j] = _log_ratio(tmap, lam[j, None], mu[None, :], z_lam[j, None], z_mu[None, :]) @ w
    inner /= 2.0 * np.pi
    v = np.asarray(eq.potential.v(z_lam), dtype=float)
    g = 2.0 * inner - v + lam * lam / 2.0
    return DeformationResidual(residual=float(np.max(np.abs(g - (eq.robin_constant + 1.0)))))
