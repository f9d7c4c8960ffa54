"""Independent oracle implementations used to freeze expected test values.

Everything here is written against numpy/scipy directly, deliberately
avoiding the package's own quadrature and operator code, so that a bug in
the implementation cannot silently validate itself. Routines are slow and
simple on purpose.
"""

from dataclasses import dataclass

import numpy as np
from scipy import fft, integrate, linalg, optimize, special

from betalab import operators as ops
from betalab.equilibrium import _contour_density
from betalab.errors import UsageError
from betalab.potentials import _arcsine_moments
from betalab.transport import TransportMap


def density_value_oracle(dv, z, nodes: int = 4000) -> float:
    """Polynomial factor of the equilibrium density by plain quadrature.

    Evaluates (1/pi) * int (dv(z) - dv(s)) / (z - s) * ds / sqrt(4 - s^2)
    over [-2, 2] using midpoint nodes in the angle variable.
    """
    theta = (np.arange(nodes) + 0.5) * np.pi / nodes
    s = 2.0 * np.cos(theta)
    vals = (dv(z) - dv(s)) / (z - s)
    return float(vals.mean())


def log_potential_oracle(lam: float, p=None, nodes: int = 512) -> float:
    """int log|lam - mu| p(mu) sqrt(4 - mu^2) / (2 pi) dmu, by quadrature.

    ``p`` is the density factor, one (the semicircle) by default. Outside
    the support the integrand is smooth and the second-kind Gauss rule in
    the angle takes it; inside, the two halves split at lam go through
    QUADPACK's algebraic-logarithmic endpoint weights (QAWS).
    """
    if p is None:
        p = np.ones_like
    if abs(lam) > 2.0:
        t = np.arange(1, nodes + 1) * np.pi / (nodes + 1)
        mu = 2.0 * np.cos(t)
        w = (4.0 * np.pi / (nodes + 1)) * np.sin(t) ** 2
        return float(w @ (p(mu) * np.log(np.abs(lam - mu)))) / (2.0 * np.pi)
    a, _ = integrate.quad(lambda m: np.sqrt(2.0 - m) * p(m), -2.0, lam, weight="alg-logb", wvar=(0.5, 0.0))
    b, _ = integrate.quad(lambda m: np.sqrt(2.0 + m) * p(m), lam, 2.0, weight="alg-loga", wvar=(0.0, 0.5))
    return (a + b) / (2.0 * np.pi)


def semicircle_cdf(t):
    phi = np.arccos(np.clip(np.asarray(t, dtype=float) / 2.0, -1.0, 1.0))
    return (np.pi - phi) / np.pi + np.sin(2.0 * phi) / (2.0 * np.pi)


def quartic_cdf_oracle(g: float, t: float) -> float:
    """CDF of the quartic-family density (g s^2 + 1 - g) sqrt(4-s^2)/(2 pi)."""
    out, _ = integrate.quad(
        lambda s: (g * s * s + 1.0 - g) * np.sqrt(4.0 - s * s) / (2.0 * np.pi),
        -2.0,
        t,
        limit=200,
    )
    return out


def transport_point_oracle(g: float, x: float) -> float:
    """Transport map value by CDF matching, independent of any ODE."""
    target = float(semicircle_cdf(x))
    return optimize.brentq(
        lambda t: quartic_cdf_oracle(g, t) - target, -2.0, 2.0, xtol=1e-13
    )


def transport_interior_ode(eq, t, cut: float = 1.9, rtol: float = 1e-12, atol: float = 1e-13):
    """Interior transport map at points ``t`` (|t| <= cut) by integrating its ODE.

    zeta' = rho_sc(t) / rho_eq(zeta), anchored at the equilibrium median
    and integrated outward to both sides with DOP853. The right-hand side
    reads the density through its Chebyshev factor; only the median uses
    the CDF modes, summed one mode at a time and bracketed.
    """
    t = np.asarray(t, dtype=float)
    anchor = quantile_brentq(eq, 0.5)

    def rhs(s, z):
        zc = np.clip(z, -2.0 + 1e-13, 2.0 - 1e-13)
        return np.sqrt(4.0 - s * s) / (2.0 * np.pi) / eq.density(zc)

    out = np.empty_like(t)
    for sign, part in ((1.0, t >= 0.0), (-1.0, t < 0.0)):
        sol = integrate.solve_ivp(
            rhs, (0.0, sign * cut), [anchor], method="DOP853", dense_output=True, rtol=rtol, atol=atol
        )
        assert sol.success, sol.message
        out[part] = sol.sol(t[part])[0]
    return out


def cdf_per_mode(beta, x: float) -> float:
    """CDF mode sum in the arccos angle, one mode at a time."""
    phi = np.arccos(np.clip(x, -2.0, 2.0) / 2.0)
    out = beta[0] * (np.pi - phi)
    for m in range(1, len(beta)):
        out -= beta[m] / m * np.sin(m * phi)
    return float(out)


def quantile_brentq(eq, q: float) -> float:
    """Equilibrium quantile of one level by bracketing the per-mode CDF sum."""
    return optimize.brentq(lambda x: cdf_per_mode(eq.cdf_modes, x) - q, -2.0, 2.0, xtol=1e-15)


def edge_slope_oracle(g: float) -> float:
    """First correction coefficient of the transport map's left-edge series.

    Hand derivation: with edge scale c = P(edge)^(-2/3) and inward density
    slope p1 = P'_inward(edge)/P(edge), matching the x^(5/2) terms of both
    sides of the CDF identity gives s1 = (c/8 - 1/8 - c*p1) / (5/2).
    """
    p0 = 1.0 + 3.0 * g
    c = p0 ** (-2.0 / 3.0)
    p1 = -4.0 * g / p0
    return (c / 8.0 - 1.0 / 8.0 - c * p1) / 2.5


def cheb_coeff_oracle(h, k: int) -> float:
    """Chebyshev coefficient of h on [-2, 2] by adaptive quadrature."""
    out, _ = integrate.quad(
        lambda theta: h(2.0 * np.cos(theta)) * np.cos(k * theta), 0.0, np.pi, limit=200
    )
    return (2.0 / np.pi) * out


def variance_form_oracle(h, max_modes: int = 40) -> float:
    """CLT variance quadratic form as (1/2) sum_k k h_k^2 from raw coefficients."""
    total = 0.0
    for k in range(1, max_modes + 1):
        hk = cheb_coeff_oracle(h, k)
        total += 0.5 * k * hk * hk
    return total


def mean_shift_square_oracle(beta: float) -> float:
    """Exact mean shift of sum lambda_i^2 in the reference ensemble.

    The tridiagonal representation gives E tr M^2 = n - 1 + 2/beta exactly,
    and the centering is n, so the limit shift is 2/beta - 1.
    """
    return 2.0 / beta - 1.0


def mean_shift_cos_oracle(beta: float) -> float:
    """Mean shift of sum cos(lambda_i) in the reference ensemble.

    (1 - beta/2) * [ (cos 2)/2 - J_0(2)/2 ] * (2/beta): the arcsine average
    of cos on [-2, 2] is the Bessel value J_0(2). The edge-mass 1/4 and
    arcsine 1/2 weights were cross-checked by hand against the exact
    tridiagonal moments E tr M^2 = n - 1 + 2/beta and, at beta = 1,
    E tr M^4 = 2n + 5 + 5/n.
    """
    pairing = (1.0 - beta / 2.0) * (np.cos(2.0) - special.j0(2.0)) / 2.0
    return (2.0 / beta) * pairing


def pair_expectation_oracle(v, n: int, beta: float, h, box, tol: float = 1e-12):
    """E[h(l1, l2)] for the two-point ensemble by adaptive double quadrature.

    Integrates the ordered triangle x < y only (h must be symmetric), which
    keeps |x - y|^beta smooth inside the region; the symmetry factor cancels
    in the ratio.
    """
    lo, hi = box

    def dens(y, x):
        return np.exp(-0.5 * beta * n * (v(x) + v(y))) * (y - x) ** beta

    z, _ = integrate.dblquad(dens, lo, hi, lambda x: x, hi, epsabs=tol, epsrel=tol)
    m, _ = integrate.dblquad(
        lambda y, x: dens(y, x) * h(x, y), lo, hi, lambda x: x, hi, epsabs=tol, epsrel=tol
    )
    return m / z


def support_moment_oracle(dv, a: float, b: float):
    """The two endpoint conditions by direct quadrature on (a, b).

    Returns (pi * int dv dmu, (1/2) int s dv(s) dmu - 1) for the arcsine
    measure mu of (a, b); both vanish at the true support endpoints.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)

    def s_of(theta):
        return mid + half * np.sin(theta)

    v1, _ = integrate.quad(lambda th: dv(s_of(th)), -np.pi / 2, np.pi / 2, limit=200)
    v2, _ = integrate.quad(lambda th: s_of(th) * dv(s_of(th)), -np.pi / 2, np.pi / 2, limit=200)
    return v1, v2 / (2.0 * np.pi) - 1.0


def ordered_grid_dense(n, box, nodes):
    """Every row of the ordered-region Gauss-Legendre grid in one dense block.

    Level by level from the largest coordinate down: each point x of the
    level above (hi for the first) gets the nodes lo + (x - lo) * u below
    it, and log(x - lo) + log w joins its log weight. Returns
    (configs, logw) with the largest coordinate's node index outermost.
    Memory grows like nodes**n.
    """
    lo, hi = box
    t, w = np.polynomial.legendre.leggauss(nodes)
    u, logw = 0.5 * (t + 1.0), np.log(0.5 * w)
    top, lw, cols = np.array(float(hi)), np.array(0.0), []
    for _ in range(n):
        lw = lw[..., None] + (np.log(top - lo)[..., None] + logw)
        top = lo + (top[..., None] - lo) * u
        cols = [c[..., None] for c in cols] + [top]
    configs = np.stack([np.broadcast_to(c, top.shape).ravel() for c in reversed(cols)], axis=1)
    return configs, lw.ravel()


def ordered_grid_expectation(vfun, n, beta, observables, box, nodes):
    """Expectations of symmetric observables on `ordered_grid_dense`, one max shift."""
    configs, logw = ordered_grid_dense(n, box, nodes)
    log_pairs = sum(np.log(configs[:, j] - configs[:, i]) for j in range(n) for i in range(j))
    ld = logw - 0.5 * beta * n * vfun(configs).sum(axis=1) + beta * log_pairs
    wgt = np.exp(ld - ld.max())
    return np.array([wgt @ ob(configs) for ob in observables]) / wgt.sum()


def linearization_right_tensor(
    eq, tmap, spectrum, beta, observable, n, modes, gh_nodes, gl_nodes=96, jacobian=True
):
    """Right route of the linearization check on the full tensor-product rule.

    Averages exp(q . s) over every point of the gh_nodes**modes
    Gauss-Hermite tensor grid instead of factorizing the rule per mode. The configuration quadrature and the reference density
    are the package's own, so the two routes differ only in the
    auxiliary-integral weight. Cost grows like gh_nodes**modes.
    ``jacobian=False`` drops the (beta/2 - 1) log-derivative weight, a
    wrong route for negative controls (it is exact at beta=2).
    """
    from betalab.ensembles import _log_density_ordered, _ordered_chunks

    box = (-(2.0 + 0.5 * eq.eps), 2.0 + 0.5 * eq.eps)
    configs, logw = map(np.concatenate, zip(*_ordered_chunks(n, box, gl_nodes)))
    obs = np.asarray(observable(configs), dtype=float)
    log_ref = _log_density_ordered(lambda x: 0.5 * x * x, beta, n, configs) + logw
    wr = np.exp(log_ref - log_ref.max())

    eta = spectrum.eigenvalues[:modes]
    proj = spectrum.semicircle_proj[:modes]
    qmat = np.stack(
        [spectrum.phi(configs.ravel(), k).reshape(-1, n).sum(axis=1) - n * proj[k] for k in range(modes)],
        axis=1,
    )
    coef = np.sqrt(beta * eta.astype(complex))
    gh_x, gh_w = np.polynomial.hermite_e.hermegauss(gh_nodes)
    u = np.stack([g.ravel() for g in np.meshgrid(*([gh_x] * modes), indexing="ij")], axis=1)
    uw = np.ones(u.shape[0])
    for g in np.meshgrid(*([gh_w] * modes), indexing="ij"):
        uw = uw * g.ravel()
    uw /= uw.sum()
    w_mode = np.exp(qmat @ (u * coef[None, :]).T).real @ uw

    wfull = wr * w_mode
    if jacobian:
        wfull *= np.exp(-(0.5 * beta - 1.0) * np.log(tmap.derivative(configs)).sum(axis=1))
    return float((wfull @ obs) / wfull.sum())


def gauss_hermite_factors_complex(q, c2, gh_nodes):
    """Gauss-Hermite means of exp(q sqrt(c2) x) over the full rule in complex arithmetic.

    The square root of a negative c2 is imaginary; the rule is symmetric,
    so the imaginary part of each mean is rounding and is dropped.
    """
    coef = np.sqrt(np.asarray(c2).astype(complex))
    gh_x, gh_w = np.polynomial.hermite_e.hermegauss(gh_nodes)
    return (np.exp(q[:, :, None] * (coef[:, None] * gh_x)) @ (gh_w / gh_w.sum())).real


def pv_transform_numer_single_block(h_prime, lam, quad_nodes=512):
    """The principal-value numerator with every point in one dense block.

    The numerator s(lam) of the covariance transform s / (pi^2 sqrt(4 -
    lam^2)): the semicircle-weighted sum of (h'(mu_j) - h'(lam)) / (lam -
    mu_j) on the quad_nodes-point second-kind rule, plus h'(lam) pi lam.
    A point within 1e-9 of a node takes the central difference -h''(lam).
    Memory grows like len(lam) * quad_nodes.
    """
    j = np.arange(1, quad_nodes + 1)
    mu = 2.0 * np.cos(j * np.pi / (quad_nodes + 1))[::-1]
    w = 4.0 * ((np.pi / (quad_nodes + 1)) * np.sin(j * np.pi / (quad_nodes + 1)) ** 2)[::-1]
    hp_mu = np.asarray(h_prime(mu), dtype=float)
    hp_l = np.asarray(h_prime(lam), dtype=float)
    diff = lam[:, None] - mu[None, :]
    small = np.abs(diff) < 1e-9
    if np.any(small):
        t = 1e-5
        h2 = (np.asarray(h_prime(lam + t)) - np.asarray(h_prime(lam - t))) / (2.0 * t)
        quot = np.where(
            small,
            -h2[:, None] * np.ones_like(diff),
            (hp_mu[None, :] - hp_l[:, None]) / np.where(small, 1.0, diff),
        )
    else:
        quot = (hp_mu[None, :] - hp_l[:, None]) / diff
    return quot @ w + hp_l * np.pi * lam


def config_gaps_per_row(sample, eq, center, halfwidth):
    """Unfolded in-window gaps, one configuration and one density call at a time."""
    lo, hi = center - halfwidth, center + halfwidth
    out = []
    for row in sample.configs:
        sel = row[(row >= lo) & (row <= hi)]
        if len(sel) < 2:
            out.append(np.empty(0))
            continue
        gaps = np.diff(sel)
        mids = 0.5 * (sel[1:] + sel[:-1])
        out.append(gaps * sample.n * eq.density(mids))
    return out


def pair_log_ratio_loop(lam, zeta):
    """Sum over pairs i < j of log|dzeta| - log|dlam|, one configuration at a time."""
    count, n = lam.shape
    iu = np.triu_indices(n, 1)
    pair = np.empty(count)
    for c in range(count):
        dx = np.abs(lam[c][:, None] - lam[c][None, :])[iu]
        dz = np.abs(zeta[c][:, None] - zeta[c][None, :])[iu]
        pair[c] = float(np.sum(np.log(dz) - np.log(dx)))
    return pair


def divided_difference_longdouble(tmap, x, y):
    """(zeta(x) - zeta(y)) / (x - y) of a transport map, in long double,
    and zeta'(x) where x = y; pairwise over broadcast x and y.

    The points go to the map's variable t = (asinh((x - c) / eps) - B) / A
    in long double, with the map's own c, eps, A and B. The series f in
    t gives f[t, s] by Clenshaw's recurrence b_k = c_k + 2s b_{k+1} -
    b_{k+2} at s and its divided difference in t and s, q_k = 2 b_{k+1} +
    2t q_{k+1} - q_{k+2}, run side by side, and f[t, s] = b_1 + t q_1 -
    q_2. Nothing cancels, so the closest pairs keep their digits, which
    the difference of two long-double sums loses (5e-14 at a distance of
    5e-6). The variable's own divided difference is
    (x - y) / (t - s) = eps A cosh(A (t + s) / 2 + B) sinh(A h) / (A h)
    with h = (t - s) / 2, by the series of sinh(u) / u where |A h| is
    below 1e-3, so it cancels nothing either.
    """
    var = tmap.variable
    ld = np.longdouble
    c, w, a, b = (ld(v) for v in (var.center, var.width, var.scale, var.shift))
    t = (np.arcsinh((np.asarray(x, dtype=ld) - c) / w) - b) / a
    s = (np.arcsinh((np.asarray(y, dtype=ld) - c) / w) - b) / a
    t, s = np.broadcast_arrays(t, s)
    coeffs = np.asarray(tmap.interior_cheb, dtype=ld)
    b1 = b2 = q1 = q2 = np.zeros(t.shape, dtype=ld)
    for ck in coeffs[:0:-1]:
        b1, b2, q1, q2 = ck + 2 * s * b1 - b2, b1, 2 * b1 + 2 * t * q1 - q2, q1
    u = a * (t - s) / 2
    small = np.abs(u) < ld(1e-3)
    u2 = u * u
    sinhc = np.where(small, 1 + u2 / 6 * (1 + u2 / 20 * (1 + u2 / 42)), np.sinh(u) / np.where(small, 1, u))
    return (b1 + t * q1 - q2) / (w * a * np.cosh(a * (t + s) / 2 + b) * sinhc)


def metropolis_sweeps_logsum(vfun, beta, lam, widths, window, z, logu):
    """Chain-major Metropolis sweeps with the pair term as a per-site log-sum.

    The reference route for the site-major kernel: ``lam`` has one chain
    per row, shape (chains, n), and is updated in place. ``z`` and
    ``logu`` are the kernel's draws, shape (sweeps, n + 2, chains). Every
    move recomputes V at both ends and takes n logs per chain. Returns the
    accepted counts of the site, shift and dilation moves.
    """
    lo, hi = window
    chains, n = lam.shape
    acc = np.zeros(3)
    pair_count = 0.5 * n * (n - 1)
    for zs, us in zip(np.swapaxes(z, 1, 2), np.swapaxes(logu, 1, 2)):
        for i in range(n):
            cur = lam[:, i]
            prop = cur + widths[0] * zs[:, i]
            inside = (prop > lo) & (prop < hi)
            dv = -0.5 * beta * n * (np.asarray(vfun(prop)) - np.asarray(vfun(cur)))
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = (prop[:, None] - lam) / (cur[:, None] - lam)
                ratio[:, i] = 1.0
                pair = beta * np.sum(np.log(np.abs(ratio)), axis=1)
            ok = inside & (us[:, i] < dv + pair)
            lam[ok, i] = prop[ok]
            acc[0] += ok.sum()

        shift = widths[1] * zs[:, n]
        new = lam + shift[:, None]
        inside = (new.min(axis=1) > lo) & (new.max(axis=1) < hi)
        dlp = -0.5 * beta * n * (np.asarray(vfun(new)).sum(axis=1) - np.asarray(vfun(lam)).sum(axis=1))
        ok = inside & (us[:, n] < dlp)
        lam[ok] = new[ok]
        acc[1] += ok.sum()

        t = widths[2] * zs[:, n + 1]
        new = lam * np.exp(t)[:, None]
        inside = (new.min(axis=1) > lo) & (new.max(axis=1) < hi)
        dlp = (
            -0.5 * beta * n * (np.asarray(vfun(new)).sum(axis=1) - np.asarray(vfun(lam)).sum(axis=1))
            + beta * pair_count * t
            + n * t
        )
        ok = inside & (us[:, n + 1] < dlp)
        lam[ok] = new[ok]
        acc[2] += ok.sum()
    return acc


def gaussian_tridiagonal_lapack(stream, n, beta, count, window):
    """The reference sampler one configuration at a time, eigenvalues by LAPACK.

    ``stream(idx)`` returns configuration idx's generator. Each attempt
    draws the diagonal normals, then the off-diagonal chi-squares, and
    keeps the spectrum when it lies inside ``window`` (at most 1000
    attempts, the sampler's default). Returns the configurations and the
    number of attempts each took.
    """
    max_tries = 1000
    lo, hi = window
    dfs = beta * np.arange(n - 1, 0, -1)
    configs = np.empty((count, n))
    tries = np.zeros(count, dtype=int)
    for idx in range(count):
        rng = stream(idx)
        for attempt in range(1, max_tries + 1):
            diag = rng.standard_normal(n) * np.sqrt(2.0 / (n * beta))
            off = np.sqrt(rng.chisquare(dfs) / (n * beta))
            lam = linalg.eigvalsh_tridiagonal(diag, off)
            if lam[0] > lo and lam[-1] < hi:
                configs[idx], tries[idx] = lam, attempt
                break
        else:
            raise RuntimeError(f"configuration {idx} was rejected {max_tries} times")
    return configs, tries


def tridiagonal_eigvals_sturm(d, e):
    """Eigenvalues of one symmetric tridiagonal matrix by Sturm bisection in long double.

    All n eigenvalues are bisected at once from Gershgorin bounds: the
    count of negative pivots of T - x I is the number of eigenvalues
    below x. 100 halvings take any interval these tests use below
    long-double resolution. Returned in long double, ascending.
    """
    d = np.asarray(d, dtype=np.longdouble)
    e = np.asarray(e, dtype=np.longdouble)
    e2 = e * e
    n = d.size
    rad = np.zeros(n, dtype=np.longdouble)
    rad[:-1] += np.abs(e)
    rad[1:] += np.abs(e)
    lo = np.full(n, (d - rad).min() - 1)
    hi = np.full(n, (d + rad).max() + 1)
    k = np.arange(n)
    tiny = np.finfo(np.longdouble).tiny
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        q = d[0] - mid
        below = (q < 0).astype(int)
        for i in range(1, n):
            q = (d[i] - mid) - e2[i - 1] / np.where(q == 0, tiny, q)
            below += q < 0
        right = below > k  # eigenvalue k lies below mid
        hi = np.where(right, mid, hi)
        lo = np.where(right, lo, mid)
    return 0.5 * (lo + hi)


class PerturbedMap(TransportMap):
    """Monotone perturbation of a transport map (negative-control shim):
    the map plus amplitude sin(pi lam / 2), interpolated in the map's
    variable t and added to its series, so that every route through the
    map sees the same perturbed map."""

    def __init__(self, tmap, amplitude: float = 0.03):
        var = tmap.variable
        bump = np.polynomial.chebyshev.chebinterpolate(lambda t: amplitude * np.sin(0.5 * np.pi * var.x(t)), 40)
        bump[0] *= 2.0  # the halved-c0 convention
        coeffs = np.zeros(max(tmap.interior_cheb.size, bump.size))
        coeffs[: tmap.interior_cheb.size] = tmap.interior_cheb
        coeffs[: bump.size] += bump
        super().__init__(tmap.eq, coeffs, var, tmap.anchor, tmap.residual_max, tmap.overlap_max)


def contraction_blocks_dense(spectrum, n=256):
    """Sign-split contraction blocks from dense value-space operators on SIGMA.

    On the n-point first-kind grid, D = V diag(k / pi) C / sqrt(4 - x^2)
    (C values to Chebyshev coefficients by the DCT-II, V the cosine
    matrix T_k at the nodes), D* = W^-1 D^T W its transpose for the
    weights W = (pi / n) sqrt(4 - x^2), and the form of two modes is
    phi_i^T W (D + D*)/2 phi_j, symmetrized. Returns the blocks of the
    positive and negative eigenvalues, scaled by sqrt|eta|, and their
    spectral norms.
    """
    m = spectrum.truncation
    eta = spectrum.eigenvalues[:m]
    theta = ((2.0 * np.arange(n) + 1.0) * np.pi / (2.0 * n))[::-1]
    x = 2.0 * np.cos(theta)
    sq = np.sqrt(4.0 - x * x)
    wq = (np.pi / n) * sq
    k = np.arange(n)
    ct = fft.dct(np.eye(n)[::-1], type=2, axis=0) / n
    vander = np.cos(np.outer(theta, k))
    dmat = (vander * (k / np.pi)[None, :] / sq[:, None]) @ ct
    dstar = (dmat.T * wq[None, :]) / wq[:, None]
    dbar = 0.5 * (dmat + dstar)
    vals = spectrum.phi(x, range(m))
    form = vals.T @ (wq[:, None] * (dbar @ vals))
    form = 0.5 * (form + form.T)
    scale = np.sqrt(np.abs(eta))
    full = scale[:, None] * form * scale[None, :]
    ip, im = np.nonzero(eta > 0)[0], np.nonzero(eta < 0)[0]
    plus, minus = full[np.ix_(ip, ip)], full[np.ix_(im, im)]
    norm = lambda b: float(np.max(np.abs(linalg.eigvalsh(b)))) if b.size else 0.0
    return plus, minus, norm(plus), norm(minus)


def _dense_weighted_eigh(kmat, grid):
    """Dense eigenpairs of the weighted kernel A = S K S, S = diag(sqrt(weights)).

    Returns A (symmetrized), the eigenvalues with those below n eps
    |eta_0| zeroed, and the eigenvectors, ordered by decreasing
    magnitude; magnitudes within a relative n eps tie, and the positive
    value goes first.
    """
    n = grid.n
    s = np.sqrt(grid.weights)
    a = s[:, None] * kmat * s[None, :]
    a = 0.5 * (a + a.T)
    eta, psi = np.linalg.eigh(a)
    eps = np.finfo(float).eps
    order = np.argsort(-np.abs(eta) * (1.0 + n * eps * (eta > 0)), kind="stable")
    eta, psi = eta[order], psi[:, order]
    abs_eta = np.abs(eta)
    floor = n * eps * (abs_eta[0] if abs_eta[0] > 0 else 1.0)
    return a, np.where(abs_eta < floor, 0.0, eta), psi


def _reconstruction_rank(a, eta, psi, tail_tol, recon_tol):
    n = eta.size
    abs_eta = np.abs(eta)
    total = float(abs_eta.sum())
    tails = total - np.cumsum(abs_eta)
    m = 0 if total <= tail_tol else min(int(np.searchsorted(-tails, -tail_tol) + 1), n)
    while m < n:
        recon = (psi[:, :m] * eta[:m]) @ psi[:, :m].T
        if np.max(np.abs(a - recon)) <= recon_tol:
            break
        m += 1
    return m


def truncation_by_reconstruction(kmat, grid, tail_tol=1e-12, recon_tol=1e-10):
    """Kernel truncation by growing the rank until the reconstruction holds.

    Start at the smallest rank whose absolute eigenvalue tail (eigenvalues
    below n eps |eta_0| zeroed) is at most tail_tol, then add one mode at
    a time until the weighted kernel A = S K S, S = diag(sqrt(weights)),
    is rebuilt from the kept modes to within recon_tol everywhere.
    """
    return _reconstruction_rank(*_dense_weighted_eigh(kmat, grid), tail_tol, recon_tol)


def eigendecompose_dense(kmat, grid, tail_tol=1e-12, recon_tol=1e-10):
    """The kernel spectrum from numpy's dense eigh of the whole weighted kernel.

    Every one of the n eigenpairs of A = S K S is computed; the truncation
    is :func:`truncation_by_reconstruction`'s, and each mode's largest
    grid value is made positive. The stored modes are their grid
    values, and their coefficients on [-2, 2] come from their whole
    Chebyshev series, scipy's DCT-II of those values, summed by numpy's
    chebval at the first-kind nodes there. Memory grows like n^2.
    """
    from betalab.operators import KernelSpectrum

    n = grid.n
    a, eta, psi = _dense_weighted_eigh(kmat, grid)
    m = _reconstruction_rank(a, eta, psi, tail_tol, recon_tol)
    del a
    lead = psi[np.argmax(np.abs(psi), axis=0), np.arange(n)]
    psi[:, lead < 0] *= -1
    stored = min(max(m, 12), n)
    vals = psi[:, :stored] / np.sqrt(grid.weights)[:, None]
    half = fft.dct(vals[::-1], type=2, axis=0) / n
    half[0] *= 0.5
    lo, hi = grid.interval
    theta = (2.0 * np.arange(n) + 1.0) * np.pi / (2.0 * n)
    u = (4.0 * np.cos(theta)[::-1] - (lo + hi)) / (hi - lo)
    on_sigma = np.polynomial.chebyshev.chebval(u, half).T
    abs_eta = np.abs(eta)
    return KernelSpectrum(
        grid=grid,
        eigenvalues=eta,
        truncation=m,
        decay_rate=float("nan"),
        tail=float(abs_eta[m:].sum()),
        phi_values=vals,
        sigma_coeffs=fft.dct(on_sigma[::-1], type=2, axis=0) / n,
    )


# ----------------------------------------------------------------------
# operators that no library stage calls, moved here from the library with
# their tests; unlike the oracles above they are built on the library's
# transforms, its private principal-value quadrature and its log-kernel
# mode factors


def cheb_coeffs(h, count: int, interval=ops.SIGMA) -> np.ndarray:
    """First ``count + 1`` Chebyshev coefficients of a callable.

    Samples h on a 4x oversampled grid so that the returned coefficients
    are alias-free whenever h is resolved by the oversampled grid. They
    are c with h = c[0]/2 + sum c[k] T_k on ``interval``; ``cov_form``'s
    Chebyshev route is their first 65 at ``count`` = 64.
    """
    x = ops.cheb_grid(4 * max(count + 1, 8), interval).nodes
    return ops.coeffs_from_values(h(x))[: count + 1]


def density_fit_fixed(potential, nodes: int = 256, contour_nodes: int = 512) -> np.ndarray:
    """The chopped series of the density polynomial fitted on one fixed
    grid of ``nodes`` first-kind nodes of the potential's window, by the
    library's wrapped contour integral. It is the fit ``solve_equilibrium``
    returns when ``nodes`` is its cap and no smaller grid resolves."""
    eps = potential.domain[1] - 2.0
    x = ops.cheb_grid(nodes, (-(2.0 + eps), 2.0 + eps)).nodes
    return ops.chop_coeffs(ops.coeffs_from_values(_contour_density(potential, contour_nodes)(x)))


def apply_cov_op(h, lam, h_prime=None):
    """Pointwise covariance-form transform of h at interior points.

    The operator whose symmetrized quadratic form gives the limiting
    variance of linear eigenvalue statistics, by the library's
    principal-value quadrature with the singularity subtracted
    (``ops._pv_transform_numer``), not by the Chebyshev-diagonal
    shortcut. ``lam`` may have any shape; a scalar gives a float.
    """
    lam_arr = np.asarray(lam, dtype=float)
    if np.any(np.abs(lam_arr) >= 2.0):
        raise UsageError("out-of-domain", "transform is defined on the open interval (-2, 2)")
    flat = lam_arr.ravel()
    s = ops._pv_transform_numer(ops._derivative_callable(h, h_prime), flat)
    out = s / (np.pi**2 * np.sqrt(4.0 - flat * flat))
    return out.reshape(lam_arr.shape) if lam_arr.ndim else float(out[0])


def log_kernel_apply(f):
    """A callable for the integral of log|x - mu| f(mu) over SIGMA, through
    the mode expansion of f against the inverse square-root weight
    (``ops._log_kernel_modes``) on 512 first-kind nodes."""
    x = ops.cheb_grid(512).nodes
    d = ops._log_kernel_modes(ops.coeffs_from_values(np.asarray(f(x), dtype=float) * np.sqrt(4.0 - x * x)))

    def apply(y):
        y_arr = np.asarray(y, dtype=float)
        if np.any(np.abs(y_arr) > 2.0 + 1e-12):
            raise UsageError("out-of-domain", "log kernel evaluated outside [-2, 2]")
        return ops.cheb_val(d, np.clip(y_arr, -2.0, 2.0), ops.SIGMA)

    return apply


@dataclass(frozen=True)
class RecenteringCoeffs:
    """First-order support response of a potential perturbation: c1 is
    the shift rate of the support midpoint, c2 the dilation rate, for the
    perturbation V + t h at small t after re-normalization."""

    c1: float
    c2: float


def recentering_coeffs(h, h_prime=None) -> RecenteringCoeffs:
    """Moments of h' against the inverse square-root weight on the support."""
    return RecenteringCoeffs(*_arcsine_moments(ops._derivative_callable(h, h_prime), -2.0, 2.0))
