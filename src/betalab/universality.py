"""Fluctuation reports, local-statistics comparisons, and structural identities.

This module turns raw eigenvalue samples into the quantities the theory
actually predicts: centered linear statistics with their Gaussian limits,
unfolded local gaps, cross-ensemble comparison distances, and two exact
structural checks (the configuration-wise energy identity and the
linearization of a deformed ensemble around the reference one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .ensembles import (
    EnsembleSample,
    _log_density_ordered,
    _ordered_chunks,
    _pair_log_sum,
    _stream,
    linear_statistic,
)
from .errors import NumericalError, UsageError

# the certificates' tolerances: the energy identity's residual, the linearization's discrepancy
ENERGY_TOL = 1e-6
DISCREPANCY_TOL = 1e-3
# Gauss-Legendre nodes per level of the linearization rule, tried in turn
_LINEARIZATION_LADDER = (16, 24, 32, 48, 64, 96, 128, 192, 256)
# the left route's relative move between rungs that marks the rule resolved
_LINEARIZATION_TOL = 1e-12
# largest ordered rule, in configurations: nodes**n rows, one per node of
# each level, since each level is scaled into the interval below the next
_LINEARIZATION_BUDGET = 2**20


# ----------------------------------------------------------------------
# central limit theorem reports


@dataclass
class CLTReport:
    """Empirical vs predicted Gaussian limit of one linear statistic."""

    name: str
    beta: float
    n: int
    count: int
    centering: float
    emp_mean: float
    emp_var: float
    pred_mean: float
    pred_var: float
    se_mean: float
    se_var: float
    z_mean: float
    z_var: float
    normality_p: float

    def passed(self, z_max: float = 3.0) -> bool:
        return abs(self.z_mean) <= z_max and abs(self.z_var) <= z_max


def _autocorr_factor(values: np.ndarray) -> float:
    """Variance inflation from residual lag-1 correlation of a thinned chain."""
    x = values - values.mean()
    denom = float(x @ x)
    if denom <= 0 or len(x) < 8:
        return 1.0
    r1 = float(x[:-1] @ x[1:]) / denom
    r1 = min(max(r1, 0.0), 0.95)
    return (1.0 + r1) / (1.0 - r1)


def _normality_p(x: np.ndarray) -> float:
    """D'Agostino-Pearson K^2 p-value for normality (Biometrika 60, 1973).

    K^2 = z_s^2 + z_k^2 sums the skewness z-score of D'Agostino (1970) and
    the kurtosis z-score of Anscombe-Glynn (1983); under normality it is
    chi^2 with two degrees of freedom, whose tail is exp(-K^2 / 2). A
    constant sample has no defined shape and gives nan.
    """
    if np.ptp(x) == 0:
        return float("nan")
    n = float(len(x))
    d = x - x.mean()
    d2 = d * d
    m2 = d2.mean()
    skew = (d2 * d).mean() / m2**1.5
    kurt = (d2 * d2).mean() / m2**2

    y = skew * np.sqrt((n + 1) * (n + 3) / (6.0 * (n - 2)))
    beta2 = 3.0 * (n * n + 27 * n - 70) * (n + 1) * (n + 3) / ((n - 2) * (n + 5) * (n + 7) * (n + 9))
    w2 = np.sqrt(2.0 * (beta2 - 1)) - 1
    z_s = np.arcsinh(y * np.sqrt(0.5 * (w2 - 1))) / np.sqrt(0.5 * np.log(w2))

    mean_b2 = 3.0 * (n - 1) / (n + 1)
    var_b2 = 24.0 * n * (n - 2) * (n - 3) / ((n + 1) ** 2 * (n + 3) * (n + 5))
    sqrt_beta1 = 6.0 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
    sqrt_beta1 *= np.sqrt(6.0 * (n + 3) * (n + 5) / (n * (n - 2) * (n - 3)))
    a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1 + np.sqrt(1 + 4.0 / sqrt_beta1**2))
    denom = 1 + (kurt - mean_b2) / np.sqrt(var_b2) * np.sqrt(2.0 / (a - 4))
    z_k = (1 - 2.0 / (9 * a) - np.cbrt((1 - 2.0 / a) / denom)) / np.sqrt(2.0 / (9 * a))
    return float(np.exp(-0.5 * (z_s * z_s + z_k * z_k)))


def clt_report(sample: EnsembleSample, h, eq, name: str = "h", h_prime=None) -> CLTReport:
    """Compare the fluctuation of sum h(eigenvalue) against its Gaussian limit.

    The statistic is centered by n times the equilibrium average of h; the
    limiting mean and variance come from the deterministic functionals of
    the equilibrium data, never from the sample itself, as coefficient
    algebra on h's one series c on [-2, 2] (``ops._sigma_series``): the
    average is (pi/2) sum_m c_m beta_m for beta = ``eq.cdf_modes``, the
    variance (1/2) sum_k k c_k^2 / beta (Johansson, Duke Math. J. 91,
    1998). ``h_prime`` is ignored. Standard errors use the sample count,
    inflated by residual autocorrelation when the sample came from a chain.
    """
    c = ops._sigma_series(h, name)
    values = linear_statistic(sample, h)
    count = len(values)
    m = min(c.size, eq.cdf_modes.size)
    centering = sample.n * 0.5 * np.pi * float(c[:m] @ eq.cdf_modes[:m])
    centered = values - centering
    emp_mean = float(centered.mean())
    emp_var = float(centered.var(ddof=1))
    pred_mean = (2.0 / sample.beta) * ops._mean_shift(c, eq, sample.beta)
    pred_var = float(ops._mode_form(c, c)) / sample.beta
    infl = _autocorr_factor(values) if sample.kind == "metropolis-log-gas" else 1.0
    se_mean = float(np.sqrt(emp_var / count * infl))
    se_var = float(emp_var * np.sqrt(2.0 / max(count - 1, 1) * infl))
    z_mean = (emp_mean - pred_mean) / se_mean if se_mean > 0 else np.inf
    z_var = (emp_var - pred_var) / se_var if se_var > 0 else np.inf
    normality_p = _normality_p(centered) if count >= 20 else float("nan")
    return CLTReport(
        name=name,
        beta=sample.beta,
        n=sample.n,
        count=count,
        centering=centering,
        emp_mean=emp_mean,
        emp_var=emp_var,
        pred_mean=pred_mean,
        pred_var=pred_var,
        se_mean=se_mean,
        se_var=se_var,
        z_mean=z_mean,
        z_var=z_var,
        normality_p=normality_p,
    )


# ----------------------------------------------------------------------
# local statistics


def _config_gaps(sample: EnsembleSample, eq, center: float, halfwidth: float):
    """Unfolded nearest-neighbour gaps inside the window, per configuration.

    Gaps are rescaled by n times the density at the gap midpoint, so a
    correctly sampled ensemble yields unit-mean gaps regardless of how
    the density varies across the window.
    """
    if halfwidth <= 0:
        raise UsageError("invalid-spec", f"halfwidth must be positive, got {halfwidth}")
    lo, hi = center - halfwidth, center + halfwidth
    if lo < -2.0 or hi > 2.0:
        raise UsageError(
            "invalid-spec",
            f"window [{lo:.3f}, {hi:.3f}] leaves the reference interval; "
            "local statistics are defined in the interior only",
        )
    configs = sample.configs
    rows, cols = np.nonzero((configs >= lo) & (configs <= hi))
    sel = configs[rows, cols]
    # consecutive in-window points of one configuration form a gap
    pair = rows[1:] == rows[:-1]
    gaps = (sel[1:] - sel[:-1])[pair]
    mids = (0.5 * (sel[1:] + sel[:-1]))[pair]
    unfolded = gaps * sample.n * eq.density(mids)
    counts = np.bincount(rows[1:][pair], minlength=len(configs))
    return np.split(unfolded, np.cumsum(counts)[:-1])


def unfold_gaps(sample: EnsembleSample, eq, center: float, halfwidth: float) -> np.ndarray:
    """Pooled unfolded gaps of a sample around one bulk point."""
    per = _config_gaps(sample, eq, center, halfwidth)
    pooled = np.concatenate(per) if per else np.empty(0)
    if len(pooled) == 0:
        raise NumericalError(
            "empty-window",
            f"no gaps found in [{center - halfwidth:.3f}, {center + halfwidth:.3f}]; "
            "increase n, count, or the halfwidth",
        )
    return pooled


@dataclass
class PhiEstimate:
    value: float
    se: float
    count: int


def phi_estimate(sample: EnsembleSample, eq, center: float, test) -> PhiEstimate:
    """Mean of a microscopic linear statistic sum test(u_i) per configuration.

    u is the locally unfolded coordinate n * density(center) * (lambda -
    center); the test function should decay within a few unit spacings.
    Configurations go through in row chunks of at most ``ops._BLOCK``
    entries, so the temporaries of ``test`` stay bounded at any sample size.
    """
    scale = sample.n * eq.density(center)
    if scale <= 0:
        raise UsageError("invalid-spec", f"density vanishes at center {center}")
    configs = sample.configs
    rows = max(1, ops._BLOCK // configs.shape[1])
    vals = np.empty(len(configs))
    for s in range(0, len(configs), rows):
        u = scale * (configs[s : s + rows] - center)
        vals[s : s + rows] = np.asarray(test(u), dtype=float).sum(axis=1)
    return PhiEstimate(
        value=float(vals.mean()),
        se=float(vals.std(ddof=1) / np.sqrt(len(vals))),
        count=len(vals),
    )


def _bump_bank():
    return [
        lambda u: np.exp(-0.5 * u * u),
        lambda u: np.exp(-u * u / 4.5) * np.cos(np.pi * u),
        lambda u: np.exp(-u * u / 8.0) * np.cos(2.0 * np.pi * u / 3.0),
    ]


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance max |F_a - F_b| of the empirical CDFs.

    Both step functions jump only at sample points, so the supremum is
    attained on the pooled points, where right-continuous counts by
    bisection evaluate them exactly, ties included.
    """
    a = np.sort(a)
    b = np.sort(b)
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / len(a)
    fb = np.searchsorted(b, pooled, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def split_noise_floor(
    sample: EnsembleSample, eq, center: float, halfwidth: float, repeats: int = 25, seed: int = 0
) -> float:
    """Median two-sample KS distance between random config-level halves.

    This is the resolution limit of a KS comparison at this sample size:
    distances below it are indistinguishable from sampling noise. Splits
    are done at configuration granularity because gaps within one
    configuration are correlated.
    """
    per = _config_gaps(sample, eq, center, halfwidth)
    per = [g for g in per if len(g)]
    if len(per) < 4:
        raise NumericalError("empty-window", "too few occupied configurations to split")
    rng = _stream(seed, 0)
    dists = []
    for _ in range(repeats):
        perm = rng.permutation(len(per))
        half = len(per) // 2
        a = np.concatenate([per[i] for i in perm[:half]])
        b = np.concatenate([per[i] for i in perm[half:]])
        if len(a) and len(b):
            dists.append(_ks_distance(a, b))
    # the median, the mean of the middle one or two, by no call that imports numpy.ma
    return float(np.mean(np.sort(dists)[(len(dists) - 1) // 2 : len(dists) // 2 + 1]))


@dataclass
class UniversalityDistance:
    ks_distance: float
    noise_floor: float
    phi_z: np.ndarray
    gaps_a: int
    gaps_b: int

    def passed(self, slack: float = 0.02, z_max: float = 4.0) -> bool:
        return self.ks_distance < self.noise_floor + slack and bool(np.all(np.abs(self.phi_z) < z_max))


def universality_distance(
    sample_a: EnsembleSample,
    eq_a,
    center_a: float,
    sample_b: EnsembleSample,
    eq_b,
    center_b: float,
    halfwidth: float,
    floor_repeats: int = 25,
) -> UniversalityDistance:
    """Compare local spectral statistics of two ensembles at bulk points.

    Requires matching n and beta; local laws depend on both, so comparing
    across them is a category error, reported as such. The distance is
    the two-sample KS statistic on pooled unfolded gaps, accompanied by
    z-scores of a small bank of microscopic linear statistics and the
    split-sample noise floor of the reference sample.
    """
    if sample_a.n != sample_b.n or sample_a.beta != sample_b.beta:
        raise UsageError(
            "mismatched-parameters",
            f"cannot compare (n={sample_a.n}, beta={sample_a.beta}) against "
            f"(n={sample_b.n}, beta={sample_b.beta})",
        )
    ga = unfold_gaps(sample_a, eq_a, center_a, halfwidth)
    gb = unfold_gaps(sample_b, eq_b, center_b, halfwidth)
    ks = _ks_distance(ga, gb)
    floor = split_noise_floor(sample_b, eq_b, center_b, halfwidth, repeats=floor_repeats)
    zs = []
    for test in _bump_bank():
        pa = phi_estimate(sample_a, eq_a, center_a, test)
        pb = phi_estimate(sample_b, eq_b, center_b, test)
        zs.append((pa.value - pb.value) / np.hypot(pa.se, pb.se))
    return UniversalityDistance(
        ks_distance=ks,
        noise_floor=floor,
        phi_z=np.array(zs),
        gaps_a=len(ga),
        gaps_b=len(gb),
    )


# ----------------------------------------------------------------------
# structural identities


@dataclass
class HamiltonianIdentity:
    residual: float
    constant: float
    modes: int


def _reduction_weight(eq, spectrum, modes: int, beta: float, x, where, zeta, log_zp) -> np.ndarray:
    """The paper's reduction weight per configuration, t = (beta/2)[n sum
    (V(zeta) - lambda^2/2) - 2 sum log|dzeta/dlambda| + sum_k eta_k q_k^2]
    - (beta/2) sum log zeta' with q_k = sum_i phi_k(lambda_i) - n proj_k,
    constant when every mode is kept. Rows of ``where`` index the distinct
    coordinates ``x``, where the map's values ``zeta`` and ``log_zp`` =
    log zeta' are taken; the modes are evaluated there."""
    n = where.shape[1]
    q = spectrum.phi(x, range(modes))[where].sum(axis=1) - n * spectrum.semicircle_proj[:modes]
    per_point = n * (np.asarray(eq.potential.v(zeta), dtype=float) - 0.5 * x * x) - log_zp
    pairs = _pair_log_sum(zeta[where], x[where])
    return 0.5 * beta * (per_point[where].sum(axis=1) - 2.0 * pairs + (q * q) @ spectrum.eigenvalues[:modes])


def hamiltonian_identity_residual(
    eq, tmap, spectrum, beta: float, configs: np.ndarray, modes: int | None = None
) -> HamiltonianIdentity:
    """Configuration-wise check of the exact energy-splitting identity.

    For each configuration, the reduction weight of
    :func:`_reduction_weight`, an energy difference between the reference
    and the deformed ensemble plus the diagonalized quadratic form, must
    equal the closed-form constant (beta/2) n^2 (sum_k eta_k proj_k^2 -
    (R + 1)), R the target's Robin constant (the reference's is -1). The
    residual is the maximum deviation from it; a truncated mode sum or a
    wrong R shows up here directly, a sharp test of the decomposition.
    """
    lam = np.atleast_2d(np.asarray(configs, dtype=float))
    n = lam.shape[1]
    if n < 2:
        raise UsageError("invalid-spec", "identity needs configurations with n >= 2")
    if np.any(np.diff(np.sort(lam, axis=1), axis=1) < 1e-12):
        raise NumericalError("coincident-nodes", "configurations contain coincident points")
    modes = spectrum.truncation if modes is None else int(min(modes, len(spectrum.eigenvalues)))

    x = lam.ravel()
    zeta, zp = tmap.value_and_derivative(x)
    where = np.arange(x.size).reshape(lam.shape)
    t = _reduction_weight(eq, spectrum, modes, beta, x, where, zeta, np.log(zp))
    eta, proj = spectrum.eigenvalues[:modes], spectrum.semicircle_proj[:modes]
    const = 0.5 * beta * n * n * (float(eta @ (proj * proj)) - (eq.robin_constant + 1.0))
    return HamiltonianIdentity(residual=float(np.max(np.abs(t - const))), constant=const, modes=modes)


def _linearization_rule(eq, tmap, n: int, nodes: int):
    """The linearization check's ordered Gauss-Legendre rule, in the map's variable.

    The rule is ``nodes`` points per level in t = ``tmap.variable.t``
    over the box |lambda| < 2 + eps / 2; x(t) is increasing, so the
    ordered region in t is the ordered region in lambda. Returns the
    distinct coordinates lambda = x(t), the (configs, n) index array
    into them, and the log weights, the Jacobian sum of log x'(t)
    included. For an affine variable this is the plain rule in lambda.
    """
    var = tmap.variable
    box = var.t(np.array([-(2.0 + 0.5 * eq.eps), 2.0 + 0.5 * eq.eps]))
    tc, logw = map(np.concatenate, zip(*_ordered_chunks(n, box, nodes)))
    ts, where = np.unique(tc, return_inverse=True)
    where = where.reshape(tc.shape)
    return var.x(ts), where, logw + np.log(var.dx(ts))[where].sum(axis=1)


@dataclass
class LinearizationResult:
    left: float
    right: float
    rel_discrepancy: float
    n: int
    beta: float
    modes: int
    gl_nodes: int
    quadrature_change: float


def linearization_check(
    eq,
    tmap,
    spectrum,
    beta: float,
    observable,
    n: int = 2,
    modes: int | None = None,
    gh_nodes=None,
) -> LinearizationResult:
    """Deterministic two-route expectation of a symmetric observable.

    Left route: quadrature against the exact transported law of the
    deformed ensemble. Right route: quadrature against the reference
    ensemble reweighted through the diagonalized quadratic form. Each
    mode's auxiliary Gaussian integral is taken in closed form,
    E exp(sqrt(beta eta_k) q_k X) = exp(beta eta_k q_k^2 / 2) for either
    sign of eta_k (the root is imaginary when eta_k < 0), so the right
    route's log weight is the reference one plus (beta/2) sum_k eta_k
    q_k^2 - (beta/2 - 1) sum_i log zeta'(lambda_i): the left route's plus
    :func:`_reduction_weight`, on the left route's map values. Agreement
    validates the entire decomposition chain end to end at small n, with
    no sampling noise. ``modes`` defaults to the spectrum's truncation,
    every mode it keeps; ``gh_nodes`` is ignored.

    Both routes share one ordered Gauss-Legendre rule in the map's
    Chebyshev variable (:func:`_linearization_rule`), whose sinh change
    of variables resolves the integrand's near-real singularity, the
    map's, with few nodes (Tee and Trefethen, SIAM J. Sci. Comput. 28,
    2006). The node count climbs ``_LINEARIZATION_LADDER`` until the
    left route moves by at most ``_LINEARIZATION_TOL`` relative from the
    previous rung; ``gl_nodes`` and ``quadrature_change`` record the rung
    and that move. The right route is evaluated once, on that rule: the
    identity holds pointwise, so the rule's error cancels between the
    routes. Raises "unresolved-quadrature" if no rung within
    ``_LINEARIZATION_BUDGET`` configurations resolves the left route,
    and "dimension-too-large" outside 1 <= n <= 3: the rule has nodes^n
    rows, and at n=4 none within the budget resolves.
    """
    n = int(n)
    if not 1 <= n <= 3:
        raise UsageError("dimension-too-large", f"the linearization check supports 1 <= n <= 3, got {n}")
    modes = spectrum.truncation if modes is None else int(min(modes, len(spectrum.eigenvalues)))

    prev, change = None, np.inf
    for m in (m for m in _LINEARIZATION_LADDER if m**n <= _LINEARIZATION_BUDGET):
        # configurations share their coordinates: evaluate the map and the
        # modes once per distinct coordinate
        nodes, where, logw = _linearization_rule(eq, tmap, n, m)
        obs = np.asarray(observable(nodes[where]), dtype=float)
        zeta, zp = tmap.value_and_derivative(nodes)
        log_zp = np.log(zp)
        log_exact = _log_density_ordered(eq.potential.v, beta, n, zeta[where]) + log_zp[where].sum(axis=1) + logw
        we = np.exp(log_exact - log_exact.max())
        left = float((we @ obs) / we.sum())
        if prev is not None:
            change = abs(left - prev) / max(abs(left), 1e-30)
            if change <= _LINEARIZATION_TOL:
                break
        prev = left
    else:
        raise NumericalError(
            "unresolved-quadrature",
            f"the linearization check's left route still moves by {change:.3g} relative at "
            f"{m} nodes per level, the largest rule within {_LINEARIZATION_BUDGET} configurations",
        )

    log_full = log_exact + _reduction_weight(eq, spectrum, modes, beta, nodes, where, zeta, log_zp)
    wfull = np.exp(log_full - log_full.max())
    right = float((wfull @ obs) / wfull.sum())

    scale = max(abs(left), abs(right), 1e-30)
    return LinearizationResult(
        left=left,
        right=right,
        rel_discrepancy=abs(left - right) / scale,
        n=n,
        beta=float(beta),
        modes=modes,
        gl_nodes=m,
        quadrature_change=change,
    )
