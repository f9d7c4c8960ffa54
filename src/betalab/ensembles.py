"""Samplers and deterministic quadrature for n-point log-gas ensembles.

Three routes to the same family of laws, kept deliberately independent so
they can cross-validate each other:

* a tridiagonal-matrix sampler for the reference quadratic potential
  (exact in law at every n and beta, cheap at large n). Up to order 32
  its eigenvalues come from numpy's stacked dense solve; above that from
  LAPACK's O(n**2) tridiagonal solver in scipy.linalg, which is imported
  at the first call that needs it, so that start-up loads no scipy,
* a Metropolis sampler for arbitrary potentials (single-site moves plus
  collective shift and dilation moves, which are what make global linear
  statistics mix at large n),
* an ordered-region Gauss-Legendre quadrature for tiny n, which is
  deterministic and serves as the ground truth at n <= 4. It streams the
  grid in chunks that fix the n - 2 largest coordinates, so a chunk holds
  at most nodes**2 rows whatever n is.

Both samplers condition on every eigenvalue lying inside the truncation
window, so their laws agree exactly, not just asymptotically.

The Metropolis kernel is site-major: the chains sit as the columns of one
(n, chains) array, a site move takes one log of a ratio product per chain
instead of n logs, and V is cached per site and chain. Each chain draws
its randomness from its own counter-based stream, a chunk of sweeps per
call.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily; load it with the package instead

from . import operators as ops
from .equilibrium import SEMICIRCLE_MODES, _invert_cdf
from .errors import NumericalError, UsageError
from .potentials import Potential

_MAGIC = b"BLSAMP01"
_MASK64 = (1 << 64) - 1
_DRAW_CAP = 1 << 16  # draws of each kind per chunk of Metropolis sweeps, over all chains
# diagonal entries drawn per block of reference configurations; the dense
# route's full matrices then hold at most 2**15 * 32 entries (8 MiB)
_BLOCK_ENTRIES = 1 << 15
# Up to this order the stacked dense solve beats the per-matrix LAPACK
# tridiagonal solve at every count (1000 matrices: 4 ms against 38 ms at
# n = 8, 41 ms against 68 ms at n = 32) and needs no scipy; from order 33
# it is 1.3x slower at n = 39 and its n**3 cost keeps growing.
_DENSE_MAX_ORDER = 32
# sample_mcmc refuses a chain whose integrated autocorrelation time exceeds this
_MAX_IAT = 200.0
# sample_mcmc's sweeps per chain that tune the proposal widths (in blocks
# of 10), and then measure the autocorrelation time
_TUNE_SWEEPS = 120
_MEASURE_SWEEPS = 120


@dataclass
class EnsembleSample:
    """A batch of sorted eigenvalue configurations with provenance."""

    configs: np.ndarray
    beta: float
    n: int
    window: tuple
    kind: str
    potential_label: str
    seed: int
    diagnostics: dict

    @property
    def count(self) -> int:
        return self.configs.shape[0]


def _validate_common(n, beta, count, window):
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise UsageError("invalid-spec", f"need integer n >= 2, got {n!r}")
    if beta <= 0:
        raise UsageError("invalid-spec", f"beta must be positive, got {beta}")
    if count < 1:
        raise UsageError("invalid-spec", f"count must be >= 1, got {count}")
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise UsageError("invalid-spec", f"empty window {window!r}")
    return lo, hi


def _stream(seed: int, index: int) -> np.random.Generator:
    key = np.array([int(seed) & _MASK64, int(index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ----------------------------------------------------------------------
# tridiagonal sampler (reference potential)


def sample_gaussian(
    n: int,
    beta: float,
    count: int,
    seed: int = 0,
    window=(-2.1, 2.1),
    max_tries: int = 1000,
) -> EnsembleSample:
    """Exact sampler of the reference ensemble, conditioned on the window.

    Each configuration is the spectrum of an independent symmetric
    tridiagonal matrix with Gaussian diagonal and chi-distributed
    off-diagonal entries, scaled so the spectral law concentrates on the
    reference interval. Whole configurations with any eigenvalue outside
    the window are redrawn, which implements exact conditioning. Each
    configuration index has its own counter-based stream, so results are
    reproducible and extendable in ``count``. Configurations are drawn in
    blocks, one eigenvalue call per attempt of a block, and only rejected
    configurations are redrawn. Up to order ``_DENSE_MAX_ORDER`` the
    eigenvalues come from numpy's stacked dense solve; above it from
    LAPACK's tridiagonal solver, which loads scipy.linalg at the first such
    call. Either route solves each matrix on its own, so a configuration
    is the same bits whatever else is drawn with it.
    """
    lo, hi = _validate_common(n, beta, count, window)
    configs = np.empty((count, n))
    tries_total = 0
    dfs = beta * np.arange(n - 1, 0, -1)
    solve = _dense_eigvalsh if n <= _DENSE_MAX_ORDER else _lapack_eigvalsh
    rows = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, count, rows):
        rngs = [_stream(seed, idx) for idx in range(start, min(count, start + rows))]
        pending = np.arange(len(rngs))
        for _ in range(max_tries):
            diag = np.empty((pending.size, n))
            off = np.empty((pending.size, n - 1))
            for row, j in enumerate(pending):
                diag[row] = rngs[j].standard_normal(n)
                off[row] = rngs[j].chisquare(dfs)
            diag *= np.sqrt(2.0 / (n * beta))
            off = np.sqrt(off / (n * beta))
            lam = solve(diag, off)
            tries_total += pending.size
            ok = (lam[:, 0] > lo) & (lam[:, -1] < hi)
            configs[start + pending[ok]] = lam[ok]
            pending = pending[~ok]
            if not pending.size:
                break
        else:
            raise NumericalError(
                "all-rejected",
                f"no configuration landed inside {window} in {max_tries} tries "
                f"(n={n}, beta={beta}); the window is too tight",
            )
    return EnsembleSample(
        configs=configs,
        beta=float(beta),
        n=int(n),
        window=(lo, hi),
        kind="gaussian-tridiagonal",
        potential_label="gaussian",
        seed=int(seed),
        diagnostics={"mean_tries": tries_total / count},
    )


def _dense_eigvalsh(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric tridiagonal matrices by ``np.linalg.eigvalsh`` on full ones.

    ``diag`` has shape (m, n) and ``off`` (m, n - 1), one matrix per row;
    returns (m, n), each row ascending. The stacked LAPACK solve treats
    each matrix on its own, so a row's eigenvalues do not depend on the
    other rows. Its cost grows like n**3 per matrix, so `sample_gaussian`
    uses it only up to order ``_DENSE_MAX_ORDER``.
    """
    m, n = diag.shape
    i = np.arange(n)
    full = np.zeros((m, n, n))
    full[:, i, i] = diag
    full[:, i[1:], i[:-1]] = off
    full[:, i[:-1], i[1:]] = off
    return np.linalg.eigvalsh(full)


def _lapack_eigvalsh(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """`_dense_eigvalsh`'s eigenvalues by LAPACK's tridiagonal solver, one matrix at a time.

    ``dstevd`` without eigenvectors costs O(n**2) time and O(n) memory per
    matrix; it is the driver ``scipy.linalg.eigvalsh_tridiagonal`` picks,
    called directly so each matrix skips that wrapper's validation.
    scipy.linalg takes about 0.25 s to import, so it is imported here, at
    the first sample that needs it, rather than with the package.
    """
    from scipy.linalg import get_lapack_funcs

    (stevd,) = get_lapack_funcs(("stevd",), (diag, off))
    out = np.empty(diag.shape)
    for row, (d, e) in enumerate(zip(diag, off)):
        w, _, info = stevd(d, e, compute_v=False)
        if info != 0:
            raise NumericalError("no-convergence", f"LAPACK dstevd failed (info {info})")
        out[row] = w
    return out


# ----------------------------------------------------------------------
# Metropolis sampler (general potentials)


def _semicircle_quantiles(n: int) -> np.ndarray:
    return 2.0 * np.cos(_invert_cdf(SEMICIRCLE_MODES, (np.arange(n) + 0.5) / n))


def _log_abs_prod(ratios: np.ndarray) -> np.ndarray:
    """log|prod_j ratios[j, c]| for every column c, as one log per column.

    Where the product is 0, inf or nan (overflow, underflow, an exact
    zero or an infinite ratio), that column falls back to the exact
    log-sum.
    """
    out = np.log(np.abs(np.multiply.reduce(ratios, axis=0)))
    finite = np.isfinite(out)
    if not finite.all():
        bad = ~finite
        out[bad] = np.log(np.abs(ratios[:, bad])).sum(axis=0)
    return out


def _sweep_block(
    vfun,
    beta: float,
    lt: np.ndarray,
    widths: np.ndarray,
    window,
    z: np.ndarray,
    logu: np.ndarray,
    collect=None,
) -> np.ndarray:
    """Run Metropolis sweeps in place on site-major chains.

    Returns the accepted counts of the site, shift and dilation moves; a
    sweep proposes n site moves and one of each collective move per chain.

    ``lt`` holds one chain per column, shape (n, chains), so updating site
    i reads row ``lt[i]`` and every pair reduction runs down axis 0. The
    draws ``z`` (standard normals) and ``logu`` (log-uniforms) have shape
    (sweeps, n + 2, chains): rows 0..n-1 drive the site moves, row n the
    shift and row n + 1 the dilation.

    One sweep = every site once (random-walk proposals), then one
    collective shift and one collective dilation. The pair interaction
    enters a site move only through log|prod_j (prop - lam_j)/(cur - lam_j)|,
    one log per chain (`_log_abs_prod`); shift moves leave it invariant,
    and dilation moves change it by an exact closed-form amount plus the
    Jacobian, so no pair sums are ever recomputed from scratch. V is
    cached per site and chain and updated on accept, so a site move
    evaluates V once (for all sites of a sweep in one call) and the
    collective moves reuse the cached sums. A site move is accepted when
    (logu - dV)/beta < log|prod|, which is logu < dV + beta * pair
    rearranged; dV is the potential term -beta n (V(prop) - V(cur)) / 2.
    """
    lo, hi = window
    n, chains = lt.shape
    sweeps = z.shape[0]
    coef = -0.5 * beta * n
    pair_count = 0.5 * n * (n - 1)
    acc = np.zeros(3)
    vc = np.asarray(vfun(lt), dtype=float)
    num = np.empty_like(lt)
    den = np.empty_like(lt)
    ok = np.empty(lt.shape, dtype=bool)
    steps = widths[0] * z[:, :n]

    def collective(new, s, row, extra):
        vn = np.asarray(vfun(new), dtype=float)
        inside = (new.min(axis=0) > lo) & (new.max(axis=0) < hi)
        take = inside & (logu[s, row] < coef * (vn.sum(axis=0) - vc.sum(axis=0)) + extra)
        np.copyto(lt, new, where=take)
        np.copyto(vc, vn, where=take)
        return np.count_nonzero(take)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s in range(sweeps):
            # site i changes only at step i, so every proposal, its V and its
            # acceptance threshold on the pair term are known at sweep start
            props = lt + steps[s]
            vp = np.asarray(vfun(props), dtype=float)
            inside = (props > lo) & (props < hi)
            thr = np.where(inside, (logu[s, :n] - coef * (vp - vc)) / beta, np.inf)
            for i in range(n):
                row = lt[i]
                np.subtract(props[i], lt, out=num)
                np.subtract(row, lt, out=den)
                np.divide(num, den, out=num)
                num[i] = 1.0
                np.less(thr[i], _log_abs_prod(num), out=ok[i])
                np.copyto(row, props[i], where=ok[i])
            np.copyto(vc, vp, where=ok)
            acc[0] += np.count_nonzero(ok)

            acc[1] += collective(lt + widths[1] * z[s, n], s, n, 0.0)
            t = widths[2] * z[s, n + 1]
            acc[2] += collective(lt * np.exp(t), s, n + 1, beta * pair_count * t + n * t)

            if collect is not None:
                collect(lt)
    return acc


def _run_sweeps(
    vfun,
    beta: float,
    lt: np.ndarray,
    gens,
    widths: np.ndarray,
    window,
    n_sweeps: int,
    collect=None,
) -> np.ndarray:
    """Run ``n_sweeps`` sweeps of `_sweep_block`, drawing randomness in chunks of sweeps.

    Returns the accepted counts of the site, shift and dilation moves.

    Chain c draws from its own stream ``gens[c]``: the normals of a whole
    chunk in one call, then its uniforms in a second. The chunk holds at
    most ``_DRAW_CAP`` draws of each kind over all chains, so a long block
    at large n does not allocate tens of MB; it depends only on (n, chains).
    The draws land in two (chunk, n + 2, chains) buffers reused by every
    chunk, through one chain-sized staging array.
    """
    n, chains = lt.shape
    chunk = max(1, min(n_sweeps, _DRAW_CAP // ((n + 2) * chains)))
    z_buf = np.empty((chunk, n + 2, chains))
    logu_buf = np.empty_like(z_buf)
    draw = np.empty((chunk, n + 2))
    acc = np.zeros(3)
    for start in range(0, n_sweeps, chunk):
        k = min(chunk, n_sweeps - start)
        z, logu, d = z_buf[:k], logu_buf[:k], draw[:k]
        for c, g in enumerate(gens):
            z[..., c] = g.standard_normal(out=d)
        for c, g in enumerate(gens):
            logu[..., c] = g.random(out=d)
        logu += 1e-300
        np.log(logu, out=logu)
        acc += _sweep_block(vfun, beta, lt, widths, window, z, logu, collect)
    return acc


def _iat(series: np.ndarray) -> float:
    """Integrated autocorrelation time of a (sweeps, chains) series."""
    x = series - series.mean(axis=0, keepdims=True)
    t_len = x.shape[0]
    var = float(np.mean(x * x))
    if var <= 0:
        return 1.0
    s = 1.0
    for t in range(1, t_len // 3):
        c = float(np.mean(x[:-t] * x[t:])) / var
        if c < 0.05:
            break
        s += 2.0 * c
    return s


def sample_mcmc(
    potential: Potential,
    n: int,
    beta: float,
    count: int,
    seed: int = 0,
    eq=None,
    window=None,
    chains: int | None = None,
) -> EnsembleSample:
    """Metropolis sampler of the n-point law of an arbitrary potential.

    Parameters
    ----------
    eq : EquilibriumData, optional
        When given, chains start at the equilibrium quantiles (best
        burn-in behaviour); otherwise at semicircle quantiles.
    window : (float, float), optional
        Truncation window; defaults to ``potential.window``.

    Notes
    -----
    Proposal widths for the three move types are auto-tuned toward
    acceptance ~0.4. The retention lag is 5x the integrated
    autocorrelation time of the second-moment statistic measured after
    tuning; diagnostics carry the measured values (acceptance rates,
    IAT, thin, burn-in and total ``sweeps`` per chain, a ``flagged``
    verdict) so downstream consumers can judge the effective sample size.
    """
    if window is None:
        window = potential.window
    lo, hi = _validate_common(n, beta, count, window)
    if chains is None:
        chains = int(min(count, 64))
    chains = max(1, min(chains, count))

    base = eq.quantile((np.arange(n) + 0.5) / n) if eq is not None else _semicircle_quantiles(n)
    base = np.clip(base, lo + 1e-6, hi - 1e-6)
    gens = [_stream(seed, c) for c in range(chains)]
    lt = np.empty((n, chains))
    spacing = max(float(np.min(np.diff(base))), 1e-8) if n > 1 else 0.1
    for c, g in enumerate(gens):
        lt[:, c] = np.clip(base + 0.25 * spacing * g.standard_normal(n), lo + 1e-9, hi - 1e-9)

    vfun = potential.v
    widths = np.array([0.5 * spacing, 2.0 / (n * np.sqrt(beta)), 2.0 / (n * np.sqrt(beta))])
    targets = np.array([0.40, 0.35, 0.35])
    moves = chains * np.array([n, 1.0, 1.0])  # proposals per sweep: site, shift, dilation

    # tune proposal widths in short blocks
    for _ in range(_TUNE_SWEEPS // 10):
        rates = _run_sweeps(vfun, beta, lt, gens, widths, (lo, hi), 10) / (10 * moves)
        widths *= np.exp(1.0 * (rates - targets))
        widths = np.clip(widths, 1e-6, 2.0)

    # measure mixing on the second-moment statistic
    series = []
    _run_sweeps(
        vfun, beta, lt, gens, widths, (lo, hi), _MEASURE_SWEEPS,
        collect=lambda cur: series.append((cur * cur).sum(axis=0)),
    )
    series = np.stack(series)
    iat = _iat(series)
    if iat > _MAX_IAT:
        raise NumericalError(
            "poor-mixing",
            f"integrated autocorrelation time {iat:.1f} exceeds {_MAX_IAT}; "
            "the chain is not usable at this size",
        )
    thin = int(np.clip(np.ceil(5.0 * iat), 2, 1000))

    reps = int(np.ceil(count / chains))
    kept = np.empty((reps, chains, n))
    acc = np.zeros(3)
    for r in range(reps):
        acc += _run_sweeps(vfun, beta, lt, gens, widths, (lo, hi), thin)
        kept[r] = np.sort(lt.T, axis=1)
    rates = acc / (reps * thin * moves)

    configs = np.swapaxes(kept, 0, 1).reshape(chains * reps, n)[:count].copy()
    site_rate = float(rates[0])
    flagged = not 0.15 <= site_rate <= 0.7 or iat > _MEASURE_SWEEPS / 4.0
    burn_in = _TUNE_SWEEPS + _MEASURE_SWEEPS
    diagnostics = {
        "acceptance_rate": site_rate,
        "shift_acceptance": float(rates[1]),
        "dilation_acceptance": float(rates[2]),
        "proposal_width": float(widths[0]),
        "iat": float(iat),
        "thin": thin,
        "burn_in_sweeps": int(burn_in),
        "sweeps": int(burn_in + reps * thin),
        "chains": chains,
        "flagged": bool(flagged),
    }
    return EnsembleSample(
        configs=configs,
        beta=float(beta),
        n=int(n),
        window=(lo, hi),
        kind="metropolis-log-gas",
        potential_label=potential.label,
        seed=int(seed),
        diagnostics=diagnostics,
    )


# ----------------------------------------------------------------------
# deterministic tiny-n quadrature


@functools.cache
def _gl_cache(nodes: int):
    """Gauss-Legendre nodes and weights on [0, 1], computed once per node count, read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    u, w = 0.5 * (x + 1.0), 0.5 * w
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _ordered_chunks(n: int, box, nodes: int):
    """Chunks of a Gauss-Legendre grid over the increasing-coordinates region.

    Returns an iterator of (configs, logw) with configs[:, 0] <= ... <=
    configs[:, n-1] strictly (interior nodes only) and logw the log
    quadrature weight, including the level-by-level interval scalings.
    Each chunk fixes the n - 2 largest coordinates, so it holds at most
    nodes**2 rows. Raises "dimension-too-large" outside 1 <= n <= 4 at
    once, before any grid is built.
    """
    if not 1 <= n <= 4:
        raise UsageError("dimension-too-large", f"deterministic quadrature supports 1 <= n <= 4, got {n}")
    u, w = _gl_cache(nodes)
    return _grid_chunks(n, box[0], box[1], u, np.log(w), (), 0.0)


def _grid_chunks(k: int, lo: float, top: float, u, logw, outer: tuple, outer_logw: float):
    """Chunks placing k increasing coordinates in (lo, top) below the fixed `outer` ones."""
    x = lo + (top - lo) * u
    lx = outer_logw + (logw + np.log(top - lo))
    if k > 2:
        for xi, li in zip(x, lx):
            yield from _grid_chunks(k - 1, lo, xi, u, logw, (xi, *outer), li)
        return
    if k == 1:
        cols = [x]
    else:
        cols = [(lo + (x[:, None] - lo) * u).ravel(), np.repeat(x, len(u))]
        lx = (lx[:, None] + (np.log(x - lo)[:, None] + logw)).ravel()
    yield np.column_stack([*cols, *(np.full(len(lx), c) for c in outer)]), lx


def _pair_log_sum(z: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
    """Per row, the sum over pairs i < j of log|z_j - z_i|, or of
    log|(z_j - z_i) / (x_j - x_i)| when ``x`` is given.

    A loop over i takes one log over all j > i, for every row at once.
    It runs on column-major copies, so each step's sum runs down axis 0
    across rows; a sum along a short last axis costs a loop per row.
    """
    zt = np.ascontiguousarray(z.T)
    xt = None if x is None else np.ascontiguousarray(x.T)
    out = np.zeros(z.shape[0])
    for i in range(z.shape[1] - 1):
        d = zt[i + 1 :] - zt[i]
        if xt is not None:
            d /= xt[i + 1 :] - xt[i]
        out += np.log(np.abs(d)).sum(axis=0)
    return out


def _log_density_ordered(vfun, beta: float, n: int, configs: np.ndarray) -> np.ndarray:
    return -0.5 * beta * n * np.asarray(vfun(configs)).sum(axis=1) + beta * _pair_log_sum(configs)


def direct_expectation(
    potential: Potential,
    n: int,
    beta: float,
    observables,
    box=None,
    nodes: int = 96,
) -> np.ndarray:
    """Expectations of symmetric observables by exact-weight quadrature.

    Integrates over the ordered region (coordinates increasing), where
    the interaction factor is analytic for every beta > 0, so plain
    Gauss-Legendre converges spectrally; symmetry factors cancel in the
    ratio. Observables must be symmetric callables taking a (m, n) block
    of configurations and returning m values. ``box`` defaults to
    ``potential.window``, the samplers' truncation window.

    Raises "dimension-too-large" beyond n = 4.
    """
    if beta <= 0:
        raise UsageError("invalid-spec", f"beta must be positive, got {beta}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise UsageError("invalid-spec", f"need integer n >= 1, got {n!r}")
    if box is None:
        box = potential.window
    obs = list(observables)
    acc_z = 0.0
    acc_o = np.zeros(len(obs))
    cmax = -np.inf
    for configs, logw in _ordered_chunks(int(n), box, nodes):
        ld = _log_density_ordered(potential.v, beta, int(n), configs) + logw
        m = float(ld.max())
        if m > cmax:
            rescale = np.exp(cmax - m) if np.isfinite(cmax) else 0.0
            acc_z *= rescale
            acc_o *= rescale
            cmax = m
        wgt = np.exp(ld - cmax)
        acc_z += float(wgt.sum())
        for j, ob in enumerate(obs):
            acc_o[j] += float(wgt @ np.asarray(ob(configs), dtype=float))
    if acc_z <= 0 or not np.isfinite(acc_z):
        raise NumericalError("no-convergence", "quadrature normalization degenerated")
    return acc_o / acc_z


def linear_statistic(sample: EnsembleSample, h) -> np.ndarray:
    """Per-configuration sums of a test function."""
    return np.asarray(h(sample.configs), dtype=float).sum(axis=1)


# ----------------------------------------------------------------------
# binary container


def save_sample(sample: EnsembleSample, path) -> None:
    """Write the binary sample container (magic, JSON header, raw rows)."""
    header = {
        "beta": sample.beta,
        "n": sample.n,
        "count": sample.count,
        "window": list(sample.window),
        "kind": sample.kind,
        "potential_label": sample.potential_label,
        "seed": sample.seed,
        "diagnostics": sample.diagnostics,
        "dtype": "<f8",
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(sample.configs, dtype="<f8").tobytes())


def load_sample(path) -> EnsembleSample:
    """Read a container written by :func:`save_sample`. A malformed one
    (bad magic, cut short, or a header that is not its JSON with every
    key) raises "invalid-spec"."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise UsageError("invalid-spec", f"not a sample container: bad magic {magic!r}")
        try:
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen).decode("utf-8"))
            raw = fh.read()
            count, n = int(header["count"]), int(header["n"])
            fields = dict(
                beta=float(header["beta"]),
                window=tuple(header["window"]),
                kind=str(header["kind"]),
                potential_label=str(header["potential_label"]),
                seed=int(header["seed"]),
                diagnostics=dict(header["diagnostics"]),
            )
        except (struct.error, ValueError, KeyError, TypeError) as err:
            raise UsageError("invalid-spec", f"malformed sample container header: {err!r}") from err
    expect = count * n * 8
    if len(raw) != expect:
        raise UsageError(
            "invalid-spec", f"payload size {len(raw)} does not match header ({expect})"
        )
    configs = np.frombuffer(raw, dtype="<f8").reshape(count, n).copy()
    return EnsembleSample(configs=configs, n=n, **fields)
