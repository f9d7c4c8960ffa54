import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg, optimize, stats

from betalab import ensembles as ens
from betalab.errors import NumericalError, UsageError
from betalab.potentials import make_potential

import oracles

WIDE = (-10.0, 10.0)


# ----------------------------------------------------------------------
# reference sampler


def test_trace_square_identity_wide_window():
    # E sum lambda^2 = n - 1 + 2/beta exactly, provided the window cuts nothing
    n = 6
    for beta, seed in ((1.0, 1), (2.0, 2), (4.0, 3)):
        s = ens.sample_gaussian(n, beta, 4000, seed=seed, window=WIDE)
        vals = ens.linear_statistic(s, lambda x: x * x)
        want = n - 1.0 + 2.0 / beta
        se = vals.std(ddof=1) / np.sqrt(s.count)
        assert abs(vals.mean() - want) < 3.5 * se


def test_trace_identity_variance_anchor():
    # sum lambda = sum of the tridiagonal diagonal ~ N(0, 2/beta)
    for beta, seed in ((1.0, 4), (2.0, 5)):
        s = ens.sample_gaussian(8, beta, 6000, seed=seed, window=WIDE)
        tot = ens.linear_statistic(s, lambda x: x)
        want = 2.0 / beta
        se = want * np.sqrt(2.0 / (s.count - 1))
        assert abs(tot.var(ddof=1) - want) < 3.5 * se
        assert abs(tot.mean()) < 3.5 * np.sqrt(want / s.count)


def test_pooled_spectrum_near_semicircle():
    s = ens.sample_gaussian(200, 2.0, 50, seed=7)
    pooled = np.sort(s.configs.ravel())
    grid = oracles.semicircle_cdf(pooled)
    emp = (np.arange(pooled.size) + 0.5) / pooled.size
    assert np.max(np.abs(grid - emp)) < 0.03


def test_reference_sampler_reproducible_and_prefix_stable():
    a = ens.sample_gaussian(12, 2.0, 20, seed=42)
    b = ens.sample_gaussian(12, 2.0, 20, seed=42)
    assert np.array_equal(a.configs, b.configs)
    c = ens.sample_gaussian(12, 2.0, 40, seed=42)
    assert np.array_equal(c.configs[:20], a.configs)
    d = ens.sample_gaussian(12, 2.0, 20, seed=43)
    assert not np.array_equal(d.configs, a.configs)


def test_rows_sorted_and_metadata():
    s = ens.sample_gaussian(10, 1.0, 5, seed=0)
    assert np.all(np.diff(s.configs, axis=1) >= 0)
    assert s.kind == "gaussian-tridiagonal"
    assert s.count == 5 and s.n == 10 and s.beta == 1.0


def test_reference_sampler_validation():
    with pytest.raises(UsageError):
        ens.sample_gaussian(1, 2.0, 3)
    with pytest.raises(UsageError):
        ens.sample_gaussian(4, -1.0, 3)
    with pytest.raises(UsageError):
        ens.sample_gaussian(4, 2.0, 0)
    with pytest.raises(UsageError):
        ens.sample_gaussian(4, 2.0, 3, window=(0.5, 0.4))
    with pytest.raises(NumericalError) as err:
        ens.sample_gaussian(6, 2.0, 2, window=(1.9, 2.0), max_tries=40)
    assert err.value.code == "all-rejected"


def test_reference_sampler_matches_lapack_oracle():
    # Same streams, so the same draws: every configuration must be accepted
    # on the same attempt (equal mean tries, and a different attempt would
    # move the spectrum by O(1)). The dense route (n <= 32) lands within 64
    # ulps of max|lambda|; above it the sampler is the LAPACK loop itself.
    cases = ((8, 2.0, 50, (-2.05, 2.05), 5), (12, 1.0, 40, (-2.0, 2.0), 42), (32, 2.0, 30, (-2.0, 2.0), 8))
    cases += ((33, 4.0, 30, (-1.95, 1.95), 3), (60, 4.0, 30, (-1.9, 1.9), 3))
    for n, beta, count, window, seed in cases:
        s = ens.sample_gaussian(n, beta, count, seed=seed, window=window)
        want, tries = oracles.gaussian_tridiagonal_lapack(lambda i: ens._stream(seed, i), n, beta, count, window)
        assert tries.max() > 1  # the window rejects some draws
        assert s.diagnostics["mean_tries"] == tries.mean()
        if n > ens._DENSE_MAX_ORDER:
            assert np.array_equal(s.configs, want)
        ulp = np.spacing(np.abs(want).max(axis=1, keepdims=True))
        assert np.all(np.abs(s.configs - want) <= 64 * ulp)


def _gbe_rows(n, beta, m, seed):
    rng = np.random.default_rng(seed)
    diag = rng.standard_normal((m, n)) * np.sqrt(2.0 / (n * beta))
    off = np.sqrt(rng.chisquare(beta * np.arange(n - 1, 0, -1), size=(m, n - 1)) / (n * beta))
    return diag, off


def _check_against_oracles(solve, diag, off, ulps):
    lam = solve(diag, off)
    for row in range(len(diag)):
        sturm = oracles.tridiagonal_eigvals_sturm(diag[row], off[row])
        ulp = np.spacing(float(np.abs(sturm).max()))
        assert np.all(np.abs(lam[row] - sturm) <= ulps * ulp)
        lapack = linalg.eigvalsh_tridiagonal(diag[row], off[row])
        assert np.all(np.abs(lam[row] - lapack) <= ulps * ulp)
    return lam


@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
def test_tridiagonal_eigvals_match_lapack_and_sturm(beta):
    for n, m in ((2, 20), (7, 10), (32, 6), (100, 4)):
        diag, off = _gbe_rows(n, beta, m, seed=int(10 * beta) + n)
        for solve in (ens._dense_eigvalsh, ens._lapack_eigvalsh):
            _check_against_oracles(solve, diag, off, ulps=64)


def test_dense_eigvals_structured_matrices():
    dense = ens._dense_eigvalsh
    # exact zeros off the diagonal: a diagonal matrix comes back exactly
    d = np.array([[3.0, -1.0, 2.0, 0.5, 2.0]])
    assert np.array_equal(dense(d, np.zeros((1, 4))), np.sort(d, axis=1))
    # uncoupled blocks, and zero pivots in the LDL^T factors of T - d_0 I
    _check_against_oracles(dense, np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]), np.array([[1.0, 0.0, 1.0, 0.5, 0.0]]), 8)
    _check_against_oracles(dense, np.array([[-1.0, 0.0, 0.0]]), np.array([[1.0, 1.0]]), 8)
    path = dense(np.zeros((1, 32)), np.ones((1, 31)))  # eigenvalues 2 cos(k pi / 33)
    assert np.allclose(path[0], np.sort(2.0 * np.cos(np.arange(1, 33) * np.pi / 33)), rtol=0, atol=1e-14)
    # Wilkinson W21+: its top eigenvalues come in pairs closer than 1e-12
    w21 = np.abs(np.arange(-10.0, 11.0))[None]
    lam = _check_against_oracles(dense, w21, np.ones((1, 20)), 8)
    assert lam[0, -1] - lam[0, -2] < 1e-12


def test_tridiagonal_eigvals_independent_of_batch():
    for solve, n in ((ens._dense_eigvalsh, 3), (ens._dense_eigvalsh, 32), (ens._lapack_eigvalsh, 40)):
        diag, off = _gbe_rows(n, 2.0, 12, seed=n)
        batch = solve(diag, off)
        alone = np.concatenate([solve(diag[i : i + 1], off[i : i + 1]) for i in range(12)])
        assert np.array_equal(batch, alone)
        perm = np.random.default_rng(n).permutation(12)
        assert np.array_equal(solve(diag[perm], off[perm]), batch[perm])


def test_reference_sampler_prefix_stable_across_blocks():
    # a count spanning several draw blocks, above and below the dense order
    for n in (30, 40):
        rows = ens._BLOCK_ENTRIES // n
        big = ens.sample_gaussian(n, 2.0, 2 * rows + 3, seed=6)
        small = ens.sample_gaussian(n, 2.0, rows + 1, seed=6)
        assert np.array_equal(big.configs[: rows + 1], small.configs)


# ----------------------------------------------------------------------
# Metropolis sampler


def test_mcmc_matches_reference_law(sample_cache):
    n = 24
    a = sample_cache("mcmc-gaussian", n=n, beta=2.0, count=400, seed=3)
    b = ens.sample_gaussian(n, 2.0, 400, seed=9, window=a.window)
    ks = stats.ks_2samp(a.configs.ravel(), b.configs.ravel()).statistic
    assert ks < 0.05


def test_mcmc_quartic_single_particle_law(sample_cache):
    s = sample_cache("mcmc-quartic", n=60, beta=2.0, count=240, seed=11)
    xs = np.linspace(-2.0, 2.0, 1201)
    cdf_grid = np.array([oracles.quartic_cdf_oracle(0.1, t) for t in xs[1:-1]])
    cdf_grid = np.concatenate([[0.0], cdf_grid, [1.0]])
    pooled = np.sort(np.clip(s.configs.ravel(), -2.0, 2.0))
    emp = (np.arange(pooled.size) + 0.5) / pooled.size
    assert np.max(np.abs(np.interp(pooled, xs, cdf_grid) - emp)) < 0.05


def test_mcmc_deterministic_and_diagnosed(sample_cache):
    from betalab.equilibrium import solve_equilibrium

    a = sample_cache("mcmc-gaussian", n=24, beta=2.0, count=400, seed=3)
    pot = make_potential("gaussian")
    b = ens.sample_mcmc(pot, 24, 2.0, 400, seed=3, eq=solve_equilibrium(pot))
    assert np.array_equal(a.configs, b.configs)
    d = a.diagnostics
    for key in (
        "acceptance_rate",
        "shift_acceptance",
        "dilation_acceptance",
        "proposal_width",
        "iat",
        "thin",
        "burn_in_sweeps",
        "sweeps",
        "chains",
        "flagged",
    ):
        assert key in d
    assert 0.15 < d["acceptance_rate"] < 0.75
    assert d["thin"] >= 2
    reps = -(-a.count // d["chains"])
    assert d["sweeps"] == d["burn_in_sweeps"] + reps * d["thin"]
    assert np.all(np.diff(a.configs, axis=1) >= 0)


def _draws(rng, sweeps, n, chains):
    return rng.standard_normal((sweeps, n + 2, chains)), np.log(rng.random((sweeps, n + 2, chains)))


def _both_routes(lam, widths, z, logu, beta, window=(-2.1, 2.1)):
    """Run the site-major kernel and the log-sum oracle on the same start and draws."""
    vfun = make_potential("even-quartic", g=0.1).v
    want = lam.copy()
    acc_o = oracles.metropolis_sweeps_logsum(vfun, beta, want, widths, window, z, logu)
    lt = np.ascontiguousarray(lam.T)
    acc = ens._sweep_block(vfun, beta, lt, widths, window, z, logu)
    return (acc, lt.T), (acc_o, want)


@pytest.mark.parametrize("n", [2, 3, 24])
@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
def test_site_major_kernel_matches_logsum_oracle(n, beta):
    rng = np.random.default_rng(1000 * n + int(beta))
    chains, sweeps = 8, 25
    lam = np.sort(rng.uniform(-1.8, 1.8, (chains, n)), axis=1)
    widths = np.array([1.0 / n, 2.0 / (n * np.sqrt(beta)), 2.0 / (n * np.sqrt(beta))])
    z, logu = _draws(rng, sweeps, n, chains)
    (acc, got), (acc_o, want) = _both_routes(lam, widths, z, logu, beta)
    assert np.array_equal(acc, acc_o)
    # every move type is both accepted and rejected
    assert np.all((acc > 0) & (acc < sweeps * chains * np.array([n, 1, 1])))
    assert np.max(np.abs(got - want)) < 1e-12


def test_pair_product_fallback_matches_logsum():
    m = 400
    fine = np.random.default_rng(5).uniform(0.5, 2.0, m)
    cols = {
        "fine": fine,
        "overflow": np.full(m, 10.0),
        "overflow-signed": np.where(np.arange(m) % 3 == 0, -10.0, 10.0),
        "underflow": np.full(m, 0.1),
        "zero": np.concatenate([[0.0], fine[1:]]),
        "inf": np.concatenate([[np.inf], fine[1:]]),
        "zero-and-inf": np.concatenate([[0.0, -np.inf], fine[2:]]),
    }
    ratios = np.column_stack(list(cols.values()))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        prod = np.multiply.reduce(ratios, axis=0)
        want = np.log(np.abs(ratios)).sum(axis=0)
        got = ens._log_abs_prod(ratios)
    assert np.isfinite(prod[0]) and prod[0] != 0.0
    assert np.all(np.isinf(prod[1:3])) and prod[3] == 0.0 and prod[4] == 0.0
    assert np.isinf(prod[5]) and np.isnan(prod[6])
    np.testing.assert_allclose(got[:4], want[:4], rtol=1e-12, atol=0.0)
    assert got[4] == want[4] == -np.inf and got[5] == want[5] == np.inf
    for u in (-1e300, 0.0, 1e300):
        assert np.array_equal(u < got, u < want)

    # the same cases inside the kernel: chain 0 moves site 0 from 2.0 to 0.2
    # while 399 sites sit near 0, so its ratio product underflows and the
    # cluster's own moves overflow; chain 1 proposes exactly onto a neighbour
    n = 400
    lam = np.empty((2, n))
    lam[0] = np.concatenate([[2.0], np.linspace(-1e-3, 1e-3, n - 1)])
    lam[1] = np.linspace(-1.5, 1.5, n)
    widths = np.array([1.0, 1e-3, 1e-3])
    z, logu = _draws(np.random.default_rng(6), 1, n, 2)
    z[0, n:] = 0.0  # collective moves propose the configuration itself
    z[0, 0, 0] = -1.8
    z[0, 5, 1] = (lam[1, 6] - lam[1, 5]) / widths[0]
    assert lam[1, 5] + widths[0] * z[0, 5, 1] == lam[1, 6]
    (acc, got), (acc_o, want) = _both_routes(lam, widths, z, logu, 2.0)
    assert np.array_equal(acc, acc_o)
    assert got[0, 0] == 2.0 and got[1, 5] == lam[1, 5]
    assert np.max(np.abs(got - want)) < 1e-12


def test_mcmc_validation():
    pot = make_potential("gaussian")
    with pytest.raises(UsageError):
        ens.sample_mcmc(pot, 8, 0.0, 4)
    with pytest.raises(UsageError):
        ens.sample_mcmc(pot, 8, 2.0, 4, window=(2.0, 1.0))


# ----------------------------------------------------------------------
# deterministic tiny-n expectations


def test_semicircle_quantiles_match_brentq_oracle():
    for n in (1, 2, 7, 200):
        q = (np.arange(n) + 0.5) / n
        want = [optimize.brentq(lambda t, qi=qi: oracles.semicircle_cdf(t) - qi, -2.0, 2.0, xtol=1e-15) for qi in q]
        assert np.max(np.abs(ens._semicircle_quantiles(n) - want)) < 1e-13


def test_direct_expectation_matches_double_quadrature():
    pot = make_potential("even-quartic", g=0.1)
    box = (-2.1, 2.1)
    obs = [
        lambda c: (c**2).sum(axis=1),
        lambda c: np.cos(c).sum(axis=1),
    ]
    for beta in (1.0, 2.0):
        got = ens.direct_expectation(pot, 2, beta, obs, box=box)
        want_sq = oracles.pair_expectation_oracle(
            pot.v, 2, beta, lambda x, y: x * x + y * y, box
        )
        want_cos = oracles.pair_expectation_oracle(
            pot.v, 2, beta, lambda x, y: np.cos(x) + np.cos(y), box
        )
        assert abs(got[0] - want_sq) < 1e-9
        assert abs(got[1] - want_cos) < 1e-9


def test_direct_expectation_symmetry():
    pot = make_potential("gaussian")
    got = ens.direct_expectation(pot, 3, 2.0, [lambda c: c.sum(axis=1)])
    assert abs(got[0]) < 1e-12


def test_direct_expectation_dimension_guard(monkeypatch):
    pot = make_potential("gaussian")

    def no_grid(nodes):
        raise AssertionError("quadrature grid built before the dimension check")

    monkeypatch.setattr(ens, "_gl_cache", no_grid)
    with pytest.raises(UsageError) as err:
        ens.direct_expectation(pot, 5, 2.0, [lambda c: c.sum(axis=1)])
    assert err.value.code == "dimension-too-large"
    # the chunk iterator refuses on the call itself, not on first iteration
    for n in (0, 5):
        with pytest.raises(UsageError) as err:
            ens._ordered_chunks(n, (-2.0, 2.0), 96)
        assert err.value.code == "dimension-too-large"


@pytest.mark.parametrize("n, nodes", [(1, 96), (2, 96), (3, 96), (4, 8)])
def test_ordered_chunks_match_dense_grid(n, nodes):
    box = (-2.1, 2.1)
    chunks = list(ens._ordered_chunks(n, box, nodes))
    assert max(len(c) for c, _ in chunks) <= nodes**2
    configs, logw = map(np.concatenate, zip(*chunks))
    want_configs, want_logw = oracles.ordered_grid_dense(n, box, nodes)
    got, want = np.lexsort(configs.T), np.lexsort(want_configs.T)
    assert np.array_equal(configs[got], want_configs[want])
    assert np.max(np.abs(logw[got] - want_logw[want])) < 1e-14


@pytest.mark.parametrize("kind, params", [("gaussian", {}), ("even-quartic", {"g": 0.1})])
@pytest.mark.parametrize("n, nodes", [(2, 96), (3, 96), (4, 24)])
def test_direct_expectation_matches_dense_grid(kind, params, n, nodes):
    pot = make_potential(kind, **params)
    obs = [lambda c: (c * c).sum(axis=1), lambda c: c[:, -1]]  # square, largest
    got = ens.direct_expectation(pot, n, 2.0, obs, nodes=nodes)
    want = oracles.ordered_grid_expectation(pot.v, n, 2.0, obs, pot.window, nodes)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_direct_expectation_memory_is_bounded():
    # n=3 at 96 nodes is 96 chunks of 9,216 rows; as one 884,736-row block
    # with its density temporaries it costs about 100 MB
    root = Path(__file__).resolve().parent.parent
    script = """
import resource
from betalab.ensembles import direct_expectation
from betalab.potentials import make_potential

pot = make_potential("even-quartic", g=0.1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
direct_expectation(pot, 3, 2.0, [lambda c: (c * c).sum(axis=1), lambda c: c[:, -1]])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    # ru_maxrss survives exec, so a child of this (large) test process would
    # start at its peak; a small interpreter in between starts the measurement
    hop = "import subprocess, sys; sys.exit(subprocess.call([sys.executable, '-c', sys.argv[1]]))"
    proc = subprocess.run([sys.executable, "-c", hop, script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 < 25


def test_linear_statistic_shape():
    s = ens.sample_gaussian(6, 2.0, 11, seed=1)
    vals = ens.linear_statistic(s, np.cos)
    assert vals.shape == (11,)
    assert np.allclose(vals, np.cos(s.configs).sum(axis=1))


# ----------------------------------------------------------------------
# container


def test_container_roundtrip(tmp_path):
    s = ens.sample_gaussian(9, 4.0, 7, seed=13)
    path = tmp_path / "draw.samples.bin"
    ens.save_sample(s, path)
    back = ens.load_sample(path)
    assert np.array_equal(back.configs, s.configs)
    assert back.beta == s.beta and back.n == s.n and back.count == s.count
    assert back.kind == s.kind and back.seed == s.seed
    assert tuple(back.window) == tuple(s.window)


def test_container_rejects_garbage(tmp_path):
    path = tmp_path / "bad.samples.bin"
    path.write_bytes(b"NOTASAMPLEFILE----")
    with pytest.raises(UsageError):
        ens.load_sample(path)


def test_container_rejects_truncation(tmp_path):
    s = ens.sample_gaussian(6, 2.0, 4, seed=2)
    path = tmp_path / "cut.samples.bin"
    ens.save_sample(s, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(UsageError):
        ens.load_sample(path)
    # cut inside the length field, cut inside the header, and a header
    # without one of its keys: each is the same coded refusal
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + hlen])
    del header["seed"]
    blob = json.dumps(header).encode("utf-8")
    for bad in (raw[:10], raw[: 12 + hlen // 2], raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen :]):
        path.write_bytes(bad)
        with pytest.raises(UsageError) as err:
            ens.load_sample(path)
        assert err.value.code == "invalid-spec"
