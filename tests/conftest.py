import contextlib
import tracemalloc
from types import SimpleNamespace

import pytest

from betalab import operators as ops
from betalab.equilibrium import solve_equilibrium
from betalab.potentials import make_potential
from betalab.transport import solve_transport

QUARTIC_G = 0.1


@contextlib.contextmanager
def traced_peak():
    """Peak bytes allocated inside the block, above what was held on entry.

    numpy reports its array buffers to tracemalloc, so the peak counts
    every array a stage holds at once; LAPACK and FFT workspaces are not
    counted. Use as ``with traced_peak() as peak: ...``, then read
    ``peak.bytes``.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    peak = SimpleNamespace(bytes=None)
    try:
        yield peak
    finally:
        peak.bytes = tracemalloc.get_traced_memory()[1] - base
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="session")
def gauss_eq():
    return solve_equilibrium(make_potential("gaussian"))


@pytest.fixture(scope="session")
def quartic_eq():
    return solve_equilibrium(make_potential("even-quartic", g=QUARTIC_G))


@pytest.fixture(scope="session")
def gauss_tmap(gauss_eq):
    return solve_transport(gauss_eq)


@pytest.fixture(scope="session")
def quartic_tmap(quartic_eq):
    return solve_transport(quartic_eq)


@pytest.fixture(scope="session")
def gauss_spectrum(gauss_tmap):
    grid = ops.cheb_grid(256, gauss_tmap.eq.interval)
    return ops.eigendecompose(ops.kernel_matrix(gauss_tmap, grid), grid)


@pytest.fixture(scope="session")
def quartic_spectrum(quartic_tmap):
    grid = ops.cheb_grid(256, quartic_tmap.eq.interval)
    return ops.eigendecompose(ops.kernel_matrix(quartic_tmap, grid), grid)


@pytest.fixture(scope="session")
def sample_cache():
    """Memoized sampler calls so expensive ensembles are drawn once."""
    from betalab import ensembles as ens

    store = {}

    def get(kind, **kw):
        key = (kind, tuple(sorted(kw.items())))
        if key not in store:
            if kind == "gaussian":
                store[key] = ens.sample_gaussian(**kw)
            elif kind == "mcmc-quartic":
                pot = make_potential("even-quartic", g=QUARTIC_G)
                eq = solve_equilibrium(pot)
                store[key] = ens.sample_mcmc(pot, eq=eq, **kw)
            elif kind == "mcmc-gaussian":
                pot = make_potential("gaussian")
                eq = solve_equilibrium(pot)
                store[key] = ens.sample_mcmc(pot, eq=eq, **kw)
            else:
                raise KeyError(kind)
        return store[key]

    return get


def pytest_addoption(parser):
    parser.addoption(
        "--skip-slow",
        action="store_true",
        default=False,
        help="skip the long-running sampling suites",
    )


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--skip-slow"):
        return
    marker = pytest.mark.skip(reason="--skip-slow given")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(marker)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running sampling suite")
