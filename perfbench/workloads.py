"""The benchmark's three workloads and the correctness gate they share.

Each workload is one pass of public betalab calls, made through a
:class:`tracer.Tracer`. Every certificate the pass produces is checked
against the ``betalab verify`` tolerance table (:data:`TOLERANCES`), and
every sampling output against a 5-sigma statistical gate; each check is
one operation of the pass, counted by :class:`Gate`.

Why these workloads:

* ``verify`` is the ``betalab verify`` call sequence for even-quartic
  g=0.1, beta=2: the time to a certified answer. Its linearization check
  dominates it and is the only workload that calls it.
* ``spectral_sweep`` runs the deterministic chain (equilibrium, transport,
  kernel spectrum, contraction, energy identity) over eight potentials. No
  sampler runs, so operator and transport changes show here alone. The
  g=0.7 and g=0.8 quartics are kept on purpose: their transport
  certificates fail at the parent commit.
* ``sampling`` is the Metropolis sampler at n=100 with the CLI's other
  defaults, the reports built on its output, and a tiny-n leg where
  per-sweep overhead rather than pair sums sets the cost.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from betalab import ensembles as ens
from betalab import operators as ops
from betalab import universality as uni
from betalab.equilibrium import solve_equilibrium
from betalab.errors import BetalabError, NumericalError
from betalab.potentials import make_potential, normalize_support, support_endpoints
from betalab.transport import solve_transport

# The `betalab verify` tolerance table: a certificate passes when value < tolerance.
TOLERANCES = {
    "equilibrium-residual": 1e-7,
    "equilibrium-mass": 1e-8,
    "transport-residual": 1e-7,
    "transport-overlap": 1e-8,
    "inversion-identity": 1e-6,
    "route-agreement": 1e-6,
    "contraction-norm": 1.0 - 1e-3,
    "deformation-constancy": 1e-6,
    "energy-identity": 1e-6,
    "linearization": 1e-3,
}
# 5 sigma, not the tests' 3, so a correct sampler fails on any seed with
# negligible probability.
Z_MAX = 5.0
KS_SLACK = 0.02
DOUBLE_EPS = 2.2e-16

BETA = 2.0
EPS = 0.2  # CLI default domain margin
WINDOW = (-(2.0 + 0.5 * EPS), 2.0 + 0.5 * EPS)  # the CLI's sampling window for that margin
# `betalab verify` uses the default 24 Gauss-Hermite nodes per mode. The cost
# grows as nodes**modes, so 24 nodes (about 68 s per pass) cannot fit the
# benchmark's time budget; 12 nodes reproduce the same rel_discrepancy to 10
# digits in about 7 s, still about 85% of the pass.
LINEARIZATION_GH_NODES = 12
# The CLI samples n=200 by default. One such pass takes about 17 s, so a run
# holds only two passes and its median follows the host's drift; at n=100 a
# pass takes about 7 s, pair sums are still about half of the sampler's
# cost, and a 45 s run holds three or four passes.
LARGE_N = 100

H_BANK = {  # the CLI's `clt` test functions and derivatives
    "lambda": (lambda x: x, lambda x: np.ones_like(x)),
    "lambda2": (lambda x: x * x, lambda x: 2.0 * x),
    "cos": (np.cos, lambda x: -np.sin(x)),
}
ORACLE_BANK = {
    "square": lambda c: (c * c).sum(axis=1),
    "largest": lambda c: c[:, -1],
}
SWEEP = [
    ("gaussian", {}),
    *(("even-quartic", {"g": g}) for g in (-0.1, 0.1, 0.3, 0.5, 0.7, 0.8)),
    ("polynomial", {"coeffs": [0.0, 0.05, 0.55, 0.01, 0.02]}),
]
CHAIN_CERTS = [
    "equilibrium-residual",
    "equilibrium-mass",
    "transport-residual",
    "transport-overlap",
    "contraction-norm",
    "deformation-constancy",
    "energy-identity",
]


@dataclass
class Op:
    name: str
    value: float | None
    limit: float | None
    ok: bool
    certificate: bool


class Gate:
    """Counts operations and their failures for one pass."""

    def __init__(self):
        self.ops: list[Op] = []

    def certificate(self, label: str, kind: str, value) -> None:
        """A deterministic certificate, checked against the verify table."""
        value = float(value)
        tol = TOLERANCES[kind]
        self.ops.append(Op(f"{label}:{kind}", value, tol, bool(value < tol), True))

    def below(self, name: str, value, limit) -> None:
        """A statistical check: passes when value < limit."""
        value = float(value)
        self.ops.append(Op(name, value, float(limit), bool(value < limit), False))

    def expect(self, name: str, ok: bool) -> None:
        self.ops.append(Op(name, None, None, bool(ok), False))

    @contextmanager
    def leg(self, planned):
        """Run a dependent sequence of calls; if one raises a BetalabError,
        every planned operation not yet recorded counts as failed."""
        start = len(self.ops)
        try:
            yield
        except BetalabError:
            done = {op.name for op in self.ops[start:]}
            self.ops.extend(Op(name, None, None, False, False) for name in planned if name not in done)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)

    def cert_digits(self) -> float:
        """Mean of log10(tolerance / value) over the certificates with a value."""
        digits = [
            math.log10(op.limit / max(op.value, DOUBLE_EPS))
            for op in self.ops
            if op.certificate and math.isfinite(op.value)
        ]
        return sum(digits) / len(digits) if digits else 0.0


def check_gate() -> None:
    """Self-check: injected out-of-tolerance results must count as failures."""
    gate = Gate()
    gate.certificate("probe", "transport-residual", 3.1e-4)  # the g=0.8 value
    gate.certificate("probe", "transport-overlap", 3.0e-13)
    gate.certificate("probe", "energy-identity", float("nan"))
    gate.below("probe:z", Z_MAX, Z_MAX)
    with gate.leg(["probe:a", "probe:b"]):
        gate.expect("probe:a", True)
        raise NumericalError("ode-failure", "injected")
    if (gate.attempted, gate.failed) != (6, 4):
        raise RuntimeError(f"gate self-check: {gate.failed} of {gate.attempted} failed, want 4 of 6")


def _peak(stats: dict, name: str, value) -> None:
    stats[name] = max(stats.get(name, -math.inf), float(value))


def _add(stats: dict, name: str, value) -> None:
    stats[name] = stats.get(name, 0.0) + float(value)


def _identity_configs(seed: int, t, stats: dict) -> np.ndarray:
    """The 50 reference configurations (n=8) of the energy-identity check."""
    smp = t.call(ens.sample_gaussian, 8, BETA, 50, seed=seed + 5, window=(-2.05, 2.05))
    stats["ensembles.gaussian_accept_ratio"] = 1.0 / smp.diagnostics["mean_tries"]
    return smp.configs


def _solve(pot, label: str, t, gate: Gate, stats: dict):
    eq = t.call(solve_equilibrium, pot, contour_nodes=512, grid_nodes=256)
    gate.certificate(label, "equilibrium-residual", eq.v_residual)
    gate.certificate(label, "equilibrium-mass", abs(eq.mass - 1.0))
    _peak(stats, "equilibrium.v_residual_max", eq.v_residual)
    return eq


def _transport(eq, label: str, t, gate: Gate, stats: dict):
    tmap = t.call(solve_transport, eq, delta_e=0.1, edge_count=32)
    gate.certificate(label, "transport-residual", tmap.residual_max)
    gate.certificate(label, "transport-overlap", tmap.overlap_max)
    _peak(stats, "transport.residual_max", tmap.residual_max)
    _peak(stats, "transport.overlap_max", tmap.overlap_max)
    _add(stats, "transport.interior_coeffs", len(tmap.interior_cheb))
    return tmap


def _spectral(eq, tmap, configs, label: str, t, gate: Gate, stats: dict):
    grid = t.call(ops.cheb_grid, 256, tmap.eq.interval)
    spec = t.call(ops.eigendecompose, t.call(ops.kernel_matrix, tmap, grid), grid)
    cm = t.call(ops.contraction_matrices, spec)
    norm = max(cm.norm_plus, cm.norm_minus)
    gate.certificate(label, "contraction-norm", norm)
    gate.certificate(label, "deformation-constancy", t.call(ops.deformation_residual, eq, tmap).residual)
    hid = t.call(uni.hamiltonian_identity_residual, eq, tmap, spec, BETA, configs)
    gate.certificate(label, "energy-identity", hid.residual)
    _add(stats, "operators.truncation", spec.truncation)
    _add(stats, "operators.stored_modes", spec.stored)
    _peak(stats, "operators.contraction_norm_max", norm)
    _peak(stats, "universality.energy_identity_residual_max", hid.residual)
    return spec


def verify(seed: int, t, gate: Gate, stats: dict, scratch: Path) -> None:
    """`betalab verify` for even-quartic g=0.1, beta=2; seed 0 draws the CLI's probes."""
    label = "verify"
    with gate.leg([f"{label}:{kind}" for kind in TOLERANCES]):
        pot = t.call(make_potential, "even-quartic", eps=EPS, g=0.1)
        eq = _solve(pot, label, t, gate, stats)
        tmap = _transport(eq, label, t, gate, stats)

        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(10):
            c = rng.standard_normal(7) / np.arange(1.0, 8.0) ** 2
            worst = max(worst, t.call(ops.rank_one_identity_residual, functools.partial(ops.cheb_val, c)))
        gate.certificate(label, "inversion-identity", worst)
        worst = 0.0
        for _ in range(10):
            poly = np.polynomial.Polynomial(rng.standard_normal(int(rng.integers(2, 11)) + 1))
            worst = max(worst, t.call(ops.cov_form, poly, h_prime=poly.deriv()).rel_discrepancy)
        gate.certificate(label, "route-agreement", worst)

        configs = _identity_configs(seed, t, stats)
        spec = _spectral(eq, tmap, configs, label, t, gate, stats)
        lin = t.call(
            uni.linearization_check, eq, tmap, spec, BETA, ORACLE_BANK["square"],
            n=2, modes=3, gh_nodes=LINEARIZATION_GH_NODES,
        )
        gate.certificate(label, "linearization", lin.rel_discrepancy)
        stats["universality.linearization_rel_discrepancy"] = lin.rel_discrepancy


def _label(kind: str, params: dict) -> str:
    return f"{kind}[g={params['g']}]" if "g" in params else kind


def spectral_sweep(seed: int, t, gate: Gate, stats: dict, scratch: Path) -> None:
    """The deterministic chain for each potential of :data:`SWEEP`."""
    labels = [_label(kind, params) for kind, params in SWEEP]
    with gate.leg([f"{label}:{c}" for label in labels for c in CHAIN_CERTS]):
        configs = _identity_configs(seed, t, stats)
        for label, (kind, params) in zip(labels, SWEEP):
            with gate.leg([f"{label}:{c}" for c in CHAIN_CERTS]), t.span(label):
                pot = t.call(make_potential, kind, eps=EPS, **params)
                if kind == "polynomial":
                    pot, _ = t.call(normalize_support, pot, t.call(support_endpoints, pot))
                eq = _solve(pot, label, t, gate, stats)
                tmap = _transport(eq, label, t, gate, stats)
                _spectral(eq, tmap, configs, label, t, gate, stats)


def _se_inflated(vals: np.ndarray) -> float:
    """Standard error with a lag-1 autocorrelation correction."""
    m = vals.mean()
    c0 = float(np.mean((vals - m) ** 2))
    c1 = float(np.mean((vals[1:] - m) * (vals[:-1] - m)))
    rho = max(0.0, c1 / c0) if c0 > 0 else 0.0
    return math.sqrt(c0 / len(vals)) * math.sqrt((1.0 + rho) / max(1.0 - rho, 1e-6))


def _mcmc_stats(stats: dict, samples, main) -> None:
    """Sweep counts over every Metropolis call; acceptance, IAT and thin of the large-n one."""
    sweeps = [
        s.diagnostics["burn_in_sweeps"] + math.ceil(s.count / s.diagnostics["chains"]) * s.diagnostics["thin"]
        for s in samples
    ]
    chain_sweeps = sum(s.diagnostics["chains"] * w for s, w in zip(samples, sweeps))
    stats["ensembles.mcmc_sweeps"] = sum(sweeps)
    stats["ensembles.mcmc_kept_per_sweep"] = sum(s.count for s in samples) / chain_sweeps
    if main is not None:
        stats["ensembles.mcmc_acceptance"] = main.diagnostics["acceptance_rate"]
        stats["ensembles.mcmc_iat"] = main.diagnostics["iat"]
        stats["ensembles.mcmc_thin"] = main.diagnostics["thin"]


LARGE_N_OPS = [
    f"mcmc[n={LARGE_N}]:unflagged",
    f"gaussian[n={LARGE_N}]:drawn",
    *(f"clt[{tag},{h}]:{z}" for tag in ("mcmc", "gaussian") for h in H_BANK for z in ("z_mean", "z_var")),
    "bulk:ks",
    *(f"bulk:phi_z[{k}]" for k in range(3)),
    "roundtrip:identical",
]
TINY_N = (2, 3)
TINY_N_OPS = {n: [f"oracle[n={n}]:unflagged", *(f"oracle[n={n}]:{k}" for k in ORACLE_BANK)] for n in TINY_N}


def _header(s) -> tuple:
    return (s.beta, s.n, s.window, s.kind, s.potential_label, s.seed, s.diagnostics)


def _large_n(pot, eq, ref_eq, seed, t, gate: Gate, stats: dict, scratch: Path):
    """`betalab clt` on both samplers and `betalab bulk`, at the CLI defaults but n."""
    n, count = LARGE_N, 1000
    main = t.call(ens.sample_mcmc, pot, n, BETA, count, seed=seed, eq=eq, window=WINDOW, chains=64)
    gate.expect(f"mcmc[n={n}]:unflagged", not main.diagnostics["flagged"])
    ref = t.call(ens.sample_gaussian, n, BETA, count, seed=seed + 1, window=main.window)
    gate.expect(f"gaussian[n={n}]:drawn", ref.count == count)
    stats["ensembles.gaussian_accept_ratio"] = 1.0 / ref.diagnostics["mean_tries"]

    worst_z = 0.0
    for tag, smp, e in (("mcmc", main, eq), ("gaussian", ref, ref_eq)):
        for name, (h, hp) in H_BANK.items():
            r = t.call(uni.clt_report, smp, h, e, name=name, h_prime=hp)
            gate.below(f"clt[{tag},{name}]:z_mean", abs(r.z_mean), Z_MAX)
            gate.below(f"clt[{tag},{name}]:z_var", abs(r.z_var), Z_MAX)
            worst_z = max(worst_z, abs(r.z_mean), abs(r.z_var))
    stats["universality.clt_max_abs_z"] = worst_z

    dist = t.call(uni.universality_distance, main, eq, 0.0, ref, ref_eq, 0.0, 0.1)
    gate.below("bulk:ks", dist.ks_distance, dist.noise_floor + KS_SLACK)
    for k, z in enumerate(dist.phi_z):
        gate.below(f"bulk:phi_z[{k}]", abs(z), Z_MAX)
    stats["universality.ks_minus_floor"] = dist.ks_distance - dist.noise_floor

    path = scratch / "roundtrip.bin"
    try:
        t.call(ens.save_sample, main, path)
        back = t.call(ens.load_sample, path)
    finally:
        path.unlink(missing_ok=True)
    same = _header(back) == _header(main) and back.configs.tobytes() == main.configs.tobytes()
    gate.expect("roundtrip:identical", same)
    return main


def _tiny_n(pot, eq, n: int, seed, t, gate: Gate):
    """Exact quadrature against a 4000-configuration Metropolis sample."""
    label = f"oracle[n={n}]"
    exact = t.call(ens.direct_expectation, pot, n, BETA, list(ORACLE_BANK.values()))
    smp = t.call(ens.sample_mcmc, pot, n, BETA, 4000, seed=seed + 10 + n, eq=eq, window=WINDOW)
    gate.expect(f"{label}:unflagged", not smp.diagnostics["flagged"])
    for (name, ob), want in zip(ORACLE_BANK.items(), exact):
        vals = np.asarray(ob(smp.configs), dtype=float)
        gate.below(f"{label}:{name}", abs(vals.mean() - want) / _se_inflated(vals), Z_MAX)
    return smp


def sampling(seed: int, t, gate: Gate, stats: dict, scratch: Path) -> None:
    """`betalab clt` and `bulk` at n=LARGE_N, a save/load round trip, and tiny-n oracles."""
    eq_ops = [f"{lb}:{c}" for lb in ("quartic", "gaussian") for c in CHAIN_CERTS[:2]]
    tiny_ops = [name for n in TINY_N for name in TINY_N_OPS[n]]
    samples, main = [], None
    with gate.leg(eq_ops + LARGE_N_OPS + tiny_ops):
        pot = t.call(make_potential, "even-quartic", eps=EPS, g=0.1)
        eq = _solve(pot, "quartic", t, gate, stats)
        ref_eq = _solve(t.call(make_potential, "gaussian", eps=EPS), "gaussian", t, gate, stats)
        with gate.leg(LARGE_N_OPS), t.span("large-n"):
            main = _large_n(pot, eq, ref_eq, seed, t, gate, stats, scratch)
            samples.append(main)
        for n in TINY_N:
            with gate.leg(TINY_N_OPS[n]), t.span(f"tiny-n[{n}]"):
                samples.append(_tiny_n(pot, eq, n, seed, t, gate))
    if samples:
        _mcmc_stats(stats, samples, main)


WORKLOADS = {"verify": verify, "spectral_sweep": spectral_sweep, "sampling": sampling}
