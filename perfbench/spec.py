"""The benchmark's metric table: every name, unit and direction it prints.

``BENCHMARK.json`` at the repository root must list exactly these metrics;
``run.py`` refuses to run when the two disagree. This module imports
nothing from betalab, so the parent process can load it without the
program under test.
"""

WORKLOADS = ("spectral_sweep", "verify", "sampling")

# (name, unit, better); printed by every run with --trace 0
END_TO_END = [
    ("wall_norm", "ref", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_share", "fraction", "higher"),
    ("cert_digits", "digits", "higher"),
]

# Public betalab functions the workloads call, as "<module>.<function>".
# Each yields a busy-time metric "<name>_s" and a call count "<name>_calls".
TRACED = [
    "potentials.make_potential",
    "potentials.support_endpoints",
    "potentials.normalize_support",
    "equilibrium.solve_equilibrium",
    "transport.solve_transport",
    "operators.cheb_grid",
    "operators.kernel_matrix",
    "operators.eigendecompose",
    "operators.contraction_matrices",
    "operators.deformation_residual",
    "operators.cov_form",
    "operators.rank_one_identity_residual",
    "ensembles.sample_gaussian",
    "ensembles.sample_mcmc",
    "ensembles.direct_expectation",
    "ensembles.save_sample",
    "ensembles.load_sample",
    "universality.clt_report",
    "universality.universality_distance",
    "universality.hamiltonian_identity_residual",
    "universality.linearization_check",
]

# Work counts and certificate values taken from the call results; a
# workload that never calls the producing function reports 0.
STATS = [
    ("equilibrium.v_residual_max", "1", "lower"),
    ("transport.residual_max", "1", "lower"),
    ("transport.overlap_max", "1", "lower"),
    ("transport.interior_coeffs", "count", "lower"),
    ("operators.truncation", "count", "lower"),
    ("operators.stored_modes", "count", "lower"),
    ("operators.contraction_norm_max", "1", "lower"),
    ("universality.energy_identity_residual_max", "1", "lower"),
    ("universality.linearization_rel_discrepancy", "1", "lower"),
    ("ensembles.mcmc_sweeps", "count", "lower"),
    ("ensembles.mcmc_acceptance", "fraction", "higher"),
    ("ensembles.mcmc_iat", "sweeps", "lower"),
    ("ensembles.mcmc_thin", "sweeps", "lower"),
    ("ensembles.mcmc_kept_per_sweep", "1/sweep", "higher"),
    ("ensembles.gaussian_accept_ratio", "fraction", "higher"),
    ("universality.clt_max_abs_z", "sigma", "lower"),
    ("universality.ks_minus_floor", "1", "lower"),
]

# Start-up breakdown, the untraced-pass and reference times, and the tracer's own figures.
RUN = [
    ("cli.import_s", "s", "lower"),
    ("cli.import_scipy_stats_s", "s", "lower"),
    ("cli.import_scipy_integrate_s", "s", "lower"),
    ("pass.wall_s", "s", "lower"),
    ("pass.reference_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "fraction", "higher"),
]

# printed by every run with --trace 1
PER_LAYER = (
    [(f"{fn}_s", "s", "lower") for fn in TRACED]
    + [(f"{fn}_calls", "count", "lower") for fn in TRACED]
    + STATS
    + RUN
)
