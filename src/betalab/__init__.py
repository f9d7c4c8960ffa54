"""Log-gas ensembles on a single interval: equilibrium measures, transport
maps, kernel spectra, samplers, and fluctuation reports.

The pipeline runs in stages, each consuming the previous one's artifact:

1. :func:`make_potential` builds a confining potential with derivative data.
2. :func:`solve_equilibrium` produces the equilibrium density, its edge
   behaviour, and the associated constants.
3. :func:`solve_transport` builds the increasing map carrying the reference
   semicircle law onto the computed density.
4. :mod:`betalab.operators` diagonalizes the induced deformation kernel and
   the covariance operator behind fluctuation formulas.
5. :mod:`betalab.ensembles` draws eigenvalue configurations (exact
   tridiagonal route, Metropolis route, or tiny-n quadrature).
6. :mod:`betalab.universality` compares samples against the deterministic
   predictions: central-limit reports, local gap statistics, and exact
   configuration-wise identities.
"""

from .ensembles import (
    EnsembleSample,
    direct_expectation,
    linear_statistic,
    load_sample,
    sample_gaussian,
    sample_mcmc,
    save_sample,
)
from .equilibrium import EquilibriumData, solve_equilibrium
from .errors import BetalabError, NumericalError, UsageError
from .operators import (
    ChebGrid,
    KernelSpectrum,
    cheb_grid,
    contraction_matrices,
    cov_form,
    deformation_residual,
    eigendecompose,
    kernel_matrix,
    log_ratio_kernel,
    mean_shift_pairing,
    semicircle_density,
)
from .potentials import (
    AffineChange,
    Potential,
    make_potential,
    normalize_support,
    support_endpoints,
)
from .transport import TransportMap, solve_transport
from .universality import (
    CLTReport,
    HamiltonianIdentity,
    LinearizationResult,
    PhiEstimate,
    UniversalityDistance,
    clt_report,
    hamiltonian_identity_residual,
    linearization_check,
    phi_estimate,
    split_noise_floor,
    unfold_gaps,
    universality_distance,
)

__version__ = "0.1.0"

__all__ = [
    "AffineChange",
    "BetalabError",
    "CLTReport",
    "ChebGrid",
    "EnsembleSample",
    "EquilibriumData",
    "HamiltonianIdentity",
    "KernelSpectrum",
    "LinearizationResult",
    "NumericalError",
    "PhiEstimate",
    "Potential",
    "TransportMap",
    "UniversalityDistance",
    "UsageError",
    "cheb_grid",
    "clt_report",
    "contraction_matrices",
    "cov_form",
    "deformation_residual",
    "direct_expectation",
    "eigendecompose",
    "hamiltonian_identity_residual",
    "kernel_matrix",
    "linear_statistic",
    "linearization_check",
    "load_sample",
    "log_ratio_kernel",
    "make_potential",
    "mean_shift_pairing",
    "normalize_support",
    "phi_estimate",
    "sample_gaussian",
    "sample_mcmc",
    "save_sample",
    "semicircle_density",
    "solve_equilibrium",
    "solve_transport",
    "split_noise_floor",
    "unfold_gaps",
    "universality_distance",
    "__version__",
]
