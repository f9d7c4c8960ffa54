"""Exercise the exact identities behind the change-of-variables method.

Three layers, each checkable to quadrature accuracy with no sampling:
the deformation identity (a pointwise function that must equal the
Robin constant plus one), the energy-splitting identity (equal, over
random configurations, to a closed-form constant once the kernel's
quadratic form is subtracted), and the two-route
linearization of a tiny deformed ensemble. Deliberate corruptions are
included so it is visible that the checks can fail.
"""

from dataclasses import replace

import numpy as np

from betalab import (
    cheb_grid,
    deformation_residual,
    eigendecompose,
    hamiltonian_identity_residual,
    kernel_matrix,
    linearization_check,
    make_potential,
    solve_equilibrium,
    solve_transport,
)

eq = solve_equilibrium(make_potential("even-quartic", g=0.1))
tmap = solve_transport(eq)
grid = cheb_grid(256, eq.interval)
spectrum = eigendecompose(kernel_matrix(tmap, grid), grid)

dres = deformation_residual(eq, tmap)
print(f"deformation residual about robin + 1 = {eq.robin_constant + 1:.6f}: {dres.residual:.2e}")

rng = np.random.default_rng(5)
configs = rng.uniform(-2.05, 2.05, (50, 8))
ham = hamiltonian_identity_residual(eq, tmap, spectrum, 2.0, configs)
print(f"\nenergy identity residual about {ham.constant:+.6f} (50 random configs, n=8): {ham.residual:.2e}")

broken = hamiltonian_identity_residual(eq, tmap, spectrum, 2.0, configs, modes=2)
print(f"negative control, keeping only 2 modes: residual {broken.residual:.2e}")
shifted = replace(eq, robin_constant=eq.robin_constant + 1e-9)
print(f"negative control, Robin constant off by 1e-9: residual "
      f"{hamiltonian_identity_residual(shifted, tmap, spectrum, 2.0, configs).residual:.2e}")

obs = lambda c: (c**2).sum(axis=1)
lin = linearization_check(eq, tmap, spectrum, 2.0, obs, n=2, modes=3)
print(f"\nlinearization, n=2: left {lin.left:.9f} vs right {lin.right:.9f} "
      f"(rel {lin.rel_discrepancy:.2e})")

lin1 = linearization_check(eq, tmap, spectrum, 1.0, obs, n=2, modes=3)
print(f"linearization at beta=1: rel {lin1.rel_discrepancy:.2e}")
