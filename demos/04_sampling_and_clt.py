"""Draw ensembles two ways and test the fluctuation predictions.

Linear statistics of eigenvalues have order-one Gaussian fluctuations
whose mean and variance are computable from the equilibrium data alone.
The exact tridiagonal sampler covers the gaussian ensemble; Metropolis
covers everything else.
"""

import numpy as np

from betalab import clt_report, make_potential, sample_gaussian, sample_mcmc, solve_equilibrium

gauss_eq = solve_equilibrium(make_potential("gaussian"))

print("gaussian ensemble, n = 200, 3000 draws")
print("h        beta   emp mean   pred mean   emp var   pred var   z_mean  z_var")
bank = [
    ("lambda ", lambda x: np.asarray(x, dtype=float)),
    ("lambda2", lambda x: np.asarray(x, dtype=float) ** 2),
    ("cos    ", np.cos),
]
for beta in (1.0, 2.0, 4.0):
    sample = sample_gaussian(200, beta, 3000, seed=8)
    for name, h in bank:
        r = clt_report(sample, h, gauss_eq, name=name.strip())
        print(
            f"{name}  {beta:.0f}     {r.emp_mean:+.4f}    {r.pred_mean:+.4f}     "
            f"{r.emp_var:.4f}    {r.pred_var:.4f}     {r.z_mean:+.2f}   {r.z_var:+.2f}"
        )

print()
pot = make_potential("even-quartic", g=0.1)
eq = solve_equilibrium(pot)
sample = sample_mcmc(pot, 120, 2.0, 600, seed=8, eq=eq)
d = sample.diagnostics
print(f"quartic Metropolis run: n = 120, {sample.count} retained configurations")
print(f"  site acceptance {d['acceptance_rate']:.2f}, autocorrelation time {d['iat']:.1f}, "
      f"thinning {d['thin']}")
r = clt_report(sample, bank[1][1], eq, name="lambda2")
print(f"  lambda2: emp mean {r.emp_mean:+.4f} vs pred {r.pred_mean:+.4f} (z = {r.z_mean:+.2f}), "
      f"emp var {r.emp_var:.4f} vs pred {r.pred_var:.4f} (z = {r.z_var:+.2f})")
