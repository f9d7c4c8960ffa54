"""Build the transport map carrying the semicircle onto a quartic density.

The map is the strictly increasing change of variables with
rho(zeta(x)) * zeta'(x) = rho_sc(x). It is the equilibrium quantile of the
semicircle level, zeta = F_eq^-1(F_sc(x)), continued analytically past both
support edges, and it is stored as one Chebyshev series on the working
window, in a variable t with x = c + eps sinh(A t + B) fitted to the map's
nearest complex singularity c +- i eps. Its quality is judged by the
pushforward residual and by how far the series departs from that pointwise
construction between its nodes.
"""

import numpy as np

from betalab import make_potential, solve_equilibrium, solve_transport

g = 0.1
eq = solve_equilibrium(make_potential("even-quartic", g=g))
tmap = solve_transport(eq)

var = tmap.variable
print(f"one Chebyshev series on {eq.interval}: {tmap.interior_cheb.size} coefficients in t,")
print(f"  x = {var.center:.3g} + {var.width:.4g} sinh({var.scale:.4g} t + {var.shift:.3g})")
print(f"pushforward residual: {tmap.residual_max:.2e}")
print(f"series vs construction between nodes: {tmap.overlap_max:.2e}")
print()

print(" x       zeta(x)    zeta'(x)")
for x in np.linspace(-2.2, 2.2, 12):
    print(f"{x:+.2f}   {tmap.value(x):+.6f}   {tmap.derivative(x):.6f}")

# at an edge both densities vanish like a square root, so the slope there is
# the -2/3 power of the density polynomial P(2) = 1 + 3g
print(f"\nedge slopes: {tmap.derivative(-2.0):.12f}, {tmap.derivative(2.0):.12f} "
      f"(predicted {(1.0 + 3.0 * g) ** (-2.0 / 3.0):.12f})")

print(f"map is increasing: {bool(np.all(np.diff(tmap.value(np.linspace(-2.2, 2.2, 801))) > 0))}")
