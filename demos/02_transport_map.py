"""Build the transport map carrying the semicircle onto a quartic density.

The map is the strictly increasing change of variables with
rho(zeta(x)) * zeta'(x) = rho_sc(x); its quality is judged by that
pushforward residual and by the overlap between the interior map
(equilibrium quantiles of semicircle levels, F_eq^-1(F_sc(x))) and the
square-root-variable edge series.
"""

import numpy as np

from betalab import edge_series, make_potential, solve_equilibrium, solve_transport

eq = solve_equilibrium(make_potential("even-quartic", g=0.1))
tmap = solve_transport(eq)

print(f"pushforward residual: {tmap.residual_max:.2e}")
print(f"edge/interior overlap: {tmap.overlap_max:.2e}")
print()

print(" x       zeta(x)    zeta'(x)")
for x in np.linspace(-2.0, 2.0, 9):
    print(f"{x:+.2f}   {tmap.value(x):+.6f}   {tmap.derivative(x):.6f}")

left = edge_series(eq, "left")
right = edge_series(eq, "right")
print(f"\nedge scale (both sides): {left.scale:.12f}")
print(f"first left-edge corrections:  {np.array2string(left.coeffs[1:4], precision=6)}")
print(f"first right-edge corrections: {np.array2string(right.coeffs[1:4], precision=6)}")

print(f"\nmap is increasing: {bool(np.all(np.diff(tmap.value(np.linspace(-2.2, 2.2, 801))) > 0))}")
