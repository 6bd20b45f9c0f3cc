"""Optimal transport between densities on the circle.

The monotone transport map between two positive densities on the circle
is the composition of one cumulative function with the inverse of the
other, up to a shift of the cumulative level.  Exactly one shift makes
the displacement x - T(x) average to zero; that map derives from a
periodic potential, T = id - psi', and is also the cheapest rearrangement
for the quadratic cost.  The densities are closed-form cosine sums, so the
cumulative functions are their exact primitives.  This script builds such
a map, checks the pushforward, and reconstructs the map from its
potential.
"""

import numpy as np

import tot
from tot.grid import deriv_values
from tot.transport1d import invert_lifted_cdf, transport_cost
from tot.trig import TrigPoly1D

m = 512
f = tot.circle_density(closed_form=TrigPoly1D.from_modes([(1, 0.3, 0.2),
                                                          (2, 0.15, 1.0)]), m=m)
g = tot.circle_density(closed_form=TrigPoly1D.from_modes([(1, 0.25, -0.4),
                                                          (3, 0.1, 0.0)]), m=m)

print("building the monotone zero-mean-displacement map ...")
tmap = tot.monotone_circle_map(f, g)
print(f"  sup |x - T(x)|      = {np.max(np.abs(tmap.displacement)):.4f}")
print(f"  mean displacement   = {np.mean(tmap.displacement):.2e}")
print(f"  quantile pushforward error = {tot.pushforward_quantile_error(f, g, tmap):.2e}")

# the scalar potential: T = id - psi'
psi = tot.potential_1d(f, g)
reconstruction = np.max(np.abs(deriv_values(psi, 0, 1) - tmap.displacement))
print(f"  |psi' - displacement|      = {reconstruction:.2e}")
print(f"  min (1 - psi'')            = {np.min(1.0 - deriv_values(psi, 0, 2)):.4f}"
      "  (monotonicity margin)")

# the selected shift is also the cost minimizer: scan competing shifts
x = tmap.nodes()
levels = f.closed_form.antiderivative(x)
best = transport_cost(f, tmap.displacement)
costs = []
y = x - tmap.displacement
for theta in np.linspace(-0.2, 0.2, 81):
    y = invert_lifted_cdf(g, levels + theta, x0=y)
    costs.append(transport_cost(f, x - y))
print(f"  cost at selected shift     = {best:.8f}")
print(f"  best cost over a shift scan= {min(costs):.8f}  (never beats it)")
