"""The Knothe-Rosenblatt rearrangement on the torus.

The rearrangement is triangular: first the 1D transport between the
x1-marginals, then, on every fiber, the 1D transport between the
conditional of f at x1 and the conditional of g at the image point.
Both stages come from scalar potentials, and the pair (u1, u2) they form
makes the t = 0 limit operator vanish - the fact the continuation in
demo 04 starts from.
"""

import numpy as np

import tot

grid = tot.build_grid(128, 128)
pair = tot.standard_pair(grid)

print("marginals and conditionals of the source density:")
marginal, fiber = tot.marginal_and_conditionals(pair.f)
print(f"  marginal range  [{marginal.values.min():.3f}, {marginal.values.max():.3f}]")
print(f"  fiber at x1=0.3 range  [{fiber(0.3).values.min():.3f}, "
      f"{fiber(0.3).values.max():.3f}]")

print("building the rearrangement (all fiber transports as one batch) ...")
sol = tot.knothe_solution(pair)
m1, m2 = sol.potentials.margins
print(f"  monotonicity margins: 1 - u1'' >= {m1:.3f},  1 - d22 u2 >= {m2:.3f}")
print(f"  fiber pushforward max error: {tot.fiber_pushforward_error(pair, sol):.2e}")

# quantitative pushforward certificate: Fourier test functions
residual = tot.pushforward_residual(sol.map_field(), pair, K=4)
print(f"  Fourier pushforward residual (|k| <= 4): {residual:.2e}")

# the t = 0 operator vanishes exactly at the Knothe potentials, which
# satisfy both t = 0 admissibility inequalities
u1, u2 = sol.potentials.u1, sol.potentials.u2.values
tot.check_admissible(u1, u2)
r0 = tot.monge_ampere.split_residual_values(0.0, u1, u2, pair)
print(f"  sup |limit operator at the Knothe potentials| = "
      f"{np.max(np.abs(r0)):.2e}")
