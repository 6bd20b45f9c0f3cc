"""Brenier map by damped Newton on the Monge-Ampere residual.

At cost matrix A = diag(1, 1) the optimal map is T = id - grad(psi) with
psi the unique zero-mean potential solving

    f - g(id - grad psi) det(I - D^2 psi) = 0,   A - D^2 psi > 0.

Each Newton step solves the linearized divergence-form equation with a
Fourier-preconditioned conjugate gradient; the backtracking line search
keeps the concavity margin positive, and convergence is quadratic.  A
cold solve is nested: it runs on the halved grids first (down to 64^2),
and the prolonged coarse solution starts the Newton loop on the caller's
grid, which certifies the result.
"""

import numpy as np

import tot
from tot.monge_ampere import residual_state

cost = tot.identity_cost()

# 64^2 is the coarsest level, so there newton_correct runs on one grid and
# stepping it one iteration at a time shows the quadratic convergence
coarse = tot.standard_pair(tot.build_grid(64, 64))
print("cold start from psi = 0 on the standard pair, one step at a time on 64^2:")
psi = tot.zero_field(coarse.grid)
for iteration in range(20):
    st = residual_state(cost, psi.values, coarse)
    print(f"  iteration {iteration}: sup |residual| = {st.sup_residual:.3e}, "
          f"margin = {st.margin:.3f}")
    if st.sup_residual <= 1e-10:
        break
    psi = tot.newton_correct(cost, psi, coarse, tol=st.sup_residual * 0.9,
                             max_iter=1).potential

grid = tot.build_grid(128, 128)
pair = tot.standard_pair(grid)
result = tot.newton_correct(cost, tot.zero_field(grid), pair, tol=1e-10)
print("nested cold solve on 128^2, Newton iterations per level:")
for (n1, n2), iterations in result.levels:
    print(f"  {n1}x{n2}: {iterations}")
tmap = tot.transport_map(cost, result.potential)
print(f"final certificate on 128^2:")
print(f"  sup |residual|            = {result.sup_residual:.2e}")
print(f"  concavity margin          = {result.margin:.3f}")
print(f"  Fourier pushforward error = {tot.pushforward_residual(tmap, pair, 8):.2e}")
disp = np.hypot(tmap.v1.values - grid.mesh()[0], tmap.v2.values - grid.mesh()[1])
print(f"  max transport displacement = {np.max(disp):.4f}")
