"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Heavy artifacts (trajectories, the 256^2 states) come from session
fixtures shared with the module suites.
"""

import subprocess
import sys
import time

import numpy as np

import tot
from tot.grid import deriv_values
from tot.linearized import _solve_with_coefficients, coefficient_arrays
from tot.monge_ampere import residual_state
from tot.transport1d import potential_1d
from tot.trig import TrigPoly1D

from tests.conftest import (admissible_potential, assembled_state,
                            band_limited, split_operator_residual)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def product_factors(grid):
    f1 = tot.circle_density(closed_form=TrigPoly1D.from_modes([(1, 0.2, 0.0)]),
                            m=grid.n1)
    g1 = tot.circle_density(closed_form=TrigPoly1D.from_modes([(1, 0.15, 0.0)]),
                            m=grid.n1)
    f2 = tot.circle_density(closed_form=TrigPoly1D.from_modes([(1, 0.15, 0.0)]),
                            m=grid.n2)
    g2 = tot.circle_density(closed_form=TrigPoly1D.from_modes([(1, 0.25, 0.0)]),
                            m=grid.n2)
    return f1, g1, f2, g2


def test_criterion_1_separable_exactness(product128):
    tic = time.time()
    grid = product128.grid
    f1, g1, f2, g2 = product_factors(grid)
    u1 = potential_1d(f1, g1)
    u2 = potential_1d(f2, g2)
    sched = tot.CostSchedule.linear()
    worst = 0.0
    for t in (1e-3, 1e-2, 0.1, 1.0):
        psi = tot.field(grid, u1[:, None] + sched.lam(t) * u2[None, :])
        st = assembled_state(sched.matrix(t), psi, product128)
        worst = max(worst, st.sup_residual)
    elapsed = time.time() - tic
    report("criterion 1 (separable exactness)",
           worst <= 1e-8 and elapsed < 10.0,
           f"sup residual {worst:.3g} (<= 1e-8), {elapsed:.1f}s (< 10s)")


def test_criterion_2_linearization(pair64, grid64):
    rng = np.random.default_rng(41)
    h = 1e-5
    sched = tot.CostSchedule.linear()
    worst_u = worst_t = 0.0
    for _ in range(20):
        t = float(rng.uniform(0.4, 1.0))
        cost = sched.matrix(t)
        u = tot.field(grid64, admissible_potential(grid64, 4, rng, a22=t))
        v = tot.field(grid64, admissible_potential(grid64, 4, rng, a22=t))
        fp = assembled_state(
            cost, tot.field(grid64, u.values + h * v.values), pair64).residual
        fm = assembled_state(
            cost, tot.field(grid64, u.values - h * v.values), pair64).residual
        st = assembled_state(cost, u, pair64)
        out = tot.apply_linearized(st, v).values
        worst_u = max(worst_u, np.linalg.norm((fp - fm) / (2 * h) - out)
                      / np.linalg.norm(out))
        fp = assembled_state(sched.matrix(t + h), u, pair64).residual
        fm = assembled_state(sched.matrix(t - h), u, pair64).residual
        rhs = tot.cost_rate_rhs(st).values
        worst_t = max(worst_t, np.linalg.norm((fp - fm) / (2 * h) + rhs)
                      / np.linalg.norm(rhs))
    report("criterion 2 (linearization vs central differences)",
           worst_u <= 1e-7 and worst_t <= 1e-7,
           f"in u: {worst_u:.3g}, in t: {worst_t:.3g} (both <= 1e-7)")


def test_criterion_3_elliptic_solver(pair128, knothe128):
    rng = np.random.default_rng(42)
    grid = pair128.grid
    kn = knothe128.potentials
    q = tot.project_zero_mean(tot.field(grid, band_limited(grid, 4, rng)))
    worst_iters = 0
    worst_res = 0.0
    for lam in (1.0, 0.1, 1e-2):
        cost = tot.CostMatrix(lam, lam, 1.0)
        u = tot.field(grid, kn.u1[:, None] + lam * kn.u2.values)
        st = assembled_state(cost, u, pair128)
        # the solve solve_linearized runs, read for its iteration count
        values, iters = _solve_with_coefficients(
            grid, *coefficient_arrays(st), q.values, 1e-10)
        v = tot.field(grid, values)
        residual = tot.apply_linearized(st, v).values - q.values
        rel = np.sqrt(np.mean(residual ** 2) / np.mean(q.values ** 2))
        worst_iters = max(worst_iters, iters)
        worst_res = max(worst_res, rel)

    # symmetry / coercivity property suite at the anisotropic state
    cost = tot.CostMatrix(0.1, 0.1, 1.0)
    u = tot.field(grid, kn.u1[:, None] + 0.1 * kn.u2.values)
    st = assembled_state(cost, u, pair128)
    delta = pair128.g_poly.min_on_grid(4 * grid.n1, 4 * grid.n2)
    eps = st.margin / max(1.0, cost.a22)
    sym_ok = coer_ok = True
    for _ in range(20):
        v = tot.field(grid, band_limited(grid, 5, rng))
        w = tot.field(grid, band_limited(grid, 5, rng))
        lv = tot.apply_linearized(st, v).values
        lw = tot.apply_linearized(st, w).values
        left = float(np.mean(w.values * lv))
        right = float(np.mean(v.values * lw))
        sym_ok &= abs(left - right) <= 1e-10 * max(abs(left), abs(right))
        quad = -float(np.mean(v.values * lv))
        grad_sq = float(np.mean(deriv_values(v.values, 0, 1) ** 2
                                + deriv_values(v.values, 1, 1) ** 2))
        coer_ok &= quad >= delta * eps * grad_sq * (1.0 - 1e-12)
    report("criterion 3 (preconditioned elliptic solver)",
           worst_iters <= 400 and worst_res <= 1e-10 and sym_ok and coer_ok,
           f"max iters {worst_iters} (<= 400), max rel residual "
           f"{worst_res:.3g} (<= 1e-10), symmetry {sym_ok}, coercivity {coer_ok}")


def test_criterion_4_degenerate_solvers(pair128, knothe128):
    rng = np.random.default_rng(43)
    grid = pair128.grid
    u1 = knothe128.potentials.u1
    u2 = knothe128.potentials.u2
    q = tot.project_zero_mean(tot.field(grid, band_limited(grid, 3, rng)))
    v1, v2 = tot.solve_linearized_t0(u1, u2, pair128, q)
    back = tot.apply_linearized_t0(u1, u2, pair128, v1, v2)
    t0_err = float(np.max(np.abs(back.values - q.values)))

    sched = tot.CostSchedule.linear()
    worst = 0.0
    for t in (1e-4, 1e-3, 1e-2):
        st = residual_state(sched.matrix(t), u1, u2.values, pair128)
        s1, s2 = tot.solve_linearized_small_t(st, q, tol=1e-11)
        worst = max(worst, split_operator_residual(t, u1, u2, pair128, q,
                                                   s1, s2))
    report("criterion 4 (degenerate t=0 / small-t solvers)",
           t0_err <= 1e-8 and worst <= 1e-6,
           f"t0 forward recovery {t0_err:.3g} (<= 1e-8), "
           f"small-t split-operator residual {worst:.3g} (<= 1e-6)")


def test_criterion_5_newton_baseline(pair128, cold_newton128):
    warm = tot.newton_correct(tot.identity_cost(), cold_newton128.potential,
                              pair128, tol=1e-10)
    report("criterion 5 (newton baseline)",
           cold_newton128.iterations <= 12
           and cold_newton128.sup_residual <= 1e-10
           and warm.iterations == 0,
           f"cold iters {cold_newton128.iterations} (<= 12), "
           f"sup residual {cold_newton128.sup_residual:.3g} (<= 1e-10), "
           f"warm iters {warm.iterations} (= 0)")


def test_criterion_6_certified_trajectory(traj32, traj64):
    certified = all(r.sup_residual <= 1e-9 and r.margin > 0.0
                    for r in traj32.records + traj64.records)
    gap = float(np.max(np.abs(traj32.final.psi.values
                              - traj64.final.psi.values)))
    report("criterion 6 (certified trajectory, 32 vs 64 steps)",
           certified and gap <= 1e-7,
           f"all states certified {certified}, endpoint gap {gap:.3g} (<= 1e-7)")


def test_criterion_7_endpoint_equivalence(traj32, cold_newton128, tmp_path):
    gap = float(np.max(np.abs(traj32.final.psi.values
                              - cold_newton128.potential.values)))
    cfg = tmp_path / "compare.cfg"
    cfg.write_text("""
f.name = standard_f
g.name = standard_g
grid.n1 = 128
grid.n2 = 128
steps = 32
emit.csv = false
quiet = true
""", encoding="utf-8")
    tic = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "tot.cli", "compare", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    elapsed = time.time() - tic
    report("criterion 7 (endpoint equivalence, compare runtime)",
           gap <= 1e-8 and proc.returncode == 0 and elapsed < 120.0,
           f"endpoint gap {gap:.3g} (<= 1e-8), compare exit "
           f"{proc.returncode}, {elapsed:.1f}s (< 120s)")


def test_criterion_8_knothe_limit(traj32):
    l2 = np.array([r.l2_dist_to_knothe for r in traj32.records])
    monotone = bool(np.all(np.diff(l2) > -1e-10))
    ts = traj32.times()
    sched = traj32.schedule
    decade = ts <= 10.0 * ts[0] + 1e-12
    ratios = np.array([l2[i] / sched.lam(ts[i])
                       for i in range(len(ts)) if decade[i]])
    spread = float(np.max(ratios) / np.min(ratios))
    median = float(np.median(ratios))
    within = bool(np.max(ratios) < 3.0 * median
                  and np.min(ratios) > median / 3.0)
    report("criterion 8 (Knothe limit, empirical first-order rate)",
           monotone and within,
           f"distance monotone {monotone}, ratio-to-lambda spread x{spread:.2f} "
           f"over the last decade (median {median:.4f}, within x3)")


def test_criterion_9_pushforward_certificates(pair256, knothe256,
                                              traj256_short):
    # the final Brenier map of a continuation run at 256^2, as the CLI
    # writes it
    brenier_res = tot.pushforward_residual(traj256_short.final.tmap, pair256, 8)
    knothe_res = tot.pushforward_residual(knothe256.map_field(), pair256, 8)
    report("criterion 9 (pushforward certification at 256^2)",
           brenier_res <= 1e-7 and knothe_res <= 1e-6,
           f"brenier residual {brenier_res:.3g} (<= 1e-7), "
           f"knothe residual {knothe_res:.3g} (<= 1e-6)")
