"""Cross-cutting checks on less-traveled configurations: non-square
grids, alternative schedules, costs with a22 > 1."""

import numpy as np
import pytest

import tot
from tot import continuation
from tot.grid import deriv_values
from tot.monge_ampere import split_residual_values

from tests.conftest import admissible_potential, assembled_state, band_limited


@pytest.fixture(scope="module")
def rect_pair():
    # non-square grid: distinct axis lengths flush out axis mix-ups
    grid = tot.build_grid(96, 64)
    return tot.make_density_pair(tot.CATALOG["standard_f"],
                                 tot.CATALOG["standard_g"], grid)


def test_full_pipeline_on_rectangular_grid(rect_pair):
    sol = tot.knothe_solution(rect_pair)
    r0 = split_residual_values(0.0, sol.potentials.u1,
                               sol.potentials.u2.values, rect_pair)
    assert np.max(np.abs(r0)) < 1e-8
    traj = tot.run(rect_pair, options=tot.ContinuationOptions(steps=8))
    cold = tot.newton_correct(tot.identity_cost(),
                              tot.zero_field(rect_pair.grid), rect_pair,
                              tol=1e-10)
    gap = np.max(np.abs(traj.final.psi.values - cold.potential.values))
    assert gap < 1e-8
    for rec in traj.records:
        assert rec.sup_residual <= 1e-10 and rec.margin > 0.0


def test_solver_on_rectangular_grid(rect_pair):
    rng = np.random.default_rng(51)
    grid = rect_pair.grid
    cost = tot.CostMatrix(0.3, 0.3, 1.0)
    u = tot.field(grid, admissible_potential(grid, 3, rng, a22=0.3))
    w = tot.field(grid, admissible_potential(grid, 4, rng, a22=0.3))
    st = assembled_state(cost, u, rect_pair)
    q = tot.apply_linearized(st, w)
    v = tot.solve_linearized(st, q, tol=1e-12)
    assert np.max(np.abs(v.values - w.values)) < 1e-10


def test_run_starting_at_large_t0(pair64):
    traj = tot.run(pair64, options=tot.ContinuationOptions(steps=4, t0=0.5))
    assert traj.final.t == 1.0
    for rec in traj.records:
        assert rec.sup_residual <= 1e-10


def test_power_schedule_run(pair64):
    sched = tot.CostSchedule.power(2)
    opts = tot.ContinuationOptions(steps=8, t0=1e-2)
    traj = tot.run(pair64, sched, opts)
    assert traj.final.t == 1.0
    # margins certified against lambda = t^2, not t
    for rec in traj.records:
        assert rec.margin > 0.0
        assert rec.margin <= min(1.0, sched.lam(rec.t)) * 1.01
    cold = tot.newton_correct(tot.identity_cost(), tot.zero_field(pair64.grid),
                              pair64, tol=1e-10)
    assert np.max(np.abs(traj.final.psi.values - cold.potential.values)) < 1e-8


def test_strong_density_pair_end_to_end():
    # stronger amplitudes and three modes each; needs 128^2 to certify the
    # default tolerance (the fiber transports' spectra decay slowly)
    grid = tot.build_grid(128, 128)
    f = tot.spec((1, 0, 0.35, 0.0), (1, 1, 0.15, 0.7), (0, 2, 0.1, 0.0))
    g = tot.spec((0, 1, 0.3, 0.2), (2, -1, 0.12, 0.0), (1, 0, 0.15, 1.3))
    pair = tot.make_density_pair(f, g, grid)
    assert pair.delta >= 0.05
    traj = tot.run(pair, options=tot.ContinuationOptions(steps=16))
    cold = tot.newton_correct(tot.identity_cost(), tot.zero_field(grid), pair,
                              tol=1e-10)
    assert np.max(np.abs(traj.final.psi.values - cold.potential.values)) < 1e-8
    tmap = tot.transport_map(tot.identity_cost(), cold.potential)
    assert tot.pushforward_residual(tmap, pair, 6) < 1e-9


def test_under_resolved_pair_raises_initialization_advice(monkeypatch):
    # amplitude-0.5 modes leave conditional minima near 0.19: the fiber
    # transports have fat spectral tails and a 64^2 grid cannot certify
    # the default tolerance; the driver must say so rather than mislead
    grid = tot.build_grid(64, 64)
    f = tot.spec((1, 0, 0.5, 0.0), (1, 1, 0.2, 0.7), (0, 2, 0.15, 0.0))
    g = tot.spec((0, 1, 0.45, 0.2), (2, -1, 0.2, 0.0), (1, 0, 0.2, 1.3))
    pair = tot.make_density_pair(f, g, grid)
    corrections = []
    correct = continuation.newton_correct_split

    def counted(*args, **kwargs):
        corrections.append(args[0].t)
        return correct(*args, **kwargs)

    monkeypatch.setattr(continuation, "newton_correct_split", counted)
    with pytest.raises(tot.InitializationError, match="larger grid") as info:
        tot.run(pair, options=tot.ContinuationOptions(steps=8))
    # one correction, at the t0 the run was given, named with lambda(t0)
    # and Newton's own message
    assert corrections == [1e-3]
    assert str(info.value).startswith(
        "could not initialize from the rearrangement at t0 = 0.001 "
        "(lambda = 0.001): newton ")


def test_coercivity_with_a22_above_one(pair64, grid64):
    # eps = margin / max(1, a22) branch
    rng = np.random.default_rng(52)
    cost = tot.CostMatrix(2.0, 2.0, 1.0)
    u = tot.field(grid64, admissible_potential(grid64, 3, rng, a22=2.0))
    st = assembled_state(cost, u, pair64)
    assert st.margin > 0.0
    delta = pair64.g_poly.min_on_grid(4 * grid64.n1, 4 * grid64.n2)
    eps = st.margin / max(1.0, cost.a22)
    for _ in range(10):
        v = tot.field(grid64, band_limited(grid64, 5, rng))
        lv = tot.apply_linearized(st, v).values
        quad = -float(np.mean(v.values * lv))
        grad_sq = float(np.mean(deriv_values(v.values, 0, 1) ** 2
                                + deriv_values(v.values, 1, 1) ** 2))
        assert quad >= delta * eps * grad_sq * (1.0 - 1e-12)


def test_adaptive_mode_matches_fixed(pair64):
    fixed = tot.run(pair64, options=tot.ContinuationOptions(steps=16))
    adaptive = tot.run(pair64, options=tot.ContinuationOptions(steps="adaptive"))
    gap = np.max(np.abs(fixed.final.psi.values - adaptive.final.psi.values))
    assert gap < 1e-8
