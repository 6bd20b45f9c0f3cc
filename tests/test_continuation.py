import tracemalloc
import warnings

import numpy as np
import pytest

import tot
from tot import continuation, linearized, monge_ampere
from tot.errors import ConvergenceError, StepCollapseError
from tot.linearized import coefficient_arrays, project_solvable
from tot.monge_ampere import residual_state, split_values
from tot.transport1d import potential_1d
from tot.trig import TrigPoly1D

from tests.conftest import assembled_state, band_limited, single_grid_newton


def test_decompose_inverts_assembly(grid64):
    rng = np.random.default_rng(31)
    sched = tot.CostSchedule.linear()
    t = 0.2
    a = np.cumsum(rng.normal(size=grid64.n1))
    a -= a.mean()
    b = band_limited(grid64, 3, rng)
    b -= b.mean(axis=1, keepdims=True)
    psi = tot.field(grid64, (a + 3.0)[:, None] + sched.lam(t) * b)
    psi1, psi2 = split_values(psi.values, sched.lam(t))
    assert np.max(np.abs(psi1 - a)) < 1e-12
    assert np.max(np.abs(psi2 - b)) < 1e-12


def test_decompose_x1_only_field(grid64, pair64):
    x1, x2 = grid64.mesh()
    psi = tot.field(grid64, np.cos(2 * np.pi * x1) + 0 * x2)
    psi1, psi2 = split_values(psi.values, 0.37)
    assert np.max(np.abs(psi2)) < 1e-14
    # lambda(0) = 0 splits nothing: the velocity refuses t = 0 first
    with pytest.raises(ValueError, match="t > 0"):
        tot.velocity(0.0, psi, pair64)


def test_velocity_separable(product128, knothe_product128):
    # psi_t = u1 + lambda u2 exactly, so psi_dot = lamdot * u2
    sched = tot.CostSchedule.linear()
    u1 = knothe_product128.potentials.u1
    u2 = knothe_product128.potentials.u2
    for t in (0.5, 0.005):
        psi = tot.field(product128.grid, u1[:, None] + sched.lam(t) * u2.values)
        v = tot.velocity(t, psi, product128, sched, tol=1e-11)
        assert np.max(np.abs(v.values - u2.values)) < 1e-8


def test_velocity_zero_for_x1_only_densities():
    grid = tot.build_grid(64, 64)
    pair = tot.make_density_pair(tot.CATALOG["marginal_only_f"],
                                 tot.CATALOG["marginal_only_g"], grid)
    f1 = tot.circle_density(closed_form=TrigPoly1D.from_modes([(1, 0.3, 0.0)]),
                            m=grid.n1)
    g1 = tot.circle_density(closed_form=TrigPoly1D.from_modes([(1, 0.2, 0.5)]),
                            m=grid.n1)
    u1 = potential_1d(f1, g1)
    psi = tot.field(grid, np.broadcast_to(u1[:, None], grid.shape).copy())
    v = tot.velocity(0.5, psi, pair)
    assert np.max(np.abs(v.values)) < 1e-12


def test_velocity_matches_curve_difference(pair64):
    sched = tot.CostSchedule.linear()
    t, h = 0.5, 1e-4
    base = tot.newton_correct(sched.matrix(t), tot.zero_field(pair64.grid),
                              pair64, tol=1e-12)
    plus = tot.newton_correct(sched.matrix(t + h), base.potential, pair64,
                              tol=1e-12)
    minus = tot.newton_correct(sched.matrix(t - h), base.potential, pair64,
                               tol=1e-12)
    fd = (plus.potential.values - minus.potential.values) / (2 * h)
    v = tot.velocity(t, base.potential, pair64, sched, tol=1e-12)
    assert np.max(np.abs(fd - v.values)) < 1e-5


def test_one_velocity_derives_one_residual_state(pair64, monkeypatch):
    # the cost-rate right-hand side and the solve share the state
    sched = tot.CostSchedule.linear()
    solved = tot.newton_correct(sched.matrix(0.5), tot.zero_field(pair64.grid),
                                pair64, tol=1e-12)
    states = []
    constructor = monge_ampere.residual_state

    def counted(*args):
        states.append(args[0])
        return constructor(*args)

    for module in (tot, monge_ampere, continuation, linearized):
        if hasattr(module, "residual_state"):
            monkeypatch.setattr(module, "residual_state", counted)
    tot.velocity(0.5, solved.potential, pair64, sched)
    assert len(states) == 1


def test_velocity_warns_off_curve(pair64):
    with pytest.warns(UserWarning, match="far from solved"):
        tot.velocity(0.5, tot.zero_field(pair64.grid), pair64)


# ---------------------------------------------------------------------------
# newton

def test_newton_zero_iterations_from_solution(pair64, grid64):
    cold = tot.newton_correct(tot.identity_cost(), tot.zero_field(grid64),
                              pair64, tol=1e-10)
    again = tot.newton_correct(tot.identity_cost(), cold.potential, pair64,
                               tol=1e-10)
    assert again.iterations == 0
    assert np.max(np.abs(again.potential.values - cold.potential.values)) < 1e-14


def test_newton_equal_densities_returns_zero(grid64):
    from tests.conftest import admissible_potential
    pair = tot.make_density_pair(tot.CATALOG["standard_g"],
                                 tot.CATALOG["standard_g"], grid64)
    rng = np.random.default_rng(33)
    start = tot.field(grid64, 1e-3 * admissible_potential(grid64, 3, rng))
    assert assembled_state(tot.identity_cost(), start, pair).margin > 0.0
    res = tot.newton_correct(tot.identity_cost(), start, pair, tol=1e-10)
    assert res.sup_residual <= 1e-10
    assert np.max(np.abs(res.potential.values)) < 1e-10


def test_newton_cold_start_baseline(cold_newton128):
    assert cold_newton128.iterations <= 12
    assert cold_newton128.sup_residual <= 1e-10
    assert cold_newton128.margin > 0.0


def test_newton_raises_on_unreachable_tolerance(pair64, grid64):
    with pytest.raises(ConvergenceError):
        tot.newton_correct(tot.identity_cost(), tot.zero_field(grid64),
                           pair64, tol=1e-18, max_iter=6)


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("inf"), float("nan")])
def test_newton_rejects_a_tolerance_that_is_not_positive_and_finite(
        pair64, knothe64, tol):
    # an infinite tolerance would return the unsolved start as converged
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        tot.newton_correct(tot.identity_cost(), tot.zero_field(pair64.grid),
                           pair64, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        tot.newton_correct_split(tot.CostSchedule.linear().matrix(0.5),
                                 knothe64.potentials.u1,
                                 knothe64.potentials.u2, pair64, tol=tol)


def test_newton_split_certifies_where_lambda_is_below_rounding(pair64, knothe64):
    # lambda = t^10 = 1e-30 at t = 1e-3: the margin, about lambda, is far
    # below the rounding of 1 - d11 u, and still certifies the state
    res = tot.newton_correct_split(tot.CostSchedule.power(10).matrix(1e-3),
                                   knothe64.potentials.u1,
                                   knothe64.potentials.u2, pair64)
    assert 0.0 < res.margin < 1e-29
    assert res.sup_residual <= 1e-10


def test_newton_split_matches_assembled(pair64, knothe64):
    t = 0.05
    sched = tot.CostSchedule.linear()
    res = tot.newton_correct_split(sched.matrix(t), knothe64.potentials.u1,
                                   knothe64.potentials.u2, pair64, tol=1e-11)
    assembled = tot.field(pair64.grid,
                          res.u1[:, None] + sched.lam(t) * res.u2.values)
    plain = tot.newton_correct(sched.matrix(t), assembled, pair64, tol=1e-10)
    assert plain.iterations == 0   # the split solve already satisfies it


# ---------------------------------------------------------------------------
# nested newton: coarse levels supply the start, the caller's grid certifies

def test_nested_newton_matches_separable_solution(product128):
    # f and g factorize, so the Brenier potential is u1(x1) + u2(x2) with
    # u1, u2 the potentials of the two 1D transports
    res = tot.newton_correct(tot.identity_cost(),
                             tot.zero_field(product128.grid), product128)
    assert [shape for shape, _ in res.levels] == [(64, 64), (128, 128)]
    assert res.iterations == sum(iters for _, iters in res.levels)
    assert res.sup_residual <= 1e-10 and res.margin > 0.0
    m = 128

    def density(a):
        return tot.circle_density(
            closed_form=TrigPoly1D.from_modes([(1, a, 0.0)]), m=m)

    u1 = potential_1d(density(0.2), density(0.15))
    u2 = potential_1d(density(0.15), density(0.25))
    exact = u1[:, None] + u2[None, :]
    assert np.max(np.abs(res.potential.values - exact)) < 1e-10


# benchmark pair (seed 600, instance 3): on 64^2 the single-grid Newton
# stalls at 1.8e-10, just above the tolerance
STALL_F = ((1, 0, 0.15, 5.933142595308904), (0, 1, 0.15, 2.063160657609388),
           (1, 1, 0.15, 3.419852972758504))
STALL_G = ((0, 1, 0.15, 5.536359867427846), (1, 1, 0.15, 5.691490061133739),
           (1, -1, 0.15, 0.043692184390797174))


def test_nested_newton_certifies_past_a_stalling_coarse_level():
    coarse = tot.make_density_pair(tot.spec(*STALL_F), tot.spec(*STALL_G),
                                   tot.build_grid(64, 64))
    with pytest.raises(ConvergenceError, match="stalled") as stall:
        tot.newton_correct(tot.identity_cost(), tot.zero_field(coarse.grid),
                           coarse)
    pair = tot.make_density_pair(tot.spec(*STALL_F), tot.spec(*STALL_G),
                                 tot.build_grid(128, 128))
    res = tot.newton_correct(tot.identity_cost(), tot.zero_field(pair.grid),
                             pair)
    (coarse_shape, coarse_iters), (fine_shape, _) = res.levels
    assert coarse_shape == (64, 64) and fine_shape == (128, 128)
    # the 64^2 level stopped at its first step that failed to halve the
    # residual, long before the line search stalled
    assert coarse_iters < stall.value.iterations
    st = assembled_state(tot.identity_cost(), res.potential, pair)
    assert st.sup_residual <= 1e-10 and st.margin > 0.0
    values, _, _ = single_grid_newton(pair)
    assert np.max(np.abs(res.potential.values - values)) < 1e-12


def test_nested_newton_from_solution_does_no_coarse_work(
        pair128, cold_newton128, monkeypatch):
    assert cold_newton128.levels[0][0] == (64, 64)
    shapes = []
    state = continuation.residual_state

    def counted(cost, u1, u2_values, pair):
        shapes.append(u2_values.shape)
        return state(cost, u1, u2_values, pair)

    monkeypatch.setattr(continuation, "residual_state", counted)
    again = tot.newton_correct(tot.identity_cost(), cold_newton128.potential,
                               pair128)
    assert again.iterations == 0
    assert again.levels == (((128, 128), 0),)
    assert shapes == [(128, 128)]


def _recorded_work(monkeypatch):
    """(shape, zero start) of each residual state that ``continuation``
    forms, and the shape of each projection of a start."""
    states, projections = [], []
    state, project = continuation.residual_state, continuation.project_solvable

    def counted_state(cost, u1, u2_values, pair):
        states.append((u2_values.shape,
                       not (np.any(u1) or np.any(u2_values))))
        return state(cost, u1, u2_values, pair)

    def counted_projection(values):
        projections.append(values.shape)
        return project(values)

    monkeypatch.setattr(continuation, "residual_state", counted_state)
    monkeypatch.setattr(continuation, "project_solvable", counted_projection)
    return states, projections


@pytest.mark.parametrize("modes, n", [(None, 128), ((STALL_F, STALL_G), 128),
                                      ((STALL_F, STALL_G), 256)])
def test_cold_solve_does_no_work_on_the_callers_grid_before_it_certifies(
        modes, n, monkeypatch):
    grid = tot.build_grid(n, n)
    pair = (tot.standard_pair(grid) if modes is None else
            tot.make_density_pair(tot.spec(*modes[0]), tot.spec(*modes[1]),
                                  grid))
    states, projections = _recorded_work(monkeypatch)
    res = tot.newton_correct(tot.identity_cost(), tot.zero_field(grid), pair)
    assert res.sup_residual <= 1e-10 and res.margin > 0.0
    assert projections == []
    # the coarsest level starts from its own zeros
    assert states[0] == ((64, 64), True)
    fine = [zero for shape, zero in states if shape == (n, n)]
    # every state on the caller's grid corrects the prolonged coarse result
    assert fine and not any(fine)
    if res.levels[-1] == ((n, n), 0):
        assert len(fine) == 1           # the certifying state alone


def test_nonzero_cold_start_evaluates_its_own_state_first(
        pair128, cold_newton128, monkeypatch):
    start = tot.field(pair128.grid, 0.5 * cold_newton128.potential.values)
    states, projections = _recorded_work(monkeypatch)
    res = tot.newton_correct(tot.identity_cost(), start, pair128)
    assert res.sup_residual <= 1e-10
    assert projections == [(128, 128)]
    assert states[0] == ((128, 128), False)
    assert res.levels[0][0] == (64, 64)


def test_zero_start_on_equal_densities_does_no_coarse_work(grid128,
                                                           monkeypatch):
    s = tot.CATALOG["standard_g"]
    pair = tot.make_density_pair(s, s, grid128)

    def no_coarse_pair(self, grid):
        raise AssertionError("a coarse pair was built")

    monkeypatch.setattr(tot.DensityPair, "on_grid", no_coarse_pair)
    states, _ = _recorded_work(monkeypatch)
    res = tot.newton_correct(tot.identity_cost(), tot.zero_field(grid128),
                             pair)
    assert res.iterations == 0
    assert res.levels == ((grid128.shape, 0),)
    assert states == [((128, 128), True)]


def test_coarse_concavity_error_falls_back_to_the_start(pair128, monkeypatch):
    state = continuation.residual_state

    def no_coarse_state(cost, u1, u2_values, pair):
        if u2_values.shape != (128, 128):
            raise tot.ConcavityError("forced coarse failure")
        return state(cost, u1, u2_values, pair)

    monkeypatch.setattr(continuation, "residual_state", no_coarse_state)
    res = tot.newton_correct(tot.identity_cost(), tot.zero_field(pair128.grid),
                             pair128)
    values, st, iterations = single_grid_newton(pair128)
    assert res.levels == (((128, 128), iterations),)
    assert res.sup_residual <= 1e-10 and st.sup_residual <= 1e-10
    assert np.max(np.abs(res.potential.values - values)) <= 1e-15


def _near_solution(pair128, cold_newton128):
    rng = np.random.default_rng(61)
    return project_solvable(
        cold_newton128.potential.values + 1e-6 * band_limited(pair128.grid, 3, rng))


def test_failed_fine_correction_restarts_from_the_start(pair128,
                                                        cold_newton128,
                                                        monkeypatch):
    # a prolongation that returns zero is admissible, but from zero 3 steps
    # on 128^2 do not certify; the caller's start, near the solution, does
    resample = continuation.resample_values

    def zero_prolongation(values, shape):
        return np.zeros(shape) if shape == (128, 128) else resample(values, shape)

    monkeypatch.setattr(continuation, "resample_values", zero_prolongation)
    start = _near_solution(pair128, cold_newton128)
    values, _, iterations = single_grid_newton(pair128, start, max_iter=3)
    with pytest.raises(ConvergenceError):
        single_grid_newton(pair128, max_iter=3)
    res = tot.newton_correct(tot.identity_cost(), tot.field(pair128.grid, start),
                             pair128, max_iter=3)
    (coarse_shape, coarse_iters), fine = res.levels
    assert coarse_shape == (64, 64) and coarse_iters >= 1
    # the failed correction's 3 steps count on 128^2
    assert fine == ((128, 128), 3 + iterations)
    assert res.iterations == coarse_iters + 3 + iterations
    assert res.sup_residual <= 1e-10
    assert np.max(np.abs(res.potential.values - values)) <= 1e-15


def test_raising_coarse_level_counts_its_iterations(pair128, cold_newton128,
                                                    monkeypatch):
    # the 64^2 level runs and then raises, as a failed coarse step of run
    # may: its steps are counted, and 128^2 corrects the caller's start
    newton = continuation._newton
    coarse = []

    def raises_on_64(cost, u1, u2, pair, *args):
        res = newton(cost, u1, u2, pair, *args)
        if pair.grid.shape == (64, 64):
            coarse.append(res.iterations)
            raise ConvergenceError("forced coarse failure",
                                   iterations=res.iterations)
        return res

    monkeypatch.setattr(continuation, "_newton", raises_on_64)
    start = _near_solution(pair128, cold_newton128)
    res = tot.newton_correct(tot.identity_cost(), tot.field(pair128.grid, start),
                             pair128)
    _, _, iterations = single_grid_newton(pair128, start)
    assert coarse[0] >= 1
    assert res.levels == (((64, 64), coarse[0]), ((128, 128), iterations))
    assert res.iterations == coarse[0] + iterations


def test_failed_level_corrects_its_own_start_and_the_next_certifies(
        pair256, monkeypatch):
    # three levels from zero: the first 128^2 correction, of the prolonged
    # 64^2 result, runs and raises; 128^2 then corrects its own start (zero)
    # and 256^2 certifies the prolonged result of that correction
    newton = continuation._newton
    calls = []

    def first_128_raises(cost, u1, u2, pair, *args):
        res = newton(cost, u1, u2, pair, *args)
        calls.append((pair.grid.shape, u2.values.copy(), res))
        if [shape for shape, _, _ in calls] == [(64, 64), (128, 128)]:
            raise ConvergenceError("forced failure", iterations=res.iterations)
        return res

    monkeypatch.setattr(continuation, "_newton", first_128_raises)
    res = tot.newton_correct(tot.identity_cost(), tot.zero_field(pair256.grid),
                             pair256)
    assert [shape for shape, _, _ in calls] == [(64, 64), (128, 128),
                                               (128, 128), (256, 256)]
    (_, coarse, _), (_, prolonged, _), (_, own, corrected), (_, fine, _) = calls
    assert not np.any(coarse) and np.any(prolonged) and not np.any(own)
    assert np.array_equal(
        fine, continuation.resample_values(corrected.u2.values, (256, 256)))
    assert res.levels == (((64, 64), 4), ((128, 128), 4), ((256, 256), 0))
    assert res.sup_residual <= 1e-10


def test_max_iter_caps_every_level(pair128, monkeypatch):
    solves = []
    solve = continuation.solve_linearized_small_t

    def counted(st, *args):
        solves.append(st.grid.shape)
        return solve(st, *args)

    monkeypatch.setattr(continuation, "solve_linearized_small_t", counted)
    with pytest.raises(ConvergenceError, match="in 1 iterations"):
        tot.newton_correct(tot.identity_cost(), tot.zero_field(pair128.grid),
                           pair128, max_iter=1)
    # the prolonged start and then the caller's start, one step each
    assert solves == [(64, 64), (128, 128), (128, 128)]


def test_convergence_error_counts_every_level(pair128):
    # one step on 64^2, then one on 128^2 from the prolonged start and one
    # from the caller's start before the cap is hit
    with pytest.raises(ConvergenceError) as info:
        tot.newton_correct(tot.identity_cost(), tot.zero_field(pair128.grid),
                           pair128, max_iter=1)
    assert info.value.iterations == 3
    assert info.value.levels == (((64, 64), 1), ((128, 128), 2))
    assert str(info.value).endswith("; newton iters 3 (64x64: 1, 128x128: 2)")


# ---------------------------------------------------------------------------
# the certifying state's map

def _map_gap(tmap, cost, psi):
    """max |A (T - T_ref)| for T_ref = transport_map(cost, psi), which
    re-derives the map from the assembled potential.  psi fixes
    grad psi = A (x - T) to rounding, but T2 itself only to rounding / a22:
    at t = 1e-3, |T2 - T_ref2| reaches 5e-13 on the standard pair."""
    ref = tot.transport_map(cost, psi)
    return max(np.max(np.abs(tmap.v1.values - ref.v1.values)),
               cost.a22 * np.max(np.abs(tmap.v2.values - ref.v2.values)))


def test_cold_solve_carries_the_map_of_its_potential(cold_newton128):
    cost = tot.identity_cost()
    assert _map_gap(cold_newton128.tmap, cost, cold_newton128.potential) \
        <= 1e-13


def test_run_certifies_each_state_on_its_own_map(pair128, monkeypatch):
    calls = []
    transport_map = monge_ampere.transport_map

    def counted(*args):
        calls.append(args)
        return transport_map(*args)

    maps = []
    pushforward = continuation.pushforward_residual

    def recorded(tmap, *args):
        maps.append(tmap)
        return pushforward(tmap, *args)

    monkeypatch.setattr(monge_ampere, "transport_map", counted)
    monkeypatch.setattr(continuation, "pushforward_residual", recorded)
    traj = tot.run(pair128)
    assert calls == [] and not hasattr(continuation, "transport_map")
    assert len(maps) == len(traj.records)
    for rec, tmap in zip(traj.records, maps):
        assert _map_gap(tmap, traj.schedule.matrix(rec.t), rec.psi) <= 1e-13


# ---------------------------------------------------------------------------
# the inexact-Newton forcing term

def test_last_newton_step_does_not_over_solve(pair64, monkeypatch):
    # a certified state at t = 0.3, perturbed smoothly to a sup residual of
    # about 10 tol: one step reaches tol, and its PCG solve stops at the
    # floor 0.1 tol / sup instead of the old 1e-2 sup
    t, tol = 0.3, 1e-10
    cost = tot.CostSchedule.linear().matrix(t)
    solved = tot.newton_correct(cost, tot.zero_field(pair64.grid), pair64,
                                tol=tol)
    x1, x2 = pair64.grid.mesh()
    bump = np.cos(2 * np.pi * (x1 + x2)) + 0.5 * np.sin(2 * np.pi * x2)

    def start(eps):
        return tot.ScalarField(pair64.grid, solved.u2.values + eps * bump)

    probe = residual_state(cost, solved.u1, start(1e-9).values, pair64)
    u2 = start(1e-9 * 10 * tol / probe.sup_residual)
    st = residual_state(cost, solved.u1, u2.values, pair64)
    assert 5 * tol <= st.sup_residual <= 20 * tol

    solve = linearized._solve_with_coefficients
    solves = []

    def counted(*args):
        v, iters = solve(*args)
        solves.append((args[5], iters))
        return v, iters

    monkeypatch.setattr(linearized, "_solve_with_coefficients", counted)
    res = tot.newton_correct_split(cost, solved.u1, u2, pair64, tol=tol)
    assert res.iterations == 1 and res.sup_residual <= tol
    ((inner_tol, iters),) = solves
    assert inner_tol == min(1e-2, 0.1 * tol / st.sup_residual)
    # oracle: the same solve at the old tolerance
    q = st.residual - np.mean(st.residual)
    _, old_iters = solve(pair64.grid, *coefficient_arrays(st), q,
                         1e-2 * st.sup_residual)
    assert 0 < iters <= old_iters / 2


# per-record Newton steps and t ladder of the default 32-step run on the
# standard pair at 64^2.  The t ladder is the one from before the forcing
# term had its floor; the steps are those of the predictor through the
# Knothe node, whose linear first step takes 2 where the Euler step took 1
LADDER_NEWTON_ITERS = [2, 2] + [1] * 14 + [2] * 17
LADDER_T = [
    0.001, 0.0012409377607517195, 0.0015399265260594918, 0.0019109529749704406,
    0.002371373705661655, 0.002942727176209282, 0.003651741272548377,
    0.004531583637600818, 0.00562341325190349, 0.006978305848598663,
    0.008659643233600653, 0.010746078283213174, 0.01333521432163324,
    0.016548170999431816, 0.02053525026457146, 0.025482967479793468,
    0.03162277660168379, 0.039241897584845364, 0.04869675251658631,
    0.06042963902381328, 0.07498942093324558, 0.0930572040929699,
    0.11547819846894582, 0.14330125702369628, 0.1778279410038923,
    0.220673406908459, 0.27384196342643613, 0.33982083289425596,
    0.4216965034285822, 0.5232991146814947, 0.6493816315762114,
    0.8058421877614819, 1.0]


def test_forcing_floor_keeps_the_newton_steps_and_ladder(pair64):
    traj = tot.run(pair64)
    assert [rec.newton_iters for rec in traj.records] == LADDER_NEWTON_ITERS
    assert sum(LADDER_NEWTON_ITERS) == 52
    assert [rec.t for rec in traj.records] == LADDER_T
    _certified_on(pair64, traj)


# ---------------------------------------------------------------------------
# initialization

def test_init_product_predictor_is_nearly_exact(product128):
    init = tot.init_from_knothe(product128, t0=1e-3)
    assert init.lam == 1e-3         # corrected at the t0 it was given
    assert init.iterations <= 2


def test_init_equal_densities(grid64):
    pair = tot.make_density_pair(tot.CATALOG["standard_f"],
                                 tot.CATALOG["standard_f"], grid64)
    init = tot.init_from_knothe(pair, t0=1e-3)
    assert np.max(np.abs(init.potential.values)) < 1e-10


def test_init_distance_to_predictor(pair128, knothe128):
    # the observed gap is first order in t0 (the marginal potential moves
    # at order one); C is measured at the default t0 and pinned with
    # headroom, per the stated t0*lambda(t0) normalization
    sched = tot.CostSchedule.linear()
    t0 = 1e-3
    init = tot.init_from_knothe(pair128, sched, t0)
    lam = sched.lam(t0)
    assert init.lam == lam
    predictor = knothe128.potentials.u1[:, None] + lam * knothe128.potentials.u2.values
    predictor = predictor - predictor.mean()
    err = np.max(np.abs(init.potential.values - predictor))
    c_measured = err / (t0 * lam)
    print(f"init gap at t0={t0:g}: {err:.3e}; "
          f"err/(t0*lambda) = {c_measured:.3f}; err/t0 = {err / t0:.3e}")
    assert err <= 0.5 * t0 * lam


# ---------------------------------------------------------------------------
# run

def test_run_equal_densities_is_flat(grid64):
    pair = tot.make_density_pair(tot.CATALOG["standard_g"],
                                 tot.CATALOG["standard_g"], grid64)
    traj = tot.run(pair, options=tot.ContinuationOptions(steps=8))
    assert len(traj.records) == 9
    for rec in traj.records:
        assert np.max(np.abs(rec.psi.values)) < 1e-10
        assert rec.sup_residual <= 1e-10
        assert rec.pushforward_residual < 1e-12
        assert rec.l2_dist_to_knothe < 1e-9


def test_run_product_follows_separable_solution(traj_product32,
                                                knothe_product128):
    sched = tot.CostSchedule.linear()
    u1 = knothe_product128.potentials.u1
    u2 = knothe_product128.potentials.u2.values
    assert len(traj_product32.records) == 33
    for rec in traj_product32.records:
        assert rec.sup_residual <= 1e-9
        exact = u1[:, None] + sched.lam(rec.t) * u2
        exact = exact - exact.mean()
        assert np.max(np.abs(rec.psi.values - exact)) <= 1e-7
        assert rec.l2_dist_to_knothe <= 1e-8   # product pair: maps coincide


def test_run_certifies_every_state(traj32):
    ts = traj32.times()
    assert np.all(np.diff(ts) > 0.0)
    for rec in traj32.records:
        assert rec.sup_residual <= 1e-9
        assert rec.margin > 0.0


def test_run_margin_scales_with_lambda(traj32, knothe128):
    _, m2 = knothe128.potentials.margins
    for rec in traj32.records:
        assert rec.margin / min(1.0, rec.t) >= 0.5 * m2


def test_run_psi2_stays_bounded(traj32, knothe128):
    cap = 2.0 * np.max(np.abs(knothe128.potentials.u2.values))
    for rec in traj32.records:
        assert np.max(np.abs(rec.psi2.values)) <= cap


def test_run_step_counts_agree(traj32, traj64):
    diff = traj32.final.psi.values - traj64.final.psi.values
    assert np.max(np.abs(diff)) <= 1e-7


def test_run_endpoint_matches_cold_newton(traj32, cold_newton128):
    diff = traj32.final.psi.values - cold_newton128.potential.values
    assert np.max(np.abs(diff)) <= 1e-8


def test_run_l2_distance_decreases_toward_knothe(traj32):
    l2 = [rec.l2_dist_to_knothe for rec in traj32.records]
    assert all(b - a > -1e-10 for a, b in zip(l2, l2[1:]))


def test_run_adaptive_mode(pair64):
    opts = tot.ContinuationOptions(steps="adaptive", t0=1e-2)
    traj = tot.run(pair64, options=opts)
    assert traj.final.t == 1.0
    for rec in traj.records:
        assert rec.sup_residual <= opts.newton_tol


def test_fixed_ladder_from_a_small_t0_certifies(pair64):
    # the first rung, 1e-8 (10^(8/32) - 1) = 7.8e-9, is below the collapse
    # floor, but no step was rejected, so the ladder takes it
    opts = tot.ContinuationOptions(t0=1e-8)
    traj = tot.run(pair64, options=opts)
    assert [rec.t for rec in traj.records][:2] == pytest.approx(
        [1e-8, 1e-8 * 10 ** 0.25], rel=1e-12)
    assert len(traj.records) == 33 and traj.final.t == 1.0
    _certified_on(pair64, traj)


def test_fixed_ladder_ends_at_t1_itself(pair64):
    # the last rung of t0 (t1 / t0)^(k / steps), k = steps, misses t1 = 1 by
    # an ulp at t0 = 1e-5
    opts = tot.ContinuationOptions(t0=1e-5, steps=2)
    assert opts.t0 * (opts.t1 / opts.t0) ** 1.0 != opts.t1
    traj = tot.run(pair64, options=opts)
    assert traj.final.t == opts.t1
    _certified_on(pair64, traj)


def _single_grid(monkeypatch):
    """Make every grid too small to nest."""
    monkeypatch.setattr(tot.grid, "COARSEST_SIDE", 1 << 20)


def _certified_on(pair, traj):
    # recompute each record's certificate on the caller's grid from its
    # stored fields, not from what the run reported
    sched = traj.schedule
    for rec in traj.records:
        st = residual_state(sched.matrix(rec.t), rec.u1, rec.psi2.values,
                            pair)
        assert st.sup_residual <= traj.options.newton_tol
        assert st.margin > 0.0


def _recorded_velocity_shapes(monkeypatch):
    """Record the grid shape of every velocity solve."""
    shapes = []
    velocity = continuation._velocity_split

    def recorded(cost, u1, u2, pair, *args, **kwargs):
        shapes.append(np.shape(u2))
        return velocity(cost, u1, u2, pair, *args, **kwargs)

    monkeypatch.setattr(continuation, "_velocity_split", recorded)
    return shapes


def test_run_single_grid_solves_no_velocity(pair64, monkeypatch):
    # steps 1 and 2 extrapolate through the Knothe node at t = 0; from
    # step 3 on, through the three newest certified states
    shapes = _recorded_velocity_shapes(monkeypatch)
    opts = tot.ContinuationOptions(steps=8)
    traj = tot.run(pair64, options=opts)
    assert shapes == []
    assert len(traj.records) == 9 and traj.final.t == 1.0
    _certified_on(pair64, traj)


def test_predictor_reproduces_a_quadratic_path(pair64):
    # u1 and lambda u2 quadratic in t, with content only in the solver
    # subspace (|k| < n/2, no Nyquist modes): extrapolation through three
    # states on unequally spaced t is exact
    rng = np.random.default_rng(7)
    grid = pair64.grid
    x1 = np.arange(grid.n1) / grid.n1
    sched = tot.CostSchedule.power(2)

    def marginal():
        return sum(rng.normal() * np.cos(2 * np.pi * k * x1 + rng.normal())
                   for k in range(1, 5))

    def fiber():
        b = 0.1 * band_limited(grid, 4, rng)
        return b - b.mean(axis=1, keepdims=True)

    c1 = [marginal() for _ in range(3)]
    c2 = [fiber() for _ in range(3)]

    def path(t):
        u1 = c1[0] + t * c1[1] + t * t * c1[2]
        lam_u2 = c2[0] + t * c2[1] + t * t * c2[2]
        return u1, lam_u2 / sched.lam(t)

    history = [continuation._State(t, path(t)[0], tot.field(grid, path(t)[1]))
               for t in (0.3, 0.42, 0.6)]
    for t_next in (0.6 + 1e-3, 0.8, 1.0):
        p1, p2 = continuation._predict(history, t_next, pair64, sched)
        exact1, exact2 = path(t_next)
        assert np.max(np.abs(p1 - exact1)) < 1e-13
        assert np.max(np.abs(p2.values - exact2)) < 1e-13


def test_predictor_through_the_knothe_node_reproduces_a_linear_path(pair64):
    # u1 and lambda u2 linear in t, with lambda_0 u2 = 0 at the node t = 0
    # whatever u2 is there: extrapolation through (0, t0) is exact
    rng = np.random.default_rng(11)
    grid = pair64.grid
    x1 = np.arange(grid.n1) / grid.n1
    sched = tot.CostSchedule.power(2)

    def fiber():
        b = 0.1 * band_limited(grid, 4, rng)
        return b - b.mean(axis=1, keepdims=True)

    c1 = [sum(rng.normal() * np.cos(2 * np.pi * k * x1 + rng.normal())
              for k in range(1, 5)) for _ in range(2)]
    slope2 = fiber()

    def path(t):
        return c1[0] + t * c1[1], t * slope2 / sched.lam(t)

    node = continuation._State(0.0, c1[0], tot.field(grid, fiber()))
    t0 = 0.3
    history = [node, continuation._State(t0, path(t0)[0],
                                         tot.field(grid, path(t0)[1]))]
    for t_next in (t0 + 1e-3, 0.6, 1.0):
        p1, p2 = continuation._predict(history, t_next, pair64, sched)
        exact1, exact2 = path(t_next)
        assert np.max(np.abs(p1 - exact1)) < 1e-13
        assert np.max(np.abs(p2.values - exact2)) < 1e-13


def test_run_predicts_its_first_two_steps_through_the_knothe_node(pair64,
                                                                  monkeypatch):
    nodes = []
    predict = continuation._predict

    def recorded(history, t_next, *args, **kwargs):
        nodes.append(([s.t for s in history], t_next, history[0].u1))
        return predict(history, t_next, *args, **kwargs)

    monkeypatch.setattr(continuation, "_predict", recorded)
    traj = tot.run(pair64, options=tot.ContinuationOptions(steps=8))
    t = traj.times()
    assert traj.records[0].t == traj.options.t0 == t[0]
    # 64^2 does not nest: one prediction per step
    assert len(nodes) == 8
    assert nodes[0][:2] == ([0.0, t[0]], t[1])
    assert nodes[1][:2] == ([0.0, t[0], t[1]], t[2])
    assert nodes[2][:2] == (list(t[:3]), t[3])
    # the node at t = 0 is the Knothe pair itself
    assert nodes[0][2] is nodes[1][2] is traj.knothe.potentials.u1
    _certified_on(pair64, traj)


def test_extrapolation_keeps_an_under_resolved_pair_on_the_ladder(monkeypatch):
    # benchmark pair (600, 3) single-grid at 128^2: its Knothe start has
    # Nyquist content that the corrector cannot change.  Extrapolating the
    # unprojected states amplifies its rounding step after step until the
    # certificate floor rises above newton_tol and the steps collapse
    _single_grid(monkeypatch)
    pair = tot.make_density_pair(tot.spec(*STALL_F), tot.spec(*STALL_G),
                                 tot.build_grid(128, 128))
    opts = tot.ContinuationOptions(steps=8)
    traj = tot.run(pair, options=opts)
    ladder = opts.t0 * (opts.t1 / opts.t0) ** (np.arange(9) / 8)
    assert len(traj.records) == 9
    assert np.allclose(traj.times(), ladder, rtol=1e-14, atol=0.0)
    _certified_on(pair, traj)


def test_rejected_step_is_bisected_and_becomes_a_node(pair64, monkeypatch):
    # 64^2 does not nest, so each attempt corrects once; the fifth step's
    # first correction fails, once
    correct = continuation.newton_correct_split
    calls = []

    def fails_once(cost, *args, **kwargs):
        calls.append(cost.t)
        if len(calls) == 6:             # the init, then steps 1-4
            raise ConvergenceError("forced failure", iterations=0)
        return correct(cost, *args, **kwargs)

    nodes = []
    predict = continuation._predict

    def recorded(history, t_next, *args, **kwargs):
        nodes.append(([s.t for s in history], t_next))
        return predict(history, t_next, *args, **kwargs)

    monkeypatch.setattr(continuation, "newton_correct_split", fails_once)
    monkeypatch.setattr(continuation, "_predict", recorded)
    traj = tot.run(pair64, options=tot.ContinuationOptions(steps=8))
    t = traj.times()
    assert len(t) == 10 and t[-1] == 1.0
    # the geometric midpoint of the rejected step was inserted
    assert nodes[4] == (list(t[2:5]), t[6])
    assert t[5] == pytest.approx(np.sqrt(t[4] * t[6]), rel=1e-14)
    assert nodes[5] == (list(t[2:5]), t[5])
    # and the following predictions extrapolate through it
    assert nodes[6] == (list(t[3:6]), t[6])
    assert nodes[7] == (list(t[4:7]), t[7])
    _certified_on(pair64, traj)


def test_run_aborts_with_partial_trajectory(pair64, monkeypatch):
    # initialization succeeds (its correction at t0 runs), every later
    # step's corrector is forced to fail, so the step size collapses
    correct = continuation.newton_correct_split

    def fails_after_t0(cost, *args, **kwargs):
        if cost.t > 0.1:
            raise ConvergenceError("forced failure")
        return correct(cost, *args, **kwargs)

    monkeypatch.setattr(continuation, "newton_correct_split", fails_after_t0)
    with pytest.raises(StepCollapseError) as info:
        tot.run(pair64, options=tot.ContinuationOptions(steps=4, t0=0.1))
    partial = info.value.trajectory
    assert partial is not None and len(partial.records) >= 1
    assert partial.records[0].t == 0.1


def _traced_peak(pair, steps, keep):
    tracemalloc.start()
    try:
        tot.run(pair, options=tot.ContinuationOptions(steps=steps),
                keep_potentials=keep)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_without_potentials_holds_no_field_per_record(pair64):
    # 24 more records: the default run holds one more grid array for each,
    # a run that drops them holds its three newest nodes whatever the ladder
    array_bytes = pair64.grid.n1 * pair64.grid.n2 * 8
    tot.run(pair64, options=tot.ContinuationOptions(steps=2))  # warm caches
    growth = {keep: _traced_peak(pair64, 32, keep) - _traced_peak(pair64, 8, keep)
              for keep in (True, False)}
    assert growth[False] < 2 * array_bytes
    assert growth[True] >= 20 * array_bytes


def test_run_without_potentials_records_the_same_path(pair64):
    opts = tot.ContinuationOptions(steps=8)
    kept = tot.run(pair64, options=opts)
    dropped = tot.run(pair64, options=opts, keep_potentials=False)
    assert len(kept.records) == len(dropped.records) == 9
    for a, b in zip(kept.records, dropped.records):
        assert (a.t, a.lam, a.margin, a.sup_residual, a.pushforward_residual,
                a.l2_dist_to_knothe, a.newton_iters, a.levels) == (
                    b.t, b.lam, b.margin, b.sup_residual,
                    b.pushforward_residual, b.l2_dist_to_knothe,
                    b.newton_iters, b.levels)
        assert np.array_equal(a.u1, b.u1)
    assert np.array_equal(kept.final.psi.values, dropped.final.psi.values)
    a, b = kept.final.tmap, dropped.final.tmap
    assert np.array_equal(a.v1.values, b.v1.values)
    assert np.array_equal(a.v2.values, b.v2.values)
    # a dropped record names the keyword that keeps its field
    for rec in dropped.records[:-1]:
        assert rec.psi2 is None
        with pytest.raises(ValueError, match="keep_potentials=True"):
            rec.psi
        with pytest.raises(ValueError, match="keep_potentials=True"):
            rec.tmap


def test_partial_trajectory_keeps_its_newest_field(pair64, monkeypatch):
    # the ladder 0.1, 0.178, 0.316, ... certifies 0.1 and 0.178, then every
    # step past 0.2 is forced to fail: the bisected steps below it certify
    # until they collapse
    correct = continuation.newton_correct_split

    def fails_past(cost, *args, **kwargs):
        if cost.t > 0.2:
            raise ConvergenceError("forced failure")
        return correct(cost, *args, **kwargs)

    monkeypatch.setattr(continuation, "newton_correct_split", fails_past)
    with pytest.raises(StepCollapseError) as info:
        tot.run(pair64, options=tot.ContinuationOptions(steps=4, t0=0.1),
                keep_potentials=False)
    *older, newest = info.value.trajectory.records
    assert len(older) >= 2 and newest.t <= 0.2
    assert all(rec.psi2 is None for rec in older)
    assert np.all(np.isfinite(newest.psi.values))


# ---------------------------------------------------------------------------
# nested run: each step is predicted and corrected on the halved grid, the
# caller's grid certifies

def test_nested_run_follows_separable_solution(product128, traj_product32):
    # f and g factorize, so psi_t = u1(x1) + lambda_t u2(x2) with u1, u2 the
    # potentials of the two 1D transports (not the Knothe potentials)
    m = 128

    def density(a):
        return tot.circle_density(
            closed_form=TrigPoly1D.from_modes([(1, a, 0.0)]), m=m)

    u1 = potential_1d(density(0.2), density(0.15))
    u2 = potential_1d(density(0.15), density(0.25))
    sched = traj_product32.schedule
    for rec in traj_product32.records[1:]:
        assert rec.levels[0][0] == (64, 64)
        assert rec.levels[-1][0] == (128, 128)
        assert rec.newton_iters == sum(iters for _, iters in rec.levels)
        exact = u1[:, None] + sched.lam(rec.t) * u2[None, :]
        exact -= exact.mean()
        assert np.max(np.abs(rec.psi.values - exact)) < 1e-10
    _certified_on(product128, traj_product32)


def test_nested_run_certifies_an_under_resolved_pair(monkeypatch):
    # benchmark pair (600, 3): its 64^2 levels stop above the tolerance, so
    # every step needs Newton on 128^2
    pair = tot.make_density_pair(tot.spec(*STALL_F), tot.spec(*STALL_G),
                                 tot.build_grid(128, 128))
    opts = tot.ContinuationOptions(steps=8)
    nested = tot.run(pair, options=opts)
    _certified_on(pair, nested)
    assert all(rec.levels[-1][1] >= 1 for rec in nested.records[1:])
    _single_grid(monkeypatch)
    single = tot.run(pair, options=opts)
    assert np.array_equal(nested.times(), single.times())
    assert np.max(np.abs(nested.final.psi.values
                         - single.final.psi.values)) < 1e-12


def test_nested_run_does_not_warn_on_a_coarse_truncation_floor():
    # benchmark pair (9734, 23): its certified t0 state, restricted to
    # 64^2, has a residual of 1.8e-6 there, above the velocity's warning
    # level; the warning is meant for states off the path, and this one
    # is certified on 128^2
    f = ((0, 1, 0.15, 2.422800401480321), (1, 1, 0.15, 1.3640205766631353),
         (1, -1, 0.15, 3.339182360765461))
    g = ((0, 1, 0.15, 5.154151629666907), (1, 1, 0.15, 4.429259251425833),
         (1, -1, 0.15, 0.48351125912344367))
    pair = tot.make_density_pair(tot.spec(*f), tot.spec(*g),
                                 tot.build_grid(128, 128))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = tot.run(pair, options=tot.ContinuationOptions(steps=4))
    assert all(rec.levels[0][0] == (64, 64) for rec in traj.records[1:])
    _certified_on(pair, traj)


def test_failed_coarse_step_falls_back_to_the_single_grid_step(pair128,
                                                               monkeypatch):
    opts = tot.ContinuationOptions(steps=4)
    state = continuation.residual_state

    def no_coarse_state(cost, u1, u2_values, pair):
        if u2_values.shape != (128, 128):
            raise tot.ConcavityError("forced coarse failure")
        return state(cost, u1, u2_values, pair)

    with monkeypatch.context() as patch:
        patch.setattr(continuation, "residual_state", no_coarse_state)
        # the single-grid run's Knothe fibers are cold too: bit for bit
        patch.setattr(tot.knothe, "level_shapes", lambda shape: [shape])
        fallback = tot.run(pair128, options=opts)
    _single_grid(monkeypatch)
    single = tot.run(pair128, options=opts)
    assert len(fallback.records) == len(single.records) == 5
    for a, b in zip(fallback.records, single.records):
        assert a.t == b.t
        assert np.array_equal(a.psi.values, b.psi.values)
        assert a.levels == b.levels == (((128, 128), b.newton_iters),)


def test_run_below_128_does_not_nest(pair64, monkeypatch):
    shapes = set()
    state = continuation.residual_state

    def recorded(cost, u1, u2_values, pair):
        shapes.add(u2_values.shape)
        return state(cost, u1, u2_values, pair)

    monkeypatch.setattr(continuation, "residual_state", recorded)
    traj = tot.run(pair64, options=tot.ContinuationOptions(steps=4))
    assert shapes == {(64, 64)}
    assert all(rec.levels == (((64, 64), rec.newton_iters),)
               for rec in traj.records)


def test_nested_run_solves_no_velocity(pair128, cold_newton128,
                                       monkeypatch):
    velocity_shapes = _recorded_velocity_shapes(monkeypatch)
    traj = tot.run(pair128, options=tot.ContinuationOptions(steps=16))
    # every step extrapolates, on 64^2 and on 128^2
    assert velocity_shapes == []
    assert all(rec.levels[0][0] == (64, 64) for rec in traj.records[1:])
    _certified_on(pair128, traj)
    diff = traj.final.psi.values - cold_newton128.potential.values
    assert np.max(np.abs(diff)) <= 1e-8


def test_trajectory_summary_csv(traj32, tmp_path):
    path = tmp_path / "trajectory.csv"
    tot.trajectory_summary_csv(traj32, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("t,sup_residual,margin,pushforward_residual,"
                        "l2_dist_to_knothe,newton_iters")
    assert len(lines) == len(traj32.records) + 1
    first = lines[1].split(",")
    assert float(first[0]) == traj32.records[0].t
    assert first[5] == str(traj32.records[0].newton_iters)


def test_run_refuses_a_pushforward_k_the_grid_cannot_resolve(pair64,
                                                             monkeypatch):
    def no_work(pair):
        raise AssertionError("knothe_solution was called")

    monkeypatch.setattr(continuation, "knothe_solution", no_work)
    with pytest.raises(ValueError, match=r"^pushforward_residual needs an "
                       r"integer K >= 1 with 2K < min\(n1, n2\) = 64, got 32$"):
        tot.run(pair64, options=tot.ContinuationOptions(pushforward_k=32,
                                                        steps=2))


def test_run_refuses_a_schedule_that_vanishes_at_t0(pair64, monkeypatch):
    def no_work(pair):
        raise AssertionError("knothe_solution was called")

    monkeypatch.setattr(continuation, "knothe_solution", no_work)
    # lambda = t^110 underflows to 0.0 at t0 = 1e-3: A_t0 is no cost
    with pytest.raises(ValueError,
                       match=r"^a22 = lambda\(0\.001\) must be positive and "
                             r"finite, got 0\.0$"):
        tot.run(pair64, tot.CostSchedule.power(110),
                tot.ContinuationOptions(steps=2))


def test_init_refuses_a_schedule_that_vanishes_at_t0(monkeypatch):
    pair = tot.standard_pair(tot.build_grid(16, 16))
    calls = []
    knothe = continuation.knothe_solution

    def counted(pair):
        calls.append(pair.grid.shape)
        return knothe(pair)

    monkeypatch.setattr(continuation, "knothe_solution", counted)
    # lambda = t^110 underflows to 0.0 at t0 = 1e-3: A_t0 is no cost
    with pytest.raises(ValueError, match=r"^a22 = lambda\(0\.001\)"):
        continuation.init_from_knothe(pair, tot.CostSchedule.power(110),
                                      1e-3)
    assert calls == []


def test_options_validation():
    with pytest.raises(ValueError):
        tot.ContinuationOptions(t0=0.0).validated()
    with pytest.raises(ValueError):
        tot.ContinuationOptions(steps=0).validated()
    for bad in ({"pushforward_k": 0}, {"pushforward_k": -1},
                {"pushforward_k": True}, {"pushforward_k": 2.0},
                {"max_newton": 0}, {"newton_tol": 0.0}, {"newton_tol": -1e-11},
                {"steps": True}, {"max_newton": True},
                {"t0": float("nan")}, {"t1": float("inf")},
                {"newton_tol": float("inf")}, {"newton_tol": float("nan")}):
        with pytest.raises(ValueError):
            tot.ContinuationOptions(**bad).validated()
    assert tot.ContinuationOptions(steps="adaptive").validated()
    assert tot.ContinuationOptions(pushforward_k=1, max_newton=1).validated()
