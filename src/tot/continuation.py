"""Continuation from the Knothe rearrangement to the Brenier map.

The Kantorovich potential solves, along the cost schedule,

    Div( f [A_t - D^2 psi_t]^{-1} (grad psi_dot - Adot A^{-1} grad psi) ) = 0,

with initial behaviour pinned by the rearrangement's potential pair at
t = 0.  The continuation is a predictor-corrector.  The potential evolves
smoothly in t, so each certified state samples a smooth curve: the next
potential is predicted by quadratic extrapolation through the three
newest certified states (an Euler step on the velocity field for the
first two steps, before three exist), and a damped Newton iteration on
the nonlinear residual corrects it, so every accepted state is an exact
(to tolerance) Monge-Ampere solution - the trajectory's accuracy is
certified pointwise rather than by step-size analysis.  Stepping is
geometric toward t0 by default, matching the lambda_t = t degeneration.

The state is carried from t0 to t1 in the decomposed coordinates
psi = u1(x1) + lambda_t u2(x1, x2), in which the residual, its
linearization and the velocity stay O(1) as lambda_t -> 0; the assembled
psi is formed only for the records.  t0 stays strictly positive: the
t = 0 state is represented by the Knothe potentials themselves, and
``init_from_knothe`` bridges the gap.

Both solvers are nested (grid sequencing): a cold ``newton_correct``
solves on halved grids first, and every step of ``run`` predicts and
corrects on the halved grid first; the caller's grid only certifies.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ConcavityError, ConstructionError, ConvergenceError,
                     InitializationError, StepCollapseError)
# deriv_values is not called here; bench/test_repeatability.py checks that
# the tracer rebinds and restores this module's binding of it
from .grid import (PeriodicGrid, ScalarField, deriv_values,  # noqa: F401
                   resample_values)
from .knothe import KnotheSolution, knothe_solution, l2_map_distance
from .linearized import (_kernels, _solve_with_coefficients, coefficient_arrays,
                         _cost_rate_values, solve_linearized_small_t)
from .monge_ampere import (CostSchedule, decompose, pushforward_residual,
                           residual_state, split_residual_state,
                           transport_map)

__all__ = [
    "ContinuationOptions", "NewtonResult", "InitResult", "TrajectoryRecord",
    "Trajectory", "velocity", "newton_correct",
    "newton_correct_split", "init_from_knothe", "run",
    "trajectory_summary_csv",
]

RESIDUAL_WARN = 1e-6


@dataclass
class ContinuationOptions:
    """Driver settings; ``steps`` is an interval count or "adaptive"."""

    t0: float = 1e-3
    t1: float = 1.0
    steps: object = 32
    newton_tol: float = 1e-10
    max_newton: int = 20
    step_grading: str = "geometric"
    grading_ratio: float | None = None
    solver_tol: float = 1e-11
    pushforward_k: int = 4

    def validated(self):
        if not (0.0 < self.t0 < self.t1):
            raise ValueError(f"need 0 < t0 < t1, got t0={self.t0}, t1={self.t1}")
        if self.steps != "adaptive":
            if not (isinstance(self.steps, int) and self.steps >= 1):
                raise ValueError("steps must be a positive integer or 'adaptive'")
        if self.step_grading not in ("geometric", "uniform"):
            raise ValueError("step_grading must be 'geometric' or 'uniform'")
        if self.grading_ratio is not None:
            if not self.grading_ratio > 1.0:
                raise ValueError("grading_ratio must exceed 1")
            # only the fixed geometric ladder reads it
            if self.steps == "adaptive" or self.step_grading == "uniform":
                raise ValueError("grading_ratio needs fixed steps and "
                                 "geometric step_grading")
        if not self.newton_tol > 0.0:
            raise ValueError("newton_tol must be positive")
        if not (isinstance(self.max_newton, int) and self.max_newton >= 1):
            raise ValueError("max_newton must be a positive integer")
        if not self.solver_tol > 0.0:
            raise ValueError("solver_tol must be positive")
        # K < 1 leaves no test functions: the certificate would pass vacuously
        if not (isinstance(self.pushforward_k, int)
                and not isinstance(self.pushforward_k, bool)
                and self.pushforward_k >= 1):
            raise ValueError("pushforward_k must be a positive integer")
        return self


def _velocity_split(t, u1, u2, pair, schedule, tol, warn=True):
    """Velocity in decomposed coordinates: (v1, v2) with psi_dot = v1 +
    lambda v2.  The cost-rate right-hand side comes from the decomposed
    derivatives, so no 1/lambda cancellation touches the small component."""
    st = split_residual_state(t, u1, u2.values, pair, schedule)
    if warn and st.sup_residual > RESIDUAL_WARN:
        warnings.warn(
            f"velocity evaluated at sup|residual| = {st.sup_residual:.3g} > "
            f"{RESIDUAL_WARN:g}; the state is far from solved", stacklevel=3)
    rhs = ScalarField(pair.grid, _cost_rate_values(st), zero_mean=True)
    return solve_linearized_small_t(t, u1, u2, pair, rhs, tol=tol,
                                    schedule=schedule)


def _assemble(lam, u1, u2):
    """Zero-mean potential u1 + lam u2 on the grid."""
    values = u1[:, None] + lam * u2.values
    return ScalarField(u2.grid, values - np.mean(values), zero_mean=True)


def velocity(t, psi, pair, schedule=None, *, tol=1e-11, warn=True):
    """Potential velocity psi_dot at an (approximately) solved state.

    Solves the linearized equation with the cost-rate right-hand side in
    the decomposed coordinates of psi and reassembles v1 + lambda v2.
    Warns if the state's residual exceeds 1e-6 (the equation then drifts
    from the evolution it is meant to follow).
    """
    schedule = schedule or CostSchedule.linear()
    u1, u2 = decompose(t, psi, schedule)
    v1, v2 = _velocity_split(t, u1, u2, pair, schedule, tol, warn=warn)
    return _assemble(schedule.lam(t), v1, v2)


def _damped_newton(x, evaluate, solve, tol, max_iter, solver_tol, *,
                   state=None, coarse=False):
    """Damped Newton on an iterate x given as a tuple of arrays.

    ``evaluate(x)`` returns the residual state at x and raises
    ``ConcavityError`` where the margin is not positive; ``state`` is that
    state when the caller already has it.  ``solve(st, q, inner_tol)``
    returns the direction, shaped like x, that solves the linearized
    equation at st for the zero-mean residual q.  Each step backtracks (s
    halved from 1) until the sup-residual decreases and the margin stays
    positive.  Returns (x, state, iterations).

    A ``coarse`` loop only supplies a starting guess: it also stops after
    the first step that fails to halve the sup-residual, and where the
    plain loop raises it hands back its last accepted iterate.
    """
    st = evaluate(x) if state is None else state
    previous = np.inf
    for iteration in range(max_iter + 1):
        sup = st.sup_residual
        if sup <= tol or coarse and (iteration == max_iter
                                     or sup > 0.5 * previous):
            return x, st, iteration
        if iteration == max_iter:
            break
        q = st.residual - np.mean(st.residual)
        inner_tol = solver_tol if solver_tol is not None else \
            min(1e-2, max(1e-12, 1e-2 * sup))
        delta = solve(st, q, inner_tol)
        s = 1.0
        while s >= 2.0 ** -20:
            candidate = tuple(a - s * d for a, d in zip(x, delta))
            try:
                cand_st = evaluate(candidate)
            except ConcavityError:
                s *= 0.5
                continue
            if cand_st.sup_residual < sup:
                x, st = candidate, cand_st
                break
            s *= 0.5
        else:
            if coarse:
                return x, st, iteration
            raise ConvergenceError(
                f"newton line search stalled at iteration {iteration} "
                f"(sup|residual| = {sup:.3g}, margin = {st.margin:.3g})",
                residual=sup, iterations=iteration)
        previous = sup
    raise ConvergenceError(
        f"newton did not reach {tol:g} in {max_iter} iterations "
        f"(sup|residual| = {st.sup_residual:.3g})",
        residual=st.sup_residual, iterations=max_iter)


def _solve_at(grid, st, q, tol):
    """PCG solve of the linearized equation with the coefficients of st."""
    v, _ = _solve_with_coefficients(grid, *coefficient_arrays(st), q, tol,
                                    None, None)
    return v


@dataclass
class NewtonResult:
    """A certified solve; ``iterations`` counts the Newton steps of every
    level and ``levels`` holds (grid shape, iterations) per level,
    coarsest first, ending with the caller's grid."""

    potential: ScalarField
    iterations: int
    sup_residual: float
    margin: float
    levels: tuple


def newton_correct(cost, psi_init, pair, tol=1e-10, max_iter=20, *,
                   solver_tol=None):
    """Damped Newton solve of the Monge-Ampere residual at fixed cost.

    Each step solves the linearized equation for the zero-mean projected
    residual, then backtracks (s halved from 1) until the sup-residual
    decreases and the margin stays positive.  Starting from the exact
    solution costs 0 iterations.

    When the start misses ``tol`` and both grid sides halve to even sizes
    of at least ``COARSEST_SIDE``, the solve is nested: the start is
    restricted spectrally to the halved grid, solved there (recursively,
    each coarse level capped by ``max_iter`` and stopping once a step
    fails to halve its residual), and the coarse solution is prolonged
    back.  It replaces the start only if its margin is positive and its
    residual lower; a coarse level that fails is dropped.  The coarse
    levels only supply a starting guess: the damped Newton loop then runs
    unchanged on the caller's grid, so every result is certified there.

    Parameters
    ----------
    psi_init : ScalarField
        Starting potential; its margin must be positive.
    tol : float
        Target on sup |residual|.
    solver_tol : float, optional
        Relative tolerance of the inner CG solves; by default it tightens
        with the residual (inexact Newton), never looser than 1e-2.

    Raises
    ------
    ConvergenceError
        If ``max_iter`` is exhausted on the caller's grid or the line
        search stalls there (s < 2^-20); its ``iterations`` counts the
        steps of every level.
    """
    grid = pair.grid
    # start in the solver subspace: updates live there, so any Nyquist-row
    # contamination in the initial guess could never be corrected
    values, st, levels = _nested_newton(
        cost, _kernels(*grid.shape).project_solvable(psi_init.values), pair,
        tol, max_iter, solver_tol, coarse=False)
    return NewtonResult(ScalarField(grid, values, zero_mean=True),
                        sum(iters for _, iters in levels), st.sup_residual,
                        st.margin, tuple(levels))


# smallest side of a coarse level of the nested solve.  A 32^2 level takes
# 5 steps and leaves 1 for 64^2, so it costs more than it saves: cold
# solves of 8 benchmark pairs at 256^2 took 56-57 ms with it against
# 40-46 ms without, and of the standard pair at 128^2 27-29 against 20-23 ms
# (one thread, shared 2-core machine)
COARSEST_SIDE = 64


def _halved(grid):
    """The next coarser level of a nested solve, or None when a halved side
    would be odd or below ``COARSEST_SIDE``."""
    half = (grid.n1 // 2, grid.n2 // 2)
    if all(n >= COARSEST_SIDE and n % 2 == 0 for n in half):
        return PeriodicGrid(*half)
    return None


def _nested_newton(cost, values, pair, tol, max_iter, solver_tol, coarse):
    """(values, state, levels) of the damped Newton solve from ``values``
    on ``pair.grid``, first through the halved grid when that helps (see
    :func:`newton_correct`).  No fine state is held while the coarse
    levels run."""
    grid = pair.grid

    def evaluate(x):
        return residual_state(cost, x[0], pair)

    st = evaluate((values,))
    levels = []
    half = _halved(grid)
    if st.sup_residual > tol and half is not None:
        sup, st = st.sup_residual, None
        try:
            coarse_values, _, levels = _nested_newton(
                cost, resample_values(values, half.shape), pair.on_grid(half),
                tol, max_iter, solver_tol, coarse=True)
            prolonged = resample_values(coarse_values, grid.shape)
            st = evaluate((prolonged,))
        except (ConcavityError, ConvergenceError):
            pass                # a coarse level that fails is dropped
        if st is not None and st.sup_residual < sup:
            values = prolonged
        else:
            st = evaluate((values,))
    try:
        (values,), st, iterations = _damped_newton(
            (values,), evaluate,
            lambda st, q, inner_tol: (_solve_at(grid, st, q, inner_tol),),
            tol, max_iter, solver_tol, state=st, coarse=coarse)
    except ConvergenceError as exc:
        exc.iterations += sum(iters for _, iters in levels)
        raise
    return values, st, levels + [(grid.shape, iterations)]


@dataclass
class SplitNewtonResult:
    u1: np.ndarray
    u2: ScalarField
    iterations: int
    sup_residual: float
    margin: float


def newton_correct_split(t, u1, u2, pair, schedule=None, tol=1e-10,
                         max_iter=20, *, solver_tol=None):
    """Damped Newton on the decomposed potential u1 + lambda_t u2, t > 0.

    Same iteration as :func:`newton_correct` but in the (u1, u2)
    coordinates: states come from ``split_residual_state`` and every
    direction v is split as v1 = int v dx2, v2 = (v - v1) / lambda.  The
    assembled potential stores the fiber component a factor lambda below
    the marginal one, so at small t float64 cannot represent it accurately
    enough to push the residual below roughly eps * (pi n)^2 / lambda; the
    decomposed iteration has no such floor.
    """
    return _split_newton(t, u1, u2, pair, schedule or CostSchedule.linear(),
                         tol, max_iter, solver_tol)


def _split_newton(t, u1, u2, pair, schedule, tol, max_iter, solver_tol,
                  coarse=False):
    grid = pair.grid

    def direction(st, q, inner_tol):
        v = ScalarField(grid, _solve_at(grid, st, q, inner_tol))
        v1, v2 = decompose(t, v, schedule)
        return v1, v2.values

    (u1, u2_values), st, iterations = _damped_newton(
        (np.asarray(u1, float).copy(), u2.values),
        lambda x: split_residual_state(t, x[0], x[1], pair, schedule),
        direction, tol, max_iter, solver_tol, coarse=coarse)
    return SplitNewtonResult(u1, ScalarField(grid, u2_values), iterations,
                             st.sup_residual, st.margin)


@dataclass
class InitResult:
    potential: ScalarField
    t0: float
    iterations: int
    sup_residual: float
    knothe: KnotheSolution
    u1: np.ndarray
    u2: ScalarField
    margin: float


def init_from_knothe(pair, schedule=None, t0=1e-3, *, newton_tol=1e-10,
                     max_newton=20, max_halvings=8, knothe=None):
    """Converged potential at small t0 from the Knothe predictor.

    The predictor (u1, lambda_{t0} u2) is Newton-corrected at A_{t0} in
    decomposed coordinates; if Newton stalls the time is halved (at most
    ``max_halvings`` times), so the returned result carries the t0
    actually used.  The assembled potential and the exact decomposed pair
    are both returned.
    """
    schedule = schedule or CostSchedule.linear()
    kn = knothe if knothe is not None else knothe_solution(pair)
    t = float(t0)
    for _ in range(max_halvings + 1):
        try:
            res = newton_correct_split(t, kn.potentials.u1, kn.potentials.u2,
                                       pair, schedule, tol=newton_tol,
                                       max_iter=max_newton)
        except (ConvergenceError, ConcavityError):
            t *= 0.5
            continue
        return InitResult(_assemble(schedule.lam(t), res.u1, res.u2), t,
                          res.iterations, res.sup_residual, kn, res.u1,
                          res.u2, res.margin)
    raise InitializationError(
        f"could not initialize from the rearrangement down to t0 = {t * 2:.3g}; "
        "try a larger grid or smoother densities")


@dataclass
class TrajectoryRecord:
    """One accepted state: the decomposed pair (u1, psi2) as solved at t,
    with lam = lambda_t.  The zero-mean ``psi1`` and the assembled ``psi``
    are formed on access, so a record holds one grid array.
    ``newton_iters`` counts the Newton steps of every grid level and
    ``levels`` holds (grid shape, iterations) per level, coarsest first,
    ending with the caller's grid."""

    t: float
    lam: float
    u1: np.ndarray
    psi2: ScalarField
    margin: float
    sup_residual: float
    pushforward_residual: float
    l2_dist_to_knothe: float
    newton_iters: int
    levels: tuple

    @property
    def psi1(self):
        """u1 with zero mean."""
        return self.u1 - np.mean(self.u1)

    @property
    def psi(self):
        """The zero-mean assembled potential u1 + lam psi2."""
        return _assemble(self.lam, self.u1, self.psi2)


@dataclass
class Trajectory:
    """Accepted states of one continuation run, in increasing t.

    Immutable once returned; every record satisfies sup|residual| <=
    newton_tol and margin > 0.
    """

    records: list
    knothe: KnotheSolution
    options: ContinuationOptions
    schedule: CostSchedule

    @property
    def final(self):
        return self.records[-1]

    def times(self):
        return np.array([r.t for r in self.records])


SUMMARY_HEADER = ("t,sup_residual,margin,pushforward_residual,"
                  "l2_dist_to_knothe,newton_iters")


def trajectory_summary_csv(trajectory, path):
    """One CSV row per accepted state, 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for r in trajectory.records:
            fh.write(f"{r.t:.17g},{r.sup_residual:.17g},{r.margin:.17g},"
                     f"{r.pushforward_residual:.17g},"
                     f"{r.l2_dist_to_knothe:.17g},{r.newton_iters}\n")


def _fixed_ladder(t0, t1, steps, grading, ratio):
    if grading == "uniform":
        return list(np.linspace(t0, t1, steps + 1))[1:]
    if ratio is None:
        return list(t0 * (t1 / t0) ** (np.arange(1, steps + 1) / steps))
    # explicit ratio: climb geometrically, capped at t1
    ladder = []
    t = t0
    while t < t1:
        t = min(t * ratio, t1)
        ladder.append(t)
    return ladder


@dataclass
class _State:
    """A certified continuation state on one grid: the decomposed pair at
    t, its velocity (v1, v2) and its restriction to the next coarser
    grid, each computed on first use."""

    t: float
    u1: np.ndarray
    u2: ScalarField
    velocity: tuple = None
    coarse: "_State" = None

    def restricted(self, grid):
        """This state restricted spectrally to the coarser ``grid``."""
        if self.coarse is None:
            self.coarse = _State(
                self.t, resample_values(self.u1, (grid.n1,)),
                ScalarField(grid, resample_values(self.u2.values, grid.shape)))
        return self.coarse


def _predict(history, t_next, pair, schedule, opts, warn=True):
    """Predictor (u1, u2) at t_next on ``pair.grid`` from the newest
    certified states ``history``, oldest first.

    From three states: quadratic Lagrange extrapolation in t of u1 and of
    lambda u2, with the states' true times as nodes.  The corrector cannot
    change the Nyquist modes, and the extrapolation weights, which sum to
    1 but are not all in [0, 1], would amplify their rounding step after
    step, so the increment over the newest state is projected onto the solver
    subspace.  From fewer states: an Euler step on the velocity at the
    newest state (``warn`` as for that velocity), whose increment has no
    Nyquist content.
    """
    state = history[-1]
    lam_t = schedule.lam(state.t)
    lam_next = schedule.lam(t_next)
    if len(history) < 3:
        # exact decomposed arithmetic: u1 += dt v1,
        # u2 -> (lam_t (u2 + dt v2)) / lam_next
        dt = t_next - state.t
        if state.velocity is None:
            state.velocity = _velocity_split(state.t, state.u1, state.u2,
                                             pair, schedule, opts.solver_tol,
                                             warn=warn)
        v1, v2 = state.velocity
        p1 = state.u1 + dt * v1
        p2v = lam_t * (state.u2.values + dt * v2.values) / lam_next
    else:
        # the newest node's weight multiplies a zero difference
        a, b = history[-3:-1]
        ta, tb, tc = a.t, b.t, state.t
        wa = (t_next - tb) * (t_next - tc) / ((ta - tb) * (ta - tc))
        wb = (t_next - ta) * (t_next - tc) / ((tb - ta) * (tb - tc))
        d1 = wa * (a.u1 - state.u1) + wb * (b.u1 - state.u1)
        lu2 = lam_t * state.u2.values
        d2 = (wa * (schedule.lam(ta) * a.u2.values - lu2)
              + wb * (schedule.lam(tb) * b.u2.values - lu2))
        p1 = state.u1 + resample_values(d1, d1.shape)
        p2v = (lu2 + resample_values(d2, d2.shape)) / lam_next
    return p1, ScalarField(pair.grid, p2v - p2v.mean(axis=1, keepdims=True))


def _step(history, t_next, pairs, schedule, opts, spent, certify=True):
    """Predictor-corrector step from the certified states ``history``
    (oldest first, at most three) to t_next on ``pairs[0].grid``, with
    ``pairs[1:]`` the pair on ever coarser grids.

    The whole step first runs on the next coarser grid, recursively, from
    the history restricted there, and its prolonged result is corrected
    here.  If the coarse step raises, or that correction fails, the step
    is predicted from this grid's own history instead.  Only ``certify``
    runs ``newton_correct_split``; a coarse grid runs the coarse-mode
    loop.  ``spent`` collects the Newton steps per grid shape.
    """
    pair = pairs[0]
    shape = pair.grid.shape

    def correct(u1, u2):
        try:
            if certify:
                res = newton_correct_split(t_next, u1, u2, pair, schedule,
                                           tol=opts.newton_tol,
                                           max_iter=opts.max_newton)
            else:
                res = _split_newton(t_next, u1, u2, pair, schedule,
                                    opts.newton_tol, opts.max_newton, None,
                                    coarse=True)
        except ConvergenceError as exc:
            spent[shape] = spent.get(shape, 0) + (exc.iterations or 0)
            raise
        spent[shape] = spent.get(shape, 0) + res.iterations
        return res

    if len(pairs) > 1:
        grid = pairs[1].grid
        try:
            guess = _step([s.restricted(grid) for s in history], t_next,
                          pairs[1:], schedule, opts, spent, certify=False)
            return correct(resample_values(guess.u1, shape[:1]),
                           ScalarField(pair.grid, resample_values(
                               guess.u2.values, shape)))
        except (ConcavityError, ConvergenceError):
            pass                # predict on this grid instead
    # a coarse state is a certified one restricted: its residual is the
    # coarse grid's truncation floor, which says nothing about the path
    return correct(*_predict(history, t_next, pair, schedule, opts,
                             warn=certify))


def run(pair, schedule=None, options=None):
    """Integrate the potential from t0 to t1 with Newton defect correction.

    Returns a :class:`Trajectory`.  The state is carried and corrected in
    the decomposed coordinates (u1, u2) throughout.  Each step is
    predicted by quadratic extrapolation in t through the three newest
    certified states, at their true times, so bisected and adaptive steps
    are extrapolated over unequal spacing; the first two steps, before
    three states exist, take an Euler step on the velocity, so a run
    solves two velocities.  Steps are accepted only if Newton converges
    and the margin stays positive; rejected steps are split (halved in
    adaptive mode, bisected in fixed mode) and the run aborts with
    :class:`StepCollapseError` - carrying the partial trajectory - if the
    step size falls below 1e-8.  At t1 = 1 under the linear schedule the
    final record's map is the Brenier map for A = diag(1,1).

    Where a cold ``newton_correct`` would nest, each step first runs the
    whole predictor-corrector on the halved grids, from the certified
    states restricted there, and ``newton_correct_split`` certifies the
    prolonged result on the caller's grid; if either fails, the attempt
    falls back to the single-grid step before it counts as rejected.  A
    record's ``newton_iters`` counts the steps of every level.  The
    initialization at t0 stays single-grid.
    """
    schedule = schedule or CostSchedule.linear()
    opts = (options or ContinuationOptions()).validated()
    init = init_from_knothe(pair, schedule, opts.t0,
                            newton_tol=opts.newton_tol,
                            max_newton=opts.max_newton)
    kn = init.knothe
    knothe_field = kn.map_field()
    records = []
    # the newest certified states, oldest first; they share their arrays
    # with the records
    history = []
    pairs = [pair]
    while (half := _halved(pairs[-1].grid)) is not None:
        pairs.append(pairs[-1].on_grid(half))

    def accept(t, result, levels):
        """Record a corrected state (init or step result) and make it the
        newest of the history."""
        if not (result.sup_residual <= opts.newton_tol and result.margin > 0.0):
            raise ConstructionError("attempted to record an uncertified state")
        lam = schedule.lam(t)
        tmap = transport_map(schedule.matrix(t),
                             _assemble(lam, result.u1, result.u2))
        records.append(TrajectoryRecord(
            t, lam, result.u1, result.u2, result.margin, result.sup_residual,
            pushforward_residual(tmap, pair, opts.pushforward_k),
            l2_map_distance(tmap, knothe_field, pair.f),
            sum(iters for _, iters in levels), levels))
        history.append(_State(t, result.u1, result.u2))
        del history[:-3]

    def attempt(t_next):
        """One nested predictor-corrector trial: (result, levels), or None
        on rejection."""
        spent = {}
        try:
            result = _step(history, t_next, pairs, schedule, opts, spent)
        except (ConcavityError, ConvergenceError):
            return None
        return result, tuple(sorted(spent.items()))

    accept(init.t0, init, ((pair.grid.shape, init.iterations),))

    def collapse(dt):
        partial = Trajectory(records, kn, opts, schedule)
        raise StepCollapseError(
            f"continuation step collapsed to dt = {dt:.3g} at t = "
            f"{history[-1].t:.6g}", trajectory=partial)

    if opts.steps == "adaptive":
        dt = history[-1].t
        easy_streak = 0
        while history[-1].t < opts.t1 * (1.0 - 1e-14):
            t_next = min(history[-1].t + dt, opts.t1)
            trial = attempt(t_next)
            if trial is None:
                dt *= 0.5
                if dt < 1e-8:
                    collapse(dt)
                continue
            accept(t_next, *trial)
            easy_streak = easy_streak + 1 if records[-1].newton_iters <= 3 else 0
            if easy_streak >= 3:
                dt *= 2.0
                easy_streak = 0
    else:
        pending = _fixed_ladder(history[-1].t, opts.t1, opts.steps,
                                opts.step_grading, opts.grading_ratio)
        while pending:
            t_next, t = pending[0], history[-1].t
            if t_next - t < 1e-8:
                collapse(t_next - t)
            trial = attempt(t_next)
            if trial is None:
                if opts.step_grading == "geometric":
                    pending.insert(0, math.sqrt(t * t_next))
                else:
                    pending.insert(0, 0.5 * (t + t_next))
                continue
            pending.pop(0)
            accept(t_next, *trial)

    return Trajectory(records, kn, opts, schedule)
