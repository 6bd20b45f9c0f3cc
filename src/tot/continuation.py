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
certified pointwise rather than by step-size analysis.  Fixed steps are
geometric, matching the lambda_t = t degeneration toward t0.

The state is carried from t0 to t1 in the decomposed coordinates
psi = u1(x1) + lambda_t u2(x1, x2), in which the residual, its
linearization and the velocity stay O(1) as lambda_t -> 0; the assembled
psi is formed only for the records.  t0 stays strictly positive: the
t = 0 state is represented by the Knothe potentials themselves, and
``init_from_knothe`` bridges the gap.

A cold ``newton_correct`` at A = diag(1, a22) is the same Newton
iteration at lambda = a22, and both solvers share one grid-sequencing
routine: a start is solved on the halved grids first and the caller's
grid certifies; if a coarse level raises, or the caller's grid cannot
correct its prolonged result, the caller's own start is corrected there.
The state that certifies a result supplies the first component of its map,
on which a record's pushforward and L2 certificates are evaluated.  Newton
and the velocity solve the linearized equation through the public
``linearized`` operators, on the residual state they already hold.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConcavityError, ConstructionError, ConvergenceError,
                     InitializationError, StepCollapseError)
from .grid import (PeriodicGrid, ScalarField, VectorField, deriv_values,
                   resample_values)
from .knothe import KnotheSolution, knothe_solution, l2_map_distance
from .linearized import (cost_rate_rhs, project_solvable, solve_linearized,
                         solve_linearized_small_t)
from .monge_ampere import (CostSchedule, pushforward_residual,
                           residual_state, split_values)

__all__ = [
    "ContinuationOptions", "NewtonResult", "InitResult", "TrajectoryRecord",
    "Trajectory", "velocity", "newton_correct",
    "newton_correct_split", "init_from_knothe", "run",
    "trajectory_summary_csv",
]

RESIDUAL_WARN = 1e-6
# relative PCG tolerance of a velocity solve
VELOCITY_TOL = 1e-11


@dataclass
class ContinuationOptions:
    """Driver settings; ``steps`` is the number of intervals of the
    geometric ladder from t0 to t1, or "adaptive"."""

    t0: float = 1e-3
    t1: float = 1.0
    steps: object = 32
    newton_tol: float = 1e-10
    max_newton: int = 20
    pushforward_k: int = 4

    def validated(self):
        for name in ("t0", "newton_tol"):
            _check_positive_finite(name, getattr(self, name))
        if not self.t0 < self.t1 < math.inf:
            raise ValueError(f"t1 must be finite and exceed t0, got {self.t1}")
        if self.steps != "adaptive" and not _positive_int(self.steps):
            raise ValueError("steps must be a positive integer or 'adaptive'")
        # pushforward_k < 1 leaves no test functions: a vacuous certificate
        for name in ("max_newton", "pushforward_k"):
            if not _positive_int(getattr(self, name)):
                raise ValueError(f"{name} must be a positive integer")
        return self


def _check_positive_finite(name, value):
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _positive_int(value):
    return type(value) is int and value >= 1       # bool is not an int here


def _velocity_split(cost, u1, u2, pair, tol, warn=True):
    """Velocity in decomposed coordinates at ``cost``: (v1, v2) with
    psi_dot = v1 + lambda v2.  The cost-rate right-hand side comes from the
    decomposed derivatives, so no 1/lambda cancellation touches the small
    component; the right-hand side and the solve share one residual state."""
    st = residual_state(cost, u1, u2, pair)
    if warn and st.sup_residual > RESIDUAL_WARN:
        warnings.warn(
            f"velocity evaluated at sup|residual| = {st.sup_residual:.3g} > "
            f"{RESIDUAL_WARN:g}; the state is far from solved", stacklevel=3)
    return solve_linearized_small_t(st, cost_rate_rhs(st), tol=tol)


def _assemble(lam, u1, u2):
    """Zero-mean potential u1 + lam u2 on the grid."""
    values = u1[:, None] + lam * u2.values
    return ScalarField(u2.grid, values - np.mean(values), zero_mean=True)


def velocity(t, psi, pair, schedule=None, *, tol=VELOCITY_TOL):
    """Potential velocity psi_dot at an (approximately) solved state.

    Solves the linearized equation with the cost-rate right-hand side in
    the decomposed coordinates of psi, t > 0 (``ValueError`` otherwise),
    and reassembles v1 + lambda v2.  Warns if the state's residual exceeds
    1e-6 (the equation then drifts from the evolution it is meant to
    follow).
    """
    cost = (schedule or CostSchedule.linear()).matrix(t)  # rejects t <= 0
    v1, v2 = _velocity_split(cost, *split_values(psi.values, cost.a22), pair,
                             tol)
    return _assemble(cost.a22, v1, v2)


def _damped_newton(x, evaluate, solve, tol, max_iter, *, coarse=False):
    """Damped Newton on an iterate x given as a tuple of arrays.

    ``evaluate(x)`` returns the residual state at x and raises
    ``ConcavityError`` where the margin is not positive.
    ``solve(st, q, inner_tol)`` returns the direction, shaped like x, that
    solves the linearized equation at st for the zero-mean residual q (a
    ScalarField) to the relative CG tolerance (inexact Newton)

        inner_tol = min(1e-2, max(1e-12, 1e-2 sup, 0.1 tol / sup)).

    The term 0.1 tol / sup keeps the last step from over-solving
    (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996; Kelley, *Iterative
    Methods for Linear and Nonlinear Equations*, SIAM 1995, 6.3): it binds
    only once sup < sqrt(10 tol), when one step can reach ``tol``, so no
    earlier step is loosened.  Each step backtracks (s halved from 1)
    until the sup-residual decreases and the margin stays positive.
    Returns (x, state, iterations).

    A ``coarse`` loop only supplies a starting guess: it also stops after
    the first step that fails to halve the sup-residual, and where the
    plain loop raises it hands back its last accepted iterate.
    """
    st = evaluate(x)
    previous = np.inf
    for iteration in range(max_iter + 1):
        sup = st.sup_residual
        if sup <= tol or coarse and (iteration == max_iter
                                     or sup > 0.5 * previous):
            return x, st, iteration
        if iteration == max_iter:
            break
        q = ScalarField(st.grid, st.residual - np.mean(st.residual))
        inner_tol = min(1e-2, max(1e-12, 1e-2 * sup, 0.1 * tol / sup))
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


@dataclass
class NewtonResult:
    """A solve of the decomposed potential u1 + lam u2, assembled on access
    as ``potential``.  ``iterations`` counts the Newton steps of every
    level, failed corrections included; ``levels`` holds (grid shape,
    iterations) per level, coarsest first, ending with the caller's grid.
    ``map1`` is the first component of the map of the state that certified
    the result."""

    u1: np.ndarray
    u2: ScalarField
    lam: float
    iterations: int
    sup_residual: float
    margin: float
    levels: tuple
    map1: np.ndarray

    @property
    def potential(self):
        """The zero-mean assembled potential u1 + lam u2."""
        return _assemble(self.lam, self.u1, self.u2)

    @property
    def tmap(self):
        """The map T = id - A^{-1} grad u of the certifying state, formed
        on access: T1 = ``map1`` and T2 = x2 - d2 u2."""
        return _map(self.map1, self.u2)


def _map(map1, u2):
    """The map (map1, x2 - d2 u2) on the grid of u2.  Nothing is divided
    by lam, so T2 keeps its precision at small t, which the map of the
    assembled potential loses to rounding / lam."""
    grid = u2.grid
    t2 = grid.mesh()[1] - deriv_values(u2.values, 1)
    return VectorField(ScalarField(grid, map1), ScalarField(grid, t2))


def _newton(cost, u1, u2, pair, tol, max_iter, coarse=False):
    """:func:`newton_correct_split` at ``cost``, lambda = a22, with the
    coarse-mode loop of :func:`_damped_newton` when ``coarse``."""
    grid = pair.grid

    def direction(st, q, inner_tol):
        return split_values(solve_linearized(st, q, inner_tol).values,
                            cost.a22)

    (u1, u2_values), st, iterations = _damped_newton(
        (np.asarray(u1, float).copy(), u2.values),
        lambda x: residual_state(cost, x[0], x[1], pair),
        direction, tol, max_iter, coarse=coarse)
    return NewtonResult(u1, ScalarField(grid, u2_values), cost.a22,
                        iterations, st.sup_residual, st.margin,
                        ((grid.shape, iterations),), st.map1)


def newton_correct(cost, psi_init, pair, tol=1e-10, max_iter=20):
    """Damped Newton solve of the Monge-Ampere residual at fixed cost.

    The iteration of :func:`newton_correct_split` at lambda = a22, from
    u1 the row mean of the start and u2 = (psi - u1) / a22.  A start that
    already meets ``tol`` costs 0 iterations and no coarse work.
    Otherwise the solve is grid-sequenced (:func:`_sequenced`): the start
    restricted spectrally to the halved grids is solved there first, each
    coarse level capped by ``max_iter`` and stopping once a step fails to
    halve its residual, and the prolonged result is corrected on the
    caller's grid.  If a coarse level raises, or that correction fails,
    the start itself is corrected there.  The caller's grid certifies, and
    its state supplies the result's ``map1``, from which ``tmap`` is
    formed.

    Parameters
    ----------
    psi_init : ScalarField
        Starting potential; its margin must be positive.
    tol : float
        Target on sup |residual|; positive and finite.

    Raises
    ------
    ConvergenceError
        If the correction of the start on the caller's grid exhausts
        ``max_iter`` or its line search stalls (s < 2^-20); its
        ``iterations`` and ``levels`` count the steps of every level, and
        its message ends with them per grid.
    """
    _check_positive_finite("tol", tol)
    grid = pair.grid
    # start in the solver subspace: updates live there
    u1, u2 = split_values(project_solvable(psi_init.values), cost.a22)
    u2 = ScalarField(grid, u2)
    st = residual_state(cost, u1, u2.values, pair)
    if st.sup_residual <= tol:
        return NewtonResult(u1, u2, cost.a22, 0, st.sup_residual, st.margin,
                            ((grid.shape, 0),), st.map1)
    del st              # no fine state is held while the coarse levels run
    pairs = _levels(pair)

    def solve(level_pair, v1, v2, coarse):
        return _newton(cost, v1, v2, level_pair, tol, max_iter, coarse)

    return _sequenced(
        pairs, lambda level: _resampled(u1, u2, pairs[level].grid), solve)


# smallest side of a coarse level.  A 32^2 level takes 5 steps and leaves
# 1 for 64^2, so it costs more than it saves: cold solves of 8 benchmark
# pairs at 256^2 took 56-57 ms with it against 40-46 ms without, and of the
# standard pair at 128^2 27-29 against 20-23 ms (one thread, 2 shared cores)
COARSEST_SIDE = 64


def _levels(pair):
    """``pair`` on the caller's grid, then on each coarser level: both
    sides halved while they stay even and at least ``COARSEST_SIDE``."""
    pairs = [pair]
    while True:
        half = (pairs[-1].grid.n1 // 2, pairs[-1].grid.n2 // 2)
        if not all(n >= COARSEST_SIDE and n % 2 == 0 for n in half):
            return pairs
        pairs.append(pairs[-1].on_grid(PeriodicGrid(*half)))


def _sequenced(pairs, start, solve):
    """Grid-sequenced Newton solve on ``pairs[0].grid``, with ``pairs[1:]``
    the pair on ever coarser grids (Kelley, *Solving Nonlinear Equations
    with Newton's Method*, SIAM 2003).

    Each level solves the next coarser one, recursively, and corrects the
    prolonged result; if the coarser level raises, or that correction
    fails, it corrects its own start, ``start(level)`` = (u1, u2) on
    ``pairs[level].grid``.  ``solve(pair, u1, u2, coarse)`` corrects one
    level.  ``iterations`` and ``levels`` of the result, and of a raised
    ``ConvergenceError``, count every level, failed corrections included;
    the error's message ends with ``newton_text`` of its levels.
    """
    spent = Counter()
    try:
        res = _on_level(pairs, 0, start, solve, spent)
    except ConvergenceError as exc:
        exc.iterations = sum(spent.values())
        exc.levels = tuple(sorted(spent.items()))
        exc.args = (f"{exc}; newton iters {newton_text(exc.levels)}",)
        raise
    return replace(res, iterations=sum(spent.values()),
                   levels=tuple(sorted(spent.items())))


def newton_text(levels):
    """'<total> (<n1>x<n2>: <iterations>, ...)' for (shape, iterations)
    pairs, coarsest grid first."""
    total = sum(iters for _, iters in levels)
    per_level = ", ".join(f"{n1}x{n2}: {iters}" for (n1, n2), iters in levels)
    return f"{total} ({per_level})"


def _on_level(pairs, level, start, solve, spent):
    # one level of _sequenced: a closure that called itself would be a
    # reference cycle, keeping every level's arrays until a collection
    pair = pairs[level]

    def correct(u1, u2):
        try:
            res = solve(pair, u1, u2, level > 0)
        except ConvergenceError as exc:
            spent[pair.grid.shape] += exc.iterations or 0
            raise
        spent[pair.grid.shape] += res.iterations
        return res

    if level + 1 < len(pairs):
        try:
            guess = _on_level(pairs, level + 1, start, solve, spent)
            return correct(*_resampled(guess.u1, guess.u2, pair.grid))
        except (ConcavityError, ConvergenceError):
            pass                # correct this level's own start instead
    return correct(*start(level))


def _resampled(u1, u2, grid):
    """The decomposed pair (u1, u2) on ``grid``: as it is on its own grid,
    resampled spectrally to any other."""
    if u2.grid == grid:
        return u1, u2
    return (resample_values(u1, (grid.n1,)),
            ScalarField(grid, resample_values(u2.values, grid.shape)))


def newton_correct_split(t, u1, u2, pair, schedule=None, tol=1e-10,
                         max_iter=20):
    """Damped Newton on the decomposed potential u1 + lambda_t u2, t > 0,
    on the caller's grid alone.

    Each step solves the linearized equation for the zero-mean projected
    residual, splits the direction v as v1 = int v dx2,
    v2 = (v - v1) / lambda, and backtracks (s halved from 1) until the
    sup-residual decreases and the margin stays positive.  The assembled
    potential stores the fiber component a factor lambda below the
    marginal one, so at small t float64 cannot represent it accurately
    enough to push the residual below roughly eps * (pi n)^2 / lambda; the
    decomposed iteration has no such floor.  The certifying state
    supplies the result's ``map1``.
    """
    _check_positive_finite("tol", tol)
    return _newton((schedule or CostSchedule.linear()).matrix(t), u1, u2,
                   pair, tol, max_iter)


@dataclass
class InitResult(NewtonResult):
    """The corrected state at the t0 actually used, and the rearrangement
    it started from."""

    t0: float
    knothe: KnotheSolution


MAX_HALVINGS = 8       # of t0, before init_from_knothe gives up


def init_from_knothe(pair, schedule=None, t0=1e-3, *, newton_tol=1e-10,
                     max_newton=20):
    """Converged potential at small t0 from the Knothe predictor.

    The predictor (u1, lambda_{t0} u2) is Newton-corrected at A_{t0} in
    decomposed coordinates; if Newton stalls the time is halved (at most
    ``MAX_HALVINGS`` = 8 times, and never to a t where lambda_t is 0), so
    the returned result carries the t0 actually used.  The assembled
    potential, the exact decomposed pair and the certifying state's map
    are all returned.
    """
    schedule = schedule or CostSchedule.linear()
    kn = knothe_solution(pair)
    t = float(t0)
    for _ in range(MAX_HALVINGS + 1):
        lam = schedule.lam(t)
        if not lam > 0.0:           # A_t = diag(1, lambda_t) is no cost
            raise InitializationError(
                f"lambda({t:.3g}) = {lam:g}: the schedule degenerates before "
                "the rearrangement's state converges; try a larger t0")
        try:
            res = newton_correct_split(t, kn.potentials.u1, kn.potentials.u2,
                                       pair, schedule, tol=newton_tol,
                                       max_iter=max_newton)
        except (ConvergenceError, ConcavityError):
            t *= 0.5
            continue
        return InitResult(**vars(res), t0=t, knothe=kn)
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

    @property
    def tmap(self):
        """The map T = id - A^{-1} grad psi from the decomposed pair:
        T1 = x1 - d1 u1 - lam d1 psi2 and T2 = x2 - d2 psi2."""
        x1 = self.psi2.grid.mesh()[0]
        t1 = (x1 - deriv_values(self.u1, 0)[:, None]
              - self.lam * deriv_values(self.psi2.values, 0))
        return _map(t1, self.psi2)


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
            self.coarse = _State(self.t, *_resampled(self.u1, self.u2, grid))
        return self.coarse


def _predict(history, t_next, pair, schedule, warn=True):
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
            state.velocity = _velocity_split(
                schedule.matrix(state.t), state.u1, state.u2.values, pair,
                VELOCITY_TOL, warn=warn)
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


def _step(history, t_next, pairs, schedule, opts):
    """Predictor-corrector step from the certified states ``history``
    (oldest first, at most three) to t_next, grid-sequenced over
    ``pairs`` by :func:`_sequenced`: the result, or None when the step is
    rejected.  A level's start is the predictor from the history restricted
    to its grid; ``newton_correct_split`` certifies on the caller's grid."""
    cost = schedule.matrix(t_next)

    def start(level):
        states = history
        for coarse in pairs[1:level + 1]:
            states = [s.restricted(coarse.grid) for s in states]
        # a coarse state is a certified one restricted: its residual is the
        # coarse grid's truncation floor, which says nothing about the path
        return _predict(states, t_next, pairs[level], schedule,
                        warn=level == 0)

    def solve(pair, u1, u2, coarse):
        if coarse:
            return _newton(cost, u1, u2, pair, opts.newton_tol,
                           opts.max_newton, coarse=True)
        return newton_correct_split(t_next, u1, u2, pair, schedule,
                                    tol=opts.newton_tol,
                                    max_iter=opts.max_newton)

    try:
        return _sequenced(pairs, start, solve)
    except (ConcavityError, ConvergenceError):
        return None


def run(pair, schedule=None, options=None):
    """Integrate the potential from t0 to t1 with Newton defect correction.

    Returns a :class:`Trajectory`.  The state is carried and corrected in
    the decomposed coordinates (u1, u2) throughout.  Each step is
    predicted by quadratic extrapolation in t through the three newest
    certified states, at their true times, so bisected and adaptive steps
    are extrapolated over unequal spacing; the first two steps, before
    three states exist, take an Euler step on the velocity, so a run
    solves two velocities.  Fixed steps climb the geometric ladder
    t0 (t1 / t0)^(k / steps) from the t0 that the initialization used, as
    lambda_t = t degenerates geometrically toward 0.  Steps are accepted
    only if Newton converges and the margin stays positive; a rejected step
    is split (halved in adaptive mode, bisected in log t at sqrt(t t_next)
    in fixed mode) and the run aborts with :class:`StepCollapseError` -
    carrying the partial trajectory - if the step size falls below 1e-8.
    At t1 = 1 under the linear schedule the final record's map is the
    Brenier map for A = diag(1,1).

    Each step is grid-sequenced like a cold ``newton_correct``: the whole
    predictor-corrector first runs on the halved grids, from the certified
    states restricted there, and ``newton_correct_split`` certifies the
    prolonged result on the caller's grid; if either fails, the attempt
    falls back to the caller's-grid predictor and corrector before it
    counts as rejected.  A record's ``newton_iters`` counts the steps of
    every level.  The initialization at t0 stays single-grid.
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
    pairs = _levels(pair)

    def accept(t, result):
        """Record a corrected state (init or step result) and make it the
        newest of the history."""
        if not (result.sup_residual <= opts.newton_tol and result.margin > 0.0):
            raise ConstructionError("attempted to record an uncertified state")
        tmap = result.tmap
        records.append(TrajectoryRecord(
            t, schedule.lam(t), result.u1, result.u2, result.margin,
            result.sup_residual,
            pushforward_residual(tmap, pair, opts.pushforward_k),
            l2_map_distance(tmap, knothe_field, pair.f),
            result.iterations, result.levels))
        history.append(_State(t, result.u1, result.u2))
        del history[:-3]

    accept(init.t0, init)

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
            trial = _step(history, t_next, pairs, schedule, opts)
            if trial is None:
                dt *= 0.5
                if dt < 1e-8:
                    collapse(dt)
                continue
            accept(t_next, trial)
            easy_streak = easy_streak + 1 if records[-1].newton_iters <= 3 else 0
            if easy_streak >= 3:
                dt *= 2.0
                easy_streak = 0
    else:
        t0 = history[-1].t
        pending = list(t0 * (opts.t1 / t0)
                       ** (np.arange(1, opts.steps + 1) / opts.steps))
        while pending:
            t_next, t = pending[0], history[-1].t
            if t_next - t < 1e-8:
                collapse(t_next - t)
            trial = _step(history, t_next, pairs, schedule, opts)
            if trial is None:
                pending.insert(0, math.sqrt(t * t_next))
                continue
            pending.pop(0)
            accept(t_next, trial)

    return Trajectory(records, kn, opts, schedule)
