"""Continuation from the Knothe rearrangement to the Brenier map.

The Kantorovich potential solves, along the cost schedule,

    Div( f [A_t - D^2 psi_t]^{-1} (grad psi_dot - Adot A^{-1} grad psi) ) = 0,

with initial behaviour pinned by the rearrangement's potential pair at
t = 0.  The continuation is a predictor-corrector.  The potential evolves
smoothly in t, and the Knothe pair is its t = 0 limit, so the Knothe pair
and each certified state sample one smooth curve: the next potential is
predicted by Lagrange extrapolation through the two or three newest of
them, and a damped Newton iteration on the nonlinear residual corrects it,
so every accepted state is an exact (to tolerance) Monge-Ampere solution -
the trajectory's accuracy is certified pointwise rather than by step-size
analysis.  Fixed steps are geometric, matching the lambda_t = t
degeneration toward t0.

The state is carried from t0 to t1 in the decomposed coordinates
psi = u1(x1) + lambda_t u2(x1, x2), in which the residual, its
linearization and the velocity stay O(1) as lambda_t -> 0; the assembled
psi is formed only for the records.  t0 stays strictly positive: the
t = 0 state is represented by the Knothe potentials themselves, which
``init_from_knothe`` corrects once at t0, where the records start, and
which stay the predictor's node at t = 0 for the first two steps.

A cold ``newton_correct`` at A = diag(1, a22) is the same Newton
iteration at lambda = a22, and both solvers share one grid-sequencing
loop, run from the coarsest of the halved grids up to the caller's grid,
which certifies: each level corrects the prolonged result of the level
below, or its own start if that level failed or the correction raises.
The state that certifies a result supplies the first component of its map,
on which a record's pushforward and L2 certificates are evaluated.  Newton
and ``velocity`` solve the linearized equation through the public
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
                   level_shapes, resample_values, zero_field)
from .knothe import KnotheSolution, knothe_solution, l2_map_distance
from .linearized import (cost_rate_rhs, project_solvable,
                         solve_linearized_small_t)
from .monge_ampere import (CostSchedule, check_pushforward_k,
                           pushforward_residual, residual_state, split_values)

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


def _velocity_split(cost, u1, u2, pair, tol):
    """Velocity in decomposed coordinates at ``cost``: (v1, v2) with
    psi_dot = v1 + lambda v2.  The cost-rate right-hand side comes from the
    decomposed derivatives, so no 1/lambda cancellation touches the small
    component; the right-hand side and the solve share one residual state."""
    st = residual_state(cost, u1, u2, pair)
    if st.sup_residual > RESIDUAL_WARN:
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


@dataclass
class NewtonResult:
    """A solve of the decomposed potential u1 + lam u2, assembled on access
    as ``potential``.  ``iterations`` counts the Newton steps of every
    level, failed corrections included; ``levels`` holds (grid shape,
    iterations) per level, coarsest first, ending with the caller's grid.
    ``map1`` is the first component of the map of the state that certified
    the result, and ``residual`` that state's residual values."""

    u1: np.ndarray
    u2: ScalarField
    lam: float
    iterations: int
    sup_residual: float
    margin: float
    levels: tuple
    map1: np.ndarray
    residual: np.ndarray

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
    """:func:`newton_correct_split` at ``cost``, lambda = a22.

    Each step solves the linearized equation to the relative CG tolerance
    (inexact Newton)

        inner_tol = min(1e-2, max(1e-12, 1e-2 sup, 0.1 tol / sup)).

    The term 0.1 tol / sup keeps the last step from over-solving
    (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996; Kelley, *Iterative
    Methods for Linear and Nonlinear Equations*, SIAM 1995, 6.3): it binds
    only once sup < sqrt(10 tol), when one step can reach ``tol``, so no
    earlier step is loosened.

    A ``coarse`` loop only supplies a starting guess: it also stops after
    the first step that fails to halve the sup-residual, and where the
    plain loop raises it returns its last accepted iterate.
    """
    grid = pair.grid
    u1, u2 = np.asarray(u1, float).copy(), u2.values
    st = residual_state(cost, u1, u2, pair)
    previous = np.inf
    for iteration in range(max_iter + 1):
        sup = st.sup_residual
        if sup <= tol or coarse and (iteration == max_iter
                                     or sup > 0.5 * previous):
            break
        if iteration == max_iter:
            raise ConvergenceError(
                f"newton did not reach {tol:g} in {max_iter} iterations "
                f"(sup|residual| = {sup:.3g})",
                residual=sup, iterations=max_iter)
        q = ScalarField(grid, st.residual - np.mean(st.residual))
        inner_tol = min(1e-2, max(1e-12, 1e-2 * sup, 0.1 * tol / sup))
        d1, d2 = solve_linearized_small_t(st, q, inner_tol)
        s = 1.0
        while s >= 2.0 ** -20:
            c1, c2 = u1 - s * d1, u2 - s * d2.values
            try:
                cand_st = residual_state(cost, c1, c2, pair)
            except ConcavityError:
                s *= 0.5
                continue
            if cand_st.sup_residual < sup:
                u1, u2, st = c1, c2, cand_st
                break
            s *= 0.5
        else:
            if coarse:
                break
            raise ConvergenceError(
                f"newton line search stalled at iteration {iteration} "
                f"(sup|residual| = {sup:.3g}, margin = {st.margin:.3g})",
                residual=sup, iterations=iteration)
        previous = sup
    return NewtonResult(u1, ScalarField(grid, u2), cost.a22, iteration,
                        st.sup_residual, st.margin,
                        ((grid.shape, iteration),), st.map1, st.residual)


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

    A start of all 0.0 is the identity map (det = 1, g at the nodes), whose
    residual here is f - g bit for bit.  Unless max|f - g| meets ``tol``,
    each level starts from its own zeros, and the caller's grid forms no
    state before the prolonged coarse result's.

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
    zero = (not np.any(psi_init.values)
            and np.max(np.abs(pair.f_values - pair.g.values)) > tol)
    if not zero:
        # start in the solver subspace: updates live there
        u1, u2 = split_values(project_solvable(psi_init.values), cost.a22)
        u2 = ScalarField(grid, u2)
        st = residual_state(cost, u1, u2.values, pair)
        if st.sup_residual <= tol:
            return NewtonResult(u1, u2, cost.a22, 0, st.sup_residual,
                                st.margin, ((grid.shape, 0),), st.map1,
                                st.residual)
        del st          # no fine state is held while the coarse levels run
    pairs = _levels(pair)

    def start(level):
        level_grid = pairs[level].grid
        if zero:
            return np.zeros(level_grid.n1), zero_field(level_grid)
        return _resampled(u1, u2, level_grid)

    def solve(level_pair, v1, v2, coarse):
        return _newton(cost, v1, v2, level_pair, tol, max_iter, coarse)

    return _sequenced(pairs, start, solve)


def _levels(pair):
    """``pair`` on the caller's grid, then on each coarser level of
    ``level_shapes``."""
    pairs = [pair]
    for shape in level_shapes(pair.grid.shape)[1:]:
        pairs.append(pairs[-1].on_grid(PeriodicGrid(*shape)))
    return pairs


def _sequenced(pairs, start, solve):
    """Grid-sequenced Newton solve on ``pairs[0].grid``, with ``pairs[1:]``
    the pair on ever coarser grids (Kelley, *Solving Nonlinear Equations
    with Newton's Method*, SIAM 2003).

    One loop runs from the coarsest level up.  Each level corrects the
    prolonged result of the next coarser one; if that level failed, or the
    correction raises, it corrects its own start, ``start(level)`` =
    (u1, u2) on ``pairs[level].grid``, and a coarse level whose start
    raises fails in turn.  Only a failure of the caller's grid propagates.
    ``solve(pair, u1, u2, coarse)`` corrects one level.  ``iterations`` and
    ``levels`` of the result, and of a raised ``ConvergenceError``, count
    every level, failed corrections included; the error's message ends
    with ``newton_text`` of its levels.
    """
    spent = Counter()

    def correct(level, u1, u2):
        pair = pairs[level]
        try:
            res = solve(pair, u1, u2, level > 0)
        except ConvergenceError as exc:
            spent[pair.grid.shape] += exc.iterations or 0
            raise
        spent[pair.grid.shape] += res.iterations
        return res

    res = None                  # the coarser level's result; None if it failed
    try:
        for level in reversed(range(len(pairs))):
            if res is not None:
                try:
                    res = correct(level, *_resampled(res.u1, res.u2,
                                                     pairs[level].grid))
                    continue
                except (ConcavityError, ConvergenceError):
                    pass        # correct this level's own start instead
            try:
                res = correct(level, *start(level))
            except (ConcavityError, ConvergenceError):
                if level == 0:
                    raise
                res = None
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


def _resampled(u1, u2, grid):
    """The decomposed pair (u1, u2) on ``grid``: as it is on its own grid,
    resampled spectrally to any other."""
    if u2.grid == grid:
        return u1, u2
    return (resample_values(u1, (grid.n1,)),
            ScalarField(grid, resample_values(u2.values, grid.shape)))


def newton_correct_split(cost, u1, u2, pair, tol=1e-10, max_iter=20):
    """Damped Newton on the decomposed potential u1 + lambda u2 at the cost
    A = diag(1, lambda), lambda = ``cost.a22`` > 0, on the caller's grid
    alone.  As for :func:`newton_correct`, the caller builds the cost, so
    no schedule is assumed here: ``init_from_knothe`` and ``run``'s steps
    pass ``schedule.matrix(t)``.

    Each step solves the linearized equation for the zero-mean projected
    residual, splits the direction v as v1 = int v dx2,
    v2 = (v - v1) / lambda, and backtracks (s halved from 1) until the
    sup-residual decreases and the margin stays positive.  The assembled
    potential stores the fiber component a factor lambda below the
    marginal one, so at small lambda float64 cannot represent it accurately
    enough to push the residual below roughly eps * (pi n)^2 / lambda.
    The decomposed state has no such floor, but its direction, split from
    one assembled solve, does: about eps / lambda in v2
    (``solve_linearized_small_t``).  The certifying state supplies the
    result's ``map1``.
    """
    _check_positive_finite("tol", tol)
    return _newton(cost, u1, u2, pair, tol, max_iter)


@dataclass
class InitResult(NewtonResult):
    """The corrected state at t0, and the rearrangement it started from."""

    knothe: KnotheSolution


def init_from_knothe(pair, schedule=None, t0=1e-3, *, newton_tol=1e-10,
                     max_newton=20):
    """Converged potential at t0 > 0: the Knothe predictor
    (u1, lambda_{t0} u2) Newton-corrected once at A_{t0}, in decomposed
    coordinates, with the certifying state's map.  A failed correction
    raises ``InitializationError`` naming t0, lambda(t0) and Newton's own
    message; a smaller t0 would not help, since the path starts at the
    Knothe pair and the fibers' truncation floor is highest at small t.
    A schedule with lambda(t0) = 0 raises ``ValueError`` before any work.
    """
    cost = (schedule or CostSchedule.linear()).matrix(t0)
    kn = knothe_solution(pair)
    try:
        res = newton_correct_split(cost, kn.potentials.u1, kn.potentials.u2,
                                   pair, tol=newton_tol, max_iter=max_newton)
    except (ConvergenceError, ConcavityError) as exc:
        raise InitializationError(
            f"could not initialize from the rearrangement at t0 = {t0:.3g} "
            f"(lambda = {cost.a22:.3g}): {exc}; try a larger grid "
            "or smoother densities") from exc
    return InitResult(**vars(res), knothe=kn)


@dataclass
class TrajectoryRecord:
    """One accepted state: the decomposed pair (u1, psi2) as solved at t,
    with lam = lambda_t.  The assembled ``psi`` is formed on access, so a
    record holds at most one grid array: ``psi2``, which is None once a
    run with ``keep_potentials=False`` has recorded a newer state.
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

    def _field(self):
        if self.psi2 is None:
            raise ValueError(f"the record at t = {self.t:.6g} kept no field; "
                             "run(..., keep_potentials=True) keeps them all")
        return self.psi2

    @property
    def psi(self):
        """The zero-mean assembled potential u1 + lam psi2."""
        return _assemble(self.lam, self.u1, self._field())

    @property
    def tmap(self):
        """The map T = id - A^{-1} grad psi from the decomposed pair:
        T1 = x1 - d1 u1 - lam d1 psi2 and T2 = x2 - d2 psi2."""
        psi2 = self._field()
        t1 = (psi2.grid.mesh()[0] - deriv_values(self.u1, 0)[:, None]
              - self.lam * deriv_values(psi2.values, 0))
        return _map(t1, psi2)


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
    """A certified continuation state on one grid, or the Knothe pair as
    the path's node at t = 0: the decomposed pair at t and its restriction
    to the next coarser grid, computed on first use."""

    t: float
    u1: np.ndarray
    u2: ScalarField
    coarse: "_State" = None

    def restricted(self, grid):
        """This state restricted spectrally to the coarser ``grid``."""
        if self.coarse is None:
            self.coarse = _State(self.t, *_resampled(self.u1, self.u2, grid))
        return self.coarse


def _predict(history, t_next, pair, schedule):
    """Predictor (u1, u2) at t_next on ``pair.grid`` from the newest
    nodes of the path ``history``, oldest first: two or three certified
    states, or the Knothe pair at t = 0 and one or two of them.

    Lagrange extrapolation in t of u1 and of lambda u2, with the nodes'
    true times, so it is linear through two nodes and quadratic through
    three; at t = 0, lambda u2 = 0.  The corrector cannot change the
    Nyquist modes, and the extrapolation weights, which sum to 1 but are
    not all in [0, 1], would amplify their rounding step after step, so
    the increment over the newest node is projected onto the solver
    subspace.
    """
    state = history[-1]
    lu2 = schedule.lam(state.t) * state.u2.values
    d1 = d2 = 0.0
    # the newest node's weight multiplies a zero difference
    for node in history[:-1]:
        others = [other.t for other in history if other is not node]
        w = (math.prod(t_next - t for t in others)
             / math.prod(node.t - t for t in others))
        d1 += w * (node.u1 - state.u1)
        d2 += w * (schedule.lam(node.t) * node.u2.values - lu2)
    p1 = state.u1 + resample_values(d1, d1.shape)
    p2v = (lu2 + resample_values(d2, d2.shape)) / schedule.lam(t_next)
    return p1, ScalarField(pair.grid, p2v - p2v.mean(axis=1, keepdims=True))


def _step(history, t_next, pairs, schedule, opts):
    """Predictor-corrector step from the nodes ``history`` (oldest first,
    at most three) to t_next, grid-sequenced over ``pairs`` by
    :func:`_sequenced`: the result, or None when the step is rejected.  A
    level's start is the predictor from the history restricted to its
    grid; ``newton_correct_split`` certifies on the caller's grid."""
    cost = schedule.matrix(t_next)

    def start(level):
        states = history
        for coarse in pairs[1:level + 1]:
            states = [s.restricted(coarse.grid) for s in states]
        return _predict(states, t_next, pairs[level], schedule)

    def solve(pair, u1, u2, coarse):
        if coarse:
            return _newton(cost, u1, u2, pair, opts.newton_tol,
                           opts.max_newton, coarse=True)
        return newton_correct_split(cost, u1, u2, pair, tol=opts.newton_tol,
                                    max_iter=opts.max_newton)

    try:
        return _sequenced(pairs, start, solve)
    except (ConcavityError, ConvergenceError):
        return None


def run(pair, schedule=None, options=None, *, keep_potentials=True):
    """Integrate the potential from t0 to t1 with Newton defect correction.

    Returns a :class:`Trajectory`.  The state is carried and corrected in
    the decomposed coordinates (u1, u2) throughout.  Each step is
    predicted by Lagrange extrapolation in t through the three newest
    nodes of the path, at their true times, so bisected and adaptive steps
    are extrapolated over unequal spacing.  The Knothe pair is the node
    at t = 0, though not a record: the first step is linear through
    (0, t0) and the second quadratic through (0, t0, t1), so a run solves
    no velocity.  Fixed steps climb the geometric ladder
    t0 (t1 / t0)^(k / steps) from t0, as lambda_t = t degenerates
    geometrically toward 0.  Steps are accepted only if Newton converges
    and the margin stays positive; a rejected step is split (halved in
    adaptive mode, bisected in log t at sqrt(t t_next) in fixed mode) and
    the run aborts with :class:`StepCollapseError` - carrying the partial
    trajectory - if the split step falls below 1e-8; a step that was never
    rejected is attempted however short, so a ladder may start from any t0.
    At t1 = 1 under the linear schedule the final record's map is the
    Brenier map for A = diag(1,1).  With ``keep_potentials=False`` a
    record drops its field once a newer state is recorded, so a run holds
    the fields of its three newest nodes, not one per record.

    Each step is grid-sequenced like a cold ``newton_correct``: the whole
    predictor-corrector first runs on the halved grids, from the nodes
    restricted there, and ``newton_correct_split`` certifies the
    prolonged result on the caller's grid; if either fails, the attempt
    falls back to the caller's-grid predictor and corrector before it
    counts as rejected.  A record's ``newton_iters`` counts the steps of
    every level.  The initialization is one single-grid correction at t0;
    a schedule with lambda(t0) = 0 raises ``ValueError`` before any work.
    """
    schedule = schedule or CostSchedule.linear()
    opts = (options or ContinuationOptions()).validated()
    # before any work: a K the grid cannot resolve
    check_pushforward_k(opts.pushforward_k, pair.grid)
    init = init_from_knothe(pair, schedule, opts.t0,
                            newton_tol=opts.newton_tol,
                            max_newton=opts.max_newton)
    kn = init.knothe
    knothe_field = kn.map_field()
    records = []
    # the newest nodes of the path, oldest first: the Knothe pair at t = 0,
    # then the certified states, which share their arrays with the records
    history = [_State(0.0, kn.potentials.u1, kn.potentials.u2)]
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
        if not keep_potentials and len(records) > 1:
            records[-2].psi2 = None     # the history keeps its own reference
        history.append(_State(t, result.u1, result.u2))
        del history[:-3]

    accept(opts.t0, init)
    # a result holds its state's map1 and residual: none is kept once recorded
    del init

    def collapse(dt):
        partial = Trajectory(records, kn, opts, schedule)
        raise StepCollapseError(
            f"continuation step collapsed to dt = {dt:.3g} at t = "
            f"{history[-1].t:.6g}", trajectory=partial)

    if opts.steps == "adaptive":
        dt = opts.t0
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
            del trial
            easy_streak = easy_streak + 1 if records[-1].newton_iters <= 3 else 0
            if easy_streak >= 3:
                dt *= 2.0
                easy_streak = 0
    else:
        # the last rung is t1 itself, which the power may miss by an ulp
        pending = [*(opts.t0 * (opts.t1 / opts.t0)
                     ** (np.arange(1, opts.steps) / opts.steps)), opts.t1]
        while pending:
            t_next, t = pending[0], history[-1].t
            trial = _step(history, t_next, pairs, schedule, opts)
            if trial is None:
                pending.insert(0, math.sqrt(t * t_next))
                if pending[0] - t < 1e-8:
                    collapse(pending[0] - t)
                continue
            pending.pop(0)
            accept(t_next, trial)
            del trial

    return Trajectory(records, kn, opts, schedule)
