"""Continuation from the Knothe rearrangement to the Brenier map.

The Kantorovich potential solves, along the cost schedule,

    Div( f [A_t - D^2 psi_t]^{-1} (grad psi_dot - Adot A^{-1} grad psi) ) = 0,

with initial behaviour pinned by the rearrangement's potential pair at
t = 0.  The driver is a predictor-corrector: an Euler or Heun step on the
velocity field predicts the next potential, and a damped Newton iteration
on the nonlinear residual corrects it, so every accepted state is an
exact (to tolerance) Monge-Ampere solution - the trajectory's accuracy is
certified pointwise rather than by step-size analysis.  Stepping is
geometric toward t0 by default, matching the lambda_t = t degeneration.

t0 stays strictly positive: the t = 0 state is represented by the Knothe
potentials themselves, and ``init_from_knothe`` bridges the gap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (AdmissibilityError, ConcavityError, ConstructionError,
                     ConvergenceError, InitializationError, StepCollapseError)
from .grid import ScalarField, deriv_values, project_zero_mean
from .knothe import KnotheSolution, knothe_solution, l2_map_distance
from .linearized import (_kernels, _solve_with_coefficients, coefficient_arrays,
                         solve_linearized_small_t, split_coefficients)
from .monge_ampere import (CostSchedule, check_admissible,
                           pushforward_residual, residual_state,
                           split_residual_values, transport_map)

__all__ = [
    "ContinuationOptions", "NewtonResult", "InitResult", "TrajectoryRecord",
    "Trajectory", "decompose", "velocity", "newton_correct",
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
    predictor: str = "euler"
    step_grading: str = "geometric"
    grading_ratio: float | None = None
    solver_tol: float = 1e-11
    t_switch: float = 1e-2
    pushforward_k: int = 4

    def validated(self):
        if not (0.0 < self.t0 < self.t1):
            raise ValueError(f"need 0 < t0 < t1, got t0={self.t0}, t1={self.t1}")
        if self.steps != "adaptive":
            if not (isinstance(self.steps, int) and self.steps >= 1):
                raise ValueError("steps must be a positive integer or 'adaptive'")
        if self.predictor not in ("euler", "heun"):
            raise ValueError("predictor must be 'euler' or 'heun'")
        if self.step_grading not in ("geometric", "uniform"):
            raise ValueError("step_grading must be 'geometric' or 'uniform'")
        if self.grading_ratio is not None and not self.grading_ratio > 1.0:
            raise ValueError("grading_ratio must exceed 1")
        if not self.newton_tol > 0.0:
            raise ValueError("newton_tol must be positive")
        if not (isinstance(self.max_newton, int) and self.max_newton >= 1):
            raise ValueError("max_newton must be a positive integer")
        if not self.solver_tol > 0.0:
            raise ValueError("solver_tol must be positive")
        if not self.t_switch >= 0.0:
            raise ValueError("t_switch must be non-negative")
        # K < 1 leaves no test functions: the certificate would pass vacuously
        if not (isinstance(self.pushforward_k, int) and self.pushforward_k >= 1):
            raise ValueError("pushforward_k must be a positive integer")
        return self


def decompose(t, psi, schedule=None):
    """Split psi into (psi1(x1), psi2(x1,x2)) with psi = psi1 + lambda*psi2
    up to the overall mean; psi1 is zero-mean, psi2 fiberwise zero-mean.

    Rejects t = 0, where the split has no lambda-free representation.
    """
    if not t > 0.0:
        raise ValueError("decompose is defined for t > 0 only")
    schedule = schedule or CostSchedule.linear()
    lam = schedule.lam(t)
    row = psi.values.mean(axis=1)
    psi1 = row - row.mean()
    psi2 = (psi.values - row[:, None]) / lam
    return psi1, ScalarField(psi.grid, psi2)


def _velocity_split(t, u1, u2, pair, schedule, tol, warn=True):
    """Velocity in decomposed coordinates: (v1, v2) with psi_dot = v1 +
    lambda v2.  Works entirely on (u1, u2), so no 1/lambda cancellation
    ever touches the small component."""
    cost = schedule.matrix(t)
    sup = float(np.max(np.abs(split_residual_values(t, u1, u2.values, pair,
                                                    schedule))))
    if warn and sup > RESIDUAL_WARN:
        warnings.warn(
            f"velocity evaluated at sup|residual| = {sup:.3g} > "
            f"{RESIDUAL_WARN:g}; the state is far from solved", stacklevel=3)
    split = split_coefficients(t, u1, u2, pair, schedule)
    # B (0, (a22dot/a22) d2 psi) = (U12 * s2, V22 * s2 / lambda), s2 = a22dot d2 u2
    s2 = cost.a22dot * deriv_values(u2.values, 1, 1)
    kern = _kernels(*pair.grid.shape)
    rhs = kern.div(split.u_matrix.m12.values * s2,
                   split.v22.values * s2 / split.lam)
    rhs_field = ScalarField(pair.grid, rhs, zero_mean=True)
    return solve_linearized_small_t(t, u1, u2, pair, rhs_field, tol=tol,
                                    schedule=schedule)


def velocity(t, psi, pair, schedule=None, *, t_switch=1e-2, tol=1e-11,
             warn=True):
    """Potential velocity psi_dot at an (approximately) solved state.

    Solves the linearized equation with the cost-rate right-hand side.
    Above ``t_switch`` this is the plain preconditioned CG solve; below,
    the decomposed small-t solver, reassembled as v1 + lambda * v2.
    Warns if the state's residual exceeds 1e-6 (the equation then drifts
    from the evolution it is meant to follow).
    """
    schedule = schedule or CostSchedule.linear()
    if t <= t_switch:
        u1, u2 = decompose(t, psi, schedule)
        v1, v2 = _velocity_split(t, u1, u2, pair, schedule, tol, warn=warn)
        v = v1[:, None] + schedule.lam(t) * v2.values
        return ScalarField(pair.grid, v, zero_mean=True)
    cost = schedule.matrix(t)
    st = residual_state(cost, psi.values, pair)
    if warn and st.sup_residual > RESIDUAL_WARN:
        warnings.warn(
            f"velocity evaluated at sup|residual| = {st.sup_residual:.3g} > "
            f"{RESIDUAL_WARN:g}; the state is far from solved", stacklevel=2)
    b11, b12, b22 = coefficient_arrays(st)
    s2 = (cost.a22dot / cost.a22) * st.grad2
    kern = _kernels(*pair.grid.shape)
    rhs = kern.div(b12 * s2, b22 * s2)
    v, _ = _solve_with_coefficients(pair.grid, b11, b12, b22, rhs,
                                    tol, None, None)
    return ScalarField(pair.grid, v, zero_mean=True)


@dataclass
class NewtonResult:
    potential: ScalarField
    iterations: int
    sup_residual: float
    margin: float


def newton_correct(cost, psi_init, pair, tol=1e-10, max_iter=20, *,
                   solver_tol=None):
    """Damped Newton solve of the Monge-Ampere residual at fixed cost.

    Each step solves the linearized equation for the zero-mean projected
    residual, then backtracks (s halved from 1) until the sup-residual
    decreases and the margin stays positive.  Starting from the exact
    solution costs 0 iterations.

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
        If ``max_iter`` is exhausted or the line search stalls (s < 2^-20).
    """
    grid = pair.grid
    # start in the solver subspace: updates live there, so any Nyquist-row
    # contamination in the initial guess could never be corrected
    values = _kernels(*grid.shape).project_solvable(psi_init.values)
    st = residual_state(cost, values, pair)
    for iteration in range(max_iter + 1):
        sup = st.sup_residual
        if sup <= tol:
            return NewtonResult(ScalarField(grid, values, zero_mean=True),
                                iteration, sup, st.margin)
        if iteration == max_iter:
            break
        q = st.residual - np.mean(st.residual)
        inner_tol = solver_tol if solver_tol is not None else \
            min(1e-2, max(1e-12, 1e-2 * sup))
        delta, _ = _solve_with_coefficients(
            grid, *coefficient_arrays(st), q, inner_tol, None, None)
        s = 1.0
        accepted = False
        while s >= 2.0 ** -20:
            candidate = values - s * delta
            try:
                cand_st = residual_state(cost, candidate, pair)
            except ConcavityError:
                s *= 0.5
                continue
            if cand_st.sup_residual < sup:
                values, st = candidate, cand_st
                accepted = True
                break
            s *= 0.5
        if not accepted:
            raise ConvergenceError(
                f"newton line search stalled at iteration {iteration} "
                f"(sup|residual| = {sup:.3g}, margin = {st.margin:.3g})",
                residual=sup, iterations=iteration)
    raise ConvergenceError(
        f"newton did not reach {tol:g} in {max_iter} iterations "
        f"(sup|residual| = {st.sup_residual:.3g})",
        residual=st.sup_residual, iterations=max_iter)


@dataclass
class SplitNewtonResult:
    u1: np.ndarray
    u2: ScalarField
    iterations: int
    sup_residual: float
    margin: float


def _split_margin(t, u1, u2, schedule):
    """min eig(A_t - D^2(u1 + lambda u2)) assembled from decomposed
    derivatives (no precision loss at small lambda)."""
    lam = schedule.lam(t)
    m11 = 1.0 - deriv_values(u1, 0, 2)[:, None] - lam * deriv_values(u2.values, 0, 2)
    m12 = -lam * deriv_values(deriv_values(u2.values, 0, 1), 1, 1)
    m22 = lam * (1.0 - deriv_values(u2.values, 1, 2))
    half_trace = 0.5 * (m11 + m22)
    radius = np.sqrt((0.5 * (m11 - m22)) ** 2 + m12 ** 2)
    return float(np.min(half_trace - radius))


def newton_correct_split(t, u1, u2, pair, schedule=None, tol=1e-10,
                         max_iter=20, *, solver_tol=None):
    """Damped Newton on the decomposed residual at small fixed t > 0.

    Same iteration as :func:`newton_correct` but in the (u1, u2)
    coordinates: the assembled potential stores the fiber component a
    factor lambda below the marginal one, so at small t float64 cannot
    represent it accurately enough to push the residual below roughly
    eps * (pi n)^2 / lambda; the decomposed iteration has no such floor.
    """
    schedule = schedule or CostSchedule.linear()
    u1 = np.asarray(u1, float).copy()
    check_admissible(t, u1, u2.values, schedule)
    residual = split_residual_values(t, u1, u2.values, pair, schedule)
    for iteration in range(max_iter + 1):
        sup = float(np.max(np.abs(residual)))
        if sup <= tol:
            return SplitNewtonResult(u1, u2, iteration, sup,
                                     _split_margin(t, u1, u2, schedule))
        if iteration == max_iter:
            break
        q = ScalarField(pair.grid, residual - np.mean(residual),
                        zero_mean=True)
        inner_tol = solver_tol if solver_tol is not None else \
            min(1e-2, max(1e-12, 1e-2 * sup))
        v1, v2 = solve_linearized_small_t(t, u1, u2, pair, q,
                                          tol=inner_tol, schedule=schedule)
        s = 1.0
        accepted = False
        while s >= 2.0 ** -20:
            cand1 = u1 - s * v1
            cand2 = ScalarField(pair.grid, u2.values - s * v2.values)
            try:
                check_admissible(t, cand1, cand2.values, schedule)
            except AdmissibilityError:
                s *= 0.5
                continue
            cand_res = split_residual_values(t, cand1, cand2.values, pair,
                                             schedule)
            if float(np.max(np.abs(cand_res))) < sup:
                u1, u2, residual = cand1, cand2, cand_res
                accepted = True
                break
            s *= 0.5
        if not accepted:
            raise ConvergenceError(
                f"decomposed newton line search stalled at iteration "
                f"{iteration} (sup|residual| = {sup:.3g})",
                residual=sup, iterations=iteration)
    raise ConvergenceError(
        f"decomposed newton did not reach {tol:g} in {max_iter} iterations "
        f"(sup|residual| = {float(np.max(np.abs(residual))):.3g})",
        residual=float(np.max(np.abs(residual))), iterations=max_iter)


@dataclass
class InitResult:
    potential: ScalarField
    t0: float
    iterations: int
    sup_residual: float
    knothe: KnotheSolution
    u1: np.ndarray = None
    u2: ScalarField = None


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
        except (ConvergenceError, ConcavityError, AdmissibilityError):
            t *= 0.5
            continue
        assembled = ScalarField(
            pair.grid, res.u1[:, None] + schedule.lam(t) * res.u2.values)
        assembled = project_zero_mean(assembled)
        return InitResult(assembled, t, res.iterations, res.sup_residual,
                          kn, res.u1, res.u2)
    raise InitializationError(
        f"could not initialize from the rearrangement down to t0 = {t * 2:.3g}; "
        "try a larger grid or smoother densities")


@dataclass
class TrajectoryRecord:
    t: float
    psi: ScalarField
    psi1: np.ndarray
    psi2: ScalarField
    margin: float
    sup_residual: float
    pushforward_residual: float
    l2_dist_to_knothe: float
    newton_iters: int


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
    """Current continuation state.  Below t_switch the decomposed pair is
    authoritative (the assembled field cannot represent the fiber
    component accurately); above, only the assembled field is kept."""

    t: float
    psi: ScalarField
    u1: np.ndarray = None
    u2: ScalarField = None
    velocity: ScalarField = None          # assembled psi_dot, lazy
    velocity_split: tuple = None          # (v1, v2), lazy

    @property
    def split(self):
        return self.u1 is not None


def run(pair, schedule=None, options=None):
    """Integrate the potential from t0 to t1 with Newton defect correction.

    Returns a :class:`Trajectory`.  Steps are accepted only if Newton
    converges and the margin stays positive; rejected steps are split
    (halved in adaptive mode, bisected in fixed mode) and the run aborts
    with :class:`StepCollapseError` - carrying the partial trajectory -
    if the step size falls below 1e-8.  Below ``t_switch`` the state is
    carried and corrected in decomposed coordinates.  At t1 = 1 under the
    linear schedule the final record's map is the Brenier map for
    A = diag(1,1).
    """
    schedule = schedule or CostSchedule.linear()
    opts = (options or ContinuationOptions()).validated()
    init = init_from_knothe(pair, schedule, opts.t0,
                            newton_tol=opts.newton_tol,
                            max_newton=opts.max_newton)
    kn = init.knothe
    knothe_field = kn.map_field()
    records = []

    def record(state, iterations, sup_residual, margin):
        if not (sup_residual <= opts.newton_tol and margin > 0.0):
            raise ConstructionError("attempted to record an uncertified state")
        cost = schedule.matrix(state.t)
        if state.split:
            psi1 = state.u1 - np.mean(state.u1)
            psi2 = state.u2
        else:
            psi1, psi2 = decompose(state.t, state.psi, schedule)
        tmap = transport_map(cost, state.psi)
        records.append(TrajectoryRecord(
            state.t, state.psi, psi1, psi2, margin, sup_residual,
            pushforward_residual(tmap, pair, opts.pushforward_k),
            l2_map_distance(tmap, knothe_field, pair.f),
            iterations))

    def assemble(t, u1, u2):
        lam = schedule.lam(t)
        values = u1[:, None] + lam * u2.values
        return ScalarField(pair.grid, values - np.mean(values), zero_mean=True)

    def make_state(t, result):
        if isinstance(result, SplitNewtonResult):
            return _State(t, assemble(t, result.u1, result.u2),
                          result.u1, result.u2)
        return _State(t, result.potential)

    def state_velocity(state):
        if state.split:
            if state.velocity_split is None:
                state.velocity_split = _velocity_split(
                    state.t, state.u1, state.u2, pair, schedule,
                    opts.solver_tol)
            return state.velocity_split
        if state.velocity is None:
            state.velocity = velocity(state.t, state.psi, pair, schedule,
                                      t_switch=opts.t_switch,
                                      tol=opts.solver_tol)
        return state.velocity

    def predict_split(state, t_next):
        # exact decomposed arithmetic: u1 += dt v1,
        # u2 -> (lam_t (u2 + dt v2)) / lam_next
        dt = t_next - state.t
        lam_t = schedule.lam(state.t)
        lam_next = schedule.lam(t_next)
        v1, v2 = state_velocity(state)
        p1 = state.u1 + dt * v1
        p2v = lam_t * (state.u2.values + dt * v2.values) / lam_next
        if opts.predictor == "heun":
            try:
                w1, w2 = _velocity_split(t_next, p1, ScalarField(pair.grid, p2v),
                                         pair, schedule, opts.solver_tol,
                                         warn=False)
            except (ConcavityError, ConvergenceError, AdmissibilityError):
                return None
            p1 = state.u1 + 0.5 * dt * (v1 + w1)
            p2v = (lam_t * state.u2.values
                   + 0.5 * dt * (lam_t * v2.values + lam_next * w2.values)) / lam_next
        return p1, ScalarField(pair.grid, p2v - p2v.mean(axis=1, keepdims=True))

    def predict_full(state, t_next):
        dt = t_next - state.t
        v0 = state_velocity(state)
        if state.split:
            v0 = ScalarField(pair.grid,
                             v0[0][:, None] + schedule.lam(state.t) * v0[1].values)
        predicted = state.psi.values + dt * v0.values
        if opts.predictor == "heun":
            try:
                v1 = velocity(t_next, ScalarField(pair.grid, predicted),
                              pair, schedule, t_switch=opts.t_switch,
                              tol=opts.solver_tol, warn=False)
            except (ConcavityError, ConvergenceError, AdmissibilityError):
                return None
            predicted = state.psi.values + 0.5 * dt * (v0.values + v1.values)
        return ScalarField(pair.grid, predicted)

    def attempt(state, t_next):
        """One predictor-corrector trial; None signals rejection."""
        try:
            if t_next <= opts.t_switch and state.split:
                predicted = predict_split(state, t_next)
                if predicted is None:
                    return None
                return newton_correct_split(
                    t_next, predicted[0], predicted[1], pair, schedule,
                    tol=opts.newton_tol, max_iter=opts.max_newton)
            predicted = predict_full(state, t_next)
            if predicted is None:
                return None
            return newton_correct(schedule.matrix(t_next), predicted, pair,
                                  tol=opts.newton_tol,
                                  max_iter=opts.max_newton)
        except (ConcavityError, ConvergenceError, AdmissibilityError):
            return None

    state = _State(init.t0, init.potential, init.u1, init.u2)
    record(state, init.iterations, init.sup_residual,
           _split_margin(init.t0, init.u1, init.u2, schedule))

    def collapse(dt):
        partial = Trajectory(records, kn, opts, schedule)
        raise StepCollapseError(
            f"continuation step collapsed to dt = {dt:.3g} at t = "
            f"{state.t:.6g}", trajectory=partial)

    def advance(t_next, result):
        nonlocal state
        new = make_state(t_next, result)
        record(new, result.iterations, result.sup_residual, result.margin)
        state = new

    if opts.steps == "adaptive":
        dt = state.t
        easy_streak = 0
        while state.t < opts.t1 * (1.0 - 1e-14):
            t_next = min(state.t + dt, opts.t1)
            result = attempt(state, t_next)
            if result is None:
                dt *= 0.5
                if dt < 1e-8:
                    collapse(dt)
                continue
            advance(t_next, result)
            easy_streak = easy_streak + 1 if result.iterations <= 3 else 0
            if easy_streak >= 3:
                dt *= 2.0
                easy_streak = 0
    else:
        pending = _fixed_ladder(state.t, opts.t1, opts.steps,
                                opts.step_grading, opts.grading_ratio)
        while pending:
            t_next = pending[0]
            if t_next - state.t < 1e-8:
                collapse(t_next - state.t)
            result = attempt(state, t_next)
            if result is None:
                if opts.step_grading == "geometric":
                    pending.insert(0, math.sqrt(state.t * t_next))
                else:
                    pending.insert(0, 0.5 * (state.t + t_next))
                continue
            pending.pop(0)
            advance(t_next, result)

    return Trajectory(records, kn, opts, schedule)
