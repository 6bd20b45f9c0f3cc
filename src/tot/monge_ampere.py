"""Cost family, Monge-Ampere residual operators and map verification.

The quadratic cost is induced by the diagonal matrix A = diag(1, a22)
with a22 = lambda(t) degenerating to 0 as t -> 0.  For a potential u with
A - D^2(u) positive definite, x -> x - A^{-1} grad(u) is a diffeomorphism
of the torus and the residual

    f - g(id - A^{-1} grad u) det(I - A^{-1} D^2 u)

vanishes exactly at the optimal potential.  ``decomposed_residual``
evaluates the same operator in the decomposed coordinates
u = u1(x1) + lambda * u2(x1, x2), which extends smoothly to t = 0 where
the determinant becomes triangular.

``residual_state`` forms the state of (u1, u2) at lambda = a22, t > 0:
the lambda-free factors, residual, margin and the first component of the
map T, on the pair's grid.  It is the one argument of the linearized
operator, its cost-rate right-hand side and its solves; an assembled
potential is split first with ``split_values``.

Residuals, coefficients and margins of (u1, u2) take one evaluation,
``split_factors``: one ``grid.derivative_bundle`` of u2 (one real FFT for
all its first and second derivatives) plus 1D derivatives of u1, formed
into lambda-free factors that also serve t = 0.  The assembled forms
``c_concavity_margin`` and ``transport_map`` take their own bundle of u.
All 2x2 linear algebra is in closed form; the composition with g always
takes the analytic path, so the residual is quadrature-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AdmissibilityError, ConcavityError
from .grid import (PeriodicGrid, ScalarField, VectorField, derivative_bundle,
                   deriv_values)
from .trig import frac

__all__ = [
    "CostMatrix", "CostSchedule", "identity_cost", "c_concavity_margin",
    "monge_ampere_residual", "decomposed_residual", "transport_map",
    "pushforward_residual", "t0_margins",
]

# grid points per block of the pushforward product: the (2K+1) x 8192
# complex powers take 2.2 MB at K = 8, whatever the grid
_PUSHFORWARD_BLOCK = 8192


@dataclass(frozen=True)
class CostMatrix:
    """A = diag(1, a22) at time t, with the schedule rate a22dot."""

    t: float
    a22: float
    a22dot: float

    def __post_init__(self):
        if not (self.a22 > 0.0 and math.isfinite(self.a22)):
            raise ValueError(f"a22 must be positive and finite, got {self.a22}")


@dataclass(frozen=True)
class CostSchedule:
    """t -> (lambda_t, lambda_dot_t) defining A_t = diag(1, lambda_t)."""

    lam: Callable[[float], float]
    lam_dot: Callable[[float], float]

    @staticmethod
    def linear():
        return CostSchedule(lambda t: t, lambda t: 1.0)

    @staticmethod
    def power(p):
        p = float(p)
        if not 1.0 <= p < math.inf:
            raise ValueError(f"power schedules need a finite p >= 1, got {p}")
        return CostSchedule(lambda t: t ** p, lambda t: p * t ** (p - 1.0))

    def matrix(self, t):
        if not t > 0.0:
            raise ValueError("cost matrix is defined for t > 0 only")
        return CostMatrix(float(t), float(self.lam(t)), float(self.lam_dot(t)))


def identity_cost():
    """A = diag(1, 1): the endpoint t = 1 of the linear schedule."""
    return CostMatrix(1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# derivatives of potentials

def margin_values(m11, m12, m22, det):
    """Smallest eigenvalue over the grid of the symmetric matrices
    [[m11, m12], [m12, m22]] of determinant ``det``: det over the larger
    eigenvalue, since half-trace minus radius cancels at a small one."""
    half_trace = 0.5 * (m11 + m22)
    radius = np.sqrt((0.5 * (m11 - m22)) ** 2 + m12 * m12)
    larger = half_trace + radius
    if np.min(larger) <= 0.0:       # both eigenvalues <= 0 somewhere
        return float(np.min(half_trace - radius))
    return float(np.min(det / larger))


def _assembled_margin(cost, u11, u12, u22):
    """Margin of A - D^2(u) from the second derivatives of an assembled u."""
    m11, m22 = 1.0 - u11, cost.a22 - u22
    return margin_values(m11, u12, m22, m11 * m22 - u12 * u12)


def c_concavity_margin(cost, u):
    """min over nodes of the smaller eigenvalue of A - D^2(u).

    A positive margin certifies that id - A^{-1} grad(u) is a
    diffeomorphism of the torus; a negative value is the failure signal
    (no exception is raised here).
    """
    return _assembled_margin(cost, *derivative_bundle(u.values)[2:])


@dataclass
class ResidualState:
    """Everything the residual, its linearization, the velocity's
    right-hand side and the map share at one state u1 + lambda u2 on
    ``grid``, lambda = cost.a22 (nothing else is kept: a Newton step holds
    two states at once): the factors of ``split_factors``, with
    A - D^2 u = [[row, -lambda cross], [-lambda cross, lambda fiber]].
    ``map1`` is x1 - d1 u, the first component of T = id - A^{-1} grad u,
    unwrapped; the second, x2 - ``d2``, needs no division by lambda, and
    the holder of u2 forms it on access (``continuation.NewtonResult.tmap``)."""

    grid: PeriodicGrid
    cost: CostMatrix
    map1: np.ndarray
    d2: np.ndarray
    row: np.ndarray
    fiber: np.ndarray
    cross: np.ndarray
    g_at_t: np.ndarray
    residual: np.ndarray
    margin: float

    @property
    def sup_residual(self):
        return float(np.max(np.abs(self.residual)))


def residual_state(cost, u1_values, u2_values, pair):
    """Residual state of u1(x1) + a22 u2(x1, x2) at ``cost`` on the pair's
    grid, from the derivatives of u1 and u2 themselves; split an assembled
    potential with ``split_values(values, cost.a22)`` first.  The
    ``linearized`` operators take the state itself.

    The factors are those of ``split_factors`` at lambda = a22: nothing is
    lost to rounding at small lambda (the assembled field cannot carry it),
    and nothing is divided by lambda.  One determinant,
    D = row fiber - lambda cross^2 = det(A - D^2 u) / lambda, gives the
    residual f - g D and the margin, lambda D over the larger eigenvalue.
    min(1 - d11 u) is at least the smaller eigenvalue, so a positive margin
    implies both inequalities of admissibility at t > 0; a margin <= 0
    raises ``ConcavityError``.
    """
    lam = cost.a22
    g_at_t, row, fiber, cross, map1, d2 = split_factors(u1_values, u2_values,
                                                        lam, pair)
    det = row * fiber - lam * cross * cross
    margin = margin_values(row, lam * cross, lam * fiber, lam * det)
    if margin <= 0.0:
        raise ConcavityError(
            f"not c-concave: min eig(A - D2 u) = {margin:.3g} <= 0")
    return ResidualState(pair.grid, cost, map1, d2, row, fiber, cross, g_at_t,
                         pair.f_values - g_at_t * det, margin)


def monge_ampere_residual(cost, u, pair):
    """Pointwise residual f - g(id - A^{-1} grad u) det(I - A^{-1} D^2 u).

    Precondition: A - D^2(u) positive definite everywhere (raises
    ``ConcavityError`` otherwise).  The residual mean is a diagnostic and
    is deliberately not projected out.
    """
    st = residual_state(cost, *split_values(u.values, cost.a22), pair)
    return ScalarField(pair.grid, st.residual)


def t0_margins(u1_values, u2_values):
    """(min(1 - d11 u1), min(1 - d22 u2)): the t = 0 admissibility margins."""
    d11 = deriv_values(np.asarray(u1_values, float), 0, 2)
    d22 = deriv_values(np.asarray(u2_values, float), 1, 2)
    return float(np.min(1.0 - d11)), float(np.min(1.0 - d22))


def check_admissible(u1_values, u2_values):
    """Membership test for the admissible neighbourhood of the decomposed
    potentials at t = 0; raises ``AdmissibilityError`` naming the failed
    inequality.  At t > 0 the margin of ``residual_state`` is the test."""
    m1, m2 = t0_margins(u1_values, u2_values)
    if m1 <= 0.0:
        raise AdmissibilityError(
            f"admissibility failed at t=0: min(1 - d11 u1) = {m1:.3g} <= 0")
    if m2 <= 0.0:
        raise AdmissibilityError(
            f"admissibility failed at t=0: min(1 - d22 u2) = {m2:.3g} <= 0")


def split_residual_values(t, u1_values, u2_values, pair, schedule=None):
    """Residual of u1 + lambda_t u2 evaluated in split form.

    Mathematically identical to the assembled residual, but every term is
    O(1) in lambda:

        f - g(x1 - d1 u1 - lam d1 u2, x2 - d2 u2)
          * [ (1 - d11 u1 - lam d11 u2)(1 - d22 u2) - lam (d12 u2)^2 ].

    At lambda = 0 this is exactly the t = 0 limit operator.  The assembled
    evaluation loses the fiber component to rounding once lambda is small
    (floor ~ eps * (pi n)^2 / lambda); this form has no such floor, and
    unlike ``residual_state`` it extends to t = 0.
    """
    schedule = schedule or CostSchedule.linear()
    lam = 0.0 if t == 0.0 else schedule.lam(t)
    g, row, fiber, cross, *_ = split_factors(u1_values, u2_values, lam, pair)
    return pair.f_values - g * (row * fiber - lam * cross * cross)


def split_factors(u1_values, u2_values, lam, pair):
    """The O(1) factors of the residual and coefficients of u1 + lam u2,
    lam >= 0: (g(map1, x2 - d2), row, fiber, cross, map1, d2) with map1 =
    x1 - d1 u1 - lam d1 u2, d2 = d2 u2, row = 1 - d11 u1 - lam d11 u2,
    fiber = 1 - d22 u2 and cross = d12 u2; lam multiplies derivatives of
    u2 and never divides them."""
    u1_values = np.asarray(u1_values, float)
    d1, d2, d11, d12, d22 = derivative_bundle(np.asarray(u2_values, float))
    x1, x2 = pair.grid.mesh()
    map1 = x1 - deriv_values(u1_values, 0, 1)[:, None] - lam * d1
    g_at_t = pair.g_poly(frac(map1), frac(x2 - d2))
    row = 1.0 - deriv_values(u1_values, 0, 2)[:, None] - lam * d11
    return g_at_t, row, 1.0 - d22, d12, map1, d2


def split_values(values, lam):
    """(v1, v2) with values = v1 + lam v2 up to the mean: v1 the zero-mean
    row mean, v2 fiberwise zero-mean."""
    row = values.mean(axis=1)
    return row - row.mean(), (values - row[:, None]) / lam


def decomposed_residual(t, u1, u2, pair, schedule=None):
    """Residual of the decomposed potential u1(x1) + lambda_t * u2(x1,x2).

    For t > 0 this is exactly ``monge_ampere_residual`` at the assembled
    potential (same code path, bitwise), whose margin raises
    ``ConcavityError``.  At t = 0 it is the smooth limit

        f - g(x1 - u1', x2 - d2 u2) (1 - d11 u1)(1 - d22 u2),

    after ``check_admissible``.  ``u1`` is a 1D array of n1 samples; ``u2``
    a ScalarField.
    """
    u1 = np.asarray(u1, float)
    if t == 0.0:
        check_admissible(u1, u2.values)
        return ScalarField(u2.grid,
                           split_residual_values(0.0, u1, u2.values, pair))
    schedule = schedule or CostSchedule.linear()
    combined = u1[:, None] + schedule.lam(t) * u2.values
    return monge_ampere_residual(schedule.matrix(t),
                                 ScalarField(u2.grid, combined), pair)


def transport_map(cost, u):
    """T = id - A^{-1} grad(u) as a vector field of map values.

    The x2 displacement is divided by a22; requires a positive margin
    (raises ``ConcavityError("not a diffeomorphism ...")`` otherwise).
    """
    g1, g2, u11, u12, u22 = derivative_bundle(u.values)
    margin = _assembled_margin(cost, u11, u12, u22)
    if margin <= 0.0:
        raise ConcavityError(
            f"not a diffeomorphism: margin = {margin:.3g} <= 0")
    x1, x2 = u.grid.mesh()
    t1 = x1 - g1
    t2 = x2 - g2 / cost.a22
    return VectorField(ScalarField(u.grid, t1), ScalarField(u.grid, t2))


def pushforward_residual(tmap, pair, K):
    """max over |k|_inf <= K of |int exp(-2i pi k.T(x)) f(x) dx - ghat(k)|.

    The quadrature is the grid trapezoid rule; ghat comes from g's closed
    form.  This is the quantitative certificate that T pushes f onto g.
    ``K`` must be an integer >= 1 (Python or numpy; not a bool): other
    frequencies are not Fourier modes of the torus.

    All quadratures are one product  E1 diag(f) E2^T / n  accumulated over
    blocks of ``_PUSHFORWARD_BLOCK`` grid points, which bounds the scratch
    memory independently of the grid.  The rows of E1 and E2 are the
    powers w^k of w = exp(-2i pi T_j), built by repeated multiplication
    from one ``exp`` per axis; w^k then carries a rounding error of about
    k eps (at most 2e-15 at K = 8), and w^-k = conj(w^k).  Since f and g
    are real, the defect at -k is the conjugate of the defect at k, so the
    rows k1 = 0..K against the columns k2 = -K..K cover every mode.
    """
    if isinstance(K, bool) or not isinstance(K, (int, np.integer)) or K < 1:
        raise ValueError(
            f"pushforward_residual needs an integer K >= 1, got {K!r}")
    f = pair.f_values.ravel()
    w1 = np.exp(-2j * np.pi * tmap.v1.values.ravel())
    w2 = np.exp(-2j * np.pi * tmap.v2.values.ravel())
    quad = np.zeros((K + 1, 2 * K + 1), complex)
    for lo in range(0, f.size, _PUSHFORWARD_BLOCK):
        block = slice(lo, lo + _PUSHFORWARD_BLOCK)
        e1 = _powers(w1[block], K)
        e1 *= f[block]
        e2 = _powers(w2[block], K)
        quad += e1 @ np.concatenate([e2[:0:-1].conj(), e2]).T
    quad /= f.size
    exact = np.array([[pair.g_poly.fourier_coefficient(k1, k2)
                       for k2 in range(-K, K + 1)] for k1 in range(K + 1)])
    return float(np.max(np.abs(quad - exact)))


def _powers(w, K):
    """Rows w^0, w^1, ..., w^K by repeated multiplication."""
    out = np.empty((K + 1, w.size), complex)
    out[0] = 1.0
    for k in range(1, K + 1):
        np.multiply(out[k - 1], w, out=out[k])
    return out
