"""Knothe-Rosenblatt rearrangement on the 2-torus.

The rearrangement is triangular: first the monotone 1D transport between
the x1-marginals, then, fiber by fiber, the monotone transport between
the conditional of f at x1 and the conditional of g at the *exact* real
image of x1 (never snapped to the grid - snapping would add an O(h) bias
that dominates every tolerance downstream).  Each 1D transport also
yields its scalar potential, so the construction simultaneously delivers
the map and the potential pair (u1, u2) whose derivative reproduces it.

Fibers are independent, so all of them are one row-batched 1D transport:
the conditionals of every row form one stack of circle densities, and one
Newton loop solves each row's inverses together with its own shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError
from .grid import ScalarField, VectorField
from .monge_ampere import t0_margins
from .transport1d import (CircleMap, circle_density, monotone_circle_map,
                          potential_from_map, pushforward_quantile_error)
from .trig import frac


def marginal_and_conditionals(f):
    """Split a closed-form density into its x1-marginal and conditionals.

    Returns the marginal as a CircleDensity on n1 nodes and a callable
    giving the (unit-mass) conditional density on the fiber over any real
    x1, sampled on n2 nodes; an array of x1 values gives the stack of
    their conditionals, one row each.  Each is a ``circle_density``, whose
    1D floor raises ``PositivityError`` on a closed form that is not
    positive; the marginal's floor proves every fiber's mean positive.
    """
    if f.closed_form is None:
        raise ValueError("marginal/conditional split needs a closed-form density")
    poly = f.closed_form
    n1, n2 = f.grid.shape
    marginal = circle_density(closed_form=poly.marginal_x2(), m=n1)

    def conditional(x1):
        return circle_density(closed_form=poly.slice_x1(x1).normalized(), m=n2)

    return marginal, conditional


@dataclass
class KnothePotentials:
    """u1(x1) zero-mean, u2(x1, x2) with zero mean along every fiber.

    The rearrangement is (x1 - u1'(x1), x2 - d2 u2(x1, x2)); both
    1 - u1'' and 1 - d22 u2 stay positive (checked at construction).
    """

    u1: np.ndarray
    u2: ScalarField

    @property
    def margins(self):
        return t0_margins(self.u1, self.u2.values)


@dataclass
class KnotheSolution:
    """Rearrangement maps and potentials from one batched fiber transport."""

    grid: object
    r1: CircleMap
    r2_displacement: np.ndarray
    potentials: KnothePotentials

    def map_field(self):
        """The rearrangement as a vector field of map values on the grid."""
        x1, x2 = self.grid.mesh()
        v1 = np.broadcast_to(self.r1.map_values()[:, None], self.grid.shape).copy()
        v2 = x2 - self.r2_displacement
        return VectorField(ScalarField(self.grid, v1), ScalarField(self.grid, v2))


def knothe_solution(pair):
    """Build the full rearrangement (maps and potentials) for a pair."""
    grid = pair.grid
    f1, f_fiber = marginal_and_conditionals(pair.f)
    g1, g_fiber = marginal_and_conditionals(pair.g)

    r1 = monotone_circle_map(f1, g1)
    u1 = potential_from_map(r1)
    images = r1.map_values()

    fibers = monotone_circle_map(f_fiber(grid.nodes1()), g_fiber(images))
    u2 = potential_from_map(fibers)

    potentials = KnothePotentials(u1, ScalarField(grid, u2))
    m1, m2 = potentials.margins
    if m1 <= 0.0 or m2 <= 0.0:
        raise ConstructionError(
            f"Knothe potentials violate monotonicity margins: ({m1:.3g}, {m2:.3g})")
    return KnotheSolution(grid, r1, fibers.displacement, potentials)


def fiber_pushforward_error(pair, solution, n_fibers=8):
    """Max quantile-test error of the fiber maps over sampled fibers."""
    grid = pair.grid
    _, f_fiber = marginal_and_conditionals(pair.f)
    _, g_fiber = marginal_and_conditionals(pair.g)
    images = solution.r1.map_values()
    idx = np.linspace(0, grid.n1 - 1, n_fibers).astype(int)
    return pushforward_quantile_error(
        f_fiber(grid.nodes1()[idx]), g_fiber(images[idx]),
        CircleMap(solution.r2_displacement[idx]))


def l2_map_distance(tmap, rmap, f):
    """Weighted L2 distance between two torus maps.

    ( int d(T(x), R(x))^2 f(x) dx )^{1/2} with the per-coordinate wrapped
    distance d(a, b) = min_k |a - b - k|; the quadrature is the grid
    trapezoid rule.
    """
    d1 = _wrapped_distance(tmap.v1.values, rmap.v1.values)
    d2 = _wrapped_distance(tmap.v2.values, rmap.v2.values)
    return float(np.sqrt(np.mean((d1 ** 2 + d2 ** 2) * f.values)))


def _wrapped_distance(a, b):
    d = frac(a - b)
    return np.minimum(d, 1.0 - d)
