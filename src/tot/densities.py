"""Trigonometric-polynomial densities and source/target pairs.

Restricting densities to finite cosine sums keeps every composition
g(x - displacement) exactly evaluable, which the residual tolerances of
the solvers require.  A density spec is a list of (k1, k2, amplitude,
phase) cosine modes on top of the constant 1; the resulting function is
normalized to unit mass and admitted only if a certified lower bound of
its closed form, ``TrigPoly2D.floor`` on the 4x oversampled grid, is at
least ``DELTA_MIN``: the one positivity test of a 2D density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PositivityError
from .grid import ScalarField
from .trig import TrigPoly2D

DELTA_MIN = 0.05
OVERSAMPLE = 4


@dataclass(frozen=True)
class DensitySpec:
    """Cosine modes (k1, k2, amplitude, phase) added to the constant 1."""

    modes: tuple

    def trig(self):
        return TrigPoly2D.from_modes(self.modes, const=1.0).normalized()


def spec(*modes):
    return DensitySpec(tuple((int(k1), int(k2), float(a), float(p))
                             for k1, k2, a, p in modes))


# Shipped catalog.  ``standard_f`` / ``standard_g`` form the non-product
# test pair used throughout (Knothe != Brenier); the ``product_*`` pair
# factorizes, so its optimal map is a pair of 1D maps at every cost.
CATALOG = {
    "uniform": spec(),
    "standard_f": spec((1, 0, 0.3, 0.0), (1, 1, 0.15, 0.0)),
    "standard_g": spec((0, 1, 0.25, 0.0), (1, 1, 0.05, 0.0), (1, -1, 0.05, 0.0)),
    # (1 + 0.2 cos(2 pi x1)) * (1 + 0.15 cos(2 pi x2)), expanded
    "product_f": spec((1, 0, 0.2, 0.0), (0, 1, 0.15, 0.0),
                      (1, 1, 0.015, 0.0), (1, -1, 0.015, 0.0)),
    # (1 + 0.15 cos(2 pi x1)) * (1 + 0.25 cos(2 pi x2)), expanded
    "product_g": spec((1, 0, 0.15, 0.0), (0, 1, 0.25, 0.0),
                      (1, 1, 0.01875, 0.0), (1, -1, 0.01875, 0.0)),
    "marginal_only_f": spec((1, 0, 0.3, 0.0)),
    "marginal_only_g": spec((1, 0, 0.2, 0.5)),
}


@dataclass(frozen=True)
class DensityPair:
    """Source/target densities with closed forms and a certified margin.

    ``delta`` is the smaller of the two certified lower bounds
    (``TrigPoly2D.floor``); both densities integrate exactly to 1.
    """

    f: ScalarField
    g: ScalarField
    delta: float

    @property
    def grid(self):
        return self.f.grid

    @property
    def f_values(self):
        return self.f.values

    @property
    def f_poly(self):
        return self.f.closed_form

    @property
    def g_poly(self):
        return self.g.closed_form

    def on_grid(self, grid):
        """The same closed forms sampled on another grid, with this pair's
        ``delta``: a bound of the closed forms, so no grid needs a new one."""
        return DensityPair(density_field(self.f_poly, grid),
                           density_field(self.g_poly, grid), self.delta)


def density_field(density, grid):
    """Sample a DensitySpec or TrigPoly2D on a grid, keeping the closed form."""
    poly = density.trig() if isinstance(density, DensitySpec) else density.normalized()
    x1, x2 = grid.mesh()
    return ScalarField(grid, poly(x1, x2), closed_form=poly)


def make_density_pair(f, g, grid):
    """Build a DensityPair from specs or closed forms: each is admitted by
    its certified floor on the oversampled grid, the one 2D positivity test."""
    ff = density_field(f, grid)
    gf = density_field(g, grid)
    margins = []
    for name, fld in (("f", ff), ("g", gf)):
        lowest = fld.closed_form.floor(OVERSAMPLE * grid.n1, OVERSAMPLE * grid.n2)
        if lowest < DELTA_MIN:
            raise PositivityError(
                f"density not positive: min = {lowest!r} < {DELTA_MIN:g} ({name})")
        if abs(float(np.mean(fld.values)) - 1.0) > 1e-12:
            raise PositivityError(f"density mass is not 1 ({name})")
        margins.append(lowest)
    return DensityPair(ff, gf, min(margins))


def standard_pair(grid):
    return make_density_pair(CATALOG["standard_f"], CATALOG["standard_g"], grid)
