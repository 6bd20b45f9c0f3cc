"""Exact 1D optimal transport between positive densities on the circle.

The monotone rearrangement between two unit-mass densities f, g on the
circle is T_theta = Ginv(F + theta) for any shift theta of the cumulative
functions.  Among those, exactly one shift makes the displacement
x - T(x) have zero mean; that is the map of the form id - psi' with psi a
periodic potential, and it is also the cheapest one for the quadratic
cost (verified by property test, not assumed).  The shift is the root of
the strictly decreasing shift-to-mean-displacement function h, found by
safeguarded Newton: h'(theta) = -mean(1/g(T_theta)) is exact, and a
bracket from the slope bounds catches every step that leaves it.

Every function here works on one density (samples of shape (m,)) or on a
stack of them (shape (rows, m)), all rows at once; the single density is
the one-row case of the same code.

Densities are closed-form cosine sums, as on the torus, and cumulative
functions are their exact primitives, with no interpolant of the
samples.  Inverses and shifts share one safeguarded (bracketed) Newton
loop that works on the entries still active: an entry that has converged
keeps its value and is not evaluated again.  A cdf inversion step takes
the cdf and the density of its active points from one angle per
frequency, each point on its own row of the stack; a shift step inverts
the cdfs of the rows whose shift is still active.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, ConvergenceError, CutLocusError, PositivityError
from .grid import antideriv_values
from .trig import TrigPoly1D, frac

NEWTON_TOL = 1e-14
SHIFT_TOL = 1e-13
MAX_DISPLACEMENT = 0.5


@dataclass
class CircleDensity:
    """Positive density on the circle, renormalized to unit mass.

    ``values`` are samples at nodes i/m of ``closed_form``, the exact
    trigonometric definition (already normalized).
    """

    values: np.ndarray
    closed_form: TrigPoly1D

    @property
    def m(self):
        return self.values.shape[-1]


def circle_density(closed_form, m):
    """Build a validated, unit-mass CircleDensity (or stack, row by row)
    from a closed form sampled at the m nodes i/m."""
    if m < 4:
        raise ValueError("need at least 4 samples")
    closed_form = closed_form.normalized()
    values = closed_form(np.arange(m) / m)
    if np.min(values) <= 0.0:
        raise PositivityError(
            f"density not positive: min = {np.min(values):.3g}")
    mean = values.mean(axis=-1)
    values /= mean[..., None]
    # a mean off 1 by rounding keeps the closed form's bits; any more (modes
    # aliased onto the mean) rescales it, so the samples stay its values
    if np.any(np.abs(mean - 1.0) > 16 * np.finfo(float).eps):
        closed_form = closed_form.scaled(1.0 / mean)
    return CircleDensity(values, closed_form)


def invert_lifted_cdf(d, w, x0=None, tol=NEWTON_TOL, *, with_density=False):
    """Solve Glift(y) = w for the lifted cumulative function of ``d``.

    Glift(y + 1) = Glift(y) + 1, so w may be any real.  Vectorized
    safeguarded Newton on [0, 1] after removing the integer part of w; the
    density lower bound makes the iteration globally convergent.  Each
    step evaluates the cdf and the density of the entries still active in
    one pass (``TrigPoly1D.value_and_primitive``, each entry on its own
    row of a stack).  An exact start (an integer level w, or a warm start
    at the root) comes back unchanged.  ``with_density`` also returns the
    density at the inverse, from each entry's last evaluation.
    """
    w = np.asarray(w, float)
    r = frac(w).ravel()
    if x0 is None:
        y = r.copy()
    else:
        y = np.clip(np.asarray(x0, float) - np.floor(w), 0.0, 1.0).ravel()

    def evaluate(y, at):
        level = r if at is None else r[at]
        if at is None:          # every entry: a stack's rows broadcast
            value, primitive = d.closed_form.value_and_primitive(y.reshape(w.shape))
        else:
            rows = at // w.shape[-1] if d.values.ndim == 2 else None
            value, primitive = d.closed_form.value_and_primitive(y, rows)
        primitive = primitive.ravel()
        primitive -= level
        return primitive, value.ravel()

    # an entry's level is read only while it is active, so once it is final
    # its slot in r can take the density at its root
    _safeguarded_newton(evaluate, y, np.zeros_like(r), np.ones_like(r), tol,
                        100, "cdf inversion",
                        slopes=r if with_density else None)
    inverse = np.floor(w) + y.reshape(w.shape)
    return (inverse, r.reshape(w.shape)) if with_density else inverse


def _safeguarded_newton(evaluate, y, lo, hi, tol, max_iter, what, start=None,
                        slopes=None):
    """Entrywise root of increasing functions, each bracketed in [lo, hi].

    All arrays are flat.  ``evaluate(y, at)`` returns the residuals and
    their derivatives at the values ``y`` of the entries ``at`` (flat
    indices, or None while every entry is active); ``start`` is that pair
    at the start when the caller already has it.  The loop moves ``y`` to
    the roots in place.  The bracket [lo, hi], also narrowed in place,
    shrinks with every evaluation and takes a bisection step whenever
    Newton leaves it.  An entry is final once its residual is within
    ``tol`` or its bracket has collapsed: it keeps its value and is never
    evaluated again, so each step evaluates only the entries still active.
    An entry stops where it was last evaluated, so its derivative at the
    root comes from that evaluation: ``slopes``, when given, receives it
    as the entry becomes final.
    """
    at = None
    err, slope = evaluate(y, None) if start is None else start
    for _ in range(max_iter):
        active = (np.abs(err) > tol) & (hi - lo > 1e-15)
        if not active.all():
            if slopes is not None:
                done = ~active
                slopes[np.flatnonzero(done) if at is None else at[done]] = \
                    slope[done]
            if not active.any():
                return
            keep = np.flatnonzero(active)
            at = keep if at is None else at[keep]
            # one at a time: an old array can go before the next is
            # gathered, which keeps the heap's high-water mark lower
            err = err[keep]
            slope = slope[keep]
            lo = lo[keep]
            hi = hi[keep]
        ya = y if at is None else y[at]
        np.copyto(lo, ya, where=err < 0)
        np.copyto(hi, ya, where=err > 0)
        ya = ya - err / slope                   # the Newton candidate
        outside = (ya <= lo) | (ya >= hi) | ~np.isfinite(ya)
        ya = np.where(outside, 0.5 * (lo + hi), ya)
        y[slice(None) if at is None else at] = ya
        err, slope = evaluate(ya, at)
    raise ConvergenceError(f"{what} did not converge",
                           residual=float(np.max(np.abs(err))))


@dataclass
class CircleMap:
    """Monotone circle map stored as displacement samples x - T(x) at i/m.

    The lift satisfies T(x+1) = T(x) + 1; after shift selection the
    displacement has zero mean and the map is id - psi' for a periodic
    potential psi.
    """

    displacement: np.ndarray

    @property
    def m(self):
        return self.displacement.shape[-1]

    def nodes(self):
        return np.arange(self.m) / self.m

    def map_values(self):
        return self.nodes() - self.displacement

    def displacement_at(self, x):
        """Trigonometric interpolation of the displacement at arbitrary x.

        The sum runs over the rfft half spectrum (modes 0 < k < m/2 count
        twice, then the real part): Horner's scheme in e = exp(2 pi i x),
        so one ``exp`` per point and one multiply-add per mode, with a
        rounding error of about k eps on mode k.  A stack's rows interpolate
        at their own rows of x.
        """
        m = self.m
        c = np.fft.rfft(self.displacement) / m
        c[..., 1:(m + 1) // 2] *= 2.0
        coefs = c.T[..., None] if c.ndim == 2 else c    # coefs[k]: a row column
        e = np.exp(2j * np.pi * frac(np.asarray(x, float)))
        out = np.zeros(e.shape, complex)
        for ck in coefs[::-1]:
            out *= e
            out += ck
        return out.real

    def __call__(self, x):
        return np.asarray(x, float) - self.displacement_at(x)


def _check_map(displacement, m):
    tmap = np.arange(m) / m - displacement
    increments = np.diff(tmap, axis=-1, append=tmap[..., :1] + 1.0)
    if np.min(increments) <= 0.0:
        raise ConstructionError("transport map is not strictly increasing")
    if np.max(np.abs(displacement)) >= MAX_DISPLACEMENT:
        raise CutLocusError(
            "cut-locus violation: displacement reached half the circumference "
            f"(sup = {np.max(np.abs(displacement)):.3g})")


def monotone_circle_map(f, g):
    """Monotone transport map from f to g with zero-mean displacement.

    Parameters
    ----------
    f, g : CircleDensity
        Positive unit-mass densities, or stacks of as many rows each; the
        map is sampled at f's nodes.

    Returns
    -------
    CircleMap
        Map with ``sup |x - T(x)| < 1/2`` and mean displacement below 1e-12,
        row by row for stacks.
    """
    for d in (f, g):
        if np.min(d.values) <= 0.0:
            raise PositivityError("density not positive")
    m = f.m
    x = np.arange(m) / m
    s = f.closed_form.antiderivative(x)
    theta, y = _newton_shift(g, s, x)
    # polish at full precision with the selected shift
    ymap = invert_lifted_cdf(g, s + theta[..., None], x0=y, tol=1e-15)
    displacement = x - ymap
    _check_map(displacement, m)
    return CircleMap(displacement)


def _newton_shift(g, s, x):
    """Per row, the shift theta with mean(x - Ginv(s + theta)) = 0.

    Returns theta (one per row) and the inverse at it.  The residual
    mean(Ginv(s + theta) - x) is strictly increasing with slope
    mean(1/g(y)) in [1/max g, 1/min g], so the root lies within
    |residual(0)| * max g of 0, which is the starting bracket.  Each
    iterate inverts the cdfs of the rows whose shift is still active.
    """
    single = g.values.ndim == 1
    s = np.atleast_2d(s)
    y, density = invert_lifted_cdf(g, s, with_density=True)
    err, slope = np.mean(y - x, axis=-1), np.mean(1.0 / density, axis=-1)
    del density                 # not held through the shift iterations
    reach = np.abs(err) * np.max(g.values, axis=-1) * 1.001 + 1e-12

    def evaluate(theta, at):
        at = slice(None) if at is None else at
        rows = g if single else CircleDensity(g.values[at], g.closed_form.take(at))
        inverse, density = invert_lifted_cdf(rows, s[at] + theta[:, None],
                                             x0=y[at], with_density=True)
        y[at] = inverse
        return np.mean(inverse - x, axis=-1), np.mean(1.0 / density, axis=-1)

    theta = np.zeros_like(err)
    _safeguarded_newton(evaluate, theta, -reach, reach, SHIFT_TOL, 100,
                        "shift Newton", start=(err, slope))
    return (theta[0], y[0]) if single else (theta, y)


def potential_1d(f, g):
    """Zero-mean periodic potential with T = id - psi'.

    psi is the zero-mean primitive of the displacement of the monotone
    zero-mean-displacement map from f to g.
    """
    tmap = monotone_circle_map(f, g)
    return potential_from_map(tmap)


def potential_from_map(tmap):
    """Row by row, the zero-mean primitive of the centred displacement."""
    d = tmap.displacement
    return antideriv_values(d - np.mean(d, axis=-1, keepdims=True), axis=-1)


def transport_cost(f, g, displacement):
    """Quadratic transport cost 0.5 * int (x - T(x))^2 f(x) dx (trapezoid)."""
    return 0.5 * float(np.mean(displacement ** 2 * f.values))


def pushforward_quantile_error(f, g, tmap):
    """max_u |Glift(T(Finv(u))) - u - theta| over 256 interior quantiles u.

    Zero (to solver accuracy) exactly when T pushes f forward to g; used
    as the module's pushforward certificate.  For stacks, theta is fitted
    per row and the maximum runs over all rows.
    """
    u = (np.arange(256) + 0.5) / 256
    x = invert_lifted_cdf(f, np.broadcast_to(u, f.values.shape[:-1] + u.shape))
    tx = tmap(x)
    values = (np.floor(tx) + g.closed_form.antiderivative(frac(tx))
              - f.closed_form.antiderivative(frac(x)))
    theta = np.mean(values, axis=-1, keepdims=True)
    return float(np.max(np.abs(values - theta)))
