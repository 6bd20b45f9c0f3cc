"""Exact 1D optimal transport between positive densities on the circle.

The monotone rearrangement between two unit-mass densities f, g on the
circle is T_theta = Ginv(F + theta) for any shift theta of the cumulative
functions.  Among those, exactly one shift makes the displacement
x - T(x) have zero mean; that is the map of the form id - psi' with psi a
periodic potential, and it is also the cheapest one for the quadratic
cost (verified by property test, not assumed).  The inverses at the
nodes and that shift are one Newton solve of G(y_j) = F(x_j) + theta,
mean(y - x) = 0, whose Jacobian is the diagonal g(y) bordered by one row
and one column: one cdf-and-density pass per step (``invert_lifted_cdf``).

Every function here works on one density (a closed form with a scalar
``const``, maps of shape (m,)) or on a stack of them (``const`` of shape
(rows,), maps of shape (rows, m)), all rows at once; the single density is
the one-row case of the same code.

Densities are closed-form cosine sums, as on the torus, held without
samples, and cumulative functions are their exact primitives; a density
is positive if its closed form is, between the nodes too, and it keeps a
positive lower bound per row (``circle_density``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, ConvergenceError, CutLocusError, PositivityError
from .grid import antideriv_values
from .trig import TWO_PI, TrigPoly1D, frac

# the stopping tolerance of every inversion, on each cdf residual and on
# the mean displacement: a warm start stops where a cold one does
NEWTON_TOL = 1e-15
MAX_DISPLACEMENT = 0.5
ROW_BLOCK = 2 ** 14      # entries of a stack that one Newton loop holds


@dataclass
class CircleDensity:
    """Positive density on the circle, renormalized to unit mass.

    ``closed_form`` is the exact trigonometric definition, of unit mass
    (const 1); ``floor`` holds a positive lower bound of each row
    (``_density_floor``), and ``m`` is the number of nodes i/m on which
    a map from the density is sampled.
    """

    closed_form: TrigPoly1D
    floor: np.ndarray
    m: int

    @property
    def values(self):
        """The closed form at the m nodes (computed on each call)."""
        return self.closed_form(np.arange(self.m) / self.m)


def circle_density(closed_form, m):
    """Build a validated, unit-mass CircleDensity (or stack, row by row)
    on the m nodes i/m.  Positivity is that of the closed form, between
    the nodes too: ``_density_floor`` raises ``PositivityError`` unless its
    lower bound is positive.  A mode aliased onto the nodes' mean (k a
    multiple of m) keeps its place in the closed form, whose mass stays 1."""
    if m < 4:
        raise ValueError("need at least 4 samples")
    closed_form = closed_form.normalized()
    return CircleDensity(closed_form, _density_floor(closed_form), m)


def invert_lifted_cdf(d, w, x0=None, *, nodes=None, theta0=None):
    """Solve Glift(y) = w for the lifted cumulative function of ``d``.

    Glift(y + 1) = Glift(y) + 1, so w may be any real; the root of a level
    lies between its floor (its base) and base + 1.  With ``nodes`` x, each
    row of levels (a single density's w is one row) also takes the shift
    theta that centres it: y solves Glift(y) = w + theta with
    mean(y - x) = 0, and the call returns (y, theta).

    One safeguarded Newton loop runs over the stack.  A step takes the cdf
    and the density of its rows in one pass (``value_and_primitive``) and
    narrows each entry's bracket by the sign of its residual
    F = G(y - base) - frac(w + theta); a Newton step that leaves the
    bracket takes its false position.  A row is done on its residuals only,
    every |F| and, with the shift, |mean(y - x)| at most the one tolerance
    NEWTON_TOL, from a warm start as from a cold one; it keeps its values.
    Rows done at the start leave the arrays before any bracket is built;
    later, done rows leave once they are half.  Rows are independent, so
    a stack runs in blocks of ROW_BLOCK entries: each array of the loop
    stays at 128 KB, whatever the size of the stack.
    An integer level, or a row whose warm start ``x0`` is at its roots,
    comes back unchanged.

    theta starts at 0, or per row at ``theta0``, a shift start that comes
    with ``nodes``; the first levels are then floor(w + theta0), and
    ``x0`` is clipped into their cells.  theta's step is the Schur
    complement of the bordered system, (mean(F/g) - mean(y - x)) /
    mean(1/g), and y takes the Newton step of F - dtheta, its residual at
    the new level.  theta's bracket is centred on its start theta0 with
    reach max g (|mean(y - x)| + mean|F| / g_low), and narrows where the
    sign of h is certain.  The reach holds for any start:
    h(theta) = mean(y(theta) - x), of the roots y(theta), increases with
    slope mean(1/g(y)) >= 1 / max g, so its root lies within
    max g |h(theta0)| of theta0, and |h(theta0)| is at most |mean(y - x)|
    plus mean|y - y(theta0)| <= mean|F| / g_low.  A row whose residual grew
    moves theta only once its inverses have settled.
    """
    s = np.atleast_2d(np.asarray(w, float).reshape(*np.shape(d.closed_form.const), -1))
    y, theta = np.empty_like(s), np.zeros(len(s))
    step = max(1, ROW_BLOCK // s.shape[1])
    for b in (slice(i, i + step) for i in range(0, len(s), step)):
        part = d if step >= len(s) else CircleDensity(d.closed_form.take(b),
                                                      d.floor[b], d.m)
        _newton_rows(part, s[b], None if x0 is None else np.reshape(x0, s.shape)[b],
                     None if theta0 is None else np.reshape(theta0, len(s))[b],
                     nodes, y[b], theta[b])
    y = y.reshape(np.shape(w))
    return (y, theta.reshape(y.shape[:-1])) if nodes is not None else y


def _newton_rows(d, s, x0, theta0, nodes, out, out_theta):
    """The loop of ``invert_lifted_cdf`` on the rows of ``d``, one block of
    the stack, which writes their roots and shifts into ``out`` and
    ``out_theta``."""
    theta = np.zeros(len(s)) if theta0 is None else np.asarray(theta0, float)
    r = s + theta[:, None] if theta0 is not None else s.copy()
    base = np.floor(r)
    y = r.copy() if x0 is None else np.clip(x0, base, base + 1)
    r -= base
    at = np.arange(len(s))                  # the rows kept in the arrays
    centre = nodes is not None
    if centre:
        gmax = d.closed_form.const + np.sum(np.abs(d.closed_form.amps), axis=-1)
        glow, gmax = (np.broadcast_to(a, theta.shape) for a in (d.floor, gmax))
    for k in range(100):
        rows = d.closed_form.take(at) if at.size < len(out) else d.closed_form
        value, err = rows.value_and_primitive(y - base)
        err -= r                            # F, in place of the cdf
        res = np.max(np.abs(err), axis=-1)
        mean_err = np.mean(y - nodes, axis=-1) if centre else theta
        done = (res <= NEWTON_TOL) & (np.abs(mean_err) <= NEWTON_TOL)
        # rows done in the first pass leave before any bracket is built
        if (k == 0 and done.any()) or 2 * np.count_nonzero(done) >= len(done):
            out[at[done]], out_theta[at[done]] = y[done], theta[done]
            if done.all():
                return
            keep = np.flatnonzero(~done)
            (at, s, base, r, y, err, value, theta, mean_err, res, done) = (
                a[keep] for a in (at, s, base, r, y, err, value, theta, mean_err,
                                  res, done))
            if centre:
                glow, gmax = glow[keep], gmax[keep]
            if k:
                lo, hi, flo, fhi = (a[keep] for a in (lo, hi, flo, fhi))
                if centre:
                    tlo, thi, joint, last = (a[keep] for a in (tlo, thi, joint, last))
        if k == 0:
            # bracket ends carry residual bounds F(lo) <= flo <= 0 <= fhi <= F(hi)
            lo, hi, flo, fhi = base.copy(), base + 1.0, -r, 1.0 - r
        for end, bound, side in ((lo, flo, err < 0), (hi, fhi, err > 0)):
            np.copyto(end, y, where=side)
            np.copyto(bound, err, where=side)
        if centre:      # theta's bracket, from |h(theta) - mean_err| <= spread
            spread = np.mean(np.abs(err), axis=-1) / glow
            if k == 0:
                reach = gmax * (np.abs(mean_err) + spread) * 1.001 + 1e-12
                tlo, thi = theta - reach, theta + reach
                joint, last = np.ones(len(s), bool), np.full(len(s), np.inf)
            thi = np.where(mean_err > spread, np.minimum(thi, theta), thi)
            tlo = np.where(mean_err < -spread, np.maximum(tlo, theta), tlo)
        err[done] = 0.0
        slope = np.divide(1.0, value, out=value)
        if centre:
            # a row whose residual grew in a step (the first, from the
            # start, aside) moves theta only once its inverses have settled
            joint &= (res <= last) | (k == 1)
            last = res
            # theta's Newton step bisects theta's bracket instead where it
            # leaves it or, in a row that fell back, goes over half across
            new = theta + ((np.mean(err * slope, axis=-1) - mean_err)
                           / np.mean(slope, axis=-1))
            wild = (new <= tlo) | (new >= thi) | (
                ~joint & (2.0 * np.abs(new - theta) > thi - tlo))
            new = np.where(wild, 0.5 * (tlo + thi), new)
            step = np.where(~done & (joint | (res <= 1e-8)), new - theta, 0.0)[:, None]
            theta = theta + step[:, 0]
            np.floor(np.add(s, theta[:, None], out=r), out=base)
            r -= base
            # residuals at the new level; an end whose bound changed sign
            # moves out by the excess over g_low, within the level's cell
            err, flo, fhi = err - step, flo - step, fhi - step
            lo = lo - np.maximum(flo, 0.0) / glow[:, None]
            hi = hi - np.minimum(fhi, 0.0) / glow[:, None]
            flo = np.where(lo < base, -r, np.minimum(flo, 0.0))
            fhi = np.where(hi > base + 1, 1.0 - r, np.maximum(fhi, 0.0))
            lo, hi = np.maximum(lo, base), np.minimum(hi, base + 1)
        y -= np.multiply(err, slope, out=err)
        # a Newton step that leaves the bracket takes its false position: a
        # point inside it, or the end itself where that is a bound (0)
        outside = ~((y >= lo) & (y <= hi))      # NaN too
        if outside.any():
            split = flo / np.minimum(flo - fhi, -1e-300)
            y = np.where(outside, lo + split * (hi - lo), y)
        err = slope = value = None      # freed before the next pass
    raise ConvergenceError("cdf inversion did not converge",
                           residual=float(np.max(res)))


def _density_floor(poly):
    """Per row, a positive lower bound of a positive cosine sum p: const -
    sum |a| where that is positive, else the minimum over M = 64 K nodes (K
    the top frequency) less the most p can dip between two of them,
    max |p''| / (8 M^2) with max |p''| <= sum (2 pi k)^2 |a_k|."""
    floor = np.atleast_1d(poly.const - np.sum(np.abs(poly.amps), axis=-1))
    low = np.flatnonzero(floor <= 0.0)
    if low.size:
        rows = poly.take(low) if np.ndim(poly.const) else poly
        m = 64 * int(np.max(poly.freqs))
        curvature = np.sum((TWO_PI * poly.freqs) ** 2 * np.abs(rows.amps), axis=-1)
        floor[low] = (np.min(rows(np.arange(m) / m), axis=-1)
                      - curvature / (8.0 * m * m))
        if np.min(floor) <= 0.0:
            raise PositivityError(
                f"density not positive: lower bound {np.min(floor):.3g}")
    return floor


@dataclass
class CircleMap:
    """Monotone circle map stored as displacement samples x - T(x) at i/m.

    The lift satisfies T(x+1) = T(x) + 1; after shift selection the
    displacement has zero mean and the map is id - psi' for a periodic
    potential psi.  ``shift`` is the theta of each row that a solve
    selected (``invert_lifted_cdf``), None for a map given by its samples.
    """

    displacement: np.ndarray
    shift: np.ndarray | None = None

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
        twice, then the real part), a polynomial in e = exp(2 pi i x) taken
        baby step, giant step: the b ~ sqrt(m/2) baby powers e^0..e^(b-1),
        one ``matmul`` against the coefficients in rows of b gives each
        giant block's sum, and Horner's scheme in e^b runs over the blocks
        only.  One ``exp`` per point; the rounding error of mode k stays
        about k eps.  A stack's rows interpolate at their own rows of x.
        """
        m = self.m
        c = np.fft.rfft(self.displacement) / m
        c[..., 1:(m + 1) // 2] *= 2.0
        b = round(np.sqrt(m / 2))
        giants = -(-c.shape[-1] // b)
        # blocks[..., i, j]: the coefficient of mode i b + j
        blocks = np.zeros(c.shape[:-1] + (giants * b,), complex)
        blocks[..., :c.shape[-1]] = c
        blocks = blocks.reshape(c.shape[:-1] + (giants, b))
        x = np.asarray(x, float)
        e = np.exp(2j * np.pi * frac(np.atleast_1d(x)))
        powers = np.empty(e.shape[:-1] + (b,) + e.shape[-1:], complex)
        powers[..., 0, :] = 1.0
        for j in range(1, b):
            np.multiply(powers[..., j - 1, :], e, out=powers[..., j, :])
        sums = blocks @ powers          # sums[..., i, :]: giant block i at x
        giant = powers[..., -1, :] * e
        out = sums[..., -1, :]
        for i in range(giants - 2, -1, -1):
            out *= giant
            out += sums[..., i, :]
        return out.real.reshape(x.shape)

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


def monotone_circle_map(f, g, start=None):
    """Monotone transport map from f to g with zero-mean displacement.

    Parameters
    ----------
    f, g : CircleDensity
        Positive unit-mass densities, or stacks of as many rows each; the
        map is sampled at f's nodes.
    start : CircleMap, optional
        A guess of the map on f's nodes, with its ``shift``, from which the
        Newton solve starts; the same tolerance and checks decide the map.

    Returns
    -------
    CircleMap
        Map with ``sup |x - T(x)| < 1/2`` and mean displacement below 1e-12,
        row by row for stacks, and the shift of each row.
    """
    m = f.m
    x = np.arange(m) / m
    s = f.closed_form.antiderivative(x)
    x0, theta0 = (None, None) if start is None else (x - start.displacement,
                                                     start.shift)
    y, theta = invert_lifted_cdf(g, s, x0, nodes=x, theta0=theta0)
    displacement = x - y
    _check_map(displacement, m)
    return CircleMap(displacement, theta)


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


def transport_cost(f, displacement):
    """Quadratic transport cost 0.5 * int (x - T(x))^2 f(x) dx (trapezoid)."""
    return 0.5 * float(np.mean(displacement ** 2 * f.values))


def pushforward_quantile_error(f, g, tmap):
    """max_u |Glift(T(Finv(u))) - u - theta| over 256 interior quantiles u.

    Zero (to solver accuracy) exactly when T pushes f forward to g; used
    as the module's pushforward certificate.  For stacks, theta is fitted
    per row and the maximum runs over all rows.
    """
    u = (np.arange(256) + 0.5) / 256
    x = invert_lifted_cdf(f, np.broadcast_to(u, np.shape(f.closed_form.const) + u.shape))
    tx = tmap(x)
    values = (np.floor(tx) + g.closed_form.antiderivative(frac(tx))
              - f.closed_form.antiderivative(frac(x)))
    theta = np.mean(values, axis=-1, keepdims=True)
    return float(np.max(np.abs(values - theta)))
