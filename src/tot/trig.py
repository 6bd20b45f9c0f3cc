"""Closed-form trigonometric polynomials on the 1- and 2-torus.

Densities in this package are finite cosine sums, which keeps every
composition, marginal, conditional and primitive exactly evaluable.

A 1D polynomial carries one mode per frequency: ``from_modes`` and
``TrigPoly2D.slice_x1`` add up the modes that share a frequency as
complex coefficients.  Each 1D call reduces its argument mod 1 once (with
``frac``) and forms one angle per frequency from it; the joint
``value_and_primitive`` takes the polynomial and its primitive from the
cosine and sine of that one angle.  ``TrigPoly2D.__call__`` reduces
nothing: its callers pass arguments already reduced mod 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def frac(x):
    """x mod 1, bit for bit equal to ``np.mod(x, 1.0)`` at a fraction of
    its cost (``x - floor(x)`` is exact for x >= 0 and rounds the same
    exact value once for x < 0).  The floor is taken into the result
    array, so the call allocates one array, as ``np.mod`` does."""
    x = np.asarray(x, float)
    out = np.floor(x, out=np.empty_like(x))
    return np.subtract(x, out, out=out)


def _one_mode_per_freq(const, freqs, amps, phases):
    """TrigPoly1D whose modes of equal frequency are summed as complex
    coefficients amps * exp(i phases); distinct modes keep their bits."""
    unique, slot = np.unique(freqs, return_inverse=True)
    if unique.size == freqs.size:
        return TrigPoly1D(const, freqs, amps, phases)
    summed = (amps * np.exp(1j * phases)) @ (slot[:, None] == np.arange(unique.size))
    return TrigPoly1D(const, unique, np.abs(summed), np.angle(summed))


@dataclass(frozen=True)
class TrigPoly1D:
    """const + sum_j amps[j] * cos(2*pi*freqs[j]*x + phases[j]), with
    distinct freqs >= 1.

    A stack of polynomials sharing ``freqs`` has ``const`` of shape (rows,)
    and ``amps``/``phases`` of shape (rows, modes); it evaluates on
    (rows, m) arrays (or on (m,) points shared by every row), one pass per
    frequency.
    """

    const: float
    freqs: np.ndarray
    amps: np.ndarray
    phases: np.ndarray

    @staticmethod
    def from_modes(modes, const=1.0):
        """Build from an iterable of (freq, amplitude, phase); freq 0 folds
        into the constant and modes of equal |freq| merge into one."""
        c = float(const)
        ks, amps, phases = [], [], []
        for k, a, p in modes:
            k = int(k)
            if k == 0:
                c += a * np.cos(p)
            else:
                ks.append(abs(k)), amps.append(float(a))
                phases.append(float(p) if k > 0 else -float(p))
        return _one_mode_per_freq(c, np.asarray(ks, dtype=int),
                                  np.asarray(amps, float), np.asarray(phases, float))

    def _columns(self, rows, *coefs):
        """const and per-mode coefficients shaped against the points: rows
        gathered by ``rows`` (one stack row per point), or a stack's
        (rows, 1) columns against its (rows, m) points."""
        const = self.const
        if rows is not None:
            return tuple(np.take(c, rows, axis=0) for c in (const,) + coefs)
        if np.ndim(const) > 0:
            return (const[:, None],) + tuple(c[:, None, :] for c in coefs)
        return (const,) + coefs

    def __call__(self, x):
        x = np.asarray(x, float)
        const, amps, phases = self._columns(None, self.amps, self.phases)
        out = const + np.zeros(x.shape)
        reduced = frac(x)
        for j, k in enumerate(self.freqs):
            out += amps[..., j] * np.cos(TWO_PI * k * reduced + phases[..., j])
        return out

    def antiderivative(self, x):
        """Exact primitive from 0: int_0^x of the polynomial."""
        return self.value_and_primitive(x)[1]

    def value_and_primitive(self, x, rows=None):
        """The polynomial and its exact primitive from 0 at x, both from the
        cosine and sine of one angle per frequency.

        For a stack, ``rows`` (an integer array of x's shape) evaluates each
        point on its own row instead of every point on every row.
        """
        x = np.asarray(x, float)
        const, re, im = self._columns(rows, self.amps * np.cos(self.phases),
                                      self.amps * np.sin(self.phases))
        value = const + np.zeros(x.shape)
        primitive = const * x
        reduced = frac(x)
        for j, k in enumerate(self.freqs):
            w = TWO_PI * k
            cos, sin = np.cos(w * reduced), np.sin(w * reduced)
            # Re(c e^{i angle}) and Re(c (e^{i angle} - 1) / (i w)), c = re + i im
            value += re[..., j] * cos - im[..., j] * sin
            primitive += (re[..., j] * sin + im[..., j] * (cos - 1.0)) / w
        return value, primitive

    def take(self, rows):
        """The stack of rows ``rows`` of a stack."""
        return TrigPoly1D(self.const[rows], self.freqs, self.amps[rows],
                          self.phases[rows])

    def scaled(self, factor):
        """Multiply by ``factor``: a scalar, or one factor per row."""
        factor = np.asarray(factor, float)
        return TrigPoly1D(self.const * factor, self.freqs,
                          self.amps * factor[..., None], self.phases)

    def normalized(self):
        """Rescale so the mean (= const) is exactly 1, row by row."""
        if not np.all(self.const > 0.0):
            raise ValueError("cannot normalize: mean is not positive")
        return self.scaled(1.0 / self.const)


@dataclass(frozen=True)
class TrigPoly2D:
    """const + sum_j amps[j] * cos(2*pi*(k1[j]*x1 + k2[j]*x2) + phases[j])."""

    const: float
    k1: np.ndarray
    k2: np.ndarray
    amps: np.ndarray
    phases: np.ndarray

    @staticmethod
    def from_modes(modes, const=1.0):
        """Build from an iterable of (k1, k2, amplitude, phase); the (0, 0)
        mode folds into the constant."""
        c = float(const)
        k1s, k2s, amps, phases = [], [], [], []
        for k1, k2, a, p in modes:
            k1, k2 = int(k1), int(k2)
            if k1 == 0 and k2 == 0:
                c += a * np.cos(p)
            else:
                k1s.append(k1), k2s.append(k2)
                amps.append(float(a)), phases.append(float(p))
        return TrigPoly2D(c, np.asarray(k1s, dtype=int), np.asarray(k2s, dtype=int),
                          np.asarray(amps, float), np.asarray(phases, float))

    def __call__(self, x1, x2):
        """Value at (x1, x2), used as given: callers pass arguments reduced
        mod 1 (``frac``), and no mode reduces them again."""
        x1 = np.asarray(x1, float)
        x2 = np.asarray(x2, float)
        out = np.full(np.broadcast(x1, x2).shape, self.const)
        for k1, k2, a, p in zip(self.k1, self.k2, self.amps, self.phases):
            out += a * np.cos(TWO_PI * (k1 * x1 + k2 * x2) + p)
        return out

    def scaled(self, factor):
        return TrigPoly2D(self.const * factor, self.k1, self.k2,
                          self.amps * factor, self.phases)

    def normalized(self):
        if not self.const > 0.0:
            raise ValueError("cannot normalize: mean is not positive")
        return self.scaled(1.0 / self.const)

    def marginal_x2(self):
        """Integrate the second variable out; a polynomial in x1."""
        keep = self.k2 == 0
        modes = zip(self.k1[keep], self.amps[keep], self.phases[keep])
        return TrigPoly1D.from_modes(modes, const=self.const)

    def slice_x1(self, x1):
        """The 1-variable polynomials x2 -> self(x1, x2) at fixed real x1.

        A scalar x1 gives one TrigPoly1D; an array of x1 values gives the
        stack with one row per value.  Modes of equal |k2| merge into one,
        so a fiber carries one mode per distinct |k2| (none when every
        mode has k2 = 0).
        """
        x1 = np.asarray(x1, float)
        shifted = TWO_PI * frac(np.multiply.outer(x1, self.k1)) + self.phases
        flat = self.k2 == 0          # modes constant along the fiber
        const = self.const + np.sum(self.amps[flat] * np.cos(shifted[..., flat]),
                                    axis=-1)
        k2, phases = self.k2[~flat], shifted[..., ~flat]
        amps = np.broadcast_to(self.amps[~flat], phases.shape).copy()
        return _one_mode_per_freq(const, np.abs(k2), amps, np.sign(k2) * phases)

    def fourier_coefficient(self, k1, k2):
        """int exp(-2i*pi*(k1*x1 + k2*x2)) * self(x) dx, exactly."""
        out = complex(self.const) if (k1 == 0 and k2 == 0) else 0.0j
        for m1, m2, a, p in zip(self.k1, self.k2, self.amps, self.phases):
            if (k1, k2) == (m1, m2):
                out += 0.5 * a * np.exp(1j * p)
            if (k1, k2) == (-m1, -m2):
                out += 0.5 * a * np.exp(-1j * p)
        return out

    def min_on_grid(self, n1, n2):
        """Minimum over the nodes (i/n1, j/n2).

        Each mode splits as cos(a + b) = cos a cos b - sin a sin b with a
        in x1 (phase included) and b in x2, so the whole grid is one
        matrix product of (n1, 2 modes) and (2 modes, n2) factors.
        """
        x1 = np.arange(n1) / n1
        x2 = np.arange(n2) / n2
        a = TWO_PI * frac(np.multiply.outer(x1, self.k1)) + self.phases
        b = TWO_PI * frac(np.multiply.outer(x2, self.k2))
        left = np.hstack([self.amps * np.cos(a), -self.amps * np.sin(a)])
        right = np.hstack([np.cos(b), np.sin(b)])
        return float(self.const + np.min(left @ right.T))

    def floor(self, m1, m2):
        """A lower bound of the polynomial everywhere, not only at nodes:
        the larger of const - sum |a| and the minimum over the m1 x m2
        nodes less the most the sum can dip between them, the bilinear
        interpolation bound sum over axes and modes of (2 pi k_i/m_i)^2 |a|/8."""
        amps = np.abs(self.amps)
        dip = np.sum(((TWO_PI * self.k1 / m1) ** 2 + (TWO_PI * self.k2 / m2) ** 2)
                     * amps) / 8.0
        return max(float(self.const - np.sum(amps)),
                   self.min_on_grid(m1, m2) - float(dip))
