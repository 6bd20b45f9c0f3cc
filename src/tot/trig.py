"""Closed-form trigonometric polynomials on the 1- and 2-torus.

Densities in this package are finite cosine sums, which keeps every
composition, marginal, conditional and primitive exactly evaluable.
Arguments are reduced modulo 1 before the trigonometric call so that
periodicity holds to the last bit even for large frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def _cos(frac, phase):
    return np.cos(TWO_PI * frac + phase)


@dataclass(frozen=True)
class TrigPoly1D:
    """const + sum_j amps[j] * cos(2*pi*freqs[j]*x + phases[j]), freqs >= 1.

    A stack of polynomials sharing ``freqs`` has ``const`` of shape (rows,)
    and ``amps``/``phases`` of shape (rows, modes); it evaluates on
    (rows, m) arrays (or on (m,) points shared by every row), one pass per
    mode.
    """

    const: float
    freqs: np.ndarray
    amps: np.ndarray
    phases: np.ndarray

    @staticmethod
    def from_modes(modes, const=1.0):
        """Build from an iterable of (freq, amplitude, phase); freq 0 folds
        into the constant."""
        c = float(const)
        ks, amps, phases = [], [], []
        for k, a, p in modes:
            k = int(k)
            if k == 0:
                c += a * np.cos(p)
            elif k > 0:
                ks.append(k), amps.append(float(a)), phases.append(float(p))
            else:
                ks.append(-k), amps.append(float(a)), phases.append(-float(p))
        return TrigPoly1D(c, np.asarray(ks, dtype=int),
                          np.asarray(amps, float), np.asarray(phases, float))

    @property
    def _stacked(self):
        return np.ndim(self.const) > 0

    def _modes(self):
        # (freq, amplitude, phase) per mode; a stack's amplitudes and phases
        # become (rows, 1) columns against its (rows, m) points
        amps, phases = self.amps, self.phases
        if self._stacked:
            amps, phases = amps[:, None, :], phases[:, None, :]
        for j, k in enumerate(self.freqs):
            yield k, amps[..., j], phases[..., j]

    def _const(self):
        return self.const[:, None] if self._stacked else self.const

    def __call__(self, x):
        x = np.asarray(x, float)
        out = self._const() + np.zeros(x.shape)
        for k, a, p in self._modes():
            out += a * _cos(np.mod(k * x, 1.0), p)
        return out

    def antiderivative(self, x):
        """Exact primitive from 0: int_0^x of the polynomial."""
        x = np.asarray(x, float)
        out = self._const() * x
        for k, a, p in self._modes():
            w = TWO_PI * k
            out += (a / w) * (np.sin(TWO_PI * np.mod(k * x, 1.0) + p) - np.sin(p))
        return out

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

    def min_value(self, oversample=16):
        """Lower estimate of the minimum from a dense sample."""
        kmax = int(self.freqs.max()) if self.freqs.size else 1
        n = max(64, oversample * 4 * kmax)
        return float(np.min(self(np.arange(n) / n)))


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

    @property
    def mass(self):
        """Integral over the torus."""
        return self.const

    def __call__(self, x1, x2):
        x1 = np.asarray(x1, float)
        x2 = np.asarray(x2, float)
        out = np.full(np.broadcast(x1, x2).shape, self.const)
        for k1, k2, a, p in zip(self.k1, self.k2, self.amps, self.phases):
            out += a * _cos(np.mod(k1 * x1 + k2 * x2, 1.0), p)
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

    def marginal_x1(self):
        """Integrate the first variable out; a polynomial in x2."""
        keep = self.k1 == 0
        modes = zip(self.k2[keep], self.amps[keep], self.phases[keep])
        return TrigPoly1D.from_modes(modes, const=self.const)

    def slice_x1(self, x1):
        """The 1-variable polynomials x2 -> self(x1, x2) at fixed real x1.

        A scalar x1 gives one TrigPoly1D; an array of x1 values gives the
        stack with one row per value, modes in the order of ``self``.
        """
        x1 = np.asarray(x1, float)
        shifted = TWO_PI * np.mod(np.multiply.outer(x1, self.k1), 1.0) + self.phases
        flat = self.k2 == 0          # modes constant along the fiber
        const = self.const + np.sum(self.amps[flat] * np.cos(shifted[..., flat]),
                                    axis=-1)
        k2, phases = self.k2[~flat], shifted[..., ~flat]
        amps = np.broadcast_to(self.amps[~flat], phases.shape).copy()
        return TrigPoly1D(const, np.abs(k2), amps, np.sign(k2) * phases)

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
        a = TWO_PI * np.mod(np.multiply.outer(x1, self.k1), 1.0) + self.phases
        b = TWO_PI * np.mod(np.multiply.outer(x2, self.k2), 1.0)
        left = np.hstack([self.amps * np.cos(a), -self.amps * np.sin(a)])
        right = np.hstack([np.cos(b), np.sin(b)])
        return float(self.const + np.min(left @ right.T))
