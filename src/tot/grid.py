"""Periodic grids and spectral calculus on the unit 2-torus.

Fields live on uniform n1 x n2 grids with nodes (i/n1, j/n2); the first
array index runs along x1 (row-major storage, x1 is the slow index).
Differentiation acts on the trigonometric interpolant through one table
of real-FFT symbols per size (:func:`symbols`): first derivatives zero the
Nyquist mode (odd symbol), second derivatives keep it with symbol
-(pi*n)^2, and primitives drop the mean and Nyquist modes.  This module is
the only place that knows the convention: the solver modules take their
derivatives from :func:`deriv_values` along one axis or from
:func:`derivative_bundle`, which returns all first and second derivatives
of a 2D array from one forward transform, and ``linearized`` builds its
operator kernels from the same table.  :func:`resample_values` moves a
1D or 2D field between grids of different sizes in the same convention.

All operations are pure: input fields are never mutated, so values may be
shared read-only across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import GridSizeError
from .trig import TrigPoly2D

MIN_SIZE = 8


@dataclass(frozen=True)
class PeriodicGrid:
    n1: int
    n2: int

    @property
    def h1(self):
        return 1.0 / self.n1

    @property
    def h2(self):
        return 1.0 / self.n2

    @property
    def shape(self):
        return (self.n1, self.n2)

    def nodes1(self):
        return np.arange(self.n1) / self.n1

    def nodes2(self):
        return np.arange(self.n2) / self.n2

    def mesh(self):
        """Node coordinates as broadcastable (n1, 1) and (1, n2) arrays."""
        return self.nodes1()[:, None], self.nodes2()[None, :]


def build_grid(n1, n2):
    """Validate sizes and build a periodic grid with nodes (i/n1, j/n2)."""
    n1, n2 = int(n1), int(n2)
    for n in (n1, n2):
        if n < MIN_SIZE or n % 2 != 0:
            raise GridSizeError(
                f"grid size must be even and >= {MIN_SIZE} (got n1={n1}, n2={n2})")
    return PeriodicGrid(n1, n2)


@dataclass
class ScalarField:
    """Real grid function on the torus.

    ``zero_mean`` marks fields normalized to zero average; ``closed_form``
    carries an exact trigonometric definition when one exists (densities),
    from which the Knothe construction takes exact marginals and
    conditionals.
    """

    grid: PeriodicGrid
    values: np.ndarray
    zero_mean: bool = False
    closed_form: TrigPoly2D | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}")


@dataclass
class VectorField:
    v1: ScalarField
    v2: ScalarField

    def __post_init__(self):
        if self.v1.grid != self.v2.grid:
            raise ValueError("component grids differ")

    @property
    def grid(self):
        return self.v1.grid


def field(grid, values, zero_mean=False, closed_form=None):
    return ScalarField(grid, values, zero_mean=zero_mean, closed_form=closed_form)


def zero_field(grid):
    return ScalarField(grid, np.zeros(grid.shape), zero_mean=True)


# ---------------------------------------------------------------------------
# array-level spectral kernels (shared by the solver modules)

def wavenumbers(n):
    """Signed integer wavenumbers [0, 1, ..., n/2-1, -n/2, ..., -1]."""
    return np.fft.fftfreq(n, d=1.0 / n)


class Symbols(NamedTuple):
    d1: np.ndarray
    d2: np.ndarray
    primitive: np.ndarray


@lru_cache(maxsize=None)
def symbols(n, half=True):
    """Fourier symbols of d/dx, d^2/dx^2 and the zero-mean primitive on n
    nodes, over the rfft half spectrum k = 0..n/2 (read-only arrays).

    The first derivative 2i pi k zeroes the Nyquist mode k = n/2 (an odd
    symbol there would make the output complex); the second derivative
    keeps it as -(pi n)^2; the primitive 1/(2i pi k) drops the mean and
    Nyquist.  ``half=False`` unfolds the same symbols onto the full fft
    spectrum, ordered as :func:`wavenumbers`.
    """
    if half:
        k = np.arange(n // 2 + 1)
        d1 = 2j * np.pi * k
        d1[-1] = 0.0
        primitive = np.zeros_like(d1)
        primitive[1:-1] = 1.0 / d1[1:-1]
        out = Symbols(d1, -(2.0 * np.pi * k) ** 2, primitive)
    else:
        # -k mirrors k: odd symbols change sign, d2 does not
        out = Symbols(*(np.concatenate([s, sign * s[-2:0:-1]])
                        for s, sign in zip(symbols(n), (-1, 1, -1))))
    for s in out:
        s.setflags(write=False)
    return out


def _rfft_multiply(values, symbol, axis):
    shape = [1] * values.ndim
    shape[axis] = len(symbol)
    spec = np.fft.rfft(values, axis=axis) * symbol.reshape(shape)
    return np.fft.irfft(spec, values.shape[axis], axis=axis)


def deriv_values(values, axis, order=1):
    """Spectral derivative of a grid array along numpy axis 0 (x1) or 1 (x2);
    also works on 1D arrays with axis=0."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    table = symbols(values.shape[axis])
    return _rfft_multiply(values, table.d1 if order == 1 else table.d2, axis)


def antideriv_values(values, axis):
    """Zero-mean spectral primitive along an axis.  The input must have zero
    mean along that axis (its mean mode is discarded)."""
    return _rfft_multiply(values, symbols(values.shape[axis]).primitive, axis)


def derivative_bundle(values):
    """(d1, d2, d11, d12, d22) of a 2D grid array from one rfft2."""
    n1, n2 = values.shape
    s1, s2 = symbols(n1, half=False), symbols(n2)
    spec = np.fft.rfft2(values)
    return tuple(np.fft.irfft2(spec * symbol, values.shape) for symbol in (
        s1.d1[:, None], s2.d1, s1.d2[:, None], s1.d1[:, None] * s2.d1, s2.d2))


def resample_values(values, shape):
    """Trigonometric interpolant of a 1D or 2D grid array sampled on a grid
    of another (even) shape: the real-FFT spectrum truncated or zero-padded
    to the modes |k| < n/2 of the smaller size along each axis, so the
    Nyquist modes of both grids are dropped, and scaled by the size ratio.
    A field without Nyquist content and with every |k| below the smaller
    grid's Nyquist comes back exactly (to rounding)."""
    if values.ndim == 1:
        (n,), (m,) = values.shape, shape
        k = min(n, m) // 2
        out = np.zeros(m // 2 + 1, complex)
        out[:k] = np.fft.rfft(values)[:k]
        return np.fft.irfft(out, m) * (m / n)
    n1, n2 = values.shape
    m1, m2 = shape
    k1, k2 = min(n1, m1) // 2, min(n2, m2) // 2
    spec = np.fft.rfft2(values)
    out = np.zeros((m1, m2 // 2 + 1), complex)
    out[:k1, :k2] = spec[:k1, :k2]
    out[1 - k1:, :k2] = spec[1 - k1:, :k2]
    return np.fft.irfft2(out, shape) * (m1 * m2 / (n1 * n2))


# ---------------------------------------------------------------------------
# public operations on fields

def spectral_derivative(f, axis, order=1):
    """Derivative of the trigonometric interpolant of ``f``.

    Parameters
    ----------
    axis : {1, 2}
        Coordinate to differentiate (x1 or x2).
    order : {1, 2}
        Derivative order.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if not np.all(np.isfinite(f.values)):
        raise ValueError("field values must be finite")
    out = deriv_values(f.values, axis - 1, order)
    return ScalarField(f.grid, out, zero_mean=(order == 1))


def integrate_mean(f):
    """Torus average of the field (exact trapezoid rule on a periodic grid)."""
    return float(np.mean(f.values))


def project_zero_mean(f):
    """Subtract the average; the result is flagged zero-mean."""
    return ScalarField(f.grid, f.values - np.mean(f.values), zero_mean=True)
