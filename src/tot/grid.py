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
1D or 2D field between grids of different sizes in the same convention,
and :func:`level_shapes` is the one rule for the coarser grids that the
Newton solvers and the Knothe fiber sweep solve on first.
Every 2D transform of the package runs through :func:`rfft2` and
:func:`irfft2`, numpy's real 2D transforms, bit for bit, as two axis
passes, or through the axis passes of :func:`derivative_bundle`.

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

# smallest side of a coarse level.  A 32^2 level takes 5 steps and leaves
# 1 for 64^2, so it costs more than it saves: cold solves of 8 benchmark
# pairs at 256^2 took 56-57 ms with it against 40-46 ms without, and of the
# standard pair at 128^2 27-29 against 20-23 ms (one thread, 2 shared cores)
COARSEST_SIDE = 64


@dataclass(frozen=True)
class PeriodicGrid:
    n1: int
    n2: int

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


def field(grid, values):
    """The values on ``grid`` as a ScalarField, without flags or a closed
    form."""
    return ScalarField(grid, values)


def zero_field(grid):
    return ScalarField(grid, np.zeros(grid.shape), zero_mean=True)


def level_shapes(shape):
    """``shape``, then each coarser level: both sides halved while they
    stay even and at least ``COARSEST_SIDE``, so a grid with a side below
    128 has no coarser level."""
    shapes = [tuple(shape)]
    while True:
        half = tuple(n // 2 for n in shapes[-1])
        if not all(n >= COARSEST_SIDE and n % 2 == 0 for n in half):
            return shapes
        shapes.append(half)


# ---------------------------------------------------------------------------
# array-level spectral kernels (shared by the solver modules)

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
    spectrum, ordered as ``np.fft.fftfreq``.
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


def rfft2(values):
    """``np.fft.rfft2`` of a 2D array, bit for bit, as its two axis passes:
    a real transform along x2, then a complex one along x1, without
    numpy's n-d wrapper, whose overhead is a large share of a transform at
    64^2."""
    return np.fft.fft(np.fft.rfft(values), axis=0)


def irfft2(spec, shape):
    """``np.fft.irfft2(spec, shape)``, bit for bit, as its two axis passes:
    a complex inverse along x1, then the real inverse along x2."""
    return np.fft.irfft(np.fft.ifft(spec, shape[0], axis=0), shape[1])


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
    """(d1, d2, d11, d12, d22) of a 2D grid array in 9 axis passes: d2 and
    d22 make no round trip along x1, and d12 reuses d1's pass along x1."""
    s1, s2 = symbols(values.shape[0], half=False), symbols(values.shape[1])
    half = np.fft.rfft(values)
    spec = np.fft.fft(half, axis=0)
    d1, d11 = (np.fft.ifft(spec * s[:, None], axis=0) for s in (s1.d1, s1.d2))
    return tuple(np.fft.irfft(h, values.shape[1]) for h in (
        d1, half * s2.d1, d11, d1 * s2.d1, half * s2.d2))


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
    spec = rfft2(values)
    out = np.zeros((m1, m2 // 2 + 1), complex)
    out[:k1, :k2] = spec[:k1, :k2]
    out[1 - k1:, :k2] = spec[1 - k1:, :k2]
    return irfft2(out, shape) * (m1 * m2 / (n1 * n2))


# ---------------------------------------------------------------------------
# public operations on fields

def project_zero_mean(f):
    """Subtract the average; the result is flagged zero-mean."""
    return ScalarField(f.grid, f.values - np.mean(f.values), zero_mean=True)
