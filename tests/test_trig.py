"""Trigonometric polynomials against independent oracles.

Every expected value is a per-mode cosine sum written out here, and every
expected primitive is Gauss-Legendre quadrature of that sum; nothing is
compared with the class's own evaluation.
"""

import numpy as np
import pytest

from tot.transport1d import CircleMap
from tot.trig import TrigPoly1D, TrigPoly2D

MODES_1D = [(1, 0.2, 0.3), (-1, 0.1, 0.5), (3, 0.15, -1.2), (1, 0.05, 2.0)]
# k2 = 1, -1 and 2 collide in |k2| = 1 on every fiber; (1, 0) lies along x1
MODES_2D = [(1, 1, 0.2, 0.3), (2, -1, 0.15, -0.7), (0, 2, 0.1, 1.1),
            (1, 0, 0.05, 0.4), (-1, 1, 0.08, 0.9)]


def sum_1d(modes, x, const=1.0):
    return np.full(np.shape(x), const) + sum(
        a * np.cos(2 * np.pi * k * x + p) for k, a, p in modes)


def sum_2d(modes, x1, x2, const=1.0):
    return np.full(np.broadcast(x1, x2).shape, const) + sum(
        a * np.cos(2 * np.pi * (k1 * x1 + k2 * x2) + p) for k1, k2, a, p in modes)


def quadrature(fn, x, nodes=64):
    """int_0^x fn for every entry of x, Gauss-Legendre on [0, x]."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    x = np.asarray(x, float)[..., None]
    return np.sum(fn(0.5 * x * (t + 1.0)) * (0.5 * x * w), axis=-1)


POINTS = np.array([-2.7, -1.0, -0.3, -1e-17, 0.0, 0.25, 0.999, 1.0, 1.6, 3.3])


def test_from_modes_merges_equal_frequencies():
    poly = TrigPoly1D.from_modes(MODES_1D, const=1.1)
    assert list(poly.freqs) == [1, 3]
    value, primitive = poly.value_and_primitive(POINTS)
    expected = sum_1d(MODES_1D, POINTS, 1.1)
    assert np.max(np.abs(poly(POINTS) - expected)) < 1e-14
    assert np.max(np.abs(value - expected)) < 1e-14
    oracle = quadrature(lambda t: sum_1d(MODES_1D, t, 1.1), POINTS)
    assert np.max(np.abs(primitive - oracle)) < 1e-13
    assert np.max(np.abs(poly.antiderivative(POINTS) - oracle)) < 1e-13


def test_primitive_gains_the_mean_over_each_period():
    poly = TrigPoly1D.from_modes(MODES_1D, const=1.1)
    x = np.linspace(-3.0, 3.0, 61)
    step = poly.antiderivative(x + 1.0) - poly.antiderivative(x)
    assert np.max(np.abs(step - 1.1)) < 1e-14
    assert np.max(np.abs(poly(x + 1.0) - poly(x))) < 1e-14


def test_slice_merges_colliding_fiber_modes():
    poly = TrigPoly2D.from_modes(MODES_2D)
    x1 = np.array([0.0, 0.13, 0.5, 0.91, -0.4, 1.7])
    stack = poly.slice_x1(x1)
    assert list(stack.freqs) == [1, 2]
    assert stack.amps.shape == stack.phases.shape == (6, 2)
    x2 = np.concatenate([POINTS, np.arange(16) / 16])
    expected = sum_2d(MODES_2D, x1[:, None], x2)
    assert np.max(np.abs(stack(x2) - expected)) < 1e-14
    value, primitive = stack.value_and_primitive(np.broadcast_to(x2, expected.shape))
    assert np.max(np.abs(value - expected)) < 1e-14
    for i, a in enumerate(x1):
        oracle = quadrature(lambda t: sum_2d(MODES_2D, a, t), x2)
        assert np.max(np.abs(primitive[i] - oracle)) < 1e-13
        single = poly.slice_x1(a)
        assert np.max(np.abs(single(x2) - expected[i])) < 1e-14


def test_rows_evaluate_each_point_on_its_own_row():
    x1 = np.array([0.1, 0.6, 0.35])
    stack = TrigPoly2D.from_modes(MODES_2D).slice_x1(x1)
    rows = np.array([2, 0, 0, 1, 2, 1])
    x = np.array([0.7, -0.2, 0.05, 1.4, 0.0, 0.99])
    taken = stack.take(rows)
    assert np.max(np.abs(taken(x[:, None])[:, 0] - sum_2d(MODES_2D, x1[rows], x))) < 1e-14


def test_stack_on_shared_nodes_equals_each_row_alone():
    # a stack evaluated on (m,) points shared by its rows takes its cosines
    # and sines on the m points; each row is its own cosine sum
    rng = np.random.default_rng(22)
    freqs = np.array([1, 2, 4])
    const = rng.uniform(0.8, 1.2, 5)
    amps = rng.uniform(0.0, 0.1, (5, 3))
    phases = rng.uniform(-np.pi, np.pi, (5, 3))
    stack = TrigPoly1D(const, freqs, amps, phases)
    nodes = np.arange(48) / 48
    values = stack(nodes)
    assert values.shape == (5, 48)
    for row in range(5):
        modes = zip(freqs, amps[row], phases[row])
        assert np.max(np.abs(values[row] - sum_1d(modes, nodes, const[row]))) < 1e-15
    assert np.array_equal(values, stack(np.broadcast_to(nodes, (5, 48))))


@pytest.mark.parametrize("modes", [[], [(1, 0, 0.3, 0.2), (2, 0, 0.1, 0.0)]])
def test_fibers_without_x2_modes_are_constant(modes):
    poly = TrigPoly2D.from_modes(modes)
    x1 = np.array([0.0, 0.3, 0.8])
    stack = poly.slice_x1(x1)
    assert stack.freqs.size == 0 and stack.amps.shape == (3, 0)
    row_value = sum_2d(modes, x1, 0.0)
    points = np.broadcast_to(POINTS, (3, POINTS.size))
    value, primitive = stack.value_and_primitive(points)
    assert np.max(np.abs(value - row_value[:, None])) < 1e-15
    assert np.max(np.abs(primitive - row_value[:, None] * POINTS)) < 1e-15
    single = poly.slice_x1(0.3)
    assert np.max(np.abs(single(POINTS) - row_value[1])) < 1e-15


def test_2d_evaluation_matches_the_mode_sum():
    poly = TrigPoly2D.from_modes(MODES_2D)
    rng = np.random.default_rng(5)
    x1, x2 = rng.uniform(0.0, 1.0, (2, 50))
    assert np.max(np.abs(poly(x1, x2) - sum_2d(MODES_2D, x1, x2))) < 1e-14


@pytest.mark.parametrize("K", [1, 2, 3])
def test_fourier_table_matches_fft2_of_samples(K):
    # (1, 1) twice and (-2, 1) against (2, -1): modes that share a
    # coefficient; K = 1 leaves (2, -1), (-2, 1) and (0, 2) outside the table
    modes = MODES_2D + [(1, 1, 0.04, -0.6), (-2, 1, 0.07, 0.2)]
    n = 16                          # > 2K + 1 and > K + 2: no aliasing
    x = np.arange(n) / n
    samples = sum_2d(modes, x[:, None], x[None, :], const=1.3)
    spectrum = np.fft.fft2(samples) / n ** 2
    expected = spectrum[np.arange(K + 1)[:, None], np.arange(-K, K + 1)]
    table = TrigPoly2D.from_modes(modes, const=1.3).fourier_table(K)
    assert table.shape == (K + 1, 2 * K + 1)
    assert np.max(np.abs(table - expected)) < 1e-15


@pytest.mark.parametrize("m", [4, 15, 16, 256])
@pytest.mark.parametrize("rows", [None, 3])
def test_displacement_interpolant_matches_full_spectrum_sum(m, rows):
    # m = 4 takes one baby power (plain Horner), 15 and 256 pad their last
    # giant block, 16 fills it, and 256 is the fiber certificate's size
    rng = np.random.default_rng(m)
    shape = (m,) if rows is None else (rows, m)
    disp = 0.05 * rng.standard_normal(shape)          # every mode, Nyquist too
    x = rng.uniform(-1.5, 2.5, shape[:-1] + (23,))
    # the full-spectrum sum over k = -m/2 .. (m-1)/2, real part
    c = np.fft.fft(disp) / m
    k = np.fft.fftfreq(m, 1.0 / m)
    phases = np.exp(2j * np.pi * x[..., None] * k)
    direct = np.sum(phases * c[..., None, :], axis=-1).real
    tmap = CircleMap(disp)
    assert np.max(np.abs(tmap.displacement_at(x) - direct)) < 1e-14
    # a phase 2 pi k x in floating point is off by about k eps, in any
    # evaluation at a real x: on every mode of a 256-node draw that alone
    # exceeds 1e-15 at the nodes, so the bound is the larger of 1e-15 and
    # eps sum |k| |c_k|, which stays below 1e-15 for m <= 16
    model = np.finfo(float).eps * np.max(np.sum(np.abs(k * c), axis=-1))
    nodes = np.broadcast_to(np.arange(m) / m, shape)
    assert np.max(np.abs(tmap.displacement_at(nodes) - disp)) < max(1e-15, model)
    assert np.max(np.abs(tmap(x) - (x - direct))) < 1e-14
