import numpy as np
import pytest

import tot
from tot.errors import CutLocusError, PositivityError
from tot.grid import deriv_values
from tot.transport1d import (_check_map, _safeguarded_newton,
                             invert_lifted_cdf, transport_cost)
from tot.trig import TrigPoly1D, TrigPoly2D


def uniform(m=256):
    return tot.circle_density(closed_form=TrigPoly1D.from_modes([]), m=m)


def trig_density(modes, m=256):
    return tot.circle_density(closed_form=TrigPoly1D.from_modes(modes), m=m)


# ---------------------------------------------------------------------------
# the 2^14-point cumulative-sum/inversion oracle

ORACLE_N = 2 ** 14


def oracle_cdf_table(density_eval):
    """Richardson-refined trapezoid cumulative sums on 2^14 intervals."""
    x = np.arange(ORACLE_N + 1) / ORACLE_N
    vals = density_eval(x)
    full = np.concatenate([[0.0],
                           np.cumsum((vals[1:] + vals[:-1]) / (2 * ORACLE_N))])
    vals_h = vals[::2]
    half = np.concatenate([[0.0], np.cumsum((vals_h[1:] + vals_h[:-1]) / ORACLE_N)])
    refined = full.copy()
    refined[::2] = (4.0 * full[::2] - half) / 3.0
    corr = refined[::2] - full[::2]
    refined[1::2] = full[1::2] + 0.5 * (corr[:-1] + corr[1:])
    return x, refined / refined[-1]


def oracle_map(f_eval, g_eval, m):
    """Monotone zero-mean-displacement map from fine-grid CDF inversion."""
    xf, F = oracle_cdf_table(f_eval)
    yf, G = oracle_cdf_table(g_eval)
    nodes = np.arange(m) / m
    s = np.interp(nodes, xf, F)
    g_ext = np.concatenate([G[:-1] - 1.0, G, G[1:] + 1.0])
    y_ext = np.concatenate([yf[:-1] - 1.0, yf, yf[1:] + 1.0])

    def mean_disp(theta):
        return float(np.mean(nodes - np.interp(s + theta, g_ext, y_ext)))

    lo, hi = -0.5, 0.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mean_disp(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return nodes - np.interp(s + theta, g_ext, y_ext)


# ---------------------------------------------------------------------------
# cdf

def test_cdf_uniform_is_identity():
    x = np.linspace(0.0, 1.0, 17)
    assert np.max(np.abs(uniform().closed_form.antiderivative(x) - x)) < 1e-15


def test_cdf_closed_form_value():
    d = trig_density([(1, 0.2, 0.0)])
    cdf = d.closed_form.antiderivative
    assert abs(cdf(np.array([0.25]))[0] - (0.25 + 0.1 / np.pi)) < 1e-15
    assert abs(cdf(np.array([0.0]))[0]) < 1e-15
    assert abs(cdf(np.array([1.0]))[0] - 1.0) < 1e-13


def test_inversion_keeps_exact_integer_levels():
    # the root of every integer level sits on its bracket end, x = 0; a
    # converged point must stay there while the others iterate
    g = trig_density([(1, 0.25, -0.4), (3, 0.1, 0.0)])
    y = invert_lifted_cdf(g, np.array([0.0, 0.3, 1.0, 2.0]))
    assert y[0] == 0.0 and y[2] == 1.0 and y[3] == 2.0
    assert abs(g.closed_form.antiderivative(y[1]) - 0.3) <= 1e-14


def test_stacked_inversion_keeps_exact_integer_levels():
    rows = TrigPoly2D.from_modes([(0, 1, 0.2, 0.4), (1, -1, 0.15, 1.1),
                                  (1, 1, 0.1, -0.3)]).slice_x1(np.array([0.1, 0.7]))
    g = tot.circle_density(closed_form=rows.normalized(), m=32)
    w = np.array([[0.0, 0.4, 3.0, -1.0], [0.9, -2.0, 0.25, 1.0]])
    y = invert_lifted_cdf(g, w)
    exact = w == np.round(w)
    assert np.array_equal(y[exact], w[exact])
    glift = np.floor(y) + g.closed_form.antiderivative(y - np.floor(y))
    assert np.max(np.abs(glift - w)) <= 1e-14


def test_inversion_returns_the_density_at_the_inverse():
    g = trig_density([(1, 0.25, -0.4), (3, 0.1, 0.0)])
    w = np.array([0.0, 0.3, 1.7, -0.45])
    y, density = invert_lifted_cdf(g, w, with_density=True)
    assert np.array_equal(y, invert_lifted_cdf(g, w))
    assert np.max(np.abs(density - g.closed_form(y))) <= 1e-14
    rows = TrigPoly2D.from_modes([(0, 1, 0.2, 0.4), (1, -1, 0.15, 1.1),
                                  (1, 1, 0.1, -0.3)]).slice_x1(np.array([0.1, 0.7]))
    stack = tot.circle_density(closed_form=rows.normalized(), m=32)
    w = np.array([[0.0, 0.4, 3.0, -1.0], [0.9, -2.0, 0.25, 1.0]])
    y, density = invert_lifted_cdf(stack, w, with_density=True)
    assert density.shape == w.shape
    for row in range(2):
        one = tot.circle_density(closed_form=stack.closed_form.take(row), m=32)
        assert np.max(np.abs(density[row] - one.closed_form(y[row]))) <= 1e-14


def test_newton_evaluates_only_active_entries():
    # rows of increasing functions y + a sin(2 pi y) / (2 pi), a in [0, 0.9):
    # the larger a, the more steps an entry needs; every 5th entry starts
    # at its root
    rows, m, tol = 6, 40, 1e-14
    rng = np.random.default_rng(4)
    amp = np.repeat(np.linspace(0.0, 0.9, rows, endpoint=False), m)
    y0 = rng.uniform(0.0, 1.0, rows * m)
    target = rng.uniform(0.0, 1.0, rows * m)
    target[::5] = y0[::5] + amp[::5] * np.sin(2 * np.pi * y0[::5]) / (2 * np.pi)
    log = []

    def residual(y, at):
        return y + amp[at] * np.sin(2 * np.pi * y) / (2 * np.pi) - target[at]

    def evaluate(y, at):
        at = np.arange(rows * m) if at is None else at
        log.append((at.copy(), y.copy()))
        return residual(y, at), 1.0 + amp[at] * np.cos(2 * np.pi * y)

    y = y0.copy()
    _safeguarded_newton(evaluate, y, np.zeros(rows * m), np.ones(rows * m),
                        tol, 100, "test")
    final_at = np.full(rows * m, -1)
    for step, (at, values) in enumerate(log):
        assert np.all(final_at[at] == -1)      # a final entry is never evaluated
        converged = np.abs(residual(values, at)) <= tol
        final_at[at[converged]] = step
        assert np.array_equal(y[at[converged]], values[converged])
    assert np.all(final_at >= 0)
    assert np.all(final_at[::5] == 0) and np.array_equal(y[::5], y0[::5])
    iterations = len(log) - 1
    evaluated = sum(len(at) for at, _ in log[1:])
    assert evaluated < rows * m * iterations


def test_cdf_rejects_nonpositive():
    with pytest.raises(PositivityError):
        tot.circle_density(TrigPoly1D.from_modes([(1, 2.0, 0.0)]), 64)


# ---------------------------------------------------------------------------
# monotone map

def test_identity_when_densities_equal():
    d = trig_density([(1, 0.3, 0.7)])
    tm = tot.monotone_circle_map(d, d)
    assert np.max(np.abs(tm.displacement)) < 1e-12


def test_uniform_to_cosine_against_scalar_bisection():
    f = uniform()
    g = trig_density([(1, 0.2, 0.0)])
    tm = tot.monotone_circle_map(f, g)
    # theta* = 0 by even symmetry, so T(0.25) solves T + (0.1/pi) sin(2 pi T) = 0.25
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid + 0.1 / np.pi * np.sin(2 * np.pi * mid) < 0.25:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    i = tm.m // 4
    assert abs(tm.map_values()[i] - root) < 1e-12
    # psi'(0) = 0 by the same symmetry
    assert abs(tm.displacement[0]) < 1e-12


def test_shift_scan_never_beats_selected_shift():
    f = trig_density([(1, 0.3, 0.2), (2, 0.15, 1.0)])
    g = trig_density([(1, 0.25, -0.4), (3, 0.1, 0.0)])
    tm = tot.monotone_circle_map(f, g)
    x = tm.nodes()
    s = f.closed_form.antiderivative(x)
    best = transport_cost(f, g, tm.displacement)
    y = x - tm.displacement
    for theta in np.arange(-0.3, 0.3 + 1e-9, 1e-3):
        y = invert_lifted_cdf(g, s + theta, x0=y)
        assert best <= transport_cost(f, g, x - y) + 1e-8


def test_map_monotone_and_zero_mean():
    f = trig_density([(1, 0.3, 0.2), (2, 0.15, 1.0)])
    g = trig_density([(1, 0.25, -0.4), (3, 0.1, 0.0)])
    tm = tot.monotone_circle_map(f, g)
    values = tm.map_values()
    assert np.min(np.diff(np.append(values, values[0] + 1.0))) > 0.0
    assert abs(np.mean(tm.displacement)) <= 1e-12
    assert np.max(np.abs(tm.displacement)) < 0.5


def test_pushforward_quantile_property():
    f = trig_density([(1, 0.3, 0.2), (2, 0.15, 1.0)])
    g = trig_density([(1, 0.25, -0.4), (3, 0.1, 0.0)])
    tm = tot.monotone_circle_map(f, g)
    assert tot.pushforward_quantile_error(f, g, tm) < 1e-10


def test_map_matches_fine_grid_oracle():
    f_poly = TrigPoly1D.from_modes([(1, 0.3, 0.2), (2, 0.15, 1.0)])
    g_poly = TrigPoly1D.from_modes([(1, 0.25, -0.4), (3, 0.1, 0.0)])
    m = 256
    f = tot.circle_density(closed_form=f_poly, m=m)
    g = tot.circle_density(closed_form=g_poly, m=m)
    tm = tot.monotone_circle_map(f, g)
    disp = oracle_map(f_poly.normalized(), g_poly.normalized(), m)
    assert np.max(np.abs(tm.displacement - disp)) < 1e-8


def test_cut_locus_violation_raises():
    with pytest.raises(CutLocusError, match="cut-locus violation"):
        _check_map(np.full(64, 0.6), 64)


# ---------------------------------------------------------------------------
# potential

def test_potential_zero_for_equal_densities():
    d = trig_density([(1, 0.3, 0.7)])
    psi = tot.potential_1d(d, d)
    assert np.max(np.abs(psi)) < 1e-12


def test_potential_reconstructs_map():
    f = trig_density([(1, 0.3, 0.2), (2, 0.15, 1.0)])
    g = trig_density([(1, 0.25, -0.4), (3, 0.1, 0.0)])
    tm = tot.monotone_circle_map(f, g)
    psi = tot.potential_1d(f, g)
    assert abs(np.mean(psi)) < 1e-14
    # id - psi' equals the map: psi' reproduces the displacement
    assert np.max(np.abs(deriv_values(psi, 0, 1) - tm.displacement)) < 1e-10
    # monotonicity: 1 - psi'' > 0
    assert np.min(1.0 - deriv_values(psi, 0, 2)) > 0.0
