import numpy as np
import pytest

import tot
from tot.errors import CutLocusError, PositivityError
from tot.grid import deriv_values
from tot.transport1d import _check_map, invert_lifted_cdf, transport_cost
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


def test_newton_evaluates_only_active_rows(monkeypatch):
    # rows 1 + a cos(2 pi y + p), a in [0, 0.9): the larger a, the more
    # steps a row needs; rows that have converged keep their values and,
    # once they are half of the rows evaluated, are not evaluated again
    rows, m = 6, 40
    rng = np.random.default_rng(4)
    amps = np.linspace(0.0, 0.9, rows, endpoint=False)[:, None]
    poly = TrigPoly1D(np.ones(rows), np.array([1]), amps,
                      rng.uniform(0.0, 2 * np.pi, (rows, 1)))
    g = tot.circle_density(closed_form=poly, m=m)
    w = rng.uniform(-1.0, 2.0, (rows, m))
    evaluated = []
    value_and_primitive = TrigPoly1D.value_and_primitive

    def logged(self, x):
        evaluated.append(set(self.amps[:, 0]))
        return value_and_primitive(self, x)

    monkeypatch.setattr(TrigPoly1D, "value_and_primitive", logged)
    y = invert_lifted_cdf(g, w)
    monkeypatch.undo()
    for before, after in zip(evaluated, evaluated[1:]):
        assert after <= before
    assert len(evaluated[-1]) < rows
    assert sum(map(len, evaluated)) < rows * len(evaluated)
    glift = np.floor(y) + g.closed_form.antiderivative(y - np.floor(y))
    assert np.max(np.abs(glift - w)) <= 1e-14


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
    best = transport_cost(f, tm.displacement)
    y = x - tm.displacement
    for theta in np.arange(-0.3, 0.3 + 1e-9, 1e-3):
        y = invert_lifted_cdf(g, s + theta, x0=y)
        assert best <= transport_cost(f, x - y) + 1e-8


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


def test_shift_is_exact_where_the_nodes_miss_the_density_maximum():
    # 1 + a cos(2 pi (m/2) x + p) peaks at 1 + a between its m nodes but
    # reads at most 1 + a |cos p| on them: a shift bracket from the node
    # maximum can miss the shift that centres the displacement
    rng = np.random.default_rng(3)
    for m in (8, 32):
        f, g = (tot.circle_density(closed_form=TrigPoly1D(
            np.ones(100), np.array([m // 2]), rng.uniform(0.5, 0.95, (100, 1)),
            rng.uniform(0.0, 2 * np.pi, (100, 1))), m=m) for _ in range(2))
        tm = tot.monotone_circle_map(f, g)
        assert np.max(np.abs(np.mean(tm.displacement, axis=-1))) <= 1e-12


def test_map_rejects_a_density_negative_between_its_nodes():
    # g's node minimum is 0.18 and its true minimum -0.11: circle_density
    # refuses it, so no map, inversion or certificate is handed it
    g_poly = TrigPoly1D.from_modes([(2, 1.107, -2.41)])
    assert np.min(g_poly(np.arange(8) / 8)) > 0.0
    with pytest.raises(PositivityError, match="not positive"):
        tot.circle_density(g_poly, 8)


def test_circle_density_keeps_its_floor(monkeypatch):
    # rows: const - sum|a| > 0, a trough that needs the node scan, and a
    # mode aliased onto the mean of 8 nodes, which keeps its closed form
    poly = TrigPoly1D(np.ones(3), np.array([2, 4, 8]),
                      np.array([[0.3, 0.2, 0.0], [0.6, 0.6, 0.0],
                                [0.0, 0.0, 0.5]]),
                      np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                                [0.0, 0.0, 0.0]]))
    d = tot.circle_density(poly, 8)
    x = np.arange(4096) / 4096
    assert np.all(d.floor > 0.0)
    assert np.all(d.floor <= np.min(d.closed_form(x), axis=-1))
    assert np.allclose(d.floor[[0, 2]], [0.5, 0.5], rtol=1e-14)
    assert np.array_equal(d.closed_form.const, np.ones(3))
    assert np.array_equal(d.closed_form.amps, poly.amps)
    g = tot.circle_density(TrigPoly1D(np.ones(3), np.array([1]),
                                      np.full((3, 1), 0.2),
                                      np.full((3, 1), 0.3)), 8)
    # the map reads the floor of its densities and derives none again
    monkeypatch.setattr(tot.transport1d, "_density_floor", None)
    tm = tot.monotone_circle_map(d, g)
    assert np.max(np.abs(np.mean(tm.displacement, axis=-1))) <= 1e-12


def test_a_mode_aliased_onto_the_node_mean_keeps_unit_mass():
    # 1 + 0.3 cos 16 pi x reads 1.3 at each of its 8 nodes.  Rescaled to
    # unit mass on the nodes, its mass over a period would be 1/1.3, the
    # lifted cdf would not step by 1, and the map's inversions would not
    # converge; kept as it is, it is a mode the nodes do not resolve, which
    # the map's own certificate sees (1.2e-2)
    g = trig_density([(8, 0.3, 0.0)], m=8)
    f = trig_density([(1, 0.2, 0.5)], m=8)
    assert np.max(np.abs(g.values - 1.3)) <= 1e-15
    cdf = g.closed_form.antiderivative
    y = np.linspace(-0.7, 0.9, 13)
    assert np.max(np.abs(cdf(y + 1.0) - cdf(y) - 1.0)) <= 1e-15
    tm = tot.monotone_circle_map(f, g)
    assert abs(np.mean(tm.displacement)) <= 1e-12
    assert 1e-3 < tot.pushforward_quantile_error(f, g, tm) < 0.05


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
