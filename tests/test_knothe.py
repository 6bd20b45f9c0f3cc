import numpy as np
import pytest

import tot
from tot.errors import PositivityError
from tot.grid import deriv_values
from tot.trig import TrigPoly1D, TrigPoly2D

from tests.test_transport1d import oracle_map


def test_marginal_and_conditionals_uniform(grid64):
    f = tot.density_field(tot.CATALOG["uniform"], grid64)
    marginal, fiber = tot.marginal_and_conditionals(f)
    assert np.max(np.abs(marginal.values - 1.0)) < 1e-14
    assert np.max(np.abs(fiber(0.37).values - 1.0)) < 1e-14


def test_unvalidated_closed_form_is_checked_for_positivity(grid64):
    # a closed form that dips below zero, not built through a DensityPair;
    # its x1-marginal is the constant 1, so only the 2D scan can see it
    poly = TrigPoly2D.from_modes([(1, 1, 1.2, 0.3)])
    f = tot.field(grid64, poly(*grid64.mesh()), closed_form=poly)
    with pytest.raises(tot.PositivityError, match="not positive"):
        tot.marginal_and_conditionals(f)


def test_certified_pair_is_not_scanned_again(pair64, monkeypatch):
    # make_density_pair certified both closed forms on the oversampled grid
    def scan(*args):
        raise AssertionError("positivity scanned again")

    monkeypatch.setattr(TrigPoly2D, "min_on_grid", scan)
    sol = tot.knothe_solution(pair64)
    assert tot.fiber_pushforward_error(pair64, sol) < 1e-9


def test_marginal_and_conditionals_product(grid64):
    f = tot.density_field(tot.CATALOG["product_f"], grid64)
    marginal, fiber = tot.marginal_and_conditionals(f)
    x = grid64.nodes1()
    assert np.max(np.abs(marginal.values - (1.0 + 0.2 * np.cos(2 * np.pi * x)))) < 1e-13
    # every fiber is the second factor, wherever it is sliced
    y = grid64.nodes2()
    expected = 1.0 + 0.15 * np.cos(2 * np.pi * y)
    for x1 in (0.0, 0.31, 0.77):
        assert np.max(np.abs(fiber(x1).values - expected)) < 1e-13


def test_marginal_and_conditionals_shear(grid64):
    spec = tot.spec((1, 1, 0.3, 0.0))
    f = tot.density_field(spec, grid64)
    marginal, fiber = tot.marginal_and_conditionals(f)
    assert np.max(np.abs(marginal.values - 1.0)) < 1e-13
    x1 = 0.21
    y = grid64.nodes2()
    expected = 1.0 + 0.3 * np.cos(2 * np.pi * (x1 + y))
    assert np.max(np.abs(fiber(x1).values - expected)) < 1e-13


def test_batched_slice_matches_scalar_slices():
    poly = TrigPoly2D.from_modes([(1, 0, 0.2, 0.3), (0, -2, 0.1, 1.0),
                                  (2, -1, 0.15, -0.5), (-1, 3, 0.05, 2.0)])
    x1 = np.array([0.0, 0.13, 0.5, 0.91])
    x2 = np.arange(32) / 32
    stack = poly.slice_x1(x1)
    assert stack.amps.shape == stack.phases.shape == (4, 3)
    values = stack(x2)
    for i, a in enumerate(x1):
        assert np.max(np.abs(values[i] - poly.slice_x1(a)(x2))) < 1e-15
        assert np.max(np.abs(values[i] - poly(a, x2))) < 1e-14


def test_min_on_grid_matches_direct_evaluation():
    # k1 = 0, k2 < 0, and mixed signs, each with a phase
    poly = TrigPoly2D.from_modes([(0, 1, 0.2, 0.4), (1, -2, 0.15, 1.1),
                                  (-3, 1, 0.1, -0.7), (2, 2, 0.05, 2.5),
                                  (1, 0, 0.1, 0.2)])
    for n1, n2 in ((64, 64), (96, 40)):
        x1 = np.arange(n1) / n1
        x2 = np.arange(n2) / n2
        direct = np.min(poly(x1[:, None], x2[None, :]))
        assert abs(poly.min_on_grid(n1, n2) - direct) < 1e-14


def test_fibers_match_fine_grid_oracle(pair64, knothe64):
    # an independent oracle: fine-grid cdf tables of the exact conditionals
    # at the exact real image point, inverted by interpolation
    grid = pair64.grid
    images = knothe64.r1.map_values()
    for i in (0, 21, 50):
        x1 = grid.nodes1()[i]
        disp = oracle_map(lambda x2: pair64.f_poly(x1, x2),
                          lambda x2: pair64.g_poly(images[i], x2), grid.n2)
        assert np.max(np.abs(knothe64.r2_displacement[i] - disp)) < 1e-8


def test_rearrangement_identity(grid64):
    pair = tot.make_density_pair(tot.CATALOG["standard_f"],
                                 tot.CATALOG["standard_f"], grid64)
    sol = tot.knothe_solution(pair)
    assert np.max(np.abs(sol.r1.displacement)) < 1e-12
    assert np.max(np.abs(sol.r2_displacement)) < 1e-11
    assert np.max(np.abs(sol.potentials.u1)) < 1e-12
    assert np.max(np.abs(sol.potentials.u2.values)) < 1e-12


def test_rearrangement_product_structure(grid64):
    pair = tot.make_density_pair(tot.CATALOG["product_f"],
                                 tot.CATALOG["product_g"], grid64)
    sol = tot.knothe_solution(pair)
    # R1 is the 1D transport between the first factors
    f1 = tot.circle_density(closed_form=TrigPoly1D.from_modes([(1, 0.2, 0.0)]),
                            m=grid64.n1)
    g1 = tot.circle_density(closed_form=TrigPoly1D.from_modes([(1, 0.15, 0.0)]),
                            m=grid64.n1)
    direct = tot.monotone_circle_map(f1, g1)
    assert np.max(np.abs(sol.r1.displacement - direct.displacement)) < 1e-12
    # fibers do not depend on x1
    assert np.max(np.ptp(sol.r2_displacement, axis=0)) < 1e-12
    assert np.max(np.ptp(sol.potentials.u2.values, axis=0)) < 1e-12


def test_rearrangement_pushforward_fourier():
    grid = tot.build_grid(256, 256)
    g_spec = tot.spec((1, 0, 0.25, 0.0), (1, 1, 0.03125, 0.0),
                      (1, -1, 0.03125, 0.0))
    pair = tot.make_density_pair(tot.CATALOG["uniform"], g_spec, grid)
    sol = tot.knothe_solution(pair)
    assert tot.pushforward_residual(sol.map_field(), pair, 4) < 1e-6


def test_potentials_recover_rearrangement(knothe64):
    sol = knothe64
    d1 = deriv_values(sol.potentials.u1, 0, 1)
    assert np.max(np.abs(d1 - sol.r1.displacement)) < 1e-9
    d2 = deriv_values(sol.potentials.u2.values, 1, 1)
    assert np.max(np.abs(d2 - sol.r2_displacement)) < 1e-9
    m1, m2 = sol.potentials.margins
    assert m1 > 0.0 and m2 > 0.0


def test_marginal_pushforward_quantiles(pair64, knothe64):
    f1, _ = tot.marginal_and_conditionals(pair64.f)
    g1, _ = tot.marginal_and_conditionals(pair64.g)
    assert tot.pushforward_quantile_error(f1, g1, knothe64.r1) < 1e-10


def test_fiber_pushforward_quantiles(pair64, knothe64):
    assert tot.fiber_pushforward_error(pair64, knothe64, n_fibers=8) < 1e-9


def test_triangular_structure(knothe64):
    field = knothe64.map_field()
    assert np.max(np.ptp(field.v1.values, axis=1)) == 0.0


def test_u2_spectral_decay_in_x1(knothe128):
    # combined bandwidth of the standard pair: max total degree of f's
    # modes (2) plus g's (2); coefficients must be below 1e-8 from mode 12
    u2 = knothe128.potentials.u2.values
    coeffs = np.abs(np.fft.fft(u2, axis=0)).max(axis=1) / u2.shape[0]
    bandwidth = 4
    assert np.max(coeffs[3 * bandwidth: u2.shape[0] // 2]) < 1e-8


def test_l2_map_distance_examples(grid64):
    x1, x2 = grid64.mesh()
    ones = tot.field(grid64, np.ones(grid64.shape))
    t = tot.VectorField(tot.field(grid64, x1 + 0 * x2),
                        tot.field(grid64, x2 + 0 * x1))
    assert tot.l2_map_distance(t, t, ones) == 0.0
    shifted = tot.VectorField(t.v1, tot.field(grid64, t.v2.values + 0.5))
    assert abs(tot.l2_map_distance(t, shifted, ones) - 0.5) < 1e-14


def test_requires_closed_form(grid64):
    f = tot.field(grid64, np.ones(grid64.shape))
    with pytest.raises(ValueError, match="closed-form"):
        tot.marginal_and_conditionals(f)


def test_one_cdf_inversion_per_circle_map(monkeypatch):
    # a benchmark-style pair at 256^2: three of the four wavevectors with
    # |k|_inf = 1 per density, amplitude 0.15 each.  Each circle map inverts
    # its cdfs and picks its shift in one call, and the fiber map takes few
    # cdf-and-density passes (its levels' antiderivative included)
    grid = tot.build_grid(256, 256)
    pair = tot.make_density_pair(
        tot.spec((0, 1, 0.15, 3.10), (1, 1, 0.15, 4.82), (1, -1, 0.15, 4.93)),
        tot.spec((1, 0, 0.15, 2.01), (1, 1, 0.15, 0.93), (1, -1, 0.15, 3.54)),
        grid)
    maps = []         # per circle map: [cdf inversions, cdf-and-density passes]
    circle_map = tot.knothe.monotone_circle_map
    invert = tot.transport1d.invert_lifted_cdf
    value_and_primitive = TrigPoly1D.value_and_primitive

    def counted_map(f, g):
        maps.append([0, 0])
        return circle_map(f, g)

    def counted_invert(*args, **kwargs):
        maps[-1][0] += 1
        return invert(*args, **kwargs)

    def counted_pass(self, *args, **kwargs):
        if maps:
            maps[-1][1] += 1
        return value_and_primitive(self, *args, **kwargs)

    monkeypatch.setattr(tot.knothe, "monotone_circle_map", counted_map)
    monkeypatch.setattr(tot.transport1d, "invert_lifted_cdf", counted_invert)
    monkeypatch.setattr(TrigPoly1D, "value_and_primitive", counted_pass)
    tot.knothe_solution(pair)
    assert [inversions for inversions, _ in maps] == [1, 1]
    assert maps[1][1] <= 8, maps


def test_fiber_shifts_are_exact_with_a_mode_at_half_the_fiber_nodes():
    # a k2 = 8 mode on 16 fiber nodes peaks between them, where a shift
    # bracket from the node maximum of g misses some shifts
    rng = np.random.default_rng(3)
    grid = tot.build_grid(16, 16)
    solved = 0
    for _ in range(200):
        f = tot.spec((1, 0, 0.2, rng.uniform(0.0, 6.28)),
                     (0, 8, 0.9 * rng.uniform(0.5, 0.95), rng.uniform(0.0, 2 * np.pi)))
        g = tot.spec((1, 1, 0.15, rng.uniform(0.0, 6.28)),
                     (0, 8, rng.uniform(0.5, 0.9), rng.uniform(0.0, 6.28)))
        try:
            sol = tot.knothe_solution(tot.make_density_pair(f, g, grid))
        except PositivityError:
            continue
        solved += 1
        assert np.max(np.abs(np.mean(sol.r2_displacement, axis=-1))) <= 1e-12
    assert solved > 100
