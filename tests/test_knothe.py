import tracemalloc

import numpy as np
import pytest

import tot
from tot.errors import ConvergenceError, CutLocusError, PositivityError
from tot.grid import deriv_values
from tot.transport1d import invert_lifted_cdf
from tot.trig import TWO_PI, TrigPoly1D, TrigPoly2D

from tests.test_transport1d import oracle_map


def test_marginal_and_conditionals_uniform(grid64):
    f = tot.density_field(tot.CATALOG["uniform"], grid64)
    marginal, fiber = tot.marginal_and_conditionals(f)
    assert np.max(np.abs(marginal.values - 1.0)) < 1e-14
    assert np.max(np.abs(fiber(0.37).values - 1.0)) < 1e-14


def test_unvalidated_closed_form_is_checked_for_positivity(grid64):
    # a closed form that dips below zero, not built through a DensityPair;
    # its x1-marginal is the constant 1, so the split succeeds and the 1D
    # floor of the fibers refuses them
    poly = TrigPoly2D.from_modes([(1, 1, 1.2, 0.3)])
    f = tot.ScalarField(grid64, poly(*grid64.mesh()), closed_form=poly)
    marginal, fiber = tot.marginal_and_conditionals(f)
    assert np.max(np.abs(marginal.values - 1.0)) < 1e-14
    for x1 in (0.37, grid64.nodes1()):
        with pytest.raises(tot.PositivityError, match="not positive"):
            fiber(x1)


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
        disp = oracle_map(lambda x2: pair64.f.closed_form(x1, x2),
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
    assert tot.fiber_pushforward_error(pair64, knothe64) < 1e-9


def test_nested_fiber_sweeps_certify(pair128, knothe128, pair256, knothe256):
    # 128^2 and 256^2 start their fiber stacks from 64^2 coarse fibers
    for pair, sol in ((pair128, knothe128), (pair256, knothe256),
                      (_benchmark_style_pair(128), None),
                      (_benchmark_style_pair(256), None)):
        sol = sol or tot.knothe_solution(pair)
        assert tot.fiber_pushforward_error(pair, sol) < 1e-9


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


def _benchmark_style_pair(n):
    # three of the four wavevectors with |k|_inf = 1 per density, amplitude
    # 0.15 each
    return tot.make_density_pair(
        tot.spec((0, 1, 0.15, 3.10), (1, 1, 0.15, 4.82), (1, -1, 0.15, 4.93)),
        tot.spec((1, 0, 0.15, 2.01), (1, 1, 0.15, 0.93), (1, -1, 0.15, 3.54)),
        tot.build_grid(n, n))


def _fiber_stacks(pair):
    """The conditionals of f over the nodes and of g over their images."""
    f1, f_fiber = tot.marginal_and_conditionals(pair.f)
    g1, g_fiber = tot.marginal_and_conditionals(pair.g)
    images = tot.monotone_circle_map(f1, g1).map_values()
    return f_fiber(pair.grid.nodes1()), g_fiber(images)


def test_one_cdf_inversion_per_circle_map(monkeypatch):
    # at 256^2 each circle map inverts its cdfs and picks its shift in one
    # call: r1, the 64^2 coarse fiber stack and the full stack.  Started
    # from the prolonged coarse maps, the full stack takes at most 2 Newton
    # passes (5 cold).  The call runs the stack in blocks of rows, which
    # are independent, so the stack's passes are those of its slowest
    # block: each block is held to 2
    pair = _benchmark_style_pair(256)
    maps = []         # per circle map: [cdf inversions, passes per block]
    circle_map = tot.knothe.monotone_circle_map
    invert = tot.transport1d.invert_lifted_cdf
    newton_rows = tot.transport1d._newton_rows
    value_and_primitive = TrigPoly1D.value_and_primitive

    def counted_map(f, g, *args, **kwargs):
        maps.append([0, []])
        return circle_map(f, g, *args, **kwargs)

    def counted_invert(*args, **kwargs):
        maps[-1][0] += 1
        return invert(*args, **kwargs)

    def counted_block(*args, **kwargs):
        maps[-1][1].append(0)
        return newton_rows(*args, **kwargs)

    def counted_pass(self, *args, **kwargs):
        if maps and maps[-1][1]:
            maps[-1][1][-1] += 1
        return value_and_primitive(self, *args, **kwargs)

    monkeypatch.setattr(tot.knothe, "monotone_circle_map", counted_map)
    monkeypatch.setattr(tot.transport1d, "invert_lifted_cdf", counted_invert)
    monkeypatch.setattr(tot.transport1d, "_newton_rows", counted_block)
    monkeypatch.setattr(TrigPoly1D, "value_and_primitive", counted_pass)
    tot.knothe_solution(pair)
    assert [inversions for inversions, _ in maps] == [1, 1, 1]
    assert len(maps[2][1]) == 4 and max(maps[2][1]) <= 2, maps


@pytest.mark.parametrize("error", [ConvergenceError, CutLocusError])
def test_failed_coarse_fibers_fall_back_to_the_cold_sweep(monkeypatch, error):
    pair = _benchmark_style_pair(128)
    with monkeypatch.context() as m:
        m.setattr(tot.grid, "COARSEST_SIDE", 1 << 20)
        cold = tot.knothe_solution(pair)
    circle_map = tot.knothe.monotone_circle_map
    raised = []

    def coarse_raises(f, g, *args, **kwargs):
        if f.m == 64:
            raised.append(f.values.shape)
            raise error("forced failure")
        return circle_map(f, g, *args, **kwargs)

    monkeypatch.setattr(tot.knothe, "monotone_circle_map", coarse_raises)
    sol = tot.knothe_solution(pair)
    assert raised == [(64, 64)]
    assert np.array_equal(sol.r2_displacement, cold.r2_displacement)
    assert np.array_equal(sol.potentials.u2.values, cold.potentials.u2.values)
    assert np.array_equal(sol.potentials.u1, cold.potentials.u1)


def _warm_start_moves_nothing(f, g):
    """A call started off the cold call's roots and shifts returns them."""
    x = np.arange(f.m) / f.m
    s = f.closed_form.antiderivative(x)
    y, theta = invert_lifted_cdf(g, s, nodes=x)
    rows = np.arange(len(theta))
    for dx, dtheta in ((0.02, 0.03), (0.2, 0.3), (0.0, 0.5), (1e-9, 1e-9)):
        x0 = y + dx * np.sin(TWO_PI * (x + rows[:, None] / 7))
        theta0 = theta + dtheta * np.cos(rows)
        warm, warm_theta = invert_lifted_cdf(g, s, x0, nodes=x,
                                             theta0=theta0)
        assert np.max(np.abs(warm - y)) <= 1e-13
        assert np.max(np.abs(warm_theta - theta)) <= 1e-13


@pytest.mark.parametrize("n", [64, 256])
def test_warm_started_inversion_returns_the_cold_roots(n):
    for pair in (tot.standard_pair(tot.build_grid(n, n)),
                 _benchmark_style_pair(n)):
        _warm_start_moves_nothing(*_fiber_stacks(pair))


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
            pair = tot.make_density_pair(f, g, grid)
            sol = tot.knothe_solution(pair)
        except PositivityError:
            continue
        solved += 1
        assert np.max(np.abs(np.mean(sol.r2_displacement, axis=-1))) <= 1e-12
        # a warm start too finds these shifts, from off their roots
        _warm_start_moves_nothing(*_fiber_stacks(pair))
    assert solved > 100


def test_nested_sweep_takes_a_mode_aliased_onto_the_coarse_fibers(monkeypatch):
    # g's k2 = 64 mode falls on the mean of the 64 nodes of each coarse
    # fiber: its closed form keeps unit mass there, so the coarse maps
    # start the full stack as for any pair and the sweep equals the cold one
    pair = tot.make_density_pair(tot.CATALOG["standard_f"],
                                 tot.spec((1, 64, 0.2, 0.0), (0, 1, 0.1, 0.0)),
                                 tot.build_grid(256, 256))
    sol = tot.knothe_solution(pair)
    with monkeypatch.context() as m:
        m.setattr(tot.grid, "COARSEST_SIDE", 1 << 20)
        cold = tot.knothe_solution(pair)
    assert np.max(np.abs(sol.r2_displacement - cold.r2_displacement)) <= 1e-14
    assert np.max(np.abs(sol.potentials.u2.values
                         - cold.potentials.u2.values)) <= 1e-14


def test_sweep_memory_is_bounded():
    # at 256^2 the full fiber stack runs in blocks of 64 rows, and the
    # sweep's peak is about 8.3 arrays of the grid's size (4.4 MB).  One
    # loop over the whole stack reads 15.2 (8.0 MB); with samples of the
    # densities, brackets for the rows that the start solves and a
    # temporary per product of the cosine sums, 23 (12.2 MB)
    grid = tot.build_grid(256, 256)
    pair = tot.standard_pair(grid)
    tracemalloc.start()
    try:
        tot.knothe_solution(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * grid.n1 * grid.n2


def test_blocks_of_rows_change_no_bit(monkeypatch):
    # rows are independent: at 256^2 the nested sweep and a cold map of the
    # fiber stack, in blocks of 64 rows, equal their runs in one block,
    # maps and shifts bit for bit
    pair = _benchmark_style_pair(256)
    runs = []
    for block in (tot.transport1d.ROW_BLOCK, 1 << 20):
        monkeypatch.setattr(tot.transport1d, "ROW_BLOCK", block)
        runs.append((tot.knothe_solution(pair),
                     tot.monotone_circle_map(*_fiber_stacks(pair))))
    (sol, cold), (sol_whole, cold_whole) = runs
    assert np.array_equal(sol.r2_displacement, sol_whole.r2_displacement)
    assert np.array_equal(cold.displacement, cold_whole.displacement)
    assert np.array_equal(cold.shift, cold_whole.shift)
