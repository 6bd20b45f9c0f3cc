"""Property-based tests: config parsing, field files, circle densities and
maps, the margin of a residual state, the cold solve, the nested Knothe
fiber sweep and the continuation.

Example counts are capped in ``FUZZ``, ``FUZZ_FIBERS``, ``FUZZ_FLOOR``,
``FUZZ_MARGIN``, ``FUZZ_SOLVE``, ``FUZZ_KNOTHE`` and ``FUZZ_RUN`` so the
module adds seconds, not minutes, to the suite; raise ``max_examples``
there for a longer search.
"""

import itertools
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tot
from tot.config import _SCHEMA, _parse_lines
from tot.densities import DELTA_MIN
from tot.errors import (ConcavityError, ConfigError, ConstructionError,
                        CutLocusError, PositivityError, TransportError)
from tot.fieldio import MAGIC, read_field_binary, write_field_binary
from tot.grid import ScalarField, build_grid
from tot.monge_ampere import residual_state
from tot.knothe import _coarse_fibers
from tot.transport1d import CircleDensity, CircleMap, invert_lifted_cdf
from tot.trig import TWO_PI, TrigPoly1D, TrigPoly2D

from tests.conftest import assembled_state, single_grid_newton

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# config text: arbitrary lines mixed with lines that reach the value parsers
_values = st.one_of(st.text(max_size=30), st.integers().map(str),
                    st.floats().map(repr), st.sampled_from(
                        ["adaptive", "true", "off", "t^2", "(1, 0, 0.3, 0)",
                         "(1,0,0.3,0); (0,1,0.2,1.5)", "(1, 0, x, 0)"]))
_lines = st.one_of(
    st.text(max_size=60),
    st.tuples(st.sampled_from(sorted(_SCHEMA)), _values).map(
        lambda kv: f"{kv[0]} = {kv[1]}"))


@FUZZ
@given(st.lists(_lines, max_size=8).map("\n".join))
def test_parse_lines_raises_only_config_error(text):
    try:
        entries = _parse_lines(text)
    except ConfigError:
        return
    assert set(entries) <= set(_SCHEMA)


_even = st.integers(4, 16).map(lambda k: 2 * k)
_file_ids = itertools.count()


def fresh_path(directory):
    # a new file per example: truncating an existing one is far slower on
    # some file systems than creating one
    return directory / f"field{next(_file_ids)}.totf"


@st.composite
def fields(draw):
    grid = build_grid(draw(_even), draw(_even))
    values = draw(arrays(np.float64, grid.shape))      # NaN, inf, -0.0 too
    return ScalarField(grid, values, zero_mean=draw(st.booleans()))


@FUZZ
@given(fields())
def test_binary_round_trip_is_bit_exact(tmp_path, field):
    path = fresh_path(tmp_path)
    write_field_binary(field, path)
    back = read_field_binary(path)
    assert back.grid == field.grid
    assert back.zero_mean == field.zero_mean
    assert back.values.astype("<f8").tobytes() == field.values.astype("<f8").tobytes()


@FUZZ
@given(fields(), st.data())
def test_binary_truncation_raises_value_error(tmp_path, field, data):
    path = fresh_path(tmp_path)
    write_field_binary(field, path)
    raw = path.read_bytes()
    path = fresh_path(tmp_path)
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(ValueError):
        read_field_binary(path)


@FUZZ
@given(st.one_of(st.binary(min_size=16, max_size=16),
                 st.binary(min_size=12, max_size=12).map(lambda b: MAGIC + b)),
       st.integers(0, 40).map(lambda n: 8 * n))
def test_binary_random_header_raises_value_error(tmp_path, header, payload):
    path = fresh_path(tmp_path)
    path.write_bytes(header + bytes(payload))
    with pytest.raises(ValueError):
        read_field_binary(path)


@FUZZ
@given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 2 ** 32 - 1),
       st.integers(-2, 2))
def test_binary_accepts_only_valid_sizes_matching_payload(tmp_path, n1, n2,
                                                          flags, extra):
    path = fresh_path(tmp_path)
    count = max(0, n1 * n2 + extra)
    path.write_bytes(struct.pack("<4sIII", MAGIC, n1, n2, flags)
                     + bytes(8 * count))
    valid = min(n1, n2) >= 8 and n1 % 2 == n2 % 2 == 0 and count == n1 * n2
    try:
        field = read_field_binary(path)
    except ValueError:
        assert not valid
        return
    assert valid and field.grid.shape == (n1, n2)


# circle densities: closed-form cosine sums on m nodes.  Frequencies reach
# 2m, so modes alias onto the nodes (k = m and 2m onto the mean), and the
# closed form keeps its unit mass all the same; four modes of amplitude
# <= 0.2 keep every sum above 0.2
_node_counts = st.integers(4, 64)


def _circle_modes(m, min_size=0, amplitudes=st.floats(0.0, 0.2)):
    return st.lists(st.tuples(st.integers(-2 * m, 2 * m), amplitudes,
                              st.floats(-np.pi, np.pi)),
                    min_size=min_size, max_size=4)


@st.composite
def closed_forms(draw):
    """(closed form, m): one cosine sum, or a stack of the fibers of a 2D
    cosine sum at drawn x1."""
    m = draw(_node_counts)
    if draw(st.booleans()):
        return TrigPoly1D.from_modes(draw(_circle_modes(m))), m
    modes = draw(st.lists(st.tuples(
        st.integers(-3, 3), st.integers(-2 * m, 2 * m), st.floats(0.0, 0.2),
        st.floats(-np.pi, np.pi)), max_size=4))
    x1 = draw(arrays(np.float64, st.integers(1, 5), elements=st.floats(0.0, 1.0)))
    return TrigPoly2D.from_modes(modes).slice_x1(x1), m


@FUZZ
@given(closed_forms())
def test_circle_density_samples_its_unit_mass_closed_form(drawn):
    # the closed form keeps unit mass, aliased modes included: the node
    # mean is 1 plus a cos p of each mode whose frequency is a multiple of
    # m, and the lifted cdf steps by exactly 1 per period
    poly, m = drawn
    d = tot.circle_density(poly, m)
    nodes = np.arange(m) / m
    form = d.closed_form
    assert np.max(np.abs(np.asarray(form.const) - 1.0)) <= 1e-15
    assert d.values.shape == np.shape(poly(nodes))
    aliased = np.sum(np.where(poly.freqs % m == 0,
                              poly.amps * np.cos(poly.phases), 0.0),
                     axis=-1) / poly.const
    assert np.max(np.abs(d.values.mean(axis=-1) - 1.0 - aliased)) <= 1e-14
    assert np.max(np.abs(form.antiderivative(np.ones_like(nodes)) - 1.0)) <= 1e-14
    identity = CircleMap(np.zeros(np.shape(form.const) + (m,)))
    assert tot.pushforward_quantile_error(d, d, identity) <= 1e-13


@FUZZ
@given(_node_counts.flatmap(lambda m: st.tuples(
    st.just(m), _circle_modes(m, 1, st.floats(0.05, 1.0)).filter(
        lambda modes: all(k != 0 for k, _, _ in modes)),
    st.floats(0.01, 0.9))))
def test_circle_density_rejects_a_nonpositive_closed_form(drawn):
    # a positive constant smaller than the depth of the modes' deepest
    # trough at the nodes (no mode has k = 0, so it is the mean)
    m, modes, depth = drawn
    trough = np.min(TrigPoly1D.from_modes(modes, const=0.0)(np.arange(m) / m))
    assume(trough < -0.01)
    with pytest.raises(PositivityError):
        tot.circle_density(TrigPoly1D.from_modes(modes, const=-depth * trough), m)


# circle maps between fiber stacks of 2D cosine sums with |k1|, |k2| <= 4 on
# m = 8..256 nodes per fiber.  The modes are scaled so that the sum's
# minimum on the 4x grid is a drawn value down to DELTA_MIN.  Half of the
# densities pair a fiber frequency with its double in phase, whose
# amplitudes add up past the depth of the sum: their fibers have
# const - sum |a| <= 0 although g > 0 (as in TWO_FREQUENCIES).  The oracle
# is bisection on the shift over bisection inversions of the cdf written
# out from the modes.
FUZZ_FIBERS = settings(max_examples=40, deadline=None)
TWO_FREQUENCIES = (
    TrigPoly2D.from_modes([(0, 1, 0.7, 0.0), (0, 2, 0.5, 0.0), (1, 0, 0.1, 0.3)]),
    TrigPoly2D.from_modes([(1, 1, 0.7, 0.0), (2, 2, 0.5, 0.0)]),
    np.array([0.1, 0.45, 0.8]), 16)


@st.composite
def fiber_pairs(draw):
    """(f, g, x1 of g's fibers, m): f's fibers sit at x1 = i/rows."""
    m = draw(st.integers(4, 128)) * 2
    wavevectors = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any)

    def density():
        if draw(st.booleans()):     # a1 cos v + a2 cos 2v: a1 + a2 > its depth
            k1, k2 = draw(st.integers(-2, 2)), draw(st.integers(1, 2))
            p = draw(st.floats(-np.pi, np.pi))
            modes = [(k1, k2, draw(st.floats(0.5, 1.0)), p),
                     (2 * k1, 2 * k2, draw(st.floats(0.3, 0.6)), 2 * p)]
        else:
            waves = draw(st.lists(wavevectors, min_size=1, max_size=3, unique=True))
            modes = [(k1, k2, draw(st.floats(0.1, 1.0)), draw(st.floats(-np.pi, np.pi)))
                     for k1, k2 in waves]
        trough = TrigPoly2D.from_modes(modes, const=0.0).min_on_grid(4 * m, 4 * m)
        assume(trough < -0.01)
        scale = (1.0 - draw(st.floats(DELTA_MIN, 0.5))) / -trough
        return TrigPoly2D.from_modes([(k1, k2, a * scale, p) for k1, k2, a, p in modes])

    f, g = density(), density()
    rows = draw(st.integers(1, 4))
    images = draw(arrays(np.float64, rows, elements=st.floats(0.0, 1.0)))
    return f, g, images, m


def _cdf(poly, y):
    """Exact lifted primitive of a (stacked) cosine sum at y, (rows, n)."""
    k = TWO_PI * poly.freqs
    a, p = poly.amps[:, None, :], poly.phases[:, None, :]
    waves = a / k * (np.sin(k * y[..., None] + p) - np.sin(p))
    return poly.const[:, None] * y + np.sum(waves, axis=-1)


def _bisect(increasing, lo, hi, steps):
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = increasing(mid) < 0.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _oracle_displacement(f, g, x):
    s = _cdf(f, np.broadcast_to(x, (len(f.const), x.size)))

    def inverse(theta):
        w = s + theta[:, None]
        return _bisect(lambda y: _cdf(g, y) - w, w - 2.0, w + 2.0, 64)

    theta = _bisect(lambda t: np.mean(inverse(t) - x, axis=-1),
                    np.full(len(s), -2.0), np.full(len(s), 2.0), 56)
    return x - inverse(theta)


@FUZZ_FIBERS
@example(TWO_FREQUENCIES)
@given(fiber_pairs())
def test_fiber_maps_are_centred_exact_inverses(drawn):
    f_poly, g_poly, images, m = drawn
    rows = len(images)
    f = tot.circle_density(f_poly.slice_x1(np.arange(rows) / rows).normalized(), m)
    g_fibers = g_poly.slice_x1(images)
    fine = np.arange(8192) / 8192
    lowest = np.min(g_fibers.normalized()(fine))
    x = np.arange(m) / m
    try:
        g = tot.circle_density(g_fibers.normalized(), m)
        tm = tot.monotone_circle_map(f, g)
    except PositivityError:
        # g dips below 0, or too close to it for its floor to be certain
        assert lowest < 2e-3 * np.max(np.sum(np.abs(g_fibers.amps), axis=-1)
                                      / g_fibers.const)
        return
    except CutLocusError:
        assert np.max(np.abs(_oracle_displacement(f.closed_form, g.closed_form,
                                                  x))) > 0.5 - 1e-9
        return
    s = f.closed_form.antiderivative(x)
    y, theta = invert_lifted_cdf(g, s, tol=1e-15, nodes=x)
    assert np.array_equal(x - y, tm.displacement)
    tmap = tm.map_values()
    assert np.all(np.diff(tmap, axis=-1, append=tmap[:, :1] + 1.0) > 0.0)
    assert np.max(np.abs(np.mean(tm.displacement, axis=-1))) <= 1e-12
    level = s + theta[:, None]
    base = np.floor(level)
    residual = g.closed_form.antiderivative(y - base) - (level - base)
    assert np.max(np.abs(residual)) <= 1e-15
    oracle = _oracle_displacement(f.closed_form, g.closed_form, x)
    assert np.max(np.abs(tm.displacement - oracle)) <= 1e-12


def test_two_frequency_fibers_have_no_amplitude_floor():
    # the example above reaches rows whose constant does not bound the
    # modes, although the fibers stay positive
    f_poly, g_poly, images, m = TWO_FREQUENCIES
    fine = np.arange(8192) / 8192
    for fibers in (f_poly.slice_x1(np.arange(3) / 3), g_poly.slice_x1(images)):
        assert np.all(fibers.const - np.sum(np.abs(fibers.amps), axis=-1) <= 0.0)
        assert np.min(fibers(fine)) > 0.1


# TrigPoly2D.floor on m1 x m2 nodes, m = 8..64, of cosine sums with at most
# four modes, |k| <= 4.  The oracle is the minimum of __call__ on a 1024^2
# mesh, which shares nothing with min_on_grid's matrix product: the floor
# lies below it, and above it less the dip bounds of both grids.
FUZZ_FLOOR = settings(max_examples=40, deadline=None)
FLOOR_MESH = np.arange(1024) / 1024


def _dip(poly, m1, m2):
    return np.sum(((TWO_PI * poly.k1 / m1) ** 2 + (TWO_PI * poly.k2 / m2) ** 2)
                  * np.abs(poly.amps)) / 8.0


@FUZZ_FLOOR
@example((TrigPoly2D.from_modes([(0, 1, 0.5, 0.0), (0, 2, 0.47, 0.0)]), 8, 8))
@given(st.tuples(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                       st.floats(0.01, 1.0), st.floats(-np.pi, np.pi)).filter(
        lambda m: m[:2] != (0, 0)), min_size=1, max_size=4).map(
            TrigPoly2D.from_modes),
    st.integers(8, 64), st.integers(8, 64)))
def test_floor_is_a_lower_bound_within_the_dip(drawn):
    poly, m1, m2 = drawn
    lowest = np.min(poly(FLOOR_MESH[:, None], FLOOR_MESH[None, :]))
    floor = poly.floor(m1, m2)
    assert floor <= lowest + 1e-12
    assert floor >= lowest - _dip(poly, m1, m2) - _dip(poly, 1024, 1024) - 1e-12


def test_pair_admits_a_density_whose_amplitudes_exceed_its_depth():
    # const - sum |a| = 0.03 is below DELTA_MIN, but the minimum is 0.46351
    g = tot.spec((0, 1, 0.5, 0.0), (0, 2, 0.47, 0.0))
    assert g.trig().const - np.sum(g.trig().amps) < DELTA_MIN
    pair = tot.make_density_pair(tot.CATALOG["uniform"], g, build_grid(16, 16))
    assert 0.46 < pair.delta < 0.46352


@pytest.mark.parametrize("shapes", [((256, 256), (128, 128), (64, 64)),
                                    ((192, 128), (96, 64))])
def test_pair_on_a_coarser_grid_equals_its_closed_forms_sampled_there(shapes):
    f = tot.spec((1, 0, 0.15, 5.933142595308904), (0, 1, 0.15, 2.06316),
                 (1, 1, 0.15, 3.419852972758504))
    g = tot.spec((0, 1, 0.15, 5.536359867427846), (1, -1, 0.15, 0.0437))
    fine = tot.make_density_pair(f, g, build_grid(*shapes[0]))
    pair = fine
    for shape in shapes[1:]:
        grid = build_grid(*shape)
        pair = pair.on_grid(grid)
        assert pair.grid == grid and pair.delta == fine.delta
        for coarse, poly in ((pair.f, fine.f.closed_form), (pair.g, fine.g_poly)):
            assert coarse.closed_form is poly
            assert np.array_equal(coarse.values,
                                  tot.density_field(poly, grid).values)


def test_pair_on_a_grid_that_does_not_divide_its_own_raises():
    pair = tot.standard_pair(build_grid(128, 128))
    for shape in ((96, 96), (128, 96), (256, 256)):
        with pytest.raises(ValueError, match="does not divide"):
            pair.on_grid(build_grid(*shape))


def test_pair_refuses_a_density_negative_between_all_its_nodes():
    # cos(2 pi 32 x2 + pi/2) vanishes on the 64 nodes of the oversampled
    # 16^2 grid, where g reads 1; its minimum is -0.5
    g = tot.spec((0, 32, 1.5, np.pi / 2))
    with pytest.raises(PositivityError, match=r"min = -0\.5 < 0\.05 \(g\)"):
        tot.make_density_pair(tot.CATALOG["uniform"], g, build_grid(16, 16))


# The margin of residual_state against LAPACK: u1 and u2 are cosine sums
# with |k|_inf <= 4 on 16^2 and 32^2 grids, scaled so that every second
# derivative of u1 is at most s1 and of u2 at most s2 in size.  By
# Gershgorin, the smaller eigenvalue of A - D^2 u is at least
# min(1 - s1 - 2 lambda s2, lambda (1 - 2 s2)), lambda <= 1, which s1,
# s2 <= 0.45 keep positive only where s1 + 2 lambda s2 < 1; elsewhere
# residual_state may refuse the state (ConcavityError), and may do so
# only where the oracle's eigenvalue is at most 1e-13.  The oracle
# forms D^2 u from the modes in closed form and takes the smaller
# eigenvalue of every node's matrix from np.linalg.eigvalsh; spectral
# derivatives of these fields are exact up to rounding, so the two agree
# to 1e-13, about 500 ulps of the O(1) entries (3000 draws stayed within
# 1.7e-14).
FUZZ_MARGIN = settings(max_examples=60, deadline=None)
MARGIN_TOL = 1e-13
_MARGIN_PAIRS = {n: tot.standard_pair(build_grid(n, n)) for n in (16, 32)}
_wave = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.floats(0.01, 1.0),
                  st.floats(-np.pi, np.pi))


def _cosine_hessian(modes, x1, x2, size):
    """(values, d11, d12, d22) of sum a cos(2 pi (k1 x1 + k2 x2) + phase),
    scaled so that |d11|, |d12| and |d22| stay below ``size``."""
    out = np.zeros((4, *np.broadcast(x1, x2).shape))
    bound = 0.0
    for k1, k2, a, phase in modes:
        arg = TWO_PI * (k1 * x1 + k2 * x2) + phase
        out[0] += a * np.cos(arg)
        for row, (i, j) in enumerate(((k1, k1), (k1, k2), (k2, k2)), 1):
            out[row] -= a * TWO_PI ** 2 * i * j * np.cos(arg)
        bound += abs(a) * TWO_PI ** 2 * max(k1 * k1, k2 * k2)
    return out * (size / bound) if bound > 0.0 else out


@FUZZ_MARGIN
@example(16, [(1, 0, 1.0, 0.0)], [(1, 1, 1.0, 0.0)], 0.25, 0.4375, 1.0)
@given(st.sampled_from(sorted(_MARGIN_PAIRS)),
       st.lists(_wave.map(lambda w: (w[0], 0, *w[2:])), max_size=3),
       st.lists(_wave.filter(lambda w: w[1] != 0), max_size=3),
       st.floats(0.0, 0.45), st.floats(0.0, 0.45), st.floats(1e-3, 1.0))
def test_residual_state_margin_is_the_smallest_eigenvalue(n, modes1, modes2,
                                                          s1, s2, lam):
    pair = _MARGIN_PAIRS[n]
    x1, x2 = pair.grid.mesh()
    u1, h11, _, _ = _cosine_hessian(modes1, x1[:, 0], 0.0, s1)
    u2, d11, d12, d22 = _cosine_hessian(modes2, x1, x2, s2)
    matrices = np.empty((*pair.grid.shape, 2, 2))
    matrices[..., 0, 0] = 1.0 - h11[:, None] - lam * d11
    matrices[..., 0, 1] = matrices[..., 1, 0] = -lam * d12
    matrices[..., 1, 1] = lam * (1.0 - d22)
    expected = float(np.min(np.linalg.eigvalsh(matrices)[..., 0]))
    assert expected >= min(1.0 - s1 - 2.0 * lam * s2,
                           lam * (1.0 - 2.0 * s2)) - MARGIN_TOL
    try:
        state = residual_state(tot.CostMatrix(lam, lam, 1.0), u1, u2, pair)
    except ConcavityError:
        assert expected <= MARGIN_TOL
        return
    assert abs(state.margin - expected) <= MARGIN_TOL


# cold Newton at 128^2 on cosine densities with |k|_inf <= 2: at most three
# modes of amplitude <= 0.3 keep every density above 0.1
FUZZ_SOLVE = settings(max_examples=50, deadline=None)
GRID128 = build_grid(128, 128)
_modes = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.floats(0.02, 0.3),
              st.floats(0.0, 6.283)).filter(lambda m: m[:2] != (0, 0)),
    min_size=1, max_size=3)


@FUZZ_SOLVE
@given(_modes, _modes)
def test_cold_solve_certifies_or_raises_typed_error(f_modes, g_modes):
    pair = tot.make_density_pair(tot.spec(*f_modes), tot.spec(*g_modes),
                                 GRID128)
    cost = tot.identity_cost()
    try:
        reference, _, _ = single_grid_newton(pair)
    except TransportError:
        reference = None
    try:
        res = tot.newton_correct(cost, tot.zero_field(GRID128), pair)
    except TransportError:
        # nesting never loses a case that the single grid certifies
        assert reference is None
        return
    st = assembled_state(cost, res.potential, pair)
    assert st.sup_residual <= 1e-10 and st.margin > 0.0
    if reference is not None:
        assert np.max(np.abs(res.potential.values - reference)) <= 1e-9


# the nested Knothe fiber sweep at 128^2 (64^2 coarse fibers start the full
# stack) against the cold sweep of the same stacks, on cosine densities
# with at most three modes, |k|_inf <= 4 and amplitude <= 0.3.  The fiber
# certificate is compared with the cold maps' own: at 128^2 it reads up to
# 5e-4 on these draws (three |k2| = 4 modes summing on one fiber), cold or
# nested, because 32 nodes per period do not resolve such a map between
# the nodes, where the certificate evaluates it
FUZZ_KNOTHE = settings(max_examples=30, deadline=None)
_modes4 = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.floats(0.02, 0.3),
              st.floats(0.0, 6.283)).filter(lambda m: m[:2] != (0, 0)),
    min_size=1, max_size=3)


@FUZZ_KNOTHE
@example([(0, 1, 0.15, 3.10), (1, 1, 0.15, 4.82), (1, -1, 0.15, 4.93)],
         [(1, 0, 0.15, 2.01), (1, 1, 0.15, 0.93), (1, -1, 0.15, 3.54)])
@given(_modes4, _modes4)
def test_nested_fiber_sweep_matches_the_cold_one(f_modes, g_modes):
    pair = tot.make_density_pair(tot.spec(*f_modes), tot.spec(*g_modes),
                                 GRID128)
    f1, f_fiber = tot.marginal_and_conditionals(pair.f)
    g1, g_fiber = tot.marginal_and_conditionals(pair.g)
    images = tot.monotone_circle_map(f1, g1).map_values()
    cold = tot.monotone_circle_map(f_fiber(GRID128.nodes1()), g_fiber(images))
    sol = tot.knothe_solution(pair)
    assert np.max(np.abs(sol.r2_displacement - cold.displacement)) <= 1e-14
    error = tot.fiber_pushforward_error(pair, sol)
    cold_error = tot.fiber_pushforward_error(
        pair, replace(sol, r2_displacement=cold.displacement))
    assert abs(error - cold_error) <= 1e-13


# each row of a stacked inversion against that row solved alone, on the
# Knothe fiber stacks of the draws above at 128^2: rows leave the stack at
# different passes (done at the start, or once half are done), and none of
# that may reach a row's bits, from cold starts or from the prolonged 64^2
# fiber maps that start the nested sweep
FUZZ_ROWS = settings(max_examples=10, deadline=None)


@FUZZ_ROWS
@example([(0, 1, 0.15, 3.10), (1, 1, 0.15, 4.82), (1, -1, 0.15, 4.93)],
         [(1, 0, 0.15, 2.01), (1, 1, 0.15, 0.93), (1, -1, 0.15, 3.54)])
@given(_modes4, _modes4)
def test_stacked_inversion_solves_each_row_as_alone(f_modes, g_modes):
    pair = tot.make_density_pair(tot.spec(*f_modes), tot.spec(*g_modes),
                                 GRID128)
    f1, f_fiber = tot.marginal_and_conditionals(pair.f)
    g1, g_fiber = tot.marginal_and_conditionals(pair.g)
    images = tot.monotone_circle_map(f1, g1).map_values()
    g = g_fiber(images)
    x = GRID128.nodes2()
    s = f_fiber(GRID128.nodes1()).closed_form.antiderivative(x)
    nested = _coarse_fibers(GRID128, images, f_fiber, g_fiber)
    assume(nested is not None)
    starts = ((None, None), (x - nested.displacement, nested.shift))
    for x0, theta0 in starts:
        y, theta = invert_lifted_cdf(g, s, x0, tol=1e-15, nodes=x, theta0=theta0)
        for i in range(GRID128.n1):
            row = CircleDensity(g.closed_form.take([i]), g.floor[[i]], g.m)
            alone, alone_theta = invert_lifted_cdf(
                row, s[i], None if x0 is None else x0[i], tol=1e-15, nodes=x,
                theta0=None if theta0 is None else theta0[[i]])
            assert np.array_equal(alone, y[i]) and alone_theta == theta[i]


# the continuation at 32^2 (which does not nest) across schedules, t0 and
# step settings: every draw certifies t1 or raises a TransportError, and
# every record, of a full or a partial trajectory, is finite and
# certified.  Densities are of the benchmark's class (three of the four
# |k|_inf <= 1 wavevectors at amplitude 0.15) or of a wider one (1-3
# modes with |k|_inf <= 2 and a total amplitude in [0.05, 0.5] split at
# random), so every density stays above 0.5
FUZZ_RUN = settings(max_examples=100, deadline=None)
GRID32 = build_grid(32, 32)
_BENCH_WAVEVECTORS = ((1, 0), (0, 1), (1, 1), (1, -1))
_phase = st.floats(0.0, 2 * np.pi, exclude_max=True)
_bench_density = st.tuples(st.integers(0, 3), st.lists(
    _phase, min_size=3, max_size=3)).map(lambda d: [
        (k1, k2, 0.15, phase) for (k1, k2), phase in zip(
            [k for i, k in enumerate(_BENCH_WAVEVECTORS) if i != d[0]], d[1])])
_wide_density = st.tuples(
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2), _phase,
                       st.floats(1e-6, 1.0, exclude_max=True)).filter(
                           lambda m: m[:2] != (0, 0)),
             min_size=1, max_size=3),
    st.floats(0.05, 0.5)).map(lambda d: [
        (k1, k2, d[1] * -np.log(u) / sum(-np.log(m[3]) for m in d[0]), phase)
        for k1, k2, phase, u in d[0]])
_pair_modes = st.one_of(
    st.tuples(st.just("bench"), _bench_density, _bench_density),
    st.tuples(st.just("wide"), _wide_density, _wide_density))


def _assert_certified(records, tol):
    for rec in records:
        assert all(np.isfinite(value) for value in (
            rec.t, rec.lam, rec.margin, rec.sup_residual,
            rec.pushforward_residual, rec.l2_dist_to_knothe))
        assert np.all(np.isfinite(rec.u1))
        assert np.all(np.isfinite(rec.psi2.values))
        assert rec.sup_residual <= tol and rec.margin > 0.0


@FUZZ_RUN
@given(_pair_modes, st.integers(1, 10), st.floats(-10.0, -2.0),
       st.sampled_from([2, 8, "adaptive"]))
def test_run_certifies_or_raises_typed_error(modes, p, log_t0, steps):
    _, f_modes, g_modes = modes
    pair = tot.make_density_pair(tot.spec(*f_modes), tot.spec(*g_modes),
                                 GRID32)
    opts = tot.ContinuationOptions(t0=10.0 ** log_t0, steps=steps)
    try:
        traj = tot.run(pair, tot.CostSchedule.power(p), opts)
    except TransportError as exc:
        assert not isinstance(exc, ConstructionError), exc
        partial = getattr(exc, "trajectory", None)
        _assert_certified(partial.records if partial else [], opts.newton_tol)
        return
    assert traj.times()[0] == opts.t0 and traj.final.t == opts.t1
    _assert_certified(traj.records, opts.newton_tol)
