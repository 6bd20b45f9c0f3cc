"""Symmetry oracles: exact symmetries of the problem, which need no closed
form of the solution.

- Grid translation.  Shifting f and g by a grid vector a (each mode's
  phase moves by -2 pi k.a) shifts every potential to u(x - a), which on
  the grid is a roll by a whole number of nodes.  The shift is odd along
  both axes, so no coarse level of the solvers sees the nodes it saw
  before.
- Axis swap at t = 1.  At A = I, swapping k1 and k2 in both densities
  transposes the Brenier potential.  The decomposed solver treats the axes
  differently (u1 is the row mean, u2 the fiberwise rest), so the swapped
  problem runs that asymmetric code with the roles of the axes exchanged,
  at lambda = 1.
- Reflection.  Negating every phase of both densities, x -> -x, reflects
  the Knothe potentials and the cold potential: node j to node
  (n - j) mod n along each axis.
- Inverse maps.  The Knothe map from g to f inverts the one from f to g,
  and so does the optimal map at one cost A_t: the cold solve's at A = I,
  and the continuation's at each t of its ladder.  The tests compose them
  with their own interpolant, a direct trigonometric sum over the DFT
  coefficients of the displacements, which shares no code with
  ``CircleMap.displacement_at`` or the solvers.

Each oracle compares two solves of different problems, so neither checks
a function against itself.  The margins of the certifying states, min
eig(A - D^2 u) over the nodes, are invariant under both maps and give a
second check of the margin of a solved result.

Bounds, from measurements on these pairs at 64^2 and 128^2: the Knothe
potentials agreed to 6e-17 and the cold potentials to 6e-17, except where
one orientation took one more Newton step (2.3e-14, pair (600, 1) at
128^2, whose margins, of second derivatives, then differed by 3.1e-12).
Two potentials that both meet the tolerance 1e-10 may differ by about
1e-10 / (4 pi^2 min g), hence 1e-11 for the cold solves.  Reflection read
at most 4.8e-17 (Knothe) and 1.7e-17 (cold), with margins 2.6e-13 apart.
The composed Knothe maps read 1.4e-15 to 2.0e-15 from the identity at
128^2, and 4.9e-12 to 3.2e-10 at 64^2, where 64 nodes resolve the maps of
pair (600, 1) less well.  The composed optimal maps are checked at 128^2
only (the standard pair from g to f does not certify at 64^2): the cold
maps read 7.0e-15 to 5.4e-13, and the continuation's, at t0, the middle
of an 8-step ladder and t1, at most 2.5e-13; bound 1e-11 for both.
"""

from dataclasses import replace

import numpy as np
import pytest

import tot

from tests.conftest import PAIRS

SHIFT = (3, 5)          # nodes along x1 and x2
KNOTHE_BOUND = 1e-13
COLD_BOUND = 1e-11
MARGIN_BOUND = 1e-10
INVERSE_BOUND = {64: 1e-9, 128: 1e-14}
MAP_INVERSE_BOUND = 1e-11


def shifted(modes, shape):
    """Modes of x -> density(x - a), a = SHIFT nodes of a grid of ``shape``."""
    a1, a2 = SHIFT[0] / shape[0], SHIFT[1] / shape[1]
    return tuple((k1, k2, amp, phase - 2.0 * np.pi * (k1 * a1 + k2 * a2))
                 for k1, k2, amp, phase in modes)


def swapped(modes):
    """Modes of (x1, x2) -> density(x2, x1)."""
    return tuple((k2, k1, amp, phase) for k1, k2, amp, phase in modes)


def roll(values):
    return np.roll(values, SHIFT[:values.ndim], axis=tuple(range(values.ndim)))


def reflect(values):
    """Node j to node (n - j) mod n along every axis: u(-x) on the grid."""
    axes = tuple(range(values.ndim))
    return np.roll(np.flip(values, axes), 1, axes)


def interpolation_rows(y, n):
    """Rows that take a function's n-node DFT coefficients (``dft``) to its
    trigonometric interpolant at the points y: frequencies -n/2..n/2, the
    two Nyquist ends at half weight (their sum is c cos(pi n y))."""
    k = np.arange(-n // 2, n // 2 + 1)
    weight = np.where(np.abs(k) == n // 2, 0.5, 1.0)
    return weight * np.exp(2j * np.pi * np.multiply.outer(y, k))


def dft(n):
    """The coefficients c_k = mean_j v_j exp(-2 pi i k j / n), k = -n/2..n/2."""
    k = np.arange(-n // 2, n // 2 + 1)
    return np.exp(-2j * np.pi * np.multiply.outer(k, np.arange(n)) / n) / n


def knothe_inverse_error(fg, gf):
    """sup |K_gf(K_fg(x)) - x| over the nodes, each map read from its
    displacements by a direct trigonometric sum.  K = (r1(x1), r2(x1, x2)),
    so the image of row i has one y1 = r1(x1_i): the 2D sum contracts x1's
    frequencies once per row, then x2's at that row's n points."""
    n1, n2 = fg.grid.shape
    x1, x2 = fg.grid.nodes1(), fg.grid.nodes2()
    y1 = fg.r1.map_values()
    y2 = x2 - fg.r2_displacement
    back1 = y1 - (interpolation_rows(y1, n1) @ (dft(n1) @ gf.r1.displacement)).real
    coef = dft(n1) @ gf.r2_displacement @ dft(n2).T
    rows = interpolation_rows(y1, n1) @ coef
    back2 = y2 - np.array([(interpolation_rows(y2[i], n2) @ rows[i]).real
                           for i in range(n1)])
    return max(np.max(np.abs(back1 - x1)), np.max(np.abs(back2 - x2)))


def map_inverse_error(forward, back):
    """sup |S(T(x)) - x| (mod 1) over the nodes, for T = ``forward`` and
    S = ``back``, vector fields of map values on one grid.  S is read at
    T(x) from its displacement x - S(x) by a direct trigonometric sum,
    one row of points at a time."""
    grid = forward.grid
    n1, n2 = grid.shape
    y1, y2 = forward.v1.values, forward.v2.values
    error = 0.0
    for x, y, s in zip(grid.mesh(), (y1, y2), (back.v1.values, back.v2.values)):
        coef = dft(n1) @ (x - s) @ dft(n2).T
        shift = np.array([np.sum((interpolation_rows(y1[i], n1) @ coef)
                                 * interpolation_rows(y2[i], n2), axis=1).real
                          for i in range(n1)])
        gap = (y - shift - x + 0.5) % 1.0 - 0.5
        error = max(error, np.max(np.abs(gap)))
    return error


def reversed_pair(pair):
    """The pair from g to f on the same grid."""
    return tot.make_density_pair(pair.g.closed_form, pair.f.closed_form,
                                 pair.grid)


def cold(pair):
    return tot.newton_correct(tot.identity_cost(), tot.zero_field(pair.grid),
                              pair)


@pytest.fixture(scope="module",
                params=[(name, n) for name in PAIRS for n in (64, 128)],
                ids=lambda case: f"{case[0]}-{case[1]}")
def case(request):
    name, n = request.param
    grid = tot.build_grid(n, n)
    f_modes, g_modes = PAIRS[name]

    def pair_of(transform):
        return tot.make_density_pair(tot.spec(*transform(f_modes)),
                                     tot.spec(*transform(g_modes)), grid)

    pair = pair_of(lambda modes: modes)
    moved = pair_of(lambda modes: shifted(modes, grid.shape))
    return pair, moved, pair_of(swapped), cold(pair)


@pytest.fixture(scope="module")
def mirror(case):
    """The case's pair with every phase negated, and its cold solve."""
    pair = case[0]
    mirrored = tot.make_density_pair(
        *(replace(poly, phases=-poly.phases)
          for poly in (pair.f.closed_form, pair.g.closed_form)), pair.grid)
    return mirrored, cold(mirrored)


def test_the_shift_rolls_the_densities(case):
    pair, moved, _, _ = case
    assert np.max(np.abs(moved.f_values - roll(pair.f_values))) < 1e-14
    assert np.max(np.abs(moved.g.values - roll(pair.g.values))) < 1e-14


def test_grid_translation_rolls_the_knothe_potentials(case):
    pair, moved, _, _ = case
    kn = tot.knothe_solution(pair).potentials
    kn_moved = tot.knothe_solution(moved).potentials
    assert np.max(np.abs(kn_moved.u1 - roll(kn.u1))) <= KNOTHE_BOUND
    assert (np.max(np.abs(kn_moved.u2.values - roll(kn.u2.values)))
            <= KNOTHE_BOUND)
    assert np.allclose(kn_moved.margins, kn.margins, rtol=0.0,
                       atol=MARGIN_BOUND)


def test_grid_translation_rolls_the_cold_potential(case):
    pair, moved, _, reference = case
    res = cold(moved)
    assert res.sup_residual <= 1e-10
    gap = np.max(np.abs(res.potential.values - roll(reference.potential.values)))
    assert gap <= COLD_BOUND
    assert abs(res.margin - reference.margin) <= MARGIN_BOUND


def test_axis_swap_transposes_the_cold_potential_at_the_identity(case):
    _, _, swap, reference = case
    res = cold(swap)
    assert res.sup_residual <= 1e-10
    gap = np.max(np.abs(res.potential.values - reference.potential.values.T))
    assert gap <= COLD_BOUND
    assert abs(res.margin - reference.margin) <= MARGIN_BOUND


def test_reflection_reflects_the_knothe_potentials(case, mirror):
    pair = case[0]
    kn = tot.knothe_solution(pair).potentials
    kn_mirror = tot.knothe_solution(mirror[0]).potentials
    assert np.max(np.abs(kn_mirror.u1 - reflect(kn.u1))) <= KNOTHE_BOUND
    assert (np.max(np.abs(kn_mirror.u2.values - reflect(kn.u2.values)))
            <= KNOTHE_BOUND)
    assert np.allclose(kn_mirror.margins, kn.margins, rtol=0.0,
                       atol=MARGIN_BOUND)


def test_reflection_reflects_the_cold_potential(case, mirror):
    reference, res = case[3], mirror[1]
    assert res.sup_residual <= 1e-10
    gap = np.max(np.abs(res.potential.values - reflect(reference.potential.values)))
    assert gap <= COLD_BOUND
    assert abs(res.margin - reference.margin) <= MARGIN_BOUND


def test_the_knothe_maps_of_both_directions_are_inverses(case):
    pair = case[0]
    error = knothe_inverse_error(tot.knothe_solution(pair),
                                 tot.knothe_solution(reversed_pair(pair)))
    assert error <= INVERSE_BOUND[pair.grid.n1]


@pytest.fixture(scope="module", params=list(PAIRS))
def pair_at_128(request):
    f_modes, g_modes = PAIRS[request.param]
    return tot.make_density_pair(tot.spec(*f_modes), tot.spec(*g_modes),
                                 tot.build_grid(128, 128))


def test_the_cold_maps_of_both_directions_are_inverses(pair_at_128):
    error = map_inverse_error(cold(pair_at_128).tmap,
                              cold(reversed_pair(pair_at_128)).tmap)
    assert error <= MAP_INVERSE_BOUND


def test_the_continuation_maps_of_both_directions_are_inverses(pair_at_128):
    options = tot.ContinuationOptions(steps=8)
    forward = tot.run(pair_at_128, options=options)
    back = tot.run(reversed_pair(pair_at_128), options=options)
    assert np.array_equal(forward.times(), back.times())
    for i in (0, 4, -1):
        error = map_inverse_error(forward.records[i].tmap,
                                  back.records[i].tmap)
        assert error <= MAP_INVERSE_BOUND
