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

Each oracle compares two solves of different problems, so neither checks
a function against itself.  The margins of the certifying states, min
eig(A - D^2 u) over the nodes, are invariant under both maps and give a
second check of the margin of a solved result.

Bounds, from measurements on these pairs at 64^2 and 128^2: the Knothe
potentials agreed to 6e-17 and the cold potentials to 6e-17, except where
one orientation took one more Newton step (2.3e-14, pair (600, 1) at
128^2, whose margins, of second derivatives, then differed by 3.1e-12).
Two potentials that both meet the tolerance 1e-10 may differ by about
1e-10 / (4 pi^2 min g), hence 1e-11 for the cold solves.
"""

import numpy as np
import pytest

import tot

# the standard pair and two pairs of the benchmark's class (seed 600,
# instances 0 and 1: three of the four |k|_inf = 1 wavevectors at
# amplitude 0.15, random phases)
PAIRS = {
    "standard": (tot.CATALOG["standard_f"].modes,
                 tot.CATALOG["standard_g"].modes),
    "bench600-0": (((1, 0, 0.15, 0.0658327413554176),
                    (0, 1, 0.15, 3.625767832644896),
                    (1, -1, 0.15, 5.650503810266992)),
                   ((1, 0, 0.15, 4.030714720830465),
                    (0, 1, 0.15, 0.6646441064147512),
                    (1, -1, 0.15, 3.661318256080821))),
    "bench600-1": (((0, 1, 0.15, 3.095094474464738),
                    (1, 1, 0.15, 4.817858535451407),
                    (1, -1, 0.15, 4.926992068447078)),
                   ((1, 0, 0.15, 2.0098195457802652),
                    (1, 1, 0.15, 0.9328072015687682),
                    (1, -1, 0.15, 3.5355579920422486))),
}
SHIFT = (3, 5)          # nodes along x1 and x2
KNOTHE_BOUND = 1e-13
COLD_BOUND = 1e-11
MARGIN_BOUND = 1e-10


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
