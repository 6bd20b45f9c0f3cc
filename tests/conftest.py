"""Shared fixtures and field generators for the test suite.

Heavy artifacts (Knothe solutions, continuation runs, the 256^2 state)
are session-scoped so that the module suites and the acceptance suite
share one computation.
"""

import numpy as np
import pytest

import tot
from tot.grid import derivative_bundle, deriv_values
from tot.linearized import split_coefficients
from tot.monge_ampere import residual_state, split_values

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


def band_limited(grid, kmax, rng, include_x1_only=True):
    """Random zero-mean trigonometric polynomial with |k|_inf <= kmax."""
    x1, x2 = grid.mesh()
    v = np.zeros(grid.shape)
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(0, kmax + 1):
            if k2 == 0 and (k1 <= 0 or not include_x1_only):
                continue
            phase = 2.0 * np.pi * (k1 * x1 + k2 * x2)
            v += rng.normal() * np.cos(phase) + rng.normal() * np.sin(phase)
    return v - v.mean()


def admissible_potential(grid, kmax, rng, margin_target=0.3, a22=1.0):
    """Random potential scaled so that A - D^2(u) keeps a safe margin."""
    v = band_limited(grid, kmax, rng)
    h11, h12, h22 = derivative_bundle(v)[2:]
    bound = max(np.max(np.abs(h11)) + np.max(np.abs(h12)),
                (np.max(np.abs(h22)) + np.max(np.abs(h12))) / a22)
    return (1.0 - margin_target) * min(1.0, a22) * v / bound


def assembled_state(cost, u, pair):
    """Residual state of the assembled potential u, split first."""
    return residual_state(cost, *split_values(u.values, cost.a22), pair)


def split_operator_residual(lam, u1, u2, pair, q, v1, v2):
    """Relative L2 residual of Div(B grad(v1 + lambda v2)) = q at
    lambda = ``lam``, with B in the split form U + V / lambda of
    ``split_coefficients``.

    Every term is formed from (v1, v2) and O(1) coefficients, so the check
    does not share the assembled coefficients the PCG solve uses:

        d1[U11 w + lambda U12 d2 v2] + d2[U12 w + V22 d2 v2],
        w = d1 v1 + lambda d1 v2.
    """
    u11, u12, v22 = split_coefficients(lam, u1, u2, pair)
    w = deriv_values(v1, 0, 1)[:, None] + lam * deriv_values(v2.values, 0, 1)
    d2v2 = deriv_values(v2.values, 1, 1)
    out = (deriv_values(u11 * w + lam * u12 * d2v2, 0, 1)
           + deriv_values(u12 * w + v22 * d2v2, 1, 1))
    return float(np.sqrt(np.mean((out - q.values) ** 2) / np.mean(q.values ** 2)))


def single_grid_newton(pair, start=None, tol=1e-10, max_iter=20):
    """Damped Newton at A = I (t = 1) on the pair's grid alone, from zero
    by default: (potential values, result, iterations)."""
    grid = pair.grid
    u1, u2 = split_values(np.zeros(grid.shape) if start is None else start, 1.0)
    res = tot.newton_correct_split(tot.identity_cost(), u1,
                                   tot.field(grid, u2), pair, tol=tol,
                                   max_iter=max_iter)
    return res.potential.values, res, res.iterations


@pytest.fixture(scope="session")
def grid64():
    return tot.build_grid(64, 64)


@pytest.fixture(scope="session")
def grid128():
    return tot.build_grid(128, 128)


@pytest.fixture(scope="session")
def pair64(grid64):
    return tot.standard_pair(grid64)


@pytest.fixture(scope="session")
def pair128(grid128):
    return tot.standard_pair(grid128)


@pytest.fixture(scope="session")
def product128(grid128):
    return tot.make_density_pair(tot.CATALOG["product_f"],
                                 tot.CATALOG["product_g"], grid128)


@pytest.fixture(scope="session")
def uniform_pair64(grid64):
    return tot.make_density_pair(tot.CATALOG["uniform"], tot.CATALOG["uniform"],
                                 grid64)


@pytest.fixture(scope="session")
def knothe64(pair64):
    return tot.knothe_solution(pair64)


@pytest.fixture(scope="session")
def knothe128(pair128):
    return tot.knothe_solution(pair128)


@pytest.fixture(scope="session")
def knothe_product128(product128):
    return tot.knothe_solution(product128)


@pytest.fixture(scope="session")
def cold_newton128(pair128, grid128):
    return tot.newton_correct(tot.identity_cost(), tot.zero_field(grid128),
                              pair128, tol=1e-10)


@pytest.fixture(scope="session")
def traj32(pair128):
    return tot.run(pair128)


@pytest.fixture(scope="session")
def traj_product32(product128):
    return tot.run(product128)


@pytest.fixture(scope="session")
def traj64(pair128):
    return tot.run(pair128, options=tot.ContinuationOptions(steps=64))


@pytest.fixture(scope="session")
def grid256():
    return tot.build_grid(256, 256)


@pytest.fixture(scope="session")
def pair256(grid256):
    return tot.standard_pair(grid256)


@pytest.fixture(scope="session")
def knothe256(pair256):
    return tot.knothe_solution(pair256)


@pytest.fixture(scope="session")
def traj256_short(pair256):
    return tot.run(pair256, options=tot.ContinuationOptions(steps=8))
