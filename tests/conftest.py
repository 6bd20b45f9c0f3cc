"""Shared fixtures and field generators for the test suite.

Heavy artifacts (Knothe solutions, continuation runs, the 256^2 state)
are session-scoped so that the module suites and the acceptance suite
share one computation.
"""

import numpy as np
import pytest

import tot
from tot.continuation import _damped_newton, _solve_at
from tot.grid import derivative_bundle, deriv_values
from tot.linearized import split_coefficients
from tot.monge_ampere import residual_state, split_values


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


def split_operator_residual(t, u1, u2, pair, q, v1, v2):
    """Relative L2 residual of Div(B grad(v1 + lambda v2)) = q, with B in
    the split form U + V / lambda of ``split_coefficients``.

    Every term is formed from (v1, v2) and O(1) coefficients, so the check
    does not share the assembled coefficients the PCG solve uses:

        d1[U11 w + lambda U12 d2 v2] + d2[U12 w + V22 d2 v2],
        w = d1 v1 + lambda d1 v2.
    """
    split = split_coefficients(t, u1, u2, pair)
    lam, u11, u12 = split.lam, split.u11, split.u12
    w = deriv_values(v1, 0, 1)[:, None] + lam * deriv_values(v2.values, 0, 1)
    d2v2 = deriv_values(v2.values, 1, 1)
    out = (deriv_values(u11 * w + lam * u12 * d2v2, 0, 1)
           + deriv_values(u12 * w + split.v22 * d2v2, 1, 1))
    return float(np.sqrt(np.mean((out - q.values) ** 2) / np.mean(q.values ** 2)))


def single_grid_newton(pair, start=None, tol=1e-10, max_iter=20):
    """Damped Newton at A = I on the pair's grid alone, from zero by
    default."""
    grid, cost = pair.grid, tot.identity_cost()
    (values,), st, iterations = _damped_newton(
        (np.zeros(grid.shape) if start is None else start,),
        lambda x: residual_state(cost, *split_values(x[0], cost.a22), pair),
        lambda st, q, inner_tol: (_solve_at(grid, st, q, inner_tol),),
        tol, max_iter)
    return values, st, iterations


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
    return tot.product_pair(grid128)


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
