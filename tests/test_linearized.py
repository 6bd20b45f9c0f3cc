import numpy as np
import pytest

import tot
from tot.errors import ConvergenceError
from tot.grid import derivative_bundle, deriv_values
from tot.linearized import (_half_dot, _kernels, _pcg, coefficient_arrays,
                            split_coefficients)
from tot.monge_ampere import residual_state
from tot.trig import frac

from tests.conftest import (admissible_potential, assembled_state,
                            band_limited, split_operator_residual)


def random_state(grid, pair, rng, a22=1.0, t=1.0):
    cost = tot.CostMatrix(t, a22, 1.0)
    u = tot.field(grid, admissible_potential(grid, 4, rng, a22=a22))
    assert tot.c_concavity_margin(cost, u) > 0.0
    return cost, u


def zero_state(pair, cost=None):
    """Residual state of the zero potential (A = I by default)."""
    return residual_state(cost or tot.identity_cost(), np.zeros(pair.grid.n1),
                          np.zeros(pair.grid.shape), pair)


def test_apply_reduces_to_laplacian(uniform_pair64, grid64):
    x1, x2 = grid64.mesh()
    v = tot.field(grid64, np.cos(2 * np.pi * x1) + 0 * x2)
    out = tot.apply_linearized(zero_state(uniform_pair64), v)
    expected = -4 * np.pi ** 2 * np.cos(2 * np.pi * x1) + 0 * x2
    assert np.max(np.abs(out.values - expected)) < 1e-11


def test_apply_kills_constants(pair64, grid64):
    v = tot.field(grid64, np.full(grid64.shape, 2.3))
    out = tot.apply_linearized(zero_state(pair64), v)
    assert np.max(np.abs(out.values)) < 1e-12


def test_apply_matches_directional_difference(pair64, grid64):
    rng = np.random.default_rng(21)
    h = 1e-5
    for _ in range(3):
        cost, u = random_state(grid64, pair64, rng)
        v = tot.field(grid64, admissible_potential(grid64, 4, rng))
        fp = tot.monge_ampere_residual(
            cost, tot.field(grid64, u.values + h * v.values), pair64)
        fm = tot.monge_ampere_residual(
            cost, tot.field(grid64, u.values - h * v.values), pair64)
        fd = (fp.values - fm.values) / (2 * h)
        out = tot.apply_linearized(assembled_state(cost, u, pair64), v)
        rel = np.linalg.norm(fd - out.values) / np.linalg.norm(out.values)
        assert rel < 1e-7


def test_rhs_zero_when_no_x2_dependence(pair64, grid64):
    x1, x2 = grid64.mesh()
    u = tot.field(grid64, 1e-3 * np.cos(2 * np.pi * x1) + 0 * x2)
    cost = tot.CostSchedule.linear().matrix(0.5)
    out = tot.cost_rate_rhs(assembled_state(cost, u, pair64))
    assert np.max(np.abs(out.values)) < 1e-12


def test_rhs_single_mode_closed_form(uniform_pair64, grid64):
    # u = lam * a cos(2 pi k x2) with f = g = 1 gives, in closed form,
    # rhs = -(lamdot/lam) a (2 pi k)^2 cos(2 pi k x2)
    sched = tot.CostSchedule.linear()
    t = 0.7
    cost = sched.matrix(t)
    a, k = 1e-3, 2
    x1, x2 = grid64.mesh()
    u = tot.field(grid64, cost.a22 * a * np.cos(2 * np.pi * k * x2) + 0 * x1)
    out = tot.cost_rate_rhs(assembled_state(cost, u, uniform_pair64))
    expected = -(cost.a22dot / cost.a22) * a * (2 * np.pi * k) ** 2 \
        * np.cos(2 * np.pi * k * x2) + 0 * x1
    assert np.max(np.abs(out.values - expected)) < 1e-10


def test_rhs_matches_cost_difference(pair64, grid64):
    rng = np.random.default_rng(22)
    sched = tot.CostSchedule.linear()
    t, h = 0.7, 1e-5
    for _ in range(3):
        cost, u = random_state(grid64, pair64, rng, a22=t, t=t)
        fp = tot.monge_ampere_residual(sched.matrix(t + h), u, pair64)
        fm = tot.monge_ampere_residual(sched.matrix(t - h), u, pair64)
        fd = (fp.values - fm.values) / (2 * h)
        rhs = tot.cost_rate_rhs(assembled_state(cost, u, pair64))
        rel = np.linalg.norm(fd + rhs.values) / np.linalg.norm(rhs.values)
        assert rel < 1e-7


def test_solve_poisson_mode(uniform_pair64, grid64):
    x1, x2 = grid64.mesh()
    q = tot.field(grid64, np.cos(2 * np.pi * x1) + 0 * x2, zero_mean=True)
    v = tot.solve_linearized(zero_state(uniform_pair64), q, tol=1e-12)
    expected = -np.cos(2 * np.pi * x1) / (4 * np.pi ** 2) + 0 * x2
    assert np.max(np.abs(v.values - expected)) < 1e-13


def test_solve_recovers_forward_input(pair64, grid64):
    rng = np.random.default_rng(23)
    st = assembled_state(*random_state(grid64, pair64, rng), pair64)
    w = tot.field(grid64, admissible_potential(grid64, 5, rng))
    q = tot.apply_linearized(st, w)
    v = tot.solve_linearized(st, q, tol=1e-12)
    assert np.max(np.abs(v.values - w.values)) < 1e-10


def test_half_spectrum_inner_product_is_parseval():
    # the solver's inner product on rfft2 spectra is n times the real-space
    # one, Nyquist column and row included
    rng = np.random.default_rng(26)
    for shape in ((8, 8), (12, 16), (64, 32)):
        a, c = rng.standard_normal((2, *shape))
        expected = a.size * float(np.sum(a * c))
        got = _half_dot(np.fft.rfft2(a), np.fft.rfft2(c))
        bound = a.size * np.linalg.norm(a) * np.linalg.norm(c)
        assert abs(got - expected) < 1e-13 * bound


def test_solve_rejects_nonzero_mean(pair64, grid64):
    q = tot.field(grid64, np.ones(grid64.shape))
    with pytest.raises(ValueError, match="zero mean"):
        tot.solve_linearized(zero_state(pair64), q)


def test_solve_iteration_cap_raises(pair64, grid64):
    # the solve of solve_linearized at A = I and u = 0, capped at 1 iteration
    rng = np.random.default_rng(25)
    b11, b12, b22 = coefficient_arrays(zero_state(pair64))
    kern = _kernels(*grid64.shape)
    inverse = kern.mean_coefficient_inverse(np.mean(b11), np.mean(b12),
                                            np.mean(b22))
    rhs = kern.solvable_spectrum(band_limited(grid64, 5, rng))
    with pytest.raises(ConvergenceError) as info:
        _pcg(lambda spec: kern.flux_divergence(b11, b12, b22, spec), inverse,
             rhs, 1e-14, 1)
    assert info.value.residual > 1e-14 and info.value.iterations == 1


def test_pcg_raises_at_once_on_an_indefinite_operator(grid64):
    # symbol -1 on the even rows k1 and +3 on the odd ones: the first
    # direction p = -b has p.Ap = 3 |b_odd|^2 - |b_even|^2 > 0 here, which
    # no negative definite operator gives (CG with two eigenvalues would
    # go on to a solution in 2 iterations)
    kern = _kernels(*grid64.shape)
    rhs = kern.solvable_spectrum(band_limited(grid64, 5, np.random.default_rng(28)))
    symbol = np.where(np.arange(rhs.shape[0])[:, None] % 2 == 0, -1.0, 3.0)
    applied = []

    def apply_op(spec):
        applied.append(1)
        return symbol * spec

    with pytest.raises(ConvergenceError, match="not negative definite") as info:
        _pcg(apply_op, -np.ones(rhs.shape), rhs, 1e-10, 100)
    assert len(applied) == 1 and info.value.iterations == 0


def test_operator_symmetry(pair64, grid64):
    rng = np.random.default_rng(26)
    st = assembled_state(*random_state(grid64, pair64, rng), pair64)
    n = grid64.n1 * grid64.n2
    for _ in range(5):
        v = tot.field(grid64, admissible_potential(grid64, 5, rng))
        w = tot.field(grid64, admissible_potential(grid64, 5, rng))
        lv = tot.apply_linearized(st, v).values
        lw = tot.apply_linearized(st, w).values
        left = float(np.sum(w.values * lv)) / n
        right = float(np.sum(v.values * lw)) / n
        assert abs(left - right) <= 1e-10 * max(abs(left), abs(right), 1e-30)


@pytest.mark.parametrize("a22", [1.0, 0.1])
def test_operator_coercivity(pair64, grid64, a22):
    # -<v, Lv> >= delta * eps * ||grad v||^2 with delta = min g and
    # eps = margin / max(1, a22)
    rng = np.random.default_rng(27)
    cost = tot.CostMatrix(a22, a22, 1.0)
    u = tot.field(grid64, admissible_potential(grid64, 4, rng, a22=a22))
    margin = tot.c_concavity_margin(cost, u)
    assert margin > 0.0
    oversampled = 4 * grid64.n1
    delta = pair64.g_poly.min_on_grid(oversampled, oversampled)
    eps = margin / max(1.0, a22)
    st = assembled_state(cost, u, pair64)
    for _ in range(20):
        v = tot.field(grid64, band_limited(grid64, 6, rng))
        lv = tot.apply_linearized(st, v).values
        quad = -float(np.mean(v.values * lv))
        g1 = deriv_values(v.values, 0, 1)
        g2 = deriv_values(v.values, 1, 1)
        grad_sq = float(np.mean(g1 ** 2 + g2 ** 2))
        assert quad >= delta * eps * grad_sq * (1.0 - 1e-12)


def test_split_coefficients_reconstruct_b(pair64, knothe64):
    sched = tot.CostSchedule.linear()
    t = 5e-3
    lam = sched.lam(t)
    u1, u2 = knothe64.potentials.u1, knothe64.potentials.u2
    split = split_coefficients(t, u1, u2, pair64, sched)
    # reference: B = g(T) adj(A - D^2 u) / det A, det A = lam, with grad u
    # and D^2 u of u1 + lam u2 scaled by lam after differentiation and
    # T = x - A^{-1} grad u
    d1, d2, d11, d12, d22 = derivative_bundle(u2.values)
    grad1 = deriv_values(u1, 0, 1)[:, None] + lam * d1
    grad2 = lam * d2
    h11 = deriv_values(u1, 0, 2)[:, None] + lam * d11
    h12, h22 = lam * d12, lam * d22
    x1, x2 = pair64.grid.mesh()
    g = pair64.g_poly(frac(x1 - grad1), frac(x2 - grad2 / lam))
    b11, b12, b22 = g * (lam - h22) / lam, g * h12 / lam, g * (1.0 - h11) / lam
    assert np.max(np.abs(split.u11 - b11)) < 1e-11 * np.max(np.abs(b11))
    assert np.max(np.abs(split.u12 - b12)) \
        < 1e-11 * max(np.max(np.abs(b12)), 1e-3)
    assert np.max(np.abs(split.v22 / split.lam - b22)) \
        < 1e-11 * np.max(np.abs(b22))
    assert np.min(split.v22) > 0.0
    # the residual state's B, from the same factors, against the reference
    st = residual_state(sched.matrix(t), u1, u2.values, pair64)
    for got, want in zip(coefficient_arrays(st), (b11, b12, b22)):
        assert np.max(np.abs(got - want)) \
            < 1e-11 * max(np.max(np.abs(want)), 1e-3)


# ---------------------------------------------------------------------------
# t = 0 triangular solve

def test_solve_t0_zero_rhs(pair64, knothe64, grid64):
    v1, v2 = tot.solve_linearized_t0(knothe64.potentials.u1,
                                     knothe64.potentials.u2, pair64,
                                     tot.zero_field(grid64))
    assert np.max(np.abs(v1)) == 0.0
    assert np.max(np.abs(v2.values)) == 0.0


def test_solve_t0_decoupled_poisson(uniform_pair64, grid64):
    x1, x2 = grid64.mesh()
    q = tot.field(grid64, np.cos(2 * np.pi * x1) + 0 * x2, zero_mean=True)
    v1, v2 = tot.solve_linearized_t0(np.zeros(grid64.n1),
                                     tot.zero_field(grid64), uniform_pair64, q)
    expected = -np.cos(2 * np.pi * grid64.nodes1()) / (4 * np.pi ** 2)
    assert np.max(np.abs(v1 - expected)) < 1e-13
    assert np.max(np.abs(v2.values)) < 1e-13


def test_solve_t0_forward_recovery(pair128, knothe128):
    rng = np.random.default_rng(28)
    grid = pair128.grid
    q = tot.project_zero_mean(tot.field(grid, band_limited(grid, 3, rng)))
    u1 = knothe128.potentials.u1
    u2 = knothe128.potentials.u2
    v1, v2 = tot.solve_linearized_t0(u1, u2, pair128, q)
    back = tot.apply_linearized_t0(u1, u2, pair128, v1, v2)
    assert np.max(np.abs(back.values - q.values)) < 1e-8
    # normalization: v1 zero-mean, v2 fiberwise zero-mean
    assert abs(np.mean(v1)) < 1e-14
    assert np.max(np.abs(v2.values.mean(axis=1))) < 1e-14


# ---------------------------------------------------------------------------
# small t

def test_small_t_pure_fiber_data(uniform_pair64, grid64):
    # int q dx2 = 0 for every x1 and decoupled coefficients: the averaged
    # equation has zero data and v1 = 0; a single fiber solve suffices
    x1, x2 = grid64.mesh()
    q = tot.field(grid64, np.sin(2 * np.pi * x2) * (1 + 0.3 * np.cos(2 * np.pi * x1)),
                  zero_mean=True)
    st = zero_state(uniform_pair64, tot.CostSchedule.linear().matrix(1e-4))
    v1, v2 = tot.solve_linearized_small_t(st, q, tol=1e-11)
    assert np.max(np.abs(v1)) < 1e-12
    assert np.max(np.abs(v2.values)) > 0.0


@pytest.mark.parametrize("t", [1e-4, 1e-3, 1e-2])
def test_small_t_solves_split_operator(pair128, knothe128, t):
    rng = np.random.default_rng(29)
    grid = pair128.grid
    u1 = knothe128.potentials.u1
    u2 = knothe128.potentials.u2
    q = tot.project_zero_mean(tot.field(grid, band_limited(grid, 3, rng)))
    st = residual_state(tot.CostSchedule.linear().matrix(t), u1, u2.values,
                        pair128)
    v1, v2 = tot.solve_linearized_small_t(st, q, tol=1e-11)
    assert split_operator_residual(t, u1, u2, pair128, q, v1, v2) <= 1e-6
    # normalization: v1 zero-mean, v2 fiberwise zero-mean
    assert abs(np.mean(v1)) < 1e-14
    assert np.max(np.abs(v2.values.mean(axis=1))) < 1e-11
