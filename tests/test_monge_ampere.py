import numpy as np
import pytest

import tot
from tot.errors import AdmissibilityError, ConcavityError
from tot.grid import derivative_bundle
from tot.monge_ampere import check_admissible, split_residual_values
from tot.transport1d import potential_1d
from tot.trig import TrigPoly1D, frac

from tests.conftest import admissible_potential


def test_cost_schedule_basics():
    lin = tot.CostSchedule.linear()
    assert lin.lam(0.3) == 0.3 and lin.lam_dot(0.3) == 1.0
    cubic = tot.CostSchedule.power(3)
    assert abs(cubic.lam(0.5) - 0.125) < 1e-15
    assert abs(cubic.lam_dot(0.5) - 0.75) < 1e-15
    for p in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite p >= 1"):
            tot.CostSchedule.power(p)
    with pytest.raises(ValueError):
        lin.matrix(0.0)
    with pytest.raises(ValueError):
        tot.CostMatrix(0.0, 0.0, 1.0)


def test_margin_of_plain_costs(grid64):
    cost = tot.CostMatrix(0.5, 0.5, 1.0)
    assert abs(tot.c_concavity_margin(cost, tot.zero_field(grid64)) - 0.5) < 1e-14

    x1, x2 = grid64.mesh()
    u = tot.field(grid64, 0.1 / (4 * np.pi ** 2) * np.cos(2 * np.pi * x1) + 0 * x2)
    assert abs(tot.c_concavity_margin(tot.identity_cost(), u) - 0.9) < 1e-12


def test_margin_keeps_an_eigenvalue_far_below_rounding(grid64):
    # a22 = 1e-30 is 1e-30 of 1 - d11 u: half-trace minus radius cancels to
    # 0 there, and det over the larger eigenvalue keeps it to rounding
    x1, x2 = grid64.mesh()
    cost = tot.CostMatrix(1e-3, 1e-30, 1e-26)
    for eps in (1e-4, 1e-3, 1e-2):
        u = tot.field(grid64, eps * np.cos(2 * np.pi * x1) + 0 * x2)
        margin = tot.c_concavity_margin(cost, u)
        assert abs(margin - 1e-30) <= 4 * np.finfo(float).eps * 1e-30


def test_residual_zero_for_equal_densities(grid64):
    pair = tot.make_density_pair(tot.CATALOG["standard_f"],
                                 tot.CATALOG["standard_f"], grid64)
    r = tot.monge_ampere_residual(tot.identity_cost(), tot.zero_field(grid64), pair)
    assert np.max(np.abs(r.values)) < 1e-13


def test_residual_separable_exact(product128):
    # exact solution u1(x1) + lambda u2(x2) from 1D potentials
    grid = product128.grid
    f1 = tot.circle_density(closed_form=TrigPoly1D.from_modes([(1, 0.2, 0.0)]),
                            m=grid.n1)
    g1 = tot.circle_density(closed_form=TrigPoly1D.from_modes([(1, 0.15, 0.0)]),
                            m=grid.n1)
    f2 = tot.circle_density(closed_form=TrigPoly1D.from_modes([(1, 0.15, 0.0)]),
                            m=grid.n2)
    g2 = tot.circle_density(closed_form=TrigPoly1D.from_modes([(1, 0.25, 0.0)]),
                            m=grid.n2)
    u1 = potential_1d(f1, g1)
    u2 = potential_1d(f2, g2)
    sched = tot.CostSchedule.linear()
    t = 0.1
    psi = tot.field(grid, u1[:, None] + sched.lam(t) * u2[None, :])
    r = tot.monge_ampere_residual(sched.matrix(t), psi, product128)
    assert np.max(np.abs(r.values)) < 1e-8


def test_residual_first_order_expansion(grid128):
    # f = g = 1, u = eps cos(2 pi x1): residual = -4 pi^2 eps cos + O(eps^2)
    pair = tot.make_density_pair(tot.CATALOG["uniform"], tot.CATALOG["uniform"],
                                 grid128)
    eps = 1e-6
    x1, x2 = grid128.mesh()
    u = tot.field(grid128, eps * np.cos(2 * np.pi * x1) + 0 * x2)
    r = tot.monge_ampere_residual(tot.identity_cost(), u, pair)
    predicted = -4 * np.pi ** 2 * eps * np.cos(2 * np.pi * x1) + 0 * x2
    assert np.max(np.abs(r.values - predicted)) < 1e-9


def test_residual_requires_concavity(grid64, pair64):
    x1, x2 = grid64.mesh()
    u = tot.field(grid64, 0.2 * np.cos(2 * np.pi * x1) + 0 * x2)
    with pytest.raises(ConcavityError, match="not c-concave"):
        tot.monge_ampere_residual(tot.identity_cost(), u, pair64)


def test_residual_mean_is_tiny_when_margin_positive(pair64):
    rng = np.random.default_rng(11)
    grid = pair64.grid
    u = tot.field(grid, admissible_potential(grid, 3, rng))
    r = tot.monge_ampere_residual(tot.identity_cost(), u, pair64)
    assert abs(np.mean(r.values)) < 1e-10


def test_residual_relabel_symmetry(grid64):
    # swapping the coordinate labels everywhere transposes the residual
    f_spec = tot.CATALOG["standard_f"]
    g_spec = tot.CATALOG["standard_g"]
    swap = lambda spec: tot.DensitySpec(tuple((k2, k1, a, p)
                                              for k1, k2, a, p in spec.modes))
    pair = tot.make_density_pair(f_spec, g_spec, grid64)
    pair_swapped = tot.make_density_pair(swap(f_spec), swap(g_spec), grid64)
    rng = np.random.default_rng(12)
    u = admissible_potential(grid64, 3, rng)
    cost = tot.identity_cost()
    r = tot.monge_ampere_residual(cost, tot.field(grid64, u), pair)
    r_swapped = tot.monge_ampere_residual(cost, tot.field(grid64, u.T), pair_swapped)
    assert np.max(np.abs(r.values - r_swapped.values.T)) < 1e-12


def test_margin_recovers_under_damping(grid64):
    rng = np.random.default_rng(13)
    raw = admissible_potential(grid64, 4, rng) * 8.0   # force a negative margin
    cost = tot.identity_cost()
    assert tot.c_concavity_margin(cost, tot.field(grid64, raw)) < 0.0
    margins = [tot.c_concavity_margin(cost, tot.field(grid64, s * raw))
               for s in (0.2, 0.1, 0.05, 0.01)]
    assert margins[-1] > 0.0
    assert all(b > a for a, b in zip(margins, margins[1:]))


# ---------------------------------------------------------------------------
# decomposed residual

def test_decomposed_residual_matches_plain_bitwise(pair64, knothe64):
    u1 = knothe64.potentials.u1
    u2 = knothe64.potentials.u2
    sched = tot.CostSchedule.linear()
    for t in (1.0, 0.1, 1e-3):
        g = tot.decomposed_residual(t, u1, u2, pair64, sched)
        combined = tot.field(pair64.grid, u1[:, None] + sched.lam(t) * u2.values)
        f = tot.monge_ampere_residual(sched.matrix(t), combined, pair64)
        assert np.array_equal(g.values, f.values)


def test_decomposed_residual_knothe_identity_at_zero(pair128, knothe128):
    r = tot.decomposed_residual(0.0, knothe128.potentials.u1,
                                knothe128.potentials.u2, pair128)
    assert np.max(np.abs(r.values)) < 1e-8


def test_decomposed_residual_zero_for_equal_densities(grid64):
    pair = tot.make_density_pair(tot.CATALOG["standard_g"],
                                 tot.CATALOG["standard_g"], grid64)
    u1 = np.zeros(grid64.n1)
    r = tot.decomposed_residual(0.0, u1, tot.zero_field(grid64), pair)
    assert np.max(np.abs(r.values)) < 1e-13


def test_decomposed_residual_continuous_at_zero(pair128, knothe128):
    u1 = knothe128.potentials.u1
    u2 = knothe128.potentials.u2
    r0 = tot.decomposed_residual(0.0, u1, u2, pair128)
    rt = tot.decomposed_residual(1e-4, u1, u2, pair128)
    assert np.max(np.abs(rt.values - r0.values)) < 1e-3


def test_split_evaluation_matches_assembled(pair64, knothe64):
    # the numerically robust split form is the same operator as
    # f - g(x - A^{-1} grad u) det(I - A^{-1} D^2 u) of the assembled u
    u1 = knothe64.potentials.u1
    u2 = knothe64.potentials.u2
    lam = 0.2
    u = u1[:, None] + lam * u2.values
    d1, d2, d11, d12, d22 = derivative_bundle(u)
    x1, x2 = pair64.grid.mesh()
    g = pair64.g_poly(frac(x1 - d1), frac(x2 - d2 / lam))
    r = pair64.f_values - g * ((1.0 - d11) * (1.0 - d22 / lam) - d12 * d12 / lam)
    for s in (split_residual_values(lam, u1, u2.values, pair64),
              tot.decomposed_residual(lam, u1, u2, pair64).values):
        assert np.max(np.abs(r - s)) < 1e-11


def test_admissibility_errors_name_the_inequality(grid64, pair64):
    x1, x2 = grid64.mesh()
    bad_u1 = 0.1 * np.cos(2 * np.pi * grid64.nodes1())
    with pytest.raises(AdmissibilityError, match="d11 u1"):
        check_admissible(bad_u1, np.zeros(grid64.shape))
    bad_u2 = 0.1 * np.cos(2 * np.pi * x2) + 0.0 * x1
    with pytest.raises(AdmissibilityError, match="d22 u2"):
        check_admissible(np.zeros(grid64.n1), bad_u2)


def test_decomposed_residual_raises_on_the_margin_at_positive_t(grid64, pair64):
    # at t > 0 the margin of the residual state is the admissibility test
    bad_u1 = 0.1 * np.cos(2 * np.pi * grid64.nodes1())
    with pytest.raises(ConcavityError, match="not c-concave"):
        tot.decomposed_residual(0.2, bad_u1, tot.zero_field(grid64), pair64)
    with pytest.raises(AdmissibilityError, match="d11 u1"):
        tot.decomposed_residual(0.0, bad_u1, tot.zero_field(grid64), pair64)


# ---------------------------------------------------------------------------
# transport map and pushforward

def test_transport_identity(uniform_pair64, grid64):
    tmap = tot.transport_map(tot.identity_cost(), tot.zero_field(grid64))
    x1, x2 = grid64.mesh()
    assert np.max(np.abs(tmap.v1.values - x1)) == 0.0
    assert np.max(np.abs(tmap.v2.values - x2)) == 0.0
    assert tot.pushforward_residual(tmap, uniform_pair64, 4) < 1e-14


def test_transport_map_requires_diffeomorphism(grid64):
    x1, x2 = grid64.mesh()
    u = tot.field(grid64, 0.2 * np.cos(2 * np.pi * x1) + 0 * x2)
    with pytest.raises(ConcavityError, match="not a diffeomorphism"):
        tot.transport_map(tot.identity_cost(), u)


def test_pushforward_marginal_only_pair():
    grid = tot.build_grid(128, 128)
    pair = tot.make_density_pair(tot.CATALOG["marginal_only_f"],
                                 tot.CATALOG["marginal_only_g"], grid)
    f1 = tot.circle_density(closed_form=TrigPoly1D.from_modes([(1, 0.3, 0.0)]),
                            m=grid.n1)
    g1 = tot.circle_density(closed_form=TrigPoly1D.from_modes([(1, 0.2, 0.5)]),
                            m=grid.n1)
    u1 = potential_1d(f1, g1)
    psi = tot.field(grid, np.broadcast_to(u1[:, None], grid.shape).copy())
    tmap = tot.transport_map(tot.identity_cost(), psi)
    assert tot.pushforward_residual(tmap, pair, 4) < 1e-8


def test_pushforward_detects_wrong_map(uniform_pair64, grid64):
    rng = np.random.default_rng(14)
    u = tot.field(grid64, admissible_potential(grid64, 2, rng))
    tmap = tot.transport_map(tot.identity_cost(), u)
    assert tot.pushforward_residual(tmap, uniform_pair64, 4) > 1e-6


def test_pushforward_residual_rejects_empty_test_set(grid64):
    # with K = -1 there are no test functions, so 0.0 would certify anything
    pair = tot.make_density_pair(tot.CATALOG["standard_f"],
                                 tot.CATALOG["standard_g"], grid64)
    x1, x2 = grid64.mesh()
    identity = tot.VectorField(tot.field(grid64, x1 + 0 * x2),
                               tot.field(grid64, x2 + 0 * x1))
    # half-integer frequencies are not Fourier modes of the torus, and a
    # float or bool K is not taken for the integer it may equal
    for k in (0, -1, np.int64(0), 1.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="K >= 1"):
            tot.pushforward_residual(identity, pair, k)
    assert tot.pushforward_residual(identity, pair, 1) > 0.1
    assert (tot.pushforward_residual(identity, pair, np.int64(2))
            == tot.pushforward_residual(identity, pair, 2))


@pytest.mark.parametrize("shape", [(64, 64), (96, 64)])
@pytest.mark.parametrize("K", [1, 4, 8])
def test_pushforward_residual_of_translation_is_closed_form(shape, K):
    # for T(x) = x + c the trapezoid rule is exact on these trig densities,
    # so the certificate is max |exp(-2i pi k.c) fhat(k) - ghat(k)|;
    # 96 x 64 = 6,144 nodes is not a whole number of blocks
    grid = tot.build_grid(*shape)
    c1, c2 = 0.37, -0.21
    x1, x2 = grid.mesh()
    shift = tot.VectorField(tot.field(grid, x1 + c1 + 0 * x2),
                            tot.field(grid, x2 + c2 + 0 * x1))
    # the second pair's worst mode is (1, -K): k1 != 0, k2 < 0, |k|_inf = K
    boundary = (tot.spec((1, -K, 0.3, 0.4), (0, 1, 0.1, 0.0)),
                tot.spec((1, 1, 0.2, 1.0)))
    for f, g in ((tot.CATALOG["standard_f"], tot.CATALOG["standard_g"]),
                 boundary):
        pair = tot.make_density_pair(f, g, grid)
        defects = {
            (k1, k2): abs(np.exp(-2j * np.pi * (k1 * c1 + k2 * c2))
                          * pair.f_poly.fourier_coefficient(k1, k2)
                          - pair.g_poly.fourier_coefficient(k1, k2))
            for k1 in range(-K, K + 1) for k2 in range(-K, K + 1)}
        expected = max(defects.values())
        assert abs(tot.pushforward_residual(shift, pair, K) - expected) < 1e-13
    assert max(defects, key=defects.get) in {(1, -K), (-1, K)}
    assert expected > 1.4 * sorted(defects.values())[-3]
