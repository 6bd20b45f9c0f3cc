"""Linearization of the Monge-Ampere residual and its inverses.

At an admissible state the derivative of the residual in the potential is
the divergence-form operator  v -> Div(B grad v)  with

    B = (f - residual) (A - D^2 u)^{-1}
      = g(id - A^{-1} grad u) adj(A - D^2 u) / det A,

symmetric positive definite wherever the margin is positive.  B comes
from a ``monge_ampere.residual_state``: the forward application, the
cost-rate right-hand side and both solves take the state that Newton and
the velocity already hold.  On zero-mean
functions the operator is negative definite; the solver runs conjugate
gradients preconditioned by the exact inverse of the
constant-coefficient operator with the mean matrix of B (diagonal in
Fourier space; it captures the small-lambda anisotropy exactly).  The
iterate, residual and search direction are rfft2 half spectra, so the
preconditioner is a pointwise multiply, inner products follow from
Parseval, and one iteration costs 4 real 2D transforms: 2 inverse ones
for the gradient and 2 forward ones for the divergence of the flux, each
run as its two axis passes by ``grid.rfft2`` and ``grid.irfft2``.  The
solution is transformed back once.

The operator kernels (gradient, divergence, preconditioner) take their
symbols from the one table in ``grid``.  The first-derivative symbol
vanishes on the Nyquist rows k1 = n1/2 and k2 = n2/2 while the
second-derivative symbol does not, so on those modes Div(B grad .) is not
the Jacobian of the discrete residual (it is off by a factor of order
(pi n)^2).  The solver therefore works in the Nyquist-free, zero-mean
subspace; smooth data has no content there beyond truncation noise, and
Newton updates confined to that subspace converge quadratically to
residual floors around 1e-12.

In the decomposed coordinates (u1, u2) the t = 0 operator has an exact
triangular inverse built from 1D primitives.  At t > 0 they reuse the
assembled preconditioned solve, whose solution is split as
v1 = int v dx2, v2 = (v - v1) / lambda, so v2 has a floor of about
eps / lambda (``solve_linearized_small_t``).  The splitting
B = U + V / lambda (``split_coefficients``, at the lambda it is given),
every entry O(1) as lambda -> 0, reads the same ``split_factors`` as the
residual state, so it checks those solutions independently only in how
it applies B to (v1, v2); the coefficients' own oracle is the central
difference of the residual (acceptance criterion 2).  At lambda = 0 its
arrays are the coefficients of the triangular limit operator.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConstructionError, ConvergenceError
from .grid import (ScalarField, antideriv_values, deriv_values, irfft2, rfft2,
                   symbols)
from .monge_ampere import check_admissible, split_factors, split_values

__all__ = [
    "split_coefficients", "project_solvable",
    "apply_linearized", "cost_rate_rhs", "solve_linearized",
    "apply_linearized_t0", "solve_linearized_t0", "solve_linearized_small_t",
]


# ---------------------------------------------------------------------------
# spectral kernels (cached per grid shape)

class _Kernels:
    def __init__(self, n1, n2):
        self.shape = (n1, n2)
        # rfft2 layout: full spectrum along x1, half spectrum along x2
        self.ik1 = symbols(n1, half=False).d1[:, None]
        self.ik2 = symbols(n2).d1[None, :]
        self.s1 = self.ik1.imag
        self.s2 = self.ik2.imag

    def grad(self, spec):
        """Gradient values of the field with rfft2 spectrum ``spec``."""
        return (irfft2(spec * self.ik1, self.shape),
                irfft2(spec * self.ik2, self.shape))

    def div_spectrum(self, w1, w2):
        return rfft2(w1) * self.ik1 + rfft2(w2) * self.ik2

    def flux_divergence(self, b11, b12, b22, spec):
        """rfft2 spectrum of Div(B grad v) for the field v with rfft2
        spectrum ``spec``: one gradient, one divergence."""
        g1, g2 = self.grad(spec)
        return self.div_spectrum(b11 * g1 + b12 * g2, b12 * g1 + b22 * g2)

    def solvable_spectrum(self, a):
        """rfft2 spectrum of a projected onto the solver subspace: zero mean
        and no content on the Nyquist rows k1 = n1/2, k2 = n2/2 (where the
        first-derivative symbol vanishes, so Div(B grad .) is not the
        residual's Jacobian)."""
        spec = rfft2(a)
        spec[0, 0] = 0.0
        self.drop_nyquist(spec)
        return spec

    def drop_nyquist(self, spec):
        spec[self.shape[0] // 2, :] = 0.0
        spec[:, -1] = 0.0

    def mean_coefficient_inverse(self, b11, b12, b22):
        """Inverse Fourier symbol of Div(Bbar grad .) for constant Bbar
        (negative), zero outside the solver subspace."""
        symbol = (b11 * self.s1 ** 2 + 2.0 * b12 * self.s1 * self.s2
                  + b22 * self.s2 ** 2)
        inv = np.zeros_like(symbol)
        nz = symbol > 0.0
        inv[nz] = -1.0 / symbol[nz]
        self.drop_nyquist(inv)
        return inv


@lru_cache(maxsize=None)
def _kernels(n1, n2):
    return _Kernels(n1, n2)


def project_solvable(values):
    """``values`` projected onto the solver subspace: zero mean and no
    content on the Nyquist rows.  Newton updates live there, so a start
    with Nyquist content could never have it corrected."""
    kern = _kernels(*values.shape)
    return irfft2(kern.solvable_spectrum(values), kern.shape)


# ---------------------------------------------------------------------------
# coefficients

def coefficient_arrays(st):
    """B entries from a residual state: g(T) adj(A - D^2 u) / det A, that is
    (g fiber, g cross, g row / lambda) in the state's lambda-free factors."""
    return (st.g_at_t * st.fiber, st.g_at_t * st.cross,
            st.g_at_t * st.row / st.cost.a22)


def split_coefficients(lam, u1, u2, pair):
    """Splitting B = U + V / lambda in the decomposed coordinates at
    lambda = ``lam`` >= 0, with U22 = V11 = V12 = 0 and V22 > 0: the arrays
    (u11, u12, v22), so that B11 = u11, B12 = u12 and B22 = v22 / lambda.
    Every entry is O(1) as lambda -> 0, and at lambda = 0 they are the
    coefficients c11, c21, c22 of the limit operator."""
    g_at_t, row, fiber, cross, *_ = split_factors(u1, u2.values, lam, pair)
    return g_at_t * fiber, g_at_t * cross, g_at_t * row


# ---------------------------------------------------------------------------
# forward applications at a residual state

def apply_linearized(st, v):
    """Div(B grad v) at the residual state ``st``: derivative of the
    residual in the potential.

    Constants are annihilated; the output has zero mean exactly (it is a
    spectral divergence).
    """
    kern = _kernels(*st.grid.shape)
    out = kern.flux_divergence(*coefficient_arrays(st), rfft2(v.values))
    return ScalarField(st.grid, irfft2(out, kern.shape), zero_mean=True)


def cost_rate_rhs(st):
    """Right-hand side induced by the cost rate at the residual state
    ``st``: Div((f - residual) [A - D^2 u]^{-1} Adot A^{-1} grad u).

    The potential velocity solves  apply_linearized(st, psi_dot) = this.
    For A = diag(1, lambda): Adot A^{-1} grad u = (0, lambda_dot d2 u2).
    At states with zero residual the coefficient equals f, recovering the
    evolution equation's right-hand side.
    """
    _, b12, b22 = coefficient_arrays(st)
    s2 = st.cost.a22dot * st.d2
    kern = _kernels(*st.grid.shape)
    out = irfft2(kern.div_spectrum(b12 * s2, b22 * s2), kern.shape)
    return ScalarField(st.grid, out, zero_mean=True)


# ---------------------------------------------------------------------------
# preconditioned conjugate gradients

def _half_dot(a, c):
    """Real inner product of the fields with rfft2 spectra a and c, up to
    the constant factor n^2 (Parseval): columns k2 = 0 and n2/2 are their
    own mirror images, every other column stands for two."""
    return (2.0 * np.vdot(a, c).real - np.vdot(a[:, 0], c[:, 0]).real
            - np.vdot(a[:, -1], c[:, -1]).real)


def _pcg(apply_op, inverse, b, tol, max_iter):
    """Preconditioned conjugate gradients on rfft2 spectra, from zero.

    ``apply_op`` is negative definite and so is the pointwise inverse symbol
    ``inverse``; every sign cancels in the step lengths, so the iterates
    are exactly those of CG on the negated, positive definite system.  The
    first direction with p.Ap >= 0 raises ``ConvergenceError``.
    """
    norm_b = np.sqrt(_half_dot(b, b))
    if norm_b == 0.0:
        return np.zeros_like(b), 0
    x = np.zeros_like(b)
    r = b.copy()
    z = inverse * r
    p = z.copy()
    rz = _half_dot(r, z)
    for it in range(max_iter):
        if np.sqrt(_half_dot(r, r)) <= tol * norm_b:
            return x, it
        ap = apply_op(p)
        curvature = _half_dot(p, ap)
        if not curvature < 0.0:
            raise ConvergenceError(
                f"conjugate gradients broke down at iteration {it}: p.Ap = "
                f"{curvature:.3g} >= 0, not negative definite", iterations=it)
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * ap
        np.multiply(inverse, r, out=z)
        rz_next = _half_dot(r, z)
        p *= rz_next / rz
        p += z
        rz = rz_next
    residual = np.sqrt(_half_dot(r, r)) / norm_b
    if residual <= tol:
        return x, max_iter
    raise ConvergenceError(
        f"conjugate gradients exceeded {max_iter} iterations "
        f"(relative residual {residual:.3g}, tol {tol:.3g})",
        residual=residual, iterations=max_iter)


def _solve_with_coefficients(grid, b11, b12, b22, q_values, tol):
    """PCG solve of Div(B grad v) = q in the solver subspace: (v, CG
    iterations), at most 10 (n1 + n2) of them."""
    kern = _kernels(*grid.shape)
    inverse = kern.mean_coefficient_inverse(
        float(np.mean(b11)), float(np.mean(b12)), float(np.mean(b22)))

    def apply_op(spec):
        out = kern.flux_divergence(b11, b12, b22, spec)
        kern.drop_nyquist(out)
        return out

    spec, iters = _pcg(apply_op, inverse, kern.solvable_spectrum(q_values),
                       tol, 10 * (grid.n1 + grid.n2))
    return irfft2(spec, grid.shape), iters


def solve_linearized(st, q, tol=1e-10):
    """Solve Div(B grad v) = q at the residual state ``st`` for the
    unique zero-mean v.

    Parameters
    ----------
    q : ScalarField
        Zero-mean right-hand side.
    tol : float
        Relative residual target: ||Div(B grad v) - q||_2 <= tol ||q||_2.

    Raises
    ------
    ConvergenceError
        If conjugate gradients exceed 10 (n1 + n2) iterations (carrying the
        final residual), or if B ~ 1/lambda overflows: never a NaN.
    """
    scale = 1.0 + float(np.max(np.abs(q.values)))
    if abs(float(np.mean(q.values))) > 1e-10 * scale:
        raise ValueError("right-hand side must have zero mean")
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            v, _ = _solve_with_coefficients(st.grid, *coefficient_arrays(st),
                                            q.values, tol)
        except FloatingPointError as exc:
            raise ConvergenceError(f"linearized solve: {exc}") from exc
    return ScalarField(st.grid, v, zero_mean=True)


# ---------------------------------------------------------------------------
# t = 0: exact triangular solve from 1D primitives

def apply_linearized_t0(u1, u2, pair, v1, v2):
    """Forward t = 0 operator on a decomposed direction (v1, v2):

        d1[c11 v1'] + d2[c21 v1' + c22 d2 v2],

    with c11 = g0 (1 - d22 u2), c21 = g0 d12 u2, c22 = g0 (1 - d11 u1)
    and g0 the target density composed with the limit map.
    """
    c11, c21, c22 = split_coefficients(0.0, u1, u2, pair)
    v1p = deriv_values(np.asarray(v1, float), 0, 1)[:, None]
    w1 = c11 * v1p
    w2 = c21 * v1p + c22 * deriv_values(v2.values, 1, 1)
    out = deriv_values(w1, 0, 1) + deriv_values(w2, 1, 1)
    return ScalarField(pair.grid, out, zero_mean=True)


def _ratio_primitive_1d(coef, rhs):
    """Solve d[coef * w] = rhs on the circle with w of zero mean.
    Returns w; the integration constant is fixed by mean(w) = 0."""
    flux = antideriv_values(rhs, 0)
    c = -np.mean(flux / coef) / np.mean(1.0 / coef)
    return (flux + c) / coef


def _ratio_primitive_rows(coef, rhs, extra_flux):
    """Row-wise version with a known extra flux term: solve
    d2[coef * w + extra_flux] = rhs on every fiber, w of zero mean along
    each row.  Row means of rhs are projected out (they vanish
    analytically; projecting enforces exact solvability)."""
    flux = antideriv_values(rhs - rhs.mean(axis=1, keepdims=True), 1) - extra_flux
    c = -np.mean(flux / coef, axis=1, keepdims=True) \
        / np.mean(1.0 / coef, axis=1, keepdims=True)
    return (flux + c) / coef


def solve_linearized_t0(u1, u2, pair, q):
    """Invert the t = 0 operator: two stages of 1D primitives.

    Stage 1 integrates the equation over x2, which decouples v1:
    d1[G(x1) v1'] = int q dx2 with G(x1) = int c11 dx2 > 0.  Stage 2
    solves, on every fiber, d2[c22 d2 v2] = q - (the v1 terms).

    Returns (v1, v2): v1 zero-mean on n1 nodes, v2 a ScalarField with zero
    mean along every fiber.
    """
    check_admissible(u1, u2.values)
    qv = q.values
    scale = 1.0 + float(np.max(np.abs(qv)))
    if abs(float(np.mean(qv))) > 1e-10 * scale:
        raise ValueError("right-hand side must have zero mean")
    c11, c21, c22 = split_coefficients(0.0, u1, u2, pair)

    big_g = c11.mean(axis=1)
    if np.min(big_g) <= 0.0:
        raise ConstructionError(
            f"internal consistency: averaged coefficient G has min "
            f"{np.min(big_g):.3g} <= 0")
    qbar = qv.mean(axis=1)
    v1p = _ratio_primitive_1d(big_g, qbar)
    v1 = antideriv_values(v1p, 0)

    rhs2 = qv - deriv_values(c11 * v1p[:, None], 0, 1)
    v2p = _ratio_primitive_rows(c22, rhs2, c21 * v1p[:, None])
    v2 = antideriv_values(v2p, 1)
    return v1, ScalarField(pair.grid, v2)


# ---------------------------------------------------------------------------
# t > 0 in decomposed coordinates

def solve_linearized_small_t(st, q, tol=1e-10):
    """Solve the linearized equation at the residual state ``st`` of a
    decomposed pair, lambda = st.cost.a22 > 0, in decomposed coordinates.

    Returns the solution of :func:`solve_linearized` split as (v1, v2):
    v1 = int v dx2 with zero mean on n1 nodes, v2 = (v - v1) / lambda a
    ScalarField with zero mean along every fiber, so that v = v1 + lambda v2
    up to a constant.  Raises ``ConvergenceError`` if the solve misses
    ``tol``.

    The split divides the rounding of v by lambda: v2 is accurate to about
    eps / lambda, whatever ``tol`` (criterion 4's oracle read 4.8e-12 at
    t = 1e-2 and 2.5e-6 at t = 1e-8; ROADMAP.md, item 4).
    """
    v1, v2 = split_values(solve_linearized(st, q, tol).values, st.cost.a22)
    return v1, ScalarField(st.grid, v2)
