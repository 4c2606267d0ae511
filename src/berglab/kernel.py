"""Reproducing kernels: exact on the ball, leading-order elsewhere.

The exact mode evaluates n!/pi^n (1 - <z,w>)^{-(n+1)} on the unit ball.
The leading mode evaluates C |grad r(w)|^2 det L(w) X(z,w)^{-(n+1)} with L
the restriction of the complex Hessian to the complex tangent space and C
calibrated once per dimension against the exact ball kernel near the
boundary; it is only trusted on the near-diagonal region where the Taylor
remainder X is comparable to the scale F.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import factorial, pi, prod

import numpy as np

from ._poly import HermPoly
from .domain import DomainSpec, complex_tangent_basis, unit_ball
from .gauge import comparability_scale, taylor_remainder


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class KernelMode:
    tag: str  # "exact-ball" | "fefferman-leading"

    def __post_init__(self):
        if self.tag not in ("exact-ball", "fefferman-leading"):
            raise KernelError(f"unknown kernel mode {self.tag!r}")


EXACT_BALL = KernelMode("exact-ball")
FEFFERMAN = KernelMode("fefferman-leading")
# the leading mode is trusted only where |r(z)| + |r(w)| + |z - w| < _NEAR_DIAG
# and |X(z, w)| >= _X_FLOOR * F(z, w)
_NEAR_DIAG = 0.35
_X_FLOOR = 1e-3


def hermitian_inner(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<z, w> linear in the first slot."""
    return np.einsum("...i,...i->...", z, np.conj(w))


def _check_exact_ball(dom: DomainSpec):
    if dom.tag != "ball":
        raise KernelError("exact mode is only valid on the unit ball")


def kernel_eval(dom: DomainSpec, mode: KernelMode, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """K(z, w), vectorized over the leading axes of w."""
    z = np.asarray(z, complex)
    w = np.asarray(w, complex)
    if mode.tag == "exact-ball":
        _check_exact_ball(dom)
        n = dom.n
        return factorial(n) / pi**n * (1.0 - hermitian_inner(z, w)) ** (-(n + 1))
    # leading mode
    F = comparability_scale(dom, z.reshape(-1), w)
    rz = abs(float(dom.r_val(z)))
    rw = np.abs(dom.r_val(w))
    gap = np.linalg.norm(np.conj(w) - np.conj(z.reshape(-1)), axis=-1)
    if np.any(rz + rw + gap >= _NEAR_DIAG):
        raise KernelError("leading-term mode requested outside its near-diagonal region")
    X = taylor_remainder(dom, z, w)
    if np.any(np.abs(X) < _X_FLOOR * F):
        raise KernelError("Taylor denominator too close to zero for the leading term")
    C = leading_constant(dom.n)
    grad2 = dom.grad_norm(w) ** 2
    detL = tangential_hessian_det(dom, w)
    return C * grad2 * detL * X ** (-(dom.n + 1))


def tangential_hessian_det(dom: DomainSpec, w: np.ndarray) -> np.ndarray:
    """det of the complex Hessian restricted to the complex tangent space at w."""
    w = np.asarray(w, complex)
    if dom.n == 1:
        return np.ones(w.shape[:-1])
    H = dom.hessian(w)
    g = dom.dbar_r(w)
    flat_w = w.reshape(-1, dom.n)
    flat_H = H.reshape(-1, dom.n, dom.n)
    flat_g = g.reshape(-1, dom.n)
    out = np.empty(len(flat_w))
    for i in range(len(flat_w)):
        e = flat_g[i] / np.linalg.norm(flat_g[i])
        basis = complex_tangent_basis(e)
        # quadratic form sum H[i,j] xi_i conj(xi_j) restricted to the basis
        L = np.einsum("ij,ai,bj->ab", flat_H[i], basis, np.conj(basis))
        out[i] = float(np.real(np.linalg.det(L)))
    return out.reshape(w.shape[:-1])


@functools.cache
def leading_constant(n: int) -> float:
    """Dimensional constant of the leading term, calibrated on the ball.

    One near-boundary diagonal point of the unit ball pins it down; the
    result is cached per dimension.
    """
    ball = unit_ball(n)
    z = np.zeros(n, complex)
    z[0] = np.sqrt(1 - 1e-3)
    exact = factorial(n) / pi**n * (1.0 - hermitian_inner(z, z)) ** (-(n + 1))
    X = taylor_remainder(ball, z, z.reshape(1, -1))[0]
    grad2 = float(ball.grad_norm(z) ** 2)
    detL = float(tangential_hessian_det(ball, z.reshape(1, -1))[0])
    return float(np.real(exact / (grad2 * detL * X ** (-(n + 1)))))


# -- quadrature on the ball ------------------------------------------------------


def gauss_jacobi(q: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """q-point Gauss rule on [-1, 1] for the weight (1 - x)^alpha, alpha > -1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    orthonormal Jacobi recurrence, polished by one Newton step on p_q.  The
    weights are the Christoffel numbers 1 / sum_{k<q} p_k(x)^2 at the
    polished nodes.
    """
    k = np.arange(1, q + 1, dtype=float)
    s = 2.0 * k + alpha
    # recurrence x p_k = off[k] p_{k+1} + diag[k] p_k + off[k-1] p_{k-1}
    diag = np.full(q, -alpha / (alpha + 2.0))
    diag[1:] = -(alpha**2) / ((s[1:] - 2.0) * s[1:])
    off = 2.0 * k * (k + alpha) / (s * np.sqrt(s * s - 1.0))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    mu0 = 2.0 ** (alpha + 1.0) / (alpha + 1.0)

    def orthonormal(x):
        """p_0..p_q at x, and p_q'."""
        p = [np.full_like(x, 1.0 / np.sqrt(mu0))]
        prev, dprev, dp = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
        for j in range(q):
            back = off[j - 1] if j else 0.0
            nxt = ((x - diag[j]) * p[j] - back * prev) / off[j]
            dnxt = (p[j] + (x - diag[j]) * dp - back * dprev) / off[j]
            prev, dprev, dp = p[j], dp, dnxt
            p.append(nxt)
        return p, dp

    p, dp = orthonormal(x)
    x = x - p[q] / dp
    p, _ = orthonormal(x)
    return x, 1.0 / np.sum(np.square(p[:q]), axis=0)


@dataclass(frozen=True)
class BallQuadrature:
    """Product rule on the unit ball exact for monomials z^a conj(z)^b.

    Radial part: modulus-squared simplex coordinates via iterated
    Gauss-Jacobi; angular part: uniform grids of ``angular_order`` points on
    each torus factor.  Exact when max(|a|, |b|) is at most the degree
    :func:`ball_quadrature` built it for.  The nodes run over the radial
    nodes, and within each over the torus grid in C order.
    """

    amplitudes: np.ndarray  # (R, n): |z_i| = sqrt(t_i) at each radial node
    block_weights: np.ndarray  # (R,): pi^n times the radial weight, shared by a torus block
    angular_order: int

    @property
    def nodes(self) -> np.ndarray:
        """(R * M^n, n) complex nodes."""
        n = self.amplitudes.shape[1]
        angles = 2.0 * pi * np.arange(self.angular_order) / self.angular_order
        phases = np.stack([np.exp(1j * g.ravel()) for g in np.meshgrid(*([angles] * n), indexing="ij")], 1)
        return (self.amplitudes[:, None, :] * phases).reshape(-1, n)

    @property
    def weights(self) -> np.ndarray:
        block = self.angular_order ** self.amplitudes.shape[1]
        return np.repeat(self.block_weights / block, block)

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.sum(values * self.weights))

    def moments(self, f, a, b) -> np.ndarray:
        """(dim, dim) matrix sum_q w_q f(x_q) v_j(x_q) conj(v_i(x_q)) for v_i = z^(a_i) conj(z)^(b_i).

        ``a`` and ``b`` are (dim, n) exponents.  At a radial node with
        amplitudes s, v_j conj(v_i) is s^(a_i + b_i + a_j + b_j) times the
        torus character of order m_j - m_i, m = a - b.  So f is read once at
        the nodes and Fourier-transformed over each radial node's torus, and
        each entry is a radial sum of the table s^(a + b) against one of its
        coefficients; no table of v at the nodes is formed.
        """
        R, n = self.amplitudes.shape
        M = self.angular_order
        a, b = np.asarray(a, int).reshape(-1, n), np.asarray(b, int).reshape(-1, n)
        vals = np.asarray(f(self.nodes), complex).reshape((R,) + (M,) * n)
        F = np.fft.ifftn(vals, axes=tuple(range(1, n + 1))).reshape(R, -1)
        At = np.prod(self.amplitudes ** (a + b)[:, None, :], axis=2)  # (dim, R)
        m = a - b
        offset = np.ravel_multi_index(tuple(np.moveaxis((m - m[:, None]) % M, 2, 0)), (M,) * n).ravel()
        # one real radial contraction per distinct torus order, over the (i, j) sharing it
        order = np.argsort(offset, kind="stable")
        keys, starts = np.unique(offset[order], return_index=True)
        WF = self.block_weights[:, None] * F[:, keys]
        WF = np.stack([WF.real.T, WF.imag.T], 2)  # (keys, R, 2)
        i_all, j_all = np.divmod(order, len(a))
        out = np.empty(len(offset), complex)
        for k, (s, e) in enumerate(zip(starts, [*starts[1:], len(order)])):
            re_im = (At[i_all[s:e]] * At[j_all[s:e]]) @ WF[k]
            out[order[s:e]] = re_im[:, 0] + 1j * re_im[:, 1]
        return out.reshape(len(a), len(a))


@functools.cache
def ball_quadrature(n: int, degree: int, angular_order: int | None = None) -> BallQuadrature:
    """The :class:`BallQuadrature` of the given degree, built once per process.

    ``angular_order`` points per torus factor, 2*degree + 3 by default.  The
    cache keys on the arguments as passed: give ``angular_order``
    positionally, and only when it is not the default.
    """
    q = degree + 2
    m_ang = 2 * degree + 3 if angular_order is None else int(angular_order)
    # simplex coordinates t_i = x_i prod_{k<i} (1 - x_k); the Jacobi weight
    # (1 - x_i)^(n-1-i) carries the map's Jacobian
    rules = [gauss_jacobi(q, n - 1 - i) for i in range(n)]
    x = np.stack([g.ravel() for g in np.meshgrid(*[0.5 * (xj + 1.0) for xj, _ in rules], indexing="ij")], 1)
    w = np.stack([g.ravel() for g in np.meshgrid(*[wj * 0.5 ** (n - i) for i, (_, wj) in enumerate(rules)],
                                                   indexing="ij")], 1)
    rem = np.cumprod(np.concatenate([np.ones((len(x), 1)), 1.0 - x[:, :-1]], 1), axis=1)
    return BallQuadrature(np.sqrt(rem * x), pi**n * np.prod(w, axis=1), m_ang)


def monomial_norm_sq(n: int, alpha) -> float:
    """Closed-form squared L^2(ball) norm of z^alpha: pi^n alpha!/(n+|alpha|)!, from the exact integer ratio."""
    alpha = [int(a) for a in alpha]
    return pi**n * (prod(map(factorial, alpha)) / factorial(n + sum(alpha)))


# -- derived objects -------------------------------------------------------------


def reproducing_residual(dom: DomainSpec, coeffs: dict, z: np.ndarray) -> float:
    """|h(z) - quadrature<h, K_z>| for a polynomial h given by monomial coeffs.

    ``coeffs`` maps multi-indices to complex coefficients.  Exact-ball mode
    only; the quadrature degree covers the polynomial against the kernel's
    effective degree at the requested depth.
    """
    _check_exact_ball(dom)
    z = np.asarray(z, complex).reshape(-1)
    deg_h = max((sum(a) for a in coeffs), default=0)
    # the kernel's monomial coefficients decay like |z|^k; cover the
    # series down to 1e-12 relative
    zmax = min(float(np.linalg.norm(z)), 1.0 - 1e-9)
    tail = 30.0 / max(-np.log(max(zmax, 0.1)), 1e-9)
    quad = ball_quadrature(dom.n, deg_h + int(np.ceil(tail)) + 8)

    h_vals = HermPoly.from_terms(dom.n, [(a, (0,) * dom.n, c) for a, c in coeffs.items()])

    nodes = quad.nodes
    kz = kernel_eval(dom, EXACT_BALL, z, nodes)  # K(z, w_q)
    integral = quad.integrate(h_vals(nodes) * kz)
    hz = complex(h_vals(z.reshape(1, -1))[0])
    return abs(hz - integral)
