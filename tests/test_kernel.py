import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berglab.domain import unit_ball
from berglab.gauge import comparability_scale
from berglab.kernel import (
    EXACT_BALL,
    FEFFERMAN,
    KernelError,
    ball_quadrature,
    gauss_jacobi,
    kernel_eval,
    monomial_norm_sq,
    reproducing_residual,
)
from berglab.metric import ball_superset_sampler, straight_chord_upper


def test_kernel_center_values(disc, ball2):
    assert kernel_eval(disc, EXACT_BALL, np.array([0j]), np.zeros((1, 1), complex))[0] == pytest.approx(
        1 / np.pi
    )
    assert kernel_eval(ball2, EXACT_BALL, np.zeros(2, complex), np.zeros((1, 2), complex))[
        0
    ] == pytest.approx(2 / np.pi**2)


@given(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7), st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))
@settings(max_examples=30, deadline=None)
def test_kernel_hermitian_symmetry(zx, zy, wx, wy):
    dom = unit_ball(1)
    z = np.array([zx + 1j * zy])
    w = np.array([wx + 1j * wy])
    kzw = kernel_eval(dom, EXACT_BALL, z, w.reshape(1, -1))[0]
    kwz = kernel_eval(dom, EXACT_BALL, w, z.reshape(1, -1))[0]
    assert kzw == pytest.approx(np.conj(kwz), rel=1e-12)


def test_fefferman_symmetry_near_diagonal(ball2):
    z = np.array([np.sqrt(1 - 0.02), 0], complex)
    w = z + np.array([0.004 + 0.002j, -0.003j])
    kzw = kernel_eval(ball2, FEFFERMAN, z, w.reshape(1, -1))[0]
    ke = kernel_eval(ball2, EXACT_BALL, z, w.reshape(1, -1))[0]
    assert abs(kzw - ke) / abs(ke) <= 0.05


def test_fefferman_rejects_far_pairs(ball2):
    z = np.array([0.2, 0], complex)
    with pytest.raises(KernelError):
        kernel_eval(ball2, FEFFERMAN, z, np.array([[-0.2, 0]], complex))


@pytest.mark.parametrize("x", [0.0, 0.5])
def test_exact_kernel_norm_by_quadrature(disc, x):
    # ||K_z||^2 = int |K(w, z)|^2 dv(w) = K(z, z): the normalized kernel has unit norm
    z = np.array([x + 0j])
    quad = ball_quadrature(1, 80)
    mass = float(np.real(quad.integrate(np.abs(kernel_eval(disc, EXACT_BALL, z, quad.nodes)) ** 2)))
    kzz = float(np.real(kernel_eval(disc, EXACT_BALL, z, z.reshape(1, -1))[0]))
    assert mass == pytest.approx(kzz, rel=1e-6)


def test_diagonal_band_scan(disc):
    ratios = []
    for t in np.geomspace(1e-3, 1e-1, 7):
        z = np.array([np.sqrt(1 - t) + 0j])
        kzz = float(np.real(kernel_eval(disc, EXACT_BALL, z, z.reshape(1, -1))[0]))
        ratios.append(kzz * t**2)
    assert max(ratios) / min(ratios) <= 10.0


@pytest.mark.parametrize(
    "z,h,tol",
    [
        (0.0, {(0,): 1.0}, 1e-8),
        (0.5, {(2,): 1.0}, 1e-6),
        (0.9, {(0,): 1.0}, 1e-4),
    ],
)
def test_reproducing_residuals(disc, z, h, tol):
    assert reproducing_residual(disc, h, np.array([z + 0j])) <= tol


def test_monomial_norms_match_quadrature():
    quad = ball_quadrature(2, 6)
    for alpha in [(0, 0), (1, 0), (2, 1)]:
        v = np.ones(len(quad.nodes), complex)
        for i, a in enumerate(alpha):
            v *= quad.nodes[:, i] ** a
        q = float(np.real(quad.integrate(np.abs(v) ** 2)))
        assert q == pytest.approx(monomial_norm_sq(2, alpha), rel=1e-12)


# -- sampled norms over metric balls ------------------------------------------------


def _ball_norm_sq(dom, f_vals, z, a=1.0, samples=1500, seed=0):
    """MC of the squared L^2 norm of f over the metric ball D(z, a)."""
    rng = np.random.default_rng(seed)
    draw = ball_superset_sampler(dom, z, a)
    pts, dens = draw(samples, rng)
    keep = dom.r_val(pts) < 0
    total = 0.0
    for p, d_ok, dens_i in zip(pts, keep, dens):
        if not d_ok:
            continue
        if straight_chord_upper(dom, z, p) < a:
            total += abs(f_vals(p.reshape(1, -1))[0]) ** 2 / dens_i
    return total / samples


def _random_poly(rng, deg=4):
    coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)

    def f(pts):
        out = np.zeros(len(pts), complex)
        for k, c in enumerate(coeffs):
            out += c * pts[:, 0] ** k
        return out

    return f


def test_pointwise_bound_from_ball_norm(disc_global):
    # |f(z)| <= C |r(z)|^-(n+1)/2 ||f chi_D(z,1)|| with one fitted constant
    rng = np.random.default_rng(1)
    ratios = []
    for trial in range(6):
        f = _random_poly(rng)
        t = 10 ** rng.uniform(-3, -1)
        z = np.array([np.sqrt(1 - t) * np.exp(2j * np.pi * rng.uniform())])
        norm = np.sqrt(_ball_norm_sq(disc_global, f, z, seed=trial))
        lhs = abs(f(z.reshape(1, -1))[0])
        ratios.append(lhs * t / max(norm, 1e-12))
    assert max(ratios) <= 10.0


def test_gradient_bound_from_ball_norm(disc_global):
    # |f(w) - f(z)| <= C d(z,w) |r(z)|^-(n+1)/2 ||f chi_D(z,1)|| for close pairs
    rng = np.random.default_rng(2)
    ratios = []
    for trial in range(5):
        f = _random_poly(rng)
        t = 10 ** rng.uniform(-3, -1)
        z = np.array([np.sqrt(1 - t) * np.exp(2j * np.pi * rng.uniform())])
        w = z * (1 - 0.02 * t / abs(z[0]) ** 2)  # small radial step
        d = straight_chord_upper(disc_global, z, w)
        if d >= 0.5 or d <= 0:
            continue
        norm = np.sqrt(_ball_norm_sq(disc_global, f, z, seed=100 + trial))
        lhs = abs(f(w.reshape(1, -1))[0] - f(z.reshape(1, -1))[0])
        ratios.append(lhs * t / (d * max(norm, 1e-12)))
    assert ratios and max(ratios) <= 20.0


def test_kernel_direction_continuity(disc_global):
    # ||k_z - k_w|| <= C d(z,w) for close pairs, via the exact Gram identity
    ratios = []
    for t in (0.1, 0.01, 0.001):
        z = np.array([np.sqrt(1 - t) + 0j])
        w = z * (1 - 0.05 * t)
        d = straight_chord_upper(disc_global, z, w)
        kzz = float(np.real(kernel_eval(disc_global, EXACT_BALL, z, z.reshape(1, -1))[0]))
        kww = float(np.real(kernel_eval(disc_global, EXACT_BALL, w, w.reshape(1, -1))[0]))
        kwz = complex(kernel_eval(disc_global, EXACT_BALL, w, z.reshape(1, -1))[0])
        inner = kwz / np.sqrt(kzz * kww)
        gap = np.sqrt(max(2 - 2 * np.real(inner), 0.0))
        ratios.append(gap / d)
    assert max(ratios) <= 25.0


def test_close_kernels_correlate(disc_global):
    # pairs a short chord apart keep |<k_z, k_w>| >= 1/2
    for t in (0.1, 0.01, 0.001):
        z = np.array([np.sqrt(1 - t) + 0j])
        w = z * (1 - 0.02 * t)
        assert straight_chord_upper(disc_global, z, w) <= 0.15
        kzz = float(np.real(kernel_eval(disc_global, EXACT_BALL, z, z.reshape(1, -1))[0]))
        kww = float(np.real(kernel_eval(disc_global, EXACT_BALL, w, w.reshape(1, -1))[0]))
        kwz = complex(kernel_eval(disc_global, EXACT_BALL, w, z.reshape(1, -1))[0])
        assert abs(kwz) / np.sqrt(kzz * kww) >= 0.5


def test_one_dim_mean_value_gradient():
    # |f(u) - f(0)| <= (|u|/rho) C avg_{B(rho)} |f| for analytic f
    rng = np.random.default_rng(3)
    quad = ball_quadrature(1, 16)
    ratios = []
    for trial in range(12):
        f = _random_poly(rng, deg=5)
        rho = 10 ** rng.uniform(-2, 0)
        u = rho * 0.4 * np.exp(2j * np.pi * rng.uniform())
        avg = float(np.real(quad.integrate(np.abs(f(rho * quad.nodes))))) / np.pi
        lhs = abs(f(np.array([[u]]))[0] - f(np.zeros((1, 1), complex))[0])
        ratios.append(lhs * rho / (abs(u) * max(avg, 1e-12)))
    assert max(ratios) <= 30.0


def test_fefferman_error_scales_with_sqrt_F(ball2):
    rng = np.random.default_rng(4)
    ratios = []
    for _ in range(25):
        t = 10 ** rng.uniform(-3.0, -1.5)
        z = np.zeros(2, complex)
        z[0] = np.sqrt(1 - t)
        w = z + (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 0.2 * np.sqrt(t)
        if ball2.r_val(w) >= 0:
            continue
        ke = kernel_eval(ball2, EXACT_BALL, z, w.reshape(1, -1))[0]
        try:
            kf = kernel_eval(ball2, FEFFERMAN, z, w.reshape(1, -1))[0]
        except KernelError:
            continue
        F = float(comparability_scale(ball2, z, w.reshape(1, -1))[0])
        ratios.append(abs(kf - ke) / abs(ke) / np.sqrt(F))
    assert ratios and max(ratios) <= 3.0


def test_exact_mode_rejected_off_ball(egg):
    with pytest.raises(KernelError):
        kernel_eval(egg, EXACT_BALL, np.zeros(2, complex), np.zeros((1, 2), complex))


def test_ball_quadrature_built_once():
    assert ball_quadrature(2, 6) is ball_quadrature(2, 6)


def _quadrature_reference(n, degree, angular_order=None):
    """The node-by-node construction: one torus block per radial node."""
    from math import pi

    q = degree + 2
    m_ang = 2 * degree + 3 if angular_order is None else angular_order
    xs, ws = [], []
    for i in range(n):
        alpha = n - 1 - i
        xj, wj = gauss_jacobi(q, alpha)
        xs.append(0.5 * (xj + 1.0))
        ws.append(wj * 0.5 ** (alpha + 1))
    grids = np.meshgrid(*xs, indexing="ij")
    wgrids = np.meshgrid(*ws, indexing="ij")
    t, rem, radial_w = [], np.ones_like(grids[0]), np.ones_like(grids[0])
    for i in range(n):
        t.append((rem * grids[i]).ravel())
        rem = rem * (1.0 - grids[i])
        radial_w = radial_w * wgrids[i]
    radial_w = radial_w.ravel()
    angles = 2.0 * pi * np.arange(m_ang) / m_ang
    phases = [np.exp(1j * g.ravel()) for g in np.meshgrid(*([angles] * n), indexing="ij")]
    block = len(phases[0])
    nodes = np.empty((len(radial_w) * block, n), complex)
    weights = np.empty(len(radial_w) * block)
    for j in range(len(radial_w)):
        amp = np.sqrt(np.asarray([t[i][j] for i in range(n)]))
        for i in range(n):
            nodes[j * block : (j + 1) * block, i] = amp[i] * phases[i]
        weights[j * block : (j + 1) * block] = pi**n * radial_w[j] / block
    return nodes, weights


@pytest.mark.parametrize("args", [(1, 8), (1, 60), (2, 6), (2, 14, 15), (3, 3)])
def test_ball_quadrature_nodes_and_weights_keep_their_bytes(args):
    quad = ball_quadrature(*args)
    nodes, weights = _quadrature_reference(*args)
    assert quad.nodes.tobytes() == nodes.tobytes()
    assert quad.weights.tobytes() == weights.tobytes()


def test_monomial_norms_past_float_factorials():
    # 171! overflows a float; the exact integer ratio does not
    from fractions import Fraction
    from math import factorial, pi

    assert monomial_norm_sq(1, (170,)) == pi / 171
    for n, alpha in [(1, (400,)), (2, (200, 150)), (3, (90, 0, 120))]:
        exact = Fraction(np.prod([factorial(a) for a in alpha], dtype=object), factorial(n + sum(alpha)))
        assert monomial_norm_sq(n, alpha) == pi**n * float(exact)


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
def test_gauss_jacobi_against_scipy(alpha):
    from scipy.special import roots_jacobi

    for q in range(1, 41):
        x, w = gauss_jacobi(q, float(alpha))
        x_ref, w_ref = roots_jacobi(q, alpha, 0.0)
        assert np.max(np.abs(x - x_ref)) <= 1e-15
        # against a 50-digit rule, scipy's weights are off by up to 1.8e-12
        # relative (q = 38, alpha = 3) and these by up to 2.6e-14
        assert np.max(np.abs(w / w_ref - 1.0)) <= 4e-12
