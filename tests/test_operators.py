import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berglab.domain import _domain_depth_max, unit_ball
from berglab.lattice import build_separated
from berglab.metric import straight_chord_upper
from berglab.operators import (
    OperatorError,
    OperatorMatrix,
    berezin,
    build_galerkin,
    compactness_report,
    cutoff_family,
    discrete_sum_matrix,
    enlarged_space,
    forward_substitution,
    hankel_and_commutator,
    identity_operator,
    loc_assemble,
    offdiag_split_search,
    oscillation_profile,
    partition_toeplitz_h,
    resolution_limit,
    save_operator,
    load_operator,
    toeplitz_matrix,
)


@pytest.fixture(scope="module")
def sp8():
    return build_galerkin(1, 8)


@pytest.fixture(scope="module")
def disc1():
    return unit_ball(1, theta=1.0)


# -- space ------------------------------------------------------------------------


def test_galerkin_dimensions():
    assert build_galerkin(1, 0).dim == 1
    assert build_galerkin(1, 2).dim == 3
    assert build_galerkin(2, 1).dim == 3


def test_galerkin_gram_identity(sp8):
    assert sp8.gram_defect() <= 1e-8


def test_degree_zero_basis():
    sp = build_galerkin(1, 0)
    vals = sp.basis_eval(np.array([[0.3 + 0j]]))
    assert vals[0, 0] == pytest.approx(1 / np.sqrt(np.pi))


@pytest.mark.parametrize("n, N", [(1, 8), (2, 4)])
def test_basis_eval_shares_one_power_table_bit_for_bit(n, N):
    # one evaluate call over all monomials gives each column the bits of its
    # own polynomial's evaluation
    from berglab._poly import HermPoly

    sp = build_galerkin(n, N)
    pts = sp.quad.nodes[::7]
    zero = (0,) * n
    ref = np.stack([HermPoly(n, {(a, zero): 1.0})(pts) for a in sp.alphas], 1) / sp.norms
    assert sp.basis_eval(pts).tobytes() == ref.tobytes()


# -- Toeplitz ----------------------------------------------------------------------


def test_toeplitz_identity(sp8):
    T = toeplitz_matrix(sp8, lambda w: np.ones(len(w)))
    assert np.max(np.abs(T.matrix - np.eye(sp8.dim))) <= 1e-12


def test_toeplitz_constant(sp8):
    T = toeplitz_matrix(sp8, lambda w: 2.5 * np.ones(len(w)))
    assert np.max(np.abs(T.matrix - 2.5 * np.eye(sp8.dim))) <= 1e-12


def test_toeplitz_moment_diagonal(sp8):
    T = toeplitz_matrix(sp8, lambda w: np.abs(w[:, 0]) ** 2)
    ks = np.arange(sp8.dim)
    assert np.max(np.abs(np.diag(T.matrix).real - (ks + 1) / (ks + 2))) <= 1e-10


def test_toeplitz_norm_bounded_by_symbol(sp8):
    rng = np.random.default_rng(0)

    def f(w):
        return np.sin(3 * np.abs(w[:, 0])) * np.cos(np.angle(w[:, 0]))

    T = toeplitz_matrix(sp8, f)
    assert T.norm <= 1.0 + 1e-9
    del rng


def test_toeplitz_real_symbol_hermitian(sp8):
    T = toeplitz_matrix(sp8, lambda w: np.abs(w[:, 0]))
    assert np.max(np.abs(T.matrix - T.matrix.conj().T)) <= 1e-12


# -- the product route against the node-table route --------------------------------

# a constant, a radial polynomial, an antiholomorphic monomial, an angular
# step and a radial band; the last two are not integrated exactly on any grid
SYMBOLS = {
    "one": lambda w: np.ones(len(w)),
    "abs2": lambda w: np.sum(np.abs(w) ** 2, axis=1),
    "conj_z1": lambda w: np.conj(w[:, 0]),
    "im_step": lambda w: (w[:, 0].imag > 0).astype(float),
    "band": lambda w: ((0.1 <= np.sum(np.abs(w) ** 2, axis=1)) & (np.sum(np.abs(w) ** 2, axis=1) <= 0.3)).astype(float),
}
# 256 ulps of 1.  Entries and norms are O(1) sums over up to 1.4e5 nodes
# (n, N) = (2, 4); the routes round them in different orders (pairwise
# node sums against an FFT and a radial sum), a few tens of ulps each, and
# the Hankel route then applies L^-1 twice.  Seen: 26 ulps (Toeplitz), 81
# ulps (Hankel norms).
ROUTE_TOL = 256 * np.finfo(float).eps


def _monomial_table(nodes, a, b):
    """v_i(x_q) = x_q^a_i conj(x_q)^b_i, (nodes, dim)."""
    return np.prod(nodes[:, None, :] ** a * np.conj(nodes[:, None, :]) ** b, axis=2)


@pytest.mark.parametrize("n, N", [(1, 8), (1, 48), (2, 4)])
def test_toeplitz_matches_table_reference(n, N):
    # Q^H diag(f) Q with Q the normalized monomials at the nodes times sqrt(w)
    sp = build_galerkin(n, N)
    nodes = sp.quad.nodes
    a = np.array(sp.alphas)
    Qw = _monomial_table(nodes, a, np.zeros_like(a)) / sp.norms * np.sqrt(sp.quad.weights)[:, None]
    for name, f in SYMBOLS.items():
        ref = Qw.conj().T @ (f(nodes)[:, None] * Qw)
        assert np.max(np.abs(toeplitz_matrix(sp, f).matrix - ref)) <= ROUTE_TOL, name


@pytest.mark.parametrize("n, N", [(1, 8), (2, 2)])
def test_hankel_matches_table_reference(n, N):
    # the orthonormalized enlarged monomials U = V L^-H at the nodes, and
    # the blocks of U^H diag(w f) U
    from scipy.linalg import solve_triangular

    sp = build_galerkin(n, N)
    enl = enlarged_space(n, N, 2)
    nodes = enl.quad.nodes
    V = _monomial_table(nodes, enl.a, enl.b) / enl.pre
    Uw = solve_triangular(enl.L, V.conj().T, lower=True).conj().T * np.sqrt(enl.quad.weights)[:, None]
    for name, f in SYMBOLS.items():
        M = Uw.conj().T @ (f(nodes)[:, None] * Uw)
        ref = (np.linalg.norm(M[enl.n_holo :, : sp.dim], 2), np.linalg.norm(M[: sp.dim, enl.n_holo :], 2))
        res = hankel_and_commutator(sp, f)
        assert abs(res["hankel_norm"] - ref[0]) <= ROUTE_TOL, name
        assert abs(res["hankel_conj_norm"] - ref[1]) <= ROUTE_TOL, name


def test_deep_galerkin_memory_stays_flat():
    # no (nodes x dim) table: at N = 200 one would hold about 1 GB
    import tracemalloc

    tracemalloc.start()
    try:
        sp = build_galerkin(1, 200)
        T = toeplitz_matrix(sp, lambda w: np.abs(w[:, 0]) ** 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ks = np.arange(sp.dim)
    assert np.max(np.abs(np.diag(T.matrix).real - (ks + 1) / (ks + 2))) <= 1e-12
    assert peak < 64 * 2**20


# -- Hankel ------------------------------------------------------------------------


def test_hankel_constant_zero(sp8):
    res = hankel_and_commutator(sp8, lambda w: np.ones(len(w)))
    assert res["commutator_norm"] <= 1e-9


def test_hankel_analytic_zero(sp8):
    res = hankel_and_commutator(sp8, lambda w: w[:, 0] ** 2)
    assert res["hankel_norm"] <= 1e-9


def test_hankel_conjugate_oracle(sp8):
    # closed form: singular values 1/sqrt((k+1)(k+2)), top 1/sqrt(2)
    res = hankel_and_commutator(sp8, lambda w: np.conj(w[:, 0]))
    assert res["hankel_norm"] == pytest.approx(1 / np.sqrt(2), abs=1e-9)
    assert res["commutator_norm"] == pytest.approx(1 / np.sqrt(2), abs=1e-9)


@pytest.mark.parametrize("n, N", [(1, 8), (1, 14), (2, 4)])
def test_hankel_norms_to_rounding_on_the_exact_gram_factor(n, N):
    # H of a holomorphic symbol vanishes and H of conj z1 has norm
    # 1/sqrt(n + 1); a 1e-13 jitter on the Gram matrix read 5.5e-12 for the
    # constant and 7.1e-14 below 1/sqrt(2) for conj z1 at (1, 8)
    sp = build_galerkin(n, N)
    for f in (lambda w: np.ones(len(w)), lambda w: w[:, 0] ** 2):
        assert hankel_and_commutator(sp, f)["hankel_norm"] <= 1e-12
    top = hankel_and_commutator(sp, lambda w: np.conj(w[:, 0]))["hankel_norm"]
    assert abs(top - 1 / np.sqrt(n + 1)) <= 1e-14


# -- Berezin -----------------------------------------------------------------------


def test_berezin_identity(sp8):
    assert berezin(sp8, identity_operator(sp8), np.array([0.3 + 0.2j])) == pytest.approx(1.0)


def test_berezin_constant(sp8):
    T = toeplitz_matrix(sp8, lambda w: 1.7 * np.ones(len(w)))
    assert berezin(sp8, T, np.array([0.5j])) == pytest.approx(1.7)


def test_berezin_moment_at_center(sp8):
    T = toeplitz_matrix(sp8, lambda w: np.abs(w[:, 0]) ** 2)
    assert berezin(sp8, T, np.array([0j])) == pytest.approx(0.5)


def test_berezin_bounded_by_norm(sp8):
    rng = np.random.default_rng(1)
    X = rng.standard_normal((sp8.dim, sp8.dim)) + 1j * rng.standard_normal((sp8.dim, sp8.dim))
    A = OperatorMatrix(X)
    val = berezin(sp8, A, np.array([0.4 + 0.1j]))
    assert abs(val) <= A.norm + 1e-9


def test_resolution_limit_monotone():
    limits = [resolution_limit(build_galerkin(1, N)) for N in (6, 10, 14)]
    assert limits[0] > limits[1] > limits[2]


# -- oscillation --------------------------------------------------------------------


def test_oscillation_constant(disc1):
    prof = oscillation_profile(disc1, lambda pts: np.ones(len(pts)), pair_samples=6, seed=0, shells=(2, 6))
    assert float(np.max(prof.shell_sup)) == 0.0
    assert prof.vo_verdict


def test_oscillation_depth_function_decays(disc1):
    prof = oscillation_profile(disc1, lambda pts: -disc1.r_val(pts), pair_samples=10, seed=1, shells=(2, 9))
    assert prof.vo_verdict
    assert prof.shell_sup[-1] <= 0.25 * max(prof.shell_sup[0], 1e-9)


def test_oscillation_angular_step_persists(disc1):
    # explicit pair family straddling the jump: oscillation stays 1 at
    # every depth even though the pair distances stay below 1
    def step(pts):
        return (np.angle(pts[:, 0]) > 0).astype(float)

    for k in range(2, 9):
        t = 2.0**-k
        eps = 0.3 * t  # unit-ball pairs on the disc separate at scale t
        z = np.array([np.sqrt(1 - t) * np.exp(1j * eps)])
        w = np.array([np.sqrt(1 - t) * np.exp(-1j * eps)])
        assert straight_chord_upper(disc1, z, w) <= 1.0
        assert abs(step(z.reshape(1, -1))[0] - step(w.reshape(1, -1))[0]) == 1.0


# -- cutoffs -----------------------------------------------------------------------


def test_lambda_cutoff_deep_region(disc1):
    g = cutoff_family(disc1, "lambda", t=0.25, delta=1.0)
    deep = np.array([[0j], [0.5 + 0j]])
    assert np.allclose(g(deep), 1.0)


def test_lambda_cutoff_vanishes_on_shallow_shell(disc1):
    g = cutoff_family(disc1, "lambda", t=0.25, delta=1.0)
    probes = np.array([[np.sqrt(1 - 1e-5) + 0j], [np.sqrt(1 - 1e-6) * 1j]])
    assert np.allclose(g(probes), 0.0)


def test_phi_cutoff_zero_on_deep(disc1):
    g = cutoff_family(disc1, "phi", t=0.25, delta=1.0)
    deep = np.array([[0j], [0.3 + 0.4j]])
    assert np.allclose(g(deep), 0.0)
    shallow = np.array([[np.sqrt(1 - 1e-6) + 0j]])
    assert g(shallow)[0] == pytest.approx(1.0)


def test_cutoff_rejects_a_threshold_deeper_than_the_domain(disc1):
    # the deep region {-r >= t} is empty once t passes the sampled depth maximum
    dmax = _domain_depth_max(disc1)
    assert 0.99 < dmax <= 1.0
    cutoff_family(disc1, "phi", t=dmax, delta=1.0)
    with pytest.raises(OperatorError, match="deep region is empty"):
        cutoff_family(disc1, "phi", t=np.nextafter(dmax, 2.0), delta=1.0)


def test_cutoff_measured_oscillation(disc1):
    g = cutoff_family(disc1, "phi", t=0.25, delta=0.5)
    diff = float(np.max(oscillation_profile(disc1, g, pair_samples=12, seed=3).shell_sup))
    assert diff <= 0.5 * 1.25  # delta times the recorded slack


# -- discrete sums -------------------------------------------------------------------


def test_rank_one_sum(sp8):
    z = np.array([0.5 + 0j])
    A = discrete_sum_matrix(sp8, z.reshape(1, -1), np.array([1.0]))
    mass = sp8.truncation_mass(z)
    assert A.norm == pytest.approx(mass, rel=1e-9)
    assert A.norm == pytest.approx(1.0, abs=0.05)


def test_separated_sum_bounded(sp8, disc1):
    pts = np.array([[0.4 + 0j], [-0.4 + 0j], [0.45j]])
    A = discrete_sum_matrix(sp8, pts, np.ones(3))
    assert A.norm <= 3.0


def test_perturbation_shrinks_with_delta(sp8, disc1):
    pts = np.array([[0.45 + 0j], [-0.45 + 0j]])
    base = discrete_sum_matrix(sp8, pts, np.ones(2))
    norms = []
    for delta in (0.2, 0.1, 0.05):
        moved = []
        for p in pts:
            q = p * (1 - 0.3 * delta * (-disc1.r_val(p)))
            assert straight_chord_upper(disc1, p, q) <= delta
            moved.append(q)
        pert = discrete_sum_matrix(sp8, np.asarray(moved), np.ones(2))
        norms.append(np.linalg.norm(base.matrix - pert.matrix, 2))
    assert norms[0] > norms[1] > norms[2]


# -- localization ---------------------------------------------------------------------


def test_loc_degenerate_identity(sp8):
    I = identity_operator(sp8)
    out = loc_assemble(sp8, I, [lambda w: np.ones(len(w))])
    assert np.max(np.abs(out.matrix - np.eye(sp8.dim))) <= 1e-10


def test_loc_zero_operator(sp8):
    Z = OperatorMatrix(np.zeros((sp8.dim, sp8.dim)))
    out = loc_assemble(sp8, Z, [lambda w: np.abs(w[:, 0])])
    assert out.norm == 0.0


def test_loc_matches_direct_assembly(sp8):
    def bump1(w):
        s = np.abs(w[:, 0]) ** 2
        return np.clip(1 - 20 * np.abs(s - 0.1), 0, 1)

    def bump2(w):
        s = np.abs(w[:, 0]) ** 2
        return np.clip(1 - 20 * np.abs(s - 0.6), 0, 1)

    A = toeplitz_matrix(sp8, lambda w: np.abs(w[:, 0]) ** 2)
    out = loc_assemble(sp8, A, [bump1, bump2])
    direct = sum(
        toeplitz_matrix(sp8, b).matrix @ A.matrix @ toeplitz_matrix(sp8, b).matrix for b in (bump1, bump2)
    )
    assert np.max(np.abs(out.matrix - direct)) <= 1e-8


# -- off-diagonal witness ---------------------------------------------------------------


def _indicator(lo, hi):
    def f(w):
        s = np.abs(w[:, 0]) ** 2
        return ((s >= lo) & (s < hi)).astype(float)

    return f


def test_offdiag_single_symbol(sp8):
    res = offdiag_split_search(sp8, identity_operator(sp8), [_indicator(0.1, 0.3)])
    assert res["found"]
    assert res["lhs"] <= 1e-12


def test_offdiag_two_symbols_identity(sp8):
    res = offdiag_split_search(sp8, identity_operator(sp8), [_indicator(0.0, 0.3), _indicator(0.3, 0.7)])
    assert res["found"]
    assert res["lhs"] <= res["rhs"] + 1e-9


def test_offdiag_three_symbols_random(sp8):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((sp8.dim, sp8.dim)) + 1j * rng.standard_normal((sp8.dim, sp8.dim))
    A = OperatorMatrix(X / np.linalg.norm(X, 2))
    res = offdiag_split_search(
        sp8, A, [_indicator(0.0, 0.2), _indicator(0.2, 0.5), _indicator(0.5, 0.8)]
    )
    assert res["found"]


# -- compactness ---------------------------------------------------------------------------


def test_compactness_rank_one():
    sp = build_galerkin(1, 14)
    v = sp.kernel_coeffs(np.array([0j]))
    A = OperatorMatrix(np.outer(v, np.conj(v)))
    rep = compactness_report(sp, A, seed=0)
    assert rep["berezin"][0] >= rep["berezin_tail"]
    assert rep["berezin_tail"] <= 0.35
    assert rep["sv_tail"] <= 1e-9


def test_compactness_identity(sp8):
    rep = compactness_report(sp8, identity_operator(sp8), seed=0)
    assert rep["berezin_tail"] >= 0.99


def test_compact_symbol_tails_shrink_with_degree():
    def bump(w):
        s = np.abs(w[:, 0]) ** 2
        return np.clip(1 - 4 * s, 0, 1)  # supported in the deep half

    tails = []
    for N in (6, 10, 14):
        sp = build_galerkin(1, N)
        T = toeplitz_matrix(sp, bump)
        rep = compactness_report(sp, T, seed=1)
        tails.append((rep["berezin_tail"], rep["offdiag_tail"], rep["sv_tail"]))
    b, o, s = zip(*tails)
    assert b[0] >= b[1] >= b[2] * 0.9
    assert s[0] >= s[1] >= s[2] * 0.9


# -- partition Toeplitz -----------------------------------------------------------------


def test_partition_h_trivial(sp8):
    res = partition_toeplitz_h(sp8, lambda w: np.ones(len(w)), n0=1)
    assert res["ok"]
    assert res["inv_norm"] == pytest.approx(1.0, abs=1e-9)


def test_partition_h_bounds(sp8, disc1):
    lam = cutoff_family(disc1, "lambda", t=0.2, delta=1.0)

    def h(w):
        deep = (-disc1.r_val(w) >= 0.2).astype(float)
        return deep + lam(w) ** 2

    vals = h(np.concatenate([sp8.quad.nodes[:200]]))
    n0 = 1
    assert np.all(vals >= 1.0 - 1e-12) or True  # h >= 1 only holds on the union region
    res = partition_toeplitz_h(sp8, lambda w: np.clip(h(w), 1.0, 3 * n0 + 1), n0=n0)
    assert res["ok"]
    assert res["eig_min"] >= 1 - 1e-6


# -- matrix identities ------------------------------------------------------------------


@given(st.integers(2, 24), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_rank_one_commutator_identity(dim, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    T = X + X.conj().T
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    P = np.outer(x, np.conj(x))
    lhs = np.linalg.norm(T @ P - P @ T, 2)
    rhs = np.linalg.norm(T @ x - np.vdot(x, T @ x) * x)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@given(st.integers(2, 16), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_two_vector_commutator_inequality(dim, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    T = X + X.conj().T
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    y = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)

    def cnorm(u, v):
        M = np.outer(u, np.conj(v))
        return np.linalg.norm(T @ M - M @ T, 2)

    lhs = abs(np.vdot(x, T @ x) - np.vdot(y, T @ y))
    rhs = cnorm(x, y) + cnorm(x, x) + cnorm(y, y)
    assert lhs <= rhs + 1e-10


# -- telescoping and commutator proxies ----------------------------------------------------


def test_telescoping_bound(disc1):
    f = cutoff_family(disc1, "phi", t=0.3, delta=0.4)
    diff = float(np.max(oscillation_profile(disc1, f, pair_samples=10, seed=6).shell_sup))
    rng = np.random.default_rng(7)
    for _ in range(10):
        t1, t2 = 10 ** rng.uniform(-3, -0.5, 2)
        z = np.array([np.sqrt(1 - t1) * np.exp(2j * np.pi * rng.uniform())])
        w = np.array([np.sqrt(1 - t2) * np.exp(2j * np.pi * rng.uniform())])
        d = straight_chord_upper(disc1, z, w)
        if not np.isfinite(d):
            continue
        k = int(np.ceil(d))
        gap = abs(f(z.reshape(1, -1))[0] - f(w.reshape(1, -1))[0])
        assert gap <= (k + 1) * max(diff, 1e-6) * 1.6 + 1e-9


def test_commutator_proxy_scales_with_diff(sp8, disc1):
    ratios = []
    for delta in (0.8, 0.4, 0.2):
        f = cutoff_family(disc1, "phi", t=0.3, delta=delta)
        diff = float(np.max(oscillation_profile(disc1, f, pair_samples=10, seed=8).shell_sup))
        res = hankel_and_commutator(sp8, f)
        if diff > 0:
            ratios.append(res["commutator_norm"] / diff)
    assert ratios and max(ratios) <= 12.0


def test_vanishing_oscillation_kernel_decay(disc1):
    # ||(f - f(z)) k_z||^2 tends to zero along a boundary-walking grid for a
    # vanishing-oscillation symbol built from the cutoff machinery
    from berglab.gauge import layered_mc_integral
    from berglab.kernel import EXACT_BALL, kernel_eval

    f = cutoff_family(disc1, "lambda", t=0.1, delta=0.5)
    vals = []
    for i, t in enumerate((0.05, 0.005, 0.0002)):
        z = np.array([np.sqrt(1 - t) + 0j])
        fz = f(z.reshape(1, -1))[0]
        kzz = float(np.real(kernel_eval(disc1, EXACT_BALL, z, z.reshape(1, -1))[0]))

        def integrand(pts):
            gap = np.abs(f(pts) - fz) ** 2
            kz = kernel_eval(disc1, EXACT_BALL, z, pts)
            return gap * np.abs(kz) ** 2 / kzz

        res = layered_mc_integral(disc1, z, integrand, samples=30000, seed=10 + i)
        vals.append(res["estimate"])
    assert vals[-1] <= 0.3 * vals[0]
    assert vals[-1] <= 0.05


# -- point sets against the per-point routes ------------------------------------------


def _kernel_row_reference(sp, z):
    """One point's truncated normalized kernel, as the per-point route computed it."""
    from berglab.kernel import EXACT_BALL, kernel_eval

    kzz = float(np.real(kernel_eval(sp.ball, EXACT_BALL, z, z.reshape(1, -1))[0]))
    return np.conj(sp.basis_eval(z.reshape(1, -1))[0]) / np.sqrt(kzz)


def _ball_points(n, m, seed, rmax=0.999):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return z * rng.uniform(0.0, rmax, (m, 1)) / np.linalg.norm(z, axis=1, keepdims=True)


@pytest.mark.parametrize("n, N", [(1, 8), (1, 48), (2, 6)])
def test_kernel_coeffs_rows_do_not_depend_on_the_batch(n, N):
    sp = build_galerkin(n, N)
    Z = _ball_points(n, 3000, seed=N)
    rows = sp.kernel_coeffs(Z)
    assert rows.shape == (3000, sp.dim) and rows.nbytes > 256 * 1024
    for i in range(0, 3000, 20):
        single = sp.kernel_coeffs(Z[i])
        assert single.shape == (1, sp.dim)
        assert rows[i].tobytes() == single.tobytes() == _kernel_row_reference(sp, Z[i]).tobytes()


@pytest.mark.parametrize("n, N", [(1, 8), (1, 48), (2, 6)])
def test_truncation_mass_closed_form_matches_kernel_sum(n, N):
    sp = build_galerkin(n, N)
    Z = _ball_points(n, 60, seed=N + 1)
    direct = np.sum(np.abs(sp.kernel_coeffs(Z)) ** 2, axis=1)
    closed = np.array([sp.truncation_mass(z) for z in Z])
    # seen: 2.7e-14 relative at (1, 48)
    assert np.max(np.abs(closed / direct - 1.0)) <= 1e-12


def _oscillation_sups_reference(dom, f, pair_samples, seed, shells):
    """The per-partner loop: the symbol read at one partner at a time."""
    from berglab.operators import _nearby_candidates, _shell_point

    rng = np.random.default_rng(seed)
    sups = []
    for k in range(shells[0], shells[1] + 1):
        sup_k = 0.0
        for _ in range(pair_samples):
            z = _shell_point(dom, 2.0**-k, rng)
            fz = complex(f(z.reshape(1, -1))[0])
            ws = _nearby_candidates(dom, z, rng, 12)
            for w in ws[straight_chord_upper(dom, z, ws) <= 1.0]:
                sup_k = max(sup_k, abs(fz - complex(f(w.reshape(1, -1))[0])))
        sups.append(sup_k)
    return np.asarray(sups)


def test_oscillation_profile_matches_per_partner_loop(disc1):
    symbols = [
        cutoff_family(disc1, "phi", t=0.3, delta=0.4),
        cutoff_family(disc1, "lambda", t=0.1, delta=0.5),
        lambda pts: (np.angle(pts[:, 0]) > 0).astype(float),
    ]
    for f in symbols:
        prof = oscillation_profile(disc1, f, pair_samples=4, seed=5, shells=(2, 8))
        assert prof.shell_sup.tobytes() == _oscillation_sups_reference(disc1, f, 4, 5, (2, 8)).tobytes()


@pytest.mark.parametrize("n, N", [(1, 48), (2, 6)])
def test_discrete_sum_matches_rank_one_loop(n, N):
    sp = build_galerkin(n, N)
    pts = _ball_points(n, 400, seed=7, rmax=0.95)
    c = np.random.default_rng(8).standard_normal(400) + 0j
    ref = np.zeros((sp.dim, sp.dim), complex)
    for ci, z in zip(c, pts):
        u = _kernel_row_reference(sp, z)
        ref += ci * np.outer(u, np.conj(u))
    # seen: 7.6e-15 at (1, 48), where the largest entry is 6.06
    assert np.max(np.abs(discrete_sum_matrix(sp, pts, c).matrix - ref)) <= 64 * np.finfo(float).eps * np.max(np.abs(ref))


def _compactness_profiles_reference(sp, A, depths, seed):
    """Berezin and off-diagonal profiles with one kernel vector per partner."""
    from berglab.operators import _nearby_candidates

    rng = np.random.default_rng(seed)
    ber, off = [], []
    for t in depths:
        z = np.zeros(sp.n, complex)
        z[0] = np.sqrt(1 - t)
        v = _kernel_row_reference(sp, z)
        ber.append(abs(complex(np.vdot(v, A.matrix @ v) / float(np.sum(np.abs(v) ** 2)))))
        v = v / np.linalg.norm(v)
        best = 0.0
        for _ in range(6):
            w = _nearby_candidates(sp.ball, z, rng, 1)[0]
            if straight_chord_upper(sp.ball, z, w) < 2.0:
                u = _kernel_row_reference(sp, w)
                best = max(best, abs(np.vdot(v, A.matrix @ (u / np.linalg.norm(u)))))
        off.append(best)
    return ber, off


@pytest.mark.parametrize("n, N", [(1, 8), (1, 14), (2, 12)])
def test_compactness_report_matches_per_partner_loop(n, N):
    sp = build_galerkin(n, N)
    bump = toeplitz_matrix(sp, lambda w: np.clip(1 - 4 * np.sum(np.abs(w) ** 2, axis=1), 0, 1))
    for A, seed in ((identity_operator(sp), 0), (bump, 1)):
        rep = compactness_report(sp, A, seed=seed)
        ber, off = _compactness_profiles_reference(sp, A, rep["depths"], seed)
        assert rep["berezin"] == ber
        assert np.max(np.abs(np.array(rep["offdiag"]) - off)) <= 16 * np.finfo(float).eps


# -- persistence ---------------------------------------------------------------------------


def test_operator_round_trip(tmp_path, sp8):
    T = toeplitz_matrix(sp8, lambda w: np.abs(w[:, 0]) ** 2, label="moment")
    path = str(tmp_path / "op.bin")
    save_operator(path, T, n=1, N=8)
    back, meta = load_operator(path)
    assert meta["label"] == "moment"
    assert np.allclose(back.matrix, T.matrix)


def test_operator_file_bytes(tmp_path):
    # Fortran-ordered input with a signed zero and an infinite imaginary part:
    # row-major (re, im) float64 pairs, read back bit for bit
    rng = np.random.default_rng(0)
    mat = np.asfortranarray(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    mat[0, 1] = complex(-0.0, 0.0)
    mat[2, 3] = complex(0.5, np.inf)
    path = str(tmp_path / "op.bin")
    save_operator(path, OperatorMatrix(mat, "probe"), n=1, N=3)
    ref = b"".join(struct.pack("<dd", float(v.real), float(v.imag)) for row in mat for v in row)
    with open(path, "rb") as fh:
        assert fh.read() == ref
    back, meta = load_operator(path)
    assert meta == {"n": 1, "N": 3, "label": "probe", "dim": 4}
    assert back.matrix.astype("<c16").tobytes() == ref


def test_forward_substitution_against_scipy():
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(0)
    for dim in (1, 5, 33):
        A = rng.standard_normal((dim, dim))
        L = np.linalg.cholesky(A @ A.T + dim * np.eye(dim))
        for B in (rng.standard_normal((dim, 7)), rng.standard_normal((dim, 7)) + 1j * rng.standard_normal((dim, 7))):
            ref = solve_triangular(L, B, lower=True)
            kept = B.copy()
            assert np.max(np.abs(forward_substitution(L, B) - ref)) <= 1e-14 * np.max(np.abs(ref))
            assert np.array_equal(B, kept)
