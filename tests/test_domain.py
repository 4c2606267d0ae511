import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berglab._poly import HermPoly
from berglab.domain import (
    DomainError,
    DomainSpec,
    boundary_project,
    certify_pseudoconvexity,
    complex_tangent_basis,
    custom_domain,
    ellipsoid,
    eval_geometry,
    fit_projection_constant,
    normal_direction,
    sample_region,
    select_theta,
    surface_sample,
    unit_ball,
    walk_to_depth,
)


def test_ball_geometry_at_center(ball2):
    g = eval_geometry(ball2, np.zeros(2, complex))
    assert g["r"] == -1.0
    assert np.allclose(g["dbar_r"], 0)
    assert np.allclose(g["hessian"], np.eye(2))


def test_disc_geometry_hand_derivative(disc):
    g = eval_geometry(disc, np.array([0.5 + 0j]))
    assert g["r"] == pytest.approx(-0.75)
    assert g["dbar_r"][0] == pytest.approx(0.5)
    assert g["hessian"][0, 0] == pytest.approx(1.0)


def test_ellipsoid_hessian(egg):
    g = eval_geometry(egg, np.zeros(2, complex))
    assert np.allclose(g["hessian"], np.diag([1.0, 2.0]))


def _finite_diff_dbar(dom, z, h=1e-6):
    out = np.zeros(dom.n, complex)
    for i in range(dom.n):
        e = np.zeros(dom.n, complex)
        e[i] = 1.0
        dx = (dom.r_val(z + h * e) - dom.r_val(z - h * e)) / (2 * h)
        dy = (dom.r_val(z + 1j * h * e) - dom.r_val(z - 1j * h * e)) / (2 * h)
        out[i] = 0.5 * (dx + 1j * dy)
    return out


def _finite_diff_levi(dom, z, xi, h=1e-4):
    # second difference of r along the complex line z + s*xi recovers the
    # Levi quadratic form plus the pure-holomorphic Hessian part; averaging
    # over the phase i*xi cancels the holomorphic part
    def pure(v):
        return (dom.r_val(z + h * v) + dom.r_val(z - h * v) - 2 * dom.r_val(z)) / h**2

    return 0.25 * (pure(xi) + pure(1j * xi))


@pytest.mark.parametrize("make_dom", [lambda: unit_ball(2), lambda: ellipsoid([1.0, 2.0])])
def test_geometry_matches_finite_differences(make_dom, mixed):
    dom = make_dom()
    rng = np.random.default_rng(3)
    for dom_i in (dom, mixed):
        for _ in range(30):
            z = (rng.uniform(-0.4, 0.4, 2) + 1j * rng.uniform(-0.4, 0.4, 2)).astype(complex)
            g = eval_geometry(dom_i, z)
            fd = _finite_diff_dbar(dom_i, z)
            assert np.allclose(g["dbar_r"], fd, atol=1e-8)
            xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            form = np.real(np.einsum("ij,i,j->", g["hessian"], xi, np.conj(xi)))
            assert form == pytest.approx(_finite_diff_levi(dom_i, z, xi), rel=1e-4, abs=1e-6)


def test_certify_ball(ball2):
    res = certify_pseudoconvexity(ball2, mesh_density=1500, seed=1)
    assert res["theta_ok"]
    assert res["c_min"] == pytest.approx(1.0, abs=1e-9)


def test_certify_ellipsoid(egg):
    res = certify_pseudoconvexity(egg, mesh_density=1500, seed=1)
    assert res["theta_ok"]
    assert res["c_min"] == pytest.approx(1.0, abs=1e-9)


def test_certify_fails_on_indefinite_hessian():
    # |z1|^2 - |z2|^2 - 1 < 0 clipped to a box: Hessian eigenvalue -1
    dom = custom_domain(
        2,
        [((1, 0), (1, 0), 1.0), ((0, 1), (0, 1), -1.0), ((0, 0), (0, 0), -1.0)],
        [[-2.0, 2.0]] * 4,
        c=1.0,
        theta=0.25,
    )
    res = certify_pseudoconvexity(dom, mesh_density=1500, seed=0)
    assert not res["theta_ok"]
    assert res["witness"]["kind"] == "hessian"
    assert res["c_min"] == pytest.approx(-1.0, abs=1e-9)


def test_select_theta_ball():
    dom = unit_ball(1, theta=0.5)
    theta = select_theta(dom, mesh_density=3000)
    assert theta <= 0.5
    assert theta >= 2.0**-6


def test_boundary_project_disc(disc):
    p = boundary_project(disc, np.array([0.9 + 0j]))
    assert p[0] == pytest.approx(1.0, abs=1e-9)
    assert abs(disc.r_val(p)) <= disc.boundary_tol


def test_boundary_project_ball(ball2):
    p = boundary_project(ball2, np.array([0.9, 0], complex))
    assert np.allclose(p, [1.0, 0.0], atol=1e-9)


def test_boundary_project_fixed_point(disc):
    z = np.array([1.0 + 0j])
    p = boundary_project(disc, z)
    assert np.allclose(p, z, atol=1e-9)


def test_projection_constant_fit(disc):
    cp = fit_projection_constant(disc, count=60, seed=2)
    # oracle on the disc: |z - p| = 1 - |z| and |r| = 1 - |z|^2 >= 1 - |z|
    assert cp <= 1.05
    z = np.array([0.9 + 0j])
    p = boundary_project(disc, z)
    assert np.linalg.norm(p - z) <= cp * abs(disc.r_val(z))


def test_normal_direction_examples(disc, ball2):
    assert normal_direction(disc, np.array([0.5 + 0j]))[0] == pytest.approx(1.0)
    nd = normal_direction(ball2, np.array([0, 0.5], complex))
    assert np.allclose(nd, [0, 1.0])


@given(x=st.floats(-0.7, 0.7), y=st.floats(-0.7, 0.7))
@settings(max_examples=25, deadline=None)
def test_normal_direction_unit_norm(x, y):
    dom = unit_ball(1, theta=1.0)
    z = np.array([x + 1j * y])
    if abs(z[0]) < 1e-3:
        return
    assert np.linalg.norm(normal_direction(dom, z)) == pytest.approx(1.0)


def test_sample_region_interior(disc):
    pts = sample_region(disc, "interior", 500, seed=4)
    assert len(pts) == 500
    assert np.all(np.abs(pts[:, 0]) < 1)


def test_sample_region_shell(disc):
    pts = sample_region(disc, ("shell", 0.25, 0.5), 300, seed=4)
    d = 1 - np.abs(pts[:, 0]) ** 2
    assert np.all((d >= 0.25) & (d <= 0.5))


def test_sample_region_surface(ball2):
    pts = sample_region(ball2, ("surface", 0.0), 200, seed=4)
    assert np.all(np.abs(np.sum(np.abs(pts) ** 2, axis=1) - 1) < 1e-8)


def test_sample_region_deterministic(disc):
    a = sample_region(disc, "interior", 100, seed=11)
    b = sample_region(disc, "interior", 100, seed=11)
    assert np.array_equal(a, b)


def test_surface_area_disc(disc):
    rng = np.random.default_rng(0)
    _, area = surface_sample(disc, 0.0, 2000, rng)
    assert area == pytest.approx(2 * np.pi, rel=0.05)


def test_json_round_trip(egg):
    doc = egg.to_json()
    back = DomainSpec.from_json(doc)
    assert back.n == egg.n
    assert back.tag == egg.tag
    rng = np.random.default_rng(0)
    z = rng.uniform(-0.3, 0.3, (5, 2)) + 1j * rng.uniform(-0.3, 0.3, (5, 2))
    assert np.allclose(back.r_val(z), egg.r_val(z))


@given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
@settings(max_examples=30, deadline=None)
def test_defining_polynomial_real(x, y):
    dom = unit_ball(1)
    val = dom.r(np.array([x + 1j * y]))
    assert abs(np.imag(val)) < 1e-14


def test_reject_complex_polynomial():
    with pytest.raises(DomainError):
        custom_domain(1, [((1,), (0,), 1.0), ((0,), (0,), -1.0)], [[-2, 2]] * 2, c=1.0, theta=0.1)


def _reference_surface_sample(dom, rho, count, rng, slab_eps=None):
    """The slab loop evaluating r_val on every draw, kept as the reference."""
    from berglab.domain import _grad_cap, _project_to_level

    if slab_eps is None:
        slab_eps = 5e-4 * dom.box_diameter()
    box = dom.bounding_box
    grad_cap = _grad_cap(dom, rng)
    pts = []
    n_drawn = 0
    n_in_slab = 0
    grad_sum = 0.0
    for _ in range(600):
        m = max(8 * count, 8192)
        raw = rng.uniform(box[:, 0], box[:, 1], size=(m, 2 * dom.n))
        zz = raw[:, : dom.n] + 1j * raw[:, dom.n :]
        n_drawn += m
        rv = dom.r_val(zz)
        sel = np.abs(-rv - rho) < slab_eps
        cand = zz[sel]
        n_in_slab += len(cand)
        if len(cand) == 0:
            continue
        gn = dom.grad_norm(cand)
        grad_sum += float(np.sum(gn))
        acc = rng.uniform(0, grad_cap, size=len(cand)) < gn
        cand = cand[acc]
        if len(cand) == 0:
            continue
        proj = _project_to_level(dom, cand, rho)
        pts.append(proj)
        if sum(len(p) for p in pts) >= count:
            break
    if not pts or sum(len(p) for p in pts) < count:
        raise DomainError("surface sampler starved; enlarge slab_eps or count")
    mean_grad = grad_sum / max(n_in_slab, 1)
    box_vol = float(np.prod(box[:, 1] - box[:, 0]))
    slab_vol = box_vol * n_in_slab / n_drawn
    area = slab_vol * mean_grad / (2.0 * slab_eps)
    return np.concatenate(pts, axis=0)[:count], float(area)


# the mixed domain's gradient cap starves the default slab at any count
@pytest.mark.parametrize("name, slab_eps", [("egg", None), ("ball2", None), ("mixed", 0.01)])
@pytest.mark.parametrize("rho, count, seed", [(0.0, 1500, 4), (0.05, 800, 9)])
def test_surface_sample_matches_reference_slab_loop(request, name, slab_eps, rho, count, seed):
    dom = request.getfixturevalue(name)
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    pts, area = surface_sample(dom, rho, count, rng, slab_eps)
    pts_ref, area_ref = _reference_surface_sample(dom, rho, count, rng_ref, slab_eps)
    assert pts.tobytes() == pts_ref.tobytes()
    assert area == area_ref
    assert rng.random() == rng_ref.random()


# both need more batches than the 600 after which the sampler first judges its yield
@pytest.mark.parametrize("name, count, seed", [("quartic", 4000, 2026), ("mixed", 3000, 7), ("mixed", 1500, 4)])
def test_surface_sample_at_the_default_slab(request, name, count, seed):
    dom = request.getfixturevalue(name)
    pts, area = surface_sample(dom, 0.0, count, np.random.default_rng(seed))
    assert pts.shape == (count, dom.n)
    assert np.max(np.abs(dom.r_val(pts))) <= dom.boundary_tol
    if name == "quartic":
        # the circle |z|^2 = (sqrt(4.25) - 0.5) / 2
        assert area == pytest.approx(2 * np.pi * np.sqrt((np.sqrt(4.25) - 0.5) / 2), rel=0.01)


def test_surface_sampler_names_its_yield(disc):
    with pytest.raises(DomainError, match=r"\d+ draws, 0 slab hits and 0 thinned acceptances \(grad_cap [\d.]+\)"):
        surface_sample(disc, 0.0, 10, np.random.default_rng(0), slab_eps=1e-15)


def test_real_poly_matches_herm_poly(mixed, quartic):
    from berglab._poly import RealPoly

    rng = np.random.default_rng(5)
    for dom in (mixed, quartic):
        z = rng.uniform(-1.2, 1.2, (500, dom.n)) + 1j * rng.uniform(-1.2, 1.2, (500, dom.n))
        real = RealPoly(dom.r)
        bound = real.rounding_bound(np.full(dom.n, np.sqrt(2) * 1.2))
        assert 0 < bound < 1e-10
        assert np.max(np.abs(real(z.real.T, z.imag.T) - dom.r_val(z))) <= bound


def test_walk_to_depth_both_directions(egg):
    # shallower points walk inward, deeper ones outward, onto one level set
    pts = sample_region(egg, ("shell", 0.01, 0.3), 40, seed=3)
    out = walk_to_depth(egg, pts, 0.1)
    assert np.allclose(-egg.r_val(out), 0.1, rtol=1e-9)
    steps = out - pts
    normals = normal_direction(egg, pts)
    # each move is parallel to the normal at its starting point
    assert np.allclose(np.abs(np.einsum("mi,mi->m", steps, np.conj(normals))), np.linalg.norm(steps, axis=1))
    with pytest.raises(DomainError):
        walk_to_depth(egg, pts[:1], 5.0)


def _reference_walk(dom, zs, depth):
    """The bracket-then-80-bisections normal walk that walk_to_depth's Newton root replaced."""
    zs = np.asarray(zs, complex).reshape(-1, dom.n)
    depth = np.broadcast_to(np.asarray(depth, float), (len(zs),))
    current = -dom.r_val(zs)
    done = np.abs(current - depth) <= 1e-14 * depth
    g = dom.dbar_r(zs)
    u = g / np.linalg.norm(g, axis=-1, keepdims=True)
    sign = np.where(current < depth, -1.0, 1.0)
    s_hi = np.abs(depth - current) / np.maximum(dom.grad_norm(zs) / 2.0, 1e-12)

    def reached(s):
        val = -dom.r_val(zs + (sign * s)[:, None] * u)
        return np.where(sign < 0, val >= depth, val <= depth) | done

    for _ in range(200):
        ok = reached(s_hi)
        if np.all(ok):
            break
        s_hi = np.where(ok, s_hi, s_hi * 1.5)
    s_lo = np.zeros_like(s_hi)
    for _ in range(80):
        mid = 0.5 * (s_lo + s_hi)
        ok = reached(mid)
        s_hi = np.where(ok, mid, s_hi)
        s_lo = np.where(ok, s_lo, mid)
    out = zs + (sign * s_hi)[:, None] * u
    out[done] = zs[done]
    return out


@pytest.mark.parametrize("name", ["disc", "ball2", "egg", "mixed", "quartic"])
def test_walk_to_depth_matches_reference_bisection(request, name):
    dom = request.getfixturevalue(name)
    pts = sample_region(dom, ("shell", 1e-3, 0.3), 200, seed=11)
    normals = normal_direction(dom, pts)
    for depth in (0.0, 2.0**-44, 1e-8, 1e-4, 0.01, 0.1):
        out = walk_to_depth(dom, pts, depth)
        ref = _reference_walk(dom, pts, depth)
        assert np.max(np.abs(-dom.r_val(out) - depth)) <= 8 * np.finfo(float).eps
        steps = out - pts
        assert np.allclose(np.abs(np.einsum("mi,mi->m", steps, np.conj(normals))), np.linalg.norm(steps, axis=1))
        assert np.all(np.linalg.norm(out - ref, axis=1) <= 1e-10 * np.linalg.norm(ref - pts, axis=1))


def test_walk_to_depth_names_a_vanishing_gradient(recwarn):
    with pytest.raises(DomainError, match="gradient below tolerance"):
        walk_to_depth(unit_ball(2), np.zeros((1, 2)), 0.5)
    assert len(recwarn) == 0


def test_complex_tangent_basis_is_orthonormal_complement():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u /= np.linalg.norm(u)
    basis = complex_tangent_basis(u)
    assert basis.shape == (2, 3)
    assert np.allclose(basis @ basis.conj().T, np.eye(2))
    assert np.allclose(basis @ np.conj(u), 0.0)
