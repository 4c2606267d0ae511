import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berglab import domain as domain_mod
from berglab._poly import HermPoly
from berglab.domain import (
    DomainError,
    DomainSpec,
    _collar_mesh,
    box_uniform,
    certify_pseudoconvexity,
    complex_tangent_basis,
    custom_domain,
    ellipsoid,
    normal_direction,
    sample_region,
    surface_sample,
    unit_ball,
    walk_to_depth,
)
from berglab.gauge import GaugeError, _bulk_sample, taylor_remainder


def test_ball_geometry_at_center(ball2):
    z = np.zeros(2, complex)
    assert ball2.r_val(z) == -1.0
    assert np.allclose(ball2.dbar_r(z), 0)
    assert np.allclose(ball2.hessian(z), np.eye(2))


def test_disc_geometry_hand_derivative(disc):
    z = np.array([0.5 + 0j])
    assert disc.r_val(z) == pytest.approx(-0.75)
    assert disc.dbar_r(z)[0] == pytest.approx(0.5)
    assert disc.hessian(z)[0, 0] == pytest.approx(1.0)


def test_ellipsoid_hessian(egg):
    assert np.allclose(egg.hessian(np.zeros(2, complex)), np.diag([1.0, 2.0]))


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
            fd = _finite_diff_dbar(dom_i, z)
            assert np.allclose(dom_i.dbar_r(z), fd, atol=1e-8)
            xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            form = np.real(np.einsum("ij,i,j->", dom_i.hessian(z), xi, np.conj(xi)))
            assert form == pytest.approx(_finite_diff_levi(dom_i, z, xi), rel=1e-4, abs=1e-6)


# Reference derivative tables: the per-order builders and evaluators that
# DomainSpec.partial / DomainSpec.derivatives replaced, as they were written.


def _reference_polys(dom):
    n = dom.n
    grad = [dom.r.dbar(i) for i in range(n)]
    hess = [[d.d(i) for d in grad] for i in range(n)]
    ds = [dom.r.d(i) for i in range(n)]
    holo = [[ds[j].d(i) for j in range(n)] for i in range(n)]
    dbar2 = {(j, k): grad[j].dbar(k) for j in range(n) for k in range(j, n)}
    hess_dbar = {(i, j, k): p.d(i) for (j, k), p in dbar2.items() for i in range(n)}
    return grad, hess, holo, dbar2, hess_dbar


def _reference_tables(dom, z):
    grad, hess, holo, dbar2, hess_dbar = _reference_polys(dom)
    n, lead = dom.n, z.shape[:-1]
    g = np.empty(z.shape, complex)
    for i, p in enumerate(grad):
        g[..., i] = p(z)
    H = np.empty(lead + (n, n), complex)
    hol = np.empty(lead + (n, n), complex)
    for i in range(n):
        for j in range(n):
            H[..., i, j] = hess[i][j](z)
            hol[..., i, j] = holo[i][j](z)
    G = np.empty(lead + (n, n), complex)
    for (j, k), p in dbar2.items():
        G[..., j, k] = G[..., k, j] = p(z)
    T = np.empty(lead + (n, n, n), complex)
    for (i, j, k), p in hess_dbar.items():
        T[..., i, j, k] = T[..., i, k, j] = p(z)
    return g, H, hol, G, T


def _reference_taylor_remainder(dom, z, w, hol):
    diff = z - w
    out = -dom.r_val(w).astype(complex)
    d_r = np.conj(dom.dbar_r(w))
    for j in range(dom.n):
        out = out - d_r[..., j] * diff[..., j]
    for j in range(dom.n):
        for k in range(dom.n):
            out = out - 0.5 * hol[..., j, k] * diff[..., j] * diff[..., k]
    return out


@pytest.mark.parametrize("name", ["disc", "ball2", "egg", "mixed", "quartic", "quartic2"])
def test_derivative_tables_match_reference_builders(request, name):
    dom = request.getfixturevalue(name)
    pts = sample_region(dom, "interior", 12, seed=8)
    for z in (pts, pts.reshape(3, 4, dom.n), pts[0]):
        g, H, hol, G, T = _reference_tables(dom, z)
        assert dom.dbar_r(z).tobytes() == g.tobytes()
        assert dom.hessian(z).tobytes() == H.tobytes()
        assert dom.derivatives(z, 0, 2).tobytes() == G.tobytes()
        assert dom.derivatives(z, 1, 2).tobytes() == T.tobytes()
        assert dom.derivatives(z, 2, 0).tobytes() == hol.tobytes()
        assert dom.derivatives(z, 0, 1).shape == z.shape
        assert dom.derivatives(z, 1, 2).shape == z.shape[:-1] + (dom.n,) * 3
    _, _, _, dbar2, hess_dbar = _reference_polys(dom)
    for (j, k), p in dbar2.items():
        assert list(dom.partial((), (j, k)).terms.items()) == list(p.terms.items())
    for (i, j, k), p in hess_dbar.items():
        assert list(dom.partial((i,), (j, k)).terms.items()) == list(p.terms.items())
    w = pts[1:]
    ref = _reference_taylor_remainder(dom, pts[0], w, _reference_tables(dom, w)[2])
    assert taylor_remainder(dom, pts[0], w).tobytes() == ref.tobytes()


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


@pytest.mark.parametrize("name", ["disc", "ball2", "egg", "quartic2"])
def test_box_holds_the_domain(name, request):
    # r > 0 on every face of the box, on this test's own points: the box
    # rows are (Re z_1..Re z_n, Im z_1..Im z_n), as box_uniform reads them
    dom = request.getfixturevalue(name)
    box = dom.bounding_box
    rng = np.random.default_rng(11)
    for k in range(2 * dom.n):
        for end in box[k]:
            raw = rng.uniform(box[:, 0], box[:, 1], size=(3000, 2 * dom.n))
            raw[:, k] = end
            assert np.min(dom.r_val(raw[:, : dom.n] + 1j * raw[:, dom.n :])) > 0, (k, end)
    res = certify_pseudoconvexity(dom, mesh_density=1500, seed=1)
    assert res["theta_ok"] and res["witness"] is None
    # the same domain in a box that cuts |Im z_1| short fails with a box witness
    cut = box.copy()
    cut[dom.n] *= 0.7
    res = certify_pseudoconvexity(custom_domain(dom.n, [(a, b, c) for (a, b), c in dom.r.terms.items()], cut,
                                                c=dom.c, theta=dom.theta), mesh_density=1500, seed=1)
    assert not res["theta_ok"]
    assert res["witness"]["kind"] == "box" and res["witness"]["r"] < 0
    assert dom.r_val(np.asarray(res["witness"]["z"])) == res["witness"]["r"]


def test_walk_to_boundary_disc(disc):
    p = walk_to_depth(disc, np.array([0.9 + 0j]), 0.0)[0]
    assert p[0] == pytest.approx(1.0, abs=1e-9)
    assert abs(disc.r_val(p)) <= disc.boundary_tol


def test_walk_to_boundary_ball(ball2):
    p = walk_to_depth(ball2, np.array([0.9, 0], complex), 0.0)[0]
    assert np.allclose(p, [1.0, 0.0], atol=1e-9)


def test_walk_to_boundary_fixed_point(disc):
    z = np.array([1.0 + 0j])
    assert np.array_equal(walk_to_depth(disc, z, 0.0)[0], z)


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


def test_sample_region_deterministic(disc):
    a = sample_region(disc, "interior", 100, seed=11)
    b = sample_region(disc, "interior", 100, seed=11)
    assert np.array_equal(a, b)


# Reference box-rejection loops: the three loops that domain._box_reject
# replaced, as they were written.


def _reference_collar_mesh(dom, count, seed):
    rng = np.random.default_rng(seed)
    pts = []
    attempts = 0
    while sum(len(p) for p in pts) < count and attempts < 200:
        zz = box_uniform(dom, max(4 * count, 1024), rng)
        rv = dom.r_val(zz)
        keep = zz[(rv < 0) & (rv > -3.0 * dom.theta)]
        if keep.size:
            pts.append(keep)
        attempts += 1
    if not pts:
        return np.empty((0, dom.n), complex)
    return np.concatenate(pts, axis=0)[:count]


def _reference_sample_region(dom, keep, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    got = 0
    for _ in range(400):
        zz = box_uniform(dom, max(4 * count, 4096), rng)
        sel = zz[keep(dom.r_val(zz))]
        if sel.size:
            out.append(sel)
            got += len(sel)
        if got >= count:
            break
    if got < count:
        raise DomainError("acceptance rate too low for region sampling")
    return np.concatenate(out, axis=0)[:count]


def _reference_bulk_sample(dom, t_split, count, rng):
    box = dom.bounding_box
    vol_box = float(np.prod(box[:, 1] - box[:, 0]))
    kept = []
    drawn = 0
    hits = 0
    while sum(len(k) for k in kept) < count and drawn < 400 * max(count, 1):
        m = max(2 * count, 8192)
        zz = box_uniform(dom, m, rng)
        drawn += m
        sel = zz[-dom.r_val(zz) >= t_split]
        hits += len(sel)
        if len(sel):
            kept.append(sel)
    if not kept:
        raise GaugeError("bulk sampler found no interior points")
    pts = np.concatenate(kept, axis=0)[:count]
    vol_est = vol_box * hits / drawn
    density = np.full(len(pts), 1.0 / max(vol_est, 1e-300))
    frac = hits / drawn
    return pts, density, vol_box**2 * frac * (1.0 - frac) / drawn


@pytest.mark.parametrize("name", ["disc", "ball2", "egg"])
def test_box_rejection_matches_reference_loops(request, name):
    dom = request.getfixturevalue(name)
    for count, seed in ((4000, 0), (7, 3), (2500, 11)):
        assert _collar_mesh(dom, count, seed).tobytes() == _reference_collar_mesh(dom, count, seed).tobytes()
    for count, seed in ((500, 4), (20000, 9)):
        ref = _reference_sample_region(dom, lambda rv: rv < 0, count, seed)
        assert sample_region(dom, "interior", count, seed).tobytes() == ref.tobytes()
        ref = _reference_sample_region(dom, lambda rv: (-rv >= 0.25) & (-rv <= 0.5), count, seed)
        assert sample_region(dom, ("shell", 0.25, 0.5), count, seed).tobytes() == ref.tobytes()
    # a first block that keeps exactly ``count`` points ends the draw
    zz = box_uniform(dom, 8192, np.random.default_rng(6))
    exact = int(np.sum(-dom.r_val(zz) >= 0.5))
    for t_split, count, seed in ((0.5, 3000, 1), (0.1, 9000, 2), (0.9, 40, 5), (0.5, exact, 6)):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        pts, dens, vol_var = _bulk_sample(dom, t_split, count, rng)
        pts_ref, dens_ref, vol_var_ref = _reference_bulk_sample(dom, t_split, count, rng_ref)
        assert pts.tobytes() == pts_ref.tobytes() and dens.tobytes() == dens_ref.tobytes()
        assert vol_var == vol_var_ref
        # the generator is left where the reference leaves it
        assert rng.random() == rng_ref.random()


def test_collar_mesh_is_drawn_once_per_domain():
    dom = unit_ball(1)
    mesh = _collar_mesh(dom, 4000)
    assert _collar_mesh(dom, 4000) is mesh
    assert _collar_mesh(dom, 4000, 1) is not mesh


def test_box_rejection_give_ups(disc):
    with pytest.raises(DomainError):
        sample_region(disc, ("shell", 2.0, 3.0), 10)
    # asking for nothing draws nothing (the old loop drew a block and could fail to concatenate)
    assert sample_region(disc, ("shell", 2.0, 3.0), 0).shape == (0, 1)
    rng, rng_ref = np.random.default_rng(0), np.random.default_rng(0)
    with pytest.raises(GaugeError):
        _bulk_sample(disc, 2.0, 10, rng)
    with pytest.raises(GaugeError):
        _reference_bulk_sample(disc, 2.0, 10, rng_ref)
    assert rng.random() == rng_ref.random()
    # a collar of zero width: every block is drawn and the mesh comes back empty
    thin = unit_ball(1, theta=1e-300)
    mesh = _collar_mesh(thin, 5)
    assert mesh.shape == (0, 1) and mesh.tobytes() == _reference_collar_mesh(thin, 5, 0).tobytes()


def test_surface_area_disc(disc):
    rng = np.random.default_rng(0)
    _, area, _ = surface_sample(disc, 0.0, 2000, rng)
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


# every closed form is exact; the tolerance is a few of the estimator's own
# stderrs, with a relative floor for rounding where J is constant
_A = 1 / np.sqrt(2)
_EGG_AREA = 4 * np.pi**2 * _A * (1 - _A**3) / (3 * (1 - _A**2))


@pytest.mark.parametrize(
    "name, rho, exact",
    [
        ("disc", 0.0, 2 * np.pi),
        ("ball2", 0.0, 2 * np.pi**2),
        ("egg", 0.0, _EGG_AREA),
        # the circle |z|^2 = (sqrt(4.25) - 0.5) / 2
        ("quartic", 0.0, 2 * np.pi * np.sqrt((np.sqrt(4.25) - 0.5) / 2)),
        ("disc", 0.3, 2 * np.pi * np.sqrt(0.7)),
        ("ball2", 0.3, 2 * np.pi**2 * 0.7**1.5),
        # {-r = rho} is the ellipsoid scaled by sqrt(1 - rho)
        ("egg", 0.2, _EGG_AREA * 0.8**1.5),
    ],
)
def test_surface_area_oracles(request, name, rho, exact):
    dom = request.getfixturevalue(name)
    pts, area, stderr = surface_sample(dom, rho, 4000, np.random.default_rng(21))
    assert abs(area - exact) <= 4 * stderr + 1e-9 * exact
    assert stderr <= 0.01 * exact
    assert np.max(np.abs(-dom.r_val(pts) - rho)) <= 8 * np.finfo(float).eps


def test_surface_sample_is_uniform_on_the_sphere(ball2):
    # |xi_1|^2 of a uniform point of the unit sphere in C^2 is uniform on [0, 1]
    from scipy.stats import kstest

    pts, _, _ = surface_sample(ball2, 0.0, 5000, np.random.default_rng(8))
    assert kstest(np.abs(pts[:, 0]) ** 2, "uniform").pvalue > 0.01


def test_surface_sample_matches_its_importance_weights(egg):
    # the rejection step against the J-weighted mean over independent uniform directions
    from berglab.domain import _ray_field

    pts, _, _ = surface_sample(egg, 0.0, 20000, np.random.default_rng(5))
    f = np.abs(pts[:, 0]) ** 2
    rays = _ray_field(egg)
    q, jac = rays.level_points(rays.directions(200000, np.random.default_rng(6)), 0.0)
    ref = np.sum(jac * np.abs(q[:, 0]) ** 2) / np.sum(jac)
    assert abs(np.mean(f) - ref) <= 4 * np.std(f) / np.sqrt(len(f))


def _reference_ray_rejection(dom, rho, count, rng, block):
    """Every draw kept, each decided against the bound raised over all draws so far."""
    from berglab.domain import _BOUND_MARGIN, _ray_field

    rays = _ray_field(dom)
    pts, jac, unif = [], [], []
    j_cap, raises = 0.0, 0
    while True:
        p, j = rays.level_points(rays.directions(block, rng), rho)
        pts.append(p)
        jac.append(j)
        unif.append(rng.random(block))
        if j.max() > j_cap:
            j_cap = _BOUND_MARGIN * j.max()
            raises += 1
        keep = np.concatenate(unif) * j_cap < np.concatenate(jac)
        if np.count_nonzero(keep) >= count:
            return np.concatenate(pts)[keep][:count], np.mean(np.concatenate(jac)), raises


@pytest.mark.parametrize("name, rho", [("egg", 0.0), ("mixed", 0.0), ("egg", 0.05)])
def test_surface_sample_bound_restart(request, monkeypatch, name, rho):
    import berglab.domain as domain_mod

    dom = request.getfixturevalue(name)
    block = 16
    monkeypatch.setattr(domain_mod, "_SURFACE_BLOCK", block)
    pts, area, _ = surface_sample(dom, rho, 600, np.random.default_rng(3))
    ref, mean_j, raises = _reference_ray_rejection(dom, rho, 600, np.random.default_rng(3), block)
    # small blocks see the density's maximum late, so the bound is raised after the first block
    assert raises >= 2
    assert pts.tobytes() == ref.tobytes()
    assert area == pytest.approx(domain_mod._ray_field(dom).sphere_area * mean_j, rel=1e-12)


@pytest.mark.parametrize("name, count, seed", [("quartic", 4000, 2026), ("mixed", 3000, 7), ("mixed", 1500, 4)])
def test_surface_sample_at_the_default_slab(request, name, count, seed):
    dom = request.getfixturevalue(name)
    pts, area, _ = surface_sample(dom, 0.0, count, np.random.default_rng(seed))
    assert pts.shape == (count, dom.n)
    assert np.max(np.abs(dom.r_val(pts))) <= dom.boundary_tol
    if name == "quartic":
        # the circle |z|^2 = (sqrt(4.25) - 0.5) / 2
        assert area == pytest.approx(2 * np.pi * np.sqrt((np.sqrt(4.25) - 0.5) / 2), rel=0.01)


def test_ray_field_checks_star_shape():
    # {|z - 0.95|^2 < 1}: its collar {-0.75 < r < 0} reaches round the origin,
    # where r decreases outward along the ray (at z = 0.3, say)
    shifted = custom_domain(
        1,
        [((1,), (1,), 1.0), ((1,), (0,), -0.95), ((0,), (1,), -0.95), ((0,), (0,), 0.95**2 - 1.0)],
        [[-0.1, 2.0], [-1.05, 1.05]],
        c=1.0,
        theta=0.25,
    )
    assert certify_pseudoconvexity(shifted)["theta_ok"]
    with pytest.raises(DomainError, match=r"not star-shaped .* at z = \[\("):
        surface_sample(shifted, 0.0, 100, np.random.default_rng(0))


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


def test_walk_to_depth_stops_at_the_resolution_of_its_base_point(monkeypatch):
    # a step of s far below |z| no longer moves z + s*u; a tolerance relative
    # to s alone ran this walk to the 100-iteration cap
    calls = []
    line_root = domain_mod._line_root

    def counted_line_root(f_df, *args):
        def f_df_counted(s, idx):
            calls.append(len(idx))
            return f_df(s, idx)
        return line_root(f_df_counted, *args)

    monkeypatch.setattr(domain_mod, "_line_root", counted_line_root)
    disc = unit_ball(1)
    out = walk_to_depth(disc, np.array([[0.5 + 0.5j]]), 0.6)
    assert abs(-disc.r_val(out)[0] - 0.6) <= 2 * np.finfo(float).eps
    assert len(calls) <= 10


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
