import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berglab import metric
from berglab.domain import DomainSpec, custom_domain, sample_region, unit_ball
from berglab.gauge import RayField, normal_gauge
from berglab.metric import (
    _GL_T,
    _GL_W,
    ORACLE_BUDGET,
    SCAN_BUDGET,
    DistanceBudget,
    DistanceEstimator,
    MetricError,
    Polydisc,
    _distances,
    _inward_point,
    _optimize_paths,
    _path_gradients,
    _path_lengths,
    _refinement_breaks,
    _smoothstep,
    _smoothstep_slope,
    _straight_seed,
    distance,
    metric_ball_volume,
    metric_form,
    mu_volume,
    straight_chord_upper,
    uniform_box_sampler,
)


def arctanh(x):
    return float(np.arctanh(x))


def poincare_like(z, w):
    """Closed-form distance for the disc metric d dbar log(1/(1-|z|^2))."""
    return float(np.arctanh(abs(z - w) / abs(1 - z * np.conj(w))))


# -- metric form ---------------------------------------------------------------

ONE = np.array([[1.0 + 0j]])


def test_tensor_disc_center(disc_global):
    assert metric_form(disc_global, np.array([[0j]]), ONE)[0] == pytest.approx(1.0)


def test_tensor_disc_half(disc_global):
    assert metric_form(disc_global, np.array([[0.5 + 0j]]), ONE)[0] == pytest.approx(16 / 9)


@given(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6), st.floats(-1, 1), st.floats(-1, 1))
@settings(max_examples=25, deadline=None)
def test_tensor_positive(x, y, a, b):
    dom = unit_ball(1, theta=0.25)
    z = np.array([[x + 1j * y]])
    xi = np.array([a + 1j * b])
    if np.linalg.norm(xi) < 1e-6:
        return
    assert metric_form(dom, z, xi[None, :])[0] > 0


def test_blend_identity_near_boundary(disc):
    # for -r <= theta the blend weight is one and the closed form
    # A/(-r) + |dbar r|^2 / r^2 holds exactly
    t = 0.2
    z = np.array([[np.sqrt(1 - t) + 0j]])
    expected = 1.0 / t + (1 - t) / t**2
    assert metric_form(disc, z, ONE)[0] == pytest.approx(expected, rel=1e-12)


# -- path length ---------------------------------------------------------------


def _polyline_length(dom, nodes):
    """Quadrature length of one polyline, from the optimizer's length pass."""
    return _path_lengths(dom, nodes[None])[0][0]


def _length_gradient(dom, nodes):
    """Exact length gradient of one polyline in its interior nodes, from the arrays its length pass kept."""
    return _path_gradients(dom, nodes[None], _path_lengths(dom, nodes[None])[1], np.arange(1))[0]


def test_constant_path_zero(disc):
    nodes = np.zeros((5, 1), complex)
    assert _polyline_length(disc, nodes) == 0.0


def test_radial_segment_oracle(disc_global):
    nodes = np.linspace(0, 0.5, 65)[:, None].astype(complex)
    val = _polyline_length(disc_global, nodes)
    assert val == pytest.approx(arctanh(0.5), abs=1e-4)


def test_refinement_converges(disc_global):
    t = np.linspace(0, 1, 257)
    arc = (0.5 + 0.45 * np.exp(1j * np.pi * t))[:, None]
    lengths = [_polyline_length(disc_global, arc[:: 256 // k]) for k in (16, 32, 64, 128, 256)]
    errors = np.abs(np.asarray(lengths) - lengths[-1])
    assert np.all(np.diff(errors[:-1]) <= 1e-12)
    # inscribed polylines approach the limit from below
    assert np.all(np.diff(lengths) >= 0)


def test_path_escape_raises(disc):
    # an escaping path has no finite length
    nodes = np.array([[0.0], [1.5], [0.2]], complex)
    assert _polyline_length(disc, nodes) == np.inf


# Reference quadrature: three separate r evaluations for the bucketing, and
# metric_form on every abscissa with escaped ones replaced by the origin.
def _segment_lengths_ref(dom, p, q):
    p = np.asarray(p, complex)
    q = np.asarray(q, complex)
    shape = np.broadcast_shapes(p.shape, q.shape)
    p = np.broadcast_to(p, shape).reshape(-1, shape[-1])
    q = np.broadcast_to(q, shape).reshape(-1, shape[-1])
    dp = np.maximum(-dom.r_val(p), 1e-300)
    dq = np.maximum(-dom.r_val(q), 1e-300)
    mid = np.maximum(-dom.r_val(0.5 * (p + q)), 1e-300)
    hi = np.maximum(mid, np.maximum(dp, dq))
    lo = np.minimum(dp, dq)
    lev = np.clip(np.ceil(np.log2(hi / lo)) + 2, 2, 48)
    bucket = np.clip((np.ceil(lev / 6) * 6).astype(int), 2, 48)
    out = np.empty(len(p))
    for b in np.unique(bucket):
        sel = bucket == b
        out[sel] = _segment_lengths_fixed_ref(dom, p[sel], q[sel], int(b))
    return out.reshape(shape[:-1])


def _segment_lengths_fixed_ref(dom, p, q, level):
    v = q - p
    brk = _refinement_breaks(level)
    widths = brk[1:] - brk[:-1]
    t = brk[:-1, None] + widths[:, None] * _GL_T[None, :]
    w = widths[:, None] * _GL_W[None, :]
    pts = p[:, None, None, :] + t[None, :, :, None] * v[:, None, None, :]
    rv = dom.r_val(pts)
    escaped = np.any(rv >= 0, axis=(-1, -2))
    safe_pts = np.where(rv[..., None] < 0, pts, 0.0)
    speeds2 = metric_form(dom, safe_pts, np.broadcast_to(v[:, None, None, :], pts.shape))
    speeds = np.sqrt(np.maximum(speeds2, 0.0))
    lengths = np.sum(speeds * w, axis=(-1, -2))
    return np.where(escaped, np.inf, lengths)


def _length_gradient_fd(dom, nodes, h):
    """Central-difference gradient of the polyline length in the interior nodes.

    The finite-difference reference for the exact gradient: two quadrature
    calls per perturbed coordinate; also reports escapes.
    """
    k1, n = nodes.shape
    m = k1 - 2
    idx = np.arange(1, k1 - 1)
    grad = np.zeros((m, n), dtype=complex)
    escapes = 0
    left, mid, right = nodes[idx - 1], nodes[idx], nodes[idx + 1]
    for comp in (1.0, 1j):
        for j in range(n):
            shift = np.zeros((m, n), complex)
            shift[:, j] = comp * h
            p_ends = np.concatenate([mid + shift, mid - shift])
            starts = np.concatenate([left, left])
            ends = np.concatenate([right, right])
            l_in = _segment_lengths_ref(dom, starts, p_ends)
            l_out = _segment_lengths_ref(dom, p_ends, ends)
            escapes += int(np.sum(np.isinf(l_in)) + np.sum(np.isinf(l_out)))
            tot = l_in + l_out
            deriv = (tot[:m] - tot[m:]) / (2 * h)
            deriv = np.where(np.isfinite(deriv), deriv, 0.0)
            grad[:, j] += comp * deriv
    return grad, escapes


def _radial_nodes(dom, fractions, seed):
    """Polyline nodes at the given fractions of the boundary radius."""
    rng = np.random.default_rng(seed)
    rays = RayField(dom)
    omega = rays.directions(len(fractions), rng)
    return np.asarray(fractions)[:, None] * rays.boundary_radius(omega)[:, None] * omega


@pytest.mark.parametrize("name", ["disc", "egg", "mixed", "quartic", "quartic2"])
def test_quadrature_matches_reference_loops(name, request):
    dom = request.getfixturevalue(name)
    deep = _radial_nodes(dom, [0.0, 0.3, 0.7, 0.9, 0.5, 0.99, 0.2], seed=1)
    # nodes in the blend band theta < -r < 2*theta, where psi' != 0
    blend = _radial_nodes(dom, [0.6, 0.8, 0.85, 0.9, 0.93, 0.95, 0.87, 0.5], seed=4)
    depth = -dom.r_val(blend[1:-1])
    assert np.any((dom.theta < depth) & (depth < 2 * dom.theta))
    # nodes within ~1e-11 of the boundary: +-h node moves leave the domain
    shallow = _radial_nodes(dom, [0.6, 1 - 1e-11, 1 - 2e-11, 1 - 1e-11, 0.8], seed=2)
    outside = _radial_nodes(dom, [0.5, 1.05, 0.4, 1 - 1e-14, 0.3], seed=3)
    for nodes in (deep, blend, shallow, outside):
        new = straight_chord_upper(dom, nodes[:-1], nodes[1:])
        ref = _segment_lengths_ref(dom, nodes[:-1], nodes[1:])
        assert new.tobytes() == ref.tobytes()
        # the optimizer's length pass sums the same segment lengths
        assert _polyline_length(dom, nodes).tobytes() == np.sum(ref).tobytes()
    assert np.isinf(straight_chord_upper(dom, outside[:-1], outside[1:])).any()
    for nodes in (deep, blend, shallow):
        h = 1e-6 * (1.0 + float(np.max(np.abs(nodes))))
        ref, escapes = _length_gradient_fd(dom, nodes, h)
        exact = _length_gradient(dom, nodes)
        assert exact.shape == ref.shape
        assert np.all(np.isfinite(exact))
        assert (escapes > 0) == (nodes is shallow)
        if nodes is not shallow:
            assert np.max(np.abs(exact - ref)) <= 1e-6 * np.max(np.abs(ref))


def test_chord_needs_both_endpoints_strictly_inside(disc):
    # r(1) == 0 on the disc: a chord from the boundary or from outside has no
    # length in either argument order, although all its abscissae lie inside
    # for the boundary point; rows with both endpoints inside keep the bits
    # they get alone
    edge, out = np.array([1.0 + 0j]), np.array([1.2 + 0j])
    assert disc.r_val(edge) == 0.0
    inner = np.array([[0.0 + 0j], [0.5j], [-0.3 + 0.2j], [0.9 + 0j]])
    for end in (edge, out):
        assert np.all(np.isinf(straight_chord_upper(disc, end, inner)))
        assert np.all(np.isinf(straight_chord_upper(disc, inner, end)))
    ends = np.array([inner[0], edge, inner[1], out, inner[2], inner[3]])
    starts = np.array([inner[3], inner[0], inner[2], inner[1], inner[0], edge])
    mixed = straight_chord_upper(disc, starts, ends)
    assert np.isinf(mixed[[1, 3, 5]]).all()
    for i in (0, 2, 4):
        alone = straight_chord_upper(disc, starts[i : i + 1], ends[i : i + 1])
        assert np.isfinite(mixed[i]) and mixed[i : i + 1].tobytes() == alone.tobytes()
    # a path through the boundary point has no length either
    assert _polyline_length(disc, np.array([[0.5j], [1.0], [0.5]], complex)) == np.inf


@pytest.mark.parametrize("name", ["quartic", "quartic2"])
def test_third_derivative_tables_match_central_differences(name, request):
    dom = request.getfixturevalue(name)
    z = sample_region(dom, "interior", 6, seed=7)
    h = 1e-5
    for k in range(dom.n):
        e = np.zeros(dom.n, complex)
        e[k] = h

        def dbar_k(f):
            # dbar_k = (d/dx_k + i d/dy_k) / 2, by central differences
            dx = (f(z + e) - f(z - e)) / (2 * h)
            dy = (f(z + 1j * e) - f(z - 1j * e)) / (2 * h)
            return 0.5 * (dx + 1j * dy)

        G = dom.derivatives(z, 0, 2)[..., :, k]
        T = dom.derivatives(z, 1, 2)[..., k]
        np.testing.assert_allclose(G, dbar_k(dom.dbar_r), rtol=0, atol=1e-8)
        np.testing.assert_allclose(T, dbar_k(dom.hessian), rtol=0, atol=1e-8)
    assert np.array_equal(dom.derivatives(z, 0, 2), np.swapaxes(dom.derivatives(z, 0, 2), -1, -2))
    assert np.array_equal(dom.derivatives(z, 1, 2), np.swapaxes(dom.derivatives(z, 1, 2), -1, -2))


def test_straight_radial_seed_is_stationary(ball2_global):
    # the exact gradient of an already-optimal path is at rounding level, so
    # the descent stops on its first gradient
    nodes = _straight_seed(np.zeros(2, complex), np.array([0.5, 0], complex), 16)
    assert np.linalg.norm(_length_gradient(ball2_global, nodes)) < 1e-12
    out, length, iterations, converged, trials = _optimize_paths(ball2_global, nodes[None], 40)
    assert out[0].tobytes() == nodes.tobytes() and iterations[0] == 1 and converged[0]
    assert length[0] == _polyline_length(ball2_global, nodes) and trials[0] == 0


def test_distance_reports_convergence(disc_global, ball2_global):
    res = distance(ball2_global, np.zeros(2, complex), np.array([0.5, 0], complex), ORACLE_BUDGET)
    assert res["converged"] and res["iterations"] == 2  # coarse descent, then polish
    z, w = np.array([0.5 + 0j]), np.array([0.5j])
    # one iteration cannot straighten the curved path: the budget runs out
    res = distance(disc_global, z, w, DistanceBudget(nodes=16, max_iters=1))
    assert not res["converged"] and res["iterations"] == 2  # one per seed


def test_distance_reports_line_search_trials(disc_global):
    z, w = np.array([0.5 + 0j]), np.array([0.5j])
    for budget in (SCAN_BUDGET, ORACLE_BUDGET):
        res = distance(disc_global, z, w, budget)
        assert 0 < res["trials"] <= 12 * res["iterations"]


def _dented_disc():
    """The disc dented by sextic terms, and two points at depth 0.01 whose chord leaves it."""
    terms = [((1,), (1,), 1.0), ((0,), (0,), -1.0), ((6,), (0,), 0.05), ((0,), (6,), 0.05)]
    dom = custom_domain(1, terms, [[-1.11, 1.11]] * 2, c=2.0, theta=0.02)
    z = np.array([0.18051772607177607 - 1.0063627668232251j])
    w = np.array([0.7816924776233692 - 0.6592644278734904j])
    return dom, z, w


# the witness's bound, bit for bit; its last bits follow the rounding of the
# length gradient that steers the descent, its iteration and trial counts do not
_WITNESS_BOUND = 1.9094536940736453


def test_straight_seed_leaving_a_nonconvex_domain_is_skipped():
    # the sextic terms dent the disc, and the chord between these two points
    # at depth 0.01 leaves it: one descent from the inward-retreat seed
    # alone gives the bound, with no second descent standing in for the
    # straight seed
    dom, z, w = _dented_disc()
    assert np.isinf(straight_chord_upper(dom, z, w))
    res = distance(dom, z, w, SCAN_BUDGET)
    assert np.float64(res["d_upper"]).tobytes() == np.float64(_WITNESS_BOUND).tobytes()
    assert res["iterations"] == 12 and res["trials"] == 14


# -- lockstep batches ----------------------------------------------------------


def _batch_pairs(dom, count, seed):
    """``count`` pairs from a shell; pair 1 is coincident, and pair 2 is radial,
    so its straight seed is already optimal and its descent stops on its
    first gradient while the others go on."""
    pts = sample_region(dom, ("shell", 0.02, 0.6), 2 * count, seed)
    Z, W = pts[:count].copy(), pts[count:].copy()
    Z[1] = W[1]
    Z[2], W[2] = 0.0, 0.0
    W[2, 0] = 0.5
    return Z, W


@pytest.mark.parametrize("budget", [SCAN_BUDGET, ORACLE_BUDGET], ids=["scan", "oracle"])
@pytest.mark.parametrize("name", ["disc", "ball2", "egg"])
def test_batch_equals_one_pair_calls(name, budget, request):
    # every pair of a lockstep batch gets the bits, iterations and trials a
    # one-pair call gives it, at P = 1, 2 and a batch of at least 33 pairs
    dom = request.getfixturevalue(name)
    Z, W = _batch_pairs(dom, 33 if budget is SCAN_BUDGET else 4, seed=21)
    one = [distance(dom, z, w, budget) for z, w in zip(Z, W)]
    assert one[1] == {"d_upper": 0.0, "converged": True, "iterations": 0, "trials": 0}
    assert one[2]["iterations"] < max(r["iterations"] for r in one)
    for idx in (np.arange(1), np.arange(2), np.tile(np.arange(len(Z)), -(-33 // len(Z)))):
        res = _distances(dom, Z[idx], W[idx], budget)
        for key in one[0]:
            assert np.asarray([one[i][key] for i in idx]).tobytes() == res[key].tobytes(), key


def test_batch_keeps_the_nonconvex_witness():
    # the witness above, batched with its reverse and a pair whose straight
    # seed stays inside: the same bits, 12 iterations and 14 trials
    dom, z, w = _dented_disc()
    Z, W = np.array([z, w, 0.5 * z]), np.array([w, z, 0.5 * w])
    res = _distances(dom, Z, W, SCAN_BUDGET)
    assert res["d_upper"][:2].tobytes() == np.float64([_WITNESS_BOUND] * 2).tobytes()
    assert res["iterations"][:2].tolist() == [12, 12] and res["trials"][:2].tolist() == [14, 14]
    assert res["d_upper"][2] == distance(dom, 0.5 * z, 0.5 * w, SCAN_BUDGET)["d_upper"]


def _form_gradients_ref(dom, z, xi, rv):
    """Q(z, xi) of :func:`metric_form` and its derivatives dQ/dconj(z), dQ/dconj(xi) at each point,
    contracting both third-order tables, zero or not."""
    H, g = dom.hessian(z), dom.dbar_r(z)
    rv = rv[..., None]
    s = -rv
    x = (rv + 2.0 * dom.theta) / dom.theta
    psi = _smoothstep(x)
    dpsi = _smoothstep_slope(x) / dom.theta
    xic, gc = np.conj(xi), np.conj(g)
    h_xi = np.einsum("...ik,...i->...k", H, xi)
    levi = np.real(np.sum(h_xi * xic, axis=-1, keepdims=True))
    u = np.sum(xi * gc, axis=-1, keepdims=True)
    normal = np.abs(u) ** 2
    eucl = np.sum(np.abs(xi) ** 2, axis=-1, keepdims=True)
    near = levi / s + normal / s**2
    g_xi = np.einsum("...jk,...j->...k", dom.derivatives(z, 0, 2), xic)
    d_normal = np.conj(u) * h_xi + u * g_xi
    d_levi = np.einsum("...ijk,...i,...j->...k", dom.derivatives(z, 1, 2), xi, xic)
    q_z = dpsi * g * (near - eucl) + psi * (d_levi / s + d_normal / s**2 + g * (levi / s**2 + 2.0 * normal / s**3))
    q_xi = psi * (h_xi / s + u * g / s**2) + (1.0 - psi) * xi
    return (psi * near + (1.0 - psi) * eucl)[..., 0], q_z, q_xi


def _path_gradients_ref(dom, nodes):
    """Length gradients of a stack of paths assembled from per-abscissa derivative fields.

    Each segment adds c ((1 - t) dQ/dconj(z) - dQ/dconj(v)) at p and
    c (t dQ/dconj(z) + dQ/dconj(v)) at q, c = w / sqrt(Q), over the abscissae
    of :func:`_path_lengths`.  Also returns, per interior node, the sum of the
    absolute values of the terms, which bounds the rounding of any order of
    summing them.
    """
    count, k1, n = nodes.shape
    grad = np.zeros((count * (k1 - 1), 2, n), complex)
    scale = np.zeros((count * (k1 - 1), 2))
    for sel, t, w, pts, rv, *_, v, _ in _path_lengths(dom, nodes)[1]:
        xi = np.broadcast_to(v[:, None, None, :], pts.shape)
        speeds2, d_z, d_xi = _form_gradients_ref(dom, pts, xi, rv)
        speeds = np.sqrt(np.maximum(speeds2, 0.0))
        c = np.divide(w, speeds, out=np.zeros_like(speeds), where=speeds > 0)[..., None]
        for end, terms in enumerate((c * ((1.0 - t)[..., None] * d_z - d_xi), c * (t[..., None] * d_z + d_xi))):
            grad[sel, end] = np.sum(terms, axis=(1, 2))
            scale[sel, end] = np.sum(np.abs(terms), axis=(1, 2, 3))
    grad, scale = grad.reshape(count, k1 - 1, 2, n), scale.reshape(count, k1 - 1, 2)
    return grad[:, :-1, 1] + grad[:, 1:, 0], scale[:, :-1, 1] + scale[:, 1:, 0]


def _shell_paths(dom, count, nodes, seed):
    """``count`` polylines of ``nodes`` nodes through random points of a shell that reaches the blend band."""
    return np.array([sample_region(dom, ("shell", 0.02, 0.6), nodes, seed + i) for i in range(count)])


@pytest.mark.parametrize("name", ["disc", "ball2", "egg", "mixed", "quartic", "quartic2"])
def test_zero_derivative_tables_are_skipped_bit_for_bit(name, request, monkeypatch):
    # dbar dbar r and d dbar dbar r vanish for every quadratic r; skipping
    # them changes no bit of the weighted-sum gradient, and every r, quartic
    # or not, gets the gradient of the per-abscissa assembly to rounding
    dom = request.getfixturevalue(name)
    quadratic = dom.r.degree() == 2
    assert dom.vanishes(0, 2) is dom.vanishes(1, 2) is quadratic
    nodes = _shell_paths(dom, 6, 9, seed=9)
    lengths, kept = _path_lengths(dom, nodes)
    assert np.all(np.isfinite(lengths))
    got = _path_gradients(dom, nodes, kept, np.arange(len(nodes)))
    ref, scale = _path_gradients_ref(dom, nodes)
    # each term carries a few roundings and the sums regroup them, so the
    # difference is a small multiple of eps times the terms' absolute sum
    tol = 2.0**7 * np.finfo(float).eps * scale
    assert np.all(np.abs(got - ref) <= tol[..., None])
    with monkeypatch.context() as patch:
        patch.setattr(DomainSpec, "vanishes", lambda self, holo, anti: False)
        full = _path_gradients(dom, nodes, kept, np.arange(len(nodes)))
    assert full.tobytes() == got.tobytes()


@pytest.mark.parametrize("name", ["disc", "egg", "quartic2"])
def test_path_gradient_is_the_same_in_any_stack(name, request):
    # 40 paths of 12 segments: the bucket arrays exceed 256 KiB, where numpy
    # may reuse a temporary; a path's gradient in the stack, in any subset of
    # it and alone are the same bits
    dom = request.getfixturevalue(name)
    stack = _shell_paths(dom, 40, 13, seed=100)
    lengths, kept = _path_lengths(dom, stack)
    assert kept[0][5].nbytes > 2**18
    every = _path_gradients(dom, stack, kept, np.arange(len(stack)))
    rng = np.random.default_rng(4)
    for paths in (np.arange(0, 40, 3), np.sort(rng.choice(40, 7, replace=False)), np.arange(39, 40)):
        assert _path_gradients(dom, stack, kept, paths).tobytes() == every[paths].tobytes()
    for i in range(len(stack)):
        assert _length_gradient(dom, stack[i]).tobytes() == every[i].tobytes()


@pytest.mark.parametrize("name", ["egg", "mixed"])
def test_gradients_only_for_the_steps_that_continue(name, request, monkeypatch):
    # the gradient pass receives the seeds and then each accepted step that
    # takes another one; a fused length-and-gradient call would also have
    # taken the gradient of every rejected trial and of every last step
    dom = request.getfixturevalue(name)
    seeds = _shell_paths(dom, 8, 13, seed=30)
    received = []

    def counted(dom, nodes, kept, paths):
        received.append(len(paths))
        return _path_gradients(dom, nodes, kept, paths)

    monkeypatch.setattr(metric, "_path_gradients", counted)
    _, _, iterations, _, trials = _optimize_paths(dom, seeds, 6)
    assert received[0] == len(seeds)
    assert sum(received) == iterations.sum()
    assert np.any(iterations == 6) and np.any(trials > iterations - 1)
    assert sum(received) < len(seeds) + trials.sum()


@pytest.mark.parametrize("field", ["nodes", "max_iters"])
def test_budget_refuses_zero(field):
    with pytest.raises(MetricError):
        DistanceBudget(**{field: 0})


def _ball_distance(z, w):
    """Closed-form distance of the Kaehler metric of -log(1 - |z|^2) on the unit ball."""
    phi2 = 1 - (1 - np.vdot(z, z).real) * (1 - np.vdot(w, w).real) / abs(1 - np.vdot(w, z)) ** 2
    return float(np.arctanh(np.sqrt(phi2)))


@pytest.mark.parametrize("n", [1, 2])
def test_general_pair_slack_against_closed_form(n):
    # theta = 1 makes the blend weight 1 everywhere, so the metric is exactly
    # the Kaehler metric of -log(1 - |z|^2); pairs are off the radial lines
    hyp = unit_ball(n, theta=1.0)
    pts = sample_region(hyp, ("shell", 0.02, 0.6), 40, 5)
    slack = np.array([distance(hyp, pts[i], pts[i + 1], SCAN_BUDGET)["d_upper"] / _ball_distance(pts[i], pts[i + 1]) - 1
                      for i in range(20)])
    assert np.median(slack) <= 1e-3
    assert np.max(slack) <= 5e-3
    assert np.min(slack) >= -1e-6


# -- distance -------------------------------------------------------------------


def test_distance_coincident(disc):
    res = distance(disc, np.array([0.3 + 0j]), np.array([0.3 + 0j]))
    assert res["d_upper"] == 0.0


@pytest.mark.parametrize("x", [0.3, 0.5, 0.9])
def test_distance_radial_disc(disc_global, x):
    res = distance(disc_global, np.array([0j]), np.array([x + 0j]), ORACLE_BUDGET)
    assert res["d_upper"] == pytest.approx(arctanh(x), rel=0.01)


def test_distance_radial_ball(ball2_global):
    res = distance(ball2_global, np.zeros(2, complex), np.array([0.5, 0], complex), ORACLE_BUDGET)
    assert res["d_upper"] == pytest.approx(arctanh(0.5), rel=0.01)


def test_distance_offaxis_closed_form(disc_global):
    z, w = 0.5 + 0j, 0.5j
    res = distance(disc_global, np.array([z]), np.array([w]), ORACLE_BUDGET)
    assert res["d_upper"] >= poincare_like(z, w) - 1e-9
    assert res["d_upper"] <= 1.05 * poincare_like(z, w)


def test_distance_symmetric(disc_global):
    z, w = np.array([0.9 + 0j]), np.array([-0.3 + 0.2j])
    d1 = distance(disc_global, z, w, SCAN_BUDGET)["d_upper"]
    d2 = distance(disc_global, w, z, SCAN_BUDGET)["d_upper"]
    assert abs(d1 - d2) <= 1e-3 * (1 + d1)


def test_distance_triangle_sampled(disc_global):
    pts = sample_region(disc_global, ("shell", 0.1, 0.9), 9, seed=5)
    for i in range(0, 9, 3):
        a, b, c = pts[i], pts[i + 1], pts[i + 2]
        dab = distance(disc_global, a, b, SCAN_BUDGET)["d_upper"]
        dac = distance(disc_global, a, c, SCAN_BUDGET)["d_upper"]
        dcb = distance(disc_global, c, b, SCAN_BUDGET)["d_upper"]
        assert dab <= dac + dcb + 0.1 * (1 + dac + dcb)


def test_chord_upper_bounds_distance(disc_global):
    rng = np.random.default_rng(6)
    z = np.array([0.2 + 0.1j])
    ws = rng.uniform(-0.6, 0.6, (20, 1)) + 1j * rng.uniform(-0.6, 0.6, (20, 1))
    chords = straight_chord_upper(disc_global, z, ws)
    for w, c in zip(ws, chords):
        assert c >= poincare_like(z[0], w[0]) - 1e-8


# -- regions -----------------------------------------------------------------------


def test_polydisc_membership_examples(disc):
    pd = Polydisc(np.array([0.9 + 0j]), np.array([1.0 + 0j]), a=0.1, b=0.05)
    assert pd.contains(np.array([0.9 + 0.04j]))
    assert not pd.contains(np.array([0.96 + 0j]))


def test_ball_estimator_contains_center(disc):
    z = np.array([0.2 + 0j])
    assert DistanceEstimator(disc, SCAN_BUDGET)(z, z) < 0.5


@given(
    st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(0.01, 0.4), st.floats(0.01, 0.4),
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1),
)
@settings(max_examples=30, deadline=None)
def test_polydisc_decomposition(cx, cy, a, b, u1, u2, v1, v2):
    center = np.array([cx + 1j * cy, 0.1 + 0j])
    axis = np.array([1.0 + 0.5j, -0.3 + 0.2j])
    pd = Polydisc(center, axis, a, b)
    w = center + np.array([u1 + 1j * u2, v1 + 1j * v2]) * 0.1
    u, v = pd.decompose(w)
    assert np.allclose(u + v, w - center)
    e = axis / np.linalg.norm(axis)
    assert abs(np.vdot(e, u)) < 1e-10
    assert np.linalg.norm(v - np.vdot(e, v) * e) < 1e-10


def test_polydisc_sampler_inside():
    pd = Polydisc(np.zeros(2, complex), np.array([1.0, 1j]), a=0.2, b=0.1)
    rng = np.random.default_rng(0)
    pts = pd.sample(500, rng)
    assert np.all(pd.contains(pts))


# -- measure -------------------------------------------------------------------------


def test_mu_volume_euclidean_subdisc(disc_global):
    # mu of {|z| < 1/2} on the disc: pi/3 in closed form
    sampler = uniform_box_sampler(disc_global)

    def member(pts):
        return np.abs(pts[:, 0]) < 0.5

    res = mu_volume(disc_global, member, sampler, samples=200000, seed=1)
    assert res["estimate"] == pytest.approx(np.pi / 3, rel=0.03)


def test_mu_volume_degenerate(disc):
    sampler = uniform_box_sampler(disc)
    res = mu_volume(disc, lambda pts: np.zeros(len(pts), bool), sampler, samples=1000, seed=1)
    assert res["estimate"] == 0.0


def test_metric_ball_volume_band(disc_global):
    # mu(D(z, a)) stays inside a fixed band while z walks to the boundary
    vals = []
    for t in (0.3, 0.1, 0.03, 0.01):
        z = np.array([np.sqrt(1 - t) + 0j])
        vals.append(metric_ball_volume(disc_global, z, 0.5, samples=4000, seed=3)["estimate"])
    vals = np.asarray(vals)
    assert np.all(vals > 0)
    assert vals.max() / vals.min() <= 4.0


# -- estimator consistency --------------------------------------------------------------


def test_estimator_memoized(disc):
    est = DistanceEstimator(disc, SCAN_BUDGET)
    z, w = np.array([0.1 + 0j]), np.array([0.5 + 0.2j])
    assert est(z, w) == est(w, z)


@pytest.mark.parametrize("name", ["disc", "egg"])
def test_estimator_exact_in_unordered_pair(name, request):
    # two fresh estimators asked in opposite orders agree bit for bit
    dom = request.getfixturevalue(name)
    pts = sample_region(dom, "interior", 12, seed=5)
    for z, w in zip(pts[:6], pts[6:]):
        d_zw = DistanceEstimator(dom, SCAN_BUDGET)(z, w)
        d_wz = DistanceEstimator(dom, SCAN_BUDGET)(w, z)
        assert np.float64(d_zw).tobytes() == np.float64(d_wz).tobytes()


@pytest.mark.parametrize("name", ["disc", "egg"])
def test_estimator_batch_call_equals_one_pair_calls(name, request):
    dom = request.getfixturevalue(name)
    pts = sample_region(dom, "interior", 12, seed=5)
    batch = DistanceEstimator(dom, SCAN_BUDGET)(pts[0], pts[1:])
    alone = [DistanceEstimator(dom, SCAN_BUDGET)(pts[0], w) for w in pts[1:]]
    assert batch.shape == (11,) and batch.tobytes() == np.float64(alone).tobytes()


def test_all_at_least_decides_as_the_pairs_do(disc):
    pts = sample_region(disc, "interior", 8, seed=5)
    z, W = pts[0], pts[1:]
    vals = DistanceEstimator(disc, SCAN_BUDGET)(z, W)
    for t in (vals.min(), np.median(vals), vals.max(), np.nextafter(vals.max(), np.inf)):
        est = DistanceEstimator(disc, SCAN_BUDGET)
        assert est.all_at_least(z, W, t) == bool(np.all(vals >= t))
        # a finished batch memoizes every pair; a stopped one memoizes none
        assert len(est._memo) == (len(W) if np.all(vals >= t) else 0)
        # and on the memo, the same answer again
        est(z, W)
        assert est.all_at_least(z, W, t) == bool(np.all(vals >= t))


def test_gauge_vs_chord_scaling(disc_global):
    # sanity: chord bound grows with the gauge separation
    z = np.array([np.sqrt(1 - 0.05) + 0j])
    ws = np.array([[np.sqrt(1 - 0.05) * np.exp(1j * s)] for s in (0.01, 0.05, 0.2)])
    chords = straight_chord_upper(disc_global, z, ws)
    gauges = normal_gauge(disc_global, z, ws)
    assert np.all(np.diff(chords) > 0)
    assert np.all(np.diff(gauges) > 0)


def test_inward_point_reaches_depth_or_gives_up(disc):
    z = np.array([0.9 + 0j])
    w = _inward_point(disc, z, 0.5)
    assert -disc.r_val(w) == pytest.approx(0.5, rel=1e-9)
    # the disc is nowhere deeper than 1: the walk gives up and returns z
    assert _inward_point(disc, z, 5.0) is z
    assert _inward_point(disc, w, 0.25) is w
