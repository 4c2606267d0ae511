import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tracemalloc

from berglab import covering
from berglab.covering import (
    COVERAGE_SLACK,
    Cover,
    CoverError,
    a_cell_samples,
    build_cells,
    build_cover,
    build_packing,
    cap_contains,
    class_indices,
    coverage_audit,
    cutoff_value,
    default_ladder,
    distance_to_cell,
    family_cutoff,
    fit_engulfing_constant,
    index_partition,
    _BLOCK_ROWS,
    _PACKING_BLOCK,
    _RADIUS_MARGIN,
    _cap_sample,
    _close_pairs,
    _greedy_packing,
    _overlap_counts,
)
from berglab.domain import surface_pool, unit_ball
from berglab.gauge import exponent_regression, normal_gauge
from berglab.metric import straight_chord_upper


@pytest.fixture(scope="session")
def disc_cover(disc):
    return build_cover(disc, m=65.0, candidate_count=6000, seed=0)


# -- caps ---------------------------------------------------------------------


def test_cap_contains_self(disc):
    zeta = np.array([1.0 + 0j])
    assert cap_contains(disc, zeta, 1e-9, zeta.reshape(1, -1))[0]


def test_cap_contains_hand_values(disc):
    zeta = np.array([1.0 + 0j])
    xi = np.array([[np.exp(0.01j)]])
    assert cap_contains(disc, zeta, 0.02, xi)[0]
    assert not cap_contains(disc, zeta, 0.005, xi)[0]


def test_whole_boundary_single_center(disc):
    centers = build_packing(disc, d=100.0, c1=2.0, candidate_count=600, seed=1)
    assert len(centers) == 1


# -- engulfing ---------------------------------------------------------------------


def test_engulfing_constant_reasonable(disc):
    c1 = fit_engulfing_constant(disc, seed=0)
    assert 1.0 <= c1 <= 40.0


def test_engulfing_property_holds(disc):
    # spot audit of the fitted constant on fresh overlapping cap pairs
    c1 = fit_engulfing_constant(disc, seed=0)
    rng = np.random.default_rng(3)
    pool = surface_pool(disc, 0.0, 2000, 3)
    t = 0.01
    hits = 0
    for _ in range(40):
        zeta = pool[rng.integers(len(pool))]
        near = pool[normal_gauge(disc, zeta, pool) < 2.0 * t]
        if len(near) < 2:
            continue
        xi = near[rng.integers(len(near))]
        xs = _cap_sample(disc, xi, t, 100, rng)
        if not np.any(cap_contains(disc, zeta, t, xs)):
            continue
        hits += 1
        assert np.all(normal_gauge(disc, zeta, xs) < c1 * t)
    assert hits >= 3


# -- packing audits ---------------------------------------------------------------------


def test_packing_disjointness_sampled(disc_cover, disc):
    lv = disc_cover.levels[0]
    rng = np.random.default_rng(4)
    m = len(lv.centers)
    for _ in range(8):
        i, j = rng.integers(m), rng.integers(m)
        if i == j:
            continue
        xs = _cap_sample(disc, lv.centers[i], lv.d, 500, rng)
        assert not np.any(cap_contains(disc, lv.centers[j], lv.d, xs))


def test_packing_coverage(disc_cover, disc):
    pool = surface_pool(disc, 0.0, 3000, 99)
    for lv in disc_cover.levels:
        assert coverage_audit(disc, lv.centers, lv.a, pool) is None


def test_packing_center_budget_guard(disc):
    with pytest.raises(CoverError):
        build_packing(disc, d=1e-7, c1=2.0, candidate_count=3000, seed=5, max_centers=100)


def test_neighbor_growth_exponent(disc, disc_cover):
    # dilated-cap neighbor counts grow at most like R^n: overlap of two
    # R*t caps forces the centers within a fixed multiple of R*t in gauge
    lv = disc_cover.levels[0]
    counts = []
    Rs = [1.0, 2.0, 4.0, 8.0]
    zeta = lv.centers[0]
    g_zeta = np.conj(disc.dbar_r(zeta))
    for R in Rs:
        diff = lv.centers - zeta[None, :]
        g = np.sum(np.abs(diff) ** 2, axis=-1) + np.abs(np.einsum("mi,i->m", diff, g_zeta))
        counts.append(int(np.sum(g < 6.0 * R * lv.d)))
    fit = exponent_regression(Rs, counts)
    assert fit["slope"] <= disc.n + 0.3


# -- close pairs; packing, audit and overlap against the one-at-a-time loops ----------------


def _gauge_ref(diff, g):
    # rho as the loops below computed it, one gradient per call
    return np.sum(np.abs(diff) ** 2, axis=-1) + np.abs(np.einsum("mi,i->m", diff, np.conj(g)))


def _greedy_packing_ref(dom, stream, radius, max_centers):
    """One candidate at a time, each tested against every accepted center."""
    acc = np.empty((max_centers, dom.n), complex)
    gacc = np.empty((max_centers, dom.n), complex)
    m = 0
    for v in stream:
        g_v = dom.dbar_r(v)
        if m:
            diff = acc[:m] - v[None, :]
            gauge_from_v = _gauge_ref(-diff, g_v)
            gauge_from_u = np.sum(np.abs(diff) ** 2, axis=-1) + np.abs(
                np.einsum("mi,mi->m", diff, np.conj(gacc[:m]))
            )
            if not np.all(np.minimum(gauge_from_v, gauge_from_u) >= radius):
                continue
        if m >= max_centers:
            raise CoverError("packing exceeded the center budget; enlarge the cap scale")
        acc[m] = v
        gacc[m] = g_v
        m += 1
    return acc[:m].copy()


def _coverage_audit_ref(dom, centers, a, pool):
    """One center at a time against the whole pool."""
    covered = np.zeros(len(pool), bool)
    for u in centers:
        covered |= _gauge_ref(u[None, :] - pool, dom.dbar_r(u)) < a
        if np.all(covered):
            return None
    if np.all(covered):
        return None
    return pool[int(np.argmin(covered))]


def _overlap_counts_ref(dom, centers, b):
    """The adjacency one row at a time."""
    m = len(centers)
    adj = np.zeros((m, m), bool)
    grads = dom.dbar_r(centers)
    for i in range(m):
        adj[i] = _gauge_ref(centers - centers[i][None, :], grads[i]) < 6.0 * b
    adj |= adj.T
    np.fill_diagonal(adj, False)
    return adj


def _assert_matches_reference(dom, stream, radius, pool):
    """Packing, audits and overlaps against the loops; returns the centers and audit witnesses."""
    ref = _greedy_packing_ref(dom, stream, radius, len(stream))
    centers = _greedy_packing(dom, stream, radius, len(ref))
    assert centers.shape == ref.shape and centers.tobytes() == ref.tobytes()
    if len(ref):
        with pytest.raises(CoverError, match="center budget"):
            _greedy_packing(dom, stream, radius, len(ref) - 1)
    witnesses = []
    for a in (COVERAGE_SLACK * radius, 0.25 * radius):
        new, old = coverage_audit(dom, ref, a, pool), _coverage_audit_ref(dom, ref, a, pool)
        assert (new is None) == (old is None)
        if old is not None:
            assert new.tobytes() == old.tobytes()
        witnesses.append(old)
    for b in (radius, 0.1 * radius):
        assert np.array_equal(_overlap_counts(dom, ref, b), _overlap_counts_ref(dom, ref, b))
    return ref, witnesses


@pytest.mark.parametrize("name", ["disc", "ball2", "egg", "mixed", "quartic"])
def test_packing_audit_overlap_match_reference_loops(request, name):
    dom = request.getfixturevalue(name)
    pool = surface_pool(dom, 0.0, 3000, 11)
    stream = pool[np.random.default_rng(12).permutation(len(pool))][: 3000 if dom.n == 1 else 1200]
    audit_pool = surface_pool(dom, 0.0, 1500, 13)
    sizes, witnesses = [], []
    for radius in (0.3, 0.05, 0.004) if dom.n == 1 else (2.0, 0.5, 0.1):
        centers, found = _assert_matches_reference(dom, stream, radius, audit_pool)
        sizes.append(len(centers))
        witnesses += found
    # from a handful of caps to hundreds; audits that pass and audits with a witness
    assert sizes[0] < sizes[1] < sizes[2]
    assert any(w is None for w in witnesses) and any(w is not None for w in witnesses)


def test_pair_at_the_filter_radius(ball2):
    # u = 0 has a zero gradient, so rho(u, v) = |u - v|^2 exactly: at |u - v|^2
    # equal to the radius the pair does not conflict, one ulp closer it does
    u = np.zeros(2, complex)
    for s, joins in ((0.5, True), (np.nextafter(0.5, 0.0), False)):
        v = np.array([s, 0.0], complex)
        stream = np.stack([u, v])
        centers = _greedy_packing(ball2, stream, 0.25, 2)
        assert centers.tobytes() == _greedy_packing_ref(ball2, stream, 0.25, 2).tobytes()
        assert len(centers) == (2 if joins else 1)
        witness = coverage_audit(ball2, u[None, :], 0.25, v[None, :])
        assert (witness is not None) == joins
        assert (_coverage_audit_ref(ball2, u[None, :], 0.25, v[None, :]) is not None) == joins


_BALLS = {n: unit_ball(n, theta=0.25) for n in (1, 2)}


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 120),
    log_radius=st.floats(-9.0, 1.5),
    grid=st.booleans(),
)
def test_packing_audit_overlap_match_reference_on_random_streams(n, seed, size, log_radius, grid):
    # radii from one cap over the whole stream down to below the point
    # spacing; on a coarse grid, repeated points and exact distance ties
    dom = _BALLS[n]
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, (2 * size, 2 * n))
    if grid:
        raw = np.round(raw * 4.0) / 4.0
    pts = raw[:, :n] + 1j * raw[:, n:]
    radius = 1.0 / 16.0 if grid else 10.0**log_radius
    _assert_matches_reference(dom, pts[:size], radius, pts[size:])


def _pair_set(blocks, pts, queries, block_rows):
    """The (query, point) pairs of a close-pairs call as a sorted array.

    No block is too large, no pair comes twice, and each pair's offset is point - query.
    """
    got = []
    for qi, pi, diff in blocks:
        assert len(qi) == len(pi) <= block_rows
        assert diff.tobytes() == (pts[pi] - queries[qi]).tobytes()
        got.append(np.stack([qi, pi], axis=1))
    got = np.concatenate(got) if got else np.zeros((0, 2), int)
    assert len(np.unique(got, axis=0)) == len(got)
    return got[np.lexsort(got.T[::-1])]


def _brute_pairs(pts, queries, radius, alive=None):
    diff = queries[:, None, :] - pts[None, :, :]
    close = np.sum(diff.real**2 + diff.imag**2, axis=-1) <= (radius * (1.0 + _RADIUS_MARGIN)) ** 2
    if alive is not None:
        close &= alive[None, :]
    return np.argwhere(close)


@pytest.mark.parametrize("block_rows", [_BLOCK_ROWS, 64])
@pytest.mark.parametrize("name, radius", [("disc", 0.05), ("egg", 0.3), ("ball2", 1.0), ("quartic", 1.5)])
def test_close_pairs_match_brute_force(request, monkeypatch, name, radius, block_rows):
    # sparse radii read many short runs per block; dense ones read most of the
    # set per query, so a query is read alone in slices
    monkeypatch.setattr(covering, "_BLOCK_ROWS", block_rows)
    dom = request.getfixturevalue(name)
    pts = surface_pool(dom, 0.0, 6000 if dom.n == 2 else 2000, 21)
    queries = surface_pool(dom, 0.0, 150, 22)
    expect = _brute_pairs(pts, queries, radius)
    assert 0 < len(expect) < len(pts) * len(queries)
    got = _pair_set(_close_pairs(pts, radius)(queries), pts, queries, block_rows)
    assert np.array_equal(got, expect)
    # points cleared from ``alive`` before the call are left out once they are half the set
    alive = np.random.default_rng(23).random(len(pts)) < 0.4
    got = _pair_set(_close_pairs(pts, radius, alive)(queries), pts, queries, block_rows)
    assert np.array_equal(got, _brute_pairs(pts, queries, radius, alive))


def test_close_pairs_edges():
    radius = 0.3
    reach = radius * (1.0 + _RADIUS_MARGIN)
    beyond = np.nextafter(np.nextafter(reach, 1.0), 1.0)
    assert beyond**2 > reach**2
    # a point exactly at the widened radius pairs; one just beyond it does not
    pts = np.array([[-2.0 + 0.7j], [reach], [-beyond], [1j * reach]])
    queries = np.array([[0.0j], [9.0 - 9.0j], [-50.0 + 0.0j]])  # the last two have no neighbour
    got = _pair_set(_close_pairs(pts, radius)(queries), pts, queries, _BLOCK_ROWS)
    assert got.tolist() == [[0, 1], [0, 3]]
    assert np.array_equal(got, _brute_pairs(pts, queries, radius))
    # a one-point set, in C^2
    one = np.array([[0.5 + 0.5j, -0.25j]])
    queries = np.array([[0.5 + 0.5j, -0.25j], [0.7 + 0.5j, 0.1 - 0.25j], [0.5, 0.5]])
    got = _pair_set(_close_pairs(one, radius)(queries), one, queries, _BLOCK_ROWS)
    assert np.array_equal(got, _brute_pairs(one, queries, radius))
    assert got.tolist() == [[0, 0], [1, 0]]


@pytest.mark.parametrize("packing_block", [1, 2, 7, _PACKING_BLOCK])
def test_blocked_greedy_packing_matches_reference(monkeypatch, disc, ball2, packing_block):
    # blocks of a few live rows put most conflicts across block boundaries,
    # in a sparse (disc) and a dense (ball2) stream
    monkeypatch.setattr(covering, "_PACKING_BLOCK", packing_block)
    for dom, radius in ((disc, 0.01), (ball2, 0.5)):
        stream = surface_pool(dom, 0.0, 2000, 31)
        ref = _greedy_packing_ref(dom, stream, radius, len(stream))
        assert packing_block < len(ref) < len(stream) // 4
        centers = _greedy_packing(dom, stream, radius, len(ref))
        assert centers.tobytes() == ref.tobytes()
        with pytest.raises(CoverError, match="center budget"):
            _greedy_packing(dom, stream, radius, len(ref) - 1)


def test_pair_blocks_keep_memory_flat(disc):
    # disc level-2 sizes of the default plan: 28,444 stream rows, about 1,300
    # centers and a 14,222-point audit pool, at that level's radii
    centers = _greedy_packing(disc, surface_pool(disc, 0.0, 28444, 41), 0.003538, 40000)
    pool = surface_pool(disc, 0.0, 14222, 42)
    n = disc.n
    # one block of _BLOCK_ROWS candidate rows: its index arrays and distances,
    # the gathered point, query and difference rows, and the gauge pass over
    # the pairs that pass, within 128 bytes per row and coordinate plus 128
    one_block = _BLOCK_ROWS * (128 * n + 128)

    def index(points, queries):
        # per point, while the index is built: two cell coordinates, the sort
        # order, the sorted cell numbers and the sort's buffer; per query,
        # its cells, three runs and their row counts
        return len(points) * (16 * n + 64) + len(queries) * 160

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    audit_bound = index(pool, centers) + len(pool) + 16 * n * len(centers) + one_block
    assert peak(coverage_audit, disc, centers, 0.004246, pool) < audit_bound
    # the adjacency and the transpose that ``adj |= adj.T`` reads
    overlap_bound = index(centers, centers) + 2 * len(centers) ** 2 + 16 * n * len(centers) + one_block
    assert peak(_overlap_counts, disc, centers, 0.01515) < overlap_bound


# -- cells --------------------------------------------------------------------------------


def test_representative_in_cell(disc_cover, disc):
    for lv in disc_cover.levels:
        for ui in range(0, len(lv.centers), max(len(lv.centers) // 5, 1)):
            cell = build_cells(disc, lv, ui)
            assert cell["a_cell"](lv.z_reps[ui].reshape(1, -1))[0]


def test_a_cell_inside_b_cell(disc_cover, disc):
    lv = disc_cover.levels[0]
    cell = build_cells(disc, lv, 0)
    pts = a_cell_samples(disc_cover, 0, 0, 12)
    assert np.all(cell["a_cell"](pts))
    assert np.all(cell["b_cell"](pts))


def test_cell_depth_bands_nested(disc_cover):
    for lv in disc_cover.levels:
        assert lv.depth_b[0] < lv.depth_a[0] < lv.depth_a[1] <= lv.depth_b[1]


# -- cutoffs -----------------------------------------------------------------------------


def test_ramp_profile_endpoints(disc_cover):
    assert disc_cover.ramp(np.array([0.0]))[0] == 1.0
    assert disc_cover.ramp(np.array([disc_cover.ramp_radius]))[0] == 0.0
    assert disc_cover.ramp(np.array([10.0]))[0] == 0.0


def test_ramp_unit_slope_at_default_profile(disc_cover):
    # m = 65 gives ramp radius (65/13) - 4 = 1: the unit-slope ramp
    assert disc_cover.ramp_radius == pytest.approx(1.0)
    assert disc_cover.ramp(np.array([0.5]))[0] == pytest.approx(0.5)


def test_cutoff_one_on_cell(disc_cover):
    vals = cutoff_value(disc_cover, 0, 0, a_cell_samples(disc_cover, 0, 0, 8))
    assert np.allclose(vals, 1.0)


def test_cutoff_vanishes_far(disc_cover):
    lv = disc_cover.levels[0]
    far = np.array([[0.3 + 0.2j]])
    assert cutoff_value(disc_cover, 0, 0, far)[0] == 0.0


def test_cutoff_support_certificate(disc_cover, disc):
    # f > 0 forces a distance-to-cell certificate below the ramp radius,
    # hence (contrapositive screen) membership in the enclosing cell region
    lv = disc_cover.levels[0]
    rng = np.random.default_rng(6)
    pool = a_cell_samples(disc_cover, 0, 1, 6)
    probes = []
    for p in pool:
        probes.append(p * (1 - 1e-7))
        probes.append(p * (1 + 1e-7 * 0.5))
    probes = np.asarray(probes).reshape(-1, 1)
    vals = cutoff_value(disc_cover, 0, 1, probes)
    dists = distance_to_cell(disc_cover, 0, 1, probes)
    for v, d in zip(vals, dists):
        if v > 0:
            assert d < disc_cover.ramp_radius


def test_separation_screen(disc_cover, disc):
    # points reached from an inner cell with a certificate below the
    # stride-derived bound stay in the surrounding outer cell
    lv = disc_cover.levels[0]
    _, sigma = default_ladder(disc)
    bound = min(65.0 / 13.0, np.log2(1.0 / sigma) / 4.0) * 0.9  # m = 65, as disc_cover builds it
    cell = build_cells(disc, lv, 0)
    anchors = a_cell_samples(disc_cover, 0, 0, 6)
    rng = np.random.default_rng(7)
    for anchor in anchors[:3]:
        for _ in range(8):
            step = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.3 * abs(disc.r_val(anchor))
            w = anchor + np.array([step])
            if disc.r_val(w) >= 0:
                continue
            if straight_chord_upper(disc, anchor, w) < bound:
                assert cell["b_cell"](w.reshape(1, -1))[0]


# -- partition ---------------------------------------------------------------------------


def test_partition_classes_bounded(disc_cover):
    for lv in disc_cover.levels:
        assert int(lv.colors.max()) + 1 <= disc_cover.n0_observed


def test_partition_class_caps_disjoint(disc_cover, disc):
    lv = disc_cover.levels[0]
    rng = np.random.default_rng(8)
    for nu in range(min(int(lv.colors.max()) + 1, 3)):
        idx = np.where(lv.colors == nu)[0]
        for a_i in idx[:3]:
            xs = _cap_sample(disc, lv.centers[a_i], lv.b, 200, rng)
            for b_i in idx[:6]:
                if a_i == b_i:
                    continue
                assert not np.any(cap_contains(disc, lv.centers[b_i], lv.b, xs))


def test_outer_cells_disjoint_within_class(disc_cover, disc):
    # distinct same-class members at the same level have disjoint outer cells
    lv = disc_cover.levels[0]
    nu = 0
    idx = np.where(lv.colors == nu)[0]
    if len(idx) < 2:
        pytest.skip("class too small")
    cells = [build_cells(disc, lv, int(i)) for i in idx[:3]]
    for i, ci in enumerate(cells):
        pts = a_cell_samples(disc_cover, 0, int(idx[i]), 8)
        for j, cj in enumerate(cells):
            if i == j:
                continue
            assert not np.any(cj["b_cell"](pts))


def test_class_membership_predicates(disc_cover, disc):
    # the class cutoff stays in [0, 1], vanishes on the deep side, and its
    # sampled oscillation stays below the profile slack
    members = class_indices(disc_cover, 0, 1)
    if not members:
        pytest.skip("empty class")
    fI = family_cutoff(disc_cover, members)
    rng = np.random.default_rng(9)
    probe = []
    for li, ui in members[:4]:
        for p in a_cell_samples(disc_cover, li, ui, 4):
            probe.append(p)
    deep = np.array([[0.5 + 0j], [0.1 - 0.3j]])
    vals = fI(np.asarray(probe).reshape(-1, 1))
    assert np.all(vals >= 0) and np.all(vals <= 1 + 1e-9)
    assert np.allclose(fI(deep), 0.0)
    ladder, _ = default_ladder(disc)
    t_support = max(t for t, lv in zip(ladder, disc_cover.levels) if lv.kappa == 1)
    shallow_deep = np.array([[np.sqrt(1 - 4 * t_support) + 0j]])
    assert fI(shallow_deep)[0] == 0.0


def test_coverage_of_realized_band(disc_cover, disc):
    # sampled points in the realized depth window lie in some inner cell
    rng = np.random.default_rng(10)
    from berglab.gauge import _ray_field

    rays = _ray_field(disc)
    lv = disc_cover.levels[0]
    pts, _ = rays.layer_sample(lv.depth_a[0] * 1.05, lv.depth_a[1] * 0.95, 60, rng)
    proj = pts / np.abs(pts)  # disc boundary shadow
    covered = np.zeros(len(pts), bool)
    for ui, u in enumerate(lv.centers):
        covered |= lv.a_cell_mask(disc, pts, proj, ui)
        if np.all(covered):
            break
    assert np.all(covered)


def test_profile_requires_large_m(disc):
    with pytest.raises(CoverError):
        build_cover(disc, m=40.0, candidate_count=500, seed=0)
