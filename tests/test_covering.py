import numpy as np
import pytest

from berglab.covering import (
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
    distance_to_cell,
    family_cutoff,
    fit_engulfing_constant,
    index_partition,
    textbook_ladder,
    _cap_sample,
)
from berglab.domain import surface_pool
from berglab.gauge import exponent_regression, normal_gauge
from berglab.metric import CHEAP_BUDGET, DistanceEstimator


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


def test_textbook_scale_formula():
    ladder, sigma = textbook_ladder(8, 2)
    assert ladder[0] == pytest.approx(8 * 2.0**-8 / 8)  # t_1 = 2^-m; d = m * t
    assert sigma == 2.0**-8


def test_literal_small_profile_packing(disc):
    # the literal ladder at m = 8: cap radius m 2^-m = 0.03125, cell bands
    # [2^-24, 2^-16) -- representable and auditable end to end
    m = 8
    ladder, sigma = textbook_ladder(m, 1)
    c1 = fit_engulfing_constant(disc, seed=2)
    cover = build_cover(
        disc, m=65.0, ladder=ladder, sigma=sigma, c1=c1, candidate_count=5000, seed=2, cap_prefactor=m
    )
    lv = cover.levels[0]
    assert lv.d == pytest.approx(m * 2.0**-m)
    assert lv.depth_a == (pytest.approx(2.0**-24), pytest.approx(2.0**-16))
    assert lv.depth_b == (pytest.approx(2.0**-32), pytest.approx(2.0**-8))
    assert len(lv.centers) >= 40


# -- engulfing ---------------------------------------------------------------------


def test_engulfing_constant_reasonable(disc):
    c1 = fit_engulfing_constant(disc, seed=0)
    assert 1.0 <= c1 <= 40.0


def test_engulfing_property_holds(disc):
    # spot audit of the fitted constant on fresh overlapping cap pairs
    c1 = fit_engulfing_constant(disc, seed=0)
    rng = np.random.default_rng(3)
    pool, _ = surface_pool(disc, 0.0, 2000, 3)
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
    pool, _ = surface_pool(disc, 0.0, 3000, 99)
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
    bound = min(disc_cover.m / 13.0, np.log2(1.0 / disc_cover.sigma) / 4.0) * 0.9
    cell = build_cells(disc, lv, 0)
    anchors = a_cell_samples(disc_cover, 0, 0, 6)
    est = DistanceEstimator(disc, CHEAP_BUDGET)
    rng = np.random.default_rng(7)
    for anchor in anchors[:3]:
        for _ in range(8):
            step = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.3 * abs(disc.r_val(anchor))
            w = anchor + np.array([step])
            if disc.r_val(w) >= 0:
                continue
            if est(anchor, w) < bound:
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
    t_support = max(lv.t for lv in disc_cover.levels if lv.kappa == 1)
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


def test_cover_serialization(disc_cover):
    doc = disc_cover.to_json()
    import json

    back = json.loads(doc)
    assert back["m"] == disc_cover.m
    assert len(back["levels"]) == len(disc_cover.levels)
    assert back["levels"][0]["centers"]


def test_profile_requires_large_m(disc):
    with pytest.raises(CoverError):
        build_cover(disc, m=40.0, candidate_count=500, seed=0)


def test_ladder_resolution_guard(disc):
    with pytest.raises(CoverError):
        build_cover(disc, m=65.0, ladder=[2.0**-60], sigma=2.0**-5, c1=3.0, candidate_count=500, seed=0)
