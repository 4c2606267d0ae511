import numpy as np
import pytest

from berglab.covering import _overlap_counts, index_partition
from berglab.domain import sample_region, surface_pool
from berglab.lattice import (
    Lattice,
    _depth_stratified_shuffle,
    _greedy_colors,
    build_separated,
    count_neighbors,
    pairwise_dupper,
    partition_separated,
)
from berglab.metric import SCAN_BUDGET, DistanceEstimator, metric_ball_volume, straight_chord_upper


def test_empty_region(disc):
    lat = build_separated(disc, "interior", a=0.5, candidate_count=0, seed=0)
    assert len(lat) == 0


def test_single_candidate(disc):
    cand = np.array([[0.1 + 0j]])
    lat = build_separated(disc, "interior", a=0.5, candidates=cand, seed=0)
    assert len(lat) == 1


def test_pairwise_separation_audit(disc_global):
    a = 0.5
    lat = build_separated(disc_global, ("shell", 0.05, 0.8), a, candidate_count=150, seed=1)
    assert len(lat) >= 3
    dmat = pairwise_dupper(disc_global, lat.points, refine_below=2 * a)
    iu = np.triu_indices(len(lat), 1)
    assert np.all(dmat[iu] >= 2 * a - 1e-9)


def test_partition_soundness(disc_global):
    a, R = 0.4, 0.8
    lat = build_separated(disc_global, ("shell", 0.08, 0.8), a, candidate_count=70, seed=2)
    classes = partition_separated(disc_global, lat, R)
    assert sum(len(c) for c in classes) == len(lat)
    for cls in classes:
        if len(cls) >= 2:
            dmat = pairwise_dupper(disc_global, cls.points, refine_below=2 * R + 0.5)
            iu = np.triu_indices(len(cls), 1)
            assert np.all(dmat[iu] > 2 * R - 1e-9)


class _CountingEstimator(DistanceEstimator):
    """Counts the pairs it is asked for: one per row of w."""

    def __init__(self, dom, budget):
        super().__init__(dom, budget)
        self.requests = 0

    def __call__(self, z, w):
        self.requests += len(np.asarray(w).reshape(-1, len(np.asarray(z).reshape(-1))))
        return super().__call__(z, w)


@pytest.mark.parametrize("name, candidates", [("disc_global", 20), ("egg", 20)])
def test_shared_estimator_changes_nothing(name, candidates, request):
    dom = request.getfixturevalue(name)
    a = 0.5
    shell = ("shell", 0.02, 0.6)
    fresh = build_separated(dom, shell, a, candidate_count=candidates, seed=3)
    fresh_classes = partition_separated(dom, fresh, 2 * a)
    fresh_count = count_neighbors(dom, fresh, fresh.points[0], 2 * a)

    est = _CountingEstimator(dom, SCAN_BUDGET)
    lat = build_separated(dom, shell, a, candidate_count=candidates, seed=3, est=est)
    built = len(est._memo)
    classes = partition_separated(dom, lat, 2 * a, est)
    count = count_neighbors(dom, lat, lat.points[0], 2 * a, est)

    assert len(lat) >= 3
    assert lat.points.tobytes() == fresh.points.tobytes()
    assert [c.points.tobytes() for c in classes] == [c.points.tobytes() for c in fresh_classes]
    assert count == fresh_count
    # the build refines every pair the partition and the count ask for (chord
    # below 2a + 2), so they add no memo entry; the count re-asks pairs the
    # partition asked, so the requests outnumber the entries
    assert len(est._memo) == built
    assert 0 < built < est.requests


def _pairwise_reference(dom, pts, est, refine_below):
    """The chord matrix with each pair below ``refine_below`` asked alone, in row order."""
    m = len(pts)
    out = np.zeros((m, m))
    for i in range(m - 1):
        out[i, i + 1 :] = straight_chord_upper(dom, pts[i], pts[i + 1 :])
    out = out + out.T
    for i in range(m):
        for j in range(i + 1, m):
            if out[i, j] < refine_below:
                out[i, j] = out[j, i] = est(pts[i], pts[j])
    return out


@pytest.mark.parametrize("name", ["disc", "egg"])
def test_pairwise_rows_match_the_pair_by_pair_loop(name, request):
    # one estimator call per row gives every entry the bits of one call per pair
    dom = request.getfixturevalue(name)
    lat = build_separated(dom, ("shell", 0.02, 0.6), 0.5, candidate_count=25, seed=4)
    assert len(lat) >= 4
    chords = _pairwise_reference(dom, lat.points, None, 0.0)
    for refine_below in (2.0, 3.0):
        ref = _pairwise_reference(dom, lat.points, DistanceEstimator(dom, SCAN_BUDGET), refine_below)
        assert np.any(ref != chords)
        fresh = pairwise_dupper(dom, lat.points, refine_below=refine_below)
        shared = DistanceEstimator(dom, SCAN_BUDGET)
        shared(lat.points[0], lat.points[1:])
        assert fresh.tobytes() == ref.tobytes()
        assert pairwise_dupper(dom, lat.points, shared, refine_below=refine_below).tobytes() == ref.tobytes()


def _build_reference(dom, region, a, candidate_count, seed):
    """The greedy build asking each close pair alone, in order, up to the first estimate below 2a."""
    rng = np.random.default_rng(seed)
    candidates = _depth_stratified_shuffle(dom, sample_region(dom, region, candidate_count, seed), rng)
    est = DistanceEstimator(dom, SCAN_BUDGET)
    accepted = []
    for cand in candidates:
        if accepted:
            acc = np.asarray(accepted)
            chords = straight_chord_upper(dom, cand, acc)
            if np.any(chords < 2 * a):
                continue
            if any(est(cand, acc[i]) < 2 * a for i in np.where(chords < 2 * a + 2.0)[0]):
                continue
        accepted.append(cand)
    return np.asarray(accepted)


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("name", ["disc", "egg"])
def test_batched_build_matches_the_sequential_loop(name, seed, request):
    # all_at_least stops a candidate's batch at the first short path; the
    # lattice is the one the pair-by-pair loop with an early break builds
    dom = request.getfixturevalue(name)
    shell = ("shell", 0.02, 0.6)
    lat = build_separated(dom, shell, 0.5, candidate_count=25, seed=seed)
    ref = _build_reference(dom, shell, 0.5, 25, seed)
    assert len(lat) >= 3
    assert lat.points.tobytes() == ref.tobytes()


def test_partition_single_point(disc):
    lat = Lattice(np.array([[0.2 + 0j]]), 0.3)
    classes = partition_separated(disc, lat, 0.3)
    assert len(classes) == 1


def test_count_neighbors_far_point(disc_global):
    lat = Lattice(np.array([[0.9 + 0j]]), 0.3)
    # the center is metrically far from a point near the boundary
    assert count_neighbors(disc_global, lat, np.array([0j]), R=0.5) == 0


def test_count_neighbors_self(disc_global):
    lat = build_separated(disc_global, ("shell", 0.1, 0.6), 0.5, candidate_count=80, seed=3)
    z = lat.points[0]
    assert count_neighbors(disc_global, lat, z, R=0.4) == 1


def test_count_neighbors_volume_bound(disc_global):
    a, R = 0.4, 1.0
    lat = build_separated(disc_global, ("shell", 0.08, 0.7), a, candidate_count=70, seed=4)
    # counting bound from measured ball masses: N <= C(R + a) / c(a)
    big = metric_ball_volume(disc_global, np.array([0.5 + 0j]), R + a, samples=4000, seed=5)["estimate"]
    small = metric_ball_volume(disc_global, np.array([0.5 + 0j]), a, samples=4000, seed=6)["estimate"]
    bound = 4.0 * big / max(small, 1e-9)
    worst = max(count_neighbors(disc_global, lat, z, R) for z in lat.points[:3])
    assert worst <= bound


def test_packing_balls_disjoint_sampled(disc_global):
    a = 0.5
    lat = build_separated(disc_global, ("shell", 0.1, 0.7), a, candidate_count=60, seed=7)
    rng = np.random.default_rng(8)
    # sampled points of each metric ball may not lie in any other ball
    from berglab.metric import ball_superset_sampler, DistanceEstimator, SCAN_BUDGET

    est = DistanceEstimator(disc_global, SCAN_BUDGET)
    for i, z in enumerate(lat.points[:3]):
        draw = ball_superset_sampler(disc_global, z, a)
        pts, _ = draw(40, rng)
        inside_i = [p for p in pts if disc_global.r_val(p) < 0 and est(z, p) < a]
        for p in inside_i[:5]:
            for j, w in enumerate(lat.points[:6]):
                if i == j:
                    continue
                assert est(w, p) >= a - 1e-9


def _greedy_colors_ref(adj, order):
    """Greedy coloring with a set of the colored neighbours' colors per vertex."""
    colors = -np.ones(len(adj), int)
    for i in order:
        used = set(colors[j] for j in np.where(adj[i])[0] if colors[j] >= 0)
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    return colors


def test_greedy_colors_match_the_set_loop(disc, ball2):
    rng = np.random.default_rng(5)
    for m, density in ((1, 0.0), (30, 0.1), (60, 0.5), (200, 0.03), (80, 1.0)):
        adj = rng.random((m, m)) < density
        adj |= adj.T
        np.fill_diagonal(adj, False)
        for order in (range(m), rng.permutation(m), np.argsort(-adj.sum(axis=1))):
            assert np.array_equal(_greedy_colors(adj, order), _greedy_colors_ref(adj, order))
    # the covering's cap-overlap graph, in its order of falling degree
    for dom, bs in ((disc, (0.1, 0.05)), (ball2, (0.5, 0.1))):
        centers = surface_pool(dom, 0.0, 300, 11)
        for b in bs:
            adj = _overlap_counts(dom, centers, b)
            colors, _ = index_partition(dom, centers, b)
            assert colors.max() >= 2
            assert np.array_equal(colors, _greedy_colors_ref(adj, np.argsort(-adj.sum(axis=1))))
    # the lattice's conflict graph, in index order
    lat = build_separated(disc, ("shell", 0.02, 0.6), 0.3, candidate_count=40, seed=3)
    est = DistanceEstimator(disc, SCAN_BUDGET)
    conflict = pairwise_dupper(disc, lat.points, est, refine_below=2.2) <= 1.2
    np.fill_diagonal(conflict, False)
    colors = _greedy_colors_ref(conflict, range(len(lat)))
    classes = partition_separated(disc, lat, 0.6, est)
    assert len(classes) == colors.max() + 1 >= 2
    assert [c.points.tobytes() for c in classes] == [lat.points[colors == c].tobytes() for c in range(len(classes))]


def test_greedy_colors_follow_the_order():
    # path 0 - 1 - 2 plus the isolated vertex 3
    adj = np.zeros((4, 4), bool)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = True
    assert _greedy_colors(adj, range(4)).tolist() == [0, 1, 0, 0]
    assert _greedy_colors(adj, [1, 3, 0, 2]).tolist() == [1, 0, 1, 0]
