"""Separated point sets under the estimator metric.

A lattice is built greedily from a candidate stream: a point joins when its
estimated distance to every accepted point is at least 2a.  The estimator
over-estimates the geodesic distance, so two accepted points may lie closer
than 2a in the true metric.  The invariant is separation in the estimator
metric, the same yardstick every consumer and every check uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DomainSpec, sample_region
from .metric import SCAN_BUDGET, DistanceEstimator, straight_chord_upper


@dataclass(frozen=True)
class Lattice:
    points: np.ndarray  # (m, n) complex
    a: float

    def __post_init__(self):
        pts = np.asarray(self.points, complex)
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[-1] if pts.ndim >= 2 else 1)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def _depth_stratified_shuffle(dom: DomainSpec, pts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Interleave candidates across dyadic depth shells so every shell fills."""
    depth = -dom.r_val(pts)
    k = np.clip(np.floor(-np.log2(np.maximum(depth, 1e-300))).astype(int), 0, 60)
    order = []
    buckets = {}
    for i, kk in enumerate(k):
        buckets.setdefault(int(kk), []).append(i)
    for b in buckets.values():
        rng.shuffle(b)
    keys = sorted(buckets)
    while any(buckets[kk] for kk in keys):
        for kk in keys:
            if buckets[kk]:
                order.append(buckets[kk].pop())
    return pts[np.asarray(order, int)]


def build_separated(
    dom: DomainSpec,
    region,
    a: float,
    candidate_count: int = 400,
    seed: int = 0,
    est: DistanceEstimator | None = None,
    candidates: np.ndarray | None = None,
) -> Lattice:
    """Greedy maximal packing relative to the sampled candidate stream.

    A candidate's close pairs (chord below 2a + 2) go to the optimizer as one
    batch, which stops at the first path shorter than 2a: the decision of
    asking them one by one up to the first estimate below 2a.  ``est``
    defaults to a fresh SCAN_BUDGET estimator; pass a shared one to reuse
    the accepted candidates' optimizer distances in later partitions and
    counts.
    """
    if a <= 0:
        raise ValueError("separation parameter must be positive")
    rng = np.random.default_rng(seed)
    if candidates is None:
        if candidate_count == 0:
            return Lattice(np.empty((0, dom.n), complex), a)
        candidates = sample_region(dom, region, candidate_count, seed)
    if len(candidates) == 0:
        return Lattice(np.empty((0, dom.n), complex), a)
    candidates = _depth_stratified_shuffle(dom, np.asarray(candidates, complex), rng)

    if est is None:
        est = DistanceEstimator(dom, SCAN_BUDGET)
    accepted: list[np.ndarray] = []
    for cand in candidates:
        if not accepted:
            accepted.append(cand)
            continue
        acc = np.asarray(accepted)
        chords = straight_chord_upper(dom, cand, acc)
        if np.any(chords < 2 * a):
            continue
        # chords are upper bounds; confirm near misses with the optimizer
        if est.all_at_least(cand, acc[chords < 2 * a + 2.0], 2 * a):
            accepted.append(cand)
    return Lattice(np.asarray(accepted), a)


def pairwise_dupper(dom: DomainSpec, pts: np.ndarray, est: DistanceEstimator | None = None, *,
                    refine_below: float) -> np.ndarray:
    """Symmetric matrix of estimator distances between lattice points.

    Each row's chord bounds come from one chord call; the row's pairs whose
    chord falls below ``refine_below`` then go to the estimator in one call.
    A batch gives each pair the bits it gets alone, so the matrix is the one
    that asking pair by pair gives.
    """
    pts = np.asarray(pts, complex)
    m = len(pts)
    if est is None:
        est = DistanceEstimator(dom, SCAN_BUDGET)
    out = np.zeros((m, m))
    for i in range(m - 1):
        row = straight_chord_upper(dom, pts[i], pts[i + 1 :])
        near = np.flatnonzero(row < refine_below)
        if len(near):
            row[near] = est(pts[i], pts[i + 1 + near])
        out[i, i + 1 :] = row
    return out + out.T


def partition_separated(dom: DomainSpec, lat: Lattice, R: float,
                        est: DistanceEstimator | None = None) -> list[Lattice]:
    """Greedy coloring of the conflict graph {d_upper <= 2R} into separated classes."""
    if R < lat.a:
        raise ValueError("partition scale must be at least the separation parameter")
    m = len(lat)
    if m == 0:
        return []
    dmat = pairwise_dupper(dom, lat.points, est, refine_below=2 * R + 1.0)
    conflict = dmat <= 2 * R
    np.fill_diagonal(conflict, False)
    colors = _greedy_colors(conflict, range(m))
    return [
        Lattice(lat.points[colors == c], R)
        for c in range(int(colors.max()) + 1)
    ]


def _greedy_colors(adj: np.ndarray, order) -> np.ndarray:
    """Greedy coloring of the graph ``adj``: each vertex in ``order`` takes the
    smallest color none of its colored neighbours holds."""
    colors = -np.ones(len(adj), int)
    for i in order:
        used = colors[adj[i]]
        # k neighbours hold at most k colors, so one of 0..k is free
        taken = np.zeros(len(used) + 1, bool)
        taken[used[(used >= 0) & (used < len(taken))]] = True
        colors[i] = np.argmin(taken)
    return colors


def count_neighbors(dom: DomainSpec, lat: Lattice, z: np.ndarray, R: float,
                    est: DistanceEstimator | None = None) -> int:
    """Number of lattice points within estimator distance R of z."""
    if len(lat) == 0:
        return 0
    z = np.asarray(z, complex).reshape(-1)
    chords = straight_chord_upper(dom, z, lat.points)
    count = int(np.sum(chords <= R))
    if est is None:
        est = DistanceEstimator(dom, SCAN_BUDGET)
    maybe = (chords > R) & (chords <= R + 2.0)
    if np.any(maybe):
        count += int(np.sum(est(z, lat.points[maybe]) <= R))
    return count
