"""Boundary covering: caps, packings, cells, cutoffs, and index partitions.

The construction stacks levels of boundary caps.  Within a level with base
depth t the cap gauge radius is m*t, the cell caps are C1 and C1^2 times
wider for the fitted engulfing constant C1, and the cell depth bands are
the dyadic windows [t*sigma^2, t*sigma) (inner cells) and (t*sigma^3, t)
(outer cells), where sigma is the level shrink factor.

The textbook instance ties the ladder to the profile parameter:
t_j = 2^(-j m) and sigma = 2^-m.  The profile needs m/13 > 4, so its first
level already lies at depth 2^-m < 2^-52, below what double-precision
coordinates resolve near a boundary of unit scale; that ladder is not
representable.  The desk ladder, fixed per dimension, keeps every
within-level relation above and moves only the depths, to representable
scales: t = 2^-11 and 2^-16 in C^1, t = 2^-9 in C^2, with sigma = 2^-5, so
the deepest band ends at 2^-31 (C^1) and 2^-24 (C^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import (
    DomainSpec,
    _project_to_level,
    complex_tangent_basis,
    normal_direction,
    surface_pool,
    walk_to_depth,
)
from .gauge import cap_contains, gauge_of_offsets, normal_gauge
from .lattice import _greedy_colors
from .metric import straight_chord_upper


class CoverError(ValueError):
    pass


# -- engulfing constant ---------------------------------------------------------


def fit_engulfing_constant(dom: DomainSpec, seed: int = 0) -> float:
    """Fitted C1: overlapping caps of radius t sit inside the C1*t cap.

    For 40 sampled cap pairs with a common point at each of the radii
    t = 0.05, 0.02 and 0.008, C1 is the smallest factor engulfing one cap
    (200 samples) in the other's dilation; the fit reports the max over the
    scan times a safety margin of 1.15.
    """
    rng = np.random.default_rng(seed)
    pool = surface_pool(dom, 0.0, 4000, seed)
    worst = 1.0
    for t in (0.05, 0.02, 0.008):
        for _ in range(40):
            zeta = pool[rng.integers(len(pool))]
            near = pool[normal_gauge(dom, zeta, pool) < 4.0 * t]
            if len(near) < 2:
                continue
            xi = near[rng.integers(len(near))]
            if not (cap_contains(dom, zeta, t, xi.reshape(1, -1))[0] or np.any(
                cap_contains(dom, zeta, t, _cap_sample(dom, xi, t, 32, rng))
            )):
                continue
            xs = _cap_sample(dom, xi, t, 200, rng)
            ratio = float(np.max(normal_gauge(dom, zeta, xs))) / t
            worst = max(worst, ratio)
    return 1.15 * worst


def _cap_sample(dom: DomainSpec, center: np.ndarray, t: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Boundary points inside the cap around ``center``, by local parametrization.

    Tangential directions move like sqrt(t), the rotated normal direction
    like t; candidates are projected back to the boundary and filtered by
    the cap inequality.
    """
    center = np.asarray(center, complex).reshape(-1)
    u = normal_direction(dom, center)
    basis = complex_tangent_basis(u)
    out = []
    guard = 0
    while sum(len(o) for o in out) < count and guard < 60:
        guard += 1
        m = max(2 * count, 64)
        tang = np.zeros((m, dom.n), complex)
        if dom.n > 1:
            coef = rng.uniform(-1, 1, (m, dom.n - 1)) + 1j * rng.uniform(-1, 1, (m, dom.n - 1))
            tang = coef @ basis * np.sqrt(t)
        rot = rng.uniform(-1, 1, m) * t
        cand = center[None, :] + tang + 1j * rot[:, None] * u[None, :]
        cand = _project_to_level(dom, cand, 0.0)
        keep = cap_contains(dom, center, t, cand)
        kept = cand[keep]
        if len(kept):
            out.append(kept)
    if not out:
        raise CoverError("cap sampler produced no points; cap below resolution")
    return np.concatenate(out, axis=0)[:count]


# -- cover structure --------------------------------------------------------------


@dataclass(frozen=True)
class CoverLevel:
    index: int  # 1-based level index
    d: float  # packing cap radius
    a: float  # inner cell cap radius
    b: float  # outer cell cap radius
    depth_a: tuple[float, float]  # [lo, hi) of the inner band
    depth_b: tuple[float, float]  # (lo, hi) of the outer band
    centers: np.ndarray
    z_reps: np.ndarray
    colors: np.ndarray

    @property
    def kappa(self) -> int:
        return (self.index - 1) % 3 + 1

    def a_cell_mask(self, dom: DomainSpec, pts: np.ndarray, proj: np.ndarray, u_idx: int) -> np.ndarray:
        depth = -dom.r_val(pts)
        in_band = (depth >= self.depth_a[0]) & (depth < self.depth_a[1])
        in_cap = cap_contains(dom, self.centers[u_idx], self.a, proj)
        return in_band & in_cap

    def b_cell_mask(self, dom: DomainSpec, pts: np.ndarray, proj: np.ndarray, u_idx: int) -> np.ndarray:
        depth = -dom.r_val(pts)
        in_band = (depth > self.depth_b[0]) & (depth < self.depth_b[1])
        in_cap = cap_contains(dom, self.centers[u_idx], self.b, proj)
        return in_band & in_cap


@dataclass(frozen=True)
class Cover:
    dom: DomainSpec
    c1: float
    levels: list[CoverLevel]
    n0_observed: int
    n0_bound: float
    ramp_radius: float
    cell_samples: dict = field(default_factory=dict, repr=False, compare=False)

    def ramp(self, x: np.ndarray) -> np.ndarray:
        """Piecewise-linear profile: 1 at 0, 0 beyond the ramp radius."""
        return np.clip(1.0 - np.asarray(x, float) / self.ramp_radius, 0.0, 1.0)


# -- packing ------------------------------------------------------------------------


COVERAGE_SLACK = 1.2
# the largest candidate stream a packing densifies to after failed audits
_MAX_CANDIDATES = 300000


def build_packing(
    dom: DomainSpec,
    d: float,
    c1: float,
    candidate_count: int = 20000,
    seed: int = 0,
    max_centers: int = 40000,
) -> np.ndarray:
    """Greedy maximal packing of boundary caps of gauge radius d.

    A candidate joins when it lies outside every accepted center's c1*d cap
    (both orientations), a sufficient disjointness surrogate.  Coverage is
    audited on a fresh boundary pool at the maximality radius inflated by
    the recorded slack, since stream-relative maximality only covers unseen
    points up to the stream density; a failed audit densifies the stream
    and rebuilds until the audit passes or the stream reaches
    ``_MAX_CANDIDATES``.

    The greedy pass is exact, not approximate.  rho(u, v) >= |u - v|^2, also
    as computed in floating point, so a candidate conflicts with a center
    only within Euclidean distance sqrt(c1*d); the close-pairs query widens
    that radius by a relative 1e-9, far above the rounding of a squared
    distance, and every pair it returns gets the full two-sided gauge test.
    The stream is read in blocks of live candidates.  A block accepts its
    candidates in stream order, each against the ones it accepted before
    it, and the pairs of the accepted ones rule out their later conflicting
    candidates before the next block is read.  So a candidate joins exactly
    when no earlier center conflicts with it: the centers, and their order,
    are those of testing every candidate against every accepted center in
    stream order.
    """
    count = candidate_count
    while True:
        pool = surface_pool(dom, 0.0, count, seed)
        stream = pool[np.random.default_rng(seed + 1).permutation(len(pool))]
        centers = _greedy_packing(dom, stream, c1 * d, max_centers)
        audit_pool = surface_pool(dom, 0.0, max(count // 2, 2000), seed + 77)
        uncovered = coverage_audit(dom, centers, COVERAGE_SLACK * c1 * d, audit_pool)
        if uncovered is None:
            return centers
        if count >= _MAX_CANDIDATES:
            raise CoverError(
                f"coverage audit failed at stream size {count}; uncovered boundary sample "
                f"{uncovered.tolist()}"
            )
        count = min(2 * count, _MAX_CANDIDATES)


def _greedy_packing(dom: DomainSpec, stream: np.ndarray, radius: float, max_centers: int) -> np.ndarray:
    """The stream rows that no earlier accepted row conflicts with, in stream order.

    Rows u (accepted) and v (later) conflict when the smaller of rho(u, v)
    and rho(v, u) is not >= ``radius``.  Since rho(u, v) >= |u - v|^2 they
    can conflict only within Euclidean distance sqrt(radius), so beyond a
    block only the pairs of the close-pairs query at that radius (widened
    by a relative 1e-9) get the gauge test.  The rows are read in blocks of
    the next ``_PACKING_BLOCK`` live rows, a row being live while no
    accepted row conflicts with it.  A block tests all its own pairs (one
    beyond the widened radius never conflicts) and accepts its rows in
    stream order, each unless a row it accepted before conflicts with it;
    one query for the accepted rows then rules out their later live
    conflicts.  So a row joins exactly when no earlier accepted row
    conflicts with it, as in a one-row-at-a-time pass.
    """
    grads = _blocked(dom.dbar_r, stream)

    def clash(diff: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return ~(np.minimum(gauge_of_offsets(diff, grads[v]), gauge_of_offsets(diff, grads[u])) >= radius)

    live = np.ones(len(stream), bool)  # rows not yet in a block and not ruled out
    pairs = _close_pairs(stream, np.sqrt(radius), live)
    accepted = []
    start = 0
    while True:
        block = start + np.flatnonzero(live[start:])[:_PACKING_BLOCK]
        if not len(block):
            break
        first, later = np.triu_indices(len(block), 1)
        u, v = block[first], block[later]
        hit = clash(stream[u] - stream[v], u, v)
        keep = np.ones(len(block), bool)
        for i, j in zip(first[hit].tolist(), later[hit].tolist()):
            if keep[i]:
                keep[j] = False
        taken = block[keep]
        accepted.append(taken)
        if sum(map(len, accepted)) > max_centers:
            raise CoverError("packing exceeded the center budget; enlarge the cap scale")
        live[block] = False
        start = block[-1] + 1
        for qi, v, diff in pairs(stream[taken]):
            sel = live[v]
            v = v[sel]
            live[v[clash(diff[sel], taken[qi[sel]], v)]] = False
    return stream[np.concatenate(accepted)] if accepted else stream[:0]


def coverage_audit(dom: DomainSpec, centers: np.ndarray, a: float, pool: np.ndarray):
    """None when every pool point lies in some a-cap; else a witness point.

    The witness is the first uncovered pool point.  As in the packing, a
    pool point can lie in the a-cap of u only within Euclidean distance
    sqrt(a) of u, since rho(u, w) >= |u - w|^2; only the (center, pool
    point) pairs of the close-pairs query at that radius (widened by a
    relative 1e-9) get the exact gauge test, so the covered set is exactly
    that of testing every pool point against every cap.  The query reads
    the centers in order, in blocks, and covered pool points drop out of it
    as they accumulate.
    """
    grads = _blocked(dom.dbar_r, centers)
    uncovered = np.ones(len(pool), bool)
    for qi, w, diff in _close_pairs(pool, np.sqrt(a), uncovered)(centers):
        sel = uncovered[w]
        w = w[sel]
        uncovered[w[gauge_of_offsets(diff[sel], grads[qi[sel]]) < a]] = False
    if not uncovered.any():
        return None
    return pool[int(np.argmax(uncovered))]


# -- close pairs ------------------------------------------------------------------------


# relative widening of every pair radius, and of the grid cells over it: far
# above the rounding of a squared distance or a cell coordinate, so no pair
# within the exact radius is ever dropped
_RADIUS_MARGIN = 1e-9
# rows per block of a batched evaluation, so temporaries stay small
_BLOCK_ROWS = 4096
# live stream rows per block of the greedy packing
_PACKING_BLOCK = 64


def _blocked(fn, rows: np.ndarray) -> np.ndarray:
    """fn(rows), evaluated ``_BLOCK_ROWS`` rows at a time; ``fn`` maps (k, n) rows to (k, n) rows."""
    out = np.empty_like(rows)
    for s in range(0, len(rows), _BLOCK_ROWS):
        out[s:s + _BLOCK_ROWS] = fn(rows[s:s + _BLOCK_ROWS])
    return out


def _close_pairs(pts: np.ndarray, radius: float, alive: np.ndarray | None = None):
    """``pairs(queries)``: the close (query, point) pairs, in blocks ``(qi, pi, diff)``.

    A query row q and a row p of ``pts`` pair when the sum over coordinates
    of diff.real**2 + diff.imag**2, diff = p - q, is <= (radius * (1 +
    ``_RADIUS_MARGIN``))**2; a block gives each pair's indices and diff.
    The rows of ``pts`` are sorted once by their cell on a grid over
    (Re z_1, Im z_1) whose side is that reach widened once more by
    ``_RADIUS_MARGIN``; cells are numbered by column, then row, with an
    empty row slot above and below each column.  A pair within the reach
    lies at most one cell apart in each coordinate, so a query reads three
    runs of the sorted order, one per neighbouring column, and every row it
    reads gets the squared-distance test.

    Queries are read in order, in units of whole queries with at most
    ``_BLOCK_ROWS`` rows to read between them, gathered into one block; a
    query with more rows than that is read alone, in slices of its runs.
    No block holds more rows, so memory stays flat however many pairs a
    call has.  ``alive``, when given, is a mask over ``pts`` that the caller
    clears as points stop mattering: pairs with cleared points may be left
    out, and once the cleared points make up half of the sorted order, they
    are dropped from it before the next unit.
    """
    reach = radius * (1.0 + _RADIUS_MARGIN)
    side = reach * (1.0 + _RADIUS_MARGIN)
    x0, y0 = pts[:, 0].real.min(initial=0.0), pts[:, 0].imag.min(initial=0.0)

    def cells(z):
        # whole numbers as floats, exact below 2**53, computed in place
        cx, cy = z[:, 0].real - x0, z[:, 0].imag - y0
        for c in (cx, cy):
            c /= side
            np.floor(c, out=c)
        return cx, cy

    cell, cy = cells(pts)
    right, width = cell.max(initial=0.0) + 1.0, cy.max(initial=0.0) + 3.0
    cell *= width
    cell += cy + 1.0
    order = np.argsort(cell, kind="stable")
    keys = cell[order]

    def test(qi, pi, diff):
        near = np.flatnonzero(np.sum(diff.real**2 + diff.imag**2, axis=-1) <= reach**2)
        return qi[near], pi[near], diff[near]

    def pairs(queries: np.ndarray):
        nonlocal order, keys
        qx, qy = cells(queries)
        # far outside the grid no cell is near; clipping keeps every run inside its column
        qx, qy = np.clip(qx, -1, right), np.clip(qy, -1, width - 2)
        first = (qx[:, None] + np.array([-1.0, 0.0, 1.0])) * width + qy[:, None]
        q, base = 0, None
        while q < len(queries):
            if alive is not None and 2 * np.count_nonzero(alive) <= len(order):
                keep = alive[order]
                order, keys = order[keep], keys[keep]
                base = None
            if base is None:
                # the runs of the queries left, and the running count of their rows
                base = q
                lo = np.searchsorted(keys, first[q:], "left")
                count = np.searchsorted(keys, first[q:] + 2, "right") - lo
                upto = np.concatenate([[0], np.cumsum(count.sum(axis=1))])
            i = q - base
            # whole queries i..j-1 whose rows fit in one block; else query i alone, in slices
            j = int(np.searchsorted(upto, upto[i] + _BLOCK_ROWS, "right")) - 1
            if j > i:
                c, lo_i = count[i:j].ravel(), lo[i:j].ravel()
                pi = order[np.repeat(lo_i - (np.cumsum(c) - c), c) + np.arange(upto[j] - upto[i])]
                qi = np.repeat(np.arange(q, base + j), np.diff(upto[i:j + 1]))
                yield test(qi, pi, pts[pi] - queries[qi])
            else:
                j = i + 1
                for run_lo, run_hi in zip(lo[i].tolist(), (lo[i] + count[i]).tolist()):
                    for s in range(run_lo, run_hi, _BLOCK_ROWS):
                        pi = order[s:min(s + _BLOCK_ROWS, run_hi)]
                        yield test(np.full(len(pi), q), pi, pts[pi] - queries[q])
            q = base + j

    return pairs


# -- cells, representatives, cutoffs ----------------------------------------------------


def build_cells(dom: DomainSpec, level: CoverLevel, u_idx: int) -> dict:
    """Membership predicates for the two nested cells plus the representative."""
    center = level.centers[u_idx]

    def a_cell(pts):
        pts = np.asarray(pts, complex).reshape(-1, dom.n)
        proj = _project_to_level(dom, pts, 0.0)
        return level.a_cell_mask(dom, pts, proj, u_idx)

    def b_cell(pts):
        pts = np.asarray(pts, complex).reshape(-1, dom.n)
        proj = _project_to_level(dom, pts, 0.0)
        return level.b_cell_mask(dom, pts, proj, u_idx)

    z_rep = level.z_reps[u_idx]
    return {"a_cell": a_cell, "b_cell": b_cell, "z_rep": z_rep, "center": center}


def a_cell_samples(cover: Cover, li: int, u_idx: int, count: int = 16, seed: int = 0) -> np.ndarray:
    """Interior samples of the inner cell (audit probes)."""
    key = (li, u_idx, count, seed)
    if key not in cover.cell_samples:
        dom = cover.dom
        level = cover.levels[li]
        rng = np.random.default_rng(seed + 7919 * u_idx + li)
        caps = _cap_sample(dom, level.centers[u_idx], level.a, count, rng)
        lo, hi = level.depth_a
        depths = np.exp(rng.uniform(np.log(lo * 1.01), np.log(hi * 0.99), len(caps)))
        cover.cell_samples[key] = walk_to_depth(dom, caps, depths)
    return cover.cell_samples[key]


def distance_to_cell(cover: Cover, li: int, u_idx: int, pts: np.ndarray) -> np.ndarray:
    """Upper bound on the distance to the inner cell, zero on the cell itself.

    The witness path first clamps the depth along the inward normal into the
    cell's band, then slides the boundary shadow into the cap along a
    projected chord; its quadrature length bounds the true distance and
    varies continuously with the query point.
    """
    dom = cover.dom
    level = cover.levels[li]
    center = level.centers[u_idx]
    pts = np.asarray(pts, complex).reshape(-1, dom.n)
    out = np.full(len(pts), np.inf)
    depth = -dom.r_val(pts)
    lo, hi = level.depth_a
    lo_t, hi_t = lo * 1.02, hi * 0.98

    # a wide depth prefilter: beyond it the depth leg alone exceeds the ramp
    band_lo = lo * 2.0 ** (-4 * (cover.ramp_radius + 2))
    band_hi = min(hi * 2.0 ** (12 * (cover.ramp_radius + 2)), 1.0)
    sel = (depth > band_lo) & (depth < band_hi) & (depth > 0)
    if not np.any(sel):
        return out
    idx = np.where(sel)[0]
    zs = pts[idx]
    clamped = np.clip(depth[idx], lo_t, hi_t)
    z_mid = walk_to_depth(dom, zs, clamped)
    leg1 = np.where(
        np.abs(depth[idx] - clamped) <= 1e-12 * clamped, 0.0, straight_chord_upper(dom, zs, z_mid)
    )

    proj = _project_to_level(dom, z_mid, 0.0)
    gz = normal_gauge(dom, center, proj)
    inside_cap = gz < level.a
    w_star = z_mid.copy()
    need = ~inside_cap
    if np.any(need):
        targets = _slide_into_cap(dom, center, proj[need], level.a * 0.98)
        w_star[need] = walk_to_depth(dom, targets, clamped[need])
    leg2 = np.where(inside_cap, 0.0, straight_chord_upper(dom, z_mid, w_star))
    out[idx] = leg1 + leg2
    return out


def _slide_into_cap(dom: DomainSpec, center: np.ndarray, pts: np.ndarray, target_gauge: float) -> np.ndarray:
    """Boundary points moved toward the cap center until inside the cap.

    Walks the projected chord point -> center by bisection in the blend
    parameter; the gauge is zero at the center, so a crossing always exists.
    """
    lam_lo = np.zeros(len(pts))
    lam_hi = np.ones(len(pts))
    for _ in range(40):
        lam = 0.5 * (lam_lo + lam_hi)
        cand = _project_to_level(dom, pts + lam[:, None] * (center[None, :] - pts), 0.0)
        inside = normal_gauge(dom, center, cand) < target_gauge
        lam_hi = np.where(inside, lam, lam_hi)
        lam_lo = np.where(inside, lam_lo, lam)
    return _project_to_level(dom, pts + lam_hi[:, None] * (center[None, :] - pts), 0.0)


def cutoff_value(cover: Cover, li: int, u_idx: int, pts: np.ndarray) -> np.ndarray:
    """Ramp of the distance-to-cell upper bound; one on the cell itself."""
    return cover.ramp(distance_to_cell(cover, li, u_idx, pts))


# -- index partition --------------------------------------------------------------------


def _overlap_counts(dom: DomainSpec, centers: np.ndarray, b: float) -> np.ndarray:
    """Conflict adjacency via a complete overlap surrogate at radius b.

    Two b-caps can only intersect when either center lies in the other's
    6*b dilation (triangle-type estimate with the gradient Lipschitz slack),
    so this adjacency over-approximates true overlap; coloring against it
    stays sound and the observed-count budget stays an upper bound.  Since
    rho(u, v) >= |u - v|^2, only the center pairs of the close-pairs query
    at radius sqrt(6*b) (widened by a relative 1e-9) get the gauge test, and
    the adjacency is exactly that of testing every pair; it is filled one
    block of pairs at a time.
    """
    m = len(centers)
    adj = np.zeros((m, m), bool)
    grads = _blocked(dom.dbar_r, centers)
    for qi, pi, diff in _close_pairs(centers, np.sqrt(6.0 * b))(centers):
        hit = gauge_of_offsets(diff, grads[qi]) < 6.0 * b
        adj[qi[hit], pi[hit]] = True
    adj |= adj.T
    np.fill_diagonal(adj, False)
    return adj


def index_partition(dom: DomainSpec, centers: np.ndarray, b: float) -> tuple[np.ndarray, int]:
    """Greedy coloring of the cap-overlap graph; returns (colors, observed max overlap)."""
    adj = _overlap_counts(dom, centers, b)
    degree = adj.sum(axis=1)
    n0_observed = int(degree.max()) + 1 if len(degree) else 1
    return _greedy_colors(adj, np.argsort(-degree)), n0_observed


# -- orchestration ----------------------------------------------------------------------


def default_ladder(dom: DomainSpec) -> tuple[list[float], float]:
    """Desk-scale level depths and shrink factor.

    Chosen so cap counts stay in the thousands and every depth band clears
    the coordinate resolution floor.
    """
    if dom.n == 1:
        return [2.0**-11, 2.0**-16], 2.0**-5
    return [2.0**-9], 2.0**-5


def _stream_size_for(dom: DomainSpec, d: float, base: int, seed: int) -> int:
    """Candidate stream size that resolves caps of gauge radius d.

    Measured from the fraction of a probe pool inside quarter-radius caps,
    so the greedy stream leaves no uncovered gap at the cap scale.
    """
    pool = surface_pool(dom, 0.0, 4000, seed + 31)
    rng = np.random.default_rng(seed + 13)
    fracs = []
    for _ in range(8):
        zeta = pool[rng.integers(len(pool))]
        fracs.append(float(np.mean(normal_gauge(dom, zeta, pool) < d / 4.0)))
    frac = max(np.mean(fracs), 1e-6)
    return int(np.clip(8.0 / frac, base, 200000))


def build_cover(dom: DomainSpec, m: float = 65.0, candidate_count: int = 20000, seed: int = 0) -> Cover:
    """Assemble packings, cells, representatives and the index partition.

    The levels follow :func:`default_ladder`; the cap radius of a level with
    base depth t is m*t, and C1 is fitted by :func:`fit_engulfing_constant`.
    """
    if m / 13.0 <= 4.0:
        raise CoverError("profile parameter must satisfy m/13 > 4")
    ladder, sigma = default_ladder(dom)
    c1 = fit_engulfing_constant(dom, seed=seed)
    ramp_radius = m / 13.0 - 4.0

    levels = []
    n0_obs = 1
    for j, t in enumerate(ladder, start=1):
        d = m * t
        a = COVERAGE_SLACK * c1 * d
        b = c1 * a
        depth_a = (t * sigma**2, t * sigma)
        depth_b = (t * sigma**3, t)
        stream = _stream_size_for(dom, d, candidate_count, seed + j)
        centers = build_packing(dom, d, c1, candidate_count=stream, seed=seed + j)
        z_reps = walk_to_depth(dom, centers, np.sqrt(depth_a[0] * depth_a[1]))
        colors, n0_here = index_partition(dom, centers, b)
        n0_obs = max(n0_obs, n0_here, int(colors.max()) + 1)
        levels.append(
            CoverLevel(j, d, a, b, depth_a, depth_b, centers, z_reps, colors)
        )
    n0_bound = _apriori_overlap_bound(dom.n, c1)
    return Cover(dom, c1, levels, n0_obs, n0_bound, ramp_radius)


def _apriori_overlap_bound(n: int, c1: float) -> float:
    """Counting-bound form of the overlap cap: C * (C1^2)^n with C fitted to 1."""
    return float((c1**2) ** n)


def class_indices(cover: Cover, nu: int, kappa: int) -> list[tuple[int, int]]:
    """(level_index, center_index) pairs of the class with color nu and residue kappa."""
    out = []
    for li, lv in enumerate(cover.levels):
        if lv.kappa != kappa:
            continue
        for ui in np.where(lv.colors == nu)[0]:
            out.append((li, int(ui)))
    return out


def family_cutoff(cover: Cover, members: list[tuple[int, int]]):
    """Callable f_I summing the member cutoffs."""

    def f(pts):
        pts = np.asarray(pts, complex).reshape(-1, cover.dom.n)
        total = np.zeros(len(pts))
        for li, ui in members:
            total += cutoff_value(cover, li, ui, pts)
        return total

    return f

