"""Boundary-weighted Finsler metric, path lengths, and a distance upper bound.

The metric tensor blends d dbar log(1/-r) near the boundary into the
Euclidean metric deep inside, through a quintic smoothstep in r.  Distances
are estimated from above by optimizing piecewise-linear paths with L-BFGS
on the exact gradient of their Gauss-Legendre length; every consumer in this
library treats the optimizer output as the working metric, so inequalities
checked downstream are stated in the direction that stays valid under
over-estimation.  The optimizer runs a stack of paths in lockstep.  Each
round takes every trial's length in one pass, and the gradient only of the
paths that take another step, in a second pass over the arrays the first one
kept, as weighted sums over each segment's abscissae.  Each path gets the
bits it would get alone; :func:`distance` is the batch of one.  The one
cheap upper bound is the length of the straight chord
(:func:`straight_chord_upper`), by the same segment quadrature
(:func:`_quadrature`) as every path segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial, pi

import numpy as np

from .domain import DomainError, DomainSpec, box_uniform, complex_tangent_basis, levi_form, walk_to_depth

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)
_GL_T = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


class MetricError(ValueError):
    pass


# -- metric form ----------------------------------------------------------------


def _smoothstep(x: np.ndarray) -> np.ndarray:
    """Quintic smoothstep: 0 for x<=0, 1 for x>=1, C^2 in between."""
    t = np.clip(x, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _smoothstep_slope(x: np.ndarray) -> np.ndarray:
    """Derivative of :func:`_smoothstep`."""
    t = np.clip(x, 0.0, 1.0)
    return 30.0 * (t * (1.0 - t)) ** 2


def psi_blend(dom: DomainSpec, r_val: np.ndarray) -> np.ndarray:
    """Blend weight: 1 on [-theta, 0), 0 below -2*theta."""
    return _smoothstep((r_val + 2.0 * dom.theta) / dom.theta)


def metric_form(dom: DomainSpec, z: np.ndarray, xi: np.ndarray, rv: np.ndarray | None = None,
                H: np.ndarray | None = None, g: np.ndarray | None = None) -> np.ndarray:
    """Quadratic form sum B[i,j](z) xi_i conj(xi_j) of the metric, vectorized, no matrices.

    For -r(z) <= theta, B is exactly the complex Hessian of log(1/-r):
    B = A/(-r) + (dbar r)(dbar r)^H / r^2.  Used on every quadrature
    abscissa; ``rv``, ``H`` and ``g`` are r(z), hessian(z) and dbar_r(z)
    when the caller already has them.
    """
    z = np.asarray(z, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    if rv is None:
        rv = dom.r_val(z)
    if np.any(rv >= 0):
        raise MetricError("quadrature abscissa escaped the domain")
    psi = psi_blend(dom, rv)
    H = dom.hessian(z) if H is None else H
    g = dom.dbar_r(z) if g is None else g
    levi = levi_form(H, xi)
    normal = np.abs(np.einsum("...i,...i->...", xi, np.conj(g))) ** 2
    eucl = np.sum(np.abs(xi) ** 2, axis=-1)
    return psi * (levi / (-rv) + normal / rv**2) + (1.0 - psi) * eucl


# -- paths --------------------------------------------------------------------


def _refinement_breaks(level: int) -> np.ndarray:
    """Sub-interval breakpoints of [0,1], dyadically refined toward both ends.

    The metric speed along a chord varies like 1/(-r), which changes by a
    bounded factor across each dyadic piece, so 4-point Gauss-Legendre per
    piece resolves boundary-hugging segments that a single rule misses.
    """
    level = int(np.clip(level, 0, 48))
    lead = 0.5 ** np.arange(level + 1, 0, -1)
    return np.concatenate([[0.0], lead, 1.0 - lead[::-1], [1.0]])


def _segment_buckets(dom: DomainSpec, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Refinement level of each segment p->q (rows), 0 where an endpoint is not strictly inside.

    Segments are bucketed by the dyadic range of -r along them, so only
    boundary-hugging segments pay for deep refinement.
    """
    depth = -dom.r_val(np.stack([p, q, 0.5 * (p + q)]))
    escaped = np.any(depth[:2] <= 0, axis=0)
    dp, dq, mid = np.maximum(depth, 1e-300)
    hi = np.maximum(mid, np.maximum(dp, dq))
    lo = np.minimum(dp, dq)
    lev = np.clip(np.ceil(np.log2(hi / lo)) + 2, 2, 48)
    return np.where(escaped, 0, np.clip((np.ceil(lev / 6) * 6).astype(int), 2, 48))


@cache
def _level_rule(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Parameters t and weights w, shape (pieces, 4), of the rule on the dyadic pieces of one level; read-only."""
    brk = _refinement_breaks(level)
    widths = brk[1:] - brk[:-1]
    t = brk[:-1, None] + widths[:, None] * _GL_T[None, :]
    w = widths[:, None] * _GL_W[None, :]
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _quadrature(dom: DomainSpec, p: np.ndarray, q: np.ndarray):
    """Gauss-Legendre rule on the dyadic pieces of each segment p->q (rows), one refinement bucket at a time.

    Yields ``(rows, t, w, pts, rv)`` per bucket: the indices of the bucket's
    segments whose abscissae all lie inside the domain, the parameters t and
    weights w of the bucket's level, shape (pieces, 4), the points
    (len(rows), pieces, 4, n) and r at them.  A segment with an endpoint not
    strictly inside is in no bucket, so no abscissa of it is evaluated; a
    segment with an abscissa outside is in no tuple.  Either has no length.
    """
    bucket = _segment_buckets(dom, p, q)
    for level in sorted(set(bucket[bucket > 0].tolist())):
        sel = np.flatnonzero(bucket == level)
        t, w = _level_rule(level)
        pts = p[sel][:, None, None, :] + t[None, :, :, None] * (q[sel] - p[sel])[:, None, None, :]
        rv = dom.r_val(pts)
        inside = np.all(rv < 0, axis=(-1, -2))
        # rebinding drops the whole bucket's arrays before the caller works on the kept rows
        pts, rv = pts[inside], rv[inside]
        if len(pts):
            yield sel[inside], t, w, pts, rv


def _path_lengths(dom: DomainSpec, nodes: np.ndarray) -> tuple[np.ndarray, list]:
    """Quadrature lengths of a stack of polylines, and the arrays their gradients are read from.

    ``nodes`` has shape (P, K + 1, n).  Returns the P lengths, +inf once any
    segment escapes the domain (see :func:`_quadrature`), and per refinement
    bucket the tuple ``(rows, t, w, pts, rv, H, g, v, speeds)``: the
    :func:`_quadrature` bucket, the Hessian and dbar r at its abscissae, the
    segment vectors v = q - p of its rows and the metric speeds sqrt(Q).
    The segments run through the same :func:`_quadrature` and the same
    :func:`metric_form` arithmetic as :func:`straight_chord_upper`, so a
    segment's length here is its chord length bit for bit.
    """
    count, k1, n = nodes.shape
    p = nodes[:, :-1].reshape(-1, n)
    q = nodes[:, 1:].reshape(-1, n)
    v = q - p
    seg = np.full(len(p), np.inf)
    buckets = []
    for sel, t, w, pts, rv in _quadrature(dom, p, q):
        xi = np.broadcast_to(v[sel][:, None, None, :], pts.shape)
        H, g = dom.hessian(pts), dom.dbar_r(pts)
        speeds = np.sqrt(np.maximum(metric_form(dom, pts, xi, rv, H, g), 0.0))
        seg[sel] = np.sum(speeds * w, axis=(-1, -2))
        buckets.append((sel, t, w, pts, rv, H, g, v[sel], speeds))
    return np.sum(seg.reshape(count, k1 - 1), axis=1), buckets


def _path_gradients(dom: DomainSpec, nodes: np.ndarray, buckets: list, paths: np.ndarray) -> np.ndarray:
    """Exact length gradients of the paths ``paths`` of a stack, from the arrays its length pass kept.

    ``nodes`` and ``buckets`` are the stack and the buckets of
    :func:`_path_lengths`.  Returns dL/dRe + i dL/dIm = 2 dL/dconj(node) at
    the interior nodes, shape (len(paths), K - 1, n).  Only the rows of the
    chosen paths are read, and each segment's gradient is summed over its own
    abscissae alone, so a path's gradient does not depend on which other
    paths share the call.  A segment with no length adds nothing.
    """
    count, k1, n = nodes.shape
    k = k1 - 1
    slot = np.full(count, -1)
    slot[paths] = np.arange(len(paths))
    ends = np.zeros((len(paths) * k, 2, n), complex)
    for sel, t, w, *arrays in buckets:
        keep = slot[sel // k] >= 0
        rows = sel[keep]
        if len(rows) < len(sel):
            arrays = [a[keep] for a in arrays]
        if len(rows):
            ends[slot[rows // k] * k + rows % k] = _segment_gradients(dom, t, w, *arrays)
    ends = ends.reshape(len(paths), k, 2, n)
    return ends[:, :-1, 1] + ends[:, 1:, 0]


def _segment_gradients(dom: DomainSpec, t, w, pts, rv, H, g, v, speeds) -> np.ndarray:
    """Gradients of the lengths of m segments p->q at p and at q, shape (m, 2, n), as weighted sums.

    A segment's length is sum_a w_a sqrt(Q(z_a, v)) with z_a = p + t_a v and
    v = q - p, so p enters z_a with the real weight 1 - t_a and v with -1,
    and q with t_a and +1; the gradient is twice the conj-derivative, and
    d sqrt(Q) = dQ / (2 sqrt(Q)).  With s = -r, L = sum H[i,j] v_i conj(v_j),
    u = sum v_i d_i r, N = |u|^2 and E = |v|^2, the metric form is
    Q = psi (L/s + N/s^2) + (1 - psi) E.  Times c = w / sqrt(Q) (0 where
    Q = 0), its derivative in conj(z) is A dbar r + B conj(u) H^T v and in
    conj(v) it is B u dbar r + C H^T v + D v, where (H^T v)_k = sum_i H[i,k] v_i
    and

        A = c (psi' (L/s + N/s^2 - E) + psi (L/s^2 + 2 N/s^3)),
        B = c psi / s^2,  C = c psi / s,  D = c (1 - psi).

    v is constant along the segment, so each gradient is a few sums over the
    abscissae of dbar r and H^T v with these weights.  The conj(z)
    derivative also has B u (dbar dbar r) conj(v) + C (d dbar dbar r) v
    conj(v), weighted like A; a third-order table whose polynomials are all
    zero (both, for a quadratic r) is neither evaluated nor contracted.  No
    product of two complex arrays takes a temporary as its second factor:
    numpy's complex product is not commutative in the last bit, and on a
    large array ``a * temporary`` may reuse the temporary and swap the
    factors, so a segment's values would depend on how many share the call.
    """
    m, n = v.shape
    tt, ww = t.reshape(-1), w.reshape(-1)
    rv, speeds = rv.reshape(m, -1), speeds.reshape(m, -1)
    g = g.reshape(m, -1, n)
    s = -rv
    x = (rv + 2.0 * dom.theta) / dom.theta
    psi = _smoothstep(x)
    dpsi = _smoothstep_slope(x) / dom.theta
    vc = np.conj(v)
    # H^T v one index at a time: einsum's generic loop is several times slower here
    H = H.reshape(m, -1, n, n)
    h_v = H[:, :, 0] * v[:, None, :1]
    for i in range(1, n):
        h_v += H[:, :, i] * v[:, None, i : i + 1]
    levi = np.real(np.einsum("mak,mk->ma", h_v, vc))
    u_bar = np.einsum("mak,mk->ma", g, vc)
    normal = u_bar.real**2 + u_bar.imag**2
    eucl = np.sum(v.real**2 + v.imag**2, axis=-1, keepdims=True)
    c = np.divide(ww, speeds, out=np.zeros_like(speeds), where=speeds > 0)
    coef_a = c * (dpsi * (levi / s + normal / s**2 - eucl) + psi * (levi / s**2 + 2.0 * normal / s**3))
    coef_b = c * psi / s**2
    coef_c = c * psi / s
    b_u = coef_b * np.conj(u_bar)
    b_ubar = coef_b * u_bar
    on_g = np.stack([(1.0 - tt) * coef_a - b_u, tt * coef_a + b_u], axis=1)
    on_h = np.stack([(1.0 - tt) * b_ubar - coef_c, tt * b_ubar + coef_c], axis=1)
    out = np.einsum("mca,mak->mck", on_g, g) + np.einsum("mca,mak->mck", on_h, h_v)
    d_v = np.sum(c * (1.0 - psi), axis=-1, keepdims=True) * v
    out[:, 0] -= d_v
    out[:, 1] += d_v
    third = []
    if not dom.vanishes(0, 2):
        g_v = np.einsum("majk,mj->mak", dom.derivatives(pts, 0, 2).reshape(m, -1, n, n), vc)
        third.append(g_v * b_u[..., None])
    if not dom.vanishes(1, 2):
        t_v = np.einsum("maijk,mi,mj->mak", dom.derivatives(pts, 1, 2).reshape(m, -1, n, n, n), v, vc)
        third.append(t_v * coef_c[..., None])
    if third:
        out += np.einsum("ca,mak->mck", np.stack([1.0 - tt, tt]), sum(third))
    return out


# -- distance estimation ------------------------------------------------------


@dataclass(frozen=True)
class DistanceBudget:
    """Optimizer budget for the distance upper bound: path nodes and descent iterations."""

    nodes: int = 64
    max_iters: int = 40

    def __post_init__(self):
        if self.nodes < 1 or self.max_iters < 1:
            raise MetricError(f"distance budget needs nodes >= 1 and max_iters >= 1, got {self}")


ORACLE_BUDGET = DistanceBudget(nodes=64, max_iters=60)
SCAN_BUDGET = DistanceBudget(nodes=12, max_iters=12)


def _resample_polyline(nodes: np.ndarray, k_out: int) -> np.ndarray:
    """Re-divide a polyline into k_out segments of equal chord length."""
    seg = np.linalg.norm(nodes[1:] - nodes[:-1], axis=-1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total == 0:
        return np.repeat(nodes[:1], k_out + 1, axis=0)
    targets = np.linspace(0.0, total, k_out + 1)
    out = np.empty((k_out + 1, nodes.shape[1]), dtype=complex)
    j = 0
    for i, t in enumerate(targets):
        while j < len(seg) - 1 and cum[j + 1] < t:
            j += 1
        denom = max(seg[j], 1e-300)
        lam = (t - cum[j]) / denom
        out[i] = nodes[j] + lam * (nodes[j + 1] - nodes[j])
    out[0], out[-1] = nodes[0], nodes[-1]
    return out


def _straight_seed(z: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, k + 1)[:, None]
    return (1 - t) * z[None, :] + t * w[None, :]


def _inward_point(dom: DomainSpec, z: np.ndarray, depth: float) -> np.ndarray:
    """The point at boundary distance ``depth`` on the inward normal from z.

    z itself when it already lies that deep or the walk cannot reach the depth.
    """
    if -dom.r_val(z) >= depth:
        return z
    try:
        return walk_to_depth(dom, z, depth)[0]
    except DomainError:
        return z


def _retreat_seed(dom: DomainSpec, z: np.ndarray, w: np.ndarray, k: int) -> np.ndarray | None:
    """Boundary-avoiding seed: retreat both ends inward, then connect."""
    dz, dw = -dom.r_val(z), -dom.r_val(w)
    gap2 = float(np.sum(np.abs(z - w) ** 2))
    depth = min(max(4.0 * max(dz, dw), 0.5 * gap2), dom.theta)
    if depth <= max(dz, dw):
        return None
    zi = _inward_point(dom, z, depth)
    wi = _inward_point(dom, w, depth)
    quarter = max(k // 4, 1)
    middle = k + 1 - 2 * quarter
    legs = [
        _straight_seed(z, zi, quarter)[:-1],
        _straight_seed(zi, wi, max(middle, 1)),
        _straight_seed(wi, w, quarter)[1:],
    ]
    nodes = np.concatenate(legs, axis=0)
    return _resample_polyline(nodes, k)


def _feasible(dom: DomainSpec, nodes: np.ndarray) -> bool:
    v = nodes[1:] - nodes[:-1]
    pts = nodes[:-1, None, :] + _GL_T[None, :, None] * v[:, None, :]
    allp = np.concatenate([pts.reshape(-1, nodes.shape[1]), nodes], axis=0)
    return bool(np.all(dom.r_val(allp) < 0))


_MEMORY = 6  # L-BFGS curvature pairs kept
_TRIALS = 12  # line-search trials per step: length 1, then halvings
_ARMIJO = 1e-4  # sufficient-decrease constant


def _lbfgs_directions(g: np.ndarray, S: np.ndarray, Y: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """-H g for each row of g by the two-loop recursion.

    Row i holds ``_MEMORY`` slots S[i, j], Y[i, j], rho[i, j] = 1/(s.y),
    oldest first and the newest last; an empty slot is all zeros and changes
    nothing.
    """
    q = g.copy()
    alphas = []
    for j in reversed(range(_MEMORY)):
        a = rho[:, j] * np.sum(S[:, j] * q, axis=-1)
        q -= a[:, None] * Y[:, j]
        alphas.append(a)
    s, y = S[:, -1], Y[:, -1]
    q *= (np.sum(s * y, axis=-1) / np.sum(y * y, axis=-1))[:, None]
    for j, a in zip(range(_MEMORY), reversed(alphas)):
        q += (a - rho[:, j] * np.sum(Y[:, j] * q, axis=-1))[:, None] * S[:, j]
    return -q


def _optimize_paths(dom: DomainSpec, nodes: np.ndarray, max_iters: int, stop_below: float = -np.inf):
    """L-BFGS on the real coordinates of the interior nodes of a stack of paths, in lockstep.

    ``nodes`` has shape (P, K + 1, n).  Every path keeps its own curvature
    memory, direction, step, counts and active flag, and takes the steps it
    would take alone.  Each round takes the lengths of the trials of all
    searching paths in one :func:`_path_lengths` pass, and then the gradients
    of only the accepted trials that take another step in one
    :func:`_path_gradients` pass over the arrays the length pass kept: a
    rejected trial, or the last step of a descent that runs out of
    ``max_iters``, computes no gradient.  The seeds' gradients come the same
    way, once their lengths are known.  Directions come from the two-loop
    recursion over the last ``_MEMORY`` curvature pairs; with no pairs held,
    the step is steepest descent of length 0.1 max|node| / |g|.  Each line
    search tries step 1, then halves, until the Armijo test passes, at most
    ``_TRIALS`` times; a trial whose path leaves the domain has infinite
    length and fails, which plays the role of the interior barrier.  A failed
    search with memory drops the memory and retries along steepest descent.

    Returns the nodes, their lengths, the iterations (the seed and each
    accepted step, at most ``max_iters``), whether each descent converged and
    the number of trial lengths its line searches computed.  A descent
    converged when its gradient fell below 1e-12 or a steepest-descent search
    failed; running out of ``max_iters`` is not convergence.  An accepted
    step lowers a path's length, so once any length is below ``stop_below``
    the path's final length will be too: the batch stops and returns None.
    """
    count, k1, n = nodes.shape
    lengths, kept = _path_lengths(dom, nodes)
    iterations = np.zeros(count, int)
    trials = np.zeros(count, int)
    converged = np.ones(count, bool)
    if np.any(lengths < stop_below):
        return None
    if k1 < 3:
        return nodes, lengths, iterations, converged, trials
    g = _path_gradients(dom, nodes, kept, np.arange(count)).reshape(count, -1).view(float)
    del kept  # before the first round's length pass builds its own
    nodes = nodes.copy()
    iterations[:] = 1
    S = np.zeros((count, _MEMORY, g.shape[1]))
    Y = np.zeros_like(S)
    rho = np.zeros((count, _MEMORY))
    held = np.zeros(count, bool)
    d = np.zeros_like(g)
    slope = np.zeros(count)
    step = np.ones(count)
    tries = np.zeros(count, int)
    active = np.ones(count, bool)
    fresh = active.copy()  # paths starting a line search this round
    while True:
        new = np.flatnonzero(fresh)
        fresh[:] = False
        gn = np.sqrt(np.sum(g[new] * g[new], axis=-1))
        active[new[gn < 1e-12]] = False
        new, gn = new[gn >= 1e-12], gn[gn >= 1e-12]
        lb, sd = new[held[new]], new[~held[new]]
        if len(lb):
            d[lb] = _lbfgs_directions(g[lb], S[lb], Y[lb], rho[lb])
        if len(sd):
            span = np.max(np.abs(nodes[sd, 1:-1]), axis=(1, 2))
            d[sd] = -(0.1 * np.maximum(span, 1e-3) / gn[~held[new]])[:, None] * g[sd]
        slope[new] = np.sum(g[new] * d[new], axis=-1)
        step[new] = 1.0
        tries[new] = 0

        live = np.flatnonzero(active)
        if len(live) == 0:
            return nodes, lengths, iterations, converged, trials
        x = nodes[live, 1:-1].reshape(len(live), -1).view(float)
        x_new = x + step[live, None] * d[live]
        trial = nodes[live]
        trial[:, 1:-1] = x_new.view(complex).reshape(len(live), k1 - 2, n)
        val, kept = _path_lengths(dom, trial)
        trials[live] += 1
        ok = val < lengths[live] + _ARMIJO * step[live] * slope[live]
        if np.any(val[ok] < stop_below):
            return None

        acc = live[ok]
        last = iterations[acc] == max_iters
        nodes[acc] = trial[ok]
        lengths[acc] = val[ok]
        converged[acc[last]] = False
        active[acc[last]] = False
        go = ~last
        acc = acc[go]
        iterations[acc] += 1
        s_new = (x_new[ok] - x[ok])[go]
        g_new = _path_gradients(dom, trial, kept, np.flatnonzero(ok)[go]).reshape(len(acc), (k1 - 2) * n).view(float)
        del kept  # before the next round's length pass builds its own
        y_new = g_new - g[acc]
        sy = np.sum(s_new * y_new, axis=-1)
        keep = sy > 0  # keep H positive definite, so every direction descends
        upd = acc[keep]
        S[upd] = np.concatenate([S[upd, 1:], s_new[keep, None]], axis=1)
        Y[upd] = np.concatenate([Y[upd, 1:], y_new[keep, None]], axis=1)
        rho[upd] = np.concatenate([rho[upd, 1:], (1.0 / sy[keep])[:, None]], axis=1)
        held[upd] = True
        g[acc] = g_new
        fresh[acc] = True

        rej = live[~ok]
        step[rej] *= 0.5
        tries[rej] += 1
        failed = rej[tries[rej] == _TRIALS]
        retry, done = failed[held[failed]], failed[~held[failed]]
        S[retry] = Y[retry] = 0.0
        rho[retry] = 0.0
        held[retry] = False
        fresh[retry] = True
        active[done] = False


def _distances(dom: DomainSpec, Z: np.ndarray, W: np.ndarray, budget: DistanceBudget,
               stop_below: float = -np.inf) -> dict | None:
    """:func:`distance` for each row pair (Z[i], W[i]), all descents of a stage in one batch.

    Returns the arrays ``d_upper``, ``converged``, ``iterations`` and
    ``trials``, equal bit for bit to one-pair calls, or None when a path of
    the last stage falls below ``stop_below`` (see :func:`_optimize_paths`).
    """
    Z = np.asarray(Z, dtype=complex)
    W = np.asarray(W, dtype=complex)
    if np.any(dom.r_val(Z) >= 0) or np.any(dom.r_val(W) >= 0):
        raise MetricError("distance endpoints must be interior")
    k = budget.nodes
    k_opt = min(k, 16)
    same = np.all(Z == W, axis=-1)
    seeds, owner = [], []
    for i, (z, w) in enumerate(zip(Z, W)):
        if same[i]:
            continue
        key = tuple(np.concatenate([z.view(float), w.view(float)]))
        key_rev = tuple(np.concatenate([w.view(float), z.view(float)]))
        a, b = (w, z) if key_rev < key else (z, w)
        for nodes in (_straight_seed(a, b, k), _retreat_seed(dom, a, b, k)):
            if nodes is not None and _feasible(dom, nodes):
                seeds.append(_resample_polyline(nodes, k_opt) if k_opt < k else nodes)
                owner.append(i)
    best = np.where(same, 0.0, np.inf)
    converged = same.copy()
    iterations = np.zeros(len(Z), int)
    trials = np.zeros(len(Z), int)
    if seeds:
        # optimize the shape on a coarse polyline, then refine the node count
        # for quadrature accuracy and polish
        nodes, its, tries = np.asarray(seeds), 0, 0
        if k_opt < k:
            nodes, _, its, _, tries = _optimize_paths(dom, nodes, budget.max_iters)
            nodes = np.asarray([_resample_polyline(x, k) for x in nodes])
            out = _optimize_paths(dom, nodes, max(budget.max_iters // 4, 2), stop_below)
        else:
            out = _optimize_paths(dom, nodes, budget.max_iters, stop_below)
        if out is None:
            return None
        _, vals, its_last, done, tries_last = out
        its, tries = its + its_last, tries + tries_last
        for j, i in enumerate(owner):  # each pair's seeds in order: straight, then retreat
            iterations[i] += its[j]
            trials[i] += tries[j]
            if vals[j] < best[i]:
                best[i], converged[i] = vals[j], done[j]
    if np.any(np.isinf(best)):
        raise MetricError("no feasible path seed; endpoints may hug a nonconvex boundary")
    return {"d_upper": best, "converged": converged, "iterations": iterations, "trials": trials}


def distance(dom: DomainSpec, z: np.ndarray, w: np.ndarray, budget: DistanceBudget = SCAN_BUDGET) -> dict:
    """Upper bound on the path-infimum distance.

    Multi-start local optimization from a straight seed and an
    inward-retreat seed; a seed that leaves the domain, or an inward-retreat
    seed that does not retreat, is skipped.  The pair is canonically ordered
    before optimizing, so the estimate is exactly symmetric in (z, w).
    ``converged`` reports whether the last descent on the winning seed
    converged (see :func:`_optimize_paths`); ``iterations`` counts the
    iterates and ``trials`` the line-search trial lengths over all seeds.
    This is the batch of one of :func:`_distances`.
    """
    z = np.asarray(z, dtype=complex).reshape(1, -1)
    w = np.asarray(w, dtype=complex).reshape(1, -1)
    return {key: val[0].item() for key, val in _distances(dom, z, w, budget).items()}


def straight_chord_upper(dom: DomainSpec, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Metric length of the straight chord z->w, by the segment quadrature of path lengths.

    z and w broadcast against each other, shape (..., n); the result has the
    leading shape.  The chord is +inf where an endpoint is not strictly
    inside the domain (r >= 0, caught before any quadrature) or an abscissa
    leaves it.  An infinite value certifies nothing about the true distance,
    so callers treat it as "no upper bound available".
    """
    z = np.asarray(z, complex)
    w = np.asarray(w, complex)
    shape = np.broadcast_shapes(z.shape, w.shape)
    p = np.broadcast_to(z, shape).reshape(-1, shape[-1])
    q = np.broadcast_to(w, shape).reshape(-1, shape[-1])
    out = np.full(len(p), np.inf)
    for rows, _, wts, pts, rv in _quadrature(dom, p, q):
        xi = np.broadcast_to((q[rows] - p[rows])[:, None, None, :], pts.shape)
        out[rows] = np.sum(np.sqrt(np.maximum(metric_form(dom, pts, xi, rv=rv), 0.0)) * wts, axis=(-1, -2))
    return out.reshape(shape[:-1])


class DistanceEstimator:
    """Memoizing facade: min(chord, optimizer) at one budget.

    The value is an exact function of the unordered pair: both bounds are
    computed with the endpoints in key order, and a batch of pairs gives
    each pair the bits it gets alone, so est(z, w) == est(w, z) bit for bit
    and sharing one estimator across callers cannot change what any of them
    sees.  Every call solves all its memo misses in one batch.
    """

    def __init__(self, dom: DomainSpec, budget: DistanceBudget = SCAN_BUDGET):
        self.dom = dom
        self.budget = budget
        self._memo: dict[bytes, float] = {}

    def __call__(self, z: np.ndarray, w: np.ndarray) -> float | np.ndarray:
        """The estimate for the pair (z, w), or for each row of w when w has shape (m, n)."""
        z = np.asarray(z, complex).reshape(-1)
        w = np.asarray(w, complex)
        keys, misses = self._keys(z, w.reshape(-1, len(z)))
        self._solve(misses)
        vals = np.array([self._memo[key] for key in keys])
        return vals if w.ndim == 2 else float(vals[0])

    def all_at_least(self, z: np.ndarray, W: np.ndarray, t: float) -> bool:
        """Whether est(z, w) >= t for every row w of W.

        The same answer as asking each pair, but the batch stops as soon as a
        chord or an optimizer path is shorter than t, since the estimate is
        then shorter too.  Only the pairs of a finished batch are memoized.
        """
        z = np.asarray(z, complex).reshape(-1)
        keys, misses = self._keys(z, np.asarray(W, complex).reshape(-1, len(z)))
        if any(self._memo[key] < t for key in keys if key not in misses):
            return False
        return self._solve(misses, t) and all(self._memo[key] >= t for key in keys)

    def _keys(self, z: np.ndarray, W: np.ndarray) -> tuple[list, dict]:
        """The memo key of each pair (z, W[i]), and the missed pairs, endpoints in key order, by key."""
        ka = z.tobytes()
        keys, misses = [], {}
        for w in W:
            kb = w.tobytes()
            key, pair = (ka + kb, (z, w)) if ka <= kb else (kb + ka, (w, z))
            keys.append(key)
            if key not in self._memo:
                misses[key] = pair
        return keys, misses

    def _solve(self, misses: dict, stop_below: float = -np.inf) -> bool:
        """Memoize the missed pairs' estimates from one batch; False when it stops below ``stop_below``."""
        if not misses:
            return True
        A, B = (np.asarray(ends) for ends in zip(*misses.values()))
        chord = straight_chord_upper(self.dom, A, B)
        if np.any(chord < stop_below):
            return False
        opt = _distances(self.dom, A, B, self.budget, stop_below)
        if opt is None:
            return False
        for key, c, o in zip(misses, chord.tolist(), opt["d_upper"].tolist()):
            self._memo[key] = min(c, o)
        return True


# -- regions ------------------------------------------------------------------


@dataclass(frozen=True)
class Polydisc:
    """Anisotropic polydisc around ``center``: tangential radius a across the
    axis direction, radius b along it."""

    center: np.ndarray
    axis: np.ndarray
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, complex).reshape(-1))
        object.__setattr__(self, "axis", np.asarray(self.axis, complex).reshape(-1))
        if np.linalg.norm(self.axis) == 0:
            raise MetricError("polydisc axis must be nonzero")

    def decompose(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """w - center = u + v with u orthogonal to the axis, v parallel."""
        x = np.asarray(w, complex) - self.center
        e = self.axis / np.linalg.norm(self.axis)
        coef = np.einsum("...i,i->...", x, np.conj(e))
        v = coef[..., None] * e
        u = x - v
        return u, v

    def contains(self, w: np.ndarray) -> np.ndarray:
        u, v = self.decompose(w)
        return (np.linalg.norm(u, axis=-1) < self.a) & (np.linalg.norm(v, axis=-1) < self.b)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform samples of the polydisc (product of two complex balls)."""
        n = len(self.center)
        e = self.axis / np.linalg.norm(self.axis)
        basis = complex_tangent_basis(e)
        # tangential: uniform in the (n-1)-complex-dim ball of radius a
        if n > 1:
            t = _ball_uniform(count, n - 1, rng) * self.a
            tang = t @ basis
        else:
            tang = np.zeros((count, 0), complex)
        s = _ball_uniform(count, 1, rng)[:, 0] * self.b
        pts = self.center[None, :] + s[:, None] * e[None, :]
        if n > 1:
            pts = pts + tang
        return pts


def _ball_uniform(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples in the complex unit ball of C^dim."""
    g = rng.standard_normal((count, 2 * dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radius = rng.uniform(0, 1, count) ** (1.0 / (2 * dim))
    pts = g * radius[:, None]
    return pts[:, :dim] + 1j * pts[:, dim:]


def mu_volume(dom: DomainSpec, membership, superset_sampler, samples: int = 20000, seed: int = 0) -> dict:
    """Monte-Carlo mass of a region for the measure dv/(-r)^(n+1).

    ``superset_sampler(count, rng) -> (points, density)`` draws from any
    region enclosing the target; ``membership(points) -> bool mask`` filters.
    Stratification by dyadic shells of -r happens in the caller's sampler
    where it matters; here we importance-correct by the sampler density.
    """
    rng = np.random.default_rng(seed)
    pts, density = superset_sampler(samples, rng)
    inside = membership(pts) & (dom.r_val(pts) < 0)
    vals = np.zeros(len(pts))
    if np.any(inside):
        rv = dom.r_val(pts[inside])
        vals[inside] = (-rv) ** (-(dom.n + 1)) / density[inside]
    est = float(np.mean(vals))
    err = float(np.std(vals) / np.sqrt(len(vals)))
    return {"estimate": est, "stderr": err}


def uniform_box_sampler(dom: DomainSpec):
    box = dom.bounding_box
    vol = float(np.prod(box[:, 1] - box[:, 0]))

    def draw(count: int, rng: np.random.Generator):
        return box_uniform(dom, count, rng), np.full(count, 1.0 / vol)

    return draw


def ball_superset_sampler(dom: DomainSpec, z: np.ndarray, a: float):
    """Sampler for a polydisc superset of the metric ball D(z, a).

    Uses the tangential sqrt(-r) / normal (-r) scaling with a generous
    engulfing factor of 3; density is uniform on the polydisc.
    """
    z = np.asarray(z, complex).reshape(-1)
    rz = -float(dom.r_val(z))
    axis = dom.dbar_r(z)
    amax = max(a, 0.3)
    pd = Polydisc(z, axis, 3.0 * (1 + amax) * np.sqrt(rz), 3.0 * (1 + amax) * rz)
    vol = _polydisc_volume(pd, dom.n)

    def draw(count: int, rng: np.random.Generator):
        pts = pd.sample(count, rng)
        return pts, np.full(count, 1.0 / vol)

    return draw


def _polydisc_volume(pd: Polydisc, n: int) -> float:
    """Lebesgue volume of the polydisc in C^n."""
    tang = pi ** (n - 1) / factorial(n - 1) * pd.a ** (2 * (n - 1))
    return tang * pi * pd.b**2


def metric_ball_volume(dom: DomainSpec, z, a: float, samples: int = 20000, seed: int = 0) -> dict:
    """mu(D(z, a)) with membership decided by the chord bound.

    A point is in when its straight chord from z is shorter than a; the chord
    to a point outside the domain is +inf, so such a point is out.
    """
    z = np.asarray(z, complex).reshape(-1)
    return mu_volume(dom, lambda pts: straight_chord_upper(dom, z, pts) < a, ball_superset_sampler(dom, z, a),
                     samples=samples, seed=seed)
