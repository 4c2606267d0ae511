"""Boundary-weighted Finsler metric, path lengths, and a distance upper bound.

The metric tensor blends d dbar log(1/-r) near the boundary into the
Euclidean metric deep inside, through a quintic smoothstep in r.  Distances
are estimated from above by optimizing piecewise-linear paths with L-BFGS
on the exact gradient of their Gauss-Legendre length; every consumer in this
library treats the optimizer output as the working metric, so inequalities
checked downstream are stated in the direction that stays valid under
over-estimation.  The one cheap upper bound is the length of the straight
chord (:func:`straight_chord_upper`).
"""

from __future__ import annotations

from dataclasses import dataclass
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


def metric_form(dom: DomainSpec, z: np.ndarray, xi: np.ndarray, rv: np.ndarray | None = None) -> np.ndarray:
    """Quadratic form sum B[i,j](z) xi_i conj(xi_j) of the metric, vectorized, no matrices.

    For -r(z) <= theta, B is exactly the complex Hessian of log(1/-r):
    B = A/(-r) + (dbar r)(dbar r)^H / r^2.  Used on every quadrature
    abscissa; ``rv`` is r(z) when the caller already has it.
    """
    z = np.asarray(z, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    if rv is None:
        rv = dom.r_val(z)
    if np.any(rv >= 0):
        raise MetricError("quadrature abscissa escaped the domain")
    psi = psi_blend(dom, rv)
    H = dom.hessian(z)
    g = dom.dbar_r(z)
    levi = levi_form(H, xi)
    normal = np.abs(np.einsum("...i,...i->...", xi, np.conj(g))) ** 2
    eucl = np.sum(np.abs(xi) ** 2, axis=-1)
    return psi * (levi / (-rv) + normal / rv**2) + (1.0 - psi) * eucl


def _form_gradients(dom: DomainSpec, z: np.ndarray, xi: np.ndarray, rv: np.ndarray):
    """:func:`metric_form` Q(z, xi) and its Wirtinger derivatives dQ/dconj(z), dQ/dconj(xi).

    With s = -r, L = sum H[i,j] xi_i conj(xi_j), u = sum xi_i d_i r, N = |u|^2 and
    E = |xi|^2, Q = psi(r) (L/s + N/s^2) + (1 - psi(r)) E.  Differentiating in
    conj(z_k) brings in dbar_k r, d_i dbar_j dbar_k r (through L) and
    dbar_i dbar_k r (through conj(u)); differentiating in conj(xi_k) needs only
    the Hessian and dbar r.
    """
    # scalars per point keep a trailing axis of length 1 to broadcast against vectors
    rv = rv[..., None]
    s = -rv
    x = (rv + 2.0 * dom.theta) / dom.theta
    psi = _smoothstep(x)
    dpsi = _smoothstep_slope(x) / dom.theta
    g = dom.dbar_r(z)
    H = dom.hessian(z)
    G = dom.derivatives(z, 0, 2)
    T = dom.derivatives(z, 1, 2)
    xic = np.conj(xi)
    h_xi = np.einsum("...ik,...i->...k", H, xi)
    levi = np.real(np.sum(h_xi * xic, axis=-1, keepdims=True))
    u = np.sum(xi * np.conj(g), axis=-1, keepdims=True)
    normal = np.abs(u) ** 2
    eucl = np.sum(np.abs(xi) ** 2, axis=-1, keepdims=True)
    near = levi / s + normal / s**2
    form = (psi * near + (1.0 - psi) * eucl)[..., 0]
    d_levi = np.einsum("...ijk,...i,...j->...k", T, xi, xic)
    d_normal = np.conj(u) * h_xi + u * np.einsum("...jk,...j->...k", G, xic)
    q_z = dpsi * g * (near - eucl) + psi * (
        d_levi / s + d_normal / s**2 + g * (levi / s**2 + 2.0 * normal / s**3)
    )
    q_xi = psi * (h_xi / s + u * g / s**2) + (1.0 - psi) * xi
    return form, q_z, q_xi


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
    """Refinement level of each segment p->q (rows), 0 where an endpoint is outside.

    Segments are bucketed by the dyadic range of -r along them, so only
    boundary-hugging segments pay for deep refinement.
    """
    depth = -dom.r_val(np.stack([p, q, 0.5 * (p + q)]))
    escaped = np.any(depth[:2] < 0, axis=0)
    dp, dq, mid = np.maximum(depth, 1e-300)
    hi = np.maximum(mid, np.maximum(dp, dq))
    lo = np.minimum(dp, dq)
    lev = np.clip(np.ceil(np.log2(hi / lo)) + 2, 2, 48)
    return np.where(escaped, 0, np.clip((np.ceil(lev / 6) * 6).astype(int), 2, 48))


def _segment_lengths(dom: DomainSpec, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quadrature lengths of straight segments p->q, vectorized over batches.

    Escaped segments (an endpoint or any abscissa outside the domain) come
    back as +inf; an outside endpoint is caught before any quadrature.
    """
    p = np.asarray(p, complex)
    q = np.asarray(q, complex)
    shape = np.broadcast_shapes(p.shape, q.shape)
    p = np.broadcast_to(p, shape).reshape(-1, shape[-1])
    q = np.broadcast_to(q, shape).reshape(-1, shape[-1])
    bucket = _segment_buckets(dom, p, q)
    out = np.full(len(p), np.inf)
    for b in sorted(set(bucket[bucket > 0].tolist())):
        sel = bucket == b
        out[sel] = _segment_lengths_fixed(dom, p[sel], q[sel], b)
    return out.reshape(shape[:-1])


def _abscissae(dom: DomainSpec, p: np.ndarray, q: np.ndarray, level: int):
    """Gauss-Legendre rule on the dyadic pieces of [0, 1] at ``level``, placed on p->q.

    Returns the parameters t and weights w, shape (pieces, 4), the points
    (segments, pieces, 4, n), r at the points, and the mask of segments whose
    abscissae all lie inside the domain.
    """
    brk = _refinement_breaks(level)
    widths = brk[1:] - brk[:-1]
    t = brk[:-1, None] + widths[:, None] * _GL_T[None, :]
    w = widths[:, None] * _GL_W[None, :]
    pts = p[:, None, None, :] + t[None, :, :, None] * (q - p)[:, None, None, :]
    rv = dom.r_val(pts)
    return t, w, pts, rv, np.all(rv < 0, axis=(-1, -2))


def _segment_lengths_fixed(dom: DomainSpec, p: np.ndarray, q: np.ndarray, level: int) -> np.ndarray:
    _, w, pts, rv, inside = _abscissae(dom, p, q, level)
    out = np.full(len(p), np.inf)
    if np.any(inside):
        pts = pts[inside]
        xi = np.broadcast_to((q - p)[inside][:, None, None, :], pts.shape)
        speeds2 = metric_form(dom, pts, xi, rv=rv[inside])
        speeds = np.sqrt(np.maximum(speeds2, 0.0))
        out[inside] = np.sum(speeds * w, axis=(-1, -2))
    return out


def _polyline_length(dom: DomainSpec, nodes: np.ndarray) -> float:
    """Quadrature length of the polyline through ``nodes``; +inf once any abscissa escapes the domain."""
    if np.all(np.abs(nodes[1:] - nodes[:-1]) == 0):
        return 0.0
    return float(np.sum(_segment_lengths(dom, nodes[:-1], nodes[1:])))


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


def _length_gradient(dom: DomainSpec, nodes: np.ndarray) -> np.ndarray:
    """Exact gradient of the quadrature length of a polyline in its interior nodes.

    Returns dL/dRe + i dL/dIm = 2 dL/dconj(node) for each interior node,
    shape (K-1, n).  Each segment's length is sum_a w_a sqrt(Q(z_a, v)) with
    z_a = p + t_a v and v = q - p, so p enters z_a with the real weight
    1 - t_a and v with -1, and q with t_a and +1.  The refinement buckets are
    held at the current nodes; a segment with any abscissa outside the domain
    contributes nothing.
    """
    p, q = nodes[:-1], nodes[1:]
    grad_p = np.zeros_like(p)
    grad_q = np.zeros_like(q)
    bucket = _segment_buckets(dom, p, q)
    for b in sorted(set(bucket[bucket > 0].tolist())):
        sel = np.flatnonzero(bucket == b)
        t, w, pts, rv, inside = _abscissae(dom, p[sel], q[sel], b)
        sel = sel[inside]
        if len(sel) == 0:
            continue
        pts = pts[inside]
        xi = np.broadcast_to((q - p)[sel][:, None, None, :], pts.shape)
        speeds2, d_z, d_xi = _form_gradients(dom, pts, xi, rv[inside])
        # d sqrt(Q) = dQ / (2 sqrt(Q)), and the gradient is twice the conj-derivative
        speeds = np.sqrt(np.maximum(speeds2, 0.0))
        c = np.divide(w, speeds, out=np.zeros_like(speeds), where=speeds > 0)[..., None]
        grad_p[sel] = np.sum(c * ((1.0 - t)[..., None] * d_z - d_xi), axis=(1, 2))
        grad_q[sel] = np.sum(c * (t[..., None] * d_z + d_xi), axis=(1, 2))
    return grad_q[:-1] + grad_p[1:]


_MEMORY = 6  # L-BFGS curvature pairs kept
_TRIALS = 12  # line-search trials per step: length 1, then halvings
_ARMIJO = 1e-4  # sufficient-decrease constant


def _lbfgs_direction(g: np.ndarray, memory: list) -> np.ndarray:
    """-H g by the two-loop recursion over the (s, y, 1/(s.y)) pairs, oldest first."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * np.sum(s * q)
        q -= a * y
        alphas.append(a)
    s, y, _ = memory[-1]
    q *= np.sum(s * y) / np.sum(y * y)
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        q += (a - rho * np.sum(y * q)) * s
    return -q


def _optimize_nodes(dom: DomainSpec, nodes: np.ndarray, max_iters: int) -> tuple[np.ndarray, float, int, bool, int]:
    """L-BFGS on the real coordinates of the interior nodes.

    The objective is the quadrature length and its gradient is exact
    (:func:`_length_gradient`).  Directions come from the two-loop recursion
    over the last ``_MEMORY`` curvature pairs; with no pairs held, the step is
    steepest descent of length 0.1 max|node| / |g|.  Each line search tries
    step 1, then halves, until the Armijo test passes, at most ``_TRIALS``
    times; a trial whose path leaves the domain has infinite length and fails,
    which plays the role of the interior barrier.  A failed search with memory
    drops the memory and retries along steepest descent.

    Returns the nodes, their length, the number of gradient evaluations (at
    most ``max_iters``), whether the descent converged and the number of
    trial lengths the line searches computed.  It converged when the gradient
    fell below 1e-12 or a steepest-descent search failed; running out of
    ``max_iters`` is not convergence.
    """
    length = _polyline_length(dom, nodes)
    if len(nodes) < 3:
        return nodes, length, 0, True, 0
    x = nodes[1:-1].view(float)
    g = _length_gradient(dom, nodes).view(float)
    iterations, trials = 1, 0
    memory: list = []
    while True:
        gn = float(np.sqrt(np.sum(g * g)))
        if gn < 1e-12:
            return nodes, length, iterations, True, trials
        if memory:
            d = _lbfgs_direction(g, memory)
        else:
            d = -(0.1 * max(np.max(np.abs(nodes[1:-1])), 1e-3) / gn) * g
        slope = float(np.sum(g * d))
        step = 1.0
        for _ in range(_TRIALS):
            x_new = x + step * d
            trial = nodes.copy()
            trial[1:-1] = x_new.view(complex)
            val = _polyline_length(dom, trial)
            trials += 1
            if val < length + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            if memory:
                memory.clear()
                continue
            return nodes, length, iterations, True, trials
        if iterations == max_iters:
            return trial, val, iterations, False, trials
        g_new = _length_gradient(dom, trial).view(float)
        iterations += 1
        s, y = x_new - x, g_new - g
        sy = float(np.sum(s * y))
        if sy > 0:  # keep H positive definite, so every direction descends
            memory = (memory + [(s, y, 1.0 / sy)])[-_MEMORY:]
        nodes, x, g, length = trial, x_new, g_new, val


def distance(dom: DomainSpec, z: np.ndarray, w: np.ndarray, budget: DistanceBudget = SCAN_BUDGET) -> dict:
    """Upper bound on the path-infimum distance.

    Multi-start local optimization from a straight seed and an
    inward-retreat seed; a seed that leaves the domain, or an inward-retreat
    seed that does not retreat, is skipped.  The pair is canonically ordered
    before optimizing, so the estimate is exactly symmetric in (z, w).
    ``converged`` reports whether the last descent on the winning seed
    converged (see :func:`_optimize_nodes`); ``iterations`` counts the
    gradient evaluations and ``trials`` the line-search trial lengths over
    all seeds.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    if dom.r_val(z) >= 0 or dom.r_val(w) >= 0:
        raise MetricError("distance endpoints must be interior")
    if np.array_equal(z, w):
        return {"d_upper": 0.0, "converged": True, "iterations": 0, "trials": 0}

    key = tuple(np.concatenate([z.view(float), w.view(float)]))
    key_rev = tuple(np.concatenate([w.view(float), z.view(float)]))
    a, b = (w, z) if key_rev < key else (z, w)

    k = budget.nodes
    best_len = np.inf
    converged = False
    iterations = trials = 0
    k_opt = min(k, 16)
    for seed_nodes in (_straight_seed(a, b, k), _retreat_seed(dom, a, b, k)):
        if seed_nodes is None or not _feasible(dom, seed_nodes):
            continue
        # optimize the shape on a coarse polyline, then refine the node count
        # for quadrature accuracy and polish
        coarse = _resample_polyline(seed_nodes, k_opt) if k_opt < k else seed_nodes
        nodes, val, its, done, tries = _optimize_nodes(dom, coarse, budget.max_iters)
        iterations += its
        trials += tries
        if k_opt < k:
            polish = max(budget.max_iters // 4, 2)
            nodes, val, its, done, tries = _optimize_nodes(dom, _resample_polyline(nodes, k), polish)
            iterations += its
            trials += tries
        if val < best_len:
            best_len, converged = val, done
    if not np.isfinite(best_len):
        raise MetricError("no feasible path seed; endpoints may hug a nonconvex boundary")
    return {"d_upper": float(best_len), "converged": converged, "iterations": iterations, "trials": trials}


def straight_chord_upper(dom: DomainSpec, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Vectorized straight-chord length; +inf where the chord exits the domain.

    z: (n,) or (m, n); w: (m, n).  An infinite value certifies nothing about
    the true distance, so callers treat it as "no upper bound available".
    """
    z = np.asarray(z, complex)
    w = np.asarray(w, complex)
    if z.ndim == 1:
        z = np.broadcast_to(z, w.shape)
    ok = (dom.r_val(z) < 0) & (dom.r_val(w) < 0)
    out = np.full(w.shape[:-1], np.inf)
    if np.any(ok):
        out[ok] = _segment_lengths(dom, z[ok], w[ok])
    return out


class DistanceEstimator:
    """Memoizing facade: min(chord, optimizer) at one budget.

    The value is an exact function of the unordered pair: both bounds are
    computed with the endpoints in key order, so est(z, w) == est(w, z)
    bit for bit, and sharing one estimator across callers cannot change
    what any of them sees.
    """

    def __init__(self, dom: DomainSpec, budget: DistanceBudget = SCAN_BUDGET):
        self.dom = dom
        self.budget = budget
        self._memo: dict[bytes, float] = {}

    def __call__(self, z: np.ndarray, w: np.ndarray) -> float:
        z = np.asarray(z, complex).reshape(-1)
        w = np.asarray(w, complex).reshape(-1)
        ka = z.tobytes()
        kb = w.tobytes()
        if kb < ka:
            z, w, ka, kb = w, z, kb, ka
        key = ka + kb
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        chord = float(straight_chord_upper(self.dom, z, w))
        opt = distance(self.dom, z, w, self.budget)["d_upper"]
        val = min(chord, opt)
        self._memo[key] = val
        return val


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
