"""Bounded strongly pseudo-convex domains given by polynomial defining functions.

A domain is the sublevel set {r < 0} of a real polynomial r in (z, conj(z)).
The class carries exact first and second derivative tables of r, the Levi
positivity constant c, the near-boundary threshold theta, and a real
bounding box for rejection sampling.  All geometric quantities used by the
rest of the library (gradient, complex Hessian, normal direction, boundary
projection, region samplers) come from here.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._poly import HermPoly, RealPoly, unit_vector

BOUNDARY_TOL_REL = 1e-10
# rows per block of the surface sampler's screened draw: 512 KB at n = 2,
# so a block stays in cache through its screen
_SCREEN_ROWS = 16384
# the surface sampler draws at least this many batches before it judges its
# yield, and gives up once that yield projects past the budget of batches
_SAMPLER_PATIENCE = 600
_SAMPLER_BUDGET = 3000


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class DomainSpec:
    """Strongly pseudo-convex domain {r < 0} with exact polynomial geometry.

    Attributes
    ----------
    n : complex dimension
    r : defining polynomial, real valued on C^n
    bounding_box : (2n, 2) array of [lo, hi] per real coordinate; contains
        the closure of the domain
    c : Levi form positivity constant on the boundary
    theta : near-boundary threshold; the Hessian stays >= c/2 and the
        gradient stays nonzero on {-r < 3*theta}
    tag : "ball", "ellipsoid" or "custom"
    """

    n: int
    r: HermPoly
    bounding_box: np.ndarray
    c: float
    theta: float
    tag: str = "custom"
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.r.is_real():
            raise DomainError("defining polynomial is not real valued")
        object.__setattr__(self, "bounding_box", np.asarray(self.bounding_box, dtype=float))
        if self.bounding_box.shape != (2 * self.n, 2):
            raise DomainError("bounding_box must have shape (2n, 2)")

    def memo(self, key, build):
        """The per-domain cache: the value under ``key``, built by ``build()`` on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- derivative tables ------------------------------------------------

    def _grad_polys(self) -> list[HermPoly]:
        return self.memo("dbar", lambda: [self.r.dbar(i) for i in range(self.n)])

    def _hess_polys(self) -> list[list[HermPoly]]:
        # hess[i][j] = d_i dbar_j r
        return self.memo("hess", lambda: [[d.d(i) for d in self._grad_polys()] for i in range(self.n)])

    def _holo_hess_polys(self) -> list[list[HermPoly]]:
        # hol[i][j] = d_i d_j r  (used by the gauge Taylor form)
        def build():
            ds = [self.r.d(i) for i in range(self.n)]
            return [[ds[j].d(i) for j in range(self.n)] for i in range(self.n)]

        return self.memo("holhess", build)

    # -- pointwise geometry ------------------------------------------------

    def r_val(self, z: np.ndarray) -> np.ndarray:
        return np.real(self.r(z))

    def dbar_r(self, z: np.ndarray) -> np.ndarray:
        """(dbar_1 r, ..., dbar_n r) at z; shape (..., n)."""
        z = np.asarray(z, dtype=complex)
        out = np.empty(z.shape, dtype=complex)
        for i, p in enumerate(self._grad_polys()):
            out[..., i] = p(z)
        return out

    def hessian(self, z: np.ndarray) -> np.ndarray:
        """Complex Hessian H with H[..., i, j] = (d_i dbar_j r)(z).

        The Levi quadratic form sum_{i,j} H[i,j] xi_i conj(xi_j) is evaluated
        by :func:`levi_form`.
        """
        z = np.asarray(z, dtype=complex)
        H = np.empty(z.shape[:-1] + (self.n, self.n), dtype=complex)
        polys = self._hess_polys()
        for i in range(self.n):
            for j in range(self.n):
                H[..., i, j] = polys[i][j](z)
        return H

    def grad_norm(self, z: np.ndarray) -> np.ndarray:
        """Euclidean norm of the real gradient of r; equals 2*|dbar r|."""
        return 2.0 * np.linalg.norm(self.dbar_r(z), axis=-1)

    def contains(self, z: np.ndarray) -> np.ndarray:
        return self.r_val(z) < 0

    @property
    def boundary_tol(self) -> float:
        return BOUNDARY_TOL_REL * self.box_diameter()

    def box_diameter(self) -> float:
        widths = self.bounding_box[:, 1] - self.bounding_box[:, 0]
        return float(np.linalg.norm(widths))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "n": self.n,
            "r": self.r.to_json_terms(),
            "bounding_box": self.bounding_box.tolist(),
            "theta": self.theta,
            "c": self.c,
            "tag": self.tag,
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "DomainSpec":
        doc = json.loads(text)
        return DomainSpec(
            n=int(doc["n"]),
            r=HermPoly.from_json_terms(int(doc["n"]), doc["r"]),
            bounding_box=np.asarray(doc["bounding_box"], dtype=float),
            c=float(doc["c"]),
            theta=float(doc["theta"]),
            tag=str(doc["tag"]),
        )


def levi_form(H: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """sum_{i,j} H[i,j] xi_i conj(xi_j), real for Hermitian-symmetric H."""
    return np.real(np.einsum("...ij,...i,...j->...", H, xi, np.conj(xi)))


def complex_tangent_basis(u: np.ndarray) -> np.ndarray:
    """Rows: orthonormal basis of the complex orthogonal complement of the unit vector u."""
    n = len(u)
    q, _ = np.linalg.qr(np.eye(n, dtype=complex) - np.outer(u, np.conj(u)))
    cols = [q[:, i] for i in range(n) if abs(np.vdot(u, q[:, i])) < 1e-8]
    return np.array(cols[: n - 1])


def box_uniform(dom: DomainSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform points of the bounding box, from one rng.uniform draw of shape (count, 2n)."""
    box = dom.bounding_box
    raw = rng.uniform(box[:, 0], box[:, 1], size=(count, 2 * dom.n))
    return raw[:, : dom.n] + 1j * raw[:, dom.n :]


# -- constructors ------------------------------------------------------------


def unit_ball(n: int, theta: float = 0.25) -> DomainSpec:
    """{|z| < 1} with r = |z|^2 - 1."""
    r = HermPoly.from_terms(
        n, [(unit_vector(n, i), unit_vector(n, i), 1.0) for i in range(n)] + [((0,) * n, (0,) * n, -1.0)]
    )
    box = np.array([[-1.05, 1.05]] * (2 * n))
    return DomainSpec(n=n, r=r, bounding_box=box, c=2.0, theta=theta, tag="ball")


def ellipsoid(weights, theta: float = 0.125) -> DomainSpec:
    """{sum a_i |z_i|^2 < 1} for positive weights a_i."""
    weights = [float(w) for w in weights]
    if any(w <= 0 for w in weights):
        raise DomainError("ellipsoid weights must be positive")
    n = len(weights)
    terms = [(unit_vector(n, i), unit_vector(n, i), w) for i, w in enumerate(weights)] + [
        ((0,) * n, (0,) * n, -1.0)
    ]
    r = HermPoly.from_terms(n, terms)
    half = [1.05 / np.sqrt(w) for w in weights]
    box = np.array([[-h, h] for h in half for _ in (0, 1)])
    return DomainSpec(n=n, r=r, bounding_box=box, c=2.0 * min(weights), theta=theta, tag="ellipsoid")


def custom_domain(n: int, terms, bounding_box, c: float, theta: float) -> DomainSpec:
    r = HermPoly.from_terms(n, terms)
    return DomainSpec(n=n, r=r, bounding_box=np.asarray(bounding_box, float), c=c, theta=theta, tag="custom")


# -- operations ---------------------------------------------------------------


def eval_geometry(dom: DomainSpec, z: np.ndarray) -> dict:
    """Exact r, anti-holomorphic gradient, and complex Hessian at z."""
    z = np.asarray(z, dtype=complex)
    return {"r": float(dom.r_val(z)), "dbar_r": dom.dbar_r(z), "hessian": dom.hessian(z)}


def certify_pseudoconvexity(
    dom: DomainSpec,
    mesh_density: int = 4000,
    seed: int = 0,
    grad_tol: float = 1e-6,
) -> dict:
    """Sample {r > -3*theta} inside the box and check the two defining bounds.

    c_min is the smallest Hessian eigenvalue seen on the mesh; the
    certificate holds when c_min >= c/2 and the gradient norm stays above
    ``grad_tol`` relative to the box diameter.  A failing check reports the
    witnessing mesh point.
    """
    if mesh_density < 1:
        raise DomainError("mesh_density must be >= 1")
    rng = np.random.default_rng(seed)
    pts = []
    target = mesh_density
    attempts = 0
    while sum(len(p) for p in pts) < target and attempts < 200:
        zz = box_uniform(dom, max(4 * target, 1024), rng)
        rv = dom.r_val(zz)
        keep = zz[(rv < 0) & (rv > -3.0 * dom.theta)]
        if keep.size:
            pts.append(keep)
        attempts += 1
    if not pts:
        return {"c_min": np.nan, "theta_ok": False, "witness": None, "note": "empty mesh"}
    mesh = np.concatenate(pts, axis=0)[:target]

    H = dom.hessian(mesh)
    eigs = np.linalg.eigvalsh(0.5 * (H + np.conj(np.swapaxes(H, -1, -2))))
    lam_min = eigs[:, 0]
    i_min = int(np.argmin(lam_min))
    c_min = float(lam_min[i_min])

    gn = dom.grad_norm(mesh)
    i_g = int(np.argmin(gn))
    grad_ok = bool(gn[i_g] > grad_tol * dom.box_diameter())
    hess_ok = bool(c_min >= dom.c / 2.0)

    witness = None
    if not hess_ok:
        witness = {"kind": "hessian", "z": mesh[i_min].tolist(), "lambda_min": c_min}
    elif not grad_ok:
        witness = {"kind": "gradient", "z": mesh[i_g].tolist(), "grad_norm": float(gn[i_g])}
    return {"c_min": c_min, "theta_ok": hess_ok and grad_ok, "witness": witness}


def select_theta(dom: DomainSpec, k_range=range(1, 12), mesh_density: int = 2000, seed: int = 0) -> float:
    """Largest theta = 2**-k whose certification passes; dyadic grid search."""
    for k in k_range:
        cand = DomainSpec(dom.n, dom.r, dom.bounding_box, dom.c, 2.0 ** (-k), dom.tag)
        res = certify_pseudoconvexity(cand, mesh_density=mesh_density, seed=seed)
        if res["theta_ok"]:
            return 2.0 ** (-k)
    raise DomainError("no dyadic theta in range passes certification")


def normal_direction(dom: DomainSpec, z: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Unit outward-tilted direction dbar r / |dbar r| at z."""
    g = dom.dbar_r(z)
    nrm = np.linalg.norm(g, axis=-1, keepdims=True)
    if np.any(nrm < tol):
        raise DomainError("gradient below tolerance; point outside the guaranteed collar")
    return g / nrm


def boundary_project(dom: DomainSpec, z: np.ndarray) -> np.ndarray:
    """Root of t -> r(z + t*u_z) along the outward normal u_z, by :func:`walk_to_depth`.

    Returns a boundary point p with |r(p)| <= boundary_tol.  The fitted
    proportionality |z - p| <= C_p |r(z)| is audited by the caller; no
    continuity in z is promised.
    """
    z = np.asarray(z, dtype=complex)
    rz = dom.r_val(z)
    if rz >= 0:
        if abs(rz) <= dom.boundary_tol:
            return z
        raise DomainError("point lies outside the closed domain")
    return walk_to_depth(dom, z, 0.0)[0]


def walk_to_depth(dom: DomainSpec, zs: np.ndarray, depth: float | np.ndarray) -> np.ndarray:
    """Points at the requested boundary distance on each normal ray, batched.

    Walks inward or outward as needed; the defining function is monotone
    along the normal through the collar, so once the walk is bracketed
    :func:`_line_root` settles it.
    """
    zs = np.asarray(zs, complex).reshape(-1, dom.n)
    depth = np.broadcast_to(np.asarray(depth, float), (len(zs),))
    current = -dom.r_val(zs)
    done = np.abs(current - depth) <= 1e-14 * depth
    u = normal_direction(dom, zs)
    sign = np.where(current < depth, -1.0, 1.0)  # -u walks inward
    s_hi = np.abs(depth - current) / np.maximum(dom.grad_norm(zs) / 2.0, 1e-12)

    def reached(s):
        val = -dom.r_val(zs + (sign * s)[:, None] * u)
        return np.where(sign < 0, val >= depth, val <= depth) | done

    for _ in range(200):
        ok = reached(s_hi)
        if np.all(ok):
            break
        s_hi = np.where(ok, s_hi, s_hi * 1.5)
    else:
        raise DomainError("cannot reach the requested depth along the normal ray")
    out = zs.copy()
    todo = np.flatnonzero(~done)
    z, v, sg = zs[todo], u[todo], sign[todo]

    # f(s) = sign * r(z + sign*s*u) increases in s in both directions
    def f_df(s, idx):
        p = z[idx] + (sg[idx] * s)[:, None] * v[idx]
        return sg[idx] * dom.r_val(p), 2.0 * np.real(np.einsum("mi,mi->m", v[idx], np.conj(dom.dbar_r(p))))

    s = _line_root(f_df, -sg * depth[todo], np.zeros(len(todo)), s_hi[todo])
    out[todo] = z + (sg * s)[:, None] * v
    return out


def _horner(coef: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(s) and p'(s) for p(s) = sum_k coef[k] * s**k, per line."""
    p = coef[-1] * np.ones_like(s)
    dp = np.zeros_like(s)
    for c in coef[-2::-1]:
        dp = dp * s + p
        p = p * s + c
    return p, dp


def _line_root(f_df, level: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """s in [lo, hi] with f(s) = level, given f(lo) <= level <= f(hi) on each line.

    ``f_df(s, idx)`` returns f and f' at ``s`` on the lines ``idx``.  This is
    the one root finder for every line search on r.  Safeguarded Newton from
    ``hi``: a step that leaves the current bracket is replaced by bisection.
    A line stops once its step or its bracket is down to float resolution.
    """
    tol = 4.0 * np.finfo(float).eps
    lo, hi, s = lo.copy(), hi.copy(), hi.copy()
    active = np.arange(len(s))
    for _ in range(100):
        x, a, b = s[active], lo[active], hi[active]
        f, df = f_df(x, active)
        f = f - level[active]
        below = f <= 0
        a = np.where(below, x, a)
        b = np.where(below, b, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = x - f / df
        nxt = np.where((nxt >= a) & (nxt <= b), nxt, 0.5 * (a + b))
        lo[active], hi[active], s[active] = a, b, nxt
        done = (np.abs(nxt - x) <= tol * x) | (b - a <= tol * b)
        active = active[~done]
        if not len(active):
            break
    return s


def fit_projection_constant(dom: DomainSpec, count: int = 200, seed: int = 0, depth: float = 0.25) -> float:
    """Fitted C_p with |z - p(z)| <= C_p |r(z)| over a sampled collar."""
    pts = sample_region(dom, ("shell", 1e-4, depth), count, seed)
    proj = walk_to_depth(dom, pts, 0.0)
    return float(np.max(np.linalg.norm(proj - pts, axis=1) / np.abs(dom.r_val(pts))))


def sample_region(dom: DomainSpec, region, count: int, seed: int = 0) -> np.ndarray:
    """Rejection / projection sampler for the standard regions.

    region is one of
      "interior"            : {r < 0}
      ("shell", t1, t2)     : {t1 <= -r <= t2}
      "boundary"            : {r = 0} within boundary_tol (surface measure
                              weighted; see :func:`surface_sample`)
      ("surface", rho)      : {-r = rho} likewise

    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    if region == "boundary":
        return surface_sample(dom, 0.0, count, rng)[0]
    if isinstance(region, tuple) and region[0] == "surface":
        return surface_sample(dom, float(region[1]), count, rng)[0]

    if region == "interior":
        def keep(rv):
            return rv < 0
    elif isinstance(region, tuple) and region[0] == "shell":
        t1, t2 = float(region[1]), float(region[2])
        if not (0 <= t1 <= t2):
            raise DomainError("shell bounds must satisfy 0 <= t1 <= t2")

        def keep(rv):
            return (-rv >= t1) & (-rv <= t2)
    else:
        raise DomainError(f"unknown region {region!r}")

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


def surface_sample(
    dom: DomainSpec,
    rho: float,
    count: int,
    rng: np.random.Generator,
    slab_eps: Optional[float] = None,
) -> tuple[np.ndarray, float]:
    """Approximately uniform samples of the level surface {-r = rho}.

    Thin-slab rejection plus Newton projection onto the level set; the
    co-area density 1/|grad r| is undone by gradient-weighted thinning, so
    the retained points are uniform for the surface measure up to O(eps).
    Draws are screened by a real-coordinate form of r, and only those that
    may lie in the slab are evaluated exactly; the points and the area are
    those of evaluating every draw exactly.  From batch ``_SAMPLER_PATIENCE``
    on, it gives up, naming its counts, once the yield so far projects past
    ``_SAMPLER_BUDGET`` batches.
    Returns (points, total_surface_area_estimate).
    """
    if slab_eps is None:
        slab_eps = 5e-4 * dom.box_diameter()
    box = dom.bounding_box
    n = dom.n
    grad_cap = _grad_cap(dom, rng)
    # the real-coordinate form of r stays within `slack` of r_val on the box,
    # so the screen keeps every draw that r_val puts in the slab
    r_real = RealPoly(dom.r)
    radii = np.sqrt(np.max(box[:n] ** 2, axis=1) + np.max(box[n:] ** 2, axis=1))
    slack = r_real.rounding_bound(radii)
    pts = []
    n_kept = 0
    n_drawn = 0
    n_in_slab = 0
    grad_sum = 0.0
    m = max(8 * count, 8192)
    for batch in itertools.count():
        # the give-up is judged from the yield so far, never before the patience runs out
        if batch >= _SAMPLER_PATIENCE and count * batch > _SAMPLER_BUDGET * n_kept:
            raise DomainError(
                f"surface sampler starved: {n_drawn} draws, {n_in_slab} slab hits and {n_kept} "
                f"thinned acceptances (grad_cap {grad_cap:.6g}) in {batch} batches; {count} points "
                f"at this yield need more than {_SAMPLER_BUDGET} batches; enlarge slab_eps or count"
            )
        zz = _screened_draws(r_real, rho, slab_eps + slack, box, m, rng)
        n_drawn += m
        rv = dom.r_val(zz)
        sel = np.abs(-rv - rho) < slab_eps
        cand = zz[sel]
        n_in_slab += len(cand)
        if len(cand) == 0:
            continue
        gn = dom.grad_norm(cand)
        grad_sum += float(np.sum(gn))
        # thin by |grad r| to convert the co-area density into surface-uniform
        acc = rng.uniform(0, grad_cap, size=len(cand)) < gn
        cand = cand[acc]
        if len(cand) == 0:
            continue
        pts.append(_project_to_level(dom, cand, rho))
        n_kept += len(cand)
        if n_kept >= count:
            break
    mean_grad = grad_sum / max(n_in_slab, 1)
    box_vol = float(np.prod(box[:, 1] - box[:, 0]))
    slab_vol = box_vol * n_in_slab / n_drawn
    area = slab_vol * mean_grad / (2.0 * slab_eps)
    all_pts = np.concatenate(pts, axis=0)[:count]
    return all_pts, float(area)


def surface_pool(dom: DomainSpec, rho: float, count: int, seed: int) -> tuple[np.ndarray, float]:
    """:func:`surface_sample` of {-r = rho} from a fresh generator at ``seed``, once per domain."""
    return dom.memo(("surfpool", round(rho, 14), count, seed),
                    lambda: surface_sample(dom, rho, count, np.random.default_rng(seed)))


def _screened_draws(r_real: RealPoly, rho: float, band: float, box: np.ndarray, m: int,
                    rng: np.random.Generator) -> np.ndarray:
    """The rows of rng.uniform(box[:, 0], box[:, 1], (m, 2n)) with |-r - rho| < band.

    The variates, their scaling and the generator's final state are those of
    the single uniform call, bit for bit; the draw is made in cache-sized
    blocks, each transposed so that every real coordinate is contiguous.
    Rows come back in draw order as complex points.
    """
    n = r_real.n
    lo, width = box[:, 0], box[:, 1] - box[:, 0]
    kept = []
    for start in range(0, m, _SCREEN_ROWS):
        xy = rng.random((min(_SCREEN_ROWS, m - start), 2 * n)).T.copy()
        xy *= width[:, None]
        xy += lo[:, None]
        near = np.flatnonzero(np.abs(-r_real(xy[:n], xy[n:]) - rho) < band)
        kept.append((xy[:n, near] + 1j * xy[n:, near]).T)
    return np.concatenate(kept)


def _grad_cap(dom: DomainSpec, rng: np.random.Generator) -> float:
    """Upper bound for |grad r| over the box, from a coarse probe."""
    zz = box_uniform(dom, 2048, rng)
    corners = dom.bounding_box[:, 1][None, :]
    zc = corners[:, : dom.n] + 1j * corners[:, dom.n :]
    probe = np.concatenate([zz, zc], axis=0)
    return 1.5 * float(np.max(dom.grad_norm(probe)))


def _project_to_level(dom: DomainSpec, pts: np.ndarray, rho: float, iters: int = 40) -> np.ndarray:
    """Newton along the gradient direction onto {-r = rho}, vectorized."""
    z = np.array(pts, dtype=complex)
    for _ in range(iters):
        val = dom.r_val(z) + rho
        if np.all(np.abs(val) <= dom.boundary_tol):
            break
        g = dom.dbar_r(z)
        gn2 = np.sum(np.abs(g) ** 2, axis=-1)
        # real-gradient Newton step: dr along direction g/|g| is 2|g|
        step = val / np.maximum(2.0 * gn2, 1e-30)
        z = z - step[:, None] * g
    return z


def surface_area(dom: DomainSpec, rho: float, seed: int = 0, count: int = 4096) -> float:
    rng = np.random.default_rng(seed)
    _, area = surface_sample(dom, rho, count, rng)
    return area
