"""Bounded strongly pseudo-convex domains given by polynomial defining functions.

A domain is the sublevel set {r < 0} of a real polynomial r in (z, conj(z)).
The class carries the Levi positivity constant c, the near-boundary
threshold theta, a real bounding box for rejection sampling, and exact
derivatives of r through one primitive: ``DomainSpec.partial`` builds any
mixed Wirtinger derivative of r as a polynomial, and
``DomainSpec.derivatives`` evaluates a whole symmetric table of them
(gradient, complex Hessian, and the third-order tables the path-length
gradient needs).  Every box rejection draw goes through ``_box_reject``.
All geometric quantities used by the rest of the library (gradient, complex
Hessian, normal direction, the walk along the normal, region samplers) come
from here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, permutations
from math import exp, gamma, lgamma, pi

import numpy as np
# numpy 2 imports numpy.random on first use; every sampler here needs it, so
# it loads with the package instead of inside the first suite that runs
import numpy.random  # noqa: F401

from ._poly import HermPoly, evaluate, unit_vector

BOUNDARY_TOL_REL = 1e-10
# directions per block of the surface sampler
_SURFACE_BLOCK = 4096
# the surface sampler's acceptance bound sits this factor above the largest
# density it has drawn
_BOUND_MARGIN = 1.01
# candidate heights per missing direction in each round of the cap sampler's
# rejection: at n = 2 a candidate is accepted with probability at least 2/3
# (the narrow-cap limit), so a row misses all three with probability <= 1/27
_CAP_TRIES = 3


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

    def partial(self, d=(), dbar=()) -> HermPoly:
        """The polynomial d_{d...} dbar_{dbar...} r, memoized per domain.

        The conj(z) derivatives are taken first, then the z derivatives,
        each in the order given.
        """
        d, dbar = tuple(d), tuple(dbar)

        def build():
            p = self.r
            for j in dbar:
                p = p.dbar(j)
            for i in d:
                p = p.d(i)
            return p

        return self.memo(("partial", d, dbar), build)

    def derivatives(self, z: np.ndarray, holo: int, anti: int) -> np.ndarray:
        """D with D[..., i_1..i_holo, j_1..j_anti] = (d_i_1..d_i_holo dbar_j_1..dbar_j_anti r)(z).

        The table is symmetric within each index group: each polynomial is
        evaluated once per sorted index tuple and written to every
        permutation slot.  The polynomials share one :func:`evaluate` call,
        and so one power table, with the bits of their own ``__call__``.
        """
        z = np.asarray(z, dtype=complex)
        out = np.empty(z.shape[:-1] + (self.n,) * (holo + anti), dtype=complex)
        rows = self._table(holo, anti)
        for v, (_, slots) in zip(evaluate([p for p, _ in rows], z), rows):
            for s in slots:
                out[s] = v
        return out

    def vanishes(self, holo: int, anti: int) -> bool:
        """Whether every polynomial of the (holo, anti) table is zero, as the
        dbar dbar r and d dbar dbar r tables of a quadratic r are."""
        return all(not p.terms for p, _ in self._table(holo, anti))

    def _table(self, holo: int, anti: int) -> list:
        """The (polynomial, permutation slots) rows of the (holo, anti) table, memoized."""
        def build():
            rows = []
            for d in combinations_with_replacement(range(self.n), holo):
                for b in combinations_with_replacement(range(self.n), anti):
                    slots = [(...,) + i + j for i in set(permutations(d)) for j in set(permutations(b))]
                    rows.append((self.partial(d, b), slots))
            return rows

        return self.memo(("derivatives", holo, anti), build)

    # -- pointwise geometry ------------------------------------------------

    def r_val(self, z: np.ndarray) -> np.ndarray:
        return np.real(self.r(z))

    def dbar_r(self, z: np.ndarray) -> np.ndarray:
        """(dbar_1 r, ..., dbar_n r) at z; shape (..., n)."""
        return self.derivatives(z, 0, 1)

    def hessian(self, z: np.ndarray) -> np.ndarray:
        """Complex Hessian H with H[..., i, j] = (d_i dbar_j r)(z).

        The Levi quadratic form sum_{i,j} H[i,j] xi_i conj(xi_j) is evaluated
        by :func:`levi_form`.
        """
        return self.derivatives(z, 1, 1)

    def grad_norm(self, z: np.ndarray) -> np.ndarray:
        """Euclidean norm of the real gradient of r; equals 2*|dbar r|."""
        return 2.0 * np.linalg.norm(self.dbar_r(z), axis=-1)

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
        n = int(doc["n"])
        r = HermPoly.from_json_terms(n, doc["r"])
        for a, b in r.terms:
            if len(a) != n or len(b) != n:
                raise DomainError(f"term {list(a)}, {list(b)} of r needs exponent tuples of length n = {n}")
        return DomainSpec(
            n=n,
            r=r,
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


def _box_reject(dom: DomainSpec, keep, count: int, rng: np.random.Generator, block: int, tries: int):
    """Blocks of ``block`` :func:`box_uniform` points, kept where ``keep(r)`` holds.

    Draws until ``count`` points are kept or ``tries`` blocks are drawn, and
    returns (points[:count], hits, drawn): the kept points, and the numbers
    kept and drawn over all blocks.  Giving up is the caller's decision.
    """
    kept, hits, drawn = [], 0, 0
    while hits < count and drawn < tries * block:
        zz = box_uniform(dom, block, rng)
        drawn += block
        sel = zz[keep(dom.r_val(zz))]
        hits += len(sel)
        kept.append(sel)
    pts = np.concatenate(kept, axis=0) if kept else np.empty((0, dom.n), complex)
    return pts[:count], hits, drawn


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
    box = np.array([[-h, h] for _ in (0, 1) for h in half])
    return DomainSpec(n=n, r=r, bounding_box=box, c=2.0 * min(weights), theta=theta, tag="ellipsoid")


def custom_domain(n: int, terms, bounding_box, c: float, theta: float) -> DomainSpec:
    r = HermPoly.from_terms(n, terms)
    return DomainSpec(n=n, r=r, bounding_box=np.asarray(bounding_box, float), c=c, theta=theta, tag="custom")


# -- operations ---------------------------------------------------------------


def _domain_depth_max(dom: DomainSpec) -> float:
    """Largest -r over 20000 box-uniform points from a fresh generator at seed 12345, once per domain."""
    def build():
        zz = box_uniform(dom, 20000, np.random.default_rng(12345))
        return float(np.max(-dom.r_val(zz)))

    return dom.memo("depthmax", build)


def _collar_mesh(dom: DomainSpec, count: int, seed: int = 0) -> np.ndarray:
    """Up to ``count`` box-uniform points of the collar {-3*theta < r < 0}, from a fresh generator at ``seed``.

    Drawn once per domain, count and seed; callers share the array and must not write to it.
    """
    if count < 1:
        raise DomainError("mesh_density must be >= 1")
    # a copy, so the memo holds ``count`` points and not every point the blocks kept
    return dom.memo(("collar", count, seed), lambda: _box_reject(
        dom, lambda rv: (rv < 0) & (rv > -3.0 * dom.theta), count, np.random.default_rng(seed),
        max(4 * count, 1024), 200)[0].copy())


def certify_pseudoconvexity(dom: DomainSpec, mesh_density: int = 4000, seed: int = 0) -> dict:
    """Sample {r > -3*theta} inside the box, check the two defining bounds, and check the box.

    c_min is the smallest Hessian eigenvalue seen on the mesh; the
    certificate holds when c_min >= c/2, the gradient norm stays above
    1e-6 times the box diameter, and r > 0 at 2000 uniform points of each of
    the 4n box faces (drawn from a fresh generator at ``seed``), so that the
    box, which every sampler draws from, holds the closure of a domain
    star-shaped about the origin.  A failing check reports the witnessing
    point.
    """
    mesh = _collar_mesh(dom, mesh_density, seed)
    if not len(mesh):
        return {"c_min": np.nan, "theta_ok": False, "witness": None, "note": "empty mesh"}

    H = dom.hessian(mesh)
    eigs = np.linalg.eigvalsh(0.5 * (H + np.conj(np.swapaxes(H, -1, -2))))
    lam_min = eigs[:, 0]
    i_min = int(np.argmin(lam_min))
    c_min = float(lam_min[i_min])

    gn = dom.grad_norm(mesh)
    i_g = int(np.argmin(gn))
    grad_ok = bool(gn[i_g] > 1e-6 * dom.box_diameter())
    hess_ok = bool(c_min >= dom.c / 2.0)

    # face k of the box fixes real coordinate k // 2 at its lower or upper end
    box = dom.bounding_box
    raw = np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], size=(4 * dom.n, 2000, 2 * dom.n))
    raw[np.arange(4 * dom.n), :, np.arange(4 * dom.n) // 2] = box.ravel()[:, None]
    faces = (raw[..., : dom.n] + 1j * raw[..., dom.n :]).reshape(-1, dom.n)
    r_faces = dom.r_val(faces)
    i_f = int(np.argmin(r_faces))
    box_ok = bool(r_faces[i_f] > 0)

    witness = None
    if not hess_ok:
        witness = {"kind": "hessian", "z": mesh[i_min].tolist(), "lambda_min": c_min}
    elif not grad_ok:
        witness = {"kind": "gradient", "z": mesh[i_g].tolist(), "grad_norm": float(gn[i_g])}
    elif not box_ok:
        witness = {"kind": "box", "z": faces[i_f].tolist(), "r": float(r_faces[i_f])}
    return {"c_min": c_min, "theta_ok": hess_ok and grad_ok and box_ok, "witness": witness}


def normal_direction(dom: DomainSpec, z: np.ndarray) -> np.ndarray:
    """Unit outward-tilted direction dbar r / |dbar r| at z; |dbar r| < 1e-12 raises."""
    g = dom.dbar_r(z)
    nrm = np.linalg.norm(g, axis=-1, keepdims=True)
    if np.any(nrm < 1e-12):
        raise DomainError("gradient below tolerance; point outside the guaranteed collar")
    return g / nrm


def walk_to_depth(dom: DomainSpec, zs: np.ndarray, depth: float | np.ndarray) -> np.ndarray:
    """Points at the requested boundary distance on each normal ray, batched.

    Walks inward or outward as needed; the defining function is monotone
    along the normal through the collar, so once the walk is bracketed
    :func:`_line_root` settles it.  A point already at its depth (a
    boundary point at depth 0, say) comes back unchanged.
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

    s = _line_root(f_df, -sg * depth[todo], np.zeros(len(todo)), s_hi[todo], np.linalg.norm(z, axis=1), s_hi[todo])
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


def _line_root(f_df, level: np.ndarray, lo: np.ndarray, hi: np.ndarray, scale, start: np.ndarray) -> np.ndarray:
    """s in [lo, hi] with f(s) = level, given f(lo) <= level <= f(hi) on each line.

    ``f_df(s, idx)`` returns f and f' at ``s`` on the lines ``idx``.  This is
    the one root finder for every line search on r.  Safeguarded Newton from
    ``start``, a point of each line's bracket (``hi`` for a walk, the root
    of the quadratic part for a ray): a step that leaves the current bracket
    is replaced by bisection.
    A line stops once its step is at most 4 eps max(s, scale) or its bracket
    [a, b] is at most 4 eps max(b, scale).  ``scale`` is the size of the
    line's base point: a walk from z moves to z + s*u, which rounds at about
    eps |z|, so a step far below that no longer moves the point.  A ray from
    the origin has scale 0.  The per-line state is kept for the open lines
    only, and gathered again only when some line stops.
    """
    tol = 4.0 * np.finfo(float).eps
    s = np.empty(len(hi))
    active = np.arange(len(hi))
    x, a, b = start, lo, hi
    level = np.broadcast_to(np.asarray(level, float), s.shape)
    floor = np.broadcast_to(np.asarray(scale, float), s.shape)
    for _ in range(100):
        f, df = f_df(x, active)
        f = f - level
        below = f <= 0
        a = np.where(below, x, a)
        b = np.where(below, b, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = x - f / df
        nxt = np.where((nxt >= a) & (nxt <= b), nxt, 0.5 * (a + b))
        done = (np.abs(nxt - x) <= tol * np.maximum(x, floor)) | (b - a <= tol * np.maximum(b, floor))
        x = nxt
        if np.any(done):
            s[active[done]] = x[done]
            keep = ~done
            active, x, a, b, level, floor = active[keep], x[keep], a[keep], b[keep], level[keep], floor[keep]
            if not len(active):
                break
    s[active] = x
    return s


def sample_region(dom: DomainSpec, region, count: int, seed: int = 0) -> np.ndarray:
    """Uniform rejection sampler of the box for the standard interior regions.

    region is one of
      "interior"            : {r < 0}
      ("shell", t1, t2)     : {t1 <= -r <= t2}

    Boundary and level-surface points come from :func:`surface_sample`.
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
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

    pts, hits, _ = _box_reject(dom, keep, count, rng, max(4 * count, 4096), 400)
    if hits < count:
        raise DomainError("acceptance rate too low for region sampling")
    return pts


# -- star-shaped ray field ---------------------------------------------------------


def _sphere_area(real_dim: int) -> float:
    return 2.0 * pi ** (real_dim / 2.0) / gamma(real_dim / 2.0)


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0 and 0 <= x <= 1.

    The prefactor x^a (1-x)^b / (a B(a, b)) times the continued fraction of
    I_x(a, b), evaluated by the modified Lentz method, where that fraction
    converges fast (x < (a+1)/(a+b+2)); beyond, I_x(a, b) = 1 - I_{1-x}(b, a).
    The prefactor carries the power law, so a tiny x keeps its relative
    accuracy.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    tiny = 1e-300
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    frac = d
    for m in range(1, 200):
        # even then odd partial numerator of the fraction
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            frac *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    return x**a * (1.0 - x) ** b * exp(lgamma(a + b) - lgamma(a) - lgamma(b)) / a * frac


class RayField:
    """Radial structure of a domain star-shaped about the origin.

    Supplies boundary radii along directions, the level surfaces with their
    surface density over directions, and depth-targeted samples with an
    exact importance density, which is what makes thin boundary layers
    integrable at Monte-Carlo cost.

    Construction checks the hypothesis every ray method relies on: the
    origin lies inside, and Re<z, dbar r(z)> > 0 on a collar mesh of
    {-3*theta < r < 0} (sampled as :func:`certify_pseudoconvexity` samples
    it), so r increases outward along each ray through the collar and each
    ray crosses each level set there once.  A failure names its witness.
    """

    def __init__(self, dom: DomainSpec):
        if dom.r_val(np.zeros(dom.n, complex)) >= 0:
            raise DomainError("ray sampler requires the origin inside the domain")
        mesh = _collar_mesh(dom, 4000)
        radial = np.real(np.einsum("mi,mi->m", np.conj(mesh), dom.dbar_r(mesh)))
        if len(mesh) and not radial.min() > 0:
            i = int(np.argmin(radial))
            raise DomainError(
                f"domain is not star-shaped about the origin on its collar: Re<z, dbar r(z)> = "
                f"{radial[i]:.6g} at z = {mesh[i].tolist()}"
            )
        self.dom = dom
        self.sphere_area = _sphere_area(2 * dom.n)
        # r(s * omega) = sum_k parts[k](omega) * s**k
        self._parts = dom.r.homogeneous_parts()

    def directions(self, count: int, rng: np.random.Generator) -> np.ndarray:
        g = rng.standard_normal((count, 2 * self.dom.n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return g[:, : self.dom.n] + 1j * g[:, self.dom.n :]

    # directions as real unit vectors in R^(2n)
    @staticmethod
    def _to_real(omega: np.ndarray) -> np.ndarray:
        return np.concatenate([omega.real, omega.imag], axis=-1)

    @staticmethod
    def _to_complex(x: np.ndarray, n: int) -> np.ndarray:
        return x[..., :n] + 1j * x[..., n:]

    def cap_fraction(self, cos_cap: float) -> float:
        """Uniform-measure fraction of the spherical cap {<w, axis> >= cos_cap}.

        Closed form: half the regularized incomplete beta function
        I_{1-c^2}((d-1)/2, 1/2) for c >= 0, and its complement below.
        """
        d = 2 * self.dom.n
        half = 0.5 * _betainc((d - 1) / 2.0, 0.5, 1.0 - cos_cap**2)
        return half if cos_cap >= 0 else 1.0 - half

    def cap_directions(self, axis: np.ndarray, cos_cap, count: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform directions in spherical caps around ``axis`` (complex n-vector).

        ``cos_cap`` is one cosine for every direction or one per direction.
        Each cap must have interior: a cosine of 1 or more raises, since the
        cap is then the axis alone and has measure zero.
        """
        cos_cap = np.asarray(cos_cap, float)
        if not np.all(cos_cap < 1.0):
            bad = float(cos_cap.flat[np.argmin(cos_cap < 1.0)])
            raise DomainError(f"spherical cap around {axis.tolist()} with cosine {bad!r} is empty")
        cos_cap = np.broadcast_to(cos_cap, (count,))
        d = 2 * self.dom.n
        ax = self._to_real(axis.reshape(1, -1))[0]
        ax = ax / np.linalg.norm(ax)
        if d == 2:
            theta = np.arccos(cos_cap)
            base = np.arctan2(ax[1], ax[0])
            ang = base + rng.uniform(-theta, theta, count)
            x = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            return self._to_complex(x, self.dom.n)
        # heights h with density (1-h^2)^((d-3)/2) on [cos_cap, 1], by rejection
        # under its maximum there, taken at h = max(cos_cap, 0): a few candidates
        # per missing height, the first accepted one kept
        env = np.maximum((1.0 - np.maximum(cos_cap, 0.0) ** 2) ** ((d - 3) / 2.0), 1e-300)
        hs = np.empty(count)
        todo = np.arange(count)
        while len(todo):
            lo = cos_cap[todo, None]
            cand = lo + (1.0 - lo) * rng.random((len(todo), _CAP_TRIES))
            acc = env[todo, None] * rng.random(cand.shape) < (1.0 - cand**2) ** ((d - 3) / 2.0)
            first = np.argmax(acc, axis=1)
            hit = acc[np.arange(len(todo)), first]
            hs[todo[hit]] = cand[hit, first[hit]]
            todo = todo[~hit]
        # tangential part: uniform on the (d-2)-sphere orthogonal to ax
        g = rng.standard_normal((count, d))
        g -= np.outer(g @ ax, ax)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        x = hs[:, None] * ax[None, :] + np.sqrt(np.maximum(1 - hs**2, 0.0))[:, None] * g
        return self._to_complex(x, self.dom.n)

    def _ray_coefficients(self, omega: np.ndarray) -> np.ndarray:
        """c[k, m] with r(s * omega[m]) = sum_k c[k, m] * s**k for real s."""
        return np.stack([np.real(v) for v in evaluate(self._parts, omega)])

    def boundary_radius(self, omega: np.ndarray) -> np.ndarray:
        """Smallest s > 0 with r(s * omega) = 0 along each direction: :meth:`solve_depth` at depth 0."""
        return self.solve_depth(omega, 0.0)

    @staticmethod
    def _radial_slope(omega: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """d(-r)/ds along each ray, from ``grad`` = dbar r at the ray's point."""
        return -2.0 * np.real(np.einsum("mi,mi->m", np.conj(omega), grad))

    def solve_depth(self, omega: np.ndarray, targets) -> np.ndarray:
        """s > 0 with -r(s * omega) = target along each ray, one target or one per ray.

        Each ray starts at x0, the positive root of its polynomial's part of
        degree <= 2, c0 + c1 s + c2 s^2 = -target, or at 0.25 where that
        root is not a finite positive number.  The bracket [0, s_hi] grows
        s_hi from 1.5 x0 by 1.5 until -r(s_hi * omega) <= target, then one
        :func:`_line_root` from x0 settles it; for a quadratic r, x0 is the
        root up to rounding and Newton stops after one evaluation.  A target
        deeper than the origin, or a ray still deeper than its target after
        60 growth steps (one that never leaves the domain), raises.
        """
        coef = self._ray_coefficients(omega)
        level = np.broadcast_to(-np.asarray(targets, float), (len(omega),))
        if np.any(coef[0] > level):  # coef[0] = r(0) on every ray
            raise DomainError(f"depth target {float(-level.min())!r} is deeper than the origin, at {float(-coef[0, 0])!r}")
        c1, c2 = (coef[k] if len(coef) > k else np.zeros(len(omega)) for k in (1, 2))
        gap = level - coef[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            # the positive root of c2 s^2 + c1 s = gap >= 0, in the form without cancellation
            x0 = 2.0 * gap / (c1 + np.sqrt(c1 * c1 + 4.0 * c2 * gap))
        x0 = np.where(np.isfinite(x0) & (x0 > 0), x0, 0.25)
        s_hi = 1.5 * x0
        grow = _horner(coef, s_hi)[0] < level
        for _ in range(60):
            if not np.any(grow):
                break
            s_hi[grow] *= 1.5
            grow = _horner(coef, s_hi)[0] < level
        if np.any(grow):
            i = int(np.argmax(grow))
            raise DomainError(
                f"the ray along {omega[i].tolist()} stays deeper than its target {float(-level[i])!r} out to "
                f"s = {s_hi[i]:.6g}: it never leaves the domain"
            )

        def f_df(s, idx):
            # _line_root passes every line until the first one stops
            return _horner(coef if len(idx) == len(level) else coef[:, idx], s)

        return _line_root(f_df, level, np.zeros(len(omega)), s_hi, 0.0, x0)

    def level_points(self, omega: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
        """The points s*omega of the level surface {-r = rho}, and its density J over directions.

        The surface element at s*omega is J(omega) d(omega) with
        J = s^(2n-1) |grad r| / |d r/ds|: the sphere's element scaled to
        radius s, divided by the cosine between the ray and the normal.
        """
        s = self.solve_depth(omega, rho) if rho > 0 else self.boundary_radius(omega)
        pts = s[:, None] * omega
        grad = self.dom.dbar_r(pts)
        slope = np.abs(self._radial_slope(omega, grad))
        return pts, s ** (2 * self.dom.n - 1) * 2.0 * np.linalg.norm(grad, axis=1) / slope

    def layer_sample(
        self,
        depth_lo: float,
        depth_hi: float,
        count: int,
        rng: np.random.Generator,
        focus: tuple[np.ndarray, list[float], list[float]] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Points with -r in [depth_lo, depth_hi], log-uniform in depth.

        ``focus = (axis, cos_caps, fractions)`` draws half of the directions
        uniformly and splits the other half evenly over the spherical caps
        around ``axis``, one per cosine in ``cos_caps`` (non-decreasing),
        which is what keeps the variance of gauge-localized integrands
        finite; ``fractions`` holds :meth:`cap_fraction` of each cosine, so a
        caller that draws from one ladder several times computes them once.
        Returns (points, density) where density is the exact Lebesgue pdf of
        each drawn point, so 1/density importance weights are unbiased.

        This is :meth:`layer_draw` then :meth:`layer_place`; a caller that
        draws many layers can place all their lines together.
        """
        return self.layer_place(*self.layer_draw(depth_lo, depth_hi, count, rng, focus))

    def layer_draw(
        self,
        depth_lo: float,
        depth_hi: float,
        count: int,
        rng: np.random.Generator,
        focus: tuple[np.ndarray, list[float], list[float]] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The random half of :meth:`layer_sample`, the only one that uses ``rng``.

        Returns (omega, u, p_u, dir_density): the directions, the
        log-uniform depth targets, and the two density factors, p_u of the
        depth and dir_density of the direction.
        """
        if not (0 < depth_lo < depth_hi):
            raise DomainError("need 0 < depth_lo < depth_hi")
        if focus is None:
            omega = self.directions(count, rng)
            dir_density = np.full(count, 1.0 / self.sphere_area)
        else:
            axis, cos_caps, fracs = focus
            if np.any(np.diff(cos_caps) < 0):
                raise DomainError(f"focus cap cosines must not decrease: {list(cos_caps)}")
            n_cap_total = int(round(0.5 * count))
            per_cap = np.full(len(cos_caps), n_cap_total // len(cos_caps))
            per_cap[: n_cap_total - int(np.sum(per_cap))] += 1
            omega = np.concatenate([
                self.directions(count - n_cap_total, rng),
                self.cap_directions(np.asarray(axis, complex), np.repeat(cos_caps, per_cap), n_cap_total, rng),
            ])
            ax = self._to_real(np.asarray(axis, complex).reshape(1, -1))[0]
            ax /= np.linalg.norm(ax)
            height = self._to_real(omega) @ ax
            # the cosines do not decrease, so the caps holding a direction are a
            # prefix of the ladder; cumsum adds the caps' terms in ladder order
            terms = [0.5 / self.sphere_area] + [0.5 / (len(cos_caps) * self.sphere_area * f) for f in fracs]
            dir_density = np.cumsum(terms)[np.searchsorted(cos_caps, height, side="right")]
        u = np.exp(rng.uniform(np.log(depth_lo), np.log(depth_hi), count))
        p_u = 1.0 / (u * np.log(depth_hi / depth_lo))
        return omega, u, p_u, dir_density

    def layer_place(
        self, omega: np.ndarray, u: np.ndarray, p_u: np.ndarray, dir_density: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The deterministic half of :meth:`layer_sample`: each line's point at depth u, and its density.

        Every line is solved on its own, so placing any split of a draw's
        lines gives the same bits as placing them together.
        """
        s = self.solve_depth(omega, u)
        pts = s[:, None] * omega
        slope = np.abs(self._radial_slope(omega, self.dom.dbar_r(pts)))
        slope = np.maximum(slope, 1e-14)
        # keep this product order: (p_u * dir_density) * slope rounds differently
        density = p_u * slope * dir_density / (s ** (2 * self.dom.n - 1))
        return pts, density


def _ray_field(dom: DomainSpec) -> RayField:
    return dom.memo("rayfield", lambda: RayField(dom))


# -- level surfaces ---------------------------------------------------------------


def surface_sample(
    dom: DomainSpec,
    rho: float,
    count: int,
    rng: np.random.Generator,
    cone: tuple[np.ndarray, float] | None = None,
) -> tuple[np.ndarray, float, float]:
    """Uniform samples of the level surface {-r = rho}, drawn along rays.

    Directions are uniform on the sphere, or uniform in the direction cone
    ``cone = (axis, cos)`` (:meth:`RayField.cap_directions`); the sampled
    surface is the part of the level surface the cone's rays meet.  Each
    direction's level point carries the surface density J of
    :meth:`RayField.level_points` and is accepted with probability
    J / J_cap, so accepted points are uniform for the surface measure.
    J_cap must bound every density drawn.  It starts from the first block
    and sits ``_BOUND_MARGIN`` above the largest density seen; a draw above
    it raises the bound, and every earlier draw is re-decided against the
    raised bound with its own uniform variate.  Densities are never
    clipped, so the result is that of rejection with the final bound from
    the first draw on, and it is deterministic for a fixed generator.
    The area is the cone's solid angle times mean(J) over all draws.

    Returns (points, area, area_stderr).
    """
    rays = _ray_field(dom)
    if cone is None:
        solid = rays.sphere_area

        def draw():
            return rays.directions(_SURFACE_BLOCK, rng)
    else:
        axis, cos_cap = np.asarray(cone[0], complex), float(cone[1])
        solid = rays.sphere_area * rays.cap_fraction(cos_cap)

        def draw():
            return rays.cap_directions(axis, cos_cap, _SURFACE_BLOCK, rng)

    pts, dens, unif = np.empty((0, dom.n), complex), np.empty(0), np.empty(0)
    j_cap = 0.0
    drawn, j_sum, j_sq = 0, 0.0, 0.0
    while len(pts) < count:
        p, j = rays.level_points(draw(), rho)
        u = rng.random(len(j))
        top = float(np.max(j))
        if not np.isfinite(top):
            i = int(np.argmax(j))
            raise DomainError(f"level surface density is not finite at {p[i].tolist()}: the ray is tangent there")
        drawn += len(j)
        j_sum += float(np.sum(j))
        j_sq += float(j @ j)
        if top > j_cap:
            j_cap = _BOUND_MARGIN * top
            keep = unif * j_cap < dens
            pts, dens, unif = pts[keep], dens[keep], unif[keep]
        keep = u * j_cap < j
        pts = np.concatenate([pts, p[keep]])
        dens = np.concatenate([dens, j[keep]])
        unif = np.concatenate([unif, u[keep]])
    mean = j_sum / drawn
    spread = np.sqrt(max(j_sq / drawn - mean * mean, 0.0) / drawn)
    return pts[:count], solid * mean, solid * float(spread)


def surface_pool(dom: DomainSpec, rho: float, count: int, seed: int) -> np.ndarray:
    """:func:`surface_sample` points of {-r = rho} from a fresh generator at ``seed``, once per domain."""
    return dom.memo(("surfpool", round(rho, 14), count, seed),
                    lambda: surface_sample(dom, rho, count, np.random.default_rng(seed)))[0]


def _project_to_level(dom: DomainSpec, pts: np.ndarray, rho: float) -> np.ndarray:
    """Newton along the gradient direction onto {-r = rho}, vectorized; at most 40 steps."""
    z = np.array(pts, dtype=complex)
    tol = dom.boundary_tol
    for _ in range(40):
        val = dom.r_val(z) + rho
        if np.all(np.abs(val) <= tol):
            break
        g = dom.dbar_r(z)
        gn2 = np.sum(np.abs(g) ** 2, axis=-1)
        # real-gradient Newton step: dr along direction g/|g| is 2|g|
        step = val / np.maximum(2.0 * gn2, 1e-30)
        z = z - step[:, None] * g
    return z
