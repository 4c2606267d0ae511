"""Finite model of the Bergman space and the operator checks that run on it.

The Galerkin space is spanned by normalized monomials up to a degree cap.
Toeplitz compressions and the Hankel blocks' moment matrices both come from
one primitive, :meth:`BallQuadrature.moments`: the radial table of monomial
amplitudes contracted against each radial node's angular FFT of the symbol,
on a quadrature whose Gram is the identity, so symbol bounds transfer to
operator-norm bounds exactly.  Hankel blocks live on an enlarged truncation
that also carries low conjugate degrees.  Everything downstream (Berezin
transforms, discrete kernel sums, localized sums, compactness diagnostics)
is dense linear algebra over these bases.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from ._poly import HermPoly, evaluate
from .domain import DomainSpec, _domain_depth_max, _ray_field, normal_direction, unit_ball, walk_to_depth
from .kernel import EXACT_BALL, ball_quadrature, kernel_eval, monomial_norm_sq
from .metric import Polydisc, straight_chord_upper


class OperatorError(ValueError):
    pass


def _multi_indices(n: int, max_total: int) -> list[tuple[int, ...]]:
    out = []
    for total in range(max_total + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            alpha = [0] * n
            for c in combo:
                alpha[c] += 1
            out.append(tuple(alpha))
    return out


# -- Galerkin space ---------------------------------------------------------------


@dataclass(frozen=True)
class GalerkinSpace:
    """Orthonormal monomial model of the ball's Bergman space up to degree N."""

    n: int
    N: int
    alphas: list[tuple[int, ...]]
    norms: np.ndarray
    quad: object

    @property
    def dim(self) -> int:
        return len(self.alphas)

    def basis_eval(self, pts: np.ndarray) -> np.ndarray:
        """Matrix of normalized monomial values, shape (m, dim)."""
        pts = np.asarray(pts, complex).reshape(-1, self.n)
        zero = (0,) * self.n
        return np.stack(evaluate([HermPoly(self.n, {(a, zero): 1.0}) for a in self.alphas], pts), 1) / self.norms

    def gram_defect(self) -> float:
        g = toeplitz_matrix(self, lambda w: np.ones(len(w))).matrix
        return float(np.max(np.abs(g - np.eye(self.dim))))

    def kernel_coeffs(self, z: np.ndarray) -> np.ndarray:
        """Coefficients of the truncated normalized kernel at z.

        <K_z, e_alpha> = conj(e_alpha(z)); dividing by ||K_z|| = sqrt(K(z,z))
        gives the truncation of the unit-norm kernel.
        """
        z = np.asarray(z, complex).reshape(-1)
        dom = _ball_domain(self.n)
        kzz = float(np.real(kernel_eval(dom, EXACT_BALL, z, z.reshape(1, -1))[0]))
        e = self.basis_eval(z.reshape(1, -1))[0]
        return np.conj(e) / np.sqrt(kzz)

    def truncation_mass(self, z: np.ndarray) -> float:
        """||k_z^{(N)}||^2, the kernel mass captured by the truncation."""
        return float(np.sum(np.abs(self.kernel_coeffs(z)) ** 2))


@functools.cache
def _ball_domain(n: int) -> DomainSpec:
    return unit_ball(n)


def build_galerkin(n: int, N: int) -> GalerkinSpace:
    """The monomials of degree <= N on the unit ball of C^n, orthonormalized.

    The quadrature is exact to degree 2N + 2(n + 1), above the 2N the Gram
    matrix needs.
    """
    if N < 0:
        raise OperatorError("degree cap must be nonnegative")
    quad = ball_quadrature(n, 2 * N + 2 * (n + 1))
    alphas = _multi_indices(n, N)
    norms = np.array([np.sqrt(monomial_norm_sq(n, a)) for a in alphas])
    space = GalerkinSpace(n, N, alphas, norms, quad)
    if space.gram_defect() > 1e-8:
        raise OperatorError("quadrature Gram deviates from the identity")
    return space


@dataclass(frozen=True)
class OperatorMatrix:
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, complex))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))


def toeplitz_matrix(space: GalerkinSpace, f, label: str = "T_f") -> OperatorMatrix:
    """Compression of multiplication by f: entries <f e_beta, e_alpha>.

    The quadrature moments of the monomials divided by their norms; on an
    exact-Gram quadrature they keep the norm at or below the sup of |f| on
    the nodes.
    """
    a = np.array(space.alphas)
    mat = space.quad.moments(f, a, np.zeros_like(a)) / np.outer(space.norms, space.norms)
    return OperatorMatrix(mat, label)


def identity_operator(space: GalerkinSpace) -> OperatorMatrix:
    return OperatorMatrix(np.eye(space.dim), "I")


# -- enlarged truncation and Hankel blocks ------------------------------------------


@dataclass(frozen=True)
class EnlargedSpace:
    """Orthonormalized mixed monomials z^a conj(z)^b on the ball.

    Holomorphic rows (b = 0) come first, led by the Galerkin space's
    monomials in its order, so the analytic projection and the Galerkin
    space are both coordinate truncations.
    """

    a: np.ndarray  # (dim, n) holomorphic exponents
    b: np.ndarray  # (dim, n) conjugate exponents
    n_holo: int
    quad: object
    pre: np.ndarray  # ||z^(a+b)||, the norm each monomial is first divided by
    L: np.ndarray  # Cholesky factor of the prenormalized monomials' Gram matrix


def forward_substitution(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with L X = B, for lower-triangular L: column-oriented forward substitution."""
    X = np.array(B, np.result_type(L, B))
    for i in range(len(L)):
        X[i] /= L[i, i]
        X[i + 1 :] -= L[i + 1 :, i, None] * X[i]
    return X


def enlarged_space(n: int, N: int, conj_degree: int) -> EnlargedSpace:
    """The enlarged truncation over the degree-N Galerkin space."""
    holo = _multi_indices(n, N + conj_degree)
    conj = [b for b in _multi_indices(n, conj_degree) if sum(b) >= 1]
    a = np.array(holo + [x for x in holo for _ in conj], int).reshape(-1, n)
    b = np.array([(0,) * n] * len(holo) + conj * len(holo), int).reshape(-1, n)
    pre = np.array([np.sqrt(monomial_norm_sq(n, e)) for e in a + b])
    # G[i,j] = <v_j, v_i> for prenormalized monomials: ||z^(a_j + b_i)||^2 when their torus orders agree
    m = a - b
    G = np.zeros((len(a), len(a)))
    for i, j in zip(*np.nonzero((m[:, None] == m).all(2))):
        G[i, j] = monomial_norm_sq(n, a[j] + b[i]) / (pre[i] * pre[j])
    jitter = 1e-13
    L = np.linalg.cholesky(G + jitter * np.eye(len(a)))

    qdeg = 2 * (N + 2 * conj_degree) + 2
    # beyond n = 1 the angular grid shrinks to qdeg + 1 points per torus factor
    quad = ball_quadrature(n, qdeg) if n == 1 else ball_quadrature(n, qdeg, qdeg + 1)
    return EnlargedSpace(a, b, len(holo), quad, pre, L)


def hankel_and_commutator(space: GalerkinSpace, f) -> dict:
    """Norms of the Hankel blocks (1-P) M_f P and (1-P) M_conj(f) P.

    Realized on the enlarged truncation with conjugate degrees up to 2: the
    quadrature moments of its monomials, orthonormalized as L^-1 (.) L^-H
    with the Cholesky factor L of their Gram matrix.  The commutator norm
    of [M_f, P] equals the larger of the two Hankel norms.
    """
    enl = enlarged_space(space.n, space.N, 2)
    if len(enl.a) > 4000:
        raise OperatorError("enlarged truncation too large")
    raw = enl.quad.moments(f, enl.a, enl.b) / np.outer(enl.pre, enl.pre)
    M = forward_substitution(enl.L, forward_substitution(enl.L, raw).conj().T).conj().T
    H = M[enl.n_holo :, : space.dim]
    Hbar = M[: space.dim, enl.n_holo :].conj().T
    h_norm = float(np.linalg.norm(H, 2)) if H.size else 0.0
    hbar_norm = float(np.linalg.norm(Hbar, 2)) if Hbar.size else 0.0
    return {"hankel_norm": h_norm, "hankel_conj_norm": hbar_norm, "commutator_norm": max(h_norm, hbar_norm)}


# -- Berezin transform --------------------------------------------------------------


def berezin(space: GalerkinSpace, A: OperatorMatrix, z: np.ndarray) -> complex:
    """<A k_z, k_z> on the truncated normalized kernel, renormalized; a kernel mass below 1e-8 raises."""
    v = space.kernel_coeffs(z)
    m2 = float(np.sum(np.abs(v) ** 2))
    if m2 < 1e-8:
        raise OperatorError("truncated kernel mass too small at this depth")
    return complex(np.vdot(v, A.matrix @ v) / m2)


def resolution_limit(space: GalerkinSpace) -> float:
    """Deepest boundary distance where the truncated kernel keeps 0.99 of its mass."""
    lo, hi = 1e-12, 1.0
    for _ in range(60):
        mid = np.sqrt(lo * hi)
        z = np.zeros(space.n, complex)
        z[0] = np.sqrt(1 - mid)
        if space.truncation_mass(z) >= 0.99:
            hi = mid
        else:
            lo = mid
    return float(hi)


# -- oscillation --------------------------------------------------------------------


@dataclass(frozen=True)
class OscillationProfile:
    shell_sup: np.ndarray
    vo_verdict: bool


def oscillation_profile(
    dom: DomainSpec,
    f,
    pair_samples: int = 40,
    seed: int = 0,
    shells: tuple[int, int] = (2, 12),
) -> OscillationProfile:
    """Sampled sup of |f(z) - f(w)| over pairs within distance 1.

    Each of the ``pair_samples`` points per shell gets 12 partners drawn
    inside scaled tangential/normal boxes, kept only when the straight chord
    from z is at most 1 (a chord that leaves the domain bounds nothing), so
    the recorded sup is a true lower bound for the continuum oscillation.
    """
    rng = np.random.default_rng(seed)
    k_lo, k_hi = shells
    sups = []
    for k in range(k_lo, k_hi + 1):
        t = 2.0**-k
        sup_k = 0.0
        for _ in range(pair_samples):
            z = _shell_point(dom, t, rng)
            fz = complex(f(z.reshape(1, -1))[0])
            ws = _nearby_candidates(dom, z, rng, 12)
            for w in ws[straight_chord_upper(dom, z, ws) <= 1.0]:
                fw = complex(f(w.reshape(1, -1))[0])
                sup_k = max(sup_k, abs(fz - fw))
        sups.append(sup_k)
    sups_arr = np.asarray(sups)
    head = max(np.max(sups_arr[: max(len(sups_arr) // 3, 1)]), 1e-12)
    tail = np.max(sups_arr[-max(len(sups_arr) // 3, 1) :])
    verdict = bool(tail <= 0.5 * head or tail < 1e-6)
    return OscillationProfile(sups_arr, verdict)


def _shell_point(dom: DomainSpec, t: float, rng: np.random.Generator) -> np.ndarray:
    rays = _ray_field(dom)
    pts, _ = rays.layer_sample(t * 0.9, t * 1.1, 1, rng)
    return pts[0]


def _nearby_candidates(dom: DomainSpec, z: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    t = max(-float(dom.r_val(z)), 1e-12)
    u = normal_direction(dom, z)
    pd = Polydisc(z, u, 0.35 * np.sqrt(t), 0.35 * t)
    return pd.sample(count, rng)


# -- cutoff families ----------------------------------------------------------------


def distance_to_deep_set(dom: DomainSpec, pts: np.ndarray, t: float) -> np.ndarray:
    """Estimator distance from each point to the region {-r >= t}.

    Zero inside the region; otherwise the chord to the inward-normal point
    at depth t, an upper bound by construction.
    """
    pts = np.asarray(pts, complex).reshape(-1, dom.n)
    inside = -dom.r_val(pts) >= t
    out = np.zeros(len(pts))
    if np.any(~inside):
        zs = pts[~inside]
        anchors = walk_to_depth(dom, zs, t)
        out[~inside] = straight_chord_upper(dom, zs, anchors)
    return out


def cutoff_family(dom: DomainSpec, kind: str, t: float, delta: float):
    """Lipschitz cutoffs keyed to the deep region {-r >= t}.

    kind "lambda": 1 on the deep region, sloping to 0 at estimator distance
    1/delta; kind "phi": 0 on the deep region, rising to 1 at distance
    1/delta, hence supported where -r < t.  A t beyond the sampled depth
    maximum :func:`_domain_depth_max` leaves the deep region empty and raises.
    """
    if t <= 0 or delta <= 0:
        raise OperatorError("cutoff parameters must be positive")
    if _domain_depth_max(dom) < t:
        raise OperatorError("deep region is empty at this threshold")

    if kind == "lambda":

        def g(pts):
            d = distance_to_deep_set(dom, pts, t)
            return np.clip(1.0 - delta * d, 0.0, 1.0)

    elif kind == "phi":

        def g(pts):
            d = distance_to_deep_set(dom, pts, t)
            return np.clip(delta * d, 0.0, 1.0)

    else:
        raise OperatorError(f"unknown cutoff kind {kind!r}")

    return g


# -- discrete sums and localization ---------------------------------------------------


def discrete_sum_matrix(space: GalerkinSpace, points: np.ndarray, coeffs: np.ndarray) -> OperatorMatrix:
    """Sum of c_z k_z (x) k_z over the point family, truncated."""
    points = np.asarray(points, complex).reshape(-1, space.n)
    coeffs = np.asarray(coeffs, complex).reshape(-1)
    if len(points) != len(coeffs):
        raise OperatorError("coefficient count mismatch")
    mat = np.zeros((space.dim, space.dim), complex)
    for c, z in zip(coeffs, points):
        u = space.kernel_coeffs(z)
        mat += c * np.outer(u, np.conj(u))
    return OperatorMatrix(mat, "discrete-sum")


def loc_assemble(space: GalerkinSpace, A: OperatorMatrix, cutoffs: list) -> OperatorMatrix:
    """Sum of T_f A T_f over the cutoff family."""
    total = np.zeros((space.dim, space.dim), complex)
    for f in cutoffs:
        tf = toeplitz_matrix(space, f).matrix
        total += tf @ A.matrix @ tf
    return OperatorMatrix(total, "LOC")


def offdiag_split_search(space: GalerkinSpace, A: OperatorMatrix, f_list: list) -> dict:
    """Witness (gamma, E) with ||sum_{j!=k} T_j A T_k|| <= 4(||T_F' A T_G|| + ||T_G' A T_F||).

    Exhaustive over subsets and fourth-root-of-unity phases; the first
    witness wins.  Symbols must have pairwise disjoint supports.
    """
    ell = len(f_list)
    if ell > 12:
        raise OperatorError("witness search capped at 12 symbols")
    T = [toeplitz_matrix(space, f).matrix for f in f_list]
    Am = A.matrix
    total = sum(T)
    S = total @ Am @ total - sum(t @ Am @ t for t in T)
    lhs = float(np.linalg.norm(S, 2)) if ell else 0.0
    phases = [1.0, -1.0, 1j, -1j]
    for E_mask in range(2**ell):
        E = [k for k in range(ell) if (E_mask >> k) & 1]
        comp = [k for k in range(ell) if k not in E]
        TF = sum((T[k] for k in E), np.zeros_like(Am))
        TG = sum((T[k] for k in comp), np.zeros_like(Am))
        for gamma in itertools.product(phases, repeat=ell):
            TFp = sum((gamma[k] * T[k] for k in E), np.zeros_like(Am))
            TGp = sum((gamma[k] * T[k] for k in comp), np.zeros_like(Am))
            rhs = 4.0 * (np.linalg.norm(TFp @ Am @ TG, 2) + np.linalg.norm(TGp @ Am @ TF, 2))
            if lhs <= rhs + 1e-12:
                return {
                    "gamma": list(gamma),
                    "E": E,
                    "lhs": lhs,
                    "rhs": float(rhs),
                    "found": True,
                }
    return {"gamma": None, "E": None, "lhs": lhs, "rhs": None, "found": False}


# -- compactness diagnostics -----------------------------------------------------------


def compactness_report(space: GalerkinSpace, A: OperatorMatrix, seed: int = 0) -> dict:
    """Berezin, off-diagonal and singular-value tails of a truncated operator.

    The boundary grid is the depths 2^(-k/2), k = 1, 2, ..., 39, walking
    toward the boundary; it stops at the :func:`resolution_limit`.  At each
    depth the off-diagonal entry is the largest over 6 nearby partners
    whose straight chord from the base point is shorter than 2; the
    singular-value tail is the share of the singular values beyond the
    degree N - 2 head.
    """
    dom = _ball_domain(space.n)
    limit = resolution_limit(space)
    depths = 2.0 ** (-np.arange(1, 40) * 0.5)
    depths = depths[depths >= limit]
    if len(depths) == 0:
        raise OperatorError("empty boundary grid after the resolution clamp")

    rng = np.random.default_rng(seed)
    berezin_by_depth = []
    offdiag_by_depth = []
    for t in depths:
        z = np.zeros(space.n, complex)
        z[0] = np.sqrt(1 - t)
        b = abs(berezin(space, A, z))
        v = space.kernel_coeffs(z)
        v = v / np.linalg.norm(v)
        off = 0.0
        for _ in range(6):
            w = _nearby_candidates(dom, z, rng, 1)[0]
            if straight_chord_upper(dom, z, w) >= 2.0:
                continue
            u = space.kernel_coeffs(w)
            u = u / np.linalg.norm(u)
            off = max(off, abs(np.vdot(v, A.matrix @ u)))
        berezin_by_depth.append(b)
        offdiag_by_depth.append(off)

    sv = np.linalg.svd(A.matrix, compute_uv=False)
    head = len(_multi_indices(space.n, max(space.N - 2, 0)))
    total_mass = float(np.sum(sv))
    sv_tail = float(np.sum(sv[head:]) / total_mass) if total_mass > 0 else 0.0

    return {
        "depths": depths.tolist(),
        "berezin": berezin_by_depth,
        "offdiag": offdiag_by_depth,
        "berezin_tail": float(berezin_by_depth[-1]),
        "offdiag_tail": float(offdiag_by_depth[-1]),
        "sv_tail": sv_tail,
        "resolution_limit": float(limit),
    }


def partition_toeplitz_h(space: GalerkinSpace, h, n0: int) -> dict:
    """Assemble T_h for h = indicator of the deep set plus the squared cutoffs.

    The callable ``h`` must keep 1 <= h <= 3*n0 + 1 pointwise; the Hermitian
    compression then has spectrum inside [1 - 1e-6, 3*n0 + 1 + 1e-6] and a
    bounded inverse.
    """
    T = toeplitz_matrix(space, h, "T_h")
    M = 0.5 * (T.matrix + T.matrix.conj().T)
    evals, evecs = np.linalg.eigh(M)
    lo, hi = float(evals[0]), float(evals[-1])
    ok = lo >= 1.0 - 1e-6 and hi <= 3 * n0 + 1 + 1e-6
    inv_norm = 1.0 / lo if lo > 0 else float("inf")
    out = {"T_h": T, "eig_min": lo, "eig_max": hi, "inv_norm": inv_norm, "ok": bool(ok)}
    if not ok:
        out["witness_vector"] = evecs[:, 0].tolist()
    return out


# -- persistence ------------------------------------------------------------------------


def save_operator(path: str, op: OperatorMatrix, n: int, N: int) -> None:
    """Row-major little-endian float64 (re, im) pairs plus a JSON sidecar."""
    dim = op.matrix.shape[0]
    with open(path, "wb") as fh:
        np.ascontiguousarray(op.matrix).astype("<c16").tofile(fh)
    with open(path + ".json", "w") as fh:
        json.dump({"n": n, "N": N, "label": op.label, "dim": dim}, fh, sort_keys=True)


def load_operator(path: str) -> tuple[OperatorMatrix, dict]:
    with open(path + ".json") as fh:
        meta = json.load(fh)
    dim = int(meta["dim"])
    mat = np.fromfile(path, dtype="<c16").reshape(dim, dim)
    return OperatorMatrix(mat, meta.get("label", "")), meta
