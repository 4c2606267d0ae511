"""Boundary gauges and Forelli-Rudin-type integral estimators.

Three scalar fields drive the kernel estimates: the second-order Taylor
remainder X(z, w) of the defining function in the w slot, the anisotropic
gauge rho(z, w) = |z-w|^2 + |<z-w, dbar r(z)>|, and the comparability scale
F(z, w) = |r(z)| + |r(w)| + rho(z, w).  Integrals of |r(w)|^kappa / F^p over
the domain concentrate near the boundary, so the Monte-Carlo estimators
split the domain into a bulk (uniform rejection) and a boundary layer
sampled along rays from the star center with an exact importance density.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, pi

import numpy as np
from scipy.special import betainc

from .domain import DomainSpec, _horner, _line_root, box_uniform, surface_pool
from .metric import straight_chord_upper


class GaugeError(ValueError):
    pass


@dataclass(frozen=True)
class GaugeValue:
    X: complex
    rho: float
    F: float


# -- pointwise gauges -----------------------------------------------------------


def taylor_remainder(dom: DomainSpec, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X(z, w): -r(w) minus the holomorphic second-order expansion in w.

    Vectorized over the leading axes of ``w``; ``z`` is a single point.
    """
    z = np.asarray(z, complex).reshape(-1)
    w = np.asarray(w, complex)
    diff = z - w  # (..., n)
    out = -dom.r_val(w).astype(complex)
    d_r = np.conj(dom.dbar_r(w))  # d r / d w_j  (r real)
    for j in range(dom.n):
        out = out - d_r[..., j] * diff[..., j]
    hol = dom._holo_hess_polys()
    for j in range(dom.n):
        for k_ in range(dom.n):
            out = out - 0.5 * hol[j][k_](w) * diff[..., j] * diff[..., k_]
    return out


def normal_gauge(dom: DomainSpec, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """rho(z, w) = |z-w|^2 + |<z-w, dbar r(z)>|, vectorized over w."""
    z = np.asarray(z, complex).reshape(-1)
    return gauge_of_offsets(z - np.asarray(w, complex), dom.dbar_r(z))


def gauge_of_offsets(diff: np.ndarray, g: np.ndarray) -> np.ndarray:
    """|diff|^2 + |<diff, g>| per row: rho(z, w) for diff = z - w and g = dbar r(z).

    ``g`` broadcasts against ``diff``: one gradient, or one per row.
    Negating ``diff`` leaves every bit of the value unchanged.
    """
    pairing = np.einsum("...i,...i->...", diff, np.conj(g))
    return np.sum(np.abs(diff) ** 2, axis=-1) + np.abs(pairing)


def comparability_scale(dom: DomainSpec, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """F(z, w) = |r(z)| + |r(w)| + rho(z, w)."""
    return np.abs(dom.r_val(z)) + np.abs(dom.r_val(w)) + normal_gauge(dom, z, w)


def gauge_eval(dom: DomainSpec, z: np.ndarray, w: np.ndarray) -> GaugeValue:
    X = complex(taylor_remainder(dom, z, np.asarray(w, complex).reshape(-1)))
    rho = float(normal_gauge(dom, z, np.asarray(w, complex).reshape(-1)))
    F = float(abs(dom.r_val(np.asarray(z, complex))) + abs(dom.r_val(np.asarray(w, complex))) + rho)
    return GaugeValue(X=X, rho=rho, F=F)


# -- star-shaped ray field -------------------------------------------------------


def _sphere_area(real_dim: int) -> float:
    return 2.0 * pi ** (real_dim / 2.0) / gamma(real_dim / 2.0)


class RayField:
    """Radial structure of a domain star-shaped about the origin.

    Supplies boundary radii along directions and depth-targeted samples with
    an exact importance density, which is what makes thin boundary layers
    integrable at Monte-Carlo cost.
    """

    def __init__(self, dom: DomainSpec):
        if dom.r_val(np.zeros(dom.n, complex)) >= 0:
            raise GaugeError("ray sampler requires the origin inside the domain")
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
        half = 0.5 * float(betainc((d - 1) / 2.0, 0.5, 1.0 - cos_cap**2))
        return half if cos_cap >= 0 else 1.0 - half

    def cap_directions(self, axis: np.ndarray, cos_cap: float, count: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform directions in the spherical cap around ``axis`` (complex n-vector)."""
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
        env = max((1.0 - cos_cap**2) ** ((d - 3) / 2.0), 1e-300)
        hs = np.empty(0)
        while len(hs) < count:
            m = max(4 * count, 1024)
            cand = rng.uniform(cos_cap, 1.0, m)
            acc = rng.uniform(0, env, m) < (1.0 - cand**2) ** ((d - 3) / 2.0)
            hs = np.concatenate([hs, cand[acc]])
        hs = hs[:count]
        # tangential part: uniform on the (d-2)-sphere orthogonal to ax
        g = rng.standard_normal((count, d))
        g -= np.outer(g @ ax, ax)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        x = hs[:, None] * ax[None, :] + np.sqrt(np.maximum(1 - hs**2, 0.0))[:, None] * g
        return self._to_complex(x, self.dom.n)

    def _ray_coefficients(self, omega: np.ndarray) -> np.ndarray:
        """c[k, m] with r(s * omega[m]) = sum_k c[k, m] * s**k for real s."""
        return np.stack([np.real(p(omega)) for p in self._parts])

    def boundary_radius(self, omega: np.ndarray) -> np.ndarray:
        """Smallest s > 0 with r(s * omega) = 0 along each direction."""
        coef = self._ray_coefficients(omega)
        s_hi = np.full(len(omega), 0.25)
        for _ in range(60):
            grow = _horner(coef, s_hi)[0] < 0
            if not np.any(grow):
                break
            s_hi[grow] *= 1.5
        zero = np.zeros(len(omega))
        return _line_root(lambda s, idx: _horner(coef[:, idx], s), zero, zero, s_hi)

    def _radial_slope(self, omega: np.ndarray, s: np.ndarray) -> np.ndarray:
        """d(-r)/ds along the ray; positive approaching the boundary from inside."""
        pts = s[:, None] * omega
        g = self.dom.dbar_r(pts)
        return -2.0 * np.real(np.einsum("mi,mi->m", np.conj(omega), g))

    def solve_depth(self, omega: np.ndarray, radius: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """s with -r(s*omega) = target, searching inward from the boundary."""
        coef = self._ray_coefficients(omega)
        s_lo = np.zeros_like(radius)
        # bracket: walk inward until -r >= target
        frac = np.full(len(radius), 0.5)
        for _ in range(200):
            cand = radius * frac
            deep = -_horner(coef, cand)[0] >= targets
            s_lo = np.where(deep & (s_lo == 0), cand, s_lo)
            frac = np.where(s_lo == 0, frac * 0.7, frac)
            if np.all(s_lo > 0):
                break
        if np.any(s_lo == 0):
            raise GaugeError("depth target unreachable along some ray")
        level = np.broadcast_to(-np.asarray(targets, float), radius.shape)
        return _line_root(lambda s, idx: _horner(coef[:, idx], s), level, s_lo, radius)

    def layer_sample(
        self,
        depth_lo: float,
        depth_hi: float,
        count: int,
        rng: np.random.Generator,
        focus: tuple[np.ndarray, float] | None = None,
        focus_weight: float = 0.5,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Points with -r in [depth_lo, depth_hi], log-uniform in depth.

        ``focus = (axis, cos_cap)`` mixes in directions concentrated in the
        spherical cap around ``axis``, which is what keeps the variance of
        gauge-localized integrands finite.  Returns (points, density) where
        density is the exact Lebesgue pdf of each drawn point, so 1/density
        importance weights are unbiased.
        """
        if not (0 < depth_lo < depth_hi):
            raise GaugeError("need 0 < depth_lo < depth_hi")
        if focus is None:
            omega = self.directions(count, rng)
            dir_density = np.full(count, 1.0 / self.sphere_area)
        else:
            axis, cos_caps = focus
            cos_caps = np.atleast_1d(np.asarray(cos_caps, float))
            fracs = np.array([self.cap_fraction(c) for c in cos_caps])
            n_cap_total = int(round(focus_weight * count))
            per_cap = np.full(len(cos_caps), n_cap_total // len(cos_caps))
            per_cap[: n_cap_total - int(np.sum(per_cap))] += 1
            parts = [self.directions(count - n_cap_total, rng)]
            for c, m in zip(cos_caps, per_cap):
                if m > 0:
                    parts.append(self.cap_directions(np.asarray(axis, complex), float(c), int(m), rng))
            omega = np.concatenate(parts, axis=0)
            ax = self._to_real(np.asarray(axis, complex).reshape(1, -1))[0]
            ax /= np.linalg.norm(ax)
            height = self._to_real(omega) @ ax
            dir_density = np.full(len(omega), (1.0 - focus_weight) / self.sphere_area)
            for c, frac in zip(cos_caps, fracs):
                in_cap = height >= c
                dir_density = dir_density + np.where(
                    in_cap, focus_weight / (len(cos_caps) * self.sphere_area * frac), 0.0
                )
        radius = self.boundary_radius(omega)
        u = np.exp(rng.uniform(np.log(depth_lo), np.log(depth_hi), count))
        s = self.solve_depth(omega, radius, u)
        pts = s[:, None] * omega
        slope = np.abs(self._radial_slope(omega, s))
        slope = np.maximum(slope, 1e-14)
        p_u = 1.0 / (u * np.log(depth_hi / depth_lo))
        density = p_u * slope * dir_density / (s ** (2 * self.dom.n - 1))
        return pts, density


def _ray_field(dom: DomainSpec) -> RayField:
    return dom.memo("rayfield", lambda: RayField(dom))


# -- integral estimators ---------------------------------------------------------


def _bulk_sample(dom: DomainSpec, t_split: float, count: int, rng: np.random.Generator):
    """Uniform samples of {-r >= t_split} with their exact density."""
    box = dom.bounding_box
    vol_box = float(np.prod(box[:, 1] - box[:, 0]))
    kept = []
    drawn = 0
    hits = 0
    while sum(len(k) for k in kept) < count and drawn < 400 * max(count, 1):
        m = max(2 * count, 8192)
        zz = box_uniform(dom, m, rng)
        drawn += m
        sel = zz[-dom.r_val(zz) >= t_split]
        hits += len(sel)
        if len(sel):
            kept.append(sel)
    if not kept:
        raise GaugeError("bulk sampler found no interior points")
    pts = np.concatenate(kept, axis=0)[:count]
    vol_est = vol_box * hits / drawn
    density = np.full(len(pts), 1.0 / max(vol_est, 1e-300))
    return pts, density


def _chord_with_center_detour(dom: DomainSpec, z: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Upper bound on d(z, w): direct chord or the detour through the center."""
    direct = straight_chord_upper(dom, z, pts)
    center = np.zeros(dom.n, complex)
    to_center = float(straight_chord_upper(dom, z[None, :] if z.ndim == 1 else z, center[None, :])[0])
    from_center = straight_chord_upper(dom, center, pts)
    return np.minimum(direct, to_center + from_center)


def fr_integral(
    dom: DomainSpec,
    z: np.ndarray,
    kappa: float,
    a: float,
    mode: str = "plain",
    tail_radius: float | None = None,
    samples: int = 200000,
    seed: int = 0,
    depth_floor: float | None = None,
) -> dict:
    """Monte-Carlo estimate of the boundary-weighted kernel integral.

    mode "plain":  integral of |r(w)|^kappa / F(z,w)^(n+1+kappa+a) over the
                   domain (power-law growth in |r(z)| is the object of the
                   exponent regressions).
    mode "tail":   same integrand times |r(z)|^a, restricted to the
                   complement of the metric ball of radius ``tail_radius``;
                   membership uses the chord upper bound, which keeps a
                   superset of the true complement (safe for decay checks).
    mode "weight": integrand of the plain mode times |r(z)|^a times the
                   distance upper bound d(z, w).

    Estimates are stratified: uniform rejection on the bulk plus a ray-importance
    boundary layer, split across dyadic depth bands.
    """
    if kappa <= -1:
        raise GaugeError("kappa must exceed -1")
    if mode not in ("plain", "tail", "weight"):
        raise GaugeError(f"unknown mode {mode!r}")
    if mode == "tail" and tail_radius is None:
        raise GaugeError("tail mode needs tail_radius")
    z = np.asarray(z, complex).reshape(-1)
    rz = abs(float(dom.r_val(z)))
    power = dom.n + 1 + kappa + a

    t_split = min(dom.theta, 2.0 ** (-3))
    if depth_floor is None:
        depth_floor = min(rz * 2.0 ** (-12), 2.0 ** (-24))
        if mode == "tail":
            # the surviving mass at exclusion radius R sits at depth
            # ~ exp(-2R) relative to the domain scale; keep sampling it
            depth_floor = min(depth_floor, max(rz * np.exp(-2.0 * (tail_radius + 4.0)), 2.0 ** (-44)))

    def integrand(pts: np.ndarray) -> np.ndarray:
        rw = np.abs(dom.r_val(pts))
        F = rz + rw + normal_gauge(dom, z, pts)
        vals = rw**kappa / F**power
        if mode == "tail":
            vals = vals * rz**a
            d_up = _chord_with_center_detour(dom, z, pts)
            vals = np.where(d_up >= tail_radius, vals, 0.0)
        elif mode == "weight":
            vals = vals * rz**a * _chord_with_center_detour(dom, z, pts)
        return vals

    res = layered_mc_integral(dom, z, integrand, samples=samples, seed=seed, depth_floor=depth_floor,
                              t_split=t_split)
    if res["estimate"] < -1e-12:
        raise GaugeError("negative integral estimate signals a sampler bug")
    return res


def layered_mc_integral(
    dom: DomainSpec,
    z: np.ndarray,
    integrand,
    samples: int = 100000,
    seed: int = 0,
    depth_floor: float | None = None,
    t_split: float | None = None,
) -> dict:
    """Monte-Carlo integral over the domain for boundary-concentrated integrands.

    Uniform rejection covers the bulk; the boundary layer is sampled along
    rays in dyadic depth bands with a Neyman-style allocation from a pilot
    pass and a multi-scale directional focus toward z.
    """
    z = np.asarray(z, complex).reshape(-1)
    rz = abs(float(dom.r_val(z)))
    rng = np.random.default_rng(seed)
    rays = _ray_field(dom)
    if t_split is None:
        t_split = min(dom.theta, 2.0 ** (-3))
    if depth_floor is None:
        depth_floor = min(rz * 2.0 ** (-12), 2.0 ** (-24))

    z_norm = float(np.linalg.norm(z))
    bands = []
    hi = t_split
    while hi > depth_floor * 1.0001:
        lo = max(hi / 2.0, depth_floor)
        bands.append((lo, hi))
        hi = lo

    def band_focus(hi_band: float):
        if z_norm < 0.2:
            return None
        # dyadic ladder of caps from the core scale sqrt(depth) out to the
        # widest gauge shell that still matters
        theta_hi = min(0.5 * pi, 12.0 * np.sqrt(max(rz, hi_band)) / z_norm)
        theta_lo = max(0.25 * np.sqrt(min(rz, hi_band)) / z_norm, 1e-8)
        caps = []
        th = theta_hi
        while th > theta_lo and len(caps) < 24:
            caps.append(float(np.cos(th)))
            th /= 2.0
        caps.append(float(np.cos(max(theta_lo, 1e-8))))
        return (z / z_norm, caps)

    n_bulk = max(samples // 4, 2048)
    n_layer = samples - n_bulk
    pilot_per_band = max(min(1500, n_layer // max(4 * len(bands), 1)), 200)

    # pilot pass fixes a Neyman-style allocation; the estimate uses the main
    # pass only, so it stays unbiased
    stds = []
    for lo, hi_band in bands:
        pts_l, dens_l = rays.layer_sample(lo, hi_band, pilot_per_band, rng, focus=band_focus(hi_band))
        w_l = integrand(pts_l) / dens_l
        stds.append(max(float(np.std(w_l)), 1e-12 * max(float(np.mean(np.abs(w_l))), 1e-300)))
    weights = np.sqrt(np.asarray(stds))
    weights = weights / np.sum(weights)
    alloc = np.maximum((n_layer * weights).astype(int), 256)

    pts_b, dens_b = _bulk_sample(dom, t_split, n_bulk, rng)
    w_b = integrand(pts_b) / dens_b / len(pts_b)
    total = float(np.sum(w_b))
    var = float(np.var(w_b)) * len(w_b)
    for (lo, hi_band), n_b in zip(bands, alloc):
        pts_l, dens_l = rays.layer_sample(lo, hi_band, int(n_b), rng, focus=band_focus(hi_band))
        w_l = integrand(pts_l) / dens_l / len(pts_l)
        total += float(np.sum(w_l))
        var += float(np.var(w_l)) * len(w_l)
    return {"estimate": total, "stderr": float(np.sqrt(max(var, 0.0)))}


def exponent_regression(depths: np.ndarray, estimates: np.ndarray) -> dict:
    """Least-squares slope of log(estimate) against log(depth), with R^2."""
    x = np.log(np.asarray(depths, float))
    y = np.log(np.asarray(estimates, float))
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    yhat = A @ coef
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(coef[0]), "intercept": float(coef[1]), "r2": r2}


# -- surface caps ---------------------------------------------------------------


def cap_contains(dom: DomainSpec, zeta: np.ndarray, t: float, xi: np.ndarray) -> np.ndarray:
    """Anisotropic boundary cap membership: rho-type gauge at zeta below t."""
    return normal_gauge(dom, zeta, xi) < t


def cap_measure(
    dom: DomainSpec,
    zeta: np.ndarray,
    t: float,
    rho: float = 0.0,
    samples: int = 20000,
    seed: int = 0,
) -> dict:
    """Surface measure of the cap around zeta on the level surface {-r = rho}."""
    if t <= 0:
        raise GaugeError("cap radius must be positive")
    zeta = np.asarray(zeta, complex).reshape(-1)
    pts, area = surface_pool(dom, rho, samples, seed)
    member = cap_contains(dom, zeta, t, pts)
    frac = float(np.mean(member))
    if frac == 0.0:
        raise GaugeError("empty cap at the sampler resolution")
    sigma = frac * area
    stderr = area * float(np.sqrt(frac * (1 - frac) / len(pts)))
    return {"sigma": sigma, "stderr": stderr, "surface_area": area}


def shell_volume(
    dom: DomainSpec,
    z: np.ndarray,
    k: int,
    j: int,
    samples: int = 40000,
    seed: int = 0,
) -> dict:
    """Lebesgue volume of the dyadic depth/gauge shell around z.

    The shell holds points whose depth lies in (2^(k-1) t, 2^k t] for
    t = |r(z)| and whose gauge distance to z is at most 2^(k+j) t; the
    returned ratio divides by 2^(n j) (2^k t)^(n+1), the scale of the
    volume upper bound.
    """
    z = np.asarray(z, complex).reshape(-1)
    t = abs(float(dom.r_val(z)))
    lo, hi = 2.0 ** (k - 1) * t, 2.0**k * t
    rng = np.random.default_rng(seed)
    rays = _ray_field(dom)
    dmax = _domain_depth_max(dom)
    if lo >= dmax:
        return {"volume": 0.0, "stderr": 0.0, "bound_ratio": 0.0}
    hi_eff = min(hi, dmax * 0.999)
    pts, dens = rays.layer_sample(lo, hi_eff, samples, rng)
    member = (normal_gauge(dom, z, pts) <= 2.0 ** (k + j) * t) & (-dom.r_val(pts) > lo) & (
        -dom.r_val(pts) <= hi
    )
    w = np.where(member, 1.0 / dens, 0.0) / len(pts)
    vol = float(np.sum(w))
    stderr = float(np.sqrt(np.var(w) * len(w)))
    denom = 2.0 ** (dom.n * j) * (2.0**k * t) ** (dom.n + 1)
    return {"volume": vol, "stderr": stderr, "bound_ratio": vol / denom}


def _domain_depth_max(dom: DomainSpec) -> float:
    def build():
        zz = box_uniform(dom, 20000, np.random.default_rng(12345))
        return float(np.max(-dom.r_val(zz)))

    return dom.memo("depthmax", build)


def shell_index_of(dom: DomainSpec, z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dyadic indices (k, j) of w relative to z: depth ratio band and gauge band."""
    z = np.asarray(z, complex).reshape(-1)
    t = abs(float(dom.r_val(z)))
    rw = np.abs(dom.r_val(w))
    k = np.ceil(np.log2(np.maximum(rw, 1e-300) / t)).astype(int)
    g = normal_gauge(dom, z, w)
    j = np.maximum(np.ceil(np.log2(np.maximum(g, 1e-300) / (2.0 ** k * t))), 0).astype(int)
    return k, j
