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

import functools
from math import pi

import numpy as np

from .domain import DomainSpec, RayField, _box_reject, _domain_depth_max, _ray_field, surface_sample  # noqa: F401  (RayField: re-export)
from .metric import straight_chord_upper


# smallest cap angle of a focus ladder; its cosine must stay below 1.0, which
# float64 rounds cos(theta) to for theta below about 1.05e-8
_CAP_ANGLE_MIN = 2e-8


class GaugeError(ValueError):
    pass


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
    hol = dom.derivatives(w, 2, 0)
    for j in range(dom.n):
        for k_ in range(dom.n):
            out = out - 0.5 * hol[..., j, k_] * diff[..., j] * diff[..., k_]
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


# -- integral estimators ---------------------------------------------------------


def _bulk_sample(dom: DomainSpec, t_split: float, count: int, rng: np.random.Generator):
    """Uniform samples of {-r >= t_split}, their density, and the variance of the volume behind it.

    The density is 1 / V with V = vol_box * hits / drawn, the box-hit
    estimate of the volume; its variance is vol_box^2 p (1 - p) / drawn
    for the hit fraction p.
    """
    box = dom.bounding_box
    vol_box = float(np.prod(box[:, 1] - box[:, 0]))
    block = max(2 * count, 8192)
    pts, hits, drawn = _box_reject(dom, lambda rv: -rv >= t_split, count, rng, block,
                                   -(-400 * max(count, 1) // block))
    if not hits:
        raise GaugeError("bulk sampler found no interior points")
    vol_est = vol_box * hits / drawn
    density = np.full(len(pts), 1.0 / max(vol_est, 1e-300))
    frac = hits / drawn
    return pts, density, vol_box**2 * frac * (1.0 - frac) / drawn


def _chord_with_center_detour(dom: DomainSpec, z: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Upper bound on d(z, w): direct chord or the detour through the center."""
    direct = straight_chord_upper(dom, z, pts)
    center = np.zeros(dom.n, complex)
    to_center = straight_chord_upper(dom, z, center)
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
    boundary layer, split across dyadic depth bands down to the depth floor
    of :func:`layered_mc_integral`; tail mode lowers that floor to where
    the mass outside the metric ball sits.
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

    depth_floor = None
    if mode == "tail":
        # the surviving mass at exclusion radius R sits at depth
        # ~ exp(-2R) relative to the domain scale; keep sampling it
        depth_floor = max(rz * np.exp(-2.0 * (tail_radius + 4.0)), 2.0 ** (-44))

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

    res = layered_mc_integral(dom, z, integrand, samples=samples, seed=seed, depth_floor=depth_floor)
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
) -> dict:
    """Monte-Carlo integral over the domain for boundary-concentrated integrands.

    Uniform rejection covers the bulk {-r >= t_split}, t_split =
    min(theta, 1/8).  The boundary layer down to the depth floor
    min(|r(z)|/2^12, 2^-24), lowered further to ``depth_floor`` when one is
    given, is sampled along rays in dyadic depth bands with a Neyman-style
    allocation from a pilot pass and a multi-scale directional focus
    toward z.

    ``integrand`` maps an (m, n) array of points to m real values, row by
    row: a value may depend only on its own point, because the layer's
    points reach it in chunks of ``_PASS_CHUNK`` that cut across bands.
    The stderr includes the spread of the bulk's estimated volume.
    """
    z = np.asarray(z, complex).reshape(-1)
    rz = abs(float(dom.r_val(z)))
    rng = np.random.default_rng(seed)
    rays = _ray_field(dom)
    t_split = min(dom.theta, 2.0 ** (-3))
    bands, focus = _layer_bands(rays, z, rz, t_split, depth_floor)
    n_bulk = max(samples // 4, 2048)
    n_layer = samples - n_bulk
    pilot_per_band = max(min(1500, n_layer // max(4 * len(bands), 1)), 200)

    # pilot pass fixes a Neyman-style allocation; the estimate uses the main
    # pass only, so it stays unbiased
    pilot = [pilot_per_band] * len(bands)
    stds = []
    for w_l in _layer_pass(rays, bands, focus, pilot, integrand, rng):
        stds.append(max(float(np.std(w_l)), 1e-12 * max(float(np.mean(np.abs(w_l))), 1e-300)))
    weights = np.sqrt(np.asarray(stds))
    weights = weights / np.sum(weights)
    alloc = np.maximum((n_layer * weights).astype(int), 256)

    pts_b, dens_b, vol_var = _bulk_sample(dom, t_split, n_bulk, rng)
    f_b = integrand(pts_b)
    w_b = f_b / dens_b / len(pts_b)
    total = float(np.sum(w_b))
    # the bulk's volume is itself estimated: its variance enters by the delta method
    var = float(np.var(w_b)) * len(w_b) + float(np.mean(f_b)) ** 2 * vol_var
    for w_l in _layer_pass(rays, bands, focus, alloc, integrand, rng):
        w_l = w_l / len(w_l)
        total += float(np.sum(w_l))
        var += float(np.var(w_l)) * len(w_l)
    return {"estimate": total, "stderr": float(np.sqrt(max(var, 0.0)))}


def _layer_bands(rays: RayField, z: np.ndarray, rz: float, t_split: float, depth_floor: float | None):
    """The dyadic depth bands of :func:`layered_mc_integral`, deepest last, and each band's focus.

    A band's focus is None for z near the center, and otherwise the
    :meth:`RayField.layer_sample` ladder of caps around z.
    """
    floor = min(rz * 2.0 ** (-12), 2.0 ** (-24))
    depth_floor = floor if depth_floor is None else min(floor, depth_floor)
    z_norm = float(np.linalg.norm(z))
    bands = []
    hi = t_split
    while hi > depth_floor * 1.0001:
        lo = max(hi / 2.0, depth_floor)
        bands.append((lo, hi))
        hi = lo

    # the bands deeper than |r(z)| share most of their ladder: one cap fraction per cosine
    fraction = functools.cache(rays.cap_fraction)

    def band_focus(hi_band: float):
        if z_norm < 0.2:
            return None
        # dyadic ladder of caps from the core scale sqrt(depth) out to the
        # widest gauge shell that still matters
        theta_hi = min(0.5 * pi, 12.0 * np.sqrt(max(rz, hi_band)) / z_norm)
        theta_lo = max(0.25 * np.sqrt(min(rz, hi_band)) / z_norm, _CAP_ANGLE_MIN)
        caps = []
        th = theta_hi
        while th > theta_lo and len(caps) < 24:
            caps.append(float(np.cos(th)))
            th /= 2.0
        caps.append(float(np.cos(theta_lo)))
        return (z / z_norm, caps, [fraction(c) for c in caps])

    return bands, [band_focus(hi_band) for _, hi_band in bands]


# lines placed and integrated at once by a layer pass: few enough that the
# root solves' work arrays stay small, many enough to amortise numpy's
# per-call cost
_PASS_CHUNK = 4096


def _layer_pass(rays: RayField, bands, focus, counts, integrand, rng: np.random.Generator) -> list[np.ndarray]:
    """integrand / density on ``counts[i]`` :meth:`RayField.layer_sample` lines of each band.

    Every band is drawn first, in band order, into arrays that hold the
    whole pass; the lines are then placed and integrated ``_PASS_CHUNK``
    at a time.  Returns one array per band, bit for bit what the band's
    own ``layer_sample`` and integrand call give.
    """
    total = int(np.sum(counts))
    omega = np.empty((total, rays.dom.n), complex)
    factors = np.empty((3, total))  # u, p_u, dir_density
    start = 0
    for (lo, hi), f, m in zip(bands, focus, counts):
        omega_l, *factors_l = rays.layer_draw(lo, hi, int(m), rng, focus=f)
        omega[start:start + m] = omega_l
        factors[:, start:start + m] = factors_l
        start += m
    vals = np.empty(total)
    for i in range(0, total, _PASS_CHUNK):
        pts, dens = rays.layer_place(omega[i:i + _PASS_CHUNK], *factors[:, i:i + _PASS_CHUNK])
        vals[i:i + _PASS_CHUNK] = integrand(pts) / dens
    return np.split(vals, np.cumsum(counts)[:-1])


def exponent_regression(depths: np.ndarray, estimates: np.ndarray, rel_stderr=None) -> dict:
    """Least-squares slope of log(estimate) against log(depth), with R^2.

    Given each estimate's relative stderr, var(log estimate) ~ rel_stderr^2
    is propagated through the fit into the slope's stderr ("slope_stderr"),
    treating the estimates as independent.
    """
    x = np.log(np.asarray(depths, float))
    y = np.log(np.asarray(estimates, float))
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    yhat = A @ coef
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    out = {"slope": float(coef[0]), "intercept": float(coef[1]), "r2": r2}
    if rel_stderr is not None:
        # the slope is sum_i w_i y_i with w_i = (x_i - mean x) / sum_k (x_k - mean x)^2
        w = (x - np.mean(x)) / np.sum((x - np.mean(x)) ** 2)
        out["slope_stderr"] = float(np.sqrt(np.sum((w * np.asarray(rel_stderr, float)) ** 2)))
    return out


# -- surface caps ---------------------------------------------------------------


def cap_contains(dom: DomainSpec, zeta: np.ndarray, t: float, xi: np.ndarray) -> np.ndarray:
    """Anisotropic boundary cap membership: rho-type gauge at zeta below t."""
    return normal_gauge(dom, zeta, xi) < t


# the cone around a cap is widened by this relative margin in t, far above the
# rounding of a direction's height, so no cap point falls outside it
_CONE_MARGIN = 1e-12


def cap_measure(dom: DomainSpec, zeta: np.ndarray, t: float, samples: int = 20000, seed: int = 0) -> dict:
    """Surface measure of the cap around zeta on the boundary {r = 0}.

    rho(zeta, xi) >= |zeta - xi|^2, so every cap point lies within
    Euclidean distance sqrt(t) of zeta, and its direction from the origin
    within the cone around zeta/|zeta| of cosine sqrt(1 - t/|zeta|^2); once
    t >= |zeta|^2 the cone is the whole sphere.  The cone is widened by a
    relative ``_CONE_MARGIN`` in t, so rounding in a direction's height
    cannot drop a cap point.  :func:`surface_sample` draws ``samples``
    uniform points of the boundary in that cone; sigma is the cone's
    area times the fraction of them in the cap, and its stderr combines
    the binomial error of that fraction with the stderr of the area.
    """
    if t <= 0:
        raise GaugeError("cap radius must be positive")
    zeta = np.asarray(zeta, complex).reshape(-1)
    norm_sq = float(np.real(np.vdot(zeta, zeta)))
    reach = t * (1.0 + _CONE_MARGIN)
    cone = (zeta, np.sqrt(1.0 - reach / norm_sq)) if reach < norm_sq else None
    pts, area, area_stderr = surface_sample(dom, 0.0, samples, np.random.default_rng(seed), cone)
    hits = int(np.count_nonzero(cap_contains(dom, zeta, t, pts)))
    if hits == 0:
        raise GaugeError("empty cap at the sampler resolution")
    frac = hits / len(pts)
    sigma = frac * area
    stderr = sigma * float(np.sqrt((1.0 - frac) / hits + (area_stderr / area) ** 2))
    return {"sigma": sigma, "stderr": stderr, "surface_area": area, "hits": hits}


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

