import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berglab.domain import unit_ball
from berglab.gauge import (
    GaugeError,
    cap_contains,
    cap_measure,
    comparability_scale,
    exponent_regression,
    fr_integral,
    normal_gauge,
    shell_volume,
    taylor_remainder,
)
from berglab.metric import SCAN_BUDGET, distance, straight_chord_upper
from berglab.domain import normal_direction


def test_gauge_coincident(disc):
    z = np.array([0.4 + 0j])
    assert taylor_remainder(disc, z, z) == pytest.approx(-disc.r_val(z))
    assert normal_gauge(disc, z, z) == 0.0
    assert comparability_scale(disc, z, z) == pytest.approx(2 * abs(disc.r_val(z)))


def test_gauge_disc_hand_arithmetic(disc):
    assert normal_gauge(disc, np.array([0.9 + 0j]), np.array([0.8 + 0j])) == pytest.approx(0.1)


def test_gauge_ball_tangential(ball2):
    assert normal_gauge(ball2, np.array([0.9, 0], complex), np.array([0.9, 0.1], complex)) == pytest.approx(0.01)


@given(
    st.floats(-0.6, 0.6), st.floats(-0.6, 0.6), st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)
)
@settings(max_examples=40, deadline=None)
def test_taylor_remainder_is_exact_on_ball(zx, zy, wx, wy):
    dom = unit_ball(1)
    z = np.array([zx + 1j * zy])
    w = np.array([[wx + 1j * wy]])
    # quadratic defining function: X(z, w) = 1 - <z, w> exactly
    assert taylor_remainder(dom, z, w)[0] == pytest.approx(1 - z[0] * np.conj(w[0, 0]), abs=1e-12)


@given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
@settings(max_examples=30, deadline=None)
def test_scale_definition(zx, zy, wx, wy):
    dom = unit_ball(1)
    z = np.array([zx + 1j * zy])
    w = np.array([[wx + 1j * wy]])
    F = comparability_scale(dom, z, w)[0]
    rho = normal_gauge(dom, z, w)[0]
    assert F == pytest.approx(abs(dom.r_val(z)) + abs(dom.r_val(w[0])) + rho)


def test_comparability_band_near_diagonal(disc):
    # |X| stays within a fixed band of F on near-diagonal samples
    rng = np.random.default_rng(0)
    ratios = []
    for _ in range(200):
        t = 10 ** rng.uniform(-4, -1)
        z = np.array([np.sqrt(1 - t) * np.exp(1j * rng.uniform(0, 0.1))])
        w = z + (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.05 * np.sqrt(t)
        if disc.r_val(w) >= 0:
            continue
        X = abs(taylor_remainder(disc, z, w.reshape(1, -1))[0])
        F = comparability_scale(disc, z, w.reshape(1, -1))[0]
        ratios.append(X / F)
    ratios = np.asarray(ratios)
    assert ratios.max() / ratios.min() <= 40.0
    assert np.all(ratios > 0.01)


def test_symmetry_defect_bounded(disc):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        z = np.array([rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi))])
        w = np.array([[rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi))]])
        F1 = comparability_scale(disc, z, w)[0]
        F2 = comparability_scale(disc, w[0], z.reshape(1, -1))[0]
        worst = max(worst, F2 / F1)
    assert worst <= 3.5


# -- integral estimators ---------------------------------------------------------


def test_fr_rejects_bad_kappa(disc):
    with pytest.raises(GaugeError):
        fr_integral(disc, np.array([0.5 + 0j]), kappa=-1.0, a=1.0)


def test_fr_bounded_negative_exponent(disc):
    ests = []
    for i, k in enumerate((4, 6, 8)):
        z = np.array([np.sqrt(1 - 2.0**-k) + 0j])
        ests.append(fr_integral(disc, z, kappa=0.0, a=-0.5, samples=40000, seed=i)["estimate"])
    assert max(ests) <= 3.0  # stays bounded as z approaches the boundary


def test_fr_growth_exponent_small(disc):
    depths = [2.0**-k for k in range(6, 10)]
    ests = [
        fr_integral(disc, np.array([np.sqrt(1 - t) + 0j]), 0.0, 1.0, samples=50000, seed=i)["estimate"]
        for i, t in enumerate(depths)
    ]
    fit = exponent_regression(depths, ests)
    assert fit["slope"] == pytest.approx(-1.0, abs=0.15)


def test_fr_tail_decreases(disc):
    z = np.array([np.sqrt(1 - 2.0**-6) + 0j])
    vals = [
        fr_integral(disc, z, 0.0, 1.0, mode="tail", tail_radius=R, samples=30000, seed=3)["estimate"]
        for R in (4.0, 7.0, 10.0)
    ]
    assert vals[0] > 0
    assert vals[0] > vals[1] > vals[2] * 0.999


def test_fr_weight_mode_bounded(disc):
    vals = []
    for i, k in enumerate((4, 6, 8)):
        z = np.array([np.sqrt(1 - 2.0**-k) + 0j])
        vals.append(fr_integral(disc, z, 0.0, 1.0, mode="weight", samples=25000, seed=i)["estimate"])
    assert max(vals) <= 5.0


# -- caps and shells ----------------------------------------------------------------


def test_cap_contains_center(disc):
    zeta = np.array([1.0 + 0j])
    assert cap_contains(disc, zeta, 1e-6, zeta.reshape(1, -1))[0]


def test_cap_contains_hand_arithmetic(disc):
    zeta = np.array([1.0 + 0j])
    xi = np.array([[np.exp(0.01j)]])
    g = float(normal_gauge(disc, zeta, xi)[0])
    assert cap_contains(disc, zeta, 0.02, xi)[0]
    assert not cap_contains(disc, zeta, 0.005, xi)[0]
    assert g == pytest.approx(abs(1 - np.exp(0.01j)) ** 2 + abs(1 - np.exp(0.01j)), rel=1e-9)


def test_cap_whole_surface(disc):
    zeta = np.array([1.0 + 0j])
    res = cap_measure(disc, zeta, t=100.0, samples=4000, seed=1)
    assert res["sigma"] == pytest.approx(res["surface_area"])
    assert res["surface_area"] == pytest.approx(2 * np.pi, rel=0.05)


def test_cap_arc_linear_in_t(disc):
    zeta = np.array([1.0 + 0j])
    ts = [0.1 * 2.0**-k for k in range(0, 4)]
    sig = [cap_measure(disc, zeta, t, samples=20000, seed=2)["sigma"] for t in ts]
    fit = exponent_regression(ts, sig)
    assert fit["slope"] == pytest.approx(1.0, abs=0.15)
    # first-order arc length is 2t
    assert sig[-1] == pytest.approx(2 * ts[-1], rel=0.2)


def test_cap_exponent_ball(ball2):
    zeta = np.array([1.0, 0], complex)
    ts = [0.4 * 2.0**-k for k in range(0, 4)]
    sig = [cap_measure(ball2, zeta, t, samples=30000, seed=3)["sigma"] for t in ts]
    fit = exponent_regression(ts, sig)
    assert fit["slope"] == pytest.approx(2.0, abs=0.15)


def _ball2_cap_oracle(t):
    """sigma of the cap around (1, 0) on the unit sphere of C^2, by quadrature.

    On the sphere rho((1, 0), (w, xi_2)) = 2(1 - Re w) + |1 - w|, and the
    surface measure pushed forward to w is 2*pi times area on the unit disc.
    In polar coordinates w = 1 - s e^(i phi) the cap is s < t / (1 + 2 cos phi)
    and the disc is s < 2 cos phi.
    """
    from scipy.integrate import quad

    def half_sq(phi):
        return 0.5 * min(t / (1 + 2 * np.cos(phi)), 2 * np.cos(phi)) ** 2

    return 2 * np.pi * quad(half_sq, -np.pi / 2, np.pi / 2, epsabs=1e-13, epsrel=1e-12, limit=200)[0]


def test_ball2_cap_oracle_values():
    quoted = [0.1934, 0.05258, 0.01381, 0.003546]
    for k, q in enumerate(quoted):
        assert _ball2_cap_oracle(0.3 * 2.0**-k) == pytest.approx(q, abs=0.5 * 10.0 ** np.floor(np.log10(q) - 3))


@pytest.mark.parametrize("seed", [2026, 1])
def test_cap_measure_matches_exact_caps(disc, ball2, seed):
    ts = [0.3 * 2.0**-k for k in range(4)]
    for dom, exact in (
        (disc, lambda t: 4 * np.arcsin((np.sqrt(1 + 4 * t) - 1) / 4)),
        (ball2, _ball2_cap_oracle),
    ):
        zeta = np.eye(1, dom.n, dtype=complex)[0]
        for t in ts:
            res = cap_measure(dom, zeta, t, samples=20000, seed=seed)
            assert abs(res["sigma"] - exact(t)) <= 4 * res["stderr"]
            assert res["stderr"] <= 0.025 * res["sigma"]
            assert 0 < res["hits"] <= 20000


def test_cap_measure_stderr_combines_both_errors(egg):
    zeta = np.array([1.0, 0], complex)
    res = cap_measure(egg, zeta, 0.1, samples=5000, seed=4)
    frac = res["hits"] / 5000
    binomial = res["sigma"] * np.sqrt((1 - frac) / res["hits"])
    # the egg's density over directions varies, so its cone area carries a stderr too
    assert res["stderr"] > binomial
    assert res["sigma"] == pytest.approx(frac * res["surface_area"], rel=1e-15)


def test_slope_stderr_propagates_log_errors():
    ts = np.array([0.3 * 2.0**-k for k in range(4)])
    x = np.log(ts)
    fit = exponent_regression(ts, ts**2, rel_stderr=[0.02] * 4)
    assert fit["slope"] == pytest.approx(2.0)
    assert fit["slope_stderr"] == pytest.approx(0.02 / np.sqrt(np.sum((x - x.mean()) ** 2)), rel=1e-12)
    assert "slope_stderr" not in exponent_regression(ts, ts**2)


def test_shell_volume_scan_bounded(disc):
    z = np.array([0.9 + 0j])
    ratios = [shell_volume(disc, z, k=0, j=j, samples=20000, seed=4)["bound_ratio"] for j in range(5)]
    assert max(ratios) <= 2.0


def test_shell_volume_empty(disc):
    z = np.array([0.9 + 0j])
    res = shell_volume(disc, z, k=8, j=0, samples=1000, seed=4)
    assert res["volume"] == 0.0


def test_shell_volume_positive(disc):
    z = np.array([0.9 + 0j])
    res = shell_volume(disc, z, k=0, j=0, samples=20000, seed=4)
    assert 0 < res["volume"] < np.pi


# -- normal ray checks -------------------------------------------------------------


def test_normal_ray_bounded_distance(disc):
    # marching inward by the boundary gap costs a bounded distance
    worst = 0.0
    for t in (0.05, 0.01, 0.002):
        z = np.array([np.sqrt(1 - t) + 0j])
        u = normal_direction(disc, z)
        w = z - t * u  # s in [r(z), 0] scale
        d = distance(disc, z, w, SCAN_BUDGET)["d_upper"]
        worst = max(worst, d)
    assert worst <= 1.5


def test_normal_ray_depth_growth(disc):
    # -r(z + t u_z) + r(z) >= c|t| for small inward t
    for t in (0.05, 0.01):
        z = np.array([np.sqrt(1 - t) + 0j])
        u = normal_direction(disc, z)
        for s in (-0.01, -0.003):
            gain = -disc.r_val(z + s * u) + disc.r_val(z)
            assert gain >= 0.5 * abs(s)


def _reference_boundary_radius(dom, omega):
    """Bracket and 80-step bisection on r_val, kept as the reference."""
    s_hi = np.full(len(omega), 0.25)
    for _ in range(60):
        grow = dom.r_val(s_hi[:, None] * omega) < 0
        if not np.any(grow):
            break
        s_hi[grow] *= 1.5
    s_lo = np.zeros(len(omega))
    for _ in range(80):
        mid = 0.5 * (s_lo + s_hi)
        inside = dom.r_val(mid[:, None] * omega) < 0
        s_lo = np.where(inside, mid, s_lo)
        s_hi = np.where(inside, s_hi, mid)
    return 0.5 * (s_lo + s_hi)


def _reference_solve_depth(dom, omega, radius, targets):
    s_hi = radius.copy()
    s_lo = np.zeros_like(radius)
    frac = np.full(len(radius), 0.5)
    for _ in range(200):
        cand = s_hi * frac
        deep = -dom.r_val(cand[:, None] * omega) >= targets
        s_lo = np.where(deep & (s_lo == 0), cand, s_lo)
        frac = np.where(s_lo == 0, frac * 0.7, frac)
        if np.all(s_lo > 0):
            break
    for _ in range(80):
        mid = 0.5 * (s_lo + s_hi)
        shallow = -dom.r_val(mid[:, None] * omega) < targets
        s_hi = np.where(shallow, mid, s_hi)
        s_lo = np.where(shallow, s_lo, mid)
    return 0.5 * (s_lo + s_hi)


@pytest.mark.parametrize("name", ["disc", "ball2", "egg", "mixed", "quartic"])
def test_ray_roots_match_reference_bisection(request, name):
    from berglab.gauge import RayField

    dom = request.getfixturevalue(name)
    rays = RayField(dom)
    rng = np.random.default_rng(17)
    omega = rays.directions(2000, rng)
    radius = rays.boundary_radius(omega)
    radius_ref = _reference_boundary_radius(dom, omega)
    assert np.all(np.abs(radius - radius_ref) <= 2e-15 * radius_ref)
    fixed = [np.full(len(omega), 2.0**-k) for k in (44, 30, 16, 8, 4)]
    mixed_targets = np.exp(rng.uniform(np.log(2.0**-44), np.log(0.1), len(omega)))
    for targets in fixed + [np.full(len(omega), 0.1), mixed_targets]:
        s = rays.solve_depth(omega, targets)
        s_ref = _reference_solve_depth(dom, omega, radius_ref, targets)
        assert np.all(np.abs(s - s_ref) <= 2e-15 * s_ref)
    # the boundary radius is the solve at depth 0
    assert rays.solve_depth(omega, 0.0).tobytes() == radius.tobytes()
    assert rays.solve_depth(omega, np.zeros(len(omega))).tobytes() == radius.tobytes()


@pytest.mark.parametrize("cos_cap", [-0.5, 0.0, 0.6])
def test_cap_directions_heights(ball2, cos_cap):
    from berglab.gauge import RayField

    rays = RayField(ball2)
    h = rays.cap_directions(np.array([1, 0], complex), cos_cap, 100000, np.random.default_rng(0))[:, 0].real
    assert h.min() >= cos_cap
    # the share of the cap above height 0.75, against the closed form
    share = rays.cap_fraction(0.75) / rays.cap_fraction(cos_cap)
    assert abs(np.mean(h >= 0.75) - share) <= 4 * np.sqrt(share * (1 - share) / len(h))


@pytest.mark.parametrize("n", [2, 3])
def test_cap_directions_heights_one_cosine_per_direction(n):
    # one call over three caps, their cosines shuffled, so a row drawn again
    # after a round without an acceptance must keep its own cosine
    from berglab.gauge import RayField

    rays = RayField(unit_ball(n))
    caps = np.array([-0.5, 0.0, 0.6])
    cos = np.random.default_rng(1).permutation(np.repeat(caps, 40000))
    h = rays.cap_directions(np.eye(n, dtype=complex)[0], cos, len(cos), np.random.default_rng(0))[:, 0].real
    assert np.all(h >= cos)
    for c in caps:
        hc = h[cos == c]
        # the share of the cap above its middle height, against the closed form
        mid = 0.5 * (c + 1.0)
        share = rays.cap_fraction(mid) / rays.cap_fraction(c)
        assert abs(np.mean(hc >= mid) - share) <= 4 * np.sqrt(share * (1 - share) / len(hc))


def test_cap_directions_per_direction_equals_per_cap_calls_at_n1():
    # at n = 1 a cap draw is one uniform angle per direction, so one call over a
    # band's caps consumes the generator exactly as one call per cap did
    from berglab.gauge import RayField

    rays = RayField(unit_ball(1))
    axis = np.array([np.exp(0.3j)])
    caps, per_cap = [-0.2, 0.5, 0.9, 0.99], [3, 0, 5, 4]
    rng_band, rng_caps = np.random.default_rng(7), np.random.default_rng(7)
    band = rays.cap_directions(axis, np.repeat(caps, per_cap), sum(per_cap), rng_band)
    ref = np.concatenate([rays.cap_directions(axis, c, m, rng_caps) for c, m in zip(caps, per_cap)])
    assert band.tobytes() == ref.tobytes()
    assert rng_band.random() == rng_caps.random()


def test_a_ray_that_never_leaves_is_refused():
    # r = |z1|^2 - 1 does not depend on z2, so the ray along (0, 1) stays at r = -1
    from berglab.domain import DomainError, custom_domain
    from berglab.gauge import RayField

    dom = custom_domain(2, [((1, 0), (1, 0), 1.0), ((0, 0), (0, 0), -1.0)], [[-1.2, 1.2]] * 4, c=1.0, theta=0.1)
    rays = RayField(dom)
    omega = np.array([[1.0, 0.0], [0.0, 1.0]], complex)
    with pytest.raises(DomainError, match=r"along \[0j, \(1\+0j\)\] stays deeper than its target 0.0 .* never leaves"):
        rays.boundary_radius(omega)
    with pytest.raises(DomainError, match=r"along \[0j, \(1\+0j\)\] stays deeper than its target 0.01 "):
        rays.solve_depth(omega, [0.01, 0.01])
    with pytest.raises(DomainError, match="depth target 2.0 is deeper than the origin, at 1.0"):
        rays.solve_depth(omega[:1], 2.0)
    assert rays.boundary_radius(omega[:1])[0] == 1.0


def _shifted_disc():
    """{|z - 0.1|^2 < 1}: r has a linear part along rays, c1 = -0.2 Re(omega)."""
    from berglab.domain import custom_domain

    terms = [((1,), (1,), 1.0), ((1,), (0,), -0.1), ((0,), (1,), -0.1), ((0,), (0,), -0.99)]
    return custom_domain(1, terms, [[-0.95, 1.15], [-1.05, 1.05]], c=2.0, theta=0.1)


def _counted_root_evaluations(monkeypatch):
    """Per _line_root call, the numbers of lines of each f_df evaluation."""
    from berglab import domain as domain_mod

    solves, line_root = [], domain_mod._line_root

    def counted(f_df, *args):
        solves.append([])

        def f_df_counted(s, idx):
            solves[-1].append(len(idx))
            return f_df(s, idx)
        return line_root(f_df_counted, *args)

    monkeypatch.setattr(domain_mod, "_line_root", counted)
    return solves


@pytest.mark.parametrize("name", ["disc", "ball2", "egg", "mixed", "shifted"])
def test_a_quadratic_ray_root_takes_one_newton_evaluation(monkeypatch, request, name):
    # for a quadratic r the start, the root of the quadratic part, is the root up
    # to rounding; "shifted" has c1 != 0 of both signs
    from berglab.gauge import RayField

    dom = _shifted_disc() if name == "shifted" else request.getfixturevalue(name)
    rays = RayField(dom)
    rng = np.random.default_rng(23)
    omega = rays.directions(2000, rng)
    solves = _counted_root_evaluations(monkeypatch)
    mixed_targets = np.exp(rng.uniform(np.log(2.0**-44), np.log(0.1), len(omega)))
    radius_ref = _reference_boundary_radius(dom, omega)
    for targets in (0.0, 2.0**-44, 0.1, mixed_targets):
        solves.clear()
        s = rays.solve_depth(omega, targets)
        assert solves == [[len(omega)]]
        if name == "shifted":
            ref = radius_ref if np.all(targets == 0) else _reference_solve_depth(dom, omega, radius_ref, targets)
            assert np.all(np.abs(s - ref) <= 2e-15 * ref)


def test_a_ray_without_a_quadratic_part_starts_at_the_fallback(monkeypatch):
    # along (0, 1) both domains have c1 = c2 = 0, so the ray starts at 0.25 and
    # its bracket grows from 0.375
    from berglab.domain import DomainError, custom_domain
    from berglab.gauge import RayField

    box = [[-1.2, 1.2]] * 4
    flat = custom_domain(2, [((1, 0), (1, 0), 1.0), ((0, 0), (0, 0), -1.0)], box, c=1.0, theta=0.1)
    with pytest.raises(DomainError, match=re.escape(f"s = {0.375 * 1.5**60:.6g}: it never leaves")):
        RayField(flat).boundary_radius(np.array([[0.0, 1.0]], complex))
    # {|z1|^2 + |z2|^4 < 1}: along (0, 1), -r(s omega) = 1 - s^4
    quartic = custom_domain(2, [((1, 0), (1, 0), 1.0), ((0, 2), (0, 2), 1.0), ((0, 0), (0, 0), -1.0)], box,
                            c=1.0, theta=0.1)
    rays = RayField(quartic)
    solves = _counted_root_evaluations(monkeypatch)
    omega = np.array([[0.0, 1.0], [0.0, 1j], [1.0, 0.0]], complex)
    for t in (0.0, 2.0**-30, 0.1, 0.5):
        s = rays.solve_depth(omega, t)
        assert np.all(np.abs(s[:2] - (1.0 - t) ** 0.25) <= 2e-15)
        assert abs(s[2] - np.sqrt(1.0 - t)) <= 2e-15
    # the fallback lines converge from below the root: several evaluations
    assert max(len(ev) for ev in solves) > 1


def test_cap_fraction_normaliser(ball2):
    from berglab.gauge import RayField

    rays = RayField(ball2)
    # heights on S^3 have density (2/pi) sqrt(1 - h^2)
    for c in (-0.5, 0.0, 0.3, 0.9):
        exact = 0.5 - (c * np.sqrt(1 - c * c) + np.arcsin(c)) / np.pi
        assert rays.cap_fraction(c) == pytest.approx(exact, rel=1e-12)
    assert rays.cap_fraction(-1.0) == 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cap_fraction_against_scipy(n):
    from scipy.special import betainc

    from berglab.gauge import RayField

    rays = RayField(unit_ball(n))
    for theta in np.geomspace(1e-7, np.pi, 300):
        c = float(np.cos(theta))
        half = 0.5 * float(betainc(n - 0.5, 0.5, 1.0 - c * c))
        ref = half if c >= 0 else 1.0 - half
        assert rays.cap_fraction(c) == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_empty_cap_is_refused(n):
    from berglab.domain import DomainError
    from berglab.gauge import RayField

    rays = RayField(unit_ball(n))
    axis = np.eye(n, dtype=complex)[0]
    with pytest.raises(DomainError, match="with cosine 1.0 is empty"):
        rays.cap_directions(axis, 1.0, 10, np.random.default_rng(0))


@pytest.mark.parametrize("n", [1, 2])
def test_focus_ladder_below_the_cap_angle_floor(n):
    # at |r(z)| ~ 1e-15 the ladder's smallest angle 0.25 sqrt(|r(z)|)/|z| falls
    # below the floor, so the last cap sits at the floor, whose cosine must
    # stay below 1.0 for the cap to be non-empty
    from berglab.gauge import layered_mc_integral

    dom = unit_ball(n)
    z = np.zeros(n, complex)
    z[0] = np.sqrt(1.0 - 1e-15)
    res = layered_mc_integral(dom, z, lambda p: np.ones(len(p)), samples=20000, seed=1)
    # ~1% of spread comes from the bulk's volume estimate (the stderr counts it,
    # see test_layered_stderr_counts_the_bulk_volume)
    volume = {1: np.pi, 2: np.pi**2 / 2}[n]
    assert res["estimate"] == pytest.approx(volume, rel=0.03)


def test_layered_stderr_counts_the_bulk_volume():
    # a constant integrand has no spread within the bulk, only the spread of the
    # bulk's estimated volume; a stderr without it reads 0.0104 here, 6.2 stderrs
    # from the exact volume
    from berglab.gauge import layered_mc_integral

    dom = unit_ball(2)
    z = np.array([np.sqrt(1.0 - 1e-15), 0.0], complex)
    res = layered_mc_integral(dom, z, lambda p: np.ones(len(p)), samples=20000, seed=1)
    assert abs(res["estimate"] - np.pi**2 / 2) <= 4 * res["stderr"]


def _reference_layer_sample(rays, depth_lo, depth_hi, count, rng, focus=None):
    """RayField.layer_sample as one function: one cap draw for all the caps, one root solve per ray."""
    if focus is None:
        omega = rays.directions(count, rng)
        dir_density = np.full(count, 1.0 / rays.sphere_area)
    else:
        axis, cos_caps, fracs = focus
        n_cap_total = int(round(0.5 * count))
        per_cap = np.full(len(cos_caps), n_cap_total // len(cos_caps))
        per_cap[: n_cap_total - int(np.sum(per_cap))] += 1
        uniform = rays.directions(count - n_cap_total, rng)
        capped = rays.cap_directions(np.asarray(axis, complex), np.repeat(cos_caps, per_cap), n_cap_total, rng)
        omega = np.concatenate([uniform, capped], axis=0)
        ax = rays._to_real(np.asarray(axis, complex).reshape(1, -1))[0]
        ax /= np.linalg.norm(ax)
        height = rays._to_real(omega) @ ax
        dir_density = np.full(len(omega), 0.5 / rays.sphere_area)
        for c, frac in zip(cos_caps, fracs):
            dir_density = dir_density + np.where(height >= c, 0.5 / (len(cos_caps) * rays.sphere_area * frac), 0.0)
    u = np.exp(rng.uniform(np.log(depth_lo), np.log(depth_hi), count))
    s = rays.solve_depth(omega, u)
    pts = s[:, None] * omega
    slope = np.maximum(np.abs(rays._radial_slope(omega, rays.dom.dbar_r(pts))), 1e-14)
    p_u = 1.0 / (u * np.log(depth_hi / depth_lo))
    return pts, p_u * slope * dir_density / (s ** (2 * rays.dom.n - 1))


def _reference_layered_mc_integral(dom, z, integrand, samples, seed, depth_floor=None):
    """layered_mc_integral as one layer sample and one integrand call per band and pass."""
    from berglab.domain import _ray_field
    from berglab.gauge import _bulk_sample, _layer_bands

    z = np.asarray(z, complex).reshape(-1)
    rz = abs(float(dom.r_val(z)))
    rng = np.random.default_rng(seed)
    rays = _ray_field(dom)
    t_split = min(dom.theta, 2.0 ** (-3))
    bands, focus = _layer_bands(rays, z, rz, t_split, depth_floor)
    n_bulk = max(samples // 4, 2048)
    n_layer = samples - n_bulk
    pilot_per_band = max(min(1500, n_layer // max(4 * len(bands), 1)), 200)
    stds = []
    for (lo, hi), f in zip(bands, focus):
        pts, dens = _reference_layer_sample(rays, lo, hi, pilot_per_band, rng, focus=f)
        w = integrand(pts) / dens
        stds.append(max(float(np.std(w)), 1e-12 * max(float(np.mean(np.abs(w))), 1e-300)))
    weights = np.sqrt(np.asarray(stds))
    weights = weights / np.sum(weights)
    alloc = np.maximum((n_layer * weights).astype(int), 256)
    pts_b, dens_b, vol_var = _bulk_sample(dom, t_split, n_bulk, rng)
    f_b = integrand(pts_b)
    w_b = f_b / dens_b / len(pts_b)
    total = float(np.sum(w_b))
    var = float(np.var(w_b)) * len(w_b) + float(np.mean(f_b)) ** 2 * vol_var
    for (lo, hi), f, m in zip(bands, focus, alloc):
        pts, dens = _reference_layer_sample(rays, lo, hi, int(m), rng, focus=f)
        w = integrand(pts) / dens / len(pts)
        total += float(np.sum(w))
        var += float(np.var(w)) * len(w)
    return {"estimate": total, "stderr": float(np.sqrt(max(var, 0.0)))}


# (domain, |z| as a share of the boundary radius on the first axis, mode):
# |z| < 0.2 draws no focus caps
_PASS_CASES = [("disc", 0.97, "plain"), ("disc", 0.1, "plain"), ("disc", 0.97, "tail"),
               ("ball2", 0.97, "plain"), ("ball2", 0.1, "plain"), ("ball2", 0.9, "tail"),
               ("egg", 0.97, "plain")]


@pytest.mark.parametrize("chunk", [None, 97, 10**9])
@pytest.mark.parametrize("name, share, mode", _PASS_CASES)
def test_layer_pass_matches_reference_band_loop(request, monkeypatch, name, share, mode, chunk):
    # a chunk below one band's size (pilot bands hold at least 200 lines), the
    # shipped one, and one above a whole pass give the same bits as a band loop
    from berglab import gauge

    dom = request.getfixturevalue(name)
    if chunk is not None:
        monkeypatch.setattr(gauge, "_PASS_CHUNK", chunk)
    calls = []

    def spy(dom_, z_, integrand, **kw):
        out = layered(dom_, z_, integrand, **kw)
        calls.append((z_, integrand, kw, out))
        return out

    layered = gauge.layered_mc_integral
    monkeypatch.setattr(gauge, "layered_mc_integral", spy)
    z = np.zeros(dom.n, complex)
    z[0] = share * gauge._ray_field(dom).boundary_radius(np.eye(1, dom.n, dtype=complex))[0]
    samples = 6000 if mode == "plain" else 2500
    gauge.fr_integral(dom, z, kappa=0.0, a=1.0, mode=mode, tail_radius=1.0, samples=samples, seed=5)
    (z_, integrand, kw, out), = calls
    assert out == _reference_layered_mc_integral(dom, z_, integrand, **kw)


def test_one_root_solve_per_chunk_and_one_cap_draw_per_band(monkeypatch, ball2):
    # each placed chunk of lines costs one _line_root (the boundary radius is
    # not solved on its own), and each focused band one cap_directions call
    from berglab import domain as domain_mod, gauge

    roots, caps, places, focused = [], [], [], []
    line_root, rays = domain_mod._line_root, gauge._ray_field(ball2)
    cap_directions, layer_draw, layer_place = rays.cap_directions, rays.layer_draw, rays.layer_place

    def counted_root(f_df, level, *args):
        roots.append(len(level))
        return line_root(f_df, level, *args)

    def counted_draw(*args, focus=None):
        focused.append(focus is not None)
        return layer_draw(*args, focus=focus)

    monkeypatch.setattr(domain_mod, "_line_root", counted_root)
    monkeypatch.setattr(rays, "cap_directions", lambda *a: caps.append(a[2]) or cap_directions(*a))
    monkeypatch.setattr(rays, "layer_draw", counted_draw)
    monkeypatch.setattr(rays, "layer_place", lambda omega, *a: places.append(len(omega)) or layer_place(omega, *a))
    monkeypatch.setattr(gauge, "_PASS_CHUNK", 1000)
    z = np.array([0.97 * rays.boundary_radius(np.eye(1, 2, dtype=complex))[0], 0.0])
    roots.clear()
    gauge.layered_mc_integral(ball2, z, lambda p: np.ones(len(p)), samples=20000, seed=3)
    # two passes of 21 bands each, placed in 23 chunks
    assert len(places) > 2 and roots == places
    assert len(focused) > 2 and all(focused) and len(caps) == len(focused)


def test_one_cap_fraction_per_distinct_cosine(monkeypatch, disc):
    # the bands deeper than |r(z)| share most of their focus ladder; one
    # fr_integral computes each distinct cosine's cap fraction once
    from berglab import gauge
    from berglab.domain import RayField

    asked, built = [], []
    cap_fraction, layer_bands = RayField.cap_fraction, gauge._layer_bands

    def counted_fraction(self, cos_cap):
        asked.append(cos_cap)
        return cap_fraction(self, cos_cap)

    def spy(*args):
        built.append(layer_bands(*args))
        return built[-1]

    monkeypatch.setattr(RayField, "cap_fraction", counted_fraction)
    monkeypatch.setattr(gauge, "_layer_bands", spy)
    z = np.array([np.sqrt(1 - 2.0**-8) + 0j])
    fr_integral(disc, z, 0.0, 1.0, samples=4000, seed=1)
    (_, focus), = built
    cosines = [c for f in focus for c in f[1]]
    assert len(asked) == len(set(asked)) == len(set(cosines)) < len(cosines)
    rays = gauge._ray_field(disc)
    assert all(f[2] == [cap_fraction(rays, c) for c in f[1]] for f in focus)


@pytest.mark.parametrize("n", [1, 2])
def test_layer_sample_matches_reference(n):
    from berglab.domain import DomainError, RayField

    rays = RayField(unit_ball(n))
    axis = np.exp(0.3j) * np.eye(n, dtype=complex)[0]
    ax = rays._to_real(axis.reshape(1, -1))[0]
    count = 4001
    # the uniform half of the directions is drawn first, so the same seed gives
    # the same uniform directions under any ladder: put one cosine exactly at
    # a drawn height, and make the ladder's last two cosines equal, as when
    # theta_lo rounds to the last halved angle
    uniform = rays.directions(count - int(round(0.5 * count)), np.random.default_rng(3))
    heights = rays._to_real(uniform) @ (ax / np.linalg.norm(ax))
    h0 = float(heights[np.argmin(np.abs(heights - 0.7))])
    caps = [-0.2, 0.5, h0, 0.99, 0.99]
    focus = (axis, caps, [rays.cap_fraction(c) for c in caps])
    for f in (focus, None):
        pts, dens = rays.layer_sample(1e-3, 2e-3, count, np.random.default_rng(3), f)
        pts_ref, dens_ref = _reference_layer_sample(rays, 1e-3, 2e-3, count, np.random.default_rng(3), f)
        assert pts.tobytes() == pts_ref.tobytes() and dens.tobytes() == dens_ref.tobytes()
    omega = rays.layer_draw(1e-3, 2e-3, count, np.random.default_rng(3), focus)[0]
    height = rays._to_real(omega) @ (ax / np.linalg.norm(ax))
    assert np.any(height == h0) and np.any(height >= 0.99)
    with pytest.raises(DomainError, match="must not decrease"):
        rays.layer_draw(1e-3, 2e-3, 10, np.random.default_rng(3), (axis, caps[::-1], focus[2][::-1]))
