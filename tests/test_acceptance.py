"""Acceptance gate: one test per criterion, printed as PASS/FAIL lines.

Tolerances are pinned here, not tuned at runtime.  Expected values marked
as oracles were computed independently (closed forms on the disc and ball,
adaptive quadrature for the integral slopes) before being frozen.
"""

import json
import time

import numpy as np
import pytest

from berglab.domain import ellipsoid, sample_region, unit_ball
from berglab.gauge import exponent_regression, fr_integral, normal_gauge, comparability_scale
from berglab.metric import (
    ORACLE_BUDGET,
    DistanceBudget,
    DistanceEstimator,
    distance,
    straight_chord_upper,
)


def _line(num, name, passed, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} {detail}")
    return passed


# 1 ------------------------------------------------------------------------------


# oracle: arctanh(x) for the d dbar log(1/-r) metric on ball slices
ARCTANH = {0.3: 0.30951960420311175, 0.5: 0.5493061443340549, 0.9: 1.4722194895832204}


@pytest.mark.parametrize("n", [1, 2])
def test_criterion_1_metric_oracle(n):
    dom = unit_ball(n, theta=1.0)
    ok = True
    detail = []
    for x, target in ARCTANH.items():
        z = np.zeros(n, complex)
        w = np.zeros(n, complex)
        w[0] = x
        t0 = time.time()
        est = distance(dom, z, w, ORACLE_BUDGET)["d_upper"]
        dt = time.time() - t0
        ok &= abs(est - target) <= 0.01 * target
        ok &= dt <= 10.0
        detail.append(f"x={x}: {est:.6f} vs {target:.6f} ({dt:.1f}s)")
    assert _line(1, f"metric-oracle-n{n}", ok, "; ".join(detail))


# 2 ------------------------------------------------------------------------------


def _depth_ratio_offset(dom, seed):
    """Fitted offset of the depth-ratio bound over a structured pair family.

    The extremal configurations (radial ladders through the deep interior on
    canonical directions, depths scaled to the domain's full range) are
    deterministic, so the fitted offset is dominated by the same pairs on
    every seed; seeded random cross pairs fill in the bulk.
    """
    est = DistanceEstimator(dom, DistanceBudget(nodes=10, max_iters=8))
    kappas = []
    count = 0
    # canonical ladder directions: coordinate axes and diagonals
    base = []
    for i in range(dom.n):
        e = np.zeros(dom.n, complex)
        e[i] = 1.0
        base.extend([e, 1j * e])
    diag = np.ones(dom.n, complex) / np.sqrt(dom.n)
    base.extend([diag, diag * (1 + 1j) / np.sqrt(2)])
    dirs = np.asarray(base)
    from berglab.gauge import _ray_field

    rays = _ray_field(dom)
    from berglab.domain import _domain_depth_max

    dmax = _domain_depth_max(dom)
    depth_grid = [f * dmax for f in (0.75, 0.5, 0.25)] + [2.0**-k for k in range(3, 12)]
    for i in range(len(dirs)):
        pts = []
        for t in depth_grid:
            if t >= dmax:
                continue
            s = rays.solve_depth(dirs[i : i + 1], t)[0]
            pts.append(s * dirs[i])
        pts = np.asarray(pts)
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                z, w = pts[a], pts[b]
                d = float(straight_chord_upper(dom, z, w))
                ratio = np.log(-dom.r_val(w)) - np.log(-dom.r_val(z))
                kappas.append(-ratio - 4 * np.log(2) * d)
                count += 1
    # random cross pairs
    zs = sample_region(dom, ("shell", 1e-3, 0.6 * dmax), 40, seed)
    ws = sample_region(dom, ("shell", 1e-3, 0.6 * dmax), 40, seed + 1)
    for z in zs:
        chords = straight_chord_upper(dom, z, ws)
        for w, d in zip(ws, chords):
            if not np.isfinite(d):
                d = est(z, w)
            ratio = np.log(-dom.r_val(w)) - np.log(-dom.r_val(z))
            kappas.append(-ratio - 4 * np.log(2) * float(d))
            count += 1
    assert count >= 1000
    return max(0.0, float(np.max(kappas))), count


@pytest.mark.parametrize("make_dom,label", [(lambda: unit_ball(1), "disc"), (lambda: ellipsoid([1.0, 2.0]), "ellipsoid")])
def test_criterion_2_depth_ratio_offset(make_dom, label):
    dom = make_dom()
    k1, n1 = _depth_ratio_offset(dom, seed=11)
    k2, n2 = _depth_ratio_offset(dom, seed=202)
    finite = np.isfinite(k1) and np.isfinite(k2)
    stable = abs(k1 - k2) <= 0.10 * max(1.0, k1, k2)
    assert _line(2, f"depth-ratio-offset-{label}", finite and stable,
                 f"kappa={k1:.4f}/{k2:.4f} pairs={n1}/{n2}")


# 3 ------------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_criterion_3_fr_exponents(n):
    dom = unit_ball(n, theta=0.25)
    ok = True
    details = []
    for a, target in ((1.0, -1.0), (0.5, -0.5)):
        t0 = time.time()
        depths = [2.0**-k for k in range(9, 15)]
        ests = []
        for i, t in enumerate(depths):
            z = np.zeros(n, complex)
            z[0] = np.sqrt(1 - t)
            ests.append(fr_integral(dom, z, kappa=0.0, a=a, samples=10**6, seed=100 + i)["estimate"])
        dt = time.time() - t0
        slope = exponent_regression(depths, ests)["slope"]
        ok &= abs(slope - target) <= 0.1
        ok &= dt / len(depths) <= 60.0
        details.append(f"a={a}: slope {slope:.3f} ({dt/len(depths):.0f}s/point)")
    # boundedness for a = -1/2
    vals = []
    for i, k in enumerate((6, 8, 10, 12)):
        z = np.zeros(n, complex)
        z[0] = np.sqrt(1 - 2.0**-k)
        vals.append(fr_integral(dom, z, kappa=0.0, a=-0.5, samples=2 * 10**5, seed=i)["estimate"])
    bounded = max(vals) / min(vals) <= 2.0
    ok &= bounded
    details.append(f"a=-1/2 spread {max(vals)/min(vals):.2f}")
    assert _line(3, f"fr-exponents-n{n}", ok, "; ".join(details))


# 4 ------------------------------------------------------------------------------


def test_criterion_4_tail_and_schur_decay():
    disc = unit_ball(1, theta=0.25)
    z = np.array([np.sqrt(1 - 2.0**-6) + 0j])
    Rs = np.array([4.0, 6.0, 8.0, 10.0, 12.0])
    vals = [
        fr_integral(disc, z, 0.0, 1.0, mode="tail", tail_radius=R, samples=120000, seed=21)["estimate"]
        for R in Rs
    ]
    logs = np.log2(np.maximum(vals, 1e-300))
    A = np.stack([Rs, np.ones_like(Rs)], axis=1)
    tail_slope = float(np.linalg.lstsq(A, logs, rcond=None)[0][0])

    # sparse deep point family for the weighted off-ball sum
    disc_g = unit_ball(1, theta=1.0)
    angles = np.exp(1j * np.linspace(0, 2 * np.pi, 6, endpoint=False))
    depths = [2.0**-k for k in range(2, 44, 4)]
    pts = np.array([[np.sqrt(1 - t) * a] for t in depths for a in angles])
    zc = np.array([np.sqrt(1 - 2.0**-6) + 0j])
    eta = 0.25
    rz = 2.0**-6
    rw = -disc_g.r_val(pts)
    F = rz + rw + normal_gauge(disc_g, zc, pts)
    terms = rw ** (0.5 + eta) * (np.sqrt(rz * rw) / F) ** 2 * rz ** (-0.5 - eta)
    dists = straight_chord_upper(disc_g, zc, pts)
    sums = []
    for R in Rs:
        mask = dists >= R
        sums.append(float(np.sum(terms[mask])))
    logs = np.log2(np.maximum(sums, 1e-300))
    schur_slope = float(np.linalg.lstsq(A, logs, rcond=None)[0][0])
    ok = tail_slope <= -0.05 and schur_slope <= -0.05 and min(vals) > 0
    assert _line(4, "tail-and-schur-decay", ok, f"tail {tail_slope:.2f}, schur {schur_slope:.2f}")


# 5 ------------------------------------------------------------------------------


def test_criterion_5_kernel_identities():
    from berglab.kernel import EXACT_BALL, FEFFERMAN, KernelError, kernel_eval, reproducing_residual

    disc = unit_ball(1)
    ball = unit_ball(2)
    ok = True
    details = []
    # reproducing property for degree <= 6 polynomials at |z| <= 0.9
    rng = np.random.default_rng(5)
    worst = 0.0
    for z in (0.0, 0.45 + 0.3j, -0.6j, 0.9, 0.63 + 0.63j):
        coeffs = {(k,): c for k, c in enumerate(rng.standard_normal(7) + 1j * rng.standard_normal(7))}
        worst = max(worst, reproducing_residual(disc, coeffs, np.array([z + 0j])))
    ok &= worst <= 1e-6
    details.append(f"residual {worst:.1e}")
    # diagonal band over -r in [1e-3, 1e-1]
    ratios = []
    for t in np.geomspace(1e-3, 1e-1, 9):
        z = np.array([np.sqrt(1 - t) + 0j])
        kzz = float(np.real(kernel_eval(disc, EXACT_BALL, z, z.reshape(1, -1))[0]))
        ratios.append(kzz * t**2)
    band = max(ratios) / min(ratios)
    ok &= band <= 10.0
    details.append(f"band {band:.3f}")
    # leading-term error against sqrt(F) near the diagonal
    rng = np.random.default_rng(6)
    fitted = 0.0
    used = 0
    for _ in range(40):
        t = 10 ** rng.uniform(-3, -1.5)
        z = np.zeros(2, complex)
        z[0] = np.sqrt(1 - t)
        w = z + (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 0.2 * np.sqrt(t)
        if ball.r_val(w) >= 0:
            continue
        try:
            kf = kernel_eval(ball, FEFFERMAN, z, w.reshape(1, -1))[0]
        except KernelError:
            continue
        ke = kernel_eval(ball, EXACT_BALL, z, w.reshape(1, -1))[0]
        F = float(comparability_scale(ball, z, w.reshape(1, -1))[0])
        fitted = max(fitted, abs(kf - ke) / abs(ke) / np.sqrt(F))
        used += 1
    ok &= used >= 20 and fitted <= 3.0
    details.append(f"leading-term C {fitted:.2f} over {used} pairs")
    assert _line(5, "kernel-identities", ok, "; ".join(details))


# 6 ------------------------------------------------------------------------------


def test_criterion_6_operator_identities():
    from berglab.operators import build_galerkin, discrete_sum_matrix, toeplitz_matrix

    ok = True
    details = []
    # rank-one commutator identity at 1e-10 on 100 random Hermitian matrices
    rng = np.random.default_rng(60)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 46))
        X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        T = X + X.conj().T
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        P = np.outer(x, np.conj(x))
        lhs = np.linalg.norm(T @ P - P @ T, 2)
        rhs = np.linalg.norm(T @ x - np.vdot(x, T @ x) * x)
        worst = max(worst, abs(lhs - rhs))
    ok &= worst <= 1e-10
    details.append(f"commutator identity defect {worst:.1e}")

    sp = build_galerkin(1, 10)
    T1 = toeplitz_matrix(sp, lambda w: np.ones(len(w)))
    d1 = float(np.max(np.abs(T1.matrix - np.eye(sp.dim))))
    ok &= d1 <= 1e-10
    Tm = toeplitz_matrix(sp, lambda w: np.abs(w[:, 0]) ** 2)
    ks = np.arange(sp.dim)
    d2 = float(np.max(np.abs(np.diag(Tm.matrix).real - (ks + 1) / (ks + 2))))
    ok &= d2 <= 1e-8
    details.append(f"T1 defect {d1:.1e}, moment diag defect {d2:.1e}")

    # lattice-sum perturbation shrinks with the perturbation scale
    disc = unit_ball(1, theta=1.0)
    pts = np.array([[0.5 + 0j], [-0.5 + 0j], [0.55j]])
    base = discrete_sum_matrix(sp, pts, np.ones(3))
    eps = []
    for delta in (0.2, 0.1, 0.05):
        moved = []
        for p in pts:
            q = p * (1 - 0.3 * delta * (-disc.r_val(p)))
            assert straight_chord_upper(disc, p, q) <= delta
            moved.append(q)
        pert = discrete_sum_matrix(sp, np.asarray(moved), np.ones(3))
        eps.append(float(np.linalg.norm(base.matrix - pert.matrix, 2)))
    ok &= eps[0] > eps[1] > eps[2]
    details.append("perturbation eps " + "/".join(f"{e:.4f}" for e in eps))
    assert _line(6, "operator-identities", ok, "; ".join(details))


# 7 ------------------------------------------------------------------------------


def test_criterion_7_compactness_proxy():
    from berglab.operators import build_galerkin, compactness_report, identity_operator, toeplitz_matrix

    def bump(w):
        s = np.abs(w[:, 0]) ** 2
        return np.clip(1 - 2 * s, 0, 1)  # supported in the deep half

    tails = {"berezin": [], "offdiag": [], "sv": []}
    for N in (6, 10, 14):
        sp = build_galerkin(1, N)
        T = toeplitz_matrix(sp, bump)
        rep = compactness_report(sp, T, seed=7)
        tails["berezin"].append(rep["berezin_tail"])
        tails["offdiag"].append(rep["offdiag_tail"])
        tails["sv"].append(rep["sv_tail"])
    ok = True
    for key, seq in tails.items():
        ok &= seq[1] <= seq[0] * 1.10 and seq[2] <= seq[1] * 1.10
    sp = build_galerkin(1, 10)
    rep_id = compactness_report(sp, identity_operator(sp), seed=7)
    ok &= rep_id["berezin_tail"] >= 0.99
    assert _line(
        7,
        "compactness-proxy",
        ok,
        "; ".join(f"{k}: " + "/".join(f"{v:.4f}" for v in seq) for k, seq in tails.items()),
    )


# 8 ------------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_criterion_8_covering_suite(n):
    from berglab.covering import (
        _cap_sample,
        build_cover,
        cap_contains,
        class_indices,
        coverage_audit,
        family_cutoff,
    )
    from berglab.gauge import exponent_regression
    from berglab.domain import surface_pool

    dom = unit_ball(n, theta=0.25)
    cover = build_cover(dom, m=65.0, candidate_count=6000, seed=0)
    ok = True
    details = [f"levels {[len(lv.centers) for lv in cover.levels]}"]
    rng = np.random.default_rng(8)

    # cap disjointness, 1e4 samples per tested pair
    lv = cover.levels[0]
    m_caps = len(lv.centers)
    tested = 0
    for _ in range(8):
        i, j = rng.integers(m_caps), rng.integers(m_caps)
        if i == j:
            continue
        xs = _cap_sample(dom, lv.centers[i], lv.d, 10000, rng)
        if np.any(cap_contains(dom, lv.centers[j], lv.d, xs)):
            ok = False
        tested += 1
    details.append(f"disjointness pairs {tested}")

    # coverage audit on a fresh pool
    pool = surface_pool(dom, 0.0, 4000, 424242)
    for lv_i in cover.levels:
        if coverage_audit(dom, lv_i.centers, lv_i.a, pool) is not None:
            ok = False
    details.append("coverage clean")

    # overlap counts within the budget
    for lv_i in cover.levels:
        if int(lv_i.colors.max()) + 1 > cover.n0_observed:
            ok = False
    details.append(f"N0 {cover.n0_observed}")

    # class cutoff membership: range, support, sampled oscillation
    members = class_indices(cover, 0, 1)
    fI = family_cutoff(cover, members)
    probes = []
    from berglab.covering import a_cell_samples

    for li, ui in members[:5]:
        probes.extend(a_cell_samples(cover, li, ui, 4))
    probes = np.asarray(probes).reshape(-1, dom.n)
    vals = fI(probes)
    if not (np.all(vals >= 0) and np.all(vals <= 1 + 1e-9) and np.max(vals) > 0.99):
        ok = False
    deep = np.zeros((1, dom.n), complex)
    if fI(deep)[0] != 0.0:
        ok = False
    delta = 1.0 / (65.0 / 13.0 - 4.0)  # the m the cover was built with
    # sampled oscillation over confirmed unit-distance pairs
    osc = 0.0
    for p in probes[:10]:
        for _ in range(4):
            q = p * (1 + 0.2 * (-dom.r_val(p)) * rng.standard_normal())
            if dom.r_val(q) >= 0 or straight_chord_upper(dom, p, q) > 1.0:
                continue
            osc = max(osc, abs(fI(p.reshape(1, -1))[0] - fI(q.reshape(1, -1))[0]))
    if osc > delta * 1.25:
        ok = False
    details.append(f"membership osc {osc:.3f} <= {delta * 1.25:.3f}")

    # neighbor growth exponent across dilations
    zeta = lv.centers[0]
    g_zeta = np.conj(dom.dbar_r(zeta))
    counts = []
    Rs = [1.0, 2.0, 4.0, 8.0]
    for R in Rs:
        diff = lv.centers - zeta[None, :]
        g = np.sum(np.abs(diff) ** 2, axis=-1) + np.abs(np.einsum("mi,i->m", diff, g_zeta))
        counts.append(max(int(np.sum(g < 6.0 * R * lv.d)), 1))
    slope = exponent_regression(Rs, counts)["slope"]
    if slope > dom.n + 0.3:
        ok = False
    details.append(f"growth slope {slope:.2f}")
    assert _line(8, f"covering-suite-n{n}", ok, "; ".join(details))


# 9 ------------------------------------------------------------------------------


def test_criterion_9_offdiag_witness():
    from berglab.operators import OperatorMatrix, build_galerkin, offdiag_split_search

    sp = build_galerkin(1, 8)
    rng = np.random.default_rng(9)

    def indicator(lo, hi):
        def f(w):
            s = np.abs(w[:, 0]) ** 2
            return ((s >= lo) & (s < hi)).astype(float)

        return f

    failures = 0
    for trial in range(50):
        ell = int(rng.integers(2, 5))
        cuts = np.sort(rng.uniform(0.05, 0.9, ell + 1))
        symbols = [indicator(cuts[i], cuts[i + 1]) for i in range(ell)]
        X = rng.standard_normal((sp.dim, sp.dim)) + 1j * rng.standard_normal((sp.dim, sp.dim))
        A = OperatorMatrix(X / np.linalg.norm(X, 2))
        res = offdiag_split_search(sp, A, symbols)
        if not res["found"]:
            failures += 1
    assert _line(9, "offdiag-witness", failures == 0, f"failures {failures}/50")


# 10 -----------------------------------------------------------------------------


DEFAULT_PLAN = {
    "domain": {"builtin": "disc"},
    "suites": "all",
    "seed": 2026,
    "budgets": {"fr_samples": 40000, "candidates": 80, "cover_candidates": 3000},
}


def test_criterion_10_determinism_and_runtime(tmp_path):
    from berglab.cli import run_plan

    t0 = time.time()
    run_plan(dict(DEFAULT_PLAN), tmp_path / "run1")
    elapsed_once = time.time() - t0
    run_plan(dict(DEFAULT_PLAN), tmp_path / "run2")
    t1 = (tmp_path / "run1" / "summary.json").read_text()
    t2 = (tmp_path / "run2" / "summary.json").read_text()
    strip = lambda t: "\n".join(l for l in t.splitlines() if "timestamp" not in l)
    identical = strip(t1) == strip(t2)
    within_budget = elapsed_once <= 30 * 60
    passed = json.loads(t1)["passed"]
    assert _line(
        10,
        "determinism-and-runtime",
        identical and within_budget and passed,
        f"identical={identical}, {elapsed_once:.0f}s, plan passed={passed}",
    )
