"""Batch driver: plans in, machine-readable verification reports out.

A plan selects a domain, a list of suites, seeds and budgets.  Each suite
runs a bundle of oracle and invariant checks and reports one pass/fail row
per check with the fitted constants it measured.  Reports are JSON (summary)
plus CSV detail tables; reruns with the same plan and seed are
byte-identical except for the timestamp field.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import domain as dom_mod
from . import gauge as gauge_mod
from . import metric as metric_mod
from .covering import _cap_sample, build_cover, coverage_audit
from .kernel import EXACT_BALL, FEFFERMAN, kernel_eval, reproducing_residual
from .lattice import build_separated, count_neighbors, pairwise_dupper, partition_separated
from .operators import (
    berezin,
    build_galerkin,
    compactness_report,
    hankel_and_commutator,
    identity_operator,
    offdiag_split_search,
    toeplitz_matrix,
)


class PlanError(ValueError):
    pass


# every key a plan's "budgets" may set
BUDGET_KEYS = ("fr_samples", "candidates", "cover_candidates", "galerkin_degree")


def load_domain(spec: dict) -> dom_mod.DomainSpec:
    if not isinstance(spec, dict):
        raise PlanError(f"domain must be an object, not {spec!r}")
    builtin = spec.get("builtin")
    try:
        if builtin == "disc":
            return dom_mod.unit_ball(1, theta=spec.get("theta", 0.25))
        if builtin == "ball2":
            return dom_mod.unit_ball(2, theta=spec.get("theta", 0.25))
        if builtin == "ellipsoid":
            return dom_mod.ellipsoid(spec.get("weights", [1.0, 2.0]), theta=spec.get("theta", 0.125))
    except (TypeError, ValueError) as exc:  # DomainError is a ValueError
        raise PlanError(f"malformed domain: {type(exc).__name__}: {exc}") from exc
    if "json" in spec or "path" in spec:
        try:
            text = json.dumps(spec["json"]) if "json" in spec else Path(spec["path"]).read_text()
            dom = dom_mod.DomainSpec.from_json(text)
        except (OSError, LookupError, TypeError, ValueError) as exc:  # DomainError is a ValueError
            raise PlanError(f"malformed domain: {type(exc).__name__}: {exc}") from exc
        return _certified(dom)
    raise PlanError(f"cannot resolve domain spec {spec!r}")


def _certified(dom: dom_mod.DomainSpec) -> dom_mod.DomainSpec:
    """``dom`` once :func:`certify_pseudoconvexity` passes at its theta; else a PlanError naming the witness."""
    cert = dom_mod.certify_pseudoconvexity(dom)
    if not cert["theta_ok"]:
        raise PlanError(f"domain fails certification at theta {dom.theta}: witness {cert['witness']}, "
                        f"c_min {cert['c_min']}")
    return dom


def _check(name: str, passed: bool, value, **details) -> dict:
    row = {"name": name, "passed": bool(passed), "value": value}
    if details:
        row["details"] = details
    return row


# -- suites ----------------------------------------------------------------------


def suite_metric(dom, seed: int, budgets: dict) -> dict:
    checks = []
    if dom.tag == "ball":
        hyper = dom_mod.unit_ball(dom.n, theta=1.0)
        budget = metric_mod.DistanceBudget()
        for x in (0.3, 0.5):
            z = np.zeros(hyper.n, complex)
            w = np.zeros(hyper.n, complex)
            w[0] = x
            est = metric_mod.distance(hyper, z, w, budget)["d_upper"]
            target = float(np.arctanh(x))
            checks.append(
                _check(f"radial-distance-{x}", abs(est - target) <= 0.01 * target, est, target=target)
            )
    pts = dom_mod.sample_region(dom, ("shell", 0.05, 0.5), 6, seed)
    budget = metric_mod.SCAN_BUDGET
    sym_ok = True
    tri_defect = 0.0
    for i in range(0, 6, 3):
        a, b, c = pts[i], pts[i + 1], pts[i + 2]
        dab = metric_mod.distance(dom, a, b, budget)["d_upper"]
        dba = metric_mod.distance(dom, b, a, budget)["d_upper"]
        sym_ok &= abs(dab - dba) <= 1e-3 * (1 + dab)
        dac = metric_mod.distance(dom, a, c, budget)["d_upper"]
        dcb = metric_mod.distance(dom, c, b, budget)["d_upper"]
        tri_defect = max(tri_defect, dab - (dac + dcb))
    checks.append(_check("symmetry", sym_ok, float(tri_defect)))
    checks.append(_check("triangle", tri_defect <= 0.1 * (1 + tri_defect), float(tri_defect)))
    return {"checks": checks, "tables": {}}


def suite_gauge(dom, seed: int, budgets: dict) -> dict:
    checks = []
    samples = budgets.get("fr_samples", 60000)
    rows = []
    depths = [2.0**-k for k in range(6, 11)]
    ests = []
    for i, t in enumerate(depths):
        z = np.zeros(dom.n, complex)
        z[0] = _radius_at_depth(dom, t)
        res = gauge_mod.fr_integral(dom, z, kappa=0.0, a=1.0, samples=samples, seed=seed + i)
        ests.append(res["estimate"])
        rows.append(
            {
                "z_re": float(np.real(z[0])),
                "log_abs_r": float(np.log(t)),
                "log_estimate": float(np.log(max(res["estimate"], 1e-300))),
                "stderr": res["stderr"],
                "kappa": 0.0,
                "a": 1.0,
                "mode": "plain",
            }
        )
    stderrs = [row["stderr"] for row in rows]
    fit = gauge_mod.exponent_regression(depths, ests, rel_stderr=[s / e for s, e in zip(stderrs, ests)])
    for row in rows:
        row["fitted_slope"] = fit["slope"]
    fr_margin = 0.15 - abs(fit["slope"] + 1.0)
    checks.append(
        _check("fr-exponent-a1", abs(fit["slope"] + 1.0) <= 0.15, fit["slope"], r2=fit["r2"], stderr=stderrs,
               slope_stderr=fit["slope_stderr"], margin_in_stderrs=fr_margin / fit["slope_stderr"])
    )
    ts = [0.3 * 2.0**-k for k in range(0, 4)]
    zeta = _boundary_anchor(dom)
    caps = [gauge_mod.cap_measure(dom, zeta, t, samples=20000, seed=seed) for t in ts]
    sig = [c["sigma"] for c in caps]
    cap_fit = gauge_mod.exponent_regression(ts, sig, rel_stderr=[c["stderr"] / c["sigma"] for c in caps])
    margin = 0.3 - abs(cap_fit["slope"] - dom.n)
    checks.append(
        _check("cap-exponent", abs(cap_fit["slope"] - dom.n) <= 0.3, cap_fit["slope"], r2=cap_fit["r2"],
               sigma=sig, stderr=[c["stderr"] for c in caps], hits=[c["hits"] for c in caps],
               slope_stderr=cap_fit["slope_stderr"], margin_in_stderrs=margin / cap_fit["slope_stderr"])
    )
    return {"checks": checks, "tables": {"fr_regression": rows}}


def _radius_at_depth(dom, t: float) -> float:
    """s with -r(s * e1) = t, inward of the boundary on the first coordinate axis."""
    rays = dom_mod._ray_field(dom)
    e1 = np.eye(1, dom.n, dtype=complex)
    return float(rays.solve_depth(e1, t)[0])


def _boundary_anchor(dom) -> np.ndarray:
    """Boundary point on the first coordinate axis."""
    e1 = np.eye(1, dom.n, dtype=complex)
    return dom_mod._ray_field(dom).boundary_radius(e1)[0] * e1[0]


def suite_lattice(dom, seed: int, budgets: dict) -> dict:
    checks = []
    a = 0.5
    # one memo for the suite: partition and count re-ask the pairs the build refined
    est = metric_mod.DistanceEstimator(dom, metric_mod.SCAN_BUDGET)
    lat = build_separated(dom, ("shell", 0.02, 0.6), a, candidate_count=budgets.get("candidates", 120), seed=seed,
                          est=est)
    ok = True
    if len(lat) >= 2:
        dmat = pairwise_dupper(dom, lat.points, est, refine_below=2 * a)
        iu = np.triu_indices(len(lat), 1)
        ok = bool(np.all(dmat[iu] >= 2 * a - 1e-9))
    checks.append(_check("separation", ok, len(lat)))
    classes = partition_separated(dom, lat, 2 * a, est)
    sound = True
    for cls in classes:
        if len(cls) >= 2:
            dmat = pairwise_dupper(dom, cls.points, est, refine_below=4 * a)
            iu = np.triu_indices(len(cls), 1)
            sound &= bool(np.all(dmat[iu] > 4 * a - 1e-9))
    checks.append(_check("partition-sound", sound, len(classes)))
    z = lat.points[0] if len(lat) else np.zeros(dom.n, complex)
    checks.append(_check("neighbor-count", True, count_neighbors(dom, lat, z, 2 * a, est)))
    return {"checks": checks, "tables": {}}


def suite_kernel(dom, seed: int, budgets: dict) -> dict:
    checks = []
    if dom.tag != "ball":
        return {"checks": [_check("kernel-skipped-non-ball", True, None)], "tables": {}}
    if dom.n == 1:
        res = reproducing_residual(dom, {(2,): 1.0}, np.array([0.5 + 0j]))
        checks.append(_check("reproducing-residual", res <= 1e-6, res))
    ratios = []
    for t in (1e-1, 1e-2, 1e-3):
        z = np.zeros(dom.n, complex)
        z[0] = np.sqrt(1 - t)
        kzz = float(np.real(kernel_eval(dom, EXACT_BALL, z, z.reshape(1, -1))[0]))
        ratios.append(kzz * t ** (dom.n + 1))
    band = max(ratios) / min(ratios)
    checks.append(_check("diagonal-band", band <= 10.0, band))
    z = np.zeros(dom.n, complex)
    z[0] = np.sqrt(1 - 0.01)
    w = z.copy()
    w[0] -= 0.006
    ke = kernel_eval(dom, EXACT_BALL, z, w.reshape(1, -1))[0]
    kf = kernel_eval(dom, FEFFERMAN, z, w.reshape(1, -1))[0]
    F = float(gauge_mod.comparability_scale(dom, z, w.reshape(1, -1))[0])
    rel = abs(kf - ke) / abs(ke)
    checks.append(_check("leading-term", rel <= 2.0 * np.sqrt(F), rel, scale=float(np.sqrt(F))))
    return {"checks": checks, "tables": {}}


def suite_operators(dom, seed: int, budgets: dict) -> dict:
    checks = []
    if dom.tag != "ball" or dom.n != 1:
        return {"checks": [_check("operators-skipped", True, None)], "tables": {}}
    N = budgets.get("galerkin_degree", 8)
    sp = build_galerkin(1, N)
    T1 = toeplitz_matrix(sp, lambda w: np.ones(len(w)))
    checks.append(_check("toeplitz-identity", np.max(np.abs(T1.matrix - np.eye(sp.dim))) <= 1e-10,
                         float(np.max(np.abs(T1.matrix - np.eye(sp.dim))))))
    Tm = toeplitz_matrix(sp, lambda w: np.abs(w[:, 0]) ** 2)
    ks = np.arange(sp.dim)
    diag_err = float(np.max(np.abs(np.diag(Tm.matrix).real - (ks + 1) / (ks + 2))))
    checks.append(_check("toeplitz-moment-diagonal", diag_err <= 1e-8, diag_err))
    rng = np.random.default_rng(seed)
    dim = 20
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    T = X + X.conj().T
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    comm = T @ np.outer(x, np.conj(x)) - np.outer(x, np.conj(x)) @ T
    lhs = float(np.linalg.norm(comm, 2))
    rhs = float(np.linalg.norm(T @ x - np.vdot(x, T @ x) * x))
    checks.append(_check("rank-one-commutator-identity", abs(lhs - rhs) <= 1e-10, abs(lhs - rhs)))
    rows = []
    rep = compactness_report(sp, Tm, seed=seed)
    for t, b in zip(rep["depths"], rep["berezin"]):
        rows.append({"depth": t, "berezin_abs": b, "N": N})
    checks.append(_check("identity-not-compact",
                         abs(berezin(sp, identity_operator(sp), np.array([0j]))) >= 0.99, 1.0))
    wit = offdiag_split_search(sp, Tm, [_bump(0.1, 0.3), _bump(0.5, 0.7)])
    checks.append(_check("offdiag-witness", wit["found"], wit["lhs"]))
    res = hankel_and_commutator(sp, lambda w: np.conj(w[:, 0]))
    checks.append(_check("hankel-conjugate", abs(res["hankel_norm"] - 1 / np.sqrt(2)) <= 1e-6,
                         res["hankel_norm"]))
    return {"checks": checks, "tables": {"berezin_decay": rows}}


def _bump(lo: float, hi: float):
    def f(w):
        s = np.abs(w[:, 0]) ** 2
        return ((s >= lo) & (s <= hi)).astype(float)

    return f


def suite_covering(dom, seed: int, budgets: dict) -> dict:
    checks = []
    if dom.n > 2:
        return {"checks": [_check("covering-skipped", True, None)], "tables": {}}
    cand = budgets.get("cover_candidates", 4000)
    cover = build_cover(dom, m=65.0, candidate_count=cand, seed=seed)
    rows = []
    for lv in cover.levels:
        for i, u in enumerate(lv.centers):
            rows.append(
                {
                    "level": lv.index,
                    "center_index": i,
                    "angle": float(np.angle(u[0])),
                    "cap_radius": lv.d,
                }
            )
    checks.append(_check("cover-built", True, sum(len(lv.centers) for lv in cover.levels)))
    lv = cover.levels[0]
    rng = np.random.default_rng(seed)
    pairs_ok = True
    m = len(lv.centers)
    for _ in range(min(10, m - 1)):
        i, j = rng.integers(m), rng.integers(m)
        if i == j:
            continue
        xs = _cap_sample(dom, lv.centers[i], lv.d, 400, rng)
        pairs_ok &= not np.any(gauge_mod.cap_contains(dom, lv.centers[j], lv.d, xs))
    checks.append(_check("cap-disjointness", pairs_ok, lv.d))
    pool = dom_mod.surface_pool(dom, 0.0, 2000, seed + 5)
    witness = coverage_audit(dom, lv.centers, lv.a, pool)
    checks.append(_check("cap-coverage", witness is None, None))
    checks.append(_check("overlap-bounded", int(max(lv.colors)) + 1 <= cover.n0_observed, cover.n0_observed))
    return {"checks": checks, "tables": {"cover_map": rows}}


SUITES = {
    "metric": suite_metric,
    "gauge": suite_gauge,
    "lattice": suite_lattice,
    "kernel": suite_kernel,
    "operators": suite_operators,
    "covering": suite_covering,
}


# -- runner ------------------------------------------------------------------------


def run_plan(plan: dict, out_dir: str | Path) -> dict:
    names = plan.get("suites", [])
    if names == "all":
        names = list(SUITES)
    if not isinstance(names, list):
        raise PlanError(f'suites must be a list of suite names or "all", not {names!r}')
    for name in names:
        if name not in SUITES:
            raise PlanError(f"unknown suite {name!r}")
    budgets = plan.get("budgets", {})
    if not isinstance(budgets, dict):
        raise PlanError(f"budgets must be an object, not {budgets!r}")
    for key in budgets:
        if key not in BUDGET_KEYS:
            raise PlanError(f"unknown budget {key!r}; a plan may set {', '.join(BUDGET_KEYS)}")
    seed = plan.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise PlanError(f"seed must be an integer, not {seed!r}")
    dom = load_domain(plan.get("domain", {"builtin": "disc"}))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = {}
    for name in names:
        t0 = time.time()
        res = SUITES[name](dom, seed, budgets)
        res["elapsed_s"] = round(time.time() - t0, 3)
        results[name] = res

    summary = {
        "plan_hash": hashlib.sha256(json.dumps(plan, sort_keys=True).encode()).hexdigest(),
        "seed": seed,
        "domain": plan.get("domain", {"builtin": "disc"}),
        "suites": {name: {"checks": res["checks"]} for name, res in results.items()},
        "passed": all(c["passed"] for res in results.values() for c in res["checks"]),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1))
    timing = {name: res["elapsed_s"] for name, res in results.items()}
    (out_dir / "timing.json").write_text(json.dumps(timing, sort_keys=True, indent=1))
    for name, res in results.items():
        for tname, rows in res.get("tables", {}).items():
            if rows:
                _write_csv(out_dir / f"{name}_{tname}.csv", rows)
    return summary


def _write_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=sorted(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def emit_plot_data(report_dir: str | Path, kind: str, out_path: str | Path | None = None) -> Path:
    report_dir = Path(report_dir)
    mapping = {
        "fr-regression": "gauge_fr_regression.csv",
        "berezin-decay": "operators_berezin_decay.csv",
        "cover-map": "covering_cover_map.csv",
    }
    if kind not in mapping:
        raise PlanError(f"unknown plot kind {kind!r}")
    src = report_dir / mapping[kind]
    if not src.exists():
        raise PlanError(f"report lacks the series for {kind!r}: {src} missing")
    dst = Path(out_path) if out_path else report_dir / f"plot_{kind}.csv"
    dst.write_text(src.read_text())
    return dst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="berglab", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="run a verification plan")
    p_run.add_argument("--plan", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_emit = sub.add_parser("emit", help="emit plot-ready CSV from a report directory")
    p_emit.add_argument("--report", required=True)
    p_emit.add_argument("--kind", required=True, choices=["fr-regression", "berezin-decay", "cover-map"])
    p_emit.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    if args.cmd == "run":
        plan = json.loads(Path(args.plan).read_text())
        if args.seed is not None:
            plan["seed"] = args.seed
        try:
            summary = run_plan(plan, args.out)
        except PlanError as exc:
            print(f"plan error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps({k: v for k, v in summary.items() if k != "suites"}, indent=1))
        return 0 if summary["passed"] else 1
    if args.cmd == "emit":
        try:
            dst = emit_plot_data(args.report, args.kind, args.out)
        except PlanError as exc:
            print(f"emit error: {exc}", file=sys.stderr)
            return 2
        print(str(dst))
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
