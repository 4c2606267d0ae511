import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from berglab.cli import (
    BUDGET_KEYS,
    PlanError,
    _boundary_anchor,
    _radius_at_depth,
    emit_plot_data,
    load_domain,
    main,
    run_plan,
)


MINI_PLAN = {
    "domain": {"builtin": "disc"},
    "suites": ["kernel", "operators"],
    "seed": 3,
    "budgets": {"galerkin_degree": 6},
}


def test_load_builtin_domains():
    assert load_domain({"builtin": "disc"}).n == 1
    assert load_domain({"builtin": "ball2"}).n == 2
    assert load_domain({"builtin": "ellipsoid"}).tag == "ellipsoid"


def test_unknown_suite_rejected(tmp_path):
    with pytest.raises(PlanError):
        run_plan({"domain": {"builtin": "disc"}, "suites": ["nope"]}, tmp_path)


def test_suites_must_be_a_list_or_all(tmp_path):
    # a bare string would otherwise be read letter by letter
    with pytest.raises(PlanError, match=r"suites must be a list of suite names or \"all\", not 'metric'"):
        run_plan({"domain": {"builtin": "disc"}, "suites": "metric"}, tmp_path)


def test_unknown_budget_rejected(tmp_path):
    plan = {"domain": {"builtin": "disc"}, "suites": [], "budgets": {"fr_samples": 4000, "nodes": 16}}
    with pytest.raises(PlanError, match="unknown budget 'nodes'"):
        run_plan(plan, tmp_path)
    plan["budgets"] = {"separation": 0.4}
    assert main(["run", "--plan", str(_write_plan(tmp_path, plan)), "--out", str(tmp_path / "r")]) == 2
    plan["budgets"] = {key: 1 for key in BUDGET_KEYS}
    assert run_plan(plan, tmp_path)["passed"]


def test_empty_suite_list(tmp_path):
    summary = run_plan({"domain": {"builtin": "disc"}, "suites": []}, tmp_path)
    assert summary["passed"]
    assert summary["suites"] == {}


def test_mini_plan_runs(tmp_path):
    summary = run_plan(dict(MINI_PLAN), tmp_path)
    assert summary["passed"]
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "operators_berezin_decay.csv").exists()


def test_determinism_modulo_timestamp(tmp_path):
    s1 = run_plan(dict(MINI_PLAN), tmp_path / "a")
    s2 = run_plan(dict(MINI_PLAN), tmp_path / "b")
    t1 = (tmp_path / "a" / "summary.json").read_text()
    t2 = (tmp_path / "b" / "summary.json").read_text()
    strip = lambda t: "\n".join(l for l in t.splitlines() if "timestamp" not in l)
    assert strip(t1) == strip(t2)
    assert s1["passed"] and s2["passed"]


def test_emit_plot_data(tmp_path):
    run_plan(dict(MINI_PLAN), tmp_path)
    out = emit_plot_data(tmp_path, "berezin-decay")
    text = out.read_text()
    assert "berezin_abs" in text.splitlines()[0]
    assert "depth" in text.splitlines()[0]


def test_emit_missing_series(tmp_path):
    run_plan(dict(MINI_PLAN), tmp_path)
    with pytest.raises(PlanError):
        emit_plot_data(tmp_path, "cover-map")


def test_cli_main_run_and_emit(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(MINI_PLAN))
    out_dir = tmp_path / "report"
    code = main(["run", "--plan", str(plan_path), "--out", str(out_dir)])
    assert code == 0
    code = main(["emit", "--report", str(out_dir), "--kind", "berezin-decay"])
    assert code == 0


def test_cli_seed_override(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(MINI_PLAN))
    code = main(["run", "--plan", str(plan_path), "--out", str(tmp_path / "r"), "--seed", "9"])
    assert code == 0
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["seed"] == 9


def _reference_axis_root(dom, level, hi):
    """The 80-step bisection on s -> r(s * e1) that the gauge-suite anchors used: (lo, hi)."""
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        z = np.zeros(dom.n, complex)
        z[0] = mid
        if dom.r_val(z) < level:
            lo = mid
        else:
            hi = mid
    return lo, hi


@pytest.mark.parametrize("name", ["disc", "ball2", "egg"])
def test_gauge_anchors_match_reference_bisection(request, name):
    dom = request.getfixturevalue(name)
    for t in [2.0**-k for k in range(6, 11)]:
        ref = _reference_axis_root(dom, -t, 2.0)[0]
        assert abs(_radius_at_depth(dom, t) - ref) <= 2 * np.spacing(ref)
    ref = 0.5 * sum(_reference_axis_root(dom, 0.0, 4.0))
    anchor = _boundary_anchor(dom)
    assert abs(anchor[0] - ref) <= 2 * np.spacing(ref)
    assert np.all(anchor[1:] == 0)


def test_load_domain_certifies_json_and_path_domains(tmp_path, egg):
    assert load_domain({"json": json.loads(egg.to_json())}).tag == "ellipsoid"
    # |z1|^2 - |z2|^2 - 1 < 0 in a box: its Levi form is indefinite
    saddle = {
        "n": 2,
        "r": [[[1, 0], [1, 0], [1.0, 0.0]], [[0, 1], [0, 1], [-1.0, 0.0]], [[0, 0], [0, 0], [-1.0, 0.0]]],
        "bounding_box": [[-2.0, 2.0]] * 4,
        "c": 1.0,
        "theta": 0.25,
        "tag": "custom",
    }
    with pytest.raises(PlanError, match=r"fails certification at theta 0.25: witness \{'kind': 'hessian', 'z': \["):
        load_domain({"json": saddle})
    path = tmp_path / "saddle.json"
    path.write_text(json.dumps(saddle))
    with pytest.raises(PlanError, match="witness"):
        load_domain({"path": str(path)})
    assert main(["run", "--plan", str(_write_plan(tmp_path, {"domain": {"path": str(path)}, "suites": []})),
                 "--out", str(tmp_path / "r")]) == 2


def _write_plan(tmp_path, plan):
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(plan))
    return p


def test_cap_exponent_row_reports_its_uncertainty(disc):
    from berglab.cli import suite_gauge

    row = next(c for c in suite_gauge(disc, 2026, {"fr_samples": 4000})["checks"] if c["name"] == "cap-exponent")
    det = row["details"]
    assert len(det["sigma"]) == len(det["stderr"]) == len(det["hits"]) == 4
    assert all(0 < s < 0.025 * v for s, v in zip(det["stderr"], det["sigma"]))
    assert all(isinstance(h, int) and h > 0 for h in det["hits"])
    assert 0 < det["slope_stderr"] < 0.05
    margin = 0.3 - abs(row["value"] - 1)
    assert det["margin_in_stderrs"] == pytest.approx(margin / det["slope_stderr"])
    assert row["passed"] == (margin >= 0)


def test_fr_exponent_row_reports_its_uncertainty(disc):
    from berglab.cli import suite_gauge

    out = suite_gauge(disc, 2026, {"fr_samples": 4000})
    row = next(c for c in out["checks"] if c["name"] == "fr-exponent-a1")
    det = row["details"]
    table = out["tables"]["fr_regression"]
    assert set(det) == {"r2", "stderr", "slope_stderr", "margin_in_stderrs"}
    assert det["stderr"] == [t["stderr"] for t in table]
    assert len(det["stderr"]) == 5 and all(s > 0 for s in det["stderr"])
    # var(log estimate) ~ (stderr/estimate)^2, propagated through the least-squares slope
    x = np.array([t["log_abs_r"] for t in table])
    rel = np.array(det["stderr"]) / np.exp([t["log_estimate"] for t in table])
    w = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    assert det["slope_stderr"] == pytest.approx(np.sqrt(np.sum((w * rel) ** 2)), rel=1e-9)
    margin = 0.15 - abs(row["value"] + 1)
    assert det["margin_in_stderrs"] == pytest.approx(margin / det["slope_stderr"])
    assert row["passed"] == (margin >= 0)


# a certified disc, as DomainSpec.to_json writes it
DISC_DOC = {
    "n": 1,
    "r": [[[0], [0], [-1.0, 0.0]], [[1], [1], [1.0, 0.0]]],
    "bounding_box": [[-1.05, 1.05]] * 2,
    "c": 2.0,
    "theta": 0.25,
    "tag": "custom",
}


@pytest.mark.parametrize("change, message", [
    ({"bounding_box": [[-1.05, 1.05]]}, r"bounding_box must have shape \(2n, 2\)"),
    ({"r": [[[0], [0], [-1.0, 0.0]], [[1], [1], [1.0, 0.5]]]}, "not real valued"),
    # |z1|^2 + |z2|^2 - 1 with the z2 term's exponents cut to one entry
    ({"n": 2, "r": [[[0, 0], [0, 0], [-1.0, 0.0]], [[1, 0], [1, 0], [1.0, 0.0]], [[1], [1], [1.0, 0.0]]],
      "bounding_box": [[-1.05, 1.05]] * 4}, r"term \[1\], \[1\] of r needs exponent tuples of length n = 2"),
], ids=["box-shape", "not-real", "short-exponents"])
def test_malformed_domain_is_a_plan_error(tmp_path, capsys, change, message):
    doc = dict(DISC_DOC, **change)
    with pytest.raises(PlanError, match=message):
        load_domain({"json": doc})
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc))
    for spec in ({"json": doc}, {"path": str(path)}):
        capsys.readouterr()
        assert main(["run", "--plan", str(_write_plan(tmp_path, {"domain": spec, "suites": []})),
                     "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith("plan error: malformed domain: DomainError: ")
    assert load_domain({"json": DISC_DOC}).n == 1


def test_unreadable_domain_is_a_plan_error(tmp_path):
    with pytest.raises(PlanError, match="malformed domain: KeyError: 'theta'"):
        load_domain({"json": {k: v for k, v in DISC_DOC.items() if k != "theta"}})
    with pytest.raises(PlanError, match="malformed domain: FileNotFoundError: "):
        load_domain({"path": str(tmp_path / "missing.json")})


@pytest.mark.parametrize("change, message", [
    ({"domain": {"builtin": "ellipsoid", "weights": [1.0, -2.0]}},
     "malformed domain: DomainError: ellipsoid weights must be positive"),
    ({"domain": "disc"}, "domain must be an object, not 'disc'"),
    # the operators suite reads its budget with budgets.get
    ({"budgets": ["galerkin_degree"]}, r"budgets must be an object, not \['galerkin_degree'\]"),
    ({"seed": "x"}, "seed must be an integer, not 'x'"),
], ids=["ellipsoid-weight", "domain-string", "budgets-list", "seed-string"])
def test_bad_plan_input_is_a_plan_error(tmp_path, capsys, change, message):
    plan = dict({"domain": {"builtin": "disc"}, "suites": ["operators"]}, **change)
    with pytest.raises(PlanError, match=message):
        run_plan(plan, tmp_path)
    capsys.readouterr()
    assert main(["run", "--plan", str(_write_plan(tmp_path, plan)), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err.startswith("plan error: ")


def test_library_loads_without_scipy():
    import berglab

    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import berglab; from berglab import cli; "
        "cli.load_domain({'builtin': 'ball2'}); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = str(Path(berglab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
