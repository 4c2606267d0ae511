"""Per-layer metrics, derived from the aggregates a traced plan writes.

``PER_LAYER`` maps each metric name to its unit and to a function of the
folded aggregates.  A layer the workload does not exercise reads 0.  Point,
term, ray, sample and chord counts are computed from argument shapes.
"""

from __future__ import annotations


def fold(rows: list[dict]) -> dict:
    """Aggregates summed over parents: name -> totals; also (name, parent) -> row."""
    out: dict = {}
    for row in rows:
        for key in (row["name"], (row["name"], row["parent"])):
            acc = out.setdefault(key, {})
            for k, v in row.items():
                if k in ("name", "parent"):
                    continue
                acc[k] = max(acc.get(k, v), v) if k.endswith("_max") else acc.get(k, 0) + v
    return out


def _get(name: str, key: str):
    return lambda agg: agg.get(name, {}).get(key, 0)


def _ratio(num, den):
    def f(agg):
        d = den(agg)
        return num(agg) / d if d else 0.0

    return f


def _r_points_in_surface_sample(agg) -> int:
    return agg.get(("domain.r_val", "domain.surface_sample"), {}).get("points", 0)


def _audits_in_packing(agg) -> int:
    return agg.get(("covering.coverage_audit", "covering.build_packing"), {}).get("calls", 0)


COUNT, SEC, RATIO = "count", "s", "ratio"

PER_LAYER: dict[str, tuple] = {}


def _add(name: str, key: str, unit: str):
    PER_LAYER[f"{name}.{key}"] = (unit, _get(name, key))


for _key, _unit in [("calls", COUNT), ("points", COUNT), ("term_points", COUNT),
                    ("total_s", SEC), ("self_s", SEC)]:
    _add("poly.eval", _key, _unit)
for _name in ("domain.r_val", "domain.dbar_r", "domain.hessian"):
    for _key, _unit in [("calls", COUNT), ("points", COUNT), ("self_s", SEC)]:
        _add(_name, _key, _unit)
for _key, _unit in [("calls", COUNT), ("points_out", COUNT), ("total_s", SEC), ("self_s", SEC)]:
    _add("domain.surface_sample", _key, _unit)
PER_LAYER["domain.surface_sample.r_points_per_point"] = (
    RATIO, _ratio(_r_points_in_surface_sample, _get("domain.surface_sample", "points_out")))

for _name in ("gauge.RayField.boundary_radius", "gauge.RayField.solve_depth"):
    for _key, _unit in [("rays", COUNT), ("total_s", SEC), ("self_s", SEC)]:
        _add(_name, _key, _unit)
for _key, _unit in [("calls", COUNT), ("samples", COUNT), ("total_s", SEC), ("self_s", SEC)]:
    _add("gauge.fr_integral", _key, _unit)
PER_LAYER["gauge.fr_integral.max_rel_stderr"] = (RATIO, _get("gauge.fr_integral", "rel_stderr_max"))
for _key, _unit in [("calls", COUNT), ("total_s", SEC)]:
    _add("gauge.cap_measure", _key, _unit)
PER_LAYER["gauge.cap_measure.max_rel_stderr"] = (RATIO, _get("gauge.cap_measure", "rel_stderr_max"))
for _key, _unit in [("points", COUNT), ("self_s", SEC)]:
    _add("gauge.normal_gauge", _key, _unit)

for _key, _unit in [("calls", COUNT), ("total_s", SEC), ("self_s", SEC)]:
    _add("metric.distance", _key, _unit)
PER_LAYER["metric.distance.converged_ratio"] = (
    RATIO, _ratio(_get("metric.distance", "converged"), _get("metric.distance", "calls")))
for _key, _unit in [("points", COUNT), ("self_s", SEC)]:
    _add("metric.metric_form", _key, _unit)
for _key, _unit in [("calls", COUNT), ("chords", COUNT), ("total_s", SEC)]:
    _add("metric.straight_chord_upper", _key, _unit)
PER_LAYER["metric.DistanceEstimator.memo_hit_ratio"] = (
    RATIO, _ratio(_get("metric.DistanceEstimator", "memo_hits"), _get("metric.DistanceEstimator", "calls")))

_add("lattice.build_separated", "total_s", SEC)
PER_LAYER["lattice.build_separated.accept_ratio"] = (
    RATIO, _ratio(_get("lattice.build_separated", "accepted"), _get("lattice.build_separated", "candidates")))
for _key, _unit in [("pairs", COUNT), ("total_s", SEC)]:
    _add("lattice.pairwise_dupper", _key, _unit)
_add("lattice.partition_separated", "total_s", SEC)

_add("covering.build_cover", "total_s", SEC)
for _key, _unit in [("calls", COUNT), ("centers", COUNT), ("total_s", SEC), ("self_s", SEC)]:
    _add("covering.build_packing", _key, _unit)
PER_LAYER["covering.build_packing.audits_per_call"] = (
    RATIO, _ratio(_audits_in_packing, _get("covering.build_packing", "calls")))
for _name in ("coverage_audit", "fit_engulfing_constant", "index_partition"):
    _add(f"covering.{_name}", "total_s", SEC)

for _key, _unit in [("calls", COUNT), ("points", COUNT)]:
    _add("kernel.kernel_eval", _key, _unit)
for _name in ("build_galerkin", "toeplitz_matrix", "compactness_report", "offdiag_split_search",
              "hankel_and_commutator"):
    _add(f"operators.{_name}", "total_s", SEC)

for _suite in ("metric", "gauge", "lattice", "kernel", "operators", "covering"):
    _add(f"cli.suite.{_suite}", "total_s", SEC)


def per_layer(rows: list[dict]) -> dict[str, float]:
    agg = fold(rows)
    return {name: float(fn(agg)) for name, (_, fn) in PER_LAYER.items()}


def counts(rows: list[dict]) -> dict:
    """Every non-time field of every (name, parent) aggregate; must repeat exactly."""
    return {
        (row["name"], row["parent"]): {k: v for k, v in row.items() if not k.endswith("_s")}
        for row in rows
    }
