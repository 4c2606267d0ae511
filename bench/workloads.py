"""Frozen plan workloads of the benchmark.

Each workload is a copy of a shipped plan (``scripts/plans/*.json``), kept
here so that an edit to the shipped plans cannot silently change what the
benchmark measures.  Plans always run at the shipped seed 2026; see
``run.py`` for why the benchmark's ``--seed`` does not reach the plan.

Two budgets are smaller than the shipped plans, so that a traced run (one
untraced and two traced plans) stays well inside three minutes on a slow
host: ``ellipsoid-lattice`` uses 40 lattice candidates instead of 60 and
``disc-all`` 60 instead of 80.  On a 2-vCPU 2.1 GHz Xeon the shipped
ellipsoid plan took 45 s (lattice suite 33 s) and the default plan 32 s
(lattice suite 11.7 s); at 40 and 60 candidates the two lattice suites took
10.2 s and 5.1 s.
"""

PLAN_SEED = 2026

WORKLOADS = {
    # scripts/plans/default.json, candidates 80 -> 60
    "disc-all": {
        "domain": {"builtin": "disc"},
        "suites": "all",
        "seed": PLAN_SEED,
        "budgets": {"fr_samples": 40000, "candidates": 60, "cover_candidates": 3000},
    },
    # scripts/plans/ellipsoid.json, candidates 60 -> 40
    "ellipsoid-lattice": {
        "domain": {"builtin": "ellipsoid", "weights": [1.0, 2.0]},
        "suites": ["metric", "gauge", "lattice"],
        "seed": PLAN_SEED,
        "budgets": {"fr_samples": 60000, "candidates": 40},
    },
    # scripts/plans/ball2.json, unchanged
    "ball2-cover": {
        "domain": {"builtin": "ball2"},
        "suites": ["metric", "gauge", "covering"],
        "seed": PLAN_SEED,
        "budgets": {"fr_samples": 60000, "candidates": 60, "cover_candidates": 6000},
    },
}

ALL_SUITES = ["metric", "gauge", "lattice", "kernel", "operators", "covering"]

# Number of checks a completed plan reports at the shipped seed.  A plan that
# crashes counts this many checks as failed.
CHECK_COUNT = {"disc-all": 22, "ellipsoid-lattice": 7, "ball2-cover": 10}

# Traced names that must see at least one call when the suite runs; a zero
# means a binding was missed and fails the traced run.
ALWAYS_CALLED = ["cli.run_plan", "poly.eval", "domain.r_val", "domain.dbar_r", "domain.hessian"]
CALLED_BY_SUITE = {
    "metric": ["metric.distance", "metric.metric_form"],
    "gauge": [
        "gauge.fr_integral",
        "gauge.RayField.boundary_radius",
        "gauge.RayField.solve_depth",
        "gauge.cap_measure",
        "gauge.normal_gauge",
        "domain.surface_sample",
    ],
    "lattice": [
        "lattice.build_separated",
        "lattice.pairwise_dupper",
        "lattice.partition_separated",
        "metric.DistanceEstimator",
        "metric.straight_chord_upper",
    ],
    "kernel": ["kernel.kernel_eval"],
    "operators": [
        "operators.build_galerkin",
        "operators.toeplitz_matrix",
        "operators.compactness_report",
        "operators.offdiag_split_search",
        "operators.hankel_and_commutator",
    ],
    "covering": [
        "covering.build_cover",
        "covering.build_packing",
        "covering.coverage_audit",
        "covering.fit_engulfing_constant",
        "covering.index_partition",
    ],
}


def suites_of(plan: dict) -> list[str]:
    names = plan["suites"]
    return list(ALL_SUITES) if names == "all" else list(names)


def expected_calls(plan: dict) -> list[str]:
    names = list(ALWAYS_CALLED)
    for suite in suites_of(plan):
        names += CALLED_BY_SUITE[suite] + [f"cli.suite.{suite}"]
    return names
