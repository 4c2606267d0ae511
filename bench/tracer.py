"""Per-layer tracer for the plan benchmark.

Only the traced child process imports this module.  ``Tracer.install``
wraps the public entry points of each berglab layer.  Every alias of a
wrapped function across the loaded ``berglab.*`` modules is rebound, because
``cli`` imports ``build_separated``, ``toeplitz_matrix`` and others by name.
Methods are rebound on their class.  The suite functions are wrapped inside
``cli.SUITES``.

Every call is aggregated in memory per (name, traced parent): calls, total
time, self time (duration minus the time of traced children) and the work
counts of that call.  Coarse boundaries (suites, ``distance``,
``fr_integral``, the ``build_*`` functions, ...) are also kept as spans with
parent ids.  Nothing is written until ``Tracer.dump``.  Point and term
counts are computed from argument shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _points(z) -> int:
    """Number of points in an array of shape (..., n)."""
    shape = np.shape(z)
    return int(np.prod(shape[:-1])) if len(shape) else 1


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Work counts, each computed from (original function, args, kwargs, result,
# state from ``before``).  A key ending in "_max" keeps the maximum; every
# other key is summed.


def _poly_work(fn, args, kwargs, out, state):
    p = _points(_arg(args, kwargs, 1, "z"))
    return {"points": p, "term_points": p * len(args[0].terms)}


def _arg_points(index, name):
    return lambda fn, args, kwargs, out, state: {"points": _points(_arg(args, kwargs, index, name))}


def _surface_work(fn, args, kwargs, out, state):
    return {"points_out": len(out[0])}


def _ray_work(fn, args, kwargs, out, state):
    return {"rays": len(_arg(args, kwargs, 1, "omega"))}


def _fr_work(fn, args, kwargs, out, state):
    est = abs(out["estimate"])
    rel = out["stderr"] / est if est > 0 else float("inf")
    return {"samples": int(_bind(fn, args, kwargs)["samples"]), "rel_stderr_max": rel}


def _cap_work(fn, args, kwargs, out, state):
    return {"rel_stderr_max": out["stderr"] / out["sigma"]}


def _distance_work(fn, args, kwargs, out, state):
    return {"converged": int(bool(out["converged"]))}


def _chord_work(fn, args, kwargs, out, state):
    return {"chords": _points(_arg(args, kwargs, 2, "w"))}


def _memo_before(args):
    return len(args[0]._memo)


def _memo_work(fn, args, kwargs, out, state):
    return {"memo_hits": int(len(args[0]._memo) == state)}


def _separated_work(fn, args, kwargs, out, state):
    a = _bind(fn, args, kwargs)
    offered = len(a["candidates"]) if a["candidates"] is not None else int(a["candidate_count"])
    return {"candidates": offered, "accepted": len(out)}


def _pairs_work(fn, args, kwargs, out, state):
    m = len(out)
    return {"pairs": m * (m - 1) // 2}


def _centers_work(fn, args, kwargs, out, state):
    return {"centers": len(out)}


@dataclass(frozen=True)
class Target:
    name: str  # layer.function, as it appears in the metric names
    module: str  # berglab submodule that defines it
    attr: str  # "function" or "Class.method"
    span: bool = False  # keep each call as a span, not only the aggregate
    work: Callable | None = None
    before: Callable | None = None


TARGETS = [
    Target("poly.eval", "_poly", "HermPoly.__call__", work=_poly_work),
    Target("domain.r_val", "domain", "DomainSpec.r_val", work=_arg_points(1, "z")),
    Target("domain.dbar_r", "domain", "DomainSpec.dbar_r", work=_arg_points(1, "z")),
    Target("domain.hessian", "domain", "DomainSpec.hessian", work=_arg_points(1, "z")),
    Target("domain.surface_sample", "domain", "surface_sample", span=True, work=_surface_work),
    Target("gauge.normal_gauge", "gauge", "normal_gauge", work=_arg_points(2, "w")),
    Target("gauge.RayField.boundary_radius", "gauge", "RayField.boundary_radius", work=_ray_work),
    Target("gauge.RayField.solve_depth", "gauge", "RayField.solve_depth", work=_ray_work),
    Target("gauge.fr_integral", "gauge", "fr_integral", span=True, work=_fr_work),
    Target("gauge.cap_measure", "gauge", "cap_measure", span=True, work=_cap_work),
    Target("metric.metric_form", "metric", "metric_form", work=_arg_points(1, "z")),
    Target("metric.distance", "metric", "distance", span=True, work=_distance_work),
    Target("metric.straight_chord_upper", "metric", "straight_chord_upper", work=_chord_work),
    Target("metric.DistanceEstimator", "metric", "DistanceEstimator.__call__",
           work=_memo_work, before=_memo_before),
    Target("lattice.build_separated", "lattice", "build_separated", span=True, work=_separated_work),
    Target("lattice.pairwise_dupper", "lattice", "pairwise_dupper", span=True, work=_pairs_work),
    Target("lattice.partition_separated", "lattice", "partition_separated", span=True),
    Target("covering.build_cover", "covering", "build_cover", span=True),
    Target("covering.build_packing", "covering", "build_packing", span=True, work=_centers_work),
    Target("covering.coverage_audit", "covering", "coverage_audit", span=True),
    Target("covering.fit_engulfing_constant", "covering", "fit_engulfing_constant", span=True),
    Target("covering.index_partition", "covering", "index_partition", span=True),
    Target("kernel.kernel_eval", "kernel", "kernel_eval", work=_arg_points(3, "w")),
    Target("operators.build_galerkin", "operators", "build_galerkin", span=True),
    Target("operators.toeplitz_matrix", "operators", "toeplitz_matrix", span=True),
    Target("operators.compactness_report", "operators", "compactness_report", span=True),
    Target("operators.offdiag_split_search", "operators", "offdiag_split_search", span=True),
    Target("operators.hankel_and_commutator", "operators", "hankel_and_commutator", span=True),
    Target("cli.run_plan", "cli", "run_plan", span=True),
]


class Tracer:
    def __init__(self):
        self._t0 = time.perf_counter()
        self._stack: list[list] = []  # frames: [name, child seconds, span id]
        self._agg: dict[tuple[str, str | None], dict] = {}
        self._spans: list[dict] = []
        self.aliases: dict[str, int] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import berglab  # noqa: F401  (loads every submodule)
        from berglab import cli

        modules = [m for k, m in sys.modules.items() if k == "berglab" or k.startswith("berglab.")]
        for t in TARGETS:
            owner = importlib.import_module(f"berglab.{t.module}")
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(t, orig))
                self.aliases[t.name] = 1
                continue
            orig = getattr(owner, t.attr)
            wrapped = self._wrap(t, orig)
            count = 0
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        count += 1
            self.aliases[t.name] = count
        for name, fn in list(cli.SUITES.items()):
            cli.SUITES[name] = self._wrap(Target(f"cli.suite.{name}", "cli", name, span=True), fn)

    def _wrap(self, t: Target, fn):
        stack, agg, spans = self._stack, self._agg, self._spans
        name, work, before, keep_span = t.name, t.work, t.before, t.span
        t_zero = self._t0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, None]
            if keep_span:
                frame[2] = len(spans)
                spans.append({"id": frame[2], "parent": _enclosing_span(stack), "name": name})
            state = before(args) if before is not None else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                key = (name, parent[0] if parent is not None else None)
                row = agg.get(key)
                if row is None:
                    row = agg[key] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                row["calls"] += 1
                row["total_s"] += dt
                row["self_s"] += dt - frame[1]
                if keep_span:
                    spans[frame[2]]["start_s"] = start - t_zero
                    spans[frame[2]]["end_s"] = start + dt - t_zero
            if work is not None:
                for k, v in work(fn, args, kwargs, out, state).items():
                    if k.endswith("_max"):
                        row[k] = max(row.get(k, v), v)
                    else:
                        row[k] = row.get(k, 0) + v
            return out

        traced.bench_traced = True
        return traced

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        rows = [{"name": n, "parent": p, **row} for (n, p), row in sorted(self._agg.items(), key=str)]
        doc = {"aggregates": rows, "spans": self._spans, "aliases": self.aliases}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _enclosing_span(stack) -> int | None:
    for frame in reversed(stack):
        if frame[2] is not None:
            return frame[2]
    return None
