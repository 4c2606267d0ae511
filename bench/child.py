"""One fresh interpreter of the plan benchmark; started by ``run.py``.

    child.py setup ROOT DOMAIN_JSON
        import berglab and load the domain, then exit (timed by the parent
        as the set-up time).
    child.py plan ROOT PLAN_FILE OUT_DIR TRACE PROBE_SEED
        time the host-drift probe, then run the plan with ``run_plan`` and
        write ``result.json`` (and ``trace.json`` when TRACE is 1) to
        OUT_DIR.

The tracer is imported only when TRACE is 1, so an untraced plan runs the
library exactly as a ``berglab run`` user does.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _patched() -> bool:
    """True when any berglab function or method carries a tracer wrapper."""
    from berglab import cli

    objs = list(cli.SUITES.values())
    for name, mod in list(sys.modules.items()):
        if name == "berglab" or name.startswith("berglab."):
            for obj in vars(mod).values():
                objs.append(obj)
                if isinstance(obj, type):
                    objs += list(vars(obj).values())
    return any(getattr(obj, "bench_traced", False) is True for obj in objs)


def host_probe(seed: int) -> float:
    """Seconds for a fixed pure-numpy loop; recorded, never used to rescale."""
    import numpy as np

    x = np.random.default_rng(seed).uniform(0.0, 1.0, 1 << 18)
    t0 = time.perf_counter()
    for _ in range(40):
        x = np.sqrt(np.abs(np.sin(x) * np.exp(-x) + x * x))
        x /= x.max()
    return time.perf_counter() - t0


def setup(root: str, domain_json: str) -> int:
    sys.path.insert(0, str(Path(root) / "src"))
    from berglab import cli

    cli.load_domain(json.loads(domain_json))
    return 0


def plan(root: str, plan_file: str, out_dir: str, trace: str, probe_seed: str) -> int:
    sys.path.insert(0, str(Path(root) / "src"))
    out = Path(out_dir)
    result = {"completed": False}
    try:
        result["probe_s"] = host_probe(int(probe_seed))
        from berglab import cli

        tracer = None
        if trace == "1":
            from tracer import Tracer  # this script's directory is on sys.path

            tracer = Tracer()
            tracer.install()
        result["patched"] = _patched()
        plan_doc = json.loads(Path(plan_file).read_text())
        t0 = time.perf_counter()
        summary = cli.run_plan(plan_doc, out / "report")
        result["wall_s"] = time.perf_counter() - t0
        result["passed"] = bool(summary["passed"])
        result["completed"] = True
        if tracer is not None:
            tracer.dump(out / "trace.json")
    except Exception:
        result["error"] = traceback.format_exc()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = ru.ru_utime + ru.ru_stime
    result["maxrss_mb"] = ru.ru_maxrss / 1024.0
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return 0 if result["completed"] else 1


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    sys.exit({"setup": setup, "plan": plan}[mode](*rest))
