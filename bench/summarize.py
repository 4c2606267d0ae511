"""Medians and quartiles over saved outputs of ``run.py``.

    python3 bench/run.py --workload disc-all --seed 1 > logs/disc-all.1.log   # repeat
    python3 bench/summarize.py logs/*.log [--out FILE]

For each workload and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their spread (Q3 - Q1) / median,
together with the check counts, summary digests and host-probe times seen.
Metrics of traced runs are summarised separately.  ``--out`` also writes
the summary as JSON; ``baseline.json`` was made this way.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from collections import defaultdict

TEXT_SUITE = re.compile(r"^(suite\.\w+_s) (\S+) s \(median of \d+\)$")


def summarize(paths: list[str]) -> dict:
    raw: dict = defaultdict(lambda: {"runs": 0, "metrics": defaultdict(list), "units": {},
                                     "digests": set(), "checks": set(), "probe_s": [], "problems": []})
    for path in paths:
        with open(path) as fh:
            lines = fh.read().splitlines()
        result = json.loads(lines[-1])
        workload = re.match(r"workload (\S+):", lines[0]).group(1)
        traced = bool(result["metrics"]) and "wall_s" not in result["metrics"]
        w = raw[f"{workload} (traced)" if traced else workload]
        w["runs"] += 1
        for name, m in result["metrics"].items():
            w["metrics"][name].append(m["value"])
            w["units"][name] = m["unit"]
        for line in lines[:-1]:
            if line.startswith("summary digest"):
                w["digests"].add(line.split()[-1])
            elif line.startswith("checks:"):
                w["checks"].add(line.split(" over ")[0] + " " + line.split("; ")[-1])
            elif line.startswith("host probe"):
                w["probe_s"] += [float(x) for x in line.split(":")[1].split(",")]
            elif line.startswith("PROBLEM"):
                w["problems"].append(f"{path}: {line}")
            elif not traced and (match := TEXT_SUITE.match(line)) and match.group(1) not in result["metrics"]:
                w["metrics"][match.group(1)].append(float(match.group(2)))
                w["units"][match.group(1)] = "s"
        if not result["correct"]:
            w["problems"].append(f"{path}: correct is false")
    out = {}
    for name, w in sorted(raw.items()):
        if len(w["digests"]) > 1:
            w["problems"].append(f"runs of one commit disagree on the summary digest: {sorted(w['digests'])}")
        stats = {}
        for metric, xs in w["metrics"].items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], None, xs[0])
            stats[metric] = {"unit": w["units"][metric], "n": len(xs), "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0}
        out[name] = {
            "runs": w["runs"],
            "metrics": stats,
            "summary_digests": sorted(w["digests"]),
            "checks": sorted(w["checks"]),
            "host_probe_s": w["probe_s"],
            "problems": w["problems"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("logs", nargs="+")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    out = summarize(args.logs)
    for name, w in out.items():
        print(f"== {name}: {w['runs']} runs, digests {w['summary_digests']}")
        for line in w["checks"] + w["problems"]:
            print(f"   {line}")
        for metric, s in w["metrics"].items():
            print(f"   {metric:44s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.3f}  (n={s['n']})")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
