#!/usr/bin/env python3
"""Paired benchmark comparison of a base revision against this checkout.

    python3 scripts/compare_bench.py --base REV --workload W --pairs K [--seconds S] [--seed N]

REV is checked out into a temporary ``git worktree``, and so is the change:
this checkout's HEAD with its uncommitted changes to tracked files (as
``git stash create`` records them; untracked files are left out).  The two
trees sit side by side under one temporary directory, at paths of equal
length, because the length of a checkout's path alone moves the heap
layout and with it the page faults and the time of a plan.  Both are
deleted afterwards.  Each pair runs the unchanged ``bench/run.py
--workload W --seed N+i --seconds S`` of both trees, one after the other:
the base first in odd pairs, the change first in even pairs, so that a
drift of the host during the series does not favour one side.  Every run
benchmarks the sources of its own tree.

For every end-to-end metric of the benchmark's JSON line, the script prints
each pair's values and their ratio (change / base), then the median and
quartiles of each side, in how many pairs the change read lower, and a
verdict.  A difference is resolved only when the change reads lower (or
higher) in at least nine tenths of the pairs, that many wins are as
unlikely under equal code as 9 wins in 10 pairs are (a two-sided sign
test, p <= 22/1024; so fewer than 7 pairs never resolve a difference), and
the gap between the medians exceeds the base's quartile spread.
Otherwise the metric is "unresolved" (or "same" when the medians are
equal).  The suite times of
the text report follow, with the same verdicts; they are not end-to-end
metrics.  It also says whether every run was correct and whether the
summary digests of the two trees agree.  The last line printed is one JSON
object with every run's values.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUITE_LINE = re.compile(r"^(suite\.\w+_s) ([0-9.eE+-]+) s")
DIGEST_LINE = re.compile(r"^summary digest sha256 (\S+)")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run of ``tree``: its JSON line, suite times and digest."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, cwd=tree,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py failed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    doc = json.loads(lines[-1])
    suites, digest = {}, None
    for line in lines[:-1]:
        if m := SUITE_LINE.match(line):
            suites[m.group(1)] = float(m.group(2))
        if m := DIGEST_LINE.match(line):
            digest = m.group(1)
    return {
        "correct": doc["correct"], "attempted": doc["attempted"], "failed": doc["failed"],
        "metrics": {k: v["value"] for k, v in doc["metrics"].items()},
        "units": {k: v["unit"] for k, v in doc["metrics"].items()},
        "suites": suites, "digest": digest,
    }


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) == 1:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def sign_p(wins: int, pairs: int) -> float:
    """Two-sided sign-test p of ``wins`` or more wins one way in ``pairs`` pairs of equal code."""
    return min(1.0, 2.0 * sum(math.comb(pairs, k) for k in range(wins, pairs + 1)) / 2.0**pairs)


def compare(base: list[float], change: list[float]) -> dict:
    """Medians, quartiles, pairs won and the verdict of one metric."""
    mb, mc = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    lower = sum(c < b for b, c in zip(base, change))
    higher = sum(c > b for b, c in zip(base, change))
    wins = lower if mc < mb else higher
    gap = abs(mc - mb)
    if gap == 0.0:
        verdict = "same"
    elif gap > q3 - q1 and wins >= math.ceil(0.9 * len(base)) and sign_p(wins, len(base)) <= sign_p(9, 10):
        verdict = "resolved lower" if mc < mb else "resolved higher"
    else:
        verdict = "unresolved"
    return {
        "base_median": mb, "base_q1": q1, "base_q3": q3,
        "change_median": mc, "change_q1": quartiles(change)[0], "change_q3": quartiles(change)[1],
        "lower_in": lower, "pairs": len(base), "rel_change": (mc - mb) / mb if mb else None,
        "verdict": verdict,
    }


def report(name: str, unit: str, base: list[float], change: list[float]) -> tuple[list[str], dict]:
    c = compare(base, change)
    ratios = ", ".join(f"{y / x:.3f}" if x else "-" for x, y in zip(base, change))
    rel = f"{100 * c['rel_change']:+.1f}%" if c["rel_change"] is not None else "-"
    lines = [
        f"{name} ({unit})",
        f"  ratios per pair: {ratios}",
        f"  base {c['base_median']:.4f} [{c['base_q1']:.4f}, {c['base_q3']:.4f}]  "
        f"change {c['change_median']:.4f} [{c['change_q1']:.4f}, {c['change_q3']:.4f}]  {rel}",
        f"  lower in {c['lower_in']} of {c['pairs']}: {c['verdict']}",
    ]
    return lines, c


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0, help="bench/run.py's measurement window")
    ap.add_argument("--seed", type=int, default=2026, help="probe seed of the first pair; pair i adds i")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    def git(*cmd: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *cmd], check=True, capture_output=True,
                              text=True).stdout.strip()

    change_rev = git("stash", "create") or git("rev-parse", "HEAD")
    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="compare-bench-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "head"}
        try:
            for side, rev in (("base", args.base), ("change", change_rev)):
                git("worktree", "add", "--detach", str(trees[side]), rev)
            for i in range(args.pairs):
                seed = args.seed + i
                order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
                for side in order:
                    runs[side].append(run_bench(trees[side], args.workload, seed, args.seconds))
                print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first) done", file=sys.stderr)
        finally:
            for tree in trees.values():
                subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                               capture_output=True, text=True)
            subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True, text=True)

    out = [f"workload {args.workload}: base {args.base} against {change_rev}, {args.pairs} pairs, "
           f"seeds {args.seed}-{args.seed + args.pairs - 1}, --seconds {args.seconds}"]
    summary = {}
    units = runs["base"][0]["units"]
    for name in units:
        lines, summary[name] = report(name, units[name], [r["metrics"][name] for r in runs["base"]],
                                      [r["metrics"][name] for r in runs["change"]])
        out += lines
    out.append("suite times (not end-to-end metrics):")
    suites = set.intersection(*(set(r["suites"]) for r in runs["base"] + runs["change"])) - set(units)
    for name in sorted(suites):
        lines, summary[name] = report(name, "s", [r["suites"][name] for r in runs["base"]],
                                      [r["suites"][name] for r in runs["change"]])
        out += lines
    correct = all(r["correct"] and not r["failed"] for side in runs.values() for r in side)
    digests = {side: sorted({r["digest"] for r in rs}) for side, rs in runs.items()}
    out.append(f"all runs correct with 0 failed: {correct}")
    out.append(f"summary digests: base {digests['base']}, change {digests['change']}, "
               f"{'same' if digests['base'] == digests['change'] else 'DIFFERENT'}")
    print("\n".join(out))
    print(json.dumps({"workload": args.workload, "base": args.base, "change": change_rev, "seeds": [args.seed + i for i in range(args.pairs)],
                      "correct": correct, "digests": digests, "summary": summary, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
