#!/usr/bin/env python3
"""Run the three shipped plans and print a sha256 of every output they are pinned by.

    python scripts/plan_digests.py OUT

Each plan of ``scripts/plans`` (default, ball2, ellipsoid) writes its report
to ``OUT/<plan>``.  One line per file follows: the plan, the file name and
the sha256 of its bytes, for ``summary.json`` with its ``timestamp`` line
removed and then for every CSV in name order.  The lines therefore pin the
summary, the list of CSVs and every CSV's bytes, so two runs (two
processes, or a change and its parent) compare with one ``diff``.  Exits 1
when a plan fails a check.
"""

import hashlib
import json
import sys
from pathlib import Path

from berglab.cli import run_plan

PLANS = Path(__file__).parent / "plans"
SHIPPED = ["default", "ball2", "ellipsoid"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: plan_digests.py OUT", file=sys.stderr)
        return 2
    out = Path(sys.argv[1])
    passed = True
    for name in SHIPPED:
        report = out / name
        passed &= run_plan(json.loads((PLANS / f"{name}.json").read_text()), report)["passed"]
        lines = (report / "summary.json").read_text().splitlines(keepends=True)
        summary = "".join(line for line in lines if '"timestamp"' not in line)
        print(f"{name} summary.json {_sha256(summary.encode())}")
        for csv in sorted(report.glob("*.csv")):
            print(f"{name} {csv.name} {_sha256(csv.read_bytes())}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
