#!/usr/bin/env python3
"""Build a boundary cover and print the audit numbers level by level."""

import argparse
import time

from berglab.covering import build_cover, coverage_audit
from berglab.domain import surface_pool, unit_ball


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1)
    parser.add_argument("--m", type=float, default=65.0)
    parser.add_argument("--candidates", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    dom = unit_ball(args.n, theta=0.25)
    t0 = time.time()
    cover = build_cover(dom, m=args.m, candidate_count=args.candidates, seed=args.seed)
    print(f"built in {time.time() - t0:.1f}s; engulfing constant {cover.c1:.3f}; "
          f"overlap budget {cover.n0_observed} (counting-bound form {cover.n0_bound:.1f})")
    pool = surface_pool(dom, 0.0, 4000, args.seed + 1234)
    for lv in cover.levels:
        witness = coverage_audit(dom, lv.centers, lv.a, pool)
        print(
            f"level {lv.index}: {len(lv.centers):5d} caps, radius {lv.d:.3e}, "
            f"bands A=[{lv.depth_a[0]:.2e},{lv.depth_a[1]:.2e}) B=({lv.depth_b[0]:.2e},{lv.depth_b[1]:.2e}), "
            f"classes {int(lv.colors.max()) + 1}, coverage {'ok' if witness is None else 'GAP'}"
        )


if __name__ == "__main__":
    main()
