#!/usr/bin/env python3
"""Probe the scalar-matrix conjecture on seeded random matrices.

The paper-backed cases are (n, m) in {(3, 2), (4, 2), (4, 3)}; anything
beyond that is open territory, so a clean sweep is evidence, not proof,
while a single failure would be a counterexample and is dumped verbatim.

Usage:
    python scripts/probe_conjecture.py --n 5 --m 2 --trials 10 --seed 0
"""

import argparse
import json
import sys
import time

sys.path.insert(0, "src")

from poisson_nlie.criterion import probe_conjecture


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    report = probe_conjecture(args.n, args.m, args.trials, args.seed)
    elapsed = time.perf_counter() - started
    passes = sum(1 for v in report.verdicts if v == "pass")
    print(f"(n, m) = ({args.n}, {args.m}): {passes}/{args.trials} trials pass "
          f"in {elapsed:.1f}s "
          f"({report.counts_per_trial['groups_total']} residual groups per matrix)")
    if report.failures:
        print("counterexample candidates found:")
        print(json.dumps(report.failures, indent=2))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
