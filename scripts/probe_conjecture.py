#!/usr/bin/env python3
"""Run the exhaustive criterion on seeded random scalar matrices.

The paper states the scalar-matrix case for (n, m) in {(3, 2), (4, 2),
(4, 3)}.  Within the criterion's reduction every scalar matrix passes, at
every shape: its pi^S are constant, so the first residual family vanishes,
and the second is a Grassmann-Pluecker identity among maximal minors
(Fulton, Young Tableaux, 1997, sec. 9).  The criterion decides a scalar
matrix from its curls, which all vanish, before any pi table is built, so
the probe exercises the curl pass, the budget and the report path, and a
sweep cannot fail; a failure would be a fault in the program and is
dumped verbatim.

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
