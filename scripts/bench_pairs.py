#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written as a BENCH file.

Runs ``python3 perfbench/run.py --workload W --seed N --seconds S`` in the
parent checkout and in the change checkout, one pair per seed: odd seeds
run the parent first, even seeds the change first.  S is the
``run_seconds`` of the checkout's ``BENCHMARK.json``, as in the benchmark.
For every end-to-end metric that ``BENCHMARK.json`` (read from the change
checkout) declares, the BENCH file gives each side's median and quartiles
over its runs, the relative change of the medians, in how many pairs the
change read better (ties count for neither side), and whether the change's
median is within the metric's bound of the parent's (``within_bound``).
For each workload it also gives each side's ``failed_share`` (failed over
attempted operations, summed over its runs) and whether the change's share
is no larger than the parent's (``failed_share_not_worse``).
With ``--claim``, the claim records ``claim_met`` (the rule of
``claim_met`` below, which also needs every run correct and the failed
share not worse) and a traced run per side of the claimed workload
(``--trace 1``, seed 0) adds the per-layer counts, which repeat exactly;
without it the file records no-regression pairs, with ``"claim": null``
and no traced run.

Usage:
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload criterion-poly --workload probe-scalar --seeds 1-10 \\
        --claim criterion-poly:jobs_per_s --change-desc "..." --out BENCH_x.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METHOD = ("paired runs, each side from its own checkout of the committed files; "
          "odd seeds ran the parent first, even seeds the change first; medians and "
          "quartiles over the runs of one side; 'change_better' counts pairs where the "
          "change read better, ties counting for neither")
TRACE_SEED = 0  # the seed of the one traced run per side


def load_benchmark(checkout):
    return json.loads((Path(checkout) / "BENCHMARK.json").read_text())


def run_once(checkout, workload, seed, trace=0):
    """The JSON result line of one ``perfbench/run.py`` run in ``checkout``,
    for the ``run_seconds`` its ``BENCHMARK.json`` sets."""
    seconds = load_benchmark(checkout)["run_seconds"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no result from {checkout} ({workload}, seed {seed}): {done.stderr}")
    return lines[-1]


def run_pairs(parent, change, workload, seeds):
    """The raw records {seed, side, line}, alternating which side runs first."""
    raw = []
    for seed in seeds:
        sides = [("parent", parent), ("change", change)]
        if seed % 2 == 0:
            sides.reverse()
        for side, checkout in sides:
            raw.append({"seed": seed, "side": side,
                        "line": run_once(checkout, workload, seed)})
    return raw


def _values(raw, side, name):
    return {r["seed"]: json.loads(r["line"])["metrics"][name]["value"]
            for r in raw if r["side"] == side}


def summarize_metric(raw, spec):
    """Medians, quartiles and the pair count of one end-to-end metric; ``spec``
    is its entry in BENCHMARK.json (name, unit, better, bound)."""
    parent = _values(raw, "parent", spec["name"])
    change = _values(raw, "change", spec["name"])
    seeds = sorted(parent.keys() & change.keys())
    sign = 1 if spec["better"] == "higher" else -1
    better = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    p, c = [parent[s] for s in seeds], [change[s] for s in seeds]
    p_median, c_median = statistics.median(p), statistics.median(c)
    limit = p_median * (1 - sign * spec["bound"])
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent_median": round(p_median, 7),
        "parent_quartiles": [round(q, 7) for q in _quartiles(p)],
        "change_median": round(c_median, 7),
        "change_quartiles": [round(q, 7) for q in _quartiles(c)],
        "change_over_parent": round(c_median / p_median - 1, 4) if p_median else None,
        "change_better": f"{better}/{len(seeds)}",
        "within_bound": sign * (c_median - limit) >= 0,
    }


def claim_met(workload, metric):
    """The rule for claiming a gain on ``metric`` of one workload's summary
    (``summarize_workload``): every run's outputs correct, a failed share no
    larger than the parent's, at least ten pairs, the change better in at
    least nine tenths of them (ties count for neither side), and the medians
    apart, in the better direction, by more than the distance between the
    parent's quartiles.  A faster run over wrong outputs claims nothing."""
    summary = workload["metrics"][metric]
    better, pairs = (int(v) for v in summary["change_better"].split("/"))
    q1, q3 = summary["parent_quartiles"]
    sign = 1 if summary["better"] == "higher" else -1
    gap = sign * (summary["change_median"] - summary["parent_median"])
    return (workload["all_correct"] and workload["failed_share_not_worse"]
            and pairs >= 10 and 10 * better >= 9 * pairs and gap > q3 - q1)


def _quartiles(values):
    """First and third quartiles (``statistics.quantiles``, exclusive method);
    a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def failed_share(raw, side):
    """The share of ``side``'s operations that failed: the sum of ``failed``
    over the sum of ``attempted`` in its result lines; None when none was
    attempted."""
    lines = [json.loads(r["line"]) for r in raw if r["side"] == side]
    attempted = sum(line["attempted"] for line in lines)
    return sum(line["failed"] for line in lines) / attempted if attempted else None


def summarize_workload(raw, specs):
    seeds = sorted({r["seed"] for r in raw})
    shares = {side: failed_share(raw, side) for side in ("parent", "change")}
    return {
        "seeds": seeds,
        "pairs": len(seeds),
        "all_correct": all(json.loads(r["line"])["correct"] for r in raw),
        "failed_share": shares,
        "failed_share_not_worse": shares["change"] is not None and (
            shares["parent"] is None or shares["change"] <= shares["parent"]),
        "metrics": {spec["name"]: summarize_metric(raw, spec) for spec in specs},
        "raw": raw,
    }


def trace_counts(parent_line, change_line):
    """The per-layer counts of one traced run per side, where either is nonzero."""
    parent = json.loads(parent_line)["metrics"]
    change = json.loads(change_line)["metrics"]
    return {name: {"parent": parent[name]["value"], "change": change[name]["value"]}
            for name in parent
            if parent[name]["unit"] == "count" and name in change
            and (parent[name]["value"] or change[name]["value"])}


def parse_seeds(text):
    """'1-10' or '1,3,5' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--claim", help="workload:metric the change claims, if any")
    parser.add_argument("--change-desc", required=True)
    parser.add_argument("--parent-commit", default="")
    parser.add_argument("--machine", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    benchmark = load_benchmark(args.change)
    if args.claim:
        claim_workload, _, claim_metric = args.claim.partition(":")
        if (claim_workload not in args.workload
                or claim_metric not in {spec["name"] for spec in benchmark["end_to_end"]}):
            parser.error(f"--claim {args.claim} names no end-to-end metric of a --workload")
    seconds = benchmark["run_seconds"]
    report = {
        "change": args.change_desc,
        "parent_commit": args.parent_commit,
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds}",
        "machine": args.machine,
        "method": METHOD,
        "claim": None,
        "workloads": {},
    }
    for workload in args.workload:
        raw = run_pairs(args.parent, args.change, workload, args.seeds)
        report["workloads"][workload] = summarize_workload(raw, benchmark["end_to_end"])
        print(f"{workload}: {report['workloads'][workload]['metrics']}", file=sys.stderr)
    if args.claim:
        report["claim"] = {"workload": claim_workload, "metric": claim_metric,
                           "claim_met": claim_met(report["workloads"][claim_workload],
                                                  claim_metric)}
        lines = [run_once(checkout, claim_workload, TRACE_SEED, trace=1)
                 for checkout in (args.parent, args.change)]
        report["trace"] = {
            "command": (f"python3 perfbench/run.py --workload {claim_workload} "
                        f"--seed {TRACE_SEED} --seconds {seconds} --trace 1"),
            "note": "one traced run per side; counts are deterministic, the traced seconds "
                    "of a single run on a shared machine are not and are left out",
            "counts": trace_counts(*lines),
        }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
