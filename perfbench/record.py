"""Record the reference digests that the benchmark checks outputs against.

    python3 perfbench/record.py

Run it from the repository root, at the commit whose outputs are the
reference.  For every workload and each of SEEDS it runs each job with a
distinct input once, in one worker process per core, checks its output
with the job's independent checks, and rewrites ``perfbench/reference.json``
with digest(input) -> digest(canonical output) per workload, the
environment it ran in and each workload's description.  Runs on seeds not
recorded here still make every independent check; only the digest
comparison is skipped.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

SCRATCH = run.ROOT / ".perfbench-record"
SEEDS = list(range(20))


def record(task):
    """The package thread count and the digests of every job of one
    (workload, seed) whose input key is not in ``skip``.  Each task works
    in its own directory, so the relative algebra-file paths in CLI
    reports match those of a benchmark run."""
    name, seed, skip = task
    workdir = SCRATCH / f"{name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    workload = WORKLOADS[name]
    plan = workload.build(run.load_package(), seed, workload.input_cycles, run.WORKDIR)
    gate = run.Gate({})
    digests = {}
    for cycle in plan.cycles:
        for job in cycle:
            key = digest(job.key)
            if key in skip or key in digests:
                continue
            raw = job.call()
            if not gate.passes(job, raw):
                raise RuntimeError(f"{name} seed {seed}: {gate.errors[-1]}")
            digests[key] = digest(job.canon(raw))
    return name, plan.threads, digests


def main() -> None:
    pool = multiprocessing.get_context("spawn").Pool(os.cpu_count() or 1)
    try:
        # structure's fixture and construction jobs are the same for every
        # seed: record them once, with the first seed
        first = [(name, seed, frozenset()) for seed in SEEDS for name in WORKLOADS
                 if name != "structure" or seed == SEEDS[0]]
        results = pool.map(record, first, chunksize=1)
        known = frozenset(next(part for name, _, part in results if name == "structure"))
        results += pool.map(record, [("structure", seed, known) for seed in SEEDS[1:]],
                            chunksize=1)
    finally:
        pool.close()
        pool.join()
        shutil.rmtree(SCRATCH, ignore_errors=True)
    threads, groups = {}, {name: {} for name in WORKLOADS}
    for name, package_threads, part in results:
        threads[name] = package_threads
        digests = groups[name]
        for key, value in part.items():
            if digests.setdefault(key, value) != value:
                raise RuntimeError(f"{name}: input {key} gave two different outputs")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    reference = {
        "recorded_with": {
            "git_sha": sha,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seeds": SEEDS,
        },
        "workloads": {
            w.name: {"why": w.why, "inputs": w.inputs, "stresses": w.stresses,
                     "bypasses": w.bypasses, "cycle_s": w.cycle_s,
                     "input_cycles": w.input_cycles, "trace_cycles": w.trace_cycles}
            for w in WORKLOADS.values()
        },
        "package_threads": threads,
        "digests": {name: dict(sorted(groups[name].items())) for name in WORKLOADS},
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    print(f"recorded {sum(len(part) for _, _, part in results)} digests "
          f"for seeds {SEEDS[0]}-{SEEDS[-1]}", file=sys.stderr)


if __name__ == "__main__":
    main()
