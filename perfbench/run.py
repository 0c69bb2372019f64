"""Benchmark of the poisson_nlie package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports ``poisson_nlie`` from
``src/`` there and exits with code 2, printing no result, when that is
missing.  Workloads are defined in ``workloads.py``; ``--trace 1`` runs the
per-layer trace of ``tracing.py`` instead of the timed run.

The timed run is a closed loop in one process: each job starts when the
previous one has finished and its output has been checked.  It runs a
fixed number of whole cycles of the workload, as many as take about
``--seconds`` at the speed measured when the benchmark was defined, so
every run of a seed does the same work.  Latencies time only the call
into the package; output checks run between jobs and are not timed.
Every reported time is scaled to a nominal machine speed by samples of
the calibrate.py child process taken between jobs (see speed_factor), and
latency percentiles are Harrell-Davis estimates (see quantile);
peak_rss_mb is the benchmark process's own, with its inputs, and is not
scaled.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a human summary, with the
unscaled values, goes to standard error.  The exit code is 0 only when
every job ran and passed every check.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Algebra files for the CLI jobs and the bytecode cache, relative to the
# checkout root; removed at exit.
WORKDIR = Path(".perfbench-work")
SETUP_REPEATS = 3
# Median seconds of one calibrate.py sample on the machine that defined
# the benchmark (2 cores, Python 3.11.7), and the job time between two
# samples.  See speed_factor().
CALIBRATION_NOMINAL_S = 0.0140
CALIBRATION_EVERY_S = 0.25
CALIBRATION_WINDOW = 8
MODULES = ("ring", "subspaces", "jacobian_bracket", "criterion",
           "finite_algebra", "constructions", "cli")

# Bytecode is written under WORKDIR, never read from a __pycache__ that
# other tools left in the checkout: set_up() compiles the package there
# once, untimed, so every timed import loads the same fresh bytecode.
sys.pycache_prefix = str(ROOT / WORKDIR / "pycache")
sys.path.insert(0, str(HERE))

from tracing import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, digest, require  # noqa: E402


def load_package() -> SimpleNamespace:
    """A fresh import of every package module from ``src``."""
    for name in list(sys.modules):
        if name == "poisson_nlie" or name.startswith("poisson_nlie."):
            del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = SimpleNamespace(**{name: importlib.import_module(f"poisson_nlie.{name}")
                             for name in MODULES})
    location = Path(pkg.ring.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise RuntimeError(f"poisson_nlie was imported from {location}, not from {SRC}")
    return pkg


_LIBC = ctypes.CDLL(None)


class Calibration:
    """The calibrate.py child process and the samples it has taken."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-B", str(HERE / "calibrate.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples = []
        self.sample()  # waits until the child has built its inputs
        self.samples.clear()

    def sample(self) -> None:
        """One sample, taken while this process waits for it, on the core
        this process last ran on: contention from other tenants of the
        machine differs from core to core."""
        try:
            os.sched_setaffinity(self.proc.pid, {_LIBC.sched_getcpu()})
        except (OSError, AttributeError, ValueError):
            pass  # no per-core placement here; sample wherever the child runs
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.samples.append(float(self.proc.stdout.readline()))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def speed_factor(samples) -> float:
    """CALIBRATION_NOMINAL_S over the median time of calibration ``samples``.

    The machine's speed drifts by 10-25% over seconds to minutes, for all
    work at once, and nothing inside this process tells that apart from a
    change to the package.  Calibration samples are taken between jobs,
    about one per CALIBRATION_EVERY_S of job time, and a time measured
    next to them is multiplied by this factor, which puts it in seconds at
    the nominal speed.  The samples run no package code, in another
    process, so a change to the package shows in full."""
    return CALIBRATION_NOMINAL_S / statistics.median(samples)


def job_factors(tally) -> list:
    """Speed factor of each job, from the calibration samples nearest it
    in time (CALIBRATION_WINDOW before and after it)."""
    samples = tally.calibration.samples
    return [speed_factor(samples[max(0, at - CALIBRATION_WINDOW):at + CALIBRATION_WINDOW])
            for at in tally.positions]


class Gate:
    """Checks every job's output: the job's own independent checks, then
    the digest of its canonical output against the reference recorded for
    the same input, when one was recorded."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.digest_checked = 0
        self.unrecorded = 0
        self.errors = []

    def passes(self, job, raw) -> bool:
        try:
            job.check(raw)
            expected = self.reference.get(digest(job.key))
            if expected is None:
                self.unrecorded += 1
            else:
                self.digest_checked += 1
                got = digest(job.canon(raw))
                require(got == expected, f"{job.kind}: output digest {got}, reference {expected}")
            return True
        except CheckFailed as exc:
            self.errors.append(str(exc))
        except Exception:  # a check that crashes is a failed job, not a crashed run
            self.errors.append(f"{job.kind}: check raised\n{traceback.format_exc()}")
        return False


class Tally:
    def __init__(self, calibration: Calibration):
        self.calibration = calibration
        self.positions = []  # calibration samples taken before each job ended
        self.latencies = []
        self.criterion_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.cycles = 0

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_cycles(plan, gate: Gate, tally: Tally, cycles: int, tracer=None) -> Tally:
    """Run ``cycles`` whole cycles, the job after the tally's last one first."""
    owed = CALIBRATION_EVERY_S  # job time since the last calibration sample
    for _ in range(cycles):
        for job in plan.cycles[tally.cycles % len(plan.cycles)]:
            if tracer is not None:
                tracer.job = tally.attempted
                tracer.enabled = True
            raw, ok = None, True
            t0 = perf_counter()
            try:
                raw = job.call()
            except Exception:  # a job that raises is counted as failed
                ok = False
                gate.errors.append(f"{job.kind}: raised\n{traceback.format_exc()}")
            t1 = perf_counter()
            if tracer is not None:
                tracer.enabled = False
            tally.attempted += 1
            tally.latencies.append(t1 - t0)
            tally.positions.append(len(tally.calibration.samples))
            if job.groups:
                tally.criterion_s += t1 - t0
            if not (ok and gate.passes(job, raw)):
                tally.failed += 1
            owed += t1 - t0
            while owed >= CALIBRATION_EVERY_S:
                tally.calibration.sample()
                owed -= CALIBRATION_EVERY_S
        tally.cycles += 1
    return tally


def set_up(workload, seed: int, gate: Gate, tally: Tally):
    """Import, generate the inputs and run one warm-up job, SETUP_REPEATS
    times; returns the last plan and the median set-up time.  An untimed
    import first fills the bytecode cache, and a full collection before
    each set-up starts it from the same garbage-collector state."""
    load_package()
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        pkg = load_package()
        plan = workload.build(pkg, seed, workload.input_cycles, WORKDIR)
        job = plan.cycles[0][0]
        raw = job.call()
        times.append(perf_counter() - t0)
        tally.attempted += 1
        if not gate.passes(job, raw):
            tally.failed += 1
        for _ in range(3):
            tally.calibration.sample()
    for series in plan.bracket_times.values():
        series.clear()
    return pkg, plan, statistics.median(times)


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's continued
    fraction (Numerical Recipes, section 6.4)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 400):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-12:
            break
    return front * f


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all
    order statistics, with Beta(p(n+1), (1-p)(n+1)) weights.  It averages
    the jobs next to the quantile instead of reading one of them, so one
    slow or fast job moves it less than it moves a sample quantile."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(ordered))


def timed_metrics(tally: Tally, setup_s: float, factors=None, setup_factor=1.0) -> dict:
    """End-to-end metrics; each latency is multiplied by its factor
    (unscaled when ``factors`` is None)."""
    latencies = tally.latencies
    if factors is not None:
        latencies = [t * f for t, f in zip(latencies, factors)]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "jobs_per_s": (len(latencies) / sum(latencies), "1/s"),
        "job_p50_s": (quantile(latencies, 0.5), "s"),
        "job_p90_s": (quantile(latencies, 0.9), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (setup_s * setup_factor, "s"),
    }


def scaled(metrics: dict, factor: float) -> dict:
    """Times multiplied by the speed factor, rates divided by it."""
    power = {"s": 1, "1/s": -1}
    return {name: (value * factor ** power[unit] if unit in power else value, unit)
            for name, (value, unit) in metrics.items()}


def traced_metrics(workload, plan, gate: Gate, tally: Tally, pkg) -> dict:
    """Untraced pass, traced pass over the same cycles, raw per-layer
    numbers.  On a threaded workload the traced pass is repeated
    single-threaded and every count must agree."""
    cycles = workload.trace_cycles
    untraced = run_cycles(plan, gate, Tally(tally.calibration), cycles)
    bracket_medians = {method: statistics.median(times) if times else 0.0
                       for method, times in plan.bracket_times.items()}
    tracer = Tracer()
    tracer.install(pkg)
    traced = run_cycles(plan, gate, Tally(tally.calibration), cycles, tracer)
    calls, self_s, total_s, counters = tracer.totals()
    passes = [untraced, traced]
    if plan.threads > 1:
        threads = plan.threads
        plan.threads = 1
        tracer.reset()
        passes.append(run_cycles(plan, gate, Tally(tally.calibration), cycles, tracer))
        plan.threads = threads
        calls_1, _, _, counters_1 = tracer.totals()
        if (calls_1, counters_1) != (calls, counters):
            differ = sorted(k for k in calls if calls[k] != calls_1[k])
            differ += sorted(k for k in counters if counters[k] != counters_1[k])
            gate.errors.append(f"work counts differ between threads={threads} and 1: {differ}")
            tally.failed += 1
    for p in passes:
        tally.attempted += p.attempted
        tally.failed += p.failed

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics[f"{name}.total_s"] = (total_s[name], "s")
    for name in ("ring.poly_init.calls", "ring.mul.term_products",
                 "criterion.group_residual_a.nonzero", "criterion.group_residual_b.nonzero"):
        metrics[name] = (counters[name], "count")
    fail_total = counters["criterion.fail.groups_total"]
    metrics["criterion.groups_evaluated_frac"] = (
        counters["criterion.fail.groups_evaluated"] / fail_total if fail_total else 0.0, "frac")
    groups = calls["criterion.group_residual_a"] + calls["criterion.group_residual_b"]
    metrics["criterion.groups_per_s"] = (
        groups / untraced.criterion_s if untraced.criterion_s else 0.0, "1/s")
    basis_calls = calls["finite_algebra.bracket_basis"]
    metrics["finite_algebra.bracket_basis.empty_frac"] = (
        counters["finite_algebra.bracket_basis.empty"] / basis_calls if basis_calls else 0.0, "frac")
    metrics["jacobian_bracket.bracket_full.median_s"] = (bracket_medians["full"], "s")
    metrics["jacobian_bracket.bracket_expanded.median_s"] = (bracket_medians["expanded"], "s")
    metrics["trace.overhead_frac"] = (traced.busy_s / untraced.busy_s - 1, "frac")
    return metrics


def summary(workload, args, plan, gate: Gate, tally: Tally, raw: dict, factor: float) -> None:
    out = sys.stderr
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"package threads {plan.threads}", file=out)
    print(f"  run speed factor {factor:.4f} from {len(tally.calibration.samples)} calibration "
          f"samples; the values below are raw, the JSON line's are scaled", file=out)
    print(f"  inputs: {workload.inputs}", file=out)
    print(f"  stresses: {workload.stresses}; bypasses: {workload.bypasses}", file=out)
    if not args.trace:
        n = len(tally.latencies)
        print(f"  {tally.cycles} cycles, {n} timed jobs; job_p50_s has {n // 2} samples above it, "
              f"job_p90_s {n - 1 - int(0.9 * (n - 1))}", file=out)
        for method, times in plan.bracket_times.items():
            if times:
                print(f"  bracket {method}: median {statistics.median(times):.6f} s "
                      f"per call over {len(times)} calls", file=out)
    for name, (value, unit) in raw.items():
        print(f"  {name} = {value} {unit}", file=out)
    print(f"  failed_frac = {tally.failed / max(tally.attempted, 1)} "
          f"({tally.failed} of {tally.attempted} jobs)", file=out)
    print(f"  outputs checked against recorded digests: {gate.digest_checked}, "
          f"inputs without a recorded digest: {gate.unrecorded}", file=out)
    for error in gate.errors[:10]:
        print(f"  FAILED: {error}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    reference = json.loads((HERE / "reference.json").read_text())["digests"][args.workload]
    workload = WORKLOADS[args.workload]
    gate = Gate(reference)
    calibration = None
    try:  # the benchmark's own modules may already have written bytecode under WORKDIR
        if not (SRC / "poisson_nlie" / "__init__.py").is_file():
            print(f"error: no package source at {SRC / 'poisson_nlie'}", file=sys.stderr)
            return 2
        calibration = Calibration()
        tally = Tally(calibration)
        pkg, plan, setup_s = set_up(workload, args.seed, gate, tally)
        if args.trace:
            raw = traced_metrics(workload, plan, gate, tally, pkg)
        else:
            setup_samples = len(calibration.samples)
            run_cycles(plan, gate, tally, workload.cycles_for(args.seconds))
            raw = timed_metrics(tally, setup_s)
    finally:
        if calibration is not None:
            calibration.close()
        shutil.rmtree(WORKDIR, ignore_errors=True)
    factor = speed_factor(calibration.samples)
    if args.trace:
        metrics = scaled(raw, factor)
    else:
        # set-up is scaled by the samples of the set-up and the first jobs
        setup_factor = speed_factor(calibration.samples[:setup_samples + CALIBRATION_WINDOW])
        metrics = timed_metrics(tally, setup_s, job_factors(tally), setup_factor)
    summary(workload, args, plan, gate, tally, raw, factor)
    correct = tally.failed == 0 and not gate.errors
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
