"""The benchmark's outputs, checked in the test suite: one cycle of every
workload at seed 0, each job's independent check, and each canonical
output's digest against ``perfbench/reference.json``.  A changed output, or
a package name the benchmark calls that no longer exists, fails here."""

import importlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("ring", "subspaces", "jacobian_bracket", "criterion",
           "finite_algebra", "constructions", "cli")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["digests"]


@pytest.fixture
def workloads(monkeypatch, tmp_path):
    """The benchmark's workload module, run from an empty directory so
    that the algebra files it writes stay out of the checkout."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_outputs_match_the_recorded_digests(workloads, name):
    pkg = SimpleNamespace(**{module: importlib.import_module(f"poisson_nlie.{module}")
                             for module in MODULES})
    plan = workloads.WORKLOADS[name].build(pkg, 0, 1, Path(".perfbench-work"))
    recorded = REFERENCE[name]
    (cycle,) = plan.cycles
    assert cycle
    for job in cycle:
        raw = job.call()
        job.check(raw)
        key = workloads.digest(job.key)
        assert key in recorded, f"{name}: unrecorded input {job.key[:200]}"
        assert workloads.digest(job.canon(raw)) == recorded[key], f"{name}: {job.key[:200]}"
