"""The scripts under ``scripts/`` run to completion on small inputs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["fixture_tour.py"],
    ["find_negative_controls.py", "--limit", "1"],
    ["probe_conjecture.py", "--n", "3", "--m", "2", "--trials", "1", "--seed", "0"],
    pytest.param(["probe_conjecture.py", "--n", "5", "--m", "2", "--trials", "2", "--seed", "0"],
                 id="probe_conjecture_5_2"),
], ids=lambda argv: argv[0][:-3])
def test_script_exits_zero(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(seed, side, **values):
    return {"seed": seed, "side": side, "line": json.dumps({
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()}})}


class TestBenchPairs:
    """``scripts/bench_pairs.py`` summaries on synthetic records; the
    benchmark itself is not run."""

    def test_medians_quartiles_and_pair_count(self):
        bench = _bench_pairs()
        parent = [10.0, 12.0, 11.0, 13.0, 9.0]
        change = [14.0, 12.0, 15.0, 10.0, 16.0]  # better, tied, better, worse, better
        raw = [_record(seed, side, rate=value)
               for seed, (p, c) in enumerate(zip(parent, change), start=1)
               for side, value in (("parent", p), ("change", c))]
        summary = bench.summarize_metric(raw, {"name": "rate", "unit": "1/s",
                                               "better": "higher", "bound": 0.25})
        assert summary == {
            "unit": "1/s", "better": "higher", "bound": 0.25,
            "parent_median": 11.0, "parent_quartiles": [9.5, 12.5],
            "change_median": 14.0, "change_quartiles": [11.0, 15.5],
            "change_over_parent": round(14 / 11 - 1, 4),
            "change_better": "3/5", "within_bound": True,
        }

    def test_lower_is_better_and_ties_count_for_neither(self):
        bench = _bench_pairs()
        raw = [_record(1, "parent", t=2.0), _record(1, "change", t=1.0),
               _record(2, "change", t=3.0), _record(2, "parent", t=3.0),
               _record(3, "parent", t=1.0), _record(3, "change", t=2.0)]
        summary = bench.summarize_metric(raw, {"name": "t", "unit": "s",
                                               "better": "lower", "bound": 0.25})
        assert summary["change_better"] == "1/3"
        assert summary["parent_median"] == summary["change_median"] == 2.0

    def test_pairs_alternate_which_side_runs_first(self, monkeypatch):
        bench = _bench_pairs()
        order = []

        def fake_run(checkout, workload, seed, trace=0):
            order.append((seed, checkout))
            return json.dumps({"correct": True, "metrics": {}})

        monkeypatch.setattr(bench, "run_once", fake_run)
        raw = bench.run_pairs("P", "C", "criterion-poly", bench.parse_seeds("1-3,6"))
        assert order == [(1, "P"), (1, "C"), (2, "C"), (2, "P"),
                         (3, "P"), (3, "C"), (6, "C"), (6, "P")]
        assert [r["side"] for r in raw[:2]] == ["parent", "change"]

    def test_run_length_comes_from_the_checkouts_benchmark(self, monkeypatch, tmp_path):
        bench = _bench_pairs()
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 7}))
        calls = []

        def fake_subprocess_run(argv, **kwargs):
            calls.append(argv)
            return subprocess.CompletedProcess(argv, 0, stdout='{"metrics": {}}\n', stderr="")

        monkeypatch.setattr(bench.subprocess, "run", fake_subprocess_run)
        assert bench.run_once(str(tmp_path), "structure", 3) == '{"metrics": {}}'
        argv = calls[0]
        assert argv[argv.index("--seconds") + 1] == "7"
        assert argv[argv.index("--seed") + 1] == "3"

    @pytest.mark.parametrize("claim", [None, "structure:jobs_per_s"])
    def test_a_claim_is_optional(self, monkeypatch, tmp_path, claim):
        """Without ``--claim`` the file records the pairs with ``"claim":
        null`` and makes no traced run; with it, one traced run per side."""
        bench = _bench_pairs()
        spec = {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
        (tmp_path / "BENCHMARK.json").write_text(
            json.dumps({"run_seconds": 7, "end_to_end": [spec]}))
        calls = []

        def fake_run(checkout, workload, seed, trace=0):
            calls.append((checkout, workload, seed, trace))
            return json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": {
                "jobs_per_s": {"value": 10.0 + seed, "unit": "1/s"},
                "jobs": {"value": 5, "unit": "count"}}})

        monkeypatch.setattr(bench, "run_once", fake_run)
        out = tmp_path / "BENCH.json"
        argv = ["--parent", "P", "--change", str(tmp_path), "--workload", "structure",
                "--seeds", "1-2", "--change-desc", "d", "--out", str(out)]
        bench.main(argv + (["--claim", claim] if claim else []))
        report = json.loads(out.read_text())
        assert report["workloads"]["structure"]["pairs"] == 2
        assert report["workloads"]["structure"]["failed_share"] == {"parent": 0.0, "change": 0.0}
        assert report["workloads"]["structure"]["failed_share_not_worse"] is True
        traced = [call for call in calls if call[3]]
        if claim is None:
            assert report["claim"] is None and "trace" not in report
            assert traced == []
        else:
            assert report["claim"] == {"workload": "structure", "metric": "jobs_per_s",
                                       "claim_met": False}  # two pairs are too few
            assert traced == [("P", "structure", 0, 1), (str(tmp_path), "structure", 0, 1)]
            assert report["trace"]["counts"] == {"jobs": {"parent": 5, "change": 5}}


def _counted(seed, side, attempted, failed):
    return {"seed": seed, "side": side, "line": json.dumps({
        "correct": not failed, "attempted": attempted, "failed": failed,
        "metrics": {"rate": {"value": 1.0, "unit": "1/s"}}})}


class TestFailedShare:
    """Each side's share of failed operations, summed over its runs, on
    synthetic records."""

    SPECS = [{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}]

    def summary(self, counts):
        raw = [_counted(seed, side, *counts[side][seed - 1])
               for seed in range(1, len(counts["parent"]) + 1)
               for side in ("parent", "change")]
        return _bench_pairs().summarize_workload(raw, self.SPECS)

    def test_failed_over_attempted_summed_over_the_runs(self):
        summary = self.summary({"parent": [(10, 1), (30, 0)], "change": [(20, 0), (20, 0)]})
        assert summary["failed_share"] == {"parent": 0.025, "change": 0.0}
        assert summary["failed_share_not_worse"] is True
        assert summary["all_correct"] is False

    def test_a_larger_share_is_worse_and_an_equal_one_is_not(self):
        worse = self.summary({"parent": [(10, 1)], "change": [(10, 2)]})
        assert worse["failed_share"] == {"parent": 0.1, "change": 0.2}
        assert worse["failed_share_not_worse"] is False
        equal = self.summary({"parent": [(10, 1), (10, 1)], "change": [(5, 1), (15, 1)]})
        assert equal["failed_share"] == {"parent": 0.1, "change": 0.1}
        assert equal["failed_share_not_worse"] is True

    def test_no_attempted_operation_gives_no_share(self):
        summary = self.summary({"parent": [(0, 0)], "change": [(4, 0)]})
        assert summary["failed_share"] == {"parent": None, "change": 0.0}
        assert summary["failed_share_not_worse"] is True
        summary = self.summary({"parent": [(4, 0)], "change": [(0, 0)]})
        assert summary["failed_share"] == {"parent": 0.0, "change": None}
        assert summary["failed_share_not_worse"] is False


def _pairs(parent, change, name="rate"):
    return [_record(seed, side, **{name: value})
            for seed, (p, c) in enumerate(zip(parent, change), start=1)
            for side, value in (("parent", p), ("change", c))]


class TestClaimRule:
    """``claim_met`` and ``within_bound`` on synthetic records."""

    RATE = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}
    TIME = {"name": "t", "unit": "s", "better": "lower", "bound": 0.25}
    PARENT = [10.0, 11.0, 12.0, 10.5, 11.5, 9.5, 12.5, 10.0, 11.0, 12.0]  # quartiles 10, 12

    def summary(self, parent, change, spec=RATE):
        return _bench_pairs().summarize_metric(_pairs(parent, change, spec["name"]), spec)

    @staticmethod
    def met(summary, all_correct=True, not_worse=True):
        """``claim_met`` on a workload whose only metric is ``summary``."""
        workload = {"all_correct": all_correct, "failed_share_not_worse": not_worse,
                    "metrics": {"m": summary}}
        return _bench_pairs().claim_met(workload, "m")

    def test_nine_of_ten_wins_and_a_gap_past_the_spread_meet_the_claim(self):
        change = [14.0, 15.0, 13.5, 14.5, 16.0, 15.0, 12.0, 14.0, 13.0, 15.5]  # loses pair 7
        summary = self.summary(self.PARENT, change)
        assert summary["change_better"] == "9/10"
        assert summary["parent_quartiles"] == [10.0, 12.0]
        assert summary["change_median"] - summary["parent_median"] > 2.0
        assert self.met(summary) and summary["within_bound"]

    def test_eight_wins_do_not(self):
        change = [14.0, 15.0, 13.5, 14.5, 16.0, 15.0, 12.0, 9.0, 13.0, 15.5]
        summary = self.summary(self.PARENT, change)
        assert summary["change_better"] == "8/10"
        assert not self.met(summary)

    def test_a_gap_inside_the_parent_spread_does_not(self):
        change = [v + 1.0 for v in self.PARENT]  # wins every pair by less than the spread
        summary = self.summary(self.PARENT, change)
        assert summary["change_better"] == "10/10"
        assert not self.met(summary)

    def test_fewer_than_ten_pairs_do_not(self):
        change = [v * 2 for v in self.PARENT]
        assert self.met(self.summary(self.PARENT, change))
        assert not self.met(self.summary(self.PARENT[:9], change[:9]))

    def test_lower_is_better(self):
        parent = [v / 100 for v in self.PARENT]
        faster = [v / 2 for v in parent]
        summary = self.summary(parent, faster, self.TIME)
        assert self.met(summary) and summary["within_bound"]
        slower = self.summary(faster, parent, self.TIME)  # twice as slow
        assert not self.met(slower) and not slower["within_bound"]

    @pytest.mark.parametrize("all_correct, not_worse", [(False, True), (True, False),
                                                         (False, False)])
    def test_wrong_outputs_or_more_failures_do_not(self, all_correct, not_worse):
        """A claim that meets the metric rule fails when a run's outputs
        were wrong or the change failed a larger share of operations."""
        summary = self.summary(self.PARENT, [v * 2 for v in self.PARENT])
        assert self.met(summary)
        assert not self.met(summary, all_correct, not_worse)

    def test_a_claimed_workload_with_a_wrong_run_is_not_met(self, monkeypatch, tmp_path):
        """End to end: twelve pairs that double the rate, one parent run of
        which reports wrong outputs, give ``claim_met: false``."""
        bench = _bench_pairs()
        (tmp_path / "BENCHMARK.json").write_text(
            json.dumps({"run_seconds": 7, "end_to_end": [self.RATE]}))

        def fake_run(checkout, workload, seed, trace=0):
            change = checkout == str(tmp_path)
            return json.dumps({"correct": change or seed != 5, "attempted": 4, "failed": 0,
                               "metrics": {"rate": {"value": (20.0 if change else 10.0) + seed,
                                                    "unit": "1/s"}}})

        monkeypatch.setattr(bench, "run_once", fake_run)
        out = tmp_path / "BENCH.json"
        bench.main(["--parent", "P", "--change", str(tmp_path), "--workload", "structure",
                    "--seeds", "1-12", "--change-desc", "d", "--out", str(out),
                    "--claim", "structure:rate"])
        report = json.loads(out.read_text())
        workload = report["workloads"]["structure"]
        assert workload["metrics"]["rate"]["change_better"] == "12/12"
        assert workload["all_correct"] is False
        assert report["claim"]["claim_met"] is False
        workload["all_correct"] = True
        assert bench.claim_met(workload, "rate")

    @pytest.mark.parametrize("spec, scale, within", [
        (RATE, 0.75, True), (RATE, 0.74, False), (RATE, 3.0, True),
        (TIME, 1.25, True), (TIME, 1.26, False), (TIME, 0.5, True),
    ])
    def test_within_bound_compares_the_medians(self, spec, scale, within):
        parent = [8.0, 8.0, 8.0]
        summary = self.summary(parent, [v * scale for v in parent], spec)
        assert summary["within_bound"] is within

    def test_a_claim_must_name_a_metric_of_a_run_workload(self, tmp_path):
        bench = _bench_pairs()
        (tmp_path / "BENCHMARK.json").write_text(
            json.dumps({"run_seconds": 7, "end_to_end": [self.RATE]}))
        argv = ["--parent", "P", "--change", str(tmp_path), "--workload", "structure",
                "--seeds", "1", "--change-desc", "d", "--out", str(tmp_path / "out.json")]
        for claim in ("probe-scalar:rate", "structure:jobs_per_s"):
            with pytest.raises(SystemExit):
                bench.main(argv + ["--claim", claim])
        assert not (tmp_path / "out.json").exists()
