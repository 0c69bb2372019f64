import json
import time

import pytest

from poisson_nlie import cli
from poisson_nlie.cli import run
from poisson_nlie.finite_algebra import (
    InternalCheckError,
    fixture_hypo,
    format_algebra,
    parse_algebra,
)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    return code, report, captured.err


def strip_timing(report):
    return {k: v for k, v in report.items() if k != "timing"}


class TestBasics:
    def test_verify_fixture_passes(self, capsys):
        code, report, err = invoke(capsys, "verify", "fixture:hypo")
        assert code == 0
        assert report["schema"] == "poisson-nlie/report-v1"
        assert report["all_pass"] and report["exit_code"] == 0
        assert "axioms" in report and report["axioms"]["leibniz"]
        assert "all pass" in err

    def test_verify_broken_algebra_exits_one(self, capsys, tmp_path):
        text = format_algebra(fixture_hypo())
        broken = text + "product 4*4 = e1\n"
        path = tmp_path / "broken.alg"
        path.write_text(broken)
        code, report, _ = invoke(capsys, "verify", str(path))
        assert code == 1
        assert not report["axioms"]["leibniz"]
        assert report["witnesses"]["leibniz"]

    def test_quiet_suppresses_summary(self, capsys):
        code, _, err = invoke(capsys, "classify", "fixture:hypo", "--quiet")
        assert code == 0 and err == ""

    def test_usage_error_exit_two(self, capsys):
        code = run(["verify", "/nonexistent/file.alg"])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 2 and "error" in report

    def test_parse_error_cites_line(self, capsys, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text("dim 2\narity 2\nbracket [1,2] = e9\n")
        code, report, _ = invoke(capsys, "verify", str(path))
        assert code == 2
        assert "line 3" in report["error"]

    @pytest.mark.parametrize("text, line", [
        ("dim\narity 2\n", 1),
        ("dim 2\narity two\n", 2),
        ("dim 2 3\narity 2\n", 1),
    ])
    def test_header_needs_one_integer(self, capsys, tmp_path, text, line):
        path = tmp_path / "bad.alg"
        path.write_text(text)
        code, report, _ = invoke(capsys, "verify", str(path))
        assert code == 2
        assert f"line {line}" in report["error"] and "integer" in report["error"]

    @pytest.mark.parametrize("text", [
        "dimension 2\narity 2\nbracket [1,2] = e1\n",
        "dim 2\narityx 2\nbracket [1,2] = e1\n",
    ])
    def test_header_keyword_must_match_exactly(self, capsys, tmp_path, text):
        path = tmp_path / "bad.alg"
        path.write_text(text)
        code, report, _ = invoke(capsys, "verify", str(path))
        assert code == 2 and "error" in report

    @pytest.mark.parametrize("text, line", [
        ("dim 2\narity 2\ndim 3\n", 3),
        ("dim 3\narity 2\narity 3\n", 3),
        ("dim 2\narity 2\nbracket [1,2] = e1\nbracket [1,2] = e2\n", 4),
        ("dim 2\narity 2\nproduct 1*2 = e1\nproduct 1*2 = 0\n", 4),
    ])
    def test_repeated_line_is_refused(self, capsys, tmp_path, text, line):
        path = tmp_path / "bad.alg"
        path.write_text(text)
        code, report, _ = invoke(capsys, "verify", str(path))
        assert code == 2
        assert f"line {line}" in report["error"] and "repeated" in report["error"]

    def test_unknown_subcommand_exits_two(self, capsys):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize("dim", [200, 100_000_000])
    def test_verify_zero_algebra_does_not_scale_with_dim(self, capsys, tmp_path, dim):
        path = tmp_path / "zero.alg"
        path.write_text(f"dim {dim}\narity 2\n")
        started = time.perf_counter()
        code, report, _ = invoke(capsys, "verify", str(path))
        assert time.perf_counter() - started < 1.0
        assert code == 0 and report["all_pass"] and report["dim"] == dim
        assert report["mode"] == "exhaustive" and report["witnesses"] == {}

    def test_zero_denominator_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text("dim 2\narity 2\nbracket [1,2] = 1/0*e1\n")
        code, report, _ = invoke(capsys, "verify", str(path))
        assert code == 2 and "line 3" in report["error"]
        code, report, _ = invoke(capsys, "eigenspace", "fixture:hypo",
                                 "--element", "e4", "--eigenvalue", "1/0")
        assert code == 2 and "eigenvalue" in report["error"]

    def test_internal_check_error_exits_four(self, capsys, monkeypatch):
        def broken(P):
            raise InternalCheckError("cross-check failed")
        monkeypatch.setattr(cli, "classify", broken)
        code, report, err = invoke(capsys, "classify", "fixture:hypo")
        assert code == cli.EXIT_INTERNAL == 4
        assert report["exit_code"] == 4 and report["error"] == "cross-check failed"
        assert "cross-check failed" in err


class TestCriterionCommands:
    def test_check_scalar_random(self, capsys):
        code, report, err = invoke(capsys, "criterion-check", "--n", "3", "--m", "2",
                                   "--matrix", "scalar:random", "--seed", "7")
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["counts"]["groups_total"] == 850
        assert "pass" in err

    def test_random_matrix_requires_seed(self, capsys):
        code, report, _ = invoke(capsys, "criterion-check", "--n", "2", "--m", "1",
                                 "--matrix", "scalar:random")
        assert code == 2 and "seed" in report["error"]

    def test_check_failing_matrix(self, capsys, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2 1\nt2\nt3\nt1\n")
        code, report, _ = invoke(capsys, "criterion-check", "--n", "2", "--m", "1",
                                 "--matrix", f"file:{path}")
        assert code == 1
        assert report["verdict"] == "fail"
        assert report["counterexample"]["residual"] != "0"

    def test_budget_exit_three(self, capsys):
        code, report, _ = invoke(capsys, "criterion-check", "--n", "3", "--m", "2",
                                 "--matrix", "scalar:random", "--seed", "0",
                                 "--budget", "10")
        assert code == 3 and "error" in report

    def test_budget_meters_residual_groups(self, capsys):
        argv = ("criterion-check", "--n", "3", "--m", "2",
                "--matrix", "scalar:random", "--seed", "0", "--budget")
        code, report, _ = invoke(capsys, *argv, "1000")
        assert code == 0 and report["counts"]["groups_total"] == 850
        code, report, _ = invoke(capsys, *argv, "849")
        assert code == 3 and "850 residual groups" in report["error"]

    def test_probe(self, capsys):
        code, report, _ = invoke(capsys, "criterion-probe", "--n", "3", "--m", "1",
                                 "--trials", "3", "--seed", "1")
        assert code == 0
        assert report["all_pass"] and report["verdicts"] == ["pass"] * 3

    def test_timing_is_split_by_phase(self, capsys, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2 1\nt2\nt3\nt1\n")
        for argv in (("criterion-check", "--n", "2", "--m", "1", "--matrix", f"file:{path}"),
                     ("criterion-probe", "--n", "3", "--m", "1", "--trials", "2", "--seed", "1")):
            _, report, _ = invoke(capsys, *argv)
            timing = report["timing"]
            assert set(timing) == {"wall_s", "pi_table_s", "compile_s", "evaluate_s"}
            phases = timing["pi_table_s"] + timing["compile_s"] + timing["evaluate_s"]
            assert 0 <= phases <= timing["wall_s"] + 1e-5

    def test_construct_jacobian_single(self, capsys, tmp_path):
        path = tmp_path / "col.mat"
        path.write_text("2 1\n0\n0\n1\n")
        code, report, _ = invoke(capsys, "construct-jacobian",
                                 "--ring", "laurent:v=3:euler",
                                 "--n", "2", "--m", "1",
                                 "--matrix", f"file:{path}",
                                 "--args", "t1; t2")
        assert code == 0
        assert report["full"] == report["expanded"] == "t1*t2"
        assert report["agree"]

    def test_exponent_overflow_in_arguments_is_a_parse_error(self, capsys):
        code, report, _ = invoke(capsys, "construct-jacobian",
                                 "--ring", "laurent:v=3:euler", "--n", "2", "--m", "1",
                                 "--matrix", "scalar:random", "--seed", "0",
                                 "--args", "t1^2147483647*t1; t2")
        assert code == 2
        assert "exponent 2147483648 out of range" in report["error"]
        assert "column 14" in report["error"]

    def test_oversized_power_exits_two_without_expanding(self, capsys, tmp_path):
        path = tmp_path / "power.mat"
        path.write_text("2 1\n3^16777216\n0\n1\n")
        for source in (["--matrix", "scalar:random", "--seed", "0", "--args", "3^16777216; t2"],
                       ["--matrix", f"file:{path}", "--args", "t1; t2"]):
            started = time.perf_counter()
            code, report, _ = invoke(capsys, "construct-jacobian", "--ring", "laurent:v=3:euler",
                                     "--n", "2", "--m", "1", *source)
            assert time.perf_counter() - started < 1.0
            assert code == 2
            assert "power too large" in report["error"] and "column 2" in report["error"]

    def test_exponent_overflow_in_evaluation_exits_four(self, capsys):
        # each argument parses, but the bracket multiplies t1^(2^31 - 1) by t1
        code, report, _ = invoke(capsys, "construct-jacobian",
                                 "--ring", "laurent:v=3:euler", "--n", "2", "--m", "1",
                                 "--matrix", "scalar:random", "--seed", "0",
                                 "--args", "t1^2147483647; t1*t2")
        assert code == 4
        assert report["error"] == "exponent 2147483648 out of range"

    def test_construct_jacobian_samples(self, capsys):
        code, report, _ = invoke(capsys, "construct-jacobian",
                                 "--ring", "laurent:v=3:euler",
                                 "--n", "2", "--m", "1",
                                 "--samples", "20", "--seed", "3")
        assert code == 0 and report["equal"]

    def test_partial_preset_is_refused_for_criterion(self, capsys):
        code, report, _ = invoke(capsys, "criterion-check", "--n", "2", "--m", "1",
                                 "--ring", "laurent:v=3:partial",
                                 "--matrix", "scalar:random", "--seed", "0")
        assert code == 2 and "assumptions" in report["error"]


class TestStructureCommands:
    def test_series(self, capsys):
        code, report, _ = invoke(capsys, "series", "fixture:hypo",
                                 "--ideal", "full", "--kind", "derived")
        assert code == 0
        assert report["dims"] == [7, 4, 0]
        assert report["terminates_at_zero"]

    def test_classify(self, capsys):
        code, report, _ = invoke(capsys, "classify", "fixture:hypo")
        assert code == 0
        assert report["solvable"] and report["solvability_index"] == 3
        assert not report["nilpotent"]

    def test_nilradical(self, capsys):
        code, report, _ = invoke(capsys, "nilradical", "fixture:hypo")
        assert code == 0 and report["dim"] == 4

    def test_hypo(self, capsys):
        code, report, _ = invoke(capsys, "hypo", "fixture:hypo",
                                 "--ideal", "basis:1,2,3,4,6,7")
        assert code == 0 and report["hypo_nilpotent"]

    def test_eigenspace(self, capsys):
        code, report, _ = invoke(capsys, "eigenspace", "fixture:hypo",
                                 "--element", "e4", "--eigenvalue", "0")
        assert code == 0 and report["dim"] == 7 and report["is_ideal"]

    def test_eigenvector(self, capsys):
        code, report, _ = invoke(capsys, "eigenvector", "fixture:hypo")
        assert code == 0
        assert report["found"]
        assert report["vector"] == ["0", "0", "0", "0", "0", "0", "1"]
        assert report["eigenvalues"] == {}

    def test_fixture_emission_round_trip(self, capsys, tmp_path):
        out = tmp_path / "hypo.alg"
        code, report, _ = invoke(capsys, "fixtures", "hypo", "--out", str(out))
        assert code == 0
        assert parse_algebra(out.read_text()) == fixture_hypo()
        code, report, _ = invoke(capsys, "verify", str(out))
        assert code == 0 and report["all_pass"]

    def test_tensor_command(self, capsys, tmp_path):
        left = tmp_path / "left.alg"
        right = tmp_path / "right.alg"
        left.write_text("dim 3\narity 3\nbracket [1,2,3] = e1\n")
        right.write_text("dim 2\narity 3\nproduct 1*1 = e2\n")
        code, report, _ = invoke(capsys, "tensor", "--left", str(left),
                                 "--right", str(right), "--kind", "poisson-n")
        assert code == 0 and report["dim"] == 6
        reread = parse_algebra(report["algebra_text"])
        assert reread.dim == 6

    def test_quotient_pipeline(self, capsys, tmp_path):
        source = tmp_path / "poisson.alg"
        source.write_text("dim 2\narity 2\nproduct 1*1 = e1\nproduct 1*2 = e2\n")
        emit = tmp_path / "stages"
        code, report, _ = invoke(capsys, "quotient-pipeline", str(source),
                                 "--arity", "3", "--emit", str(emit))
        assert code == 0
        assert report["tensor_dim"] == 4
        assert (emit / "tensor.alg").exists() and (emit / "quotient.alg").exists()
        final = parse_algebra((emit / "quotient.alg").read_text())
        assert final.arity == 3

    def test_quotient_pipeline_zero_algebra_does_not_scale_with_dim(self, capsys, tmp_path):
        """The 144-dim zero tensor square has 2,985,984 nestings at arity 3,
        none of them nonzero."""
        source = tmp_path / "zero.alg"
        source.write_text("dim 12\narity 2\n")
        started = time.perf_counter()
        code, report, _ = invoke(capsys, "quotient-pipeline", str(source), "--arity", "3")
        assert time.perf_counter() - started < 3.0
        assert code == 0 and report["tensor_dim"] == report["quotient_dim"] == 144
        assert report["nested_bracket_entries"] == 0


class TestDeterminism:
    def test_reports_identical_across_thread_counts(self, capsys):
        runs = []
        for threads in ("1", "8"):
            code, report, _ = invoke(capsys, "criterion-check", "--n", "3", "--m", "2",
                                     "--matrix", "scalar:random", "--seed", "7",
                                     "--threads", threads)
            assert code == 0
            body = strip_timing(report)
            body["parameters"] = {k: v for k, v in body["parameters"].items()
                                  if k != "threads"}
            runs.append(json.dumps(body, sort_keys=True))
        assert runs[0] == runs[1]

    def test_identical_seeds_identical_bodies(self, capsys):
        bodies = []
        for _ in range(2):
            code, report, _ = invoke(capsys, "criterion-probe", "--n", "2", "--m", "1",
                                     "--trials", "4", "--seed", "5")
            bodies.append(json.dumps(strip_timing(report), sort_keys=True))
        assert bodies[0] == bodies[1]
