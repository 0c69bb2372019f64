import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from poisson_nlie import cli
from poisson_nlie.cli import run
from poisson_nlie.finite_algebra import (
    InternalCheckError,
    fixture_hypo,
    format_algebra,
    parse_algebra,
)


SRC = Path(cli.__file__).resolve().parents[1]


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

    @pytest.mark.parametrize("argv, message", [
        (("verify", "{dir}"), "Is a directory"),
        (("criterion-check", "--n", "2", "--m", "1", "--matrix", "file:{dir}"), "Is a directory"),
        (("fixtures", "hypo", "--out", "{dir}/missing/x.alg"), "No such file or directory"),
    ])
    def test_unusable_paths_exit_two_with_a_report(self, capsys, tmp_path, argv, message):
        code, report, err = invoke(capsys, *(a.format(dir=tmp_path) for a in argv))
        assert code == 2 and report["exit_code"] == 2
        assert message in report["error"] and err.startswith("error: ")
        assert not (tmp_path / "missing").exists()

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

    def test_memory_error_exits_four_with_a_report(self, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError()
        monkeypatch.setitem(cli._HANDLERS, "classify", exhausted)
        code, report, err = invoke(capsys, "classify", "fixture:hypo")
        assert code == 4
        assert report["exit_code"] == 4 and report["error"] == "out of memory"
        assert "out of memory" in err

    @pytest.mark.parametrize("error", [TypeError("unsupported operand"), KeyError(3)])
    def test_any_other_exception_exits_four_with_a_report(self, capsys, monkeypatch, error):
        def broken(args):
            raise error
        monkeypatch.setitem(cli._HANDLERS, "classify", broken)
        code, report, err = invoke(capsys, "classify", "fixture:hypo")
        expected = f"{type(error).__name__}: {error}"
        assert code == cli.EXIT_INTERNAL == 4
        assert report["exit_code"] == 4 and report["error"] == expected
        assert report["command"] == "classify" and "Traceback" not in err
        assert err.strip() == f"internal error: {expected}"

    def test_one_parser_serves_consecutive_runs(self, capsys, tmp_path):
        """The parser is built once, on first use, and a run leaves it as it
        was: a usage error, --version and valid commands in a row report
        what each reports with a parser of its own."""
        path = tmp_path / "col.mat"
        path.write_text("2 1\nt2\nt3\nt1\n")
        sequence = [["criterion-check", "--n", "2"], ["--version"],
                    ["criterion-check", "--n", "2", "--m", "1", "--matrix", f"file:{path}"],
                    ["classify", "fixture:hypo", "--quiet"], ["verify", "/nonexistent.alg"],
                    ["criterion-check", "--n", "3", "--m", "2", "--matrix", "scalar:random",
                     "--seed", "7", "--quiet"]]

        def outputs(argv):
            code = run(argv)
            captured = capsys.readouterr()
            out = captured.out
            if out.startswith("{"):
                out = json.dumps(strip_timing(json.loads(out)), sort_keys=True)
            return code, out, captured.err

        cli.build_parser.cache_clear()
        shared = [outputs(argv) for argv in sequence]
        assert cli.build_parser.cache_info().misses == 1
        fresh = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            fresh.append(outputs(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [2, 0, 1, 0, 2, 0]
        assert shared[1][1] == cli.__version__ + "\n"

    def test_parser_is_not_built_at_import(self):
        probe = ("import poisson_nlie.cli as cli; "
                 "print(cli.build_parser.cache_info().currsize)")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
        assert result.stdout == "0\n"


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

    @pytest.mark.parametrize("command, extra", [
        ("criterion-check", ("--ring", "laurent:v=3:euler")),
        ("construct-jacobian", ("--ring", "laurent:v=5:euler", "--args", "t1; t2; t3")),
    ])
    def test_file_matrix_must_have_the_given_shape(self, capsys, tmp_path, command, extra):
        path = tmp_path / "small.mat"
        path.write_text("2 1\nt2\nt3\nt1\n")
        code, report, _ = invoke(capsys, command, "--n", "3", "--m", "2",
                                 "--matrix", f"file:{path}", *extra)
        assert code == 2
        assert "shape (n, m) = (2, 1), not (3, 2)" in report["error"]
        assert "verdict" not in report and "full" not in report

    def test_budget_is_checked_before_the_default_family_is_built(self, capsys):
        started = time.perf_counter()
        code, report, _ = invoke(capsys, "criterion-check", "--n", "20000", "--m", "0",
                                 "--matrix", "scalar:random", "--seed", "0")
        assert time.perf_counter() - started < 2.0
        assert code == 3 and "exceed budget" in report["error"]

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

    @pytest.mark.parametrize("argv", [
        ("criterion-check", "--n", "2", "--m", "13", "--matrix", "scalar:random", "--seed", "0"),
        ("construct-jacobian", "--ring", "laurent:v=13:euler", "--n", "13", "--m", "0",
         "--seed", "0", "--args", ";".join(f"t{i}" for i in range(1, 14))),
    ])
    def test_minors_past_the_size_cap_exit_two(self, capsys, argv):
        code, report, _ = invoke(capsys, *argv)
        assert code == 2
        assert report["error"] == "matrix size 13 exceeds cap 12"

    def test_exponent_overflow_exits_four(self, capsys, tmp_path):
        """A product whose exponent leaves the fixed-width range ends in the
        ring's error, as a report body with exit code 4."""
        path = tmp_path / "big.mat"
        path.write_text("2 1\nt1^1073741829\nt1^1073741829*t2\nt1^1073741829*t3\n")
        code, report, _ = invoke(capsys, "criterion-check", "--n", "2", "--m", "1",
                                 "--matrix", f"file:{path}")
        assert code == 4
        assert strip_timing(report) == {
            "command": "criterion-check",
            "error": "exponent 2147483658 out of range",
            "exit_code": 4,
            "parameters": {"budget": 500000000, "m": 1, "matrix": f"file:{path}",
                           "n": 2, "threads": 1},
            "schema": "poisson-nlie/report-v1",
            "tool": "poisson-nlie",
            "version": cli.__version__,
        }

    def test_gradient_columns_whose_minors_overflow_exit_four(self, capsys, tmp_path):
        """Columns d_r(y_j) of y_1 = t1^a and y_2 = t1^a * t2 have zero
        curls, but their minors reach t1^(2a), past the exponent range.
        The pi table is built before the curls decide, so its error still
        ends the check with exit 4 instead of a pass."""
        a = 1073741829
        path = tmp_path / "gradient.mat"
        path.write_text(f"2 2\n{a}*t1^{a}\n{a}*t1^{a}*t2\n0\nt1^{a}*t2\n0\n0\n0\n0\n")
        code, report, _ = invoke(capsys, "criterion-check", "--n", "2", "--m", "2",
                                 "--matrix", f"file:{path}")
        assert code == 4
        assert report["error"] == "exponent 2147483658 out of range"

    @pytest.mark.parametrize("scalars, row, exponent", [
        ("-1 3 -2 2 -2 3 -3 2 1 2 2 3 1 3 0 -1 1 -2", 1, 1073741829),
        ("-3 -2 -3 -1 -1 1 -1 -1 1 0 -1 3 -1 -1 -2 2 3 1", 2, 1073741830),
        ("1 -3 -2 -3 1 -1 2 -1 -2 0 1 0 -1 -3 0 -1 3 3", 3, 2147483647),
        ("1 1 1 -3 1 2 0 -3 2 -3 2 3 3 -3 -1 -1 2 -2", 6, 1073741824),
    ])
    def test_row_scaled_matrix_passes_without_evaluating_the_second_family(
            self, capsys, tmp_path, scalars, row, exponent):
        """A (3, 3) scalar matrix whose row j is scaled by t_j^e, 2e beyond
        the exponent range, passes the first family; some pi^S * pi^T of
        the second family leaves the range.  That family is a
        Grassmann-Pluecker identity and is not evaluated, so the check
        passes (exit 0) instead of raising the ring's overflow error."""
        values = [int(v) for v in scalars.split()]
        lines = [f"{c}*t{row}^{exponent}" if r == row else str(c)
                 for r in range(1, 7) for c in values[3 * (r - 1):3 * r]]
        path = tmp_path / "scaled.mat"
        path.write_text("3 3\n" + "\n".join(lines) + "\n")
        code, report, _ = invoke(capsys, "criterion-check", "--n", "3", "--m", "3",
                                 "--matrix", f"file:{path}")
        assert code == 0
        assert report["verdict"] == "pass" and report["counterexample"] is None
        assert "error" not in report

    @pytest.mark.parametrize("n, m, entries", [
        (2, 1, ["-1073741824*t1^1073741824*t2*t3 - 2147483648*t1^-1073741824*t2^-1073741824",
                "-t1^1073741824*t2*t3 - 2147483648*t1^-1073741824*t2^-1073741824",
                "-t1^1073741824*t2*t3"]),
        (3, 1, ["2147483645*t1^2147483645*t2*t4^-1 - t1*t3^-1", "t1^2147483645*t2*t4^-1",
                "t1*t3^-1", "-t1^2147483645*t2*t4^-1"]),
        (3, 2, ["1073741828*t1^536870914*t3^536870914*t4 + 2*t1*t2^536870914*t3^-536870914",
                "2*t1*t3^536870914*t5^536870914",
                "1073741828*t1*t2^536870914*t3^-536870914", "0",
                "1073741828*t1^536870914*t3^536870914*t4"
                " - 1073741828*t1*t2^536870914*t3^-536870914",
                "1073741828*t1*t3^536870914*t5^536870914",
                "2*t1^536870914*t3^536870914*t4", "0",
                "0", "1073741828*t1*t3^536870914*t5^536870914 + 1073741828*t5^536870914"]),
    ])
    def test_gradient_columns_pass_by_frobenius_without_first_family_products(
            self, capsys, tmp_path, monkeypatch, n, m, entries):
        """Gradient columns (Euler family) with exponents near the range
        limit: their curls are zero, so the Frobenius test passes them
        (exit 0) with no product, where a first-family product of the scan
        leaves the exponent range (it exited 4 when the scan decided)."""
        from poisson_nlie import criterion
        calls = []
        monkeypatch.setattr(criterion, "group_residual_a", lambda *a, **k: calls.append(a))
        path = tmp_path / "gradient.mat"
        path.write_text(f"{n} {m}\n" + "\n".join(entries) + "\n")
        code, report, _ = invoke(capsys, "criterion-check", "--n", str(n), "--m", str(m),
                                 "--matrix", f"file:{path}")
        assert code == 0
        assert report["verdict"] == "pass" and "error" not in report
        assert calls == []

    def test_probe(self, capsys):
        code, report, _ = invoke(capsys, "criterion-probe", "--n", "3", "--m", "1",
                                 "--trials", "3", "--seed", "1")
        assert code == 0
        assert report["all_pass"] and report["verdicts"] == ["pass"] * 3

    @pytest.mark.parametrize("argv, field, value", [
        (("criterion-check", "--matrix", "scalar:random", "--seed", "0"), "verdict", "pass"),
        (("criterion-check", "--matrix", "monomial:random", "--seed", "0"), "verdict", "pass"),
        (("criterion-probe", "--trials", "2", "--seed", "0"), "verdicts", ["pass", "pass"]),
    ])
    def test_random_matrices_with_no_adjoined_columns(self, capsys, argv, field, value):
        """m = 0 draws no entries, as a file whose header is "3 0" reads none."""
        code, report, _ = invoke(capsys, argv[0], "--n", "3", "--m", "0", *argv[1:])
        assert code == 0 and "error" not in report
        assert report[field] == value

    @pytest.mark.parametrize("argv, code, message", [
        (("criterion-probe", "--n", "800", "--m", "0", "--trials", "1", "--seed", "0"),
         3, "102399840800 residual groups exceed budget"),
        (("criterion-probe", "--n", "800", "--m", "0", "--trials", "0", "--seed", "0"),
         3, "102399840800 residual groups exceed budget"),
        (("criterion-check", "--n", "3", "--m", "2", "--ring", "laurent:v=800:euler",
          "--matrix", "scalar:random", "--seed", "0"),
         2, "ring preset must provide exactly n + m derivations"),
        (("criterion-check", "--n", "30", "--m", "5", "--ring", "laurent:v=35:euler",
          "--matrix", "scalar:random", "--seed", "0"),
         3, "residual groups exceed budget"),
        (("construct-jacobian", "--n", "3", "--m", "2", "--ring", "laurent:v=800:euler",
          "--samples", "1"),
         2, "ring preset must provide exactly n + m derivations"),
    ])
    def test_cheap_checks_come_before_any_family_is_built(
            self, capsys, monkeypatch, argv, code, message):
        from poisson_nlie import ring
        built = []
        certify = ring.certify_family
        monkeypatch.setattr(ring, "certify_family",
                            lambda *a, **k: built.append(1) or certify(*a, **k))
        got, report, _ = invoke(capsys, *argv)
        assert got == code and message in report["error"]
        assert built == []
        invoke(capsys, "criterion-check", "--n", "2", "--m", "1",
               "--matrix", "scalar:random", "--seed", "0")
        assert built == [1]  # the counter sees the families that are built

    def test_probe_refuses_a_negative_trial_count(self, capsys):
        code, report, _ = invoke(capsys, "criterion-probe", "--n", "2", "--m", "1",
                                 "--trials", "-1", "--seed", "0")
        assert code == 2
        assert "negative" in report["error"] and "verdicts" not in report

    def test_timing_is_split_by_phase(self, capsys, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2 1\nt2\nt3\nt1\n")
        for argv in (("criterion-check", "--n", "2", "--m", "1", "--matrix", f"file:{path}"),
                     ("criterion-probe", "--n", "3", "--m", "1", "--trials", "2", "--seed", "1")):
            _, report, _ = invoke(capsys, *argv)
            timing = report["timing"]
            assert set(timing) == {"wall_s", "pi_table_s", "frobenius_s", "evaluate_s"}
            phases = timing["pi_table_s"] + timing["frobenius_s"] + timing["evaluate_s"]
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

    @pytest.mark.parametrize("matrix, args, messages", [
        # A = (a, 0, 0)^T: Jac_(1,2) leaves the range although pi^(1,2) = 0
        ("2 1\n2\n0\n0\n", "t1^1073741824; t1^1073741824*t2",
         {"construct-jacobian": "exponent 2147483648 out of range"}),
        # the error names the first exponent out of range in term order
        ("2 2\n0\nt1^-1073741823*t3^-1 - 1*t1^-1073741824*t2^-1*t3^2\n-1*t1^-1073741822\n"
         "0\nt1^-1073741825 + 2*t1^-1073741822\nt1^-1073741821*t2^-1*t4^-2\n0\n"
         "-3*t2^-1073741822*t3^2*t4^-2\n",
         "t1^-1073741822*t2^2*t4^-2; -1*t1^-1073741825*t2^-1073741825*t3^-1073741826",
         {"construct-jacobian": "exponent -3221225472 out of range",
          "criterion-check": "exponent -2147483648 out of range"}),
    ])
    def test_minors_near_the_exponent_limit_exit_four(self, capsys, tmp_path,
                                                      matrix, args, messages):
        """Seeded near-limit inputs whose minors overflow, pinned with the
        errors of the Fraction Laplace expansion."""
        path = tmp_path / "near.mat"
        path.write_text(matrix)
        n, m = matrix.split("\n", 1)[0].split()
        argv = {"construct-jacobian": ["--ring", f"laurent:v={int(n) + int(m)}:euler",
                                       "--args", args],
                "criterion-check": []}
        for command, message in messages.items():
            code, report, _ = invoke(capsys, command, "--n", n, "--m", m,
                                     "--matrix", f"file:{path}", *argv[command])
            assert code == 4
            assert report["error"] == message

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

    @pytest.mark.parametrize("argv", [
        ("hypo", "--n", "0"), ("hypo", "--m", "0"), ("torus", "--n", "0"), ("torus", "--k", "0"),
    ])
    def test_fixture_parameters_of_zero_are_passed_on(self, capsys, argv):
        code, report, _ = invoke(capsys, "fixtures", *argv)
        assert code == 2 and report["error"].startswith("fixture needs")

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
