"""Batch front-end: parse definition files, dispatch, emit structured reports.

One JSON report per run on standard output (machine-readable, stable for a
fixed seed and thread count once the timing block is stripped); a short
human summary on standard error unless ``--quiet``.

Exit codes: 0 all checks passed; 1 a mathematical check failed (the report
carries the counterexample); 2 usage or parse error, or a file that cannot
be read or written (a directory, a missing folder); 3 budget exceeded;
4 an arithmetic error (such as an exponent leaving the fixed-width range
during evaluation), a failed internal cross-check, or running out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .constructions import (
    DimensionBudgetError,
    iterated_bracket,
    skew_defect_quotient,
    tensor_poisson_n,
    xu_tensor,
)
from .criterion import (
    AssumptionsError,
    BudgetExceededError,
    DEFAULT_GROUP_BUDGET,
    check_criterion,
    check_group_budget,
    probe_conjecture,
)
from .finite_algebra import (
    SERIES_KINDS,
    InternalCheckError,
    StructAlgebra,
    _parse_combination,
    classify,
    common_eigenvector,
    format_algebra,
    fixture_hypo,
    fixture_torus,
    full_space,
    generalized_eigenspace,
    is_hypo_nilpotent,
    is_ideal,
    nilradical,
    parse_algebra,
    series,
    verify_axioms,
)
from .jacobian_bracket import (
    AdjoinedMatrix,
    MonomialSampler,
    bracket,
    expansion_equivalence_check,
    parse_adjoined_matrix,
)
from .ring import (
    ParseError,
    euler_family,
    format_polynomial,
    parse_polynomial,
    partial_family,
)
from .subspaces import Subspace, unit_vector

EXIT_PASS = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    pass


def _parse_ring_spec(spec: str):
    """(variable count, family preset) of a ring spec; builds nothing, since
    certifying k derivations compares k(k-1)/2 pairs."""
    parts = spec.split(":")
    if len(parts) != 3 or parts[0] != "laurent" or not parts[1].startswith("v="):
        raise UsageError(f"bad ring spec {spec!r}; expected laurent:v=<k>:euler|partial")
    try:
        nvars = int(parts[1][2:])
    except ValueError:
        raise UsageError(f"bad variable count in {spec!r}")
    presets = {"euler": euler_family, "partial": partial_family}
    if parts[2] not in presets:
        raise UsageError(f"unknown derivation preset {parts[2]!r}")
    return nvars, presets[parts[2]]


def _build_family(nvars: int, preset, n: int, m: int):
    if nvars != n + m:
        raise UsageError("ring preset must provide exactly n + m derivations")
    return preset(nvars)


def _load_matrix(spec: str, n: int, m: int, nvars: int, seed) -> AdjoinedMatrix:
    if spec.startswith("file:"):
        path = Path(spec[5:])
        if not path.exists():
            raise UsageError(f"matrix file {path} does not exist")
        A = parse_adjoined_matrix(path.read_text(), nvars)
        if (A.n, A.m) != (n, m):
            raise UsageError(f"matrix file {path} has shape (n, m) = ({A.n}, {A.m}), "
                             f"not ({n}, {m})")
        return A
    if spec == "scalar:random":
        if seed is None:
            raise UsageError("scalar:random requires an explicit --seed")
        sampler = MonomialSampler(nvars, seed=seed)
        return sampler.scalar_matrix(n, m)
    if spec == "monomial:random":
        if seed is None:
            raise UsageError("monomial:random requires an explicit --seed")
        sampler = MonomialSampler(nvars, seed=seed)
        return sampler.monomial_matrix(n, m)
    raise UsageError(f"unknown matrix spec {spec!r}")


def _load_algebra(spec: str) -> StructAlgebra:
    if spec == "fixture:hypo":
        return fixture_hypo()
    if spec == "fixture:torus":
        return fixture_torus()
    path = Path(spec)
    if not path.exists():
        raise UsageError(f"algebra file {path} does not exist")
    return parse_algebra(path.read_text())


def _parse_ideal_spec(spec: str, P: StructAlgebra) -> Subspace:
    if spec == "full":
        return full_space(P)
    if spec.startswith("basis:"):
        try:
            indices = [int(x) for x in spec[6:].split(",") if x]
        except ValueError:
            raise UsageError(f"bad ideal spec {spec!r}")
        if any(not 1 <= i <= P.dim for i in indices):
            raise UsageError("ideal basis index out of range")
        return Subspace.from_vectors(P.dim, [unit_vector(P.dim, i - 1) for i in indices])
    raise UsageError(f"unknown ideal spec {spec!r}; use full or basis:i,j,...")


def _format_subspace(U: Subspace):
    return [[str(v) for v in row] for row in U.basis]


# ---------------------------------------------------------------------------
# Command handlers: each returns (exit_code, payload, summary)
# ---------------------------------------------------------------------------

def _cmd_construct_jacobian(args):
    family = _build_family(*_parse_ring_spec(args.ring), args.n, args.m)
    if args.samples:
        result = expansion_equivalence_check(args.n, args.m, family,
                                             samples=args.samples,
                                             seed=0 if args.seed is None else args.seed)
        payload = {"mode": "equivalence", **result}
        code = EXIT_PASS if result["equal"] else EXIT_MATH_FAIL
        return code, payload, (
            f"expansion equivalence on {args.samples} samples: "
            f"{'ok' if result['equal'] else 'MISMATCH'}")
    if not args.args:
        raise UsageError("provide --args 'p1; p2; ...' or --samples N")
    A = _load_matrix(args.matrix, args.n, args.m, family.nvars, args.seed)
    try:
        xs = [parse_polynomial(p.strip(), family.nvars) for p in args.args.split(";")]
    except ParseError as exc:
        raise UsageError(f"bad bracket argument: {exc}")
    if len(xs) != args.n:
        raise UsageError(f"need exactly n = {args.n} arguments")
    full = bracket(xs, A, family, method="full")
    expanded = bracket(xs, A, family, method="expanded")
    payload = {
        "mode": "single",
        "full": format_polynomial(full),
        "expanded": format_polynomial(expanded),
        "agree": full == expanded,
    }
    code = EXIT_PASS if full == expanded else EXIT_MATH_FAIL
    return code, payload, f"bracket = {payload['full']}"


def _phase_timing(phases: dict) -> dict:
    """Criterion phase times for the report's ``timing`` block."""
    return {name: round(seconds, 6) for name, seconds in phases.items()}


def _cmd_criterion_check(args):
    if args.n >= 2 and args.m >= 0:  # the matrix refuses other shapes
        check_group_budget(args.n, args.m, args.budget)  # before building the family
    nvars, preset = _parse_ring_spec(args.ring) if args.ring else (args.n + args.m, euler_family)
    A = _load_matrix(args.matrix, args.n, args.m, nvars, args.seed)
    family = _build_family(nvars, preset, args.n, args.m)
    report = check_criterion(A, family, budget=args.budget, threads=args.threads,
                             matrix_desc=args.matrix)
    payload = {**report.to_json_dict(), "timing": _phase_timing(report.phases)}
    code = EXIT_PASS if report.passed() else EXIT_MATH_FAIL
    return code, payload, (
        f"criterion {report.verdict} over {report.counts['groups_total']} residual groups "
        f"({report.counts['case_tuples']} case tuples)")


def _cmd_criterion_probe(args):
    if args.seed is None:
        raise UsageError("criterion-probe requires an explicit --seed")
    report = probe_conjecture(args.n, args.m, args.trials, args.seed, budget=args.budget)
    payload = {**report.to_json_dict(), "timing": _phase_timing(report.phases)}
    code = EXIT_PASS if report.all_pass else EXIT_MATH_FAIL
    return code, payload, (
        f"{sum(1 for v in report.verdicts if v == 'pass')}/{report.trials} trials pass "
        f"at (n, m) = ({args.n}, {args.m})")


def _cmd_verify(args):
    P = _load_algebra(args.algebra)
    report = verify_axioms(P)
    payload = {
        "dim": P.dim,
        "arity": P.arity,
        "axioms": {
            "commutative": report.commutative,
            "associative": report.associative,
            "skew": report.skew,
            "fundamental": report.fundamental,
            "leibniz": report.leibniz,
        },
        "witnesses": {k: list(v) for k, v in report.witnesses.items()},
        "mode": report.mode,
        "all_pass": report.all_pass,
    }
    code = EXIT_PASS if report.all_pass else EXIT_MATH_FAIL
    return code, payload, f"axioms {'all pass' if report.all_pass else 'FAIL'} ({report.mode})"


def _cmd_series(args):
    P = _load_algebra(args.algebra)
    I = _parse_ideal_spec(args.ideal, P)
    result = series(I, P, args.kind)
    payload = {
        "kind": result.kind,
        "dims": [t.dim for t in result.terms],
        "stabilized_at": result.stabilized_at,
        "terminates_at_zero": result.terminates_at_zero,
        "terms": [_format_subspace(t) for t in result.terms],
    }
    return EXIT_PASS, payload, (
        f"{args.kind} series dims {[t.dim for t in result.terms]}"
        f"{' -> 0' if result.terminates_at_zero else ' (stable, nonzero)'}")


def _cmd_classify(args):
    P = _load_algebra(args.algebra)
    result = classify(P)
    payload = {
        "solvable": result.solvable,
        "solvability_index": result.solvability_index,
        "nilpotent": result.nilpotent,
        "nilpotency_index": result.nilpotency_index,
        "product_part_nilpotent": result.pa_nilpotent,
        "bracket_part_solvable": result.pl_solvable,
        "bracket_part_nilpotent": result.pl_nilpotent,
    }
    return EXIT_PASS, payload, (
        f"solvable={result.solvable} (index {result.solvability_index}), "
        f"nilpotent={result.nilpotent}")


def _cmd_nilradical(args):
    P = _load_algebra(args.algebra)
    nil = nilradical(P)
    payload = {"dim": nil.dim, "basis": _format_subspace(nil)}
    return EXIT_PASS, payload, f"nilradical has dimension {nil.dim}"


def _cmd_hypo(args):
    P = _load_algebra(args.algebra)
    U = _parse_ideal_spec(args.ideal, P)
    if not is_ideal(U, P):
        raise UsageError("the given subspace is not an ideal")
    verdict = is_hypo_nilpotent(U, P)
    payload = {"ideal_dim": U.dim, "hypo_nilpotent": verdict}
    return EXIT_PASS, payload, f"hypo-nilpotent: {verdict}"


def _cmd_eigenspace(args):
    P = _load_algebra(args.algebra)
    try:
        element = _parse_combination(args.element, P.dim, 1)
    except ParseError as exc:
        raise UsageError(f"bad element: {exc}")
    try:
        eigenvalue = Fraction(args.eigenvalue)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad eigenvalue {args.eigenvalue!r}")
    space = generalized_eigenspace(P, element, eigenvalue)
    payload = {
        "dim": space.dim,
        "basis": _format_subspace(space),
        "is_ideal": True,  # asserted inside generalized_eigenspace
    }
    return EXIT_PASS, payload, f"generalized eigenspace has dimension {space.dim}"


def _cmd_eigenvector(args):
    P = _load_algebra(args.algebra)
    found = common_eigenvector(P)
    if found is None:
        payload = {"found": False, "reason": "no simultaneous rational eigenvector"}
        return EXIT_MATH_FAIL, payload, "no common eigenvector over Q"
    payload = {
        "found": True,
        "vector": [str(v) for v in found.vector],
        "eigenvalues": {",".join(str(i + 1) for i in key): str(val)
                        for key, val in found.eigenvalues.items() if val},
        "annihilated_by_products": found.annihilated_by_products,
    }
    return EXIT_PASS, payload, "common eigenvector found"


def _cmd_tensor(args):
    left = _load_algebra(args.left)
    right = _load_algebra(args.right)
    construct = tensor_poisson_n if args.kind == "poisson-n" else xu_tensor  # argparse's choices
    algebra = construct(left, right).algebra
    payload = {
        "kind": args.kind,
        "dim": algebra.dim,
        "arity": algebra.arity,
        "algebra_text": format_algebra(algebra),
    }
    if args.out:
        Path(args.out).write_text(payload["algebra_text"])
    return EXIT_PASS, payload, f"verified tensor algebra of dimension {algebra.dim}"


def _cmd_quotient_pipeline(args):
    P = _load_algebra(args.algebra)
    if P.arity != 2:
        raise UsageError("the pipeline starts from a binary Poisson algebra")
    tensored = xu_tensor(P, P)
    nested = iterated_bracket(tensored.algebra, args.arity)
    final = skew_defect_quotient(nested)
    algebra = final.algebra
    skew_view = StructAlgebra(
        algebra.dim, algebra.arity,
        {key: val for key, val in algebra.bracket_entries()
         if all(a < b for a, b in zip(key, key[1:]))},
        dict(algebra.product_entries()))
    payload = {
        "input_dim": P.dim,
        "tensor_dim": tensored.algebra.dim,
        "nested_bracket_entries": len(dict(nested.bracket_entries())),
        "quotient_dim": algebra.dim,
        "algebra_text": format_algebra(skew_view),
        "note": "the nested intermediate bracket is not alternating and "
                "has no definition-file form",
    }
    if args.emit:
        emit = Path(args.emit)
        emit.mkdir(parents=True, exist_ok=True)
        (emit / "tensor.alg").write_text(format_algebra(tensored.algebra))
        (emit / "quotient.alg").write_text(payload["algebra_text"])
    return EXIT_PASS, payload, (
        f"pipeline: dim {P.dim} -> tensor {tensored.algebra.dim} -> "
        f"quotient {algebra.dim} (verified)")


def _cmd_fixtures(args):
    if args.name == "hypo":
        P = fixture_hypo(4 if args.n is None else args.n, 6 if args.m is None else args.m)
    else:  # argparse's choices leave "torus"
        P = fixture_torus(4 if args.n is None else args.n, 5 if args.k is None else args.k)
    text = format_algebra(P)
    payload = {"name": args.name, "dim": P.dim, "arity": P.arity, "algebra_text": text}
    if args.out:
        Path(args.out).write_text(text)
    return EXIT_PASS, payload, f"fixture {args.name}: dim {P.dim}, arity {P.arity}"


_HANDLERS = {
    "construct-jacobian": _cmd_construct_jacobian,
    "criterion-check": _cmd_criterion_check,
    "criterion-probe": _cmd_criterion_probe,
    "verify": _cmd_verify,
    "series": _cmd_series,
    "classify": _cmd_classify,
    "nilradical": _cmd_nilradical,
    "hypo": _cmd_hypo,
    "eigenspace": _cmd_eigenspace,
    "eigenvector": _cmd_eigenvector,
    "tensor": _cmd_tensor,
    "quotient-pipeline": _cmd_quotient_pipeline,
    "fixtures": _cmd_fixtures,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use (about 1 ms), not
    at import; parsing leaves it unchanged, so every ``run`` shares it."""
    parser = argparse.ArgumentParser(
        prog="poisson-nlie",
        description="Determinant brackets, the Poisson n-Lie criterion, and "
                    "structure theory over exact rationals.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False, threaded=False):
        p.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="seed for any randomness (required by *:random sources)")
        if threaded:
            p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("construct-jacobian", help="evaluate or cross-check the bracket")
    p.add_argument("--ring", required=True, help="laurent:v=<k>:euler|partial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--matrix", default="scalar:random")
    p.add_argument("--args", help="semicolon-separated bracket arguments")
    p.add_argument("--samples", type=int, help="run the full-vs-expanded check instead")
    common(p, seeded=True, threaded=True)

    p = sub.add_parser("criterion-check", help="exhaustive residual check for one matrix")
    p.add_argument("--ring", help="defaults to laurent:v=n+m:euler")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_GROUP_BUDGET)
    common(p, seeded=True, threaded=True)

    p = sub.add_parser("criterion-probe", help="criterion over seeded random scalar matrices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_GROUP_BUDGET)
    common(p, seeded=True, threaded=True)

    p = sub.add_parser("verify", help="axiom verification for an algebra")
    p.add_argument("algebra", help="fixture:hypo | fixture:torus | path")
    common(p)

    p = sub.add_parser("series", help="descending series of an ideal")
    p.add_argument("algebra")
    p.add_argument("--ideal", default="full", help="full or basis:i,j,...")
    p.add_argument("--kind", choices=SERIES_KINDS, default="derived")
    common(p)

    p = sub.add_parser("classify", help="solvability and nilpotency flags")
    p.add_argument("algebra")
    common(p)

    p = sub.add_parser("nilradical", help="maximal nilpotent ideal")
    p.add_argument("algebra")
    common(p)

    p = sub.add_parser("hypo", help="hypo-nilpotency of an ideal")
    p.add_argument("algebra")
    p.add_argument("--ideal", required=True)
    common(p)

    p = sub.add_parser("eigenspace", help="generalized multiplication eigenspace")
    p.add_argument("algebra")
    p.add_argument("--element", required=True, help="combination like 'e4 - 2*e5'")
    p.add_argument("--eigenvalue", default="0")
    common(p)

    p = sub.add_parser("eigenvector", help="common eigenvector search")
    p.add_argument("algebra")
    common(p)

    p = sub.add_parser("tensor", help="tensor constructions")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--kind", choices=("poisson-n", "xu"), default="poisson-n")
    p.add_argument("--out", help="write the resulting algebra file")
    common(p)

    p = sub.add_parser("quotient-pipeline",
                       help="binary Poisson -> tensor square -> nested bracket -> skew quotient")
    p.add_argument("algebra")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--emit", help="directory for intermediate algebra files")
    common(p)

    p = sub.add_parser("fixtures", help="emit a built-in fixture algebra")
    p.add_argument("name", choices=("hypo", "torus"))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    common(p)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return EXIT_PASS if not exc.code else EXIT_USAGE
    started = time.perf_counter()
    report = {
        "schema": "poisson-nlie/report-v1",
        "tool": "poisson-nlie",
        "version": __version__,
        "command": args.command,
        "parameters": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("command", "quiet") and v is not None},
    }
    try:
        code, payload, summary = _HANDLERS[args.command](args)
        report.update(payload)
    except (UsageError, ParseError, AssumptionsError, ValueError, OSError) as exc:
        # precondition violations (non-ideal inputs, non-solvable algebras,
        # uncertified presets) and unusable paths are usage errors, not crashes
        report["error"] = str(exc)
        code, summary = EXIT_USAGE, f"error: {exc}"
    except (BudgetExceededError, DimensionBudgetError) as exc:
        report["error"] = str(exc)
        code, summary = EXIT_BUDGET, f"budget exceeded: {exc}"
    except (ArithmeticError, InternalCheckError) as exc:
        report["error"] = str(exc)
        code, summary = EXIT_INTERNAL, f"arithmetic or internal check error: {exc}"
    except MemoryError as exc:
        report["error"] = f"out of memory: {exc}" if str(exc) else "out of memory"
        code, summary = EXIT_INTERNAL, report["error"]
    except Exception as exc:
        # any other exception is a fault in the program: report it, never a traceback
        report["error"] = f"{type(exc).__name__}: {exc}"
        code, summary = EXIT_INTERNAL, f"internal error: {report['error']}"
    report["exit_code"] = code
    report["timing"] = {**report.get("timing", {}),
                        "wall_s": round(time.perf_counter() - started, 6)}
    print(json.dumps(report, sort_keys=True, default=str))
    if not getattr(args, "quiet", False):
        print(summary, file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
