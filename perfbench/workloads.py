"""The benchmark's workloads: seeded inputs, job cycles, canonical outputs
and the independent checks every job's output must pass.

A workload is a list of cycles.  Every cycle holds the same mix of job
kinds in the same order, so a run of whole cycles always has the same
mix and the latency percentiles fall at the same place in it.  Cycle ``k``
draws fresh inputs from the workload seed; runs that get through more
than ``Workload.input_cycles`` cycles start over at cycle 0.

Inputs are made here, from the benchmark's own random generator, and
passed to the package's public functions; the package never sees the
seed, except as the instance index handed to ``random_poisson_n_lie``,
which is the package's own generator of verified structure instances.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

import oracle


class CheckFailed(Exception):
    """A job's output failed an independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Job:
    kind: str                          # job class, e.g. "gradient(3,3)"
    key: str                           # canonical input text; indexes the reference digests
    call: Callable[[], object]         # the timed call into the package
    canon: Callable[[object], object]  # raw result -> canonical output (JSON-able)
    check: Callable[[object], None]    # raw result -> raises CheckFailed
    groups: int = 0                    # residual groups of a criterion job


@dataclass
class Plan:
    cycles: List[List[Job]]
    threads: int
    bracket_times: Dict[str, List[float]] = dataclasses.field(
        default_factory=lambda: {"full": [], "expanded": []})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: str
    stresses: str
    bypasses: str
    cycle_s: float       # nominal seconds per cycle, measured when the benchmark was defined
    input_cycles: int    # cycles with distinct inputs; later cycles repeat them
    trace_cycles: int    # cycles in the traced run
    build: Callable[..., Plan]

    def cycles_for(self, seconds: float) -> int:
        """Whole cycles that take about ``seconds`` at the nominal speed.
        A fixed amount of work per run keeps the job mix, and so the
        latency percentiles, the same in every run."""
        return max(1, round(seconds / self.cycle_s))


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def _scalar(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _exponents(rng: random.Random, nvars: int) -> tuple:
    """Nonzero exponents in -4..4: no Euler derivative of a term vanishes
    and products of terms rarely collide, so the cost of a job varies
    little from seed to seed."""
    return tuple(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in range(nvars))


def _monomial(pkg, rng, nvars):
    return pkg.ring.LaurentPolynomial.monomial(nvars, _exponents(rng, nvars))


def _binomial(pkg, rng, nvars):
    first = _exponents(rng, nvars)
    second = _exponents(rng, nvars)
    while second == first:
        second = _exponents(rng, nvars)
    coeff = rng.choice([-3, -2, -1, 1, 2, 3])
    LP = pkg.ring.LaurentPolynomial
    return LP.monomial(nvars, first) + LP.monomial(nvars, second, coeff)


def _scalar_matrix(pkg, rng, n, m):
    rows = [[_scalar(rng) for _ in range(m)] for _ in range(n + m)]
    return pkg.jacobian_bracket.AdjoinedMatrix.from_scalars(n, m, rows, n + m)


def _monomial_matrix(pkg, rng, n, m):
    rows = [[_monomial(pkg, rng, n + m) for _ in range(m)] for _ in range(n + m)]
    return pkg.jacobian_bracket.AdjoinedMatrix.from_rows(n, m, rows, nvars=n + m)


def _gradient_matrix(pkg, rng, n, m, family):
    """Columns d_r(y_s) of seeded binomials y_1..y_m; always Poisson."""
    ys = [_binomial(pkg, rng, n + m) for _ in range(m)]
    rows = [[family[r].apply(y) for y in ys] for r in range(n + m)]
    return pkg.jacobian_bracket.AdjoinedMatrix.from_rows(n, m, rows)


def _block_matrix(pkg, rng, n, m):
    """f times an identity block on the first m rows; always Poisson."""
    f = _binomial(pkg, rng, n + m)
    zero = pkg.ring.LaurentPolynomial.zero(n + m)
    rows = [[f if r == s else zero for s in range(m)] for r in range(m)]
    rows += [[zero] * m for _ in range(n)]
    return pkg.jacobian_bracket.AdjoinedMatrix.from_rows(n, m, rows)


# ---------------------------------------------------------------------------
# Criterion and bracket jobs
# ---------------------------------------------------------------------------

def groups_total(n: int, m: int) -> int:
    """Residual groups of one exhaustive check, counted from the shape."""
    size = n + m
    first = math.comb(size, n) * math.comb(size, n - 1)
    second = math.comb(size, n) * (size * (size + 1) // 2) * math.comb(size, n - 2)
    return first + second


def _criterion_job(pkg, plan, kind, A, family, expect):
    """``expect`` is "pass", or "either" for monomial draws, which
    usually fail early with a counterexample.  The thread count is read
    from the plan at call time, so a traced run can repeat the same jobs
    single-threaded."""
    crit = pkg.criterion
    fmt = pkg.ring.format_polynomial

    def check(report):
        require(report.verdict in ("pass", "fail"), f"verdict {report.verdict!r}")
        if expect == "pass":
            require(report.verdict == "pass", f"{kind}: expected pass, got fail")
        require(report.counts["groups_total"] == groups_total(A.n, A.m),
                f"{kind}: groups_total {report.counts['groups_total']}")
        if report.verdict == "pass":
            require(report.counterexample is None, f"{kind}: pass with a counterexample")
            return
        ce = report.counterexample
        require(ce is not None and ce["residual"] != "0", f"{kind}: fail without a counterexample")
        if ce["residual_family"] == "first":
            value = crit.group_residual_a(tuple(ce["x_pattern"]), tuple(ce["y_tail"]), A, family)
        else:
            value = crit.group_residual_b(tuple(ce["x_pattern"]), tuple(ce["derivative_pair"]),
                                          tuple(ce["y_tail_rest"]), A)
        require(fmt(value) == ce["residual"], f"{kind}: counterexample residual does not recompute")

    return Job(
        kind=kind,
        key=f"criterion|{A.serialize()}",
        call=lambda: crit.check_criterion(A, family, threads=plan.threads),
        canon=lambda report: report.to_json_dict(),
        check=check,
        groups=groups_total(A.n, A.m),
    )


def _bracket_job(pkg, kind, A, xs, family, times):
    """bracket(full) and bracket(expanded) on identical inputs; each call
    is also timed on its own for the full-vs-expanded comparison."""
    jb = pkg.jacobian_bracket
    fmt = pkg.ring.format_polynomial

    def call():
        t0 = perf_counter()
        full = jb.bracket(xs, A, family, method="full")
        t1 = perf_counter()
        expanded = jb.bracket(xs, A, family, method="expanded")
        t2 = perf_counter()
        times["full"].append(t1 - t0)
        times["expanded"].append(t2 - t1)
        return full, expanded

    def check(result):
        full, expanded = result
        require(full == expanded and fmt(full) == fmt(expanded),
                f"{kind}: full and expanded brackets differ")

    return Job(
        kind=kind,
        key=f"bracket|{A.serialize()}|{'; '.join(fmt(x) for x in xs)}",
        call=call,
        canon=lambda result: [fmt(result[0]), fmt(result[1])],
        check=check,
    )


def build_probe_scalar(pkg, seed: int, cycles: int, workdir: Path) -> Plan:
    family = pkg.ring.euler_family(7)
    rng = _rng("probe-scalar", seed, "matrices")
    plan = Plan([], threads=2)
    for _ in range(cycles):
        plan.cycles.append([
            _criterion_job(pkg, plan, f"scalar({n},{m})", _scalar_matrix(pkg, rng, n, m),
                           family, "pass")
            for n, m in ((5, 2), (4, 3))])
    return plan


POLY_SHAPES = ((3, 2), (4, 2), (3, 3))

# Per cycle, cheapest first: (job maker, shape, count).  Latency ranks:
# 6 jobs under 5 ms; 8 jobs of 12-20 ms, which hold job_p50_s; one f*I
# block and one (3,2) gradient; three (4,2) gradients, which hold
# job_p90_s; one (3,3) gradient on top.  Keeping each percentile inside
# a block of similar jobs keeps it from jumping between job classes.
POLY_CYCLE = (
    ("monomial", (3, 2), 2), ("monomial", (4, 2), 2), ("bracket", (3, 2), 2),
    ("bracket", (3, 3), 2), ("bracket", (4, 2), 2), ("block", (3, 2), 2), ("monomial", (3, 3), 2),
    ("block", (3, 3), 1), ("gradient", (3, 2), 1),
    ("gradient", (4, 2), 3),
    ("gradient", (3, 3), 1),
)


def build_criterion_poly(pkg, seed: int, cycles: int, workdir: Path) -> Plan:
    """Single-threaded criterion checks on polynomial matrices: gradient
    columns and f*I blocks pass, monomial draws usually fail early; and
    full against expanded brackets on seeded monomial arguments."""
    families = {shape: pkg.ring.euler_family(sum(shape)) for shape in POLY_SHAPES}
    rng = _rng("criterion-poly", seed, "inputs")
    plan = Plan([], threads=1)
    for _ in range(cycles):
        jobs = []
        for maker, (n, m), count in POLY_CYCLE:
            fam = families[(n, m)]
            for i in range(count):
                kind = f"{maker}({n},{m})"
                if maker == "bracket":
                    A = (_scalar_matrix if i % 2 == 0 else _monomial_matrix)(pkg, rng, n, m)
                    xs = [_monomial(pkg, rng, n + m) for _ in range(n)]
                    jobs.append(_bracket_job(pkg, kind, A, xs, fam, plan.bracket_times))
                elif maker == "monomial":
                    jobs.append(_criterion_job(pkg, plan, kind, _monomial_matrix(pkg, rng, n, m),
                                               fam, "either"))
                elif maker == "block":
                    jobs.append(_criterion_job(pkg, plan, kind, _block_matrix(pkg, rng, n, m),
                                               fam, "pass"))
                else:
                    jobs.append(_criterion_job(pkg, plan, kind,
                                               _gradient_matrix(pkg, rng, n, m, fam), fam, "pass"))
        plan.cycles.append(jobs)
    return plan


# ---------------------------------------------------------------------------
# Structure jobs
# ---------------------------------------------------------------------------

def _basis_text(U):
    return [[str(v) for v in row] for row in U.basis]


def _entries_text(entries):
    return [[list(key), sorted((i, str(c)) for i, c in value.items())]
            for key, value in sorted(entries)]


def _algebra_canon(fa, P):
    """Canonical form of any algebra: the definition grammar for
    alternating brackets, the raw entry lists otherwise."""
    if P.skew:
        return fa.format_algebra(P)
    return {"dim": P.dim, "arity": P.arity,
            "brackets": _entries_text(P.bracket_entries()),
            "products": _entries_text(P.product_entries())}


def _axioms(report) -> dict:
    return {
        "commutative": report.commutative,
        "associative": report.associative,
        "skew": report.skew,
        "fundamental": report.fundamental,
        "leibniz": report.leibniz,
        "witnesses": {k: list(v) for k, v in sorted(report.witnesses.items())},
        "mode": report.mode,
    }


def _series_canon(result) -> dict:
    return {
        "kind": result.kind,
        "dims": [t.dim for t in result.terms],
        "stabilized_at": result.stabilized_at,
        "terminates_at_zero": result.terminates_at_zero,
        "terms": [_basis_text(t) for t in result.terms],
    }


def _eigvec_canon(found):
    if found is None:
        return None
    return {"vector": [str(v) for v in found.vector],
            "eigenvalues": {",".join(str(i) for i in key): str(val)
                            for key, val in sorted(found.eigenvalues.items())}}


def _lazy(compute):
    """Value computed on first use; keeps expected values out of set-up."""
    cache = []

    def get():
        if not cache:
            cache.append(compute())
        return cache[0]
    return get


# Eighty-four random_poisson_n_lie instances per cycle, twelve of each of
# its seven recipes, as (description with numbers replaced by "#", dimension).
# Fixing the shapes leaves the seed to choose scales and coefficients, so
# every cycle costs about the same; the median job is one of these
# instances' jobs, and so many of them keep it from moving with the seed.
# The epsilon bracket is not solvable.
RANDOM_STRATA = 6 * (
    ("abelian bracket over truncated power algebra k=#", 2),
    ("abelian bracket over truncated power algebra k=#", 4),
    ("heisenberg-type dim #, scale #", 4),
    ("heisenberg-type dim #, scale #", 4),
    ("epsilon bracket dim #", 4),
    ("epsilon bracket dim #", 4),
    ("line bracket (x) truncated algebra width=#", 3),
    ("line bracket (x) truncated algebra width=#", 6),
    ("line bracket dim #, scale #", 3),
    ("line bracket dim #, scale #", 3),
    ("line bracket (+) truncated algebra", 4),
    ("line bracket (+) truncated algebra", 6),
    ("two line brackets", 6),
    ("two line brackets", 6),
)


def build_structure(pkg, seed: int, cycles: int, workdir: Path) -> Plan:
    """Per cycle 431 jobs: 22 analyses of the two fixtures, 312 on 84
    seeded random instances, the 7 constructions of acceptance test 11 and
    90 in-process CLI runs on algebra files written by ``format_algebra``.
    ``workdir`` is relative, so CLI reports do not depend on the checkout
    location."""
    fa = pkg.finite_algebra
    cons = pkg.constructions
    one = Fraction(1)

    def e(i):
        return {i: one}

    def span(dim, *indices):
        return fa.Subspace.from_vectors(
            dim, [tuple(one if j == i else Fraction(0) for j in range(dim)) for i in indices])

    def job(kind, key, call, canon, check=None):
        return Job(kind=kind, key=f"structure|{kind}|{key}", call=call, canon=canon,
                   check=check or (lambda raw: None))

    verdicts = {}

    def axioms_of(P) -> dict:
        """The oracle's verdicts on an algebra, once per distinct algebra in a run."""
        text = json.dumps(_algebra_canon(fa, P))
        if text not in verdicts:
            verdicts[text] = oracle.axioms(P)
        return verdicts[text]

    def agrees(label, P):
        """verify_axioms' report passes and matches the oracle axiom by axiom."""
        def check(report):
            require(report.all_pass, f"{label}: axioms fail")
            expected = axioms_of(P)
            require(all(getattr(report, name) == value for name, value in expected.items()),
                    f"{label}: verify_axioms disagrees with the oracle {expected}")
        return check

    hypo = fa.fixture_hypo()
    torus = fa.fixture_torus()

    def analyses(label, P, ideal, element, extra):
        """The eleven analyses of one fixture; ``extra`` maps a job kind to
        a further check of its raw result."""
        key = json.dumps(_algebra_canon(fa, P))
        whole = fa.full_space(P)

        def check_series(result):
            terms = result.terms
            for a, b in zip(terms, terms[1:]):
                require(a.contains_subspace(b), f"{label}: series is not descending")
            require(result.terminates_at_zero == terms[-1].is_zero(), f"{label}: series end flag")

        def check_eigvec(found):
            if found is None:
                return
            v = fa.dense_to_sv(found.vector)
            for i in range(P.dim):
                require(not P.product(e(i), v), f"{label}: eigenvector not killed by products")
            for tup, lam in found.eigenvalues.items():
                image = fa.sv_to_dense(P.bracket([e(i) for i in tup] + [v]), P.dim)
                require(image == tuple(lam * x for x in found.vector),
                        f"{label}: not an eigenvector of ad{tup}")

        def check_nil(U):
            require(fa.is_ideal(U, P) and fa.is_nilpotent_as_ideal(U, P),
                    f"{label}: nilradical is not a nilpotent ideal")

        def with_extra(kind, check):
            more = extra.get(kind)
            if more is None:
                return check
            return lambda raw: (check(raw), more(raw))

        jobs = [
            job("verify", key, lambda: fa.verify_axioms(P), _axioms, agrees(label, P)),
            job("classify", key, lambda: fa.classify(P), dataclasses.asdict,
                with_extra("classify", lambda c: require(c.solvable, f"{label}: not solvable"))),
        ]
        for kind in fa.SERIES_KINDS:
            jobs.append(job(f"series.{kind}", key,
                            (lambda k: lambda: fa.series(whole, P, k))(kind),
                            _series_canon, check_series))
        jobs += [
            job("nilradical", key, lambda: fa.nilradical(P), _basis_text,
                with_extra("nilradical", check_nil)),
            job("hypo", f"{key}|{_basis_text(ideal)}", lambda: fa.is_hypo_nilpotent(ideal, P), bool,
                with_extra("hypo", lambda r: None)),
            job("eigenvector", key, lambda: fa.common_eigenvector(P), _eigvec_canon,
                with_extra("eigenvector", check_eigvec)),
            job("eigenspace", f"{key}|{sorted(element.items())}",
                lambda: fa.generalized_eigenspace(P, element, 0), _basis_text,
                lambda U: require(fa.is_ideal(U, P), f"{label}: eigenspace is not an ideal")),
        ]
        return jobs

    # the hypo fixture's known answers, from acceptance test 07
    ideal_one = span(7, 0, 1, 2, 3, 5, 6)
    hypo_nil = span(7, 0, 1, 2, 6)
    hypo_jobs = analyses("hypo", hypo, ideal_one, {3: one}, {
        "classify": lambda c: require(c.solvability_index == 3 and not c.nilpotent,
                                      "hypo: classification"),
        "nilradical": lambda U: require(U == hypo_nil, "hypo: nilradical"),
        "hypo": lambda r: require(r is True, "hypo: ideal is hypo-nilpotent"),
        "eigenvector": lambda f: require(f is not None and f.vector == hypo_nil.basis[-1]
                                         and not any(f.eigenvalues.values()),
                                         "hypo: common eigenvector"),
    })
    torus_jobs = analyses("torus", torus, fa.full_space(torus), {0: one}, {})

    # constructions of acceptance test 11; the inputs of later stages of
    # the xu_tensor -> iterated_bracket -> skew_defect_quotient chain are
    # made here so that every stage is its own job
    B = fa.StructAlgebra(2, 4, {}, {(0, 0): e(1)})
    P2 = fa.StructAlgebra(2, 2, {}, {(0, 0): e(0), (0, 1): e(1)})
    squared = cons.xu_tensor(P2, P2).algebra
    nested = cons.iterated_bracket(squared, 3)
    bracket_part = fa.StructAlgebra(7, 4, dict(hypo.bracket_entries()))
    small = fa.StructAlgebra(3, 3, {(0, 1, 2): e(0)})

    def passes(label, part=lambda raw: raw, fields=("associative", "fundamental", "leibniz")):
        """A construction's output satisfies the axioms, by the oracle."""
        def check(raw):
            verdict = axioms_of(part(raw))
            require(all(verdict[f] for f in fields), f"{label}: output fails {verdict}")
        return check

    def canon_of(part=lambda raw: raw, kept=False):
        def canon(raw):
            out = _algebra_canon(fa, part(raw))
            return [out, list(raw.kept)] if kept else out
        return canon

    def tilde_check(raw):
        """Dimension and the left Leibniz identity on seeded basis triples;
        verify_axioms on this 343-dimensional raw bracket takes longer than
        the construction itself."""
        require(raw.dim == 343, "leibniz_tensor_functor: dimension")
        pick = random.Random("leibniz-triples")
        for _ in range(64):
            x, y, z = (e(pick.randrange(raw.dim)) for _ in range(3))
            lhs = raw.bracket([x, raw.bracket([y, z])])
            rhs = dict(raw.bracket([raw.bracket([x, y]), z]))
            for i, c in raw.bracket([y, raw.bracket([x, z])]).items():
                rhs[i] = rhs.get(i, 0) + c
            require(lhs == {i: c for i, c in rhs.items() if c},
                    "leibniz_tensor_functor: Leibniz identity fails")

    construction_jobs = [
        job("tensor_poisson_n", "hypo (x) B", lambda: cons.tensor_poisson_n(hypo, B),
            canon_of(lambda r: r.algebra), passes("tensor_poisson_n", lambda r: r.algebra)),
        job("xu_tensor", "P2 (x) P2", lambda: cons.xu_tensor(P2, P2),
            canon_of(lambda r: r.algebra), passes("xu_tensor", lambda r: r.algebra)),
        job("iterated_bracket", "xu(P2, P2), n=3", lambda: cons.iterated_bracket(squared, 3),
            canon_of(), passes("iterated_bracket", fields=("fundamental", "leibniz"))),
        job("skew_defect_quotient", "iterated", lambda: cons.skew_defect_quotient(nested),
            canon_of(lambda q: q.algebra, kept=True),
            passes("skew_defect_quotient", lambda q: q.algebra)),
        job("leibniz_tensor_functor", "bracket part of hypo",
            lambda: cons.leibniz_tensor_functor(bracket_part), canon_of(), tilde_check),
        job("kernel_of_adjoint", "bracket part of hypo",
            lambda: cons.kernel_of_adjoint(bracket_part), _basis_text,
            lambda U: require(U.dim == 333, "kernel_of_adjoint: dimension")),
        job("poisson_quotient_tilde", "3-Lie line", lambda: cons.poisson_quotient_tilde(small),
            canon_of(lambda q: q.algebra, kept=True),
            passes("poisson_quotient_tilde", lambda q: q.algebra)),
    ]

    workdir.mkdir(parents=True, exist_ok=True)

    written = {}

    def write(name, P):
        path = workdir / name
        text = fa.format_algebra(P)
        path.write_text(text)
        require(fa.parse_algebra(text) == P, f"{name}: algebra file does not round-trip")
        written[str(path)] = text
        return str(path)

    def cli_job(kind, argv, expect):
        """In-process CLI run; its report must agree with ``expect()``,
        computed by a direct call on first use."""
        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = pkg.cli.run(argv + ["--quiet"])
            return code, out.getvalue()

        def canon(raw):
            code, text = raw
            report = json.loads(text)
            report.pop("timing", None)
            return {"exit_code": code, "report": report}

        def check(raw):
            code, text = raw
            require(code == 0, f"cli {' '.join(argv)}: exit code {code}")
            report = json.loads(text)
            for field, value in expect().items():
                require(report.get(field) == value,
                        f"cli {' '.join(argv)}: {field} disagrees with the direct call")

        # file names repeat across seeds, so the key holds the file's text
        return job(f"cli.{kind}", f"{' '.join(argv)}|{written[argv[1]]}", call, canon, check)

    def classify_fields(P):
        def compute():
            c = fa.classify(P)
            return {"solvable": c.solvable, "nilpotent": c.nilpotent,
                    "solvability_index": c.solvability_index}
        return _lazy(compute)

    def eigenvector_fields(P):
        def compute():
            found = fa.common_eigenvector(P)
            require(found is not None, "fixture without a common eigenvector")
            return {"found": True, "vector": [str(v) for v in found.vector]}
        return _lazy(compute)

    def nilradical_fields(P):
        return _lazy(lambda: {"basis": _basis_text(fa.nilradical(P))})

    hypo_file = write("hypo.alg", hypo)
    torus_file = write("torus.alg", torus)
    fixed_cli = [
        cli_job("classify", ["classify", hypo_file], classify_fields(hypo)),
        cli_job("nilradical", ["nilradical", hypo_file], lambda: {"basis": _basis_text(hypo_nil)}),
        cli_job("hypo", ["hypo", hypo_file, "--ideal", "basis:1,2,3,4,6,7"],
                lambda: {"hypo_nilpotent": True}),
        cli_job("eigenvector", ["eigenvector", hypo_file], eigenvector_fields(hypo)),
        cli_job("nilradical", ["nilradical", torus_file], nilradical_fields(torus)),
        cli_job("eigenvector", ["eigenvector", torus_file], eigenvector_fields(torus)),
    ]

    # seeded random instances in the shapes of RANDOM_STRATA; nilradical
    # and series run only where classify reports solvable
    rng = _rng("structure", seed, "instances")
    plan = Plan([], threads=1)
    for cycle in range(cycles):
        wanted = collections.Counter(RANDOM_STRATA)
        chosen = {stratum: [] for stratum in wanted}
        while any(len(chosen[s]) < n for s, n in wanted.items()):
            P, desc = cons.random_poisson_n_lie(rng.randrange(1 << 30))
            stratum = (re.sub(r"-?\d+(/\d+)?", "#", desc), P.dim)
            if stratum in chosen and len(chosen[stratum]) < wanted[stratum]:
                chosen[stratum].append(P)
        random_jobs, random_cli = [], []
        for slot, P in enumerate(P for found in chosen.values() for P in found):
            key = json.dumps(_algebra_canon(fa, P))
            label = f"random {key}"
            random_jobs.append(job("random.verify", key, (lambda Q: lambda: fa.verify_axioms(Q))(P),
                                   _axioms, agrees(label, P)))
            random_jobs.append(job("random.classify", key, (lambda Q: lambda: fa.classify(Q))(P),
                                   dataclasses.asdict,
                                   lambda c: require(c.solvable or not c.nilpotent,
                                                     "random: nilpotent but not solvable")))
            if fa.classify(P).solvable:
                random_jobs.append(job(
                    "random.nilradical", key, (lambda Q: lambda: fa.nilradical(Q))(P), _basis_text,
                    (lambda Q: lambda U: require(
                        fa.is_ideal(U, Q) and fa.is_nilpotent_as_ideal(U, Q),
                        "random: nilradical is not a nilpotent ideal"))(P)))
                whole = fa.full_space(P)
                random_jobs.append(job(
                    "random.series.derived", key,
                    (lambda Q, W: lambda: fa.series(W, Q, "derived"))(P, whole), _series_canon,
                    lambda r: require(r.terminates_at_zero, "random: solvable but derived series")))
            path = write(f"random{cycle}_{slot}.alg", P)
            random_cli.append(cli_job("classify", ["classify", path], classify_fields(P)))
        plan.cycles.append(hypo_jobs + torus_jobs + random_jobs + construction_jobs
                           + fixed_cli + random_cli)
    return plan


# ---------------------------------------------------------------------------
# The three workloads
# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="probe-scalar",
            why="the criterion-probe path: threaded exhaustive checks of scalar matrices, "
                "where sign and signed-pi lookups dominate and the ring does little work",
            inputs="per cycle one seeded scalar matrix at (n, m) = (5, 2) and one at (4, 3), "
                   "each checked exhaustively by check_criterion with threads=2",
            stresses="criterion (group_residual_b, signed_pi), jacobian_bracket.perm_sign, "
                     "the threaded scan",
            bypasses="finite_algebra, constructions, cli; the ring sees only constants",
            cycle_s=2.8, input_cycles=12, trace_cycles=2, build=build_probe_scalar),
        Workload(
            name="criterion-poly",
            why="single-threaded checks of polynomial matrices, passing and failing early, "
                "plus full vs expanded brackets: ring multiply and Fraction arithmetic dominate",
            inputs="per cycle 20 jobs: 6 full/expanded bracket pairs on seeded monomials "
                   "(2 each at (3,2), (4,2), (3,3)), 6 monomial-matrix draws (2 each), 3 f*I "
                   "blocks (2x(3,2), 1x(3,3)), 5 gradient-column matrices of seeded binomials "
                   "(1x(3,2), 3x(4,2), 1x(3,3))",
            stresses="ring (mul, add, derivation apply, det_ring), jacobian_bracket, "
                     "criterion group_residual_a and the fail path",
            bypasses="finite_algebra, constructions, cli, the threaded scan",
            cycle_s=6.0, input_cycles=6, trace_cycles=2, build=build_criterion_poly),
        Workload(
            name="structure",
            why="finite-algebra analyses and constructions only, never the ring or criterion: "
                "predicts no change for ring or criterion work",
            inputs="per cycle 431 jobs: verify/classify/5 series/nilradical/hypo/eigenvector/"
                   "eigenspace on fixture_hypo and fixture_torus; verify/classify, and "
                   "nilradical/derived series where solvable, on 84 seeded random_poisson_n_lie "
                   "instances of fixed shapes (12 per recipe); the 7 constructions of "
                   "acceptance test 11; 90 in-process cli.run calls on algebra files",
            stresses="finite_algebra (verify_axioms, bracket_basis, bracket_span, series, "
                     "nilradical), subspaces, constructions, cli",
            bypasses="ring, jacobian_bracket, criterion",
            cycle_s=31.0, input_cycles=1, trace_cycles=1, build=build_structure),
    ]
}
