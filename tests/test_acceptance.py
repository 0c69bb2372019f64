"""Acceptance gate: every release criterion at its stated tolerance.

All arithmetic is exact, so every tolerance below is exact equality.
Each criterion prints one PASS line on success (pytest -s shows them);
a failure raises inside the corresponding test.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from poisson_nlie.cli import run as cli_run
from poisson_nlie.constructions import (
    iterated_bracket,
    kernel_of_adjoint,
    leibniz_tensor_functor,
    poisson_quotient_tilde,
    random_poisson_n_lie,
    skew_defect_quotient,
    skew_defect_spans,
    tensor_poisson_n,
    xu_tensor,
)
from poisson_nlie.criterion import (
    check_criterion,
    expanded_identity_defect,
    grassmann_plucker_defect,
    probe_conjecture,
)
from poisson_nlie.finite_algebra import (
    StructAlgebra,
    algebra_square,
    bracket_span,
    classify,
    common_eigenvector,
    engel_operators_nilpotent,
    full_space,
    generalized_eigenspace,
    ideal_closure,
    is_hypo_nilpotent,
    is_ideal,
    is_nilpotent_as_ideal,
    nilradical,
    series,
    subspace_product,
    verify_axioms,
)
from poisson_nlie.jacobian_bracket import (
    AdjoinedMatrix,
    MonomialSampler,
    expansion_equivalence_check,
    fundamental_defect,
    pi_table,
)
from poisson_nlie.ring import (
    LaurentPolynomial,
    euler_family,
)
from poisson_nlie.subspaces import (
    Subspace,
    mat_pow,
    unit_vector,
)

from oracles import mat_sub, mat_vec, scale_matrix

F1 = Fraction(1)


def e(i):
    return {i: F1}


def span(dim, *indices):
    return Subspace.from_vectors(dim, [unit_vector(dim, i) for i in indices])


def announce(number, text, started):
    print(f"ACCEPTANCE {number:2d}: PASS  {text}  [{time.perf_counter() - started:.1f}s]")


def gradient_matrix(n, m, ys, family):
    rows = [[family[r].apply(y) for y in ys] for r in range(n + m)]
    return AdjoinedMatrix.from_rows(n, m, rows)


def identity_block_matrix(n, m, f):
    nv = f.nvars
    zero = LaurentPolynomial.zero(nv)
    rows = [[f if r == s else zero for s in range(m)] for r in range(m)]
    rows += [[zero] * m for _ in range(n)]
    return AdjoinedMatrix.from_rows(n, m, rows)


def test_01_expansion_oracle_equivalence():
    """Full determinant equals the signed-minor expansion on 200 seeded
    monomial inputs for each configuration; target < 60 s."""
    started = time.perf_counter()
    for n, m in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        family = euler_family(n + m)
        result = expansion_equivalence_check(n, m, family, samples=200, seed=0)
        assert result["equal"], (n, m, result)
    assert time.perf_counter() - started < 60
    announce(1, "bracket(full) == bracket(expanded) for 4 configurations x 200 samples",
             started)


def test_02_scalar_matrices_3_2():
    """Exhaustive criterion for 100 seeded random scalar 5x2 matrices at
    n = 3; exact arithmetic; target < 5 min."""
    started = time.perf_counter()
    report = probe_conjecture(3, 2, trials=100, seed=0)
    assert report.all_pass, report.failures[:1]
    assert time.perf_counter() - started < 300
    announce(2, "criterion passes for 100 scalar matrices in M_{5,2}(Q), n = 3", started)


def test_03_scalar_matrices_n4():
    """25 seeded scalar matrices each in M_{6,2} and M_{7,3} at n = 4;
    target < 20 min."""
    started = time.perf_counter()
    for m in (2, 3):
        report = probe_conjecture(4, m, trials=25, seed=0)
        assert report.all_pass, (m, report.failures[:1])
    assert time.perf_counter() - started < 1200
    announce(3, "criterion passes for 25 scalar matrices each in M_{6,2}, M_{7,3}, n = 4",
             started)


def test_04_derivative_and_scaled_block_matrices():
    """Derivative-column matrices (5 seeded choices) and scaled
    identity-block matrices (5 seeded scaling polynomials) pass the
    criterion, with the sampled fundamental defect identically zero."""
    started = time.perf_counter()
    n, m = 3, 2
    family = euler_family(n + m)
    sampler = MonomialSampler(n + m, seed=21)

    def defect_zero(A, seed):
        local = MonomialSampler(n + m, seed=seed)
        pi = pi_table(A)
        for _ in range(20):
            xs = local.monomials(n - 1)
            ys = local.monomials(n)
            if not fundamental_defect(xs, ys, A, family, pi=pi).is_zero():
                return False
        return True

    for trial in range(5):
        ys = [sampler.binomial(), sampler.binomial()]
        A = gradient_matrix(n, m, ys, family)
        assert check_criterion(A, family).passed(), ("gradient", trial)
        assert defect_zero(A, 100 + trial), ("gradient defect", trial)
    for trial in range(5):
        f = sampler.binomial()
        A = identity_block_matrix(n, m, f)
        assert check_criterion(A, family).passed(), ("block", trial)
        assert defect_zero(A, 200 + trial), ("block defect", trial)
    announce(4, "derivative-column and f*B identity-block matrices pass with zero defects",
             started)


def test_05_negative_control_both_directions():
    """At least one matrix fails the criterion AND carries an explicit
    nonzero fundamental defect witness, demonstrating the equivalence in
    both directions."""
    started = time.perf_counter()
    family = euler_family(3)
    t = [LaurentPolynomial.variable(3, i) for i in (1, 2, 3)]
    zero = LaurentPolynomial.zero(3)
    candidates = [
        [[t[0]], [zero], [zero]],       # passes: a gradient column
        [[t[1]], [t[0]], [zero]],       # passes: a single-minor scaling
        [[t[1]], [t[2]], [t[0]]],       # fails: cyclically permuted column
    ]
    failing = None
    for rows in candidates:
        A = AdjoinedMatrix.from_rows(2, 1, rows)
        if not check_criterion(A, family).passed():
            failing = A
            break
    assert failing is not None
    mons = [LaurentPolynomial.monomial(3, exps)
            for exps in itertools.product([-1, 0, 1], repeat=3)]
    rng = random.Random(0)
    witness = None
    for _ in range(500):
        xs = [rng.choice(mons)]
        ys = [rng.choice(mons) for _ in range(2)]
        value = fundamental_defect(xs, ys, failing, family)
        if not value.is_zero():
            witness = (xs, ys, value)
            break
    assert witness is not None
    xs, ys, value = witness
    # the literal expanded identity flags the same witness: evaluated at
    # (inner arguments; padding, outer argument) it equals minus the defect
    expanded = expanded_identity_defect(ys, [mons[0]] + xs, failing, family)
    assert expanded == -value
    announce(5, "negative control fails the criterion with an explicit defect witness",
             started)


def test_06_grassmann_plucker_oracle():
    """1000 seeded inputs for each n in {3, 4, 5} evaluate to exactly 0."""
    started = time.perf_counter()
    for n in (3, 4, 5):
        rng = random.Random(1000 + n)
        for _ in range(1000):
            es = [tuple(Fraction(rng.randint(-9, 9)) for _ in range(n - 1))
                  for _ in range(n)]
            fs = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                        for _ in range(n - 1)) for _ in range(n - 2)]
            assert grassmann_plucker_defect(es, fs) == 0
    announce(6, "Grassmann-Pluecker defect is exactly 0 on 3000 seeded inputs", started)


def test_07_structure_suite_on_the_hypo_fixture(hypo):
    """The full solvable-structure story of the 7-dimensional fixture,
    with exact assertions; target < 10 s."""
    started = time.perf_counter()
    assert verify_axioms(hypo).all_pass
    flags = classify(hypo)
    assert flags.solvable and flags.solvability_index == 3
    assert not flags.nilpotent
    nil = nilradical(hypo)
    assert nil == span(7, 0, 1, 2, 6)
    ideal_one = span(7, 0, 1, 2, 3, 5, 6)
    ideal_two = span(7, 0, 1, 2, 4, 5, 6)
    for ideal in (ideal_one, ideal_two):
        assert is_hypo_nilpotent(ideal, hypo)
        sub = series(ideal, hypo, "subalg")
        assert sub.terminates_at_zero and len(sub.terms) == 2
        assert not series(ideal, hypo, "lower_central").terminates_at_zero
    total = ideal_one.sum(ideal_two)
    assert total == full_space(hypo)
    assert not is_hypo_nilpotent(total, hypo)
    assert ideal_one.intersection(ideal_two).contains_subspace(nil)
    square = ideal_closure(algebra_square(hypo), hypo)
    assert not square.is_zero()
    assert nil.contains_subspace(square)
    assert ideal_one.contains_subspace(nil) and nil != ideal_one
    found = common_eigenvector(hypo)
    assert found is not None and found.vector == unit_vector(7, 6)
    assert all(v == 0 for v in found.eigenvalues.values())
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    announce(7, "hypo fixture: series, nilradical, hypo ideals, chain, eigenvector",
             started)


def _instances(hypo, torus):
    instances = [("fixture_hypo", hypo), ("fixture_torus", torus)]
    for seed in range(20):
        P, desc = random_poisson_n_lie(seed)
        instances.append((f"random[{seed}] {desc}", P))
    return instances


def _compositions(total):
    """(r_1, ..., r_t) with r_1 >= 0, r_i >= 1 for i >= 2, summing to total."""
    out = []
    for r1 in range(total + 1):
        rest = total - r1
        if rest == 0:
            out.append((r1,))
            continue
        for t in range(1, rest + 1):
            for cuts in itertools.combinations(range(1, rest), t - 1):
                bounds = (0,) + cuts + (rest,)
                parts = tuple(bounds[i + 1] - bounds[i] for i in range(t))
                if all(p >= 1 for p in parts):
                    out.append((r1,) + parts)
    return out


def test_08_series_lemmas_and_biconditionals(hypo, torus):
    """Power inclusions, the composition embedding, the square-derived
    inclusion, and the solvability/nilpotency biconditionals on both
    fixtures and 20 seeded random verified instances; target < 2 min."""
    started = time.perf_counter()
    for name, P in _instances(hypo, torus):
        whole = full_space(P)
        n = P.arity
        lower = series(whole, P, "lower_central")
        derived = series(whole, P, "derived")

        def power(k):
            return lower.term(k)

        # products of powers: P^i . P^j <= P^{i+j}
        for i in range(1, 4):
            for j in range(1, 4):
                assert power(i + j).contains_subspace(
                    subspace_product(power(i), power(j), P)), (name, "product", i, j)
        # brackets of powers: [P^{i_1}..P^{i_k}, P..] <= P^{sum - k + 2}
        for exps in [(2, 2), (2, 3), (3, 2)] + ([(2, 2, 2)] if n >= 3 else []):
            k = len(exps)
            slots = [power(i) for i in exps] + [whole] * (n - k)
            target = power(sum(exps) - k + 2)
            assert target.contains_subspace(bracket_span(slots, P)), (name, "bracket", exps)
        # derived terms inside doubling powers: P^{(i)} <= P^{2^{i-1}}
        for i in range(1, 5):
            assert power(2 ** (i - 1)).contains_subspace(derived.term(i)), (name, "doubling", i)
        # iterated derived: (P^{(i)})^{(j)} = P^{(i+j-1)}
        for i in range(1, 4):
            inner = series(derived.term(i), P, "derived")
            for j in range(1, 4):
                assert inner.term(j) == derived.term(i + j - 1), (name, "iterated", i, j)
        # composition embedding: P^k <= sum over compositions of
        # P^{r_1)} . prod_i P^{(r_i}
        assoc = series(whole, P, "assoc_power")
        brk = series(whole, P, "bracket_power")
        for k in range(1, 6):
            union = Subspace.zero(P.dim)
            for comp in _compositions(k):
                r1, rest = comp[0], comp[1:]
                piece = assoc.term(r1) if r1 >= 1 else None
                for r in rest:
                    factor = brk.term(r)
                    piece = factor if piece is None else subspace_product(piece, factor, P)
                if piece is None:
                    piece = whole
                union = union.sum(piece)
            assert union.contains_subspace(power(k)), (name, "composition", k)
        # auxiliary embeddings
        for k in range(1, 4):
            lhs = bracket_span([assoc.term(k + 1), whole] + [whole] * (n - 2), P)
            rhs = subspace_product(assoc.term(k), brk.term(2), P)
            assert rhs.contains_subspace(lhs), (name, "aux-first", k)
        for k1 in (1, 2):
            for k2 in (1, 2):
                prod = subspace_product(brk.term(k1), brk.term(k2), P)
                lhs = bracket_span([prod, whole] + [whole] * (n - 2), P)
                rhs = subspace_product(brk.term(k2), brk.term(k1 + 1), P).sum(
                    subspace_product(brk.term(k1), brk.term(k2 + 1), P))
                assert rhs.contains_subspace(lhs), (name, "aux-second", k1, k2)
        # derived series of the product ideal: (P.P)^{(k)} <= P^{(k+1)}
        pp = subspace_product(whole, whole, P)
        if not pp.is_zero():
            pp_derived = series(pp, P, "derived")
            for k in range(1, 5):
                assert derived.term(k + 1).contains_subspace(pp_derived.term(k)), \
                    (name, "square-derived", k)
        # biconditionals
        flags = classify(P)
        assert flags.nilpotent == (flags.pa_nilpotent and flags.pl_nilpotent), name
        engel, _ = engel_operators_nilpotent(P)
        assert flags.nilpotent == engel, name
        square_ideal = ideal_closure(algebra_square(P), P)
        assert flags.solvable == is_nilpotent_as_ideal(square_ideal, P), name
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    announce(8, "series lemmas and biconditionals on 22 instances", started)


def test_09_operator_exchange_identity(hypo, torus):
    """(L_a - lam)^k A_y x = A_y (L_a - lam)^k x - k L_{A_y(a)} (L_a - lam)^{k-1} x
    on 100 seeded samples per fixture, exact equality."""
    started = time.perf_counter()
    for P in (hypo, torus):
        rng = random.Random(900 + P.dim)
        d = P.dim
        for _ in range(100):
            a = {i: Fraction(rng.randint(-2, 2)) for i in rng.sample(range(d), 3)}
            a = {i: c for i, c in a.items() if c}
            ys = [{rng.randrange(d): Fraction(rng.choice([-2, -1, 1, 2]))}
                  for _ in range(P.arity - 1)]
            x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
            lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            k = rng.randint(1, 4)
            La = P.left_mult_matrix(a)
            Ay = P.adjoint_matrix(ys)
            K = mat_sub(La, scale_matrix(lam, d))
            lhs = mat_vec(mat_pow(K, k), mat_vec(Ay, x))
            La_of = P.left_mult_matrix(P.bracket(list(ys) + [a]))
            rhs = tuple(m - k * c for m, c in zip(
                mat_vec(Ay, mat_vec(mat_pow(K, k), x)),
                mat_vec(La_of, mat_vec(mat_pow(K, k - 1), x))))
            assert lhs == rhs
    announce(9, "operator exchange identity exact on 100 samples per fixture", started)


def test_10_generalized_eigenspaces_are_ideals(hypo, torus):
    """For 50 seeded (a, lambda) pairs per fixture the returned subspace is
    an ideal (asserted inside the computation)."""
    started = time.perf_counter()
    for P in (hypo, torus):
        rng = random.Random(100 + P.dim)
        for _ in range(50):
            support = rng.sample(range(P.dim), rng.randint(1, 3))
            a = {i: Fraction(rng.randint(-3, 3)) for i in support}
            a = {i: c for i, c in a.items() if c}
            lam = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            space = generalized_eigenspace(P, a, lam)
            assert is_ideal(space, P)
    announce(10, "generalized eigenspaces pass the ideal check, 50 pairs per fixture",
             started)


def test_11_constructions_round_trip(hypo):
    """Every constructor's output passes its verification suite on the
    documented small instances; the symmetrized-bracket ideal lies in the
    kernel of the adjoint; target < 5 min."""
    started = time.perf_counter()
    # tensor with a commutative square-nilpotent line
    B = StructAlgebra(2, 4, {}, {(0, 0): e(1)})
    tensored = tensor_poisson_n(hypo, B)
    assert verify_axioms(tensored.algebra).all_pass
    # binary tensor of a 2-dim Poisson algebra with itself
    P2 = StructAlgebra(2, 2, {}, {(0, 0): e(0), (0, 1): e(1)})
    squared = xu_tensor(P2, P2)
    assert verify_axioms(squared.algebra).all_pass
    # nesting plus skew-defect quotient
    nested = iterated_bracket(squared.algebra, 3)
    report = verify_axioms(nested)
    assert report.fundamental and report.leibniz
    quotient = skew_defect_quotient(nested)
    assert verify_axioms(quotient.algebra).all_pass
    # tensor-power bracket on the bracket part of the fixture (343 dims)
    bracket_part = StructAlgebra(7, 4, dict(hypo.bracket_entries()))
    tilde = leibniz_tensor_functor(bracket_part)
    assert tilde.dim == 343
    ker = kernel_of_adjoint(bracket_part)
    assert ker.dim == 333
    # small 3-Lie instance: full quotient pipeline with the inclusion check
    small = StructAlgebra(3, 3, {(0, 1, 2): e(0)})
    quotient_small = poisson_quotient_tilde(small)
    assert verify_axioms(quotient_small.algebra).all_pass
    defects = Subspace.zero(9).adjoin(skew_defect_spans(
        leibniz_tensor_functor(small, with_product=True)))
    assert kernel_of_adjoint(small).contains_subspace(defects)
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    announce(11, "all constructors verified; symmetrized brackets inside Ker(ad)",
             started)


def test_12_cli_determinism_across_threads(capsys):
    """The acceptance runs 1 and 2, driven through the CLI with 1 and 8
    worker threads, produce byte-identical report bodies (timing and the
    thread count itself stripped)."""
    started = time.perf_counter()

    def body(argv):
        code = cli_run(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.out
        report = json.loads(captured.out)
        report.pop("timing")
        report["parameters"].pop("threads", None)
        return json.dumps(report, sort_keys=True)

    for threads in ("1", "8"):
        runs = []
        for n, m in [(2, 1), (3, 1), (3, 2), (4, 2)]:
            runs.append(body(["construct-jacobian", "--ring", f"laurent:v={n + m}:euler",
                              "--n", str(n), "--m", str(m), "--samples", "200",
                              "--seed", "0", "--threads", threads, "--quiet"]))
        runs.append(body(["criterion-probe", "--n", "3", "--m", "2", "--trials", "100",
                          "--seed", "0", "--threads", threads, "--quiet"]))
        if threads == "1":
            baseline = runs
        else:
            assert runs == baseline
    announce(12, "CLI reports byte-identical at 1 and 8 threads", started)
