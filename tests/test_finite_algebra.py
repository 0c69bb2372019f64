import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from poisson_nlie import finite_algebra
from poisson_nlie.finite_algebra import (
    StructAlgebra,
    _associative_cases,
    abelian_algebra,
    algebra_square,
    annihilator,
    bracket_span,
    classify,
    common_eigenvector,
    engel_operators_nilpotent,
    fixture_hypo,
    format_algebra,
    full_space,
    generalized_eigenspace,
    ideal_closure,
    idempotent_report,
    is_hypo_nilpotent,
    is_ideal,
    is_nilpotent_as_ideal,
    is_subalgebra,
    nilradical,
    non_nilpotent_adjoint_search,
    parse_algebra,
    quotient_algebra,
    series,
    solvable_flag,
    subspace_product,
    sv_to_dense,
    verify_axioms,
    zero_product_criterion,
)
from poisson_nlie.jacobian_bracket import perm_sign
from poisson_nlie.ring import ParseError
from poisson_nlie.subspaces import Subspace, is_nilpotent_matrix, kernel, mat_pow, mat_sub, mat_vec, scale_matrix, unit_vector

F1 = Fraction(1)


def span(dim, *indices):
    return Subspace.from_vectors(dim, [unit_vector(dim, i) for i in indices])


def e(i):
    return {i: F1}


@pytest.fixture(scope="module")
def ideal_one(hypo):
    # all basis vectors except e5
    return span(7, 0, 1, 2, 3, 5, 6)


@pytest.fixture(scope="module")
def ideal_two(hypo):
    # all basis vectors except e4
    return span(7, 0, 1, 2, 4, 5, 6)


class TestStructAlgebra:
    def test_skew_reconstruction(self, hypo):
        assert hypo.bracket_basis((0, 3, 4, 5)) == {0: F1}
        assert hypo.bracket_basis((3, 0, 4, 5)) == {0: -F1}
        assert hypo.bracket_basis((3, 4, 5, 0)) == {0: -F1}
        assert hypo.bracket_basis((0, 0, 4, 5)) == {}

    def test_product_symmetry(self, hypo):
        assert hypo.product_basis(3, 4) == hypo.product_basis(4, 3) == {6: F1}
        assert hypo.product_basis(4, 6) == {}

    def test_multilinear_bracket(self, hypo):
        value = hypo.bracket([{0: Fraction(2), 1: F1}, e(3), e(4), e(5)])
        assert value == {0: Fraction(2), 1: F1}

    def test_raw_storage_keeps_order(self):
        P = StructAlgebra(2, 2, {(0, 1): e(0), (1, 0): e(1)}, skew=False)
        assert P.bracket_basis((0, 1)) == {0: F1}
        assert P.bracket_basis((1, 0)) == {1: F1}

    def test_lookups_match_a_sign_per_lookup_reference(self):
        """bracket_basis on every ordered tuple, repeats included, and
        bracket on seeded vectors, of seeded skew algebras with dim <= 5
        and arity <= 4, against a perm_sign of every key."""
        for seed in range(40):
            rng = random.Random(seed)
            dim, arity = rng.randint(2, 5), rng.randint(2, 4)
            keys = list(itertools.combinations(range(dim), arity))
            stored = {key: {rng.randrange(dim): Fraction(rng.choice([-3, -1, 2]), rng.randint(1, 2))}
                      for key in rng.sample(keys, rng.randint(0, len(keys)))}
            P = StructAlgebra(dim, arity, stored)

            def reference(key):
                sign = perm_sign(key)
                return {i: sign * c for i, c in stored.get(tuple(sorted(key)), {}).items()}

            for key in itertools.product(range(dim), repeat=arity):
                assert P.bracket_basis(key) == reference(key), (seed, key)
            for _ in range(10):
                vectors = [{rng.randrange(dim): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                            for _ in range(rng.randint(1, 3))} for _ in range(arity)]
                expected = {}
                for combo in itertools.product(*(v.items() for v in vectors)):
                    coeff = Fraction(1)
                    for _, c in combo:
                        coeff *= c
                    _add(expected, {i: coeff * c for i, c in
                                    reference(tuple(i for i, _ in combo)).items()})
                assert P.bracket(vectors) == expected, seed


class TestVerifyAxioms:
    def test_abelian_passes(self):
        report = verify_axioms(abelian_algebra(3, 4))
        assert report.all_pass

    def test_fixture_passes_exhaustively(self, hypo):
        report = verify_axioms(hypo)
        assert report.all_pass and report.mode == "exhaustive"

    def test_leibniz_breaking_perturbation(self, hypo):
        brackets = dict(hypo.bracket_entries())
        products = dict(hypo.product_entries())
        products[(3, 3)] = e(0)  # e4.e4 = e1 breaks the Leibniz rule
        broken = StructAlgebra(7, 4, brackets, products)
        report = verify_axioms(broken)
        assert not report.leibniz
        assert "leibniz" in report.witnesses

    def test_fundamental_breaking_perturbation(self, hypo):
        brackets = dict(hypo.bracket_entries())
        brackets[(0, 1, 2, 3)] = e(4)
        broken = StructAlgebra(7, 4, brackets, dict(hypo.product_entries()))
        report = verify_axioms(broken)
        assert not report.fundamental


def _add(acc, vec):
    for i, c in vec.items():
        value = acc.get(i, 0) + c
        if value:
            acc[i] = value
        else:
            acc.pop(i, None)


def _parity(key):
    return (-1) ** sum(1 for a, b in itertools.combinations(key, 2) if a > b)


def reference_axioms(P):
    """Flags and witnesses by brute force: the lexicographically first
    failing case of each axiom over all basis tuples, evaluated through the
    multilinear ``bracket`` and ``product``."""
    d, n = P.dim, P.arity

    def br(*slots):
        return P.bracket([e(s) if isinstance(s, int) else s for s in slots])

    def associative(i, j, k):
        return P.product(P.product(e(i), e(j)), e(k)) == P.product(e(i), P.product(e(j), e(k)))

    def skew(*key):
        value = P.bracket_basis(key)
        if len(set(key)) < len(key):
            return not value
        ref = P.bracket_basis(tuple(sorted(key)))
        return value == {i: _parity(key) * c for i, c in ref.items()}

    def fundamental(xs, ys):
        rhs = {}
        for pos in range(n):
            _add(rhs, br(*ys[:pos], br(*xs, ys[pos]), *ys[pos + 1:]))
        return br(*xs, br(*ys)) == rhs

    def leibniz(y, z, xs):
        rhs = P.product(e(y), br(z, *xs))
        _add(rhs, P.product(e(z), br(y, *xs)))
        return br(P.product(e(y), e(z)), *xs) == rhs

    tuples = itertools.combinations if P.skew else (
        lambda pool, k: itertools.product(pool, repeat=k))
    cases = {
        "commutative": [(i, j) for i in range(d) for j in range(i, d)],
        "associative": itertools.product(range(d), repeat=3),
        "skew": [] if P.skew else itertools.product(range(d), repeat=n),
        "fundamental": ((xs, ys) for xs in tuples(range(d), n - 1)
                        for ys in tuples(range(d), n)),
        "leibniz": ((y, z, xs) for y in range(d) for z in range(y, d)
                    for xs in tuples(range(d), n - 1)),
    }
    holds = {
        "commutative": lambda i, j: P.product(e(i), e(j)) == P.product(e(j), e(i)),
        "associative": associative,
        "skew": skew,
        "fundamental": fundamental,
        "leibniz": leibniz,
    }
    witnesses = {}
    for name in cases:
        failing = next((c for c in cases[name] if not holds[name](*c)), None)
        if failing is not None:
            witnesses[name] = tuple(failing)
    return {name: name not in witnesses for name in cases}, witnesses


def _perturbed(seed):
    """A seeded algebra of dim <= 5: a verified base with zero to two
    entries overwritten, or a random raw bracket."""
    from poisson_nlie.constructions import iterated_bracket, random_poisson_n_lie, xu_tensor

    rng = random.Random(seed)
    kind = rng.choice([0, 0, 0, 1, 2, 3])
    if kind == 0:
        instance = rng.randrange(60)
        while (P := random_poisson_n_lie(instance, max_dim=5)[0]).dim > 5:
            instance += 1
    elif kind == 1:
        L = StructAlgebra(2, 2, {(0, 1): e(1)}, {(0, 0): e(0), (0, 1): e(1)})
        P = iterated_bracket(L, rng.choice([2, 3, 4]))
    elif kind == 2:
        two = StructAlgebra(2, 2, {}, {(0, 0): e(0), (0, 1): e(1)})
        P = iterated_bracket(xu_tensor(two, two).algebra, 3)
    else:
        P = StructAlgebra(rng.randint(1, 3), rng.choice([2, 3]), skew=False)
    brackets, products = dict(P.bracket_entries()), dict(P.product_entries())
    values = [F1, -F1, Fraction(2), Fraction(1, 2)]
    for _ in range(rng.randint(0, 2) if kind < 3 else rng.randint(1, 3)):
        target = {rng.randrange(P.dim): rng.choice(values)}
        if rng.random() < 0.5:
            if P.skew:
                if P.dim < P.arity:
                    continue
                key = tuple(sorted(rng.sample(range(P.dim), P.arity)))
            else:
                key = tuple(rng.randrange(P.dim) for _ in range(P.arity))
            brackets[key] = target
        else:
            products[tuple(sorted(rng.randrange(P.dim) for _ in range(2)))] = target
    return StructAlgebra(P.dim, P.arity, brackets, products, skew=P.skew)


class TestWitnessOrder:
    def test_matches_the_brute_force_first_failures(self):
        seen = Counter()
        for seed in range(160):
            P = _perturbed(seed)
            assert P.dim <= 5
            report = verify_axioms(P)
            flags, witnesses = reference_axioms(P)
            assert {name: getattr(report, name) for name in flags} == flags, seed
            assert report.witnesses == witnesses, seed
            assert report.mode == "exhaustive"
            storage = "skew" if P.skew else "raw"
            seen[storage, "pass"] += report.all_pass
            for name, holds in flags.items():
                seen[storage, name] += not holds
        # the guard covers passing inputs and each failure on both storages
        for storage, name in itertools.product(
                ("skew", "raw"), ("pass", "associative", "fundamental", "leibniz")):
            assert seen[storage, name] >= 5, seen
        assert seen["raw", "skew"] >= 5, seen


class TestAssociativeCases:
    def test_pairs_follow_the_product_partners(self):
        """Each stored pair meets only the partners of its value's support:
        246,825 cases when it met every index of a product key."""
        from poisson_nlie.constructions import truncated_power_algebra, xu_tensor

        T = truncated_power_algebra(10)
        assert len(_associative_cases(xu_tensor(T, T).algebra)) <= 14_400


class TestSubspaceOps:
    def test_product_with_zero(self, hypo):
        assert subspace_product(span(7, 3), Subspace.zero(7), hypo).is_zero()

    def test_product_table(self, hypo):
        assert subspace_product(span(7, 3), span(7, 4), hypo) == span(7, 6)

    def test_bracket_span_defining_relation(self, hypo):
        out = bracket_span([span(7, 0), span(7, 3), span(7, 4), span(7, 5)], hypo)
        assert out == span(7, 0)

    def test_ideal_predicates(self, hypo, ideal_one):
        assert is_ideal(full_space(hypo), hypo)
        assert is_ideal(Subspace.zero(7), hypo)
        assert is_ideal(ideal_one, hypo)
        assert not is_ideal(span(7, 3), hypo)

    def test_ideal_closure_trace(self, hypo):
        closure = ideal_closure(span(7, 3), hypo)
        assert closure == span(7, 0, 1, 2, 3, 6)

    def test_subalgebra_predicate(self, hypo):
        assert is_subalgebra(span(7, 0, 1, 2, 6), hypo)
        assert not is_subalgebra(span(7, 3, 4), hypo)  # e4.e5 leaves the span


class TestSeries:
    def test_derived_series_of_fixture(self, hypo):
        result = series(full_space(hypo), hypo, "derived")
        assert [t.dim for t in result.terms] == [7, 4, 0]
        assert result.terms[1] == span(7, 0, 1, 2, 6)
        assert result.terminates_at_zero

    def test_lower_central_of_proper_ideal(self, hypo, ideal_one):
        result = series(ideal_one, hypo, "lower_central")
        assert not result.terminates_at_zero
        final = result.terms[-1]
        assert span(7, 0, 1, 2).contains_subspace(final) and final == span(7, 0, 1, 2)

    def test_subalgebra_series_of_proper_ideal(self, hypo, ideal_one):
        result = series(ideal_one, hypo, "subalg")
        assert result.terminates_at_zero
        assert len(result.terms) == 2  # second term already zero

    def test_assoc_and_bracket_powers(self, hypo):
        whole = full_space(hypo)
        assoc = series(whole, hypo, "assoc_power")
        assert assoc.terminates_at_zero  # product part is nilpotent
        brk = series(whole, hypo, "bracket_power")
        assert not brk.terminates_at_zero

    def test_series_requires_ideal(self, hypo):
        with pytest.raises(ValueError):
            series(span(7, 3), hypo, "derived")

    def test_unknown_kind(self, hypo):
        with pytest.raises(ValueError):
            series(full_space(hypo), hypo, "mystery")


class TestClassify:
    def test_abelian(self):
        result = classify(abelian_algebra(3, 3))
        assert result.nilpotent and result.nilpotency_index == 2
        assert result.solvable and result.solvability_index == 2

    def test_fixture(self, hypo):
        result = classify(hypo)
        assert result.solvable and result.solvability_index == 3
        assert not result.nilpotent
        assert result.pa_nilpotent and result.pl_solvable and not result.pl_nilpotent

    def test_restriction_to_the_square_is_nilpotent(self, hypo):
        # all products and brackets of e1,e2,e3,e7 vanish, so the square,
        # viewed as an algebra of its own, is abelian
        inner = StructAlgebra(4, 4)
        result = classify(inner)
        assert result.nilpotent

    def test_engel_equivalence(self, hypo, torus):
        for P in (hypo, torus, abelian_algebra(4, 3)):
            flags = classify(P)
            all_nil, witness = engel_operators_nilpotent(P)
            assert flags.nilpotent == all_nil
        all_nil, witness = engel_operators_nilpotent(hypo)
        assert not all_nil and witness[0] == "bracket"


class TestOperators:
    def test_abelian_operators_vanish(self):
        P = abelian_algebra(3, 3)
        assert all(v == 0 for row in P.left_mult_matrix(e(0)) for v in row)
        assert all(v == 0 for row in P.adjoint_matrix([e(0), e(1)]) for v in row)

    def test_adjoint_of_the_acting_triple(self, hypo):
        # [e4, e5, e6, e_i] = -e_i for i <= 3 (odd rearrangement of the
        # defining relation), zero elsewhere: diagonal -1, not nilpotent
        matrix = hypo.adjoint_matrix([e(3), e(4), e(5)])
        for i in range(7):
            for j in range(7):
                expected = Fraction(-1) if i == j and i < 3 else Fraction(0)
                assert matrix[i][j] == expected
        assert not is_nilpotent_matrix(matrix)

    def test_left_multiplication_is_nilpotent(self, hypo):
        matrix = hypo.left_mult_matrix(e(3))
        assert matrix[6][4] == 1  # e4 . e5 = e7
        assert is_nilpotent_matrix(matrix)
        assert all(v == 0 for row in mat_pow(matrix, 2) for v in row)


class TestHypoNilpotency:
    def test_zero_ideal_is_not_hypo(self, hypo):
        assert not is_hypo_nilpotent(Subspace.zero(7), hypo)

    def test_both_proper_ideals_are_hypo(self, hypo, ideal_one, ideal_two):
        assert is_hypo_nilpotent(ideal_one, hypo)
        assert is_hypo_nilpotent(ideal_two, hypo)

    def test_sum_is_not_hypo(self, hypo, ideal_one, ideal_two):
        total = ideal_one.sum(ideal_two)
        assert total == full_space(hypo)
        assert not is_hypo_nilpotent(total, hypo)

    def test_requires_ideal(self, hypo):
        with pytest.raises(ValueError):
            is_hypo_nilpotent(span(7, 3), hypo)


class TestNilradical:
    def test_nilpotent_algebra_is_its_own_nilradical(self):
        P = abelian_algebra(4, 3)
        assert nilradical(P) == full_space(P)

    def test_fixture_nilradical(self, hypo):
        assert nilradical(hypo) == span(7, 0, 1, 2, 6)

    def test_adjoining_generators_breaks_nilpotency(self, hypo):
        nil = span(7, 0, 1, 2, 6)
        for extra in (3, 4, 5):
            grown = ideal_closure(nil.sum(span(7, extra)), hypo)
            assert not is_nilpotent_as_ideal(grown, hypo)

    def test_contained_in_maximal_hypo_ideals(self, hypo, ideal_one, ideal_two):
        nil = nilradical(hypo)
        assert ideal_one.contains_subspace(nil)
        assert ideal_two.contains_subspace(nil)
        meet = ideal_one.intersection(ideal_two)
        assert meet.contains_subspace(nil)

    def test_chain_of_inclusions(self, hypo, ideal_one):
        square = ideal_closure(algebra_square(hypo), hypo)
        nil = nilradical(hypo)
        assert not square.is_zero()
        assert nil.contains_subspace(square)
        assert ideal_one.contains_subspace(nil) and nil != ideal_one

    def test_adapted_basis_computed_once(self, hypo, monkeypatch):
        calls = []
        original = finite_algebra._adapted_basis

        def counted(P):
            calls.append(P)
            return original(P)

        monkeypatch.setattr(finite_algebra, "_adapted_basis", counted)
        assert nilradical(hypo) == span(7, 0, 1, 2, 6)
        assert len(calls) == 1

    def test_requires_solvable(self, torus, hypo):
        epsilon = StructAlgebra(4, 3, {
            (0, 1, 2): {3: F1}, (0, 1, 3): {2: -F1},
            (0, 2, 3): {1: F1}, (1, 2, 3): {0: -F1}})
        with pytest.raises(ValueError):
            nilradical(epsilon)


class TestEigenstructure:
    def test_fixture_common_eigenvector(self, hypo):
        found = common_eigenvector(hypo)
        assert found is not None
        assert found.vector == unit_vector(7, 6)
        assert all(v == 0 for v in found.eigenvalues.values())
        # postconditions hold exactly
        for i in range(7):
            assert all(v == 0 for v in mat_vec(hypo.left_mult_matrix(e(i)), found.vector))
        for tup in itertools.combinations(range(7), 3):
            ys = [e(i) for i in tup]
            image = mat_vec(hypo.adjoint_matrix(ys), found.vector)
            lam = found.eigenvalues[tup]
            assert image == tuple(lam * v for v in found.vector)

    def test_abelian_eigenvector(self):
        found = common_eigenvector(abelian_algebra(3, 3))
        assert found is not None
        assert all(v == 0 for v in found.eigenvalues.values())

    def test_torus_eigenvector_lies_in_nilradical(self, torus):
        found = common_eigenvector(torus)
        assert found is not None
        nil = nilradical(torus)
        assert nil.contains(found.vector)
        assert all(v.denominator == 1 for v in found.eigenvalues.values())
        assert any(v != 0 for v in found.eigenvalues.values())

    def test_annihilator_of_fixture(self, hypo):
        assert annihilator(hypo) == span(7, 0, 1, 2, 5, 6)

    def test_annihilator_is_the_meet_of_the_multiplication_kernels(self, hypo, torus):
        from poisson_nlie.constructions import (
            random_poisson_n_lie, truncated_power_algebra, xu_tensor)

        def by_intersections(P):
            """The former annihilator: one kernel intersected per basis vector."""
            current = full_space(P)
            for i in range(P.dim):
                current = current.intersection(kernel(P.left_mult_matrix(e(i))))
                if current.is_zero():
                    break
            return current

        two = StructAlgebra(2, 2, {}, {(0, 0): e(0), (0, 1): e(1)})
        algebras = [hypo, torus, StructAlgebra(0, 2), abelian_algebra(3, 3)]
        algebras += [random_poisson_n_lie(seed)[0] for seed in range(40)]
        algebras += [xu_tensor(P, P).algebra for P in (
            two, truncated_power_algebra(3), truncated_power_algebra(2, unital=True))]
        for P in algebras:
            assert annihilator(P) == by_intersections(P)

    def test_flag_of_fixture(self, hypo):
        flag = solvable_flag(hypo)
        assert [f.dim for f in flag] == list(range(8))
        assert flag[1] == span(7, 6)
        assert flag[2] == span(7, 6, 0)
        for piece in flag:
            assert is_ideal(piece, hypo)

    def test_flag_of_tiny_algebras(self):
        line = abelian_algebra(1, 3)
        flag = solvable_flag(line)
        assert [f.dim for f in flag] == [0, 1]
        flat = solvable_flag(abelian_algebra(3, 3))
        assert [f.dim for f in flag] == [0, 1]
        assert [f.dim for f in flat] == [0, 1, 2, 3]


class TestOperatorIdentity:
    @pytest.mark.parametrize("fixture_name", ["hypo", "torus"])
    def test_shifted_power_exchange(self, fixture_name, hypo, torus):
        """(L_a - lam)^k A_y(x) = A_y (L_a - lam)^k x - k L_{A_y a} (L_a - lam)^(k-1) x
        for the left multiplication L and (n-1)-fold adjoint A."""
        P = hypo if fixture_name == "hypo" else torus
        rng = random.Random(17)
        d = P.dim
        for _ in range(25):
            a = {i: Fraction(rng.randint(-2, 2)) for i in range(d)}
            a = {i: c for i, c in a.items() if c}
            ys = [{rng.randrange(d): Fraction(rng.choice([-1, 1, 2]))}
                  for _ in range(P.arity - 1)]
            x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
            lam = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            k = rng.randint(1, 4)
            La = P.left_mult_matrix(a)
            Qy = P.adjoint_matrix(ys)
            K = mat_sub(La, scale_matrix(lam, d))
            lhs = mat_vec(mat_pow(K, k), mat_vec(Qy, x))
            qa = P.bracket(list(ys) + [a])
            Lqa = P.left_mult_matrix(qa)
            rhs_main = mat_vec(Qy, mat_vec(mat_pow(K, k), x))
            rhs_corr = mat_vec(Lqa, mat_vec(mat_pow(K, k - 1), x))
            rhs = tuple(m - k * c for m, c in zip(rhs_main, rhs_corr))
            assert lhs == rhs


class TestGeneralizedEigenspace:
    def test_zero_eigenvalue_of_a_generator(self, hypo):
        space = generalized_eigenspace(hypo, e(3), 0)
        assert space == full_space(hypo)  # L_{e4} is nilpotent on dim 7

    def test_zero_element_gives_everything(self, hypo):
        assert generalized_eigenspace(hypo, {}, 0) == full_space(hypo)

    def test_nilpotent_product_part_has_no_nonzero_eigenvalues(self, hypo):
        assert generalized_eigenspace(hypo, e(3), 2).is_zero()
        assert generalized_eigenspace(hypo, e(4), Fraction(-1, 2)).is_zero()

    def test_random_samples_are_ideals(self, hypo, torus):
        rng = random.Random(23)
        for P in (hypo, torus):
            for _ in range(10):
                a = {rng.randrange(P.dim): Fraction(rng.randint(-2, 2))}
                lam = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                # is_ideal is asserted inside; reaching here means it held
                generalized_eigenspace(P, a, lam)


class TestIdempotents:
    def test_zero_element(self, hypo):
        report = idempotent_report(hypo, {})
        assert report["is_idempotent"] and report["is_zero"]
        assert report["central_in_bracket"]

    def test_unital_line(self):
        P = StructAlgebra(1, 3, {}, {(0, 0): {0: F1}})
        report = idempotent_report(P, e(0))
        assert report["is_idempotent"]
        assert report["central_in_bracket"]
        assert report["nonzero_idempotents_possible"]

    def test_fixture_has_no_nonzero_idempotents(self, hypo):
        report = idempotent_report(hypo, e(3))
        assert not report["is_idempotent"]
        assert not report["nonzero_idempotents_possible"]  # product part nilpotent


class TestExtensionStructure:
    def test_fixture_witnesses(self, hypo, ideal_one):
        result = non_nilpotent_adjoint_search(hypo, ideal_one, [unit_vector(7, 4)])
        assert result["all_found"]
        tup = result[0]["ideal_basis_tuple"]
        rows = [ideal_one.basis[i] for i in tup]
        assert rows[0] == unit_vector(7, 3) and rows[1] == unit_vector(7, 5)

    def test_torus_witnesses(self, torus):
        nil_base = span(8, 0, 1, 2, 3, 4)
        complement = [unit_vector(8, j) for j in (5, 6, 7)]
        result = non_nilpotent_adjoint_search(torus, nil_base, complement)
        assert result["all_found"]

    def test_split_setup_reports_exhaustion(self):
        # a split direct sum: no complement adjoint can act non-nilpotently
        P = abelian_algebra(4, 3)
        H = span(4, 0, 1)
        result = non_nilpotent_adjoint_search(P, H, [unit_vector(4, 2)])
        assert not result["all_found"]
        assert result[0]["ideal_basis_tuple"] is None

    def test_invertible_restriction_on_torus(self, torus):
        y = {5: F1, 6: F1, 7: F1}
        report = zero_product_criterion(torus, y, [e(0), e(1)])
        assert report["hypothesis_met"] and report["conclusion_holds"]

    def test_non_invertible_restriction_on_fixture(self, hypo):
        report = zero_product_criterion(hypo, e(4), [e(3), e(5)])
        assert not report["hypothesis_met"]
        assert report["conclusion_holds"] is None

    def test_abelian_is_vacuous(self):
        P = abelian_algebra(3, 3)
        report = zero_product_criterion(P, e(0), [e(1)])
        assert report["hypothesis_met"] and report["conclusion_holds"]


def _quotient_by_dense_scan(P, I):
    """Quotient tables over every increasing (skew) or every (raw) key of
    the quotient and every product pair, projected one by one."""
    kept = tuple(j for j in range(P.dim) if j not in I.pivots)

    def project(value):
        residue = I.reduce(sv_to_dense(value, P.dim))
        return tuple(residue[j] for j in kept)

    if P.skew:
        keys = itertools.combinations(range(len(kept)), P.arity)
    else:
        keys = itertools.product(range(len(kept)), repeat=P.arity)
    brackets = {}
    for key in keys:
        value = P.bracket_basis([kept[a] for a in key])
        if value and any(project(value)):
            brackets[key] = project(value)
    products = {}
    for a, b in itertools.combinations_with_replacement(range(len(kept)), 2):
        value = P.product_basis(kept[a], kept[b])
        if value and any(project(value)):
            products[(a, b)] = project(value)
    return kept, brackets, products


def _quotient_cases():
    """(P, I) with I a nonzero ideal: the hypo fixture and seeded random
    instances and raw algebras cut by the closure of a basis vector, and
    iterated brackets cut by their skew-defect ideals."""
    from poisson_nlie.constructions import (
        iterated_bracket, random_poisson_n_lie, skew_defect_spans, xu_tensor)

    rng = random.Random(3)
    values = [F1, -F1, Fraction(2), Fraction(1, 2)]

    def raw_algebra():
        d, n = rng.randint(3, 5), rng.choice([2, 3])

        def vec():
            return {rng.randrange(d): rng.choice(values) for _ in range(rng.randint(1, 2))}

        brackets = {tuple(rng.randrange(d) for _ in range(n)): vec()
                    for _ in range(rng.randint(2, 6))}
        products = {tuple(sorted(rng.randrange(d) for _ in range(2))): vec()
                    for _ in range(rng.randint(1, 4))}
        return StructAlgebra(d, n, brackets, products, skew=False)

    hypo = fixture_hypo()
    cases = [(hypo, ideal_closure(span(7, k), hypo)) for k in range(7)]
    for seed in range(80):
        P = random_poisson_n_lie(seed)[0] if seed < 40 else raw_algebra()
        start = Subspace.from_vectors(P.dim, [unit_vector(P.dim, rng.randrange(P.dim))])
        cases.append((P, ideal_closure(start, P)))
    lie = StructAlgebra(2, 2, {(0, 1): e(1)}, {(0, 0): e(0), (0, 1): e(1)})
    two = StructAlgebra(2, 2, {}, {(0, 0): e(0), (0, 1): e(1)})
    for base in (lie, xu_tensor(StructAlgebra(2, 2, {(0, 1): e(1)}), two).algebra):
        for n in (3, 4):
            nested = iterated_bracket(base, n)
            defects = Subspace.from_vectors(nested.dim, skew_defect_spans(nested))
            cases.append((nested, ideal_closure(defects, nested)))
    return [(P, I) for P, I in cases if not I.is_zero()]


class TestQuotients:
    def test_matches_the_dense_scan_reference(self):
        seen = Counter()
        for P, I in _quotient_cases():
            quo = quotient_algebra(P, I)
            kept, brackets, products = _quotient_by_dense_scan(P, I)
            assert quo.kept == kept
            # same entries in the same (lexicographic) order
            assert list(quo.algebra.bracket_entries()) == [
                (key, dict((i, c) for i, c in enumerate(v) if c)) for key, v in brackets.items()]
            assert list(quo.algebra.product_entries()) == [
                (key, dict((i, c) for i, c in enumerate(v) if c)) for key, v in products.items()]
            storage = "skew" if P.skew else "raw"
            seen[storage] += 1
            seen[storage, "brackets"] += len(brackets)
            seen[storage, "products"] += len(products)
            seen[storage, "unordered"] += sum(
                any(a >= b for a, b in zip(key, key[1:])) for key in brackets)
        # raw keys out of order and product entries both reach the quotient
        assert seen["skew"] >= 10 and seen["raw"] >= 10, seen
        assert seen["raw", "unordered"] >= 5 and seen["raw", "products"] >= 5, seen
        assert seen["skew", "brackets"] >= 5 and seen["skew", "products"] >= 5, seen

    def test_quotient_by_flag_member(self, hypo):
        quo = quotient_algebra(hypo, span(7, 6))
        assert quo.algebra.dim == 6
        assert verify_axioms(quo.algebra).all_pass
        # products vanish in the quotient (e4.e5 = e7 = 0)
        assert not dict(quo.algebra.product_entries())

    def test_projection_and_lift(self, hypo):
        quo = quotient_algebra(hypo, span(7, 6))
        vec = tuple(Fraction(v) for v in (1, 2, 3, 4, 5, 6, 7))
        projected = quo.project(vec)
        assert len(projected) == 6
        lifted = quo.lift(projected)
        assert quo.ideal.reduce(lifted) == quo.ideal.reduce(vec)

    def test_rejects_non_ideals(self, hypo):
        with pytest.raises(ValueError):
            quotient_algebra(hypo, span(7, 3))


class TestFixtures:
    def test_hypo_dimensions(self, hypo):
        assert hypo.dim == 7 and hypo.arity == 4
        assert hypo.bracket_basis((0, 3, 4, 5)) == {0: F1}
        assert hypo.product_basis(3, 4) == {6: F1}

    def test_hypo_rejects_small_parameters(self):
        with pytest.raises(ValueError):
            fixture_hypo(3, 6)
        with pytest.raises(ValueError):
            fixture_hypo(4, 3)

    def test_torus_shape(self, torus):
        assert torus.dim == 8 and torus.arity == 4
        assert not dict(torus.product_entries())
        result = classify(torus)
        assert result.solvable and not result.nilpotent

    def test_torus_nilradical_is_the_non_generator_span(self, torus):
        assert nilradical(torus) == span(8, 2, 3, 4)


class TestDefinitionGrammar:
    def test_round_trip(self, hypo, torus):
        for P in (hypo, torus):
            assert parse_algebra(format_algebra(P)) == P

    def test_coefficient_combinations(self):
        text = "dim 3\narity 2\nbracket [1,2] = 2*e1 - 1/3*e3\nproduct 1*1 = 0\n"
        P = parse_algebra(text)
        assert P.bracket_basis((0, 1)) == {0: Fraction(2), 2: Fraction(-1, 3)}
        assert parse_algebra(format_algebra(P)) == P

    @pytest.mark.parametrize("text", [
        "arity 2\nbracket [1,2] = e1\n",
        "dim 2\narity 2\nbracket [2,1] = e1\n",
        "dim 2\narity 2\nbracket [1,2] = e5\n",
        "dim 2\narity 2\nproduct 2*1 = e1\n",
        "dim 2\narity 2\nwhatever\n",
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_algebra(text)
