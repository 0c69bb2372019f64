import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_nlie import finite_algebra
from poisson_nlie.finite_algebra import (
    StructAlgebra,
    _associative_cases,
    abelian_algebra,
    algebra_square,
    annihilator,
    bracket_center,
    bracket_span,
    classify,
    common_eigenvector,
    engel_operators_nilpotent,
    fixture_hypo,
    fixture_torus,
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
from poisson_nlie.subspaces import (
    Subspace, is_nilpotent_matrix, kernel, mat_pow, rational_eigenvalues, unit_vector)

from oracles import (
    adjoint_generators_by_lookup,
    annihilator_by_lookup,
    arrangement_table_by_permutations,
    assert_scalar_rule,
    basis_operators_by_lookup,
    bracket_basis_by_sign,
    bracket_center_by_lookup,
    classification_by_sums,
    common_eigenspace_by_lookup,
    engel_by_lookup,
    greedy_ideal_resweep,
    ideal_closure_by_rounds,
    images_by_scan,
    mat_sub,
    mat_vec,
    nilpotent_by_sums,
    nilradical_by_rounds,
    scale_matrix,
)

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
        """bracket_basis on every ordered tuple, repeats included, looked up
        twice (the second time from the kept lookups), and bracket on seeded
        vectors, of seeded skew algebras with dim <= 5 and arity <= 4,
        against a perm_sign of every key and the former sort-and-sign
        lookup."""
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

            for _ in range(2):
                for key in itertools.product(range(dim), repeat=arity):
                    assert P.bracket_basis(key) == reference(key) \
                        == bracket_basis_by_sign(P, key), (seed, key)
                    assert P.bracket_basis(list(key)) == reference(key), (seed, key)
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

    def test_slots_must_live_in_the_algebra(self, hypo):
        """A subspace of another ambient space is refused, not spanned into
        a wrong answer."""
        whole = full_space(hypo)
        calls = [
            lambda: bracket_span([Subspace.full(9)] + [whole] * 3, hypo),
            lambda: bracket_span([whole] * 3 + [Subspace.zero(6)], hypo),
            lambda: subspace_product(whole, Subspace.full(3), hypo),
            lambda: is_ideal(Subspace.full(3), hypo),
            lambda: ideal_closure(Subspace.zero(8), hypo),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="ambient dimension mismatch"):
                call()


def _bracket_span_by_scan(subspaces, P):
    """The former bracket_span, kept as the reference: every combination of
    basis vectors, one per slot, bracketed, and one ``rref``."""
    images = images_by_scan(P, ("bracket", subspaces))
    return Subspace.from_vectors(P.dim, [sv_to_dense(w, P.dim) for w in images])


def _subspace_product_by_scan(U, V, P):
    """The former subspace_product: every pair of basis vectors multiplied."""
    images = images_by_scan(P, ("product", [U, V]))
    return Subspace.from_vectors(P.dim, [sv_to_dense(w, P.dim) for w in images])


def _raw_algebras():
    """Verified raw brackets: iterated nestings and the tensor power of the
    3-Lie line."""
    from poisson_nlie.constructions import iterated_bracket, leibniz_tensor_functor, xu_tensor

    lie = StructAlgebra(2, 2, {(0, 1): e(1)})
    two = StructAlgebra(2, 2, {}, {(0, 0): e(0), (0, 1): e(1)})
    line = StructAlgebra(3, 3, {(0, 1, 2): e(0)})
    nested = [iterated_bracket(xu_tensor(lie, two).algebra, n) for n in (3, 4)]
    return nested + [leibniz_tensor_functor(line, with_product=True)]


@pytest.fixture(scope="module")
def span_algebras():
    """Alternating and raw algebras: both fixtures at two shapes, seeded
    random instances, the raw brackets above, a square product key, dim 0
    and the raw quotient cases (the others are among the former)."""
    from poisson_nlie.constructions import random_poisson_n_lie

    algebras = [fixture_hypo(), fixture_hypo(5, 7), fixture_torus(), fixture_torus(3, 4)]
    algebras += [random_poisson_n_lie(seed)[0] for seed in range(40)]
    algebras += _raw_algebras() + [
        StructAlgebra(3, 2, {(0, 2): e(1)}, {(1, 1): {0: F1, 2: -F1}}), StructAlgebra(0, 3)]
    return algebras + [P for P, _ in _quotient_cases() if not P.skew]


def _slot_patterns(P, rng):
    """Slot lists with the whole space leading, in the middle and trailing,
    next to zero, proper and random subspaces."""
    d, n = P.dim, P.arity
    whole, zero = full_space(P), Subspace.zero(d)
    units = [unit_vector(d, j) for j in range(d)]
    proper = Subspace.from_vectors(d, units[:-1])

    def random_subspace():
        vectors = [sv_to_dense({rng.randrange(d): Fraction(rng.choice([-2, -1, 1, 2]))
                                for _ in range(2)}, d) for _ in range(rng.randint(1, 3))]
        return Subspace.from_vectors(d, vectors)

    def dense_subspace(k):
        """k random vectors with every entry nonzero and most not +-1: the
        RREF rows are dense off the pivots and share those entries."""
        entries = [Fraction(a, b) for a in (-3, -2, -1, 1, 2, 5) for b in (1, 2, 3)]
        return Subspace.from_vectors(d, [[rng.choice(entries) for _ in range(d)]
                                         for _ in range(min(k, d))])

    U, V = random_subspace() if d else zero, ideal_closure(random_subspace(), P) if d else zero
    line, plane, hyperplane = dense_subspace(1), dense_subspace(2), dense_subspace(d - 1)
    # spans of independent dense lines are at most a few images, each a sum
    # over many arrangements weighted by the rows' coefficients
    lines = [dense_subspace(1) for _ in range(n)]
    return [[whole] * n, [U] + [whole] * (n - 1), [whole, U] + [whole] * (n - 2),
            [whole] * (n - 1) + [V], [U, V] + [whole] * (n - 2), [whole, V] + [U] * (n - 2),
            [U] * n, [V] * n, [proper] * n, [zero] + [whole] * (n - 1),
            [whole] * (n - 1) + [zero],
            [line] + [whole] * (n - 1), [whole] * (n - 1) + [plane],
            [plane, hyperplane] + [whole] * (n - 2), [hyperplane] * n,
            [line, U] + [plane] * (n - 2), [whole, hyperplane] + [line] * (n - 2),
            lines, [plane] + lines[1:], [hyperplane] + lines[1:]]


class TestSpansFollowStoredEntries:
    def test_match_the_former_scans(self, span_algebras):
        rng = random.Random(11)
        seen = Counter()
        for P in span_algebras:
            for slots in _slot_patterns(P, rng):
                bracket = _bracket_span_by_scan(slots, P)
                assert bracket_span(slots, P) == bracket, (P, slots)
                for U, V in (slots[:2], slots[-2:], slots[::-1][:2]):
                    product = _subspace_product_by_scan(U, V, P)
                    assert subspace_product(U, V, P) == product
                    seen["product", product.dim > 0] += 1
                    # one call imaging both operations spans both spans
                    both = finite_algebra._images(P, ("bracket", slots), ("product", [U, V]))
                    assert Subspace.zero(P.dim).adjoin(both) == bracket.sum(product), (P, slots)
                seen["skew" if P.skew else "raw", bracket.dim > 0] += 1
        # nonzero spans of both storages and of the product were compared
        assert min(seen.values()) >= 20 and len(seen) == 6, seen

    def test_structure_results_match_the_former_scans(self, monkeypatch):
        """Every span the structure code makes goes through the image
        builder, and every basis operator through ``_basis_operators``: with
        the scan and the per-tuple lookups in their place (and the
        arrangement tables out of reach), classification, nilradicals,
        flags, closures and quotients come out the same."""
        from poisson_nlie.constructions import random_poisson_n_lie, skew_defect_quotient

        algebras = [fixture_hypo(), fixture_torus(), fixture_torus(3, 4)]
        algebras += [random_poisson_n_lie(seed)[0] for seed in range(0, 60, 3)]
        raw = _raw_algebras()

        def results():
            out = []
            for P in algebras:
                solvable = classify(P).solvable
                out.append((classify(P), nilradical(P) if solvable else None,
                            solvable_flag(P) if solvable else None, algebra_square(P)))
            for P in raw:
                closure = ideal_closure(Subspace.from_vectors(P.dim, [unit_vector(P.dim, 0)]), P)
                quotient = skew_defect_quotient(P)
                out.append((closure, is_ideal(closure, P), quotient.ideal, quotient.algebra))
            return out

        fast = results()
        scans = Counter()

        def scanned(P, *parts):
            scans.update(op for op, _ in parts)
            return images_by_scan(P, *parts)

        def unreachable(*args):
            raise AssertionError("an arrangement table was read during the scan")

        def looked_up(P, op="bracket"):
            scans["operators", op] += 1
            return basis_operators_by_lookup(P, op)

        monkeypatch.setattr(finite_algebra, "_images", scanned)
        monkeypatch.setattr(finite_algebra, "_basis_operators", looked_up)
        monkeypatch.setattr(StructAlgebra, "_arrangement_table", unreachable)
        assert results() == fast
        assert min(scans["bracket"], scans["product"]) >= 500, scans
        assert min(scans["operators", "bracket"], scans["operators", "product"]) >= 50, scans

    def test_arrangement_tables_list_each_sorted_arrangement_once(self):
        """n!/w! arrangements per key of distinct entries, with sorted
        whole-slot part, each carrying its bracket; a square product key
        has one arrangement, and raw storage keeps the key as stored."""
        P = fixture_hypo()
        for whole in [(), (0,), (1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 2, 3)]:
            partial = [p for p in range(4) if p not in whole]
            table = P._arrangement_table("bracket", whole)
            assert len(table) == len(P._bracket) * math.factorial(4) // math.factorial(len(whole))
            assert len({(fill, rest) for fill, rest, _, _ in table}) == len(table)
            for fill, rest, sign, value in table:
                assert list(fill) == sorted(fill)
                t = dict(zip(whole, fill))
                t.update(zip(partial, rest))
                key = tuple(t[p] for p in range(4))
                assert P.bracket_basis(key) == {i: sign * c for i, c in value.items()}
        Q = StructAlgebra(3, 2, {}, {(1, 1): e(0), (0, 2): e(1)})
        assert [len(Q._arrangement_table("product", whole)) for whole in [(), (0,), (1,), (0, 1)]] \
            == [3, 3, 3, 2]
        raw = _raw_algebras()[0]
        assert [(fill, rest) for fill, rest, _, _ in raw._arrangement_table("bracket", (1,))] \
            == [((key[1],), (key[0], key[2])) for key in raw._bracket]
        # every (operation, whole-slot pattern) table equals the former
        # per-key permutations, entry by entry and in order, its values the
        # stored vectors themselves, on seeded skew and raw algebras at
        # arity 2-5 with square product keys, and on the fixtures and the
        # raw brackets above
        rng = random.Random(7)
        algebras = [P, Q] + _raw_algebras()
        for _ in range(60):
            dim, arity, skew = rng.randint(2, 6), rng.randint(2, 5), rng.random() < 0.6
            keys = list(itertools.combinations(range(dim), arity) if skew
                        else itertools.product(range(dim), repeat=arity))
            pairs = list(itertools.combinations_with_replacement(range(dim), 2))
            algebras.append(StructAlgebra(
                dim, arity,
                {key: {rng.randrange(dim): rng.choice([-2, -1, 1, Fraction(1, 2)])}
                 for key in rng.sample(keys, min(len(keys), rng.randint(1, 4)))},
                {pair: {rng.randrange(dim): rng.choice([-1, 1, 3])}
                 for pair in rng.sample(pairs, rng.randint(1, 3)) + [(1, 1)]}, skew=skew))
        seen = Counter()
        for R in algebras:
            for op, n in (("bracket", R.arity), ("product", 2)):
                for whole in itertools.chain(*(itertools.combinations(range(n), w)
                                               for w in range(n + 1))):
                    table = R._arrangement_table(op, whole)
                    expected = arrangement_table_by_permutations(R, op, whole)
                    assert table == expected, (R, op, whole)
                    assert all(a[3] is b[3] for a, b in zip(table, expected))
                    seen[op, R.skew, R.arity] += len(table)
                # the basis operators read from the table are those of the
                # per-tuple lookups, an even arrangement's the stored vector
                operators = finite_algebra._basis_operators(R, op)
                assert operators == basis_operators_by_lookup(R, op), (R, op)
                stored = {id(v) for v in (R._bracket if op == "bracket" else R._product).values()}
                assert all(id(value) in stored for xs, columns in operators.items()
                           for j, value in columns.items()
                           if op == "product" or not R.skew or perm_sign(xs + (j,)) > 0)
        assert {(skew, n) for op, skew, n in seen if op == "bracket"} \
            == {(skew, n) for skew in (True, False) for n in range(2, 6)}, seen

    def test_a_warm_memo_changes_nothing_seen(self, span_algebras):
        """The arrangement memo is a cache of the stored entries: spans on an
        algebra whose memo is warm equal those on a fresh copy, the memo
        points at the stored vectors, and neither equality nor the
        serialized form sees it."""
        def fresh(P):
            return StructAlgebra(P.dim, P.arity, dict(P.bracket_entries()),
                                 dict(P.product_entries()), skew=P.skew)

        rng = random.Random(5)
        warmed = 0
        for P in span_algebras:
            warm = fresh(P)
            text = format_algebra(warm) if warm.skew else None
            patterns = _slot_patterns(warm, rng)
            spans = [(bracket_span(slots, warm), subspace_product(slots[0], slots[-1], warm))
                     for slots in patterns]
            warmed += bool(warm._arrangements)
            stored = {id(v) for v in itertools.chain(warm._bracket.values(),
                                                     warm._product.values())}
            assert all(id(value) in stored for table in warm._arrangements.values()
                       for _, _, _, value in table)
            assert warm == fresh(P) == P and repr(warm) == repr(fresh(P))
            if warm.skew:
                assert format_algebra(warm) == text
            for slots, (br, pr) in zip(patterns, spans):
                assert bracket_span(slots, warm) == br == bracket_span(slots, fresh(P))
                assert subspace_product(slots[0], slots[-1], warm) == pr \
                    == subspace_product(slots[0], slots[-1], fresh(P))
        assert warmed >= len(span_algebras) - 1  # all but the empty algebra

    def test_structure_work_leaves_the_shared_state_as_built(self):
        """The full space, the kept lookups and the tables are shared by
        every structure call on an algebra and must come out unmodified:
        after classification, nilradicals, every series kind, closures,
        ideal tests and flags, the kept full space equals a freshly built
        one, the stored vectors equal a snapshot taken before, every kept
        lookup equals the former sort-and-sign lookup, and equality and the
        serialized form do not see what was kept."""
        from poisson_nlie.constructions import random_poisson_n_lie

        algebras = [fixture_hypo(), fixture_torus(), fixture_torus(3, 4)]
        algebras += [random_poisson_n_lie(seed)[0] for seed in range(60)]
        rng = random.Random(9)
        lookups = 0
        for P in algebras:
            text = format_algebra(P)
            snapshot = [[(key, dict(value)) for key, value in entries]
                        for entries in (P.bracket_entries(), P.product_entries())]
            fresh = parse_algebra(text)
            whole = full_space(P)
            solvable = classify(P).solvable
            if solvable:
                nilradical(P)
                solvable_flag(P)
            for kind in finite_algebra.SERIES_KINDS:
                series(whole, P, kind)
            if P.dim:
                closure = ideal_closure(span(P.dim, rng.randrange(P.dim)), P)
                assert is_ideal(closure, P) and is_ideal(whole, P)
            assert full_space(P) is whole
            assert whole == Subspace.full(P.dim) and whole.rows == tuple(
                {j: 1} for j in range(P.dim))
            assert [[(key, dict(value)) for key, value in entries] for entries in
                    (P.bracket_entries(), P.product_entries())] == snapshot
            for key, value in P._signed.items():
                assert value == bracket_basis_by_sign(P, key) == bracket_basis_by_sign(fresh, key)
            lookups += len(P._signed)
            assert P == fresh and fresh == P and format_algebra(P) == text
            assert not fresh._signed and fresh._full is None
        assert lookups >= 1000, lookups

    def test_classification_brackets_only_stored_combinations(self, monkeypatch):
        """A return to bracketing every combination of basis vectors would
        make 14,259 and 20,608 lookups here."""
        calls = []
        lookup = StructAlgebra.bracket_basis

        def counted(self, idxs):
            calls.append(idxs)
            return lookup(self, idxs)

        monkeypatch.setattr(StructAlgebra, "bracket_basis", counted)
        for P in (fixture_hypo(), fixture_torus()):
            calls.clear()
            classify(P)
            assert len(calls) <= 1000, len(calls)


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

        def counted(P, derived):
            calls.append(P)
            return original(P, derived)

        monkeypatch.setattr(finite_algebra, "_adapted_basis", counted)
        assert nilradical(hypo) == span(7, 0, 1, 2, 6)
        assert len(calls) == 1

    def test_one_sweep_equals_the_resweeping_search(self, hypo, torus, monkeypatch):
        """Both greedy searches of ``nilradical`` (with and without the
        product) give what sweeping until a pass adds nothing gives, on the
        fixtures and on every solvable ``random_poisson_n_lie(0..83)``."""
        from poisson_nlie.constructions import random_poisson_n_lie

        one_sweep = finite_algebra._greedy_ideal
        searches = []

        def compared(P, start, candidates, with_product):
            found = one_sweep(P, start, candidates, with_product)
            assert found == greedy_ideal_resweep(
                start, candidates, lambda U: ideal_closure(U, P, with_product),
                lambda U: nilpotent_by_sums(U, P, with_product))
            searches.append(found)
            return found

        monkeypatch.setattr(finite_algebra, "_greedy_ideal", compared)
        algebras = [hypo, torus] + [P for P in (random_poisson_n_lie(seed)[0]
                                                for seed in range(84))
                                    if classify(P).solvable]
        for P in algebras:
            nilradical(P)
        assert len(searches) == 2 * len(algebras)

    def test_requires_solvable(self, torus, hypo):
        epsilon = StructAlgebra(4, 3, {
            (0, 1, 2): {3: F1}, (0, 1, 3): {2: -F1},
            (0, 2, 3): {1: F1}, (1, 2, 3): {0: -F1}})
        with pytest.raises(ValueError):
            nilradical(epsilon)


@pytest.fixture(scope="module")
def random_algebras():
    from poisson_nlie.constructions import random_poisson_n_lie

    return [random_poisson_n_lie(seed)[0] for seed in range(250)]


def _fixtures():
    return [fixture_hypo(), fixture_torus(), fixture_hypo(5, 7), fixture_torus(3, 4)]


class TestSpanWorkPerStep:
    def test_the_square_is_already_an_ideal(self, random_algebras):
        """[X, P, .., P] lies in [P, .., P] and P.X in P.P for any X, so
        closing P^2, or [P, .., P] for the bracket alone, adds nothing, nor
        does closing either with a seeded random vector adjoined: on the
        fixtures, every random_poisson_n_lie(0..249) and the raw brackets
        of the constructions."""
        rng = random.Random(7)
        proper = Counter()
        for P in _fixtures() + random_algebras + _raw_algebras():
            square = algebra_square(P)
            bracket = bracket_span([full_space(P)] * P.arity, P)
            vector = {rng.randrange(P.dim): rng.choice([-1, 1, Fraction(2, 3)]) for _ in range(2)}
            for held, with_product in ((square, True), (bracket, False)):
                for U in (held, held.adjoin([vector])):
                    assert ideal_closure(U, P, with_product) == U \
                        == ideal_closure_by_rounds(U, P, with_product)
            proper["square"] += 0 < square.dim < P.dim
            proper["bracket"] += 0 < bracket.dim < square.dim
            proper["grown"] += square.dim < square.adjoin([vector]).dim < P.dim
        assert min(proper.values()) >= 20, proper

    def test_closures_match_the_former_rounds(self, random_algebras):
        """Frontier closures equal closures that image the whole current
        subspace every round, for both kinds of ideal, from zero, the whole
        space, seeded random subspaces and skew defects, on the fixtures,
        every solvable random_poisson_n_lie(0..249) and raw brackets (of
        the constructions, and seeded ones obeying no axiom)."""
        from poisson_nlie.constructions import skew_defect_spans

        rng = random.Random(35)
        raw = _raw_algebras() + [P for P, _ in _quotient_cases() if not P.skew]
        solvable = [P for P in random_algebras if classify(P).solvable]
        seen = Counter()
        for P in _fixtures() + solvable + raw:
            d = P.dim
            starts = [Subspace.zero(d), full_space(P)]
            for _ in range(3):
                vectors = [{rng.randrange(d): rng.choice([-2, -1, 1, Fraction(1, 2)])
                            for _ in range(rng.randint(1, 3))} for _ in range(rng.randint(1, 2))]
                starts.append(Subspace.zero(d).adjoin(vectors))
            if not P.skew:
                starts.append(Subspace.zero(d).adjoin(skew_defect_spans(P)))
            for U, with_product in itertools.product(starts, (True, False)):
                closed = ideal_closure(U, P, with_product)
                assert closed == ideal_closure_by_rounds(U, P, with_product), (P, U)
                seen["raw" if not P.skew else "skew", with_product, closed != U] += 1
        # starts that were not ideals, and ones that were, of both kinds
        assert len(seen) == 8 and min(seen.values()) >= 10, seen

    def test_nilradicals_match_the_former_search(self, random_algebras, monkeypatch):
        """``nilradical`` and its bracket-only search give what closing the
        starts, closing and testing each candidate afresh and resweeping
        give, on the fixtures and every solvable random_poisson_n_lie(0..249)."""
        one_sweep = finite_algebra._greedy_ideal
        found = {}

        def recorded(P, start, candidates, with_product):
            found[with_product] = one_sweep(P, start, candidates, with_product)
            return found[with_product]

        monkeypatch.setattr(finite_algebra, "_greedy_ideal", recorded)
        proper = 0
        for P in _fixtures() + [P for P in random_algebras if classify(P).solvable]:
            found.clear()
            nil = nilradical(P)
            assert nil == found[True] == nilradical_by_rounds(P), P
            assert found[False] == nilradical_by_rounds(P, with_product=False), P
            proper += 0 < nil.dim < P.dim
        assert proper >= 20

    def test_classification_matches_the_separate_series(self, random_algebras):
        """The five series of ``classify``, started from one set of images
        of P, give what five series grown from P on their own give."""
        seen = Counter()
        for P in _fixtures() + random_algebras + _raw_algebras():
            found = classify(P)
            assert found == classification_by_sums(P), P
            seen[found.solvable, found.nilpotent, found.pa_nilpotent, found.pl_nilpotent] += 1
        assert len(seen) >= 3, seen

    def test_one_set_of_square_images_per_call(self, monkeypatch):
        """``classify`` and ``nilradical`` image [P, .., P] and P.P once
        each, and ``nilradical`` builds one derived series and no
        bracket-derived one."""
        images, kinds = Counter(), Counter()
        build, descend = finite_algebra._images, finite_algebra._series_terms

        def counted_images(P, *parts):
            images.update(op for op, slots in parts if all(U.dim == P.dim for U in slots))
            return build(P, *parts)

        def counted_series(I, P, kind, second=None):
            if I.dim == P.dim:
                kinds[kind] += 1
            return descend(I, P, kind, second)

        monkeypatch.setattr(finite_algebra, "_images", counted_images)
        monkeypatch.setattr(finite_algebra, "_series_terms", counted_series)
        for P in _fixtures():
            images.clear()
            classify(P)
            assert images == {"bracket": 1, "product": 1}, images
            images.clear()
            kinds.clear()
            nilradical(P)
            assert images == {"bracket": 1, "product": 1}, images
            assert kinds == {"derived": 1}, kinds


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

    def test_matches_the_per_generator_search(self, span_algebras, monkeypatch):
        """The eigenvector and the whole eigenvalue map, zero generators and
        their order included, are those of a search that gives every
        generator, zero or not, its own branch."""
        def per_generator(P):
            generators = list(adjoint_generators_by_lookup(P))

            def descend(space, position, chosen):
                if space.is_zero():
                    return None
                if position == len(generators):
                    return space, dict(chosen)
                tup, matrix = generators[position]
                for lam in sorted(rational_eigenvalues(matrix), key=lambda lam: (lam != 0, lam)):
                    cut = space.intersection(kernel(mat_sub(matrix, scale_matrix(lam, P.dim)), P.dim))
                    if cut.is_zero():
                        continue
                    chosen[tup] = lam
                    found = descend(cut, position + 1, chosen)
                    if found is not None:
                        return found
                    del chosen[tup]
                return None

            found = descend(annihilator(P), 0, {})
            return None if found is None else (found[0].basis[0], list(found[1].items()))

        searched = 0
        for P in span_algebras:
            if P.skew and verify_axioms(P).all_pass and classify(P).solvable:
                found = common_eigenvector(P)
                expected = per_generator(P)
                assert (None if found is None else
                        (found.vector, list(found.eigenvalues.items()))) == expected, P
                searched += found is not None
        assert searched >= 30

        calls = []
        monkeypatch.setattr(finite_algebra, "rational_eigenvalues",
                            lambda matrix: calls.append(matrix) or rational_eigenvalues(matrix))
        torus = fixture_torus()
        common_eigenvector(torus)
        # the 12 distinct nonzero adjoints; the zero adjoint is not formed
        assert len(calls) == len(set(calls)) == 12
        assert all(any(any(row) for row in matrix) for matrix in calls)

    def test_annihilator_of_fixture(self, hypo):
        assert annihilator(hypo) == span(7, 0, 1, 2, 5, 6)

    def test_annihilator_is_the_meet_of_the_multiplication_kernels(self, hypo, torus):
        from poisson_nlie.constructions import (
            random_poisson_n_lie, truncated_power_algebra, xu_tensor)

        def by_intersections(P):
            """The former annihilator: one kernel intersected per basis vector."""
            current = full_space(P)
            for i in range(P.dim):
                current = current.intersection(kernel(P.left_mult_matrix(e(i)), P.dim))
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

    def test_flag_tests_solvability_once(self, random_algebras, monkeypatch):
        """The flag classifies P alone, and equals the flag built by
        ``common_eigenvector``, which classifies every quotient, on every
        solvable random_poisson_n_lie(0..59)."""
        def flag_classifying_every_quotient(P):
            flag = [Subspace.zero(P.dim)]
            while flag[-1].dim < P.dim:
                quo = quotient_algebra(P, flag[-1])
                found = common_eigenvector(quo.algebra)
                if found is None:
                    return None
                flag.append(flag[-1].adjoin(
                    [{quo.kept[a]: c for a, c in enumerate(found.vector) if c}]))
            return flag

        solvable = [P for P in random_algebras[:60] if classify(P).solvable]
        assert len(solvable) >= 40
        calls = []
        monkeypatch.setattr(finite_algebra, "classify",
                            lambda P: calls.append(P) or classify(P))
        flags = []
        for P in solvable:
            calls.clear()
            flags.append(solvable_flag(P))
            assert calls == [P]
        monkeypatch.undo()
        assert flags == [flag_classifying_every_quotient(P) for P in solvable]
        assert sum(flag is not None for flag in flags) >= 30

    def test_eigen_tools_refuse_an_unsolvable_algebra(self):
        epsilon = StructAlgebra(4, 3, {
            (0, 1, 2): {3: F1}, (0, 1, 3): {2: -F1},
            (0, 2, 3): {1: F1}, (1, 2, 3): {0: -F1}})
        with pytest.raises(ValueError, match="^common eigenvector search expects "
                                             "a solvable algebra$"):
            common_eigenvector(epsilon)
        with pytest.raises(ValueError, match="^only solvable algebras carry a "
                                             "complete ideal flag$"):
            solvable_flag(epsilon)


class TestSparseOperatorFile:
    """The four-line file ``dim d / arity 2 / bracket [1,2] = e1 / product
    3*3 = e4``, whose C(d, 1) adjoints and d left multiplications are all
    zero but three: its eigen tools form only those, so their work follows
    the stored constants, not d."""

    @staticmethod
    def algebra(d):
        return parse_algebra(f"dim {d}\narity 2\nbracket [1,2] = e1\nproduct 3*3 = e4\n")

    @pytest.mark.parametrize("d", [40, 80])
    def test_no_dense_basis_operator_is_formed(self, d, monkeypatch):
        P = self.algebra(d)
        if d == 40:
            space, eigenvalues = common_eigenspace_by_lookup(P)
            expected = (annihilator_by_lookup(P), bracket_center_by_lookup(P), engel_by_lookup(P),
                        sv_to_dense(space.rows[0], d), list(eigenvalues.items()))

        def dense(*args):
            raise AssertionError("a dense basis operator was formed")

        calls = []
        monkeypatch.setattr(StructAlgebra, "adjoint_matrix", dense)
        monkeypatch.setattr(StructAlgebra, "left_mult_matrix", dense)
        monkeypatch.setattr(finite_algebra, "rational_eigenvalues",
                            lambda matrix: calls.append(matrix) or rational_eigenvalues(matrix))
        found = common_eigenvector(P)
        assert len(calls) == 2  # ad e1 and ad e2; every other adjoint is zero
        result = (annihilator(P), bracket_center(P), engel_operators_nilpotent(P),
                  found.vector, list(found.eigenvalues.items()))
        # [e2, e1] = -e1: ad e2 is not nilpotent
        assert (result[0].dim, result[1].dim) == (d - 1, d - 2)
        assert result[2] == (False, ("bracket", (1,)))
        assert all(type(lam) is Fraction for lam in found.eigenvalues.values())
        if d == 40:
            assert result == expected


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
        residue = sv_to_dense(I.reduce(sv_to_dense(value, P.dim)), P.dim)
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
            defects = Subspace.zero(nested.dim).adjoin(skew_defect_spans(nested))
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


def _entries(P):
    return [c for _, value in [*P.bracket_entries(), *P.product_entries()]
            for c in value.values()]


class TestScalarRule:
    """Structure constants, evaluations, operators and the output edges
    store scalars by the rule of ``ring``: an int when integral, a Fraction
    when not, never a bool or a float."""

    def test_entries_evaluations_and_operators(self, hypo, torus):
        P = StructAlgebra(3, 2, {(0, 1): {0: Fraction(4, 2), 2: Fraction(1, 2)}},
                          {(0, 0): [True, 0, Fraction(-3, 3)], (1, 2): {2: Fraction(2, 3)}})
        assert P.bracket_basis((0, 1)) == {0: 2, 2: Fraction(1, 2)}
        assert P.product_basis(0, 0) == {0: 1, 2: -1}
        x, y = {0: Fraction(3, 2), 1: 2}, {1: Fraction(1, 2), 2: 3}
        values = [*_entries(P), *P.bracket([x, y]).values(), *P.product(x, y).values()]
        for Q in (P, hypo, torus):
            values += _entries(Q)
            values += [c for row in Q.left_mult_matrix(x) for c in row]
            values += [c for i in range(Q.dim - Q.arity + 1)
                       for row in Q.adjoint_matrix([e(i + j) for j in range(Q.arity - 1)])
                       for c in row]
        values += _entries(parse_algebra("dim 2\narity 2\nbracket [1,2] = 2/2*e1 - 1/2*e2 + 1/2*e2\n"
                                         "product 1*1 = 4/6*e1 - 3*e2\n"))
        assert_scalar_rule(values)

    @pytest.mark.parametrize("call", [
        lambda: StructAlgebra(2, 2, {}, {(0, 0): [0.1, 0]}),
        lambda: StructAlgebra(2, 2, {(0, 1): {0: 2.0}}),
        lambda: quotient_algebra(fixture_hypo(), span(7, 6)).lift([0.5] + [0] * 5),
    ])
    def test_floats_raise(self, call):
        with pytest.raises(TypeError):
            call()

    def test_output_edges(self, hypo, torus):
        values = []
        for P in (hypo, torus, fixture_hypo(5, 7), fixture_torus(3, 4)):
            found = common_eigenvector(P)
            values += found.vector
            assert all(type(lam) is Fraction for lam in found.eigenvalues.values())
            values += [c for U in (nilradical(P), annihilator(P)) for row in U.basis for c in row]
        quo = quotient_algebra(hypo, span(7, 6))
        projected = quo.project((Fraction(1, 2), 2, Fraction(6, 3), 4, 5, 6, 7))
        lifted = quo.lift((Fraction(4, 2), True, 0, Fraction(1, 3), 1, 2))
        assert projected == (Fraction(1, 2), 2, 2, 4, 5, 6)
        assert lifted == (2, 1, 0, Fraction(1, 3), 1, 2, 0)
        assert_scalar_rule(values + list(projected) + list(lifted))


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

    @pytest.mark.parametrize("text, line", [
        ("dim 3\narity 2\nbracket [1,,2] = e1\n", 3),
        ("dim 3\narity 2\nbracket [0,1] = e1\n", 3),
        ("dim 3\narity 2\nbracket [1,4] = e1\n", 3),
        ("dim 3\narity 2\nbracket [1 2] = e1\n", 3),
        ("dim 3\narity 2\n\nproduct 0*1 = e1\n", 4),
        ("dim 3\narity 2\nproduct 1*4 = e1\n", 3),
        ("dim -3\narity 2\n", 1),
        ("dim 3\narity 1\n", 2),
    ])
    def test_bad_indices_and_headers_report_their_line(self, text, line):
        with pytest.raises(ParseError) as caught:
            parse_algebra(text)
        assert caught.value.line == line

    _numbers = st.integers(-2, 5).map(str) | st.sampled_from(
        ["", " ", "x", "1.5", "+1", "99999999999999999999", "\u0663"])
    _combinations = st.lists(st.sampled_from(
        ["e1", "e2", "e4", "e0", "2*e1", "-1/3*e2", "1/0*e1", "+", "-", " ", "0", "*", "x"]),
        min_size=1, max_size=4).map("".join)
    _lines = st.one_of(
        st.builds(lambda word, value: f"{word} {value}",
                  st.sampled_from(["dim", "arity"]), _numbers),
        st.builds(lambda key, combo: f"bracket [{key}] = {combo}",
                  st.lists(_numbers, max_size=4).map(",".join), _combinations),
        st.builds(lambda i, j, combo: f"product {i}*{j} = {combo}",
                  _numbers, _numbers, _combinations),
        st.sampled_from(["", "# comment", "dim 3", "arity 2", "arity 3"]),
        st.text(max_size=16),
    )

    @given(st.sampled_from(["", "dim 3\narity 2\n", "dim 4\narity 3\n"]),
           st.lists(_lines, max_size=8).map("\n".join))
    @settings(max_examples=400, deadline=None)
    def test_every_input_parses_or_raises_a_parse_error(self, headers, lines):
        """Any text ends in an algebra, which formats and parses back to
        itself, or in a ParseError; never in another exception."""
        text = headers + lines
        try:
            P = parse_algebra(text)
        except ParseError:
            return
        assert parse_algebra(format_algebra(P)) == P

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_format_then_parse_round_trips(self, data):
        dim = data.draw(st.integers(0, 5))
        arity = data.draw(st.integers(2, 3))
        vectors = st.dictionaries(
            st.integers(0, dim - 1),
            st.fractions(min_value=-4, max_value=4, max_denominator=5), max_size=3)
        brackets = data.draw(st.dictionaries(
            st.sampled_from(list(itertools.combinations(range(dim), arity)) or [()]),
            vectors, max_size=4)) if dim >= arity else {}
        products = data.draw(st.dictionaries(
            st.sampled_from(list(itertools.combinations_with_replacement(range(dim), 2))),
            vectors, max_size=4)) if dim else {}
        P = StructAlgebra(dim, arity, brackets, products)
        text = format_algebra(P)
        assert parse_algebra(text) == P
        assert format_algebra(parse_algebra(text)) == text
