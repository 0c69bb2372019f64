import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from poisson_nlie import constructions
from poisson_nlie.constructions import (
    DimensionBudgetError,
    _seed_epsilon,
    _seed_heisenberg,
    direct_sum,
    iterated_bracket,
    kernel_of_adjoint,
    leibniz_tensor_functor,
    poisson_quotient_tilde,
    random_poisson_n_lie,
    skew_defect_quotient,
    skew_defect_spans,
    tensor_poisson_n,
    truncated_power_algebra,
    unital_line,
    xu_tensor,
)
from poisson_nlie.finite_algebra import (
    InternalCheckError,
    StructAlgebra,
    _basis_operators,
    _fundamental_holds,
    abelian_algebra,
    annihilator,
    bracket_center,
    classify,
    common_eigenvector,
    engel_operators_nilpotent,
    fixture_hypo,
    fixture_torus,
    parse_algebra,
    solvable_flag,
    sv_to_dense,
    verify_axioms,
)
from poisson_nlie.jacobian_bracket import perm_sign
from poisson_nlie.subspaces import Subspace, _sv_accum

from oracles import (
    adjoint_images_by_lookup,
    annihilator_by_lookup,
    assert_scalar_rule,
    bracket_center_by_lookup,
    common_eigenspace_by_lookup,
    engel_by_lookup,
    kernel_of_adjoint_by_lookup,
    solvable_flag_by_lookup,
)

F1 = Fraction(1)


def e(i):
    return {i: F1}


def two_dim_poisson():
    """Unital 2-dim Poisson algebra with zero bracket: 1, x with x^2 = 0."""
    return StructAlgebra(2, 2, {}, {(0, 0): e(0), (0, 1): e(1)})


def line_bracket_3():
    return StructAlgebra(3, 3, {(0, 1, 2): e(0)})


def _tensor_by_full_scan(P, B):
    """Brackets and products of P (x) B, e_k (x) f_q at k * B.dim + q, over
    every increasing key and every index pair of the product space."""
    width = B.dim
    dim = P.dim * width

    def kron(x, y):
        return {l * width + s: cx * cy for l, cx in x.items() for s, cy in y.items()}

    def b_product(qs):
        acc = e(qs[0])
        for j in qs[1:]:
            nxt = {}
            for s, c in acc.items():
                for l, cl in B.product_basis(s, j).items():
                    nxt[l] = nxt.get(l, 0) + c * cl
            acc = {l: c for l, c in nxt.items() if c}
        return acc

    brackets = {}
    for key in itertools.combinations(range(dim), P.arity):
        x = P.bracket_basis([a // width for a in key])
        y = b_product([a % width for a in key])
        if x and y:
            brackets[key] = kron(x, y)
    products = {}
    for a, b in itertools.combinations_with_replacement(range(dim), 2):
        x = P.product_basis(a // width, b // width)
        y = B.product_basis(a % width, b % width)
        if x and y:
            products[(a, b)] = kron(x, y)
    return brackets, products


def _iterated_by_full_scan(P2, n):
    """The former iterated_bracket table: every basis n-tuple, nested from
    the right with multilinear brackets of unit vectors."""
    basis = [e(i) for i in range(P2.dim)]
    brackets = {}
    for key in itertools.product(range(P2.dim), repeat=n):
        inner = basis[key[-1]]
        for pos in range(n - 2, -1, -1):
            inner = P2.bracket([basis[key[pos]], inner])
            if not inner:
                break
        if inner:
            brackets[key] = inner
    return brackets


def _skew_defects_by_full_scan(P):
    """The former skew_defect_spans, as a set: every basis tuple and slot pair."""
    vectors = set()
    for key in itertools.product(range(P.dim), repeat=P.arity):
        for a, b in itertools.combinations(range(P.arity), 2):
            swapped = list(key)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            acc = dict(P.bracket_basis(key))
            for i, c in P.bracket_basis(tuple(swapped)).items():
                acc[i] = acc.get(i, 0) + c
            if any(acc.values()):
                vectors.add(sv_to_dense(acc, P.dim))
    return vectors


def _power_products_by_full_scan(L):
    """The former product table of the (n-1)-fold tensor power: every index
    pair a <= b, its slot products multiplied out."""
    d = L.dim
    tensors = list(itertools.product(range(d), repeat=L.arity - 1))
    products = {}
    for a, xs in enumerate(tensors):
        for b in range(a, len(tensors)):
            pieces = [L.product_basis(x, y) for x, y in zip(xs, tensors[b])]
            value = {}
            for combo in itertools.product(*(piece.items() for piece in pieces)):
                index, coeff = 0, F1
                for l, c in combo:
                    index, coeff = index * d + l, coeff * c
                value[index] = value.get(index, 0) + coeff
            value = {i: c for i, c in value.items() if c}
            if value:
                products[(a, b)] = value
    return products


LIE = StructAlgebra(2, 2, {(0, 1): e(1)}, {(0, 0): e(0), (0, 1): e(1)})


def _raw_cases():
    """The algebras of the quotient cases: the hypo fixture, seeded random
    instances, seeded raw (not alternating) algebras and iterated brackets."""
    from test_finite_algebra import _quotient_cases
    return [P for P, _ in _quotient_cases()]


def _binary_poisson_inputs():
    """Binary Poisson algebras: the fixed ones, truncated power algebras
    with and without the unit for k <= 6, and seeded random algebras of
    dim <= 3 that pass the axioms, four with a zero bracket and four not."""
    inputs = [two_dim_poisson(), unital_line(), StructAlgebra(2, 2, {(0, 1): e(1)})]
    inputs += [truncated_power_algebra(k, unital) for k in range(1, 7) for unital in (False, True)]
    rng = random.Random(11)
    values = [1, -1, 2, Fraction(1, 2)]
    found = {False: [], True: []}  # by whether the bracket is nonzero
    while min(map(len, found.values())) < 4:
        d = rng.randint(1, 3)
        keys = list(itertools.combinations(range(d), 2))
        pairs = list(itertools.combinations_with_replacement(range(d), 2))
        P = StructAlgebra(d, 2, {
            key: {rng.randrange(d): rng.choice(values)}
            for key in rng.sample(keys, rng.randint(0, len(keys)))}, {
            pair: {rng.randrange(d): rng.choice(values)}
            for pair in rng.sample(pairs, rng.randint(1, len(pairs)))})
        kind = found[bool(dict(P.bracket_entries()))]
        if len(kind) < 4 and verify_axioms(P).all_pass and P not in inputs + kind:
            kind.append(P)
    return inputs + found[False] + found[True]


class TestTensorPoissonN:
    def test_unital_line_factor_is_identity(self, hypo):
        line = StructAlgebra(1, 4, {}, {(0, 0): e(0)})
        result = tensor_poisson_n(hypo, line)
        assert result.algebra.dim == hypo.dim
        assert dict(result.algebra.bracket_entries()) == dict(hypo.bracket_entries())
        assert dict(result.algebra.product_entries()) == dict(hypo.product_entries())

    def test_zero_product_factor_kills_everything(self, hypo):
        dead = StructAlgebra(2, 4)
        result = tensor_poisson_n(hypo, dead)
        assert not dict(result.algebra.bracket_entries())
        assert not dict(result.algebra.product_entries())

    def test_nilpotent_square_factor(self, hypo):
        B = StructAlgebra(2, 4, {}, {(0, 0): e(1)})
        result = tensor_poisson_n(hypo, B)
        assert result.algebra.dim == 14
        # the constructor asserted the verification suite already
        assert verify_axioms(result.algebra).all_pass

    def test_index_bookkeeping(self, hypo):
        B = StructAlgebra(2, 4, {}, {(0, 0): e(1)})
        result = tensor_poisson_n(hypo, B)
        a = result.index(3, 0)
        b = result.index(4, 0)
        value = result.algebra.product_basis(a, b)
        assert value == {result.index(6, 1): F1}  # (e4 x f1).(e5 x f1) = e7 x f2

    def test_pairs_stored_entries_like_the_full_scan(self, hypo, monkeypatch):
        """The 49-dim hypo (x) x..x^7 at arity 4 equals the scan over every
        increasing key and index pair of the product space, and is built
        (its verification aside) in well under that scan's time."""
        T = truncated_power_algebra(7)
        B = StructAlgebra(T.dim, 4, {}, dict(T.product_entries()))
        monkeypatch.setattr(constructions, "_require_verified", lambda P, label: None)
        started = time.perf_counter()
        result = tensor_poisson_n(hypo, B).algebra
        elapsed = time.perf_counter() - started
        monkeypatch.undo()
        brackets, products = _tensor_by_full_scan(hypo, B)
        assert (len(brackets), len(products)) == (105, 21)
        assert dict(result.bracket_entries()) == brackets
        assert dict(result.product_entries()) == products
        assert elapsed < 0.3
        assert verify_axioms(result).all_pass

    def test_rejects_nonzero_bracket_factor(self, hypo):
        bad = StructAlgebra(4, 4, {(0, 1, 2, 3): e(0)})
        with pytest.raises(ValueError):
            tensor_poisson_n(hypo, bad)


class TestXuTensor:
    def test_unital_factor_is_identity(self):
        P = two_dim_poisson()
        result = xu_tensor(P, unital_line())
        assert dict(result.algebra.product_entries()) == dict(P.product_entries())
        assert dict(result.algebra.bracket_entries()) == dict(P.bracket_entries())

    def test_abelian_factors_stay_abelian(self):
        P = StructAlgebra(2, 2)
        result = xu_tensor(P, P)
        assert not dict(result.algebra.bracket_entries())
        assert not dict(result.algebra.product_entries())

    def test_two_dim_square(self):
        P = two_dim_poisson()
        result = xu_tensor(P, P)
        assert result.algebra.dim == 4
        assert verify_axioms(result.algebra).all_pass

    def test_rejects_higher_arity(self, hypo):
        with pytest.raises(ValueError):
            xu_tensor(hypo, two_dim_poisson())

    def test_outputs_pass_the_axioms(self, monkeypatch):
        """A tensor product of Poisson algebras is Poisson, so the output is
        not verified again: only the two factors are, and the oracle passes
        the output of every pair of binary Poisson inputs."""
        inputs = _binary_poisson_inputs()
        verified = []
        monkeypatch.setattr(constructions, "_require_verified",
                            lambda P, label: verified.append(label))
        xu_tensor(two_dim_poisson(), unital_line())
        assert verified == ["left factor", "right factor"]
        monkeypatch.undo()
        for P1, P2 in itertools.product(inputs, repeat=2):
            assert verify_axioms(xu_tensor(P1, P2).algebra).all_pass, (P1, P2)


class TestIteratedBracket:
    def test_abelian_stays_abelian(self):
        result = iterated_bracket(StructAlgebra(2, 2), 3)
        assert not dict(result.bracket_entries())

    def test_two_dim_lie_nesting(self):
        L = StructAlgebra(2, 2, {(0, 1): e(1)})
        result = iterated_bracket(L, 3)
        assert result.bracket_basis((0, 0, 1)) == e(1)   # [e1,[e1,e2]]
        assert result.bracket_basis((0, 1, 0)) == {1: -F1}
        assert result.bracket_basis((0, 1, 1)) == {}     # inner [e2,e2] = 0
        report = verify_axioms(result)
        assert report.fundamental
        # a repeated-argument bracket with a nonzero value breaks skewness
        assert not report.skew and report.witnesses["skew"] == (0, 0, 1)

    def test_arity_guard(self, hypo):
        with pytest.raises(ValueError):
            iterated_bracket(hypo, 3)

    @pytest.mark.parametrize("P2, n", [
        (LIE, 2), (LIE, 3), (LIE, 4), (LIE, 5),
        (xu_tensor(StructAlgebra(2, 2, {(0, 1): e(1)}), two_dim_poisson()).algebra, 3),
        (xu_tensor(StructAlgebra(2, 2, {(0, 1): e(1)}), two_dim_poisson()).algebra, 4),
    ], ids=["lie-2", "lie-3", "lie-4", "lie-5", "xu-3", "xu-4"])
    def test_matches_the_full_scan(self, P2, n):
        result = iterated_bracket(P2, n)
        expected = _iterated_by_full_scan(P2, n)
        assert expected
        # same entries in the same (lexicographic) order
        assert list(result.bracket_entries()) == list(expected.items())

    def test_raw_tables_match_the_full_scan(self, monkeypatch):
        """Raw binary brackets mostly lose the fundamental identity, so the
        check is switched off to compare the tables alone."""
        monkeypatch.setattr(constructions, "_fundamental_cases", lambda P: [])
        binaries = [P for P in _raw_cases() if P.arity == 2]
        assert len(binaries) >= 10
        for P in binaries:
            for n in (3, 4):
                result = iterated_bracket(P, n)
                assert list(result.bracket_entries()) == list(
                    _iterated_by_full_scan(P, n).items())


class TestSkewDefectQuotient:
    def test_already_skew_gives_trivial_ideal(self, hypo):
        quo = skew_defect_quotient(StructAlgebra(
            hypo.dim, hypo.arity, dict(hypo.bracket_entries()),
            dict(hypo.product_entries())))
        assert quo.ideal.is_zero()
        assert quo.algebra.dim == hypo.dim

    def test_iterated_nesting_quotient(self):
        L = StructAlgebra(2, 2, {(0, 1): e(1)})
        nested = iterated_bracket(L, 3)
        quo = skew_defect_quotient(nested)
        assert verify_axioms(quo.algebra).all_pass
        # the skew defects really are the zero coset downstairs
        for vec in skew_defect_spans(nested):
            assert quo.ideal.contains(vec)

    def test_spans_are_the_distinct_defects_of_the_full_scan(self):
        cases = _raw_cases() + [iterated_bracket(LIE, n) for n in (3, 4, 5)]
        found = 0
        for P in cases:
            spans = skew_defect_spans(P)
            dense = [sv_to_dense(v, P.dim) for v in spans]
            assert sorted(dense) == sorted(_skew_defects_by_full_scan(P))
            assert len(set(dense)) == len(dense)
            assert spans == sorted(spans, key=lambda v: sorted(v.items()))
            found += len(spans)
        assert found >= 50

    def test_pipeline_from_xu_square(self):
        P = two_dim_poisson()
        tensored = xu_tensor(P, P)
        nested = iterated_bracket(tensored.algebra, 3)
        quo = skew_defect_quotient(nested)
        assert verify_axioms(quo.algebra).all_pass
        assert quo.algebra.dim >= 1


def _power_by_formula(L):
    """The (n-1)-fold tensor power with [x, y] = sum over slots of y with
    [x_1, ..., x_{n-1}, y_slot] in that slot, bracketing in L directly
    (once per (x, y_slot))."""
    tensors = list(itertools.product(range(L.dim), repeat=L.arity - 1))
    index = {t: a for a, t in enumerate(tensors)}
    brackets = {}
    images = {}
    for (a, xs), (b, ys) in itertools.product(enumerate(tensors), repeat=2):
        acc = {}
        for slot, y in enumerate(ys):
            if (xs, y) not in images:
                images[xs, y] = L.bracket([e(i) for i in xs] + [e(y)])
            for l, c in images[xs, y].items():
                target = index[ys[:slot] + (l,) + ys[slot + 1:]]
                acc[target] = acc.get(target, 0) + c
        brackets[(a, b)] = acc
    return StructAlgebra(len(tensors), 2, brackets, skew=False)


def _power_by_scan(L):
    """The former bracket table of the tensor power: every b for every a
    with a nonzero adjoint, its slots in order, cancelled entries dropped;
    as (key, [(index, coefficient), ...]) in the order of the scan."""
    n, d = L.arity, L.dim
    dim = d ** (n - 1)
    images = adjoint_images_by_lookup(L)
    places = [d ** (n - 2 - slot) for slot in range(n - 1)]
    table = []
    for a in (a for a in range(dim) if any(images[a])):
        for b in range(dim):
            acc = {}
            for place in places:
                y = b // place % d
                for l, c in images[a][y].items():
                    k = b + (l - y) * place
                    value = acc[k] + c if k in acc else c
                    if value:
                        acc[k] = value
                    else:
                        del acc[k]
            if acc:
                table.append(((a, b), list(acc.items())))
    return table


# at b = (0, 1, 0) the first two slots cancel the entry at b and the third
# adds it again, after the entry (1, 1, 0) the first slot made
CANCEL_AND_READD = StructAlgebra(2, 4, {(0, 0, 0, 0): {0: 1, 1: 2}, (0, 0, 0, 1): {1: -1}},
                                 skew=False)


def _bracket_part(P):
    return StructAlgebra(P.dim, P.arity, dict(P.bracket_entries()), skew=P.skew)


def _certificate_cases():
    """Distinct Ls for the certificate: the fixtures' bracket parts, the
    raw cases, the bracket parts of random_poisson_n_lie(0..149), stored
    alternating and as raw tensors, and seeded breakages of each: one more
    alternating entry, or only the sorted keys stored raw."""
    rng = random.Random(5)
    values = [1, -1, 2, Fraction(1, 2)]
    cases = [_bracket_part(fixture_hypo()), _bracket_part(fixture_torus()),
             parse_algebra(NOT_FUNDAMENTAL_9)] + _raw_cases()
    for seed in range(150):
        P = _bracket_part(random_poisson_n_lie(seed)[0])
        brackets = dict(P.bracket_entries())
        tensor = {perm: {i: perm_sign(perm) * c for i, c in value.items()}
                  for key, value in brackets.items() for perm in itertools.permutations(key)}
        cases += [P, StructAlgebra(P.dim, 3, tensor, skew=False),
                  StructAlgebra(P.dim, 3, brackets, skew=False)]
        if P.dim >= 3:
            key = tuple(sorted(rng.sample(range(P.dim), 3)))
            cases.append(StructAlgebra(P.dim, 3, {
                **brackets, key: {rng.randrange(P.dim): rng.choice(values)}}))
    distinct = []
    for L in cases:
        if L not in distinct:
            distinct.append(L)
    return distinct


def _first_leibniz_failure(R):
    """The brute-force oracle: the first basis triple breaking the left
    Leibniz identity, over all dim^3 triples."""
    for x, y, z in itertools.product(range(R.dim), repeat=3):
        if not _fundamental_holds(R, (x,), (y, z)):
            return (x, y, z)
    return None


def _first_operator_failure(L):
    """The first basis pair (x, y), in sorted order over every stored pair
    and every pair of nonzero adjoints, at which [ad_x, ad_y] = ad_[x,y]
    fails on L, with every image added, zero or not: the operator check
    that once named the refused pair, before it skipped pairs and images
    that add nothing and before the identity's first failing case named it."""
    images = adjoint_images_by_lookup(L)
    live = [a for a in range(len(images)) if any(images[a])]
    stored = {}
    for key, value in _power_by_formula(L).bracket_entries():
        value = {i: c for i, c in value.items() if c}
        if value:
            stored[key] = value
    for x, y in sorted(set(stored) | set(itertools.product(live, repeat=2))):
        value = stored.get((x, y), {})
        for j in range(L.dim):
            lhs, rhs = {}, {}
            for l, c in images[y][j].items():
                _sv_accum(lhs, images[x][l], c)
            for l, c in images[x][j].items():
                _sv_accum(rhs, images[y][l], c)
            for a, c in value.items():
                _sv_accum(rhs, images[a][j], c)
            if lhs != rhs:
                return (x, y)
    return None


# fails the fundamental identity at ((1, 5), (2, 3, 4)); its 81-dim power
# breaks the Leibniz identity on 816 of 531,441 basis triples
NOT_FUNDAMENTAL_9 = """dim 9
arity 3
bracket [1,2,6] = 2*e7
bracket [3,4,5] = 2*e1
"""


class TestLeibnizTensorFunctor:
    def test_abelian_gives_zero_bracket(self):
        L = abelian_algebra(2, 3)
        result = leibniz_tensor_functor(L)
        assert not dict(result.bracket_entries())

    def test_small_instance_exhaustive(self):
        L = line_bracket_3()
        result = leibniz_tensor_functor(L)
        assert result.dim == 9
        # Leibniz identity exhaustively (the constructor already asserted it)
        for x, y, z in itertools.product(range(9), repeat=3):
            assert _fundamental_holds(result, (x,), (y, z))

    @pytest.mark.parametrize("L", [
        line_bracket_3(), _seed_epsilon(), _seed_heisenberg(Fraction(2)),
        abelian_algebra(3, 3),
    ], ids=["line", "epsilon", "heisenberg", "abelian"])
    def test_operator_check_agrees_with_the_triple_oracle(self, L):
        expected = _power_by_formula(L)
        assert expected.dim <= 64
        assert _first_leibniz_failure(expected) is None
        result = leibniz_tensor_functor(L)
        assert dict(result.bracket_entries()) == dict(expected.bracket_entries())

    def test_operator_check_refuses_exactly_what_the_triple_oracle_refuses(self):
        rng = random.Random(1)
        outcomes = set()
        for _ in range(40):
            d, n = rng.choice([(3, 3), (4, 3), (5, 3)])
            keys = list(itertools.combinations(range(d), n))
            L = StructAlgebra(d, n, {
                key: {rng.randrange(d): Fraction(rng.choice([-2, -1, 1, 2]))}
                for key in rng.sample(keys, rng.randint(1, len(keys)))})
            failing = _first_leibniz_failure(_power_by_formula(L)) is not None
            try:
                leibniz_tensor_functor(L)
                refused = False
            except InternalCheckError:
                refused = True
            assert refused == failing == (not verify_axioms(L).fundamental)
            outcomes.add(refused)
        assert outcomes == {True, False}

    def test_refuses_at_the_first_pair_of_the_all_pairs_check(self):
        """The identity's first failing case names the first failing pair:
        seeded algebras, some breaking the identity, refuse at the pair the
        all-pairs operator check names."""
        rng = random.Random(7)
        refused = 0
        # [e0, e2] = e0 fails first at (0, 2), where y = e2 has a zero
        # adjoint but [x, y] = e0 does not
        inputs = [parse_algebra(NOT_FUNDAMENTAL_9),
                  StructAlgebra(5, 2, {(0, 3): e(2), (1, 4): e(3)}, skew=False),
                  StructAlgebra(5, 2, {(0, 2): e(0)}, skew=False),
                  StructAlgebra(2, 2, {(1, 1): {0: -1}, (1, 0): {1: -2}}, skew=False)]
        for _ in range(30):
            d, n = rng.choice([(3, 3), (4, 3), (5, 3), (4, 2), (4, 4)])
            keys = list(itertools.combinations(range(d), n))
            inputs.append(StructAlgebra(d, n, {
                key: {rng.randrange(d): rng.choice([-2, -1, 1, Fraction(1, 2)])}
                for key in rng.sample(keys, rng.randint(1, len(keys)))}))
        for L in inputs:
            expected = _first_operator_failure(L)
            if expected is None:
                leibniz_tensor_functor(L)
                continue
            with pytest.raises(InternalCheckError) as raised:
                leibniz_tensor_functor(L)
            assert str(raised.value).endswith(f"Leibniz identity at {expected}")
            refused += 1
        assert 5 < refused < len(inputs), refused

    def test_refuses_a_failure_only_a_pair_of_nonzero_adjoints_shows(self):
        # [a, d] = c and [b, f] = d: every stored pair holds, but a and b do
        # not bracket while ad_a ad_b maps e_f to e_c, so
        # [a, [b, f]] = c differs from [[a, b], f] + [b, [a, f]] = 0
        L = StructAlgebra(5, 2, {(0, 3): e(2), (1, 4): e(3)}, skew=False)
        assert _first_leibniz_failure(_power_by_formula(L)) == (0, 1, 4)
        with pytest.raises(InternalCheckError, match=r"Leibniz identity at \(0, 1\)"):
            leibniz_tensor_functor(L)

    def test_refuses_an_81_dim_power_that_breaks_the_leibniz_identity(self):
        L = parse_algebra(NOT_FUNDAMENTAL_9)
        assert _first_leibniz_failure(_power_by_formula(L)) == (14, 21, 4)
        with pytest.raises(InternalCheckError, match=r"Leibniz identity at \(14, 21\)"):
            leibniz_tensor_functor(L)

    def test_kernel_of_adjoint_is_a_leibniz_ideal(self):
        L = line_bracket_3()
        tilde = leibniz_tensor_functor(L)
        ker = kernel_of_adjoint(L)
        assert 0 < ker.dim < 9
        basis = [dict((i, c) for i, c in enumerate(row) if c) for row in ker.basis]
        for kv in basis:
            for j in range(9):
                left = tilde.bracket([kv, e(j)])
                right = tilde.bracket([e(j), kv])
                assert ker.contains(sv_to_dense(left, 9))
                assert ker.contains(sv_to_dense(right, 9))

    def test_kernel_of_adjoint_of_a_zero_dimensional_algebra(self):
        assert kernel_of_adjoint(StructAlgebra(0, 3)) == Subspace.zero(0)

    def test_budget_guard(self, hypo):
        L = StructAlgebra(9, 4, dict(hypo.bracket_entries()))  # a 729-dim power
        with pytest.raises(DimensionBudgetError):
            leibniz_tensor_functor(L)

    @pytest.mark.parametrize("L", [
        fixture_hypo(), line_bracket_3(), abelian_algebra(3, 3),
        StructAlgebra(3, 3, {}, {(0, 0): e(1), (0, 1): {1: F1, 2: -F1}, (2, 2): e(2)}),
    ], ids=["hypo", "line", "abelian", "abelian-with-product"])
    def test_tables_match_the_references(self, L):
        result = leibniz_tensor_functor(L, with_product=True)
        assert list(result.product_entries()) == list(_power_products_by_full_scan(L).items())
        expected = _power_by_formula(L)
        assert list(result.bracket_entries()) == list(expected.bracket_entries())

    def test_certificate_agrees_with_the_operator_check(self, monkeypatch):
        """L's fundamental identity decides the power's Leibniz identity: on
        every certificate case ``verify_axioms(L).fundamental`` holds exactly
        when the all-pairs operator check finds no failing pair.  A passing
        L adds no images (``_sv_accum`` is not called); a failing L is
        refused at the pair that check names, read from the first failing
        case of the identity."""
        def refuse(acc, sv, scale):
            raise AssertionError("an image was added")

        outcomes = Counter()
        for L in _certificate_cases():
            expected = _first_operator_failure(L)
            certified = verify_axioms(L).fundamental
            assert certified == (expected is None), L
            outcomes[certified, L.skew] += 1
            if certified:
                with monkeypatch.context() as patched:
                    patched.setattr(constructions, "_sv_accum", refuse)
                    leibniz_tensor_functor(L, with_product=True)
                continue
            with pytest.raises(InternalCheckError) as raised:
                leibniz_tensor_functor(L)
            assert str(raised.value) == (
                f"tensor-power bracket lost the Leibniz identity at {expected}")
        assert min(outcomes.values()) >= 20, outcomes

    def test_tables_match_the_formula_on_every_certificate_case(self, monkeypatch):
        """The bracket table, built from the nonzero adjoint images, equals
        the formula, keys in the same order, and the former scan over every
        (a, b, slot), each vector's entries in the same order too, whether
        or not L passes.  Only an entry cancelled and added again comes
        later than in the formula."""
        monkeypatch.setattr(constructions, "_fundamental_holds", lambda L, xs, ys: True)
        for L in _certificate_cases() + [CANCEL_AND_READD]:
            result = leibniz_tensor_functor(L)
            entries = [(key, list(value.items())) for key, value in result.bracket_entries()]
            assert entries == _power_by_scan(L), L
            assert list(result.bracket_entries()) == list(_power_by_formula(L).bracket_entries())
            if L is CANCEL_AND_READD:
                assert list(result.bracket_basis((0, 2)).items()) == [(6, 2), (2, 1), (3, 2)]

    def test_raw_product_tables_match_the_full_scan(self):
        """The product table alone, on the raw cases with their brackets
        dropped (most raw brackets fail the Leibniz check)."""
        ternaries = [P for P in _raw_cases() if P.arity == 3]
        assert len(ternaries) >= 10
        for P in ternaries:
            L = StructAlgebra(P.dim, 3, {}, dict(P.product_entries()), skew=P.skew)
            result = leibniz_tensor_functor(L, with_product=True)
            assert list(result.product_entries()) == list(
                _power_products_by_full_scan(L).items())

    def test_large_instance_checked_on_adjoint_operators(self, hypo):
        L = StructAlgebra(7, 4, dict(hypo.bracket_entries()))
        result = leibniz_tensor_functor(L)  # 343-dim, certified by L's fundamental identity
        assert result.dim == 343
        ker = kernel_of_adjoint(L)
        assert ker.dim == 343 - 10  # ad has rank 10 on this fixture
        # ideal property spot-checked through the adjoint homomorphism rule
        rng = random.Random(5)
        basis = [dict((i, c) for i, c in enumerate(row) if c) for row in ker.basis]
        for _ in range(8):
            kv = rng.choice(basis)
            j = rng.randrange(343)
            assert ker.contains(sv_to_dense(result.bracket([kv, e(j)]), 343))
            assert ker.contains(sv_to_dense(result.bracket([e(j), kv]), 343))


    def test_each_adjoint_image_is_bracketed_once(self, hypo, monkeypatch):
        """The 343-dim power and its Ker(ad) bracket each image [x_a, e_j]
        at most once (one bracket per (a, b, slot) made 352,947 calls); read
        from the stored entries, no image is bracketed at all."""
        L = StructAlgebra(7, 4, dict(hypo.bracket_entries()))
        calls = []
        original = StructAlgebra.bracket

        def counted(self, vectors):
            calls.append(self)
            return original(self, vectors)

        monkeypatch.setattr(StructAlgebra, "bracket", counted)
        leibniz_tensor_functor(L)
        assert calls == []
        kernel_of_adjoint(L)
        assert calls == []


class TestBasisOperatorsMatchTheLookups:
    """Every result read from the basis operators equals the former path,
    which looked up every basis tuple and formed every operator, zero ones
    included (``tests/oracles.py``): on the fixtures, on
    random_poisson_n_lie(0..299) and on every certificate case."""

    @staticmethod
    def inputs():
        algebras = [fixture_hypo(), fixture_torus(), fixture_torus(3, 4)]
        algebras += [random_poisson_n_lie(seed)[0] for seed in range(300)]
        return algebras + _certificate_cases()

    def test_eigen_tools(self):
        seen = Counter()
        for P in self.inputs():
            assert annihilator(P) == annihilator_by_lookup(P), P
            assert bracket_center(P) == bracket_center_by_lookup(P), P
            witness = engel_operators_nilpotent(P)
            assert witness == engel_by_lookup(P), P
            seen["engel", witness[1] and witness[1][0]] += 1
            if not classify(P).solvable:
                continue
            found, expected = common_eigenvector(P), common_eigenspace_by_lookup(P)
            seen["eigenvector", found is not None] += 1
            if expected is None:
                assert found is None, P
            else:
                assert found.vector == sv_to_dense(expected[0].rows[0], P.dim), P
                # every tuple in order, each eigenvalue a Fraction as
                # rational_eigenvalues gives it, the zero adjoints' too
                assert list(found.eigenvalues.items()) == list(expected[1].items()), P
                assert all(type(lam) is Fraction for lam in found.eigenvalues.values()), P
                if any(found.eigenvalues.values()):
                    seen["nonzero eigenvalue"] += 1
            if verify_axioms(P).all_pass:  # else a line need not be an ideal
                flag = solvable_flag(P)
                assert flag == solvable_flag_by_lookup(P), P
                seen["flag", flag is not None] += 1
        assert len(seen) == 8 and min(seen.values()) >= 5, seen

    def test_tensor_power_and_kernel_of_adjoint(self, monkeypatch):
        """The power's bracket table, entry by entry and in order, and
        Ker(ad), both without one ``bracket_basis`` lookup (the identity
        check is made to pass, so failing Ls are built too).  Neither the
        order of the operators nor that of their columns reaches them: each
        b takes one column per slot, and the tuples are walked sorted."""
        def lookup(self, idxs):
            raise AssertionError("a basis tuple was looked up")

        def reversed_operators(L):
            return {xs: dict(reversed(columns.items()))
                    for xs, columns in reversed(_basis_operators(L).items())}

        monkeypatch.setattr(constructions, "_fundamental_holds", lambda L, xs, ys: True)
        built = 0
        for L in self.inputs():
            expected = (_power_by_scan(L), kernel_of_adjoint_by_lookup(L))
            for reader in (_basis_operators, reversed_operators):
                with monkeypatch.context() as patched:
                    patched.setattr(StructAlgebra, "bracket_basis", lookup)
                    patched.setattr(constructions, "_basis_operators", reader)
                    power = leibniz_tensor_functor(L)
                    entries = [(key, list(value.items())) for key, value in power.bracket_entries()]
                    assert (entries, kernel_of_adjoint(L)) == expected, L
            built += bool(entries)
        assert built >= 300, built


class TestPoissonQuotientTilde:
    def test_abelian_quotient_is_the_full_power(self):
        P = abelian_algebra(2, 3)
        quo = poisson_quotient_tilde(P)
        assert quo.algebra.dim == 4
        assert verify_axioms(quo.algebra).all_pass

    def test_small_three_lie_instance(self):
        P = line_bracket_3()
        quo = poisson_quotient_tilde(P)
        assert quo.parent.dim == 9
        report = verify_axioms(quo.algebra)
        assert report.all_pass
        # the symmetrized-bracket generators sit inside Ker(ad)
        ker = kernel_of_adjoint(P)
        defects = Subspace.zero(9).adjoin(skew_defect_spans(
            leibniz_tensor_functor(P, with_product=True)))
        assert ker.contains_subspace(defects)

    def test_instance_with_products(self):
        # [e2,e3,e4] = e1 with e2.e2 = e1: the bracket value annihilates
        # everything, so the Leibniz rule survives the product
        P = StructAlgebra(4, 3, {(1, 2, 3): e(0)}, {(1, 1): e(0)})
        assert verify_axioms(P).all_pass
        quo = poisson_quotient_tilde(P)
        assert verify_axioms(quo.algebra).all_pass

    def test_zero_dimensional_algebra(self):
        quo = poisson_quotient_tilde(StructAlgebra(0, 3))
        assert quo.parent.dim == quo.algebra.dim == 0 and quo.ideal == Subspace.zero(0)

    def test_no_empty_vector_is_accumulated(self, monkeypatch):
        """Every caller of ``_sv_accum`` skips a vector with nothing to add:
        8,823 of 50,909 calls added an empty one on this input."""
        from poisson_nlie import finite_algebra, subspaces

        calls = []

        def counting(acc, sv, scale):
            calls.append(len(sv))
            return _sv_accum(acc, sv, scale)

        for module in (subspaces, finite_algebra, constructions):
            monkeypatch.setattr(module, "_sv_accum", counting)
        poisson_quotient_tilde(fixture_hypo())
        assert calls and calls.count(0) == 0


class TestHelpers:
    def test_truncated_power_algebra(self):
        B = truncated_power_algebra(3)
        assert B.dim == 3
        assert B.product_basis(0, 1) == e(2)  # x.x^2 = x^3
        assert B.product_basis(1, 2) == {}
        unital = truncated_power_algebra(2, unital=True)
        assert unital.product_basis(0, 0) == e(0)
        assert verify_axioms(unital).all_pass

    def test_direct_sum(self):
        P = direct_sum(line_bracket_3(), line_bracket_3())
        assert P.dim == 6
        assert P.bracket_basis((3, 4, 5)) == {3: F1}
        assert verify_axioms(P).all_pass


class TestRandomInstances:
    def test_deterministic_and_verified(self):
        for seed in range(20):
            P1, desc1 = random_poisson_n_lie(seed)
            P2, desc2 = random_poisson_n_lie(seed)
            assert desc1 == desc2 and P1 == P2
            assert P1.dim <= 6 and P1.arity == 3
            assert verify_axioms(P1).all_pass

    def test_variety(self):
        descriptions = {random_poisson_n_lie(seed)[1] for seed in range(20)}
        assert len(descriptions) >= 4


def _entries(P):
    return [c for _, value in [*P.bracket_entries(), *P.product_entries()]
            for c in value.values()]


class TestScalarRule:
    def test_construction_outputs(self, hypo):
        """Every construction stores its constants by the rule of ``ring``:
        an int when integral, a Fraction when not.  Rational factors whose
        products are integral (1/2 times 2) are among the inputs."""
        half = StructAlgebra(1, 2, {}, {(0, 0): {0: Fraction(1, 2)}})
        two = StructAlgebra(1, 2, {}, {(0, 0): {0: 2}})
        lie = StructAlgebra(2, 2, {(0, 1): {1: Fraction(3, 2)}})
        B = truncated_power_algebra(2, unital=True)
        B3 = StructAlgebra(B.dim, 3, {}, dict(B.product_entries()))
        line = StructAlgebra(3, 3, {(0, 1, 2): {0: Fraction(2, 3)}})
        xu = xu_tensor(half, two).algebra
        assert dict(xu.product_entries()) == {(0, 0): {0: 1}}
        algebras = [xu, xu_tensor(two_dim_poisson(), two_dim_poisson()).algebra,
                    tensor_poisson_n(line, B3).algebra, tensor_poisson_n(_seed_heisenberg(3), B3).algebra,
                    iterated_bracket(lie, 3), skew_defect_quotient(iterated_bracket(lie, 3)).algebra,
                    leibniz_tensor_functor(line, with_product=True),
                    poisson_quotient_tilde(hypo).algebra, poisson_quotient_tilde(line).algebra,
                    unital_line(), truncated_power_algebra(4), direct_sum(line, line_bracket_3())]
        algebras += [random_poisson_n_lie(seed)[0] for seed in range(30)]
        values = [c for P in algebras for c in _entries(P)]
        values += [c for row in kernel_of_adjoint(line).rows for c in row.values()]
        values += [c for row in skew_defect_spans(iterated_bracket(lie, 4)) for c in row.values()]
        assert any(type(c) is Fraction for c in values)
        assert_scalar_rule(values)
