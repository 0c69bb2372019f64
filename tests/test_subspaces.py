import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_nlie.subspaces import (
    Subspace,
    _sv,
    _sv_accum,
    char_poly,
    det_fraction,
    is_nilpotent_matrix,
    kernel,
    mat_pow,
    rational_eigenvalues,
    rational_roots,
    rref,
    shift_diagonal,
    sv_to_dense,
    unit_vector,
)

from oracles import (
    adjoin_by_rref,
    assert_scalar_rule,
    fraction_rref,
    mat_sub,
    mat_vec,
    scale_matrix,
)

small = st.integers(-4, 4).map(Fraction)
vectors4 = st.tuples(small, small, small, small)


def _dense_rref(rows):
    """The former dense elimination, kept as the reference for ``rref``."""
    work = [list(Fraction(v) for v in row) for row in rows]
    if not work:
        return (), ()
    pivots = []
    rank = 0
    for col in range(len(work[0])):
        pivot_row = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [inv * v for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return tuple(tuple(row) for row in work[:rank]), tuple(pivots)


def _dense(rows, ncols):
    return tuple(sv_to_dense(row, ncols) for row in rows)


def _kernel_two_step(matrix):
    """The former kernel, kept as the reference: null vectors from a
    first-to-last dense elimination, then reduced a second time."""
    reduced, pivots = _dense_rref(matrix)
    ncols = len(matrix[0])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return Subspace.from_vectors(ncols, basis)


def _intersection_two_step(U, V):
    """The former intersection: the right halves of the zero-left Zassenhaus
    rows of a dense elimination, reduced a second time."""
    d = U.ambient
    stacked = [list(row) + list(row) for row in U.basis]
    stacked += [list(row) + [Fraction(0)] * d for row in V.basis]
    reduced, _ = _dense_rref(stacked)
    return Subspace.from_vectors(d, [row[d:] for row in reduced if not any(row[:d])])


def _row_lists(ncols):
    """Rows of width ``ncols``, with zero rows and repeats mixed in."""
    row = st.lists(st.integers(-3, 3).map(Fraction), min_size=ncols, max_size=ncols)
    rows = st.lists(st.one_of(row, st.just([Fraction(0)] * ncols)), max_size=6)
    return rows.flatmap(lambda rs: st.permutations(rs + rs[:2]))


class TestSparseRref:
    @given(st.integers(1, 6).flatmap(lambda c: st.tuples(st.just(c), _row_lists(c))),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_dense_reference(self, case, as_dicts):
        ncols, rows = case
        given_rows = [{i: v for i, v in enumerate(row) if v} if as_dicts else row
                      for row in rows]
        reduced, pivots = rref(given_rows)
        assert (_dense(reduced, ncols), pivots) == _dense_rref(rows)
        assert all(all(c for c in row.values()) for row in reduced)
        assert all(min(row) == p and row[p] == 1 for row, p in zip(reduced, pivots))

    def test_input_rows_are_only_read(self):
        rows = [{0: Fraction(2), 1: Fraction(1)}, {0: Fraction(1), 2: Fraction(1)}]
        copies = [dict(row) for row in rows]
        U = Subspace.zero(3).adjoin(rows)
        U.sum(Subspace.from_vectors(3, [(0, 1, 1)]))
        U.intersection(Subspace.full(3))
        U.reduce(rows[0])
        assert rows == copies
        assert _dense(U.rows, 3) == U.basis == ((1, 0, 1), (0, 1, -2))

    def test_sequences_and_dicts_give_equal_subspaces(self):
        dense = [(0, 2, 4), (1, 0, 0), (1, 2, 4)]
        sparse = [{i: Fraction(v) for i, v in enumerate(row) if v} for row in dense]
        assert Subspace.from_vectors(3, dense) == Subspace.zero(3).adjoin(sparse)
        assert Subspace.from_vectors(3, dense).rows == ({0: 1}, {1: 1, 2: 2})

    def test_reduce_returns_the_sparse_residue(self):
        U = Subspace.from_vectors(3, [(1, 0, 1)])
        assert U.reduce((2, 3, 2)) == {1: 3}
        assert U.reduce({0: Fraction(1)}) == {2: -1}
        assert U.reduce((1, 0, 1)) == {}


def _random_rows(rng, integral):
    """Seeded rows for ``rref``: dicts or dense sequences of width 1-8 whose
    entries are ints, bools and integral Fractions, plus proper fractions
    unless ``integral``; zero and repeated rows mixed in."""
    ncols = rng.randint(1, 8)

    def entry():
        if rng.random() < 0.4:
            return 0
        choices = [rng.randint(-4, 4), rng.choice([-1, 1, True]), Fraction(rng.randint(-6, 6), 2) * 2]
        if not integral:
            choices.append(Fraction(rng.randint(-9, 9), rng.randint(2, 7)))
        return rng.choice(choices)

    rows = [[entry() for _ in range(ncols)] for _ in range(rng.randint(0, 7))]
    rows += rows[:rng.randint(0, 2)] + [[0] * ncols] * rng.randint(0, 1)
    rng.shuffle(rows)
    return ncols, [{i: v for i, v in enumerate(row) if v} if rng.random() < 0.5 else row
                   for row in rows]


def _stored(rows):
    return [c for row in rows for c in row.values()]


class TestScalarRule:
    """Sparse vectors store scalars by the rule of ``ring``: an int when
    integral, a Fraction when not, never a bool or a float; every result
    equals the Fraction-only elimination."""

    def test_sv_stores_by_the_rule(self):
        vec = _sv([Fraction(4, 2), True, 0, Fraction(1, 3), -3, False, Fraction(0)])
        assert vec == {0: 2, 1: 1, 3: Fraction(1, 3), 4: -3}
        assert_scalar_rule(vec.values())
        assert_scalar_rule(_sv({5: Fraction(-6, 3), 2: Fraction(3, 6)}).values())

    def test_sv_stores_an_int_without_the_rule_call(self, monkeypatch):
        from poisson_nlie import subspaces
        from poisson_nlie.ring import _coeff

        big = 10 ** 30
        seen = []
        monkeypatch.setattr(subspaces, "_coeff", lambda c: seen.append(c) or _coeff(c))
        vec = _sv({0: big, 1: -3, 2: 0})
        assert vec == {0: big, 1: -3} and vec[0] is big
        assert seen == []

    @pytest.mark.parametrize("values, expected", [
        ([True, False, 2], {0: 1, 2: 2}),
        ({3: Fraction(6, 3), 4: Fraction(0, 5), 5: Fraction(-1, 1)}, {3: 2, 5: -1}),
        ([Fraction(1, 2), 1], {0: Fraction(1, 2), 1: 1}),
    ], ids=["bool", "integral-fraction", "fraction"])
    def test_sv_stores_non_ints_by_the_rule(self, values, expected):
        vec = _sv(values)
        assert vec == expected
        assert [type(c) for c in vec.values()] == [type(c) for c in expected.values()]

    @pytest.mark.parametrize("values", [[1, 2.0], {0: 3, 1: 0.0}, [-1.5]])
    def test_sv_refuses_a_float_after_ints(self, values):
        with pytest.raises(TypeError, match="expected an exact scalar, got float"):
            _sv(values)

    @pytest.mark.parametrize("call", [
        lambda: _sv([0.1, 1]),
        lambda: _sv({0: 0.0}),
        lambda: Subspace.from_vectors(2, [[0.1, 1]]),
        lambda: Subspace.zero(2).adjoin([{1: 2.5}]),
        lambda: shift_diagonal(((1, 0), (0, 1)), 0.5),
        lambda: shift_diagonal(((Fraction(1, 2), 0), (0, 1.0)), 1),
        lambda: det_fraction([[0.1]]),
        lambda: det_fraction([[1, 0], [0, 2.0]]),
    ])
    def test_floats_raise(self, call):
        with pytest.raises(TypeError):
            call()

    @pytest.mark.parametrize("seed", range(40))
    def test_sv_accum_matches_fractions(self, seed):
        rng = random.Random(seed)

        def scalar():
            return rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-6, 6), rng.randint(1, 4))])

        acc = _sv({i: scalar() for i in range(6)})
        sv = _sv({i: scalar() for i in range(6)})
        scale = rng.choice([1, -1, scalar()])
        expected = {i: Fraction(acc.get(i, 0)) + Fraction(scale) * Fraction(sv.get(i, 0))
                    for i in range(6)}
        _sv_accum(acc, sv, scale)
        assert acc == {i: v for i, v in expected.items() if v}
        assert_scalar_rule(acc.values())

    @pytest.mark.parametrize("integral", [True, False], ids=["integral", "rational"])
    @pytest.mark.parametrize("seed", range(60))
    def test_rref_matches_the_fraction_oracle(self, seed, integral):
        ncols, rows = _random_rows(random.Random(seed), integral)
        reduced, pivots = rref(rows)
        expected, expected_pivots = fraction_rref(rows)
        assert pivots == expected_pivots
        assert [list(row.items()) for row in reduced] == [list(row.items()) for row in expected]
        assert_scalar_rule(_stored(reduced))
        assert all(type(c) is Fraction for c in _stored(expected))

    @pytest.mark.parametrize("seed", range(40))
    def test_kernel_intersection_and_reduce(self, seed):
        rng = random.Random(seed)
        ncols, rows = _random_rows(rng, integral=seed % 2 == 0)
        _, others = _random_rows(rng, integral=False)
        U = Subspace.zero(ncols).adjoin(_sv(row) for row in rows)
        V = Subspace.zero(ncols).adjoin({i: c for i, c in _sv(row).items() if i < ncols}
                                        for row in others)
        for W in (U, V, kernel(rows, ncols), U.intersection(V), U.sum(V)):
            assert_scalar_rule(_stored(W.rows))
            assert_scalar_rule([c for row in W.basis for c in row])
        assert_scalar_rule(_stored(V.reduce(row) for row in rows))

    def test_dense_outputs(self):
        assert_scalar_rule(unit_vector(4, 2))
        shifted = shift_diagonal(((Fraction(1, 2), Fraction(1, 3)), (0, 3)), Fraction(1, 2))
        assert shifted == ((0, Fraction(1, 3)), (0, Fraction(5, 2)))
        assert_scalar_rule(c for row in shifted for c in row)


class TestAdjoin:
    """``Subspace.adjoin`` eliminates only the new rows against the held
    ones; the RREF of a row space is unique, so it gives the subspace that
    one ``rref`` over all the rows gives (``oracles.adjoin_by_rref``)."""

    @staticmethod
    def batches(rng, U, ncols, integral):
        """Seeded batches: the sparse and dense rows of ``_random_rows``,
        rows already in the span of U, zero rows and an empty batch."""
        _, fresh = _random_rows(rng, integral)
        fresh = [{i: c for i, c in row.items() if i < ncols} if isinstance(row, dict)
                 else (list(row) + [0] * ncols)[:ncols] for row in fresh]  # fit to ncols
        spanned = [{i: c * k for i, c in row.items()} for row, k in zip(U.rows, (2, -1, 3))]
        if len(U.rows) > 1:
            combined = dict(U.rows[0])
            _sv_accum(combined, U.rows[1], Fraction(-1, 3))
            spanned.append(combined)
        return [fresh, spanned, [{}, [0] * ncols], [], fresh + spanned]

    @pytest.mark.parametrize("integral", [True, False], ids=["integral", "rational"])
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_one_rref_over_all_rows(self, seed, integral):
        rng = random.Random(seed)
        ncols, rows = _random_rows(rng, integral)
        for U in (Subspace.zero(ncols), Subspace.zero(ncols).adjoin(_sv(row) for row in rows),
                  Subspace.full(ncols), kernel(rows, ncols)):
            held = [dict(row) for row in U.rows]
            for batch in self.batches(rng, U, ncols, integral):
                got, expected = U.adjoin(batch), adjoin_by_rref(U, batch)
                assert got == expected
                assert [list(row.items()) for row in got.rows] == \
                    [list(row.items()) for row in expected.rows]
                assert_scalar_rule(_stored(got.rows))
            assert [dict(row) for row in U.rows] == held  # held rows are only read

    def test_rows_already_in_the_span_keep_the_subspace(self):
        U = Subspace.from_vectors(4, [(1, 2, 0, 0), (0, 0, 1, Fraction(1, 2))])
        assert U.adjoin([{0: 2, 1: 4}, {}, {2: -2, 3: -1}, {0: 1, 1: 2, 2: 1, 3: Fraction(1, 2)}]) == U
        assert U.adjoin([]) == U and U.adjoin(iter(())) == U
        assert U.adjoin([(0, 1, 0, 0)]).rows == ({0: 1}, {1: 1}, {2: 1, 3: Fraction(1, 2)})


class TestSubspace:
    @given(st.lists(vectors4, max_size=5), st.lists(vectors4, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_sum_and_intersection_dimensions(self, rows_u, rows_v):
        U = Subspace.from_vectors(4, rows_u)
        V = Subspace.from_vectors(4, rows_v)
        total = U.sum(V)
        meet = U.intersection(V)
        assert total.dim + meet.dim == U.dim + V.dim
        assert U.contains_subspace(meet) and V.contains_subspace(meet)
        assert total.contains_subspace(U) and total.contains_subspace(V)

    @given(st.lists(vectors4, min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_rref_is_canonical(self, rows):
        U = Subspace.from_vectors(4, rows)
        again = Subspace.from_vectors(4, list(reversed(U.basis)))
        assert U == again

    def test_containment_and_reduce(self):
        U = Subspace.from_vectors(3, [(1, 0, 1), (0, 1, 0)])
        assert U.contains((2, 3, 2))
        assert not U.contains((0, 0, 1))
        assert not U.reduce((1, 1, 1))

    def test_zero_and_full(self):
        assert Subspace.zero(3).dim == 0
        assert Subspace.full(3).dim == 3
        for d in range(5):
            units = [unit_vector(d, j) for j in range(d)]
            assert Subspace.full(d) == Subspace.from_vectors(d, units)


class TestKernels:
    def test_kernel_matches_rank(self):
        rows = [(1, 2, 3), (2, 4, 6)]
        null = kernel(rows, 3)
        assert null.dim == 2
        for vec in null.basis:
            assert all(v == 0 for v in mat_vec(rows, vec))

    def test_eigenspace(self):
        m = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(3)))
        assert kernel(shift_diagonal(m, 2), 2).basis == (unit_vector(2, 0),)
        assert kernel(shift_diagonal(m, 2), 2).rows == ({0: 1},)
        assert kernel(shift_diagonal(m, 5), 2).dim == 0

    def test_kernel_without_rows_is_the_whole_space(self):
        for ncols in range(4):
            assert kernel([], ncols) == Subspace.full(ncols)

    @given(st.integers(1, 5).flatmap(
        lambda c: st.lists(st.lists(small, min_size=c, max_size=c), min_size=1, max_size=5)))
    @settings(max_examples=150, deadline=None)
    def test_kernel_is_the_reduced_two_step_kernel(self, rows):
        assert kernel(rows, len(rows[0])) == _kernel_two_step(rows)

    @given(st.lists(vectors4, max_size=5), st.lists(vectors4, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_intersection_is_the_reduced_two_step_intersection(self, rows_u, rows_v):
        U = Subspace.from_vectors(4, rows_u)
        V = Subspace.from_vectors(4, rows_v)
        assert U.intersection(V) == _intersection_two_step(U, V)


def _rational_matrices():
    """Seeded rational matrices: the named shapes, then sparse random ones."""
    rng = random.Random(8)

    def entry(sparsity=0.0):
        if rng.random() < sparsity:
            return Fraction(0)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    def dense(r, c, sparsity=0.0):
        return [[entry(sparsity) for _ in range(c)] for _ in range(r)]

    base = dense(3, 6)
    mixes = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(2)]
    cases = {
        "zero": [[Fraction(0)] * 4 for _ in range(3)],
        "full_rank": [[v + (20 if i == j else 0) for j, v in enumerate(row)]
                      for i, row in enumerate(dense(4, 4))],
        "rank_deficient": base + [[sum(m * row[j] for m, row in zip(mix, base))
                                   for j in range(6)] for mix in mixes],
        "one_row": dense(1, 5),
        "one_column": dense(5, 1),
        "zero_columns": [[Fraction(0) if j in (1, 4) else v for j, v in enumerate(row)]
                         for row in dense(4, 6)],
    }
    for k in range(20):
        cases[f"sparse_{k}"] = dense(rng.randint(1, 6), rng.randint(1, 6), 0.6)
    return cases


MATRICES = _rational_matrices()


class TestAgainstSympy:
    """sympy is a test-only oracle; without it these tests skip."""

    @pytest.fixture(scope="class")
    def sp(self):
        return pytest.importorskip("sympy")

    @staticmethod
    def to_sympy(sp, rows):
        return sp.Matrix([[sp.Rational(v.numerator, v.denominator) for v in row]
                          for row in rows])

    @staticmethod
    def from_sympy(matrix):
        return tuple(tuple(Fraction(int(v.p), int(v.q)) for v in matrix.row(i))
                     for i in range(matrix.rows))

    def sympy_rref(self, sp, rows):
        reduced, pivots = self.to_sympy(sp, rows).rref()
        return self.from_sympy(reduced)[:len(pivots)], tuple(pivots)

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_rref(self, sp, name):
        rows = MATRICES[name]
        reduced, pivots = rref(rows)
        assert (_dense(reduced, len(rows[0])), pivots) == self.sympy_rref(sp, rows)

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_kernel(self, sp, name):
        rows = MATRICES[name]
        null = self.to_sympy(sp, rows).nullspace()
        if null:
            basis, pivots = self.sympy_rref(sp, sp.Matrix.hstack(*null).T.tolist())
        else:
            basis, pivots = (), ()
        null = kernel(rows, len(rows[0]))
        assert (null.basis, null.pivots) == (basis, pivots)

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_intersection(self, sp, name):
        rows = MATRICES[name]
        ncols = len(rows[0])
        rng = random.Random(name)
        others = [[Fraction(rng.randint(-2, 2)) for _ in range(ncols)]
                  for _ in range(rng.randint(1, 4))]
        others += [[a + b for a, b in zip(rows[0], row)] for row in others[:1]]
        U = Subspace.from_vectors(ncols, rows)
        V = Subspace.from_vectors(ncols, others)
        # (a, b) with a U = b V, so the meet is spanned by the products a U
        stacked = self.to_sympy(sp, list(U.basis) + [[-v for v in row] for row in V.basis])
        coeffs = stacked.T.nullspace()
        meet = [self.from_sympy(c[:U.dim, :].T * self.to_sympy(sp, U.basis))[0]
                for c in coeffs] if U.dim else []
        expected = self.sympy_rref(sp, meet) if meet else ((), ())
        meet = U.intersection(V)
        assert (meet.basis, meet.pivots) == expected

    @staticmethod
    def square(rows):
        """The matrix itself when square, else M M^T."""
        if len(rows) == len(rows[0]):
            return rows
        return [[sum((a * b for a, b in zip(r, c)), Fraction(0)) for c in rows] for r in rows]

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_det_fraction(self, sp, name):
        m = self.square(MATRICES[name])
        expected = self.to_sympy(sp, m).det()
        assert det_fraction(m) == Fraction(int(expected.p), int(expected.q))

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_char_poly(self, sp, name):
        m = self.square(MATRICES[name])
        expected = self.to_sympy(sp, m).charpoly(sp.Symbol("x")).all_coeffs()
        assert char_poly(m) == [Fraction(int(c.p), int(c.q)) for c in expected]

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_rational_roots(self, sp, name):
        """Roots of the characteristic polynomial, and of it times linear
        factors with seeded rational roots, against sympy's factorization."""
        x = sp.Symbol("x")
        rng = random.Random(name)
        coeffs = char_poly(self.square(MATRICES[name]))
        for _ in range(rng.randint(0, 3)):
            root = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            coeffs = [a - root * b for a, b in zip(coeffs + [Fraction(0)], [Fraction(0)] + coeffs)]
        poly = sp.Poly([sp.Rational(c.numerator, c.denominator) for c in coeffs], x)
        expected = set()
        for factor, _ in sp.factor_list(poly)[1]:
            if factor.degree() == 1:
                a, b = factor.all_coeffs()
                expected.add(Fraction(int((-b / a).p), int((-b / a).q)))
        assert rational_roots(coeffs) == sorted(expected)


class TestMatrixTools:
    def test_det_and_charpoly_consistency(self):
        m = ((Fraction(2), Fraction(1)), (Fraction(0), Fraction(3)))
        coeffs = char_poly(m)
        # x^2 - 5x + 6
        assert coeffs == [Fraction(1), Fraction(-5), Fraction(6)]
        assert det_fraction(m) == 6
        assert rational_eigenvalues(m) == [2, 3]

    def test_rational_roots(self):
        # (x - 1/2)(x + 2) = x^2 + 3/2 x - 1
        roots = rational_roots([Fraction(1), Fraction(3, 2), Fraction(-1)])
        assert roots == [Fraction(-2), Fraction(1, 2)]
        assert rational_roots([Fraction(1), Fraction(0), Fraction(2)]) == []

    def test_nilpotency(self):
        n = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
        assert is_nilpotent_matrix(n)
        assert not is_nilpotent_matrix(((Fraction(1),),))

    def test_mat_pow(self):
        m = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
        assert mat_pow(m, 5)[0][1] == 5
        assert mat_pow(m, 0) == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

    @given(st.lists(st.tuples(small, small, small), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_char_poly_root_kills_matrix(self, rows):
        m = tuple(tuple(row) for row in rows)
        for lam in rational_eigenvalues(m):
            assert det_fraction(shift_diagonal(m, lam)) == 0

    @given(st.lists(st.tuples(small, small, small), min_size=3, max_size=3), small)
    @settings(max_examples=40, deadline=None)
    def test_shift_diagonal_is_subtracting_a_scalar_matrix(self, rows, lam):
        assert shift_diagonal(rows, lam) == mat_sub(rows, scale_matrix(lam, 3))


def _operator_matrices():
    """Square matrices for the integer kernels: seeded ones of size 0-10
    with mixed denominators, zero rows and columns and plain int entries,
    then every distinct adjoint and left multiplication operator of the two
    fixtures, named by where each first occurs."""
    from poisson_nlie.finite_algebra import fixture_hypo, fixture_torus

    rng = random.Random(25)
    cases = {}
    for n in range(11):
        for variant in range(2):
            zero_row, zero_col = rng.randrange(n + 1), rng.randrange(n + 1)

            def entry(i, j):
                if i == zero_row or j == zero_col or rng.random() < 0.3:
                    return 0 if variant else Fraction(0)
                if variant and rng.random() < 0.5:
                    return rng.randint(-7, 7)  # a plain int
                return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 35)))

            cases[f"random_{n}_{variant}"] = tuple(
                tuple(entry(i, j) for j in range(n)) for i in range(n))
    seen = set()
    for name, P in (("hypo", fixture_hypo()), ("torus", fixture_torus())):
        operators = [(f"{name}.ad{tup}",
                      P.adjoint_matrix([{i: Fraction(1)} for i in tup]))
                     for tup in itertools.combinations(range(P.dim), P.arity - 1)]
        operators += [(f"{name}.L{i}", P.left_mult_matrix({i: Fraction(1)}))
                      for i in range(P.dim)]
        for label, matrix in operators:
            if matrix not in seen:
                seen.add(matrix)
                cases[label] = matrix
    return cases


OPERATORS = _operator_matrices()


class TestIntegerKernels:
    """``char_poly`` and ``mat_pow`` run on the denominator-cleared integer
    matrix; sympy is the test-only oracle, and Cayley-Hamilton ties the two
    kernels together."""

    @pytest.fixture(scope="class")
    def sp(self):
        return pytest.importorskip("sympy")

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_against_sympy(self, sp, name):
        m = OPERATORS[name]
        n = len(m)
        expected = TestAgainstSympy.to_sympy(sp, m) if n else sp.zeros(0, 0)
        coeffs = char_poly(m)
        assert all(type(c) is Fraction for c in coeffs)
        assert coeffs == [Fraction(int(c.p), int(c.q))
                          for c in expected.charpoly(sp.Symbol("x")).all_coeffs()]
        for k in range(n + 1):
            power = mat_pow(m, k)
            assert all(type(v) is Fraction for row in power for v in row)
            assert power == (TestAgainstSympy.from_sympy(expected ** k) if n else ())

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_cayley_hamilton(self, name):
        m = OPERATORS[name]
        n = len(m)
        total = [[Fraction(0)] * n for _ in range(n)]
        for k, c in enumerate(char_poly(m)):
            for row, power_row in zip(total, mat_pow(m, n - k)):
                row[:] = [a + c * b for a, b in zip(row, power_row)]
        assert all(v == 0 for row in total for v in row)


class TestNoDenseRoundTrip:
    def test_structure_results_never_read_the_dense_basis(self, monkeypatch):
        """The analyses and the tensor-power quotient stay on sparse rows:
        the dense ``basis`` view is read nowhere inside them."""
        from poisson_nlie.constructions import poisson_quotient_tilde
        from poisson_nlie.finite_algebra import (
            classify, fixture_hypo, fixture_torus, nilradical)

        reads = []
        dense = Subspace.basis.fget
        monkeypatch.setattr(Subspace, "basis",
                            property(lambda self: reads.append(1) or dense(self)))
        nil = nilradical(fixture_hypo())
        classify(fixture_torus())
        poisson_quotient_tilde(fixture_hypo())
        assert reads == []
        assert nil.basis == tuple(unit_vector(7, i) for i in (0, 1, 2, 6))
        assert len(reads) == 1
