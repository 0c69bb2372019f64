import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_nlie.subspaces import (
    Subspace,
    char_poly,
    det_fraction,
    is_nilpotent_matrix,
    kernel,
    mat_pow,
    mat_sub,
    mat_vec,
    rational_eigenvalues,
    rational_roots,
    rref,
    scale_matrix,
    unit_vector,
)

small = st.integers(-4, 4).map(Fraction)
vectors4 = st.tuples(small, small, small, small)


def _kernel_two_step(matrix):
    """The former kernel, kept as the reference: null vectors from a
    first-to-last elimination, then reduced a second time."""
    reduced, pivots = rref(matrix)
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
    rows, reduced a second time."""
    d = U.ambient
    stacked = [list(row) + list(row) for row in U.basis]
    stacked += [list(row) + [Fraction(0)] * d for row in V.basis]
    reduced, _ = rref(stacked)
    return Subspace.from_vectors(d, [row[d:] for row in reduced if not any(row[:d])])


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
        assert all(v == 0 for v in U.reduce((1, 1, 1)))

    def test_zero_and_full(self):
        assert Subspace.zero(3).dim == 0
        assert Subspace.full(3).dim == 3
        for d in range(5):
            units = [unit_vector(d, j) for j in range(d)]
            assert Subspace.full(d) == Subspace.from_vectors(d, units)


class TestKernels:
    def test_kernel_matches_rank(self):
        rows = [(1, 2, 3), (2, 4, 6)]
        null = kernel(rows)
        assert null.dim == 2
        for vec in null.basis:
            assert all(v == 0 for v in mat_vec(rows, vec))

    def test_eigenspace(self):
        m = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(3)))
        assert kernel(mat_sub(m, scale_matrix(2, 2))).basis == (unit_vector(2, 0),)
        assert kernel(mat_sub(m, scale_matrix(5, 2))).dim == 0

    @given(st.integers(1, 5).flatmap(
        lambda c: st.lists(st.lists(small, min_size=c, max_size=c), min_size=1, max_size=5)))
    @settings(max_examples=150, deadline=None)
    def test_kernel_is_the_reduced_two_step_kernel(self, rows):
        assert kernel(rows) == _kernel_two_step(rows)

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
        assert rref(MATRICES[name]) == self.sympy_rref(sp, MATRICES[name])

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_kernel(self, sp, name):
        rows = MATRICES[name]
        null = self.to_sympy(sp, rows).nullspace()
        if null:
            basis, pivots = self.sympy_rref(sp, sp.Matrix.hstack(*null).T.tolist())
        else:
            basis, pivots = (), ()
        assert kernel(rows) == Subspace(len(rows[0]), basis, pivots)

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
        assert U.intersection(V) == Subspace(ncols, *expected)

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
            assert det_fraction(mat_sub(m, scale_matrix(lam, 3))) == 0
