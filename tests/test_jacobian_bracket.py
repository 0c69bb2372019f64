import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_nlie.jacobian_bracket import (
    AdjoinedMatrix,
    MonomialSampler,
    bracket,
    complement,
    complement_sign,
    expansion_equivalence_check,
    fundamental_defect,
    leibniz_defect,
    parse_adjoined_matrix,
    pi_table,
)
from poisson_nlie import jacobian_bracket, ring
from poisson_nlie.ring import (
    LaurentPolynomial,
    ParseError,
    det_ring,
    euler_family,
    maximal_minors,
    parse_polynomial,
)

from oracles import assert_scalar_rule, leibniz_det, leibniz_minors


def generic_entry_matrix(size):
    """Matrix of independent variables, one per entry."""
    nv = size * size
    return [[LaurentPolynomial.variable(nv, r * size + c + 1) for c in range(size)]
            for r in range(size)]


def derivative_matrix(xs, family):
    """Rows d_r(x_1..x_n); its minor on rows I is Jac_I."""
    return [[d.apply(x) for x in xs] for d in family]


class TestComplementSign:
    @pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_certified_against_full_determinant(self, n, m):
        """The sign must make the column-block expansion of a fully generic
        determinant exact; this is the independent oracle for eps(I)."""
        size = n + m
        ent = generic_entry_matrix(size)
        nv = size * size
        full = det_ring(ent)
        total = LaurentPolynomial.zero(nv)
        for I in itertools.combinations(range(1, size + 1), n):
            Ic = [r for r in range(1, size + 1) if r not in I]
            left = det_ring([[ent[r - 1][c] for c in range(n)] for r in I])
            right = (det_ring([[ent[r - 1][c] for c in range(n, size)] for r in Ic])
                     if m else LaurentPolynomial.one(nv))
            term = left * right
            total = total + (term if complement_sign(I, n, m) > 0 else -term)
        assert total == full

    def test_first_block_is_positive(self):
        assert complement_sign((1, 2, 3), 3, 2) == 1

    def test_oracle_computed_values(self):
        # parity of (2,3,4,1,5) is odd (three inversions), so the sign is -1;
        # certified by test_certified_against_full_determinant above
        assert complement_sign((2, 3, 4), 3, 2) == -1
        # parity of (1,3,2) is odd
        assert complement_sign((1, 3), 2, 1) == -1

    def test_rejects_bad_tuples(self):
        with pytest.raises(ValueError):
            complement_sign((1, 1), 2, 1)
        with pytest.raises(ValueError):
            complement_sign((1, 9), 2, 1)


class TestPiCoefficient:
    def test_empty_matrix_gives_unit(self):
        A = AdjoinedMatrix.empty(3, 3)
        assert pi_table(A) == {(1, 2, 3): LaurentPolynomial.one(3)}

    def test_identity_block_pattern(self):
        # A = f * B, B = identity block in the first m rows, zeros below:
        # pi^I = +-f^m exactly for I = {m+1..m+n}, and 0 otherwise
        n, m = 3, 2
        nv = n + m
        f = parse_polynomial("t1 + t2^2", nv)
        zero = LaurentPolynomial.zero(nv)
        rows = [[f if r == s else zero for s in range(m)] for r in range(m)]
        rows += [[zero] * m for _ in range(n)]
        A = AdjoinedMatrix.from_rows(n, m, rows)
        special = tuple(range(m + 1, m + n + 1))
        pi = pi_table(A)
        for I in itertools.combinations(range(1, nv + 1), n):
            value = pi[I]
            if I == special:
                assert value == f * f or value == -(f * f)
            else:
                assert value.is_zero()

    def test_repeats_and_short_tuples_give_zero(self):
        """The table holds sorted n-subsets only, so a repeated or short
        tuple reads as zero."""
        pi = pi_table(AdjoinedMatrix.empty(3, 3))
        assert pi.get((1, 1, 2), LaurentPolynomial.zero(3)).is_zero()
        assert pi.get((1, 2), LaurentPolynomial.zero(3)).is_zero()

    def test_monomial_table_makes_only_the_laplace_products(self, monkeypatch):
        """At (2, 5) the table is every 5 x 5 minor of a 7 x 5 matrix: at
        most sum_{j=2..5} C(7, j) * j products, no determinant and no
        division.  The minors are expanded on packed int terms, so each
        Laplace product is one ``ring.multiply_into`` call."""
        n, m = 2, 5
        A = MonomialSampler(n + m, seed=0).monomial_matrix(n, m)
        products = []
        multiply = ring.multiply_into
        monkeypatch.setattr(ring, "multiply_into",
                            lambda *args: products.append(1) or multiply(*args))

        def refused(*args):
            raise AssertionError("pi_table called a determinant or a division")

        for module, name in ((ring, "det_ring"), (jacobian_bracket, "det_ring"),
                             (ring, "exact_divide")):
            monkeypatch.setattr(module, name, refused)
        pi = pi_table(A)
        assert 0 < len(products) <= sum(math.comb(n + m, j) * j for j in range(2, m + 1))
        monkeypatch.undo()
        for I, value in pi.items():
            minor = leibniz_det([A.entries[r - 1] for r in complement(I, n + m)])
            assert value == (minor if complement_sign(I, n, m) > 0 else -minor)


    @pytest.mark.parametrize("size", range(1, 9))
    def test_pi_index_matches_the_per_subset_construction(self, size):
        """Every shape with n + m = size, m = 0 included: each n-subset I in
        ``combinations`` order with the 0-based rows of I^c and its
        ``complement_sign``."""
        for n in range(1, size + 1):
            m = size - n
            expected = tuple((I, tuple(r - 1 for r in complement(I, size)), complement_sign(I, n, m))
                             for I in itertools.combinations(range(1, size + 1), n))
            assert jacobian_bracket._pi_index(n, m) == expected


class TestJacMinor:
    def test_alternating(self, euler3):
        x = parse_polynomial("t1*t2", 3)
        xs = [x, x, LaurentPolynomial.variable(3, 3)]
        assert maximal_minors(derivative_matrix(xs, euler3))[(0, 1, 2)].is_zero()

    def test_euler_two_by_two(self):
        fam = euler_family(2)
        t1 = LaurentPolynomial.variable(2, 1)
        t2 = LaurentPolynomial.variable(2, 2)
        assert maximal_minors(derivative_matrix([t1, t2], fam))[(0, 1)] == t1 * t2

    def test_determinant_form_equals_permutation_sum(self, euler5):
        """Every Jac_I of each sample, not one sampled I."""
        sampler = MonomialSampler(5, seed=4)
        for _ in range(25):
            rows = derivative_matrix(sampler.monomials(3), euler5)
            assert maximal_minors(rows) == leibniz_minors(rows)


class TestBracket:
    def test_full_equals_expanded(self, euler5):
        result = expansion_equivalence_check(3, 2, euler5, samples=40, seed=5)
        assert result["equal"]

    def test_full_equals_expanded_largest_configuration(self):
        result = expansion_equivalence_check(4, 3, euler_family(7), samples=20, seed=5)
        assert result["equal"]

    def test_from_scalars_stores_by_the_scalar_rule(self):
        A = AdjoinedMatrix.from_scalars(2, 1, [[Fraction(4, 2)], [True], [Fraction(1, 3)]], 3)
        assert_scalar_rule(c for row in A.entries for p in row for c in p._terms.values())
        assert [row[0] for row in A.entries] == [LaurentPolynomial.constant(3, c)
                                                 for c in (2, 1, Fraction(1, 3))]
        with pytest.raises(TypeError):
            AdjoinedMatrix.from_scalars(2, 1, [[0.5], [1], [2]], 3)

    def test_repeated_arguments_vanish(self, euler3):
        A = AdjoinedMatrix.from_scalars(2, 1, [[2], [1], [0]], 3)
        x = parse_polynomial("t1 + t2", 3)
        for method in ("full", "expanded"):
            assert bracket([x, x], A, euler3, method).is_zero()

    def test_transposition_flips_sign(self, euler3):
        A = AdjoinedMatrix.from_scalars(2, 1, [[1], [2], [3]], 3)
        sampler = MonomialSampler(3, seed=6)
        for _ in range(10):
            x, y = sampler.monomials(2)
            assert bracket([x, y], A, euler3) == -bracket([y, x], A, euler3)

    def test_multilinearity(self, euler3):
        A = AdjoinedMatrix.from_scalars(2, 1, [[1], [0], [2]], 3)
        sampler = MonomialSampler(3, seed=7)
        x, y, z = sampler.monomials(3)
        c = Fraction(3, 2)
        lhs = bracket([x + c * y, z], A, euler3)
        rhs = bracket([x, z], A, euler3) + c * bracket([y, z], A, euler3)
        assert lhs == rhs

    def test_pure_jacobian_example(self):
        fam = euler_family(2)
        A = AdjoinedMatrix.empty(2, 2)
        t1 = LaurentPolynomial.variable(2, 1)
        t2 = LaurentPolynomial.variable(2, 2)
        assert bracket([t1, t2], A, fam) == t1 * t2

    def test_adjoined_column_example(self, euler3):
        A = AdjoinedMatrix.from_scalars(2, 1, [[0], [0], [1]], 3)
        t1 = LaurentPolynomial.variable(3, 1)
        t2 = LaurentPolynomial.variable(3, 2)
        assert bracket([t1, t2], A, euler3, "full") == t1 * t2

    def test_rejects_uncertified_family(self, euler3):
        A = AdjoinedMatrix.empty(2, 2)
        with pytest.raises(TypeError):
            bracket([LaurentPolynomial.one(2)] * 2, A,
                    [euler3[0], euler3[1]])  # a plain list is not certified

    def test_family_size_mismatch(self, euler3):
        A = AdjoinedMatrix.empty(2, 3)  # m = 0 needs 2 derivations, family has 3
        t1 = LaurentPolynomial.variable(3, 1)
        with pytest.raises(ValueError):
            bracket([t1, t1], A, euler3)


class TestLeibnizDefect:
    def test_unit_argument(self, euler3):
        A = AdjoinedMatrix.from_scalars(2, 1, [[1], [1], [1]], 3)
        one = LaurentPolynomial.one(3)
        z = parse_polynomial("t1*t3^-1", 3)
        assert leibniz_defect(one, z, [parse_polynomial("t2", 3)], A, euler3).is_zero()

    def test_pure_jacobian(self):
        fam = euler_family(3)
        A = AdjoinedMatrix.empty(3, 3)
        sampler = MonomialSampler(3, seed=8)
        for _ in range(10):
            y, z, x2, x3 = (sampler.monomial() for _ in range(4))
            assert leibniz_defect(y, z, [x2, x3], A, fam).is_zero()

    def test_arbitrary_polynomial_matrix(self):
        fam = euler_family(4)
        sampler = MonomialSampler(4, seed=9)
        A = AdjoinedMatrix.from_rows(
            2, 2, [[sampler.binomial(), sampler.monomial()] for _ in range(4)])
        for _ in range(8):
            y, z, x2 = (sampler.monomial() for _ in range(3))
            assert leibniz_defect(y, z, [x2], A, fam).is_zero()


class TestFundamentalDefect:
    def test_pure_jacobian_vanishes(self):
        fam = euler_family(3)
        A = AdjoinedMatrix.empty(3, 3)
        sampler = MonomialSampler(3, seed=10)
        for _ in range(10):
            xs = sampler.monomials(2)
            ys = sampler.monomials(3)
            assert fundamental_defect(xs, ys, A, fam).is_zero()

    def test_identity_block_pattern_vanishes(self, euler5):
        n, m = 3, 2
        f = parse_polynomial("t3*t4", 5)
        zero = LaurentPolynomial.zero(5)
        rows = [[f if r == s else zero for s in range(m)] for r in range(m)]
        rows += [[zero] * m for _ in range(n)]
        A = AdjoinedMatrix.from_rows(n, m, rows)
        sampler = MonomialSampler(5, seed=11)
        pi = pi_table(A)
        for _ in range(10):
            xs = sampler.monomials(2)
            ys = sampler.monomials(3)
            assert fundamental_defect(xs, ys, A, euler5, pi=pi).is_zero()

    def test_search_finds_a_violating_matrix_with_witness(self, euler3):
        """Search small columns until the exhaustive criterion fails, then
        exhibit concrete arguments with a nonzero defect."""
        from poisson_nlie.criterion import check_criterion

        t = [LaurentPolynomial.variable(3, i) for i in (1, 2, 3)]
        zero = LaurentPolynomial.zero(3)
        candidates = [
            [[t[0]], [zero], [zero]],
            [[t[1]], [t[0]], [zero]],
            [[t[1]], [t[2]], [t[0]]],
        ]
        failing = None
        for rows in candidates:
            A = AdjoinedMatrix.from_rows(2, 1, rows)
            if not check_criterion(A, euler3).passed():
                failing = A
                break
        assert failing is not None, "search exhausted without a violating matrix"
        mons = [LaurentPolynomial.monomial(3, e)
                for e in itertools.product([-1, 0, 1], repeat=3)]
        rng = random.Random(0)
        witness = None
        for _ in range(500):
            xs = [rng.choice(mons)]
            ys = [rng.choice(mons) for _ in range(2)]
            value = fundamental_defect(xs, ys, failing, euler3)
            if not value.is_zero():
                witness = (xs, ys, value)
                break
        assert witness is not None


class TestMatrixBlockFormat:
    def test_round_trip(self, euler3):
        A = AdjoinedMatrix.from_rows(2, 1, [
            [parse_polynomial("t1 + 1/2", 3)],
            [parse_polynomial("-t2^2", 3)],
            [parse_polynomial("0", 3)],
        ])
        again = parse_adjoined_matrix(A.serialize(), 3)
        assert again == A

    def test_sampled_matrices_without_columns_match_the_file_form(self):
        """m = 0: the sampler draws no rows, as a "3 0" block reads none."""
        empty = parse_adjoined_matrix("3 0\n", 3)
        assert empty == AdjoinedMatrix.empty(3, 3)
        assert MonomialSampler(3, seed=0).scalar_matrix(3, 0) == empty
        assert MonomialSampler(3, seed=0).monomial_matrix(3, 0) == empty

    def test_comments_and_blank_lines(self):
        text = "# header\n2 1\n\nt1  # entry\n0\n1/3\n"
        A = parse_adjoined_matrix(text, 3)
        assert A.n == 2 and A.m == 1
        assert A.entries[0][0] == LaurentPolynomial.variable(3, 1)

    def test_entry_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_adjoined_matrix("2 1\nt1\n0\n", 3)

    def test_bad_entry_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_adjoined_matrix("2 1\nt1\n??\n0\n", 3)
        assert err.value.line == 3

    @pytest.mark.parametrize("text", ["-3 1\n", "2 -1\n", "1 1\nt1\nt2\n", "--3 1\n",
                                      "\u00b2 1\n"])
    def test_bad_header_reports_line(self, text):
        with pytest.raises(ParseError) as err:
            parse_adjoined_matrix("# shape\n" + text, 3)
        assert err.value.line == 2 and "matrix header" in str(err.value)

    def test_no_adjoined_columns(self):
        assert parse_adjoined_matrix("3 0\n", 3) == AdjoinedMatrix.empty(3, 3)

    _headers = st.builds(lambda n, m: f"{n} {m}", *(st.integers(-2, 3) | st.sampled_from(
        ["", "x", "--1", "\u00b2", "99999999999"]) for _ in range(2)))
    _entries = st.lists(st.sampled_from(
        ["t1", "t3", "t4", "2*t2^-1", "1/2", "1/0", "(t1 + t2)^2", "t1^2147483648", "0",
         "", "# note", "??", "-", "t1 t2"]), max_size=12)

    @given(_headers, _entries, st.text(max_size=12))
    @settings(max_examples=400, deadline=None)
    def test_every_input_parses_or_raises_a_parse_error(self, header, entries, noise):
        """Any text ends in a matrix, which serializes and parses back to
        itself, or in a ParseError; never in another exception."""
        for text in ("\n".join([header] + entries), "\n".join([header, noise] + entries), noise):
            try:
                A = parse_adjoined_matrix(text, 3)
            except ParseError:
                continue
            assert parse_adjoined_matrix(A.serialize(), 3) == A
