import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_nlie.ring import (
    DerivationSpec,
    DeterminantSizeError,
    ExactDivisionError,
    ExponentOverflowError,
    FamilyCertificationError,
    POWER_SIZE_LIMIT,
    LaurentPolynomial,
    ParseError,
    certify_family,
    commutator_defect,
    det_ring,
    euler_family,
    exact_divide,
    format_polynomial,
    parse_polynomial,
    partial_family,
)

coeffs = st.integers(-9, 9).map(Fraction) | st.fractions(
    min_value=-5, max_value=5, max_denominator=6)
exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def polys(nvars=2, max_terms=4):
    exps = st.tuples(*(st.integers(-3, 3) for _ in range(nvars)))
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda terms: LaurentPolynomial(nvars, terms))


class TestArithmetic:
    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys())
    @settings(max_examples=40, deadline=None)
    def test_units_and_negation(self, a):
        one = LaurentPolynomial.one(2)
        zero = LaurentPolynomial.zero(2)
        assert a * one == a
        assert a + zero == a
        assert a - a == zero
        assert (-(-a)) == a

    def test_no_stored_zero_coefficients(self):
        p = LaurentPolynomial(2, {(1, 0): 1, (0, 1): 0})
        assert len(p) == 1

    def test_monomial_inverse_power(self):
        t1 = LaurentPolynomial.variable(2, 1)
        assert t1 ** -3 == LaurentPolynomial.monomial(2, (-3, 0))
        with pytest.raises(ExactDivisionError):
            (t1 + 1) ** -1

    def test_exponent_overflow_is_an_error(self):
        with pytest.raises(ExponentOverflowError):
            LaurentPolynomial.monomial(1, (2**40,))

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            LaurentPolynomial.one(2) + LaurentPolynomial.one(3)


class TestGrammar:
    def test_parse_basics(self):
        p = parse_polynomial("3*t1^2*t2^-1 - 1/2*t3 + 2", 3)
        assert p == (3 * LaurentPolynomial.monomial(3, (2, -1, 0))
                     - Fraction(1, 2) * LaurentPolynomial.variable(3, 3) + 2)

    def test_parentheses_and_signs(self):
        p = parse_polynomial("-(t1 - t2)^2", 2)
        t1 = LaurentPolynomial.variable(2, 1)
        t2 = LaurentPolynomial.variable(2, 2)
        assert p == -(t1 - t2) * (t1 - t2)

    def test_whitespace_insensitive(self):
        assert parse_polynomial(" t1 +  2*t2 ", 2) == parse_polynomial("t1+2*t2", 2)

    @pytest.mark.parametrize("text", ["t1 +", "t5", "2/0", "t1^t2", "(t1", "x1", ""])
    def test_errors_carry_position(self, text):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, 2)
        assert err.value.line >= 1 and err.value.column >= 1

    @pytest.mark.parametrize("text, nvars, column", [
        ("3^16777216", 1, 2),
        ("t2*3^2147483647", 2, 5),
        ("(t1+t2+t3+t4+t5+t6)^14", 6, 20),
        ("(1+t1)^362", 1, 7),
        ("((t1+t2+t3+t4+t5+t6)^5)^100000", 6, 24),
    ])
    def test_oversized_powers_are_refused_before_expanding(self, text, nvars, column):
        started = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, nvars)
        assert time.perf_counter() - started < 1.0
        assert err.value.column == column
        assert f"exceed the size limit {POWER_SIZE_LIMIT}" in str(err.value)

    @pytest.mark.parametrize("text, column", [
        ("(t1 - 1/2)^-3", 11),
        ("(t1+1)^-1 + t1", 7),
    ])
    def test_negative_power_of_a_non_monomial_names_the_caret(self, text, column):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, 1)
        assert "negative power of a non-monomial" in str(err.value)
        assert err.value.column == column

    def test_powers_within_the_size_limit_expand(self):
        # (1 + t1)^361: 362 terms of up to 361 bits, 362 * 362 <= 2^17
        assert len(parse_polynomial("(1+t1)^361", 1)) == 362
        assert parse_polynomial("t1^2147483647", 1) == LaurentPolynomial.monomial(1, (2**31 - 1,))
        assert parse_polynomial("(2/3)^-5", 1) == Fraction(243, 32)
        assert parse_polynomial("0^4", 1).is_zero()

    @given(polys(3))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, p):
        assert parse_polynomial(format_polynomial(p), 3) == p

    def test_canonical_form_is_sorted(self):
        text = format_polynomial(parse_polynomial("t2 + t1^2 + 1", 2))
        assert text == "t1^2 + t2 + 1"


class TestDerivations:
    def test_euler_scales_by_exponent(self, euler3):
        p = parse_polynomial("t1^3*t2^-1", 3)
        assert euler3[0].apply(p) == 3 * p

    def test_derivations_kill_constants(self):
        d = DerivationSpec.partial(2, 3)
        assert d.apply(LaurentPolynomial.constant(3, 5)).is_zero()

    def test_euler_term_by_term(self, euler3):
        t1 = LaurentPolynomial.variable(3, 1)
        t2 = LaurentPolynomial.variable(3, 2)
        assert euler3[0].apply(t1 + t2) == t1

    @given(polys(2), polys(2))
    @settings(max_examples=50, deadline=None)
    def test_product_rule(self, p, q):
        for d in (DerivationSpec.euler(1, 2), DerivationSpec.partial(2, 2),
                  DerivationSpec.general((LaurentPolynomial.variable(2, 2),
                                          LaurentPolynomial.variable(2, 1)))):
            assert d.apply(p * q) == p * d.apply(q) + q * d.apply(p)

    def test_commutators(self):
        zero = tuple(LaurentPolynomial.zero(3) for _ in range(3))
        assert commutator_defect(DerivationSpec.euler(1, 3),
                                 DerivationSpec.euler(2, 3)) == zero
        d = DerivationSpec.general((LaurentPolynomial.variable(3, 2),
                                    LaurentPolynomial.zero(3),
                                    LaurentPolynomial.one(3)))
        assert commutator_defect(d, d) == zero
        defect = commutator_defect(DerivationSpec.partial(1, 3),
                                    DerivationSpec.euler(1, 3))
        assert defect[0] == LaurentPolynomial.one(3)
        assert defect[1].is_zero() and defect[2].is_zero()

    def test_family_certification(self):
        fam = euler_family(4)
        assert len(fam) == 4 and fam.assumptions_12
        assert not partial_family(3).assumptions_12
        with pytest.raises(FamilyCertificationError):
            certify_family([DerivationSpec.partial(1, 2),
                            DerivationSpec.euler(1, 2)])


class TestDeterminants:
    def test_diagonal(self):
        t1 = LaurentPolynomial.variable(2, 1)
        t2 = LaurentPolynomial.variable(2, 2)
        zero = LaurentPolynomial.zero(2)
        assert det_ring([[t1, zero], [zero, t2]]) == t1 * t2

    def test_repeated_column_and_row(self):
        t1 = LaurentPolynomial.variable(2, 1)
        t2 = LaurentPolynomial.variable(2, 2)
        one = LaurentPolynomial.one(2)
        assert det_ring([[t1, t1], [t2, t2]]).is_zero()
        assert det_ring([[t1, t2], [t1, t2]]).is_zero()
        assert det_ring([[one]]) == one

    def test_identity_pattern(self):
        one = LaurentPolynomial.one(2)
        zero = LaurentPolynomial.zero(2)
        k = 5
        eye = [[one if i == j else zero for j in range(k)] for i in range(k)]
        assert det_ring(eye) == one

    def test_methods_agree_on_random_monomial_matrices(self):
        rng = random.Random(7)
        for _ in range(30):
            k = rng.randint(1, 5)
            entries = [[LaurentPolynomial.monomial(
                2, (rng.randint(-2, 2), rng.randint(-2, 2)), rng.randint(-3, 3))
                for _ in range(k)] for _ in range(k)]
            assert det_ring(entries, "cofactor") == det_ring(entries, "bareiss")

    def test_methods_agree_on_polynomial_entries(self):
        rng = random.Random(3)

        def poly():
            return (LaurentPolynomial.monomial(2, (rng.randint(-1, 1), rng.randint(-1, 1)),
                                               rng.randint(-2, 2))
                    + LaurentPolynomial.constant(2, rng.randint(-2, 2)))

        for _ in range(10):
            entries = [[poly() for _ in range(5)] for _ in range(5)]
            assert det_ring(entries, "cofactor") == det_ring(entries, "bareiss")

    def test_non_square_and_cap(self):
        one = LaurentPolynomial.one(1)
        with pytest.raises(ValueError):
            det_ring([[one, one]])
        big = [[one] * 13 for _ in range(13)]
        with pytest.raises(DeterminantSizeError):
            det_ring(big)


class TestExactDivision:
    def test_difference_of_squares(self):
        a = parse_polynomial("t1^2 - t2^2", 2)
        b = parse_polynomial("t1 - t2", 2)
        assert exact_divide(a, b) == parse_polynomial("t1 + t2", 2)

    def test_laurent_shifts(self):
        a = parse_polynomial("t1^-1 + t1^-2", 1)
        b = parse_polynomial("t1 + 1", 1)
        assert exact_divide(a, b) == parse_polynomial("t1^-2", 1)

    @given(polys(2, 3), polys(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_multiply_then_divide(self, a, b):
        if b.is_zero():
            return
        assert exact_divide(a * b, b) == a

    def test_inexact_division_raises(self):
        a = parse_polynomial("t1 + 1", 1)
        b = parse_polynomial("t1 - 1", 1)
        with pytest.raises(ExactDivisionError):
            exact_divide(a, b)


class TestAgainstSympy:
    """sympy is a test-only oracle; without it these tests skip."""

    @pytest.fixture(scope="class")
    def sp(self):
        return pytest.importorskip("sympy")

    @staticmethod
    def to_sympy(sp, p):
        t = sp.symbols("t1:3")
        return sp.Add(*(sp.Rational(c.numerator, c.denominator)
                        * sp.Mul(*(x ** k for x, k in zip(t, exps)))
                        for exps, c in p.terms()))

    @staticmethod
    def seeded_poly(rng, max_terms=3):
        return LaurentPolynomial(2, {
            (rng.randint(-1, 2), rng.randint(-1, 2)): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for _ in range(rng.randint(0, max_terms))})

    @pytest.mark.parametrize("seed", range(8))
    def test_det_ring(self, sp, seed):
        rng = random.Random(seed)
        k = rng.randint(1, 5)
        entries = [[self.seeded_poly(rng) for _ in range(k)] for _ in range(k)]
        expected = sp.Matrix([[self.to_sympy(sp, p) for p in row] for row in entries]).det(
            method="berkowitz")
        for method in ("cofactor", "bareiss"):
            assert sp.expand(self.to_sympy(sp, det_ring(entries, method)) - expected) == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_divide(self, sp, seed):
        rng = random.Random(100 + seed)
        den = self.seeded_poly(rng)
        while len(den) < 2:
            den = self.seeded_poly(rng)
        num = self.seeded_poly(rng) * den
        if seed % 2:  # divisible or not, as sympy says
            num = num + LaurentPolynomial.monomial(2, (rng.randint(-1, 2), rng.randint(-1, 2)))
        t = sp.symbols("t1:3")
        quotient = sp.cancel(self.to_sympy(sp, num) / self.to_sympy(sp, den))
        # divisible in the Laurent ring iff the reduced denominator is a monomial
        if sp.Poly(sp.fraction(quotient)[1], *t).is_monomial:
            assert sp.expand(self.to_sympy(sp, exact_divide(num, den)) - quotient) == 0
        else:
            with pytest.raises(ExactDivisionError):
                exact_divide(num, den)
