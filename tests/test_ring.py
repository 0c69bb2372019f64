import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_nlie import criterion
from poisson_nlie.jacobian_bracket import MonomialSampler, perm_sign
from poisson_nlie.ring import (
    DerivationSpec,
    EXPONENT_LIMIT,
    DeterminantSizeError,
    ExactDivisionError,
    ExponentOverflowError,
    FamilyCertificationError,
    POWER_SIZE_LIMIT,
    LaurentPolynomial,
    ParseError,
    certify_family,
    det_ring,
    euler_family,
    exact_divide,
    format_polynomial,
    maximal_minors,
    parse_polynomial,
    partial_family,
)
from poisson_nlie.ring import _pack, _unpack

from oracles import (
    assert_scalar_rule,
    f_add,
    f_apply,
    f_constant,
    f_exact_divide,
    f_mul,
    f_neg,
    f_pow,
    f_sub,
    format_polynomial_oracle,
    fraction_poly,
    laplace_minors,
    leibniz_det,
    leibniz_minors,
    random_expression,
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


edge_exponents = st.sampled_from((-EXPONENT_LIMIT, -EXPONENT_LIMIT + 1, -1, 0, 1,
                                  EXPONENT_LIMIT - 1, EXPONENT_LIMIT)) | st.integers(
    -EXPONENT_LIMIT, EXPONENT_LIMIT)


def exponent_vectors(nvars):
    return st.tuples(*(edge_exponents for _ in range(nvars)))


class TestPackedKeys:
    """Each term is keyed by one packed integer; the ring alone encodes."""

    @given(st.integers(0, 8).flatmap(exponent_vectors))
    @settings(max_examples=200, deadline=None)
    def test_tuple_key_tuple_round_trip(self, exps):
        assert _unpack(_pack(exps), len(exps)) == exps
        assert LaurentPolynomial.monomial(len(exps), exps, 3).terms() == [(exps, 3)]

    @given(st.integers(0, 8).flatmap(
        lambda nv: st.dictionaries(exponent_vectors(nv), coeffs, max_size=6).map(
            lambda terms: LaurentPolynomial(nv, terms))))
    @settings(max_examples=200, deadline=None)
    def test_sorted_terms_is_the_graded_lex_order(self, p):
        """Descending packed keys, the order ``format_polynomial`` writes
        terms in, are the graded-lex order, highest first."""
        by_key = [(_unpack(key, p.nvars), p._terms[key]) for key in sorted(p._terms, reverse=True)]
        assert by_key == sorted(p.terms(), key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def test_products_and_derivatives_at_the_limit(self):
        top = LaurentPolynomial.monomial(2, (EXPONENT_LIMIT, -EXPONENT_LIMIT), 2)
        assert top * top ** -1 == LaurentPolynomial.one(2)
        with pytest.raises(ExponentOverflowError, match="^exponent 4294967294 out of range$"):
            top * top
        assert DerivationSpec.partial(1, 2).apply(top) == LaurentPolynomial.monomial(
            2, (EXPONENT_LIMIT - 1, -EXPONENT_LIMIT), 2 * EXPONENT_LIMIT)
        with pytest.raises(ExponentOverflowError, match="^exponent -2147483648 out of range$"):
            DerivationSpec.partial(2, 2).apply(top)
        # results of ring operations keep a bound on their exponents that
        # still makes the product with t1^-1 or t1 check its terms
        t1, high = LaurentPolynomial.variable(1, 1), LaurentPolynomial.monomial(1, (EXPONENT_LIMIT,))
        low = DerivationSpec.partial(1, 1).apply(LaurentPolynomial.monomial(1, (1 - EXPONENT_LIMIT,)))
        with pytest.raises(ExponentOverflowError, match="^exponent -2147483648 out of range$"):
            low * t1 ** -1
        for p in (t1 + high, high + 1, -high, 2 * high, high * high ** 0,
                  DerivationSpec.euler(1, 1).apply(high)):
            with pytest.raises(ExponentOverflowError, match="^exponent 2147483648 out of range$"):
                p * t1


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
        d = DerivationSpec.general((LaurentPolynomial.variable(3, 2),
                                    LaurentPolynomial.zero(3),
                                    LaurentPolynomial.one(3)))
        for specs in ([DerivationSpec.euler(1, 3), DerivationSpec.euler(2, 3)], [d, d]):
            assert certify_family(specs).specs == tuple(specs)
        with pytest.raises(FamilyCertificationError, match="derivations 1 and 2"):
            certify_family([DerivationSpec.partial(1, 3), DerivationSpec.euler(1, 3)])

    @pytest.mark.parametrize("seed", range(20))
    def test_certification_matches_the_commutator_on_the_variables(self, seed):
        """certify_family compares coefficients only where one is nonzero;
        it accepts exactly the families whose commutators d_a d_b - d_b d_a
        vanish on every variable, which determines a derivation."""
        rng = random.Random(seed)

        def spec():
            kind = rng.choice(("euler", "partial", "general"))
            if kind != "general":
                return getattr(DerivationSpec, kind)(rng.randint(1, 2), 2)
            return DerivationSpec.general([
                LaurentPolynomial.monomial(2, (rng.randint(-1, 1), rng.randint(-1, 1)),
                                           rng.randint(-1, 1)) for _ in range(2)])

        specs = [spec() for _ in range(rng.randint(2, 3))]
        ts = [LaurentPolynomial.variable(2, i) for i in (1, 2)]
        commute = all(a.apply(b.apply(t)) == b.apply(a.apply(t))
                      for a, b in itertools.combinations(specs, 2) for t in ts)
        if commute:
            assert certify_family(specs).specs == tuple(specs)
        else:
            with pytest.raises(FamilyCertificationError):
                certify_family(specs)

    def test_euler_family_certification_is_not_cubic(self):
        started = time.perf_counter()
        assert len(euler_family(200)) == 200
        assert time.perf_counter() - started < 5.0

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
            assert det_ring(entries) == leibniz_det(entries)

    def test_methods_agree_on_polynomial_entries(self):
        rng = random.Random(3)

        def poly():
            return (LaurentPolynomial.monomial(2, (rng.randint(-1, 1), rng.randint(-1, 1)),
                                               rng.randint(-2, 2))
                    + LaurentPolynomial.constant(2, rng.randint(-2, 2)))

        for _ in range(10):
            entries = [[poly() for _ in range(5)] for _ in range(5)]
            assert det_ring(entries) == leibniz_det(entries)

    def test_non_square_and_cap(self):
        one = LaurentPolynomial.one(1)
        with pytest.raises(ValueError):
            det_ring([[one, one]])
        with pytest.raises(ValueError):
            maximal_minors([[one, one]])
        big = [[one] * 13 for _ in range(13)]
        with pytest.raises(DeterminantSizeError, match="matrix size 13 exceeds cap 12"):
            det_ring(big)
        with pytest.raises(DeterminantSizeError, match="matrix size 13 exceeds cap 12"):
            maximal_minors(big + [[one] * 13])

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_maximal_minors_equal_the_permutation_sum(self, data):
        """Every k-subset of rows, 1 <= k <= N <= 6, with zero entries and
        repeated rows, over scalar and over monomial entries."""
        N = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, N))
        if data.draw(st.booleans()):
            entry = st.integers(-2, 2).map(lambda c: LaurentPolynomial.constant(2, c))
        else:
            entry = st.tuples(exponents, st.integers(-2, 2)).map(
                lambda ec: LaurentPolynomial.monomial(2, ec[0], ec[1]))
        rows = []
        for _ in range(N):
            if rows and data.draw(st.integers(0, 3)) == 0:
                rows.append(list(rows[data.draw(st.integers(0, len(rows) - 1))]))
            else:
                rows.append(data.draw(st.lists(entry, min_size=k, max_size=k)))
        minors = maximal_minors(rows)
        assert list(minors) == list(itertools.combinations(range(N), k))
        assert minors == leibniz_minors(rows)


def kernel_matrix(seed):
    """A seeded N x k matrix for the integer minor kernel, k = 1 + seed % 8
    and N = k + (seed // 8) % 4, over two variables with exponents -1..1.
    Each column draws its denominators from 1..D for its own D in 1..12, or
    is all-integer, or (now and then) all zero; entries are zero about a
    quarter of the time and otherwise have one to three terms, and some
    rows are a multiple of an earlier row by a constant or a binomial, so
    sums of cofactor products cancel."""
    rng = random.Random(seed)
    k = 1 + seed % 8
    N = k + (seed // 8) % 4
    kinds = [rng.choice(["rational", "rational", "integer", "zero"]) if k > 1 else "rational"
             for _ in range(k)]
    dens = [rng.randint(1, 12) if kind == "rational" else 1 for kind in kinds]

    def entry(col):
        if kinds[col] == "zero" or rng.random() < 0.25:
            return LaurentPolynomial.zero(2)
        return LaurentPolynomial(2, {
            (rng.randint(-1, 1), rng.randint(-1, 1)):
                Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, dens[col]))
            for _ in range(rng.randint(1, 3))})

    rows = []
    for _ in range(N):
        if rows and rng.random() < 0.2:
            factor = rng.choice([
                LaurentPolynomial.constant(2, Fraction(rng.randint(-3, 3), rng.randint(1, 4))),
                parse_polynomial(rng.choice(["t1 - t2", "t1^-1 + 1/2", "t2 + 3*t1^-1"]), 2)])
            rows.append([factor * e for e in rng.choice(rows)])
        else:
            rows.append([entry(col) for col in range(k)])
    return rows


def near_limit_matrix(seed):
    """A seeded N x k monomial-and-binomial matrix, 1 <= k <= 3 and
    N = k + 1, whose exponents lie near +-EXPONENT_LIMIT / d for d in 1..3,
    so some products leave the exponent range and some do not."""
    rng = random.Random(seed)
    k = rng.randint(1, 3)

    def exponent():
        return rng.choice([-1, 1]) * (EXPONENT_LIMIT // rng.randint(1, 3) - rng.randint(0, 2))

    def entry():
        if rng.random() < 0.3:
            return LaurentPolynomial.zero(2)
        return LaurentPolynomial(2, {(exponent(), rng.randint(-1, 1)): rng.randint(1, 3)
                                     for _ in range(rng.randint(1, 2))})

    return [[entry() for _ in range(k)] for _ in range(k + 1)]


class TestIntegerKernel:
    """``maximal_minors`` runs on int terms; the reference is the same
    Laplace expansion in ``LaurentPolynomial`` arithmetic."""

    @pytest.mark.parametrize("seed", range(64))
    def test_minors_match_the_fraction_expansion(self, seed):
        """Value, exponent bound and term order of every minor, for each
        k = 1..8 and N = k..k+3 (twice)."""
        rows = kernel_matrix(seed)
        minors = maximal_minors(rows)
        expected = laplace_minors(rows)
        assert list(minors) == list(expected)
        for subset, minor in minors.items():
            assert minor == expected[subset], subset
            assert minor._reach == expected[subset]._reach, subset
            assert list(minor._terms) == list(expected[subset]._terms), subset

    def test_inputs_cover_the_cases(self):
        """The seeded inputs above have rational, integer and zero columns,
        zero entries, negative exponents, and minors that vanish on rows
        with no zero row or column."""
        kinds = set()
        for seed in range(64):
            rows = kernel_matrix(seed)
            for col in range(len(rows[0])):
                coeffs = [c for row in rows for _, c in row[col].terms()]
                kinds.add("zero column" if not coeffs else
                          "integer" if all(c.denominator == 1 for c in coeffs) else "rational")
            cells = [p for row in rows for p in row]
            if any(p.is_zero() for p in cells):
                kinds.add("zero entry")
            if any(e < 0 for p in cells for exps, _ in p.terms() for e in exps):
                kinds.add("negative exponent")
            for subset, minor in maximal_minors(rows).items():
                block = [rows[r] for r in subset]
                if (minor.is_zero() and all(any(row) for row in block)
                        and all(any(column) for column in zip(*block))):
                    kinds.add("cancelled minor")
        assert kinds == {"zero column", "integer", "rational", "zero entry",
                         "negative exponent", "cancelled minor"}

    @pytest.mark.parametrize("seed", range(40))
    def test_overflow_matches_the_fraction_expansion(self, seed):
        """Near the exponent limit the same inputs raise the same error, and
        the others give the same minors, bounds and term order."""

        def outcome(minors_of, rows):
            try:
                return [(m, m._reach, list(m._terms)) for m in minors_of(rows).values()]
            except ExponentOverflowError as exc:
                return str(exc)

        rows = near_limit_matrix(seed)
        assert outcome(maximal_minors, rows) == outcome(laplace_minors, rows)

    def test_mixed_variable_counts_are_refused(self):
        rows = [[LaurentPolynomial.one(2), LaurentPolynomial.zero(2)],
                [LaurentPolynomial.zero(3), LaurentPolynomial.one(2)]]
        with pytest.raises(ValueError, match="variable count mismatch"):
            maximal_minors(rows)

    @pytest.mark.parametrize("size", range(1, 9))
    def test_constant_determinants_against_sympy(self, size):
        sp = pytest.importorskip("sympy")
        rng = random.Random(500 + size)
        dens = [rng.randint(1, 12) for _ in range(size)]
        values = [[Fraction(rng.choice([-9, -7, -4, -2, -1, 1, 3, 5, 8]), rng.randint(1, dens[col]))
                   for col in range(size)] for _ in range(size)]
        det = det_ring([[LaurentPolynomial.constant(1, v) for v in row] for row in values])
        expected = sp.Matrix([[sp.Rational(v.numerator, v.denominator) for v in row]
                              for row in values]).det()
        assert expected != 0
        assert det == LaurentPolynomial.constant(1, Fraction(int(expected.p), int(expected.q)))

    @pytest.mark.parametrize("seed", range(6))
    def test_grassmann_plucker_on_the_minors(self, seed, monkeypatch):
        """Every relation of four rows against two of a seeded rational 6 x 3
        matrix, with each determinant read from its ``maximal_minors``."""
        rng = random.Random(900 + seed)
        values = [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 12)) for _ in range(3))
                  for _ in range(6)]
        assert len(set(values)) == 6
        index = {row: r for r, row in enumerate(values)}
        minors = maximal_minors([[LaurentPolynomial.constant(1, v) for v in row]
                                 for row in values])
        reads = []

        def minor_of(rows):
            chosen = [index[tuple(row)] for row in rows]
            sign = perm_sign(chosen)
            if not sign:
                return Fraction(0)
            minor = minors[tuple(sorted(chosen))]
            reads.append(minor)
            return sign * sum((c for _, c in minor.terms()), Fraction(0))

        monkeypatch.setattr(criterion, "det_fraction", minor_of)
        for es in itertools.combinations(values, 4):
            for fs in itertools.combinations(values, 2):
                assert criterion.grassmann_plucker_defect(es, fs) == 0
        assert sum(1 for minor in reads if minor) > 100


def mixed_poly(rng, nvars=2, max_terms=4):
    """A seeded polynomial built from coefficients that mix ints, bools,
    integral Fractions and proper fractions, with +-1 among them and
    negative exponents."""
    def coefficient():
        return rng.choice([rng.randint(-9, 9), rng.choice([-1, 1]), True,
                           Fraction(rng.randint(-9, 9)),
                           Fraction(rng.randint(-9, 9), rng.randint(1, 6))])

    return LaurentPolynomial(nvars, {tuple(rng.randint(-3, 3) for _ in range(nvars)): coefficient()
                                     for _ in range(rng.randint(0, max_terms))})


def assert_stored(p):
    """Every stored coefficient follows the scalar rule."""
    assert_scalar_rule(p._terms.values())


def assert_same(result, oracle):
    """``result`` equals the Fraction oracle in value, exponent bound and
    term order, and stores its coefficients as ints or Fractions."""
    assert result == oracle
    assert result._reach == oracle._reach
    assert list(result._terms) == list(oracle._terms)
    assert_stored(result)


class TestIntegerCoefficients:
    """Integral coefficients are stored as ints; every result matches the
    same operation on Fraction coefficients (``oracles.f_*``)."""

    SEEDS = range(80)

    def test_sums_differences_negation_and_products(self):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            a, b = mixed_poly(rng), mixed_poly(rng)
            fa, fb = fraction_poly(a), fraction_poly(b)
            assert_stored(a)
            assert_same(a + b, f_add(fa, fb))
            assert_same(a - b, f_sub(fa, fb))
            assert_same(-a, f_neg(fa))
            assert_same(a * b, f_mul(fa, fb))
            # halves on the same keys: sums and differences of Fractions
            # that come out integral
            half, other = a * Fraction(1, 2), b * Fraction(1, 2) + a * Fraction(3, 2)
            fhalf, fother = fraction_poly(half), fraction_poly(other)
            assert_same(half + half, f_add(fhalf, fhalf))
            assert_same(half + other, f_add(fhalf, fother))
            assert_same(other - half, f_sub(fother, fhalf))
            for scalar in (rng.randint(-3, 3), True, Fraction(rng.randint(-4, 4), rng.randint(1, 4))):
                assert_same(a * scalar, f_mul(fa, scalar))
                assert_same(scalar * a, f_mul(fa, scalar))
                assert_same(a + scalar, f_add(fa, f_constant(2, scalar)))

    def test_powers(self):
        """Powers -3..3 of monomials with non-unit coefficients (so an
        inverse may be integral or not), and 0..3 of any polynomial."""
        for seed in self.SEEDS:
            rng = random.Random(seed)
            coeff = rng.choice([2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 1)])
            monomial = LaurentPolynomial.monomial(2, (rng.randint(-3, 3), rng.randint(-3, 3)), coeff)
            for power in range(-3, 4):
                assert_same(monomial ** power, f_pow(fraction_poly(monomial), power))
            p = mixed_poly(rng, max_terms=3)
            for power in range(4):
                assert_same(p ** power, f_pow(fraction_poly(p), power))
            if len(p) > 1:
                with pytest.raises(ExactDivisionError):
                    p ** -1

    def test_derivations(self):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            p = mixed_poly(rng, nvars=3)
            specs = [DerivationSpec.euler(rng.randint(1, 3), 3),
                     DerivationSpec.partial(rng.randint(1, 3), 3),
                     DerivationSpec.general([mixed_poly(rng, nvars=3, max_terms=2)
                                             for _ in range(3)])]
            for spec in specs:
                assert_same(spec.apply(p), f_apply(spec, fraction_poly(p)))

    def test_exact_divide(self):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            a, b = mixed_poly(rng, max_terms=3), mixed_poly(rng, max_terms=3)
            if b.is_zero():
                continue
            num = a * b
            assert_same(exact_divide(num, b), f_exact_divide(fraction_poly(num), fraction_poly(b)))

    def test_minors_and_determinants(self):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            k = rng.randint(1, 3)
            rows = [[mixed_poly(rng, max_terms=2) for _ in range(k)]
                    for _ in range(k + rng.randint(0, 2))]
            if rng.random() < 0.5:  # an integral matrix, whose columns all have scale 1
                rows = [[p * math.lcm(*(c.denominator for _, c in p.terms())) for p in row]
                        for row in rows]
            expected = laplace_minors(rows)
            minors = maximal_minors(rows)
            assert list(minors) == list(expected)
            for subset, minor in minors.items():
                assert_same(minor, expected[subset])
            assert_same(det_ring(rows[:k]), laplace_minors(rows[:k])[tuple(range(k))])

    def test_parse_with_rational_literals(self):
        for seed in self.SEEDS:
            text, expected = random_expression(random.Random(seed), 3)
            assert_same(parse_polynomial(text, 3), expected)

    def test_int_and_fraction_coefficients_are_one_polynomial(self):
        """A polynomial equals, and hashes like, the same terms stored as
        Fractions."""
        for seed in self.SEEDS:
            p = mixed_poly(random.Random(seed))
            q = fraction_poly(p)
            assert p == q and q == p and hash(p) == hash(q)
            assert {p: seed}[q] == seed

    def test_bool_coefficients_are_stored_and_printed_as_ints(self):
        one = LaurentPolynomial.constant(1, True)
        assert_stored(one)
        assert format_polynomial(one) == "1"
        assert format_polynomial(LaurentPolynomial.monomial(2, (1, -1), True)) == "t1*t2^-1"
        assert format_polynomial(LaurentPolynomial.variable(2, 1) * True - True) == "t1 - 1"
        assert LaurentPolynomial.constant(1, False).is_zero()

    def test_formatter_matches_the_oracle(self):
        """On int and Fraction coefficients (+-1 and long ones among them),
        constants, negative exponents and zero; the entries of seeded scalar
        matrices; monomials at +-EXPONENT_LIMIT; 0, 1 and 12 to 14
        variables; and polynomials of hundreds of terms.  The
        Fraction-stored copy prints the same."""
        polys_seen = [LaurentPolynomial.zero(2), LaurentPolynomial.constant(2, -1),
                      LaurentPolynomial.constant(2, Fraction(-7, 3)),
                      LaurentPolynomial.zero(0), LaurentPolynomial.constant(0, Fraction(5, 2)),
                      LaurentPolynomial.constant(1, -4), LaurentPolynomial.constant(13, 1),
                      LaurentPolynomial.monomial(3, (1, -2, 0), Fraction(-123456789, 1000003)),
                      LaurentPolynomial.constant(2, -10**30) + Fraction(10**20 + 1, 10**20)]
        for seed in self.SEEDS:
            rng = random.Random(seed)
            polys_seen.append(mixed_poly(rng, nvars=rng.randint(0, 4), max_terms=6))
            polys_seen.append(mixed_poly(rng, nvars=rng.randint(12, 14), max_terms=4))
        for seed in range(8):
            sampler = MonomialSampler(7, seed=seed)
            n, m = ((5, 2), (4, 3))[seed % 2]
            polys_seen.extend(entry for row in sampler.scalar_matrix(n, m).entries
                              for entry in row)
        for nvars in (1, 3, 12):
            for sign, coeff in itertools.product((-1, 1), (1, -1, 3, Fraction(-2, 5))):
                exps = [0] * nvars
                exps[nvars // 2] = sign * EXPONENT_LIMIT
                exps[-1] -= sign  # one variable: the limit, less one
                polys_seen.append(LaurentPolynomial.monomial(nvars, exps, coeff))
        for seed, nvars in enumerate((1, 2, 5, 9)):
            rng = random.Random(1000 + seed)
            polys_seen.append(LaurentPolynomial(nvars, {
                tuple(rng.randint(-9, 9) for _ in range(nvars)):
                    rng.choice([rng.randint(-99, 99), 1, -1, Fraction(rng.randint(-9, 9), 7)])
                for _ in range(400)}))
        assert max(len(p) for p in polys_seen) > 300
        for p in polys_seen:
            assert format_polynomial(p) == format_polynomial_oracle(p)
            assert format_polynomial(fraction_poly(p)) == format_polynomial_oracle(p)

    def test_scalar_entries_print_their_int_parts(self):
        entries = [LaurentPolynomial.constant(7, c)
                   for c in (3, -3, 1, -1, Fraction(9, 4), Fraction(-9, 4), Fraction(8, 4))]
        assert [format_polynomial(p) for p in entries] == \
            ["3", "-3", "1", "-1", "9/4", "-9/4", "2"]
        t1 = LaurentPolynomial.variable(7, 1)
        assert format_polynomial(Fraction(-9, 4) * t1 - t1 * t1 + 1) == "-t1^2 - 9/4*t1 + 1"


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

    def test_division_near_the_exponent_limit(self):
        """The quotient t1^(L-2) is refused for t1^L*t2 over a divisor whose
        leading term t2 lacks its largest t1 power: the remainder would
        leave the exponent range.  The exact multiple divides."""
        den = parse_polynomial("t1^2*t2^-5 + t2", 2)
        with pytest.raises(ExactDivisionError):
            exact_divide(LaurentPolynomial.monomial(2, (EXPONENT_LIMIT, 1)), den)
        quotient = LaurentPolynomial.monomial(2, (EXPONENT_LIMIT - 2, 0))
        assert exact_divide(den * quotient, den) == quotient


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
        assert sp.expand(self.to_sympy(sp, det_ring(entries)) - expected) == 0
        # the same columns under one or two more rows: every maximal minor,
        # over Q[t1, t2] after multiplying each entry by t1*t2 (exponents
        # are at least -1), so each minor gains the factor (t1*t2)^k
        from sympy.polys.matrices import DomainMatrix
        domain = sp.QQ[sp.symbols("t1:3")]

        def shifted(p, shift):
            return domain.ring.from_dict({
                tuple(e + shift for e in exps): sp.QQ(c.numerator, c.denominator)
                for exps, c in p.terms()})

        rows = entries + [[self.seeded_poly(rng) for _ in range(k)]
                          for _ in range(rng.randint(1, 2))]
        for subset, minor in maximal_minors(rows).items():
            matrix = DomainMatrix([[shifted(p, 1) for p in rows[r]] for r in subset],
                                  (k, k), domain)
            assert shifted(minor, k) == matrix.det()

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
