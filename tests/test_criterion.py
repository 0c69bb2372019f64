import itertools
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import pytest
from poisson_nlie import cli, criterion
from poisson_nlie.criterion import (
    AssumptionsError,
    DEFAULT_GROUP_BUDGET,
    BudgetExceededError,
    _Curls,
    _SignedPi,
    _frobenius_terms,
    _integrable,
    _scan,
    _tuple_counts,
    check_criterion,
    expanded_identity_defect,
    grassmann_plucker_defect,
    group_residual_a,
    group_residual_b,
    probe_conjecture,
    replace_position,
)
from poisson_nlie.jacobian_bracket import (
    AdjoinedMatrix,
    MonomialSampler,
    fundamental_defect,
    perm_sign,
    pi_table,
)
from poisson_nlie.ring import (
    DerivationSpec,
    ExponentOverflowError,
    EXPONENT_LIMIT,
    LaurentPolynomial,
    certify_family,
    check_product_range,
    det_ring,
    euler_family,
    format_polynomial,
    parse_polynomial,
    partial_family,
)
from poisson_nlie.subspaces import Subspace, rref

from oracles import (
    OrderedPiReads,
    check_criterion_pi_first,
    literal_group_a,
    literal_group_b,
)


# ---------------------------------------------------------------------------
# Test-only oracles: the literal per-tuple residuals and the group-by-group
# scan that check_criterion replaced
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModifiedIndexSets:
    """The four substituted tuples for sorted (I, J) at positions k, t.

    Display order: substitutions applied to the sorted enumerations.  A
    tuple is degenerate when an index repeats; its expansion coefficient
    is zero by convention.
    """

    j_up: Tuple[int, ...]        # J with its k-th entry replaced by i_1
    i_down: Tuple[int, ...]      # I with its first entry replaced by j_k
    j_up_t: Tuple[int, ...]      # J with its k-th entry replaced by i_t
    i_down_t: Tuple[int, ...]    # I with j_k first and i_1 in slot t

    def degenerate(self, which: str) -> bool:
        return perm_sign(getattr(self, which)) == 0


def modified_sets(I: Sequence[int], J: Sequence[int], k: int, t: int) -> ModifiedIndexSets:
    I = tuple(I)
    J = tuple(J)
    n = len(I)
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    if not 2 <= t <= n:
        raise ValueError("t out of range")
    return ModifiedIndexSets(
        j_up=replace_position(J, k, I[0]),
        i_down=(J[k - 1],) + I[1:],
        j_up_t=replace_position(J, k, I[t - 1]),
        i_down_t=(J[k - 1],) + I[1:t - 1] + (I[0],) + I[t:],
    )


@dataclass(frozen=True)
class CriterionTuple:
    """One literal case: sorted I, J with image arrangements of each, and
    the second-derivative slot t (absent for the first residual family)."""

    i_set: Tuple[int, ...]
    j_set: Tuple[int, ...]
    sigma_i: Tuple[int, ...]
    sigma_j: Tuple[int, ...]
    t: Optional[int] = None

    def __post_init__(self):
        if tuple(sorted(self.sigma_i)) != tuple(self.i_set):
            raise ValueError("sigma_i must arrange exactly the elements of I")
        if tuple(sorted(self.sigma_j)) != tuple(self.j_set):
            raise ValueError("sigma_j must arrange exactly the elements of J")


def residual_a(ctx: CriterionTuple, A: AdjoinedMatrix, family,
               pi: Optional[dict] = None) -> LaurentPolynomial:
    """First residual family for one tuple: the pi-derivative identity.

    Substituted tuples act on the arrangement images: sigma(J^k) replaces
    the k-th image of sigma(J) by the first image of sigma(I), and
    sigma(I_k) replaces the first image of sigma(I) by the k-th image of
    sigma(J).
    """
    signed = OrderedPiReads(pi_table(A) if pi is None else pi, family)
    u, w = ctx.sigma_i, ctx.sigma_j
    r = u[0]
    total = LaurentPolynomial.zero(A.nvars)
    lead = signed.value(u)
    if lead is not None:
        d = signed.get(r, w)
        if d is not None:
            total = total + lead * d
    for k in range(1, len(u) + 1):
        pw = signed.value(replace_position(w, k, u[0]))
        if pw is None:
            continue
        d = signed.get(r, (w[k - 1],) + u[1:])
        if d is not None:
            total = total - pw * d
    return total


def residual_b(ctx: CriterionTuple, A: AdjoinedMatrix, family,
               pi: Optional[dict] = None) -> LaurentPolynomial:
    """Second residual family for one tuple: the quadratic pi identity in
    which the plain and t-swapped substitutions cancel in pairs."""
    if ctx.t is None:
        raise ValueError("residual_b needs the slot index t")
    signed = OrderedPiReads(pi_table(A) if pi is None else pi, family)
    u, w = ctx.sigma_i, ctx.sigma_j
    t = ctx.t
    total = LaurentPolynomial.zero(A.nvars)
    for k in range(1, len(u) + 1):
        wk = w[k - 1]
        pj = signed.value(replace_position(w, k, u[0]))
        if pj is not None:
            pi_down = signed.value((wk,) + u[1:])
            if pi_down is not None:
                total = total + pj * pi_down
        pj_t = signed.value(replace_position(w, k, u[t - 1]))
        if pj_t is not None:
            pi_down_t = signed.value((wk,) + u[1:t - 1] + (u[0],) + u[t:])
            if pi_down_t is not None:
                total = total + pj_t * pi_down_t
    return total


def reference_first_nonzero_group(A, family, pi):
    """The first grouped residual that does not vanish, as a counterexample;
    None when all vanish.  Every group is evaluated literally, the first
    family before the second, each in lexicographic order of its labels."""
    reads = OrderedPiReads(pi, family)
    n = A.n
    idx = range(1, n + A.m + 1)
    alphas = list(itertools.combinations(idx, n))
    for alpha, beta in itertools.product(alphas, itertools.combinations(idx, n - 1)):
        value = literal_group_a(alpha, beta, A, reads)
        if not value.is_zero():
            return {
                "residual_family": "first",
                "x_pattern": list(alpha),
                "y_tail": list(beta),
                "residual": format_polynomial(value),
            }
    for alpha, pair, rest in itertools.product(
            alphas, itertools.combinations_with_replacement(idx, 2),
            itertools.combinations(idx, n - 2)):
        value = literal_group_b(alpha, pair, rest, A, reads)
        if not value.is_zero():
            return {
                "residual_family": "second",
                "x_pattern": list(alpha),
                "derivative_pair": list(pair),
                "y_tail_rest": list(rest),
                "residual": format_polynomial(value),
            }
    return None


def gradient_matrix(n, m, ys, family):
    """Adjoined columns a_{r,s} = d_r(y_s)."""
    rows = [[family[r].apply(y) for y in ys] for r in range(n + m)]
    return AdjoinedMatrix.from_rows(n, m, rows)


def identity_block_matrix(n, m, f):
    nv = f.nvars
    zero = LaurentPolynomial.zero(nv)
    rows = [[f if r == s else zero for s in range(m)] for r in range(m)]
    rows += [[zero] * m for _ in range(n)]
    return AdjoinedMatrix.from_rows(n, m, rows)


class TestModifiedSets:
    def test_equal_sets_fix_the_first_slot(self):
        I = (1, 2, 3)
        ms = modified_sets(I, I, 1, 2)
        assert ms.j_up == I and ms.i_down == I

    def test_degenerate_substitution(self):
        ms = modified_sets((1, 2, 3), (1, 4, 5), 2, 2)
        assert ms.j_up == (1, 1, 5)
        assert ms.degenerate("j_up")

    def test_mixed_degeneracy(self):
        ms = modified_sets((1, 2, 3), (3, 4, 5), 1, 2)
        assert ms.i_down_t == (3, 1, 3)
        assert ms.degenerate("i_down_t")
        assert ms.j_up_t == (2, 4, 5)
        assert not ms.degenerate("j_up_t")

    def test_range_checks(self):
        with pytest.raises(ValueError):
            modified_sets((1, 2), (1, 2), 3, 2)
        with pytest.raises(ValueError):
            modified_sets((1, 2), (1, 2), 1, 1)


class TestResiduals:
    def test_scalar_matrix_kills_first_family(self, euler5):
        sampler = MonomialSampler(5, seed=0)
        A = sampler.scalar_matrix(3, 2)
        pi = pi_table(A)
        for I in itertools.combinations(range(1, 6), 3):
            for J in itertools.combinations(range(1, 6), 3):
                ctx = CriterionTuple(I, J, I, J)
                assert residual_a(ctx, A, euler5, pi).is_zero()

    def test_identity_block_pattern_all_tuples_vanish(self, euler3):
        f = parse_polynomial("t1*t2^2", 3)
        A = identity_block_matrix(2, 1, f)
        pi = pi_table(A)
        subsets = list(itertools.combinations(range(1, 4), 2))
        for I in subsets:
            for J in subsets:
                for si in itertools.permutations(I):
                    for sj in itertools.permutations(J):
                        assert residual_a(CriterionTuple(I, J, si, sj), A, euler3, pi).is_zero()
                        for t in range(2, 3):
                            assert residual_b(CriterionTuple(I, J, si, sj, t),
                                              A, euler3, pi).is_zero()

    def test_equal_index_sets_cancel_pairwise(self, euler5):
        """With I = J only the k fixing the first slot and its t-swapped
        partner survive, and they cancel for any arrangements."""
        sampler = MonomialSampler(5, seed=1)
        A = sampler.scalar_matrix(3, 2)
        pi = pi_table(A)
        I = (1, 3, 5)
        for si in itertools.permutations(I):
            for sj in itertools.permutations(I):
                for t in (2, 3):
                    ctx = CriterionTuple(I, I, si, sj, t)
                    assert residual_b(ctx, A, euler5, pi).is_zero()

    def test_sigma_j_sign_factorization(self, euler5):
        """Permuting the sigma(J) arrangement scales the residual by the
        permutation sign (the relabeling invariance of the second family)."""
        sampler = MonomialSampler(5, seed=2)
        A = sampler.monomial_matrix(3, 2)
        pi = pi_table(A)
        rng = random.Random(3)
        subsets = list(itertools.combinations(range(1, 6), 3))
        for _ in range(20):
            I = rng.choice(subsets)
            J = rng.choice(subsets)
            si = tuple(rng.sample(I, 3))
            sj = tuple(rng.sample(J, 3))
            base = residual_b(CriterionTuple(I, J, si, J, 2), A, euler5, pi)
            value = residual_b(CriterionTuple(I, J, si, sj, 2), A, euler5, pi)
            expected = base if perm_sign(sj) > 0 else -base
            assert value == expected

    def test_residual_b_requires_t(self, euler3):
        A = MonomialSampler(3, seed=0).scalar_matrix(2, 1)
        with pytest.raises(ValueError):
            residual_b(CriterionTuple((1, 2), (1, 2), (1, 2), (1, 2)), A, euler3)

    def test_scalar_matrix_vanishes_over_all_arrangements(self, euler5):
        """For passing matrices the second residual stays zero under every
        relabeling of both arrangements (the relabeling invariance)."""
        A = MonomialSampler(5, seed=6).scalar_matrix(3, 2)
        pi = pi_table(A)
        subsets = list(itertools.combinations(range(1, 6), 3))
        rng = random.Random(7)
        for _ in range(40):
            I = rng.choice(subsets)
            J = rng.choice(subsets)
            si = tuple(rng.sample(I, 3))
            sj = tuple(rng.sample(J, 3))
            t = rng.choice((2, 3))
            assert residual_b(CriterionTuple(I, J, si, sj, t), A, euler5, pi).is_zero()


class TestGroupedConditions:
    def test_groups_cover_per_tuple_values_for_scalar_matrices(self, euler5):
        sampler = MonomialSampler(5, seed=4)
        A = sampler.scalar_matrix(3, 2)
        pi = pi_table(A)
        idx = range(1, 6)
        for alpha in itertools.combinations(idx, 3):
            for beta in itertools.combinations(idx, 2):
                assert group_residual_a(alpha, beta, A, euler5, pi).is_zero()
        for alpha in itertools.combinations(idx, 3):
            for pair in [(r1, r2) for r1 in idx for r2 in idx if r1 <= r2]:
                for rest in itertools.combinations(idx, 1):
                    assert group_residual_b(alpha, pair, rest, A, pi).is_zero()

    def test_gradient_matrix_passes_but_a_tuple_slice_need_not(self, euler3):
        """The per-tuple first-family residual is not a consequence of the
        Poisson property on its own; only the grouped sums are.  A gradient
        column gives a Poisson bracket whose grouped residuals vanish even
        though individual index-tuple slices may not."""
        y = parse_polynomial("t1^2*t2 + t3", 3)
        A = gradient_matrix(2, 1, [y], euler3)
        report = check_criterion(A, euler3)
        assert report.passed()
        pi = pi_table(A)
        slices = []
        for I in itertools.combinations(range(1, 4), 2):
            for J in itertools.combinations(range(1, 4), 2):
                for si in itertools.permutations(I):
                    value = residual_a(CriterionTuple(I, J, si, J), A, euler3, pi)
                    slices.append(value.is_zero())
        assert not all(slices)


def _reference_signed(tup, pi):
    """sgn(tup) * pi^{sorted tup}, None on a repeat; independent of the
    package's cache and of ``signed_pi``."""
    sign = perm_sign(tup)
    if sign == 0:
        return None
    value = pi[tuple(sorted(tup))]
    return value if sign > 0 else -value


def _reference_group_a(alpha, beta, A, family, pi):
    """The first-family group with a sign and a sorted key at every read."""
    total = LaurentPolynomial.zero(A.nvars)
    lead_sign = perm_sign(alpha)
    lead_key = tuple(sorted(alpha))
    lead_live = lead_sign != 0 and not pi[lead_key].is_zero()
    for r in range(1, A.n + A.m + 1):
        if lead_live:
            pu = _reference_signed((r,) + beta, pi)
            if pu is not None and not pu.is_zero():
                term = pu * family[r - 1].apply(pi[lead_key])
                total = total + (term if lead_sign > 0 else -term)
        for k in range(1, len(alpha) + 1):
            pw = _reference_signed(alpha[:k - 1] + (r,) + alpha[k:], pi)
            if pw is None or pw.is_zero():
                continue
            down = (alpha[k - 1],) + beta
            sign = perm_sign(down)
            if sign == 0:
                continue
            term = pw * family[r - 1].apply(pi[tuple(sorted(down))])
            total = total - (term if sign > 0 else -term)
    return total


def _reference_group_b(alpha, pair, rest, A, pi):
    total = LaurentPolynomial.zero(A.nvars)
    orderings = [pair] if pair[0] == pair[1] else [pair, (pair[1], pair[0])]
    for k in range(1, len(alpha) + 1):
        for r1, r2 in orderings:
            pw = _reference_signed(alpha[:k - 1] + (r1,) + alpha[k:], pi)
            pu = _reference_signed((alpha[k - 1], r2) + rest, pi)
            if pw is not None and pu is not None:
                total = total + pw * pu
    return total


def _derivations(kind, nv):
    """The Euler family, or a family certified for the check whose
    derivations shift exponents: partial derivatives, or halved ones, whose
    coefficient 1/2 brings in a denominator the pi table need not have."""
    if kind == "euler":
        return euler_family(nv)
    half = LaurentPolynomial.constant(nv, Fraction(1, 2))
    zero = LaurentPolynomial.zero(nv)
    specs = [DerivationSpec.partial(i, nv) if kind == "partial" else
             DerivationSpec.general([half if j == i else zero for j in range(1, nv + 1)])
             for i in range(1, nv + 1)]
    return certify_family(specs, assumptions_12=True)


def _negative(p):
    """p with every exponent e moved to -1 - |e|."""
    return LaurentPolynomial(p.nvars, {tuple(-1 - abs(e) for e in exps): c
                                       for exps, c in p.terms()})


def _rational_binomial(sampler):
    """A binomial with negative exponents and coefficients over 3."""
    return _negative(sampler.binomial()) * Fraction(2, 3)


def _seeded_matrix(kind, n, m, family, seed):
    sampler = MonomialSampler(n + m, seed=seed)
    if kind == "scalar":
        return sampler.scalar_matrix(n, m)
    if kind == "monomial":
        return sampler.monomial_matrix(n, m)
    if kind in ("gradient", "partial"):
        return gradient_matrix(n, m, [sampler.binomial() for _ in range(m)], family)
    if kind == "rational":
        return AdjoinedMatrix.from_rows(
            n, m, [[sampler.monomial() * Fraction(r + 1, 3 + s) for s in range(m)]
                   for r in range(n + m)])
    if kind == "negative":
        return AdjoinedMatrix.from_rows(
            n, m, [[_negative(sampler.monomial()) for _ in range(m)] for _ in range(n + m)])
    return identity_block_matrix(n, m, sampler.binomial())


class TestSignedCache:
    @pytest.mark.parametrize("kind", ["scalar", "monomial", "gradient", "block"])
    @pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (2, 3), (4, 1), (3, 3)])
    def test_every_group_matches_the_sign_per_read_reference(self, kind, n, m):
        """One cache shared by both families, as in check_criterion, gives
        every group the value of the formulas that sign each read."""
        family = euler_family(n + m)
        A = _seeded_matrix(kind, n, m, family, seed=10 * n + m)
        pi = pi_table(A)
        signed = _SignedPi(pi, family)
        idx = range(1, n + m + 1)
        nonzero = 0
        for alpha in itertools.combinations(idx, n):
            for beta in itertools.combinations(idx, n - 1):
                value = group_residual_a(alpha, beta, A, family, _dpi=signed)
                assert value == _reference_group_a(alpha, beta, A, family, pi), (alpha, beta)
                nonzero += not value.is_zero()
            for pair in itertools.combinations_with_replacement(idx, 2):
                for rest in itertools.combinations(idx, n - 2):
                    value = group_residual_b(alpha, pair, rest, A, _dpi=signed)
                    assert value == _reference_group_b(alpha, pair, rest, A, pi), \
                        (alpha, pair, rest)
                    nonzero += not value.is_zero()
        if kind == "monomial":
            assert nonzero  # the comparison sees nonzero residuals too

    def test_cache_is_filled_lazily(self):
        """(12, 0) reads about 10^4 ordered tuples of the 12! = 4.8e8 a
        precomputed table would hold."""
        started = time.perf_counter()
        report = check_criterion(AdjoinedMatrix.empty(12, 12), euler_family(12))
        assert report.passed()
        assert report.counts["groups_total"] == 5160
        assert time.perf_counter() - started < 1.0


def _perturbed_table(kind, n, m, rng, family):
    """A pi table keyed by sorted index set that is not a minor table:
    sparse random constants (many forms vanish, so first failures spread
    over the forms), or the minor table of a passing matrix with one entry
    moved (by a constant, or by a monomial so that derivatives see it; the
    rational kind has denominators and negative exponents throughout)."""
    nv = n + m
    subsets = list(itertools.combinations(range(1, nv + 1), n))
    if kind == "constant":
        return {S: LaurentPolynomial.constant(nv, rng.choice((0, 0, 0, 1, -1, 2)))
                for S in subsets}
    sampler = MonomialSampler(nv, seed=rng.randrange(10**6))
    if kind == "scalar-moved":
        pi = pi_table(sampler.scalar_matrix(n, m))
        shift = LaurentPolynomial.constant(nv, rng.choice((-2, -1, 1, 3)))
    elif kind == "rational-moved":
        ys = [_rational_binomial(sampler) for _ in range(m)]
        pi = pi_table(gradient_matrix(n, m, ys, family))
        shift = _negative(sampler.monomial()) * Fraction(-3, 7)
    else:
        pi = pi_table(gradient_matrix(n, m, [sampler.binomial() for _ in range(m)], family))
        shift = sampler.monomials(1)[0]
    S = rng.choice(subsets)
    pi[S] = pi[S] + shift
    return pi


class TestStreamedScan:
    """check_criterion evaluates the first-family groups one by one, in label
    order, through group_residual_a, and stops at the first nonzero one; the
    literal group-by-group scan is the reference."""

    @pytest.mark.parametrize("kind", ["scalar", "monomial", "gradient", "block",
                                      "rational", "negative", "partial"])
    @pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (2, 3), (4, 1), (3, 3), (2, 1), (4, 2)])
    def test_reports_match_the_reference_scan(self, kind, n, m):
        """``rational`` has coefficient denominators, ``negative`` only
        negative exponents, and ``partial`` is a gradient matrix under the
        partial family."""
        family = _derivations("partial" if kind == "partial" else "euler", n + m)
        for seed in range(3):
            A = _seeded_matrix(kind, n, m, family, seed)
            report = check_criterion(A, family, matrix_desc=f"{kind} seed={seed}")
            expected = reference_first_nonzero_group(A, family, pi_table(A))
            reference = {**report.to_json_dict(), "counterexample": expected,
                         "verdict": "pass" if expected is None else "fail"}
            assert json.dumps(report.to_json_dict()) == json.dumps(reference), seed

    @pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
    def test_tables_that_are_not_minor_tables(self, n, m):
        """Minor tables pass the second family by the Grassmann-Pluecker
        identity, so the scan matches the first-family half of the literal
        scan.  These tables are not minor tables: the literal scan reaches
        second-family counterexamples on them, so it is the identity, not
        the code, that makes the family vanish.  They also reach
        first-family counterexamples at moved entries, under the Euler
        family and under two that shift exponents."""
        A = MonomialSampler(n + m, seed=0).scalar_matrix(n, m)  # only its shape is read
        kinds = ("constant", "constant", "scalar-moved", "polynomial-moved", "rational-moved")
        for derivations in ("euler", "partial", "halved"):
            family = _derivations(derivations, n + m)
            rng = random.Random(100 * n + m)
            failed = set()
            for trial in range(40):
                kind = kinds[trial % len(kinds)]
                pi = _perturbed_table(kind, n, m, rng, family)
                expected = reference_first_nonzero_group(A, family, pi)
                got = _scan(A, family, pi)
                if expected is not None:
                    failed.add(expected["residual_family"])
                    if expected["residual_family"] == "second":
                        expected = None  # the scan evaluates the first family only
                assert got == expected, (derivations, trial, kind)
            assert "first" in failed
            if n > 2:
                assert "second" in failed
            else:
                assert "second" not in failed  # the family is formally zero at n = 2

    def test_only_a_failing_check_evaluates_groups(self, monkeypatch):
        """A scalar matrix builds no pi table and evaluates no group, and
        neither does a passing gradient check: every curl vanishes, which
        decides them before pi.  A passing f * I block builds pi for the
        Frobenius components but evaluates no group; a failing check
        evaluates the same prefix of groups each time it runs."""
        calls, built = [], []
        evaluate, build = criterion.group_residual_a, criterion.pi_table
        monkeypatch.setattr(criterion, "group_residual_a",
                            lambda *a, **k: calls.append(a[:2]) or evaluate(*a, **k))
        monkeypatch.setattr(criterion, "pi_table", lambda A: built.append(A) or build(A))
        family = euler_family(7)
        for seed in (3, 4):
            report = check_criterion(MonomialSampler(7, seed=seed).scalar_matrix(5, 2), family)
            assert report.passed() and report.phases["pi_table_s"] == 0.0
        sampler = MonomialSampler(7, seed=5)
        A = gradient_matrix(5, 2, [sampler.binomial() for _ in range(2)], family)
        report = check_criterion(A, family)
        assert report.passed() and report.phases["frobenius_s"] > 0.0
        assert calls == [] and built == []
        f = sampler.binomial()
        zero = LaurentPolynomial.zero(7)
        A = AdjoinedMatrix.from_rows(5, 2, [[f if r == s else zero for s in range(2)]
                                            for r in range(7)])
        report = check_criterion(A, family)
        assert report.passed() and calls == [] and built == [A]
        t = [LaurentPolynomial.variable(3, i) for i in (1, 2, 3)]
        A = AdjoinedMatrix.from_rows(2, 1, [[t[1]], [t[2]], [t[0]]])
        prefixes = []
        for _ in range(2):
            report = check_criterion(A, euler_family(3))
            cx = report.counterexample
            assert cx["residual_family"] == "first"
            assert calls[-1] == (tuple(cx["x_pattern"]), tuple(cx["y_tail"]))
            prefixes.append(calls[:])
            calls.clear()
        assert prefixes[0] == prefixes[1] and prefixes[0]
        assert built[1:] == [A, A]
        assert set(report.phases) == {"pi_table_s", "frobenius_s", "evaluate_s"}

    def test_a_failing_cli_check_evaluates_its_prefix(self, capsys, monkeypatch):
        """criterion-check at (9, 3) on a random monomial matrix fails at the
        third of its 108,900 first-family groups and evaluates only those
        three, the second time as the first: no scan state is kept."""
        calls = []
        evaluate = criterion.group_residual_a
        monkeypatch.setattr(criterion, "group_residual_a",
                            lambda *a, **k: calls.append(a[:2]) or evaluate(*a, **k))
        cached = {name for name, value in vars(criterion).items()
                  if hasattr(value, "cache_info") and value.__module__ == criterion.__name__}
        assert cached == {"_frobenius_terms"}  # shape data of the Frobenius pass only
        for _ in range(2):
            code = cli.run(["criterion-check", "--n", "9", "--m", "3", "--matrix",
                            "monomial:random", "--seed", "0", "--quiet"])
            report = json.loads(capsys.readouterr().out)
            assert code == 1 and report["verdict"] == "fail"
            assert report["counts"]["groups_first_family"] == 108_900
            cx = report["counterexample"]
            assert len(calls) == 3
            assert calls[-1] == (tuple(cx["x_pattern"]), tuple(cx["y_tail"]))
            calls.clear()


def generic_matrix(n, m, nv=None):
    """The adjoined matrix whose (n + m) * m entries are the distinct
    variables t_1, t_2, ... of a ring of ``nv`` variables, (n + m) * m by
    default; every adjoined matrix of shape (n, m) is a ring specialisation
    of it."""
    nv = (n + m) * m if nv is None else nv
    return AdjoinedMatrix.from_rows(n, m, [
        [LaurentPolynomial.variable(nv, r * m + s + 1) for s in range(m)]
        for r in range(n + m)])


class TestSecondFamilyCertificate:
    """check_criterion does not evaluate the second family, because every
    group of it is a Grassmann-Pluecker relation among the maximal minors of
    A.  The literal groups vanish on the generic matrix at every shape with
    n >= 3 and m >= 2 that the tests or the benchmark check (at n = 2 or
    m <= 1 every group is formally zero), so they vanish on every matrix of
    those shapes."""

    @pytest.mark.parametrize("n, m", [(3, 2), (4, 2), (3, 3), (5, 2), (4, 3)])
    def test_every_group_vanishes_on_the_generic_matrix(self, n, m):
        A = generic_matrix(n, m)
        signed = _SignedPi(pi_table(A), None)
        idx = range(1, n + m + 1)
        groups = 0
        for alpha, pair, rest in itertools.product(
                itertools.combinations(idx, n), itertools.combinations_with_replacement(idx, 2),
                itertools.combinations(idx, n - 2)):
            assert group_residual_b(alpha, pair, rest, A, _dpi=signed).is_zero(), \
                (alpha, pair, rest)
            groups += 1
        assert groups == _tuple_counts(n, m)["groups_second_family"]


def _frobenius_matrix(kind, n, m, family, seed):
    """One of six kinds of matrix: ``monomial``; ``combination``, gradient
    columns times an upper triangular m x m matrix of monomials (the same
    distribution, so it passes; its minors are those of the gradient
    columns times a monomial); ``nudged``, that with one entry moved by a
    monomial; ``scaled``, the columns f_j * grad y_j; ``sparse``, a monomial
    matrix with about two entries in three zero; ``binomial``, binomials in
    t1 and t2 only."""
    nv = n + m
    sampler = MonomialSampler(nv, seed=seed)
    rng = random.Random(seed)
    zero = LaurentPolynomial.zero(nv)
    if kind == "monomial":
        return sampler.monomial_matrix(n, m)
    if kind == "sparse":
        return AdjoinedMatrix.from_rows(n, m, [
            [sampler.monomial() if rng.random() < 0.35 else zero for _ in range(m)]
            for _ in range(nv)], nvars=nv)
    if kind == "binomial":
        def few():
            exps = [[rng.randint(-2, 2) if i < 2 else 0 for i in range(nv)] for _ in range(2)]
            return (LaurentPolynomial.monomial(nv, exps[0])
                    + LaurentPolynomial.monomial(nv, exps[1], rng.choice((-2, -1, 1, 3))))
        return AdjoinedMatrix.from_rows(n, m, [[few() for _ in range(m)] for _ in range(nv)])
    G = gradient_matrix(n, m, [sampler.binomial() for _ in range(m)], family).entries
    if kind == "scaled":
        f = sampler.monomials(m)
        return AdjoinedMatrix.from_rows(n, m, [[row[j] * f[j] for j in range(m)] for row in G])
    C = [[sampler.monomial() if k <= j else zero for j in range(m)] for k in range(m)]
    rows = [[sum((row[k] * C[k][j] for k in range(m)), zero) for j in range(m)] for row in G]
    if kind == "nudged":
        r = seed % nv
        rows[r][0] = rows[r][0] + sampler.monomial()
    return AdjoinedMatrix.from_rows(n, m, rows)


def _frobenius_components(A, family):
    """Every component of d(alpha_j) ^ omega, j by j and K by K, from the
    definition: signed curls times minors of A taken by ``det_ring``."""
    n, m = A.n, A.m
    zero = LaurentPolynomial.zero(family.nvars)
    components = []
    for j in range(m):
        for K in itertools.combinations(range(1, n + m + 1), m + 2):
            total = zero
            for r, s in itertools.combinations(K, 2):
                L = tuple(k for k in K if k not in (r, s))
                curl = (family[r - 1].apply(A.entries[s - 1][j])
                        - family[s - 1].apply(A.entries[r - 1][j]))
                term = curl * det_ring([A.entries[k - 1] for k in L])
                total = total + term if perm_sign((r, s) + L) > 0 else total - term
            components.append(total)
    return components


class TestFrobenius:
    """A matrix passes when every component of d(alpha_j) ^ omega
    vanishes; the scan runs only when one does not."""

    KINDS = ("monomial", "combination", "nudged", "scaled", "sparse", "binomial")

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2),
                                      (5, 2), (2, 3), (3, 3), (4, 3)])
    def test_verdict_matches_the_scan(self, n, m):
        """At every shape the tests or the benchmark check, under the Euler,
        partial and halved-partial (``DerivationSpec.general``) families,
        the Frobenius verdict equals the scan's on all six kinds."""
        for derivations in ("euler", "partial", "halved"):
            family = _derivations(derivations, n + m)
            verdicts = {}
            for i, kind in enumerate(self.KINDS):
                A = _frobenius_matrix(kind, n, m, family, seed=10 * n + m + i)
                pi = pi_table(A)
                pis = [pi[S] for S in itertools.combinations(range(1, n + m + 1), n)]
                verdict = _integrable(A, pis, _Curls(A, family))
                assert verdict == (_scan(A, family, pi) is None), (derivations, kind)
                verdicts[kind] = verdict
            assert verdicts["combination"] and verdicts["scaled"], derivations
            assert not verdicts["nudged"] and not verdicts["monomial"], derivations

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2),
                                      (5, 2), (2, 3), (3, 3)])
    def test_generic_certificate(self, n, m):
        """On the generic matrix, with entries a_{sj} and derivatives
        d_r a_{sj} = b_{rsj} all distinct variables (d_r = sum b_{rsj}
        d/da_{sj}, which commute), every first-family group lies in the
        Q[a]-span of the components: a group is a sum of components times
        polynomials in the entries of degree m - 1.  Every matrix and every
        family specialise it, so at these shapes a matrix whose components
        vanish passes, whatever the derivations.  These are the shapes the
        tests or the benchmark check but (4, 3), whose span has 14,553
        generators.  The components are also those the package's sign table
        gives."""
        size = n + m
        na = size * m
        nv = na + size * size * m
        zero = LaurentPolynomial.zero(nv)

        A = generic_matrix(n, m, nv)
        specs = []
        for r in range(size):
            coeffs = [zero] * nv
            for s, j in itertools.product(range(size), range(m)):
                coeffs[s * m + j] = LaurentPolynomial.variable(nv, na + (r * size + s) * m + j + 1)
            specs.append(DerivationSpec.general(coeffs))
        family = certify_family(specs, assumptions_12=True)
        pi = pi_table(A)
        pis = [pi[S] for S in itertools.combinations(range(1, size + 1), n)]
        components = _frobenius_components(A, family)
        packaged = []
        for j in range(m):
            for terms in _frobenius_terms(n, m):
                total = zero
                for r, s, sign, i in terms:
                    curl = (family[r - 1].apply(A.entries[s - 1][j])
                            - family[s - 1].apply(A.entries[r - 1][j]))
                    total = total + sign * curl * pis[i]
                packaged.append(total)
        assert packaged == components
        multipliers = [LaurentPolynomial.monomial(nv, [mu.count(i) for i in range(nv)])
                       for mu in itertools.combinations_with_replacement(range(na), m - 1)]
        keys = {}

        def vector(p):  # packed keys are in bijection with exponent tuples
            return {keys.setdefault(k, len(keys)): c for k, c in p._terms.items()}

        span = Subspace(0, *rref(vector(c * u) for c in components for u in multipliers))
        signed = _SignedPi(pi, family)
        idx = range(1, size + 1)
        nonzero = 0
        for alpha, beta in itertools.product(itertools.combinations(idx, n),
                                             itertools.combinations(idx, n - 1)):
            group = group_residual_a(alpha, beta, A, family, _dpi=signed)
            assert not span.reduce(vector(group)), (alpha, beta)
            nonzero += not group.is_zero()
        assert nonzero  # the generic matrix fails, so the span is not trivially met

    def test_overflow_in_the_pass_leaves_the_decision_to_the_scan(self, monkeypatch):
        """An ExponentOverflowError inside the Frobenius pass, whether in
        the curls read before pi or in the components, is not an error of
        the check: the scan decides, as if the pass had failed."""
        def overflowing(*args):
            raise ExponentOverflowError("exponent 2147483648 out of range")

        t = [LaurentPolynomial.variable(3, i) for i in (1, 2, 3)]
        failing = AdjoinedMatrix.from_rows(2, 1, [[t[1]], [t[2]], [t[0]]])
        passing = gradient_matrix(2, 1, [parse_polynomial("t1^2*t2 + t3", 3)], euler_family(3))
        expected = [check_criterion(A, euler_family(3)).to_json_dict() for A in (failing, passing)]
        for target in ("_integrable", "_Curls.curl"):
            with monkeypatch.context() as patch:
                if target == "_integrable":
                    patch.setattr(criterion, "_integrable", overflowing)
                else:
                    patch.setattr(criterion._Curls, "curl", overflowing)
                got = [check_criterion(A, euler_family(3)).to_json_dict()
                       for A in (failing, passing)]
            assert got == expected, target
            assert [report["verdict"] for report in got] == ["fail", "pass"]


def _outcome(check, A, family):
    """The report body of ``check``, or the type and message of its error."""
    try:
        return json.dumps(check(A, family, matrix_desc="m").to_json_dict())
    except Exception as error:  # every error is compared, not handled
        return type(error).__name__, str(error)


def _near_limit_matrices():
    """Inputs at the edges of the curl-first pass, each with the family
    it is checked under."""
    big = 2**30 + 5
    euler3, euler4 = euler_family(3), euler_family(4)
    partial3 = _derivations("partial", 3)
    t = [LaurentPolynomial.variable(4, i) for i in (1, 2, 3, 4)]
    zero = LaurentPolynomial.zero(4)
    y1 = LaurentPolynomial.monomial(4, (big, 0, 0, 0))
    y2 = y1 * t[1]
    # partial d_1 of t1^-(2^31 - 1) leaves the range inside the curl pass
    edge = LaurentPolynomial.monomial(3, (-EXPONENT_LIMIT, 0, 0))
    # a 2 x 2 minor of the m = 2 columns is constant, the entries are not
    flat_minor = [[t[0], LaurentPolynomial.one(4)], [LaurentPolynomial.one(4), zero],
                  [zero, zero], [zero, zero]]
    wide = certify_family([DerivationSpec.partial(i, 6) for i in range(1, 5)],
                          assumptions_12=True)
    return [
        (AdjoinedMatrix.from_rows(2, 1, [[parse_polynomial(f"t1^{big}*t{i}", 3)]
                                         for i in (1, 2, 3)]), euler3),
        (gradient_matrix(2, 2, [y1, y2], euler4), euler4),
        (AdjoinedMatrix.from_rows(2, 1, [[edge], [LaurentPolynomial.one(3)], [edge]]), partial3),
        (AdjoinedMatrix.from_rows(2, 1, [[edge], [LaurentPolynomial.one(3)], [edge]]), euler3),
        (AdjoinedMatrix.from_rows(2, 2, flat_minor), euler4),
        (AdjoinedMatrix.from_rows(2, 2, flat_minor), wide),
        (MonomialSampler(4, seed=1).scalar_matrix(2, 2), wide),
        (MonomialSampler(4, seed=1).monomial_matrix(2, 2), wide),
        (AdjoinedMatrix.empty(4, 5), wide),
        (AdjoinedMatrix.from_rows(2, 2, [[zero, zero]] * 4), wide),
        (MonomialSampler(15, seed=0).scalar_matrix(2, 13), euler_family(15)),
        (AdjoinedMatrix.empty(3, 3), euler3),
    ]


class TestCurlsBeforePi:
    """check_criterion reads the curls before it builds pi and passes a
    matrix whose curls all vanish with no pi table; the pi-first body it
    replaced is the reference for every body and every error."""

    SHAPES = [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3),
              (4, 3), (9, 3)]

    @pytest.mark.parametrize("kind", ["scalar", "gradient", "block", "monomial",
                                      "rational", "negative", "partial"])
    @pytest.mark.parametrize("n, m", SHAPES)
    def test_reports_match_the_pi_first_body(self, kind, n, m):
        for derivations in ("euler", "partial", "halved"):
            if derivations != "euler" and n + m > 7:
                continue  # the shift families at (9, 3) add time, not cases
            family = _derivations("partial" if kind == "partial" else derivations, n + m)
            for seed in range(2):
                A = _seeded_matrix(kind, n, m, family, seed)
                expected = _outcome(check_criterion_pi_first, A, family)
                assert _outcome(check_criterion, A, family) == expected, (derivations, seed)

    def test_inputs_at_the_edges_match_the_pi_first_body(self):
        """Overflowing minors, an overflow inside the curl pass, a constant
        minor of non-constant entries, a matrix outside the family's ring,
        m = 0 and m past the determinant size cap."""
        outcomes = []
        for A, family in _near_limit_matrices():
            expected = _outcome(check_criterion_pi_first, A, family)
            assert _outcome(check_criterion, A, family) == expected, A
            outcomes.append(expected if isinstance(expected, tuple) else
                            json.loads(expected)["verdict"])
        assert outcomes == [
            ("ExponentOverflowError", "exponent 2147483658 out of range"),
            ("ExponentOverflowError", "exponent 2147483658 out of range"),
            ("ExponentOverflowError", "exponent -2147483648 out of range"),
            "fail", "pass",
            ("ValueError", "variable count mismatch"),
            ("ValueError", "variable count mismatch"),
            ("ValueError", "variable count mismatch"),
            "pass", "pass",
            ("DeterminantSizeError", "matrix size 13 exceeds cap 12"),
            "pass",
        ]

    def test_vanishing_curls_build_no_pi(self, monkeypatch):
        """Scalar, gradient and m = 0 inputs build no pi table; so does a
        matrix with a zero curl table outside the guard's reach, which
        builds pi as before."""
        built = []
        build = criterion.pi_table
        monkeypatch.setattr(criterion, "pi_table", lambda A: built.append(A) or build(A))
        family = euler_family(7)
        sampler = MonomialSampler(7, seed=2)
        for A in (sampler.scalar_matrix(5, 2), sampler.scalar_matrix(4, 3),
                  gradient_matrix(4, 3, [sampler.binomial() for _ in range(3)], family),
                  AdjoinedMatrix.empty(7, 7)):
            assert check_criterion(A, family).passed()
        assert built == []
        A, family = _near_limit_matrices()[1]  # gradient columns, overflowing minors
        with pytest.raises(ExponentOverflowError):
            check_criterion(A, family)
        assert built == [A]

    def test_constant_entries_make_no_apply_call(self, monkeypatch):
        """Two constant entries give a zero curl without a derivative."""
        family, family3 = euler_family(7), euler_family(3)  # certifying applies
        applied = []
        apply = DerivationSpec.apply
        monkeypatch.setattr(DerivationSpec, "apply",
                            lambda self, p: applied.append(p) or apply(self, p))
        assert check_criterion(MonomialSampler(7, seed=0).scalar_matrix(5, 2), family).passed()
        assert applied == []
        one, t1 = LaurentPolynomial.one(3), LaurentPolynomial.variable(3, 1)
        A = AdjoinedMatrix.from_rows(2, 1, [[one], [t1], [one]])
        curls = _Curls(A, family3)
        assert curls.curl(0, 1, 3) is None and applied == []
        assert curls.curl(0, 1, 2) == t1 and len(applied) == 2
        assert curls.curl(0, 1, 2) == t1 and len(applied) == 2  # read from the table
        assert not curls.vanish()


    def test_flat_entries_match_the_key_scan(self):
        """An exponent bound of 0 marks an entry constant; an entry whose
        bound is above 0 is constant only when every key is the constant
        key (t1 - t1 + 3), which the scan still finds."""
        family = euler_family(4)
        cancelled = parse_polynomial("t1 - t1 + 3", 4)
        shifted = parse_polynomial("t2^-1*t2", 4) * Fraction(-7, 2)
        assert cancelled._reach > 0 and shifted._reach > 0
        entries = [cancelled, shifted, LaurentPolynomial.constant(4, 5),
                   LaurentPolynomial.zero(4), parse_polynomial("t1 - t1", 4),
                   parse_polynomial("t2 + 3", 4), parse_polynomial("t2^-1", 4),
                   LaurentPolynomial.monomial(4, (0, 0, EXPONENT_LIMIT, 0), -1)]
        A = AdjoinedMatrix.from_rows(2, 2, [entries[2 * r:2 * r + 2] for r in range(4)])
        origin = LaurentPolynomial.one(4)._terms.keys()
        scan = [[all(key in origin for key in row[j]._terms) for row in A.entries]
                for j in range(A.m)]
        assert _Curls(A, family).flat == scan
        assert scan == [[True, True, True, False], [True, True, False, False]]

    @pytest.mark.parametrize("n, m", [(5, 2), (4, 3)])
    def test_scalar_reports_match_the_pi_first_body(self, n, m):
        """The report of a scalar matrix, whose entries are formatted inside
        the check, equals the pi-first body's."""
        family = euler_family(n + m)
        for seed in range(12):
            A = MonomialSampler(n + m, seed=100 + seed).scalar_matrix(n, m)
            report = check_criterion(A, family, matrix_desc="scalar").to_json_dict()
            expected = check_criterion_pi_first(A, family, matrix_desc="scalar")
            assert report == expected.to_json_dict()
            assert report["verdict"] == "pass"


class TestPackedEvaluation:
    """Groups are evaluated on packed integer monomials; the ring's exponent
    range and its error are kept."""

    BIG = 2**30 + 5

    @pytest.mark.parametrize("rows", [
        [f"t1^{BIG}", f"t1^{BIG}*t2", f"t1^{BIG}*t3"],
        [f"t1^{BIG}", f"2*t1^{BIG}", f"3*t1^{BIG}"],
    ])
    def test_exponent_overflow_raises_the_ring_error(self, rows):
        A = AdjoinedMatrix.from_rows(2, 1, [[parse_polynomial(r, 3)] for r in rows])
        with pytest.raises(ExponentOverflowError) as caught:
            check_criterion(A, euler_family(3))
        assert str(caught.value) == "exponent 2147483658 out of range"

    def test_large_exponents_that_stay_in_range_pass(self):
        rows = [f"t1^{self.BIG} + t1^-{self.BIG}", "t2", "t3"]
        A = AdjoinedMatrix.from_rows(2, 1, [[parse_polynomial(r, 3)] for r in rows])
        assert check_criterion(A, euler_family(3)).passed()

    def test_exponent_check_matches_the_ring_product(self):
        """On random pairs with exponents near the limit, the ring product
        and the range check the scan calls raise exactly when some pair of
        terms leaves the range, with the message of the first exponent out
        of range in term order."""
        def reference(left, right):
            for e1, _ in left.terms():
                for e2, _ in right.terms():
                    for a, b in zip(e1, e2):
                        if abs(a + b) > EXPONENT_LIMIT:
                            return f"exponent {a + b} out of range"
            return None

        def raised(call, *operands):
            try:
                call(*operands)
            except ExponentOverflowError as exc:
                return str(exc)
            return None

        rng = random.Random(5)
        near = (0, 1, -1, 2**30, -2**30, 2**31 - 2, -(2**31 - 2), 2**30 + 7, -(2**30 + 7))
        overflows = 0
        for _ in range(300):
            nv = rng.randint(1, 3)
            left, right = (LaurentPolynomial(nv, {tuple(rng.choice(near) for _ in range(nv)): 1
                                                  for _ in range(rng.randint(1, 3))})
                           for _ in range(2))
            expected = reference(left, right)
            assert raised(LaurentPolynomial.__mul__, left, right) == expected, (left, right)
            assert raised(check_product_range, left, right) == expected, (left, right)
            overflows += expected is not None
        assert 50 < overflows < 250

    def test_scan_does_no_ring_arithmetic(self, monkeypatch):
        """A passing gradient check at (3, 3) multiplies and adds no
        LaurentPolynomial inside the scan (the ring product made 2,720
        calls there), nor inside the Frobenius pass, which passes it with
        every curl [d_r, d_s] y_j zero."""
        family = euler_family(6)
        sampler = MonomialSampler(6, seed=1)
        A = gradient_matrix(3, 3, [sampler.binomial() for _ in range(3)], family)
        pi = pi_table(A)
        pis = [pi[S] for S in itertools.combinations(range(1, 7), 3)]
        calls = []
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            original = getattr(LaurentPolynomial, name)

            def counting(self, other, _original=original, _name=name):
                calls.append(_name)
                return _original(self, other)

            monkeypatch.setattr(LaurentPolynomial, name, counting)
        counterexample = _scan(A, family, pi)
        assert counterexample is None
        assert _integrable(A, pis, _Curls(A, family))
        assert calls == []


class TestCheckCriterion:
    def test_scalar_32_passes(self, euler5):
        A = MonomialSampler(5, seed=7).scalar_matrix(3, 2)
        report = check_criterion(A, euler5, matrix_desc="scalar:random seed=7")
        assert report.passed()
        assert report.counterexample is None
        assert report.counts["groups_total"] == 850

    def test_gradient_columns_pass(self, euler5):
        ys = [parse_polynomial("t1*t4 + t2", 5), parse_polynomial("t3^2 + t5", 5)]
        A = gradient_matrix(3, 2, ys, euler5)
        assert check_criterion(A, euler5).passed()

    def test_cyclic_column_fails_with_counterexample(self, euler3):
        t = [LaurentPolynomial.variable(3, i) for i in (1, 2, 3)]
        A = AdjoinedMatrix.from_rows(2, 1, [[t[1]], [t[2]], [t[0]]])
        report = check_criterion(A, euler3)
        assert not report.passed()
        cx = report.counterexample
        assert cx["residual_family"] == "first"
        assert cx["residual"] != "0"

    def test_consistency_with_sampled_defect(self, euler3):
        """The criterion verdict must match the sampled fundamental identity
        in both directions."""
        sampler = MonomialSampler(3, seed=5)
        mons = [LaurentPolynomial.monomial(3, e)
                for e in itertools.product([-1, 0, 1], repeat=3)]
        rng = random.Random(1)
        for trial in range(6):
            A = sampler.monomial_matrix(2, 1)
            verdict = check_criterion(A, euler3).passed()
            pi = pi_table(A)
            defect_clean = True
            for _ in range(250):
                xs = [rng.choice(mons)]
                ys = [rng.choice(mons) for _ in range(2)]
                if not fundamental_defect(xs, ys, A, euler3, pi=pi).is_zero():
                    defect_clean = False
                    break
            assert verdict == defect_clean, f"trial {trial}"

    def test_budget_exceeded(self, euler5):
        A = MonomialSampler(5, seed=8).scalar_matrix(3, 2)
        with pytest.raises(BudgetExceededError):
            check_criterion(A, euler5, budget=10)

    def test_default_budget_keeps_every_formerly_accepted_shape(self):
        # The budget once capped case tuples at 500,000,000; every shape
        # it accepted must stay within the group budget.
        for n in range(2, 10):
            for m in range(0, 200):
                counts = _tuple_counts(n, m)
                if counts["case_tuples"] <= 500_000_000:
                    assert counts["groups_total"] <= DEFAULT_GROUP_BUDGET, (n, m)

    def test_partial_family_is_refused(self):
        fam = partial_family(3)
        A = MonomialSampler(3, seed=9).scalar_matrix(2, 1)
        with pytest.raises(AssumptionsError):
            check_criterion(A, fam)

    def test_threaded_runs_match(self, euler5):
        A = MonomialSampler(5, seed=10).scalar_matrix(3, 2)
        solo = check_criterion(A, euler5)
        multi = check_criterion(A, euler5, threads=4)
        assert solo.to_json_dict() == multi.to_json_dict()


class TestGrassmannPlucker:
    def test_repeated_vector_cancellation(self):
        e = [(1, 2), (1, 2), (0, 1)]
        f = [(3, 5)]
        assert grassmann_plucker_defect(e, f) == 0

    def test_seeded_random_inputs(self):
        rng = random.Random(12)
        for n in (3, 4, 5):
            for _ in range(50):
                es = [tuple(Fraction(rng.randint(-6, 6)) for _ in range(n - 1))
                      for _ in range(n)]
                fs = [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                            for _ in range(n - 1)) for _ in range(n - 2)]
                assert grassmann_plucker_defect(es, fs) == 0

    @pytest.mark.parametrize("es, fs", [
        ([[0.1], [0.2]], []),
        ([(1, 2), (3, 4), (5, 6)], [(1, 2.5)]),
    ])
    def test_floats_raise(self, es, fs):
        """Entries are exact scalars: a float is refused, not read as the
        binary fraction it stands for."""
        with pytest.raises(TypeError):
            grassmann_plucker_defect(es, fs)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            grassmann_plucker_defect([(1, 2), (3, 4), (5, 6)], [])
        with pytest.raises(ValueError):
            grassmann_plucker_defect([(1, 2, 0), (3, 4, 0), (5, 6, 0)], [(1, 2, 3)])


class TestExpandedIdentity:
    def test_equals_signed_bracket_defect(self, euler3):
        """The literal two-block sum is exactly (-1)^(n-1) times the
        fundamental-identity defect with the inner bracket last."""
        t = [LaurentPolynomial.variable(3, i) for i in (1, 2, 3)]
        A = AdjoinedMatrix.from_rows(2, 1, [[t[1]], [t[2]], [t[0]]])
        sampler = MonomialSampler(3, seed=13)
        seen_nonzero = False
        for _ in range(10):
            xs = sampler.monomials(2)
            ys = sampler.monomials(2)
            total = expanded_identity_defect(xs, ys, A, euler3)
            defect = fundamental_defect(ys[1:], xs, A, euler3)
            assert total == -defect  # n = 2
            seen_nonzero = seen_nonzero or not total.is_zero()
        assert seen_nonzero

    def test_pure_jacobian_vanishes(self):
        fam = euler_family(3)
        A = AdjoinedMatrix.empty(3, 3)
        sampler = MonomialSampler(3, seed=14)
        for _ in range(5):
            assert expanded_identity_defect(sampler.monomials(3), sampler.monomials(3),
                                            A, fam).is_zero()

    def test_vanishes_together_with_defect_on_pass_and_fail(self, euler3):
        sampler = MonomialSampler(3, seed=15)
        good = identity_block_matrix(2, 1, parse_polynomial("t1*t3", 3))
        t = [LaurentPolynomial.variable(3, i) for i in (1, 2, 3)]
        bad = AdjoinedMatrix.from_rows(2, 1, [[t[0] * t[1]], [t[2]],
                                              [LaurentPolynomial.zero(3)]])
        bad_hit = False
        for _ in range(15):
            xs = sampler.monomials(2)
            ys = sampler.monomials(2)
            assert expanded_identity_defect(xs, ys, good, euler3).is_zero()
            value = expanded_identity_defect(xs, ys, bad, euler3)
            defect = fundamental_defect(ys[1:], xs, bad, euler3)
            assert value.is_zero() == defect.is_zero()
            bad_hit = bad_hit or not value.is_zero()
        assert bad_hit


class TestProbe:
    def test_small_scalar_probe_passes(self):
        report = probe_conjecture(3, 2, trials=5, seed=3)
        assert report.all_pass
        assert report.verdicts == ["pass"] * 5
        assert not report.failures

    def test_probe_is_deterministic(self):
        a = probe_conjecture(3, 1, trials=4, seed=9)
        b = probe_conjecture(3, 1, trials=4, seed=9)
        assert a.to_json_dict() == b.to_json_dict()

    def test_open_territory_probe(self):
        # beyond the cases with a worked argument: a pass is evidence only
        report = probe_conjecture(5, 2, trials=1, seed=0)
        assert report.verdicts == ["pass"]
