"""Exhaustive verification that an adjoined matrix yields a Poisson n-Lie bracket.

Expanding the fundamental identity for the determinant bracket over a ring
whose derivation family separates derivative patterns (the Euler preset on
the full Laurent ring) reduces the Poisson n-Lie axioms to finitely many
grouped residual conditions, one per derivative-pattern class, obtained by
summing the free substituted index over all rows.  Their joint vanishing
is exactly equivalent to the bracket being Poisson n-Lie.  The groups
(alpha, beta) of the first family sum products pi^S * d_r pi^T; those
(alpha, pair, rest) of the second sum products pi^S * pi^T, and each of
its forms is a three-term Grassmann-Pluecker relation.  Every pi^S is a
signed maximal minor of A, and these relations hold for the maximal minors
of any matrix over any commutative ring (Fulton, Young Tableaux, 1997,
sec. 9), so the second family vanishes on every input; counts and budget
still cover both families.

``check_criterion`` decides the first family by Frobenius integrability and
scans it only to name the failing group.  With e^r the coframe dual to the
commuting d_r (so d e^r = 0) and alpha_j = sum_r A_{rj} e^r, the bracket is
the decomposable n-vector sum_I pi^I d_I, the contraction of
d_1 ^ ... ^ d_{n+m} with omega = alpha_1 ^ ... ^ alpha_m.  A decomposable
n-vector is Nambu-Poisson exactly when its distribution, the common kernel
of the alpha_j, is involutive (Gautheron, Lett. Math. Phys. 37, 1996;
Alekseevsky and Guha, Acta Math. Univ. Comenianae 65, 1996; Dufour and
Zung, Poisson Structures and Their Normal Forms, 2005, ch. 6; for n = 2,
Vaisman, Lectures on the Geometry of Poisson Manifolds, 1994), and by
Frobenius that is d alpha_j ^ omega = 0 for every j.  Its component on an
(m+2)-subset K of the rows is

    sum_{r<s in K} sgn(r, s, K - {r,s}) (d_r A_{sj} - d_s A_{rj}) det A[K - {r,s}],

and each minor det A[L] is (-1)^eps(I) pi^I for I the complement of L.  The
direction used is algebraic.  Over the fraction field, if some pi^I is
nonzero, the kernel has the frame v_i = e_i + (terms in e_s, s not in I)
over i in I; involutivity makes each [v_i, v_k], which has no e_i part,
zero, so the bracket is pi^I times the Jacobian of the n commuting v_i, and
g times such a Jacobian satisfies the fundamental identity for every g.  A
first-family group is that identity at coordinate functions t_s with
d_r t_s = delta_rs, adjoined to the ring, so every group vanishes.  The
proof needs only commuting derivations, which ``certify_family`` certifies
for every kind (partial, euler and general), so no kind keeps the scan.
When every component vanishes the check passes with no group evaluated;
otherwise the scan below names the first nonzero group, and if it finds
none its verdict stands.  The pass uses ring arithmetic, and an exponent
leaving the range in it leaves the decision to the scan.

Every component is a sum of curl times minor, so a matrix whose curls all
vanish passes whatever its minors are: scalar matrices (every derivation
kills constants, so two constant entries give a zero curl with no
``apply`` call) and gradient columns (curls [d_r, d_s] y_j = 0).
``check_criterion`` therefore reads the curls before it builds the pi
table, through one curl table per column (``_Curls``) that the components
read too, and passes such a matrix with no pi table built and no group
evaluated.  The curls decide first only when building pi could not have
raised (``_pi_cannot_raise``: m within ``DET_SIZE_CAP``, no minor product
range-checked, A in the family's ring) and no derivative in the curl pass
leaves the exponent range.  Any other input takes the pi-first order:
pi, the constant-pi pass below, the components, the scan.  Verdicts,
counterexamples and errors are those of that order on every input.

Signed coefficients are written pi^tau = sgn(tau) * pi^{set(tau)} for an
index tuple tau, zero when an index repeats; that convention silently
removes every degenerate substitution.  ``signed_pi`` defines it.

``group_residual_a`` is the one evaluator of a first-family group, and
``group_residual_b`` of a second-family group.  Each first lists the
group's terms pi^S * d_r pi^T (pi^S * pi^T for the second family) over
sorted index sets S, T, summing the signed coefficients of equal terms, so
a formally zero group makes no product.  It then evaluates the nonzero
terms in sorted (S, r, T) order on integers, over the ring's packed
exponent keys (the encoding is ``ring``'s alone), through one cache per
check (``_SignedPi``): every pi^S has its coefficients scaled by ``den``,
the lcm of the table's coefficient denominators, and d_r pi^T is taken by
the family's own ``apply`` on first use and scaled the same way.  The
products accumulate into one dict through the ring's ``multiply_into``,
each after the ring's ``check_product_range``, so an exponent leaving
``EXPONENT_LIMIT`` raises the ring product's ``ExponentOverflowError``.
Only a nonzero group becomes a polynomial again, with coefficients divided
exactly by den^2 (left as they stand when den is 1), so residuals are those
of the ring.

When the Frobenius pass fails, ``check_criterion`` calls
``group_residual_a`` label by label, (alpha, beta) in lexicographic order,
and stops at the first nonzero group, so a failing check costs only its
prefix of groups and keeps no state between checks.  When pi is built and
every pi^S is constant, every d_r pi^T is zero (d(1) = d(1 * 1) = 2 d(1)),
so the check passes at once, before the Frobenius components.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .jacobian_bracket import (
    AdjoinedMatrix,
    MonomialSampler,
    complement,
    complement_sign,
    perm_sign,
    pi_table,
)
from .ring import (
    DET_SIZE_CAP,
    EXPONENT_LIMIT,
    CertifiedDerivationFamily,
    ExponentOverflowError,
    LaurentPolynomial,
    _cleaned,
    _coeff,
    _from_keys,
    _origin,
    check_product_range,
    format_polynomial,
    multiply_into,
)
from .subspaces import det_fraction

# Residual groups one exhaustive check may evaluate.  The value is that of
# the former budget on case tuples, so reports that echo it do not change;
# every shape that budget accepted has at most 64,000,125 groups (at
# (n, m) = (2, 124)) and stays accepted.
DEFAULT_GROUP_BUDGET = 500_000_000


class AssumptionsError(ValueError):
    """The derivation family is not certified for the separating assumptions."""


class BudgetExceededError(RuntimeError):
    """The exhaustive check would evaluate more residual groups than the budget."""

    def __init__(self, message: str, groups: int, budget: int):
        super().__init__(message)
        self.groups = groups
        self.budget = budget


# ---------------------------------------------------------------------------
# Index tuple helpers
# ---------------------------------------------------------------------------

def replace_position(tup: Tuple[int, ...], pos: int, value: int) -> Tuple[int, ...]:
    """New tuple with the entry at 1-based position ``pos`` replaced."""
    return tup[:pos - 1] + (value,) + tup[pos:]


def signed_pi(tup: Sequence[int], pi: dict) -> Optional[LaurentPolynomial]:
    """sgn(tup) * pi^{set(tup)}; None when an index repeats."""
    sign = perm_sign(tup)
    if sign == 0:
        return None
    value = pi[tuple(sorted(tup))]
    return value if sign > 0 else -value


_MISSING = object()


def _scaled(p: LaurentPolynomial, den: int) -> Optional[tuple]:
    """None for zero, else (p, its packed terms times den): ints unless a
    derivation brought in another denominator; p's own terms when den is 1."""
    if p.is_zero():
        return None
    if den == 1:
        return p, p._terms
    return p, _cleaned({key: c * den for key, c in p._terms.items()})


class _SignedPi:
    """The factors one check multiplies, keyed by sorted index set.

    ``value(S)`` is pi^S and ``derivative((r, T))`` is d_r pi^T, each as
    ``_scaled`` gives it with the table's common denominator ``den``: None
    for zero.  Entries are filled on first use, so a check that stops early
    scales and differentiates only what its prefix of groups reads.
    """

    def __init__(self, pi: dict, family: Optional[CertifiedDerivationFamily]):
        self.pi = pi
        self.family = family
        self.den = math.lcm(*(c.denominator for p in pi.values() for c in p._terms.values()))
        self._values = {}
        self._derivatives = {}

    def value(self, S: Tuple[int, ...]) -> Optional[tuple]:
        entry = self._values.get(S, _MISSING)
        if entry is _MISSING:
            entry = self._values[S] = _scaled(self.pi[S], self.den)
        return entry

    def derivative(self, key: Tuple[int, Tuple[int, ...]]) -> Optional[tuple]:
        entry = self._derivatives.get(key, _MISSING)
        if entry is _MISSING:
            r, T = key
            entry = self._derivatives[key] = _scaled(self.family[r - 1].apply(self.pi[T]),
                                                     self.den)
        return entry


# ---------------------------------------------------------------------------
# Grouped conditions, one group at a time
# ---------------------------------------------------------------------------

def _add_term(terms: dict, coeff: int, left: Tuple[int, ...], right: Tuple[int, ...],
              r: Optional[int] = None) -> None:
    """Add coeff * pi^left * pi^right, or coeff * pi^left * d_r pi^right,
    for ordered tuples to ``terms``, keyed by their sorted index sets; a
    repeated index adds nothing."""
    coeff *= perm_sign(left) * perm_sign(right)
    if coeff:
        T = tuple(sorted(right))
        key = (tuple(sorted(left)), T if r is None else (r, T))
        terms[key] = terms.get(key, 0) + coeff


def _group_value(terms: dict, nvars: int, dpi: _SignedPi, right) -> LaurentPolynomial:
    """The sum of coeff * pi^S * right(key) over ``terms`` {(S, key): coeff},
    products taken in sorted (S, key) order on den-scaled packed terms."""
    total = {}
    for (S, key), coeff in sorted(terms.items()):
        if not coeff:
            continue
        factor = dpi.value(S)
        if factor is None:
            continue
        other = right(key)
        if other is None:
            continue
        check_product_range(factor[0], other[0])
        multiply_into(total, factor[1], other[1], nvars, coeff)
    if not any(total.values()):
        return LaurentPolynomial.zero(nvars)
    scale = dpi.den ** 2
    if scale != 1:
        total = {k: Fraction(v, scale) for k, v in total.items()}
    # every key is in range: each product passed check_product_range
    return _from_keys(nvars, _cleaned(total), EXPONENT_LIMIT)


def group_residual_a(alpha: Tuple[int, ...], beta: Tuple[int, ...],
                     A: AdjoinedMatrix, family: CertifiedDerivationFamily,
                     pi: Optional[dict] = None,
                     _dpi: Optional[_SignedPi] = None) -> LaurentPolynomial:
    """Coefficient of the derivative pattern (x-pattern alpha, y-tail beta)
    in the first block of the expanded identity; the substituted row index
    runs over every row, so collision terms are included."""
    if _dpi is None:
        _dpi = _SignedPi(pi_table(A) if pi is None else pi, family)
    terms = {}
    for r in range(1, A.n + A.m + 1):
        _add_term(terms, 1, (r,) + beta, alpha, r)
        for k, x in enumerate(alpha, 1):
            _add_term(terms, -1, replace_position(alpha, k, r), (x,) + beta, r)
    return _group_value(terms, A.nvars, _dpi, _dpi.derivative)


def group_residual_b(alpha: Tuple[int, ...], pair: Tuple[int, int],
                     beta_rest: Tuple[int, ...], A: AdjoinedMatrix,
                     pi: Optional[dict] = None,
                     _dpi: Optional[_SignedPi] = None) -> LaurentPolynomial:
    """Coefficient of the second-derivative pattern: x-pattern alpha, an
    unordered derivative pair on the distinguished y slot, remaining y-tail
    beta_rest.  Both orderings of the pair are summed (they are the plain
    and t-swapped substitution families of the per-tuple form)."""
    if _dpi is None:
        _dpi = _SignedPi(pi_table(A) if pi is None else pi, None)
    terms = {}
    orderings = [pair] if pair[0] == pair[1] else [pair, (pair[1], pair[0])]
    for k, x in enumerate(alpha, 1):
        for r1, r2 in orderings:
            _add_term(terms, 1, replace_position(alpha, k, r1), (x, r2) + beta_rest)
    return _group_value(terms, A.nvars, _dpi, _dpi.value)


# ---------------------------------------------------------------------------
# Frobenius integrability
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _frobenius_terms(n: int, m: int) -> tuple:
    """The terms of the components of d(alpha_j) ^ omega at shape (n, m),
    one component per (m+2)-subset K of 1..n+m, in order.

    A term (r, s, sign, i) stands for sign * curl_j(r, s) * pi^I over r < s
    in K, where L = K - {r, s}, I is the complement of L, indexed by ``i``
    in ``combinations(1..n+m, n)``, and sign = sgn(r, s, L) * (-1)^eps(I),
    so that sign * pi^I = sgn(r, s, L) * det A[L].
    """
    size = n + m
    index = {I: i for i, I in enumerate(itertools.combinations(range(1, size + 1), n))}
    components = []
    for K in itertools.combinations(range(1, size + 1), m + 2):
        terms = []
        for r, s in itertools.combinations(K, 2):
            L = tuple(k for k in K if k != r and k != s)
            I = complement(L, size)
            terms.append((r, s, perm_sign((r, s) + L) * complement_sign(I, n, m), index[I]))
        components.append(tuple(terms))
    return tuple(components)


class _Curls:
    """The curls curl_j(r, s) = d_r A_{sj} - d_s A_{rj}, r < s, of the
    columns of A under ``family``: one table per column, each curl taken on
    first use and stored as None when zero.  Every derivation kills
    constants, so two constant entries give None with no ``apply`` call
    (when A lives in the family's ring; otherwise ``apply`` raises its
    mismatch error, as for any other entry)."""

    def __init__(self, A: AdjoinedMatrix, family: CertifiedDerivationFamily):
        self.family = family
        self.columns = [[row[j] for row in A.entries] for j in range(A.m)]
        self.tables = [{} for _ in range(A.m)]
        self.pairs = tuple(itertools.combinations(range(1, A.n + A.m + 1), 2))
        # an exponent bound of 0 makes an entry constant; a larger bound
        # may still hold only the constant key (t1 - t1 + 3), so scan then
        origin, same_ring = _origin(family.nvars), A.nvars == family.nvars
        self.flat = [[same_ring and (not entry._reach
                                     or all(key == origin for key in entry._terms))
                      for entry in column] for column in self.columns]

    def curl(self, j: int, r: int, s: int) -> Optional[LaurentPolynomial]:
        table = self.tables[j]
        curl = table.get((r, s), _MISSING)
        if curl is _MISSING:
            flat, column = self.flat[j], self.columns[j]
            if flat[r - 1] and flat[s - 1]:
                curl = None
            else:
                left = self.family[r - 1].apply(column[s - 1])
                right = self.family[s - 1].apply(column[r - 1])
                curl = None if left == right else left - right
            table[r, s] = curl
        return curl

    def vanish(self) -> bool:
        """Whether every curl is zero, so that every component of
        d(alpha_j) ^ omega vanishes whatever the minors are; stops at the
        first nonzero curl.  An ExponentOverflowError in a derivative also
        gives False: the pi-first order then decides."""
        try:
            return all(all(flat) or all(self.curl(j, r, s) is None for r, s in self.pairs)
                       for j, flat in enumerate(self.flat))
        except ExponentOverflowError:
            return False


def _integrable(A: AdjoinedMatrix, pis: list, curls: _Curls) -> bool:
    """Whether d(alpha_j) ^ omega = 0 for every column j of A, where
    ``pis`` lists A's pi^I in ``combinations`` order and ``curls`` is A's
    curl table; stops at the first nonzero component.  A curl is read only
    beside a nonzero pi^I, and a zero curl makes no product."""
    nvars = curls.family.nvars
    components = _frobenius_terms(A.n, A.m)
    for j in range(A.m):
        for component in components:
            total = LaurentPolynomial.zero(nvars)
            for r, s, sign, i in component:
                if pis[i].is_zero():
                    continue
                curl = curls.curl(j, r, s)
                if curl is not None:
                    term = curl * pis[i]
                    total = total + term if sign > 0 else total - term
            if not total.is_zero():
                return False
    return True


def _pi_cannot_raise(A: AdjoinedMatrix, family: CertifiedDerivationFamily) -> bool:
    """Whether building pi_table(A) cannot raise, so the curls may decide
    first: ``maximal_minors`` refuses only m > DET_SIZE_CAP, and it
    range-checks a product only when its factors' exponent bounds sum past
    EXPONENT_LIMIT, which the sum over columns of the largest entry bound
    rules out.  A must also live in the family's ring: otherwise the curl
    pass raises the mismatch error where the pi-first order passes a
    matrix whose minors are all zero."""
    return (A.m <= DET_SIZE_CAP and A.nvars == family.nvars
            and sum(max(row[j]._reach for row in A.entries) for j in range(A.m))
            <= EXPONENT_LIMIT)


def _scan(A: AdjoinedMatrix, family: CertifiedDerivationFamily, pi: dict) -> Optional[dict]:
    """For the table ``pi`` (keyed by sorted index set) at A's shape: the
    counterexample at the first first-family group, in label order, whose
    value is nonzero, or None.  Each group is evaluated by the module's
    ``group_residual_a``, all through one cache."""
    dpi = _SignedPi(pi, family)
    idx = range(1, A.n + A.m + 1)
    for alpha, beta in itertools.product(itertools.combinations(idx, A.n),
                                         itertools.combinations(idx, A.n - 1)):
        residual = group_residual_a(alpha, beta, A, family, _dpi=dpi)
        if not residual.is_zero():
            return {
                "residual_family": "first",
                "x_pattern": list(alpha),
                "y_tail": list(beta),
                "residual": format_polynomial(residual),
            }
    return None


# ---------------------------------------------------------------------------
# Reports and the exhaustive check
# ---------------------------------------------------------------------------

@dataclass
class CriterionReport:
    n: int
    m: int
    nvars: int
    matrix_desc: str
    matrix_entries: List[List[str]]
    verdict: str                      # "pass" | "fail"
    counts: Dict[str, int]
    counterexample: Optional[dict]
    wall_time: float
    # pi_table_s, frobenius_s, evaluate_s; outside the body, like wall_time
    phases: Dict[str, float] = field(default_factory=dict)

    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "variables": self.nvars,
            "matrix": self.matrix_desc,
            "matrix_entries": self.matrix_entries,
            "verdict": self.verdict,
            "counts": self.counts,
            "counterexample": self.counterexample,
        }


def _tuple_counts(n: int, m: int) -> Dict[str, int]:
    subsets = math.comb(n + m, n)
    size = n + m
    fact_sq = math.factorial(n) ** 2
    a_tuples = subsets * subsets * fact_sq
    counts = {
        "index_pairs": subsets * subsets,
        "case_tuples": a_tuples * n,  # (I, J, sigma_I, sigma_J) and t in {2..n} or absent
        "groups_first_family": subsets * math.comb(size, n - 1),
        "groups_second_family": subsets * (size * (size + 1) // 2) * math.comb(size, n - 2),
    }
    counts["groups_total"] = counts["groups_first_family"] + counts["groups_second_family"]
    return counts


def check_group_budget(n: int, m: int, budget: int) -> Dict[str, int]:
    """The residual group counts at shape (n, m); raises BudgetExceededError
    when the groups exceed ``budget``."""
    counts = _tuple_counts(n, m)
    if counts["groups_total"] > budget:
        raise BudgetExceededError(
            f"{counts['groups_total']} residual groups exceed budget {budget}",
            counts["groups_total"], budget)
    return counts


def check_criterion(A: AdjoinedMatrix, family: CertifiedDerivationFamily,
                    budget: int = DEFAULT_GROUP_BUDGET, threads: int = 1,
                    matrix_desc: str = "") -> CriterionReport:
    """Decide whether (A, family) yields a Poisson n-Lie bracket.

    Decides every grouped residual condition (which jointly cover all
    per-tuple cases, including the collision classes outside the tuple
    parametrization); exact arithmetic, zero tolerance.  The verdict is
    equivalent to the vanishing of the fundamental-identity defect on all
    inputs whenever the family's separating assumptions hold.  A matrix
    whose curls all vanish passes before its pi table is built (when
    building it could not have raised), one that passes the Frobenius test
    passes without a scan, and otherwise the counterexample is the first
    group, in label order, that does not vanish.  The second family always
    vanishes (see the module docstring).  ``phases`` times the pi table,
    the Frobenius test (its curls included) and the scan; ``pi_table_s`` is
    0 when the curls decide.

    ``budget`` caps the residual groups covered (``counts["groups_total"]``).
    The check runs serially; ``threads`` is accepted for compatibility and
    does not change the work or the result.
    """
    if not isinstance(family, CertifiedDerivationFamily):
        raise TypeError("check_criterion requires a certified derivation family")
    if not family.assumptions_12:
        raise AssumptionsError(
            "the derivation preset is not certified for the separating "
            "assumptions; only the sampled identity check applies")
    if len(family) != A.n + A.m:
        raise ValueError("derivation family size must be n + m")
    counts = check_group_budget(A.n, A.m, budget)

    start = time.perf_counter()
    curls = _Curls(A, family)
    flat = _pi_cannot_raise(A, family) and curls.vanish()
    frobenius_s, pi_s, counterexample = time.perf_counter() - start, 0.0, None
    if not flat:
        mark = time.perf_counter()
        pi = pi_table(A)
        pi_s = time.perf_counter() - mark
        pis = [pi[S] for S in itertools.combinations(range(1, A.n + A.m + 1), A.n)]
        if any(key != _origin(family.nvars) for p in pis for key in p._terms):
            try:
                integrable = _integrable(A, pis, curls)
            except ExponentOverflowError:
                integrable = False  # the scan meets the overflow or avoids it
            frobenius_s += time.perf_counter() - mark - pi_s
            if not integrable:
                counterexample = _scan(A, family, pi)
    wall = time.perf_counter() - start
    entries = [[format_polynomial(e) for e in row] for row in A.entries]
    return CriterionReport(
        n=A.n, m=A.m, nvars=A.nvars, matrix_desc=matrix_desc,
        matrix_entries=entries,
        verdict="pass" if counterexample is None else "fail",
        counts=counts, counterexample=counterexample, wall_time=wall,
        phases={"pi_table_s": pi_s, "frobenius_s": frobenius_s,
                "evaluate_s": wall - pi_s - frobenius_s})


# ---------------------------------------------------------------------------
# Grassmann-Pluecker oracle
# ---------------------------------------------------------------------------

def grassmann_plucker_defect(es: Sequence[Sequence], fs: Sequence[Sequence]) -> Fraction:
    """sum_k (-1)^{k-1} det(e_1..e_k-hat..e_n) det(e_k, f_3..f_n); always 0.

    Row vectors over Q of length n-1 (exact scalars, stored by
    ``ring._coeff``, so a float raises TypeError), with n = len(es) and
    n-2 trailing f vectors: a Grassmann-Pluecker relation, which holds for the maximal
    minors of any matrix over any commutative ring (Fulton, Young Tableaux,
    1997, sec. 9), as the second residual family does for the pi^S.
    """
    n = len(es)
    if n < 2:
        raise ValueError("need at least two e vectors")
    if len(fs) != n - 2:
        raise ValueError("need exactly n-2 f vectors")
    rows = [tuple(_coeff(v) for v in e) for e in es]
    frows = [tuple(_coeff(v) for v in f) for f in fs]
    width = n - 1
    for vec in rows + frows:
        if len(vec) != width:
            raise ValueError("vectors must have length n-1")
    total = Fraction(0)
    for k in range(n):
        left = det_fraction([rows[i] for i in range(n) if i != k])
        if not left:
            continue
        right = det_fraction([rows[k]] + frows)
        if not right:
            continue
        term = left * right
        total += term if k % 2 == 0 else -term
    return total


# ---------------------------------------------------------------------------
# The expanded identity, evaluated literally
# ---------------------------------------------------------------------------

def expanded_identity_defect(xs: Sequence[LaurentPolynomial], ys: Sequence[LaurentPolynomial],
                             A: AdjoinedMatrix, family: CertifiedDerivationFamily) -> LaurentPolynomial:
    """The expanded two-block sum whose identical vanishing characterizes
    the Poisson n-Lie property, evaluated at concrete (xs, ys).

    Takes n elements in each family; the first y never appears (only
    y_2..y_n enter).  Equals the fundamental-identity defect of
    ([x_1..x_n], y_2..y_n) up to the sign of moving the inner bracket to
    the last slot, which the tests pin down exactly.
    """
    n, m = A.n, A.m
    if len(xs) != n or len(ys) != n:
        raise ValueError("need n arguments in each family")
    nv = family.nvars
    size = n + m
    pi = pi_table(A)
    dx = [[family[r].apply(x) for x in xs] for r in range(size)]
    dy = [[family[r].apply(y) for y in ys] for r in range(size)]
    d2y = [[[family[r].apply(dy[s][q]) for q in range(n)] for s in range(size)]
           for r in range(size)]
    zero = LaurentPolynomial.zero(nv)
    total = zero
    tuples = [p for S in itertools.combinations(range(1, size + 1), n)
              for p in itertools.permutations(S)]
    signed = {tup: signed_pi(tup, pi) for tup in tuples}

    for u in tuples:
        pu = signed[u]
        y_tail_u = LaurentPolynomial.one(nv)
        for q in range(2, n + 1):
            y_tail_u = y_tail_u * dy[u[q - 1] - 1][q - 1]
            if y_tail_u.is_zero():
                break
        for w in tuples:
            pw = signed[w]
            # first block: Pi^w d_{w_1}(Pi^u) x(u) y(w-tail)
            if not pw.is_zero() and not pu.is_zero():
                d = family[w[0] - 1].apply(pu)
                if not d.is_zero():
                    x_u = LaurentPolynomial.one(nv)
                    for q in range(1, n + 1):
                        x_u = x_u * dx[u[q - 1] - 1][q - 1]
                        if x_u.is_zero():
                            break
                    if not x_u.is_zero():
                        y_tail_w = LaurentPolynomial.one(nv)
                        for p in range(2, n + 1):
                            y_tail_w = y_tail_w * dy[w[p - 1] - 1][p - 1]
                            if y_tail_w.is_zero():
                                break
                        if not y_tail_w.is_zero():
                            total = total + pw * d * x_u * y_tail_w
            # subtracted blocks, one per substitution position k
            if pw.is_zero():
                continue
            for k in range(1, n + 1):
                x_mixed = dx[u[0] - 1][k - 1]
                if x_mixed.is_zero():
                    continue
                for p in range(1, n + 1):
                    if p == k:
                        continue
                    x_mixed = x_mixed * dx[w[p - 1] - 1][p - 1]
                    if x_mixed.is_zero():
                        break
                if x_mixed.is_zero():
                    continue
                d = family[w[k - 1] - 1].apply(pu)
                if not d.is_zero() and not y_tail_u.is_zero():
                    total = total - pw * d * x_mixed * y_tail_u
                if pu.is_zero():
                    continue
                inner = zero
                for t in range(2, n + 1):
                    piece = d2y[w[k - 1] - 1][u[t - 1] - 1][t - 1]
                    if piece.is_zero():
                        continue
                    for q in range(2, n + 1):
                        if q == t:
                            continue
                        piece = piece * dy[u[q - 1] - 1][q - 1]
                        if piece.is_zero():
                            break
                    if not piece.is_zero():
                        inner = inner + piece
                if not inner.is_zero():
                    total = total - pw * pu * x_mixed * inner
    return total


# ---------------------------------------------------------------------------
# Conjecture probing
# ---------------------------------------------------------------------------

@dataclass
class ProbeReport:
    n: int
    m: int
    trials: int
    seed: int
    verdicts: List[str]
    failures: List[dict]
    wall_time: float
    counts_per_trial: Dict[str, int] = field(default_factory=dict)
    # seconds per phase summed over the trials, as in CriterionReport.phases
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(v == "pass" for v in self.verdicts)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "trials": self.trials,
            "seed": self.seed,
            "verdicts": self.verdicts,
            "all_pass": self.all_pass,
            "failures": self.failures,
            "counts_per_trial": self.counts_per_trial,
        }


def probe_conjecture(n: int, m: int, trials: int, seed: int,
                     budget: int = DEFAULT_GROUP_BUDGET) -> ProbeReport:
    """Run the exhaustive criterion, with the Euler family on n + m
    variables, on seeded random scalar matrices, serially.  Within the
    criterion's reduction every scalar matrix passes: its curls vanish, so
    no pi table is built for m within ``DET_SIZE_CAP``.  The probe thus
    exercises the curl pass, the budget and the report path, and a sweep
    cannot fail; a failure would be a fault and is dumped verbatim."""
    from .ring import euler_family

    if trials < 0:
        raise ValueError(f"trial count {trials} is negative")
    if n >= 2 and m >= 0:  # the matrices refuse other shapes
        check_group_budget(n, m, budget)  # before building the family
    nvars = n + m
    sampler = MonomialSampler(nvars, seed=seed)
    matrices = [sampler.scalar_matrix(n, m) for _ in range(trials)]
    family = euler_family(nvars)

    start = time.perf_counter()
    verdicts = []
    failures = []
    phases = dict.fromkeys(("pi_table_s", "frobenius_s", "evaluate_s"), 0.0)
    for trial, A in enumerate(matrices):
        report = check_criterion(A, family, budget=budget,
                                 matrix_desc=f"scalar:random seed={seed} trial={trial}")
        verdicts.append(report.verdict)
        for phase, seconds in report.phases.items():
            phases[phase] += seconds
        if report.verdict != "pass":
            failures.append({
                "trial": trial,
                "matrix_entries": report.matrix_entries,
                "counterexample": report.counterexample,
            })
    wall = time.perf_counter() - start
    counts = _tuple_counts(n, m)
    return ProbeReport(n=n, m=m, trials=trials, seed=seed, verdicts=verdicts,
                       failures=failures, wall_time=wall, counts_per_trial=counts,
                       phases=phases)
