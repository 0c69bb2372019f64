"""Exhaustive verification that an adjoined matrix yields a Poisson n-Lie bracket.

Expanding the fundamental identity for the determinant bracket over a ring
whose derivation family separates derivative patterns (the Euler preset on
the full Laurent ring) reduces the Poisson n-Lie axioms to finitely many
grouped residual conditions, one per derivative-pattern class, obtained by
summing the free substituted index over all rows.  Their joint vanishing
is exactly equivalent to the bracket being Poisson n-Lie;
``check_criterion`` decides it exhaustively.

Signed coefficients are written pi^tau = sgn(tau) * pi^{set(tau)} for an
index tuple tau, zero when an index repeats; that convention silently
removes every degenerate substitution.  ``signed_pi`` defines it, and
``group_residual_a`` / ``group_residual_b`` evaluate one group literally
through one cache per check (``_SignedPi``) of pi^tau and its derivatives.

``check_criterion`` does not call them: which products a group sums, with
which signs, depends only on the shape (n, m).  Each family is compiled once
per shape into sparse forms (pi^S * d_r pi^T, resp. pi^S * pi^T, over sorted
index sets S, T), equal terms summed, formally zero groups dropped, and each
form equal up to sign kept once, in the order of its first group label, with
its sign there.  The first nonzero group is the first label of the first
nonzero form, so a check evaluates each distinct form once, in that order.
The compiled state is shape data only (no pi value), kept in the process,
and O(distinct forms): (5, 2) has 735 + 20,580 groups, 350 + 35 forms.  The
second family, compiled only once the first vanishes, consists of
three-term Grassmann-Pluecker relations (Fulton, Young Tableaux, 1997, sec. 9).
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
    perm_sign,
    pi_table,
)
from .ring import CertifiedDerivationFamily, LaurentPolynomial, format_polynomial
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


class _SignedPi:
    """The signed coefficients one check reads, keyed by ordered tuple.

    ``value(tau)`` is sgn(tau) * pi^{set tau}, computed by ``signed_pi``,
    and ``get(r, tau)`` is d_r of it; both are None when that is zero.
    Entries are filled on first use, never precomputed: the ordered tuples
    number (n+m)!/m!, far more than a check reads at large n.
    """

    def __init__(self, pi: dict, family: Optional[CertifiedDerivationFamily]):
        self.pi = pi
        self.family = family
        self._values = {}
        self._derivatives = {}

    def value(self, tau: Tuple[int, ...]) -> Optional[LaurentPolynomial]:
        entry = self._values.get(tau, _MISSING)
        if entry is _MISSING:
            entry = signed_pi(tau, self.pi)
            if entry is not None and entry.is_zero():
                entry = None
            self._values[tau] = entry
        return entry

    def get(self, r: int, tau: Tuple[int, ...]) -> Optional[LaurentPolynomial]:
        key = (r, tau)
        entry = self._derivatives.get(key, _MISSING)
        if entry is _MISSING:
            entry = self.value(tau)
            if entry is not None:
                entry = self.family[r - 1].apply(entry)
                if entry.is_zero():
                    entry = None
            self._derivatives[key] = entry
        return entry


def _prepare(A, family, pi) -> _SignedPi:
    return _SignedPi(pi_table(A) if pi is None else pi, family)


# ---------------------------------------------------------------------------
# Grouped conditions, one group at a time
# ---------------------------------------------------------------------------

def group_residual_a(alpha: Tuple[int, ...], beta: Tuple[int, ...],
                     A: AdjoinedMatrix, family: CertifiedDerivationFamily,
                     pi: Optional[dict] = None,
                     _dpi: Optional[_SignedPi] = None) -> LaurentPolynomial:
    """Coefficient of the derivative pattern (x-pattern alpha, y-tail beta)
    in the first block of the expanded identity; the substituted row index
    runs over every row, so collision terms are included."""
    if _dpi is None:
        _dpi = _prepare(A, family, pi)
    total = LaurentPolynomial.zero(A.nvars)
    lead_live = _dpi.value(alpha) is not None
    for r in range(1, A.n + A.m + 1):
        if lead_live:
            pu = _dpi.value((r,) + beta)
            if pu is not None:
                d = _dpi.get(r, alpha)
                if d is not None:
                    total = total + pu * d
        for k in range(1, len(alpha) + 1):
            pw = _dpi.value(replace_position(alpha, k, r))
            if pw is None:
                continue
            d = _dpi.get(r, (alpha[k - 1],) + beta)
            if d is not None:
                total = total - pw * d
    return total


def group_residual_b(alpha: Tuple[int, ...], pair: Tuple[int, int],
                     beta_rest: Tuple[int, ...], A: AdjoinedMatrix,
                     pi: Optional[dict] = None,
                     _dpi: Optional[_SignedPi] = None) -> LaurentPolynomial:
    """Coefficient of the second-derivative pattern: x-pattern alpha, an
    unordered derivative pair on the distinguished y slot, remaining y-tail
    beta_rest.  Both orderings of the pair are summed (they are the plain
    and t-swapped substitution families of the per-tuple form)."""
    if _dpi is None:
        _dpi = _prepare(A, None, pi)
    total = LaurentPolynomial.zero(A.nvars)
    orderings = [pair] if pair[0] == pair[1] else [pair, (pair[1], pair[0])]
    for k in range(1, len(alpha) + 1):
        for r1, r2 in orderings:
            pw = _dpi.value(replace_position(alpha, k, r1))
            if pw is None:
                continue
            pu = _dpi.value((alpha[k - 1], r2) + beta_rest)
            if pu is not None:
                total = total + pw * pu
    return total


# ---------------------------------------------------------------------------
# The grouped conditions, compiled once per shape
# ---------------------------------------------------------------------------

def _first_family_terms(n, idx, alpha, signed):
    """(tail, key, coeff) for the formally nonzero terms of the groups
    (alpha, beta): tail (beta,), key (S, r, T) for coeff * pi^S * d_r pi^T."""
    swaps = [(x, [(r, *signed(replace_position(alpha, k, r)))
                  for r in idx if r == x or r not in alpha])
             for k, x in enumerate(alpha, 1)]
    lead = signed(alpha)[1]
    for beta in itertools.combinations(idx, n - 1):
        for r in idx:
            if r not in beta:
                sign, S = signed((r,) + beta)
                yield (beta,), (S, r, lead), sign
        for x, swapped in swaps:
            if x not in beta:
                down_sign, T = signed((x,) + beta)
                for r, sign, S in swapped:
                    yield (beta,), (S, r, T), -sign * down_sign


def _second_family_terms(n, idx, alpha, signed):
    """(tail, key, coeff) for the formally nonzero terms of the groups
    (alpha, pair, rest): tail (pair, rest), key (S <= T) for coeff * pi^S * pi^T."""
    for k, x in enumerate(alpha, 1):
        swapped = [(a, *signed(replace_position(alpha, k, a)))
                   for a in idx if a == x or a not in alpha]
        others = [i for i in idx if i != x]
        for rest in itertools.combinations(others, n - 2):
            for b in others:
                down = signed((x, b) + rest)
                if down is not None:
                    down_sign, T = down
                    for a, sign, S in swapped:
                        yield (((a, b) if a <= b else (b, a), rest),
                               (S, T) if S <= T else (T, S), sign * down_sign)


@functools.lru_cache(maxsize=16)
def _compiled_forms(n: int, m: int, second: bool) -> tuple:
    """The distinct forms of one residual family at shape (n, m), in the
    order of the first group label that carries each.

    Entries are (label, sign, terms): ``label`` is that first group,
    (alpha, beta) in the first family and (alpha, pair, rest) in the
    second, and its residual is ``sign`` times the form.  ``terms`` flattens
    sorted (coeff, S, r, T) or (coeff, S, T) int terms, S and T indexing
    ``combinations(1..n+m, n)``; the first coeff is positive.  Formally zero
    groups carry no form.  No entry depends on a matrix; 16 are cached.
    """
    idx = range(1, n + m + 1)
    alphas = list(itertools.combinations(idx, n))
    subset = {S: i for i, S in enumerate(alphas)}
    signs = {}

    def signed(tau):
        """(sgn tau, index of set tau), None on a repeated index."""
        if tau not in signs:
            sign = perm_sign(tau)
            signs[tau] = (sign, subset[tuple(sorted(tau))]) if sign else None
        return signs[tau]

    family_terms = _second_family_terms if second else _first_family_terms
    forms, seen = [], set()
    for alpha in alphas:
        groups = {}
        for tail, key, c in family_terms(n, idx, alpha, signed):
            terms = groups.setdefault(tail, {})
            terms[key] = terms.get(key, 0) + c
        for tail in sorted(groups):
            terms = sorted((key, c) for key, c in groups[tail].items() if c)
            if terms:
                sign = 1 if terms[0][1] > 0 else -1
                flat = tuple(v for key, c in terms for v in (sign * c, *key))
                if flat not in seen:
                    seen.add(flat)
                    forms.append(((alpha,) + tail, sign, flat))
    return tuple(forms)


def _scan(pi: dict, n: int, m: int,
          family: CertifiedDerivationFamily) -> Tuple[Optional[dict], float]:
    """For the table ``pi`` (keyed by sorted index set): the counterexample
    at the first label of the first form, in order, whose value is nonzero
    (first family before second), or None; and the seconds spent compiling.
    The second family is compiled only once the first vanishes."""
    pis = [pi[S] for S in itertools.combinations(range(1, n + m + 1), n)]
    derivatives = {}
    compile_s = 0.0
    for second, name, fields in ((False, "first", ("x_pattern", "y_tail")),
                                 (True, "second", ("x_pattern", "derivative_pair", "y_tail_rest"))):
        started = time.perf_counter()
        forms = _compiled_forms(n, m, second)
        compile_s += time.perf_counter() - started
        width = 3 if second else 4
        for label, sign, terms in forms:
            total = LaurentPolynomial.zero(family.nvars)
            for i in range(0, len(terms), width):
                c, S, T = terms[i], terms[i + 1], terms[i + width - 1]
                left = pis[S]
                if left.is_zero():
                    continue
                if second:
                    right = pis[T]
                else:
                    r = terms[i + 2]
                    right = derivatives.get((r, T))
                    if right is None:
                        right = derivatives[r, T] = family[r - 1].apply(pis[T])
                if not right.is_zero():
                    product = left * right
                    total = total + (product if c == 1 else product * c)
            if not total.is_zero():
                return {
                    "residual_family": name,
                    **{f: list(part) for f, part in zip(fields, label)},
                    "residual": format_polynomial(total if sign > 0 else -total),
                }, compile_s
    return None, compile_s


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
    # pi_table_s, compile_s, evaluate_s; outside the body, like wall_time
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


def check_criterion(A: AdjoinedMatrix, family: CertifiedDerivationFamily,
                    budget: int = DEFAULT_GROUP_BUDGET, threads: int = 1,
                    matrix_desc: str = "") -> CriterionReport:
    """Decide whether (A, family) yields a Poisson n-Lie bracket.

    Checks every grouped residual condition (which jointly cover all
    per-tuple cases, including the collision classes outside the tuple
    parametrization); exact arithmetic, zero tolerance.  The verdict is
    equivalent to the vanishing of the fundamental-identity defect on all
    inputs whenever the family's separating assumptions hold.  The
    counterexample is the first group, in label order, that does not
    vanish; each distinct form is evaluated once (see the module docstring).

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
    counts = _tuple_counts(A.n, A.m)
    if counts["groups_total"] > budget:
        raise BudgetExceededError(
            f"{counts['groups_total']} residual groups exceed budget {budget}",
            counts["groups_total"], budget)

    start = time.perf_counter()
    pi = pi_table(A)
    pi_s = time.perf_counter() - start
    counterexample, compile_s = _scan(pi, A.n, A.m, family)
    wall = time.perf_counter() - start
    entries = [[format_polynomial(e) for e in row] for row in A.entries]
    return CriterionReport(
        n=A.n, m=A.m, nvars=A.nvars, matrix_desc=matrix_desc,
        matrix_entries=entries,
        verdict="pass" if counterexample is None else "fail",
        counts=counts, counterexample=counterexample, wall_time=wall,
        phases={"pi_table_s": pi_s, "compile_s": compile_s,
                "evaluate_s": wall - pi_s - compile_s})


# ---------------------------------------------------------------------------
# Grassmann-Pluecker oracle
# ---------------------------------------------------------------------------

def grassmann_plucker_defect(es: Sequence[Sequence], fs: Sequence[Sequence]) -> Fraction:
    """sum_k (-1)^{k-1} det(e_1..e_k-hat..e_n) det(e_k, f_3..f_n); always 0.

    Row vectors over Q of length n-1, with n = len(es) and n-2 trailing
    f vectors; this is the sign-cancellation engine behind the second
    residual family for scalar matrices.
    """
    n = len(es)
    if n < 2:
        raise ValueError("need at least two e vectors")
    if len(fs) != n - 2:
        raise ValueError("need exactly n-2 f vectors")
    rows = [tuple(Fraction(v) for v in e) for e in es]
    frows = [tuple(Fraction(v) for v in f) for f in fs]
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
                     budget: int = DEFAULT_GROUP_BUDGET, threads: int = 1) -> ProbeReport:
    """Run the exhaustive criterion, with the Euler family on n + m
    variables, on seeded random scalar matrices; any failure would be a
    counterexample to the scalar-matrix conjecture and is dumped verbatim.
    Trials run serially; ``threads`` is accepted for compatibility."""
    from .ring import euler_family

    nvars = n + m
    family = euler_family(nvars)
    sampler = MonomialSampler(nvars, seed=seed)
    matrices = [sampler.scalar_matrix(n, m) for _ in range(trials)]

    start = time.perf_counter()
    verdicts = []
    failures = []
    phases = dict.fromkeys(("pi_table_s", "compile_s", "evaluate_s"), 0.0)
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
