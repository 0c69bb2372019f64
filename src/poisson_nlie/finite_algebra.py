"""Finite-dimensional Poisson n-Lie algebras via exact structure constants.

A ``StructAlgebra`` couples a symmetric binary product with an n-ary
bracket on Q^d.  On top of it: axiom verification (exhaustive over the
basis tuples whose identities read a stored entry, so its work follows the
stored constants, not ``dim``), the descending series, solvability and
nilpotency classification, the nilradical, hypo-nilpotent ideals,
multiplication operators, common eigenvectors, eigenspace ideals, and
idempotent bookkeeping.  The series, the classification and both
nilradical searches (two-operation and bracket-only) share one descent
loop, ``_series_terms``; both searches share one greedy adjoin-and-close
loop, and every basis adjoint comes from ``_adjoint_generators``.

Sparse vectors (``{index: Fraction}``) are used for structure constants so
large tensor-power algebras stay cheap; dense tuples appear at the
``Subspace`` boundary.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .jacobian_bracket import perm_sign
from .ring import ParseError
from .subspaces import (
    Subspace,
    det_fraction,
    is_nilpotent_matrix,
    kernel,
    mat_pow,
    mat_sub,
    mat_vec,
    rational_eigenvalues,
    scale_matrix,
    unit_vector,
)

SVec = Dict[int, Fraction]

_F0 = Fraction(0)


class InternalCheckError(AssertionError):
    """A structural cross-check that should hold by theory failed."""


def _sv(values) -> SVec:
    """Normalize dense sequences / mappings to a sparse vector."""
    if isinstance(values, dict):
        return {i: Fraction(c) for i, c in values.items() if c}
    return {i: Fraction(c) for i, c in enumerate(values) if c}


def _sv_accum(acc: SVec, sv: SVec, scale: Fraction):
    for i, c in sv.items():
        value = acc.get(i, _F0) + scale * c
        if value:
            acc[i] = value
        else:
            acc.pop(i, None)


def sv_to_dense(sv: SVec, dim: int) -> tuple:
    return tuple(sv.get(i, _F0) for i in range(dim))


def dense_to_sv(vec: Sequence) -> SVec:
    return _sv(vec)


class StructAlgebra:
    """Algebra on Q^dim with a symmetric product and an n-ary bracket.

    With ``skew=True`` only strictly increasing bracket keys are stored and
    the full tensor is reconstructed by antisymmetry; ``skew=False`` stores
    raw keys (for brackets that are not alternating, e.g. iterated binary
    nestings).
    """

    def __init__(self, dim: int, arity: int, brackets=None, products=None,
                 skew: bool = True):
        if dim < 0 or arity < 2:
            raise ValueError("need dim >= 0 and arity >= 2")
        self.dim = dim
        self.arity = arity
        self.skew = skew
        self._bracket: Dict[tuple, SVec] = {}
        self._product: Dict[Tuple[int, int], SVec] = {}
        for key, value in (brackets or {}).items():
            key = tuple(key)
            if len(key) != arity or any(not 0 <= i < dim for i in key):
                raise ValueError(f"bad bracket key {key}")
            sv = _sv(value)
            if not sv:
                continue
            if skew and any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError("skew storage needs strictly increasing keys")
            self._bracket[key] = sv
        for (i, j), value in (products or {}).items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError("bad product key")
            sv = _sv(value)
            if not sv:
                continue
            self._product[(i, j) if i <= j else (j, i)] = sv

    # -- basis-level evaluation ---------------------------------------------

    def bracket_basis(self, idxs: Sequence[int]) -> SVec:
        key = tuple(idxs)
        if not self.skew:
            return self._bracket.get(key, {})
        # a key with a repeated index is never stored, so its bracket is 0
        value = self._bracket.get(tuple(sorted(key)))
        if not value:
            return {}
        if perm_sign(key) > 0:
            return value
        return {i: -c for i, c in value.items()}

    def product_basis(self, i: int, j: int) -> SVec:
        return self._product.get((i, j) if i <= j else (j, i), {})

    # -- multilinear extension ----------------------------------------------

    def product(self, x: SVec, y: SVec) -> SVec:
        acc: SVec = {}
        for i, ci in x.items():
            for j, cj in y.items():
                base = self.product_basis(i, j)
                if base:
                    _sv_accum(acc, base, ci * cj)
        return acc

    def bracket(self, vectors: Sequence[SVec]) -> SVec:
        if len(vectors) != self.arity:
            raise ValueError(f"bracket arity is {self.arity}")
        acc: SVec = {}
        for combo in itertools.product(*(v.items() for v in vectors)):
            base = self.bracket_basis([i for i, _ in combo])
            if base:
                coeff = Fraction(1)
                for _, c in combo:
                    coeff *= c
                _sv_accum(acc, base, coeff)
        return acc

    # -- operators ------------------------------------------------------------

    def left_mult_matrix(self, x: SVec) -> tuple:
        """Matrix of v -> x . v in the standard basis (columns indexed by v)."""
        cols = [sv_to_dense(self.product(x, {j: Fraction(1)}), self.dim)
                for j in range(self.dim)]
        return tuple(tuple(col[i] for col in cols) for i in range(self.dim))

    def adjoint_matrix(self, ys: Sequence[SVec]) -> tuple:
        """Matrix of v -> [y_1, ..., y_{n-1}, v]."""
        if len(ys) != self.arity - 1:
            raise ValueError("adjoint needs n-1 leading arguments")
        cols = []
        for j in range(self.dim):
            cols.append(sv_to_dense(self.bracket(list(ys) + [{j: Fraction(1)}]), self.dim))
        return tuple(tuple(col[i] for col in cols) for i in range(self.dim))

    # -- bookkeeping ----------------------------------------------------------

    def bracket_entries(self):
        return self._bracket.items()

    def product_entries(self):
        return self._product.items()

    def __eq__(self, other):
        if not isinstance(other, StructAlgebra):
            return NotImplemented
        return (self.dim, self.arity, self.skew) == (other.dim, other.arity, other.skew) \
            and self._bracket == other._bracket and self._product == other._product

    def __repr__(self):
        return (f"StructAlgebra(dim={self.dim}, arity={self.arity}, "
                f"brackets={len(self._bracket)}, products={len(self._product)}, "
                f"skew={self.skew})")


def abelian_algebra(dim: int, arity: int) -> StructAlgebra:
    return StructAlgebra(dim, arity)


# ---------------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------------

@dataclass
class AxiomReport:
    commutative: bool
    associative: bool
    skew: bool
    fundamental: bool
    leibniz: bool
    witnesses: Dict[str, tuple] = field(default_factory=dict)
    mode: str = "exhaustive"

    @property
    def all_pass(self) -> bool:
        return (self.commutative and self.associative and self.skew
                and self.fundamental and self.leibniz)


def _bracket_with_vector(P: StructAlgebra, before: tuple, sv: SVec, after: tuple) -> SVec:
    """Bracket with basis indices in all slots except one sparse-vector slot."""
    acc: SVec = {}
    for l, c in sv.items():
        base = P.bracket_basis(before + (l,) + after)
        if base:
            _sv_accum(acc, base, c)
    return acc


def _fundamental_holds(P: StructAlgebra, xs: tuple, ys: tuple) -> bool:
    inner = P.bracket_basis(ys)
    lhs = _bracket_with_vector(P, xs, inner, ()) if inner else {}
    rhs: SVec = {}
    for pos in range(len(ys)):
        nested = P.bracket_basis(xs + (ys[pos],))
        if not nested:
            continue
        _sv_accum(rhs, _bracket_with_vector(P, ys[:pos], nested, ys[pos + 1:]), 1)
    return lhs == rhs


def _leibniz_holds(P: StructAlgebra, y: int, z: int, xs: tuple) -> bool:
    yz = P.product_basis(y, z)
    lhs = _bracket_with_vector(P, (), yz, xs) if yz else {}
    rhs: SVec = {}
    for l, c in P.bracket_basis((z,) + xs).items():
        _sv_accum(rhs, P.product_basis(y, l), c)
    for l, c in P.bracket_basis((y,) + xs).items():
        _sv_accum(rhs, P.product_basis(z, l), c)
    return lhs == rhs


def _associative_holds(P: StructAlgebra, i: int, j: int, k: int) -> bool:
    left: SVec = {}
    for l, c in P.product_basis(i, j).items():
        _sv_accum(left, P.product_basis(l, k), c)
    right: SVec = {}
    for l, c in P.product_basis(j, k).items():
        _sv_accum(right, P.product_basis(i, l), c)
    return left == right


def _skew_holds(P: StructAlgebra, *key: int) -> bool:
    sign = perm_sign(key)
    value = P.bracket_basis(key)
    if sign == 0:
        return not value
    ref = P.bracket_basis(tuple(sorted(key)))
    return value == (ref if sign > 0 else {i: -c for i, c in ref.items()})


def _one_removed(P: StructAlgebra, slot: int) -> Dict[tuple, set]:
    """{rest: removed entries} over stored bracket keys with one entry
    removed; raw storage removes only the entry at ``slot``.  These are the
    xs with [xs, w] != 0 (slot -1) or [w, xs] != 0 (slot 0) for some w."""
    out: Dict[tuple, set] = {}
    for key in P._bracket:
        for p in (range(len(key)) if P.skew else (slot % len(key),)):
            out.setdefault(key[:p] + key[p + 1:], set()).add(key[p])
    return out


def _associative_cases(P: StructAlgebra) -> List[tuple]:
    """(e_i.e_j).e_k needs a stored (i, j) and a stored (l, k) for some l in
    the support of e_i.e_j; e_i.(e_j.e_k) likewise with (j, k) and (i, l)."""
    partners: Dict[int, set] = {}
    for i, j in P._product:
        partners.setdefault(i, set()).add(j)
        partners.setdefault(j, set()).add(i)
    cases = set()
    for (a, b), value in P._product.items():
        for c in set().union(*(partners.get(l, ()) for l in value)):
            cases.update(((a, b, c), (b, a, c), (c, a, b), (c, b, a)))
    return sorted(cases)


def _skew_cases(P: StructAlgebra) -> List[tuple]:
    """Raw storage: a key breaks skewness only if it or its sorted form is
    stored."""
    if P.skew:
        return []
    cases = set(P._bracket)
    for key in P._bracket:
        if all(a < b for a, b in zip(key, key[1:])):
            cases.update(itertools.permutations(key))
    return sorted(cases)


def _fundamental_cases(P: StructAlgebra) -> List[tuple]:
    """(xs, ys) with [xs, w] != 0 for some w, and ys a stored key or a
    stored key with one entry replaced by such a w."""
    heads = _one_removed(P, -1)
    swapped: Dict[int, set] = {}
    for w in set().union(*heads.values()):
        found = set(P._bracket)
        for key in P._bracket:
            if P.skew and w in key:
                continue
            for p in range(len(key)):
                ys = key[:p] + (w,) + key[p + 1:]
                found.add(tuple(sorted(ys)) if P.skew else ys)
        swapped[w] = found
    return sorted((xs, ys) for xs, ws in heads.items()
                  for ys in set().union(*(swapped[w] for w in ws)))


def _leibniz_cases(P: StructAlgebra) -> List[tuple]:
    """(y, z, xs) with [w, xs] != 0 for some w, and (y, z) a stored product
    pair or such a w paired with an index of a product key."""
    factors = {i for pair in P._product for i in pair}
    cases = set()
    for xs, ws in _one_removed(P, 0).items():
        cases.update((y, z, xs) for y, z in P._product)
        cases.update((min(w, s), max(w, s), xs) for w in ws for s in factors)
    return sorted(cases)


def verify_axioms(P: StructAlgebra) -> AxiomReport:
    """Check the two-operation axioms, exhaustively over the stored entries.

    Multilinearity reduces every quantifier to basis tuples; for alternating
    storage the fundamental identity and the Leibniz rule (first slot; the
    others follow) run over increasing tuples.  Each side of an identity is
    a sum of products of stored entries, so only the tuples where some side
    reads one are visited, in lexicographic order: each witness is the
    first failing basis tuple, and the work follows the stored entries, not
    ``dim``.  Commutativity holds by the symmetric product storage and
    skew-symmetry by alternating storage; raw storage is checked for it.
    ``mode`` is always ``"exhaustive"``.
    """
    report = AxiomReport(True, True, True, True, True)
    checks = (
        ("associative", _associative_cases, _associative_holds),
        ("skew", _skew_cases, _skew_holds),
        ("fundamental", _fundamental_cases, _fundamental_holds),
        ("leibniz", _leibniz_cases, _leibniz_holds),
    )
    for name, cases, holds in checks:
        for case in cases(P):
            if not holds(P, *case):
                setattr(report, name, False)
                report.witnesses[name] = case
                break
    return report


# ---------------------------------------------------------------------------
# Subspace arithmetic driven by the algebra
# ---------------------------------------------------------------------------

def _subspace_svecs(U: Subspace) -> List[SVec]:
    return [dense_to_sv(row) for row in U.basis]


def subspace_product(U: Subspace, V: Subspace, P: StructAlgebra) -> Subspace:
    """Span of u . v over basis vectors."""
    vectors = []
    for u in _subspace_svecs(U):
        for v in _subspace_svecs(V):
            w = P.product(u, v)
            if w:
                vectors.append(sv_to_dense(w, P.dim))
    return Subspace.from_vectors(P.dim, vectors)


def bracket_span(subspaces: Sequence[Subspace], P: StructAlgebra) -> Subspace:
    """Span of [u_1, ..., u_n] with slot p drawn from subspaces[p]."""
    if len(subspaces) != P.arity:
        raise ValueError("bracket_span needs one subspace per slot")
    vectors = []
    pools = [_subspace_svecs(U) for U in subspaces]
    for combo in itertools.product(*pools):
        w = P.bracket(list(combo))
        if w:
            vectors.append(sv_to_dense(w, P.dim))
    return Subspace.from_vectors(P.dim, vectors)


def full_space(P: StructAlgebra) -> Subspace:
    return Subspace.full(P.dim)


def is_subalgebra(U: Subspace, P: StructAlgebra) -> bool:
    if not U.contains_subspace(subspace_product(U, U, P)):
        return False
    return U.contains_subspace(bracket_span([U] * P.arity, P))


def is_ideal(U: Subspace, P: StructAlgebra) -> bool:
    """Ideal for both operations: P.U in U and [U, P, ..., P] in U."""
    whole = full_space(P)
    if not U.contains_subspace(subspace_product(whole, U, P)):
        return False
    br = bracket_span([U] + [whole] * (P.arity - 1), P)
    return U.contains_subspace(br)


def ideal_closure(U: Subspace, P: StructAlgebra, with_product: bool = True) -> Subspace:
    """Smallest ideal containing U; with ``with_product`` False, the
    smallest ideal of the bracket alone."""
    whole = full_space(P)
    current = U
    for _ in range(P.dim + 1):
        grown = current.sum(bracket_span([current] + [whole] * (P.arity - 1), P))
        if with_product:
            grown = grown.sum(subspace_product(whole, current, P))
        if grown.dim == current.dim:
            return current
        current = grown
    raise InternalCheckError("ideal closure failed to stabilize")


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------

SERIES_KINDS = ("derived", "lower_central", "subalg", "assoc_power", "bracket_power")


@dataclass
class SeriesResult:
    kind: str
    terms: List[Subspace]
    stabilized_at: int
    terminates_at_zero: bool

    def term(self, k: int) -> Subspace:
        """k-th term, 1-based; saturates at the stable value."""
        if k < 1:
            raise ValueError("series terms are 1-based")
        return self.terms[min(k, len(self.terms)) - 1]


def _series_terms(I: Subspace, P: StructAlgebra, kind: str) -> List[Subspace]:
    """The one descent loop: I, then each term's step, until a term is zero
    or equals the one before it.  Steps are those listed in ``series``, plus
    the bracket part of the derived step, ``bracket_derived``:
    T' = [T, T, P..P].  Nothing is checked about I."""
    whole = full_space(P)
    n = P.arity

    def step(T: Subspace) -> Subspace:
        if kind == "derived":
            return bracket_span([T, T] + [whole] * (n - 2), P).sum(
                subspace_product(T, T, P))
        if kind == "bracket_derived":
            return bracket_span([T, T] + [whole] * (n - 2), P)
        if kind == "lower_central":
            return bracket_span([T, I] + [whole] * (n - 2), P).sum(
                subspace_product(T, I, P))
        if kind == "assoc_power":
            return subspace_product(T, I, P)
        if kind == "bracket_power":
            return bracket_span([T, I] + [whole] * (n - 2), P)
        return bracket_span([T] + [I] * (n - 1), P).sum(subspace_product(T, I, P))

    terms = [I]
    while True:
        nxt = step(terms[-1])
        if nxt == terms[-1]:
            return terms
        terms.append(nxt)
        if nxt.is_zero():
            return terms


def _reaches_zero(I: Subspace, P: StructAlgebra, kind: str) -> bool:
    return _series_terms(I, P, kind)[-1].is_zero()


def series(I: Subspace, P: StructAlgebra, kind: str) -> SeriesResult:
    """Descending series of an ideal (or subalgebra for ``subalg``).

    derived:        T' = [T, T, P..P] + T.T
    lower_central:  T' = [T, I, P..P] + T.I
    assoc_power:    T' = T.I
    bracket_power:  T' = [T, I, P..P]
    subalg:         T' = [T, I, .., I] + T.I
    """
    if kind not in SERIES_KINDS:
        raise ValueError(f"unknown series kind {kind!r}")
    if kind == "subalg":
        if not is_subalgebra(I, P):
            raise ValueError("subalgebra series needs a subalgebra")
    elif not is_ideal(I, P):
        raise ValueError(f"{kind} series needs an ideal")
    terms = _series_terms(I, P, kind)
    return SeriesResult(kind, terms, len(terms), terms[-1].is_zero())


def algebra_square(P: StructAlgebra) -> Subspace:
    """P^2 = [P, ..., P] + P.P (the second term of both canonical series)."""
    whole = full_space(P)
    return bracket_span([whole] * P.arity, P).sum(subspace_product(whole, whole, P))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass
class Classification:
    solvable: bool
    solvability_index: Optional[int]
    nilpotent: bool
    nilpotency_index: Optional[int]
    pa_nilpotent: bool
    pl_solvable: bool
    pl_nilpotent: bool


def classify(P: StructAlgebra) -> Classification:
    """Solvability/nilpotency flags and indices, with the internal
    cross-check that nilpotency coincides with nilpotency of both parts."""
    whole = full_space(P)
    derived = _series_terms(whole, P, "derived")
    lower = _series_terms(whole, P, "lower_central")
    solvable = derived[-1].is_zero()
    nilpotent = lower[-1].is_zero()
    result = Classification(
        solvable=solvable,
        solvability_index=len(derived) if solvable else None,
        nilpotent=nilpotent,
        nilpotency_index=len(lower) if nilpotent else None,
        pa_nilpotent=_reaches_zero(whole, P, "assoc_power"),
        pl_solvable=_reaches_zero(whole, P, "bracket_derived"),
        pl_nilpotent=_reaches_zero(whole, P, "bracket_power"),
    )
    if result.nilpotent != (result.pa_nilpotent and result.pl_nilpotent):
        raise InternalCheckError(
            "nilpotency must match joint nilpotency of both parts")
    return result


def engel_operators_nilpotent(P: StructAlgebra) -> Tuple[bool, Optional[tuple]]:
    """All basis left-multiplications and all increasing-tuple adjoints
    nilpotent?  Returns a witness tag when one is not."""
    for i in range(P.dim):
        if not is_nilpotent_matrix(P.left_mult_matrix({i: Fraction(1)})):
            return False, ("product", i)
    for tup, matrix in _adjoint_generators(P):
        if not is_nilpotent_matrix(matrix):
            return False, ("bracket", tup)
    return True, None


# ---------------------------------------------------------------------------
# Hypo-nilpotent ideals and the nilradical
# ---------------------------------------------------------------------------

def is_nilpotent_as_ideal(U: Subspace, P: StructAlgebra) -> bool:
    return series(U, P, "lower_central").terminates_at_zero


def is_hypo_nilpotent(U: Subspace, P: StructAlgebra) -> bool:
    """Nilpotent as a subalgebra yet not nilpotent as an ideal."""
    if not is_ideal(U, P):
        raise ValueError("hypo-nilpotency is a property of ideals")
    if not series(U, P, "subalg").terminates_at_zero:
        return False
    return not is_nilpotent_as_ideal(U, P)


def _adapted_basis(P: StructAlgebra) -> List[tuple]:
    """Basis ordered from the deepest derived-series layer outward."""
    collected: List[tuple] = []
    spanned = Subspace.zero(P.dim)
    for term in reversed(_series_terms(full_space(P), P, "derived")):
        for row in term.basis:
            if not spanned.contains(row):
                collected.append(row)
                spanned = Subspace.from_vectors(P.dim, spanned.basis + (row,))
    for j in range(P.dim):
        row = unit_vector(P.dim, j)
        if not spanned.contains(row):
            collected.append(row)
            spanned = Subspace.from_vectors(P.dim, spanned.basis + (row,))
    return collected


def _greedy_ideal(start: Subspace, candidates: Sequence[tuple], closure,
                  nilpotent) -> Subspace:
    """The one greedy search: adjoin each candidate whose ``closure`` with
    the current ideal stays ``nilpotent``, sweeping until a pass adds none."""
    current = start
    changed = True
    while changed:
        changed = False
        for row in candidates:
            if current.contains(row):
                continue
            grown = closure(Subspace.from_vectors(current.ambient, current.basis + (row,)))
            if nilpotent(grown):
                current = grown
                changed = True
    return current


def nilradical(P: StructAlgebra) -> Subspace:
    """Greedy maximal nilpotent ideal: start from the closure of P^2
    (nilpotent for solvable P) and adjoin adapted-basis vectors whose
    closure keeps the ideal nilpotent.  Certified maximal over that basis;
    always cross-checked against the bracket-only nilradical."""
    if not classify(P).solvable:
        raise ValueError("nilradical computation expects a solvable algebra")

    def nilpotent(U: Subspace) -> bool:
        # closures are ideals, so the series needs no ideal check
        return _reaches_zero(U, P, "lower_central")

    start = ideal_closure(algebra_square(P), P)
    if not nilpotent(start):
        raise InternalCheckError("P^2 must be a nilpotent ideal for solvable P")
    candidates = _adapted_basis(P)
    current = _greedy_ideal(start, candidates, lambda U: ideal_closure(U, P), nilpotent)
    if bracket_nilradical(P, candidates) != current:
        raise InternalCheckError(
            "nilradical must agree with the bracket-only nilradical")
    return current


def bracket_nilradical(P: StructAlgebra, candidates: Sequence[tuple]) -> Subspace:
    """Nilradical of the underlying n-Lie algebra, ignoring the product,
    searched over ``candidates`` (the adapted basis ``nilradical`` uses)."""

    def nilpotent(U: Subspace) -> bool:
        return _reaches_zero(U, P, "bracket_power")

    def closure(U: Subspace) -> Subspace:
        return ideal_closure(U, P, with_product=False)

    start = closure(bracket_span([full_space(P)] * P.arity, P))
    if not nilpotent(start):
        raise InternalCheckError("bracket part of P^2 must be nilpotent")
    return _greedy_ideal(start, candidates, closure, nilpotent)


# ---------------------------------------------------------------------------
# Common eigenvectors and the ideal flag
# ---------------------------------------------------------------------------

@dataclass
class CommonEigenvector:
    vector: tuple
    eigenvalues: Dict[tuple, Fraction]
    annihilated_by_products: bool = True


def annihilator(P: StructAlgebra) -> Subspace:
    """{v : x . v = 0 for all x}; an ideal by the Leibniz rule."""
    rows = [row for i in range(P.dim) for row in P.left_mult_matrix({i: Fraction(1)})]
    if not rows:
        return full_space(P)
    return kernel(rows)


def _adjoint_generators(P: StructAlgebra):
    for tup in itertools.combinations(range(P.dim), P.arity - 1):
        ys = [{i: Fraction(1)} for i in tup]
        yield tup, P.adjoint_matrix(ys)


def common_eigenvector(P: StructAlgebra) -> Optional[CommonEigenvector]:
    """A vector killed by every product and scaled by every adjoint.

    Searches the annihilator by iterated rational-eigenspace intersection
    over the increasing-tuple adjoint generators; eigenvalue branches are
    explored with 0 first.  Returns None when no simultaneous eigenvector
    exists over Q (the rationals are not algebraically closed).
    """
    if not classify(P).solvable:
        raise ValueError("common eigenvector search expects a solvable algebra")
    generators = list(_adjoint_generators(P))

    def descend(space: Subspace, position: int, chosen: Dict[tuple, Fraction]):
        if space.is_zero():
            return None
        if position == len(generators):
            return space, dict(chosen)
        tup, matrix = generators[position]
        candidates = rational_eigenvalues(matrix)
        ordered = sorted(candidates, key=lambda lam: (lam != 0, lam))
        for lam in ordered:
            shifted = mat_sub(matrix, scale_matrix(lam, P.dim))
            cut = space.intersection(kernel(shifted))
            if cut.is_zero():
                continue
            chosen[tup] = lam
            found = descend(cut, position + 1, chosen)
            if found is not None:
                return found
            del chosen[tup]
        return None

    start = annihilator(P)
    found = descend(start, 0, {})
    if found is None:
        return None
    space, eigenvalues = found
    return CommonEigenvector(space.basis[0], eigenvalues)


@dataclass(frozen=True)
class QuotientAlgebra:
    parent: StructAlgebra
    ideal: Subspace
    algebra: StructAlgebra
    kept: tuple  # parent basis indices representing the complement

    def project(self, vector: Sequence) -> tuple:
        residue = self.ideal.reduce(vector)
        return tuple(residue[j] for j in self.kept)

    def lift(self, vector: Sequence) -> tuple:
        out = [Fraction(0)] * self.parent.dim
        for coeff, j in zip(vector, self.kept):
            out[j] = Fraction(coeff)
        return tuple(out)


def quotient_algebra(P: StructAlgebra, I: Subspace) -> QuotientAlgebra:
    """P/I with the induced operations on the non-pivot complement basis.

    Only stored entries whose indices all lie in ``kept`` are projected;
    ``kept`` is increasing, so stored keys map to stored keys, in order."""
    if not is_ideal(I, P):
        raise ValueError("quotients need a two-operation ideal")
    kept = tuple(j for j in range(P.dim) if j not in set(I.pivots))
    position = {j: a for a, j in enumerate(kept)}
    tables = []
    for stored in (P._bracket, P._product):
        table = {}
        for key in sorted(stored):
            if all(i in position for i in key):
                residue = I.reduce(sv_to_dense(stored[key], P.dim))
                projected = tuple(residue[j] for j in kept)
                if any(projected):
                    table[tuple(position[i] for i in key)] = projected
        tables.append(table)
    brackets, products = tables
    algebra = StructAlgebra(len(kept), P.arity, brackets, products, skew=P.skew)
    return QuotientAlgebra(P, I, algebra, kept)


def solvable_flag(P: StructAlgebra) -> Optional[List[Subspace]]:
    """Chain of ideals 0 = F_0 < F_1 < ... < F_dim = P, dim F_i = i, built
    by repeatedly extracting common eigenvectors in quotients; None when a
    step has no rational eigenvector."""
    if not classify(P).solvable:
        raise ValueError("only solvable algebras carry a complete ideal flag")
    flag = [Subspace.zero(P.dim)]
    current = flag[0]
    while current.dim < P.dim:
        quo = quotient_algebra(P, current)
        found = common_eigenvector(quo.algebra)
        if found is None:
            return None
        lifted = quo.lift(found.vector)
        current = Subspace.from_vectors(P.dim, current.basis + (lifted,))
        flag.append(current)
    return flag


# ---------------------------------------------------------------------------
# Eigenspace ideals, idempotents, extension structure
# ---------------------------------------------------------------------------

def generalized_eigenspace(P: StructAlgebra, a: SVec, eigenvalue) -> Subspace:
    """ker (L_a - lambda)^dim; always an ideal, asserted as a postcondition."""
    matrix = P.left_mult_matrix(a)
    shifted = mat_sub(matrix, scale_matrix(eigenvalue, P.dim))
    power = mat_pow(shifted, max(P.dim, 1))
    space = kernel(power) if P.dim else Subspace.zero(0)
    if not is_ideal(space, P):
        raise InternalCheckError("generalized eigenspaces must be ideals")
    return space


def bracket_center(P: StructAlgebra) -> Subspace:
    """{v : [v, x_2, ..., x_n] = 0 for all x}; the center of the bracket part."""
    rows = [row for _, matrix in _adjoint_generators(P) for row in matrix]
    if not rows:
        return full_space(P)
    return kernel(rows)


def idempotent_report(P: StructAlgebra, e: SVec) -> dict:
    """Check e.e = e and, for idempotents, centrality in the bracket part;
    records the hypotheses of the split/nilpotency consequences."""
    whole = full_space(P)
    is_idem = P.product(e, e) == e
    pa_nilpotent = _reaches_zero(whole, P, "assoc_power")
    center = bracket_center(P)
    report = {
        "is_idempotent": is_idem,
        "is_zero": not e,
        "central_in_bracket": None,
        "pl_solvable": _reaches_zero(whole, P, "bracket_derived"),
        "pa_nilpotent": pa_nilpotent,
        "bracket_center_dim": center.dim,
        "nonzero_idempotents_possible": not pa_nilpotent,
    }
    if is_idem:
        report["central_in_bracket"] = center.contains(sv_to_dense(e, P.dim))
    return report


def _restrict(matrix, U: Subspace):
    """Matrix of an operator restricted to U, in U's RREF coordinates."""
    cols = []
    for row in U.basis:
        image = mat_vec(matrix, row)
        if not U.contains(image):
            raise ValueError("subspace is not invariant under the operator")
        cols.append(tuple(image[p] for p in U.pivots))
    return tuple(tuple(col[i] for col in cols) for i in range(U.dim))


def non_nilpotent_adjoint_search(P: StructAlgebra, H: Subspace,
                                 complement: Sequence[Sequence]) -> dict:
    """For each complement vector x, look for ideal elements m_1..m_{n-2}
    whose adjoint with x restricts non-nilpotently to the ideal.

    The structural statement for non-split solvable extensions of a
    maximal hypo-nilpotent ideal predicts a witness for every x; the
    search runs over increasing tuples of the ideal's basis and reports
    exhaustion without further claims when none is found.
    """
    if not is_ideal(H, P):
        raise ValueError("the search needs an ideal")
    results = {}
    h_basis = [dense_to_sv(row) for row in H.basis]
    for index, x in enumerate(complement):
        x_sv = dense_to_sv(x)
        witness = None
        for tup in itertools.combinations(range(len(h_basis)), P.arity - 2):
            ys = [x_sv] + [h_basis[i] for i in tup]
            matrix = P.adjoint_matrix(ys)
            restricted = _restrict(matrix, H)
            if not is_nilpotent_matrix(restricted):
                witness = tup
                break
        results[index] = {
            "found": witness is not None,
            "ideal_basis_tuple": witness,
        }
    results["all_found"] = all(entry["found"] for key, entry in results.items()
                               if isinstance(key, int))
    return results


def zero_product_criterion(P: StructAlgebra, x: SVec, ms: Sequence[SVec]) -> dict:
    """If the adjoint of (x, m_1..m_{n-2}) is invertible on the closure of
    P^2, the whole product must vanish; verifies the hypothesis and, when
    it holds, the conclusion."""
    if len(ms) != P.arity - 2:
        raise ValueError("need n-2 companion elements")
    square = ideal_closure(algebra_square(P), P)
    matrix = P.adjoint_matrix([x] + list(ms))
    restricted = _restrict(matrix, square)
    invertible = square.dim == 0 or det_fraction(restricted) != 0
    product_zero = not any(True for _ in P.product_entries())
    report = {
        "square_dim": square.dim,
        "restriction_invertible": invertible,
        "product_is_zero": product_zero,
        "hypothesis_met": invertible,
        "conclusion_holds": product_zero if invertible else None,
    }
    if invertible and not product_zero:
        raise InternalCheckError(
            "invertible restricted adjoint forces a zero product")
    return report


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def fixture_hypo(n: int = 4, m: int = 6) -> StructAlgebra:
    """The (m+1)-dimensional solvable algebra whose proper ideals omitting
    one middle generator are hypo-nilpotent.

    Brackets [e_i, e_{m-n+2}, ..., e_m] = e_i for i <= m-n+1 and the single
    product e_{m-n+2}.e_{m-n+3} = e_{m+1} (the one-nonzero-alpha
    specialization, which makes the second subalgebra power vanish
    exactly).
    """
    if n < 4 or m < n:
        raise ValueError("fixture needs n >= 4 and m >= n")
    dim = m + 1
    brackets = {}
    tail = tuple(range(m - n + 1, m))  # 0-based indices of e_{m-n+2}..e_m
    for i in range(m - n + 1):
        brackets[(i,) + tail] = {i: Fraction(1)}
    products = {(m - n + 1, m - n + 2): {dim - 1: Fraction(1)}}
    P = StructAlgebra(dim, n, brackets, products)
    report = verify_axioms(P)
    if not report.all_pass:
        raise InternalCheckError(f"fixture failed axiom verification: {report}")
    return P


def fixture_torus(n: int = 4, k: int = 5) -> StructAlgebra:
    """Solvable extension of an abelian base by commuting diagonal torus
    elements t_i acting through [t_i, e_1, .., e_{n-2}, e_{n-2+i}] =
    e_{n-2+i}; zero product."""
    if n < 3 or k < n - 1:
        raise ValueError("fixture needs n >= 3 and k >= n-1")
    q = k - n + 2
    dim = k + q
    brackets = {}
    for i in range(1, q + 1):
        t_index = k + i - 1
        members = [t_index] + list(range(n - 2)) + [n - 3 + i]
        arrangement = tuple(members)
        sign = perm_sign(arrangement)
        key = tuple(sorted(arrangement))
        value = Fraction(1) if sign > 0 else Fraction(-1)
        brackets[key] = {n - 3 + i: value}
    P = StructAlgebra(dim, n, brackets, {})
    report = verify_axioms(P)
    if not report.all_pass:
        raise InternalCheckError(f"fixture failed axiom verification: {report}")
    return P


# ---------------------------------------------------------------------------
# Definition file grammar
# ---------------------------------------------------------------------------

_RATIONAL = r"-?\d+(?:/\d+)?"
_TERM_RE = re.compile(rf"^(?:({_RATIONAL})\*)?e(\d+)$")


def _parse_combination(text: str, dim: int, line_no: int) -> dict:
    text = text.strip()
    if text == "0":
        return {}
    pieces = re.split(r"(?=[+-])", text.replace(" ", ""))
    result: SVec = {}
    for piece in pieces:
        if not piece:
            continue
        sign = Fraction(1)
        if piece[0] == "+":
            piece = piece[1:]
        elif piece[0] == "-":
            sign = Fraction(-1)
            piece = piece[1:]
        match = _TERM_RE.match(piece)
        if not match:
            raise ParseError(f"bad basis combination term {piece!r}", line_no, 1)
        try:
            coeff = Fraction(match.group(1)) if match.group(1) else Fraction(1)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {piece!r}", line_no, 1)
        index = int(match.group(2))
        if not 1 <= index <= dim:
            raise ParseError(f"basis index e{index} out of range", line_no, 1)
        value = result.get(index - 1, _F0) + sign * coeff
        if value:
            result[index - 1] = value
        else:
            result.pop(index - 1, None)
    return result


def parse_algebra(text: str) -> StructAlgebra:
    """Read the definition grammar:

        dim 7
        arity 4
        bracket [1,4,5,6] = e1
        product 4*5 = e7

    Strictly increasing bracket tuples, product pairs with i <= j,
    rational coefficients, unlisted entries zero, '#' comments.  Each
    header and each entry appears at most once.
    """
    header = {"dim": None, "arity": None}
    brackets = {}
    products = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] in header:
            if len(words) != 2 or not re.fullmatch(r"-?\d+", words[1]):
                raise ParseError(f"{words[0]} needs one integer value", line_no, 1)
            if header[words[0]] is not None:
                raise ParseError(f"repeated {words[0]} line", line_no, 1)
            header[words[0]] = int(words[1])
            continue
        dim, arity = header["dim"], header["arity"]
        if dim is None or arity is None:
            raise ParseError("dim and arity must precede entries", line_no, 1)
        if line.startswith("bracket"):
            match = re.match(r"bracket\s*\[([\d,\s]+)\]\s*=\s*(.+)$", line)
            if not match:
                raise ParseError("bad bracket line", line_no, 1)
            key = tuple(int(p) - 1 for p in match.group(1).split(","))
            if len(key) != arity:
                raise ParseError("bracket tuple length must equal the arity", line_no, 1)
            if any(a >= b for a, b in zip(key, key[1:])):
                raise ParseError("bracket tuples must be strictly increasing", line_no, 1)
            if key in brackets:
                raise ParseError("repeated bracket entry", line_no, 1)
            brackets[key] = _parse_combination(match.group(2), dim, line_no)
            continue
        if line.startswith("product"):
            match = re.match(r"product\s*(\d+)\s*\*\s*(\d+)\s*=\s*(.+)$", line)
            if not match:
                raise ParseError("bad product line", line_no, 1)
            i, j = int(match.group(1)) - 1, int(match.group(2)) - 1
            if i > j:
                raise ParseError("product pairs need i <= j", line_no, 1)
            if (i, j) in products:
                raise ParseError("repeated product entry", line_no, 1)
            products[(i, j)] = _parse_combination(match.group(3), dim, line_no)
            continue
        raise ParseError(f"unrecognized line {line!r}", line_no, 1)
    if None in header.values():
        raise ParseError("missing dim or arity", 1, 1)
    return StructAlgebra(header["dim"], header["arity"], brackets, products)


def _format_combination(sv: SVec) -> str:
    if not sv:
        return "0"
    pieces = []
    for index in sorted(sv):
        coeff = sv[index]
        body = f"e{index + 1}" if abs(coeff) == 1 else f"{abs(coeff)}*e{index + 1}"
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    out = [body if sign == "+" else f"-{body}"]
    for sign, body in pieces[1:]:
        out.append(f" {sign} {body}")
    return "".join(out)


def format_algebra(P: StructAlgebra) -> str:
    """Canonical serialization of the definition grammar (skew storage)."""
    if not P.skew:
        raise ValueError("the definition grammar covers alternating brackets only")
    lines = [f"dim {P.dim}", f"arity {P.arity}"]
    for key in sorted(P._bracket):
        combo = _format_combination(P._bracket[key])
        ones = ",".join(str(i + 1) for i in key)
        lines.append(f"bracket [{ones}] = {combo}")
    for (i, j) in sorted(P._product):
        combo = _format_combination(P._product[(i, j)])
        lines.append(f"product {i + 1}*{j + 1} = {combo}")
    return "\n".join(lines) + "\n"
