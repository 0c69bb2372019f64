"""Finite-dimensional Poisson n-Lie algebras via exact structure constants.

A ``StructAlgebra`` couples a symmetric binary product with an n-ary
bracket on Q^d.  On top of it: axiom verification (exhaustive over the
basis tuples whose identities read a stored entry, so its work follows the
stored constants, not ``dim``), the descending series, solvability and
nilpotency classification, the nilradical, hypo-nilpotent ideals,
multiplication operators, common eigenvectors, eigenspace ideals, and
idempotent bookkeeping.  The series, the classification and both
nilradical searches (two-operation and bracket-only) share one descent
loop, ``_series_terms``; both searches share one greedy adjoin loop,
``_greedy_ideal``; every nonzero basis operator comes from ``_basis_operators``.  All
span work starts from ``_images``, which meets each partial slot's rows,
indexed by entry, with the algebra's table of stored-key arrangements, so
only images that can be nonzero are formed.  A series step or a closure
round (which images only the rows the round before added) is one
elimination, and every series of P starts from ``_second_terms``.

Structure constants, evaluations and ``Subspace`` rows share the sparse
vectors of ``subspaces``, whose entries follow the scalar rule of ``ring``
(an int when integral, else a Fraction); dense tuples appear only in
operator matrices and at the output edge (``Subspace.basis``,
``CommonEigenvector.vector``, ``QuotientAlgebra.project``/``lift``), by
the same rule.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .jacobian_bracket import perm_sign
from .ring import ParseError, Scalar, _coeff
from .subspaces import (
    SVec,
    Subspace,
    _sv,
    _sv_accum,
    det_fraction,
    is_nilpotent_matrix,
    kernel,
    mat_pow,
    rational_eigenvalues,
    shift_diagonal,
    sv_to_dense,
)


class InternalCheckError(AssertionError):
    """A structural cross-check that should hold by theory failed."""


dense_to_sv = _sv


def _multilinear(value, vectors: Sequence[SVec]) -> SVec:
    """The multilinear extension of ``value``, which maps a tuple of basis
    indices to its sparse image, evaluated on sparse vectors."""
    acc: SVec = {}
    for combo in itertools.product(*(v.items() for v in vectors)):
        base = value(tuple(i for i, _ in combo))
        if base:
            coeff = 1
            for _, c in combo:
                coeff *= c
            _sv_accum(acc, base, coeff)
    return acc


def _dense(columns: Dict[int, SVec], dim: int) -> tuple:
    """The dim x dim matrix whose column j is columns[j] (zero if absent)."""
    return tuple(tuple(columns.get(j, {}).get(i, 0) for j in range(dim)) for i in range(dim))


@functools.cache
def _layouts(n: int, whole: Tuple[int, ...], raw: bool) -> tuple:
    """(getter, sign) per arrangement t of a sorted n-key (a raw key: only
    as stored) whose entries at the positions ``whole`` are sorted: the
    getter lists t whole slots first, and for distinct entries t is sign
    times the key, counting the sign of listing the whole slots first."""
    partial = tuple(p for p in range(n) if p not in whole)
    if raw:
        return ((itemgetter(*whole, *partial), 1),)
    order_sign = perm_sign(whole + partial)
    return tuple((itemgetter(*chosen, *rest), perm_sign(chosen + rest) * order_sign)
                 for chosen in itertools.combinations(range(n), len(whole))
                 for rest in itertools.permutations(p for p in range(n) if p not in chosen))


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
        # caches of the stored entries for _arrangement_table, bracket_basis, full_space
        self._arrangements: Dict[Tuple[str, tuple], list] = {}
        self._signed: Dict[tuple, SVec] = {}
        self._full: Optional[Subspace] = None
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
        """A stored vector, its negated copy or {}, shared and read-only;
        alternating storage sorts and signs each tuple on its first lookup."""
        key = tuple(idxs)
        if not self.skew:
            return self._bracket.get(key, {})
        value = self._signed.get(key)
        if value is None:
            # a key with a repeated index is never stored, so its bracket is 0
            value = self._bracket.get(tuple(sorted(key)), {})
            if value and perm_sign(key) < 0:
                value = {i: -c for i, c in value.items()}
            self._signed[key] = value
        return value

    def product_basis(self, i: int, j: int) -> SVec:
        return self._product.get((i, j) if i <= j else (j, i), {})

    # -- multilinear extension ----------------------------------------------

    def product(self, x: SVec, y: SVec) -> SVec:
        return _multilinear(lambda key: self.product_basis(*key), (x, y))

    def bracket(self, vectors: Sequence[SVec]) -> SVec:
        if len(vectors) != self.arity:
            raise ValueError(f"bracket arity is {self.arity}")
        return _multilinear(self.bracket_basis, vectors)

    # -- operators ------------------------------------------------------------

    def left_mult_matrix(self, x: SVec) -> tuple:
        """Matrix of v -> x . v in the standard basis."""
        return _dense({j: self.product(x, {j: 1}) for j in range(self.dim)}, self.dim)

    def adjoint_matrix(self, ys: Sequence[SVec]) -> tuple:
        """Matrix of v -> [y_1, ..., y_{n-1}, v]."""
        if len(ys) != self.arity - 1:
            raise ValueError("adjoint needs n-1 leading arguments")
        return _dense({j: self.bracket([*ys, {j: 1}]) for j in range(self.dim)}, self.dim)

    def _arrangement_table(self, op: str, whole: Tuple[int, ...]) -> list:
        """(fill, rest, sign, value) per arrangement t of a stored key of
        ``op`` (``"bracket"`` or ``"product"``) whose entries at the
        positions ``whole`` are sorted; fill and rest are t at and off those
        positions, t evaluates to sign * value, and value is the stored
        vector itself, shared and read-only.  Unordered storage (the
        product, alternating brackets) gives a key of distinct entries
        n!/w! arrangements, and raw storage only the key as stored, each
        by the pattern's ``_layouts``.  Built once per operation and
        pattern: the stored entries never change."""
        table = self._arrangements.get((op, whole))
        if table is not None:
            return table
        stored, n = (self._product, 2) if op == "product" else (self._bracket, self.arity)
        layouts = _layouts(n, whole, op == "bracket" and not self.skew)
        w, signed = len(whole), op == "bracket" and self.skew
        table = []
        for key, value in stored.items():
            arranged = [(t[:w], t[w:], sign if signed else 1, value)
                        for get, sign in layouts for t in (get(key),)]
            if key[0] == key[-1]:  # a square product key repeats its splits, which count once
                arranged = list({entry[:2]: entry for entry in arranged}.values())
            table += arranged
        self._arrangements[(op, whole)] = table
        return table

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
        image = _bracket_with_vector(P, ys[:pos], nested, ys[pos + 1:])
        if image:
            _sv_accum(rhs, image, 1)
    return lhs == rhs


def _leibniz_holds(P: StructAlgebra, y: int, z: int, xs: tuple) -> bool:
    yz = P.product_basis(y, z)
    lhs = _bracket_with_vector(P, (), yz, xs) if yz else {}
    rhs: SVec = {}
    for factor, other in ((y, z), (z, y)):
        for l, c in P.bracket_basis((other,) + xs).items():
            product = P.product_basis(factor, l)
            if product:
                _sv_accum(rhs, product, c)
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


def _require_verified(P: StructAlgebra, label: str) -> None:
    report = verify_axioms(P)
    if not report.all_pass:
        raise InternalCheckError(f"{label} failed verification: {report}")


# ---------------------------------------------------------------------------
# Subspace arithmetic driven by the algebra
# ---------------------------------------------------------------------------

def _row_index(U: Subspace) -> Dict[int, List[Tuple[int, Scalar]]]:
    """{entry: [(row number, coefficient), ...]} over U's RREF rows."""
    index: Dict[int, List[Tuple[int, Scalar]]] = {}
    for r, row in enumerate(U.rows):
        for i, c in row.items():
            index.setdefault(i, []).append((r, c))
    return index


def _images(P: StructAlgebra, *parts: Tuple[str, Sequence[Subspace]]):
    """Nonzero images of each part (op, slots): the operation ``op`` with
    slot p drawn from slots[p], enough to span them all.

    A slot holding the whole space takes unit vectors; the image of one
    fill of those slots with one row per other slot is the sum, over the
    arrangements t of stored keys that carry the fill (see
    ``_arrangement_table``), of the rows' coefficients at t times t's
    value.  Each other slot's rows are indexed by entry, so only the row
    tuples whose entries hit t are visited (Gustavson's row-indexed sparse
    product, ACM TOMS 4(3), 1978), and no image that must be zero is formed.
    A subspace in several slots or parts is indexed once."""
    d, indexes, images = P.dim, {}, {}
    for part, (op, slots) in enumerate(parts):
        whole, index = [], []
        for p, U in enumerate(slots):
            if U.ambient != d:
                raise ValueError("ambient dimension mismatch")
            if len(U.rows) == d:
                whole.append(p)
            else:
                index.append(indexes.get(id(U)) or indexes.setdefault(id(U), _row_index(U)))
        for fill, rest, sign, value in P._arrangement_table(op, tuple(whole)):
            hits = [idx.get(i) for idx, i in zip(index, rest)]
            if not all(hits):
                continue
            for combo in itertools.product(*hits):
                coeff = sign
                for _, c in combo:
                    coeff *= c
                rows = tuple(r for r, _ in combo)
                _sv_accum(images.setdefault((part, fill, rows), {}), value, coeff)
    return [w for w in images.values() if w]


def subspace_product(U: Subspace, V: Subspace, P: StructAlgebra) -> Subspace:
    """Span of u . v over basis vectors."""
    return Subspace.zero(P.dim).adjoin(_images(P, ("product", [U, V])))


def bracket_span(subspaces: Sequence[Subspace], P: StructAlgebra) -> Subspace:
    """Span of [u_1, ..., u_n] with slot p drawn from subspaces[p]."""
    if len(subspaces) != P.arity:
        raise ValueError("bracket_span needs one subspace per slot")
    return Subspace.zero(P.dim).adjoin(_images(P, ("bracket", subspaces)))


def full_space(P: StructAlgebra) -> Subspace:
    """P as one ``Subspace`` kept on P; its rows are shared and read-only."""
    P._full = P._full or Subspace.full(P.dim)
    return P._full


def is_subalgebra(U: Subspace, P: StructAlgebra) -> bool:
    return all(map(U.contains, _images(P, ("product", [U, U]), ("bracket", [U] * P.arity))))


def _ideal_images(P: StructAlgebra, U: Subspace, with_product: bool = True):
    """Images of [U, P, ..., P] and, with ``with_product``, of P.U."""
    whole = full_space(P)
    bracket = ("bracket", [U] + [whole] * (P.arity - 1))
    return _images(P, bracket, ("product", [whole, U])) if with_product else _images(P, bracket)


def is_ideal(U: Subspace, P: StructAlgebra) -> bool:
    """Ideal for both operations: P.U in U and [U, P, ..., P] in U."""
    return all(map(U.contains, _ideal_images(P, U)))


def ideal_closure(U: Subspace, P: StructAlgebra, with_product: bool = True) -> Subspace:
    """Smallest ideal containing U; with ``with_product`` False, the
    smallest ideal of the bracket alone.  By multilinearity each round
    needs the images of the rows the round before added, and no others
    (semi-naive evaluation): the RREF rows of the sum at the pivots the
    held ideal lacks are zero at its pivots, so with it they span the sum."""
    if U.ambient != P.dim:
        raise ValueError("ambient dimension mismatch")
    current, rows = Subspace.zero(P.dim), U.rows
    while True:
        grown = current.adjoin(rows)
        if grown.dim == current.dim:
            return current
        held = set(current.pivots)
        added = [(row, p) for p, row in zip(grown.pivots, grown.rows) if p not in held]
        current, rows = grown, _ideal_images(P, Subspace(P.dim, *zip(*added)), with_product)


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


def _step(P: StructAlgebra, kind: str, T: Subspace, I: Subspace) -> Subspace:
    """The term after T in the ``kind`` series of I, in one elimination:
    the steps listed in ``series`` and the bracket part of the derived
    step, ``bracket_derived``: T' = [T, T, P..P]."""
    n, other = P.arity, T if kind in ("derived", "bracket_derived") else I
    bracket = [T] + [I] * (n - 1) if kind == "subalg" else [T, other] + [full_space(P)] * (n - 2)
    parts = [] if kind == "assoc_power" else [("bracket", bracket)]
    if not kind.startswith("bracket"):
        parts.append(("product", [T, other]))
    return Subspace.zero(P.dim).adjoin(_images(P, *parts))


def _series_terms(I: Subspace, P: StructAlgebra, kind: str,
                  second: Optional[Subspace] = None) -> List[Subspace]:
    """The one descent loop: I, then each term's step, until a term is zero
    or equals the one before it; ``second``, when given, is I's step,
    already spanned.  Nothing is checked about I."""
    terms = [I]
    nxt = _step(P, kind, I, I) if second is None else second
    while nxt != terms[-1]:
        terms.append(nxt)
        if nxt.is_zero():
            break
        nxt = _step(P, kind, nxt, I)
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


def _second_terms(P: StructAlgebra) -> Dict[str, Subspace]:
    """The second term of each series of P itself by kind, from one set of
    images per operation: [P, ..., P], P.P and their sum P^2."""
    whole = full_space(P)
    products = list(_images(P, ("product", [whole, whole])))
    bracket = Subspace.zero(P.dim).adjoin(_images(P, ("bracket", [whole] * P.arity)))
    square = bracket.adjoin(products)
    return {"derived": square, "lower_central": square, "bracket_derived": bracket,
            "bracket_power": bracket, "assoc_power": Subspace.zero(P.dim).adjoin(products)}


def algebra_square(P: StructAlgebra) -> Subspace:
    """P^2 = [P, ..., P] + P.P (the second term of both canonical series)."""
    return _second_terms(P)["derived"]


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
    cross-check that nilpotency coincides with nilpotency of both parts.
    All five series start from one ``_second_terms``."""
    terms = {kind: _series_terms(full_space(P), P, kind, second)
             for kind, second in _second_terms(P).items()}
    zero = {kind: found[-1].is_zero() for kind, found in terms.items()}
    result = Classification(
        solvable=zero["derived"],
        solvability_index=len(terms["derived"]) if zero["derived"] else None,
        nilpotent=zero["lower_central"],
        nilpotency_index=len(terms["lower_central"]) if zero["lower_central"] else None,
        pa_nilpotent=zero["assoc_power"],
        pl_solvable=zero["bracket_derived"],
        pl_nilpotent=zero["bracket_power"],
    )
    if result.nilpotent != (result.pa_nilpotent and result.pl_nilpotent):
        raise InternalCheckError(
            "nilpotency must match joint nilpotency of both parts")
    return result


def engel_operators_nilpotent(P: StructAlgebra) -> Tuple[bool, Optional[tuple]]:
    """All basis left-multiplications and all increasing-tuple adjoints
    nilpotent (a zero one is)?  Returns a witness tag when one is not."""
    for (i,), columns in sorted(_basis_operators(P, "product").items()):
        if not is_nilpotent_matrix(_dense(columns, P.dim)):
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


def _adapted_basis(P: StructAlgebra, derived: Sequence[Subspace]) -> List[SVec]:
    """Basis ordered from the deepest layer of P's derived series outward
    (its first term, P, ends it with the unit vectors)."""
    collected: List[SVec] = []
    spanned = Subspace.zero(P.dim)
    for row in itertools.chain(*(term.rows for term in reversed(derived))):
        if not spanned.contains(row):
            collected.append(row)
            spanned = spanned.adjoin([row])
    return collected


def _greedy_ideal(P: StructAlgebra, start: Subspace, candidates: Sequence[SVec],
                  with_product: bool) -> Subspace:
    """The one greedy search, from ``start``, which holds P^2 (or, if not
    ``with_product``, [P, ..., P] and the search is for the bracket alone):
    adjoin each candidate that keeps the ideal nilpotent, in one sweep.
    Every subspace holding the start is an ideal (see ``nilradical``), so
    no candidate needs a closure.

    A second sweep could add nothing.  The current ideal only grows, so a
    candidate rejected against U would later be tried as V + row, which
    contains U + row, for some V containing U.  An ideal inside a nilpotent
    ideal is nilpotent, because each lower-central or bracket-power term of
    the smaller lies in the matching term of the larger; so V + row is not
    nilpotent either, and a rejected candidate stays rejected."""
    kind = "lower_central" if with_product else "bracket_power"
    if not _reaches_zero(start, P, kind):
        raise InternalCheckError("P^2 and its bracket part must be nilpotent for solvable P")
    current = start
    for row in candidates:
        if current.contains(row):
            continue
        grown = current.adjoin([row])
        if _reaches_zero(grown, P, kind):
            current = grown
    return current


def nilradical(P: StructAlgebra) -> Subspace:
    """Greedy maximal nilpotent ideal: start from P^2 (nilpotent for
    solvable P) and adjoin the adapted-basis vectors that keep the ideal
    nilpotent.  Certified maximal over that basis; always
    cross-checked against the bracket-only search from [P, ..., P].
    No search needs a closure: for any X, [X, P, ..., P] lies in
    [P, ..., P] and P.X in P.P, so every subspace holding P^2 is an ideal
    and every one holding [P, ..., P] a bracket ideal.  The derived series
    (for solvability and the adapted basis) and both starts come from one
    ``_second_terms``."""
    second = _second_terms(P)
    derived = _series_terms(full_space(P), P, "derived", second["derived"])
    if not derived[-1].is_zero():
        raise ValueError("nilradical computation expects a solvable algebra")
    candidates = _adapted_basis(P, derived)
    found = _greedy_ideal(P, second["derived"], candidates, True)
    if _greedy_ideal(P, second["bracket_power"], candidates, False) != found:
        raise InternalCheckError("nilradical must agree with the bracket-only nilradical")
    return found


# ---------------------------------------------------------------------------
# Common eigenvectors and the ideal flag
# ---------------------------------------------------------------------------

@dataclass
class CommonEigenvector:
    vector: tuple
    eigenvalues: Dict[tuple, Fraction]
    annihilated_by_products: bool = True


def _basis_operators(P: StructAlgebra, op: str = "bracket") -> Dict[tuple, Dict[int, SVec]]:
    """{xs: {j: e_xs op e_j}} over the basis tuples xs (n-1 entries for the
    bracket, one for the product) whose operator is nonzero, in one pass
    over the arrangements of the stored keys; a value is the stored vector
    or, for an odd arrangement, a negated copy, shared and read-only."""
    operators: Dict[tuple, Dict[int, SVec]] = {}
    for _, t, sign, value in P._arrangement_table(op, ()):
        operators.setdefault(t[:-1], {})[t[-1]] = value if sign > 0 else {
            i: -c for i, c in value.items()}
    return operators


def annihilator(P: StructAlgebra) -> Subspace:
    """{v : x . v = 0 for all x}; an ideal by the Leibniz rule."""
    rows = [{j: image[r] for j, image in columns.items() if r in image}
            for columns in _basis_operators(P, "product").values()
            for r in set().union(*columns.values())]
    return kernel(rows, P.dim)


def _adjoint_generators(P: StructAlgebra):
    """(tup, adjoint) per increasing tuple whose adjoint is nonzero, in order."""
    return ((tup, _dense(columns, P.dim)) for tup, columns in sorted(_basis_operators(P).items())
            if all(a < b for a, b in zip(tup, tup[1:])))


def _common_eigenspace(P: StructAlgebra) -> Optional[Tuple[Subspace, Dict[tuple, Fraction]]]:
    """``common_eigenvector``'s search: (eigenspace, eigenvalue by tuple).
    A zero adjoint (eigenvalue 0 only) cuts nothing and is not searched.
    P must be solvable; its callers test that once."""
    generators = dict(_adjoint_generators(P))
    operators = list(dict.fromkeys(generators.values()))
    spectra: Dict[int, List[Fraction]] = {}  # by position, filled on first visit

    def descend(space: Subspace, position: int, chosen: Dict[tuple, Fraction]):
        if space.is_zero():
            return None
        if position == len(operators):
            return space, dict(chosen)
        matrix = operators[position]
        if position not in spectra:
            spectra[position] = sorted(rational_eigenvalues(matrix),
                                       key=lambda lam: (lam != 0, lam))
        for lam in spectra[position]:
            cut = space.intersection(kernel(shift_diagonal(matrix, lam), P.dim))
            if cut.is_zero():
                continue
            chosen[matrix] = lam
            found = descend(cut, position + 1, chosen)
            if found is not None:
                return found
            del chosen[matrix]
        return None

    found = descend(annihilator(P), 0, {})
    if found is None:
        return None
    space, chosen = found
    return space, {tup: chosen[generators[tup]] if tup in generators else Fraction(0)
                   for tup in itertools.combinations(range(P.dim), P.arity - 1)}


def common_eigenvector(P: StructAlgebra) -> Optional[CommonEigenvector]:
    """A vector killed by every product and scaled by every adjoint.

    Searches the annihilator by iterated rational-eigenspace intersection
    over the distinct adjoint operators of the increasing-tuple generators;
    eigenvalue branches are explored with 0 first.  A repeated operator
    would find the space inside one of its eigenspaces already, so each is
    searched once and its eigenvalue given to every tuple carrying it.
    Returns None when no simultaneous eigenvector exists over Q (the
    rationals are not algebraically closed).  The vector is the first RREF
    row of the subspace found.
    """
    if not classify(P).solvable:
        raise ValueError("common eigenvector search expects a solvable algebra")
    found = _common_eigenspace(P)
    if found is None:
        return None
    return CommonEigenvector(sv_to_dense(found[0].rows[0], P.dim), found[1])


@dataclass(frozen=True)
class QuotientAlgebra:
    parent: StructAlgebra
    ideal: Subspace
    algebra: StructAlgebra
    kept: tuple  # parent basis indices representing the complement

    def project(self, vector: Sequence) -> tuple:
        residue = self.ideal.reduce(vector)
        return tuple(residue.get(j, 0) for j in self.kept)

    def lift(self, vector: Sequence) -> tuple:
        return sv_to_dense({j: _coeff(c) for c, j in zip(vector, self.kept)}, self.parent.dim)


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
                # the residue is zero at every pivot, so it lives on ``kept``
                residue = I.reduce(stored[key])
                if residue:
                    table[tuple(position[i] for i in key)] = {
                        position[j]: residue[j] for j in sorted(residue)}
        tables.append(table)
    brackets, products = tables
    algebra = StructAlgebra(len(kept), P.arity, brackets, products, skew=P.skew)
    return QuotientAlgebra(P, I, algebra, kept)


def solvable_flag(P: StructAlgebra) -> Optional[List[Subspace]]:
    """Chain of ideals 0 = F_0 < F_1 < ... < F_dim = P, dim F_i = i, built
    by repeatedly extracting common eigenvectors in quotients; None when a
    step has no rational eigenvector.  Solvability is tested once, on P:
    every quotient of a solvable algebra is solvable."""
    if not classify(P).solvable:
        raise ValueError("only solvable algebras carry a complete ideal flag")
    flag = [Subspace.zero(P.dim)]
    current = flag[0]
    while current.dim < P.dim:
        quo = quotient_algebra(P, current)
        found = _common_eigenspace(quo.algebra)
        if found is None:
            return None
        current = current.adjoin([{quo.kept[a]: c for a, c in found[0].rows[0].items()}])
        flag.append(current)
    return flag


# ---------------------------------------------------------------------------
# Eigenspace ideals, idempotents, extension structure
# ---------------------------------------------------------------------------

def generalized_eigenspace(P: StructAlgebra, a: SVec, eigenvalue) -> Subspace:
    """ker (L_a - lambda)^dim; always an ideal, asserted as a postcondition."""
    matrix = P.left_mult_matrix(a)
    space = kernel(mat_pow(shift_diagonal(matrix, eigenvalue), P.dim), P.dim)
    if not is_ideal(space, P):
        raise InternalCheckError("generalized eigenspaces must be ideals")
    return space


def bracket_center(P: StructAlgebra) -> Subspace:
    """{v : [v, x_2, ..., x_n] = 0 for all x}; the center of the bracket part."""
    rows = [row for _, matrix in _adjoint_generators(P) for row in matrix]
    return kernel(rows, P.dim)


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
        report["central_in_bracket"] = center.contains(e)
    return report


def _restrict(operator, U: Subspace):
    """Matrix of the linear map ``operator`` (on SVecs) restricted to U, in
    U's RREF coordinates."""
    cols = []
    for row in U.rows:
        image = operator(row)
        if not U.contains(image):
            raise ValueError("subspace is not invariant under the operator")
        cols.append(tuple(image.get(p, 0) for p in U.pivots))
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
    for index, x in enumerate(complement):
        x_sv = _sv(x)
        witness = None
        for tup in itertools.combinations(range(H.dim), P.arity - 2):
            ys = [x_sv] + [H.rows[i] for i in tup]
            restricted = _restrict(lambda v: P.bracket(ys + [v]), H)
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
    """If the adjoint of (x, m_1..m_{n-2}) is invertible on P^2 (an ideal
    already, see ``nilradical``), the whole product must vanish; verifies
    the hypothesis and, when it holds, the conclusion."""
    if len(ms) != P.arity - 2:
        raise ValueError("need n-2 companion elements")
    square = algebra_square(P)
    restricted = _restrict(lambda v: P.bracket([x, *ms, v]), square)
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
        brackets[(i,) + tail] = {i: 1}
    products = {(m - n + 1, m - n + 2): {dim - 1: 1}}
    P = StructAlgebra(dim, n, brackets, products)
    _require_verified(P, "fixture")
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
        brackets[tuple(sorted(members))] = {n - 3 + i: perm_sign(members)}
    P = StructAlgebra(dim, n, brackets, {})
    _require_verified(P, "fixture")
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
        sign = 1
        if piece[0] == "+":
            piece = piece[1:]
        elif piece[0] == "-":
            sign = -1
            piece = piece[1:]
        match = _TERM_RE.match(piece)
        if not match:
            raise ParseError(f"bad basis combination term {piece!r}", line_no, 1)
        try:
            coeff = Fraction(match.group(1)) if match.group(1) else 1
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {piece!r}", line_no, 1)
        index = int(match.group(2))
        if not 1 <= index <= dim:
            raise ParseError(f"basis index e{index} out of range", line_no, 1)
        _sv_accum(result, {index - 1: coeff}, sign)
    return result


def _parse_index(text: str, dim: int, what: str, line_no: int) -> int:
    """The 0-based index of a 1-based basis index in an entry's key."""
    text = text.strip()
    if not text.isdecimal() or not 1 <= int(text) <= dim:
        raise ParseError(f"{what} index {text!r} is not in 1..{dim}", line_no, 1)
    return int(text) - 1


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
            header[words[0]] = value = int(words[1])
            if value < (0 if words[0] == "dim" else 2):
                raise ParseError("need dim >= 0 and arity >= 2", line_no, 1)
            continue
        dim, arity = header["dim"], header["arity"]
        if dim is None or arity is None:
            raise ParseError("dim and arity must precede entries", line_no, 1)
        if line.startswith("bracket"):
            match = re.match(r"bracket\s*\[([\d,\s]+)\]\s*=\s*(.+)$", line)
            if not match:
                raise ParseError("bad bracket line", line_no, 1)
            key = tuple(_parse_index(p, dim, "bracket", line_no) for p in match.group(1).split(","))
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
            i, j = (_parse_index(match.group(k), dim, "product", line_no) for k in (1, 2))
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
