"""Tensor and quotient constructions between Poisson and Poisson n-Lie algebras.

Implements the passage in both directions: tensoring a Poisson n-Lie
algebra with a commutative algebra, the binary tensor bracket of two
Poisson algebras, iterated nesting of a binary bracket into an n-ary one,
the quotient by the skew-defect ideal (recovering alternating brackets),
the Leibniz bracket on the (n-1)-fold tensor power, and the Poisson
algebra on its quotient by the symmetrized-bracket ideal.

Every constructor asserts the verification suite of its output, except
where a theorem certifies it from the verified inputs: ``xu_tensor`` (a
tensor product of Poisson algebras is Poisson) and the tensor power, whose
Leibniz identity is L's fundamental identity.  No check samples.

The work of each construction follows the stored entries of its inputs,
not every basis tuple: nestings, skew defects and the tensor-power tables
are grown from nonzero values, and the power and Ker(ad) read L's nonzero
adjoints from ``finite_algebra._basis_operators``.  A basis tensor of the
k-fold power sits at the index whose base-d digits, most significant
first, are its factors (``_power_index``), as ``_kron`` builds it.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .finite_algebra import (
    InternalCheckError,
    StructAlgebra,
    SVec,
    _basis_operators,
    _bracket_with_vector,
    _fundamental_cases,
    _fundamental_holds,
    _require_verified,
    _sv_accum,
    ideal_closure,
    quotient_algebra,
    QuotientAlgebra,
    Subspace,
    verify_axioms,
)
from .subspaces import kernel

DIMENSION_BUDGET = 512


class DimensionBudgetError(RuntimeError):
    """A tensor-power construction exceeded the configured dimension budget."""


@dataclass(frozen=True)
class TensorAlgebra:
    """Algebra on a tensor product with its factor bookkeeping."""

    algebra: StructAlgebra
    left_dim: int
    right_dim: int

    def index(self, i: int, j: int) -> int:
        return i * self.right_dim + j


def _require_commutative_associative(B: StructAlgebra, label: str):
    report = verify_axioms(B)
    if not (report.commutative and report.associative):
        raise ValueError(f"{label} must be commutative and associative: {report}")


def _kron(x_part: SVec, y_part: SVec, right_dim: int) -> SVec:
    """x (x) y, with e_l (x) f_s at index l * right_dim + s."""
    return {l * right_dim + s: cx * cy
            for l, cx in x_part.items() for s, cy in y_part.items()}


def tensor_poisson_n(P: StructAlgebra, B: StructAlgebra) -> TensorAlgebra:
    """P tensor B with component-wise product and bracket
    [x_1 (x) y_1, ...] = [x_1..x_n] (x) (y_1 ... y_n)."""
    if not P.skew:
        raise ValueError("the tensor construction expects an alternating bracket")
    _require_commutative_associative(B, "the second tensor factor")
    if any(True for _ in B.bracket_entries()):
        raise ValueError("the second tensor factor must have a zero bracket")
    _require_verified(P, "the first tensor factor")
    n = P.arity
    width = B.dim
    dim = P.dim * width
    if dim > DIMENSION_BUDGET:
        raise DimensionBudgetError(f"tensor dimension {dim} exceeds {DIMENSION_BUDGET}")

    # B-index words q of length n with a nonzero product f_q1 ... f_qn, grown
    # one factor at a time; a word can only use indices of product keys.
    factors = sorted({j for pair, _ in B.product_entries() for j in pair})
    words = [((j,), {j: 1}) for j in factors]
    for _ in range(n - 1):
        longer = []
        for q, acc in words:
            for j in factors:
                y_part: SVec = {}
                for s, c in acc.items():
                    _sv_accum(y_part, B.product_basis(s, j), c)
                if y_part:
                    longer.append((q + (j,), y_part))
        words = longer
    # e_k (x) f_q sits at k * width + q, so an increasing key stays increasing
    brackets = {tuple(k * width + j for k, j in zip(key, q)): _kron(x_part, y_part, width)
                for key, x_part in P.bracket_entries() for q, y_part in words}
    products = {}
    for (i1, i2), x_part in P.product_entries():
        for (j1, j2), y_part in B.product_entries():
            value = _kron(x_part, y_part, width)
            products[(i1 * width + j1, i2 * width + j2)] = value
            products[(i1 * width + j2, i2 * width + j1)] = value
    algebra = StructAlgebra(dim, n, brackets, products)
    _require_verified(algebra, "the tensor product")
    return TensorAlgebra(algebra, P.dim, B.dim)


def xu_tensor(P1: StructAlgebra, P2: StructAlgebra) -> TensorAlgebra:
    """Binary Poisson bracket on P1 tensor P2:
    [x (x) y, u (x) v] = [x,u] (x) yv + xu (x) [y,v].  Only the factors are
    verified: a tensor product of Poisson algebras is Poisson (Laurent-Gengoux,
    Pichereau and Vanhaecke, Poisson Structures, 2013, ch. 1)."""
    for label, P in (("left factor", P1), ("right factor", P2)):
        if P.arity != 2:
            raise ValueError(f"{label} must be binary")
        _require_verified(P, label)
    width = P2.dim
    dim = P1.dim * width
    if dim > DIMENSION_BUDGET:
        raise DimensionBudgetError(f"tensor dimension {dim} exceeds {DIMENSION_BUDGET}")
    brackets = {}
    products = {}
    for a in range(dim):
        ia, ja = divmod(a, width)
        for b in range(a, dim):
            ib, jb = divmod(b, width)
            prod = _kron(P1.product_basis(ia, ib), P2.product_basis(ja, jb), width)
            if prod:
                products[(a, b)] = prod
            if b > a:
                value: SVec = {}
                _sv_accum(value, _kron(P1.bracket_basis((ia, ib)),
                                       P2.product_basis(ja, jb), width), 1)
                _sv_accum(value, _kron(P1.product_basis(ia, ib),
                                       P2.bracket_basis((ja, jb)), width), 1)
                if value:
                    brackets[(a, b)] = value
    return TensorAlgebra(StructAlgebra(dim, 2, brackets, products), P1.dim, P2.dim)


def iterated_bracket(P2: StructAlgebra, n: int) -> StructAlgebra:
    """n-ary bracket [x_1, [x_2, [... [x_{n-1}, x_n]]]] from a binary one.

    The nestings are grown from the right, one leading index at a time, and
    only the nonzero ones are kept, so the work is d times the number of
    nonzero nestings.  The result is generally not alternating; the
    fundamental identity is verified exhaustively over the stored entries
    and asserted.
    """
    if P2.arity != 2:
        raise ValueError("iterated nesting starts from a binary bracket")
    if n < 2:
        raise ValueError("need n >= 2")
    d = P2.dim
    nestings: Dict[tuple, SVec] = {(j,): {j: 1} for j in range(d)}
    for _ in range(n - 1):
        grown: Dict[tuple, SVec] = {}
        for key, inner in nestings.items():
            for i in range(d):
                value = _bracket_with_vector(P2, (i,), inner, ())
                if value:
                    grown[(i,) + key] = value
        nestings = grown
    result = StructAlgebra(d, n, dict(sorted(nestings.items())),
                           dict(P2.product_entries()), skew=False)
    for xs, ys in _fundamental_cases(result):
        if not _fundamental_holds(result, xs, ys):
            raise InternalCheckError(
                f"iterated bracket lost the fundamental identity at {(xs, ys)}")
    return result


def skew_defect_spans(P: StructAlgebra) -> List[SVec]:
    """The distinct nonzero skew defects [.., x_i, .., x_j, ..] +
    [.., x_j, .., x_i, ..] over basis tuples and slot pairs, as sparse
    vectors sorted by their (index, coefficient) entries.

    A defect is nonzero only when its tuple or the swapped one is stored,
    and both give the same vector, so only the stored keys are visited."""
    defects = set()
    n = P.arity
    for key, _ in P.bracket_entries():
        for a, b in itertools.combinations(range(n), 2):
            swapped = list(key)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            acc: SVec = {}
            _sv_accum(acc, P.bracket_basis(key), 1)
            other = P.bracket_basis(tuple(swapped))
            if other:
                _sv_accum(acc, other, 1)
            if acc:
                defects.add(tuple(sorted(acc.items())))
    return [dict(items) for items in sorted(defects)]


def skew_defect_quotient(P: StructAlgebra) -> QuotientAlgebra:
    """Quotient by the two-operation ideal generated by all skew defects;
    the induced bracket is alternating and the result is verified."""
    defects = Subspace.zero(P.dim).adjoin(skew_defect_spans(P))
    ideal = ideal_closure(defects, P)
    quotient = quotient_algebra(P, ideal)
    _require_verified(quotient.algebra, "skew-defect quotient")
    return quotient


def _power_index(xs: tuple, d: int) -> int:
    """The index of the basis tensor x_1 (x) .. (x) x_k of the k-fold power:
    its base-d digits, most significant first, are x_1 .. x_k."""
    return sum(x * d ** (len(xs) - 1 - s) for s, x in enumerate(xs))


def leibniz_tensor_functor(L: StructAlgebra, with_product: bool = False) -> StructAlgebra:
    """Binary Leibniz bracket on the (n-1)-fold tensor power:
    [x, y] = sum_i y_1 (x) .. (x) [x_1..x_{n-1}, y_i] (x) .. (x) y_{n-1}.

    With ``with_product`` the component-wise commutative product is
    installed as well.  [x, -] is the derivation extension of ad_x, an
    injective Lie homomorphism End(L) -> End(L^(n-1)) over Q, so the left
    Leibniz identity holds on the power exactly when [ad_x, ad_y] = ad_[x,y]
    on L for every basis pair (x, y), which at e_z is L's fundamental
    identity at (x, y, z) (Daletskii and Takhtajan, Lett. Math. Phys. 39,
    1997).  So L's fundamental identity, checked over its cases alone,
    certifies the power, and a failing L, whose power fails too, is refused
    at the first failing pair (x, y) in sorted order, which its first
    failing case (xs, ys) names as (index(xs), index(ys[:-1])): the pair
    fails exactly when the identity fails at (xs, y + (z,)) for some z,
    index order is the lexicographic order of the digits, and the sorted
    cases hold every failure of raw storage, and for alternating storage,
    whose failures are closed under permuting xs and ys, the sorted ones.
    """
    n = L.arity
    d = L.dim
    dim = d ** (n - 1)
    if dim > DIMENSION_BUDGET:
        raise DimensionBudgetError(f"tensor power dimension {dim} exceeds {DIMENSION_BUDGET}")

    # the b whose slot digit at place p is y come in runs of p indices, one
    # every p * d; replacing the digit by l moves b to b + (l - y) * p.  Each
    # vector sums one column y per slot, slot by slot, in the formula's order
    places = [d ** (n - 2 - slot) for slot in range(n - 1)]
    brackets: Dict[tuple, SVec] = {}
    for xs, images in sorted(_basis_operators(L).items()):
        row: Dict[int, SVec] = defaultdict(dict)
        for place in places:
            for y, image in images.items():
                shifted = [((l - y) * place, c) for l, c in image.items()]
                for start in range(y * place, dim, place * d):
                    for b in range(start, start + place):
                        acc = row[b]
                        for s, c in shifted:
                            k = b + s
                            value = acc[k] + c if k in acc else c
                            if value:
                                acc[k] = value
                            else:
                                del acc[k]
        a = _power_index(xs, d)
        brackets.update(((a, b), row[b]) for b in sorted(row) if row[b])
    products: Dict[Tuple[int, int], SVec] = {}
    if with_product:
        # e_x . e_y is the tensor product of the slot products x_s . y_s, so
        # grow words of oriented stored pairs one slot at a time
        oriented = [(pair, v) for (i, j), v in L.product_entries()
                    for pair in dict.fromkeys([(i, j), (j, i)])]
        words = [(0, 0, {0: 1})]
        for _ in range(n - 1):
            words = [(a * d + i, b * d + j, _kron(acc, v, d))
                     for a, b, acc in words for (i, j), v in oriented]
        products = dict(sorted(((a, b), acc) for a, b, acc in words if a <= b))
    result = StructAlgebra(dim, 2, brackets, products, skew=False)
    failed = next((case for case in _fundamental_cases(L)
                   if not _fundamental_holds(L, *case)), None)
    if failed is None:
        return result
    x, y = (_power_index(xs, d) for xs in (failed[0], failed[1][:-1]))
    raise InternalCheckError(f"tensor-power bracket lost the Leibniz identity at {(x, y)}")


def kernel_of_adjoint(L: StructAlgebra) -> Subspace:
    """Ker(ad) inside the (n-1)-fold tensor power: tensors acting trivially
    through [x_1, ..., x_{n-1}, -]."""
    n = L.arity
    d = L.dim
    dim = d ** (n - 1)
    rows: List[SVec] = [{} for _ in range(d * d)]
    for xs, images in sorted(_basis_operators(L).items()):
        a = _power_index(xs, d)
        for j, image in images.items():
            for i, c in image.items():
                rows[i * d + j][a] = c
    return kernel(rows, dim)


def poisson_quotient_tilde(P: StructAlgebra) -> QuotientAlgebra:
    """Poisson algebra on the tensor power modulo the two-operation ideal
    generated by the symmetrized brackets [x,y] + [y,x]; the generated
    ideal is asserted to lie inside Ker(ad)."""
    tilde = leibniz_tensor_functor(P, with_product=True)
    defects = Subspace.zero(tilde.dim).adjoin(skew_defect_spans(tilde))
    ker = kernel_of_adjoint(P)
    if not ker.contains_subspace(defects):
        raise InternalCheckError("symmetrized brackets must lie in Ker(ad)")
    ideal = ideal_closure(defects, tilde)
    quotient = quotient_algebra(tilde, ideal)
    _require_verified(quotient.algebra, "tensor-power quotient")
    return quotient


# ---------------------------------------------------------------------------
# Verified instance generation
# ---------------------------------------------------------------------------

def unital_line() -> StructAlgebra:
    """The one-dimensional unital algebra with zero bracket (arity 2)."""
    return StructAlgebra(1, 2, {}, {(0, 0): {0: 1}})


def truncated_power_algebra(k: int, unital: bool = False) -> StructAlgebra:
    """Commutative associative truncation of a univariate polynomial ring:
    basis x^1..x^k (or x^0..x^k with the unit), products truncated to 0."""
    if k < 1:
        raise ValueError("need at least one power")
    offset = 0 if unital else 1
    dim = k + 1 - offset
    products = {}
    for a in range(dim):
        for b in range(a, dim):
            total = (a + offset) + (b + offset)
            if total <= k:
                products[(a, b)] = {total - offset: 1}
    return StructAlgebra(dim, 2, {}, products)


def direct_sum(P1: StructAlgebra, P2: StructAlgebra) -> StructAlgebra:
    if P1.arity != P2.arity or not (P1.skew and P2.skew):
        raise ValueError("direct sums need matching arities and skew storage")
    shift = P1.dim
    brackets = {key: dict(val) for key, val in P1.bracket_entries()}
    for key, val in P2.bracket_entries():
        brackets[tuple(i + shift for i in key)] = {l + shift: c for l, c in val.items()}
    products = {key: dict(val) for key, val in P1.product_entries()}
    for (i, j), val in P2.product_entries():
        products[(i + shift, j + shift)] = {l + shift: c for l, c in val.items()}
    return StructAlgebra(P1.dim + P2.dim, P1.arity, brackets, products)


def _seed_heisenberg(scale: int) -> StructAlgebra:
    """dim 4, arity 3: [e2,e3,e4] = c e1 with e2.e2 = e1."""
    return StructAlgebra(4, 3,
                         {(1, 2, 3): {0: scale}},
                         {(1, 1): {0: 1}})


def _seed_epsilon() -> StructAlgebra:
    """dim 4, arity 3: the alternating epsilon bracket, zero product."""
    return StructAlgebra(4, 3, {
        (0, 1, 2): {3: 1},
        (0, 1, 3): {2: -1},
        (0, 2, 3): {1: 1},
        (1, 2, 3): {0: -1},
    })


def _seed_line_bracket(scale: int) -> StructAlgebra:
    """dim 3, arity 3: [e1,e2,e3] = c e1, zero product."""
    return StructAlgebra(3, 3, {(0, 1, 2): {0: scale}})


def random_poisson_n_lie(seed: int, max_dim: int = 6) -> Tuple[StructAlgebra, str]:
    """A seeded random verified Poisson 3-Lie algebra of dim <= max_dim,
    assembled from verified seeds, staircase commutative algebras, tensor
    products and direct sums so the axioms hold by construction; the
    verification suite is run and asserted anyway."""
    rng = random.Random(seed)
    scale = rng.choice([-2, -1, 1, 2, 3])
    recipe = rng.randrange(6)
    if recipe == 0:
        k = rng.randint(1, max_dim - 1)
        P = StructAlgebra(truncated_power_algebra(k).dim, 3, {},
                          dict(truncated_power_algebra(k).product_entries()))
        desc = f"abelian bracket over truncated power algebra k={k}"
    elif recipe == 1:
        P = _seed_heisenberg(scale)
        desc = f"heisenberg-type dim 4, scale {scale}"
    elif recipe == 2:
        P = _seed_epsilon()
        desc = "epsilon bracket dim 4"
    elif recipe == 3:
        base = _seed_line_bracket(scale)
        width = rng.randint(1, max_dim // 3)
        B = truncated_power_algebra(width, unital=rng.random() < 0.5)
        B3 = StructAlgebra(B.dim, 3, {}, dict(B.product_entries()))
        if base.dim * B.dim <= max_dim:
            P = tensor_poisson_n(base, B3).algebra
            desc = f"line bracket (x) truncated algebra width={width}"
        else:
            P = base
            desc = f"line bracket dim 3, scale {scale}"
    elif recipe == 4:
        left = _seed_line_bracket(scale)
        tail = truncated_power_algebra(rng.randint(1, 3))
        right = StructAlgebra(tail.dim, 3, {}, dict(tail.product_entries()))
        if left.dim + right.dim <= max_dim:
            P = direct_sum(left, right)
            desc = "line bracket (+) truncated algebra"
        else:
            P = left
            desc = "line bracket dim 3"
    else:
        P = direct_sum(_seed_line_bracket(scale),
                       _seed_line_bracket(rng.choice([1, 2])))
        desc = "two line brackets"
    _require_verified(P, "random instance")
    return P, desc
