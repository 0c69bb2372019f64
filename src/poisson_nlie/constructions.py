"""Tensor and quotient constructions between Poisson and Poisson n-Lie algebras.

Implements the passage in both directions: tensoring a Poisson n-Lie
algebra with a commutative algebra, the binary tensor bracket of two
Poisson algebras, iterated nesting of a binary bracket into an n-ary one,
the quotient by the skew-defect ideal (recovering alternating brackets),
the Leibniz bracket on the (n-1)-fold tensor power, and the Poisson
algebra on its quotient by the symmetrized-bracket ideal.

Every constructor asserts the verification suite of its output; a
constructor returning an unverified algebra is treated as a defect.  No
such check samples: the tensor power's is decided on adjoint operators of L.

The work of each construction follows the stored entries of its inputs,
not every basis tuple: nestings, skew defects, adjoint images and the
tensor-power tables are grown from nonzero values.  A basis tensor of the
k-fold power sits at the index whose base-d digits, most significant
first, are its factors, as ``_kron`` builds it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .finite_algebra import (
    InternalCheckError,
    StructAlgebra,
    SVec,
    _bracket_with_vector,
    _fundamental_cases,
    _fundamental_holds,
    _sv_accum,
    ideal_closure,
    quotient_algebra,
    QuotientAlgebra,
    Subspace,
    sv_to_dense,
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


def _require_verified(P: StructAlgebra, label: str) -> None:
    report = verify_axioms(P)
    if not report.all_pass:
        raise InternalCheckError(f"{label} failed verification: {report}")


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
    words = [((j,), {j: Fraction(1)}) for j in factors]
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
    [x (x) y, u (x) v] = [x,u] (x) yv + xu (x) [y,v]."""
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
                                       P2.product_basis(ja, jb), width), Fraction(1))
                _sv_accum(value, _kron(P1.product_basis(ia, ib),
                                       P2.bracket_basis((ja, jb)), width), Fraction(1))
                if value:
                    brackets[(a, b)] = value
    algebra = StructAlgebra(dim, 2, brackets, products)
    _require_verified(algebra, "the binary tensor product")
    return TensorAlgebra(algebra, P1.dim, P2.dim)


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
    nestings: Dict[tuple, SVec] = {(j,): {j: Fraction(1)} for j in range(d)}
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


def skew_defect_spans(P: StructAlgebra) -> List[tuple]:
    """The distinct nonzero skew defects [.., x_i, .., x_j, ..] +
    [.., x_j, .., x_i, ..] over basis tuples and slot pairs, as dense
    vectors in sorted order.

    A defect is nonzero only when its tuple or the swapped one is stored,
    and both give the same vector, so only the stored keys are visited."""
    defects = set()
    n = P.arity
    for key, _ in P.bracket_entries():
        for a, b in itertools.combinations(range(n), 2):
            swapped = list(key)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            acc: SVec = {}
            _sv_accum(acc, P.bracket_basis(key), Fraction(1))
            _sv_accum(acc, P.bracket_basis(tuple(swapped)), Fraction(1))
            if acc:
                defects.add(tuple(sorted(acc.items())))
    return sorted(sv_to_dense(dict(items), P.dim) for items in defects)


def skew_defect_quotient(P: StructAlgebra) -> QuotientAlgebra:
    """Quotient by the two-operation ideal generated by all skew defects;
    the induced bracket is alternating and the result is verified."""
    defects = Subspace.from_vectors(P.dim, skew_defect_spans(P))
    ideal = ideal_closure(defects, P)
    quotient = quotient_algebra(P, ideal)
    report = verify_axioms(quotient.algebra)
    if not report.all_pass:
        raise InternalCheckError(f"skew-defect quotient failed verification: {report}")
    return quotient


def _adjoint_images(L: StructAlgebra) -> List[List[SVec]]:
    """images[a][j] = [x_1, ..., x_{n-1}, e_j] for the basis tensor
    x_1 (x) .. (x) x_{n-1} at index ``a`` of the (n-1)-fold tensor power,
    whose base-d digits, most significant first, are x_1 .. x_{n-1}.

    Entries may be L's own stored vectors: read them, never modify them."""
    d = L.dim
    return [[L.bracket_basis(xs + (j,)) for j in range(d)]
            for xs in itertools.product(range(d), repeat=L.arity - 1)]


def leibniz_tensor_functor(L: StructAlgebra, with_product: bool = False) -> StructAlgebra:
    """Binary Leibniz bracket on the (n-1)-fold tensor power:
    [x, y] = sum_i y_1 (x) .. (x) [x_1..x_{n-1}, y_i] (x) .. (x) y_{n-1}.

    With ``with_product`` the component-wise commutative product is
    installed as well.  The Leibniz identity is checked exhaustively, as
    [ad_x, ad_y] = ad_[x,y] on L for every basis pair (x, y) of the power
    that can make either side nonzero; nothing is sampled.
    """
    n = L.arity
    d = L.dim
    dim = d ** (n - 1)
    if dim > DIMENSION_BUDGET:
        raise DimensionBudgetError(f"tensor power dimension {dim} exceeds {DIMENSION_BUDGET}")

    images = _adjoint_images(L)
    live = [a for a in range(dim) if any(images[a])]
    # the digit y of slot s of b sits at place d^(n-2-s); replacing it by l
    # moves b to b + (l - y) * place
    places = [d ** (n - 2 - slot) for slot in range(n - 1)]
    brackets: Dict[tuple, SVec] = {}
    for a in live:
        for b in range(dim):
            acc: SVec = {}
            for place in places:
                y = b // place % d
                for l, c in images[a][y].items():
                    _sv_accum(acc, {b + (l - y) * place: c}, Fraction(1))
            if acc:
                brackets[(a, b)] = acc
    products: Dict[Tuple[int, int], SVec] = {}
    if with_product:
        # e_x . e_y is the tensor product of the slot products x_s . y_s, so
        # grow words of oriented stored pairs one slot at a time
        oriented = [(pair, v) for (i, j), v in L.product_entries()
                    for pair in dict.fromkeys([(i, j), (j, i)])]
        words = [(0, 0, {0: Fraction(1)})]
        for _ in range(n - 1):
            words = [(a * d + i, b * d + j, _kron(acc, v, d))
                     for a, b, acc in words for (i, j), v in oriented]
        products = dict(sorted(((a, b), acc) for a, b, acc in words if a <= b))
    result = StructAlgebra(dim, 2, brackets, products, skew=False)
    # Left Leibniz identity [x,[y,z]] = [[x,y],z] + [y,[x,z]].  [x, -] is the
    # derivation extension of ad_x, and that extension is an injective Lie
    # homomorphism End(L) -> End(L^(n-1)) over Q, so the identity holds
    # exactly when [ad_x, ad_y] = ad_[x,y] on L for every basis pair.  Both
    # sides vanish unless (x, y) is stored or both adjoints are nonzero.
    stored = dict(result.bracket_entries())
    for x, y in sorted(set(stored) | set(itertools.product(live, repeat=2))):
        value = stored.get((x, y), {})
        for j in range(d):
            lhs: SVec = {}  # ad_x ad_y e_j
            rhs: SVec = {}  # ad_y ad_x e_j + ad_[x,y] e_j
            for l, c in images[y][j].items():
                _sv_accum(lhs, images[x][l], c)
            for l, c in images[x][j].items():
                _sv_accum(rhs, images[y][l], c)
            for a, c in value.items():
                _sv_accum(rhs, images[a][j], c)
            if lhs != rhs:
                raise InternalCheckError(
                    f"tensor-power bracket lost the Leibniz identity at {(x, y)}")
    return result


def kernel_of_adjoint(L: StructAlgebra) -> Subspace:
    """Ker(ad) inside the (n-1)-fold tensor power: tensors acting trivially
    through [x_1, ..., x_{n-1}, -]."""
    n = L.arity
    d = L.dim
    dim = d ** (n - 1)
    rows = [[Fraction(0)] * dim for _ in range(d * d)]
    for a, row in enumerate(_adjoint_images(L)):
        for j, image in enumerate(row):
            for i, c in image.items():
                rows[i * d + j][a] = c
    return kernel(rows)


def poisson_quotient_tilde(P: StructAlgebra) -> QuotientAlgebra:
    """Poisson algebra on the tensor power modulo the two-operation ideal
    generated by the symmetrized brackets [x,y] + [y,x]; the generated
    ideal is asserted to lie inside Ker(ad)."""
    tilde = leibniz_tensor_functor(P, with_product=True)
    defects = Subspace.from_vectors(tilde.dim, skew_defect_spans(tilde))
    ker = kernel_of_adjoint(P)
    if not ker.contains_subspace(defects):
        raise InternalCheckError("symmetrized brackets must lie in Ker(ad)")
    ideal = ideal_closure(defects, tilde)
    quotient = quotient_algebra(tilde, ideal)
    report = verify_axioms(quotient.algebra)
    if not report.all_pass:
        raise InternalCheckError(f"tensor-power quotient failed verification: {report}")
    return quotient


# ---------------------------------------------------------------------------
# Verified instance generation
# ---------------------------------------------------------------------------

def unital_line() -> StructAlgebra:
    """The one-dimensional unital algebra with zero bracket (arity 2)."""
    return StructAlgebra(1, 2, {}, {(0, 0): {0: Fraction(1)}})


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
                products[(a, b)] = {total - offset: Fraction(1)}
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


def _seed_heisenberg(scale: Fraction) -> StructAlgebra:
    """dim 4, arity 3: [e2,e3,e4] = c e1 with e2.e2 = e1."""
    return StructAlgebra(4, 3,
                         {(1, 2, 3): {0: scale}},
                         {(1, 1): {0: Fraction(1)}})


def _seed_epsilon() -> StructAlgebra:
    """dim 4, arity 3: the alternating epsilon bracket, zero product."""
    return StructAlgebra(4, 3, {
        (0, 1, 2): {3: Fraction(1)},
        (0, 1, 3): {2: Fraction(-1)},
        (0, 2, 3): {1: Fraction(1)},
        (1, 2, 3): {0: Fraction(-1)},
    })


def _seed_line_bracket(scale: Fraction) -> StructAlgebra:
    """dim 3, arity 3: [e1,e2,e3] = c e1, zero product."""
    return StructAlgebra(3, 3, {(0, 1, 2): {0: scale}})


def random_poisson_n_lie(seed: int, max_dim: int = 6) -> Tuple[StructAlgebra, str]:
    """A seeded random verified Poisson 3-Lie algebra of dim <= max_dim,
    assembled from verified seeds, staircase commutative algebras, tensor
    products and direct sums so the axioms hold by construction; the
    verification suite is run and asserted anyway."""
    rng = random.Random(seed)
    scale = Fraction(rng.choice([-2, -1, 1, 2, 3]))
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
                       _seed_line_bracket(Fraction(rng.choice([1, 2]))))
        desc = "two line brackets"
    report = verify_axioms(P)
    if not report.all_pass:
        raise InternalCheckError(f"random instance failed verification: {report}")
    return P, desc
