"""Independent reference implementations that the tests compare against."""

import bisect
import itertools
from fractions import Fraction

from poisson_nlie import criterion
from poisson_nlie.criterion import replace_position, signed_pi
from poisson_nlie.jacobian_bracket import perm_sign, pi_table
from poisson_nlie.finite_algebra import (
    Classification, bracket_span, quotient_algebra, subspace_product)
from poisson_nlie.subspaces import (
    Subspace, is_nilpotent_matrix, kernel, rational_eigenvalues, rref, shift_diagonal)
from poisson_nlie.ring import (
    DET_SIZE_CAP,
    EXPONENT_LIMIT,
    DerivationSpec,
    DeterminantSizeError,
    ExactDivisionError,
    ExponentOverflowError,
    LaurentPolynomial,
    _from_keys,
    _origin,
    _pack,
    _unpack,
    check_product_range,
    multiply_into,
)


def leibniz_det(rows):
    """Determinant of a square matrix of ring elements as the signed sum
    over permutations: sum_sigma sgn(sigma) prod_q rows[sigma(q)][q]."""
    nv = rows[0][0].nvars
    total = LaurentPolynomial.zero(nv)
    for images in itertools.permutations(range(len(rows))):
        term = LaurentPolynomial.one(nv)
        for q, image in enumerate(images):
            term = term * rows[image][q]
            if term.is_zero():
                break
        if term.is_zero():
            continue
        total = total + (term if perm_sign(images) > 0 else -term)
    return total


def leibniz_minors(rows):
    """Every maximal minor of an N x k matrix, keyed like
    ``ring.maximal_minors``: sorted 0-based row subsets."""
    k = len(rows[0])
    return {subset: leibniz_det([rows[r] for r in subset])
            for subset in itertools.combinations(range(len(rows)), k)}


# ---------------------------------------------------------------------------
# The ring on Fraction coefficients
# ---------------------------------------------------------------------------
#
# The ring operations as they ran when every coefficient was a Fraction: the
# same algorithms on the same packed keys, with the same exponent bounds and
# term order, each result built straight from its terms, so no integral
# coefficient is turned into an int.  The ring's own results must equal
# these in value, bound and term order.

def fraction_poly(p):
    """``p`` with every coefficient a Fraction; keys, order and bound kept."""
    return _from_keys(p.nvars, {k: Fraction(c) for k, c in p._terms.items()}, p._reach)


def f_constant(nvars, value):
    value = Fraction(value)
    return _from_keys(nvars, {_origin(nvars): value} if value else {}, 0)


def f_add(a, b):
    result = dict(a._terms)
    for key, coeff in b._terms.items():
        cur = result.get(key)
        result[key] = coeff if cur is None else cur + coeff
    return _from_keys(a.nvars, {k: c for k, c in result.items() if c}, max(a._reach, b._reach))


def f_neg(a):
    return _from_keys(a.nvars, {k: -c for k, c in a._terms.items()}, a._reach)


def f_sub(a, b):
    return f_add(a, f_neg(b))


def f_mul(a, b):
    """a * b for a polynomial or scalar b."""
    if isinstance(b, (int, Fraction)):
        b = Fraction(b)
        terms = {k: b * c for k, c in a._terms.items()} if b else {}
        return _from_keys(a.nvars, terms, a._reach if b else 0)
    if not a._terms or not b._terms:
        return _from_keys(a.nvars, {}, 0)
    check_product_range(a, b)
    result = {}
    multiply_into(result, a._terms, b._terms, a.nvars, 1)
    return _from_keys(a.nvars, {k: c for k, c in result.items() if c},
                      min(a._reach + b._reach, EXPONENT_LIMIT))


def f_pow(a, power):
    """a ** power by repeated squaring; a negative power inverts a monomial."""
    if power < 0:
        if len(a._terms) != 1:
            raise ExactDivisionError("only monomials are invertible in the Laurent ring")
        (key, coeff), = a._terms.items()
        return f_pow(_from_keys(a.nvars, {2 * _origin(a.nvars) - key: 1 / coeff}, a._reach),
                     -power)
    result, base = f_constant(a.nvars, 1), a
    while power:
        if power & 1:
            result = f_mul(result, base)
        power >>= 1
        if power:
            base = f_mul(base, base)
    return result


def f_apply(spec, p):
    """The derivation ``spec`` applied to ``p``, term by term on exponent
    tuples for the euler and partial kinds."""
    if spec.kind == "general":
        total = f_constant(p.nvars, 0)
        for j, cj in enumerate(spec.coeffs):
            if cj:
                part = f_apply(DerivationSpec.partial(j + 1, p.nvars), p)
                total = f_add(total, f_mul(fraction_poly(cj), part))
        return total
    partial = spec.kind == "partial"
    result = {}
    for key, c in p._terms.items():
        exps = list(_unpack(key, p.nvars))
        e = exps[spec.index - 1]
        if e:
            if partial:
                exps[spec.index - 1] -= 1
                if abs(e - 1) > EXPONENT_LIMIT:
                    raise ExponentOverflowError(f"exponent {e - 1} out of range")
            result[_pack(exps)] = Fraction(c) * e
    return _from_keys(p.nvars, result,
                      min(p._reach + 1, EXPONENT_LIMIT) if partial else p._reach)


def f_exact_divide(num, den):
    """num / den by graded-lex division in the box of ``ring.exact_divide``."""
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return _from_keys(num.nvars, {}, 0)
    v = num.nvars
    columns = [list(zip(*(_unpack(key, v) for key in p._terms))) for p in (num, den)]
    lo = [min(n) - min(d) for n, d in zip(*columns)]
    hi = [max(n) - max(d) for n, d in zip(*columns)]
    lt_d = max(den._terms)
    cd, ed = Fraction(den._terms[lt_d]), _unpack(lt_d, v)
    quotient = {}
    rem = {k: Fraction(c) for k, c in num._terms.items()}
    while rem:
        lt_r = max(rem)
        diff = tuple(r - d for r, d in zip(_unpack(lt_r, v), ed))
        if any(not low <= e <= high for e, low, high in zip(diff, lo, hi)):
            raise ExactDivisionError("polynomial division is not exact")
        factor = quotient[diff] = rem[lt_r] / cd
        for key, c in den._terms.items():
            key += lt_r - lt_d
            cur = rem.get(key, 0) - factor * c
            if cur:
                rem[key] = cur
            else:
                rem.pop(key, None)
    return _from_keys(v, {_pack(e): c for e, c in quotient.items()},
                      max(abs(x) for e in quotient for x in e))


def laplace_minors(rows) -> dict:
    """Every maximal minor of an N x k matrix by the column-by-column
    Laplace expansion of ``ring.maximal_minors``, in the Fraction arithmetic
    above (the expansion before it moved to int terms): the reference for
    each minor's value, exponent bound, term order and overflow error."""
    entries = tuple(tuple(fraction_poly(p) for p in r) for r in rows)
    k = len(entries[0]) if entries else 0
    if not 0 < k <= len(entries) or any(len(r) != k for r in entries):
        raise ValueError("maximal minors need an N x k matrix with N >= k >= 1")
    if k > DET_SIZE_CAP:
        raise DeterminantSizeError(f"matrix size {k} exceeds cap {DET_SIZE_CAP}")
    level = {(r,): row[0] for r, row in enumerate(entries) if row[0]}
    for col in range(1, k):
        grown = {}
        for subset, minor in level.items():
            for r, row in enumerate(entries):
                entry = row[col]
                if not entry or r in subset:
                    continue
                # r sits at position p of the grown subset, so its cofactor
                # sign in column ``col`` is (-1)^(p + col)
                p = bisect.bisect_left(subset, r)
                term = f_mul(entry, minor)
                key = subset[:p] + (r,) + subset[p:]
                cur = grown.get(key)
                if (p + col) % 2:
                    grown[key] = f_neg(term) if cur is None else f_sub(cur, term)
                else:
                    grown[key] = term if cur is None else f_add(cur, term)
        level = {key: minor for key, minor in grown.items() if minor}
    zero = f_constant(entries[0][0].nvars, 0)
    return {subset: level.get(subset, zero)
            for subset in itertools.combinations(range(len(entries)), k)}


def assert_scalar_rule(values):
    """Every value is stored by the package's scalar rule: an int when
    integral and a Fraction when not, never a bool, a float or an integral
    Fraction."""
    for c in values:
        assert type(c) is (int if c.denominator == 1 else Fraction), repr(c)


# ---------------------------------------------------------------------------
# Sparse elimination on Fraction entries
# ---------------------------------------------------------------------------

def _fraction_axpy(acc, sv, scale):
    for i, c in sv.items():
        value = acc.get(i, Fraction(0)) + scale * c
        if value:
            acc[i] = value
        else:
            acc.pop(i, None)


def fraction_rref(rows):
    """``subspaces.rref`` as it ran when every entry was a Fraction: the
    same sparse elimination, in the same order, on rows given as dicts or
    dense sequences, with each entry made and kept a Fraction."""
    echelon = {}
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        vec = {i: Fraction(c) for i, c in items if c}
        for p in [i for i in vec if i in echelon]:
            _fraction_axpy(vec, echelon[p], -vec[p])
        if not vec:
            continue
        pivot = min(vec)
        if vec[pivot] != 1:
            inv = 1 / vec[pivot]
            vec = {i: inv * c for i, c in vec.items()}
        for p, other in echelon.items():
            if pivot in other:
                other = dict(other)
                _fraction_axpy(other, vec, -other[pivot])
                echelon[p] = other
        echelon[pivot] = vec
    pivots = tuple(sorted(echelon))
    return tuple(echelon[p] for p in pivots), pivots


def adjoin_by_rref(U, rows):
    """``Subspace.adjoin`` as it ran before it eliminated only the new rows:
    one ``rref`` over the held rows and the new ones."""
    return Subspace(U.ambient, *rref(U.rows + tuple(rows)))


def mat_sub(a, b):
    """Entrywise difference of two dense matrices, as Fractions."""
    return tuple(tuple(Fraction(x) - Fraction(y) for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def greedy_ideal_resweep(start, candidates, closure, nilpotent):
    """The greedy ideal search of ``finite_algebra._greedy_ideal``, sweeping
    the candidates again until a pass adds none: ``closure`` maps a
    subspace to its closure and ``nilpotent`` decides an ideal."""
    current = start
    changed = True
    while changed:
        changed = False
        for row in candidates:
            if current.contains(row):
                continue
            grown = closure(current.adjoin([row]))
            if nilpotent(grown):
                current = grown
                changed = True
    return current


# ---------------------------------------------------------------------------
# Structure theory with one span per operation
# ---------------------------------------------------------------------------
#
# ``finite_algebra`` as it ran when each operation had its own span, summed
# afterwards, every closure round spanned the images of the whole current
# subspace, and each series was computed afresh wherever it was needed.

def bracket_basis_by_sign(P, idxs):
    """``StructAlgebra.bracket_basis`` as it ran before its lookups were
    kept: each call sorts the key and takes its ``perm_sign``."""
    key = tuple(idxs)
    if not P.skew:
        return P._bracket.get(key, {})
    value = P._bracket.get(tuple(sorted(key)))
    if not value:
        return {}
    if perm_sign(key) > 0:
        return value
    return {i: -c for i, c in value.items()}


def arrangement_table_by_permutations(P, op, whole):
    """``StructAlgebra._arrangement_table`` as it ran before the position
    layouts were cached: per stored key, every choice of entries for the
    whole slots and every order of the rest, with a ``perm_sign`` each; a
    square product key's repeated splits count once."""
    stored, n = (P._product, 2) if op == "product" else (P._bracket, P.arity)
    partial = tuple(p for p in range(n) if p not in whole)
    signed = op == "bracket" and P.skew
    order_sign = perm_sign(whole + partial)
    table = []
    for key, value in stored.items():
        if op == "bracket" and not P.skew:
            splits = [(tuple(key[p] for p in whole), tuple(key[p] for p in partial))]
        else:
            splits = dict.fromkeys(
                (tuple(key[i] for i in chosen), rest)
                for chosen in itertools.combinations(range(n), len(whole))
                for rest in itertools.permutations(
                    [key[i] for i in range(n) if i not in chosen]))
        for fill, rest in splits:
            sign = perm_sign(fill + rest) * order_sign if signed else 1
            table.append((fill, rest, sign, value))
    return table


def images_by_scan(P, *parts):
    """``finite_algebra._images`` by scanning: for each part (op, slots),
    ``op`` ("bracket" or "product") on every combination of RREF rows, one
    per slot."""
    if any(U.ambient != P.dim for _, slots in parts for U in slots):
        raise ValueError("ambient dimension mismatch")
    images = []
    for op, slots in parts:
        combos = itertools.product(*(U.rows for U in slots))
        if op == "product":
            images += [w for u, v in combos if (w := P.product(u, v))]
        else:
            images += [w for combo in combos if (w := P.bracket(list(combo)))]
    return images


def ideal_closure_by_rounds(U, P, with_product=True):
    """The smallest ideal containing U (of the bracket alone if not
    ``with_product``): each round sums U with the spans of [U, P, .., P]
    and P.U, until the dimension stops growing."""
    whole = Subspace.full(P.dim)
    current = U
    for _ in range(P.dim + 1):
        grown = current.sum(bracket_span([current] + [whole] * (P.arity - 1), P))
        if with_product:
            grown = grown.sum(subspace_product(whole, current, P))
        if grown.dim == current.dim:
            return current
        current = grown
    raise AssertionError("ideal closure failed to stabilize")


def _series_by_sums(I, step):
    """I, then each term's ``step``, until a term is zero or repeats."""
    terms = [I]
    while True:
        nxt = step(terms[-1])
        if nxt == terms[-1]:
            return terms
        terms.append(nxt)
        if nxt.is_zero():
            return terms


def nilpotent_by_sums(U, P, with_product=True):
    """Does the lower-central series of the ideal U (the bracket powers if
    not ``with_product``) reach zero?"""
    rest = [Subspace.full(P.dim)] * (P.arity - 2)

    def step(T):
        bracket = bracket_span([T, U] + rest, P)
        return bracket.sum(subspace_product(T, U, P)) if with_product else bracket
    return _series_by_sums(U, step)[-1].is_zero()


def classification_by_sums(P):
    """``finite_algebra.classify`` with each of its five series grown from P
    on its own, without the cross-check."""
    whole = Subspace.full(P.dim)
    rest = [whole] * (P.arity - 2)
    steps = {
        "derived": lambda T: bracket_span([T, T] + rest, P).sum(subspace_product(T, T, P)),
        "lower_central": lambda T: bracket_span([T, whole] + rest, P).sum(
            subspace_product(T, whole, P)),
        "assoc_power": lambda T: subspace_product(T, whole, P),
        "bracket_derived": lambda T: bracket_span([T, T] + rest, P),
        "bracket_power": lambda T: bracket_span([T, whole] + rest, P),
    }
    terms = {kind: _series_by_sums(whole, step) for kind, step in steps.items()}
    zero = {kind: found[-1].is_zero() for kind, found in terms.items()}
    return Classification(
        solvable=zero["derived"],
        solvability_index=len(terms["derived"]) if zero["derived"] else None,
        nilpotent=zero["lower_central"],
        nilpotency_index=len(terms["lower_central"]) if zero["lower_central"] else None,
        pa_nilpotent=zero["assoc_power"],
        pl_solvable=zero["bracket_derived"],
        pl_nilpotent=zero["bracket_power"])


def nilradical_by_rounds(P, with_product=True):
    """The greedy nilradical search (of the bracket alone if not
    ``with_product``): the derived series ordering the candidates, the
    closure of the start, each closure and each nilpotency test computed
    afresh, and the candidates swept until a pass adds none."""
    whole = Subspace.full(P.dim)
    rest = [whole] * (P.arity - 2)
    derived = _series_by_sums(whole, lambda T: bracket_span([T, T] + rest, P).sum(
        subspace_product(T, T, P)))
    if not derived[-1].is_zero():
        raise ValueError("nilradical computation expects a solvable algebra")
    candidates, spanned = [], Subspace.zero(P.dim)
    for row in itertools.chain(*(term.rows for term in reversed(derived))):
        if not spanned.contains(row):
            candidates.append(row)
            spanned = spanned.adjoin([row])
    start = bracket_span([whole] * P.arity, P)
    if with_product:
        start = start.sum(subspace_product(whole, whole, P))

    def closure(U):
        return ideal_closure_by_rounds(U, P, with_product)
    return greedy_ideal_resweep(closure(start), candidates, closure,
                                lambda U: nilpotent_by_sums(U, P, with_product))


# ---------------------------------------------------------------------------
# Basis operators by per-tuple lookups
# ---------------------------------------------------------------------------
#
# The eigen tools and the tensor power as they ran before the basis
# operators were read from the stored entries: every basis tuple looked up,
# zero operators included, and every operator a dense matrix.

def basis_operators_by_lookup(P, op="bracket"):
    """``finite_algebra._basis_operators`` by looking up every basis tuple:
    {xs: {j: e_xs op e_j}} over the xs whose operator is nonzero, each entry
    a ``bracket_basis`` or ``product_basis`` lookup."""
    operators = {}
    for t in itertools.product(range(P.dim), repeat=P.arity if op == "bracket" else 2):
        value = P.bracket_basis(t) if op == "bracket" else P.product_basis(*t)
        if value:
            operators.setdefault(t[:-1], {})[t[-1]] = value
    return operators


def adjoint_images_by_lookup(L):
    """The former ``constructions._adjoint_images``: images[a][j] =
    [x_1, ..., x_{n-1}, e_j] for the basis tensor x_1 (x) .. (x) x_{n-1} at
    index a of the (n-1)-fold tensor power, one ``bracket_basis`` lookup per
    basis tuple, zero or not."""
    d = L.dim
    return [[L.bracket_basis(xs + (j,)) for j in range(d)]
            for xs in itertools.product(range(d), repeat=L.arity - 1)]


def adjoint_generators_by_lookup(P):
    """The former ``finite_algebra._adjoint_generators``: (tup, dense
    ``adjoint_matrix``) for every increasing tuple, zero adjoints included."""
    for tup in itertools.combinations(range(P.dim), P.arity - 1):
        yield tup, P.adjoint_matrix([{i: 1} for i in tup])


def annihilator_by_lookup(P):
    """The kernel of every basis ``left_mult_matrix``, zero ones included."""
    return kernel([row for i in range(P.dim) for row in P.left_mult_matrix({i: 1})], P.dim)


def bracket_center_by_lookup(P):
    """The kernel of every increasing-tuple adjoint, zero ones included."""
    return kernel([row for _, matrix in adjoint_generators_by_lookup(P) for row in matrix],
                  P.dim)


def engel_by_lookup(P):
    """``engel_operators_nilpotent`` over every basis left multiplication and
    every increasing-tuple adjoint, zero ones included."""
    for i in range(P.dim):
        if not is_nilpotent_matrix(P.left_mult_matrix({i: 1})):
            return False, ("product", i)
    for tup, matrix in adjoint_generators_by_lookup(P):
        if not is_nilpotent_matrix(matrix):
            return False, ("bracket", tup)
    return True, None


def common_eigenspace_by_lookup(P):
    """The former ``finite_algebra._common_eigenspace``: the descent over the
    distinct dense adjoints of every increasing tuple, the zero adjoint
    searched like any other, from ``annihilator_by_lookup``."""
    generators = list(adjoint_generators_by_lookup(P))
    operators = list(dict.fromkeys(matrix for _, matrix in generators))
    spectra = {}

    def descend(space, position, chosen):
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

    found = descend(annihilator_by_lookup(P), 0, {})
    if found is None:
        return None
    space, chosen = found
    return space, {tup: chosen[matrix] for tup, matrix in generators}


def solvable_flag_by_lookup(P):
    """The former ``solvable_flag`` of a solvable P, each step searched by
    ``common_eigenspace_by_lookup``."""
    flag = [Subspace.zero(P.dim)]
    while flag[-1].dim < P.dim:
        quo = quotient_algebra(P, flag[-1])
        found = common_eigenspace_by_lookup(quo.algebra)
        if found is None:
            return None
        flag.append(flag[-1].adjoin([{quo.kept[a]: c for a, c in found[0].rows[0].items()}]))
    return flag


def kernel_of_adjoint_by_lookup(L):
    """The former ``constructions.kernel_of_adjoint``, from
    ``adjoint_images_by_lookup``."""
    d = L.dim
    rows = [{} for _ in range(d * d)]
    for a, row in enumerate(adjoint_images_by_lookup(L)):
        for j, image in enumerate(row):
            for i, c in image.items():
                rows[i * d + j][a] = c
    return kernel(rows, d ** (L.arity - 1))


def mat_vec(matrix, vector):
    """Matrix times column vector, as Fractions."""
    return tuple(sum((Fraction(a) * Fraction(x) for a, x in zip(row, vector)), Fraction(0))
                 for row in matrix)


def scale_matrix(c, dim):
    """c times the dim x dim identity, as Fractions."""
    c = Fraction(c)
    return tuple(tuple(c if i == j else Fraction(0) for j in range(dim)) for i in range(dim))


class OrderedPiReads:
    """The signed coefficients a literal evaluation reads, keyed by ordered
    tuple: ``value(tau)`` is sgn(tau) * pi^{set tau} (``signed_pi``) and
    ``get(r, tau)`` is d_r of it, both None when that is zero.  Entries are
    filled on first use."""

    def __init__(self, pi, family):
        self.pi = pi
        self.family = family
        self._values = {}
        self._derivatives = {}

    def value(self, tau):
        if tau not in self._values:
            entry = signed_pi(tau, self.pi)
            self._values[tau] = None if entry is None or entry.is_zero() else entry
        return self._values[tau]

    def get(self, r, tau):
        if (r, tau) not in self._derivatives:
            entry = self.value(tau)
            if entry is not None:
                entry = self.family[r - 1].apply(entry)
                if entry.is_zero():
                    entry = None
            self._derivatives[r, tau] = entry
        return self._derivatives[r, tau]


def _integrable_pi_first(A, pis, family):
    """The Frobenius pass before curls were read first: curl_j(r, s) is
    taken by ``apply`` on first use beside a nonzero pi^I, for constant
    entries too."""
    nvars = family.nvars
    components = criterion._frobenius_terms(A.n, A.m)
    for j in range(A.m):
        column = [row[j] for row in A.entries]
        curls = {}
        for component in components:
            total = LaurentPolynomial.zero(nvars)
            for r, s, sign, i in component:
                if pis[i].is_zero():
                    continue
                if (r, s) not in curls:
                    left = family[r - 1].apply(column[s - 1])
                    right = family[s - 1].apply(column[r - 1])
                    curls[r, s] = None if left == right else left - right
                if curls[r, s] is not None:
                    term = curls[r, s] * pis[i]
                    total = total + term if sign > 0 else total - term
            if not total.is_zero():
                return False
    return True


def check_criterion_pi_first(A, family, budget=criterion.DEFAULT_GROUP_BUDGET, matrix_desc=""):
    """``check_criterion`` in its pi-first order: the pi table first, then
    the constant-pi pass, then the Frobenius components, then the scan.
    The report has no phases and zero wall time."""
    if not isinstance(family, criterion.CertifiedDerivationFamily):
        raise TypeError("check_criterion requires a certified derivation family")
    if not family.assumptions_12:
        raise criterion.AssumptionsError(
            "the derivation preset is not certified for the separating "
            "assumptions; only the sampled identity check applies")
    if len(family) != A.n + A.m:
        raise ValueError("derivation family size must be n + m")
    counts = criterion.check_group_budget(A.n, A.m, budget)
    pi = pi_table(A)
    pis = [pi[S] for S in itertools.combinations(range(1, A.n + A.m + 1), A.n)]
    counterexample = None
    if any(key != _origin(family.nvars) for p in pis for key in p._terms):
        try:
            integrable = _integrable_pi_first(A, pis, family)
        except ExponentOverflowError:
            integrable = False
        if not integrable:
            counterexample = criterion._scan(A, family, pi)
    return criterion.CriterionReport(
        n=A.n, m=A.m, nvars=A.nvars, matrix_desc=matrix_desc,
        matrix_entries=[[criterion.format_polynomial(e) for e in row] for row in A.entries],
        verdict="pass" if counterexample is None else "fail",
        counts=counts, counterexample=counterexample, wall_time=0.0)


def literal_group_a(alpha, beta, A, reads):
    """The first-family group (alpha, beta), summed literally in ring
    arithmetic over ordered tuples; the substituted row runs over every row."""
    total = LaurentPolynomial.zero(A.nvars)
    lead_live = reads.value(alpha) is not None
    for r in range(1, A.n + A.m + 1):
        if lead_live:
            pu = reads.value((r,) + beta)
            if pu is not None:
                d = reads.get(r, alpha)
                if d is not None:
                    total = total + pu * d
        for k in range(1, len(alpha) + 1):
            pw = reads.value(replace_position(alpha, k, r))
            if pw is None:
                continue
            d = reads.get(r, (alpha[k - 1],) + beta)
            if d is not None:
                total = total - pw * d
    return total


def literal_group_b(alpha, pair, beta_rest, A, reads):
    """The second-family group (alpha, pair, beta_rest), summed literally over
    both orderings of the pair."""
    total = LaurentPolynomial.zero(A.nvars)
    orderings = [pair] if pair[0] == pair[1] else [pair, (pair[1], pair[0])]
    for k in range(1, len(alpha) + 1):
        for r1, r2 in orderings:
            pw = reads.value(replace_position(alpha, k, r1))
            if pw is None:
                continue
            pu = reads.value((alpha[k - 1], r2) + beta_rest)
            if pu is not None:
                total = total + pw * pu
    return total


def format_polynomial_oracle(p):
    """The canonical serialization as ``ring.format_polynomial`` wrote it
    before it read exponents from the packed keys: terms unpacked to
    exponent tuples and sorted graded-lex descending."""
    if p.is_zero():
        return "0"
    pieces = []
    for exps, coeff in sorted(p.terms(), key=lambda item: (sum(item[0]), item[0]), reverse=True):
        factors = []
        for j, e in enumerate(exps):
            if e == 0:
                continue
            factors.append(f"t{j + 1}" if e == 1 else f"t{j + 1}^{e}")
        magnitude = abs(coeff)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(magnitude)] + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    out = [body if sign == "+" else f"-{body}"]
    for sign, body in pieces[1:]:
        out.append(f" {sign} {body}")
    return "".join(out)


def random_expression(rng, nvars, depth=2):
    """A seeded text of the polynomial grammar with integer and p/q literals,
    variables, powers (negative ones of monomials only) and parentheses, and
    its value in the Fraction arithmetic above, taken in the order in which
    ``ring.parse_polynomial`` evaluates it."""
    texts, value = [], None
    for i in range(rng.randint(1, 3)):
        text, term = _random_term(rng, nvars, depth)
        if i == 0:
            if rng.random() < 0.3:
                text, term = "-" + text, f_neg(term)
            texts.append(text)
            value = term
        elif rng.random() < 0.5:
            texts.append(" + " + text)
            value = f_add(value, term)
        else:
            texts.append(" - " + text)
            value = f_sub(value, term)
    return "".join(texts), value


def _random_term(rng, nvars, depth):
    texts, value = [], None
    for _ in range(rng.randint(1, 3)):
        text, factor = _random_factor(rng, nvars, depth)
        texts.append(text)
        value = factor if value is None else f_mul(value, factor)
    return "*".join(texts), value


def _random_factor(rng, nvars, depth):
    kind = rng.choice(["int", "ratio", "var", "var", "paren"] if depth else ["int", "ratio", "var"])
    if kind == "int":
        numerator, denominator = rng.randint(0, 9), 1
        text = str(numerator)
    elif kind == "ratio":
        numerator, denominator = rng.randint(0, 9), rng.randint(1, 6)
        text = f"{numerator}/{denominator}"
    if kind in ("int", "ratio"):
        base = f_constant(nvars, Fraction(numerator, denominator))
        invertible = numerator != 0
    elif kind == "var":
        index = rng.randint(1, nvars)
        text = f"t{index}"
        base = _from_keys(nvars, {_pack([int(j == index) for j in range(1, nvars + 1)]): Fraction(1)},
                          1)
        invertible = True
    else:
        inner, base = random_expression(rng, nvars, depth - 1)
        text = f"({inner})"
        invertible = False
    if rng.random() < 0.4:
        power = rng.randint(-2, 3) if invertible else rng.randint(0, 2)
        return f"{text}^{power}", f_pow(base, power)
    return text, base
