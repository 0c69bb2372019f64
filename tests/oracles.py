"""Independent reference implementations that the tests compare against."""

import bisect
import itertools
from fractions import Fraction

from poisson_nlie.criterion import replace_position, signed_pi
from poisson_nlie.jacobian_bracket import perm_sign
from poisson_nlie.ring import DET_SIZE_CAP, DeterminantSizeError, LaurentPolynomial


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


def laplace_minors(rows) -> dict:
    """Every maximal minor of an N x k matrix by the column-by-column
    Laplace expansion of ``ring.maximal_minors``, in ``LaurentPolynomial``
    arithmetic with ``Fraction`` coefficients (the expansion before it moved
    to int terms): the reference for each minor's value, exponent bound,
    term order and overflow error."""
    entries = tuple(tuple(r) for r in rows)
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
                term = entry * minor
                key = subset[:p] + (r,) + subset[p:]
                cur = grown.get(key)
                if (p + col) % 2:
                    grown[key] = -term if cur is None else cur - term
                else:
                    grown[key] = term if cur is None else cur + term
        level = {key: minor for key, minor in grown.items() if minor}
    zero = LaurentPolynomial.zero(entries[0][0].nvars)
    return {subset: level.get(subset, zero)
            for subset in itertools.combinations(range(len(entries)), k)}


def mat_sub(a, b):
    """Entrywise difference of two dense matrices, as Fractions."""
    return tuple(tuple(Fraction(x) - Fraction(y) for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def greedy_ideal_resweep(start, candidates, closure, nilpotent):
    """The greedy ideal search of ``finite_algebra._greedy_ideal``, sweeping
    the candidates again until a pass adds none."""
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
