"""Exact rational linear algebra: RREF subspaces, kernels, eigen tools.

Subspaces are stored in reduced row-echelon form over ``Fraction``, so two
subspaces are equal iff their basis matrices are equal.  A kernel or an
intersection comes out of one elimination already in that form.  Everything
is exact; nothing here ever rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

Vector = Tuple[Fraction, ...]
Matrix = Tuple[Vector, ...]

_F0 = Fraction(0)
_F1 = Fraction(1)


def unit_vector(dim: int, index: int) -> Vector:
    return tuple(_F1 if j == index else _F0 for j in range(dim))


def rref(rows: Iterable[Sequence]) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(Fraction(v) for v in row) for row in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(work)):
            if work[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [inv * v for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return tuple(tuple(row) for row in work[:rank]), tuple(pivots)


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^ambient with a canonical RREF basis."""

    ambient: int
    basis: Matrix
    pivots: Tuple[int, ...]

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Iterable[Sequence]) -> "Subspace":
        vectors = [tuple(Fraction(v) for v in vec) for vec in vectors]
        for vec in vectors:
            if len(vec) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        basis, pivots = rref(vectors)
        return cls(ambient, basis, pivots)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, (), ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, identity_matrix(ambient), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def reduce(self, vector: Sequence) -> Vector:
        """Residue of a vector after eliminating all pivot coordinates."""
        vec = list(Fraction(v) for v in vector)
        for row, col in zip(self.basis, self.pivots):
            factor = vec[col]
            if factor:
                for j in range(self.ambient):
                    vec[j] -= factor * row[j]
        return tuple(vec)

    def contains(self, vector: Sequence) -> bool:
        return all(v == 0 for v in self.reduce(vector))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis)

    def __le__(self, other: "Subspace") -> bool:
        return other.contains_subspace(self)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_vectors(self.ambient, list(self.basis) + list(other.basis))

    def intersection(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: RREF of [U|U; V|0]; zero-left rows give U cap V."""
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        d = self.ambient
        stacked = [list(row) + list(row) for row in self.basis]
        stacked += [list(row) + [_F0] * d for row in other.basis]
        reduced, pivots = rref(stacked)
        k = sum(1 for p in pivots if p < d)  # zero-left rows come last, already in RREF
        return Subspace(d, tuple(row[d:] for row in reduced[k:]), tuple(p - d for p in pivots[k:]))


def kernel(matrix: Sequence[Sequence]) -> Subspace:
    """{x : Mx = 0} for M given as rows, as its canonical RREF subspace.

    M's columns are eliminated from last to first, so the null vector of a
    free column f has its leading 1 at f, zeros at every other free column
    and entries only at later pivot columns: these vectors are the RREF
    basis as they stand, and the free columns are its pivots."""
    if not matrix:
        raise ValueError("kernel of an empty matrix is ambiguous")
    ncols = len(matrix[0])
    last = ncols - 1
    reduced, pivots = rref(row[::-1] for row in matrix)  # pivots counted from the end
    free = tuple(c for c in range(ncols) if last - c not in pivots)
    basis = []
    for f in free:
        vec = [_F0] * ncols
        vec[f] = _F1
        for row, p in zip(reduced, pivots):
            vec[last - p] = -row[last - f]
        basis.append(tuple(vec))
    return Subspace(ncols, tuple(basis), free)


def mat_vec(matrix: Sequence[Sequence], vector: Sequence) -> Vector:
    return tuple(sum((Fraction(a) * Fraction(x) for a, x in zip(row, vector)), _F0)
                 for row in matrix)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    bt = list(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), _F0) for col in bt)
                 for row in a)


def mat_sub(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) - Fraction(y) for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def identity_matrix(dim: int) -> Matrix:
    return tuple(unit_vector(dim, j) for j in range(dim))


def scale_matrix(c, dim: int) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c if i == j else _F0 for j in range(dim)) for i in range(dim))


def mat_pow(matrix: Sequence[Sequence], power: int) -> Matrix:
    dim = len(matrix)
    result = identity_matrix(dim)
    base = tuple(tuple(Fraction(v) for v in row) for row in matrix)
    while power:
        if power & 1:
            result = mat_mul(result, base)
        power >>= 1
        if power:
            base = mat_mul(base, base)
    return result


def is_nilpotent_matrix(matrix: Sequence[Sequence]) -> bool:
    dim = len(matrix)
    if dim == 0:
        return True
    power = mat_pow(matrix, dim)
    return all(v == 0 for row in power for v in row)


def det_fraction(matrix: Sequence[Sequence]) -> Fraction:
    """Exact determinant over Q by Gaussian elimination."""
    n = len(matrix)
    if n == 0:
        return _F1
    work = [list(Fraction(v) for v in row) for row in matrix]
    if any(len(r) != n for r in work):
        raise ValueError("determinant of a non-square matrix")
    det = _F1
    for k in range(n):
        pivot_row = None
        for r in range(k, n):
            if work[r][k]:
                pivot_row = r
                break
        if pivot_row is None:
            return _F0
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            det = -det
        pivot = work[k][k]
        det *= pivot
        for r in range(k + 1, n):
            if work[r][k]:
                factor = work[r][k] / pivot
                work[r] = [a - factor * b for a, b in zip(work[r], work[k])]
    return det


def trace(matrix: Sequence[Sequence]) -> Fraction:
    return sum((Fraction(matrix[i][i]) for i in range(len(matrix))), _F0)


def char_poly(matrix: Sequence[Sequence]) -> List[Fraction]:
    """Monic characteristic polynomial by Faddeev-LeVerrier.

    Returns coefficients [1, c1, ..., cn] of x^n + c1 x^{n-1} + ... + cn.
    """
    n = len(matrix)
    m = tuple(tuple(Fraction(v) for v in row) for row in matrix)
    coeffs = [_F1]
    aux = m
    for k in range(1, n + 1):
        ck = -trace(aux) / k
        coeffs.append(ck)
        if k < n:
            shifted = tuple(tuple(aux[i][j] + (ck if i == j else _F0)
                                  for j in range(n)) for i in range(n))
            aux = mat_mul(m, shifted)
    return coeffs


def _divisors(value: int) -> List[int]:
    value = abs(value)
    small, large = [], []
    d = 1
    while d * d <= value:
        if value % d == 0:
            small.append(d)
            if d != value // d:
                large.append(value // d)
        d += 1
    return small + large[::-1]


def rational_roots(coeffs: Sequence[Fraction]) -> List[Fraction]:
    """All rational roots of the polynomial with the given coefficients
    (descending powers), each listed once."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    if not coeffs or len(coeffs) == 1:
        return []
    denom_lcm = 1
    for c in coeffs:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in coeffs]
    roots = []
    trailing = 0
    while ints and ints[-1] == 0:
        ints = ints[:-1]
        trailing += 1
    if trailing:
        roots.append(_F0)
    if len(ints) <= 1:
        return roots
    lead, tail = ints[0], ints[-1]
    seen = set(roots)
    for p in _divisors(tail):
        for q in _divisors(lead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in seen:
                    continue
                value = Fraction(0)
                for c in ints:
                    value = value * cand + c
                if value == 0:
                    seen.add(cand)
                    roots.append(cand)
    return sorted(roots)


def rational_eigenvalues(matrix: Sequence[Sequence]) -> List[Fraction]:
    return rational_roots(char_poly(matrix))
