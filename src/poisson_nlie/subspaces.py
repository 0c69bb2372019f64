"""Exact rational linear algebra: RREF subspaces, kernels, eigen tools.

This module owns the sparse vector format, ``SVec = {index: scalar}``
without zero entries, and its one axpy, ``_sv_accum``.  Its entries, and
those of every dense vector it returns, follow the scalar rule stated in
``ring``: an int when integral, else a Fraction.  A ``Subspace``
stores its RREF basis as sparse rows sorted by pivot, so two subspaces are
equal iff their rows are; a sum, a kernel or an intersection comes out of
one sparse ``rref`` in that form.  Dense tuples appear only at the output
edge (``Subspace.basis``) and in operator matrices (``mat_pow``,
``det_fraction``, ``char_poly``); those three and ``rational_roots``
divide, and return Fractions.  Nothing here ever rounds.

Operator matrices have one integer-scaling step, ``_integer_scaled``: M
with entries in Q becomes B = D M, with D the lcm of the entry
denominators.  ``char_poly`` runs Berkowitz's division-free method on B
(about n^4/4 integer multiply-adds) and returns c_k = b_k / D^k;
``mat_pow`` multiplies B and returns B^p / D^p.  Both work on plain ints
and make Fractions only of their results.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .ring import Scalar, _cleaned, _coeff

Vector = Tuple[Scalar, ...]  # by the rule of ``ring``, as are SVec entries
Matrix = Tuple[Vector, ...]
SVec = Dict[int, Scalar]


def _sv(values) -> SVec:
    """A new sparse vector from a dense sequence or a mapping: zeros are
    dropped, an int entry is kept as it is and any other stored by
    ``ring._coeff``, so a bool or an integral Fraction becomes an int and a
    float raises."""
    items = values.items() if isinstance(values, dict) else enumerate(values)
    return {i: v for i, c in items if (v := c if type(c) is int else _coeff(c))}


def _sv_accum(acc: SVec, sv: SVec, scale: Scalar):
    """acc += scale * sv, dropping the entries that cancel and storing an
    integral result as an int; a unit scale makes no product."""
    unit = scale == 1
    for i, c in sv.items():
        value = acc.get(i, 0) + (c if unit else scale * c)
        if value:
            acc[i] = value.numerator if value.denominator == 1 else value
        else:
            acc.pop(i, None)


def sv_to_dense(sv: SVec, dim: int) -> tuple:
    return tuple(sv.get(i, 0) for i in range(dim))


def unit_vector(dim: int, index: int) -> Vector:
    return tuple(int(j == index) for j in range(dim))


def rref(rows: Iterable) -> Tuple[Tuple[SVec, ...], Tuple[int, ...]]:
    """Reduced row echelon form of rows given as SVecs or dense sequences:
    (nonzero sparse rows sorted by pivot, pivot columns)."""
    return _eliminate({}, rows)


def _eliminate(echelon: Dict[int, SVec],
               rows: Iterable) -> Tuple[Tuple[SVec, ...], Tuple[int, ...]]:
    """``rref`` of the rows of ``echelon`` ({pivot: row}, already in RREF)
    and ``rows``: each row is reduced by the kept rows (zero at one
    another's pivots, so one pass clears them), and a nonzero rest, scaled
    to a leading 1, is eliminated from them; kept rows are replaced, never
    modified, and ``echelon`` takes the result."""
    for row in rows:
        vec = _sv(row)
        for p in [i for i in vec if i in echelon]:
            _sv_accum(vec, echelon[p], -vec[p])
        if not vec:
            continue
        pivot = min(vec)
        if vec[pivot] != 1:
            inv = Fraction(1, vec[pivot])
            vec = _cleaned({i: inv * c for i, c in vec.items()})
        for p, other in echelon.items():
            if pivot in other:
                other = dict(other)
                _sv_accum(other, vec, -other[pivot])
                echelon[p] = other
        echelon[pivot] = vec
    pivots = tuple(sorted(echelon))
    return tuple(echelon[p] for p in pivots), pivots


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^ambient with a canonical RREF basis, stored as sparse
    rows sorted by pivot.  The rows are shared, never modified: read them."""

    ambient: int
    rows: Tuple[SVec, ...]
    pivots: Tuple[int, ...]

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Iterable[Sequence]) -> "Subspace":
        """The checked entry for dense input: lengths must match ``ambient``."""
        vectors = list(vectors)
        if any(len(vec) != ambient for vec in vectors):
            raise ValueError("vector length does not match ambient dimension")
        return cls(ambient, *rref(vectors))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, (), ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, tuple({j: 1} for j in range(ambient)), tuple(range(ambient)))

    @property
    def basis(self) -> Matrix:
        """The RREF basis as dense tuples, for output."""
        return tuple(sv_to_dense(row, self.ambient) for row in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def adjoin(self, rows: Iterable[SVec]) -> "Subspace":
        """The span of this subspace and the given sparse rows: only the
        new rows are eliminated, against the held ones."""
        return Subspace(self.ambient, *_eliminate(dict(zip(self.pivots, self.rows)), rows))

    def reduce(self, vector) -> SVec:
        """Residue of a vector (an SVec or a dense sequence) after
        eliminating all pivot coordinates, as an SVec."""
        vec = _sv(vector)
        for row, col in zip(self.rows, self.pivots):
            factor = vec.get(col)
            if factor:
                _sv_accum(vec, row, -factor)
        return vec

    def contains(self, vector) -> bool:
        return not self.reduce(vector)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return self.adjoin(other.rows)

    def intersection(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: RREF of [V|0; U|U]; zero-left rows give U cap V."""
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        d = self.ambient
        stacked = other.rows + tuple({**row, **{i + d: c for i, c in row.items()}}
                                     for row in self.rows)
        reduced, pivots = rref(stacked)
        k = sum(1 for p in pivots if p < d)  # zero-left rows come last, already in RREF
        return Subspace(d, tuple({i - d: c for i, c in row.items()} for row in reduced[k:]),
                        tuple(p - d for p in pivots[k:]))


def kernel(matrix: Iterable, ncols: int) -> Subspace:
    """{x in Q^ncols : Mx = 0} for M given as rows (SVecs or dense
    sequences), as its canonical RREF subspace; a matrix with no rows has
    the whole space as kernel.

    M's columns are eliminated from last to first, so the null vector of a
    free column f has its leading 1 at f, zeros at every other free column
    and entries only at later pivot columns: these vectors are the RREF
    basis as they stand, and the free columns are its pivots."""
    last = ncols - 1  # columns and pivots below are counted from the end
    reduced, pivots = rref({last - i: c for i, c in _sv(row).items()} for row in matrix)
    bound = {last - p for p in pivots}
    null = {f: {f: 1} for f in range(ncols) if f not in bound}
    for row, p in zip(reduced, pivots):
        for i, c in row.items():
            if i != p:  # a free column
                null[last - i][last - p] = -c
    return Subspace(ncols, tuple(null.values()), tuple(null))


def shift_diagonal(matrix: Sequence[Sequence], c) -> Matrix:
    """M - c I, with only the diagonal entries rebuilt, by ``ring._coeff``
    (so a float raises)."""
    c = _coeff(c)
    return tuple(tuple(row[:i]) + (_coeff(row[i] - c),) + tuple(row[i + 1:])
                 for i, row in enumerate(matrix))


def _integer_scaled(matrix: Sequence[Sequence]) -> Tuple[List[List[int]], int]:
    """(B, D) with D the lcm of the entry denominators of M and B = D M,
    an integer matrix given as lists of plain ints."""
    denom = math.lcm(*(v.denominator for row in matrix for v in row))
    return [[v.numerator * (denom // v.denominator) for v in row] for row in matrix], denom


def _int_mat_mul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    bt = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def mat_pow(matrix: Sequence[Sequence], power: int) -> Matrix:
    """M^p, computed as B^p / D^p on the integer matrix B = D M of
    ``_integer_scaled``: the products run on plain ints and only the
    result is converted back to Fractions."""
    b, denom = _integer_scaled(matrix)
    dim = len(b)
    result = [[int(i == j) for j in range(dim)] for i in range(dim)]
    scale = denom ** power
    while power:
        if power & 1:
            result = _int_mat_mul(result, b)
        power >>= 1
        if power:
            b = _int_mat_mul(b, b)
    return tuple(tuple(Fraction(v, scale) for v in row) for row in result)


def is_nilpotent_matrix(matrix: Sequence[Sequence]) -> bool:
    dim = len(matrix)
    if dim == 0:
        return True
    power = mat_pow(matrix, dim)
    return all(v == 0 for row in power for v in row)


def det_fraction(matrix: Sequence[Sequence]) -> Fraction:
    """Exact determinant over Q by Gaussian elimination, as a Fraction;
    entries are stored by ``ring._coeff``, so a float raises TypeError."""
    n = len(matrix)
    work = [[Fraction(_coeff(v)) for v in row] for row in matrix]
    if any(len(r) != n for r in work):
        raise ValueError("determinant of a non-square matrix")
    det = 1
    for k in range(n):
        pivot_row = None
        for r in range(k, n):
            if work[r][k]:
                pivot_row = r
                break
        if pivot_row is None:
            det = 0
            break
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            det = -det
        pivot = work[k][k]
        det *= pivot
        for r in range(k + 1, n):
            if work[r][k]:
                factor = work[r][k] / pivot
                work[r] = [a - factor * b for a, b in zip(work[r], work[k])]
    return Fraction(det)


def char_poly(matrix: Sequence[Sequence]) -> List[Fraction]:
    """Monic characteristic polynomial det(xI - M) by Berkowitz's
    division-free method (Inf. Process. Lett. 18, 1984).

    Returns the Fractions [1, c1, ..., cn] of x^n + c1 x^{n-1} + ... + cn.
    Berkowitz runs on the integer matrix B = D M of ``_integer_scaled``,
    whose coefficients are b_k = D^k c_k, so c_k = b_k / D^k.  Adding row
    and column r to the leading r x r block A multiplies the coefficient
    vector so far by the lower triangular Toeplitz matrix with first column
    (1, -a_rr, -R C, -R A C, ..., -R A^{r-1} C), where R and C are the new
    row and column: about n^4/4 integer multiply-adds in all, and no
    division until the last step.
    """
    b, denom = _integer_scaled(matrix)
    poly = [1]
    for r in range(len(b)):
        block = [row[:r] for row in b[:r]]
        new_row = b[r][:r]
        toeplitz = [1, -b[r][r]]
        vec = [row[r] for row in b[:r]]
        for k in range(r):
            if k:
                vec = [sum(map(operator.mul, row, vec)) for row in block]
            toeplitz.append(-sum(map(operator.mul, new_row, vec)))
        poly = [sum(toeplitz[j] * poly[k - j] for j in range(max(0, k - r), k + 1))
                for k in range(r + 2)]
    return [Fraction(c, denom ** k) for k, c in enumerate(poly)]


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


def rational_roots(coeffs: Sequence[Scalar]) -> List[Fraction]:
    """All rational roots, as Fractions, of the polynomial with the given
    coefficients (descending powers), each listed once."""
    coeffs = list(coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return []
    (ints,), _ = _integer_scaled([coeffs])
    roots = []
    trailing = 0
    while ints and ints[-1] == 0:
        ints = ints[:-1]
        trailing += 1
    if trailing:
        roots.append(Fraction(0))
    if len(ints) <= 1:
        return roots
    tails = _divisors(ints[-1])
    for q in _divisors(ints[0]):
        # p/q in lowest terms is a root iff sum_i c_i p^(d-i) q^i = 0
        weights = [c * q ** i for i, c in enumerate(ints)]
        for p in tails:
            if math.gcd(p, q) != 1:
                continue
            for num in (p, -p):
                value = 0
                for w in weights:
                    value = value * num + w
                if not value:
                    roots.append(Fraction(num, q))
    return sorted(roots)


def rational_eigenvalues(matrix: Sequence[Sequence]) -> List[Fraction]:
    return rational_roots(char_poly(matrix))
