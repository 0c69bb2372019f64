"""Exact rational linear algebra: RREF subspaces, kernels, eigen tools.

This module owns the sparse vector format, ``SVec = {index: Fraction}``
without zero entries, and its one axpy, ``_sv_accum``.  A ``Subspace``
stores its RREF basis as sparse rows sorted by pivot, so two subspaces are
equal iff their rows are; a sum, a kernel or an intersection comes out of
one sparse ``rref`` in that form.  Dense tuples appear only at the output
edge (``Subspace.basis``) and in operator matrices (``mat_*``,
``det_fraction``, ``char_poly``).  Nothing here ever rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

Vector = Tuple[Fraction, ...]
Matrix = Tuple[Vector, ...]
SVec = Dict[int, Fraction]

_F0 = Fraction(0)
_F1 = Fraction(1)


def _sv(values) -> SVec:
    """A new sparse vector from a dense sequence or a mapping: zeros are
    dropped, and entries that are not Fractions already are made so."""
    items = values.items() if isinstance(values, dict) else enumerate(values)
    return {i: c if type(c) is Fraction else Fraction(c) for i, c in items if c}


def _sv_accum(acc: SVec, sv: SVec, scale: Fraction):
    """acc += scale * sv, dropping the entries that cancel."""
    for i, c in sv.items():
        value = acc.get(i, _F0) + scale * c
        if value:
            acc[i] = value
        else:
            acc.pop(i, None)


def sv_to_dense(sv: SVec, dim: int) -> tuple:
    return tuple(sv.get(i, _F0) for i in range(dim))


def unit_vector(dim: int, index: int) -> Vector:
    return tuple(_F1 if j == index else _F0 for j in range(dim))


def rref(rows: Iterable) -> Tuple[Tuple[SVec, ...], Tuple[int, ...]]:
    """Reduced row echelon form of rows given as SVecs or dense sequences:
    (nonzero sparse rows sorted by pivot, pivot columns).  Each row is
    reduced by the kept rows (zero at one another's pivots, so one pass
    clears them), and a nonzero rest, scaled to a leading 1, is eliminated
    from them; kept rows are replaced, never modified."""
    echelon: Dict[int, SVec] = {}
    for row in rows:
        vec = _sv(row)
        for p in [i for i in vec if i in echelon]:
            _sv_accum(vec, echelon[p], -vec[p])
        if not vec:
            continue
        pivot = min(vec)
        if vec[pivot] != 1:
            inv = _F1 / vec[pivot]
            vec = {i: inv * c for i, c in vec.items()}
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
        return cls(ambient, tuple({j: _F1} for j in range(ambient)), tuple(range(ambient)))

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
        """The span of this subspace and the given sparse rows."""
        return Subspace(self.ambient, *rref(self.rows + tuple(rows)))

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
    null = {f: {f: _F1} for f in range(ncols) if f not in bound}
    for row, p in zip(reduced, pivots):
        for i, c in row.items():
            if i != p:  # a free column
                null[last - i][last - p] = -c
    return Subspace(ncols, tuple(null.values()), tuple(null))


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


def scale_matrix(c, dim: int) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c if i == j else _F0 for j in range(dim)) for i in range(dim))


def mat_pow(matrix: Sequence[Sequence], power: int) -> Matrix:
    dim = len(matrix)
    result = scale_matrix(1, dim)
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
