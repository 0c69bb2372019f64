"""The n-ary determinant bracket with m adjoined columns.

Given a certified family of n+m commuting derivations and a fixed
(n+m) x m matrix A of ring elements, the bracket of x_1..x_n is the
determinant of the (n+m) x (n+m) matrix whose first n columns are
d_r(x_q) and whose last m columns are A.  The same bracket expands as
sum_{|I|=n} pi^I Jac_I with signed complementary minors pi^I.  Every
minor on both routes comes from ``ring.maximal_minors``: the full route
takes the one maximal minor of [D | A], the expanded route the maximal
minors of A and of the derivative matrix D.  Their agreement therefore
certifies the sign ``complement_sign`` and the generalized Laplace
expansion, not the minor routine itself, which the tests check against
an independent permutation-sum oracle and sympy.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .ring import (
    CertifiedDerivationFamily,
    LaurentPolynomial,
    ParseError,
    det_ring,
    format_polynomial,
    maximal_minors,
    parse_polynomial,
)

IndexTuple = Tuple[int, ...]


def perm_sign(arrangement: Sequence[int]) -> int:
    """Sign of a tuple of distinct values relative to sorted order;
    0 when a value repeats."""
    n = len(arrangement)
    inversions = 0
    for a in range(n):
        for b in range(a + 1, n):
            if arrangement[a] == arrangement[b]:
                return 0
            if arrangement[a] > arrangement[b]:
                inversions += 1
    return -1 if inversions % 2 else 1


def complement(index_set: Sequence[int], size: int) -> IndexTuple:
    chosen = set(index_set)
    return tuple(i for i in range(1, size + 1) if i not in chosen)


def complement_sign(index_set: Sequence[int], n: int, m: int) -> int:
    """(-1)^{eps(I)}: parity of the block permutation (I, I^c ascending).

    Certified against the full-determinant expansion rather than trusted;
    equals (-1)^{sum(I) + n(n+1)/2}.
    """
    I = tuple(index_set)
    if len(I) != n or any(not 1 <= i <= n + m for i in I) or len(set(I)) != n:
        raise ValueError("invalid index tuple")
    exponent = sum(I) + n * (n + 1) // 2
    return -1 if exponent % 2 else 1


@dataclass(frozen=True)
class AdjoinedMatrix:
    """The fixed (n+m) x m matrix adjoined to the derivative columns."""

    n: int
    m: int
    nvars: int
    entries: tuple = ()  # (n+m) rows of m LaurentPolynomial entries

    def __post_init__(self):
        if self.n < 2 or self.m < 0:
            raise ValueError("need arity n >= 2 and m >= 0 adjoined columns")
        rows = self.entries
        if self.m == 0:
            if rows:
                raise ValueError("m = 0 admits no entries")
            return
        if len(rows) != self.n + self.m or any(len(r) != self.m for r in rows):
            raise ValueError("adjoined matrix must be (n+m) x m")
        for row in rows:
            for entry in row:
                if entry.nvars != self.nvars:
                    raise ValueError("entry variable count mismatch")

    @classmethod
    def from_rows(cls, n: int, m: int, rows: Sequence[Sequence[LaurentPolynomial]],
                  nvars: Optional[int] = None) -> "AdjoinedMatrix":
        rows = tuple(tuple(r) for r in rows)
        if nvars is None:
            if not rows or not rows[0]:
                raise ValueError("cannot infer the variable count from an empty matrix")
            nvars = rows[0][0].nvars
        return cls(n, m, nvars, rows)

    @classmethod
    def from_scalars(cls, n: int, m: int, rows: Sequence[Sequence], nvars: int) -> "AdjoinedMatrix":
        poly_rows = tuple(tuple(LaurentPolynomial.constant(nvars, v) for v in row)
                          for row in rows)
        return cls(n, m, nvars, poly_rows)

    @classmethod
    def empty(cls, n: int, nvars: int) -> "AdjoinedMatrix":
        return cls(n, 0, nvars, ())

    def serialize(self) -> str:
        lines = [f"{self.n} {self.m}"]
        for row in self.entries:
            lines.extend(format_polynomial(entry) for entry in row)
        return "\n".join(lines) + "\n"


def parse_adjoined_matrix(text: str, nvars: int) -> AdjoinedMatrix:
    """Read the matrix block format: a line "n m", then (n+m)*m polynomial
    expressions, one per line, row-major.  Blank lines and '#' comments
    are skipped."""
    lines = [(num + 1, line.split("#", 1)[0].strip())
             for num, line in enumerate(text.splitlines())]
    lines = [(num, line) for num, line in lines if line]
    if not lines:
        raise ParseError("empty matrix block", 1, 1)
    header_num, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or not all(re.fullmatch(r"-?\d+", p) for p in parts):
        raise ParseError("matrix header must be 'n m'", header_num, 1)
    n, m = int(parts[0]), int(parts[1])
    if n < 2 or m < 0:
        raise ParseError("matrix header needs n >= 2 and m >= 0", header_num, 1)
    body = lines[1:]
    if len(body) != (n + m) * m:
        raise ParseError(f"expected {(n + m) * m} entries, found {len(body)}",
                         body[-1][0] if body else header_num, 1)
    values = []
    for num, line in body:
        try:
            values.append(parse_polynomial(line, nvars))
        except ParseError as exc:
            raise ParseError(f"bad matrix entry: {exc}", num, exc.column) from exc
    # m = 0 has no rows of entries, whatever n is
    entries = tuple(tuple(values[r * m:(r + 1) * m]) for r in range(n + m)) if m else ()
    return AdjoinedMatrix(n, m, nvars, entries)


# ---------------------------------------------------------------------------
# Expansion coefficients and minors
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _pi_index(n: int, m: int) -> tuple:
    """(I, the 0-based rows of I^c, ``complement_sign(I)``) for each
    n-subset I of 1..n+m, in ``combinations`` order."""
    size = n + m
    return tuple((I, tuple(r - 1 for r in complement(I, size)), complement_sign(I, n, m))
                 for I in itertools.combinations(range(1, size + 1), n))


def pi_table(A: AdjoinedMatrix) -> dict:
    """All pi^I = (-1)^{eps(I)} det(A_{I^c}), keyed by sorted index tuple;
    all ones when m = 0."""
    index = _pi_index(A.n, A.m)
    if A.m == 0:
        return {I: LaurentPolynomial.one(A.nvars) for I, _, _ in index}
    minors = maximal_minors(A.entries)
    return {I: minors[rows] if sign > 0 else -minors[rows] for I, rows, sign in index}


# ---------------------------------------------------------------------------
# The bracket and its defects
# ---------------------------------------------------------------------------

def _validate(xs, A: AdjoinedMatrix, family: CertifiedDerivationFamily):
    if not isinstance(family, CertifiedDerivationFamily):
        raise TypeError("bracket evaluation requires a certified derivation family")
    if len(family) != A.n + A.m:
        raise ValueError(f"derivation family has {len(family)} members, need {A.n + A.m}")
    if len(xs) != A.n:
        raise ValueError(f"bracket arity is {A.n}, got {len(xs)} arguments")
    for x in xs:
        if x.nvars != family.nvars:
            raise ValueError("argument variable count mismatch")
    if A.nvars != family.nvars:
        raise ValueError("matrix variable count mismatch")


def bracket(xs: Sequence[LaurentPolynomial], A: AdjoinedMatrix,
            family: CertifiedDerivationFamily, method: str = "expanded",
            pi: Optional[dict] = None) -> LaurentPolynomial:
    """[x_1, ..., x_n]: full determinant or the pi-weighted expansion."""
    _validate(xs, A, family)
    if method == "full":
        rows = []
        for r in range(1, A.n + A.m + 1):
            row = [family[r - 1].apply(x) for x in xs]
            if A.m:
                row.extend(A.entries[r - 1])
            rows.append(row)
        return det_ring(rows)
    if method == "expanded":
        if pi is None:
            pi = pi_table(A)
        jac = maximal_minors([[d.apply(x) for x in xs] for d in family])
        total = LaurentPolynomial.zero(family.nvars)
        for I, coeff in pi.items():
            if coeff.is_zero():
                continue
            minor = jac[tuple(i - 1 for i in I)]
            if minor.is_zero():
                continue
            total = total + coeff * minor
        return total
    raise ValueError(f"unknown bracket method {method!r}")


def leibniz_defect(y: LaurentPolynomial, z: LaurentPolynomial,
                   xs: Sequence[LaurentPolynomial], A: AdjoinedMatrix,
                   family: CertifiedDerivationFamily,
                   pi: Optional[dict] = None) -> LaurentPolynomial:
    """[y*z, x_2..x_n] - y*[z, x_2..x_n] - z*[y, x_2..x_n]; identically 0
    because each bracket slot is a first-order differential operator."""
    if len(xs) != A.n - 1:
        raise ValueError("need n-1 companion arguments")
    if pi is None:
        pi = pi_table(A)
    rest = list(xs)
    return (bracket([y * z] + rest, A, family, pi=pi)
            - y * bracket([z] + rest, A, family, pi=pi)
            - z * bracket([y] + rest, A, family, pi=pi))


def fundamental_defect(xs: Sequence[LaurentPolynomial], ys: Sequence[LaurentPolynomial],
                       A: AdjoinedMatrix, family: CertifiedDerivationFamily,
                       pi: Optional[dict] = None) -> LaurentPolynomial:
    """[x_1..x_{n-1}, [y_1..y_n]] - sum_i [y_1.., [x.., y_i], .., y_n].

    Vanishing on all inputs is the n-Lie fundamental identity.
    """
    n = A.n
    if len(xs) != n - 1 or len(ys) != n:
        raise ValueError("fundamental identity needs n-1 outer and n inner arguments")
    if pi is None:
        pi = pi_table(A)
    inner = bracket(list(ys), A, family, pi=pi)
    total = bracket(list(xs) + [inner], A, family, pi=pi)
    for i in range(n):
        nested = bracket(list(xs) + [ys[i]], A, family, pi=pi)
        args = list(ys)
        args[i] = nested
        total = total - bracket(args, A, family, pi=pi)
    return total


# ---------------------------------------------------------------------------
# Deterministic sampling
# ---------------------------------------------------------------------------

@dataclass
class MonomialSampler:
    """Seeded draws from the monomial box [-radius, radius]^nvars plus
    small random binomials; identity checks report results as sampled,
    never proved."""

    nvars: int
    radius: int = 2
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self):
        self._rng = random.Random(self.seed)

    def exponents(self) -> tuple:
        return tuple(self._rng.randint(-self.radius, self.radius) for _ in range(self.nvars))

    def monomial(self) -> LaurentPolynomial:
        return LaurentPolynomial.monomial(self.nvars, self.exponents())

    def binomial(self) -> LaurentPolynomial:
        first = self.exponents()
        second = self.exponents()
        while second == first:
            second = self.exponents()
        coeff = self._rng.choice([-3, -2, -1, 1, 2, 3])
        return (LaurentPolynomial.monomial(self.nvars, first)
                + LaurentPolynomial.monomial(self.nvars, second, coeff))

    def monomials(self, count: int) -> List[LaurentPolynomial]:
        return [self.monomial() for _ in range(count)]

    def scalar(self) -> Fraction:
        return Fraction(self._rng.randint(-9, 9), self._rng.randint(1, 4))

    def scalar_matrix(self, n: int, m: int) -> AdjoinedMatrix:
        # m = 0 has no rows of entries, whatever n is
        rows = [[self.scalar() for _ in range(m)] for _ in range(n + m)] if m else []
        return AdjoinedMatrix.from_scalars(n, m, rows, self.nvars)

    def monomial_matrix(self, n: int, m: int) -> AdjoinedMatrix:
        rows = [[self.monomial() for _ in range(m)] for _ in range(n + m)] if m else []
        return AdjoinedMatrix.from_rows(n, m, rows, nvars=self.nvars)


def expansion_equivalence_check(n: int, m: int, family: CertifiedDerivationFamily,
                                samples: int = 200, seed: int = 0) -> dict:
    """Compare bracket(full) with bracket(expanded) on seeded monomial
    inputs under seeded scalar/monomial adjoined matrices.  Samples run
    serially."""
    sampler = MonomialSampler(family.nvars, seed=seed)
    first_mismatch = None
    for index in range(samples):
        A = sampler.scalar_matrix(n, m) if index % 2 == 0 else sampler.monomial_matrix(n, m)
        xs = sampler.monomials(n)
        if bracket(xs, A, family, method="full") != bracket(xs, A, family, method="expanded"):
            first_mismatch = index
            break
    return {
        "n": n,
        "m": m,
        "samples": samples,
        "seed": seed,
        "equal": first_mismatch is None,
        "first_mismatch": first_mismatch,
    }
