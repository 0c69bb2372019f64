"""Sparse multivariate Laurent polynomials over exact rationals.

The ring substrate: polynomials are finite maps from signed exponent
vectors to nonzero coefficients, so equality of term maps is equality of
ring elements and no rounding can ever occur.

Every exact scalar the package stores (ring coefficients, the entries of
sparse vectors, structure constants and operator matrices) follows one
rule: an ``int`` when integral and else a ``Fraction``, never a ``bool``
or a ``float``.  ``_coeff`` stores outside input by it and raises
``TypeError`` on anything else; ``_cleaned`` restores it after arithmetic.
A ``Fraction`` is made only where a division or a parse makes one (every
division goes through ``Fraction``: ``int / int`` is a float).  Values
stay equal across the two types: 3 == Fraction(3), the two hash alike and
print alike.  On top of the ring live commuting derivations
(with pairwise-commutation certification) and exact ring-valued
determinants: one division-free routine, ``maximal_minors``, gives every
maximal minor of a matrix on column-scaled int terms, and ``det_ring`` is
the square case.

This module alone encodes exponent vectors: each term is keyed by one
packed integer (Monagan and Pearce, CASC 2007) whose integer order is the
graded-lex order.  ``terms`` unpacks keys to exponent tuples; the criterion
evaluates on the keys directly, and ``format_polynomial`` reads each key's
fields through one (name, shift) table per variable count, cached like the
key of 1, writes each coefficient from its int numerator and denominator,
and writes a constant term without reading fields.  Exponents stay within
``EXPONENT_LIMIT``: the constructor checks outside input, and a product
checks its terms only when its operands' bounds on exponent magnitude sum
past the limit.

Everything is immutable; all operations are pure.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

Exponents = tuple  # v-tuple of signed ints
Scalar = Union[int, Fraction]

EXPONENT_LIMIT = 2**31 - 1
DET_SIZE_CAP = 12
# Largest power ``parse_polynomial`` expands, as the predicted size of the
# result: its term count (at most the multinomial count C(|p| + t - 1, t - 1)
# for a t-term base to the power p) times one plus the bit length of its
# coefficients (at most |p| * log2(s * L), where L is the common denominator
# of the base's coefficients and s the sum of their absolute values times L).
# A power over it is a ParseError at its '^'.  Term count and coefficient
# bits are bounded together because either alone admits slow powers:
# (1 + t1)^4000 has 4001 terms and expands in about a minute.  Powers just
# under the limit, such as (t1 + t2 + t3)^53, expand in about a second.
POWER_SIZE_LIMIT = 2**17


class ExponentOverflowError(ArithmeticError):
    """An exponent left the fixed-width signed range (never wraps)."""


class ExactDivisionError(ArithmeticError):
    """Ring division was requested where the divisor does not divide."""


class DeterminantSizeError(ValueError):
    """Matrix exceeds the configured determinant size cap."""


class ParseError(ValueError):
    """Syntax error in the polynomial expression grammar."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _coeff(value: Scalar) -> Scalar:
    """``value`` stored: an int when integral (a bool too), else a Fraction."""
    if isinstance(value, (int, Fraction)):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


def _cleaned(terms: dict) -> dict:
    """``terms``, any map to scalars, without its zeros, each integral one an int."""
    return {k: c.numerator if c.denominator == 1 else c for k, c in terms.items() if c}


# A key holds the total degree plus nvars * _OFFSET in its top field, then
# one _BITS-bit field per variable holding e + _OFFSET, t1 highest.  A key is
# linear in the exponents, so the key of a product of monomials is the sum of
# their keys minus the key of 1 while every exponent stays in range.
_OFFSET = EXPONENT_LIMIT + 1
_BITS = (2 * EXPONENT_LIMIT + 1).bit_length()
_MASK = (1 << _BITS) - 1


def _pack(exps: Sequence[int]) -> int:
    key = sum(exps) + len(exps) * _OFFSET
    for e in exps:
        key = (key << _BITS) + e + _OFFSET
    return key


def _unpack(key: int, nvars: int) -> Exponents:
    return tuple(((key >> (_BITS * j)) & _MASK) - _OFFSET for j in range(nvars - 1, -1, -1))


@functools.cache
def _origin(nvars: int) -> int:
    """The key of the monomial 1."""
    return _pack((0,) * nvars)


def _from_keys(nvars: int, terms: dict, reach: int) -> "LaurentPolynomial":
    """The polynomial with packed terms ``terms`` (nonzero coefficients);
    ``reach`` bounds its exponent magnitudes and is at most EXPONENT_LIMIT."""
    p = LaurentPolynomial.__new__(LaurentPolynomial)
    p.nvars, p._terms, p._reach, p._hash = nvars, terms, reach, None
    return p


class LaurentPolynomial:
    """Element of Q[t_1^{+-1}, ..., t_v^{+-1}] with sparse exact terms."""

    __slots__ = ("nvars", "_terms", "_reach", "_hash")

    def __init__(self, nvars: int, terms: Optional[Mapping[Exponents, Scalar]] = None):
        if nvars < 0:
            raise ValueError("variable count must be nonnegative")
        cleaned = {}
        reach = 0
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError("exponent vector length mismatch")
                for e in exps:
                    if abs(e) > EXPONENT_LIMIT:
                        raise ExponentOverflowError(f"exponent {e} out of range")
                reach = max(reach, max(map(abs, exps), default=0))
                c = _coeff(coeff)
                if c:
                    cleaned[_pack(exps)] = c
        self.nvars = nvars
        self._terms = cleaned
        self._reach = reach
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPolynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "LaurentPolynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPolynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff: Scalar = 1) -> "LaurentPolynomial":
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "LaurentPolynomial":
        """The variable t_{index}, 1-based."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        exps = [0] * nvars
        exps[index - 1] = 1
        return cls(nvars, {tuple(exps): 1})

    # -- inspection --------------------------------------------------------

    def terms(self):
        """(exponent tuple, coefficient) pairs."""
        return [(_unpack(key, self.nvars), c) for key, c in self._terms.items()]

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "LaurentPolynomial"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(self.nvars, other)
        self._check(other)
        result = dict(self._terms)
        for key, coeff in other._terms.items():
            cur = result.get(key)
            result[key] = coeff if cur is None else cur + coeff
        return _from_keys(self.nvars, _cleaned(result), max(self._reach, other._reach))

    __radd__ = __add__

    def __neg__(self):
        return _from_keys(self.nvars, {k: -c for k, c in self._terms.items()}, self._reach)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if not c:
                return LaurentPolynomial(self.nvars)
            return _from_keys(self.nvars, _cleaned({k: c * v for k, v in self._terms.items()}),
                              self._reach)
        self._check(other)
        if not self._terms or not other._terms:
            return LaurentPolynomial(self.nvars)
        check_product_range(self, other)
        result = {}
        multiply_into(result, self._terms, other._terms, self.nvars, 1)
        return _from_keys(self.nvars, _cleaned(result),
                          min(self._reach + other._reach, EXPONENT_LIMIT))

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if not isinstance(power, int):
            raise TypeError("exponent must be an integer")
        if power < 0:
            if len(self._terms) != 1:
                raise ExactDivisionError("only monomials are invertible in the Laurent ring")
            (key, coeff), = self._terms.items()
            inverse = {2 * _origin(self.nvars) - key: Fraction(1, coeff)}
            return _from_keys(self.nvars, inverse, self._reach) ** (-power)
        result = LaurentPolynomial.one(self.nvars)
        base = self
        while power:
            if power & 1:
                result = result * base
            base_needed = power >> 1
            if base_needed:
                base = base * base
            power = base_needed
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(self.nvars, other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self._terms.items())))
        return self._hash

    def __repr__(self):
        return f"LaurentPolynomial({self.nvars}, {format_polynomial(self)!r})"

    def __str__(self):
        return format_polynomial(self)


def multiply_into(total: dict, left: dict, right: dict, nvars: int, scale: Scalar) -> None:
    """Add scale * left * right to ``total``, each a map from packed keys to
    coefficients; the exponents of the product must be in range (see
    ``check_product_range``)."""
    one = _origin(nvars)
    for k1, c1 in left.items():
        k1 -= one
        if scale != 1:
            c1 *= scale
        for k2, c2 in right.items():
            key = k1 + k2
            cur = total.get(key)
            prod = c1 * c2
            total[key] = prod if cur is None else cur + prod


def check_product_range(left: LaurentPolynomial, right: LaurentPolynomial) -> None:
    """Raise the ExponentOverflowError of the first exponent of left * right,
    in term order, out of range; checked only when the bounds sum past it."""
    if left._reach + right._reach <= EXPONENT_LIMIT:
        return
    nvars = left.nvars
    for k1 in left._terms:
        e1 = _unpack(k1, nvars)
        for k2 in right._terms:
            for a, b in zip(e1, _unpack(k2, nvars)):
                if abs(a + b) > EXPONENT_LIMIT:
                    raise ExponentOverflowError(f"exponent {a + b} out of range")


def exact_divide(num: LaurentPolynomial, den: LaurentPolynomial) -> LaurentPolynomial:
    """Quotient num/den when den divides num exactly; raises otherwise.

    Minimum and maximum exponents are additive in a domain, so every term
    of the quotient lies in the box [min num - min den, max num - max den].
    Graded-lex division refuses a leading quotient term outside it, which
    keeps every remainder term inside num's box (so in range, and finitely
    many: the division terminates).
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return LaurentPolynomial(num.nvars)
    num._check(den)
    v = num.nvars
    columns = [list(zip(*(_unpack(key, v) for key in p._terms))) for p in (num, den)]
    lo = [min(n) - min(d) for n, d in zip(*columns)]
    hi = [max(n) - max(d) for n, d in zip(*columns)]
    lt_d = max(den._terms)
    cd = den._terms[lt_d]
    ed = _unpack(lt_d, v)
    quotient = {}
    rem = dict(num._terms)
    while rem:
        lt_r = max(rem)
        diff = tuple(r - d for r, d in zip(_unpack(lt_r, v), ed))
        if any(not low <= e <= high for e, low, high in zip(diff, lo, hi)):
            raise ExactDivisionError("polynomial division is not exact")
        factor = Fraction(rem[lt_r], cd)
        quotient[diff] = factor
        shift = lt_r - lt_d
        for key, c in den._terms.items():
            key += shift
            cur = rem.get(key, 0) - factor * c
            if cur:
                rem[key] = cur
            else:
                rem.pop(key, None)
    return LaurentPolynomial(v, quotient)


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivationSpec:
    """A derivation sum_j c_j d/dt_j of the Laurent ring.

    ``kind`` is one of ``partial`` (c = unit vector), ``euler``
    (c_i = t_i) or ``general`` (explicit coefficient vector).
    """

    nvars: int
    kind: str
    index: Optional[int] = None
    coeffs: Optional[tuple] = None

    @classmethod
    def partial(cls, index: int, nvars: int) -> "DerivationSpec":
        if not 1 <= index <= nvars:
            raise ValueError("derivation index out of range")
        return cls(nvars, "partial", index)

    @classmethod
    def euler(cls, index: int, nvars: int) -> "DerivationSpec":
        if not 1 <= index <= nvars:
            raise ValueError("derivation index out of range")
        return cls(nvars, "euler", index)

    @classmethod
    def general(cls, coeffs: Sequence[LaurentPolynomial]) -> "DerivationSpec":
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("coefficient vector must be nonempty")
        nvars = coeffs[0].nvars
        if any(c.nvars != nvars for c in coeffs) or len(coeffs) != nvars:
            raise ValueError("coefficient vector length must equal the variable count")
        return cls(nvars, "general", None, coeffs)

    def coefficient_vector(self) -> tuple:
        """The c_j with d = sum_j c_j d/dt_j."""
        if self.kind == "general":
            return self.coeffs
        vec = [LaurentPolynomial.zero(self.nvars) for _ in range(self.nvars)]
        if self.kind == "partial":
            vec[self.index - 1] = LaurentPolynomial.one(self.nvars)
        elif self.kind == "euler":
            vec[self.index - 1] = LaurentPolynomial.variable(self.nvars, self.index)
        else:
            raise ValueError(f"unknown derivation kind {self.kind!r}")
        return tuple(vec)

    def apply(self, p: LaurentPolynomial) -> LaurentPolynomial:
        if p.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        if self.kind in ("euler", "partial"):
            field = _BITS * (p.nvars - self.index)
            # a partial derivative lowers e_i and the total degree by one
            step = (1 << field) + (1 << (_BITS * p.nvars)) if self.kind == "partial" else 0
            result = {}
            for key, c in p._terms.items():
                e = ((key >> field) & _MASK) - _OFFSET
                if e:
                    if step and e == -EXPONENT_LIMIT:
                        raise ExponentOverflowError(f"exponent {e - 1} out of range")
                    result[key - step] = c * e
            reach = min(p._reach + 1, EXPONENT_LIMIT) if step else p._reach
            return _from_keys(p.nvars, _cleaned(result), reach)
        total = LaurentPolynomial.zero(p.nvars)
        for j, cj in enumerate(self.coeffs):
            if cj.is_zero():
                continue
            total = total + cj * DerivationSpec.partial(j + 1, self.nvars).apply(p)
        return total


class FamilyCertificationError(ValueError):
    """A registered derivation family failed pairwise commutation."""


@dataclass(frozen=True)
class CertifiedDerivationFamily:
    """A pairwise-commuting family d_1..d_k, certified at construction.

    ``assumptions_12`` records whether the ring/derivation preset is one
    for which the separating-input assumptions behind the exhaustive
    criterion are known to hold (true for the Euler preset on the full
    Laurent ring).
    """

    specs: tuple
    assumptions_12: bool = False

    def __len__(self):
        return len(self.specs)

    def __getitem__(self, i):
        return self.specs[i]

    def __iter__(self):
        return iter(self.specs)

    @property
    def nvars(self):
        return self.specs[0].nvars


def certify_family(specs: Iterable[DerivationSpec], assumptions_12: bool = False) -> CertifiedDerivationFamily:
    specs = tuple(specs)
    if not specs:
        raise ValueError("empty derivation family")
    nv = specs[0].nvars
    if any(s.nvars != nv for s in specs):
        raise ValueError("derivation family mixes variable counts")
    # [d_a, d_b] has coefficients d_a(c_b[j]) - d_b(c_a[j]), which is
    # d_a(0) - d_b(0) = 0 wherever both c_a[j] and c_b[j] are zero
    zero = LaurentPolynomial.zero(nv)
    sparse = [{j: c for j, c in enumerate(s.coefficient_vector()) if c} for s in specs]
    for a, b in itertools.combinations(range(len(specs)), 2):
        for j in sorted(sparse[a].keys() | sparse[b].keys()):
            if specs[a].apply(sparse[b].get(j, zero)) != specs[b].apply(sparse[a].get(j, zero)):
                raise FamilyCertificationError(
                    f"derivations {a + 1} and {b + 1} do not commute")
    return CertifiedDerivationFamily(specs, assumptions_12)


def euler_family(nvars: int) -> CertifiedDerivationFamily:
    """d_i = t_i d/dt_i for i = 1..nvars; separating assumptions hold."""
    return certify_family(
        (DerivationSpec.euler(i, nvars) for i in range(1, nvars + 1)),
        assumptions_12=True)


def partial_family(nvars: int) -> CertifiedDerivationFamily:
    """d_i = d/dt_i for i = 1..nvars (separating assumptions not claimed)."""
    return certify_family(DerivationSpec.partial(i, nvars) for i in range(1, nvars + 1))


# ---------------------------------------------------------------------------
# Determinants
# ---------------------------------------------------------------------------

def maximal_minors(rows) -> dict:
    """Every maximal minor of an N x k matrix of ring elements, N >= k >= 1.

    Returns {row subset: minor} over the k-subsets of ``range(N)`` as
    sorted tuples, in ``itertools.combinations`` order; a vanishing minor
    is the zero polynomial.  Laplace expansion along the columns, one
    level at a time: level j holds the minors of the first j columns on
    every j-subset of rows, and each is extended by the rows outside it,
    skipping zero entries and zero sub-minors.  That is at most
    sum_{j <= k} C(N, j) * j products and no division.

    The expansion runs on packed terms with ``int`` coefficients: column j
    is scaled by the lcm D_j of its coefficient denominators (D_j = 1 uses
    the entries' own terms), and as every maximal minor takes one entry from
    each column, every minor comes out scaled by D = D_0 * ... * D_{k-1},
    divided out per term through ``Fraction`` at the end unless D = 1.
    Each sub-minor carries the exponent bound and term order that ring
    arithmetic would give it (a product's bound is the sum of its factors',
    capped at EXPONENT_LIMIT, a sum's the larger of its operands'; each
    product's nonzero terms are merged into the sum in order, a cancelled
    term dropped), and a product is range-checked by
    ``check_product_range`` when its factors' bounds sum past the limit, so
    an overflowing input raises the same error as ``entry * minor`` would.
    """
    entries = tuple(tuple(r) for r in rows)
    k = len(entries[0]) if entries else 0
    if not 0 < k <= len(entries) or any(len(r) != k for r in entries):
        raise ValueError("maximal minors need an N x k matrix with N >= k >= 1")
    if k > DET_SIZE_CAP:
        raise DeterminantSizeError(f"matrix size {k} exceeds cap {DET_SIZE_CAP}")
    nvars = entries[0][0].nvars
    if any(entry.nvars != nvars for row in entries for entry in row):
        raise ValueError("variable count mismatch")
    dens = [math.lcm(*(c.denominator for row in entries for c in row[col]._terms.values()))
            for col in range(k)]
    # scaled[r][col]: the int terms of dens[col] * entries[r][col]
    scaled = [[entry._terms if d == 1 else
               {key: c.numerator * (d // c.denominator) for key, c in entry._terms.items()}
               for entry, d in zip(row, dens)] for row in entries]
    # level: {row subset: [int terms, exponent bound]} of the nonzero minors
    level = {(r,): [scaled[r][0], row[0]._reach] for r, row in enumerate(entries) if row[0]}
    for col in range(1, k):
        grown = {}
        for subset, (minor, reach) in level.items():
            for r, row in enumerate(entries):
                entry = row[col]
                if not entry or r in subset:
                    continue
                if entry._reach + reach > EXPONENT_LIMIT:
                    check_product_range(entry, _from_keys(nvars, minor, reach))
                # r sits at position p of the grown subset, so its cofactor
                # sign in column ``col`` is (-1)^(p + col)
                p = bisect.bisect_left(subset, r)
                product = {}
                multiply_into(product, scaled[r][col], minor, nvars, -1 if (p + col) % 2 else 1)
                product_reach = min(entry._reach + reach, EXPONENT_LIMIT)
                key = subset[:p] + (r,) + subset[p:]
                cur = grown.get(key)
                if cur is None:
                    grown[key] = cur = [{}, product_reach]
                else:
                    cur[1] = max(cur[1], product_reach)
                total = cur[0]
                for t, c in product.items():
                    if c:
                        c += total.get(t, 0)
                        if c:
                            total[t] = c
                        else:
                            del total[t]
        level = {key: minor for key, minor in grown.items() if minor[0]}
    zero = LaurentPolynomial.zero(nvars)
    scale = math.prod(dens)
    minors = {subset: _from_keys(nvars, terms if scale == 1 else
                                 _cleaned({t: Fraction(c, scale) for t, c in terms.items()}), reach)
              for subset, (terms, reach) in level.items()}
    return {subset: minors.get(subset, zero)
            for subset in itertools.combinations(range(len(entries)), k)}


def det_ring(matrix) -> LaurentPolynomial:
    """Exact determinant of a square matrix of ring elements: its one
    maximal minor, by ``maximal_minors``."""
    entries = tuple(tuple(r) for r in matrix)
    n = len(entries)
    if n == 0:
        raise ValueError("determinant of an empty matrix needs a variable count; use pi conventions")
    if any(len(r) != n for r in entries):
        raise ValueError("determinant of a non-square matrix")
    return maximal_minors(entries)[tuple(range(n))]


# ---------------------------------------------------------------------------
# Expression grammar
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<var>t\d+)|(?P<op>[-+*^()/]))")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match or match.end() == pos and not match.group(0).strip():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = pos + (len(text[pos:]) - len(stripped))
            line = text.count("\n", 0, bad) + 1
            col = bad - (text.rfind("\n", 0, bad) + 1) + 1
            raise ParseError(f"unexpected character {text[bad]!r}", line, col)
        if match.group(0).strip():
            kind = match.lastgroup
            tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive descent over: expr := [-] term ((+|-) term)*;
    term := factor (* factor)*; factor := base [^ [-] int];
    base := int [/ int] | t<k> | ( expr )."""

    def __init__(self, text: str, nvars: int):
        self.text = text
        self.nvars = nvars
        self.tokens = _tokenize(text)
        self.pos = 0

    def _error(self, message, offset=None):
        if offset is None:
            offset = self.tokens[self.pos][2] if self.pos < len(self.tokens) else len(self.text)
        line = self.text.count("\n", 0, offset) + 1
        col = offset - (self.text.rfind("\n", 0, offset) + 1) + 1
        raise ParseError(message, line, col)

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, None)

    def _take(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def parse(self) -> LaurentPolynomial:
        if not self.tokens:
            self._error("empty expression")
        value = self._expr()
        if self.pos != len(self.tokens):
            self._error("trailing input after expression")
        return value

    def _expr(self):
        kind, text, _ = self._peek()
        negate = False
        if kind == "op" and text in "+-":
            self._take()
            negate = text == "-"
        value = self._term()
        if negate:
            value = -value
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "+-":
                self._take()
                rhs = self._term()
                value = value - rhs if text == "-" else value + rhs
            else:
                return value

    def _term(self):
        value = self._factor()
        while True:
            kind, text, offset = self._peek()
            if kind == "op" and text == "*":
                self._take()
                factor = self._factor()
                try:
                    value = value * factor
                except ExponentOverflowError as exc:
                    self._error(str(exc), offset)
            else:
                return value

    def _factor(self):
        base = self._base()
        kind, text, offset = self._peek()
        if kind == "op" and text == "^":
            self._take()
            power = self._signed_int()
            if _power_size(base, power) > POWER_SIZE_LIMIT:
                self._error("power too large: its predicted terms times coefficient bits "
                            f"exceed the size limit {POWER_SIZE_LIMIT}", offset)
            try:
                return base ** power
            except ExactDivisionError:
                self._error("negative power of a non-monomial", offset)
            except ExponentOverflowError as exc:
                self._error(str(exc), offset)
        return base

    def _signed_int(self):
        kind, text, offset = self._take()
        negative = False
        if kind == "op" and text == "-":
            negative = True
            kind, text, offset = self._take()
        if kind != "num":
            self._error("expected an integer exponent", offset)
        value = int(text)
        return -value if negative else value

    def _base(self):
        kind, text, offset = self._take()
        if kind == "num":
            value = Fraction(int(text))
            nkind, ntext, _ = self._peek()
            if nkind == "op" and ntext == "/":
                self._take()
                dkind, dtext, doffset = self._take()
                if dkind != "num":
                    self._error("expected a denominator", doffset)
                if int(dtext) == 0:
                    self._error("zero denominator", doffset)
                value = value / int(dtext)
            return LaurentPolynomial.constant(self.nvars, value)
        if kind == "var":
            index = int(text[1:])
            if not 1 <= index <= self.nvars:
                self._error(f"variable {text} out of range for {self.nvars} variables", offset)
            return LaurentPolynomial.variable(self.nvars, index)
        if kind == "op" and text == "(":
            value = self._expr()
            ckind, ctext, coffset = self._take()
            if ckind != "op" or ctext != ")":
                self._error("expected ')'", coffset)
            return value
        if kind is None:
            self._error("unexpected end of expression", len(self.text))
        self._error(f"unexpected token {text!r}", offset)


def _power_size(base: LaurentPolynomial, power: int) -> int:
    """An upper bound on the size of base ** power as POWER_SIZE_LIMIT
    measures it, computed without expanding; once the term count alone
    passes the limit, that partial count is returned."""
    p = abs(power)
    terms = min(len(base), 1)
    for j in range(1, len(base)):  # C(p + j, j) from C(p + j - 1, j - 1)
        terms = terms * (p + j) // j
        if terms > POWER_SIZE_LIMIT:
            return terms
    if not terms:
        return 0
    coeffs = base._terms.values()
    denominator = math.lcm(*(c.denominator for c in coeffs))
    numerators = sum(abs(c.numerator) * (denominator // c.denominator) for c in coeffs)
    return terms * (1 + math.ceil(p * math.log2(numerators * denominator)))


def parse_polynomial(text: str, nvars: int) -> LaurentPolynomial:
    """Parse the expression grammar: integers, rationals p/q, variables
    t1..t{v}, + - * ^ with signed integer exponents, parentheses."""
    return _Parser(text, nvars).parse()


@functools.cache
def _fields(nvars: int) -> tuple:
    """The (name, shift) of each variable's field in a packed key, t1 first."""
    return tuple((f"t{j}", _BITS * (nvars - j)) for j in range(1, nvars + 1))


def format_polynomial(p: LaurentPolynomial) -> str:
    """Canonical serialization: terms by descending key (graded-lex), each
    coefficient written from its int numerator and denominator."""
    terms = p._terms
    if not terms:
        return "0"
    fields, origin, mask, offset = _fields(p.nvars), _origin(p.nvars), _MASK, _OFFSET
    out = []
    for key in sorted(terms, reverse=True):
        coeff = terms[key]
        num, den = coeff.numerator, coeff.denominator
        negative = num < 0
        if negative:
            num = -num
        text = f"{num}" if den == 1 else f"{num}/{den}"
        if key != origin:
            factors = [] if text == "1" else [text]
            for name, shift in fields:
                e = ((key >> shift) & mask) - offset
                if e:
                    factors.append(name if e == 1 else f"{name}^{e}")
            text = "*".join(factors)
        if out:
            out.append(" - " if negative else " + ")
        elif negative:
            out.append("-")
        out.append(text)
    return "".join(out)
