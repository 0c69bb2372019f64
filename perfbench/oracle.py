"""An independent check of the Poisson n-Lie axioms.

It reads only the structure constants (``dim``, ``arity``, ``skew``,
``bracket_entries()``, ``product_entries()``) and shares no code with the
package's ``verify_axioms``, so the two can be compared.

For alternating brackets it is exhaustive but only visits the cases that
can fail.  A fundamental-identity case (xs, ys) has both sides zero unless
[ys] is a stored entry or some [xs, y_i] is; a Leibniz case (y, z, xs)
unless y.z, [z, xs] or [y, xs] is nonzero; an associativity case (i, j, k)
unless e_i.e_j or e_j.e_k is.  Non-alternating brackets are checked over
all basis tuples, so this is meant for small ones.
"""

from __future__ import annotations

import itertools


def _add(acc: dict, vec: dict, scale) -> None:
    for i, c in vec.items():
        value = acc.get(i, 0) + scale * c
        if value:
            acc[i] = value
        else:
            acc.pop(i, None)


def _parity(tup) -> int:
    inversions = sum(1 for a, b in itertools.combinations(tup, 2) if a > b)
    return -1 if inversions % 2 else 1


class Constants:
    def __init__(self, P):
        self.dim, self.arity, self.skew = P.dim, P.arity, P.skew
        self.brackets = {tuple(k): dict(v) for k, v in P.bracket_entries()}
        self.products = {tuple(k): dict(v) for k, v in P.product_entries()}

    def bracket_basis(self, tup) -> dict:
        tup = tuple(tup)
        if not self.skew:
            return self.brackets.get(tup, {})
        if len(set(tup)) < len(tup):
            return {}
        value = self.brackets.get(tuple(sorted(tup)), {})
        if _parity(tup) > 0:
            return value
        return {i: -c for i, c in value.items()}

    def product_basis(self, i, j) -> dict:
        return self.products.get((min(i, j), max(i, j)), {})

    def bracket(self, slots) -> dict:
        """Multilinear bracket; each slot is a basis index or a sparse vector."""
        vectors = [{s: 1} if isinstance(s, int) else s for s in slots]
        acc = {}
        for combo in itertools.product(*(v.items() for v in vectors)):
            scale = 1
            for _, c in combo:
                scale *= c
            _add(acc, self.bracket_basis([i for i, _ in combo]), scale)
        return acc

    def product(self, x: dict, y: dict) -> dict:
        acc = {}
        for i, a in x.items():
            for j, b in y.items():
                _add(acc, self.product_basis(i, j), a * b)
        return acc


def _fundamental(C: Constants, xs, ys) -> bool:
    lhs = C.bracket(list(xs) + [C.bracket(ys)])
    rhs = {}
    for pos in range(len(ys)):
        inner = C.bracket(list(xs) + [ys[pos]])
        if inner:
            _add(rhs, C.bracket(list(ys[:pos]) + [inner] + list(ys[pos + 1:])), 1)
    return lhs == rhs


def _leibniz(C: Constants, y, z, xs) -> bool:
    lhs = C.bracket([C.product_basis(y, z)] + list(xs))
    rhs = C.product({y: 1}, C.bracket([z] + list(xs)))
    _add(rhs, C.product({z: 1}, C.bracket([y] + list(xs))), 1)
    return lhs == rhs


def _associative(C: Constants, i, j, k) -> bool:
    return (C.product(C.product_basis(i, j), {k: 1})
            == C.product({i: 1}, C.product_basis(j, k)))


def axioms(P) -> dict:
    """{"associative", "fundamental", "leibniz"} -> bool.  Commutativity
    and, for alternating storage, skew-symmetry hold by how the constants
    are stored."""
    C = Constants(P)
    d, n = C.dim, C.arity
    rng = range(d)
    if C.skew:
        keys = list(C.brackets)
        fi = {(xs, ys) for ys in keys for xs in itertools.combinations(rng, n - 1)}
        for key in keys:
            for y in key:
                xs = tuple(i for i in key if i != y)
                for rest in itertools.combinations([i for i in rng if i != y], n - 1):
                    fi.add((xs, tuple(sorted(rest + (y,)))))
        lz = {(y, z, xs) for (y, z) in C.products for xs in itertools.combinations(rng, n - 1)}
        for key in keys:
            for w in key:
                xs = tuple(i for i in key if i != w)
                for other in rng:
                    lz.add((min(w, other), max(w, other), xs))
    else:
        fi = set(itertools.product(itertools.product(rng, repeat=n - 1),
                                   itertools.product(rng, repeat=n)))
        lz = {(y, z, xs) for y in rng for z in range(y, d)
              for xs in itertools.product(rng, repeat=n - 1)}
    assoc = set()
    for (a, b) in C.products:
        for c in rng:
            assoc.update({(a, b, c), (b, a, c), (c, a, b), (c, b, a)})
    return {
        "associative": all(_associative(C, *t) for t in sorted(assoc)),
        "fundamental": all(_fundamental(C, xs, ys) for xs, ys in sorted(fi)),
        "leibniz": all(_leibniz(C, y, z, xs) for y, z, xs in sorted(lz)),
    }


