"""Independent reference implementations that the tests compare against."""

import itertools

from poisson_nlie.jacobian_bracket import perm_sign
from poisson_nlie.ring import LaurentPolynomial


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
