"""Exact computer algebra for Poisson n-Lie structures.

Three layers:

* ``ring`` -- sparse Laurent polynomials over exact rationals, commuting
  derivations, ring-valued determinants, and the expression grammar.
* ``jacobian_bracket`` / ``criterion`` -- the n-ary determinant bracket with
  adjoined columns, its multilinear expansion, and the exhaustive residual
  criterion for the Poisson n-Lie axioms.
* ``subspaces`` / ``finite_algebra`` / ``constructions`` -- structure theory
  of finite-dimensional Poisson n-Lie algebras given by structure constants
  (series, solvability, nilradical, hypo-nilpotent ideals, eigenspace ideals)
  and the tensor/quotient constructions relating them to Poisson algebras.

All values are immutable after construction; every operation is a pure
function of its inputs.
"""

__version__ = "0.1.0"

from .ring import (  # noqa: F401
    DerivationSpec,
    LaurentPolynomial,
    certify_family,
    det_ring,
    euler_family,
    parse_polynomial,
    partial_family,
)
