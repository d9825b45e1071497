"""Exact-arithmetic toolkit for 2x2 matrix commutator determinants.

Symbolic proofs of the determinantal identities, quadratic-form witness
constructions, matrix factorization certificates, and a batch CLI.
"""

from .mat2 import Mat2, cayley_hamilton_residual, commutator, parse_mat2
from .rings import (
    IntegerRing,
    ModularRing,
    NilPlaneRing,
    ParseError,
    PolynomialRing,
    RingMismatchError,
    RingValue,
    ZZ,
    parse_value,
    poly_substitute,
)

__all__ = [
    "Mat2",
    "cayley_hamilton_residual",
    "commutator",
    "parse_mat2",
    "IntegerRing",
    "ModularRing",
    "NilPlaneRing",
    "ParseError",
    "PolynomialRing",
    "RingMismatchError",
    "RingValue",
    "ZZ",
    "parse_value",
    "poly_substitute",
]
