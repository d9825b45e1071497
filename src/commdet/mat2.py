"""2x2 matrices over a commutative ring: products, determinant, traces, adjoint.

The type is deliberately fixed at 2x2: the determinantal formulas
implemented elsewhere in this package fail for larger blocks.
"""

from __future__ import annotations

import re

from .rings import ParseError, Ring, RingMismatchError, RingValue, _Frozen, parse_value

__all__ = [
    "Mat2",
    "commutator",
    "cayley_hamilton_residual",
    "parse_mat2",
]


class Mat2(_Frozen):
    __slots__ = ("m11", "m12", "m21", "m22")

    def __init__(self, m11: RingValue, m12: RingValue, m21: RingValue, m22: RingValue):
        ring = m11.ring
        for e in (m12, m21, m22):
            if e.ring is not ring and e.ring != ring:
                raise RingMismatchError("matrix entries must share one ring")
        object.__setattr__(self, "m11", m11)
        object.__setattr__(self, "m12", m12)
        object.__setattr__(self, "m21", m21)
        object.__setattr__(self, "m22", m22)

    @property
    def ring(self) -> Ring:
        return self.m11.ring

    @classmethod
    def from_rows(cls, rows) -> "Mat2":
        (a, b), (c, d) = rows
        return cls(a, b, c, d)

    @classmethod
    def from_ints(cls, ring: Ring, rows) -> "Mat2":
        (a, b), (c, d) = rows
        return cls(ring.from_int(a), ring.from_int(b), ring.from_int(c), ring.from_int(d))

    @classmethod
    def identity(cls, ring: Ring) -> "Mat2":
        return cls(ring.one(), ring.zero(), ring.zero(), ring.one())

    @classmethod
    def zero(cls, ring: Ring) -> "Mat2":
        z = ring.zero()
        return cls(z, z, z, z)

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.m11 + other.m11, self.m12 + other.m12,
                    self.m21 + other.m21, self.m22 + other.m22)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.m11 - other.m11, self.m12 - other.m12,
                    self.m21 - other.m21, self.m22 - other.m22)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.m11, -self.m12, -self.m21, -self.m22)

    def __mul__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        ring = _shared_ring(self, other)
        dot = ring._dot
        a, b, c, d = self._payloads()
        e, f, g, h = other._payloads()
        return _from_payloads(ring, dot((a, b), (e, g)), dot((a, b), (f, h)),
                              dot((c, d), (e, g)), dot((c, d), (f, h)))

    def scale(self, c: RingValue) -> "Mat2":
        return Mat2(c * self.m11, c * self.m12, c * self.m21, c * self.m22)

    def det(self) -> RingValue:
        ring = self.ring
        a, b, c, d = self._payloads()
        return RingValue(ring, ring._dot((a, ring._neg(b)), (d, c)))

    def trace(self) -> RingValue:
        return self.m11 + self.m22

    def qtrace(self, q: RingValue) -> RingValue:
        return self.m11 + q * self.m22

    def supertrace(self) -> RingValue:
        return self.m11 - self.m22

    def adjoint(self) -> "Mat2":
        return Mat2(self.m22, -self.m12, -self.m21, self.m11)

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in (self.m11, self.m12, self.m21, self.m22))

    def entries(self):
        return (self.m11, self.m12, self.m21, self.m22)

    def _payloads(self):
        return (self.m11.payload, self.m12.payload, self.m21.payload, self.m22.payload)

    def render(self) -> str:
        return (f"[[{self.m11.render()},{self.m12.render()}],"
                f"[{self.m21.render()},{self.m22.render()}]]")

    def __str__(self) -> str:
        return self.render()


def _shared_ring(x: Mat2, y: Mat2) -> Ring:
    ring = x.ring
    if y.ring is not ring and y.ring != ring:
        raise RingMismatchError(f"ring mismatch: {ring} vs {y.ring}")
    return ring


def _from_payloads(ring: Ring, m11, m12, m21, m22) -> Mat2:
    return Mat2(RingValue(ring, m11), RingValue(ring, m12),
                RingValue(ring, m21), RingValue(ring, m22))


def commutator(x: Mat2, y: Mat2) -> Mat2:
    """XY - YX; the result always has trace zero."""
    ring = _shared_ring(x, y)
    dot, neg = ring._dot, ring._neg
    a, b, c, d = x._payloads()
    e, f, g, h = y._payloads()
    ne, nf, ng, nh = neg(e), neg(f), neg(g), neg(h)
    # each entry is (XY)_ij - (YX)_ij, one sum of four products
    return _from_payloads(ring, dot((a, b, ne, nf), (e, g, a, c)),
                          dot((a, b, ne, nf), (f, h, b, d)),
                          dot((c, d, ng, nh), (e, g, a, c)),
                          dot((c, d, ng, nh), (f, h, b, d)))


def cayley_hamilton_residual(m: Mat2) -> Mat2:
    """M^2 - tr(M) M + det(M) I; identically the zero matrix."""
    ring = m.ring
    dot, neg = ring._dot, ring._neg
    a, b, c, d = m._payloads()
    nt, nb = neg(ring._add(a, d)), neg(b)
    return _from_payloads(ring, dot((a, b, nt, a, nb), (a, c, a, d, c)),
                          dot((a, b, nt), (b, d, b)),
                          dot((c, d, nt), (a, c, c)),
                          dot((c, d, nt, a, nb), (b, d, d, d, c)))


_MATRIX = re.compile(r"\s*\[\s*\[(.*)\]\s*\]\s*", re.S)
# entries hold no brackets, so this splits the rows unambiguously
_ROW_BREAK = re.compile(r"\]\s*,\s*\[")


def parse_mat2(ring: Ring, text: str) -> Mat2:
    """Parse "[[m11,m12],[m21,m22]]" over ring; whitespace may surround brackets."""
    match = _MATRIX.fullmatch(text)
    if match is None:
        raise ParseError(f"matrix must look like [[a,b],[c,d]], got {text!r}")
    rows = _ROW_BREAK.split(match[1])
    if len(rows) != 2:
        raise ParseError("matrix must have exactly two rows")
    entries = []
    for row in rows:
        cols = row.split(",")
        if len(cols) != 2:
            raise ParseError("each matrix row must have exactly two entries")
        entries.append([parse_value(ring, col) for col in cols])
    return Mat2.from_rows(entries)
