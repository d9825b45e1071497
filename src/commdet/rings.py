"""Exact arithmetic in four concrete commutative rings.

Supported rings: arbitrary-precision integers, modular residues Z/n,
sparse multivariate polynomials with integer coefficients, and the
3-dimensional algebra Z[x,y]/(x^2, xy, y^2) ("nil plane").

All values are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

import operator
import re
import struct
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = [
    "RingMismatchError",
    "ParseError",
    "Ring",
    "IntegerRing",
    "ModularRing",
    "PolynomialRing",
    "NilPlaneRing",
    "RingValue",
    "ZZ",
    "poly_substitute",
    "parse_value",
    "MAX_EXPONENT",
    "MAX_INT_DIGITS",
]

# Largest exponent parse_value accepts after '^'.
MAX_EXPONENT = 10**4
# Longest integer literal parse_value accepts, and over ZZ the size of every
# parsed value: CPython's default int/str conversion limit
# (sys.get_int_max_str_digits()), so any accepted value can be printed.
MAX_INT_DIGITS = 4300
_ZZ_LIMIT = 10**MAX_INT_DIGITS


class RingMismatchError(ValueError):
    """Raised when operands come from different rings."""


class ParseError(ValueError):
    """Raised on malformed ring-element text."""


@dataclass(frozen=True)
class Ring:
    """Base descriptor; concrete rings subclass this."""

    def zero(self) -> "RingValue":
        return self.from_int(0)

    def one(self) -> "RingValue":
        return self.from_int(1)

    def from_int(self, n: int) -> "RingValue":
        raise NotImplementedError

    def _add(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def _neg(self, a: Any) -> Any:
        raise NotImplementedError

    def _mul(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def _dot(self, xs, ys) -> Any:
        """The payload of sum(x * y for x, y in zip(xs, ys)): a fold of _mul and _add."""
        out = None
        for x, y in zip(xs, ys):
            term = self._mul(x, y)
            out = term if out is None else self._add(out, term)
        return self.zero().payload if out is None else out

    def _is_zero(self, a: Any) -> bool:
        raise NotImplementedError

    def _render(self, a: Any) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class IntegerRing(Ring):
    def from_int(self, n: int) -> "RingValue":
        return RingValue(self, int(n))

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _dot(self, xs, ys):
        return sum(map(operator.mul, xs, ys))

    def _is_zero(self, a):
        return a == 0

    def _render(self, a):
        return str(a)


@dataclass(frozen=True)
class ModularRing(Ring):
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if self.modulus > 2**64 - 1:
            raise ValueError("modulus too large")

    def from_int(self, n: int) -> "RingValue":
        return RingValue(self, int(n) % self.modulus)

    def _add(self, a, b):
        return (a + b) % self.modulus

    def _neg(self, a):
        return (-a) % self.modulus

    def _mul(self, a, b):
        return (a * b) % self.modulus

    def _dot(self, xs, ys):
        return sum(map(operator.mul, xs, ys)) % self.modulus

    def _is_zero(self, a):
        return a == 0

    def _render(self, a):
        return str(a)


# struct codes for unsigned big-endian fields, narrowest first
_FIELD_CODES = ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))


def _monomial_codec(nvars: int, degree: int):
    """(encode, decode) between exponent vectors and packed monomial keys.

    A key holds the fields (total degree, e0, ..., e_{n-1}), most
    significant first, each wide enough for `degree`.  While no total
    degree exceeds `degree`, adding keys multiplies monomials with no
    carry between fields, and integer order is graded-lex order.
    encode(payload) lists the keys of a payload's terms; decode(keys)
    lists the exponent vectors of keys.
    """
    for bits, code in _FIELD_CODES:
        if degree >> bits == 0:
            st = struct.Struct(f">{nvars + 1}{code}")
            pack, size = st.pack, st.size
            # pad bytes skip the total degree
            unpack = struct.Struct(f">{bits // 8}x{nvars}{code}").unpack

            def encode(payload):
                return [int.from_bytes(pack(sum(e), *e), "big") for e, _ in payload]

            def decode(keys):
                return [unpack(k.to_bytes(size, "big")) for k in keys]

            return encode, decode
    # fields of 64 bits or more: shifts and masks on plain ints
    bits = degree.bit_length()
    mask = (1 << bits) - 1
    shifts = range(bits * (nvars - 1), -1, -bits)

    def encode(payload):
        return [sum(e) << bits * nvars | sum(x << s for x, s in zip(e, shifts))
                for e, _ in payload]

    def decode(keys):
        return [tuple(k >> s & mask for s in shifts) for k in keys]

    return encode, decode


# closes a run in PolynomialRing._add: total degree -1 sorts after every term
_END = ((-1,), 0)


@dataclass(frozen=True)
class PolynomialRing(Ring):
    """Sparse polynomials over Z in a fixed ordered tuple of variables.

    Payload: tuple of (exponent-vector, nonzero int coefficient) pairs,
    sorted in descending graded-lex order.  The representation is
    canonical, so payload equality is ring equality.

    Sums of products, _dot(xs, ys) = sum of x_i * y_i, work on packed
    monomial keys: each exponent vector becomes one int whose big-endian
    fields are (total degree, e0, ..., e_{n-1}), each as wide as the
    largest degree bound over the pairs (8, 16, 32 or 64 bits, wider if
    needed).  Adding two keys multiplies the monomials, and descending
    integer order is descending graded-lex order, so one dict collects
    every pair's products, cancellations included, and the result sorts
    its keys once with no key function and decodes only the surviving
    terms.  _mul is a one-pair _dot, except that a monomial operand
    shifts the other's terms in place.  _add merges its two sorted
    operands in one linear pass.
    """

    variables: tuple

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        if any(not v for v in self.variables):
            raise ValueError("variable names must be nonempty")

    def from_int(self, n: int) -> "RingValue":
        n = int(n)
        if n == 0:
            return RingValue(self, ())
        zero_exp = (0,) * len(self.variables)
        return RingValue(self, ((zero_exp, n),))

    def gen(self, name: str) -> "RingValue":
        i = self.variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.variables)))
        return RingValue(self, ((exps, 1),))

    def gens(self) -> dict:
        return {v: self.gen(v) for v in self.variables}

    def _canon(self, terms: dict) -> tuple:
        items = sorted([(sum(e), e, c) for e, c in terms.items() if c], reverse=True)
        return tuple([(e, c) for _, e, c in items])

    def _add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        # merge the two descending runs; _END closes each run
        out = []
        append = out.append
        ia, ib = iter(a), iter(b)
        ta, tb = next(ia), next(ib)
        ea, eb = ta[0], tb[0]
        sa, sb = sum(ea), sum(eb)
        while sa >= 0 or sb >= 0:
            if sa > sb or (sa == sb and ea > eb):
                append(ta)
                ta = next(ia, _END)
                ea = ta[0]
                sa = sum(ea)
            elif sa < sb or ea < eb:
                append(tb)
                tb = next(ib, _END)
                eb = tb[0]
                sb = sum(eb)
            else:
                c = ta[1] + tb[1]
                if c:
                    append((ea, c))
                ta, tb = next(ia, _END), next(ib, _END)
                ea, eb = ta[0], tb[0]
                sa, sb = sum(ea), sum(eb)
        return tuple(out)

    def _neg(self, a):
        return tuple((e, -c) for e, c in a)

    def _mul(self, a, b):
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a monomial times b keeps b's order, and Z has no zero divisors
            (ea, ca), = a
            return tuple([(tuple(map(operator.add, ea, eb)), ca * cb) for eb, cb in b])
        return self._dot((a,), (b,))

    def _dot(self, xs, ys):
        # shorter operand outermost; a pair with a zero operand adds nothing
        pairs = [(a, b) if len(a) <= len(b) else (b, a) for a, b in zip(xs, ys) if a and b]
        if not pairs:
            return ()
        # the leading terms have the largest total degrees; one codec must
        # hold the largest product of any pair
        degree = max(sum(a[0][0]) + sum(b[0][0]) for a, b in pairs)
        encode, decode = _monomial_codec(len(self.variables), degree)
        terms: dict = {}
        get = terms.get
        for a, b in pairs:
            qb = list(zip(encode(b), [c for _, c in b]))
            for qa, (_, ca) in zip(encode(a), a):
                for q, cb in qb:
                    k = qa + q
                    terms[k] = get(k, 0) + ca * cb
        keys = sorted([k for k, c in terms.items() if c], reverse=True)
        return tuple(zip(decode(keys), [terms[k] for k in keys]))

    def _is_zero(self, a):
        return a == ()

    def _render(self, a):
        if not a:
            return "0"
        parts = []
        for e, c in a:
            factors = []
            for name, k in zip(self.variables, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


@dataclass(frozen=True)
class NilPlaneRing(Ring):
    """Z[x,y] with the relations x^2 = y^2 = xy = 0.

    Payload: (c0, c1, c2) standing for c0 + c1*x + c2*y.
    """

    def from_int(self, n: int) -> "RingValue":
        return RingValue(self, (int(n), 0, 0))

    def x(self) -> "RingValue":
        return RingValue(self, (0, 1, 0))

    def y(self) -> "RingValue":
        return RingValue(self, (0, 0, 1))

    def _add(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    def _neg(self, a):
        return (-a[0], -a[1], -a[2])

    def _mul(self, a, b):
        # degree-2 and higher terms vanish; the coefficients may come from
        # any commutative ring, not only Z
        return (a[0] * b[0], a[0] * b[1] + a[1] * b[0], a[0] * b[2] + a[2] * b[0])

    def _is_zero(self, a):
        return a == (0, 0, 0)

    def _render(self, a):
        poly = PolynomialRing(("x", "y"))
        terms = {(0, 0): a[0], (1, 0): a[1], (0, 1): a[2]}
        return poly._render(poly._canon(terms))


@dataclass(frozen=True)
class RingValue:
    """An immutable element of one concrete ring."""

    ring: Ring
    payload: Any

    def _check(self, other: "RingValue") -> None:
        if not isinstance(other, RingValue):
            raise TypeError(f"expected RingValue, got {type(other).__name__}")
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingMismatchError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "RingValue") -> "RingValue":
        self._check(other)
        return RingValue(self.ring, self.ring._add(self.payload, other.payload))

    def __sub__(self, other: "RingValue") -> "RingValue":
        self._check(other)
        return RingValue(self.ring, self.ring._add(self.payload, self.ring._neg(other.payload)))

    def __neg__(self) -> "RingValue":
        return RingValue(self.ring, self.ring._neg(self.payload))

    def __mul__(self, other: "RingValue") -> "RingValue":
        self._check(other)
        return RingValue(self.ring, self.ring._mul(self.payload, other.payload))

    def __pow__(self, n: int) -> "RingValue":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if n == 0:
            return self.ring.one()
        # left-to-right binary method, seeded with the leading bit:
        # at most 2*(bit_length - 1) multiplications
        out = self
        for bit in bin(n)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def is_zero(self) -> bool:
        return self.ring._is_zero(self.payload)

    def term_count(self) -> int:
        if isinstance(self.ring, PolynomialRing):
            return len(self.payload)
        return 0 if self.is_zero() else 1

    def render(self) -> str:
        return self.ring._render(self.payload)

    def __str__(self) -> str:
        return self.render()


ZZ = IntegerRing()


def poly_substitute(p: RingValue, assignment: Mapping[str, RingValue]) -> RingValue:
    """Evaluate a polynomial by substituting values from a single target ring.

    The substitution is a ring homomorphism; every variable of p must be
    assigned, and all assigned values must share one ring.
    """
    if not isinstance(p.ring, PolynomialRing):
        raise TypeError("poly_substitute expects a polynomial value")
    names = p.ring.variables
    missing = [v for v in names if v not in assignment]
    if missing:
        raise KeyError(f"missing assignment for variable(s): {', '.join(missing)}")
    values = [assignment[v] for v in names]
    target = values[0].ring if values else ZZ
    for v in values:
        if v.ring != target:
            raise RingMismatchError("assigned values must share one ring")
    out = target.zero()
    for exps, coeff in p.payload:
        term = target.from_int(coeff)
        for val, k in zip(values, exps):
            term = term * val**k
        out = out + term
    return out


_TOKEN = re.compile(r"\s*(?:(\d[\d_]*)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()]))")


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at: {text[pos:]!r}")
            break
        num, name, op = m.groups()
        if num is not None:
            if len(num) - num.count("_") > MAX_INT_DIGITS:
                raise ParseError(f"integer literal longer than {MAX_INT_DIGITS} digits")
            tokens.append(("int", int(num)))
        elif name is not None:
            tokens.append(("name", name))
        else:
            tokens.append(("op", op))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the shared element grammar.

    expression := term (('+'|'-') term)*
    term       := factor ('*' factor)*
    factor     := '-' factor | atom ('^' int)?
    atom       := int | name | '(' expression ')'

    Limits: a literal has at most MAX_INT_DIGITS digits, an exponent is at
    most MAX_EXPONENT, and over ZZ and the nil plane every coefficient of
    every intermediate value has at most MAX_INT_DIGITS digits; anything
    larger is a ParseError.
    """

    def __init__(self, ring: Ring, text: str):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> RingValue:
        value = self.expression()
        if self.pos != len(self.tokens):
            raise ParseError("trailing input after expression")
        return value

    def expression(self) -> RingValue:
        value = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            value = self._sized(value + rhs if op == "+" else value - rhs)
        return value

    def term(self) -> RingValue:
        value = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            value = self._sized(value * self.factor())
        return value

    def _coefficients(self, value: RingValue) -> tuple:
        """The integers the size limit applies to, constant term first."""
        if isinstance(self.ring, IntegerRing):
            return (value.payload,)
        if isinstance(self.ring, NilPlaneRing):
            return value.payload
        return ()

    def _sized(self, value: RingValue) -> RingValue:
        if any(abs(c) >= _ZZ_LIMIT for c in self._coefficients(value)):
            raise ParseError(f"integer value longer than {MAX_INT_DIGITS} digits")
        return value

    def factor(self) -> RingValue:
        if self.peek() == ("op", "-"):
            self.take()
            return -self.factor()
        value = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, n = self.take()
            if kind != "int":
                raise ParseError("exponent must be an integer literal")
            if n > MAX_EXPONENT:
                raise ParseError(f"exponent larger than {MAX_EXPONENT}")
            # the power's constant term is b^n for the base's constant term b,
            # and |b|^n >= 2^(n*(bit_length(b)-1)): refuse a too-large power unbuilt
            coefficients = self._coefficients(value)
            if (coefficients and
                    n * (abs(coefficients[0]).bit_length() - 1) >= _ZZ_LIMIT.bit_length()):
                raise ParseError(f"integer value longer than {MAX_INT_DIGITS} digits")
            value = self._sized(value**n)
        return value

    def atom(self) -> RingValue:
        kind, val = self.take()
        if kind == "int":
            return self.ring.from_int(val)
        if kind == "name":
            if isinstance(self.ring, PolynomialRing) and val in self.ring.variables:
                return self.ring.gen(val)
            if isinstance(self.ring, NilPlaneRing) and val in ("x", "y"):
                return self.ring.x() if val == "x" else self.ring.y()
            raise ParseError(f"unknown symbol {val!r} for ring {self.ring}")
        if (kind, val) == ("op", "("):
            value = self.expression()
            if self.take() != ("op", ")"):
                raise ParseError("expected closing parenthesis")
            return value
        raise ParseError("unexpected end of input")


def parse_value(ring: Ring, text: str) -> RingValue:
    """Parse an element of the given ring from its canonical text grammar."""
    return _Parser(ring, text).parse()
