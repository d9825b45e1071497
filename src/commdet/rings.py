"""Exact arithmetic in four concrete commutative rings.

Supported rings: arbitrary-precision integers, modular residues Z/n,
sparse multivariate polynomials with integer coefficients, and the
3-dimensional algebra Z[x,y]/(x^2, xy, y^2) ("nil plane").

All values are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import struct
from collections.abc import Mapping
from itertools import filterfalse, repeat

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
    "MAX_PARSE_PAIRS",
]

# Largest exponent parse_value accepts after '^'.
MAX_EXPONENT = 10**4
# Longest integer literal parse_value accepts, and over ZZ the size of every
# parsed value: CPython's default int/str conversion limit
# (sys.get_int_max_str_digits()), so any accepted value can be printed.
MAX_INT_DIGITS = 4300
_ZZ_LIMIT = 10**MAX_INT_DIGITS
# Term products one parse_value call may compute, summed over all of its
# '*' and '^' and weighted up for coefficients of over 1024 bits: the work
# and size of a parsed polynomial grow with this count.
MAX_PARSE_PAIRS = 2**18


class RingMismatchError(ValueError):
    """Raised when operands come from different rings."""


class ParseError(ValueError):
    """Raised on malformed ring-element text."""


def _no_fields(value) -> tuple:
    return ()


class _Frozen:
    """Base of the immutable value classes: fields in __slots__, compared as a tuple.

    A subclass names its fields in __slots__; the fields of a class are
    those of its bases followed by its own.  Values are equal when they
    have the same class and equal fields, and hash as their fields.  The
    repr is Class(field=value, ...).  Assigning or deleting any attribute
    raises AttributeError; __reduce__ rebuilds a value from its fields, so
    copy and pickle work.  __init__ takes the fields positionally or by
    keyword; a subclass may replace it with one that sets each field by
    object.__setattr__.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple([name for c in reversed(cls.__mro__)
                                      for name in c.__dict__.get("__slots__", ())])
        # what __eq__ and __hash__ compare: the field tuple, or the one
        # field itself, read in one C call
        cls._key = staticmethod(operator.attrgetter(*fields) if fields else _no_fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) + len(kwargs) != len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields ({', '.join(fields)})")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name, value in kwargs.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])


class Ring(_Frozen):
    """Base descriptor; concrete rings subclass this."""

    __slots__ = ()

    def zero(self) -> "RingValue":
        return self.from_int(0)

    def one(self) -> "RingValue":
        return self.from_int(1)

    def from_int(self, n: int) -> "RingValue":
        raise NotImplementedError

    def _add(self, a, b) -> object:
        raise NotImplementedError

    def _neg(self, a) -> object:
        raise NotImplementedError

    def _mul(self, a, b) -> object:
        raise NotImplementedError

    def _dot(self, xs, ys) -> object:
        """The payload of sum(x * y for x, y in zip(xs, ys)): a fold of _mul and _add."""
        out = None
        for x, y in zip(xs, ys):
            term = self._mul(x, y)
            out = term if out is None else self._add(out, term)
        return self.zero().payload if out is None else out

    def _is_zero(self, a) -> bool:
        raise NotImplementedError

    def _render(self, a) -> str:
        raise NotImplementedError


class IntegerRing(Ring):
    __slots__ = ()

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


class ModularRing(Ring):
    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        if modulus > 2**64 - 1:
            raise ValueError("modulus too large")
        object.__setattr__(self, "modulus", modulus)

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
_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}
# Entries in the interning table of a codec with 8 or fewer variables and
# 8-bit fields (fewer for longer keys), and codecs kept at once.
_INTERN_CAP = 2**14
_CODEC_CAP = 4


def _field_bits(degree: int) -> int:
    """Width of each packed-key field that holds total degrees up to `degree`."""
    n = degree.bit_length()
    return next((bits for bits in _FIELD_CODES if n <= bits), n)


def _monomial_packers(nvars: int, bits: int):
    """(encode, decode) between exponent vectors and packed keys, in bulk, uncached.

    A key holds the fields (total degree, e0, ..., e_{n-1}), most
    significant first, each `bits` wide.  While no total degree needs more
    than `bits` bits, adding keys multiplies monomials with no carry
    between fields, and integer order is graded-lex order.
    """
    code = _FIELD_CODES.get(bits)
    if code:
        pack = struct.Struct(f">{nvars + 1}{code}").pack
        size = (nvars + 1) * bits // 8
        # pad bytes skip the total degree
        unpack_all = struct.Struct(f">{bits // 8}x{nvars}{code}").iter_unpack

        def encode(exps):
            fields = map(pack, map(sum, exps), *zip(*exps))
            return list(map(int.from_bytes, fields, repeat("big")))

        def decode(keys):
            data = b"".join(map(int.to_bytes, keys, repeat(size), repeat("big")))
            return list(unpack_all(data))

        return encode, decode
    # fields of 64 bits or more: shifts and masks on plain ints
    mask = (1 << bits) - 1
    shifts = range(bits * (nvars - 1), -1, -bits)
    top = bits * nvars

    def encode(exps):
        return [sum(e) << top | sum([x << s for x, s in zip(e, shifts)]) for e in exps]

    def decode(keys):
        return [tuple([k >> s & mask for s in shifts]) for k in keys]

    return encode, decode


@functools.lru_cache(maxsize=_CODEC_CAP)
def _monomial_codec(nvars: int, bits: int):
    """(encode, decode) for one (number of variables, field width); encode is interned.

    encode looks exponent vectors up in one table and packs only those it
    lacks, storing them while the table has room; a full table is kept, not
    cleared.  Operand monomials recur (a product's terms are the next
    product's operands), so the table serves most of them even when the
    products range over more monomials than it holds.  A table of product
    keys costs more than it saves unless products keep to a small set of
    monomials, so decode unpacks every key.
    """
    pack_all, decode = _monomial_packers(nvars, bits)
    # no table holds more key bits than a full one of 8 variables, 8 bits
    cap = min(_INTERN_CAP, _INTERN_CAP * 9 * 8 // ((nvars + 1) * bits))
    table: dict = {}
    get = table.__getitem__

    def encode(exps):
        try:
            return list(map(get, exps))
        except KeyError:
            pass
        missing = list(filterfalse(table.__contains__, exps))
        new = dict(zip(missing, pack_all(missing)))
        if len(table) + len(new) <= cap:
            table.update(new)
        return list(map(new.get, exps, map(table.get, exps)))

    encode.table = table
    return encode, decode


# closes a run in PolynomialRing._add: total degree -1 sorts after every term
_END = ((-1,), 0)


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

    Packing is interned: one codec per (number of variables, field width),
    shared by every ring, owns a table from exponent vector to key, so an
    operand monomial is packed once, not in every product.  The table
    stops growing at _INTERN_CAP (2**14) entries, fewer for keys longer
    than 9 bytes, and is never cleared; at most _CODEC_CAP (4) codecs are
    kept.  Product keys are unpacked in bulk in every call.
    """

    __slots__ = ("variables",)

    def __init__(self, variables: tuple):
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        if any(not v for v in variables):
            raise ValueError("variable names must be nonempty")
        object.__setattr__(self, "variables", variables)

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
        encode, decode = _monomial_codec(len(self.variables), _field_bits(degree))
        terms: dict = {}
        get = terms.get
        for a, b in pairs:
            eb, cb = zip(*b)
            qb = list(zip(encode(eb), cb))
            ea, ca = zip(*a)
            for qa, c in zip(encode(ea), ca):
                for q, cq in qb:
                    k = qa + q
                    terms[k] = get(k, 0) + c * cq
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


class NilPlaneRing(Ring):
    """Z[x,y] with the relations x^2 = y^2 = xy = 0.

    Payload: (c0, c1, c2) standing for c0 + c1*x + c2*y.
    """

    __slots__ = ()

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
        # c1*x + c2*y + c0 is a polynomial payload in descending graded-lex order
        c0, c1, c2 = a
        terms = (((1, 0), c1), ((0, 1), c2), ((0, 0), c0))
        return _XY._render(tuple([t for t in terms if t[1]]))


class RingValue(_Frozen):
    """An immutable element of one concrete ring."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring: Ring, payload: object):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "payload", payload)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # identical rings compare without a call
        return (self.ring, self.payload) == (other.ring, other.payload)

    def __hash__(self):
        return hash((self.ring, self.payload))

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
        # payloads are canonical: equal operands cancel without a merge
        if self.payload == other.payload:
            return self.ring.zero()
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
# renders nil-plane values
_XY = PolynomialRing(("x", "y"))


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


def _product_cost(pairs: int, bits_a: int, bits_b: int) -> int:
    """The parse budget charged for `pairs` products of coefficients of the given bit sizes."""
    return pairs * (1 + (bits_a * bits_b >> 20))


def _power_cost(terms: int, bits: int, n: int, limit: int) -> int:
    """An upper bound on the _product_cost of x ** n.

    x has `terms` terms with coefficients of at most `bits` bits.  The
    bound follows the products of RingValue.__pow__: x ** k has at most
    C(terms-1+k, terms-1) terms, the number of monomials of degree k in
    `terms` symbols, and coefficients below (terms * 2**bits) ** k.  Stops
    early once the cost exceeds `limit`.
    """
    grow = bits + terms.bit_length()
    cost, k = 0, 1
    for bit in bin(n)[3:]:
        size = math.comb(terms - 1 + k, terms - 1)
        cost += _product_cost(size * size, k * grow, k * grow)
        k *= 2
        if bit == "1":
            cost += _product_cost(math.comb(terms - 1 + k, terms - 1) * terms, k * grow, bits)
            k += 1
        if cost > limit:
            break
    return cost


class _Parser:
    """Recursive-descent parser for the shared element grammar.

    expression := term (('+'|'-') term)*
    term       := factor ('*' factor)*
    factor     := '-' factor | atom ('^' int)?
    atom       := int | name | '(' expression ')'

    Limits: a literal has at most MAX_INT_DIGITS digits, an exponent is at
    most MAX_EXPONENT, and over ZZ, the nil plane and polynomial rings
    every coefficient of every intermediate value has at most
    MAX_INT_DIGITS digits.  Before it is computed, every product of
    polynomials is charged its term pairs, weighted up for large
    coefficients (_product_cost), and every power of a polynomial of
    several terms the bound of _power_cost, against one budget of
    MAX_PARSE_PAIRS per parse.  Anything larger is a ParseError.
    """

    def __init__(self, ring: Ring, text: str):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.pos = 0
        self.budget = MAX_PARSE_PAIRS

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
        terms = [self.term()]
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            if isinstance(self.ring, PolynomialRing):
                terms.append(rhs if op == "+" else -rhs)
            else:
                terms[0] = self._sized(terms[0] + rhs if op == "+" else terms[0] - rhs)
        # polynomial terms are added pairwise: a left fold would merge the
        # growing sum once per term, quadratic in the number of terms
        while len(terms) > 1:
            odd = terms[len(terms) & ~1:]
            terms = [self._sized(x + y) for x, y in zip(terms[::2], terms[1::2])] + odd
        return terms[0]

    def term(self) -> RingValue:
        value = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            rhs = self.factor()
            if isinstance(self.ring, PolynomialRing):
                self._charge(_product_cost(len(value.payload) * len(rhs.payload),
                                           self._bits(value), self._bits(rhs)))
            value = self._sized(value * rhs)
        return value

    def _charge(self, cost: int) -> None:
        if cost > self.budget:
            raise ParseError(f"expansion larger than {MAX_PARSE_PAIRS} term products")
        self.budget -= cost

    def _bits(self, value: RingValue) -> int:
        return max([abs(c).bit_length() for c in self._coefficients(value)], default=0)

    def _coefficients(self, value: RingValue) -> tuple:
        """The integers the size limit applies to.

        The first one, if any, is a coefficient whose n-th power is a
        coefficient of value ** n: the constant term of a nil-plane value,
        the leading coefficient of a polynomial.
        """
        if isinstance(self.ring, IntegerRing):
            return (value.payload,)
        if isinstance(self.ring, NilPlaneRing):
            return value.payload
        if isinstance(self.ring, PolynomialRing):
            return tuple([c for _, c in value.payload])
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
            # the power has the coefficient b^n for the first coefficient b,
            # and |b|^n >= 2^(n*(bit_length(b)-1)): refuse a too-large power unbuilt
            coefficients = self._coefficients(value)
            if (coefficients and
                    n * (abs(coefficients[0]).bit_length() - 1) >= _ZZ_LIMIT.bit_length()):
                raise ParseError(f"integer value longer than {MAX_INT_DIGITS} digits")
            if isinstance(self.ring, PolynomialRing) and len(value.payload) > 1:
                self._charge(_power_cost(len(value.payload), self._bits(value), n, self.budget))
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
