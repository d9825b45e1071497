import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from commdet.rings import (
    MAX_EXPONENT,
    MAX_INT_DIGITS,
    MAX_PARSE_PAIRS,
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

from commdet.rings import _INTERN_CAP, _field_bits, _monomial_codec, _monomial_packers
from commdet.identities import CATALOG

from oracles import linear_pow, poly_add, poly_canon, poly_dot, poly_mul, schoolbook_multiply

MOD7 = ModularRing(7)
POLY3 = PolynomialRing(("a", "b", "c"))
NIL = NilPlaneRing()


def rand_value(ring, rng):
    if isinstance(ring, IntegerRing):
        return ring.from_int(rng.randint(-50, 50))
    if isinstance(ring, ModularRing):
        return ring.from_int(rng.randint(0, ring.modulus - 1))
    if isinstance(ring, NilPlaneRing):
        from commdet.rings import RingValue
        return RingValue(ring, tuple(rng.randint(-9, 9) for _ in range(3)))
    # random sparse polynomial
    out = ring.zero()
    for _ in range(rng.randint(0, 4)):
        term = ring.from_int(rng.randint(-5, 5))
        for name in ring.variables:
            term = term * ring.gen(name) ** rng.randint(0, 2)
        out = out + term
    return out


@pytest.mark.parametrize("ring", [ZZ, MOD7, POLY3, NIL], ids=str)
def test_ring_axioms_randomized(ring):
    rng = random.Random(20240817)
    one = ring.one()
    zero = ring.zero()
    for _ in range(1000):
        a, b, c = (rand_value(ring, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert (a + (-a)).is_zero()


def test_add_examples():
    assert ZZ.from_int(2) + ZZ.from_int(3) == ZZ.from_int(5)
    m8 = ModularRing(8)
    assert m8.from_int(5) + m8.from_int(4) == m8.from_int(1)
    q, a = POLY3.gen("a"), POLY3.gen("b")
    assert ((q * a) + (-(q * a))).payload == ()


def test_mul_examples():
    a, b = POLY3.gen("a"), POLY3.gen("b")
    assert (a + b) * (a - b) == a ** 2 - b ** 2
    x = NIL.x()
    assert (x * x).is_zero()


# largest exponent entry per case: products land in each packed field width
# (total degree below 2^8, 2^16, 2^32, 2^64, and at or above 2^64)
_EXPONENT_SCALES = (2**3, 2**12, 2**28, 2**60, 2**66)


def _field_width(degree):
    return next((bits for bits in (8, 16, 32, 64) if degree < 2**bits), "wide")


def _rand_payload(rng, nvars, big):
    # entries from {0, 1, big} so that products of few variables collide and cancel
    terms = {}
    for _ in range(rng.choice([0, 1, 1, 2, 3, 4, 5])):
        e = tuple(rng.choice((0, 0, 1, big)) for _ in range(nvars))
        terms[e] = rng.choice([-3, -2, -1, 1, 2, 3])
    return poly_canon(terms)


def _assert_canonical(payload):
    assert all(c != 0 for _, c in payload)
    keys = [(sum(e), e) for e, _ in payload]
    assert all(k1 > k2 for k1, k2 in zip(keys, keys[1:]))


def test_poly_kernel_matches_dict_oracle():
    rng = random.Random(20261018)
    widths, sizes = set(), set()
    for i in range(3000):
        nvars = 1 + i % 8
        ring = PolynomialRing(tuple(f"v{j}" for j in range(nvars)))
        big = rng.randint(1, _EXPONENT_SCALES[i // 8 % len(_EXPONENT_SCALES)])
        a, b = _rand_payload(rng, nvars, big), _rand_payload(rng, nvars, big)
        if i % 7 == 0:
            b = tuple((e, -c) for e, c in a)
        got = ring._mul(a, b)
        assert got == poly_mul(a, b) == ring._mul(b, a)
        _assert_canonical(got)
        assert ring._add(a, b) == poly_add(a, b)
        sizes.add(min(len(a), len(b), 2))
        if len(a) > 1 and len(b) > 1:
            widths.add(_field_width(sum(a[0][0]) + sum(b[0][0])))
    assert widths == {8, 16, 32, 64, "wide"}
    assert sizes == {0, 1, 2}


def _dot_degree(xs, ys):
    return max((sum(a[0][0]) + sum(b[0][0]) for a, b in zip(xs, ys) if a and b), default=0)


def test_poly_dot_matches_fold_oracle():
    rng = random.Random(20261019)
    kinds = set()
    for i in range(3000):
        nvars = 1 + i % 8
        ring = PolynomialRing(tuple(f"v{j}" for j in range(nvars)))
        scale = _EXPONENT_SCALES[i // 8 % len(_EXPONENT_SCALES)]
        npairs = i % 5
        xs = [_rand_payload(rng, nvars, rng.randint(1, scale)) for _ in range(npairs)]
        ys = [_rand_payload(rng, nvars, rng.randint(1, scale)) for _ in range(npairs)]
        zero, unit = (0,) * nvars, (1,) + (0,) * (nvars - 1)
        # x - 1, and 2x^(2^k) + 1 whose product with it needs k+1 bits
        low = ((unit, 1), (zero, -1))
        high = (((2 ** (8 + 8 * (i % 4)),) + unit[1:], 2), (zero, 1))
        if i % 6 == 1 and npairs:
            # the last pair cancels the first one
            xs.append(tuple((e, -c) for e, c in xs[0]))
            ys.append(ys[0])
            kinds.add("cancel")
        elif i % 6 == 2:
            # a low-degree first pair, then a pair that needs a wider field
            xs, ys = [low] + xs + [high], [low] + ys + [low]
            kinds.add("widen")
        elif i % 6 == 3 and npairs:
            xs[0] = (xs[0] or low)[:1]
            kinds.add("monomial")
        got = ring._dot(tuple(xs), tuple(ys))
        assert got == poly_dot(xs, ys)
        _assert_canonical(got)
        if not xs:
            assert got == ()
            kinds.add("empty")
        if xs and got == () and any(a and b for a, b in zip(xs, ys)):
            kinds.add("zero")
        if len(xs) == 1:
            assert got == ring._mul(xs[0], ys[0]) == poly_mul(xs[0], ys[0])
        if xs and _field_width(_dot_degree(xs[:1], ys[:1])) != _field_width(_dot_degree(xs, ys)):
            kinds.add("wider later")
    assert kinds == {"cancel", "widen", "monomial", "empty", "zero", "wider later"}


def _reference_key(e, bits):
    """The packed key of an exponent vector: fields (total degree, e0, ...), `bits` wide."""
    key = 0
    for field in (sum(e),) + tuple(e):
        assert field < 2**bits
        key = key << bits | field
    return key


def test_interned_codec_matches_uncached_packers():
    rng = random.Random(20261022)
    _monomial_codec.cache_clear()
    for nvars in (1, 3, 8):
        # the same nvars at every width: one codec per (nvars, width)
        for bits in (8, 16, 32, 64, 80):
            encode, decode = _monomial_packers(nvars, bits)
            codec = _monomial_codec(nvars, bits)
            assert codec is _monomial_codec(nvars, bits)
            top = 2**bits // nvars - 1
            exps = [tuple(rng.choice((0, 1, rng.randint(0, top))) for _ in range(nvars))
                    for _ in range(200)]
            exps += exps[:50]
            want = encode(exps)
            assert want == [_reference_key(e, bits) for e in exps]
            assert decode(want) == exps
            # a partly filled table, then the cached second call
            cached_encode, codec_decode = codec
            cached_encode(exps[::2])
            assert cached_encode(exps) == want
            assert cached_encode.table.keys() >= set(exps)
            assert cached_encode(exps) == want
            assert codec_decode(cached_encode(exps)) == exps
    assert [_field_bits(d) for d in (0, 255, 256, 2**16 - 1, 2**16, 2**32, 2**64 - 1)] == [
        8, 8, 16, 16, 32, 64, 64]
    assert _field_bits(2**64) == 65 and _field_bits(2**80 - 1) == 80


def _spread(i, nvars):
    """The i-th exponent vector with entries 0..6 in base 7, degree at most 6 * nvars."""
    return tuple(i // 7**j % 7 for j in range(nvars))


def test_poly_dot_after_intern_table_fills():
    nvars = 8
    ring = PolynomialRing(tuple(f"v{j}" for j in range(nvars)))
    _monomial_codec.cache_clear()
    encode = _monomial_codec(nvars, 8)[0]
    low = ((((0,) * 7 + (1,)), 1), ((0,) * 8, -1))
    # fill the table past its cap, 1000 monomials per call
    chunks = [poly_canon({_spread(i, 6) + (0, 0): 1 + i % 5 for i in range(j, j + 1000)})
              for j in range(0, _INTERN_CAP + 2000, 1000)]
    for chunk in chunks:
        assert ring._dot((chunk,), (low,)) == poly_mul(chunk, low)
        assert len(encode.table) <= _INTERN_CAP
    assert len(encode.table) > _INTERN_CAP - 1000
    # more than _INTERN_CAP distinct monomials in one operand
    wide = poly_canon({_spread(i, 6) + (0, 0): 1 + i % 5 for i in range(_INTERN_CAP + 1000)})
    assert _field_bits(sum(wide[0][0]) + 1) == 8
    assert ring._dot((wide,), (low,)) == poly_mul(wide, low)
    rng = random.Random(20261023)
    for i in range(3000):
        npairs = 1 + i % 4
        xs = [_rand_payload(rng, nvars, rng.randint(1, 9)) for _ in range(npairs)]
        ys = [_rand_payload(rng, nvars, rng.randint(1, 9)) for _ in range(npairs)]
        got = ring._dot(tuple(xs), tuple(ys))
        assert got == poly_dot(xs, ys)
        _assert_canonical(got)
        assert len(encode.table) <= _INTERN_CAP
    # a full table is kept, not cleared
    assert encode.table.keys() >= {e for e, _ in chunks[0]}
    # longer keys, fewer of them: no more key bits than a full 8-variable table
    for nvars, bits in ((32, 8), (8, 32)):
        encode = _monomial_codec(nvars, bits)[0]
        cap = _INTERN_CAP * 9 * 8 // ((nvars + 1) * bits)
        for j in range(0, cap + 500, 100):
            encode([_spread(i, 5) + (0,) * (nvars - 5) for i in range(j, j + 100)])
            assert len(encode.table) <= cap
        assert len(encode.table) > cap - 100


_SUB_RINGS = [ZZ, MOD7, ModularRing(2**64 - 59), NIL, PolynomialRing(("x",)),
              PolynomialRing(tuple(f"v{j}" for j in range(8)))]


@pytest.mark.parametrize("ring", _SUB_RINGS, ids=str)
def test_sub_cancels_equal_payloads(ring):
    rng = random.Random(20261024)
    zero = ring.zero()
    kinds = set()
    for i in range(3000):
        x, y, z = (rand_value(ring, rng) for _ in range(3))
        if i % 4 == 1:
            # an equal value built by another expression
            y = (x + z) - z if i % 8 == 1 else (x * (z + ring.one())) - x * z
            assert y.payload == x.payload
        elif i % 4 == 2:
            # shares every term of x but one
            y = x + ring.one()
        got = x - y
        assert got == x + (-y)
        if x == y:
            assert got.payload == zero.payload and got.is_zero()
            kinds.add("equal")
        else:
            assert not got.is_zero()
            kinds.add("unequal")
        assert (x - x).payload == zero.payload
    assert kinds == {"equal", "unequal"}


def test_poly_sub_of_equal_expansions():
    g = POLY3.gens()
    a, b, c = g["a"], g["b"], g["c"]
    lhs = (a + b + c) ** 3
    rhs = (a + b + c) * (a + b + c) ** 2
    assert lhs is not rhs and (lhs - rhs).payload == ()
    assert ((a + b) * (a - b) - (a ** 2 - b ** 2)) == POLY3.zero()
    assert (lhs - (rhs + a)).payload == (-a).payload


def test_poly_add_merge_matches_dict_oracle():
    rng = random.Random(20261020)
    for i in range(3000):
        nvars = 1 + i % 8
        ring = PolynomialRing(tuple(f"v{j}" for j in range(nvars)))
        big = rng.randint(1, _EXPONENT_SCALES[i // 8 % len(_EXPONENT_SCALES)])
        a, b = _rand_payload(rng, nvars, big), _rand_payload(rng, nvars, big)
        if i % 5 == 0:
            b = tuple((e, -c) for e, c in a)
        elif i % 5 == 1:
            # a shares some monomials with b, with random coefficients
            b = poly_canon({**dict(b), **{e: rng.choice([-c, c, 2 * c]) for e, c in a[::2]}})
        got = ring._add(a, b)
        assert got == poly_add(a, b) == ring._add(b, a)
        _assert_canonical(got)
    # constants only, including a ring with no variables
    for ring in (PolynomialRing(()), PolynomialRing(("x",))):
        z = (0,) * len(ring.variables)
        assert ring._add(((z, 1),), ((z, 2),)) == ((z, 3),)
        assert ring._add(((z, 1),), ((z, -1),)) == ()
        assert ring._add((), ((z, 5),)) == ((z, 5),)


@pytest.mark.parametrize("ring", [ZZ, MOD7, ModularRing(2**64 - 59), NIL], ids=str)
def test_scalar_dot_matches_int_sums(ring):
    rng = random.Random(20261021)
    modulus = getattr(ring, "modulus", 0)
    for i in range(3000):
        npairs = i % 6
        if isinstance(ring, NilPlaneRing):
            xs = [tuple(rng.randint(-10**6, 10**6) for _ in range(3)) for _ in range(npairs)]
            ys = [tuple(rng.randint(-10**6, 10**6) for _ in range(3)) for _ in range(npairs)]
            want = (sum(x[0] * y[0] for x, y in zip(xs, ys)),
                    sum(x[0] * y[1] + x[1] * y[0] for x, y in zip(xs, ys)),
                    sum(x[0] * y[2] + x[2] * y[0] for x, y in zip(xs, ys)))
        else:
            hi = modulus - 1 if modulus else 10**30
            xs = [rng.randint(0 if modulus else -hi, hi) for _ in range(npairs)]
            ys = [rng.randint(0 if modulus else -hi, hi) for _ in range(npairs)]
            want = sum(x * y for x, y in zip(xs, ys))
            if modulus:
                want %= modulus
        assert ring._dot(tuple(xs), tuple(ys)) == want


def test_nilplane_dot_with_polynomial_coefficients():
    # the nil plane's default _dot folds _mul and _add, so its coefficients
    # may come from any ring
    g = POLY3.gens()
    u = (g["a"], g["b"], POLY3.from_int(2))
    v = (g["c"], POLY3.one(), g["a"] * g["b"])
    w = (POLY3.from_int(-1), g["c"], g["a"])
    got = NIL._dot((u, v), (w, u))
    want = NIL._add(NIL._mul(u, w), NIL._mul(v, u))
    assert got == want
    assert got[0] == -g["a"] + g["c"] * g["a"]


@pytest.mark.parametrize("bits", [8, 16, 32, 64])
def test_poly_mul_at_field_width_boundaries(bits):
    ring = PolynomialRing(("x", "y"))
    for degree in (2**bits - 1, 2**bits):
        # x^(degree-1) - y times x - 2: the product's total degree is `degree`
        a = (((degree - 1, 0), 1), ((0, 1), -1))
        b = (((1, 0), 1), ((0, 0), -2))
        got = ring._mul(a, b)
        assert got == poly_mul(a, b)
        assert got[0] == ((degree, 0), 1)
    # (x^(2^64) + 1) * (x + 1) is exact in fields wider than 64 bits
    got = ring._mul((((2**64, 0), 1), ((0, 0), 1)), (((1, 0), 1), ((0, 0), 1)))
    assert got == (((2**64 + 1, 0), 1), ((2**64, 0), 1), ((1, 0), 1), ((0, 0), 1))


def test_poly_payloads_are_canonical():
    rng = random.Random(5)
    for nvars in (1, 3, 8):
        ring = PolynomialRing(tuple(f"v{j}" for j in range(nvars)))
        pool = list(ring.gens().values()) + [ring.from_int(-2), ring.one()]
        for _ in range(300):
            u, v = rng.choice(pool), rng.choice(pool)
            w = rng.choice([u + v, u - v, u * v, u ** rng.randint(0, 3)])
            _assert_canonical(w.payload)
            if w.term_count() <= 40:
                pool.append(w)
    for ident in CATALOG.values():
        ring = PolynomialRing(ident.symbols)
        for lhs, rhs in ident.build(ring.gens()):
            _assert_canonical(lhs.payload)
            _assert_canonical(rhs.payload)


def test_bigint_multiplication_against_schoolbook():
    n = 264_638_639_242
    prod = ZZ.from_int(n) * ZZ.from_int(n)
    assert prod.payload == schoolbook_multiply(n, n)
    assert prod.payload == 70033609379857422334564
    rng = random.Random(7)
    for _ in range(100):
        a = rng.randint(-10**18, 10**18)
        b = rng.randint(-10**18, 10**18)
        assert (ZZ.from_int(a) * ZZ.from_int(b)).payload == schoolbook_multiply(a, b)


def test_is_zero():
    assert ZZ.from_int(0).is_zero()
    assert ModularRing(6).from_int(6).is_zero()
    from commdet.rings import RingValue
    assert not RingValue(NIL, (0, 0, 1)).is_zero()


def test_modular_canonicalization():
    m6 = ModularRing(6)
    assert m6.from_int(-1) == m6.from_int(5)
    assert m6.from_int(13).payload == 1


def test_descriptor_mismatch_raises():
    with pytest.raises(RingMismatchError):
        ZZ.from_int(1) + MOD7.from_int(1)
    with pytest.raises(RingMismatchError):
        POLY3.gen("a") * PolynomialRing(("a",)).gen("a")


def test_invalid_descriptors():
    with pytest.raises(ValueError):
        ModularRing(1)
    with pytest.raises(ValueError):
        PolynomialRing(("a", "a"))
    with pytest.raises(ValueError):
        PolynomialRing(("a", ""))


def test_nilplane_degree_two_annihilation():
    rng = random.Random(3)
    from commdet.rings import RingValue
    for _ in range(200):
        u = RingValue(NIL, (0, rng.randint(-9, 9), rng.randint(-9, 9)))
        v = RingValue(NIL, (0, rng.randint(-9, 9), rng.randint(-9, 9)))
        assert (u * v).is_zero()


def test_substitute_examples():
    ring = PolynomialRing(("a", "b"))
    p = ring.gen("a") ** 2 + ring.gen("b")
    assert poly_substitute(p, {"a": ZZ.from_int(3), "b": ZZ.from_int(1)}) == ZZ.from_int(10)
    # quantum two vanishes at q = -1
    qring = PolynomialRing(("q",))
    two = qring.gen("q") + qring.one()
    assert poly_substitute(two, {"q": ZZ.from_int(-1)}).is_zero()


def test_substitute_errors():
    ring = PolynomialRing(("a", "b"))
    p = ring.gen("a") + ring.gen("b")
    with pytest.raises(KeyError):
        poly_substitute(p, {"a": ZZ.from_int(1)})
    with pytest.raises(RingMismatchError):
        poly_substitute(p, {"a": ZZ.from_int(1), "b": MOD7.from_int(1)})


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20))
def test_substitute_is_a_homomorphism(x, y, u, v):
    ring = PolynomialRing(("a", "b"))
    a, b = ring.gen("a"), ring.gen("b")
    p = a ** 2 + ring.from_int(u) * b
    q = b ** 2 - ring.from_int(v) * a * b + ring.one()
    binding = {"a": ZZ.from_int(x), "b": ZZ.from_int(y)}
    assert (poly_substitute(p * q, binding)
            == poly_substitute(p, binding) * poly_substitute(q, binding))
    assert (poly_substitute(p + q, binding)
            == poly_substitute(p, binding) + poly_substitute(q, binding))


def test_polynomial_canonical_rendering():
    ring = PolynomialRing(("q", "a", "b", "c", "d"))
    g = ring.gens()
    p = ring.from_int(2) * g["q"] ** 2 * g["a"] * g["d"] - g["b"] * g["c"]
    assert p.render() == "2*q^2*a*d - b*c"
    assert ring.zero().render() == "0"
    assert (-ring.one()).render() == "-1"


def test_nilplane_rendering_matches_polynomial_rendering():
    xy = PolynomialRing(("x", "y"))
    for c0, c1, c2 in itertools.product(range(-2, 3), repeat=3):
        value = RingValue(NIL, (c0, c1, c2))
        text = value.render()
        assert text == xy._render(poly_canon({(0, 0): c0, (1, 0): c1, (0, 1): c2}))
        assert parse_value(NIL, text) == value


def test_parse_round_trip():
    ring = PolynomialRing(("q", "a", "b"))
    rng = random.Random(11)
    for _ in range(100):
        p = rand_value(ring, rng)
        assert parse_value(ring, p.render()) == p
    assert parse_value(ZZ, "264_638_639_242").payload == 264638639242
    assert parse_value(ZZ, "-(3+4)*2").payload == -14


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_value(ZZ, "3 +")
    with pytest.raises(ParseError):
        parse_value(ZZ, "x")
    with pytest.raises(ParseError):
        parse_value(POLY3, "a ^ b")


def _binomial(ring, rng):
    # two random terms: powers up to 64 stay small enough for the linear loop
    out = ring.zero()
    for _ in range(2):
        term = ring.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
        for name in ring.variables:
            term = term * ring.gen(name) ** rng.randint(0, 1)
        out = out + term
    return out


@pytest.mark.parametrize("ring", [ZZ, MOD7, ModularRing(9973), ModularRing(2**64 - 59),
                                  POLY3, NIL], ids=str)
def test_pow_matches_linear_oracle(ring):
    rng = random.Random(20261018)
    exponents = list(range(65))
    if isinstance(ring, (ModularRing, NilPlaneRing)):
        exponents += [rng.randint(65, 10**4) for _ in range(12)] + [10**4]
    for n in exponents:
        bases = [rand_value(ring, rng) for _ in range(3)]
        if isinstance(ring, PolynomialRing):
            # a general random polynomial only while its powers stay small
            bases = [_binomial(ring, rng) for _ in range(2)] + (bases[:1] if n <= 6 else [])
        if isinstance(ring, NilPlaneRing) and n > 64:
            bases += [RingValue(ring, (rng.choice([-1, 1]), rng.randint(-9, 9),
                                       rng.randint(-9, 9)))]
        for x in bases:
            got = x ** n
            assert got.ring == ring
            want = linear_pow(x, n)
            assert got.payload == want.payload
            if n <= 64:
                assert got.render() == want.render()


def test_pow_contract():
    x = ZZ.from_int(3)
    for bad in (-1, 2.0, "2", None):
        with pytest.raises(ValueError):
            x ** bad
    for ring in (ZZ, MOD7, POLY3, NIL):
        assert ring.zero() ** 0 == ring.one()
        assert ring.zero() ** 5 == ring.zero()


class _CountingRing(ModularRing):
    muls = 0

    def _mul(self, a, b):
        _CountingRing.muls += 1
        return super()._mul(a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 1023, 1024, 2**13 + 1, 10**4 - 1, 10**4])
def test_pow_uses_logarithmically_many_multiplications(n):
    ring = _CountingRing(10007)
    x = ring.from_int(5)
    _CountingRing.muls = 0
    got = x ** n
    assert got.payload == pow(5, n, 10007)
    # ceil(log2 n) = (n - 1).bit_length()
    assert _CountingRing.muls <= 2 * (n - 1).bit_length()
    if n == 2:
        assert _CountingRing.muls == 1


def test_parse_exponent_cap():
    assert parse_value(MOD7, f"3^{MAX_EXPONENT}").payload == pow(3, MAX_EXPONENT, 7)
    assert parse_value(NIL, f"(1 + 2*x - y)^{MAX_EXPONENT}").payload == (
        1, 2 * MAX_EXPONENT, -MAX_EXPONENT)
    assert parse_value(ZZ, f"(-1)^{MAX_EXPONENT}").payload == 1
    for ring in (ZZ, MOD7, POLY3, NIL):
        with pytest.raises(ParseError, match="exponent"):
            parse_value(ring, f"0^{MAX_EXPONENT + 1}")
    with pytest.raises(ParseError):
        parse_value(ZZ, "0^3000000")


def test_parse_literal_length_cap():
    assert parse_value(ZZ, "9" * MAX_INT_DIGITS).payload == 10**MAX_INT_DIGITS - 1
    # underscores are separators, not digits
    assert parse_value(ZZ, "1_" * (MAX_INT_DIGITS - 1) + "1").payload == int("1" * MAX_INT_DIGITS)
    for ring in (ZZ, MOD7, NIL):
        with pytest.raises(ParseError, match="literal"):
            parse_value(ring, "7" * (MAX_INT_DIGITS + 1))
        # the exponent literal is bounded before it is read
        with pytest.raises(ParseError, match="literal"):
            parse_value(ring, "2^" + "1" * 5000)


def test_parse_zz_values_stay_printable():
    # the largest accepted power of each base is the largest one that prints
    # (from base 3 on the boundary lies below MAX_EXPONENT)
    limit = 10**MAX_INT_DIGITS
    for b in range(3, 13):
        e, power = 1, b
        while power * b < limit:
            e, power = e + 1, power * b
        assert parse_value(ZZ, f"{b}^{e}").payload == b ** e
        assert parse_value(ZZ, f"-({b})^{e}").payload == -(b ** e)
        with pytest.raises(ParseError, match="longer than"):
            parse_value(ZZ, f"{b}^{e + 1}")
    with pytest.raises(ParseError):
        parse_value(ZZ, "1" + "0" * MAX_INT_DIGITS)
    for text in ("((9^9999)^9999)^9999", "9^4000*9^4000", "(9^4000)^2",
                 "9" * MAX_INT_DIGITS + " + 1", "0 - " + "9" * MAX_INT_DIGITS + " - 1"):
        with pytest.raises(ParseError, match="longer than"):
            parse_value(ZZ, text)
    # the same texts are fine where values are reduced
    assert parse_value(MOD7, "((9^9999)^9999)^9999").payload == pow(9, 9999**3, 7)
    assert parse_value(MOD7, "9^4000*9^4000").payload == pow(9, 8000, 7)


def test_parse_nilplane_values_stay_printable():
    # (b + x)^e = b^e + e*b^(e-1)*x: the largest accepted power is the
    # largest whose coefficients all print
    limit = 10**MAX_INT_DIGITS
    for b in (3, 5, 9, 12):
        e = 1
        while max(b ** (e + 1), (e + 1) * b ** e) < limit:
            e += 1
        assert parse_value(NIL, f"({b} + x)^{e}").payload == (b ** e, e * b ** (e - 1), 0)
        with pytest.raises(ParseError, match="longer than"):
            parse_value(NIL, f"({b} + x)^{e + 1}")
    big = "9" * MAX_INT_DIGITS
    for text in ("((9+x)^9999)^20", "((9+x)^9999)^9999", "(9+x)^4000*(9+x)^4000",
                 f"{big} + 1 + x", f"({big}*y)*2", f"-x - {big}*x"):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="longer than"):
            parse_value(NIL, text)
        assert time.perf_counter() - start < 1


def _refusal_seconds(ring, text, match):
    """Fastest of three parses of `text`, each of which must be refused."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=match):
            parse_value(ring, text)
        times.append(time.perf_counter() - start)
    return min(times)


def test_parse_polynomial_expansion_cap():
    ring = PolynomialRing(("a", "b", "c"))
    power = linear_pow(parse_value(ring, "a+b+c+1"), 20)
    assert parse_value(ring, "(a+b+c+1)^20") == power
    assert parse_value(ring, power.render()) == power
    assert parse_value(ring, "(a+b+c+1)^20 + (a+b+c+1)^20") == power + power
    # refused before expanding
    for text in ("(a+b+c+1)^40", "(a+1)^10000", "(10^100*a+10^100*b+10^100*c+1)^25"):
        assert _refusal_seconds(ring, text, "term products") < 0.05
    # both factors are expanded (about 0.02 s each), their product (about 1 s) is not
    assert _refusal_seconds(ring, "(a+b+c+1)^20*(a+b+c+1)^20", "term products") < 0.25
    # refused once the budget runs out, here while every product and power fits
    for text in ("(a+b+c+1)^20 + (a+b+c+1)^40",
                 " + ".join(["(a+b+c+1)^20"] * 4), "*".join(["(a+b+c+1)^4"] * 8)):
        assert _refusal_seconds(ring, text, f"larger than {MAX_PARSE_PAIRS} term") < 1


def test_parse_polynomial_coefficients_stay_printable():
    ring = PolynomialRing(("a", "b"))
    assert parse_value(ring, "(3*a)^9000").payload == (((9000, 0), 3**9000),)
    big = "9" * MAX_INT_DIGITS
    for text in ("(9^9999)^9999", "(9*a + 1)^9999", "10^4300*a", "(10^2200*a)*(10^2200*b)",
                 f"b + {big}*a + 1 + {big}*a"):
        assert _refusal_seconds(ring, text, "longer than") < 0.05


def test_parse_long_polynomial_sum_is_fast():
    ring = PolynomialRing(("a", "b"))
    text = "+".join(f"a^{k}" for k in range(1, 4000))
    start = time.perf_counter()
    value = parse_value(ring, text)
    assert time.perf_counter() - start < 1
    assert value.payload == tuple(((k, 0), 1) for k in range(3999, 0, -1))
    assert parse_value(ring, "a - a + b - (b - 1)") == ring.one()


def test_parse_zz_sums_fold_left_to_right():
    # every running sum fits, although X + X does not
    big = 6 * 10 ** (MAX_INT_DIGITS - 1)
    assert parse_value(ZZ, f"-{big} + 0 + {big} + {big}").payload == big
    with pytest.raises(ParseError, match="longer than"):
        parse_value(ZZ, f"{big} + {big} - {big}")
