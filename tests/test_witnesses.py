import math
import random
import time
from collections import Counter

import pytest

from commdet.mat2 import Mat2, commutator
from commdet.quadforms import QuadForm, value_set_mod
from commdet.rings import ModularRing, NilPlaneRing, PolynomialRing, RingValue, ZZ
from commdet.witnesses import (
    MAX_DIVISOR_TARGET,
    SurfacePoint,
    constant_diagonal_value,
    corollary_6_17_witnesses,
    curve_congruences,
    curve_map,
    extract_norm_witness,
    extract_representation,
    factor_construct,
    nilplane_counterexample_check,
    nilplane_in_Vyy,
    preimage_search,
    scalar_characterization_check,
    taussky_construct,
    to_discriminant_witness,
    traceless_PQ,
    _curve_point,
)

from oracles import conic_preimages, extract_accepts_four_equations, is_sum_of_two_squares_scan

X0 = Mat2.from_ints(ZZ, [[0, 4], [-2, 1]])
Y0 = Mat2.from_ints(ZZ, [[4, 3], [3, 0]])


def zz(*vals):
    return tuple(ZZ.from_int(v) for v in vals)


def test_companion_pair_integer_examples():
    rng = random.Random(61)
    for _ in range(200):
        t, delta, x, y = (ZZ.from_int(rng.randint(-9, 9)) for _ in range(4))
        X, Y = taussky_construct(t, delta, x, y)
        value = x ** 2 + t * x * y + delta * y ** 2
        assert (-commutator(X, Y).det()) == value


def test_companion_pair_symbolic():
    ring = PolynomialRing(("t", "delta", "x", "y"))
    g = ring.gens()
    X, Y = taussky_construct(g["t"], g["delta"], g["x"], g["y"])
    value = g["x"] ** 2 + g["t"] * g["x"] * g["y"] + g["delta"] * g["y"] ** 2
    assert (commutator(X, Y).det() + value).is_zero()


def test_extract_norm_witness_example():
    w = extract_norm_witness(X0, Y0)
    assert (w.u.payload, w.v.payload) == (-36, -5)
    assert w.c.payload == -2
    assert (w.t.payload, w.delta.payload) == (1, 8)
    assert w.certified_value.payload == 1676
    u0, v0 = to_discriminant_witness(w)
    assert (u0.payload, v0.payload) == (-77, -5)
    # u0^2 - Disc*v0^2 = 4 * certified value with Disc = t^2 - 4*delta = -31
    assert u0.payload ** 2 + 31 * v0.payload ** 2 == 4 * 1676 == 6704


def test_extract_norm_witness_degenerate_corner():
    # zero (2,1) entry in X certifies the zero value
    X = Mat2.from_ints(ZZ, [[2, 3], [0, 5]])
    Y = Mat2.from_ints(ZZ, [[1, 4], [7, 2]])
    w = extract_norm_witness(X, Y)
    assert w.c.is_zero()
    assert w.certified_value.is_zero()


def test_extract_norm_witness_randomized():
    rng = random.Random(67)
    for _ in range(500):
        X = Mat2.from_ints(ZZ, [[rng.randint(-9, 9) for _ in range(2)]
                                for _ in range(2)])
        Y = Mat2.from_ints(ZZ, [[rng.randint(-9, 9) for _ in range(2)]
                                for _ in range(2)])
        w = extract_norm_witness(X, Y)
        lhs = w.u ** 2 + w.t * w.u * w.v + w.delta * w.v ** 2
        assert lhs == w.certified_value
        assert w.certified_value == -(w.c ** 2) * commutator(X, Y).det()
        u0, v0 = to_discriminant_witness(w)
        disc = w.t ** 2 - ZZ.from_int(4) * w.delta
        assert u0 ** 2 - disc * v0 ** 2 == ZZ.from_int(4) * w.certified_value


def test_traceless_pq_example():
    X = Mat2.from_ints(ZZ, [[1, 2], [3, -1]])
    Y = Mat2.from_ints(ZZ, [[2, 1], [4, -2]])
    P, Q = traceless_PQ(X, Y)
    disc = ZZ.from_int(-4) * X.det()
    assert P ** 2 - disc * Q ** 2 == -(X.m21 ** 2) * commutator(X, Y).det()


def test_traceless_pq_symbolic():
    ring = PolynomialRing(("a", "b", "c", "e", "f", "g"))
    g = ring.gens()
    X = Mat2(g["a"], g["b"], g["c"], -g["a"])
    Y = Mat2(g["e"], g["f"], g["g"], -g["e"])
    P, Q = traceless_PQ(X, Y)
    disc = ring.from_int(-4) * X.det()
    residual = P ** 2 - disc * Q ** 2 + g["c"] ** 2 * commutator(X, Y).det()
    assert residual.is_zero()


def test_traceless_pq_self_pair_vanishes():
    X = Mat2.from_ints(ZZ, [[2, 5], [-3, -2]])
    P, Q = traceless_PQ(X, X)
    assert P.is_zero() and Q.is_zero()


def test_traceless_pq_rejects_nonzero_trace():
    with pytest.raises(ValueError):
        traceless_PQ(X0, Y0)


def test_constant_diagonal_scalar_x_gives_zero():
    X = Mat2.identity(ZZ).scale(ZZ.from_int(3))
    Y = Mat2.from_ints(ZZ, [[1, 2], [3, 4]])
    assert constant_diagonal_value(X, Y).is_zero()


def test_constant_diagonal_rejects_unequal_diagonal():
    with pytest.raises(ValueError):
        constant_diagonal_value(Y0, X0)


def test_constant_diagonal_randomized():
    rng = random.Random(71)
    for _ in range(300):
        a, b, c = (rng.randint(-6, 6) for _ in range(3))
        X = Mat2.from_ints(ZZ, [[a, b], [c, a]])
        Y = Mat2.from_ints(ZZ, [[rng.randint(-6, 6) for _ in range(2)]
                                for _ in range(2)])
        value = constant_diagonal_value(X, Y)
        assert value == -commutator(X, Y).det()


@pytest.mark.parametrize("c", [0, 1, 2])
def test_constant_diagonal_value_set_matches_form_mod_3(c):
    # with b = 1 the reachable values over Z/3 are exactly the values
    # of the binary form u^2 - c*w^2
    ring = ModularRing(3)
    X = Mat2.from_ints(ring, [[0, 1], [c, 0]])
    reached = set()
    for entries in ((w, x, y, v) for w in range(3) for x in range(3)
                    for y in range(3) for v in range(3)):
        Y = Mat2.from_ints(ring, [[entries[0], entries[1]],
                                  [entries[2], entries[3]]])
        reached.add(constant_diagonal_value(X, Y).payload)
    expected = value_set_mod(QuadForm.diagonal(ring, 1, -c))
    assert reached == expected


def test_factor_construct_example():
    p, q, c, r, s = zz(-3, 8, 5, 1, 1)
    w = factor_construct(p, q, c, r, s)
    assert w.X == Mat2.from_ints(ZZ, [[-2, -7], [-3, -3]])
    assert w.Y == Mat2.from_ints(ZZ, [[-7, 8], [2, -8]])
    assert w.X * w.Y == w.A.scale(c)
    assert commutator(w.X, w.Y).det().payload == -25
    assert w.X1 == w.Y.adjoint()
    assert w.Y1 == -w.X.adjoint()


def test_factor_construct_randomized():
    rng = random.Random(73)
    for _ in range(500):
        p, q, r, s = (rng.randint(-9, 9) for _ in range(4))
        c = p * r * r + q * s * s
        w = factor_construct(*zz(p, q, c, r, s))
        cv = ZZ.from_int(c)
        assert w.X.det() == cv * w.p
        assert w.Y.det() == cv * w.q
        assert w.X1.det() == cv * w.q
        assert w.Y1.det() == cv * w.p
        assert (commutator(w.X, w.Y).det() + cv ** 2).is_zero()
        assert (commutator(w.X1, w.Y1).det() + cv ** 2).is_zero()


def test_factor_construct_rejects_conic_violation():
    with pytest.raises(ValueError, match="conic"):
        factor_construct(*zz(-3, 8, 6, 1, 1))


def test_extract_representation_round_trip():
    p, q, c, r, s = zz(-3, 8, 5, 1, 1)
    w = factor_construct(p, q, c, r, s)
    rep = extract_representation(w.X1, w.Y1, p, q, c)
    assert (rep.r1.payload, rep.r2.payload) == (-1, 1)
    assert p * rep.r1 ** 2 + q * rep.r2 ** 2 == c
    rng = random.Random(79)
    for _ in range(200):
        pi, qi, ri, si = (rng.randint(-9, 9) for _ in range(4))
        ci = pi * ri * ri + qi * si * si
        if ci == 0:
            continue
        wi = factor_construct(*zz(pi, qi, ci, ri, si))
        repi = extract_representation(wi.X1, wi.Y1, wi.p, wi.q, wi.c)
        assert (wi.p * repi.r1 ** 2 + wi.q * repi.r2 ** 2) == wi.c


def test_extract_representation_rejects_zero_divisor_c():
    p, q, c, r, s = zz(1, -1, 0, 2, 2)
    w = factor_construct(p, q, c, r, s)
    with pytest.raises(ValueError, match="cancellable"):
        extract_representation(w.X1, w.Y1, p, q, c)
    ring = ModularRing(6)
    pm = Mat2.zero(ring)
    with pytest.raises(ValueError, match="cancellable"):
        extract_representation(pm, pm, ring.from_int(1), ring.from_int(1),
                               ring.from_int(2))


def test_extract_representation_rejects_corrupted_witness():
    p, q, c, r, s = zz(-3, 8, 5, 1, 1)
    w = factor_construct(p, q, c, r, s)
    bad = w.X1 + Mat2.identity(ZZ)
    with pytest.raises(ValueError):
        extract_representation(bad, w.Y1, p, q, c)
    # every equation but det[X1,Y1] = -c^2 holds, and the conic is missed
    one = ZZ.one()
    X1 = Mat2.from_ints(ZZ, [[-4, -1], [1, 0]])
    Y1 = Mat2.from_ints(ZZ, [[-1, 0], [4, -1]])
    assert commutator(X1, Y1).det().payload == -16
    with pytest.raises(ValueError, match="conic"):
        extract_representation(X1, Y1, one, one, one)


def test_supertrace_formula_ties_the_commutator_to_the_conic():
    # I_4_5 rearranged: the other factorization equations and the conic
    # on the supertraces give det[X1,Y1] = -c^2 for cancellable c
    ring = PolynomialRing(tuple("abcdefgh") + ("p", "q", "k"))
    g = ring.gens()
    X = Mat2(g["a"], g["b"], g["c"], g["d"])
    Y = Mat2(g["e"], g["f"], g["g"], g["h"])
    p, q, c = g["p"], g["q"], g["k"]
    r, s = X.supertrace(), Y.supertrace()
    lhs = -commutator(X, Y).det() - c * (p * r ** 2 + q * s ** 2)
    rhs = ((X.det() - c * q) * s ** 2 + (Y.det() - c * p) * r ** 2
           + (X * Y).trace() * r * s - (X * Y).supertrace() * (Y * X).supertrace())
    assert (lhs - rhs).is_zero()
    # X*Y = c*A has trace and supertrace 0, as A = [[0,q],[-p,0]] does
    A = Mat2(ring.zero(), q, -p, ring.zero())
    assert A.trace().is_zero() and A.supertrace().is_zero()


def _rows(M):
    return ((M.m11.payload, M.m12.payload), (M.m21.payload, M.m22.payload))


def _extract_case(rng):
    """(n, p, q, c, X1 rows, Y1 rows): a witness, a solved pair or a random pair."""
    n = rng.choice((0, 0, 5, 6, 8, 9, 12, 13, 16, 30))
    ring = ModularRing(n) if n else ZZ
    p, q = rng.randint(-9, 9), rng.randint(-9, 9)
    kind = rng.randrange(3)
    if kind == 0:
        r, s = rng.randint(-9, 9), rng.randint(-9, 9)
        c = p * r * r + q * s * s
        w = factor_construct(*(ring.from_int(v) for v in (p, q, c, r, s)))
        x1, y1 = [list(row) for row in _rows(w.X1)], _rows(w.Y1)
        if rng.random() < 0.5:
            x1[rng.randrange(2)][rng.randrange(2)] += rng.choice((-1, 1)) * rng.randint(1, 3)
        x1 = tuple(map(tuple, x1))
    elif kind == 1:
        # Y1 = q^-1 * adj(X1) * A and c = q^-1 * det X1 satisfy every
        # equation but the commutator and the conic
        q = rng.choice((-1, 1)) if not n else rng.choice([u for u in range(1, n)
                                                          if math.gcd(u, n) == 1])
        inv = q if not n else pow(q, -1, n)
        (a, b), (e, d) = x1 = tuple(tuple(rng.randint(-6, 6) for _ in range(2)) for _ in range(2))
        c = (a * d - b * e) * inv
        y1 = ((b * p * inv, d * q * inv), (-a * p * inv, -e * q * inv))
    else:
        c = rng.randint(-20, 20)
        x1, y1 = (tuple(tuple(rng.randint(-6, 6) for _ in range(2)) for _ in range(2))
                  for _ in range(2))
    if n:
        p, q, c = p % n, q % n, c % n
    return n, p, q, c, x1, y1


def test_extract_representation_matches_four_equation_reference():
    rng = random.Random(97)
    outcomes = Counter()
    for _ in range(3000):
        n, p, q, c, x1, y1 = _extract_case(rng)
        ring = ModularRing(n) if n else ZZ
        args = (Mat2.from_ints(ring, x1), Mat2.from_ints(ring, y1),
                ring.from_int(p), ring.from_int(q), ring.from_int(c))
        try:
            extract_representation(*args)
            outcome = "accepted"
        except ValueError as err:
            # "c", "factorization" or "corrupted": which check refused
            outcome = str(err).split()[0]
        want = extract_accepts_four_equations(x1, y1, p, q, c, n)
        assert (outcome == "accepted") == want, (n, p, q, c, x1, y1, outcome)
        outcomes[outcome] += 1
    # the conic alone rejects many pairs that pass every other check
    assert min(outcomes[k] for k in ("accepted", "c", "factorization", "corrupted")) >= 100, outcomes


def test_curve_map_examples():
    cases = [
        ((1, 1), (15, 5, -10)),
        ((1, -1), (-17, -7, -12)),
        ((3, 2), (87, 32, -53)),
        ((-3, 2), (-105, -40, -65)),
    ]
    for (r, s), expected in cases:
        c = -3 * r * r + 8 * s * s
        pt = curve_map(*zz(-3, 8, c, r, s))
        assert (pt.x.payload, pt.y.payload, pt.z.payload) == expected


def test_curve_map_guarantees_and_evenness():
    rng = random.Random(83)
    for _ in range(300):
        p, q, r, s = (rng.randint(-9, 9) for _ in range(4))
        c = p * r * r + q * s * s
        pt = curve_map(*zz(p, q, c, r, s))
        assert p * pt.x.payload + q * pt.y.payload == -c
        assert pt.x.payload * pt.y.payload - pt.z.payload ** 2 == -c * c
        neg = curve_map(*zz(p, q, c, -r, -s))
        assert neg == pt


def test_curve_map_rejects_conic_violation():
    with pytest.raises(ValueError, match="conic"):
        curve_map(*zz(-3, 8, 4, 1, 1))


def test_curve_congruences_report():
    pt = curve_map(*zz(-3, 8, 5, 1, 1))
    cong = curve_congruences(-3, 8, 5, 1, 1, pt)
    assert cong == {
        "x_cong_minus_r2_mod_2q": True,
        "y_cong_minus_s2_mod_2p": True,
        "z_cong_c_mod_s": True,
        "z_cong_minus_c_mod_r": True,
    }
    # degenerate modulus 0 still reports (mod 0 means equality)
    pt0 = curve_map(*zz(-3, 8, -3, 1, 0))
    cong0 = curve_congruences(-3, 8, -3, 1, 0, pt0)
    assert cong0["z_cong_c_mod_s"] == (pt0.z.payload == -3)


def test_curve_point_is_linear_in_squares_and_product():
    # with u = r*s the three relations preimage_search solves
    ring = PolynomialRing(("p", "q", "r", "s"))
    g = ring.gens()
    p, q, r, s = g["p"], g["q"], g["r"], g["s"]
    two, four = ring.from_int(2), ring.from_int(4)
    u = r * s
    pt = _curve_point(p, q, r, s)
    assert pt.x == two * q * u - r ** 2
    assert pt.y == -two * p * u - s ** 2
    assert pt.z + p * pt.x - q * pt.y == (ring.one() + four * p * q) * u


def test_preimage_search_examples():
    hits, bounded = preimage_search(-3, 8, 5, (15, 5, 10))
    assert hits == [] and not bounded
    hits, bounded = preimage_search(-3, 8, 5, (15, 5, -10))
    assert hits == [(-1, -1), (1, 1)] and not bounded
    hits, bounded = preimage_search(-3, 8, 5, (87, 32, -53))
    assert hits == [(-3, -2), (3, 2)] and not bounded


def test_preimage_search_bounded_fallback():
    # z = -c = 0 once took the bounded box scan; it is solved exactly now
    assert preimage_search(1, 1, 0, (0, 0, 0)) == ([(0, 0)], False)
    # s = 0 forces z = c != 0
    pt = curve_map(*zz(2, 1, 2, 1, 0))
    assert pt.z.payload == 2
    hits, bounded = preimage_search(2, 1, 2,
                                    (pt.x.payload, pt.y.payload, pt.z.payload))
    assert not bounded
    assert hits == [(-1, 0), (1, 0)]


def _image(p, q, r, s):
    return r * (2 * q * s - r), -s * (2 * p * r + s), r * s + p * r * r - q * s * s


def test_preimage_search_matches_oracle():
    rng = random.Random(89)
    found = set()
    for _ in range(400):
        p, q = (rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(2))
        r, s = (rng.choice((-1, 1)) * rng.randint(1, 60) for _ in range(2))
        c = p * r * r + q * s * s
        x, y, z = _image(p, q, r, s)
        for pt in ((x, y, z), (x, y, -z), (x + rng.randint(1, 3), y, z)):
            hits, bounded = preimage_search(p, q, c, pt)
            assert not bounded
            assert hits == conic_preimages(p, q, c, *pt), (p, q, c, pt)
            found.add(bool(hits))
    assert found == {True, False}


def test_preimage_search_bounded_branch_matches_oracle():
    # r = 0 or s = -2*p*r gives z = -c, which once took the bounded box
    # scan; s = 0 or r = 2*q*s gives z = c
    cases = [(1, 1, 0, 2), (3, -2, 0, -1), (2, 5, 4, 0), (-3, 4, -2, 0), (1, 2, 4, 1),
             (-2, 1, -2, -1), (2, -3, 1, -4)]
    for p, q, r, s in cases:
        c = p * r * r + q * s * s
        pt = _image(p, q, r, s)
        hits, bounded = preimage_search(p, q, c, pt)
        assert not bounded and (r, s) in hits
        assert hits == conic_preimages(p, q, c, *pt), (p, q, r, s)


def test_preimage_search_bounded_branch_misses_points_outside_the_box():
    # z = -c once took a box scan over |r|, |s| <= 10^4 and missed this
    # point; it is solved exactly now and nothing is bounded
    big = 10 ** 4 + 1
    pt = _image(1, 1, 0, big)
    assert pt[2] == -big * big
    assert conic_preimages(1, 1, big * big, *pt) == [(0, -big), (0, big)]
    assert preimage_search(1, 1, big * big, pt) == ([(0, -big), (0, big)], False)


def test_preimage_search_cap_applies_only_to_divisor_rows():
    # the size cap once refused (0, 0, c) on the z = c divisor rows; no
    # cap remains, and z = c has no preimage there
    c, s = 6 * 10 ** 11, 10 ** 4
    pt = _image(1, 6000, 0, s)
    assert pt[2] == -c
    assert preimage_search(1, 6000, c, pt) == ([(0, -s), (0, s)], False)
    assert conic_preimages(1, 6000, c, *pt) == [(0, -s), (0, s)]
    assert preimage_search(1, 6000, c, (0, 0, c)) == ([], False)
    assert conic_preimages(1, 6000, c, 0, 0, c) == []


def _z_equals_c_case(rng, top, coef=9):
    # s = 0 or r = 2*q*s
    p, q = rng.randint(-coef, coef), rng.randint(-coef, coef)
    if rng.random() < 0.5:
        return p, q, rng.randint(-top, top), 0
    s = rng.randint(-top, top) // (2 * abs(q)) if q else rng.randint(-top, top)
    return p, q, 2 * q * s, s


def _z_equals_minus_c_case(rng, top, coef=9):
    # r = 0 or s = -2*p*r
    p, q = rng.randint(-coef, coef), rng.randint(-coef, coef)
    if rng.random() < 0.5:
        return p, q, 0, rng.randint(-top, top)
    r = rng.randint(-top, top) // (2 * abs(p)) if p else rng.randint(-top, top)
    return p, q, r, -2 * p * r


def _check_z_class_against_oracle(rng, draw, sign):
    """2,000 seeded points with z = sign*c, |r| or |s| up to 10^6, against the oracle."""
    checked, far = 0, 0
    while checked < 2000:
        # one draw in fifty reaches 10^6
        p, q, r, s = draw(rng, 10 ** 6 if rng.random() < 0.02 else 10 ** 3)
        c = p * r * r + q * s * s
        # the oracle trial-divides z - c, which is 0 or 2*c
        if 2 * abs(c) > 10 ** 12:
            continue
        x, y, z = _image(p, q, r, s)
        assert z == sign * c
        bump = rng.choice((-1, 1)) * rng.randint(1, 3)
        moved = (x + bump, y, z) if rng.random() < 0.5 else (x, y + bump, z)
        for pt in ((x, y, z), moved):
            hits, bounded = preimage_search(p, q, c, pt)
            assert not bounded
            assert hits == conic_preimages(p, q, c, *pt), (p, q, c, pt)
            assert pt == moved or (r, s) in hits
            checked += 1
        far += max(abs(r), abs(s)) > 10 ** 5
    assert far >= 5


def test_preimage_search_z_equals_c_matches_oracle():
    big = 10 ** 4 + 1
    pt = _image(1, 1, big, 0)
    assert pt[2] == big * big
    assert preimage_search(1, 1, big * big, pt) == ([(-big, 0), (big, 0)], False)
    _check_z_class_against_oracle(random.Random(101), _z_equals_c_case, 1)


def test_preimage_search_z_equals_minus_c_matches_oracle():
    _check_z_class_against_oracle(random.Random(103), _z_equals_minus_c_case, -1)


@pytest.mark.parametrize("z, c", [(10 ** 12, 1), (0, -10 ** 12 - 1), (-(10**30), 1)])
def test_preimage_search_answers_targets_above_the_old_cap(z, c):
    # |z| + |c| above 10^12 was refused.  With x = y = 0 and p = q = 1 a
    # hit needs r^2 = 2*r*s = -s^2, so r = s = 0 and z = 0
    assert preimage_search(1, 1, c, (0, 0, z)) == ([], False)
    if abs(z - c) <= 2 * 10 ** 12:
        assert conic_preimages(1, 1, c, 0, 0, z) == []


def _any_case(rng, top, coef=9):
    return (rng.randint(-coef, coef), rng.randint(-coef, coef),
            rng.randint(-top, top), rng.randint(-top, top))


def test_preimage_search_finds_planted_pairs_far_above_the_old_cap():
    # a point in the image fixes r^2, s^2 and r*s, so its preimages are
    # exactly (r, s) and (-r, -s), whatever the size
    rng = random.Random(107)
    checked = 0
    start = time.perf_counter()
    for digits in (7, 20, 100, 300):
        for draw, sign in ((_any_case, None), (_z_equals_c_case, 1), (_z_equals_minus_c_case, -1)):
            for _ in range(50):
                p, q, r, s = draw(rng, 10 ** digits, 9 if digits == 7 else 10 ** digits)
                c = p * r * r + q * s * s
                pt = _image(p, q, r, s)
                if abs(pt[2]) + abs(c) <= 10 ** 12:
                    continue
                assert sign is None or pt[2] == sign * c
                hits, bounded = preimage_search(p, q, c, pt)
                assert not bounded
                assert hits == sorted({(r, s), (-r, -s)}), (p, q, r, s)
                for a, b in hits:
                    assert p * a * a + q * b * b == c and _image(p, q, a, b) == pt
                checked += 1
    assert checked >= 500
    assert time.perf_counter() - start < 1


def test_corollary_6_17_big_witness():
    p, q, c = zz(37, -67, 1)
    r = ZZ.from_int(264_638_639_242)
    s = ZZ.from_int(196_660_308_201)
    pt, mirrored = corollary_6_17_witnesses(p, q, c, r, s)
    assert p * pt.x + q * pt.y == -c
    assert pt.x * pt.y - pt.z ** 2 == -(c ** 2)
    assert p * mirrored.x + q * mirrored.y == c
    assert mirrored.x * mirrored.y - mirrored.z ** 2 == -(c ** 2)
    for v in (pt.x, pt.y, pt.z):
        assert len(str(abs(v.payload))) >= 19


def test_plane_quadric_triples_small():
    # -8x + 13y = xy - z^2 = -1 at (5, 3, 4)
    assert -8 * 5 + 13 * 3 == -1
    assert 5 * 3 - 4 * 4 == -1
    # the family member for p = 2, q = 3 at (1, -1, 0)
    assert 2 * 1 + 3 * (-1) == -1
    assert 1 * (-1) - 0 * 0 == -1


def test_nilplane_membership():
    nil = NilPlaneRing()
    assert nilplane_in_Vyy(RingValue(nil, (0, 0, 5)))
    assert nilplane_in_Vyy(RingValue(nil, (0, 0, 0)))
    assert not nilplane_in_Vyy(RingValue(nil, (0, 0, 3)))
    assert not nilplane_in_Vyy(nil.x())
    assert nilplane_in_Vyy(nil.y())  # y = y*1^2 + y*0^2
    assert not nilplane_in_Vyy(nil.one())
    assert not nilplane_in_Vyy(RingValue(nil, (0, 1, 5)))
    sums = {a * a + b * b for a in range(15) for b in range(15)}
    for m in range(-5, 200):
        assert nilplane_in_Vyy(RingValue(nil, (0, 0, m))) == (m in sums), m
    # 10^12 = 0^2 + (10^6)^2; one more is refused, not searched
    assert nilplane_in_Vyy(RingValue(nil, (0, 0, MAX_DIVISOR_TARGET)))
    with pytest.raises(ValueError, match=f"^y-coefficient must be <= {MAX_DIVISOR_TARGET}$"):
        nilplane_in_Vyy(RingValue(nil, (0, 0, MAX_DIVISOR_TARGET + 1)))
    with pytest.raises(TypeError):
        nilplane_in_Vyy(ZZ.from_int(1))


def test_nilplane_in_Vyy_matches_square_scan():
    nil = NilPlaneRing()
    for m in range(-5, 20_001):
        assert nilplane_in_Vyy(RingValue(nil, (0, 0, m))) == is_sum_of_two_squares_scan(m), m
    # 10^12 = (10^6)^2; a prime = 1 (mod 4); twice a prime = 3 (mod 4)
    for m in (MAX_DIVISOR_TARGET, 999_999_999_989, 999_999_999_958):
        assert nilplane_in_Vyy(RingValue(nil, (0, 0, m))) == is_sum_of_two_squares_scan(m), m


def test_nilplane_in_Vyy_near_the_cap_is_fast():
    # 10^12 - 1 = 3^3 * 7 * 11 * 13 * 37 * 101 * 9901; a scan of a^2 + b^2 took 0.5 s or more
    c = RingValue(NilPlaneRing(), (0, 0, MAX_DIVISOR_TARGET - 1))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert not nilplane_in_Vyy(c)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.05


def test_nilplane_counterexample():
    assert nilplane_counterexample_check()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_scalar_characterization(p):
    assert scalar_characterization_check(p)


def test_scalar_characterization_rejects_unsupported_modulus():
    with pytest.raises(ValueError):
        scalar_characterization_check(7)
