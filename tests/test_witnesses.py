import random

import pytest

from commdet.mat2 import Mat2, commutator
from commdet.quadforms import QuadForm, value_set_mod
from commdet.rings import ModularRing, NilPlaneRing, PolynomialRing, RingValue, ZZ
from commdet.witnesses import (
    PREIMAGE_FALLBACK_BOUND,
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
)

from oracles import conic_preimages

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
    with pytest.raises(ValueError, match="factorization equations"):
        extract_representation(X1, Y1, one, one, one)


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


def test_preimage_search_examples():
    hits, bounded = preimage_search(-3, 8, 5, (15, 5, 10))
    assert hits == [] and not bounded
    hits, bounded = preimage_search(-3, 8, 5, (15, 5, -10))
    assert hits == [(-1, -1), (1, 1)] and not bounded
    hits, bounded = preimage_search(-3, 8, 5, (87, 32, -53))
    assert hits == [(-3, -2), (3, 2)] and not bounded


def test_preimage_search_bounded_fallback():
    hits, bounded = preimage_search(1, 1, 0, (0, 0, 0))
    assert bounded
    assert hits == [(0, 0)]
    # s = 0 forces z = c, so genuine hits also go through the bounded path
    pt = curve_map(*zz(2, 1, 2, 1, 0))
    assert pt.z.payload == 2
    hits, bounded = preimage_search(2, 1, 2,
                                    (pt.x.payload, pt.y.payload, pt.z.payload))
    assert bounded
    assert hits == [(-1, 0), (1, 0)]


def test_preimage_search_respects_fallback_bound():
    assert PREIMAGE_FALLBACK_BOUND == 10 ** 4


def _image(p, q, r, s):
    return r * (2 * q * s - r), -s * (2 * p * r + s), r * s + p * r * r - q * s * s


def test_preimage_search_matches_oracle():
    rng = random.Random(89)
    branches = set()
    for _ in range(400):
        p, q = (rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(2))
        r, s = (rng.choice((-1, 1)) * rng.randint(1, 60) for _ in range(2))
        c = p * r * r + q * s * s
        x, y, z = _image(p, q, r, s)
        for pt in ((x, y, z), (x, y, -z), (x + rng.randint(1, 3), y, z)):
            hits, bounded = preimage_search(p, q, c, pt)
            assert bounded == (pt[2] in (c, -c))
            assert hits == conic_preimages(p, q, c, *pt), (p, q, c, pt)
            branches.add((bounded, bool(hits)))
    assert branches >= {(False, True), (False, False)}


def test_preimage_search_bounded_branch_matches_oracle():
    # r = 0 gives z = -c, and s = 0 or r = 2*q*s gives z = c
    cases = [(1, 1, 0, 2), (3, -2, 0, -1), (2, 5, 4, 0), (-3, 4, -2, 0), (1, 2, 4, 1),
             (-2, 1, -2, -1), (2, -3, 1, -4)]
    for p, q, r, s in cases:
        c = p * r * r + q * s * s
        pt = _image(p, q, r, s)
        hits, bounded = preimage_search(p, q, c, pt)
        assert bounded and (r, s) in hits
        assert hits == conic_preimages(p, q, c, *pt), (p, q, r, s)


def test_preimage_search_bounded_branch_misses_points_outside_the_box():
    big = PREIMAGE_FALLBACK_BOUND + 1
    # z = c with |r| out of the box, then z = -c with |s| out of the box
    for r, s, want in ((big, 0, [(-big, 0), (big, 0)]), (0, big, [(0, -big), (0, big)])):
        pt = _image(1, 1, r, s)
        assert abs(pt[2]) == big * big
        assert conic_preimages(1, 1, big * big, *pt) == want
        assert preimage_search(1, 1, big * big, pt) == ([], True)


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
    with pytest.raises(TypeError):
        nilplane_in_Vyy(ZZ.from_int(1))


def test_nilplane_counterexample():
    assert nilplane_counterexample_check()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_scalar_characterization(p):
    assert scalar_characterization_check(p)


def test_scalar_characterization_rejects_unsupported_modulus():
    with pytest.raises(ValueError):
        scalar_characterization_check(7)
