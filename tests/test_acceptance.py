"""Acceptance gate: one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines live;
under the default capture they still appear in the test report output.
"""

import itertools
import math
import random
import time

from commdet.identities import ALL_TAGS, CATALOG, eval_identity, prove_identity
from commdet.mat2 import Mat2, commutator
from commdet.quadforms import (
    QuadForm,
    inclusion_chain_check_mod,
    representable_mod,
    search_representation,
    value_set_mod,
)
from commdet.rings import ModularRing, ZZ
from commdet.witnesses import (
    constant_diagonal_value,
    corollary_6_17_witnesses,
    curve_map,
    extract_norm_witness,
    extract_representation,
    factor_construct,
    nilplane_counterexample_check,
    preimage_search,
    scalar_characterization_check,
    to_discriminant_witness,
)

X_EX = Mat2.from_ints(ZZ, [[0, 4], [-2, 1]])
Y_EX = Mat2.from_ints(ZZ, [[4, 3], [3, 0]])


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_symbolic_proofs_under_10s():
    start = time.perf_counter()
    reports = [prove_identity(tag) for tag in ALL_TAGS]
    elapsed = time.perf_counter() - start
    ok = (len(reports) == 19
          and all(r.holds and r.residual.is_zero() for r in reports)
          and elapsed < 10.0)
    report(1, ok, f"19 identities, zero residual, {elapsed:.3f}s")


def test_criterion_2_commutator_419_and_searches():
    d = (-commutator(X_EX, Y_EX).det()).payload
    f31 = QuadForm.diagonal(ZZ, 1, 31)
    absent = search_representation(f31, 1676, 100)
    hit = search_representation(f31, 6704, 100).found
    ok = (d == 419
          and absent.found is None and absent.proved_absent
          and hit is not None
          and (hit.r1.payload, hit.r2.payload) == (77, 5))
    report(2, ok, f"-det[X,Y]={d}, 1676 proved absent, 6704=(77,5)")


def test_criterion_3_norm_witness_and_c_squared_factor():
    w = extract_norm_witness(X_EX, Y_EX)
    u0, v0 = to_discriminant_witness(w)
    f118 = QuadForm.from_ints(ZZ, 1, 1, 8)
    in_value_set = f118.eval(w.u, w.v).payload == 1676
    not_419 = search_representation(f118, 419, 100)
    ok = ((w.u.payload, w.v.payload) == (-36, -5)
          and w.certified_value.payload == 1676
          and in_value_set
          and (u0.payload, v0.payload) == (-77, -5)
          and 77 ** 2 + 31 * 25 == 6704
          and not_419.found is None and not_419.proved_absent)
    report(3, ok, "witness (-36,-5) certifies 1676; 419 proved outside V[1,1,8]")


def test_criterion_4_curve_points_and_empty_preimage():
    cases = {(1, 1): (15, 5, -10), (1, -1): (-17, -7, -12),
             (3, 2): (87, 32, -53), (-3, 2): (-105, -40, -65)}
    points_ok = True
    for (r, s), expected in cases.items():
        c = -3 * r * r + 8 * s * s
        pt = curve_map(*(ZZ.from_int(v) for v in (-3, 8, c, r, s)))
        points_ok = points_ok and (pt.x.payload, pt.y.payload,
                                   pt.z.payload) == expected
    hits, bounded = preimage_search(-3, 8, 5, (15, 5, 10))
    ok = points_ok and hits == [] and not bounded
    report(4, ok, "4 image points match, (15,5,10) has no preimage (closed-form proof)")


def test_criterion_5_pell_scale_witnesses_and_bounded_evidence():
    big = QuadForm.from_ints(ZZ, 37, 0, -67)
    r = ZZ.from_int(264_638_639_242)
    s = ZZ.from_int(196_660_308_201)
    pell_ok = big.eval(r, s).payload == 1
    pt, mirrored = corollary_6_17_witnesses(ZZ.from_int(37), ZZ.from_int(-67),
                                            ZZ.from_int(1), r, s)
    digits_ok = any(len(str(abs(v.payload))) >= 19 for v in (pt.x, pt.y, pt.z))
    triple_ok = (-8 * 5 + 13 * 3 == -1 and 5 * 3 - 4 * 4 == -1
                 and not representable_mod(-8, 13, 1, 8)
                 and not representable_mod(-8, 13, -1, 8))
    # bounded evidence only: -4x + 13y = 1 and x*y - z^2 = 1 with |y| <= 10^4
    evidence = True
    for y in range(-10_000, 10_001):
        num = 13 * y - 1
        if num % -4:
            continue
        x = num // -4
        zsq = x * y - 1
        if zsq >= 0 and math.isqrt(zsq) ** 2 == zsq:
            evidence = False
            break
    ok = pell_ok and digits_ok and triple_ok and evidence
    report(5, ok, "Pell value 1, 19-digit triple, mod-8 obstruction, "
                  "bounded evidence (|y|<=10^4, not a proof)")


def test_criterion_6_exhaustive_oracles():
    tags = ("I_4_3", "I_4_5", "I_4_13", "I_4_15", "I_4_16")
    mod2 = ModularRing(2)
    exhaustive_ok = True
    for tag in tags:
        symbols = CATALOG[tag].symbols
        for combo in itertools.product(range(2), repeat=len(symbols)):
            bindings = {sym: mod2.from_int(v) for sym, v in zip(symbols, combo)}
            lhs, rhs = eval_identity(tag, bindings)
            exhaustive_ok = exhaustive_ok and lhs == rhs
    mod3 = ModularRing(3)
    rng = random.Random(90)
    random_ok = True
    for _ in range(5000):
        tag = tags[rng.randrange(len(tags))]
        bindings = {sym: mod3.from_int(rng.randint(0, 2))
                    for sym in CATALOG[tag].symbols}
        lhs, rhs = eval_identity(tag, bindings)
        random_ok = random_ok and lhs == rhs
    chain_ok = all(inclusion_chain_check_mod(t, delta, n)
                   for t in range(-5, 6) for delta in range(-5, 6)
                   for n in range(2, 13))
    odd_ok = all(value_set_mod(QuadForm.from_ints(ModularRing(n), 1, t, delta))
                 == value_set_mod(QuadForm.diagonal(ModularRing(n), 1,
                                                    -(t * t - 4 * delta)))
                 for n in (3, 5, 7, 9, 11)
                 for t in range(-5, 6) for delta in range(-5, 6))
    eq_ok = True
    for c in range(3):
        X = Mat2.from_ints(mod3, [[0, 1], [c, 0]])
        reached = set()
        for w, x, y, v in itertools.product(range(3), repeat=4):
            Y = Mat2.from_ints(mod3, [[w, x], [y, v]])
            reached.add(constant_diagonal_value(X, Y).payload)
        eq_ok = eq_ok and reached == value_set_mod(
            QuadForm.diagonal(mod3, 1, -c))
    ok = exhaustive_ok and random_ok and chain_ok and odd_ok and eq_ok
    report(6, ok, "exhaustive Z/2 pairs, 5000 random Z/3, inclusion chains, "
                  "odd-modulus and b=1 set equalities")


def test_criterion_7_scalar_dichotomy_under_60s():
    start = time.perf_counter()
    results = [scalar_characterization_check(p) for p in (2, 3, 5)]
    elapsed = time.perf_counter() - start
    ok = all(results) and elapsed < 60.0
    report(7, ok, f"p in {{2,3,5}} dichotomy exhaustive, {elapsed:.3f}s")


def test_criterion_8_factorization_round_trip():
    rng = random.Random(91)
    ok = True
    done = 0
    while done < 500:
        p, q, r, s = (rng.randint(-9, 9) for _ in range(4))
        c = p * r * r + q * s * s
        w = factor_construct(*(ZZ.from_int(v) for v in (p, q, c, r, s)))
        if c != 0:
            rep = extract_representation(w.X1, w.Y1, w.p, w.q, w.c)
            ok = ok and (w.p * rep.r1 ** 2 + w.q * rep.r2 ** 2) == w.c
        done += 1
    ok = ok and nilplane_counterexample_check()
    report(8, ok, "500 witnesses re-verified, representations recovered, "
                  "nil-plane counterexample confirmed")
