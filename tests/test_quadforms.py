import random

import pytest

from commdet.quadforms import (
    MAX_ENUM_MODULUS,
    MAX_SEARCH_BOUND,
    QuadForm,
    _int_quadratic_roots,
    discriminant,
    inclusion_chain_check_mod,
    representable_mod,
    search_representation,
    value_set_mod,
)
from commdet.rings import ModularRing, RingMismatchError, ZZ

from oracles import shell_box_search


def test_eval_form_examples():
    f = QuadForm.from_ints(ZZ, -4, 0, 13)
    assert f.eval(ZZ.from_int(9), ZZ.from_int(5)).payload == 1
    g = QuadForm.from_ints(ZZ, 37, 0, -67)
    r1 = ZZ.from_int(264_638_639_242)
    r2 = ZZ.from_int(196_660_308_201)
    assert g.eval(r1, r2).payload == 1
    h = QuadForm.from_ints(ZZ, 1, 1, 8)
    assert h.eval(ZZ.from_int(-36), ZZ.from_int(-5)).payload == 1676


def test_eval_form_ring_checks():
    with pytest.raises(RingMismatchError):
        QuadForm(ZZ.from_int(1), ModularRing(3).from_int(0), ZZ.from_int(1))
    f = QuadForm.diagonal(ZZ, 1, 1)
    with pytest.raises(RingMismatchError):
        f.eval(ZZ.from_int(1), ModularRing(3).from_int(1))


def test_discriminant_examples():
    assert discriminant(ZZ.from_int(1), ZZ.from_int(8)).payload == -31
    assert discriminant(ZZ.from_int(0), ZZ.from_int(31)).payload == -124
    m = ModularRing(8)
    assert discriminant(m.from_int(1), m.from_int(8)).payload == 1


def test_value_set_mod_examples():
    # x^2 + 31 y^2 misses the residues 2 and 6 mod 8
    f = QuadForm.diagonal(ModularRing(8), 1, 31)
    assert value_set_mod(f) == {0, 1, 3, 4, 5, 7}
    g = QuadForm.diagonal(ModularRing(8), 1, 1)
    assert value_set_mod(g) == {0, 1, 2, 4, 5}
    # no congruence obstruction mod 8 or 16 rules out 1676; its
    # nonrepresentability needs the exhaustive bounded search
    assert 1676 % 8 in value_set_mod(f)


def test_value_set_mod_small_cases():
    assert value_set_mod(QuadForm.diagonal(ModularRing(2), 1, 1)) == {0, 1}
    assert value_set_mod(QuadForm.from_ints(ModularRing(3), 1, 0, 0)) == {0, 1}


def test_value_set_mod_matches_eval_enumeration():
    rng = random.Random(7)
    for n in range(2, MAX_ENUM_MODULUS + 1):
        ring = ModularRing(n)
        for s, t, d in [(1, 0, 1), (0, 0, 0)] + [
                tuple(rng.randint(-20, 20) for _ in range(3)) for _ in range(4)]:
            form = QuadForm.from_ints(ring, s, t, d)
            expected = {form.eval(ring.from_int(x), ring.from_int(y)).payload
                        for x in range(n) for y in range(n)}
            assert value_set_mod(form) == expected, (s, t, d, n)


def test_representable_mod():
    assert representable_mod(1, 31, 6704, 8)
    assert not representable_mod(1, 31, 6, 8)
    assert not representable_mod(1, 31, 2, 16)
    assert representable_mod(1, 1, 2, 4)


def test_modulus_cap_enforced():
    with pytest.raises(ValueError):
        representable_mod(1, 1, 1, MAX_ENUM_MODULUS + 1)
    with pytest.raises(ValueError):
        value_set_mod(QuadForm.diagonal(ModularRing(17), 1, 1))
    with pytest.raises(ValueError):
        inclusion_chain_check_mod(1, 1, 32)
    for n in (1, 0, -5):
        with pytest.raises(ValueError, match="^modulus must be >= 2$"):
            representable_mod(1, 1, 1, n)
    with pytest.raises(TypeError):
        value_set_mod(QuadForm.diagonal(ZZ, 1, 1))


def test_search_finds_6704_witness():
    f = QuadForm.diagonal(ZZ, 1, 31)
    res = search_representation(f, 6704, 100)
    assert res.found is not None
    assert (res.found.r1.payload, res.found.r2.payload) == (77, 5)
    assert res.found.value.payload == 6704
    assert not res.proved_absent


def test_search_proves_1676_absent():
    f = QuadForm.diagonal(ZZ, 1, 31)
    res = search_representation(f, 1676, 100)
    assert res.found is None
    assert res.proved_absent
    assert res.bound <= 42  # analytic bound, not the caller's 100


def test_search_determinism_and_order():
    f = QuadForm.diagonal(ZZ, 1, 1)
    res = search_representation(f, 25, 10)
    # (0,5), (5,0), (3,4), (4,3) all work; smallest |r1|+|r2| then
    # smallest |r1| wins
    assert (res.found.r1.payload, res.found.r2.payload) == (0, 5)
    again = search_representation(f, 25, 10)
    assert again == res
    res2 = search_representation(QuadForm.from_ints(ZZ, 1, 0, -1), 0, 5)
    assert (res2.found.r1.payload, res2.found.r2.payload) == (0, 0)


def test_search_prefers_nonnegative_signs():
    f = QuadForm.from_ints(ZZ, 0, 1, 0)  # xy = c
    res = search_representation(f, -6, 10)
    assert (res.found.r1.payload, res.found.r2.payload) == (2, -3)


def test_search_negative_target_positive_definite():
    f = QuadForm.diagonal(ZZ, 1, 31)
    res = search_representation(f, -5, 10)
    assert res.found is None
    assert res.proved_absent


def test_search_rejects_bad_inputs():
    message = f"^bound must be between 1 and {MAX_SEARCH_BOUND}$"
    for bound in (0, MAX_SEARCH_BOUND + 1):
        with pytest.raises(ValueError, match=message):
            search_representation(QuadForm.diagonal(ZZ, 1, 1), 5, bound)
    # the limit itself is accepted; the analytic bound keeps this search short
    res = search_representation(QuadForm.diagonal(ZZ, 1, 31), 6704, MAX_SEARCH_BOUND)
    assert (res.found.r1.payload, res.found.r2.payload, res.bound) == (77, 5, 82)
    with pytest.raises(TypeError):
        search_representation(QuadForm.diagonal(ModularRing(5), 1, 1), 1, 3)


def test_search_results_reverify():
    rng = random.Random(2024)
    for _ in range(200):
        s, t, d = (rng.randint(-6, 6) for _ in range(3))
        c = rng.randint(-50, 50)
        form = QuadForm.from_ints(ZZ, s, t, d)
        res = search_representation(form, c, 12)
        if res.found is not None:
            assert form.eval(res.found.r1, res.found.r2).payload == c


def test_search_matches_shell_box_scan():
    rng = random.Random(3)
    degenerate = [(None, None, 0), (None, 0, None), (0, None, None), (0, 0, 0)]
    for i in range(3000):
        s, t, d = (rng.randint(-7, 7) for _ in range(3))
        if i % 3 == 0:  # force d=0, t=0, s=0 or (0,0,0) on every third case
            fixed = degenerate[(i // 3) % 4]
            s, t, d = (v if f is None else f for v, f in zip((s, t, d), fixed))
        c = 0 if i % 11 == 0 else rng.randint(-80, 80)
        bound = rng.randint(1, 14)
        res = search_representation(QuadForm.from_ints(ZZ, s, t, d), c, bound)
        got = None if res.found is None else (res.found.r1.payload, res.found.r2.payload)
        assert (got, res.proved_absent, res.bound) == shell_box_search(s, t, d, c, bound), \
            (s, t, d, c, bound)


def test_int_quadratic_roots_brute_force():
    span = range(-60, 61)
    for a in range(-8, 9):
        for b in range(-8, 9):
            for c in range(-8, 9):
                brute = tuple(x for x in span if a * x * x + b * x + c == 0)
                roots = _int_quadratic_roots(a, b, c)
                # every integer root of a nonzero polynomial with |c| <= 8
                # divides c or solves a*x + b = 0, so it lies in the span
                assert (tuple(span) if roots is None else roots) == brute, (a, b, c)


def test_indefinite_exhaustion_is_not_a_proof():
    f = QuadForm.from_ints(ZZ, 1, 0, -2)
    res = search_representation(f, 3, 30)
    assert res.found is None
    assert not res.proved_absent


def test_inclusion_chain_small_moduli():
    for t in range(-5, 6):
        for delta in range(-5, 6):
            for n in range(2, 13):
                assert inclusion_chain_check_mod(t, delta, n), (t, delta, n)


def test_inclusion_chain_equality_for_odd_moduli():
    # for odd n the three sets coincide, because 2 and 4 are invertible
    for n in (3, 5, 7, 9, 11):
        ring = ModularRing(n)
        for t in range(-4, 5):
            for delta in range(-4, 5):
                f = QuadForm.from_ints(ring, 1, t, delta)
                disc = t * t - 4 * delta
                g = QuadForm.diagonal(ring, 1, -disc)
                assert value_set_mod(f) == value_set_mod(g)
