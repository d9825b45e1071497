import itertools
import random

import pytest

from commdet import identities, witnesses
from commdet.identities import (
    ALL_TAGS,
    CATALOG,
    corollary_4_7_eval,
    eval_identity,
    prove_identity,
    remark_4_4B_divisibility_check,
)
from commdet.mat2 import Mat2, QTraceContext, commutator
from commdet.rings import ModularRing, PolynomialRing, ZZ, poly_substitute
from commdet.witnesses import SurfacePoint

from oracles import commutator_det


def test_all_tags_prove():
    for tag in ALL_TAGS:
        report = prove_identity(tag)
        assert report.holds, tag
        assert report.residual.is_zero(), tag


def test_catalog_has_19_tags():
    assert len(ALL_TAGS) == 19


def rand_bindings(tag, ring, rng, lo=-9, hi=9):
    return {s: ring.from_int(rng.randint(lo, hi)) for s in CATALOG[tag].symbols}


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_eval_matches_symbolic_on_random_integers(tag):
    rng = random.Random(sum(ord(ch) for ch in tag))
    for _ in range(200):
        lhs, rhs = eval_identity(tag, rand_bindings(tag, ZZ, rng))
        assert lhs == rhs


def test_eval_i_4_3_remark_5_4():
    vals = dict(zip("abcdefgh", [0, 4, -2, 1, 4, 3, 3, 0]))
    lhs, rhs = eval_identity("I_4_3", {k: ZZ.from_int(v) for k, v in vals.items()})
    assert lhs.payload == -419
    assert rhs.payload == -419


def test_eval_i_4_9_degenerate():
    lhs, rhs = eval_identity("I_4_9", {k: ZZ.from_int(v)
                                       for k, v in zip("abcd", (1, 0, 1, 0))})
    assert lhs.payload == 1
    assert rhs.payload == 1


def test_i_3_5_at_q_1_reduces_to_traceless_formula():
    rng = random.Random(33)
    for _ in range(100):
        vals = {s: ZZ.from_int(rng.randint(-9, 9))
                for s in ("b", "c", "d", "f", "g", "h")}
        vals["q"] = ZZ.from_int(1)
        lhs, rhs = eval_identity("I_3_5", vals)
        X = Mat2(-vals["d"], vals["b"], vals["c"], vals["d"])
        Y = Mat2(-vals["h"], vals["f"], vals["g"], vals["h"])
        four = ZZ.from_int(4)
        expect = four * (X * Y).det() - (X * Y).trace() ** 2
        assert lhs == commutator(X, Y).det()
        assert rhs == expect


def _identity_sides_as_polys(tag):
    ident = CATALOG[tag]
    ring = PolynomialRing(ident.symbols)
    pairs = ident.build(ring.gens())
    assert len(pairs) == 1
    return pairs[0]


@pytest.mark.parametrize("qval,target", [(1, "I_4_3"), (-1, "I_4_5")])
def test_quantum_formula_specializes(qval, target):
    # substituting q into the proved q-trace formula reproduces the
    # trace / supertrace versions
    lhs_q, rhs_q = _identity_sides_as_polys("I_4_2")
    ring8 = PolynomialRing(tuple("abcdefgh"))
    binding = ring8.gens()
    binding["q"] = ring8.from_int(qval)
    lhs_s = poly_substitute(lhs_q, binding)
    rhs_s = poly_substitute(rhs_q, binding)
    lhs_t, rhs_t = _identity_sides_as_polys(target)
    assert lhs_s == lhs_t
    assert (rhs_s - rhs_t).is_zero()


def test_corrupted_identity_yields_nonzero_residual():
    # drop the str(XY)*str(YX) term from the supertrace formula
    ring = PolynomialRing(tuple("abcdefgh"))
    g = ring.gens()
    X = Mat2(g["a"], g["b"], g["c"], g["d"])
    Y = Mat2(g["e"], g["f"], g["g"], g["h"])
    d, dp = X.det(), Y.det()
    tau, taup = X.supertrace(), Y.supertrace()
    lhs = -commutator(X, Y).det()
    corrupted_rhs = d * taup ** 2 + dp * tau ** 2 + (X * Y).trace() * taup * tau
    residual = lhs - corrupted_rhs
    assert not residual.is_zero()
    dropped = -(X * Y).supertrace() * (Y * X).supertrace()
    assert residual == dropped


def _plus_one(value):
    return value + value.ring.one()


def _negate_rhs(pair):
    return pair[0], -pair[1]


# (shared helper, catalog tag, corruption of the helper's result)
_CORRUPTED_HELPERS = [
    ("traceless_PQ", "I_5_14", lambda PQ: (_plus_one(PQ[0]), PQ[1])),
    ("_norm_form", "I_5_14", lambda form: (form[0], _plus_one(form[1])) + form[2:]),
    ("_norm_equation", "I_5_14", _negate_rhs),
    ("_factor_matrices", "I_6_6", lambda m: (m[0] + Mat2.identity(m[0].ring),) + m[1:]),
    ("_factor_matrices", "I_6_10", lambda m: (m[0] + m[0],) + m[1:]),
    ("_factor_equations", "I_6_6", lambda pairs: pairs[:-1] + [_negate_rhs(pairs[-1])]),
    ("_curve_point", "I_6_10", lambda pt: SurfacePoint(pt.x, pt.y, _plus_one(pt.z))),
    ("_curve_equations", "I_6_10", lambda pairs: [_negate_rhs(pairs[0])] + pairs[1:]),
]


@pytest.mark.parametrize("name, tag, corrupt", _CORRUPTED_HELPERS,
                         ids=[f"{n}-{t}" for n, t, _ in _CORRUPTED_HELPERS])
def test_catalog_proves_the_shipped_witness_helpers(monkeypatch, name, tag, corrupt):
    # the catalog calls the very helpers the runtime certificates use, so a
    # fault in one of them fails its identity
    helper = getattr(witnesses, name)
    assert getattr(identities, name) is helper
    monkeypatch.setattr(identities, name, lambda *args: corrupt(helper(*args)))
    assert not prove_identity(tag).holds


@pytest.mark.parametrize("tag", ["I_4_3", "I_4_5", "I_4_13", "I_4_15", "I_4_16"])
def test_exhaustive_agreement_mod_2(tag):
    ring = ModularRing(2)
    symbols = CATALOG[tag].symbols
    for combo in itertools.product(range(2), repeat=len(symbols)):
        bindings = {s: ring.from_int(v) for s, v in zip(symbols, combo)}
        lhs, rhs = eval_identity(tag, bindings)
        assert lhs == rhs


@pytest.mark.parametrize("tag", ["I_4_3", "I_4_5", "I_4_13", "I_4_15", "I_4_16"])
def test_random_agreement_mod_3(tag):
    ring = ModularRing(3)
    rng = random.Random(len(tag) * 1009)
    for _ in range(1000):
        bindings = {s: ring.from_int(rng.randint(0, 2))
                    for s in CATALOG[tag].symbols}
        lhs, rhs = eval_identity(tag, bindings)
        assert lhs == rhs


def test_qtrace_average_of_products_traceless():
    # tr_q(XY) + tr_q(YX) = (1+q) tr(XY) for traceless X, Y, symbolically
    ring = PolynomialRing(("q", "a", "b", "c", "e", "f", "g"))
    g = ring.gens()
    X = Mat2(g["a"], g["b"], g["c"], -g["a"])
    Y = Mat2(g["e"], g["f"], g["g"], -g["e"])
    ctx = QTraceContext.from_q(g["q"])
    lhs = (X * Y).qtrace(ctx) + (Y * X).qtrace(ctx)
    assert (lhs - ctx.two * (X * Y).trace()).is_zero()


def test_supertrace_sum_is_twice_hadamard_supertrace():
    ring = PolynomialRing(tuple("abcdefgh"))
    g = ring.gens()
    X = Mat2(g["a"], g["b"], g["c"], g["d"])
    Y = Mat2(g["e"], g["f"], g["g"], g["h"])
    hadamard = Mat2(X.m11 * Y.m11, X.m12 * Y.m12, X.m21 * Y.m21, X.m22 * Y.m22)
    lhs = (X * Y).supertrace() + (Y * X).supertrace()
    rhs = ring.from_int(2) * hadamard.supertrace()
    assert (lhs - rhs).is_zero()


def test_corollary_4_7_case_3_diagonal():
    X = Mat2.from_ints(ZZ, [[2, 0], [0, 1]])
    Y = Mat2.from_ints(ZZ, [[5, 0], [0, 3]])
    lhs, rhs = corollary_4_7_eval(3, X, Y)
    assert lhs.payload == 49
    assert rhs.payload == 49


def test_corollary_4_7_case_1_factorization_matrices():
    X = Mat2.from_ints(ZZ, [[-2, -7], [-3, -3]])
    Y = Mat2.from_ints(ZZ, [[-7, 8], [2, -8]])
    lhs, rhs = corollary_4_7_eval(1, X, Y)
    assert lhs == rhs
    assert lhs.payload == 25  # -det[X,Y] = c^2 for c = 5


def test_corollary_4_7_case_2_random():
    rng = random.Random(41)
    for _ in range(100):
        a, b, c = (rng.randint(-5, 5) for _ in range(3))
        X = Mat2.from_ints(ZZ, [[a, b], [c, a]])
        Y = Mat2.from_ints(ZZ, [[rng.randint(-5, 5) for _ in range(2)]
                                for _ in range(2)])
        lhs, rhs = corollary_4_7_eval(2, X, Y)
        assert lhs == rhs


def test_corollary_4_7_precondition_errors():
    X = Mat2.from_ints(ZZ, [[1, 2], [3, 4]])
    Y = Mat2.from_ints(ZZ, [[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="zero diagonal"):
        corollary_4_7_eval(1, X, Y)
    with pytest.raises(ValueError, match="equal diagonal"):
        corollary_4_7_eval(2, X, Y)
    with pytest.raises(ValueError, match="XY = YX"):
        corollary_4_7_eval(3, X, Y)
    with pytest.raises(ValueError, match="case"):
        corollary_4_7_eval(4, X, Y)


def test_divisibility_check_trivial():
    X = Mat2.from_ints(ZZ, [[1, 0], [0, 0]])
    Y = Mat2.from_ints(ZZ, [[0, 0], [0, 1]])
    assert remark_4_4B_divisibility_check(X, Y)


def test_divisibility_check_rank_one_random():
    rng = random.Random(47)
    for _ in range(500):
        u, v, w, z = ([rng.randint(-6, 6), rng.randint(-6, 6)] for _ in range(4))
        X = Mat2.from_ints(ZZ, [[u[0] * v[0], u[0] * v[1]],
                                [u[1] * v[0], u[1] * v[1]]])
        Y = Mat2.from_ints(ZZ, [[w[0] * z[0], w[0] * z[1]],
                                [w[1] * z[0], w[1] * z[1]]])
        assert remark_4_4B_divisibility_check(X, Y)


def test_divisibility_check_explicit():
    X = Mat2.from_ints(ZZ, [[1, 1], [1, 1]])
    Y = Mat2.from_ints(ZZ, [[1, 2], [2, 4]])
    assert remark_4_4B_divisibility_check(X, Y)


def test_divisibility_check_precondition():
    X = Mat2.from_ints(ZZ, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        remark_4_4B_divisibility_check(X, X)


def test_eval_missing_binding():
    with pytest.raises(KeyError):
        eval_identity("I_4_9", {"a": ZZ.from_int(1)})
    with pytest.raises(KeyError):
        prove_identity("NOPE")


def test_i_4_2_residual_vanishes_at_random_points_and_matches_matrices():
    # the residual of the proved q-trace formula evaluates to zero, and
    # both sides agree with direct matrix arithmetic, at random points
    report = prove_identity("I_4_2")
    rng = random.Random(53)
    for _ in range(100):
        vals = {s: ZZ.from_int(rng.randint(-9, 9)) for s in CATALOG["I_4_2"].symbols}
        assert poly_substitute(report.residual, vals).is_zero()
        lhs, rhs = eval_identity("I_4_2", vals)
        x = ((vals["a"].payload, vals["b"].payload),
             (vals["c"].payload, vals["d"].payload))
        y = ((vals["e"].payload, vals["f"].payload),
             (vals["g"].payload, vals["h"].payload))
        assert lhs.payload == vals["q"].payload * commutator_det(x, y)
        assert rhs == lhs
