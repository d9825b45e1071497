import itertools
import random

import pytest

from commdet.mat2 import Mat2, cayley_hamilton_residual, commutator, parse_mat2
from commdet.rings import (
    ModularRing,
    NilPlaneRing,
    PolynomialRing,
    RingMismatchError,
    RingValue,
    ZZ,
)

from oracles import det, mat_mul, mat_sub


def rand_mat(ring, rng, lo=-9, hi=9):
    return Mat2.from_ints(ring, [[rng.randint(lo, hi), rng.randint(lo, hi)],
                                 [rng.randint(lo, hi), rng.randint(lo, hi)]])


def all_mats(n):
    ring = ModularRing(n)
    for a, b, c, d in itertools.product(range(n), repeat=4):
        yield Mat2.from_ints(ring, [[a, b], [c, d]])


def test_matrix_product_examples():
    X = Mat2.from_ints(ZZ, [[0, 4], [-2, 1]])
    Y = Mat2.from_ints(ZZ, [[4, 3], [3, 0]])
    assert (X * Y) == Mat2.from_ints(ZZ, [[12, 0], [-5, -6]])
    assert X * Mat2.identity(ZZ) == X
    X2 = Mat2.from_ints(ZZ, [[-2, -7], [-3, -3]])
    Y2 = Mat2.from_ints(ZZ, [[-7, 8], [2, -8]])
    A = Mat2.from_ints(ZZ, [[0, 8], [3, 0]])
    assert X2 * Y2 == A.scale(ZZ.from_int(5))


def test_entry_ring_mismatch():
    with pytest.raises(RingMismatchError):
        Mat2(ZZ.from_int(1), ZZ.from_int(0), ModularRing(5).from_int(0), ZZ.from_int(1))


def test_commutator_examples():
    X = Mat2.from_ints(ZZ, [[0, 4], [-2, 1]])
    Y = Mat2.from_ints(ZZ, [[4, 3], [3, 0]])
    assert commutator(X, X).is_zero()
    M = commutator(X, Y)
    assert M == Mat2.from_ints(ZZ, [[18, -19], [-5, -18]])
    assert M.det().payload == -419
    rng = random.Random(5)
    for _ in range(100):
        assert commutator(rand_mat(ZZ, rng), rand_mat(ZZ, rng)).trace().is_zero()


def test_det_examples():
    assert Mat2.identity(ZZ).det() == ZZ.from_int(1)
    assert Mat2.from_ints(ZZ, [[0, 4], [-2, 1]]).det().payload == 8
    ring = PolynomialRing(("a", "b", "c", "d"))
    g = ring.gens()
    M = Mat2(g["a"], g["b"], g["c"], g["d"])
    assert M.det() == g["a"] * g["d"] - g["b"] * g["c"]


def test_adjoint_examples():
    assert Mat2.identity(ZZ).adjoint() == Mat2.identity(ZZ)
    ring = PolynomialRing(("a", "b", "c", "d"))
    g = ring.gens()
    M = Mat2(g["a"], g["b"], g["c"], g["d"])
    assert M.adjoint() == Mat2(g["d"], -g["b"], -g["c"], g["a"])
    rng = random.Random(9)
    for _ in range(100):
        M, N = rand_mat(ZZ, rng), rand_mat(ZZ, rng)
        assert (M * N).adjoint() == N.adjoint() * M.adjoint()


@pytest.mark.parametrize("n", [2, 3])
def test_adjoint_and_det_laws_exhaustive(n):
    ring = ModularRing(n)
    ident = Mat2.identity(ring)
    mats = list(all_mats(n))
    for M in mats:
        assert M * M.adjoint() == ident.scale(M.det())
        assert M + M.adjoint() == ident.scale(M.trace())
        assert cayley_hamilton_residual(M).is_zero()
    rng = random.Random(13)
    for _ in range(300):
        M, N = rng.choice(mats), rng.choice(mats)
        assert (M * N).det() == M.det() * N.det()


def test_adjoint_and_det_laws_randomized_integers():
    rng = random.Random(17)
    ident = Mat2.identity(ZZ)
    for _ in range(300):
        M, N = rand_mat(ZZ, rng), rand_mat(ZZ, rng)
        assert M * M.adjoint() == ident.scale(M.det())
        assert M + M.adjoint() == ident.scale(M.trace())
        assert (M * N).det() == M.det() * N.det()


def test_cayley_hamilton():
    rng = random.Random(21)
    for _ in range(200):
        assert cayley_hamilton_residual(rand_mat(ZZ, rng)).is_zero()
    ring = PolynomialRing(("a", "b", "c", "d"))
    g = ring.gens()
    assert cayley_hamilton_residual(Mat2(g["a"], g["b"], g["c"], g["d"])).is_zero()
    # commutator squares to a scalar
    X = Mat2.from_ints(ZZ, [[0, 4], [-2, 1]])
    Y = Mat2.from_ints(ZZ, [[4, 3], [3, 0]])
    M = commutator(X, Y)
    assert M * M == Mat2.identity(ZZ).scale(ZZ.from_int(419))


def test_qtrace_specializations():
    rng = random.Random(25)
    for _ in range(200):
        M = rand_mat(ZZ, rng)
        assert M.qtrace(ZZ.from_int(1)) == M.trace()
        assert M.qtrace(ZZ.from_int(-1)) == M.supertrace()


def test_qtraceless_parametrization():
    ring = PolynomialRing(("q", "b", "c", "d"))
    g = ring.gens()
    X = Mat2(-g["q"] * g["d"], g["b"], g["c"], g["d"])
    assert X.qtrace(g["q"]).is_zero()


def test_supertrace_examples():
    assert Mat2.from_ints(ZZ, [[3, 5], [7, 3]]).supertrace().is_zero()
    # X from the factorization construction with p=-3, r=1, s=1
    a, pr = 1 + (-3) * 1, (-3) * 1
    X = Mat2.from_ints(ZZ, [[a, 1 - 8], [-3, pr]])
    assert X.supertrace().payload == a - pr == 1


def test_parse_round_trip():
    text = "[[0,4],[-2,1]]"
    M = parse_mat2(ZZ, text)
    assert M == Mat2.from_ints(ZZ, [[0, 4], [-2, 1]])
    assert parse_mat2(ZZ, M.render()) == M
    for spaced in ("[[0, 4], [-2, 1]]", "[ [0,4],[-2,1] ]", " [ [ 0 , 4 ] ,\n [ -2 , 1 ] ] "):
        assert parse_mat2(ZZ, spaced) == M
    ring = PolynomialRing(("a", "b"))
    N = parse_mat2(ring, "[[a+b,2*a],[0,a^2]]")
    assert N.m11 == ring.gen("a") + ring.gen("b")


# The entry formulas as separate RingValue products and sums, the way Mat2
# computed them before each entry became one fused ring._dot.
def unfused_mul(x, y):
    return Mat2(x.m11 * y.m11 + x.m12 * y.m21, x.m11 * y.m12 + x.m12 * y.m22,
                x.m21 * y.m11 + x.m22 * y.m21, x.m21 * y.m12 + x.m22 * y.m22)


def unfused_det(m):
    return m.m11 * m.m22 - m.m12 * m.m21


def unfused_commutator(x, y):
    return unfused_mul(x, y) - unfused_mul(y, x)


def unfused_residual(m):
    ident = Mat2.identity(m.ring)
    return unfused_mul(m, m) - m.scale(m.trace()) + ident.scale(unfused_det(m))


def _rows(m):
    return ((m.m11.payload, m.m12.payload), (m.m21.payload, m.m22.payload))


@pytest.mark.parametrize("n", [0, 2, 7, 2**64 - 59])
def test_fused_products_match_int_oracle(n):
    ring = ModularRing(n) if n else ZZ
    rng = random.Random(20261022 + n % 1000)
    hi = n - 1 if n else 10**20
    for _ in range(1000):
        X, Y = (Mat2.from_ints(ring, [[rng.randint(-hi, hi) for _ in range(2)] for _ in range(2)])
                for _ in range(2))
        x, y = _rows(X), _rows(Y)
        assert _rows(X * Y) == mat_mul(x, y, n)
        want = det(x) % n if n else det(x)
        assert X.det().payload == want
        comm = mat_sub(mat_mul(x, y), mat_mul(y, x))
        if n:
            comm = tuple(tuple(v % n for v in row) for row in comm)
        assert _rows(commutator(X, Y)) == comm
        assert cayley_hamilton_residual(X).is_zero()


def _rand_poly(ring, rng):
    out = ring.zero()
    for _ in range(rng.randint(0, 4)):
        term = ring.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
        for name in ring.variables:
            term = term * ring.gen(name) ** rng.choice([0, 0, 1, 2, 40])
        out = out + term
    return out


def _rand_entry(ring, rng):
    if isinstance(ring, NilPlaneRing):
        return RingValue(ring, tuple(rng.randint(-9, 9) for _ in range(3)))
    return _rand_poly(ring, rng)


@pytest.mark.parametrize("ring", [PolynomialRing(("a",)), PolynomialRing(("a", "b", "c")),
                                  PolynomialRing(tuple("abcdefgh")), NilPlaneRing()], ids=str)
def test_fused_products_match_unfused_expressions(ring):
    rng = random.Random(20261023)
    for i in range(150):
        X, Y = (Mat2(*(_rand_entry(ring, rng) for _ in range(4))) for _ in range(2))
        if i % 10 == 0:
            Y = X
        assert X * Y == unfused_mul(X, Y)
        assert X.det() == unfused_det(X)
        assert commutator(X, Y) == unfused_commutator(X, Y)
        residual = cayley_hamilton_residual(X)
        assert residual == unfused_residual(X)
        assert residual.is_zero()
        # M^2 = tr(M) M - det(M) I, so a residual that is always zero proves nothing
        # unless M^2 itself is right
        assert X * X == X.scale(X.trace()) - Mat2.identity(ring).scale(X.det())


def test_fused_products_keep_ring_checks():
    X = Mat2.from_ints(ZZ, [[0, 4], [-2, 1]])
    Y = Mat2.from_ints(ModularRing(5), [[4, 3], [3, 0]])
    Z = Mat2.from_ints(PolynomialRing(("a",)), [[4, 3], [3, 0]])
    for other in (Y, Z):
        with pytest.raises(RingMismatchError):
            X * other
        with pytest.raises(RingMismatchError):
            other * X
        with pytest.raises(RingMismatchError):
            commutator(X, other)
    assert X.__mul__(3) is NotImplemented
    assert X.__mul__(ZZ.from_int(3)) is NotImplemented
    with pytest.raises(TypeError):
        X * 3
