"""Constructive witnesses tying quadratic-form values to commutators.

Covers the companion-matrix construction for norm values, extraction of
quadratic-form witnesses from arbitrary matrix pairs, the factorization
equivalence for diagonal forms, the conic-to-quadric curve map with its
closed-form preimage solve, and the two exhaustive checks (scalar
dichotomy over small prime fields, nil-plane counterexample).
"""

from __future__ import annotations

import math

from .mat2 import Mat2, commutator
from .quadforms import Representation, _int_quadratic_roots
from .rings import (
    ModularRing,
    NilPlaneRing,
    PolynomialRing,
    RingValue,
    ZZ,
    _Frozen,
)

__all__ = [
    "NormWitness",
    "FactorizationWitness",
    "SurfacePoint",
    "taussky_construct",
    "extract_norm_witness",
    "to_discriminant_witness",
    "traceless_PQ",
    "constant_diagonal_value",
    "factor_construct",
    "extract_representation",
    "curve_map",
    "curve_congruences",
    "preimage_search",
    "corollary_6_17_witnesses",
    "nilplane_counterexample_check",
    "nilplane_in_Vyy",
    "scalar_characterization_check",
    "MAX_DIVISOR_TARGET",
]

# nilplane_in_Vyy trial-divides its target up to the square root, so the
# target is capped
MAX_DIVISOR_TARGET = 10**12


class NormWitness(_Frozen):
    """Certifies u^2 + t*u*v + delta*v^2 = -c^2 * det[X,Y]; every field is a ring value."""

    __slots__ = ("u", "v", "c", "t", "delta", "certified_value")


class FactorizationWitness(_Frozen):
    """Ring values p, q, c, r, s and the matrices X, Y, X1, Y1, A of factor_construct."""

    __slots__ = ("p", "q", "c", "r", "s", "X", "Y", "X1", "Y1", "A")


class SurfacePoint(_Frozen):
    """Ring values x, y, z of a point on the plane/quadric intersection."""

    __slots__ = ("x", "y", "z")


def taussky_construct(t: RingValue, delta: RingValue, x: RingValue,
                      y: RingValue) -> tuple[Mat2, Mat2]:
    """Companion-matrix pair with -det[X,Y] = x^2 + y*(t*x + delta*y)."""
    ring = t.ring
    zero = ring.zero()
    X = Mat2(zero, -delta, ring.one(), t)
    Y = Mat2(y, -x, zero, zero)
    return X, Y


def _norm_form(X: Mat2, Y: Mat2) -> tuple[RingValue, RingValue, RingValue, RingValue]:
    """(u, v, t, delta) of the norm witness for X, Y, unchecked.

    Y is first normalized by subtracting its (2,2) entry times the
    identity, which leaves the commutator alone.
    """
    a, b, c, d = X.entries()
    Y0 = Y - Mat2.identity(X.ring).scale(Y.m22)
    e, f, g = Y0.m11, Y0.m12, Y0.m21
    alpha = c * b * g - c ** 2 * f
    beta = c * e + g * (d - a)
    return alpha - a * beta, beta, X.trace(), X.det()


def _norm_equation(X: Mat2, Y: Mat2, form) -> tuple[RingValue, RingValue]:
    """(lhs, rhs) of -c^2 * det[X,Y] = u^2 + t*u*v + delta*v^2.

    c is the (2,1) entry of X and form is (u, v, t, delta).
    """
    u, v, t, delta = form
    return -(X.m21 ** 2) * commutator(X, Y).det(), u ** 2 + t * u * v + delta * v ** 2


def extract_norm_witness(X: Mat2, Y: Mat2) -> NormWitness:
    """Pull a form witness for -c^2 * det[X,Y] out of an arbitrary pair.

    c is the (2,1) entry of X; the formulas are those of _norm_form.
    """
    u, v, t, delta = form = _norm_form(X, Y)
    value, certified = _norm_equation(X, Y, form)
    if certified != value:
        raise AssertionError("norm witness failed to certify")  # unreachable
    return NormWitness(u=u, v=v, c=X.m21, t=t, delta=delta, certified_value=certified)


def to_discriminant_witness(w: NormWitness) -> tuple[RingValue, RingValue]:
    """Complete the square: u0^2 - Disc*v0^2 = 4 * certified value."""
    two = w.t.ring.from_int(2)
    return two * w.u + w.t * w.v, w.v


def traceless_PQ(X: Mat2, Y: Mat2) -> tuple[RingValue, RingValue]:
    """Witness pair with -c^2 * det[X,Y] = P^2 - Disc*Q^2 for traceless X, Y."""
    if not X.trace().is_zero() or not Y.trace().is_zero():
        raise ValueError("both matrices must be traceless")
    a, b, c = X.m11, X.m12, X.m21
    e, f, g = Y.m11, Y.m12, Y.m21
    two = a.ring.from_int(2)
    Q = a * g - c * e
    P = two * a * Q + c * (b * g - c * f)
    return P, Q


def constant_diagonal_value(X: Mat2, Y: Mat2) -> RingValue:
    """-det[X,Y] in closed form when X has equal diagonal entries."""
    if X.m11 != X.m22:
        raise ValueError("X must have equal diagonal entries")
    b, c = X.m12, X.m21
    Y0 = Y - Mat2.identity(Y.ring).scale(Y.m22)
    w, x, y = Y0.m11, Y0.m12, Y0.m21
    value = (b * y - c * x) ** 2 - b * c * w ** 2
    if value != -commutator(X, Y).det():
        raise AssertionError("closed form failed to certify")  # unreachable
    return value


def _conic(p, q, r, s):
    """p*r^2 + q*s^2, for ints and ring values alike."""
    return p * r * r + q * s * s


def _factor_A(p: RingValue, q: RingValue) -> Mat2:
    """A = [[0,q],[-p,0]], the matrix with X*Y = c*A."""
    return Mat2(p.ring.zero(), q, -p, p.ring.zero())


def _factor_matrices(p: RingValue, q: RingValue, r: RingValue,
                     s: RingValue) -> tuple[Mat2, Mat2, Mat2]:
    """X, Y and A = [[0,q],[-p,0]] of the factorization witness, unchecked."""
    a = s + p * r
    b = r - q * s
    X = Mat2(a, b, p * s, p * r)
    Y = Mat2(b, q * r, -a, -q * s)
    return X, Y, _factor_A(p, q)


def _product_equations(M: Mat2, N: Mat2, A: Mat2, a: RingValue, b: RingValue,
                       c: RingValue) -> list[tuple[RingValue, RingValue]]:
    """(lhs, rhs) pairs of M*N = c*A, det M = c*a and det N = c*b."""
    return [*zip((M * N).entries(), A.scale(c).entries()), (M.det(), c * a), (N.det(), c * b)]


def _factor_equations(M: Mat2, N: Mat2, A: Mat2, a: RingValue, b: RingValue,
                      c: RingValue) -> list[tuple[RingValue, RingValue]]:
    """The _product_equations pairs and det[M,N] = -c^2."""
    return _product_equations(M, N, A, a, b, c) + [(commutator(M, N).det(), -(c ** 2))]


def _holds(pairs) -> bool:
    # payloads are canonical, so equal values have equal payloads
    return all(lhs == rhs for lhs, rhs in pairs)


def factor_construct(p: RingValue, q: RingValue, c: RingValue,
                     r: RingValue, s: RingValue) -> FactorizationWitness:
    """Build the factorization witness for c = p*r^2 + q*s^2.

    X and Y multiply to c*A for A = [[0,q],[-p,0]]; the adjoint-swapped
    pair (X1, Y1) realizes the mirrored determinant pattern.  Every
    stated equation is re-verified before the witness is returned.
    """
    if _conic(p, q, r, s) != c:
        raise ValueError("conic constraint p*r^2 + q*s^2 = c violated")
    X, Y, A = _factor_matrices(p, q, r, s)
    X1 = Y.adjoint()
    Y1 = -X.adjoint()
    if not (_holds(_factor_equations(X, Y, A, p, q, c))
            and _holds(_factor_equations(X1, Y1, A, q, p, c))):
        raise AssertionError("factorization witness failed to certify")  # unreachable
    return FactorizationWitness(p=p, q=q, c=c, r=r, s=s, X=X, Y=Y, X1=X1, Y1=Y1, A=A)


def _is_cancellable(c: RingValue) -> bool:
    ring = c.ring
    if isinstance(ring, ModularRing):
        return math.gcd(c.payload, ring.modulus) == 1
    return not c.is_zero()


def extract_representation(X1: Mat2, Y1: Mat2, p: RingValue, q: RingValue,
                           c: RingValue) -> Representation:
    """Recover (r, s) with p*r^2 + q*s^2 = c from a mirrored factorization.

    Requires c cancellable (nonzero over Z; coprime to the modulus over
    Z/n).  The conic check stands in for det[X1,Y1] = -c^2: by the
    supertrace formula (I_4_5) the other equations give -det[X1,Y1] =
    c*(p*r^2 + q*s^2), and c cancels.
    """
    if not _is_cancellable(c):
        raise ValueError("c must be cancellable (non zero-divisor)")
    if not _holds(_product_equations(X1, Y1, _factor_A(p, q), q, p, c)):
        raise ValueError("factorization equations for X1, Y1 violated")
    r, s = X1.supertrace(), Y1.supertrace()
    if _conic(p, q, r, s) != c:
        raise ValueError("corrupted witness: extracted pair misses the conic")
    return Representation(r1=r, r2=s, value=c)


def _curve_point(p: RingValue, q: RingValue, r: RingValue,
                 s: RingValue) -> SurfacePoint:
    """The curve-map formulas for x, y, z, unchecked."""
    two = p.ring.from_int(2)
    return SurfacePoint(x=r * (two * q * s - r),
                        y=-s * (two * p * r + s),
                        z=r * s + p * r ** 2 - q * s ** 2)


def _curve_equations(p: RingValue, q: RingValue, c: RingValue,
                     pt: SurfacePoint) -> list[tuple[RingValue, RingValue]]:
    """(lhs, rhs) pairs of p*x + q*y = -c and x*y - z^2 = -c^2."""
    x, y, z = pt.x, pt.y, pt.z
    return [(p * x + q * y, -c), (x * y - z ** 2, -(c ** 2))]


def curve_map(p: RingValue, q: RingValue, c: RingValue,
              r: RingValue, s: RingValue) -> SurfacePoint:
    """Map a conic point to the plane/quadric intersection.

    Guarantees p*x + q*y = -c and x*y - z^2 = -c^2, and is even in (r,s).
    """
    if _conic(p, q, r, s) != c:
        raise ValueError("conic constraint p*r^2 + q*s^2 = c violated")
    pt = _curve_point(p, q, r, s)
    if not _holds(_curve_equations(p, q, c, pt)):
        raise AssertionError("curve equations failed")  # unreachable
    return pt


def _congruent(a: int, b: int, m: int) -> bool:
    # mod 0 means equality
    return a == b if m == 0 else (a - b) % m == 0


def curve_congruences(p: int, q: int, c: int, r: int, s: int,
                      pt: SurfacePoint) -> dict:
    """Congruence report for an integer image point."""
    x, y, z = pt.x.payload, pt.y.payload, pt.z.payload
    return {
        "x_cong_minus_r2_mod_2q": _congruent(x, -r * r, 2 * q),
        "y_cong_minus_s2_mod_2p": _congruent(y, -s * s, 2 * p),
        "z_cong_c_mod_s": _congruent(z, c, s),
        "z_cong_minus_c_mod_r": _congruent(z, -c, r),
    }


def preimage_search(p: int, q: int, c: int,
                    pt: tuple[int, int, int]) -> tuple[list[tuple[int, int]], bool]:
    """All conic points mapping to pt, in closed form.

    With u = r*s the curve map is linear in (r^2, s^2, u):
    x = 2*q*u - r^2, y = -2*p*u - s^2 and z + p*x - q*y = (1 + 4*p*q)*u.
    1 + 4*p*q is odd, so never zero, and pt fixes u, r^2 and s^2; the
    hits are the root pairs on the conic whose image is pt, which forces
    r*s = u.  Nothing is enumerated, so the result is complete for every
    pt and the bounded flag is always False.
    """
    x, y, z = pt
    u, rem = divmod(z + p * x - q * y, 1 + 4 * p * q)
    hits = []
    if rem == 0:
        for r in _int_quadratic_roots(1, 0, x - 2 * q * u):
            for s in _int_quadratic_roots(1, 0, y + 2 * p * u):
                if (p * r * r + q * s * s == c
                        and (r * (2 * q * s - r), -s * (2 * p * r + s),
                             r * s + p * r * r - q * s * s) == (x, y, z)):
                    hits.append((r, s))
    # roots ascend, so the hits are sorted and distinct
    return hits, False


def corollary_6_17_witnesses(p: RingValue, q: RingValue, c: RingValue,
                             r: RingValue, s: RingValue
                             ) -> tuple[SurfacePoint, SurfacePoint]:
    """Certified triples for p*x + q*y = -c and p*x1 + q*y1 = c on the quadric."""
    pt = curve_map(p, q, c, r, s)
    mirrored = SurfacePoint(x=-pt.x, y=-pt.y, z=pt.z)
    # the mirrored point solves the curve equations for -c
    if not _holds(_curve_equations(p, q, -c, mirrored)):
        raise AssertionError("mirrored curve equations failed")  # unreachable
    return pt, mirrored


def nilplane_in_Vyy(c: RingValue) -> bool:
    """Decide c in V[y,y] over the nil-plane ring.

    Generic expansion shows y*r^2 + y*s^2 = (0, 0, r0^2 + s0^2) where
    r0, s0 are the constant terms of r and s, so membership holds iff
    c = (0, 0, m) with m a sum of two integer squares.  Raises ValueError
    when m > MAX_DIVISOR_TARGET.
    """
    if not isinstance(c.ring, NilPlaneRing):
        raise TypeError("expects a nil-plane element")
    c0, c1, c2 = c.payload
    if c2 > MAX_DIVISOR_TARGET:
        raise ValueError(f"y-coefficient must be <= {MAX_DIVISOR_TARGET}")
    if c0 != 0 or c1 != 0:
        return False
    return c2 >= 0 and _is_sum_of_two_squares(c2)


def _is_sum_of_two_squares(m: int) -> bool:
    """Whether m >= 0 is a^2 + b^2 for integers a, b, by trial division up to sqrt(m).

    Two-squares theorem: exactly when every prime p = 3 (mod 4) divides m
    to an even power.
    """
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            if p % 4 == 3 and k % 2:
                return False
        p += 1 if p == 2 else 2
    # what is left is 0, 1 or a prime
    return m % 4 != 3


def nilplane_counterexample_check() -> bool:
    """The factorization equations hold vacuously for a zero-divisor c
    while c itself is not a form value.

    Works in Z[x,y]/(x^2, xy, y^2) with c = x and p = q = y: the zero
    matrices satisfy every equation of the factorization statement, yet
    x is not of the form y*r^2 + y*s^2.
    """
    nil = NilPlaneRing()
    c = nil.x()
    p = q = nil.y()
    zero = Mat2.zero(nil)
    vacuous = _holds(_factor_equations(zero, zero, _factor_A(p, q), p, q, c))

    # generic coefficient analysis of y*r^2 + y*s^2: the nil-plane
    # operations applied to triples of polynomial coefficients
    poly = PolynomialRing(("r0", "r1", "r2", "s0", "s1", "s2"))
    g = poly.gens()
    yv = (poly.zero(), poly.zero(), poly.one())
    rv = (g["r0"], g["r1"], g["r2"])
    sv = (g["s0"], g["s1"], g["s2"])
    val = nil._add(nil._mul(yv, nil._mul(rv, rv)), nil._mul(yv, nil._mul(sv, sv)))
    shape_ok = (val[0].is_zero() and val[1].is_zero()
                and val[2] == g["r0"] ** 2 + g["s0"] ** 2)
    # c = x has x-coefficient 1, but every form value has none
    nonmember = shape_ok and not nilplane_in_Vyy(c)
    return vacuous and nonmember


def scalar_characterization_check(prime: int) -> bool:
    """Exhaustive dichotomy over M_2(F_p) for p in {2, 3, 5}.

    A matrix X is scalar iff the supertrace-formula equality holds
    against every Y; equivalently, det[X,Y] = 0 for all Y.
    """
    if prime not in (2, 3, 5):
        raise ValueError("supported prime moduli: 2, 3, 5")
    p = prime
    rng = range(p)
    mats = [(a, b, c, d) for a in rng for b in rng for c in rng for d in rng]
    for a, b, c, d in mats:
        scalar = b == 0 and c == 0 and a == d
        holds_all = True
        for e, f, g, h in mats:
            m11 = a * e + b * g
            m22 = c * f + d * h
            n11 = e * a + f * c
            n22 = g * b + h * d
            lhs = ((a * d - b * c) * (e - h) ** 2
                   + (e * h - f * g) * (a - d) ** 2
                   + (m11 + m22) * (e - h) * (a - d))
            rhs = (m11 - m22) * (n11 - n22)
            if (lhs - rhs) % p != 0:
                holds_all = False
                break
        if holds_all != scalar:
            return False
    return True
