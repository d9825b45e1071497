"""Catalog of determinantal identities for 2x2 commutators.

Every identity in the catalog carries a closed symbol set and a builder
that produces one or more (lhs, rhs) pairs of ring values.  The same
builder serves two purposes:

* ``prove_identity`` instantiates the symbols as generators of a
  polynomial ring over Z and checks that every lhs - rhs expands to the
  zero polynomial (a universal proof, valid over all commutative rings);
* ``eval_identity`` plugs in concrete ring elements so both sides can be
  compared at specific data.

A few identities assert several polynomial equations at once (the
factorization and curve-map bundles); their report carries the sum of
squared componentwise residuals, which vanishes over Z iff every
component does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

from .mat2 import Mat2, QTraceContext, commutator
from .rings import IntegerRing, PolynomialRing, RingMismatchError, RingValue
from .witnesses import (
    _curve_equations,
    _curve_point,
    _factor_equations,
    _factor_matrices,
    _norm_equation,
    _norm_form,
    traceless_PQ,
)

__all__ = [
    "Identity",
    "IdentityReport",
    "CATALOG",
    "ALL_TAGS",
    "prove_identity",
    "eval_identity",
    "corollary_4_7_eval",
    "remark_4_4B_divisibility_check",
]

Pair = Tuple[RingValue, RingValue]
Builder = Callable[[Mapping[str, RingValue]], List[Pair]]


@dataclass(frozen=True)
class Identity:
    tag: str
    symbols: tuple
    build: Builder


@dataclass(frozen=True)
class IdentityReport:
    id: str
    residual: RingValue
    holds: bool
    term_count_lhs: int
    term_count_rhs: int


def _X(v) -> Mat2:
    return Mat2(v["a"], v["b"], v["c"], v["d"])


def _Y(v) -> Mat2:
    return Mat2(v["e"], v["f"], v["g"], v["h"])


def _i_2_2(v):
    X, Y = _X(v), _Y(v)
    lhs = commutator(X, Y).det()
    rhs = (X * X * Y * Y).trace() - ((X * Y) * (X * Y)).trace()
    return [(lhs, rhs)]


def _i_2_5(v):
    A, B = _X(v), _Y(v)
    lhs = (A - B).det()
    rhs = A.det() + B.det() - (A * B.adjoint()).trace()
    return [(lhs, rhs)]


def _i_2_7(v):
    X, Y = _X(v), _Y(v)
    lhs = commutator(X, Y).det()
    rhs = X.ring.from_int(2) * X.det() * Y.det() - (X * Y * X.adjoint() * Y.adjoint()).trace()
    return [(lhs, rhs)]


def _i_2_8(v):
    X, Y = _X(v), _Y(v)
    lhs = (X * Y).trace() ** 2
    rhs = (X * X * Y * Y).trace() + (X * Y * X.adjoint() * Y.adjoint()).trace()
    return [(lhs, rhs)]


def _i_3_2(v):
    # traceless parametrization
    X = Mat2(v["a"], v["b"], v["c"], -v["a"])
    Y = Mat2(v["e"], v["f"], v["g"], -v["e"])
    lhs = commutator(X, Y).det()
    four = X.ring.from_int(4)
    rhs = four * (X * Y).det() - (X * Y).trace() ** 2
    return [(lhs, rhs)]


def _i_3_5(v):
    # q-traceless parametrization
    q = v["q"]
    X = Mat2(-q * v["d"], v["b"], v["c"], v["d"])
    Y = Mat2(-q * v["h"], v["f"], v["g"], v["h"])
    ctx = QTraceContext.from_q(q)
    lhs = q * commutator(X, Y).det()
    rhs = ctx.two ** 2 * (X * Y).det() - (X * Y).qtrace(ctx) * (Y * X).qtrace(ctx)
    return [(lhs, rhs)]


def _i_4_2(v):
    q = v["q"]
    X, Y = _X(v), _Y(v)
    ctx = QTraceContext.from_q(q)
    d, dp = X.det(), Y.det()
    t, tp = X.trace(), Y.trace()
    tau, taup = X.qtrace(ctx), Y.qtrace(ctx)
    sig, sigp = (X * Y).qtrace(ctx), (Y * X).qtrace(ctx)
    lhs = q * commutator(X, Y).det()
    rhs = (ctx.two ** 2 * dp * d
           - ctx.two * (d * tp * taup + dp * t * tau)
           + (d * taup ** 2 + dp * tau ** 2 + (X * Y).trace() * taup * tau - sigp * sig))
    return [(lhs, rhs)]


def _i_4_3(v):
    X, Y = _X(v), _Y(v)
    d, dp = X.det(), Y.det()
    t, tp = X.trace(), Y.trace()
    s = (X * Y).trace()
    four = X.ring.from_int(4)
    lhs = commutator(X, Y).det()
    rhs = four * dp * d - s ** 2 - d * tp ** 2 - dp * t ** 2 + s * tp * t
    return [(lhs, rhs)]


def _i_4_5(v):
    X, Y = _X(v), _Y(v)
    d, dp = X.det(), Y.det()
    tau, taup = X.supertrace(), Y.supertrace()
    lhs = -commutator(X, Y).det()
    rhs = (d * taup ** 2 + dp * tau ** 2 + (X * Y).trace() * taup * tau
           - (X * Y).supertrace() * (Y * X).supertrace())
    return [(lhs, rhs)]


def _i_4_4x(v):
    # trace-only formula, cleared of its denominator 2
    X, Y = _X(v), _Y(v)
    two = X.ring.from_int(2)
    t, tp = X.trace(), Y.trace()
    tx2, ty2 = (X * X).trace(), (Y * Y).trace()
    s = (X * Y).trace()
    lhs = two * commutator(X, Y).det()
    rhs = (two * tx2 * ty2 - two * s ** 2 - tx2 * tp ** 2 - ty2 * t ** 2
           + two * s * tp * t)
    return [(lhs, rhs)]


def _i_4_9(v):
    a, b, c, d = v["a"], v["b"], v["c"], v["d"]
    lhs = (a * c - b * d) ** 2
    rhs = (a * b * (c - d) ** 2 + c * d * (a - b) ** 2
           + (a * c + b * d) * (a - b) * (c - d))
    return [(lhs, rhs)]


def _i_4_13(v):
    q = v["q"]
    X, Y = _X(v), _Y(v)
    ctx = QTraceContext.from_q(q)
    t, tp = X.trace(), Y.trace()
    tau, taup = X.qtrace(ctx), Y.qtrace(ctx)
    sig, sigp = (X * Y).qtrace(ctx), (Y * X).qtrace(ctx)
    lhs = sig + sigp - tp * tau - t * taup
    rhs = ctx.two * ((X * Y).trace() - tp * t)
    return [(lhs, rhs)]


def _i_4_15(v):
    # traceless X, Y
    q = v["q"]
    X = Mat2(v["a"], v["b"], v["c"], -v["a"])
    Y = Mat2(v["e"], v["f"], v["g"], -v["e"])
    ctx = QTraceContext.from_q(q)
    lhs = (X * Y).qtrace(ctx) + (Y * X).qtrace(ctx)
    rhs = ctx.two * (X * Y).trace()
    return [(lhs, rhs)]


def _i_4_16(v):
    X, Y = _X(v), _Y(v)
    lhs = (X * Y).supertrace() + (Y * X).supertrace()
    rhs = X.trace() * Y.supertrace() + Y.trace() * X.supertrace()
    return [(lhs, rhs)]


def _i_5_8(v):
    t, dl, w, z = v["t"], v["delta"], v["w"], v["z"]
    two, four = t.ring.from_int(2), t.ring.from_int(4)
    lhs = w ** 2 - (t ** 2 - four * dl) * z ** 2
    rhs = (w - t * z) ** 2 + t * (w - t * z) * (two * z) + dl * (two * z) ** 2
    return [(lhs, rhs)]


def _i_5_9(v):
    t, dl, x, y = v["t"], v["delta"], v["x"], v["y"]
    two, four = t.ring.from_int(2), t.ring.from_int(4)
    lhs = four * (x ** 2 + t * x * y + dl * y ** 2)
    rhs = (two * x + t * y) ** 2 - (t ** 2 - four * dl) * y ** 2
    return [(lhs, rhs)]


def _i_5_14(v):
    a, b, c, d = v["a"], v["b"], v["c"], v["d"]
    e, f, g = v["e"], v["f"], v["g"]
    four = a.ring.from_int(4)
    # traceless witness equation
    X0 = Mat2(a, b, c, -a)
    Y0 = Mat2(e, f, g, -e)
    P, Q = traceless_PQ(X0, Y0)
    pairs = [(-(c ** 2) * commutator(X0, Y0).det(), P ** 2 - four * (a ** 2 + b * c) * Q ** 2)]
    # general norm-witness equation (Y normalized to zero (2,2) entry)
    X = Mat2(a, b, c, d)
    Y = Mat2(e, f, g, a.ring.zero())
    pairs.append(_norm_equation(X, Y, _norm_form(X, Y)))
    return pairs


def _i_6_6(v):
    p, q, r, s = v["p"], v["q"], v["r"], v["s"]
    X, Y, A = _factor_matrices(p, q, r, s)
    return _factor_equations(X, Y, A, p, q, p * r ** 2 + q * s ** 2)


def _i_6_10(v):
    p, q, r, s = v["p"], v["q"], v["r"], v["s"]
    X, Y, _ = _factor_matrices(p, q, r, s)
    pt = _curve_point(p, q, r, s)
    M = commutator(X, Y)
    pairs = list(zip(M.entries(), (-pt.z, pt.x, -pt.y, pt.z)))
    return pairs + _curve_equations(p, q, p * r ** 2 + q * s ** 2, pt)


_GEN8 = ("a", "b", "c", "d", "e", "f", "g", "h")

CATALOG: Dict[str, Identity] = {
    ident.tag: ident
    for ident in [
        Identity("I_2_2", _GEN8, _i_2_2),
        Identity("I_2_5", _GEN8, _i_2_5),
        Identity("I_2_7", _GEN8, _i_2_7),
        Identity("I_2_8", _GEN8, _i_2_8),
        Identity("I_3_2", ("a", "b", "c", "e", "f", "g"), _i_3_2),
        Identity("I_3_5", ("q", "b", "c", "d", "f", "g", "h"), _i_3_5),
        Identity("I_4_2", ("q",) + _GEN8, _i_4_2),
        Identity("I_4_3", _GEN8, _i_4_3),
        Identity("I_4_5", _GEN8, _i_4_5),
        Identity("I_4_4X", _GEN8, _i_4_4x),
        Identity("I_4_9", ("a", "b", "c", "d"), _i_4_9),
        Identity("I_4_13", ("q",) + _GEN8, _i_4_13),
        Identity("I_4_15", ("q", "a", "b", "c", "e", "f", "g"), _i_4_15),
        Identity("I_4_16", _GEN8, _i_4_16),
        Identity("I_5_8", ("t", "delta", "w", "z"), _i_5_8),
        Identity("I_5_9", ("t", "delta", "x", "y"), _i_5_9),
        Identity("I_5_14", ("a", "b", "c", "d", "e", "f", "g"), _i_5_14),
        Identity("I_6_6", ("p", "q", "r", "s"), _i_6_6),
        Identity("I_6_10", ("p", "q", "r", "s"), _i_6_10),
    ]
}

ALL_TAGS = tuple(CATALOG)


def _get(tag: str) -> Identity:
    try:
        return CATALOG[tag]
    except KeyError:
        raise KeyError(f"unknown identity tag {tag!r}") from None


def prove_identity(tag: str) -> IdentityReport:
    """Expand lhs - rhs over the generic polynomial ring; zero means proved."""
    ident = _get(tag)
    ring = PolynomialRing(ident.symbols)
    pairs = ident.build(ring.gens())
    diffs = [lhs - rhs for lhs, rhs in pairs]
    holds = all(d.is_zero() for d in diffs)
    if len(diffs) == 1:
        residual = diffs[0]
    else:
        residual = ring.zero()
        for d in diffs:
            residual = residual + d * d
    return IdentityReport(
        id=tag,
        residual=residual,
        holds=holds,
        term_count_lhs=sum(l.term_count() for l, _ in pairs),
        term_count_rhs=sum(r.term_count() for _, r in pairs),
    )


def eval_identity(tag: str, bindings: Mapping[str, RingValue]) -> Pair:
    """Evaluate both sides at concrete ring elements.

    For identities with several componentwise equations, the returned
    pair is (sum of lhs_i^2, sum of rhs_i^2).
    """
    ident = _get(tag)
    missing = [s for s in ident.symbols if s not in bindings]
    if missing:
        raise KeyError(f"missing binding(s) for {tag}: {', '.join(missing)}")
    rings = {bindings[s].ring for s in ident.symbols}
    if len(rings) != 1:
        raise RingMismatchError("identity bindings must share one ring")
    pairs = ident.build({s: bindings[s] for s in ident.symbols})
    if len(pairs) == 1:
        return pairs[0]
    ring = next(iter(rings))
    lhs, rhs = ring.zero(), ring.zero()
    for l, r in pairs:
        lhs = lhs + l * l
        rhs = rhs + r * r
    return lhs, rhs


def corollary_4_7_eval(case: int, X: Mat2, Y: Mat2) -> Pair:
    """Evaluate the two sides of one special case of the supertrace formula.

    Case 1 needs XY with zero diagonal; case 2 needs X with a constant
    diagonal; case 3 needs XY = YX.
    """
    d, dp = X.det(), Y.det()
    tau, taup = X.supertrace(), Y.supertrace()
    XY, YX = X * Y, Y * X
    if case == 1:
        if not (XY.m11.is_zero() and XY.m22.is_zero()):
            raise ValueError("case 1 requires XY to have a zero diagonal")
        return -commutator(X, Y).det(), d * taup ** 2 + dp * tau ** 2
    if case == 2:
        if not (X.m11 - X.m22).is_zero():
            raise ValueError("case 2 requires X to have equal diagonal entries")
        return (-commutator(X, Y).det(),
                d * taup ** 2 - XY.supertrace() * YX.supertrace())
    if case == 3:
        if not (XY - YX).is_zero():
            raise ValueError("case 3 requires XY = YX")
        return (XY.supertrace() ** 2,
                d * taup ** 2 + dp * tau ** 2 + XY.trace() * taup * tau)
    raise ValueError("case must be 1, 2 or 3")


def remark_4_4B_divisibility_check(X: Mat2, Y: Mat2) -> bool:
    """For integer X, Y with det(X) = det(Y) = 0, check tr(XY) | det[X,Y].

    Convention: 0 divides only 0.
    """
    if not isinstance(X.ring, IntegerRing):
        raise ValueError("divisibility check requires integer matrices")
    if not (X.det().is_zero() and Y.det().is_zero()):
        raise ValueError("requires det(X) = det(Y) = 0")
    t = (X * Y).trace().payload
    d = commutator(X, Y).det().payload
    if t == 0:
        return d == 0
    return d % t == 0
