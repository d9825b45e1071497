"""Binary quadratic forms: evaluation, finite value sets, witness search.

Representation search over Z solves one quadratic in r2 per row r1 of
a bounded box.  For positive definite forms the search also derives the
analytic coordinate bounds, so an exhausted search within those bounds
is a genuine nonexistence proof; for all other forms exhaustion only
means "no witness within the bound".
"""

from __future__ import annotations

import math

from .rings import IntegerRing, ModularRing, RingMismatchError, RingValue, ZZ, _Frozen

__all__ = [
    "QuadForm",
    "Representation",
    "SearchResult",
    "discriminant",
    "value_set_mod",
    "representable_mod",
    "search_representation",
    "inclusion_chain_check_mod",
    "MAX_ENUM_MODULUS",
    "MAX_SEARCH_BOUND",
]

MAX_ENUM_MODULUS = 16
# search_representation solves up to 2*bound+1 rows, so the bound is capped
MAX_SEARCH_BOUND = 10**6


class QuadForm(_Frozen):
    """Coefficients (s, t, delta) of s*x^2 + t*x*y + delta*y^2."""

    __slots__ = ("s", "t", "delta")

    def __init__(self, s: RingValue, t: RingValue, delta: RingValue):
        if t.ring != s.ring or delta.ring != s.ring:
            raise RingMismatchError("form coefficients must share one ring")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "delta", delta)

    @property
    def ring(self):
        return self.s.ring

    @classmethod
    def from_ints(cls, ring, s: int, t: int, delta: int) -> "QuadForm":
        return cls(ring.from_int(s), ring.from_int(t), ring.from_int(delta))

    @classmethod
    def diagonal(cls, ring, p: int, q: int) -> "QuadForm":
        return cls.from_ints(ring, p, 0, q)

    def eval(self, r1: RingValue, r2: RingValue) -> RingValue:
        if r1.ring != self.ring or r2.ring != self.ring:
            raise RingMismatchError("arguments must share the form's ring")
        return self.s * r1 ** 2 + self.t * r1 * r2 + self.delta * r2 ** 2


class Representation(_Frozen):
    """r1, r2 and value = f(r1, r2), all ring values."""

    __slots__ = ("r1", "r2", "value")


class SearchResult(_Frozen):
    """found: a Representation or None; proved_absent: bool; bound: the int bound searched."""

    __slots__ = ("found", "proved_absent", "bound")


def discriminant(t: RingValue, delta: RingValue) -> RingValue:
    """t^2 - 4*delta."""
    four = t.ring.from_int(4)
    return t ** 2 - four * delta


def _values_mod(s: int, t: int, d: int, n: int) -> set[int]:
    """Image of (Z/n)^2 under s*x^2 + t*x*y + d*y^2, by full enumeration."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if n > MAX_ENUM_MODULUS:
        raise ValueError(f"modulus {n} exceeds enumeration cap {MAX_ENUM_MODULUS}")
    return {(s * x * x + t * x * y + d * y * y) % n for x in range(n) for y in range(n)}


def value_set_mod(form: QuadForm) -> set[int]:
    """Exact image of (Z/n)^2 under the form, by full enumeration."""
    ring = form.ring
    if not isinstance(ring, ModularRing):
        raise TypeError("value_set_mod expects a form over a modular ring")
    return _values_mod(form.s.payload, form.t.payload, form.delta.payload, ring.modulus)


def representable_mod(p: int, q: int, c: int, n: int) -> bool:
    """Whether c mod n lies in the value set of p*x^2 + q*y^2 over Z/n."""
    values = _values_mod(p, 0, q, n)
    return c % n in values


def _int_quadratic_roots(a: int, b: int, c: int) -> tuple[int, ...] | None:
    """Ascending integer roots of a*x^2 + b*x + c = 0; None if every x is one."""
    if a == 0:
        if b == 0:
            return None if c == 0 else ()
        return (-c // b,) if c % b == 0 else ()
    disc = b * b - 4 * a * c
    if disc < 0:
        return ()
    root = math.isqrt(disc)
    if root * root != disc:
        return ()
    return tuple(sorted({(e - b) // (2 * a) for e in (root, -root)
                         if (e - b) % (2 * a) == 0}))


def search_representation(form: QuadForm, c: int, bound: int) -> SearchResult:
    """Search |r1|, |r2| <= bound for f(r1, r2) = c over the integers.

    Each row r1 is solved exactly for r2.  Search order: ascending
    |r1|+|r2|, then ascending |r1|, then nonnegative values before
    negatives.  Deterministic, so the first hit is reproducible across
    runs.  Raises ValueError unless 1 <= bound <= MAX_SEARCH_BOUND.
    """
    if not isinstance(form.ring, IntegerRing):
        raise TypeError("integer search expects a form over the integers")
    if not 1 <= bound <= MAX_SEARCH_BOUND:
        raise ValueError(f"bound must be between 1 and {MAX_SEARCH_BOUND}")
    s = form.s.payload
    t = form.t.payload
    d = form.delta.payload
    disc = t * t - 4 * s * d

    proved = False
    eff_bound = bound
    if s > 0 and disc < 0:
        # positive definite: f >= (-disc)/(4s) * y^2 and f >= (-disc)/(4d) * x^2
        if c < 0:
            return SearchResult(found=None, proved_absent=True, bound=0)
        b2 = math.isqrt(4 * s * c // (-disc)) + 1
        b1 = math.isqrt(4 * d * c // (-disc)) + 1
        analytic = max(b1, b2)
        if analytic <= bound:
            eff_bound = analytic
            proved = True

    best = None  # (|r1|+|r2|, |r1|, r1<0, r2<0, r1, r2): the first hit in search order
    for a1 in range(eff_bound + 1):
        if best is not None and a1 > best[0]:
            break
        for r1 in ((a1, -a1) if a1 else (0,)):
            roots = _int_quadratic_roots(d, t * r1, s * r1 * r1 - c)
            for r2 in (0,) if roots is None else roots:
                if abs(r2) <= eff_bound:
                    key = (a1 + abs(r2), a1, r1 < 0, r2 < 0, r1, r2)
                    best = key if best is None else min(best, key)
    if best is not None:
        rep = Representation(ZZ.from_int(best[4]), ZZ.from_int(best[5]), ZZ.from_int(c))
        return SearchResult(found=rep, proved_absent=False, bound=eff_bound)
    return SearchResult(found=None, proved_absent=proved, bound=eff_bound)


def inclusion_chain_check_mod(t: int, delta: int, n: int) -> bool:
    """Check 4*V[1,t,delta] <= V[1,-Disc] <= V[1,t,delta] over Z/n."""
    disc = t * t - 4 * delta
    vf = _values_mod(1, t, delta, n)
    vg = _values_mod(1, 0, -disc, n)
    four_vf = {(4 * v) % n for v in vf}
    return four_vf <= vg and vg <= vf
