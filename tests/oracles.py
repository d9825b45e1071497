"""Independent oracles used by the test suite.

These deliberately avoid the library's own arithmetic paths.
"""

from __future__ import annotations

import math


def schoolbook_multiply(a: int, b: int) -> int:
    """Digit-array long multiplication in base 10."""
    sign = 1
    if a < 0:
        sign, a = -sign, -a
    if b < 0:
        sign, b = -sign, -b
    da = [int(ch) for ch in str(a)][::-1]
    db = [int(ch) for ch in str(b)][::-1]
    out = [0] * (len(da) + len(db))
    for i, x in enumerate(da):
        carry = 0
        for j, y in enumerate(db):
            total = out[i + j] + x * y + carry
            out[i + j] = total % 10
            carry = total // 10
        out[i + len(db)] += carry
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return sign * int("".join(str(d) for d in out[::-1]))


def mat_mul(x, y, n=0):
    """2x2 integer matrix product on ((a,b),(c,d)) tuples, optionally mod n."""
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    out = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
    if n:
        out = tuple(tuple(v % n for v in row) for row in out)
    return out


def mat_sub(x, y):
    return tuple(tuple(u - v for u, v in zip(r1, r2)) for r1, r2 in zip(x, y))


def det(m):
    (a, b), (c, d) = m
    return a * d - b * c


def tr(m):
    return m[0][0] + m[1][1]


def strace(m):
    return m[0][0] - m[1][1]


def commutator_det(x, y) -> int:
    return det(mat_sub(mat_mul(x, y), mat_mul(y, x)))


def shell_box_search(s, t, d, c, bound):
    """Representation search for s*x^2 + t*x*y + d*y^2 = c by a full box scan.

    Visits |r1|, |r2| <= bound in the documented order (ascending
    |r1|+|r2|, then ascending |r1|, nonnegative before negative) and
    returns (first hit or None, proved_absent, effective bound), using
    the positive-definite analytic bound as the library does.
    """
    disc = t * t - 4 * s * d
    proved = False
    if s > 0 and disc < 0:
        if c < 0:
            return None, True, 0
        analytic = max(math.isqrt(4 * s * c // -disc), math.isqrt(4 * d * c // -disc)) + 1
        if analytic <= bound:
            bound, proved = analytic, True
    for total in range(2 * bound + 1):
        for a1 in range(max(0, total - bound), min(total, bound) + 1):
            a2 = total - a1
            for r1 in ([a1, -a1] if a1 else [0]):
                for r2 in ([a2, -a2] if a2 else [0]):
                    if s * r1 * r1 + t * r1 * r2 + d * r2 * r2 == c:
                        return (r1, r2), False, bound
    return None, proved, bound


def linear_pow(x, n: int):
    """x**n by n successive ring multiplications, starting from one.

    The reference for RingValue.__pow__'s square-and-multiply.
    """
    out = x.ring.one()
    for _ in range(n):
        out = out * x
    return out


def poly_canon(terms):
    """Nonzero (exponents, coefficient) pairs of a dict, in descending graded-lex order."""
    items = [(e, c) for e, c in terms.items() if c != 0]
    items.sort(key=lambda t: (sum(t[0]), t[0]), reverse=True)
    return tuple(items)


def poly_add(a, b):
    """Sum of two polynomial payloads by one dict of exponent tuples."""
    terms = dict(a)
    for e, c in b:
        terms[e] = terms.get(e, 0) + c
    return poly_canon(terms)


def poly_mul(a, b):
    """Product of two polynomial payloads: one exponent tuple per term pair.

    The reference for PolynomialRing._mul's packed monomial keys.
    """
    terms = {}
    for ea, ca in a:
        for eb, cb in b:
            e = tuple(x + y for x, y in zip(ea, eb))
            terms[e] = terms.get(e, 0) + ca * cb
    return poly_canon(terms)


def poly_dot(xs, ys):
    """Sum of products of polynomial payloads: a fold of poly_mul and poly_add.

    The reference for PolynomialRing._dot's one dict over all pairs.
    """
    out = ()
    for a, b in zip(xs, ys):
        out = poly_add(out, poly_mul(a, b))
    return out


def conic_preimages(p, q, c, x, y, z):
    """Every integer (r, s) on p*r^2 + q*s^2 = c whose curve image is (x, y, z).

    The curve image of (r, s) is x = r*(2*q*s - r), y = -s*(2*p*r + s),
    z = r*s + p*r^2 - q*s^2, so z - c = s*(r - 2*q*s).  When z != c, s
    divides z - c and r is a root of r^2 - 2*q*s*r + x = 0.  When z = c,
    either s = 0 and x = -r^2, or r = 2*q*s and y = -(4*p*q + 1)*s^2.
    The reference for witnesses.preimage_search, which solves by rows r.
    """
    def monic_roots(b, k):
        # integer roots of t^2 + b*t + k
        disc = b * b - 4 * k
        if disc < 0 or math.isqrt(disc) ** 2 != disc:
            return []
        e = math.isqrt(disc)
        return [(-b + e) // 2, (-b - e) // 2] if (b + e) % 2 == 0 else []

    cands = set()
    if z != c:
        m = abs(z - c)
        for k in range(1, math.isqrt(m) + 1):
            if m % k == 0:
                for s in (k, -k, m // k, -(m // k)):
                    cands.update((r, s) for r in monic_roots(-2 * q * s, x))
    else:
        cands.update((r, 0) for r in monic_roots(0, x))
        k = 4 * p * q + 1
        if y % k == 0:
            cands.update((2 * q * s, s) for s in monic_roots(0, y // k))
    return sorted((r, s) for r, s in cands
                  if p * r * r + q * s * s == c and r * (2 * q * s - r) == x
                  and -s * (2 * p * r + s) == y and r * s + p * r * r - q * s * s == z)
