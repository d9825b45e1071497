"""Independent verdict oracle for the benchmark.

Everything here is plain-int arithmetic written from the mathematics,
not from the library: it imports nothing from ``commdet`` and only reads
the plain data a verdict carries.  Each ``check_*`` function returns
``(ok, decided, reason)``: ``ok`` says the verdict matches the known
answer, ``decided`` says the operation ended in a verified witness or a
proof of absence, and ``reason`` explains a mismatch.
"""

from __future__ import annotations

import json
import math

# Box the preimage fallback documents: |r|, |s| <= 10^4.
PREIMAGE_FALLBACK_BOX = 10**4
# Large prime for Schwartz-Zippel checks of polynomial results.
EVAL_PRIME = (1 << 61) - 1

OK = (True, True, "")


def _fail(reason):
    return False, False, reason


# ---------------------------------------------------------------- quadratic forms

def shell_key(r1, r2):
    """Documented scan order: |r1|+|r2|, then |r1|, then sign of r1, of r2."""
    return (abs(r1) + abs(r2), abs(r1), r1 < 0, r2 < 0)


def form_value(s, t, d, x, y):
    return s * x * x + t * x * y + d * y * y


def row_roots(s, t, d, c, r1):
    """Integer r2 with s*r1^2 + t*r1*r2 + d*r2^2 = c, or None for "every r2"."""
    a, b, k = d, t * r1, s * r1 * r1 - c
    if a == 0:
        if b == 0:
            return None if k == 0 else []
        return [-k // b] if k % b == 0 else []
    disc = b * b - 4 * a * k
    if disc < 0:
        return []
    root = math.isqrt(disc)
    if root * root != disc:
        return []
    return sorted({num // (2 * a) for num in (-b + root, -b - root) if num % (2 * a) == 0})


def first_hit(s, t, d, c, bound):
    """First (r1, r2) in the documented order with |r1|, |r2| <= bound."""
    best = None
    for r1 in range(-bound, bound + 1):
        roots = row_roots(s, t, d, c, r1)
        cands = [0] if roots is None else [r2 for r2 in roots if abs(r2) <= bound]
        for r2 in cands:
            if best is None or shell_key(r1, r2) < shell_key(*best):
                best = (r1, r2)
    return best


def definite_represents(s, t, d, c):
    """Whether a definite form represents c anywhere in Z^2.

    For a positive definite form, 4*s*f = (2*s*x + t*y)^2 - D*y^2 bounds
    |y| by sqrt(4*s*c / -D); each row y is then solved exactly.
    """
    disc = t * t - 4 * s * d
    if disc >= 0:
        raise ValueError("form is not definite")
    if s < 0:
        s, t, d, c = -s, -t, -d, -c
    if c < 0:
        return False
    ybound = math.isqrt(4 * s * c // -disc)
    for y in range(-ybound, ybound + 1):
        # row in x: s*x^2 + (t*y)*x + (d*y^2 - c) = 0, i.e. the swapped form
        if row_roots(d, t, s, c, y):
            return True
    return False


def value_set(s, t, d, n):
    return {form_value(s, t, d, x, y) % n for x in range(n) for y in range(n)}


def truly_absent(s, t, d, c, truth):
    """Decide whether c is represented nowhere; None if the oracle cannot tell."""
    if t * t - 4 * s * d < 0:
        return not definite_represents(s, t, d, c)
    kind = truth[0]
    if kind == "planted":
        return False
    if kind == "mod":
        m = truth[1]
        if c % m not in value_set(s, t, d, m):
            return True
        return None
    return None


def check_represent(params, verdict):
    """params: (s, t, d, c, bound, truth); verdict: (found, proved_absent)."""
    s, t, d, c, bound, truth = params
    found, proved = verdict
    want = first_hit(s, t, d, c, bound)
    if found is not None:
        found = tuple(found)
        if form_value(s, t, d, *found) != c:
            return _fail(f"witness {found} does not represent {c}")
    if found != want:
        return _fail(f"first hit {found}, expected {want}")
    if proved:
        if found is not None:
            return _fail("proved_absent together with a witness")
        absent = truly_absent(s, t, d, c, truth)
        if absent is None:
            return _fail("proved_absent that the oracle cannot confirm")
        if not absent:
            return _fail("false proved_absent: the value is represented")
    return True, found is not None or bool(proved), ""


# ---------------------------------------------------------------- conic preimages

def _signed_divisors(m):
    m = abs(m)
    out = set()
    for k in range(1, math.isqrt(m) + 1):
        if m % k == 0:
            out.update((k, -k, m // k, -(m // k)))
    return out


def _square_roots(v):
    if v < 0:
        return []
    root = math.isqrt(v)
    return sorted({root, -root}) if root * root == v else []


def all_preimages(p, q, c, x, y, z):
    """Every integer (r, s) on p*r^2 + q*s^2 = c whose curve image is (x, y, z).

    Solves from x = r*(2*q*s - r): r divides x, and s follows linearly.
    """
    def maps(r, s):
        return (p * r * r + q * s * s == c and r * (2 * q * s - r) == x
                and -s * (2 * p * r + s) == y and r * s + p * r * r - q * s * s == z)

    cands = set()
    if q == 0:
        for r in _square_roots(-x):
            # s^2 + 2*p*r*s + y = 0
            for root in _square_roots(p * p * r * r - y):
                cands.update(((r, -p * r + root), (r, -p * r - root)))
    elif x != 0:
        for r in _signed_divisors(x):
            num = x // r + r
            if num % (2 * q) == 0:
                cands.add((r, num // (2 * q)))
    else:
        # r = 0, or r = 2*q*s with y = -(4*p*q + 1)*s^2
        cands.update((0, s) for s in _square_roots(-y))
        k = 4 * p * q + 1
        if -y % k == 0:
            cands.update((2 * q * s, s) for s in _square_roots(-y // k))
    return sorted(rs for rs in cands if maps(*rs))


def check_preimage(params, verdict):
    """params: (p, q, c, (x, y, z)); verdict: (hits, bounded)."""
    p, q, c, (x, y, z) = params
    hits, bounded = verdict
    hits = sorted(tuple(h) for h in hits)
    full = all_preimages(p, q, c, x, y, z)
    if not bounded:
        if hits != full:
            return _fail(f"preimages {hits}, expected {full}")
        return OK
    inside = [h for h in full if max(abs(h[0]), abs(h[1])) <= PREIMAGE_FALLBACK_BOX]
    if not set(inside) <= set(hits) or not set(hits) <= set(full):
        return _fail(f"bounded preimages {hits}, expected {inside}")
    return True, False, ""


# ---------------------------------------------------------------- residues

def check_value_set(params, verdict):
    s, t, d, n = params
    want = sorted(value_set(s, t, d, n))
    if sorted(verdict) != want:
        return _fail(f"value set {sorted(verdict)}, expected {want}")
    return OK


def check_representable(params, verdict):
    p, q, c, n = params
    want = c % n in value_set(p, 0, q, n)
    return OK if verdict is want else _fail(f"representable {verdict}, expected {want}")


def check_inclusion(params, verdict):
    t, delta, n = params
    vf = value_set(1, t, delta, n)
    vg = value_set(1, 0, -(t * t - 4 * delta), n)
    want = {(4 * v) % n for v in vf} <= vg <= vf
    return OK if verdict is want else _fail(f"inclusion {verdict}, expected {want}")


def scalar_dichotomy(p):
    """Over M_2(F_p): X is scalar iff det[X, Y] = 0 for every Y."""
    mats = [(a, b, c, d) for a in range(p) for b in range(p)
            for c in range(p) for d in range(p)]
    for X in mats:
        scalar = X[1] == 0 and X[2] == 0 and X[0] == X[3]
        central = all(int_comm_det(X, Y) % p == 0 for Y in mats)
        if central != scalar:
            return False
    return True


def check_scalar(params, verdict):
    (p,) = params
    want = scalar_dichotomy(p)
    return OK if verdict is want else _fail(f"scalar check {verdict}, expected {want}")


# ---------------------------------------------------------------- 2x2 matrices over Z

def int_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def int_det(x):
    return x[0] * x[3] - x[1] * x[2]


def int_comm_det(x, y):
    xy, yx = int_mul(x, y), int_mul(y, x)
    return int_det(tuple(u - v for u, v in zip(xy, yx)))


def _flat(m):
    return tuple(v for row in m for v in row)


def check_factor(params, verdict):
    """params: (n, p, q, c, r, s) with n = 0 for Z; verdict: matrices and (r', s')."""
    n, p, q, c, r, s = params
    mats, (r2, s2) = verdict
    X, Y, X1, Y1, A = (_flat(m) for m in mats)

    def red(v):
        return v % n if n else v

    def same(u, v):
        return red(u - v) == 0

    cA = tuple(c * v for v in A)
    eqs = [
        all(same(u, v) for u, v in zip(int_mul(X, Y), cA)),
        all(same(u, v) for u, v in zip(int_mul(X1, Y1), cA)),
        same(A[0], 0) and same(A[1], q) and same(A[2], -p) and same(A[3], 0),
        same(int_det(X), c * p), same(int_det(Y), c * q),
        same(int_det(X1), c * q), same(int_det(Y1), c * p),
        same(int_comm_det(X, Y), -c * c), same(int_comm_det(X1, Y1), -c * c),
        same(p * r2 * r2 + q * s2 * s2, c),
    ]
    if not all(eqs):
        return _fail(f"factorization equations failed: {eqs}")
    return OK


def curve_point(p, q, r, s):
    return (r * (2 * q * s - r), -s * (2 * p * r + s), r * s + p * r * r - q * s * s)


def check_curve(params, verdict):
    """params: (p, q, c, r, s); verdict: (point, mirrored point or None)."""
    p, q, c, r, s = params
    pt, mirrored = verdict
    x, y, z = pt
    if tuple(pt) != curve_point(p, q, r, s):
        return _fail(f"curve image {pt}, expected {curve_point(p, q, r, s)}")
    if p * x + q * y != -c or x * y - z * z != -c * c:
        return _fail("curve image misses the plane or the quadric")
    if mirrored is not None:
        x1, y1, z1 = mirrored
        if (x1, y1, z1) != (-x, -y, z) or p * x1 + q * y1 != c or x1 * y1 - z1 * z1 != -c * c:
            return _fail(f"mirrored point {mirrored} fails its equations")
    return OK


def check_norm(params, verdict):
    """params: (X, Y) as flat int tuples; verdict: (u, v, c, t, delta, value, u0, v0)."""
    X, Y = params
    u, v, c, t, delta, value, u0, v0 = verdict
    want = -(X[2] ** 2) * int_comm_det(X, Y)
    eqs = [c == X[2], t == X[0] + X[3], delta == int_det(X), value == want,
           u * u + t * u * v + delta * v * v == want,
           u0 * u0 - (t * t - 4 * delta) * v0 * v0 == 4 * want]
    if not all(eqs):
        return _fail(f"norm witness equations failed: {eqs}")
    return OK


def check_traceless(params, verdict):
    """params: (a, b, c, e, f, g) for X = [[a,b],[c,-a]], Y = [[e,f],[g,-e]]."""
    a, b, c, e, f, g = params
    P, Q = verdict
    lhs = -(c * c) * int_comm_det((a, b, c, -a), (e, f, g, -e))
    if lhs != P * P - 4 * (a * a + b * c) * Q * Q:
        return _fail("traceless witness equation failed")
    return OK


# ---------------------------------------------------------------- scalar rings

class Scalars:
    """Plain arithmetic in Z (n = 0), Z/n, or the nil plane (n = 'nil')."""

    def __init__(self, n):
        self.n = n

    def norm(self, a):
        if self.n == "nil":
            return tuple(a)
        return a % self.n if self.n else a

    def const(self, k):
        return (k, 0, 0) if self.n == "nil" else self.norm(k)

    def add(self, a, b):
        if self.n == "nil":
            return (a[0] + b[0], a[1] + b[1], a[2] + b[2])
        return self.norm(a + b)

    def neg(self, a):
        if self.n == "nil":
            return (-a[0], -a[1], -a[2])
        return self.norm(-a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.n == "nil":
            return (a[0] * b[0], a[0] * b[1] + a[1] * b[0], a[0] * b[2] + a[2] * b[0])
        return self.norm(a * b)

    def power(self, a, e):
        if self.n == "nil":
            if e == 0:
                return (1, 0, 0)
            lead = a[0] ** (e - 1)
            return (lead * a[0], e * lead * a[1], e * lead * a[2])
        return pow(a, e, self.n) if self.n else a ** e

    # 2x2 matrices as flat tuples
    def mmul(self, x, y):
        a, b, c, d = x
        e, f, g, h = y
        m, s = self.mul, self.add
        return (s(m(a, e), m(b, g)), s(m(a, f), m(b, h)),
                s(m(c, e), m(d, g)), s(m(c, f), m(d, h)))

    def det(self, x):
        return self.sub(self.mul(x[0], x[3]), self.mul(x[1], x[2]))

    def trace(self, x):
        return self.add(x[0], x[3])

    def strace(self, x):
        return self.sub(x[0], x[3])

    def comm_det(self, x, y):
        xy, yx = self.mmul(x, y), self.mmul(y, x)
        return self.det(tuple(self.sub(u, v) for u, v in zip(xy, yx)))


def _lhs_8(sc, v):
    X = (v["a"], v["b"], v["c"], v["d"])
    Y = (v["e"], v["f"], v["g"], v["h"])
    return X, Y


def _traceless(sc, v):
    X = (v["a"], v["b"], v["c"], sc.neg(v["a"]))
    Y = (v["e"], v["f"], v["g"], sc.neg(v["e"]))
    return sc.comm_det(X, Y)


# Left-hand side of each catalog identity the oracle recomputes, written
# from the identity's statement.
EVAL_LHS = {
    "I_2_2": lambda sc, v: sc.comm_det(*_lhs_8(sc, v)),
    "I_2_7": lambda sc, v: sc.comm_det(*_lhs_8(sc, v)),
    "I_4_3": lambda sc, v: sc.comm_det(*_lhs_8(sc, v)),
    "I_4_5": lambda sc, v: sc.neg(sc.comm_det(*_lhs_8(sc, v))),
    "I_4_4X": lambda sc, v: sc.mul(sc.const(2), sc.comm_det(*_lhs_8(sc, v))),
    "I_4_2": lambda sc, v: sc.mul(v["q"], sc.comm_det(*_lhs_8(sc, v))),
    "I_2_5": lambda sc, v: sc.det(tuple(sc.sub(u, w) for u, w in zip(*_lhs_8(sc, v)))),
    "I_2_8": lambda sc, v: sc.power(sc.trace(sc.mmul(*_lhs_8(sc, v))), 2),
    "I_4_16": lambda sc, v: sc.add(sc.strace(sc.mmul(*_lhs_8(sc, v))),
                                   sc.strace(sc.mmul(*reversed(_lhs_8(sc, v))))),
    "I_4_9": lambda sc, v: sc.power(sc.sub(sc.mul(v["a"], v["c"]), sc.mul(v["b"], v["d"])), 2),
    "I_3_2": _traceless,
    "I_5_9": lambda sc, v: sc.mul(sc.const(4), sc.add(
        sc.add(sc.mul(v["x"], v["x"]), sc.mul(sc.mul(v["t"], v["x"]), v["y"])),
        sc.mul(v["delta"], sc.mul(v["y"], v["y"])))),
    "I_5_8": lambda sc, v: sc.sub(sc.mul(v["w"], v["w"]), sc.mul(
        sc.sub(sc.mul(v["t"], v["t"]), sc.mul(sc.const(4), v["delta"])),
        sc.mul(v["z"], v["z"]))),
}


def check_eval(params, verdict):
    """params: (tag, n, bindings); verdict: (lhs payload, rhs payload)."""
    tag, n, bindings = params
    sc = Scalars(n)
    want = EVAL_LHS[tag](sc, {k: sc.norm(v) for k, v in bindings.items()})
    lhs, rhs = (sc.norm(x) for x in verdict)
    if lhs != want or rhs != want:
        return _fail(f"{tag}: sides ({lhs}, {rhs}), expected {want}")
    return OK


def parse_expected(n, terms):
    """Value of sum(coef * base^exp) for the terms a parse operation renders."""
    sc = Scalars(n)
    total = sc.const(0)
    for coef, base, exp in terms:
        total = sc.add(total, sc.mul(sc.const(coef), sc.power(sc.norm(base), exp)))
    return total


def check_parse(params, verdict):
    """params: (n, [terms per entry]); verdict: payload per entry."""
    n, entries = params
    sc = Scalars(n)
    got = [sc.norm(v) for v in verdict]
    want = [parse_expected(n, terms) for terms in entries]
    return OK if got == want else _fail(f"parsed {got}, expected {want}")


# ---------------------------------------------------------------- polynomials

def poly_eval(terms, point, prime=EVAL_PRIME):
    """Evaluate (exponent-vector, coefficient) pairs at a point mod a prime."""
    items = terms.items() if isinstance(terms, dict) else terms
    total = 0
    for exps, coef in items:
        term = coef
        for v, e in zip(point, exps):
            if e:
                term = term * pow(v, e, prime) % prime
        total = (total + term) % prime
    return total


def check_generic(params, verdict):
    """Generic identity over the polynomial ring, re-checked at a random point.

    params: (kind, X entries, Y entries, point); verdict: (holds, poly).
    """
    kind, X, Y, point = params
    holds, poly = verdict
    if holds is not True:
        return _fail(f"{kind}: identity reported as failing")
    P = EVAL_PRIME
    x = tuple(poly_eval(e, point) for e in X)
    y = tuple(poly_eval(e, point) for e in Y)
    if kind == "detmul":
        want = int_det(x) * int_det(y) % P
    elif kind == "cayley":
        want = int_det(x) % P
    else:  # commutator: its (1,2) entry
        want = (int_mul(x, y)[1] - int_mul(y, x)[1]) % P
    got = poly_eval(poly, point)
    return OK if got == want else _fail(f"{kind}: polynomial result is wrong at a point")


def check_catalog(params, verdict):
    (tag,) = params
    holds, residual_terms = verdict
    if holds is not True or residual_terms != 0:
        return _fail(f"{tag}: catalog identity not proved")
    return OK


# ---------------------------------------------------------------- CLI verdicts

def _json_checks(kind, params, doc):
    if kind == "represent":
        found = (doc["r1"], doc["r2"]) if doc["found"] else None
        return check_represent(params, (found, doc["proved_absent"]))
    if kind == "factor":
        p, q, c, r, s = params
        if r is None:
            want = first_hit(p, 0, q, c, 1000)
            if (doc["r"], doc["s"]) != want:
                return _fail(f"implicit search chose {(doc['r'], doc['s'])}, expected {want}")
        mats = [doc[k] for k in ("X", "Y", "X1", "Y1", "A")]
        return check_factor((0, p, q, c, doc["r"], doc["s"]), (mats, (doc["r"], doc["s"])))
    if kind == "curve":
        p, q, c, r, s = params
        x, y, z = doc["x"], doc["y"], doc["z"]

        def cong(a, b, m):
            return a == b if m == 0 else (a - b) % abs(m) == 0

        want = {"x_cong_minus_r2_mod_2q": cong(x, -r * r, 2 * q),
                "y_cong_minus_s2_mod_2p": cong(y, -s * s, 2 * p),
                "z_cong_c_mod_s": cong(z, c, s), "z_cong_minus_c_mod_r": cong(z, -c, r)}
        if doc["congruences"] != want:
            return _fail(f"congruences {doc['congruences']}, expected {want}")
        return check_curve(params, ((x, y, z), None))
    if kind == "preimage":
        return check_preimage(params, (doc["preimages"], doc["bounded"]))
    if kind == "norm":
        keys = ("u", "v", "c", "t", "delta", "certified_value", "u0", "v0")
        return check_norm(params, tuple(doc[k] for k in keys))
    if kind == "values":
        if doc["modulus"] != params[3]:
            return _fail("values-mod reports the wrong modulus")
        return check_value_set(params, doc["values"])
    if kind == "examples":
        ok = doc["pass"] is True and all(e["pass"] for e in doc["entries"])
        return OK if ok else _fail("examples ledger reports a failure")
    raise ValueError(f"unknown CLI check {kind!r}")


def check_cli(params, verdict):
    """params: (expectation, argv); verdict: (exit code, stdout, stderr)."""
    expect, _ = params
    code, out, err = verdict
    kind = expect[0]
    if kind == "usage":
        if code == 2 and "Traceback" not in err:
            return True, False, ""
        if code == 1 and "Traceback" in err and "bound must be >= 1" in err:
            return _fail("known defect: --bound 0 exits 1 with a traceback, not a usage error")
        return _fail(f"usage error exited {code}: {err.strip()[-200:]}")
    if code != 0 or "Traceback" in err:
        return _fail(f"exit {code}: {err.strip()[-200:]}")
    if kind == "text":
        missing = [line for line in expect[1] if line not in out]
        return OK if not missing else _fail(f"missing output lines {missing}")
    if kind == "verify":
        docs = [json.loads(line) for line in out.splitlines()]
        want = [{"id": expect[1], "holds": True, "residual_terms": 0}]
        return OK if docs == want else _fail(f"verify printed {docs}")
    try:
        doc = json.loads(out)
    except ValueError:
        return _fail(f"stdout is not one JSON document: {out[:200]!r}")
    return _json_checks(kind, expect[1] if len(expect) > 1 else None, doc)
