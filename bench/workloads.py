"""Seeded workloads: input generators, operation executors and the pass loop.

A workload is a stream of rounds.  Round ``i`` is drawn from
``random.Random(f"{workload}:{seed}:{i}")`` and a per-run set of inputs
already used, so the same seed always yields the same operations and no
operation input repeats within a run.  Generators produce plain data
(ints, tuples, strings); commdet only ever sees those inputs, converted
through its public API inside the timed interval.

An operation is one user-level verdict.  The pass loop is a closed loop
with one client: the next operation starts when the previous verdict has
returned.  Each verdict is checked by ``oracle`` outside the timed
interval.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field

import oracle

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

CATALOG_TAGS = ("I_2_2", "I_2_5", "I_2_7", "I_2_8", "I_3_2", "I_3_5", "I_4_2",
                "I_4_3", "I_4_5", "I_4_4X", "I_4_9", "I_4_13", "I_4_15", "I_4_16",
                "I_5_8", "I_5_9", "I_5_14", "I_6_6", "I_6_10")
POLY_VARS = ("a", "b", "c", "d", "e", "f", "g", "h")
EVAL_SYMBOLS = {
    "I_2_2": POLY_VARS, "I_2_5": POLY_VARS, "I_2_7": POLY_VARS, "I_2_8": POLY_VARS,
    "I_4_3": POLY_VARS, "I_4_5": POLY_VARS, "I_4_4X": POLY_VARS, "I_4_16": POLY_VARS,
    "I_4_2": ("q",) + POLY_VARS, "I_4_9": ("a", "b", "c", "d"),
    "I_3_2": ("a", "b", "c", "e", "f", "g"), "I_5_9": ("t", "delta", "x", "y"),
    "I_5_8": ("t", "delta", "w", "z"),
}
# The 19-digit point on 37*r^2 - 67*s^2 = 1.
PELL_POINT = (37, -67, 1, 264_638_639_242, 196_660_308_201)
OBSTRUCTION_MODULI = (3, 4, 5, 7, 8, 9, 11, 13, 16)
MIN_OPS = 100


@dataclass
class Op:
    kind: str
    family: str
    params: tuple
    decision: bool = True


class Generator:
    """Round ``i`` of a workload, drawn in order so input dedup is seeded too.

    Only the latest round is kept and used inputs are remembered in a
    fixed-size Bloom filter, so the harness's own memory stays flat over a
    run (peak RSS is a metric).  A false positive only costs a redraw, and
    it depends on the input alone, so runs stay deterministic.  ``scale``
    shrinks input sizes for the benchmark's own tests.
    """

    name = ""
    SEEN_BITS = 1 << 24

    def __init__(self, seed, scale=1.0):
        self.seed = seed
        self.scale = scale
        self.seen = bytearray(self.SEEN_BITS // 8)
        self._latest = (-1, None)

    def round(self, i):
        index, ops = self._latest
        if i == index + 1:
            rng = random.Random(f"{self.name}:{self.seed}:{i}")
            self._latest = (i, self.draw(rng, i))
        elif i != index:
            raise ValueError(f"rounds are drawn in order: asked for {i} after {index}")
        return self._latest[1]

    def fresh(self, draw):
        """Call ``draw()`` until it returns an Op whose input is new in this run."""
        while True:
            op = draw()
            digest = hashlib.blake2b(repr((op.kind, op.params)).encode(), digest_size=12).digest()
            bits = [int.from_bytes(digest[k:k + 4], "little") % self.SEEN_BITS
                    for k in (0, 4, 8)]
            if not all(self.seen[b >> 3] >> (b & 7) & 1 for b in bits):
                for b in bits:
                    self.seen[b >> 3] |= 1 << (b & 7)
                return op

    def draw(self, rng, i):
        raise NotImplementedError


def _nonzero(rng, lo, hi):
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


def _pd_form(rng, smax=3, dmax=60):
    while True:
        s, t, d = rng.randint(1, smax), rng.randint(-smax, smax), rng.randint(1, dmax)
        if t * t - 4 * s * d < 0:
            return s, t, d


def _analytic(s, t, d, c):
    disc = t * t - 4 * s * d
    return max(math.isqrt(4 * s * c // -disc), math.isqrt(4 * d * c // -disc)) + 1


def _planted(rng, shell):
    a1 = rng.randint(0, shell)
    return rng.choice((a1, -a1)), rng.choice((shell - a1, a1 - shell))


def _indef_form(rng):
    while True:
        s, t, d = _nonzero(rng, -9, 9), rng.randint(-9, 9), rng.randint(-9, 9)
        if t * t - 4 * s * d > 0:
            return s, t, d


def _indef_hit(rng, bound, shell_lo, shell_hi):
    s, t, d = _indef_form(rng)
    while True:
        r1, r2 = _planted(rng, rng.randint(shell_lo, min(shell_hi, bound)))
        c = oracle.form_value(s, t, d, r1, r2)
        if c:
            return s, t, d, c, bound, ("planted", r1, r2)


def _conic(rng, lo, hi):
    """A conic point's data (p, q, c, image) on the divisor branch."""
    while True:
        p, q = _nonzero(rng, -9, 9), _nonzero(rng, -9, 9)
        r, s = _nonzero(rng, lo, hi), _nonzero(rng, lo, hi)
        c = p * r * r + q * s * s
        x, y, z = oracle.curve_point(p, q, r, s)
        if c and z not in (c, -c) and -z not in (c, -c):
            return p, q, c, (x, y, z)


# ---------------------------------------------------------------- prove

class ProveGen(Generator):
    name = "prove"

    def _entry(self, rng, k):
        """k terms of degree 1 (or 2, one time in four) over the 8 variables."""
        terms = []
        for _ in range(k):
            exps = [0] * len(POLY_VARS)
            for _ in range(2 if rng.random() < 0.25 else 1):
                exps[rng.randrange(len(POLY_VARS))] += 1
            terms.append((tuple(exps), _nonzero(rng, -9, 9)))
        return tuple(terms)

    def _generic(self, rng, kind, k):
        X = tuple(self._entry(rng, k) for _ in range(4))
        Y = tuple(self._entry(rng, k) for _ in range(4)) if kind != "cayley" else ()
        point = tuple(rng.randrange(oracle.EVAL_PRIME) for _ in POLY_VARS)
        return Op("generic", f"prove.{kind}", (kind, X, Y, point))

    def draw(self, rng, i):
        ops = [self.fresh(lambda t=t: Op("catalog", "prove.catalog", (t,)))
               for t in CATALOG_TAGS] if i == 0 else []
        for k in range(2, 7):
            for kind in ("detmul", "cayley", "commutator"):
                ops.append(self.fresh(lambda: self._generic(rng, kind, k)))
        return ops


def _poly(ring, gens, terms):
    out = ring.zero()
    for exps, coef in terms:
        mono = ring.from_int(coef)
        for g, e in zip(gens, exps):
            for _ in range(e):
                mono = mono * g
        out = out + mono
    return out


def exec_generic(cd, params):
    kind, X, Y, _ = params
    ring = cd.rings.PolynomialRing(POLY_VARS)
    gens = [ring.gen(v) for v in POLY_VARS]
    Xm = cd.mat2.Mat2(*(_poly(ring, gens, e) for e in X))
    if kind == "detmul":
        Ym = cd.mat2.Mat2(*(_poly(ring, gens, e) for e in Y))
        lhs = (Xm * Ym).det()
        return (lhs - Xm.det() * Ym.det()).is_zero(), lhs.payload
    if kind == "cayley":
        return cd.mat2.cayley_hamilton_residual(Xm).is_zero(), Xm.det().payload
    Ym = cd.mat2.Mat2(*(_poly(ring, gens, e) for e in Y))
    C = cd.mat2.commutator(Xm, Ym)
    return C.trace().is_zero(), C.m12.payload


def exec_catalog(cd, params):
    report = cd.identities.prove_identity(params[0])
    return report.holds, report.residual.term_count()


# ---------------------------------------------------------------- search

class SearchGen(Generator):
    """Cost tiers per round, so the median and p90 land inside blocks of equal cost.

    top: two positive-definite bounded misses at bound 500 (c about
    2.5*10^5); heavy block: six full scans at bound 300 (indefinite and
    negative-definite misses); upper middle: proofs of absence (bounds up
    to 1000), hits planted at shells 150 to 250, inclusion chains at
    n >= 14, the preimage fallback box; middle block: sixteen residue
    enumerations at n = 16; light: divisor-branch preimages, small
    positive-definite searches, value sets at n <= 8 and hits planted at
    shells up to 40.  The p90 falls in the heavy block and the median in
    the middle block; scans are most of the time.
    """

    name = "search"

    def _b(self, bound):
        return max(4, round(bound * self.scale))

    def _absent_c(self, rng, form, lo, hi):
        while True:
            c = rng.randint(lo, hi)
            if not oracle.definite_represents(*form, c):
                return c

    def _pd_miss(self, rng, bound):
        # analytic bound > search bound, value represented nowhere
        bound = self._b(bound)
        s, t, d = 1, rng.randint(-1, 1), rng.randint(8, 60)
        c = self._absent_c(rng, (s, t, d), bound * bound + bound, bound * bound * 13 // 10)
        return Op("represent", "search.pd_bounded_miss", (s, t, d, c, bound, ("definite",)))

    def _pd_proved(self, rng):
        s, t, d = _pd_form(rng, 5, 40)
        target = rng.randint(self._b(100), self._b(250))
        c0 = target * target * (4 * s * d - t * t) // (4 * max(s, d))
        c = self._absent_c(rng, (s, t, d), c0, c0 + c0 // 5)
        bound = rng.randint(max(_analytic(s, t, d, c), self._b(200)), self._b(1000))
        return Op("represent", "search.pd_proved_absent", (s, t, d, c, bound, ("definite",)))

    def _pd_hit(self, rng, shell_lo, shell_hi):
        s, t, d = _pd_form(rng)
        r1, r2 = _planted(rng, rng.randint(self._b(shell_lo), self._b(shell_hi)))
        c = oracle.form_value(s, t, d, r1, r2)
        return Op("represent", "search.pd_hit",
                  (s, t, d, c, self._b(1000), ("planted", r1, r2)))

    def _pd_small(self, rng):
        while True:
            s, t, d = _pd_form(rng)
            c = rng.randint(1, 500)
            if _analytic(s, t, d, c) <= 30:
                return Op("represent", "search.pd_small", (s, t, d, c, 30, ("definite",)))

    def _negdef_miss(self, rng):
        s, t, d = _pd_form(rng, 3, 30)
        c = self._absent_c(rng, (s, t, d), 10**4, 10**5)
        return Op("represent", "search.negdef_miss",
                  (-s, -t, -d, -c, self._b(300), ("definite",)))

    def _negdef_hit(self, rng):
        s, t, d = _pd_form(rng, 3, 30)
        r1, r2 = _planted(rng, rng.randint(self._b(5), self._b(40)))
        c = -oracle.form_value(s, t, d, r1, r2)
        return Op("represent", "search.negdef_hit",
                  (-s, -t, -d, c, self._b(200), ("planted", r1, r2)))

    def _indef_miss(self, rng):
        # a congruence obstruction makes the value absent everywhere
        while True:
            s, t, d = _indef_form(rng)
            for m in rng.sample(OBSTRUCTION_MODULI, len(OBSTRUCTION_MODULI)):
                missing = sorted(set(range(m)) - oracle.value_set(s, t, d, m))
                if missing:
                    c = rng.randint(-10**6 // m, 10**6 // m) * m + rng.choice(missing)
                    return Op("represent", "search.indefinite_miss",
                              (s, t, d, c, self._b(300), ("mod", m)))

    def _indef_hit(self, rng, shell_lo, shell_hi):
        return Op("represent", "search.indefinite_hit",
                  _indef_hit(rng, rng.randint(max(self._b(100), self._b(shell_hi)), self._b(300)),
                             self._b(shell_lo), self._b(shell_hi)))

    def _preimage(self, rng, in_image):
        p, q, c, (x, y, z) = _conic(rng, -300, 300)
        return Op("preimage", "search.preimage_divisor", (p, q, c, (x, y, z if in_image else -z)))

    def _preimage_box(self, rng):
        p, q, k = _nonzero(rng, -9, 9), _nonzero(rng, -9, 9), _nonzero(rng, -300, 300)
        if rng.random() < 0.5:
            c, pt = p * k * k, oracle.curve_point(p, q, k, 0)   # z = c
        else:
            c, pt = q * k * k, oracle.curve_point(p, q, 0, k)   # z = -c
        return Op("preimage", "search.preimage_fallback", (p, q, c, pt))

    def _value_set(self, rng, lo, hi):
        return Op("value_set", "search.value_set",
                  (rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20),
                   rng.randint(lo, hi)))

    def _representable(self, rng):
        return Op("representable", "search.representable",
                  (_nonzero(rng, -50, 50), _nonzero(rng, -50, 50),
                   rng.randint(-10**4, 10**4), 16))

    def _inclusion(self, rng):
        return Op("inclusion", "search.inclusion",
                  (rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(14, 16)))

    def draw(self, rng, i):
        def many(make, k, *args):
            return [self.fresh(lambda: make(rng, *args)) for _ in range(k)]

        ops = [self.fresh(lambda p=p: Op("scalar", "search.scalar", (p,)))
               for p in (2, 3)] if i == 0 else []
        ops += many(self._pd_miss, 2, 500)
        ops += many(self._indef_miss, 4) + many(self._negdef_miss, 2)
        ops += (many(self._pd_proved, 2) + many(self._pd_hit, 1, 150, 250)
                + many(self._indef_hit, 1, 150, 250) + many(self._inclusion, 2)
                + many(self._preimage_box, 1))
        ops += many(self._value_set, 8, 16, 16) + many(self._representable, 8)
        ops += many(self._preimage, 4, True) + many(self._preimage, 2, False)
        ops += many(self._pd_small, 6) + many(self._value_set, 2, 2, 8)
        ops += (many(self._pd_hit, 1, 5, 40) + many(self._negdef_hit, 1)
                + many(self._indef_hit, 1, 5, 40))
        return ops


def exec_represent(cd, params):
    s, t, d, c, bound, _ = params
    form = cd.quadforms.QuadForm.from_ints(cd.rings.ZZ, s, t, d)
    res = cd.quadforms.search_representation(form, c, bound)
    found = None if res.found is None else (res.found.r1.payload, res.found.r2.payload)
    return found, res.proved_absent


def exec_preimage(cd, params):
    p, q, c, pt = params
    return cd.witnesses.preimage_search(p, q, c, pt)


def exec_value_set(cd, params):
    s, t, d, n = params
    form = cd.quadforms.QuadForm.from_ints(cd.rings.ModularRing(n), s, t, d)
    return sorted(cd.quadforms.value_set_mod(form))


def exec_representable(cd, params):
    return cd.quadforms.representable_mod(*params)


def exec_inclusion(cd, params):
    return cd.quadforms.inclusion_chain_check_mod(*params)


def exec_scalar(cd, params):
    return cd.witnesses.scalar_characterization_check(params[0])


# ---------------------------------------------------------------- certify

class CertifyGen(Generator):
    name = "certify"

    def _factor(self, rng, modular):
        while True:
            if modular:
                n = rng.randint(2, 10**4)
                p, q, r, s = (rng.randrange(n) for _ in range(4))
                c = (p * r * r + q * s * s) % n
                if math.gcd(c, n) == 1:
                    return Op("factor", "certify.factor_mod", (n, p, q, c, r, s))
            else:
                p, q = _nonzero(rng, -50, 50), _nonzero(rng, -50, 50)
                r, s = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
                c = p * r * r + q * s * s
                if c:
                    return Op("factor", "certify.factor_zz", (0, p, q, c, r, s))

    def _curve(self, rng, mirrored):
        p, q = _nonzero(rng, -50, 50), _nonzero(rng, -50, 50)
        r, s = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
        kind = "corollary" if mirrored else "curve"
        return Op(kind, f"certify.{kind}", (p, q, p * r * r + q * s * s, r, s))

    def _mat(self, rng):
        return tuple(rng.randint(-50, 50) for _ in range(4))

    def _ring(self, rng):
        kind = rng.choice(("zz", "mod", "nil"))
        return 0 if kind == "zz" else rng.randint(2, 10**4) if kind == "mod" else "nil"

    def _scalar(self, rng, n):
        if n == "nil":
            return tuple(rng.randint(-20, 20) for _ in range(3))
        return rng.randint(-100, 100) if n == 0 else rng.randrange(n)

    def _eval(self, rng):
        tag = rng.choice(sorted(EVAL_SYMBOLS))
        n = self._ring(rng)
        return Op("eval", "certify.eval",
                  (tag, n, {v: self._scalar(rng, n) for v in EVAL_SYMBOLS[tag]}))

    def _terms(self, rng, n, nterms, max_exp):
        terms = []
        for _ in range(nterms):
            exp = int(10 ** rng.uniform(0, math.log10(max_exp)))
            if n == "nil":
                base = (rng.randint(-1, 1) if exp > 50 else rng.randint(-9, 9),
                        rng.randint(-9, 9), rng.randint(-9, 9))
            else:
                base = rng.randint(2, 9)
            terms.append((_nonzero(rng, -9, 9), base, exp))
        return tuple(terms)

    def _parse_value(self, rng, n):
        max_exp = 10**3 if n == 0 else 10**4
        return Op("parse_value", "certify.parse_value",
                  (n, (self._terms(rng, n, rng.randint(1, 3), max_exp),)))

    def _parse_mat2(self, rng):
        n = self._ring(rng)
        return Op("parse_mat2", "certify.parse_mat2",
                  (n, tuple(self._terms(rng, n, rng.randint(1, 2), 100) for _ in range(4))))

    def draw(self, rng, i):
        f = self.fresh
        ops = [f(lambda: Op("corollary", "certify.pell", PELL_POINT))] if i == 0 else []
        ops += [f(lambda: self._factor(rng, False)) for _ in range(3)]
        ops += [f(lambda: self._factor(rng, True)) for _ in range(3)]
        ops += [f(lambda: self._curve(rng, False)) for _ in range(2)]
        ops += [f(lambda: self._curve(rng, True)) for _ in range(2)]
        ops += [f(lambda: Op("norm", "certify.norm", (self._mat(rng), self._mat(rng))))
                for _ in range(3)]
        ops += [f(lambda: Op("traceless", "certify.traceless",
                             tuple(rng.randint(-50, 50) for _ in range(6))))
                for _ in range(2)]
        ops += [f(lambda: self._eval(rng)) for _ in range(3)]
        ops += [f(lambda n=n: self._parse_value(rng, n)) for n in (0, rng.randint(2, 10**4), "nil")]
        ops += [f(lambda: self._parse_mat2(rng))]
        return ops


def _ring_of(cd, n):
    if n == "nil":
        return cd.rings.NilPlaneRing()
    return cd.rings.ModularRing(n) if n else cd.rings.ZZ


def _value(ring, n, v):
    if n == "nil":
        return ring.from_int(v[0]) + ring.from_int(v[1]) * ring.x() + ring.from_int(v[2]) * ring.y()
    return ring.from_int(v)


def _mat_payload(m):
    return [[m.m11.payload, m.m12.payload], [m.m21.payload, m.m22.payload]]


def exec_factor(cd, params):
    n, p, q, c, r, s = params
    ring = _ring_of(cd, n)
    vals = [ring.from_int(v) for v in (p, q, c, r, s)]
    w = cd.witnesses.factor_construct(*vals)
    rep = cd.witnesses.extract_representation(w.X1, w.Y1, vals[0], vals[1], vals[2])
    mats = [_mat_payload(m) for m in (w.X, w.Y, w.X1, w.Y1, w.A)]
    return mats, (rep.r1.payload, rep.r2.payload)


def _point(pt):
    return pt.x.payload, pt.y.payload, pt.z.payload


def exec_curve(cd, params):
    vals = [cd.rings.ZZ.from_int(v) for v in params]
    return _point(cd.witnesses.curve_map(*vals)), None


def exec_corollary(cd, params):
    vals = [cd.rings.ZZ.from_int(v) for v in params]
    pt, mirrored = cd.witnesses.corollary_6_17_witnesses(*vals)
    return _point(pt), _point(mirrored)


def exec_norm(cd, params):
    X, Y = (cd.mat2.Mat2.from_ints(cd.rings.ZZ, (m[:2], m[2:])) for m in params)
    w = cd.witnesses.extract_norm_witness(X, Y)
    u0, v0 = cd.witnesses.to_discriminant_witness(w)
    return tuple(v.payload for v in (w.u, w.v, w.c, w.t, w.delta, w.certified_value, u0, v0))


def exec_traceless(cd, params):
    a, b, c, e, f, g = params
    X = cd.mat2.Mat2.from_ints(cd.rings.ZZ, ((a, b), (c, -a)))
    Y = cd.mat2.Mat2.from_ints(cd.rings.ZZ, ((e, f), (g, -e)))
    P, Q = cd.witnesses.traceless_PQ(X, Y)
    return P.payload, Q.payload


def exec_eval(cd, params):
    tag, n, bindings = params
    ring = _ring_of(cd, n)
    lhs, rhs = cd.identities.eval_identity(
        tag, {k: _value(ring, n, v) for k, v in bindings.items()})
    return lhs.payload, rhs.payload


def render_terms(n, terms):
    """Text for sum(coef * base^exp) in the shared element grammar."""
    parts = []
    for coef, base, exp in terms:
        if n == "nil":
            b0, b1, b2 = base
            base_text = f"{b0} + {b1}*x + {b2}*y".replace("+ -", "- ")
        else:
            base_text = str(base)
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {abs(coef)}*({base_text})^{exp}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def exec_parse_value(cd, params):
    n, (terms,) = params
    return [cd.rings.parse_value(_ring_of(cd, n), render_terms(n, terms)).payload]


def exec_parse_mat2(cd, params):
    n, entries = params
    texts = [render_terms(n, t) for t in entries]
    m = cd.mat2.parse_mat2(_ring_of(cd, n), f"[[{texts[0]},{texts[1]}],[{texts[2]},{texts[3]}]]")
    return [e.payload for e in m.entries()]


# ---------------------------------------------------------------- cli

README_OPS = [
    (["verify", "--all"], [f"{t}: PASS" for t in CATALOG_TAGS]),
    (["represent", "--p", "1", "--q", "31", "--c", "6704", "--bound", "100"],
     ["found: True", "r1=77 r2=5"]),
    (["represent", "--p", "1", "--q", "31", "--c", "1676", "--bound", "100"],
     ["found: False", "no representation exists"]),
    (["factor", "--p", "-3", "--q", "8", "--c", "5", "--r", "1", "--s", "1"],
     ["c = -3*1^2 + 8*1^2 = 5"]),
    (["curve", "--p", "-3", "--q", "8", "--c", "5", "--r", "1", "--s", "1"],
     ["(x,y,z) = (15,5,-10)"]),
    (["preimage", "--p", "-3", "--q", "8", "--c", "5", "--x", "15", "--y", "5", "--z", "10"],
     ["preimages: []", "bounded: False"]),
    (["norm-witness", "--X", "[[0,4],[-2,1]]", "--Y", "[[4,3],[3,0]]"],
     ["certified: u^2 + t*u*v + delta*v^2 = 1676"]),
    (["values-mod", "--p", "1", "--q", "31", "--n", "8"],
     [f"values mod 8: {sorted(oracle.value_set(1, 0, 31, 8))}"]),
    (["examples"], ["remark_5_4_det: PASS", "eq_6_19_value: PASS"]),
]


def _args(**kv):
    out = []
    for k, v in kv.items():
        out += [f"--{k}", str(v)]
    return out


def _json_op(family, expect, argv):
    """A CLI operation whose output the oracle reads through --format json."""
    return Op("cli", family, (expect, argv + ["--format", "json"]))


class CliGen(Generator):
    name = "cli"

    def _usage_errors(self, rng):
        c = rng.randint(1, 10**4)
        return [
            ["represent", "--p", "1", "--q", "31", "--c", f"{c}x", "--bound", "100"],
            ["verify", "--identity", f"NOPE_{c}"],
            ["represent"] + _args(p=1, q=1, c=c, bound=10, t=1),
            ["values-mod"] + _args(p=1, q=1, n=rng.randint(17, 64)),
            ["norm-witness", "--X", f"[[{c},2],[3]]", "--Y", "[[1,0],[0,1]]"],
            ["factor"] + _args(p=1, q=1, c=c, r=1),
        ]

    def _represent(self, rng, definite):
        if definite:
            s, t, d = _pd_form(rng, 3, 40)
            r1, r2 = _planted(rng, rng.randint(1, 40))
            params = (s, t, d, oracle.form_value(s, t, d, r1, r2), rng.randint(40, 100),
                      ("planted", r1, r2))
        else:
            bound = rng.randint(20, 60)
            params = _indef_hit(rng, bound, 1, bound)
        s, t, d, c, bound, _ = params
        argv = ["represent"] + _args(p=s, q=0, c=c, bound=bound, t=t, delta=d)
        return _json_op("cli.represent", ("represent", params), argv)

    def _factor(self, rng, explicit):
        p, q = _nonzero(rng, -20, 20), _nonzero(rng, -20, 20)
        if explicit:
            r, s = rng.randint(-500, 500), rng.randint(-500, 500)
        else:
            p, q = abs(p), abs(q)   # definite, so the default search finds it early
            r, s = _nonzero(rng, -6, 6), _nonzero(rng, -6, 6)
        c = p * r * r + q * s * s
        argv = ["factor"] + _args(p=p, q=q, c=c) + (_args(r=r, s=s) if explicit else [])
        return _json_op("cli.factor", ("factor", (p, q, c, r if explicit else None, s)), argv)

    def _curve(self, rng):
        p, q = _nonzero(rng, -20, 20), _nonzero(rng, -20, 20)
        r, s = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
        params = (p, q, p * r * r + q * s * s, r, s)
        return _json_op("cli.curve", ("curve", params),
                        ["curve"] + _args(p=p, q=q, c=params[2], r=r, s=s))

    def _preimage(self, rng):
        params = _conic(rng, -100, 100)
        p, q, c, (x, y, z) = params
        if rng.random() < 0.5:
            params = (p, q, c, (x, y, -z))
            z = -z
        return _json_op("cli.preimage", ("preimage", params),
                        ["preimage"] + _args(p=p, q=q, c=c, x=x, y=y, z=z))

    def _norm(self, rng):
        X, Y = (tuple(rng.randint(-50, 50) for _ in range(4)) for _ in range(2))
        text = [f"[[{m[0]},{m[1]}],[{m[2]},{m[3]}]]" for m in (X, Y)]
        return _json_op("cli.norm_witness", ("norm", (X, Y)),
                        ["norm-witness", "--X", text[0], "--Y", text[1]])

    def _values(self, rng):
        s, t, d, n = rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20), \
            rng.randint(2, 16)
        return _json_op("cli.values_mod", ("values", (s, t, d, n)),
                        ["values-mod"] + _args(p=s, q=d, n=n, t=t))

    def draw(self, rng, i):
        f = self.fresh
        ops = []
        if i == 0:
            ops += [f(lambda a=a, e=e: Op("cli", "cli.readme", (("text", tuple(e)), a)))
                    for a, e in README_OPS]
            ops += [f(lambda a=a: Op("cli", "cli.usage_error", (("usage",), a), decision=False))
                    for a in self._usage_errors(rng)]
            ops.append(f(lambda: _json_op("cli.examples", ("examples",), ["examples"])))
        if i < len(CATALOG_TAGS):
            tag = CATALOG_TAGS[i]
            ops.append(f(lambda: _json_op("cli.verify", ("verify", tag),
                                          ["verify", "--identity", tag])))
        ops += [f(lambda: self._represent(rng, True)), f(lambda: self._represent(rng, False)),
                f(lambda: self._factor(rng, True)), f(lambda: self._factor(rng, False)),
                f(lambda: self._curve(rng)), f(lambda: self._preimage(rng)),
                f(lambda: self._norm(rng)), f(lambda: self._values(rng))]
        return ops


# ``represent --bound 0`` should be a usage error (exit 2) but exits 1 with a
# traceback.  It is run once per cli run, after the timed passes and not as
# an operation, so the report still shows the defect while every counted
# operation can pass.
BOUND_ZERO_ARGV = ["represent"] + _args(p=1, q=31, c=6704, bound=0)


def probe_bound_zero(env, cwd):
    """Run the known-defect case once; returns (as expected, report line)."""
    proc = subprocess.run([sys.executable, "-m", "commdet"] + BOUND_ZERO_ARGV, env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    ok, _, reason = oracle.check_cli((("usage",), BOUND_ZERO_ARGV),
                                     (proc.returncode, proc.stdout, proc.stderr))
    if ok:
        return True, "represent --bound 0 is now a usage error (known defect fixed)"
    return reason.startswith("known defect"), reason


class Launcher:
    """A ``cli_launcher.py`` process, so child peak memory is the child's own."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "cli_launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def request(self, payload):
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def exec_cli(cd, params):
    """One ``python -m commdet`` subprocess; traced runs use the wrapped child."""
    _, argv = params
    if cd.tracer is None:
        if cd.launcher is None:
            cd.launcher = Launcher()
        reply = cd.launcher.request({"cmd": [sys.executable, "-m", "commdet"] + list(argv),
                                     "env": cd.child_env, "cwd": cd.root})
        return reply["code"], reply["out"], reply["err"]
    read_fd, write_fd = os.pipe()
    try:
        env = dict(cd.child_env, COMMDET_BENCH_TRACE_FD=str(write_fd))
        cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py")] + list(argv)
        proc = subprocess.run(cmd, env=env, cwd=cd.root, capture_output=True, text=True,
                              timeout=120, pass_fds=(write_fd,))
        os.close(write_fd)
        write_fd = None
        with os.fdopen(read_fd, "r") as fh:
            read_fd = None
            record = json.loads(fh.read())
    finally:
        for fd in (read_fd, write_fd):
            if fd is not None:
                os.close(fd)
    cd.child_traces.append(record)
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------- dispatch

EXECUTORS = {
    "catalog": exec_catalog, "generic": exec_generic,
    "represent": exec_represent, "preimage": exec_preimage, "value_set": exec_value_set,
    "representable": exec_representable, "inclusion": exec_inclusion, "scalar": exec_scalar,
    "factor": exec_factor, "curve": exec_curve, "corollary": exec_corollary,
    "norm": exec_norm, "traceless": exec_traceless, "eval": exec_eval,
    "parse_value": exec_parse_value, "parse_mat2": exec_parse_mat2,
    "cli": exec_cli,
}

CHECKERS = {
    "catalog": oracle.check_catalog, "generic": oracle.check_generic,
    "represent": oracle.check_represent, "preimage": oracle.check_preimage,
    "value_set": oracle.check_value_set, "representable": oracle.check_representable,
    "inclusion": oracle.check_inclusion, "scalar": oracle.check_scalar,
    "factor": oracle.check_factor, "curve": oracle.check_curve,
    "corollary": oracle.check_curve, "norm": oracle.check_norm,
    "traceless": oracle.check_traceless, "eval": oracle.check_eval,
    "parse_value": oracle.check_parse, "parse_mat2": oracle.check_parse,
    "cli": oracle.check_cli,
}

GENERATORS = {"prove": ProveGen, "search": SearchGen, "certify": CertifyGen, "cli": CliGen}


@dataclass
class Record:
    family: str
    ok: bool
    decided: bool
    decision: bool
    reason: str = ""


@dataclass
class PassResult:
    """Running totals of one pass; per-operation data is only the duration.

    ``durations`` and ``round_seconds`` are normalised for machine speed
    (see ``calibration_seconds``); ``op_seconds`` is raw operation time.
    """

    durations: array = field(default_factory=lambda: array("d"))
    decisions: int = 0
    decided: int = 0
    undecided: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    round_seconds: list = field(default_factory=list)
    op_seconds: float = 0.0
    speed: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def add(self, rec):
        if rec.decision:
            self.decisions += 1
            self.decided += rec.decided
            if not rec.decided:
                self.undecided[rec.family] = self.undecided.get(rec.family, 0) + 1
        if not rec.ok:
            self.failures.append({"family": rec.family, "reason": rec.reason})

    def extend(self, other):
        self.durations.extend(other.durations)
        self.decisions += other.decisions
        self.decided += other.decided
        for family, count in other.undecided.items():
            self.undecided[family] = self.undecided.get(family, 0) + count
        self.failures += other.failures
        self.op_seconds += other.op_seconds
        self.speed += other.speed


# On a shared host the same code runs up to 40% slower for minutes at a
# time.  A fixed pure-Python loop, timed between operations (outside the
# timed intervals), tracks that drift: each operation's time is divided
# by the loop's current time over CAL_NOMINAL_S, so reported times read as
# on a reference machine where the loop takes CAL_NOMINAL_S (about a
# typical 2-vCPU cloud host with CPython 3.11).
CAL_NOMINAL_S = 1.5e-3
CAL_EVERY_S = 0.1


def calibration_seconds():
    """Best of three timings of a fixed dict, tuple and int loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(3000):
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0) + i * i
        sorted(table.items())
        best = min(best, time.perf_counter() - start)
    return best


def run_op(cd, op):
    """Run one operation; return (seconds, verdict, error text or None)."""
    start = time.perf_counter()
    try:
        verdict, error = EXECUTORS[op.kind](cd, op.params), None
    except Exception:
        verdict, error = None, traceback.format_exc(limit=3)
    return time.perf_counter() - start, verdict, error


def check_op(op, verdict, error):
    """Check one verdict against the oracle; returns its Record."""
    if error is not None:
        return Record(op.family, False, False, op.decision, "raised: " + error)
    ok, decided, reason = CHECKERS[op.kind](op.params, verdict)
    return Record(op.family, ok, ok and decided, op.decision, reason)


def run_pass(cd, gen, seconds, max_rounds=None, min_ops=MIN_OPS, wall_cap=None):
    """Closed loop over whole rounds until ``seconds`` of operation time.

    Stops after the round in which the raw operation time reaches
    ``seconds`` and at least ``min_ops`` operations ran, after
    ``max_rounds`` rounds, or once the wall clock passes ``wall_cap``.
    The loop is recalibrated after every CAL_EVERY_S of operation time;
    operations in between are scaled by the mean of the two readings.
    """
    res = PassResult()
    start = time.perf_counter()
    last = calibration_seconds()
    pending, pending_s = [], 0.0   # (round, raw seconds) since the last calibration

    def recalibrate():
        nonlocal last, pending_s
        now = calibration_seconds()
        speed = (last + now) / 2 / CAL_NOMINAL_S
        res.speed.append(speed)
        for index, raw in pending:
            res.durations.append(raw / speed)
            res.round_seconds[index] += raw / speed
        last, pending_s = now, 0.0
        pending.clear()

    i = 0
    while True:
        ops = gen.round(i)
        res.round_seconds.append(0.0)
        outcomes = []
        for op in ops:
            outcomes.append(run_op(cd, op))
            pending.append((i, outcomes[-1][0]))
            pending_s += outcomes[-1][0]
            if pending_s >= CAL_EVERY_S:
                recalibrate()
        # the oracle checks the round after it ran
        for op, (_, verdict, error) in zip(ops, outcomes):
            res.add(check_op(op, verdict, error))
        res.op_seconds += sum(outcome[0] for outcome in outcomes)
        i += 1
        if max_rounds is not None and i >= max_rounds:
            break
        if res.op_seconds >= seconds and len(res.durations) + len(pending) >= min_ops:
            break
        if wall_cap is not None and time.perf_counter() - start >= wall_cap:
            break
    if pending:
        recalibrate()
    return res
