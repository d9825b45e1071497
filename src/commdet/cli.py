"""Batch command-line front end.

Exit codes: 0 on success, 1 on a mathematical failure (an identity
fails, a witness does not certify, an example mismatches), 2 on a usage
error.  `--format json` writes JSON Lines on stdout: one compact
document per line, one line per result, so `verify --all` prints one
line per identity and every other command prints one line.  Diagnostics
go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import identities, quadforms, witnesses
from .mat2 import Mat2, commutator, parse_mat2
from .quadforms import QuadForm, search_representation, value_set_mod
from .rings import MAX_INT_DIGITS, ModularRing, ParseError, ZZ

DEFAULT_FACTOR_BOUND = 1000
# represent scans up to 2*bound+1 rows, so the bound is capped
MAX_SEARCH_BOUND = 10**6
# preimage trial-divides z + c up to its square root, so |z| + |c| is capped
MAX_DIVISOR_TARGET = 10**12


def _int(text: str) -> int:
    # underscores allowed as digit separators
    if sum(ch.isdigit() for ch in text) > MAX_INT_DIGITS:
        raise argparse.ArgumentTypeError(f"integer longer than {MAX_INT_DIGITS} digits")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _mat_to_lists(m: Mat2):
    return [[m.m11.payload, m.m12.payload], [m.m21.payload, m.m22.payload]]


def cmd_verify(args) -> int:
    tags = list(identities.ALL_TAGS) if args.all else [args.identity]
    if not args.all and args.identity not in identities.CATALOG:
        print(f"unknown identity tag: {args.identity}", file=sys.stderr)
        return 2
    ok = True
    for tag in tags:
        report = identities.prove_identity(tag)
        ok = ok and report.holds
        line = {
            "id": report.id,
            "holds": report.holds,
            "residual_terms": report.residual.term_count(),
        }
        _emit(line, args.format, [f"{report.id}: {'PASS' if report.holds else 'FAIL'}"])
    return 0 if ok else 1


def cmd_represent(args) -> int:
    if (args.t is None) != (args.delta is None):
        print("--t and --delta must be given together", file=sys.stderr)
        return 2
    if args.bound < 1:
        print("--bound must be >= 1", file=sys.stderr)
        return 2
    if args.bound > MAX_SEARCH_BOUND:
        print(f"--bound must be <= {MAX_SEARCH_BOUND}", file=sys.stderr)
        return 2
    if args.delta is not None:
        form = QuadForm.from_ints(ZZ, args.p, args.t, args.delta)
    else:
        form = QuadForm.diagonal(ZZ, args.p, args.q)
    result = search_representation(form, args.c, args.bound)
    found = result.found is not None
    payload = {
        "found": found,
        "r1": result.found.r1.payload if found else None,
        "r2": result.found.r2.payload if found else None,
        "proved_absent": result.proved_absent,
    }
    lines = [f"found: {found}"]
    if found:
        lines.append(f"r1={payload['r1']} r2={payload['r2']}")
    elif result.proved_absent:
        lines.append("no representation exists (positive definite, bound proved)")
    else:
        lines.append(f"no witness within bound {result.bound}")
    _emit(payload, args.format, lines)
    return 0


def cmd_factor(args) -> int:
    r, s = args.r, args.s
    if (r is None) != (s is None):
        print("--r and --s must be given together", file=sys.stderr)
        return 2
    if r is None:
        form = QuadForm.diagonal(ZZ, args.p, args.q)
        result = search_representation(form, args.c, DEFAULT_FACTOR_BOUND)
        if result.found is None:
            print(f"no conic point found for c={args.c} within bound "
                  f"{DEFAULT_FACTOR_BOUND}; pass --r/--s explicitly",
                  file=sys.stderr)
            return 1
        r, s = result.found.r1.payload, result.found.r2.payload
    try:
        w = witnesses.factor_construct(*(ZZ.from_int(v)
                                         for v in (args.p, args.q, args.c, r, s)))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    payload = {
        "p": args.p, "q": args.q, "c": args.c, "r": r, "s": s,
        "X": _mat_to_lists(w.X), "Y": _mat_to_lists(w.Y),
        "X1": _mat_to_lists(w.X1), "Y1": _mat_to_lists(w.Y1),
        "A": _mat_to_lists(w.A),
    }
    lines = [f"c = {args.p}*{r}^2 + {args.q}*{s}^2 = {args.c}",
             f"X = {w.X.render()}", f"Y = {w.Y.render()}",
             f"X1 = {w.X1.render()}", f"Y1 = {w.Y1.render()}"]
    _emit(payload, args.format, lines)
    return 0


def cmd_curve(args) -> int:
    try:
        pt = witnesses.curve_map(*(ZZ.from_int(v)
                                   for v in (args.p, args.q, args.c, args.r, args.s)))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    cong = witnesses.curve_congruences(args.p, args.q, args.c, args.r, args.s, pt)
    payload = {"x": pt.x.payload, "y": pt.y.payload, "z": pt.z.payload,
               "congruences": cong}
    lines = [f"(x,y,z) = ({pt.x},{pt.y},{pt.z})"]
    lines += [f"{k}: {v}" for k, v in cong.items()]
    _emit(payload, args.format, lines)
    return 0


def cmd_preimage(args) -> int:
    if abs(args.z) + abs(args.c) > MAX_DIVISOR_TARGET:
        print(f"|--z| + |--c| must be <= {MAX_DIVISOR_TARGET}", file=sys.stderr)
        return 2
    hits, bounded = witnesses.preimage_search(args.p, args.q, args.c,
                                              (args.x, args.y, args.z))
    payload = {"preimages": [list(h) for h in hits], "bounded": bounded}
    lines = [f"preimages: {hits}", f"bounded: {bounded}"]
    _emit(payload, args.format, lines)
    return 0


def cmd_norm_witness(args) -> int:
    try:
        X = parse_mat2(ZZ, args.X)
        Y = parse_mat2(ZZ, args.Y)
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    w = witnesses.extract_norm_witness(X, Y)
    u0, v0 = witnesses.to_discriminant_witness(w)
    payload = {
        "u": w.u.payload, "v": w.v.payload, "c": w.c.payload,
        "t": w.t.payload, "delta": w.delta.payload,
        "certified_value": w.certified_value.payload,
        "u0": u0.payload, "v0": v0.payload,
    }
    lines = [f"u={w.u} v={w.v} t={w.t} delta={w.delta}",
             f"certified: u^2 + t*u*v + delta*v^2 = {w.certified_value}",
             f"discriminant witness: (u0,v0)=({u0},{v0})"]
    _emit(payload, args.format, lines)
    return 0


def cmd_values_mod(args) -> int:
    try:
        ring = ModularRing(args.n)
        form = QuadForm.from_ints(ring, args.p, args.t, args.q)
        values = sorted(value_set_mod(form))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    payload = {"modulus": args.n, "values": values}
    _emit(payload, args.format, [f"values mod {args.n}: {values}"])
    return 0


def _paper_examples():
    """Replay of the numeric examples, with hardcoded expected values."""
    entries = []

    def add(name, expected, computed):
        entries.append({"name": name, "expected": expected, "computed": computed,
                        "pass": expected == computed})

    X = Mat2.from_ints(ZZ, [[0, 4], [-2, 1]])
    Y = Mat2.from_ints(ZZ, [[4, 3], [3, 0]])
    M = commutator(X, Y)
    add("remark_5_4_det", 419, (-M.det()).payload)
    add("eq_2_1_square", [[419, 0], [0, 419]], _mat_to_lists(M * M))

    f31 = QuadForm.from_ints(ZZ, 1, 0, 31)
    hit = search_representation(f31, 6704, 100).found
    add("remark_5_4_6704_witness", [77, 5], [hit.r1.payload, hit.r2.payload] if hit else None)
    miss = search_representation(f31, 1676, 200)
    add("remark_5_4_1676_no_solution", True, miss.found is None and miss.proved_absent)

    w = witnesses.extract_norm_witness(X, Y)
    add("remark_5_15B_alpha_beta", [-36, -5], [w.u.payload, w.v.payload])
    add("remark_5_15B_value", 1676, w.certified_value.payload)
    u0, v0 = witnesses.to_discriminant_witness(w)
    add("remark_5_15B_disc_witness", [-77, -5], [u0.payload, v0.payload])

    def fmap(r, s):
        pt = witnesses.curve_map(*(ZZ.from_int(v) for v in (-3, 8, 5, r, s)))
        return [pt.x.payload, pt.y.payload, pt.z.payload]

    add("eq_6_15_f_1_1", [15, 5, -10], fmap(1, 1))
    add("eq_6_15_f_1_m1", [-17, -7, -12], fmap(1, -1))
    add("eq_6_16_f_3_2", [87, 32, -53], fmap(3, 2))
    add("eq_6_16_f_m3_2", [-105, -40, -65], fmap(-3, 2))
    hits, _ = witnesses.preimage_search(-3, 8, 5, (15, 5, 10))
    add("example_6_14_not_in_image", [], [list(h) for h in hits])

    add("remark_6_18A_conic_point", 1,
        QuadForm.from_ints(ZZ, -4, 0, 13).eval(ZZ.from_int(9), ZZ.from_int(5)).payload)
    add("eq_6_19_value", 1,
        QuadForm.from_ints(ZZ, 37, 0, -67).eval(
            ZZ.from_int(264_638_639_242), ZZ.from_int(196_660_308_201)).payload)
    add("remark_6_18C_triple_5_3_4", [-1, -1],
        [-8 * 5 + 13 * 3, 5 * 3 - 4 * 4])
    add("remark_6_18C_obstruction_mod_8", [False, False],
        [quadforms.representable_mod(-8, 13, 1, 8),
         quadforms.representable_mod(-8, 13, -1, 8)])
    add("remark_6_18C_family_p_2", [-1, -1],
        [2 * 1 + 3 * (-1), 1 * (-1) - 0 * 0])
    return entries


def cmd_examples(args) -> int:
    entries = _paper_examples()
    all_pass = all(e["pass"] for e in entries)
    lines = [f"{e['name']}: PASS" if e["pass"] else
             f"{e['name']}: FAIL (expected {e['expected']}, got {e['computed']})"
             for e in entries]
    _emit({"entries": entries, "pass": all_pass}, args.format, lines)
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commdet",
        description="Exact verification and application of 2x2 commutator "
                    "determinant formulas.")
    sub = parser.add_subparsers(dest="command", required=True)

    def fmt(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="prove identities symbolically")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--identity", help="identity tag, e.g. I_4_2")
    group.add_argument("--all", action="store_true")
    fmt(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("represent", help="search an integer representation")
    p.add_argument("--p", type=_int, required=True)
    p.add_argument("--q", type=_int, required=True)
    p.add_argument("--c", type=_int, required=True)
    p.add_argument("--bound", type=_int, required=True)
    p.add_argument("--t", type=_int)
    p.add_argument("--delta", type=_int)
    fmt(p)
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("factor", help="build a factorization witness")
    p.add_argument("--p", type=_int, required=True)
    p.add_argument("--q", type=_int, required=True)
    p.add_argument("--c", type=_int, required=True)
    p.add_argument("--r", type=_int)
    p.add_argument("--s", type=_int)
    fmt(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("curve", help="map a conic point to the quadric")
    for flag in ("--p", "--q", "--c", "--r", "--s"):
        p.add_argument(flag, type=_int, required=True)
    fmt(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("preimage", help="find conic preimages of a surface point")
    for flag in ("--p", "--q", "--c", "--x", "--y", "--z"):
        p.add_argument(flag, type=_int, required=True)
    fmt(p)
    p.set_defaults(func=cmd_preimage)

    p = sub.add_parser("norm-witness", help="extract a form witness from matrices")
    p.add_argument("--X", required=True, help="matrix [[a,b],[c,d]]")
    p.add_argument("--Y", required=True, help="matrix [[e,f],[g,h]]")
    fmt(p)
    p.set_defaults(func=cmd_norm_witness)

    p = sub.add_parser("values-mod", help="enumerate a form's value set mod n")
    p.add_argument("--p", type=_int, required=True)
    p.add_argument("--q", type=_int, required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--t", type=_int, default=0)
    fmt(p)
    p.set_defaults(func=cmd_values_mod)

    p = sub.add_parser("examples", help="replay the numeric examples ledger")
    fmt(p)
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every input integer has at most MAX_INT_DIGITS digits, so results are
    # bounded in size too; print them whole instead of failing at CPython's
    # int/str limit (absent before Python 3.10.7)
    if not hasattr(sys, "set_int_max_str_digits"):
        return args.func(args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
