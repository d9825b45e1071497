"""Layer spans recorded by wrapping commdet's public entry points.

The wrappers are installed from benchmark code on freshly imported
modules; nothing in ``src/commdet`` is edited.  Each call records one
span; a span's self time is its duration minus the time its child spans
cover.  Spans are aggregated in memory per name (calls, self seconds)
because the polynomial workloads make millions of ring calls.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path, span name).  A module-level function is also
# replaced in every other commdet module that imported it by name.
TARGETS = [
    ("rings", "RingValue.__mul__", "rings.mul"),
    ("rings", "RingValue.__add__", "rings.add"),
    ("rings", "RingValue.__sub__", "rings.add"),
    ("rings", "RingValue.__neg__", "rings.add"),
    ("rings", "RingValue.__pow__", "rings.pow"),
    ("rings", "parse_value", "rings.parse"),
    ("mat2", "Mat2.__mul__", "mat2.mul"),
    ("mat2", "Mat2.det", "mat2.det"),
    ("mat2", "commutator", "mat2.commutator"),
    ("mat2", "Mat2.__add__", "mat2.other"),
    ("mat2", "Mat2.__sub__", "mat2.other"),
    ("mat2", "Mat2.__neg__", "mat2.other"),
    ("mat2", "Mat2.scale", "mat2.other"),
    ("mat2", "Mat2.adjoint", "mat2.other"),
    ("mat2", "Mat2.trace", "mat2.other"),
    ("mat2", "Mat2.qtrace", "mat2.other"),
    ("mat2", "Mat2.supertrace", "mat2.other"),
    ("mat2", "cayley_hamilton_residual", "mat2.other"),
    ("mat2", "parse_mat2", "mat2.other"),
    ("identities", "prove_identity", "identities.prove"),
    ("identities", "eval_identity", "identities.eval"),
    ("quadforms", "search_representation", "quadforms.search"),
    ("quadforms", "value_set_mod", "quadforms.value_set"),
    ("quadforms", "representable_mod", "quadforms.other"),
    ("quadforms", "inclusion_chain_check_mod", "quadforms.other"),
    ("witnesses", "preimage_search", "witnesses.preimage"),
    ("witnesses", "factor_construct", "witnesses.factor"),
    ("witnesses", "extract_representation", "witnesses.factor"),
    ("witnesses", "curve_map", "witnesses.curve"),
    ("witnesses", "corollary_6_17_witnesses", "witnesses.curve"),
    ("witnesses", "curve_congruences", "witnesses.curve"),
    ("witnesses", "extract_norm_witness", "witnesses.norm"),
    ("witnesses", "to_discriminant_witness", "witnesses.norm"),
    ("witnesses", "traceless_PQ", "witnesses.norm"),
    ("witnesses", "scalar_characterization_check", "witnesses.scalar"),
    ("cli", "main", "cli.main"),
]

MODULES = ("rings", "mat2", "identities", "quadforms", "witnesses", "cli")


class Tracer:
    """Per-name span aggregates plus the counts the layer metrics need."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {"poly_terms_out": 0, "peak_terms": 0, "box_cells": 0,
                       "search_decided": 0, "preimage_bounded": 0}
        self._stack = []

    def wrap(self, fn, name, after=None):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dur - child
                if stack:
                    stack[-1] += dur
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # counters recorded at the same boundaries as the spans
    def _after_prove(self, args, report):
        self.counts["peak_terms"] = max(self.counts["peak_terms"],
                                        report.term_count_lhs, report.term_count_rhs)

    def _after_search(self, args, result):
        bound = args[2] if len(args) > 2 else 0
        self.counts["box_cells"] += (2 * bound + 1) ** 2
        self.counts["search_decided"] += result.found is not None or bool(result.proved_absent)

    def _after_preimage(self, args, result):
        self.counts["preimage_bounded"] += bool(result[1])

    def install(self, package):
        """Wrap every target in the freshly imported ``package`` (commdet)."""
        poly_ring = sys.modules[f"{package.__name__}.rings"].PolynomialRing

        def after_mul(args, out):
            if isinstance(out.ring, poly_ring):
                self.counts["poly_terms_out"] += out.term_count()

        after = {"rings.mul": after_mul, "identities.prove": self._after_prove,
                 "quadforms.search": self._after_search,
                 "witnesses.preimage": self._after_preimage}
        mods = [m for k, m in sys.modules.items()
                if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for modname, path, name in TARGETS:
            module = sys.modules[f"{package.__name__}.{modname}"]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, after.get(name))
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def as_dict(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}


def merge(total, part):
    """Add one tracer's ``as_dict`` into an accumulated one."""
    for key in ("calls", "self_s"):
        for name, v in part[key].items():
            total[key][name] = total[key].get(name, 0) + v
    for name, v in part["counts"].items():
        if name == "peak_terms":
            total["counts"][name] = max(total["counts"].get(name, 0), v)
        else:
            total["counts"][name] = total["counts"].get(name, 0) + v
    return total


def empty():
    return {"calls": {}, "self_s": {}, "counts": {}}
