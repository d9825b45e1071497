"""commdet benchmark: four closed-loop workloads checked by an independent oracle.

Run from the repository root:

    python3 bench/run.py --workload prove --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` repeats the same rounds with every layer entry point
wrapped (from benchmark code only) and reports per-layer self times and
counts, plus the tracing overhead.  Human-readable lines go first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names, units and directions come
from ``BENCHMARK.json``; ``--out FILE`` also writes the full record
(run metadata, sample counts, undecided operations by family, failures
and the layer-to-metric map).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE_MODULES = ("commdet", "commdet.rings", "commdet.mat2", "commdet.identities",
                   "commdet.quadforms", "commdet.witnesses", "commdet.cli")
SETUP_REPEATS = 5
STARTUP_REPEATS = 5

# Which end-to-end metric each layer metric should move, and on which workload.
LAYER_MOVES = {
    "rings.mul.calls": "ops_per_s, verdict_p90_ms on prove",
    "rings.mul.self_ms": "ops_per_s, verdict_p90_ms on prove",
    "rings.add.self_ms": "ops_per_s, verdict_p90_ms on prove",
    "rings.poly_terms_out": "ops_per_s, verdict_p90_ms on prove",
    "rings.pow.calls": "ops_per_s on certify",
    "rings.pow.self_ms": "ops_per_s on certify",
    "rings.parse.self_ms": "ops_per_s on certify",
    "mat2.mul.calls": "ops_per_s on prove and certify; no change on search",
    "mat2.mul.self_ms": "ops_per_s on prove and certify; no change on search",
    "mat2.det.self_ms": "ops_per_s on prove and certify; no change on search",
    "mat2.commutator.self_ms": "ops_per_s on prove and certify; no change on search",
    "identities.prove.self_ms": "verdict_p50_ms on prove",
    "identities.peak_terms": "verdict_p50_ms on prove",
    "identities.eval.self_ms": "ops_per_s on certify",
    "quadforms.search.calls": "ops_per_s, verdict_p90_ms, decided_frac on search",
    "quadforms.search.self_ms": "ops_per_s, verdict_p90_ms, decided_frac on search",
    "quadforms.search.box_cells": "ops_per_s, verdict_p90_ms on search (computed (2*bound+1)^2)",
    "quadforms.search.proved_frac": "decided_frac on search",
    "quadforms.value_set.self_ms": "verdict_p50_ms on search",
    "witnesses.preimage.self_ms": "verdict_p90_ms on search",
    "witnesses.preimage.bounded_frac": "decided_frac on search",
    "witnesses.factor.self_ms": "ops_per_s on certify",
    "witnesses.curve.self_ms": "ops_per_s on certify",
    "witnesses.norm.self_ms": "ops_per_s on certify",
    "witnesses.scalar.self_ms": "ops_per_s on search",
    "cli.python_startup_ms": "context only (bare interpreter start)",
    "cli.import_ms": "verdict_p50_ms on cli",
    "cli.main.self_ms": "verdict_p50_ms on cli",
    "trace.overhead_frac": "none (cost of the wrappers)",
}
# Modules whose self time should dominate each workload's traced run.
PREDICTED_DOMINANT = {"prove": ("rings", "mat2"), "certify": ("rings", "mat2"),
                      "search": ("quadforms", "witnesses")}


class Context:
    """Freshly imported commdet modules plus what the executors need."""

    def __init__(self, mods):
        for name, module in mods.items():
            setattr(self, name.rpartition(".")[2], module)
        self.root = ROOT
        self.child_env = child_env()
        self.tracer = None
        self.child_traces = []
        self.launcher = None

    def close(self):
        """Stop the CLI launcher, if one was started; returns its children's peak RSS in KB."""
        if self.launcher is None:
            return 0
        rss_kb = self.launcher.request({})["maxrss_kb"]
        self.launcher.close()
        self.launcher = None
        return rss_kb


def child_env():
    """The environment of a ``python -m commdet`` child: this checkout's ``src`` first."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def fresh_import():
    """Import commdet from this checkout's ``src`` with no module state kept."""
    for key in list(sys.modules):
        if key == "commdet" or key.startswith("commdet."):
            del sys.modules[key]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(name) for name in PACKAGE_MODULES}
    origin = os.path.dirname(os.path.abspath(mods["commdet"].__file__))
    if origin != os.path.join(SRC, "commdet"):
        raise RuntimeError(f"commdet imported from {origin}, not from {SRC}")
    return mods


def setup(workload, seed, scale=1.0):
    """Import commdet and generate the seeded inputs; returns (seconds, ctx, gen)."""
    start = time.perf_counter()
    mods = fresh_import()
    gen = workloads.GENERATORS[workload](seed, scale)
    gen.round(0)
    return time.perf_counter() - start, Context(mods), gen


def git_sha():
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- metrics

def end_to_end(setup_times, res, rss_kb):
    durations = res.durations
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(durations) / sum(durations),
        "verdict_p50_ms": 1e3 * statistics.median(durations),
        "verdict_p90_ms": 1e3 * statistics.quantiles(durations, n=10)[-1],
        "failed_frac": len(res.failures) / len(durations),
        "decided_frac": res.decided / res.decisions,
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(stats, n_ops, op_seconds, speed, extra):
    """Layer metrics from span aggregates; times per operation, normalised by ``speed``."""
    calls, self_s, counts = stats["calls"], stats["self_s"], stats["counts"]

    def ms(name):
        return 1e3 * self_s.get(name, 0.0) / n_ops / speed

    def per_op(name):
        return calls.get(name, 0) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    searches = calls.get("quadforms.search", 0)
    values = {
        "rings.mul.calls": per_op("rings.mul"),
        "rings.mul.self_ms": ms("rings.mul"),
        "rings.add.self_ms": ms("rings.add"),
        "rings.poly_terms_out": counts.get("poly_terms_out", 0) / n_ops,
        "rings.pow.calls": per_op("rings.pow"),
        "rings.pow.self_ms": ms("rings.pow"),
        "rings.parse.self_ms": ms("rings.parse"),
        "mat2.mul.calls": per_op("mat2.mul"),
        "mat2.mul.self_ms": ms("mat2.mul"),
        "mat2.det.self_ms": ms("mat2.det"),
        "mat2.commutator.self_ms": ms("mat2.commutator"),
        "identities.prove.self_ms": ms("identities.prove"),
        "identities.peak_terms": counts.get("peak_terms", 0),
        "identities.eval.self_ms": ms("identities.eval"),
        "quadforms.search.calls": per_op("quadforms.search"),
        "quadforms.search.self_ms": ms("quadforms.search"),
        "quadforms.search.box_cells": ratio(counts.get("box_cells", 0), searches),
        "quadforms.search.proved_frac": ratio(counts.get("search_decided", 0), searches),
        "quadforms.value_set.self_ms": ms("quadforms.value_set"),
        "witnesses.preimage.self_ms": ms("witnesses.preimage"),
        "witnesses.preimage.bounded_frac": ratio(counts.get("preimage_bounded", 0),
                                                 calls.get("witnesses.preimage", 0)),
        "witnesses.factor.self_ms": ms("witnesses.factor"),
        "witnesses.curve.self_ms": ms("witnesses.curve"),
        "witnesses.norm.self_ms": ms("witnesses.norm"),
        "witnesses.scalar.self_ms": ms("witnesses.scalar"),
        "cli.main.self_ms": ms("cli.main"),
    }
    values.update(extra)
    covered = 0.0
    for module in spans.MODULES:
        share = sum(v for k, v in self_s.items() if k.startswith(module + ".")) / op_seconds
        values[f"{module}.self_frac"] = share
        covered += share
    values["unattributed.self_frac"] = 1.0 - covered
    return values


def python_startup_ms():
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


# ---------------------------------------------------------------- runs

def measure(workload, seed, seconds, trace, scale=1.0, max_rounds=None):
    """One run; returns (PassResult, metric values).

    Untraced: the median of several set-ups, then one pass on the last.
    Traced: an untraced pass, then the same rounds on a second fresh
    import with every layer wrapped; the totals of both are returned.
    """
    min_ops = 0 if max_rounds else workloads.MIN_OPS
    cap = 2 * seconds + 30
    if not trace:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            raw, ctx, gen = setup(workload, seed, scale)
            speed = workloads.calibration_seconds() / workloads.CAL_NOMINAL_S
            setup_times.append(raw / speed)
        try:
            res = workloads.run_pass(ctx, gen, seconds, max_rounds, min_ops, cap)
        finally:
            children_kb = ctx.close()
        # on cli the peak is that of the commdet children, not of the harness
        rss_kb = children_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        res.info = {"setup_repeats": SETUP_REPEATS, "rounds": len(res.round_seconds)}
        return res, end_to_end(setup_times, res, rss_kb)

    # each pass gets half the time, so a traced run lasts about as long as an untraced one
    _, ctx, gen = setup(workload, seed, scale)
    try:
        plain = workloads.run_pass(ctx, gen, seconds / 2, max_rounds, 0, cap)
    finally:
        ctx.close()
    # a second fresh import, so the traced pass reuses no state of the first
    _, ctx, gen = setup(workload, seed, scale)
    ctx.tracer = spans.Tracer()
    if workload != "cli":
        ctx.tracer.install(sys.modules["commdet"])
    res = workloads.run_pass(ctx, gen, seconds / 2, len(plain.round_seconds), 0, cap)
    rounds = len(res.round_seconds)
    stats, import_ms = ctx.tracer.as_dict(), 0.0
    if ctx.child_traces:
        stats = spans.empty()
        for record in ctx.child_traces:
            spans.merge(stats, record)
        import_ms = 1e3 * statistics.median(t["import_s"] for t in ctx.child_traces)
    extra = {"cli.python_startup_ms": python_startup_ms(), "cli.import_ms": import_ms,
             "trace.overhead_frac": sum(res.round_seconds) / sum(plain.round_seconds[:rounds]) - 1}
    values = per_layer(stats, len(res.durations), res.op_seconds, statistics.median(res.speed),
                       extra)
    res.extend(plain)
    res.info = {"traced_rounds": rounds, "untraced_rounds": len(plain.round_seconds)}
    return res, values


def dominance(workload, values):
    shares = {m: values[f"{m}.self_frac"] for m in spans.MODULES + ("unattributed",)}
    ranked = sorted(shares, key=shares.get, reverse=True)
    lines = ["self time by module: " + ", ".join(f"{m}={shares[m]:.3f}" for m in ranked)]
    predicted = PREDICTED_DOMINANT.get(workload)
    modules = [m for m in ranked if m != "unattributed"]
    if predicted is None:
        lines.append(f"dominant module: {modules[0]} (no prediction for this workload)")
    else:
        held = modules[0] in predicted
        lines.append(f"dominant module: {modules[0]}; predicted {'/'.join(predicted)}: "
                     + ("prediction holds" if held else "PREDICTION WRONG"))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record to this JSON file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "commdet", "__init__.py")):
        print(f"error: no commdet sources under {SRC}", file=sys.stderr)
        return 2
    manifest = load_manifest()

    res, values = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics declared but not computed: {missing}")

    why = {w["name"]: w["why"] for w in manifest["workloads"]}
    n = len(res.durations)
    meta = {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace, "operations": n,
            "speed_factor": round(statistics.median(res.speed), 4),
            "raw_ops_per_s": round(n / res.op_seconds, 4), **res.info}
    print(f"commdet benchmark: {' '.join(f'{k}={v}' for k, v in meta.items())}")
    print(f"  why: {why[args.workload]}")
    if not args.trace:
        beyond = sum(1e3 * d > values["verdict_p90_ms"] for d in res.durations)
        meta["p90_samples_beyond"] = beyond
        print(f"  closed loop, one client: percentiles from {n} samples, {beyond} beyond p90")
    for m in declared:
        moves = f"  -> {LAYER_MOVES[m['name']]}" if m["name"] in LAYER_MOVES else ""
        print(f"  {m['name']:<34} {values[m['name']]:>14.6g} {m['unit']:<10} "
              f"({m['better']} is better){moves}")
    if not args.trace:
        print(f"  {'failed_frac':<34} {values['failed_frac']:>14.6g} {'ratio':<10} "
              f"(lower is better; {len(res.failures)} of {n})")
    print(f"  undecided by family: {dict(sorted(res.undecided.items())) or 'none'}")
    for f in res.failures:
        print(f"  failed {f['family']}: {f['reason'].strip().splitlines()[-1]}")
    probe_ok = True
    if args.workload == "cli":
        probe_ok, line = workloads.probe_bound_zero(child_env(), ROOT)
        print(f"  known-defect probe (not an operation): {line}")
    if args.trace:
        for line in dominance(args.workload, values):
            print("  " + line)

    units = {m["name"]: m["unit"] for m in declared}
    result = {
        "correct": not res.failures and probe_ok,
        "attempted": n,
        "failed": len(res.failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    if args.out:
        record = dict(result, meta=meta, why=why[args.workload], all_values=values,
                      layer_moves=LAYER_MOVES, undecided_by_family=res.undecided,
                      failures=res.failures)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
