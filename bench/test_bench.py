"""Tests of the benchmark itself: determinism, the oracle, tiny runs.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import workloads

TINY = 0.05


def _ops(gen, rounds):
    return [repr((op.kind, op.params)) for i in range(rounds) for op in gen.round(i)]


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_same_operations(workload):
    make = workloads.GENERATORS[workload]
    assert _ops(make(3, TINY), 2) == _ops(make(3, TINY), 2)
    assert _ops(make(3, TINY), 2) != _ops(make(4, TINY), 2)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_no_input_repeats_within_a_run(workload):
    ops = _ops(workloads.GENERATORS[workload](5, TINY), 3)
    assert len(ops) == len(set(ops))


def test_same_seed_same_counts():
    def counts():
        _, prove = run.measure("prove", 9, 0, trace=True, scale=TINY, max_rounds=1)
        res, search = run.measure("search", 9, 0, trace=True, scale=TINY, max_rounds=1)
        decided = res.decided / res.decisions
        return (prove["identities.peak_terms"], search["quadforms.search.box_cells"],
                search["quadforms.search.proved_frac"], decided)

    first = counts()
    assert first == counts()
    assert first[0] > 0 and first[1] > 0


# ---------------------------------------------------------------- oracle

def test_oracle_accepts_the_documented_first_hit():
    params = (1, 0, 31, 6704, 100, ("planted", 77, 5))
    assert oracle.check_represent(params, ((77, 5), False)) == (True, True, "")


def test_oracle_rejects_corrupted_or_late_witness():
    params = (1, 0, 31, 6704, 100, ("planted", 77, 5))
    assert not oracle.check_represent(params, ((77, 6), False))[0]
    assert not oracle.check_represent(params, ((77, -5), False))[0]   # not the first hit
    assert not oracle.check_represent(params, (None, False))[0]


def test_oracle_rejects_false_proved_absent():
    # 6704 = 77^2 + 31*5^2 lies outside the box, so absence is false
    assert not oracle.check_represent((1, 0, 31, 6704, 10, ("definite",)), (None, True))[0]
    assert oracle.check_represent((1, 0, 31, 1676, 100, ("definite",)), (None, True))[0]
    # indefinite: planted value, and a value with no certificate the oracle can check
    planted = (1, 0, -3, 1 - 3 * 400, 5, ("planted", 1, 20))
    assert not oracle.check_represent(planted, (None, True))[0]
    assert not oracle.check_represent((1, 0, -2, 7, 1, ("none",)), (None, True))[0]
    # a congruence obstruction is a real proof: x^2 - 3y^2 misses 2 mod 3
    assert oracle.check_represent((1, 0, -3, 2, 5, ("mod", 3)), (None, True)) == (True, True, "")


def test_oracle_rejects_corrupted_factor_witness():
    p, q, r, s = -3, 8, 1, 1
    c = p * r * r + q * s * s
    a, b = s + p * r, r - q * s
    X = [[a, b], [p * s, p * r]]
    Y = [[b, q * r], [-a, -q * s]]
    X1 = [[Y[1][1], -Y[0][1]], [-Y[1][0], Y[0][0]]]
    Y1 = [[-X[1][1], X[0][1]], [X[1][0], -X[0][0]]]
    A = [[0, q], [-p, 0]]
    good = ([X, Y, X1, Y1, A], (r, s))
    assert oracle.check_factor((0, p, q, c, r, s), good)[0]
    bad = ([[[a, b + 1], X[1]], Y, X1, Y1, A], (r, s))
    assert not oracle.check_factor((0, p, q, c, r, s), bad)[0]
    assert not oracle.check_factor((0, p, q, c, r, s), (good[0], (r, s + 1)))[0]


def test_oracle_preimages_and_residues():
    assert oracle.all_preimages(-3, 8, 5, 15, 5, -10) == [(-1, -1), (1, 1)]
    assert oracle.check_preimage((-3, 8, 5, (15, 5, 10)), ([], False))[0]
    assert not oracle.check_preimage((-3, 8, 5, (15, 5, -10)), ([(1, 1)], False))[0]
    assert not oracle.check_value_set((1, 0, 31, 8), [0, 1])[0]
    assert oracle.scalar_dichotomy(2) and oracle.scalar_dichotomy(3)


def test_oracle_flags_tracebacks_and_the_known_defect():
    usage = (("usage",), ["represent"])
    assert oracle.check_cli(usage, (2, "", "usage: commdet ..."))[0]
    defect = oracle.check_cli(usage, (1, "", "Traceback ...\nValueError: bound must be >= 1"))
    assert not defect[0] and defect[2].startswith("known defect")
    other = oracle.check_cli(usage, (1, "", "Traceback ...\nKeyError: x"))
    assert not other[0] and not other[2].startswith("known defect")


def test_bound_zero_probe_runs_outside_the_operations():
    argvs = [op.params[1] for op in workloads.CliGen(1, TINY).round(0)]
    assert workloads.BOUND_ZERO_ARGV not in argvs
    assert workloads.probe_bound_zero(run.child_env(), run.ROOT)[0]


# ---------------------------------------------------------------- tiny runs

@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_tiny(workload, trace):
    res, values = run.measure(workload, 1, 0, trace=trace, scale=TINY, max_rounds=1)
    assert len(res.durations) > 0
    assert not res.failures, res.failures
    key = "per_layer" if trace else "end_to_end"
    for metric in run.load_manifest()[key]:
        assert metric["name"] in values


def test_manifest_matches_the_harness():
    manifest = run.load_manifest()
    assert sorted(w["name"] for w in manifest["workloads"]) == sorted(workloads.GENERATORS)
    layer_names = {m["name"] for m in manifest["per_layer"]}
    assert set(run.LAYER_MOVES) <= layer_names


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "prove", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")
    json.loads((tmp_path / "BENCHMARK.json").read_text())
