import json
import pathlib
import sys
import time

import pytest

from commdet.cli import main
from commdet.identities import ALL_TAGS
from commdet.quadforms import MAX_SEARCH_BOUND

from oracles import commutator_det


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_single_text(capsys):
    code, out, err = run(capsys, ["verify", "--identity", "I_4_2"])
    assert code == 0
    assert out.strip() == "I_4_2: PASS"


def test_verify_all_json(capsys):
    code, out, err = run(capsys, ["verify", "--all", "--format", "json"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(ALL_TAGS) == 19
    for line, tag in zip(lines, ALL_TAGS):
        doc = json.loads(line)
        assert doc["id"] == tag
        assert doc["holds"] is True
        assert doc["residual_terms"] == 0


def test_verify_unknown_tag_is_usage_error(capsys):
    code, out, err = run(capsys, ["verify", "--identity", "NOPE"])
    assert code == 2
    assert "unknown identity tag" in err


def test_verify_output_is_byte_stable(capsys):
    _, out1, _ = run(capsys, ["verify", "--all", "--format", "json"])
    _, out2, _ = run(capsys, ["verify", "--all", "--format", "json"])
    assert out1 == out2


def test_represent_diagonal(capsys):
    code, out, _ = run(capsys, ["represent", "--p", "1", "--q", "31",
                                "--c", "6704", "--bound", "100",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"found": True, "r1": 77, "r2": 5, "proved_absent": False}


def test_represent_proved_absent(capsys):
    code, out, _ = run(capsys, ["represent", "--p", "1", "--q", "31",
                                "--c", "1676", "--bound", "100",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is False
    assert doc["proved_absent"] is True


def test_represent_general_form(capsys):
    code, out, _ = run(capsys, ["represent", "--p", "1", "--q", "0",
                                "--c", "1676", "--bound", "100",
                                "--t", "1", "--delta", "8",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    r1, r2 = doc["r1"], doc["r2"]
    assert r1 * r1 + r1 * r2 + 8 * r2 * r2 == 1676


def test_represent_t_without_delta_is_usage_error(capsys):
    code, out, err = run(capsys, ["represent", "--p", "1", "--q", "1",
                                  "--c", "5", "--bound", "10", "--t", "1"])
    assert code == 2
    assert "--t and --delta" in err


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_represent_nonpositive_bound_is_usage_error(capsys, bound):
    code, out, err = run(capsys, ["represent", "--p", "1", "--q", "31",
                                  "--c", "6704", "--bound", bound])
    assert (code, out, err) == (2, "", f"bound must be between 1 and {MAX_SEARCH_BOUND}\n")


def test_factor_with_explicit_point(capsys):
    code, out, _ = run(capsys, ["factor", "--p", "-3", "--q", "8", "--c", "5",
                                "--r", "1", "--s", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["X"] == [[-2, -7], [-3, -3]]
    assert doc["Y"] == [[-7, 8], [2, -8]]
    assert doc["A"] == [[0, 8], [3, 0]]


def test_factor_searches_when_point_omitted(capsys):
    code, out, _ = run(capsys, ["factor", "--p", "1", "--q", "31",
                                "--c", "6704", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["r"], doc["s"]) == (77, 5)


def test_factor_conic_violation_fails(capsys):
    code, out, err = run(capsys, ["factor", "--p", "-3", "--q", "8", "--c", "6",
                                  "--r", "1", "--s", "1"])
    assert code == 1
    assert "conic" in err


def test_factor_search_failure_fails(capsys):
    code, out, err = run(capsys, ["factor", "--p", "1", "--q", "31",
                                  "--c", "1676"])
    assert code == 1
    assert "no conic point" in err


def test_curve_command(capsys):
    code, out, _ = run(capsys, ["curve", "--p", "-3", "--q", "8", "--c", "5",
                                "--r", "1", "--s", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["x"], doc["y"], doc["z"]) == (15, 5, -10)
    assert all(doc["congruences"].values())


def test_curve_conic_violation_fails(capsys):
    code, _, err = run(capsys, ["curve", "--p", "-3", "--q", "8", "--c", "4",
                                "--r", "1", "--s", "1"])
    assert code == 1


def test_preimage_command(capsys):
    code, out, _ = run(capsys, ["preimage", "--p", "-3", "--q", "8", "--c", "5",
                                "--x", "15", "--y", "5", "--z", "10",
                                "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"preimages": [], "bounded": False}
    code, out, _ = run(capsys, ["preimage", "--p", "-3", "--q", "8", "--c", "5",
                                "--x", "15", "--y", "5", "--z", "-10",
                                "--format", "json"])
    assert json.loads(out)["preimages"] == [[-1, -1], [1, 1]]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("z, c", [(10**12, 1), (-(10**30), 1), (0, -10**12 - 1)])
def test_preimage_divisor_target_cap(capsys, fmt, z, c):
    # |z| + |c| above 10^12 was once refused.  With x = y = 0 and
    # p = q = 1 a hit needs r^2 = 2*r*s = -s^2, so only z = 0 has one
    start = time.perf_counter()
    code, out, err = run(capsys, ["preimage", "--p", "1", "--q", "1", "--c", str(c),
                                  "--x", "0", "--y", "0", "--z", str(z), "--format", fmt])
    assert time.perf_counter() - start < 1
    want = ('{"preimages":[],"bounded":false}\n' if fmt == "json"
            else "preimages: []\nbounded: False\n")
    assert (code, out, err) == (0, want, "")


# a z = -c point outside the box |r|, |s| <= 10^4 that was once scanned,
# and a point far above the size cap that was once refused
@pytest.mark.parametrize("c, x, y, z, hits", [
    (2_500_000_000, 0, -2_500_000_000, -2_500_000_000, [[0, -50000], [0, 50000]]),
    (2 * 10**24, 10**24, -3 * 10**24, 10**24,
     [[-(10**12), -(10**12)], [10**12, 10**12]]),
], ids=["outside_the_old_box", "above_the_old_cap"])
def test_preimage_is_exact_at_any_size(capsys, c, x, y, z, hits):
    code, out, err = run(capsys, ["preimage", "--p", "1", "--q", "1", "--c", str(c),
                                  "--x", str(x), "--y", str(y), "--z", str(z),
                                  "--format", "json"])
    assert (code, err) == (0, "")
    assert out == json.dumps({"preimages": hits, "bounded": False}, separators=(",", ":")) + "\n"


def test_preimage_at_divisor_target_cap(capsys):
    code, out, _ = run(capsys, ["preimage", "--p", "1", "--q", "1", "--c", "1", "--x", "0",
                                "--y", "0", "--z", str(10**12 - 1),
                                "--format", "json"])
    assert (code, json.loads(out)) == (0, {"preimages": [], "bounded": False})


def test_norm_witness_command(capsys):
    code, out, _ = run(capsys, ["norm-witness",
                                "--X", "[[0,4],[-2,1]]",
                                "--Y", "[[4,3],[3,0]]",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["u"], doc["v"]) == (-36, -5)
    assert doc["certified_value"] == 1676
    assert (doc["u0"], doc["v0"]) == (-77, -5)


@pytest.mark.parametrize("X", ["[[0, 4], [-2, 1]]", "[ [0,4],[-2,1] ]"],
                         ids=["spaces_between_rows", "spaces_inside_outer_brackets"])
def test_norm_witness_accepts_spaces_around_brackets(capsys, X):
    plain = run(capsys, ["norm-witness", "--X", "[[0,4],[-2,1]]", "--Y", "[[4,3],[3,0]]"])
    assert run(capsys, ["norm-witness", "--X", X, "--Y", "[[4,3],[3,0]]"]) == plain
    assert plain[0] == 0


def test_norm_witness_parse_error(capsys):
    code, _, err = run(capsys, ["norm-witness", "--X", "[[1,2],[3]]",
                                "--Y", "[[0,0],[0,0]]"])
    assert code == 2


def test_norm_witness_prints_results_beyond_the_str_limit(capsys):
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    code, out, err = run(capsys, ["norm-witness", "--X", "[[0,9^3000],[-2,1]]",
                                  "--Y", "[[4,3],[3,0]]", "--format", "json"])
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    X, Y = ((0, 9**3000), (-2, 1)), ((4, 3), (3, 0))
    assert doc["certified_value"] == -4 * commutator_det(X, Y)
    assert doc["certified_value"] > 10**4300
    u, v, t, delta = doc["u"], doc["v"], doc["t"], doc["delta"]
    assert u * u + t * u * v + delta * v * v == doc["certified_value"]
    code, out, _ = run(capsys, ["norm-witness", "--X", "[[0,9^3000],[-2,1]]",
                                "--Y", "[[4,3],[3,0]]"])
    assert code == 0 and len(out) > 3 * 4300


@pytest.mark.parametrize("entry", ["7" * 5000, "0^3000000", "2^" + "1" * 5000,
                                   "((9^9999)^9999)^9999", "9^4000*9^4000"],
                         ids=["literal_5000_digits", "exponent_3000000",
                              "exponent_5000_digits", "tower", "product"])
def test_norm_witness_oversized_entry_is_usage_error(capsys, entry):
    start = time.perf_counter()
    code, out, err = run(capsys, ["norm-witness", "--X", f"[[0,{entry}],[-2,1]]",
                                  "--Y", "[[4,3],[3,0]]"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err) < 100


def test_represent_bound_cap(capsys):
    code, out, err = run(capsys, ["represent", "--p", "1", "--q", "31", "--c", "6704",
                                  "--bound", str(MAX_SEARCH_BOUND + 1)])
    assert (code, out, err) == (2, "", f"bound must be between 1 and {MAX_SEARCH_BOUND}\n")
    # the cap itself is accepted; the analytic bound keeps this search short
    code, out, _ = run(capsys, ["represent", "--p", "1", "--q", "31", "--c", "6704",
                                "--bound", str(MAX_SEARCH_BOUND)])
    assert (code, out) == (0, "found: True\nr1=77 r2=5\n")


def test_oversized_integer_argument_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["represent", "--p", "1", "--q", "1", "--c", "7" * 5000, "--bound", "5"])
    assert exc.value.code == 2
    assert "longer than 4300 digits" in capsys.readouterr().err


def test_values_mod_command(capsys):
    code, out, _ = run(capsys, ["values-mod", "--p", "1", "--q", "31",
                                "--n", "8", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"modulus": 8, "values": [0, 1, 3, 4, 5, 7]}


def test_values_mod_cap_is_usage_error(capsys):
    code, _, err = run(capsys, ["values-mod", "--p", "1", "--q", "1",
                                "--n", "17"])
    assert code == 2


def test_examples_ledger_passes(capsys):
    code, out, _ = run(capsys, ["examples", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert len(doc["entries"]) == 17
    assert all(e["pass"] for e in doc["entries"])


def test_examples_text_output(capsys):
    code, out, _ = run(capsys, ["examples"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 17
    assert all(line.endswith(": PASS") for line in lines)


def test_underscore_integers_accepted(capsys):
    code, out, _ = run(capsys, ["represent", "--p", "1", "--q", "31",
                                "--c", "6_704", "--bound", "100",
                                "--format", "json"])
    assert code == 0
    assert json.loads(out)["found"] is True


def test_bad_integer_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["represent", "--p", "x", "--q", "1", "--c", "1", "--bound", "5"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


# the benchmark's six usage-error cases, then the work limit of the library
USAGE_ERRORS = {
    "bad_integer": (["represent", "--p", "1", "--q", "31", "--c", "1234x", "--bound", "100"],
                    "commdet represent: error: argument --c: not an integer: '1234x'"),
    "unknown_tag": (["verify", "--identity", "NOPE_1234"], "unknown identity tag: NOPE_1234"),
    "t_without_delta": (["represent", "--p", "1", "--q", "1", "--c", "1234", "--bound", "10",
                         "--t", "1"], "--t and --delta must be given together"),
    "modulus_cap": (["values-mod", "--p", "1", "--q", "1", "--n", "17"],
                    "modulus 17 exceeds enumeration cap 16"),
    "bad_matrix": (["norm-witness", "--X", "[[1234,2],[3]]", "--Y", "[[1,0],[0,1]]"],
                   "each matrix row must have exactly two entries"),
    "r_without_s": (["factor", "--p", "1", "--q", "1", "--c", "1234", "--r", "1"],
                    "--r and --s must be given together"),
    "search_bound": (["represent", "--p", "1", "--q", "1", "--c", "5",
                      "--bound", str(MAX_SEARCH_BOUND + 1)],
                     f"bound must be between 1 and {MAX_SEARCH_BOUND}"),
}


@pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_is_one_stderr_line_and_exit_2(capsys, argv, message):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    # argparse prints its usage synopsis before its one error line
    usage, _, last = err.rstrip("\n").rpartition("\n")
    assert (code, out, last) == (2, "", message)
    assert usage == "" or usage.startswith("usage: commdet ")
    assert "Traceback" not in err


def test_json_output_is_compact(capsys):
    _, out, _ = run(capsys, ["values-mod", "--p", "1", "--q", "1", "--n", "4",
                             "--format", "json"])
    assert ": " not in out and ", " not in out


GOLDEN = json.loads(pathlib.Path(__file__).with_name("cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_readme_examples_match_golden_output(capsys, case):
    # stdout and exit code of every README example, byte for byte, in both formats
    code, out, _ = run(capsys, case["argv"])
    assert (code, out) == (case["code"], case["stdout"])
