"""What ``python -m commdet`` imports: no dataclasses, inspect or typing.

Each subcommand runs in a fresh interpreter under ``-S`` (no site
imports) and ``-X importtime``, which lists every module loaded on
stderr.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
FORBIDDEN = {"dataclasses", "inspect", "typing"}
COMMANDS = {
    "verify": ["verify", "--identity", "I_4_9"],
    "represent": ["represent", "--p", "1", "--q", "31", "--c", "6704", "--bound", "100"],
    "factor": ["factor", "--p", "2", "--q", "3", "--c", "5"],
    "curve": ["curve", "--p", "-3", "--q", "8", "--c", "5", "--r", "1", "--s", "1"],
    "preimage": ["preimage", "--p", "-3", "--q", "8", "--c", "5",
                 "--x", "15", "--y", "5", "--z", "-10"],
    "norm-witness": ["norm-witness", "--X", "[[0,4],[-2,1]]", "--Y", "[[4,3],[3,0]]"],
    "norm-witness-parse-error": ["norm-witness", "--X", "[[x,0],[0,1]]",
                                 "--Y", "[[4,3],[3,0]]"],
    "values-mod": ["values-mod", "--p", "1", "--q", "31", "--n", "8"],
    "examples": ["examples", "--format", "json"],
}
IMPORT_LINE = re.compile(r"^import time:.*\n", re.M)


def _commdet(*options_and_argv):
    return subprocess.run([sys.executable, "-S", *options_and_argv],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_subcommand_imports_no_dataclasses_inspect_or_typing(argv):
    traced = _commdet("-X", "importtime", "-m", "commdet", *argv)
    plain = _commdet("-m", "commdet", *argv)
    loaded = {line.rpartition("|")[2].strip() for line in IMPORT_LINE.findall(traced.stderr)}
    assert "commdet.cli" in loaded
    assert not loaded & FORBIDDEN
    assert traced.returncode == plain.returncode
    assert traced.stdout == plain.stdout
    assert IMPORT_LINE.sub("", traced.stderr) == plain.stderr


def test_parse_error_reaches_stderr_unchanged():
    proc = _commdet("-m", "commdet", *COMMANDS["norm-witness-parse-error"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "unknown symbol 'x' for ring IntegerRing()\n")
