"""numpy and the process pool load only in the commands that use them.

Each test starts a fresh interpreter with src/ on its path, since this one
has numpy loaded already.  The estimators and oracles are pure Python; only
the samplers and the switch counters make arrays, and only compare/sweep
with --workers above 1 start a pool.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from degcensus import cli

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("numpy", "concurrent.futures.process", "multiprocessing")

# runs each argv of sys.argv[1] through cli.main, then prints which of the
# HEAVY modules are loaded and every (exit code, stdout)
PROBE = """
import contextlib, io, json, sys
import degcensus.cli as cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([cli.main(argv), out.getvalue()])
heavy = [m for m in json.loads(sys.argv[2]) if m in sys.modules]
print(json.dumps({"loaded": heavy, "runs": runs}))
"""

PURE_COMMANDS = [
    ["estimate", "--bipartite", "-s", "2,1,1", "-t", "1,1,2", "--no-timestamp"],
    ["exact", "--oriented", "-s", "1,1,1", "-t", "1,1,1", "--no-timestamp"],
    ["compare", "--family", "one-regular", "--n-range", "4:5", "--no-timestamp"],
]

NUMPY_COMMANDS = [
    ["sample", "-s", "2,1,1", "-t", "1,1,2", "--samples", "5", "--seed", "7", "--no-timestamp"],
    ["switch-verify", "-s", "2,2,2", "-t", "2,2,2", "--x-diagonal", "--no-timestamp"],
]


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _probe(commands):
    return _python("-c", PROBE, json.dumps(commands), json.dumps(HEAVY))


def _in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return [code, out.getvalue()]


@pytest.mark.parametrize("module", ["degcensus", "degcensus.cli"])
def test_import_loads_no_numpy_or_pool(module):
    code = f"import json, sys, {module}; print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    assert _python("-c", code) == []


def test_estimators_and_oracles_run_without_numpy():
    got = _probe(PURE_COMMANDS)
    assert got["loaded"] == []
    assert [code for code, _ in got["runs"]] == [0] * len(PURE_COMMANDS)


def test_samplers_and_switching_load_numpy_on_first_use():
    got = _probe(NUMPY_COMMANDS)
    assert "numpy" in got["loaded"]
    assert got["runs"] == [_in_process(argv) for argv in NUMPY_COMMANDS]
