"""Golden CLI outputs: the --no-timestamp stdout of fixed commands, byte for byte.

Each case's stdout is stored in tests/golden/<name>.out.  The commands run
inside tests/golden, so the --x file's path in the echoed header is the
same in every checkout.  `python tests/test_golden.py` rewrites the files;
do that only for an intended change of output.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from degcensus.cli import main

GOLDEN = Path(__file__).parent / "golden"

IRREGULAR_7 = ["-s", "3,2,2,2,1,1,1", "-t", "2,3,1,2,2,1,1"]
IRREGULAR_8 = ["-s", "3,2,2,2,1,1,1,2", "-t", "2,3,1,2,2,1,1,2"]

CASES = {
    "exact_stratified_diagonal": ["exact", "--bipartite", "--stratified", "--x-diagonal", *IRREGULAR_7],
    "exact_stratified_matching": ["exact", "--bipartite", "--stratified", *IRREGULAR_7, "--x", "matching.json"],
    "exact_avoiding_matching": ["exact", "--bipartite", *IRREGULAR_7, "--x", "matching.json"],
    "exact_oriented": ["exact", "--oriented", *IRREGULAR_8],
    "exact_loopfree": ["exact", "--loopfree", *IRREGULAR_8],
    "exact_undirected_count": ["exact", "--undirected-count", "-d", "4,3,3,2,2,2,1,1"],
    "compare_oriented": ["compare", "--family", "one-regular", "--context", "oriented", "--n-range", "4:8"],
    "compare_oriented_d2": ["compare", "--family", "d-regular-oriented", "--context", "oriented", "--d", "2", "--n-range", "5:7"],
    "sweep_twocycleprob": ["sweep", "--family", "one-regular", "--context", "twocycleprob", "--n-range", "4:8"],
    "compare_twocycleprob_d2": ["compare", "--family", "d-regular-digraph", "--context", "twocycleprob", "--d", "2", "--n-range", "5:6"],
    "compare_avoiding": ["compare", "--family", "d-regular-digraph", "--context", "avoiding", "--d", "2", "--n-range", "3:7"],
    "sweep_eulerian_expect": ["sweep", "--family", "two-regular-undirected", "--context", "eulerian-expect", "--n-range", "3:8"],
}


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--no-timestamp"])
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    want = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert _stdout(CASES[name]) == want


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name, argv in CASES.items():
        Path(f"{name}.out").write_text(_stdout(argv), encoding="utf-8")
