"""Command-line surface: modes, formats, determinism, exit codes."""

import json
import math
import sys
import time
from fractions import Fraction

import pytest

from degcensus import cli, core, estimate_bipartite, DegreePair
from degcensus import estimators as est
from degcensus import oracles
from degcensus.cli import main
from degcensus.core import BipartiteGraph, ForbiddenGraph
from degcensus.switching import SwitchCountReport

# a square pair with two forbidden cells, and an even-degree vector
PAIR_S, PAIR_T = (2, 2, 1, 1), (1, 2, 2, 1)
CELLS = [[0, 1], [2, 3]]
EVEN_D, DELTA = (2, 2, 4, 2, 2), (1, 0, 0, -1, 0)


def _vec(values):
    return ",".join(map(str, values))


def _pair_argv(x_file):
    return ["-s", _vec(PAIR_S), "-t", _vec(PAIR_T), "--x", str(x_file)]


def _plain_pair_argv(x_file):
    return ["-s", _vec(PAIR_S), "-t", _vec(PAIR_T)]


def _lib_pair(fn, with_x=False):
    dp = DegreePair(PAIR_S, PAIR_T)
    if with_x:
        return lambda: fn(dp, ForbiddenGraph(4, 4, [tuple(c) for c in CELLS]))
    return lambda: fn(dp)


# estimate mode -> (input argv given the --x file, the library call)
ESTIMATE_CASES = {
    "bipartite": (_plain_pair_argv, _lib_pair(est.estimate_bipartite)),
    "bipartite_avoiding": (
        _pair_argv, _lib_pair(est.estimate_bipartite_avoiding, True)
    ),
    "avoidance": (_pair_argv, _lib_pair(est.avoidance_factor, True)),
    "subgraph": (_pair_argv, _lib_pair(est.subgraph_probability, True)),
    "loopprob": (_plain_pair_argv, _lib_pair(est.loopfree_probability)),
    "loopfree": (_plain_pair_argv, _lib_pair(est.estimate_loopfree_digraphs)),
    "loopfree_avoiding": (
        _pair_argv, _lib_pair(est.estimate_loopfree_avoiding, True)
    ),
    "twocycle_free": (_plain_pair_argv, _lib_pair(est.twocycle_free_probability)),
    "oriented": (_plain_pair_argv, _lib_pair(est.estimate_oriented)),
    "regular_digraph": (
        lambda x: ["-n", "10", "-d", "3"],
        lambda: est.estimate_loopfree_digraphs(DegreePair.regular(10, 3)),
    ),
    "undirected": (
        lambda x: ["-d", _vec(EVEN_D)], lambda: est.estimate_undirected(EVEN_D)
    ),
    "eulerian_expect": (
        lambda x: ["-d", _vec(EVEN_D), f"--delta={_vec(DELTA)}"],
        lambda: est.expected_orientations(EVEN_D, DELTA),
    ),
    "orient_expect": (
        lambda x: ["-d", _vec(EVEN_D)],
        lambda: est.expected_orientations(EVEN_D, (0,) * len(EVEN_D)),
    ),
    "pauling": (
        lambda x: ["-d", _vec(EVEN_D)],
        lambda: est.pauling_and_residual_entropy(EVEN_D),
    ),
    "perm_sparse": (_plain_pair_argv, _lib_pair(est.expected_permanent_sparse)),
    "perm_dense": (_plain_pair_argv, _lib_pair(est.expected_permanent_dense)),
    "perm_regular": (
        lambda x: ["-n", "10", "-d", "3"],
        lambda: est.expected_permanent_regular(10, 3),
    ),
}

K5 = [[i, j] for i in range(5) for j in range(i + 1, 5)]
C4 = [[0, 1], [1, 2], [2, 3], [0, 3]]
DELTA_C4 = (1, 0, -1, 0)
MATRIX = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]


def _exact_cases(tmp_path):
    """exact mode -> (argv, the payload the oracle gives)."""

    def graph(name, n, edges):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": n, "edges": edges}))
        return ["--graph", str(path)]

    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"matrix": MATRIX}))
    dp = DegreePair((2, 2, 1), (1, 2, 2))
    holes = BipartiteGraph(4, 4, [(i, i) for i in range(4)])
    exact, window = est.permanent_complement_ie(holes.degree_pair(), holes)
    mean_perm = oracles.exact_expected_permanent(DegreePair.regular(3, 2))
    return {
        "bipartite": (
            ["-s", "2,2,1", "-t", "1,2,2"], {"exact": str(oracles.count_bipartite(dp))}
        ),
        "loopfree": (
            ["-s", "2,2,1", "-t", "1,2,2"], {"exact": str(oracles.count_loopfree(dp))}
        ),
        "oriented": (
            ["-s", "2,2,1", "-t", "1,2,2"], {"exact": str(oracles.count_oriented(dp))}
        ),
        "undirected_count": (
            ["-d", "2,2,2,2,2"],
            {"exact": str(oracles.count_undirected((2,) * 5))},
        ),
        "eulerian": (
            graph("k5", 5, K5),
            {"exact": str(oracles.count_eulerian_orientations(5, K5))},
        ),
        "orientations": (
            graph("c4", 4, C4) + ["--delta", _vec(DELTA_C4)],
            {"exact": str(oracles.count_orientations_with_degrees(4, C4, DELTA_C4))},
        ),
        "expected_permanent": (
            ["-s", "2,2,2", "-t", "2,2,2"],
            {"exact": f"{mean_perm.numerator}/{mean_perm.denominator}"},
        ),
        "complement": (
            graph("holes", 4, [[i, i] for i in range(4)]),
            {"exact": str(exact), "window": list(window)},
        ),
        "permanent": (
            [str(matrix)], {"exact": str(oracles.ryser_permanent(MATRIX))}
        ),
    }


DIGRAPH_GRID_CONTEXTS = (
    "loopprob", "bipartite", "loopfree", "oriented", "avoiding", "twocycleprob",
)
UNDIRECTED_GRID_CONTEXTS = ("undirected", "eulerian-expect")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    lines = [json.loads(line) for line in out.strip().splitlines()]
    return lines


class TestEstimateCommand:
    def test_bipartite_matches_library(self, capsys):
        (payload,) = run_json(
            capsys,
            "estimate", "-s", "1,1", "-t", "1,1", "--bipartite", "--no-timestamp",
        )
        lib = estimate_bipartite(DegreePair((1, 1), (1, 1)))
        assert payload["estimate"]["log_value"] == lib.log_value
        assert payload["assumptions"]["context"] == "bipartite-count"
        assert payload["cutoffs"]["n1"] == 24
        assert "timestamp" not in payload

    def test_stats_are_derived_once(self, capsys, monkeypatch):
        # the estimator, its correction and the assumption report all read
        # the stats of the one pair the command parsed
        pairs = []
        derive = core._derive_stats
        monkeypatch.setattr(
            core, "_derive_stats", lambda dp: pairs.append(dp) or derive(dp)
        )
        run_json(
            capsys,
            "estimate", "-s", _vec(PAIR_S), "-t", _vec(PAIR_T), "--bipartite",
            "--no-timestamp",
        )
        assert pairs == [DegreePair(PAIR_S, PAIR_T)]

    def test_timestamp_present_by_default(self, capsys):
        (payload,) = run_json(
            capsys, "estimate", "-s", "1,1", "-t", "1,1", "--bipartite"
        )
        assert "timestamp" in payload

    def test_pauling_payload(self, capsys):
        (payload,) = run_json(
            capsys, "estimate", "-d", "2,2,2,2", "--pauling", "--no-timestamp"
        )
        entropy = payload["residual_entropy"]
        assert entropy["pauling"] == 0.0
        assert entropy["sharpened"] > 0.0

    def test_regular_digraph_mode(self, capsys):
        (payload,) = run_json(
            capsys,
            "estimate", "-n", "100", "-d", "3", "--regular-digraph",
            "--no-timestamp",
        )
        assert payload["estimate"]["context"] == "loopfree-count"
        assert payload["estimate"]["log_value"] == pytest.approx(
            1051.5384005439016, rel=1e-12
        )

    def test_undirected_mode_carries_exact_prefactor(self, capsys):
        (payload,) = run_json(
            capsys, "estimate", "-d", "1,1,1,1", "--undirected", "--no-timestamp"
        )
        assert payload["estimate"]["exact_prefactor"] == "3"

    def test_huge_undirected_prefactor_is_exact(self, capsys):
        d = [4] * 800
        (payload,) = run_json(
            capsys,
            "estimate", "-d", ",".join(map(str, d)), "--undirected",
            "--no-timestamp",
        )
        half = sum(d) // 2
        want = Fraction(
            math.factorial(2 * half),
            math.factorial(half) * 2**half * math.factorial(4) ** len(d),
        )
        text = payload["estimate"]["exact_prefactor"]
        assert len(text) > 4300
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            assert Fraction(text) == want
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("mode", sorted(ESTIMATE_CASES))
    def test_every_mode_matches_library(self, capsys, tmp_path, mode):
        x_file = tmp_path / "x.json"
        x_file.write_text(json.dumps({"edges": CELLS}))
        inputs, library = ESTIMATE_CASES[mode]
        (payload,) = run_json(
            capsys,
            "estimate", f"--{mode.replace('_', '-')}", *inputs(x_file),
            "--no-timestamp",
        )
        want = library()
        if mode == "pauling":
            assert payload["residual_entropy"] == dict(
                zip(("pauling", "sharpened"), want)
            )
        else:
            assert payload["estimate"] == json.loads(json.dumps(want.to_json()))
            assert payload["assumptions"]["context"] == want.context

    def test_mode_flag_required(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "-s", "1,1", "-t", "1,1", "--no-timestamp"
        )
        assert code == 2
        assert "exactly one estimate mode" in err

    def test_two_modes_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "estimate", "-s", "1,1", "-t", "1,1",
            "--bipartite", "--loopprob", "--no-timestamp",
        )
        assert code == 2


class TestExactCommand:
    def test_stratified_diagonal(self, capsys):
        (payload,) = run_json(
            capsys,
            "exact", "-s", "2,2,2", "-t", "2,2,2",
            "--bipartite", "--x-diagonal", "--stratified", "--no-timestamp",
        )
        assert payload["stratified"] == ["1", "0", "3", "2"]

    def test_loopfree_count(self, capsys):
        (payload,) = run_json(
            capsys,
            "exact", "-s", "1,1,1,1", "-t", "1,1,1,1", "--loopfree",
            "--no-timestamp",
        )
        assert payload["exact"] == "9"

    def test_expected_permanent_fraction(self, capsys):
        (payload,) = run_json(
            capsys,
            "exact", "-s", "2,2,2", "-t", "2,2,2", "--expected-permanent",
            "--no-timestamp",
        )
        assert payload["exact"] == "2/1"

    def test_permanent_from_file(self, capsys, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}))
        (payload,) = run_json(
            capsys, "exact", "--permanent", str(path), "--no-timestamp"
        )
        assert payload["exact"] == "2"

    def test_eulerian_from_graph_file(self, capsys, tmp_path):
        path = tmp_path / "c4.json"
        path.write_text(
            json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]})
        )
        (payload,) = run_json(
            capsys, "exact", "--eulerian", "--graph", str(path), "--no-timestamp"
        )
        assert payload["exact"] == "2"

    def test_orientations_with_delta(self, capsys, tmp_path):
        path = tmp_path / "c4.json"
        path.write_text(
            json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]})
        )
        (payload,) = run_json(
            capsys,
            "exact", "--orientations", "--graph", str(path),
            "--delta", "1,0,-1,0", "--no-timestamp",
        )
        assert payload["exact"] == "1"

    def test_complement_window(self, capsys, tmp_path):
        path = tmp_path / "diag.json"
        path.write_text(
            json.dumps({"n": 4, "edges": [[0, 0], [1, 1], [2, 2], [3, 3]]})
        )
        (payload,) = run_json(
            capsys, "exact", "--complement", "--graph", str(path), "--no-timestamp"
        )
        assert payload["exact"] == "9"
        lo, hi = payload["window"]
        assert lo <= 9 <= hi

    def test_missing_graph_file_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "--eulerian", "--graph", "/nonexistent.json"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "mode",
        [
            "bipartite", "loopfree", "oriented", "undirected_count", "eulerian",
            "orientations", "expected_permanent", "complement", "permanent",
        ],
    )
    def test_every_mode_matches_oracle(self, capsys, tmp_path, mode):
        argv, want = _exact_cases(tmp_path)[mode]
        (payload,) = run_json(
            capsys, "exact", f"--{mode.replace('_', '-')}", *argv, "--no-timestamp"
        )
        assert {k: payload[k] for k in want} == want
        assert set(payload) == {"command", "config", *want}

    @pytest.mark.parametrize(
        "flags",
        [
            ("--bipartite", "--loopfree"),
            ("--bipartite", "--stratified", "--oriented", "--x-diagonal"),
            ("--loopfree", "--expected-permanent"),
        ],
    )
    def test_two_modes_rejected(self, capsys, flags):
        code, out, err = run_cli(
            capsys, "exact", "-s", "1,1", "-t", "1,1", *flags, "--no-timestamp"
        )
        assert code == 2
        assert out == ""
        assert "pick exactly one exact mode flag" in err

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            "exact", "-s", "1,1,1,1", "-t", "1,1,1,1",
            "--bipartite", "--budget-S", "2", "--no-timestamp",
        )
        assert code == 3
        assert "budget" in err.lower()


class TestCompareCommand:
    def test_one_regular_loop_probabilities(self, capsys):
        header, *records = run_json(
            capsys,
            "compare", "--family", "one-regular", "--context", "loopprob",
            "--n-range", "4:9", "--no-timestamp",
        )
        assert header["command"] == "compare"
        assert [r["exact"] for r in records] == [
            "3/8", "11/30", "53/144", "103/280", "2119/5760", "16687/45360",
        ]
        assert all(r["within_budget"] for r in records)

    def test_tolerance_expression_failure_sets_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", "--family", "one-regular", "--context", "loopprob",
            "--n-range", "4:5", "--tol", "1/(10**6 * n)", "--no-timestamp",
        )
        assert code == 1
        records = [json.loads(line) for line in out.strip().splitlines()][1:]
        assert any(r["within_budget"] is False for r in records)

    def test_tolerance_expression_pass(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", "--family", "one-regular", "--context", "loopprob",
            "--n-range", "4:5", "--tol", "5/n", "--no-timestamp",
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()][1:]
        assert all(r["tolerance"] == 5 / r["instance"]["n"] for r in records)

    def test_tolerance_grammar_values(self):
        n, s_total, d = 4, 12, 3
        for expr, want in (
            ("5/n", 5 / n),
            ("0.5/sqrt(S)", 0.5 / math.sqrt(s_total)),
            ("1/(10**6 * n)", 1 / (10**6 * n)),
            ("-n + +S - d*2", -n + s_total - d * 2),
            ("2**-1 + exp(log(d))", 2**-1 + math.exp(math.log(d))),
            ("1e400", math.inf),
        ):
            assert cli._eval_tol(expr, n=n, S=s_total, d=d) == want, expr

    @pytest.mark.parametrize(
        "expr",
        [
            "().__class__.__base__.__subclasses__().__len__()",
            "9**9**9",
            "n.real",
            "[1][0]",
            "2 if n else 1",
            "log(n, 2)",
            "log(x=n)",
            "abs(n)",
            "n // 2",
            "n % 3",
            "sqrt",
            "True",
            "1j",
            "'5'",
            "lambda: 1",
            "q",
            "1/0",
            "sqrt(-1)",
            "(-8) ** (1/3)",
            "exp(1000)",
            pytest.param("-" * 5000 + "1", id="deep-unary-minus"),
            "",
        ],
    )
    def test_tolerance_outside_grammar_is_usage(self, capsys, expr):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys,
            "compare", "--family", "one-regular", "--context", "loopprob",
            "--n-range", "3:4", f"--tol={expr}", "--no-timestamp",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot evaluate tolerance")
        assert "Traceback" not in err

    def test_bad_tolerance_is_reported_when_no_record_reaches_it(self, capsys):
        # without --d every record is a usage error; the tolerance is still
        # checked, once, before any record is made
        code, out, err = run_cli(
            capsys,
            "compare", "--family", "d-regular-digraph", "--n-range", "3:4",
            "--tol", "sqrt", "--no-timestamp",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot evaluate tolerance 'sqrt'")

    def test_budget_exit_code_dominates(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", "--family", "d-regular-digraph", "--context", "loopfree",
            "--d", "2", "--n-range", "3:20", "--budget-S", "12", "--no-timestamp",
        )
        assert code == 3
        records = [json.loads(line) for line in out.strip().splitlines()][1:]
        kinds = {r.get("error_kind") for r in records}
        assert "budget" in kinds

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", "--family", "one-regular", "--context", "loopprob",
            "--n-range", "4:5", "--format", "csv", "--no-timestamp",
        )
        assert code == 0
        lines = out.strip().splitlines()
        json.loads(lines[0])  # header stays a JSON object
        assert lines[1].startswith("index,")
        assert len(lines) == 4

    def test_unknown_context_for_family(self, capsys):
        code, _, err = run_cli(
            capsys,
            "compare", "--family", "two-regular-undirected",
            "--context", "loopprob", "--n-range", "4:5", "--no-timestamp",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "family", ["one-regular", "d-regular-digraph", "d-regular-oriented",
                   "two-regular-undirected"],
    )
    @pytest.mark.parametrize(
        "context", DIGRAPH_GRID_CONTEXTS + UNDIRECTED_GRID_CONTEXTS
    )
    def test_family_context_pairings(self, capsys, family, context):
        code, out, err = run_cli(
            capsys,
            "compare", "--family", family, "--context", context, "--d", "2",
            "--n-range", "3:4", "--no-timestamp",
        )
        undirected = family == "two-regular-undirected"
        if undirected == (context in UNDIRECTED_GRID_CONTEXTS):
            assert code in (0, 1), err
            header, *records = [json.loads(line) for line in out.splitlines()]
            assert header["command"] == "compare"
            assert [r["instance"]["context"] for r in records] == [context] * 2
            assert not any("error" in r for r in records)
        else:
            assert code == 2
            assert out == ""
            assert f"context {context!r} is not valid for family" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "d-regular-digraph", "--context", "loopprob", "--d", "3",
             "--n-range", "2:3"),
            ("--family", "one-regular", "--context", "twocycleprob",
             "--n-range", "1:2"),
            ("--family", "d-regular-digraph", "--context", "twocycleprob",
             "--d", "3", "--n-range", "3:6"),
        ],
    )
    def test_zero_denominator_is_a_usage_record(self, capsys, argv):
        code, out, err = run_cli(capsys, "compare", *argv, "--no-timestamp")
        assert err == ""
        # records where the probability is exactly 0 fail their tolerance,
        # and a usage record beats a tolerance failure
        assert code == 2
        first = json.loads(out.splitlines()[1])
        assert first["error_kind"] == "usage"
        assert "undefined probability" in first["error"]
        assert "exact" not in first

    def test_undirected_family(self, capsys):
        header, *records = run_json(
            capsys,
            "compare", "--family", "two-regular-undirected",
            "--context", "undirected", "--n-range", "4:6", "--no-timestamp",
        )
        assert [r["exact"] for r in records] == ["3", "12", "70"]

    @pytest.mark.parametrize("context", UNDIRECTED_GRID_CONTEXTS)
    def test_undirected_grid_without_graphs(self, capsys, context):
        code, out, err = run_cli(
            capsys,
            "compare", "--family", "two-regular-undirected",
            "--context", context, "--n-range", "0:2", "--no-timestamp",
        )
        assert (code, err) == (2, "")
        header, *records = [json.loads(line) for line in out.splitlines()]
        # n = 0 has one graph, the empty one, which the estimators reject
        assert [r["error"] for r in records] == [
            "undirected degree sequence must be non-empty",
            "no simple graph realises this instance",
            "no simple graph realises this instance",
        ]
        assert {r["error_kind"] for r in records} == {"usage"}

    def test_eulerian_means(self, capsys):
        # a 2-regular graph with c cycles has 2^c Eulerian orientations, so
        # n! [x^n] e^(-x - x^2/2) / (1 - x) sums them over all graphs; the
        # means divide by A001205
        header, *records = run_json(
            capsys,
            "compare", "--family", "two-regular-undirected",
            "--context", "eulerian-expect", "--n-range", "3:12", "--no-timestamp",
        )
        assert [r["exact"] for r in records] == [
            "2/1", "2/1", "2/1", "16/7", "76/31", "428/167", "361/134",
            "22496/7969", "197944/67259", "1943224/635347",
        ]

    def test_parallel_workers_match_serial(self, capsys):
        argv = (
            "compare", "--family", "one-regular", "--context", "loopfree",
            "--n-range", "4:7", "--no-timestamp",
        )
        serial = run_json(capsys, *argv)
        parallel = run_json(capsys, *argv, "--workers", "2")
        # header echoes the worker count; the per-instance records must agree
        assert serial[1:] == parallel[1:]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("compare", "--family", "one-regular", "--n-range", "4:5"),
            ("estimate", "-s", "1,1", "-t", "1,1", "--bipartite"),
        ],
    )
    def test_workers_below_one_is_usage(self, capsys, argv, workers):
        code, out, err = run_cli(capsys, *argv, "--workers", workers)
        assert code == 2
        assert out == ""
        assert err == f"error: --workers must be at least 1, got {workers}\n"

    @pytest.mark.parametrize("flag", ["--budget-S", "--budget-n"])
    def test_negative_budget_is_usage(self, capsys, flag):
        code, out, err = run_cli(
            capsys, "exact", "--bipartite", "-s", "1,1", "-t", "1,1", flag, "-1"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be at least 0, got -1\n"

    @pytest.mark.parametrize("n_range, pool_size", [("4:5", 2), ("4:6", 3), ("4:4", None)])
    def test_pool_capped_at_grid_size(self, capsys, monkeypatch, n_range, pool_size):
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        argv = (
            "compare", "--family", "one-regular", "--context", "loopfree",
            "--n-range", n_range, "--no-timestamp",
        )
        serial = run_json(capsys, *argv)
        pooled = run_json(capsys, *argv, "--workers", "64")
        # a one-job grid runs in this process, with no pool
        assert sizes == ([] if pool_size is None else [pool_size])
        assert serial[1:] == pooled[1:]


class TestSweepCommand:
    def test_oriented_trend(self, capsys):
        lines = run_json(
            capsys,
            "sweep", "--family", "one-regular", "--context", "oriented",
            "--n-range", "4:7", "--no-timestamp",
        )
        trend = lines[-1]["trend"]
        assert trend["abs_log_ratios"] == pytest.approx(
            [
                0.1137056388801101,
                0.10943791243410095,
                0.004077396776275499,
                0.013622180323126898,
            ]
        )
        # the error does shrink overall, but not monotonically on this grid
        assert trend["decreased_overall"] is True
        assert trend["monotone_nonincreasing"] is False


class TestSampleCommand:
    def test_graph_stream_is_deterministic(self, capsys):
        argv = (
            "sample", "-s", "1,1,1", "-t", "1,1,1",
            "--samples", "3", "--seed", "7", "--no-timestamp",
        )
        first = run_json(capsys, *argv)
        second = run_json(capsys, *argv)
        assert first == second
        header, *graphs = first
        assert header["command"] == "sample"
        assert len(graphs) == 3
        for g in graphs:
            assert len(g["edges"]) == 3

    def test_event_estimate(self, capsys):
        (payload,) = run_json(
            capsys,
            "sample", "-s", "1,1,1,1", "-t", "1,1,1,1",
            "--event", "loop-free", "--samples", "50", "--seed", "3",
            "--method", "configuration-rejection", "--no-timestamp",
        )
        est = payload["estimate"]
        assert est["n_samples"] == 50
        assert 0.0 <= est["point"] <= 1.0
        assert est["config"]["method"] == "configuration-rejection"

    def test_orientation_expectation(self, capsys):
        (payload,) = run_json(
            capsys,
            "sample", "-d", "2,2,2,2", "--orient-expect",
            "--samples", "5", "--seed", "1", "--no-timestamp",
        )
        assert payload["estimate"]["point"] == 2.0
        assert payload["estimate"]["stderr"] == 0.0

    def test_infeasible_margins_are_usage_errors(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sample", "-s", "3,1", "-t", "2,2", "--samples", "1",
            "--no-timestamp",
        )
        assert code == 2
        assert "not realisable" in err

    @pytest.mark.parametrize(
        "s, t, edges", [("0,0", "0,0", []), ("1,0", "0,1", [[0, 1]])]
    )
    def test_swap_chain_below_two_edges(self, capsys, s, t, edges):
        # no swap exists: every sample is the one realisation
        code, out, err = run_cli(
            capsys,
            "sample", "-s", s, "-t", t, "--method", "swap-chain",
            "--samples", "3", "--seed", "1", "--no-timestamp",
        )
        assert code == 0 and "Traceback" not in err
        header, *graphs = (json.loads(line) for line in out.splitlines())
        assert header["command"] == "sample"
        assert graphs == [{"edges": edges}] * 3


class TestSwitchVerifyCommand:
    def test_x_switch_identity(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"edges": [[1, 1], [2, 2]]}))
        (payload,) = run_json(
            capsys,
            "switch-verify", "-s", "2,2,2", "-t", "2,2,2",
            "--x", str(path), "-f", "2", "--no-timestamp",
        )
        assert payload["identity_holds"] is True
        assert payload["report"] == {
            "f_or_q": 2,
            "total_forward": "2",
            "total_reverse": "2",
        }

    def test_twocycle_identity(self, capsys):
        (payload,) = run_json(
            capsys,
            "switch-verify",
            "-s", "0,1,0,1,1,1,0,1,0,1", "-t", "1,0,1,0,1,1,1,0,1,0",
            "--twocycle", "-q", "1", "--no-timestamp",
        )
        assert payload["report"]["total_forward"] == "576"
        assert payload["report"]["total_reverse"] == "576"

    def test_identity_holds_reads_the_totals(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "verify_twocycle_identity",
            lambda dp, q, budget_s: SwitchCountReport(q, 3, 4),
        )
        (payload,) = run_json(
            capsys,
            "switch-verify", "-s", "1,1", "-t", "1,1",
            "--twocycle", "-q", "1", "--no-timestamp",
        )
        assert payload["report"]["total_forward"] == "3"
        assert payload["report"]["total_reverse"] == "4"
        assert payload["identity_holds"] is False

    def test_needs_forbidden_set_without_twocycle(self, capsys):
        code, _, err = run_cli(
            capsys,
            "switch-verify", "-s", "1,1,1", "-t", "1,1,1", "--no-timestamp",
        )
        assert code == 2

    def test_budget_guard(self, capsys):
        code, _, err = run_cli(
            capsys,
            "switch-verify", "-s", "4,4,4,4", "-t", "4,4,4,4",
            "--x-diagonal", "--no-timestamp",
        )
        assert code == 3


# (argv with FILE for the input file, file contents); each must be a usage error
_PAIR11 = ("-s", "1,1", "-t", "1,1")
MALFORMED_FILES = {
    "graph-n-not-int": (
        ("exact", "--eulerian", "--graph", "FILE"), {"n": "x", "edges": [[0, 1]]}
    ),
    "graph-edge-not-int": (
        ("exact", "--orientations", "--graph", "FILE"), {"n": 3, "edges": [["a", 1]]}
    ),
    "graph-edge-triple-eulerian": (
        ("exact", "--eulerian", "--graph", "FILE"), {"n": 3, "edges": [[0, 1, 2]]}
    ),
    "graph-edge-triple-complement": (
        ("exact", "--complement", "--graph", "FILE"), {"n": 3, "edges": [[0, 1, 2]]}
    ),
    "graph-edges-not-list": (
        ("exact", "--complement", "--graph", "FILE"), {"n": 3, "edges": 7}
    ),
    "x-edge-triple-exact": (
        ("exact", "--bipartite", *_PAIR11, "--x", "FILE"), {"edges": [[0, 1, 2]]}
    ),
    "x-edge-triple-estimate": (
        ("estimate", "--subgraph", *_PAIR11, "--x", "FILE"), {"edges": [[0, 1, 2]]}
    ),
    # int() once truncated these to the graph on 4 vertices with (0, 1), (2, 3)
    "graph-float-and-str-entries": (
        ("exact", "--eulerian", "--graph", "FILE"),
        {"n": 4.7, "edges": [[0.9, 1.2], [2, "3"]]},
    ),
    "graph-n-bool": (
        ("exact", "--eulerian", "--graph", "FILE"), {"n": True, "edges": []}
    ),
    # both once counted the graph with no vertices and answered 1
    "graph-n-negative-eulerian": (
        ("exact", "--eulerian", "--graph", "FILE"), {"n": -3, "edges": []}
    ),
    "graph-n-negative-orientations": (
        ("exact", "--orientations", "--graph", "FILE", "--delta=0"),
        {"n": -3, "edges": []},
    ),
    **{
        f"x-{name}-{argv[0]}": (argv, contents)
        for name, contents in (
            ("edge-int", {"edges": [7]}),
            ("edges-int", {"edges": 7}),
            # once read as the cell (1, 0)
            ("edge-bool", {"edges": [[True, False]]}),
        )
        for argv in (
            ("exact", "--bipartite", *_PAIR11, "--x", "FILE"),
            ("estimate", "--subgraph", *_PAIR11, "--x", "FILE"),
            ("switch-verify", *_PAIR11, "--x", "FILE"),
            ("sample", "--event", "avoids-x", *_PAIR11, "--x", "FILE"),
        )
    },
    "x-list-exact": (("exact", "--bipartite", *_PAIR11, "--x", "FILE"), [[0, 1]]),
    "x-list-sample": (
        ("sample", "--event", "avoids-x", *_PAIR11, "--x", "FILE"), [[0, 1]]
    ),
    "x-list-switch-verify": (("switch-verify", *_PAIR11, "--x", "FILE"), [[0, 1]]),
    "matrix-float": (("exact", "--permanent", "FILE"), {"matrix": [[0.5, 1], [1, 1]]}),
    "matrix-bool": (("exact", "--permanent", "FILE"), {"matrix": [[True, 1], [1, 1]]}),
    "matrix-not-list": (("exact", "--permanent", "FILE"), {"matrix": 5}),
    "matrix-str-entry": (
        ("exact", "--permanent", "FILE"), {"matrix": [[1, "a"], [0, 1]]}
    ),
}


class TestMalformedInputFiles:
    @pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
    def test_is_a_one_line_usage_error(self, capsys, tmp_path, case):
        argv, contents = MALFORMED_FILES[case]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(contents))
        argv = [str(path) if a == "FILE" else a for a in argv]
        code, out, err = run_cli(capsys, *argv, "--no-timestamp")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestParsing:
    def test_no_subcommand_is_usage(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage(self, capsys):
        assert main(["estimate", "--frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_vector_is_usage(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "-s", "1,x", "-t", "1,1", "--bipartite"
        )
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
