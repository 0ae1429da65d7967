"""Command-line front end: estimates, exact counts, comparisons, sampling.

Output contract: single computations print one JSON object; batch commands
(compare, sweep, sample dumps) print a JSON header line followed by one JSON
line per record, in instance order.  All objects are emitted with sorted keys
so a run is byte-identical across platforms given the same inputs and seed;
the only run-dependent field is the header timestamp, suppressed by
--no-timestamp.  Exit codes: 0 all pass, 1 tolerance failure, 2 usage error,
3 budget error; a compare/sweep run exits with the highest code among its
records, so budget beats usage and usage beats tolerance.

The commands are driven by tables: ESTIMATES and EXACT_MODES hold one entry
per mode flag (estimate and exact accept exactly one), FAMILIES and CONTEXTS
hold the compare/sweep grids.

Tolerances (--tol) are expressions in the per-instance variables n, S, d,
e.g. "5/n" or "0.5/sqrt(S)".  Only numbers, those variables, binary
+ - * / **, unary - and +, and one-argument log/sqrt/exp calls are accepted,
all evaluated in floats; anything else is a usage error.  The expression is
evaluated at every grid point before any record is made.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import math
import operator
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import Sequence

from .core import (
    BipartiteGraph,
    BudgetError,
    CensusError,
    DegreePair,
    ForbiddenGraph,
    assumption_report,
    cutoffs,
)
from . import estimators as est
from . import oracles
from .sampling import (
    SamplerConfig,
    estimate_event_probability,
    estimate_expected_orientation_count,
    iter_bipartite_samples,
)
from .switching import verify_twocycle_identity, verify_x_switch_identity

__all__ = ["main"]

EXIT_OK = 0
EXIT_TOL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    """Bad flag combination or unparseable input; exits with code 2."""


def _vec(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise UsageError(f"{what} must be a comma-separated integer list: {exc}")
    if not values:
        raise UsageError(f"{what} must be non-empty")
    return values


def _int_arg(text: str, what: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError):
        raise UsageError(f"{what} must be an integer, got {text!r}")


def _delta(args, k: int) -> tuple[int, ...]:
    return _vec(args.delta, "--delta") if args.delta is not None else (0,) * k


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON file {path}: {exc}")
    if not isinstance(payload, dict):
        raise UsageError(f"JSON file {path} must hold an object")
    return payload


def _degree_pair(args) -> DegreePair:
    if args.s is None or args.t is None:
        raise UsageError("this mode needs both -s and -t degree vectors")
    return DegreePair(_vec(args.s, "-s"), _vec(args.t, "-t"))


def _forbidden(args, dp: DegreePair) -> ForbiddenGraph | None:
    if getattr(args, "x_diagonal", False):
        if dp.m != dp.n:
            raise UsageError("--x-diagonal needs a square degree pair")
        return ForbiddenGraph.diagonal(dp.n)
    if getattr(args, "x", None):
        return ForbiddenGraph.from_json(_load_json(args.x), dp.m, dp.n)
    return None


def _header(args) -> dict:
    out = {"command": args.subcommand, "config": _echo(args)}
    if not args.no_timestamp:
        out["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return out


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _one_mode(args, modes, command: str) -> str:
    picked = [mode for mode in modes if getattr(args, mode)]
    if len(picked) != 1:
        raise UsageError(f"pick exactly one {command} mode flag")
    return picked[0]


_TOL_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
    ast.USub: operator.neg,
    ast.UAdd: operator.pos,
}
_TOL_FUNCS = {"log": math.log, "sqrt": math.sqrt, "exp": math.exp}


def _eval_tol(expr: str, **variables) -> float:
    """Evaluate a --tol expression by walking its syntax tree (see module doc)."""

    def walk(node) -> float:
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return float(node.value)
        if isinstance(node, ast.Name) and variables.get(node.id) is not None:
            return float(variables[node.id])
        if isinstance(node, ast.BinOp) and type(node.op) in _TOL_OPS:
            return _TOL_OPS[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _TOL_OPS:
            return _TOL_OPS[type(node.op)](walk(node.operand))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            func = _TOL_FUNCS.get(node.func.id)
            if func is not None and len(node.args) == 1 and not node.keywords:
                return func(walk(node.args[0]))
        raise UsageError(
            f"cannot evaluate tolerance {expr!r}: "
            f"{ast.unparse(node)!r} is not allowed"
        )

    try:
        # a negative base to a fractional power gives a complex: float() fails
        return float(walk(ast.parse(expr, mode="eval").body))
    except (SyntaxError, RecursionError, ArithmeticError, TypeError, ValueError) as exc:
        raise UsageError(f"cannot evaluate tolerance {expr!r}: {exc}")


def _exact_str(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

# Input kinds of the estimate modes: an -s/-t pair (forbidden set unused, empty
# by default, or required), a -d vector (with --delta, zeros by default), and
# -n/-d integers (as the d-regular pair, or as they are).
PAIR, PAIR_X, PAIR_NEEDS_X = "pair", "pair+x", "pair+required x"
D, D_DELTA = "d", "d+delta"
REGULAR_PAIR, N_D = "n,d regular pair", "n,d"

# mode -> (function of degcensus.estimators, input kind); the function is looked
# up by name at each call, so a wrapper set on that module is seen
ESTIMATES = {
    "bipartite": ("estimate_bipartite", PAIR),
    "bipartite_avoiding": ("estimate_bipartite_avoiding", PAIR_X),
    "avoidance": ("avoidance_factor", PAIR_X),
    "subgraph": ("subgraph_probability", PAIR_NEEDS_X),
    "loopprob": ("loopfree_probability", PAIR),
    "loopfree": ("estimate_loopfree_digraphs", PAIR),
    "loopfree_avoiding": ("estimate_loopfree_avoiding", PAIR_NEEDS_X),
    "twocycle_free": ("twocycle_free_probability", PAIR),
    "oriented": ("estimate_oriented", PAIR),
    "regular_digraph": ("estimate_loopfree_digraphs", REGULAR_PAIR),
    "undirected": ("estimate_undirected", D),
    "eulerian_expect": ("expected_orientations", D_DELTA),
    "orient_expect": ("expected_orientations", D_DELTA),
    "pauling": ("pauling_and_residual_entropy", D),
    "perm_sparse": ("expected_permanent_sparse", PAIR),
    "perm_dense": ("expected_permanent_dense", PAIR),
    "perm_regular": ("expected_permanent_regular", N_D),
}


def _estimate_payload(args) -> dict:
    mode = _one_mode(args, ESTIMATES, "estimate")
    name, kind = ESTIMATES[mode]
    flag = "--" + mode.replace("_", "-")
    cut = None  # the arguments of cutoffs(), reported for the pair kinds
    if kind in (D, D_DELTA):
        if args.d is None:
            raise UsageError(f"{flag} needs -d as a vector")
        d = _vec(args.d, "-d")
        subject = (d,)
        inputs = (d, _delta(args, len(d))) if kind == D_DELTA else subject
    elif kind in (REGULAR_PAIR, N_D):
        n, d = _int_arg(args.n, "-n"), _int_arg(args.d, "-d")
        if kind == N_D:
            inputs, subject = (n, d), (None,)
        else:
            inputs = subject = (DegreePair.regular(n, d),)
    else:
        dp = _degree_pair(args)
        x = _forbidden(args, dp)
        if kind == PAIR_NEEDS_X and x is None:
            raise UsageError(f"{flag} needs --x or --x-diagonal")
        xg = x if x is not None else ForbiddenGraph.empty(dp.m, dp.n)
        inputs = subject = (dp,) if kind == PAIR else (dp, xg)
        cut = (dp, x) if dp.total > 0 else None
    res = getattr(est, name)(*inputs)
    if not isinstance(res, est.LogEstimate):  # pauling: two entropies
        plain, sharp = res
        report = assumption_report(*subject, context="undirected-count")
        return {
            "residual_entropy": {"pauling": plain, "sharpened": sharp},
            "assumptions": report.to_json(),
        }
    report = assumption_report(*subject, context=res.context)
    payload = {"estimate": res.to_json(), "assumptions": report.to_json()}
    if cut is not None:
        payload["cutoffs"] = cutoffs(*cut).to_json()
    return payload


def cmd_estimate(args) -> int:
    _emit({**_header(args), **_estimate_payload(args)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def _exact_bipartite(args) -> dict:
    dp = _degree_pair(args)
    x = _forbidden(args, dp)
    if args.stratified:
        if x is None:
            raise UsageError("--stratified needs --x or --x-diagonal")
        strata = oracles.count_bipartite_stratified(dp, x, budget_s=args.budget_S)
        return {"stratified": [str(v) for v in strata]}
    return {"exact": str(oracles.count_bipartite(dp, x, budget_s=args.budget_S))}


def _exact_undirected(args) -> dict:
    if args.d is None:
        raise UsageError("--undirected-count needs -d")
    count = oracles.count_undirected(_vec(args.d, "-d"), budget_sum=args.budget_S)
    return {"exact": str(count)}


def _int_rows(rows) -> bool:
    """Whether rows is a list of lists of ints; bools are ints to Python."""
    return isinstance(rows, list) and all(
        isinstance(row, list) and all(type(v) is int for v in row) for row in rows
    )


def _exact_permanent(args) -> dict:
    rows = _load_json(args.permanent).get("matrix")
    # ryser_permanent is exact on integers only
    if not _int_rows(rows):
        raise UsageError("permanent input file needs key 'matrix': integer rows")
    return {"exact": str(oracles.ryser_permanent(rows, budget_n=args.budget_n))}


def _graph(args, mode: str, needs: str = "--graph"):
    """(n, edges) of the --graph file."""
    if not args.graph:
        raise UsageError(f"--{mode} needs {needs}")
    payload = _load_json(args.graph)
    n, edges = payload.get("n"), payload.get("edges")
    # int() would truncate 4.7 and parse "3" instead of rejecting them
    if type(n) is not int or not _int_rows(edges):
        raise UsageError(f"graph file {args.graph} needs integer 'n' and 'edges'")
    return n, [tuple(e) for e in edges]


def _exact_orientations(args) -> dict:
    n, edges = _graph(args, "orientations")
    count = oracles.count_orientations_with_degrees(n, edges, _delta(args, n))
    return {"exact": str(count)}


def _exact_complement(args) -> dict:
    n, edges = _graph(args, "complement", "--graph (the hole pattern)")
    holes = BipartiteGraph(n, n, edges)
    exact, window = est.permanent_complement_ie(holes.degree_pair(), holes)
    return {"exact": str(exact), "window": [window[0], window[1]]}


def _pair_count(name: str):
    """Handler of a mode that runs one oracle on the -s/-t pair."""
    return lambda args: {
        "exact": _exact_str(
            getattr(oracles, name)(_degree_pair(args), budget_s=args.budget_S)
        )
    }


# mode flag -> handler returning the payload; --stratified modifies --bipartite
EXACT_MODES = {
    "bipartite": _exact_bipartite,
    "loopfree": _pair_count("count_loopfree"),
    "oriented": _pair_count("count_oriented"),
    "undirected_count": _exact_undirected,
    "eulerian": lambda args: {
        "exact": str(oracles.count_eulerian_orientations(*_graph(args, "eulerian")))
    },
    "orientations": _exact_orientations,
    "expected_permanent": _pair_count("exact_expected_permanent"),
    "complement": _exact_complement,
    "permanent": _exact_permanent,
}


def _exact_payload(args) -> dict:
    return EXACT_MODES[_one_mode(args, EXACT_MODES, "exact")](args)


def cmd_exact(args) -> int:
    _emit({**_header(args), **_exact_payload(args)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare / sweep
# ---------------------------------------------------------------------------

# family -> (default context, fixed degree or None for --d, undirected?)
FAMILIES = {
    "one-regular": ("loopprob", 1, False),
    "d-regular-digraph": ("loopfree", None, False),
    "d-regular-oriented": ("oriented", None, False),
    "two-regular-undirected": ("undirected", 2, True),
}
UNDIRECTED_CONTEXTS = ("undirected", "eulerian-expect")


def _realised_count(d, budget_s: int) -> int:
    count = oracles.count_undirected(d, budget_sum=budget_s)
    if count == 0:
        raise UsageError("no simple graph realises this instance")
    return count


def _eulerian_mean(d, budget_s: int) -> Fraction:
    """Mean number of Eulerian orientations per graph with degrees d.

    Those orientations, over all the graphs, are exactly the oriented graphs
    with out- and in-degrees d/2.
    """
    graphs = _realised_count(d, budget_s)
    if any(v % 2 for v in d):
        return Fraction(0)  # an odd degree admits no Eulerian orientation
    if not d:
        return Fraction(1)  # the empty graph; a DegreePair needs a vertex
    half = tuple(v // 2 for v in d)
    orientations = oracles.count_oriented(DegreePair(half, half), budget_s=budget_s)
    return Fraction(orientations, graphs)


def _oracle(name: str):
    """(degrees, budget) -> count, by a function of degcensus.oracles."""
    return lambda dp, budget_s: getattr(oracles, name)(dp, budget_s=budget_s)


def _diagonal(dp: DegreePair) -> ForbiddenGraph:
    return ForbiddenGraph.diagonal(dp.n)


# context -> (exact count, count of the probability's denominator or None,
# estimate); each takes the instance's degrees: the regular pair, or the
# degree vector for the undirected contexts
_BIPARTITE, _LOOPFREE = _oracle("count_bipartite"), _oracle("count_loopfree")
_ORIENTED = _oracle("count_oriented")
CONTEXTS = {
    "loopprob": (_LOOPFREE, _BIPARTITE, lambda dp: est.loopfree_probability(dp)),
    "bipartite": (_BIPARTITE, None, lambda dp: est.estimate_bipartite(dp)),
    "loopfree": (_LOOPFREE, None, lambda dp: est.estimate_loopfree_digraphs(dp)),
    "oriented": (_ORIENTED, None, lambda dp: est.estimate_oriented(dp)),
    "avoiding": (
        lambda dp, budget_s: oracles.count_bipartite(
            dp, _diagonal(dp), budget_s=budget_s
        ),
        None,
        lambda dp: est.estimate_bipartite_avoiding(dp, _diagonal(dp)),
    ),
    "twocycleprob": (
        _ORIENTED, _LOOPFREE, lambda dp: est.twocycle_free_probability(dp)
    ),
    "undirected": (_realised_count, None, lambda d: est.estimate_undirected(d)),
    "eulerian-expect": (
        _eulerian_mean, None, lambda d: est.expected_orientations(d, (0,) * len(d))
    ),
}


def _instance_record(job: dict) -> dict:
    """One grid point: exact oracle value, estimate, and their log ratio.

    Standalone (module-level, plain-dict input) so a process pool can run
    grid points in parallel; records come back in instance order regardless
    of completion order.
    """
    family, context, n, d = job["family"], job["context"], job["n"], job["d"]
    instance = {"index": job["index"], "family": family, "context": context, "n": n}
    if d is not None:
        instance["d"] = d
    record: dict = {"instance": instance}
    count, denominator, estimator = CONTEXTS[context]
    try:
        if d is None:
            raise UsageError(f"family {family} needs --d")
        degrees = (d,) * n if FAMILIES[family][2] else DegreePair.regular(n, d)
        exact = count(degrees, job["budget_s"])
        if denominator is not None:
            total = denominator(degrees, job["budget_s"])
            if total == 0:
                raise UsageError("undefined probability: the denominator count is 0")
            exact = Fraction(exact, total)
        estimate = estimator(degrees)
    except (CensusError, UsageError) as exc:
        record["error"] = str(exc)
        record["error_kind"] = "budget" if isinstance(exc, BudgetError) else "usage"
        return record

    record["exact"] = _exact_str(exact)
    record["estimate"] = estimate.to_json()
    record["error_magnitude"] = estimate.error_magnitude
    record["log_ratio"] = (
        math.log(exact.numerator) - math.log(exact.denominator) - estimate.log_value
        if exact > 0
        else None
    )
    if job["tol"] is not None and record["log_ratio"] is not None:
        record["tolerance"] = job["tol"]
        record["within_budget"] = abs(record["log_ratio"]) <= job["tol"]
    else:
        record["within_budget"] = record["log_ratio"] is not None
    return record


def _parse_range(text: str) -> range:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"range must look like A:B, got {text!r}")
    lo, hi = (_int_arg(p, "range bound") for p in parts)
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _grid_jobs(args) -> list[dict]:
    family = args.family
    default_context, fixed_d, undirected = FAMILIES[family]
    context = args.context or default_context
    allowed = tuple(c for c in CONTEXTS if (c in UNDIRECTED_CONTEXTS) == undirected)
    if context not in allowed:
        raise UsageError(
            f"context {context!r} is not valid for family {family!r}; "
            f"choose from {allowed}"
        )
    if args.n_range:
        points = [(n, args.d) for n in _parse_range(args.n_range)]
    elif args.d_range:
        if args.n is None:
            raise UsageError("--d-range needs a fixed -n")
        ds = _parse_range(args.d_range)
        n = _int_arg(args.n, "-n")
        points = [(n, d) for d in ds]
    else:
        raise UsageError("need --n-range or --d-range")
    jobs = []
    for idx, (n, d) in enumerate(points):
        d = d if fixed_d is None else fixed_d
        tol = None
        if args.tol is not None:
            # every family is regular, so S = n * d; without --d every record
            # is a usage error, and d = 1 only checks the expression
            d_tol = 1 if d is None else d
            tol = _eval_tol(args.tol, n=n, S=n * d_tol, d=d_tol)
        jobs.append(
            {
                "index": idx,
                "family": family,
                "context": context,
                "n": n,
                "d": d,
                "budget_s": args.budget_S,
                "tol": tol,
            }
        )
    return jobs


# the --format csv columns: (name, getter on a record)
CSV_COLUMNS = (
    ("index", lambda r: r["instance"]["index"]),
    ("family", lambda r: r["instance"]["family"]),
    ("context", lambda r: r["instance"]["context"]),
    ("n", lambda r: r["instance"]["n"]),
    ("d", lambda r: r["instance"].get("d", "")),
    ("exact", lambda r: r.get("exact", "")),
    ("log_value", lambda r: (r.get("estimate") or {}).get("log_value", "")),
    ("log_ratio", lambda r: r.get("log_ratio", "")),
    ("error_magnitude", lambda r: r.get("error_magnitude", "")),
    ("within_budget", lambda r: r.get("within_budget", "")),
    ("error", lambda r: r.get("error", "")),
)


def _record_code(record: dict) -> int:
    kind = record.get("error_kind")
    if kind is not None:
        return EXIT_BUDGET if kind == "budget" else EXIT_USAGE
    return EXIT_OK if record["within_budget"] else EXIT_TOL


def cmd_grid(args) -> int:
    """compare and sweep; sweep adds a trend line after the records."""
    jobs = _grid_jobs(args)
    # a pool starts all of its workers, so it gets no more than there are jobs
    workers = min(args.workers, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_instance_record, jobs))
    else:
        records = [_instance_record(job) for job in jobs]
    _emit(_header(args))
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow([name for name, _ in CSV_COLUMNS])
        for rec in records:
            writer.writerow([get(rec) for _, get in CSV_COLUMNS])
    else:
        for rec in records:
            _emit(rec)
    if args.subcommand == "sweep":
        ratios = [
            abs(r["log_ratio"]) for r in records if r.get("log_ratio") is not None
        ]
        trend = {
            "monotone_nonincreasing": all(
                b <= a + 1e-12 for a, b in zip(ratios, ratios[1:])
            ),
            "decreased_overall": bool(ratios) and ratios[-1] <= ratios[0],
            "abs_log_ratios": ratios,
        }
        _emit({"trend": trend})
    return max(map(_record_code, records), default=EXIT_OK)


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def cmd_sample(args) -> int:
    cfg = SamplerConfig(
        seed=args.seed,
        method=args.method,
        burn_in=args.burn_in,
        samples=args.samples,
        max_rejections=args.max_rejections,
        streams=args.streams,
    )
    out = _header(args)
    if args.orient_expect:
        if args.d is None:
            raise UsageError("--orient-expect needs -d")
        d = _vec(args.d, "-d")
        result = estimate_expected_orientation_count(d, _delta(args, len(d)), cfg)
    else:
        dp = _degree_pair(args)
        if not args.event:
            _emit(out)
            for g in iter_bipartite_samples(dp, cfg):
                _emit(g.to_json())
            return EXIT_OK
        result = estimate_event_probability(dp, cfg, args.event, _forbidden(args, dp))
    out["estimate"] = result.to_json()
    _emit(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# switch-verify
# ---------------------------------------------------------------------------


def cmd_switch_verify(args) -> int:
    dp = _degree_pair(args)
    out = _header(args)
    if args.twocycle:
        report = verify_twocycle_identity(dp, args.q, budget_s=args.budget_S)
    else:
        x = _forbidden(args, dp)
        if x is None:
            raise UsageError("x-switch verification needs --x or --x-diagonal")
        report = verify_x_switch_identity(dp, x, args.f, budget_s=args.budget_S)
    out["report"] = report.to_json()
    out["identity_holds"] = report.total_forward == report.total_reverse
    _emit(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _echo(args) -> dict:
    """Full resolved configuration of the invocation, for the output header."""
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget-S", dest="budget_S", type=int, default=24)
    parser.add_argument("--budget-n", dest="budget_n", type=int, default=24)
    parser.add_argument("--tol", type=str, default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--no-timestamp", action="store_true")
    parser.add_argument("--workers", type=int, default=1)


def _add_degree_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-s", type=str, default=None)
    parser.add_argument("-t", type=str, default=None)
    parser.add_argument("-d", type=str, default=None)
    parser.add_argument("-n", type=str, default=None)
    parser.add_argument("--delta", type=str, default=None)
    parser.add_argument("--x", type=str, default=None)
    parser.add_argument("--x-diagonal", action="store_true")
    parser.add_argument("--graph", type=str, default=None)


def _add_mode_flags(parser: argparse.ArgumentParser, modes) -> None:
    for mode in modes:
        parser.add_argument(
            f"--{mode.replace('_', '-')}", dest=mode, action="store_true"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degcensus",
        description=(
            "Estimates, exact oracle counts, and validation sweeps for "
            "degree-constrained graph censuses"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_est = sub.add_parser("estimate", help="asymptotic estimates")
    _add_common(p_est)
    _add_degree_inputs(p_est)
    _add_mode_flags(p_est, ESTIMATES)
    p_est.set_defaults(func=cmd_estimate)

    p_exact = sub.add_parser("exact", help="exact oracle counts")
    _add_common(p_exact)
    _add_degree_inputs(p_exact)
    # --permanent is the one mode flag that takes a value: the matrix file
    _add_mode_flags(p_exact, [m for m in EXACT_MODES if m != "permanent"])
    p_exact.add_argument("--stratified", action="store_true")
    p_exact.add_argument("--permanent", type=str, default=None)
    p_exact.set_defaults(func=cmd_exact)

    for name in ("compare", "sweep"):
        p = sub.add_parser(name, help=f"{name} estimates against oracles")
        _add_common(p)
        p.add_argument("--family", choices=FAMILIES, required=True)
        p.add_argument("--context", type=str, default=None)
        p.add_argument("--n-range", dest="n_range", type=str, default=None)
        p.add_argument("--d-range", dest="d_range", type=str, default=None)
        p.add_argument("--d", type=int, default=None)
        p.add_argument("-n", type=str, default=None)
        p.set_defaults(func=cmd_grid)

    p_sample = sub.add_parser("sample", help="seeded random sampling")
    _add_common(p_sample)
    _add_degree_inputs(p_sample)
    p_sample.add_argument("--samples", type=int, default=1)
    p_sample.add_argument(
        "--method",
        choices=("auto", "configuration-rejection", "swap-chain"),
        default="auto",
    )
    p_sample.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    p_sample.add_argument("--streams", type=int, default=1)
    p_sample.add_argument(
        "--max-rejections", dest="max_rejections", type=int, default=1_000_000
    )
    p_sample.add_argument(
        "--event",
        choices=("loop-free", "twocycle-free", "contains-x", "avoids-x"),
        default=None,
    )
    p_sample.add_argument("--orient-expect", action="store_true")
    p_sample.set_defaults(func=cmd_sample)

    p_verify = sub.add_parser("switch-verify", help="exact switching identities")
    _add_common(p_verify)
    _add_degree_inputs(p_verify)
    p_verify.add_argument("-f", type=int, default=1)
    p_verify.add_argument("-q", type=int, default=1)
    p_verify.add_argument("--twocycle", action="store_true")
    # identity verification enumerates whole strata; keep the default tight
    p_verify.set_defaults(func=cmd_switch_verify, budget_S=14)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; normalize its exit code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.workers < 1:
            raise UsageError(f"--workers must be at least 1, got {args.workers}")
        budgets = {"--budget-S": args.budget_S, "--budget-n": args.budget_n}
        for flag, budget in budgets.items():
            if budget < 0:
                raise UsageError(f"{flag} must be at least 0, got {budget}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CensusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
