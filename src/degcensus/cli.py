"""Command-line front end: estimates, exact counts, comparisons, sampling.

Output contract: single computations print one JSON object; batch commands
(compare, sweep, sample dumps) print a JSON header line followed by one JSON
line per record, in instance order.  All objects are emitted with sorted keys
so a run is byte-identical across platforms given the same inputs and seed;
the only run-dependent field is the header timestamp, suppressed by
--no-timestamp.  Exit codes: 0 all pass, 1 tolerance failure, 2 usage error,
3 budget error (budget beats tolerance when both occur).

Tolerances (--tol) are arithmetic expressions in the per-instance variables
n, S, d, with log/sqrt/exp available, e.g. "5/n" or "0.5/sqrt(S)".
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
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

FAMILIES = (
    "one-regular",
    "d-regular-digraph",
    "d-regular-oriented",
    "two-regular-undirected",
)
DEFAULT_CONTEXT = {
    "one-regular": "loopprob",
    "d-regular-digraph": "loopfree",
    "d-regular-oriented": "oriented",
    "two-regular-undirected": "undirected",
}
DIGRAPH_CONTEXTS = (
    "loopprob",
    "bipartite",
    "loopfree",
    "oriented",
    "avoiding",
    "twocycleprob",
)
UNDIRECTED_CONTEXTS = ("undirected", "eulerian-expect")


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


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON file {path}: {exc}")


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
        payload = _load_json(args.x)
        return ForbiddenGraph.from_json(payload, dp.m, dp.n)
    return None


def _graph_file(path: str) -> tuple[int, list[tuple[int, int]]]:
    payload = _load_json(path)
    if "n" not in payload or "edges" not in payload:
        raise UsageError(f"graph file {path} needs keys 'n' and 'edges'")
    n = int(payload["n"])
    edges = [tuple(int(v) for v in e) for e in payload["edges"]]
    return n, edges


def _timestamp_field(args) -> dict:
    if args.no_timestamp:
        return {}
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds")
    }


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _eval_tol(expr: str, **variables) -> float:
    ns = {
        "log": math.log,
        "sqrt": math.sqrt,
        "exp": math.exp,
    }
    ns.update({k: v for k, v in variables.items() if v is not None})
    try:
        return float(eval(expr, {"__builtins__": {}}, ns))  # noqa: S307
    except Exception as exc:
        raise UsageError(f"cannot evaluate tolerance {expr!r}: {exc}")


def _log_exact(value) -> float:
    if isinstance(value, Fraction):
        return math.log(value.numerator) - math.log(value.denominator)
    return math.log(value)


def _exact_str(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

ESTIMATE_MODES = (
    "bipartite",
    "bipartite_avoiding",
    "avoidance",
    "subgraph",
    "loopprob",
    "loopfree",
    "loopfree_avoiding",
    "twocycle_free",
    "oriented",
    "regular_digraph",
    "undirected",
    "eulerian_expect",
    "orient_expect",
    "pauling",
    "perm_sparse",
    "perm_dense",
    "perm_regular",
)


def _estimate_payload(args) -> dict:
    mode = [m for m in ESTIMATE_MODES if getattr(args, m)]
    if len(mode) != 1:
        raise UsageError("pick exactly one estimate mode flag")
    mode = mode[0]

    if mode in ("undirected", "eulerian_expect", "orient_expect", "pauling"):
        if args.d is None:
            raise UsageError(f"--{mode.replace('_', '-')} needs -d as a vector")
        d = _vec(args.d, "-d")
        if mode == "undirected":
            res = est.estimate_undirected(d)
            report = assumption_report(d, context=res.context)
        elif mode == "pauling":
            plain, sharp = est.pauling_and_residual_entropy(d)
            return {
                "residual_entropy": {"pauling": plain, "sharpened": sharp},
                "assumptions": assumption_report(
                    d, context="undirected-count"
                ).to_json(),
            }
        else:
            delta = (
                _vec(args.delta, "--delta")
                if args.delta is not None
                else (0,) * len(d)
            )
            res = est.expected_orientations(d, delta)
            report = assumption_report(d, context=res.context)
        return {"estimate": res.to_json(), "assumptions": report.to_json()}

    if mode in ("regular_digraph", "perm_regular"):
        n = _int_arg(args.n, "-n")
        d_int = _int_arg(args.d, "-d")
        if mode == "regular_digraph":
            dp = DegreePair.regular(n, d_int)
            res = est.estimate_loopfree_digraphs(dp)
            report = assumption_report(dp, context=res.context)
        else:
            res = est.expected_permanent_regular(n, d_int)
            report = assumption_report(None, context=res.context)
        return {"estimate": res.to_json(), "assumptions": report.to_json()}

    dp = _degree_pair(args)
    x = _forbidden(args, dp)
    if mode == "bipartite":
        res = est.estimate_bipartite(dp)
        report = assumption_report(dp, context=res.context)
    elif mode == "bipartite_avoiding":
        xg = x if x is not None else ForbiddenGraph.empty(dp.m, dp.n)
        res = est.estimate_bipartite_avoiding(dp, xg)
        report = assumption_report(dp, xg, context=res.context)
    elif mode == "avoidance":
        xg = x if x is not None else ForbiddenGraph.empty(dp.m, dp.n)
        res = est.avoidance_factor(dp, xg)
        report = assumption_report(dp, xg, context=res.context)
    elif mode == "subgraph":
        if x is None:
            raise UsageError("--subgraph needs --x or --x-diagonal")
        res = est.subgraph_probability(dp, x)
        report = assumption_report(dp, x, context=res.context)
    elif mode == "loopprob":
        res = est.loopfree_probability(dp)
        report = assumption_report(dp, context=res.context)
    elif mode == "loopfree":
        res = est.estimate_loopfree_digraphs(dp)
        report = assumption_report(dp, context=res.context)
    elif mode == "loopfree_avoiding":
        if x is None:
            raise UsageError("--loopfree-avoiding needs --x")
        res = est.estimate_loopfree_avoiding(dp, x)
        report = assumption_report(dp, x, context=res.context)
    elif mode == "twocycle_free":
        res = est.twocycle_free_probability(dp)
        report = assumption_report(dp, context=res.context)
    elif mode == "oriented":
        res = est.estimate_oriented(dp)
        report = assumption_report(dp, context=res.context)
    elif mode == "perm_sparse":
        res = est.expected_permanent_sparse(dp)
        report = assumption_report(dp, context=res.context)
    else:
        res = est.expected_permanent_dense(dp)
        report = assumption_report(dp, context=res.context)
    payload = {"estimate": res.to_json(), "assumptions": report.to_json()}
    if dp.total > 0:
        payload["cutoffs"] = cutoffs(dp, x).to_json()
    return payload


def cmd_estimate(args) -> int:
    payload = _estimate_payload(args)
    out = {"command": "estimate", "config": _echo(args)}
    out.update(_timestamp_field(args))
    out.update(payload)
    _emit(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def _exact_payload(args) -> dict:
    budget_s = args.budget_S
    budget_n = args.budget_n
    if args.bipartite:
        dp = _degree_pair(args)
        x = _forbidden(args, dp)
        if args.stratified:
            if x is None:
                raise UsageError("--stratified needs --x or --x-diagonal")
            strata = oracles.count_bipartite_stratified(dp, x, budget_s=budget_s)
            return {"stratified": [str(v) for v in strata]}
        count = oracles.count_bipartite(dp, x, budget_s=budget_s)
        return {"exact": str(count)}
    if args.loopfree:
        dp = _degree_pair(args)
        return {"exact": str(oracles.count_loopfree(dp, budget_s=budget_s))}
    if args.oriented:
        dp = _degree_pair(args)
        return {"exact": str(oracles.count_oriented(dp, budget_s=budget_s))}
    if args.undirected_count:
        if args.d is None:
            raise UsageError("--undirected-count needs -d")
        d = _vec(args.d, "-d")
        graphs = oracles.enumerate_undirected(d, budget_sum=budget_s)
        return {"exact": str(len(graphs))}
    if args.permanent:
        payload = _load_json(args.permanent)
        if "matrix" not in payload:
            raise UsageError("permanent input file needs key 'matrix'")
        return {
            "exact": str(
                oracles.ryser_permanent(payload["matrix"], budget_n=budget_n)
            )
        }
    if args.eulerian:
        if not args.graph:
            raise UsageError("--eulerian needs --graph")
        n, edges = _graph_file(args.graph)
        return {
            "exact": str(oracles.count_eulerian_orientations(n, edges))
        }
    if args.orientations:
        if not args.graph:
            raise UsageError("--orientations needs --graph")
        n, edges = _graph_file(args.graph)
        delta = (
            _vec(args.delta, "--delta") if args.delta is not None else (0,) * n
        )
        return {
            "exact": str(
                oracles.count_orientations_with_degrees(n, edges, delta)
            )
        }
    if args.expected_permanent:
        dp = _degree_pair(args)
        value = oracles.exact_expected_permanent(dp, budget_s=budget_s)
        return {"exact": _exact_str(value)}
    if args.complement:
        if not args.graph:
            raise UsageError("--complement needs --graph (the hole pattern)")
        n, edges = _graph_file(args.graph)
        holes = BipartiteGraph(n, n, edges)
        exact, window = est.permanent_complement_ie(holes.degree_pair(), holes)
        return {"exact": str(exact), "window": [window[0], window[1]]}
    raise UsageError("pick exactly one exact mode flag")


def cmd_exact(args) -> int:
    payload = _exact_payload(args)
    out = {"command": "exact", "config": _echo(args)}
    out.update(_timestamp_field(args))
    out.update(payload)
    _emit(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare / sweep
# ---------------------------------------------------------------------------


def _family_degree(family: str, n: int, d: int | None):
    if family == "one-regular":
        return DegreePair.regular(n, 1), None
    if family == "d-regular-digraph" or family == "d-regular-oriented":
        if d is None:
            raise UsageError(f"family {family} needs --d")
        return DegreePair.regular(n, d), None
    if family == "two-regular-undirected":
        return None, (2,) * n
    raise UsageError(f"unknown family {family!r}")


def _instance_record(job: dict) -> dict:
    """One grid point: exact oracle value, estimate, and their log ratio.

    Standalone (module-level, plain-dict input) so a process pool can run
    grid points in parallel; records come back in instance order regardless
    of completion order.
    """
    family = job["family"]
    context = job["context"]
    n = job["n"]
    d = job["d"]
    budget_s = job["budget_s"]
    instance = {
        "index": job["index"],
        "family": family,
        "context": context,
        "n": n,
    }
    if d is not None:
        instance["d"] = d
    record: dict = {"instance": instance}
    try:
        dp, dvec = _family_degree(family, n, d)
        if context in DIGRAPH_CONTEXTS:
            if dp is None:
                raise UsageError(
                    f"context {context!r} needs a digraph family"
                )
            if context == "loopprob":
                exact = Fraction(
                    oracles.count_loopfree(dp, budget_s=budget_s),
                    oracles.count_bipartite(dp, budget_s=budget_s),
                )
                estimate = est.loopfree_probability(dp)
            elif context == "bipartite":
                exact = oracles.count_bipartite(dp, budget_s=budget_s)
                estimate = est.estimate_bipartite(dp)
            elif context == "loopfree":
                exact = oracles.count_loopfree(dp, budget_s=budget_s)
                estimate = est.estimate_loopfree_digraphs(dp)
            elif context == "oriented":
                exact = oracles.count_oriented(dp, budget_s=budget_s)
                estimate = est.estimate_oriented(dp)
            elif context == "twocycleprob":
                exact = Fraction(
                    oracles.count_oriented(dp, budget_s=budget_s),
                    oracles.count_loopfree(dp, budget_s=budget_s),
                )
                estimate = est.twocycle_free_probability(dp)
            else:
                diag = ForbiddenGraph.diagonal(dp.n)
                exact = oracles.count_bipartite(dp, diag, budget_s=budget_s)
                estimate = est.estimate_bipartite_avoiding(dp, diag)
        elif context in UNDIRECTED_CONTEXTS:
            if dvec is None:
                raise UsageError(
                    f"context {context!r} needs an undirected family"
                )
            graphs = oracles.enumerate_undirected(dvec, budget_sum=budget_s)
            if not graphs:
                raise UsageError("no simple graph realises this instance")
            if context == "undirected":
                exact = len(graphs)
                estimate = est.estimate_undirected(dvec)
            else:
                counts = [
                    oracles.count_eulerian_orientations(len(dvec), g)
                    for g in graphs
                ]
                exact = Fraction(sum(counts), len(counts))
                estimate = est.expected_orientations(dvec, (0,) * len(dvec))
        else:
            raise UsageError(f"unknown context {context!r}")
    except BudgetError as exc:
        record["error"] = str(exc)
        record["error_kind"] = "budget"
        return record
    except (CensusError, UsageError) as exc:
        record["error"] = str(exc)
        record["error_kind"] = "usage"
        return record

    record["exact"] = _exact_str(exact)
    record["estimate"] = estimate.to_json()
    record["error_magnitude"] = estimate.error_magnitude
    if (isinstance(exact, Fraction) and exact > 0) or (
        not isinstance(exact, Fraction) and exact > 0
    ):
        record["log_ratio"] = _log_exact(exact) - estimate.log_value
    else:
        record["log_ratio"] = None
    if job["tol"] is not None and record["log_ratio"] is not None:
        tol_value = _eval_tol(
            job["tol"], n=n, S=(dp.total if dp else sum(dvec)), d=d
        )
        record["tolerance"] = tol_value
        record["within_budget"] = abs(record["log_ratio"]) <= tol_value
    else:
        record["within_budget"] = record["log_ratio"] is not None
    return record


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"range must look like A:B, got {text!r}")
    lo, hi = (_int_arg(p, "range bound") for p in parts)
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    return lo, hi


def _grid_jobs(args) -> list[dict]:
    family = args.family
    context = args.context or DEFAULT_CONTEXT[family]
    if family == "two-regular-undirected":
        allowed = UNDIRECTED_CONTEXTS
    else:
        allowed = DIGRAPH_CONTEXTS
    if context not in allowed:
        raise UsageError(
            f"context {context!r} is not valid for family {family!r}; "
            f"choose from {allowed}"
        )
    jobs = []
    if args.n_range:
        lo, hi = _parse_range(args.n_range)
        grid = [("n", v) for v in range(lo, hi + 1)]
    elif args.d_range:
        if args.n is None:
            raise UsageError("--d-range needs a fixed -n")
        lo, hi = _parse_range(args.d_range)
        grid = [("d", v) for v in range(lo, hi + 1)]
    else:
        raise UsageError("need --n-range or --d-range")
    for idx, (axis, value) in enumerate(grid):
        n = value if axis == "n" else _int_arg(args.n, "-n")
        d = args.d if axis == "n" else value
        if family == "one-regular":
            d = 1
        elif family == "two-regular-undirected":
            d = 2
        jobs.append(
            {
                "index": idx,
                "family": family,
                "context": context,
                "n": n,
                "d": d,
                "budget_s": args.budget_S,
                "tol": args.tol,
            }
        )
    return jobs


def _emit_records(records: list[dict], args, header: dict) -> None:
    if args.format == "csv":
        _emit(header)
        writer = csv.writer(sys.stdout)
        writer.writerow(
            [
                "index",
                "family",
                "context",
                "n",
                "d",
                "exact",
                "log_value",
                "log_ratio",
                "error_magnitude",
                "within_budget",
                "error",
            ]
        )
        for rec in records:
            inst = rec["instance"]
            estimate = rec.get("estimate") or {}
            writer.writerow(
                [
                    inst["index"],
                    inst["family"],
                    inst["context"],
                    inst["n"],
                    inst.get("d", ""),
                    rec.get("exact", ""),
                    estimate.get("log_value", ""),
                    rec.get("log_ratio", ""),
                    rec.get("error_magnitude", ""),
                    rec.get("within_budget", ""),
                    rec.get("error", ""),
                ]
            )
        return
    _emit(header)
    for rec in records:
        _emit(rec)


def _run_grid(args) -> tuple[list[dict], int]:
    jobs = _grid_jobs(args)
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            records = list(pool.map(_instance_record, jobs))
    else:
        records = [_instance_record(job) for job in jobs]
    exit_code = EXIT_OK
    if any(r.get("error_kind") == "usage" for r in records):
        exit_code = EXIT_USAGE
    if any(not r.get("within_budget", True) for r in records):
        exit_code = EXIT_TOL
    if any(r.get("error_kind") == "budget" for r in records):
        exit_code = EXIT_BUDGET
    return records, exit_code


def cmd_compare(args) -> int:
    records, exit_code = _run_grid(args)
    header = {"command": "compare", "config": _echo(args)}
    header.update(_timestamp_field(args))
    _emit_records(records, args, header)
    return exit_code


def cmd_sweep(args) -> int:
    records, exit_code = _run_grid(args)
    header = {"command": "sweep", "config": _echo(args)}
    header.update(_timestamp_field(args))
    _emit_records(records, args, header)
    ratios = [
        abs(r["log_ratio"])
        for r in records
        if r.get("log_ratio") is not None
    ]
    trend = {
        "monotone_nonincreasing": all(
            b <= a + 1e-12 for a, b in zip(ratios, ratios[1:])
        ),
        "decreased_overall": bool(ratios) and ratios[-1] <= ratios[0],
        "abs_log_ratios": ratios,
    }
    _emit({"trend": trend})
    return exit_code


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(
        seed=args.seed,
        method=args.method,
        burn_in=args.burn_in,
        samples=args.samples,
        max_rejections=args.max_rejections,
        streams=args.streams,
    )


def cmd_sample(args) -> int:
    cfg = _sampler_config(args)
    if args.orient_expect:
        if args.d is None:
            raise UsageError("--orient-expect needs -d")
        d = _vec(args.d, "-d")
        delta = (
            _vec(args.delta, "--delta")
            if args.delta is not None
            else (0,) * len(d)
        )
        result = estimate_expected_orientation_count(d, delta, cfg)
        out = {"command": "sample", "config": _echo(args)}
        out.update(_timestamp_field(args))
        out["estimate"] = result.to_json()
        _emit(out)
        return EXIT_OK
    dp = _degree_pair(args)
    if args.event:
        x = _forbidden(args, dp)
        result = estimate_event_probability(dp, cfg, args.event, x)
        out = {"command": "sample", "config": _echo(args)}
        out.update(_timestamp_field(args))
        out["estimate"] = result.to_json()
        _emit(out)
        return EXIT_OK
    header = {"command": "sample", "config": _echo(args)}
    header.update(_timestamp_field(args))
    _emit(header)
    for g in iter_bipartite_samples(dp, cfg):
        _emit(g.to_json())
    return EXIT_OK


# ---------------------------------------------------------------------------
# switch-verify
# ---------------------------------------------------------------------------


def cmd_switch_verify(args) -> int:
    dp = _degree_pair(args)
    out = {"command": "switch-verify", "config": _echo(args)}
    out.update(_timestamp_field(args))
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
    skip = {"func"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = value
    return out


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
    for mode in ESTIMATE_MODES:
        p_est.add_argument(
            f"--{mode.replace('_', '-')}", dest=mode, action="store_true"
        )
    p_est.set_defaults(func=cmd_estimate)

    p_exact = sub.add_parser("exact", help="exact oracle counts")
    _add_common(p_exact)
    _add_degree_inputs(p_exact)
    for flag in (
        "bipartite",
        "loopfree",
        "oriented",
        "undirected-count",
        "eulerian",
        "orientations",
        "expected-permanent",
        "complement",
        "stratified",
    ):
        p_exact.add_argument(
            f"--{flag}", dest=flag.replace("-", "_"), action="store_true"
        )
    p_exact.add_argument("--permanent", type=str, default=None)
    p_exact.set_defaults(func=cmd_exact)

    for name, handler in (("compare", cmd_compare), ("sweep", cmd_sweep)):
        p = sub.add_parser(name, help=f"{name} estimates against oracles")
        _add_common(p)
        p.add_argument("--family", choices=FAMILIES, required=True)
        p.add_argument("--context", type=str, default=None)
        p.add_argument("--n-range", dest="n_range", type=str, default=None)
        p.add_argument("--d-range", dest="d_range", type=str, default=None)
        p.add_argument("--d", type=int, default=None)
        p.add_argument("-n", type=str, default=None)
        p.set_defaults(func=handler)

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
