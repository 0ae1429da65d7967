"""The four command mixes and the checks on their outputs.

A workload is a fixed list of `degcensus` command lines (one *pass*).  The
workload seed changes only what the program is given: vertex labels of the
irregular pairs, the cells of the forbidden sets, the sampler seeds and the
sparse degree sequences of estimate-scan.  Degree multisets and sizes are
fixed, so every seed asks for the same amount of work and the figures of two
seeds can be compared.

Every check recomputes what the output must be with `reference` (which does
not import degcensus) or tests a property the output must have.  No output
is compared with a stored copy of an earlier run.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

WORKLOADS = ("validate-grid", "switch-verify", "sample-mc", "estimate-scan")

# Monte Carlo points must lie within this many standard errors of the exact
# value; the standard error is taken from the exact law, not from the sample.
MC_SIGMAS = 6.0


class CheckError(Exception):
    """An output differs from what the independent computation says."""


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    check: Callable[[str], None]


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def single(out: str) -> dict:
    objs = records(out)
    expect(len(objs) == 1, f"expected one JSON object, got {len(objs)}")
    return objs[0]


def exact_str(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def vec(values) -> str:
    return ",".join(str(v) for v in values)


def check_estimate(est: dict) -> None:
    expect(
        close(est["log_value"], est["log_prefactor"] + est["correction"]),
        "log_value != log_prefactor + correction",
    )
    expect(est["error_magnitude"] >= 0, "negative error magnitude")


def relabel(rng: random.Random, types, cells=()):
    """A fixed pattern under seeded vertex labels.

    Vertex k of the pattern has (out, in) degrees types[k] and becomes vertex
    perm[k]; the marked cells move with it.  Relabelled instances are
    isomorphic, so every seed asks the program for the same work and gets
    the same counts: the seed changes the input, not its cost.
    """
    perm = list(range(len(types)))
    rng.shuffle(perm)
    s, t = [0] * len(types), [0] * len(types)
    for k, (a, b) in enumerate(types):
        s[perm[k]], t[perm[k]] = a, b
    return s, t, sorted((perm[i], perm[j]) for i, j in cells)


def write_cells(workdir: Path, name: str, cells) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps({"edges": [list(c) for c in sorted(cells)]}))
    return str(path)


def scattered_cells(rng: random.Random, n: int, k: int) -> list[tuple[int, int]]:
    """k seeded off-diagonal cells of an n x n shape, no two in a row or column."""
    cells: list[tuple[int, int]] = []
    rows: set[int] = set()
    cols: set[int] = set()
    while len(cells) < k:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j and i not in rows and j not in cols:
            cells.append((i, j))
            rows.add(i)
            cols.add(j)
    return sorted(cells)


# ---------------------------------------------------------------------------
# validate-grid
# ---------------------------------------------------------------------------


def _grid(cmd, family, context, lo, hi, exact, d=None) -> Op:
    argv = [cmd, "--family", family, "--context", context]
    argv += ["--n-range", f"{lo}:{hi}"]
    if d is not None:
        argv += ["--d", str(d)]
    exact = cache(exact)

    def check(out: str) -> None:
        objs = records(out)
        expect(objs[0].get("command") == cmd, "header names another command")
        recs = objs[1:]
        trend = recs.pop()["trend"] if cmd == "sweep" else None
        expect(
            [r["instance"]["n"] for r in recs] == list(range(lo, hi + 1)),
            "records do not cover the n-range in order",
        )
        for r in recs:
            n = r["instance"]["n"]
            want = exact(n)
            expect(r.get("exact") == exact_str(want), f"n={n}: exact {r.get('exact')} != {want}")
            est = r["estimate"]
            check_estimate(est)
            log_want = math.log(Fraction(want).numerator) - math.log(Fraction(want).denominator)
            expect(close(r["log_ratio"], log_want - est["log_value"]), f"n={n}: log_ratio")
        if trend is not None:
            ratios = [abs(r["log_ratio"]) for r in recs]
            expect(trend["abs_log_ratios"] == ratios, "trend ratios differ from records")

    return Op(f"{cmd} {family}/{context} {lo}:{hi}", tuple(argv), check)


def _exact(label, argv, want: Callable[[], object]) -> Op:
    want = cache(want)

    def check(out: str) -> None:
        got = single(out)
        value = want()
        if isinstance(value, list):
            expect(got.get("stratified") == [str(v) for v in value], f"strata {got.get('stratified')} != {value}")
        else:
            expect(got.get("exact") == str(value), f"exact {got.get('exact')} != {value}")

    return Op(label, tuple(argv), check)


def validate_grid(rng: random.Random, workdir: Path) -> list[Op]:
    F = Fraction
    fact = math.factorial
    one = "one-regular"
    dig = "d-regular-digraph"
    ops = [
        _grid("compare", one, "loopprob", 4, 8, lambda n: F(ref.derangements(n), fact(n))),
        _grid("compare", one, "bipartite", 4, 8, fact),
        _grid("compare", one, "loopfree", 4, 8, ref.derangements),
        _grid("compare", one, "oriented", 4, 8, ref.a038205),
        _grid("compare", one, "avoiding", 4, 8, ref.derangements),
        _grid("sweep", one, "twocycleprob", 4, 8, lambda n: F(ref.a038205(n), ref.derangements(n))),
        _grid("sweep", dig, "bipartite", 3, 7, ref.a001499, d=2),
        _grid("sweep", dig, "loopfree", 3, 8, lambda n: ref.loopfree_count([2] * n, [2] * n), d=2),
        _grid(
            "compare", dig, "loopprob", 3, 7,
            lambda n: F(ref.loopfree_count([2] * n, [2] * n), ref.a001499(n)), d=2,
        ),
        _grid("compare", dig, "avoiding", 3, 6, lambda n: ref.loopfree_count([2] * n, [2] * n), d=2),
        _grid(
            "compare", dig, "twocycleprob", 5, 6,
            lambda n: F(ref.oriented_count([2] * n, [2] * n), ref.loopfree_count([2] * n, [2] * n)), d=2,
        ),
        # count_oriented(n, 2) = sum of Eulerian orientations of the
        # 4-regular simple graphs on n vertices
        _grid("compare", "d-regular-oriented", "oriented", 5, 7, lambda n: ref.eulerian_sum([4] * n), d=2),
        _grid(
            "sweep", "two-regular-undirected", "eulerian-expect", 3, 8,
            lambda n: F(ref.a038205(n), ref.a001205(n)),
        ),
    ]

    s, t, _ = relabel(rng, [(4, 3), (3, 3), (3, 2), (2, 3), (2, 2), (2, 3), (1, 2), (1, 0)])
    ops.append(_exact(
        "exact --bipartite 8x8", ["exact", "--bipartite", "-s", vec(s), "-t", vec(t)],
        lambda s=s, t=t: ref.bipartite_count(s, t),
    ))
    s, t, _ = relabel(rng, [(3, 2), (2, 3), (2, 2), (2, 2), (1, 2), (2, 1), (1, 1), (3, 3)])
    ops.append(_exact(
        "exact --loopfree 8x8", ["exact", "--loopfree", "-s", vec(s), "-t", vec(t)],
        lambda s=s, t=t: ref.loopfree_count(s, t),
    ))
    s, t, _ = relabel(rng, [(3, 2), (2, 3), (2, 2), (1, 2), (2, 1), (1, 1), (2, 2)])
    ops.append(_exact(
        "exact --oriented 7x7", ["exact", "--oriented", "-s", vec(s), "-t", vec(t)],
        lambda s=s, t=t: ref.oriented_count(s, t),
    ))
    s, t, cells = relabel(
        rng, [(3, 2), (2, 2), (2, 3), (2, 1), (1, 2), (1, 1), (2, 2)], [(0, 1), (1, 3), (2, 2), (4, 0)]
    )
    xfile = write_cells(workdir, "grid-strata", cells)

    def strata(s=s, t=t, cells=cells):
        got = ref.strata(s, t, cells)
        # the strata sum to the unconstrained count, counted another way
        expect(sum(got) == ref.bipartite_count(s, t), "reference strata do not sum to the count")
        return got

    ops.append(_exact(
        "exact --bipartite --stratified 7x7",
        ["exact", "--bipartite", "--stratified", "-s", vec(s), "-t", vec(t), "--x", xfile],
        strata,
    ))
    return ops


# ---------------------------------------------------------------------------
# switch-verify
# ---------------------------------------------------------------------------


def _switch(label, argv, level: int, n: int) -> Op:
    def check(out: str) -> None:
        rep = single(out)["report"]
        fwd, rev = int(rep["total_forward"]), int(rep["total_reverse"])
        expect(rep["f_or_q"] == level, "report is for another stratum")
        expect(fwd == rev, f"forward total {fwd} != reverse total {rev}")
        expect(fwd >= 0, "negative switch total")
        if "--twocycle" in argv and n < 10:
            # a 2-cycle switch touches ten distinct vertices
            expect(fwd == 0, "2-cycle switches on fewer than ten vertices")

    return Op(label, tuple(argv), check)


def switch_verify(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for n, d, f in ((6, 1, 1), (6, 1, 2), (6, 1, 3), (7, 1, 3), (5, 2, 1)):
        deg = vec([d] * n)
        ops.append(_switch(
            f"switch-verify diagonal {n}x{n} d={d} f={f}",
            ["switch-verify", "-s", deg, "-t", deg, "--x-diagonal", "-f", str(f)], f, n,
        ))
    s, t, cells = relabel(rng, [(3, 2), (2, 3), (2, 2), (2, 1), (1, 2)], [(0, 1), (2, 3), (4, 0)])
    xfile = write_cells(workdir, "switch-x", cells)
    for f in (1, 2, 3):
        ops.append(_switch(
            f"switch-verify seeded x 5x5 f={f}",
            ["switch-verify", "-s", vec(s), "-t", vec(t), "--x", xfile, "-f", str(f)], f, 5,
        ))
    s, t, _ = relabel(rng, [(2, 1), (1, 1), (1, 2), (1, 1), (1, 1)])
    for label, (s_, t_) in (
        ("1-regular 6", ([1] * 6, [1] * 6)),
        ("irregular 5", (s, t)),
    ):
        ops.append(_switch(
            f"switch-verify --twocycle {label}",
            ["switch-verify", "-s", vec(s_), "-t", vec(t_), "--twocycle", "-q", "1"], 1, len(s_),
        ))
    return ops


# ---------------------------------------------------------------------------
# sample-mc
# ---------------------------------------------------------------------------


def _mc(label, argv, law: Callable[[int], tuple[float, float]]) -> Op:
    """law(n_samples) gives the exact mean and standard error of the point."""
    law = cache(law)
    samples = int(argv[argv.index("--samples") + 1])

    def check(out: str) -> None:
        est = single(out)["estimate"]
        expect(est["n_samples"] == samples, f"{est['n_samples']} samples drawn, {samples} asked")
        mean, sigma = law(samples)
        gap = abs(est["point"] - mean)
        expect(gap <= MC_SIGMAS * sigma + 1e-9, f"point {est['point']} is {gap:.4g} from exact {mean:.6g} (sigma {sigma:.3g})")

    return Op(label, tuple(argv), check)


def _bernoulli(p: Callable[[], Fraction]) -> Callable[[int], tuple[float, float]]:
    return lambda k: (float(p()), math.sqrt(float(p() * (1 - p())) / k))


def _dump(label, argv, s, t, samples) -> Op:
    def check(out: str) -> None:
        objs = records(out)
        expect(objs[0].get("command") == "sample", "missing sample header")
        graphs = objs[1:]
        expect(len(graphs) == samples, f"{len(graphs)} samples dumped, {samples} asked")
        for g in graphs:
            edges = [tuple(e) for e in g["edges"]]
            expect(len(set(edges)) == len(edges), "repeated edge in a sample")
            rows, cols = [0] * len(s), [0] * len(t)
            for i, j in edges:
                rows[i] += 1
                cols[j] += 1
            expect(rows == list(s) and cols == list(t), "sample has other degrees")

    return Op(label, tuple(argv), check)


def sample_mc(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    seeds = iter(rng.sample(range(1, 10**6), 32))

    def sample(*args):
        return ["sample", *args, "--seed", str(next(seeds))]

    swap, rej = "swap-chain", "configuration-rejection"
    s8, t8, _ = relabel(rng, [(3, 2), (2, 3), (2, 2), (2, 2), (1, 2), (2, 1), (1, 1), (3, 3)])
    p_loopfree = cache(lambda: Fraction(ref.loopfree_count(s8, t8), ref.bipartite_count(s8, t8)))
    for method, k in ((swap, 150), (rej, 2000)):
        ops.append(_mc(
            f"sample --event loop-free {method}",
            sample("-s", vec(s8), "-t", vec(t8), "--event", "loop-free", "--method", method, "--samples", str(k)),
            _bernoulli(p_loopfree),
        ))
    # conditioning on loop-freeness rejects whole chain intervals; a pair
    # that is loop-free 39% of the time keeps their number steady by seed
    s6, t6, _ = relabel(rng, [(2, 0), (0, 2), (2, 1), (1, 2), (1, 1), (1, 1)])
    p_twocycle = cache(lambda: Fraction(ref.oriented_count(s6, t6), ref.loopfree_count(s6, t6)))
    for method, k in ((swap, 150), (rej, 4000)):
        ops.append(_mc(
            f"sample --event twocycle-free {method}",
            sample("-s", vec(s6), "-t", vec(t6), "--event", "twocycle-free", "--method", method, "--samples", str(k)),
            _bernoulli(p_twocycle),
        ))
    _, _, cells = relabel(rng, [(2, 2)] * 6, [(0, 1), (2, 3)])
    xfile = write_cells(workdir, "sample-x", cells)
    strata = cache(lambda: ref.strata([2] * 6, [2] * 6, cells))
    for event, stratum in (("avoids-x", 0), ("contains-x", -1)):
        p = cache(lambda stratum=stratum: Fraction(strata()[stratum], sum(strata())))
        for method, k in ((swap, 200), (rej, 2000)):
            ops.append(_mc(
                f"sample --event {event} {method}",
                sample("-s", vec([2] * 6), "-t", vec([2] * 6), "--x", xfile, "--event", event,
                       "--method", method, "--samples", str(k)),
                _bernoulli(p),
            ))
    for d, delta in (
        ([4] * 7, [0] * 7),
        (relabel(rng, [(4, 0), (4, 0), (4, 0), (2, 0), (2, 0), (2, 0), (2, 0)])[0], [0] * 7),
        relabel(rng, [(4, 1), (4, -1), (2, 1), (2, -1), (2, 0), (2, 0), (4, 0)])[:2],
    ):
        moments = cache(lambda d=d, delta=delta: ref.orientation_moments(d, delta))
        ops.append(_mc(
            f"sample --orient-expect d={sorted(d)}",
            sample("-d", vec(d), f"--delta={vec(delta)}", "--orient-expect", "--samples", "300"),
            lambda k, moments=moments: (float(moments()[0]), math.sqrt(float(moments()[1]) / k)),
        ))
    for method, k in ((swap, 80), (rej, 500)):
        ops.append(_dump(
            f"sample dump {method}",
            sample("-s", vec(s8), "-t", vec(t8), "--method", method, "--samples", str(k)),
            s8, t8, k,
        ))
    return ops


# ---------------------------------------------------------------------------
# estimate-scan
# ---------------------------------------------------------------------------


def _sparse(rng: random.Random, n: int, lo: int, hi: int, total: int | None = None) -> list[int]:
    """n seeded degrees in [lo, hi], nudged one unit at a time to `total`."""
    out = [rng.randint(lo, hi) for _ in range(n)]
    gap = 0 if total is None else total - sum(out)
    while gap:
        k, step = rng.randrange(n), 1 if gap > 0 else -1
        if lo <= out[k] + step <= hi:
            out[k] += step
            gap -= step
    return out


def _estimate(label, argv, check_payload: Callable[[dict], None]) -> Op:
    def check(out: str) -> None:
        payload = single(out)
        expect(payload.get("command") == "estimate", "not an estimate payload")
        if "estimate" in payload:
            check_estimate(payload["estimate"])
        check_payload(payload)

    return Op(label, tuple(argv), check)


def _pair_checks(mode: str, s, t, cells):
    big_s = sum(s)
    w = sum(a * b for a, b in zip(s, t))
    f_mass = sum(s[i] * t[j] for i, j in cells)

    def check(payload: dict) -> None:
        est = payload["estimate"]
        pref, corr = est["log_prefactor"], est["correction"]
        if mode in ("bipartite", "bipartite_avoiding", "loopfree", "loopfree_avoiding", "oriented"):
            expect(close(pref, ref.bipartite_prefactor(s, t)), f"{mode}: pairing-model prefactor")
        elif mode == "loopprob":
            expect(pref == 0 and close(corr, -w / big_s), "loopprob: -W/S")
        elif mode == "twocycle_free":
            expect(pref == 0 and close(corr, -w * w / (2 * big_s**2)), "twocycle: -W^2/2S^2")
        elif mode == "avoidance":
            want = -f_mass / big_s - 3 * f_mass**2 / (2 * big_s**3)
            expect(pref == 0 and close(corr, want), "avoidance: -F/S - 3F^2/2S^3")
        elif mode == "perm_sparse":
            n = len(s)
            want = sum(math.log(a * b) for a, b in zip(s, t)) - ref.log_binomial(big_s, n)
            expect(close(pref, want), "perm_sparse prefactor")
        elif mode == "perm_dense":
            expect(close(pref, ref.log_factorial(len(s))), "perm_dense prefactor n!")
        cut = payload["cutoffs"]
        expect(cut["n0"] == math.ceil(max(math.log(big_s), 42 * f_mass / big_s)), "cutoff n0")
        expect(cut["n1"] == math.ceil(max(math.log(big_s), 24 * w * w / big_s**2)), "cutoff n1")

    return check


def estimate_scan(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    pair_modes = (
        "bipartite", "loopprob", "loopfree", "twocycle_free", "oriented", "perm_sparse", "perm_dense",
    )
    x_modes = ("bipartite_avoiding", "avoidance", "subgraph", "loopfree_avoiding")
    for n in (100, 1000, 10000):
        s = _sparse(rng, n, 1, 4)
        t = _sparse(rng, n, 1, 4, total=sum(s))
        cells = scattered_cells(rng, n, 5)
        xfile = write_cells(workdir, f"estimate-x-{n}", cells)
        pair = ["-s", vec(s), "-t", vec(t)]
        for mode in pair_modes + x_modes:
            flag = f"--{mode.replace('_', '-')}"
            x = ["--x", xfile] if mode in x_modes else []
            # without --x the program's cutoffs see no forbidden mass
            ops.append(_estimate(
                f"estimate {flag} n={n}",
                ["estimate", flag, *pair, *x],
                _pair_checks(mode, s, t, cells if x else []),
            ))
        deg = 3

        def regular(payload, n=n):
            want = ref.bipartite_prefactor([deg] * n, [deg] * n)
            expect(close(payload["estimate"]["log_prefactor"], want), "regular-digraph prefactor")

        def permanent(payload, n=n):
            want = 2 * n * math.log(deg) - ref.log_binomial(deg * n, n)
            expect(close(payload["estimate"]["log_prefactor"], want), "perm-regular prefactor")

        for mode, check in (("regular-digraph", regular), ("perm-regular", permanent)):
            ops.append(_estimate(
                f"estimate --{mode} n={n}", ["estimate", f"--{mode}", "-n", str(n), "-d", str(deg)], check,
            ))

        even = [2 * v for v in _sparse(rng, n, 1, 2)]
        # the two orientation modes stop at 3000 vertices: the program's
        # Erdos-Gallai test is quadratic, about 12 s a call at 10^4
        k = min(n, 3000)
        head, delta = even[:k], [1, -1] * (k // 2)  # imbalances sum to zero

        def orient(payload, head=head, delta=delta):
            want = ref.orientation_prefactor(head, delta)
            expect(close(payload["estimate"]["log_prefactor"], want), "orientation prefactor")

        def pauling(payload, even=even):
            k = len(even)
            big_d = sum(even)
            plain = -(big_d / (2 * k)) * math.log(2) + sum(math.log(math.comb(v, v // 2)) for v in even) / k
            sharp = plain + math.log(math.pi * big_d / 2) / (2 * k) - 3 / (4 * k)
            got = payload["residual_entropy"]
            expect(close(got["pauling"], plain) and close(got["sharpened"], sharp), "residual entropy")

        for mode in ("eulerian-expect", "orient-expect"):
            # --eulerian-expect is the same estimate as --orient-expect
            ops.append(_estimate(
                f"estimate --{mode} n={k}",
                ["estimate", f"--{mode}", "-d", vec(head), f"--delta={vec(delta)}"], orient,
            ))
        ops.append(_estimate(f"estimate --pauling n={n}", ["estimate", "--pauling", "-d", vec(even)], pauling))

        # --undirected stops at 800 vertices (about 2800 digits): larger exact
        # prefactors pass Python's 4300-digit str() limit and crash the program
        m = min(n, 800)
        d = _sparse(rng, m, 1, 4)
        if sum(d) % 2:
            d[0] += 1 if d[0] < 4 else -1

        def undirected(payload, d=d):
            est = payload["estimate"]
            want = ref.undirected_prefactor(d)
            expect(est["exact_prefactor"] == str(want), "undirected exact prefactor")
            log_want = math.log(want.numerator) - math.log(want.denominator)
            expect(close(est["log_prefactor"], log_want), "undirected log prefactor")

        ops.append(_estimate(f"estimate --undirected n={m}", ["estimate", "--undirected", "-d", vec(d)], undirected))
    return ops


MIXES = {
    "validate-grid": validate_grid,
    "switch-verify": switch_verify,
    "sample-mc": sample_mc,
    "estimate-scan": estimate_scan,
}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The workload's pass: its command lines, inputs written to workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    ops = MIXES[workload](rng, workdir)
    common = ("--no-timestamp", "--workers", "1")
    return [Op(op.label, op.argv + common, op.check) for op in ops]
