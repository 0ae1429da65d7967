"""Seeded random sampling of degree-constrained graphs and Monte Carlo rates.

All randomness flows through numpy's Philox counter-based bit generator.  A
master seed feeds a `numpy.random.SeedSequence`; worker streams are its
`spawn` children, taken in stream order, so any (seed, config) pair yields a
bit-identical sample sequence on every platform numpy supports.

Two samplers are available.  The configuration-model sampler pairs degree
stubs uniformly and rejects non-simple outcomes, which makes accepted graphs
exactly uniform over the realisations of the degree pair.  The swap-chain
sampler runs a degree-preserving two-edge exchange walk from a greedy
realisation; its burn-in default (10 S ceil(log S)) is a practical heuristic,
not a proven mixing bound, and the docs say so.  Event probabilities that
require conditioning (2-cycle-freeness given loop-freeness) condition by
rejection, never by reweighting.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .core import (
    BipartiteGraph,
    BudgetError,
    DegreePair,
    DegreeSequenceError,
    DomainError,
    ForbiddenGraph,
    SquareOnlyError,
    derive_stats,
    erdos_gallai_feasible,
    gale_ryser_feasible,
)
from .oracles import count_orientations_with_degrees

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SamplerConfig",
    "EmpiricalEstimate",
    "EVENT_NAMES",
    "sample_bipartite",
    "iter_bipartite_samples",
    "sample_undirected",
    "estimate_event_probability",
    "estimate_expected_orientation_count",
]

METHODS = ("auto", "configuration-rejection", "swap-chain")
EVENT_NAMES = ("loop-free", "twocycle-free", "contains-x", "avoids-x")

# Random numbers are drawn in blocks: at most this many chain steps' indices
# at a time, and about this many stubs' worth of rejection permutations.
# A block leaves the same numbers, in the same order, as one call per number,
# so these sizes change the speed and the memory, never the samples.
_CHAIN_CHUNK_STEPS = 1 << 16
_PERMUTATION_BLOCK_STUBS = 4096


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducibility contract for one sampling run.

    method "auto" resolves to configuration-rejection when the degree pair is
    sparse enough for rejection to be cheap (s_max t_max <= S/10) and to the
    swap-chain otherwise.  burn_in None means the heuristic default
    10 S ceil(log S); the swap chain also thins by the same interval between
    recorded samples.  streams > 1 splits the work over spawned child
    streams, merged deterministically in stream order.
    """

    seed: int
    method: str = "auto"
    burn_in: int | None = None
    samples: int = 1
    max_rejections: int = 1_000_000
    streams: int = 1

    def __post_init__(self):
        if not isinstance(self.seed, int) or self.seed < 0:
            raise DomainError("seed must be a nonnegative integer")
        if self.method not in METHODS:
            raise DomainError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        if self.burn_in is not None and self.burn_in < 0:
            raise DomainError("burn_in must be >= 0")
        if self.samples < 1:
            raise DomainError("samples must be >= 1")
        if self.max_rejections < 1:
            raise DomainError("max_rejections must be >= 1")
        if self.streams < 1:
            raise DomainError("streams must be >= 1")

    def resolved_method(self, dp: DegreePair) -> str:
        if self.method != "auto":
            return self.method
        stats = derive_stats(dp)
        if stats.s_max * stats.t_max * 10 <= dp.total:
            return "configuration-rejection"
        return "swap-chain"

    def resolved_burn_in(self, total_edges: int) -> int:
        if self.burn_in is not None:
            return self.burn_in
        if total_edges < 2:
            return 0
        return 10 * total_edges * math.ceil(math.log(total_edges))

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "method": self.method,
            "burn_in": self.burn_in,
            "samples": self.samples,
            "max_rejections": self.max_rejections,
            "streams": self.streams,
        }


@dataclass(frozen=True)
class EmpiricalEstimate:
    """A Monte Carlo point estimate with its standard error.

    stderr is the sample standard deviation (ddof=1) divided by sqrt(n);
    it is 0.0 when only one sample was drawn.  config echoes the resolved
    sampling configuration for reproducibility.
    """

    point: float
    stderr: float
    n_samples: int
    config: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> dict:
        return {
            "point": self.point,
            "stderr": self.stderr,
            "n_samples": self.n_samples,
            "config": dict(self.config),
        }


def _spawned_rngs(cfg: SamplerConfig) -> list[np.random.Generator]:
    import numpy as np

    children = np.random.SeedSequence(cfg.seed).spawn(cfg.streams)
    return [np.random.Generator(np.random.Philox(child)) for child in children]


def _stream_quotas(samples: int, streams: int) -> list[int]:
    base, rem = divmod(samples, streams)
    return [base + (1 if k < rem else 0) for k in range(streams)]


def _simple_pairings(
    rng: np.random.Generator, stubs: np.ndarray, width: int,
    fixed: np.ndarray | None = None,
) -> Iterator[tuple[int, list[int] | None]]:
    """Yield (attempt number, sorted codes) for each simple stub pairing.

    Attempt k pairs stubs[rng.permutation(len(stubs))] with the fixed stubs,
    or without them two by two; (u, v) is coded min * width + max, and a
    pairing is simple without loops or repeated codes.  rng.permuted draws
    the same permutations a block of about _PERMUTATION_BLOCK_STUBS stubs at
    a time, tested at once; a block ends with (next attempt number, None).
    """
    import numpy as np

    size = stubs.shape[0]
    rows = max(1, _PERMUTATION_BLOCK_STUBS // max(size, 1))
    block = np.tile(np.arange(size), (rows, 1))
    for first in itertools.count(1, rows):  # the block's first attempt number
        drawn = stubs[rng.permuted(block, axis=1)]
        a, b = (drawn[:, 0::2], drawn[:, 1::2]) if fixed is None else (fixed, drawn)
        codes = np.sort(np.minimum(a, b) * width + np.maximum(a, b), axis=1)
        simple = (a != b).all(axis=1) & (codes[:, 1:] != codes[:, :-1]).all(axis=1)
        for r in np.flatnonzero(simple).tolist():
            yield first + r, codes[r].tolist()
        yield first + rows, None


def _rejection_stream(
    dp: DegreePair,
    rng: np.random.Generator,
    quota: int,
    max_rejections: int,
    condition: Callable[[BipartiteGraph], bool] | None,
) -> Iterator[BipartiteGraph]:
    import numpy as np

    # rows are fixed; shuffled column stubs pair with them, column j as vertex m + j
    m, w = dp.m, dp.m + dp.n
    rows = np.repeat(np.arange(m), dp.s)
    pairings = _simple_pairings(rng, np.repeat(np.arange(m, w), dp.t), w, rows)
    last = 0  # the attempt that gave the last sample
    for _ in range(quota):
        for attempt, codes in pairings:
            if attempt - last > max_rejections:
                raise BudgetError(
                    f"rejection budget {max_rejections} exhausted; the degree "
                    "pair (or conditioning event) is too dense for rejection "
                    "sampling, try the swap-chain or a larger max_rejections"
                )
            if codes is None:
                continue
            g = BipartiteGraph(m, dp.n, [divmod(c - m, w) for c in codes])
            if condition is None or condition(g):
                last = attempt
                yield g
                break


def _greedy_realisation(dp: DegreePair) -> BipartiteGraph:
    """Deterministic realisation by largest-residual column assignment."""
    resid = list(dp.t)
    edges: list[tuple[int, int]] = []
    order = sorted(range(dp.m), key=lambda i: -dp.s[i])
    for i in order:
        cols = sorted(range(dp.n), key=lambda j: (-resid[j], j))[: dp.s[i]]
        if dp.s[i] > 0 and (len(cols) < dp.s[i] or resid[cols[-1]] < 1):
            raise DegreeSequenceError(
                "greedy realisation failed on a feasible pair; this is a bug"
            )
        for j in cols:
            resid[j] -= 1
            edges.append((i, j))
    return BipartiteGraph(dp.m, dp.n, edges)


def _swap_chain_stream(
    dp: DegreePair,
    rng: np.random.Generator,
    quota: int,
    burn_in: int,
    max_rejections: int,
    condition: Callable[[BipartiteGraph], bool] | None,
) -> Iterator[BipartiteGraph]:
    """Two-edge exchange walk, thinned by the burn-in interval.

    A step picks two edge slots k1, k2 (two uniform draws); the proposal
    swaps their column endpoints and is rejected when k1 == k2, when the
    edges share a row or column, or when a replacement edge already exists.
    Rejected proposals still advance the step counter (lazy chain), keeping
    the walk aperiodic.  An explicit burn_in of 0 skips the initial walk but
    successive samples are still separated by at least one step.

    The slot indices are drawn in chunks of at most _CHAIN_CHUNK_STEPS steps
    (2 draws per step, in step order), so memory stays flat whatever the
    burn-in.  With fewer than two edges no swap exists: the chain stays at
    the greedy realisation and draws nothing.
    """
    g = _greedy_realisation(dp)
    edges = list(g.sorted_edges())
    edge_set = set(edges)
    s_count = len(edges)

    def advance(steps: int) -> None:
        if s_count < 2:
            return
        while steps > 0:
            chunk = min(steps, _CHAIN_CHUNK_STEPS)
            steps -= chunk
            picks = iter(rng.integers(s_count, size=2 * chunk).tolist())
            for k1, k2 in zip(picks, picks):
                if k1 == k2:
                    continue
                u1, v1 = edges[k1]
                u2, v2 = edges[k2]
                if u1 == u2 or v1 == v2:
                    continue
                e1, e2 = (u1, v2), (u2, v1)
                if e1 in edge_set or e2 in edge_set:
                    continue
                edge_set.discard((u1, v1))
                edge_set.discard((u2, v2))
                edge_set.add(e1)
                edge_set.add(e2)
                edges[k1] = e1
                edges[k2] = e2

    interval = max(burn_in, 1)
    advance(burn_in)
    for _ in range(quota):
        for _attempt in range(max_rejections):
            g = BipartiteGraph(dp.m, dp.n, edges)
            if condition is None or condition(g):
                yield g
                break
            advance(interval)
        else:
            raise BudgetError(
                f"conditioning rejected {max_rejections} consecutive chain "
                "states; the event is too rare for rejection conditioning"
            )
        advance(interval)


def iter_bipartite_samples(
    dp: DegreePair,
    cfg: SamplerConfig,
    *,
    condition: Callable[[BipartiteGraph], bool] | None = None,
) -> Iterator[BipartiteGraph]:
    """Yield cfg.samples graphs uniform over the realisations of dp.

    Stream k draws its quota with its own spawned child generator; samples
    are yielded in stream order, so the sequence is a pure function of
    (dp, cfg).  An optional condition predicate turns the sampler into a
    conditional sampler by rejection.
    """
    if not gale_ryser_feasible(dp.s, dp.t):
        raise DegreeSequenceError(
            "degree pair is not realisable by a simple bipartite graph"
        )
    method = cfg.resolved_method(dp)
    rngs = _spawned_rngs(cfg)
    quotas = _stream_quotas(cfg.samples, cfg.streams)
    for rng, quota in zip(rngs, quotas):
        if quota == 0:
            continue
        if method == "configuration-rejection":
            yield from _rejection_stream(
                dp, rng, quota, cfg.max_rejections, condition
            )
        else:
            yield from _swap_chain_stream(
                dp,
                rng,
                quota,
                cfg.resolved_burn_in(dp.total),
                cfg.max_rejections,
                condition,
            )


def sample_bipartite(dp: DegreePair, cfg: SamplerConfig) -> BipartiteGraph:
    """One uniform sample (the first of the configured sequence)."""
    return next(iter_bipartite_samples(dp, cfg))


def sample_undirected(
    d: Sequence[int], cfg: SamplerConfig
) -> list[tuple[tuple[int, int], ...]]:
    """cfg.samples uniform simple graphs with degree vector d.

    Stub pairing with rejection of loops and repeated pairs, tested a block
    of pairings at a time; every simple graph is hit by the same number of
    pairings, so accepted graphs are exactly uniform.  Returns each graph as
    a sorted tuple of (u, v) pairs with u < v.
    """
    degs = tuple(int(v) for v in d)
    if any(v < 0 for v in degs):
        raise DegreeSequenceError("degrees must be nonnegative")
    if not erdos_gallai_feasible(degs):
        raise DegreeSequenceError(
            "degree vector is not realisable by a simple graph"
        )
    import numpy as np

    stubs = np.repeat(np.arange(len(degs)), degs)
    rngs = _spawned_rngs(cfg)
    quotas = _stream_quotas(cfg.samples, cfg.streams)
    out: list[tuple[tuple[int, int], ...]] = []
    for rng, quota in zip(rngs, quotas):
        pairings = _simple_pairings(rng, stubs, len(degs))
        last = 0
        for _ in range(quota):
            for attempt, codes in pairings:
                if attempt - last > cfg.max_rejections:
                    raise BudgetError(
                        f"rejection budget {cfg.max_rejections} exhausted while "
                        "pairing stubs; the degree vector is too dense"
                    )
                if codes is not None:
                    out.append(tuple(divmod(c, len(degs)) for c in codes))
                    last = attempt
                    break
    return out


def _pooled(values: list[float], cfg: SamplerConfig, **extra) -> EmpiricalEstimate:
    import numpy as np

    arr = np.asarray(values, dtype=float)
    n = arr.shape[0]
    point = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    config = dict(cfg.to_json())
    config.update(extra)
    return EmpiricalEstimate(point, stderr, n, config)


def estimate_event_probability(
    dp: DegreePair,
    cfg: SamplerConfig,
    event: str,
    x: ForbiddenGraph | None = None,
) -> EmpiricalEstimate:
    """Monte Carlo probability of a structural event under the uniform model.

    Events: "loop-free" and "twocycle-free" (square pairs only; the latter
    is the conditional probability given loop-freeness, conditioned by
    rejection), "contains-x" and "avoids-x" (x required).  Avoiding an empty
    forbidden set is certain, so that case returns point 1.0 with stderr 0
    without drawing.
    """
    name = event.strip().lower()
    if name not in EVENT_NAMES:
        raise DomainError(f"unknown event {event!r}; expected one of {EVENT_NAMES}")
    if name in ("loop-free", "twocycle-free") and dp.m != dp.n:
        raise SquareOnlyError(f"event {name} needs a square degree pair")
    if name in ("contains-x", "avoids-x"):
        if x is None:
            raise DomainError(f"event {name} requires a forbidden graph")
        x._check_shape(dp)
        if name == "avoids-x" and x.size == 0:
            return EmpiricalEstimate(
                1.0, 0.0, cfg.samples, dict(cfg.to_json(), event=name)
            )

    condition = None
    if name == "loop-free":
        indicator = lambda g: 1.0 if g.loop_count() == 0 else 0.0
    elif name == "twocycle-free":
        condition = lambda g: g.loop_count() == 0
        indicator = lambda g: 1.0 if g.twocycle_count() == 0 else 0.0
    elif name == "contains-x":
        indicator = lambda g: 1.0 if g.contains(x) else 0.0
    else:
        indicator = lambda g: 1.0 if g.avoids(x) else 0.0

    values = [
        indicator(g)
        for g in iter_bipartite_samples(dp, cfg, condition=condition)
    ]
    return _pooled(values, cfg, event=name)


def estimate_expected_orientation_count(
    d: Sequence[int],
    delta: Sequence[int],
    cfg: SamplerConfig,
) -> EmpiricalEstimate:
    """Monte Carlo mean of the orientation count over uniform random graphs.

    Each sampled simple graph with degrees d contributes its exact number of
    orientations where vertex i gets out-degree d_i/2 + delta_i.  An odd
    degree makes that target non-integral for every graph, so the mean is
    exactly zero and no sampling is done.
    """
    degs = tuple(int(v) for v in d)
    offsets = tuple(delta)
    if len(offsets) != len(degs):
        raise DegreeSequenceError("delta must have one entry per vertex")
    if any(o != int(o) for o in offsets):
        raise DomainError("imbalance targets must be integers")
    offsets = tuple(int(o) for o in offsets)
    if any(v % 2 for v in degs):
        return EmpiricalEstimate(
            0.0, 0.0, cfg.samples, dict(cfg.to_json(), vacuous="odd degree")
        )
    graphs = sample_undirected(degs, cfg)
    values = [
        float(count_orientations_with_degrees(len(degs), edges, offsets))
        for edges in graphs
    ]
    return _pooled(values, cfg)
