"""Degree-sequence data model, derived statistics and assumption diagnostics.

Conventions used throughout the package:

  * A bipartite degree pair (s, t) prescribes the degrees of the two vertex
    classes U = {u_0, ..., u_{m-1}} and V = {v_0, ..., v_{n-1}}.  Edges are
    pairs (i, j) meaning u_i v_j.  Indices are 0-based in code and in JSON
    files.
  * A square pair (m == n) doubles as the in/out degree sequence of a digraph
    on vertices w_0 .. w_{n-1} via the correspondence  arc w_i -> w_j  <->
    edge u_i v_j.  Under that correspondence a loop is a diagonal edge (i, i)
    and a 2-cycle is a pair {(i, j), (j, i)} with i != j.
  * S = sum(s) = sum(t) is the edge count.  s2, s3 (and t2, t3) denote the
    falling-factorial sums  sum_i s_i (s_i - 1)  and  sum_i s_i (s_i - 1)
    (s_i - 2).  The loop weight W = sum_i s_i t_i is defined for square
    pairs only.

All value objects are immutable; every derived quantity is an exact integer
sum that can be recomputed independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

__all__ = [
    "CensusError",
    "DegreeSequenceError",
    "SquareOnlyError",
    "InfeasibleForbiddenError",
    "DomainError",
    "ParityError",
    "BudgetError",
    "DegreePair",
    "DerivedStats",
    "ForbiddenGraph",
    "ForbiddenStats",
    "BipartiteGraph",
    "Cutoffs",
    "AssumptionReport",
    "derive_stats",
    "loop_weight",
    "forbidden_stats",
    "cutoffs",
    "assumption_report",
    "falling",
    "erdos_gallai_feasible",
    "gale_ryser_feasible",
    "digraph_to_bipartite",
    "bipartite_to_digraph",
    "ASSUMPTION_CONTEXTS",
]


class CensusError(Exception):
    """Base class for all package errors."""


class DegreeSequenceError(CensusError, ValueError):
    """Malformed or inconsistent degree data."""


class SquareOnlyError(CensusError, ValueError):
    """A square-only statistic was requested for a non-square pair."""


class InfeasibleForbiddenError(CensusError, ValueError):
    """A forbidden-edge set is incompatible with the degree pair."""


class DomainError(CensusError, ValueError):
    """Input outside the domain of an operation (e.g. S = 0)."""


class ParityError(CensusError, ValueError):
    """A parity precondition fails (odd degree sum, non-integer target)."""


class BudgetError(CensusError, RuntimeError):
    """An exact computation would exceed its configured size budget."""


def falling(x: int, b: int) -> int:
    """Falling factorial x (x-1) ... (x-b+1), with (x)_0 = 1."""
    out = 1
    for k in range(b):
        out *= x - k
    return out


def _as_degree_tuple(values: Iterable[int], side: str) -> tuple[int, ...]:
    vals = tuple(values)
    if not vals:
        raise DegreeSequenceError(f"{side} degree sequence must be non-empty")
    for v in vals:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise DegreeSequenceError(
                f"{side} degrees must be non-negative integers, got {v!r}"
            )
    return vals


@dataclass(frozen=True)
class DegreePair:
    """A pair of degree sequences with equal sums.

    Zero entries are allowed (isolated vertices).  Feasibility as a simple
    bipartite graph is not required at construction time; infeasible pairs
    simply realise zero graphs.
    """

    s: tuple[int, ...]
    t: tuple[int, ...]

    def __init__(self, s: Iterable[int], t: Iterable[int]):
        object.__setattr__(self, "s", _as_degree_tuple(s, "row"))
        object.__setattr__(self, "t", _as_degree_tuple(t, "column"))
        if sum(self.s) != sum(self.t):
            raise DegreeSequenceError(
                f"degree sums differ: sum(s)={sum(self.s)} sum(t)={sum(self.t)}"
            )

    @property
    def m(self) -> int:
        return len(self.s)

    @property
    def n(self) -> int:
        return len(self.t)

    @property
    def total(self) -> int:
        """Edge count S."""
        return sum(self.s)

    @property
    def is_square(self) -> bool:
        return self.m == self.n

    @cached_property
    def _stats(self) -> "DerivedStats":
        # the pair is immutable, so derive_stats computes once per pair
        return _derive_stats(self)

    @classmethod
    def regular(cls, n: int, d: int) -> "DegreePair":
        return cls((d,) * n, (d,) * n)

    def reduced_by(self, x: Sequence[int], y: Sequence[int]) -> "DegreePair":
        """The pair (s - x, t - y); raises if any entry would go negative."""
        if len(x) != self.m or len(y) != self.n:
            raise DegreeSequenceError("reduction vectors must match (m, n)")
        if any(xi > si for xi, si in zip(x, self.s)) or any(
            yj > tj for yj, tj in zip(y, self.t)
        ):
            raise InfeasibleForbiddenError(
                "reduction exceeds a degree entry (x_i > s_i or y_j > t_j)"
            )
        return DegreePair(
            tuple(si - xi for si, xi in zip(self.s, x)),
            tuple(tj - yj for tj, yj in zip(self.t, y)),
        )

    def to_json(self) -> dict:
        return {"s": list(self.s), "t": list(self.t)}

    @classmethod
    def from_json(cls, payload: dict) -> "DegreePair":
        try:
            return cls(payload["s"], payload["t"])
        except KeyError as exc:
            raise DegreeSequenceError(f"missing key {exc} in degree-pair JSON")


@dataclass(frozen=True)
class DerivedStats:
    """Exact sums derived from a degree pair.

    total   : S, the common degree sum.
    s2, s3  : sum_i (s_i)_2 and sum_i (s_i)_3 (falling factorials).
    t2, t3  : same for the column side.
    loop_weight : sum_i s_i t_i, square pairs only (None otherwise).
    d_total, d2, d_max : undirected view d_i = s_i + t_i (square only):
        sum d_i, sum (d_i)_2 and max d_i.
    imbalance2_x4   : sum_i (t_i - s_i)^2 = 4 sum_i delta_i^2 where
        delta_i = (t_i - s_i)/2 is the half out/in imbalance (square only).
    imbalance_weight: sum_i delta_i d_i, always an integer (square only).
    """

    total: int
    s2: int
    s3: int
    t2: int
    t3: int
    s_max: int
    t_max: int
    loop_weight: int | None = None
    d_total: int | None = None
    d2: int | None = None
    d_max: int | None = None
    imbalance2_x4: int | None = None
    imbalance_weight: int | None = None

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "s2": self.s2,
            "s3": self.s3,
            "t2": self.t2,
            "t3": self.t3,
            "s_max": self.s_max,
            "t_max": self.t_max,
            "loop_weight": self.loop_weight,
            "d_total": self.d_total,
            "d2": self.d2,
            "d_max": self.d_max,
            "imbalance2_x4": self.imbalance2_x4,
            "imbalance_weight": self.imbalance_weight,
        }


def derive_stats(dp: DegreePair) -> DerivedStats:
    """Every derived statistic of the pair, computed on first use and kept."""
    return dp._stats


def _derive_stats(dp: DegreePair) -> DerivedStats:
    s, t = dp.s, dp.t
    base = dict(
        total=dp.total,
        s2=sum(falling(v, 2) for v in s),
        s3=sum(falling(v, 3) for v in s),
        t2=sum(falling(v, 2) for v in t),
        t3=sum(falling(v, 3) for v in t),
        s_max=max(s),
        t_max=max(t),
    )
    if not dp.is_square:
        return DerivedStats(**base)
    d = [si + ti for si, ti in zip(s, t)]
    # sum (t_i - s_i)(s_i + t_i) = sum t_i^2 - s_i^2 is even because squares
    # preserve parity and the two sides share the sum S.
    diff_sq = sum((ti - si) * (ti + si) for si, ti in zip(s, t))
    assert diff_sq % 2 == 0
    return DerivedStats(
        **base,
        loop_weight=sum(si * ti for si, ti in zip(s, t)),
        d_total=sum(d),
        d2=sum(falling(v, 2) for v in d),
        d_max=max(d),
        imbalance2_x4=sum((ti - si) ** 2 for si, ti in zip(s, t)),
        imbalance_weight=diff_sq // 2,
    )


def loop_weight(dp: DegreePair) -> int:
    """W = sum_i s_i t_i.  Defined for square pairs only."""
    if not dp.is_square:
        raise SquareOnlyError("loop weight W requires m == n")
    return sum(si * ti for si, ti in zip(dp.s, dp.t))


def _as_edge_set(
    edges: Iterable[tuple[int, int]], m: int, n: int, what: str
) -> frozenset[tuple[int, int]]:
    out = set()
    for e in edges:
        try:
            i, j = e
        except (TypeError, ValueError):
            raise DegreeSequenceError(f"{what} edge {e!r} is not a pair") from None
        if type(i) is not int or type(j) is not int:  # bools are not indices
            raise DegreeSequenceError(f"{what} edge {e!r} is not an integer pair")
        if not (0 <= i < m and 0 <= j < n):
            raise DegreeSequenceError(
                f"{what} edge ({i}, {j}) outside [0, {m}) x [0, {n})"
            )
        out.add((i, j))
    return frozenset(out)


def _json_edges(payload: dict) -> list:
    """The "edges" list of a JSON payload; _as_edge_set checks each entry."""
    edges = payload.get("edges", [])
    if not isinstance(edges, list):
        raise DegreeSequenceError(f"'edges' must be a list of pairs, got {edges!r}")
    return edges


@dataclass(frozen=True, eq=True)
class ForbiddenGraph:
    """A set of forbidden (or pinned) cells inside an m x n bipartite shape."""

    m: int
    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, m: int, n: int, edges: Iterable[tuple[int, int]]):
        if m < 1 or n < 1:
            raise DegreeSequenceError("forbidden graph shape must be positive")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", _as_edge_set(edges, m, n, "forbidden"))

    @classmethod
    def empty(cls, m: int, n: int) -> "ForbiddenGraph":
        return cls(m, n, ())

    @classmethod
    def diagonal(cls, n: int) -> "ForbiddenGraph":
        return cls(n, n, ((i, i) for i in range(n)))

    @cached_property
    def x(self) -> tuple[int, ...]:
        """Row degrees of the forbidden set."""
        deg = [0] * self.m
        for i, _ in self.edges:
            deg[i] += 1
        return tuple(deg)

    @cached_property
    def y(self) -> tuple[int, ...]:
        """Column degrees of the forbidden set."""
        deg = [0] * self.n
        for _, j in self.edges:
            deg[j] += 1
        return tuple(deg)

    @property
    def x_max(self) -> int:
        return max(self.x)

    @property
    def y_max(self) -> int:
        return max(self.y)

    @property
    def size(self) -> int:
        return len(self.edges)

    def is_loop_free(self) -> bool:
        return all(i != j for i, j in self.edges)

    def mass(self, dp: DegreePair) -> int:
        """F = sum over forbidden cells (i, j) of s_i t_j."""
        self._check_shape(dp)
        return sum(dp.s[i] * dp.t[j] for i, j in self.edges)

    def delta_max(self, dp: DegreePair) -> int:
        """The combined degree bound s_max t_max + s_max y_max + x_max t_max."""
        self._check_shape(dp)
        s_max, t_max = max(dp.s), max(dp.t)
        return s_max * t_max + s_max * self.y_max + self.x_max * t_max

    def _check_shape(self, dp: DegreePair) -> None:
        if dp.m != self.m or dp.n != self.n:
            raise DegreeSequenceError(
                f"forbidden shape ({self.m}, {self.n}) does not match pair "
                f"({dp.m}, {dp.n})"
            )

    def to_json(self) -> dict:
        return {"edges": [list(e) for e in sorted(self.edges)]}

    @classmethod
    def from_json(cls, payload: dict, m: int, n: int) -> "ForbiddenGraph":
        return cls(m, n, _json_edges(payload))


@dataclass(frozen=True)
class ForbiddenStats:
    """Weighted masses of a forbidden set, plain and degree-reduced."""

    mass: int              # F  = sum s_i t_j over forbidden cells
    reduced_mass: int      # F^ = sum (s_i - x_i)(t_j - y_j)
    delta_max: int         # s_max t_max + s_max y_max + x_max t_max
    reduced_delta_max: int  # same bound evaluated on the reduced pair

    def to_json(self) -> dict:
        return {
            "mass": self.mass,
            "reduced_mass": self.reduced_mass,
            "delta_max": self.delta_max,
            "reduced_delta_max": self.reduced_delta_max,
        }


def forbidden_stats(dp: DegreePair, x: ForbiddenGraph) -> ForbiddenStats:
    """All four forbidden-set statistics.

    The reduced quantities subtract the forbidden degrees from (s, t) first;
    they require x_i <= s_i and y_j <= t_j.
    """
    reduced = dp.reduced_by(x.x, x.y)
    return ForbiddenStats(
        mass=x.mass(dp),
        reduced_mass=x.mass(reduced),
        delta_max=x.delta_max(dp),
        reduced_delta_max=x.delta_max(reduced),
    )


@dataclass(frozen=True, eq=True)
class BipartiteGraph:
    """A simple bipartite graph on U x V with set edge semantics."""

    m: int
    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, m: int, n: int, edges: Iterable[tuple[int, int]]):
        if m < 1 or n < 1:
            raise DegreeSequenceError("graph shape must be positive")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", _as_edge_set(edges, m, n, "graph"))

    def degree_pair(self) -> DegreePair:
        s = [0] * self.m
        t = [0] * self.n
        for i, j in self.edges:
            s[i] += 1
            t[j] += 1
        return DegreePair(s, t)

    def loop_count(self) -> int:
        return sum(1 for i, j in self.edges if i == j)

    def twocycles(self) -> tuple[tuple[int, int], ...]:
        """Unordered index pairs {i, j}, i < j, with both (i,j) and (j,i)."""
        out = []
        for i, j in self.edges:
            if i < j and (j, i) in self.edges:
                out.append((i, j))
        return tuple(sorted(out))

    def twocycle_count(self) -> int:
        return len(self.twocycles())

    def contains(self, x: ForbiddenGraph) -> bool:
        return x.edges <= self.edges

    def avoids(self, x: ForbiddenGraph) -> bool:
        return not (x.edges & self.edges)

    def overlap(self, x: ForbiddenGraph) -> int:
        return len(x.edges & self.edges)

    def replace(
        self,
        drop: Iterable[tuple[int, int]] = (),
        add: Iterable[tuple[int, int]] = (),
    ) -> "BipartiteGraph":
        """New graph with `drop` removed and `add` inserted.

        Every dropped edge must be present and every added edge absent; this
        keeps rewiring operations honest about set semantics.
        """
        drop = list(drop)
        add = list(add)
        edges = set(self.edges)
        for e in drop:
            if e not in edges:
                raise DegreeSequenceError(f"cannot drop missing edge {e}")
            edges.remove(e)
        for e in add:
            if e in edges:
                raise DegreeSequenceError(f"cannot add duplicate edge {e}")
            edges.add(e)
        return BipartiteGraph(self.m, self.n, edges)

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def to_json(self) -> dict:
        return {"edges": [list(e) for e in self.sorted_edges()]}

    @classmethod
    def from_json(cls, payload: dict, m: int, n: int) -> "BipartiteGraph":
        return cls(m, n, _json_edges(payload))


def digraph_to_bipartite(n: int, arcs: Iterable[tuple[int, int]]) -> BipartiteGraph:
    """Arc set of a digraph on [n] as a square bipartite graph."""
    return BipartiteGraph(n, n, arcs)


def bipartite_to_digraph(g: BipartiteGraph) -> tuple[int, frozenset[tuple[int, int]]]:
    """Inverse of digraph_to_bipartite; square graphs only."""
    if g.m != g.n:
        raise SquareOnlyError("digraph view requires a square bipartite graph")
    return g.n, g.edges


@dataclass(frozen=True)
class Cutoffs:
    """Series cutoffs used by the second-order correction analysis.

    n0 = ceil(max(log S, 42 F / S)) and, for square pairs,
    n1 = ceil(max(log S, 24 W^2 / S^2)).  Natural logarithms.  Diagnostic
    only; no estimator consumes these.
    """

    n0: int
    n1: int | None

    def to_json(self) -> dict:
        return {"n0": self.n0, "n1": self.n1}


def cutoffs(dp: DegreePair, x: ForbiddenGraph | None = None) -> Cutoffs:
    s_total = dp.total
    if s_total == 0:
        raise DomainError("cutoffs are undefined for S = 0")
    f_mass = x.mass(dp) if x is not None else 0
    n0 = math.ceil(max(math.log(s_total), 42 * f_mass / s_total))
    n1 = None
    if dp.is_square:
        w = loop_weight(dp)
        n1 = math.ceil(max(math.log(s_total), 24 * w * w / (s_total * s_total)))
    return Cutoffs(n0=n0, n1=n1)


ASSUMPTION_CONTEXTS = (
    "bipartite-count",
    "avoidance-factor",
    "bipartite-avoiding-count",
    "subgraph-probability",
    "loopfree-probability",
    "loopfree-count",
    "loopfree-avoiding-count",
    "twocycle-free-probability",
    "oriented-count",
    "undirected-count",
    "orientation-expectation",
    "expected-permanent-sparse",
    "expected-permanent-dense",
    "permanent-complement",
    "expected-permanent-regular",
)


@dataclass(frozen=True)
class AssumptionReport:
    """Named small-ratio diagnostics for one estimate context.

    Each ratio should be well below 1 for the corresponding error bound to
    be meaningful; the report never gates a computation.
    """

    context: str
    ratios: dict[str, float]
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "context": self.context,
            "ratios": dict(sorted(self.ratios.items())),
            "notes": list(self.notes),
        }


def _undirected_view(subject) -> tuple[int, ...]:
    if isinstance(subject, DegreePair):
        if not subject.is_square:
            raise SquareOnlyError("undirected view requires a square pair")
        return tuple(si + ti for si, ti in zip(subject.s, subject.t))
    return _as_degree_tuple(subject, "undirected")


def assumption_report(
    subject,
    x: ForbiddenGraph | None = None,
    *,
    context: str,
) -> AssumptionReport:
    """Evaluate the smallness ratios behind one estimate's error bound.

    `subject` is a DegreePair for the bipartite/digraph contexts and may be a
    plain degree sequence for the undirected ones.  Ratios are keyed by the
    formula they evaluate.
    """
    if context not in ASSUMPTION_CONTEXTS:
        raise DomainError(f"unknown assumption context {context!r}")

    notes: list[str] = []
    ratios: dict[str, float] = {}

    if context in ("undirected-count", "orientation-expectation"):
        d = _undirected_view(subject)
        d_total = sum(d)
        if d_total == 0:
            raise DomainError("degree sum must be positive")
        ratios["d_max^4/D"] = max(d) ** 4 / d_total
        if context == "orientation-expectation":
            notes.append("requires sum(delta) = 0 and integer half-degrees")
        return AssumptionReport(context=context, ratios=ratios, notes=tuple(notes))

    if context == "expected-permanent-regular":
        notes.append("valid within 2 <= d <= n; no smallness ratio applies")
        return AssumptionReport(context=context, ratios={}, notes=tuple(notes))

    dp: DegreePair = subject
    stats = derive_stats(dp)
    s_total = stats.total
    if s_total == 0:
        raise DomainError("degree sum must be positive")
    s_max, t_max = stats.s_max, stats.t_max
    w = stats.loop_weight

    def need_square():
        if w is None:
            raise SquareOnlyError(f"context {context!r} requires a square pair")

    if context == "bipartite-count":
        ratios["s_max*t_max/S^(2/3)"] = s_max * t_max / s_total ** (2 / 3)
    elif context in ("avoidance-factor", "bipartite-avoiding-count"):
        xg = x if x is not None else ForbiddenGraph.empty(dp.m, dp.n)
        f_mass = xg.mass(dp)
        dmax = xg.delta_max(dp)
        ratios["(s_max+t_max)*log(S)/S"] = (
            (s_max + t_max) * math.log(s_total) / s_total
        )
        ratios["delta_max/S"] = dmax / s_total
        ratios["delta_max*F/S^2"] = dmax * f_mass / s_total**2
        ratios["F/S^(5/3)"] = f_mass / s_total ** (5 / 3)
        if context == "bipartite-avoiding-count":
            ratios["s_max*t_max/S^(2/3)"] = s_max * t_max / s_total ** (2 / 3)
    elif context == "subgraph-probability":
        if x is None:
            raise DomainError("subgraph-probability context needs the pinned set")
        reduced = dp.reduced_by(x.x, x.y)
        rstats = forbidden_stats(dp, x)
        s_hat = reduced.total
        if s_hat == 0:
            raise DomainError("reduced degree sum must be positive")
        ratios["delta_hat*F_hat/S_hat^2"] = (
            rstats.reduced_delta_max * rstats.reduced_mass / s_hat**2
        )
        ratios["F_hat/S_hat^(5/3)"] = rstats.reduced_mass / s_hat ** (5 / 3)
        ratios["s_max*t_max/S^(2/3)"] = s_max * t_max / s_total ** (2 / 3)
    elif context == "loopfree-probability":
        need_square()
        ratios["(s_max+t_max)*log(S)/S"] = (
            (s_max + t_max) * math.log(s_total) / s_total
        )
        ratios["s_max*t_max*W/S^2"] = s_max * t_max * w / s_total**2
    elif context == "loopfree-count":
        need_square()
        ratios["s_max*t_max/S^(2/3)"] = s_max * t_max / s_total ** (2 / 3)
        ratios["s_max*t_max*W/S^2"] = s_max * t_max * w / s_total**2
    elif context == "loopfree-avoiding-count":
        need_square()
        xg = x if x is not None else ForbiddenGraph.empty(dp.m, dp.n)
        if not xg.is_loop_free():
            notes.append("forbidden set must avoid the diagonal")
        f_mass = xg.mass(dp)
        dmax = xg.delta_max(dp)
        ratios["s_max*t_max/S^(2/3)"] = s_max * t_max / s_total ** (2 / 3)
        ratios["delta_max*(F+W)/S^2"] = dmax * (f_mass + w) / s_total**2
        ratios["F/S^(3/5)"] = f_mass / s_total ** (3 / 5)
    elif context == "twocycle-free-probability":
        need_square()
        ratios["(s_max^2+t_max^2)/S"] = (s_max**2 + t_max**2) / s_total
        ratios["s_max*t_max*(s_max+t_max)*W/S^2"] = (
            s_max * t_max * (s_max + t_max) * w / s_total**2
        )
    elif context == "oriented-count":
        need_square()
        ratios["s_max*t_max/S^(2/3)"] = s_max * t_max / s_total ** (2 / 3)
        ratios["(s_max^2+t_max^2)/S"] = (s_max**2 + t_max**2) / s_total
        ratios["s_max*t_max*(s_max+t_max)*W/S^2"] = (
            s_max * t_max * (s_max + t_max) * w / s_total**2
        )
    elif context == "expected-permanent-sparse":
        need_square()
        ratios["s_max*t_max/S^(2/3)"] = s_max * t_max / s_total ** (2 / 3)
        ratios["n/S"] = dp.n / s_total
        notes.append("needs S >= (1 + delta) n for some fixed delta > 0")
    elif context == "expected-permanent-dense":
        need_square()
        ratios["s_max*t_max/S^(2/3)"] = s_max * t_max / s_total ** (2 / 3)
        notes.append("hole margins; sound for S growing linearly with n")
    elif context == "permanent-complement":
        need_square()
        ratios["S/n^2"] = s_total / dp.n**2
        notes.append("bounds useful when S = O(n)")
    return AssumptionReport(context=context, ratios=ratios, notes=tuple(notes))


def erdos_gallai_feasible(d: Sequence[int]) -> bool:
    """Whether a degree sequence is realised by some simple undirected graph."""
    ds = sorted((v for v in d), reverse=True)
    if not ds:
        return True
    if ds[-1] < 0 or sum(ds) % 2:
        return False
    n = len(ds)
    # suffix[i] = ds[i] + ... + ds[n - 1]
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + ds[i]
    prefix = 0
    big = n  # number of degrees >= k; it only shrinks as k grows
    for k in range(1, n + 1):
        prefix += ds[k - 1]
        while big and ds[big - 1] < k:
            big -= 1
        # sum(min(v, k) for v in ds[k:]): ds[k:big] give k each, the rest themselves
        capped = max(big - k, 0)
        tail = k * capped + suffix[k + capped]
        if prefix > k * (k - 1) + tail:
            return False
    return True


def gale_ryser_feasible(s: Sequence[int], t: Sequence[int]) -> bool:
    """Whether (s, t) is realised by some simple bipartite graph."""
    if sum(s) != sum(t):
        return False
    if any(v < 0 for v in s) or any(v < 0 for v in t):
        return False
    if s and t and (max(s) > len(t) or max(t) > len(s)):
        return False
    # at_least[v] = number of columns of degree >= v, so that
    # sum(min(v, k) for v in t) = at_least[1] + ... + at_least[k]
    at_least = [0] * (len(s) + 2)
    for v in t:
        at_least[v] += 1
    for v in range(len(s), 0, -1):
        at_least[v] += at_least[v + 1]
    p = sorted(s, reverse=True)
    prefix = 0
    room = 0
    for k in range(1, len(p) + 1):
        prefix += p[k - 1]
        room += at_least[k]
        if prefix > room:
            return False
    return True
