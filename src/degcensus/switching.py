"""Degree-preserving edge-rewiring operations and their exact count identities.

Two families are implemented.  The first trades one forbidden-cell edge for a
rewired triple (three edges out, three edges in) and relates the strata B_f of
graphs meeting the forbidden set in exactly f cells.  The second dismantles a
designated 2-cycle of a loop-free square graph using four auxiliary edges and
relates the strata T_q of graphs with exactly q 2-cycles.  Both come with
reverse operations, exact spec counters, and verifiers that enumerate whole
strata and assert the forward/reverse double-counting identity as exact
integer equality.

Specs are explicit value objects: every presence/absence condition is checked
up front and violations raise errors naming the failed clause.  Counting is
exact, never a sampled search.  The forbidden-edge counters are closed forms:
their distinctness clauses follow from the presence and absence clauses, so a
valid spec is a walk through 0/1 cell matrices and the count is a sum of
entries of a product of five of them (see `count_forward_x_switches`).  The
2-cycle counters enumerate valid specs as pairs of disjoint alternating walks,
two clauses a step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import (
    BipartiteGraph,
    BudgetError,
    CensusError,
    DegreePair,
    DegreeSequenceError,
    DomainError,
    ForbiddenGraph,
    SquareOnlyError,
)
from .oracles import enumerate_bipartite

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SwitchConditionError",
    "ForwardSwitchSpec",
    "TwoCycleSwitchSpec",
    "SwitchCountReport",
    "apply_forward_x_switch",
    "apply_reverse_x_switch",
    "count_forward_x_switches",
    "count_reverse_x_switches",
    "verify_x_switch_identity",
    "apply_twocycle_switch",
    "apply_reverse_twocycle_switch",
    "count_twocycle_switches",
    "count_reverse_twocycle_switches",
    "verify_twocycle_identity",
]

Edge = tuple[int, int]

VERIFY_BUDGET_S = 14


class SwitchConditionError(CensusError, ValueError):
    """A rewiring precondition failed; the message names the clause."""


def _edge(value, what: str) -> Edge:
    pair = tuple(int(v) for v in value)
    if len(pair) != 2:
        raise DomainError(f"{what} must be an (i, j) pair, got {value!r}")
    return pair  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# forbidden-edge switch (three edges out, three edges in)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForwardSwitchSpec:
    """One forbidden-edge rewiring step, fully determined by its edges.

    `target_x_edge` is the edge (i, j) lying on a forbidden cell.  The two
    auxiliary edges (a, c) and (b, d) supply the rewiring partners.  Forward
    application removes all three and inserts (i, c), (a, d), (b, j); the
    reverse direction swaps the two triples.
    """

    target_x_edge: Edge
    aux_edges: tuple[Edge, Edge]

    def __init__(self, target_x_edge, aux_edges):
        object.__setattr__(self, "target_x_edge", _edge(target_x_edge, "target"))
        aux = tuple(aux_edges)
        if len(aux) != 2:
            raise DomainError("exactly two auxiliary edges are required")
        object.__setattr__(
            self, "aux_edges", (_edge(aux[0], "first aux"), _edge(aux[1], "second aux"))
        )

    @property
    def removed_edges(self) -> tuple[Edge, Edge, Edge]:
        return (self.target_x_edge,) + self.aux_edges

    @property
    def inserted_edges(self) -> tuple[Edge, Edge, Edge]:
        i, j = self.target_x_edge
        a, c = self.aux_edges[0]
        b, d = self.aux_edges[1]
        return ((i, c), (a, d), (b, j))

    def to_json(self) -> dict:
        return {
            "target_x_edge": list(self.target_x_edge),
            "aux_edges": [list(e) for e in self.aux_edges],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ForwardSwitchSpec":
        return cls(
            tuple(payload["target_x_edge"]),
            tuple(tuple(e) for e in payload["aux_edges"]),
        )


def _x_forward_violation(
    g: BipartiteGraph, x: ForbiddenGraph, spec: ForwardSwitchSpec
) -> str | None:
    """First violated forward clause, or None when the move is valid.

    The row indices {i, a, b} and column indices {j, c, d} are automatically
    distinct for any valid move: equality anywhere would force one of the
    insertions to collide with a removed or forbidden edge.  They are still
    checked explicitly so errors stay sharp.
    """
    (i, j) = spec.target_x_edge
    (a, c), (b, d) = spec.aux_edges
    if spec.target_x_edge not in g.edges:
        return f"target edge {(i, j)} is not in the graph"
    if spec.target_x_edge not in x.edges:
        return f"target edge {(i, j)} is not a forbidden cell"
    for label, e in (("first aux", (a, c)), ("second aux", (b, d))):
        if e not in g.edges:
            return f"{label} edge {e} is not in the graph"
        if e in x.edges:
            return f"{label} edge {e} lies on a forbidden cell"
    if (a, c) == (b, d):
        return "auxiliary edges must be distinct"
    if len({i, a, b}) != 3:
        return "row indices i, a, b must be distinct"
    if len({j, c, d}) != 3:
        return "column indices j, c, d must be distinct"
    for e in spec.inserted_edges:
        if e in g.edges:
            return f"inserting {e} would create double edge"
        if e in x.edges:
            return f"insertion {e} lands on a forbidden cell"
    return None


def _x_reverse_violation(
    g: BipartiteGraph, x: ForbiddenGraph, spec: ForwardSwitchSpec
) -> str | None:
    """First violated reverse clause, or None.

    The reverse direction expects the rewired triple (i, c), (a, d), (b, j)
    present off the forbidden set, the target cell (i, j) forbidden but
    unoccupied, and both auxiliary slots free in graph and forbidden set.
    """
    (i, j) = spec.target_x_edge
    (a, c), (b, d) = spec.aux_edges
    if spec.target_x_edge not in x.edges:
        return f"target edge {(i, j)} is not a forbidden cell"
    if spec.target_x_edge in g.edges:
        return f"inserting {(i, j)} would create double edge"
    if (a, c) == (b, d):
        return "auxiliary edges must be distinct"
    if len({i, a, b}) != 3:
        return "row indices i, a, b must be distinct"
    if len({j, c, d}) != 3:
        return "column indices j, c, d must be distinct"
    for e in spec.inserted_edges:
        if e not in g.edges:
            return f"rewired edge {e} is not in the graph"
        if e in x.edges:
            return f"rewired edge {e} lies on a forbidden cell"
    for label, e in (("first aux", (a, c)), ("second aux", (b, d))):
        if e in g.edges:
            return f"inserting {label} edge {e} would create double edge"
        if e in x.edges:
            return f"{label} slot {e} lies on a forbidden cell"
    return None


def apply_forward_x_switch(
    g: BipartiteGraph, x: ForbiddenGraph, spec: ForwardSwitchSpec
) -> BipartiteGraph:
    """Trade the forbidden edge of `spec` for the rewired triple.

    Degrees are preserved and the overlap with the forbidden set drops by
    exactly one; both are asserted after the rewiring.
    """
    reason = _x_forward_violation(g, x, spec)
    if reason is not None:
        raise SwitchConditionError(reason)
    out = g.replace(drop=spec.removed_edges, add=spec.inserted_edges)
    assert out.degree_pair() == g.degree_pair()
    assert out.overlap(x) == g.overlap(x) - 1
    return out


def apply_reverse_x_switch(
    g: BipartiteGraph, x: ForbiddenGraph, spec: ForwardSwitchSpec
) -> BipartiteGraph:
    """Undo a forward step: restore the forbidden edge and its partners."""
    reason = _x_reverse_violation(g, x, spec)
    if reason is not None:
        raise SwitchConditionError(reason)
    out = g.replace(drop=spec.inserted_edges, add=spec.removed_edges)
    assert out.degree_pair() == g.degree_pair()
    assert out.overlap(x) == g.overlap(x) + 1
    return out


def _indicator(m: int, n: int, cells: frozenset[Edge]) -> np.ndarray:
    """The m x n 0/1 int64 matrix with a 1 on every cell of `cells`."""
    import numpy as np

    out = np.zeros((m, n), dtype=np.int64)
    if cells:
        rows, cols = zip(*cells)
        out[rows, cols] = 1
    return out


def _x_switch_matrices(
    g: BipartiteGraph, x: ForbiddenGraph
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(G, X, A, F): graph, forbidden cells, free edges, empty allowed cells.

    A = G o (1 - X) and F = (1 - G) o (1 - X), with o the entrywise product.
    """
    if (g.m, g.n) != (x.m, x.n):
        raise DegreeSequenceError(
            f"forbidden shape ({x.m}, {x.n}) does not match pair ({g.m}, {g.n})"
        )
    G = _indicator(g.m, g.n, g.edges)
    X = _indicator(x.m, x.n, x.edges)
    allowed = 1 - X
    return G, X, G * allowed, (1 - G) * allowed


def count_forward_x_switches(g: BipartiteGraph, x: ForbiddenGraph) -> int:
    """Number of specs that `apply_forward_x_switch` accepts on g.

    With A the free graph edges and F the empty allowed cells, a spec with
    target (i, j) in g and x is valid exactly when

        A[a, c] F[i, c] F[a, d] A[b, d] F[b, j] = 1,

    the presence and absence clauses of `_x_forward_violation`.  Its
    distinctness clauses add nothing: a = i would make the insertion (i, c)
    the present edge (a, c), b = i makes (b, j) the target, a = b makes
    (a, d) the present edge (b, d), and c = j, d = j, c = d fail the same way
    by columns.  Summing over c and d gives (F A^T)[i, a] and (F A^T)[a, b],
    so the count is the sum over all cells of (F A^T F A^T F) o (G o X).
    """
    G, X, A, F = _x_switch_matrices(g, x)
    walk = F @ A.T
    # an entry counts pairs of free edges, so it is at most |A|^2 <= S^2; at
    # most S targets are summed, and int64 is exact while S^3 < 2^63
    return int(((walk @ walk @ F) * (G * X)).sum())


def count_reverse_x_switches(g: BipartiteGraph, x: ForbiddenGraph) -> int:
    """Number of specs that `apply_reverse_x_switch` accepts on g.

    For an unoccupied forbidden cell (i, j) a spec is valid exactly when

        A[i, c] F[a, c] A[a, d] F[b, d] A[b, j] = 1,

    the rewired triple present off x and both auxiliary slots empty and
    allowed.  As in the forward count, every distinctness clause of
    `_x_reverse_violation` is implied (a = i would need (i, c) both present
    and empty, b = i would need the empty target (i, j) present, and so on),
    so the count is the sum over all cells of (A F^T A F^T A) o (X o (1 - G)).
    """
    G, X, A, F = _x_switch_matrices(g, x)
    walk = A @ F.T
    # entries are at most |A|^2 <= S^2, as in the forward count; at most m n
    # cells are summed, and int64 is exact while m n S^2 < 2^63
    return int(((walk @ walk @ A) * (X * (1 - G))).sum())


@dataclass(frozen=True)
class SwitchCountReport:
    """Stratum-level totals of the double-counting identity."""

    f_or_q: int
    total_forward: int
    total_reverse: int

    def to_json(self) -> dict:
        return {
            "f_or_q": self.f_or_q,
            "total_forward": str(self.total_forward),
            "total_reverse": str(self.total_reverse),
        }


def verify_x_switch_identity(
    dp: DegreePair,
    x: ForbiddenGraph,
    f: int,
    *,
    budget_s: int = VERIFY_BUDGET_S,
) -> SwitchCountReport:
    """Exhaustively check sum-of-forward over B_f == sum-of-reverse over B_{f-1}.

    Enumerates every realisation of dp, buckets by forbidden-set overlap, and
    totals the applicable moves on the two adjacent strata.  Equality is
    asserted, then reported.
    """
    if f < 1:
        raise DomainError(f"stratum index must be >= 1, got {f}")
    if dp.total > budget_s:
        raise BudgetError(
            f"edge count S = {dp.total} exceeds verification budget {budget_s}"
        )
    x._check_shape(dp)
    total_forward = 0
    total_reverse = 0
    for g in enumerate_bipartite(dp, budget_s=budget_s):
        k = g.overlap(x)
        if k == f:
            total_forward += count_forward_x_switches(g, x)
        elif k == f - 1:
            total_reverse += count_reverse_x_switches(g, x)
    assert total_forward == total_reverse, (f, total_forward, total_reverse)
    return SwitchCountReport(f, total_forward, total_reverse)


# ---------------------------------------------------------------------------
# 2-cycle switch (six arcs out, six arcs in, ten distinct indices)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoCycleSwitchSpec:
    """One 2-cycle rewiring step on a loop-free square graph.

    `cycle` is the ordered pair (i, j) whose two arcs (i, j) and (j, i) are
    dismantled.  `aux` holds four auxiliary arcs (b, a), (d, c), (f, e),
    (h, g); together with i and j their endpoints must be ten distinct
    vertices.  Swapping the cycle order and reversing the aux tuple yields
    the mirror spec with identical edge sets, counted once by the counters.
    """

    cycle: Edge
    aux: tuple[Edge, Edge, Edge, Edge]

    def __init__(self, cycle, aux):
        object.__setattr__(self, "cycle", _edge(cycle, "cycle"))
        aux_t = tuple(aux)
        if len(aux_t) != 4:
            raise DomainError("exactly four auxiliary arcs are required")
        object.__setattr__(
            self,
            "aux",
            tuple(_edge(e, f"aux[{k}]") for k, e in enumerate(aux_t)),
        )

    def indices(self) -> tuple[int, ...]:
        i, j = self.cycle
        flat: list[int] = [i, j]
        for u, v in self.aux:
            flat.extend((u, v))
        return tuple(flat)

    @property
    def removed_arcs(self) -> frozenset[Edge]:
        i, j = self.cycle
        return frozenset(self.aux) | {(i, j), (j, i)}

    @property
    def inserted_arcs(self) -> frozenset[Edge]:
        i, j = self.cycle
        e1, e2, e3, e4 = self.aux
        return frozenset(
            {
                (j, e2[1]),
                (e1[0], i),
                (e2[0], e1[1]),
                (i, e3[1]),
                (e3[0], e4[1]),
                (e4[0], j),
            }
        )

    @property
    def excluded_arcs(self) -> frozenset[Edge]:
        """Arcs that must be absent in both directions of the switch.

        Their absence is exactly what keeps every 2-cycle other than the
        designated one intact: each inserted arc's opposite and each removed
        auxiliary arc's opposite appears here.
        """
        i, j = self.cycle
        e1, e2, e3, e4 = self.aux
        return frozenset(
            {
                (e1[1], e1[0]),
                (e2[1], e2[0]),
                (e3[1], e3[0]),
                (e4[1], e4[0]),
                (e1[1], e2[0]),
                (e2[1], j),
                (i, e1[0]),
                (j, e4[0]),
                (e3[1], i),
                (e4[1], e3[0]),
            }
        )

    def mirror(self) -> "TwoCycleSwitchSpec":
        """The order-swapped twin describing the same rewiring."""
        i, j = self.cycle
        e1, e2, e3, e4 = self.aux
        return TwoCycleSwitchSpec((j, i), (e4, e3, e2, e1))

    def to_json(self) -> dict:
        return {
            "cycle": list(self.cycle),
            "aux": [list(e) for e in self.aux],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TwoCycleSwitchSpec":
        return cls(tuple(payload["cycle"]), tuple(tuple(e) for e in payload["aux"]))


def _square_loopfree_or_raise(g: BipartiteGraph) -> None:
    if g.m != g.n:
        raise SquareOnlyError("2-cycle switches need a square (digraph) graph")
    if g.loop_count():
        raise DomainError("2-cycle switches operate on loop-free graphs")


def _twocycle_shape_violation(spec: TwoCycleSwitchSpec) -> str | None:
    idx = spec.indices()
    if len(set(idx)) != 10:
        return "the ten indices of the move must be distinct"
    return None


def _twocycle_forward_violation(
    g: BipartiteGraph, spec: TwoCycleSwitchSpec
) -> str | None:
    reason = _twocycle_shape_violation(spec)
    if reason is not None:
        return reason
    for arc in sorted(spec.removed_arcs):
        if arc not in g.edges:
            return f"removed arc {arc} is not in the graph"
    for arc in sorted(spec.inserted_arcs):
        if arc in g.edges:
            return f"inserting {arc} would create double edge"
    for arc in sorted(spec.excluded_arcs):
        if arc in g.edges:
            return f"excluded arc {arc} is present"
    return None


def _twocycle_reverse_violation(
    g: BipartiteGraph, spec: TwoCycleSwitchSpec
) -> str | None:
    reason = _twocycle_shape_violation(spec)
    if reason is not None:
        return reason
    for arc in sorted(spec.inserted_arcs):
        if arc not in g.edges:
            return f"rewired arc {arc} is not in the graph"
    for arc in sorted(spec.removed_arcs):
        if arc in g.edges:
            return f"inserting {arc} would create double edge"
    for arc in sorted(spec.excluded_arcs):
        if arc in g.edges:
            return f"excluded arc {arc} is present"
    return None


def apply_twocycle_switch(
    g: BipartiteGraph, spec: TwoCycleSwitchSpec
) -> BipartiteGraph:
    """Dismantle the designated 2-cycle, rewiring through four helper arcs.

    Exactly one 2-cycle disappears, no loop appears, and degrees are
    preserved; all three facts are asserted on the result.
    """
    _square_loopfree_or_raise(g)
    reason = _twocycle_forward_violation(g, spec)
    if reason is not None:
        raise SwitchConditionError(reason)
    out = g.replace(drop=sorted(spec.removed_arcs), add=sorted(spec.inserted_arcs))
    assert out.degree_pair() == g.degree_pair()
    assert out.loop_count() == 0
    assert out.twocycle_count() == g.twocycle_count() - 1
    return out


def apply_reverse_twocycle_switch(
    g: BipartiteGraph, spec: TwoCycleSwitchSpec
) -> BipartiteGraph:
    """Reassemble the designated 2-cycle from its rewired configuration."""
    _square_loopfree_or_raise(g)
    reason = _twocycle_reverse_violation(g, spec)
    if reason is not None:
        raise SwitchConditionError(reason)
    out = g.replace(drop=sorted(spec.inserted_arcs), add=sorted(spec.removed_arcs))
    assert out.degree_pair() == g.degree_pair()
    assert out.loop_count() == 0
    assert out.twocycle_count() == g.twocycle_count() + 1
    return out


def _disjoint_walk_pairs(g: BipartiteGraph, forward: bool) -> int:
    """Number of unordered valid 2-cycle specs on g, forward or reverse.

    Write u ~ v for "no arc either way" and u -> v for "u -> v present, v -> u
    absent".  A spec is valid exactly when its ten vertices are distinct and
    two five-step walks join the ends i and j of its cycle, one each way (see
    the two counters); their first, third and fifth steps are of the outer
    kind (~ forward, -> reverse).  Each step is two of the 20 non-cycle
    clauses of `_twocycle_forward_violation`: b ~ i is (b, i) inserted and
    (i, b) excluded, b -> a is (b, a) removed and (a, b) excluded; reversing
    swaps what must be present.  The mirror spec swaps the two walks, so one
    walk each way per pair counts it once.
    """
    _square_loopfree_or_raise(g)
    if g.n < 10:
        # every spec names ten distinct vertices (_twocycle_shape_violation)
        return 0
    n = g.n
    succ = [{v for u, v in g.edges if u == x} for x in range(n)]
    pred = [{u for u, v in g.edges if v == x} for x in range(n)]
    single = [succ[x] - pred[x] for x in range(n)]
    neither = [set(range(n)) - succ[x] - pred[x] - {x} for x in range(n)]
    if forward:
        outer, outer_in, inner, ends = neither, neither, single, g.twocycles()
    else:
        outer, outer_in, inner = single, [pred[x] - succ[x] for x in range(n)], neither
        # each end starts one walk and finishes the other
        live = {x for x in range(n) if outer[x] and outer_in[x]}
        ends = [(i, j) for i in live for j in neither[i] & live if i < j]

    def walks(x: int, y: int) -> dict[int, int]:
        found: dict[int, int] = {}  # bitmask of the inner vertices -> walks x to y
        for u1 in outer[x]:
            for u2 in inner[u1]:
                for u3 in outer[u2]:
                    for u4 in inner[u3] & outer_in[y]:
                        mask = 1 << u1 | 1 << u2 | 1 << u3 | 1 << u4
                        if mask.bit_count() == 4 and not mask & (1 << x | 1 << y):
                            found[mask] = found.get(mask, 0) + 1
        return found

    total = 0
    for i, j in ends:
        there, back = walks(i, j).items(), walks(j, i).items()
        total += sum(p * q for a, p in there for b, q in back if not a & b)
    return total


def count_twocycle_switches(g: BipartiteGraph) -> int:
    """Number of unordered forward specs dismantling some 2-cycle of g.

    Disjoint walks i ~ b -> a ~ d -> c ~ j and j ~ h -> g ~ f -> e ~ i on {i, j}.
    """
    return _disjoint_walk_pairs(g, forward=True)


def count_reverse_twocycle_switches(g: BipartiteGraph) -> int:
    """Number of unordered reverse specs reassembling some 2-cycle into g.

    Disjoint walks j -> c ~ d -> a ~ b -> i and i -> e ~ f -> g ~ h -> j on i ~ j.
    """
    return _disjoint_walk_pairs(g, forward=False)


def verify_twocycle_identity(
    dp: DegreePair,
    q: int,
    *,
    budget_s: int = VERIFY_BUDGET_S,
) -> SwitchCountReport:
    """Check sum-of-forward over T_q == sum-of-reverse over T_{q-1} exactly.

    Strata live inside the loop-free realisations of dp, graded by 2-cycle
    count.  Equality is asserted, then reported.
    """
    if q < 1:
        raise DomainError(f"stratum index must be >= 1, got {q}")
    if dp.m != dp.n:
        raise SquareOnlyError("2-cycle strata need a square degree pair")
    if dp.total > budget_s:
        raise BudgetError(
            f"edge count S = {dp.total} exceeds verification budget {budget_s}"
        )
    diagonal = ForbiddenGraph.diagonal(dp.n)
    total_forward = 0
    total_reverse = 0
    for g in enumerate_bipartite(dp, diagonal, budget_s=budget_s):
        k = g.twocycle_count()
        if k == q:
            total_forward += count_twocycle_switches(g)
        elif k == q - 1:
            total_reverse += count_reverse_twocycle_switches(g)
    assert total_forward == total_reverse, (q, total_forward, total_reverse)
    return SwitchCountReport(q, total_forward, total_reverse)

