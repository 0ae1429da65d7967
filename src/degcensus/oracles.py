"""Exact desk-scale counters used to validate every estimate.

All results are exact Python integers or fractions.  Each function enforces
a hard size budget and raises BudgetError beyond it; nothing here is meant
to scale past validation instances.  Rows are processed in decreasing degree
(ties by index).  The bipartite, stratified and loop-free counts share one
margin recursion over column types (_margin_count), whose steps the
undirected count reuses.  A forbidden set with at most one cell per row and
per column (a partial matching, the diagonal of a loop-free count among
them) is carried by degree tags on its columns, which keeps the count
polynomial for bounded degrees; any other forbidden set costs one mask bit
per row.  Oriented counts eliminate one vertex at a time over residual
(out, in) types.  enumerate_bipartite generates neighbour sets in
lexicographic column order, so its output order is deterministic.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core import (
    BipartiteGraph,
    BudgetError,
    DegreePair,
    DomainError,
    ForbiddenGraph,
    ParityError,
    SquareOnlyError,
    DegreeSequenceError,
)

__all__ = [
    "DEFAULT_EDGE_BUDGET",
    "count_bipartite",
    "count_bipartite_stratified",
    "count_loopfree",
    "count_oriented",
    "count_undirected",
    "enumerate_bipartite",
    "graph_to_matrix",
    "ryser_permanent",
    "exact_expected_permanent",
    "expected_permanent_transversal_sum",
    "count_partial_matchings",
    "count_eulerian_orientations",
    "count_orientations_with_degrees",
    "permutation_moment_oracle",
]

DEFAULT_EDGE_BUDGET = 24


def _check_budget(value: int, budget: int, what: str) -> None:
    if value > budget:
        raise BudgetError(f"{what} = {value} exceeds budget {budget}")


def _row_order(s: Sequence[int]) -> list[int]:
    return sorted(range(len(s)), key=lambda i: (-s[i], i))


def _residual_feasible(rows_desc: Sequence[int], resid: Sequence[int]) -> bool:
    # Gale-Ryser on the untouched remainder.  With forbidden cells this is a
    # relaxation, which keeps it a sound prune: infeasible means no completion.
    prefix = 0
    for k in range(1, len(rows_desc) + 1):
        prefix += rows_desc[k - 1]
        if prefix > sum(min(v, k) for v in resid):
            return False
    return True


def enumerate_bipartite(
    dp: DegreePair,
    x: ForbiddenGraph | None = None,
    *,
    budget_s: int = DEFAULT_EDGE_BUDGET,
) -> Iterator[BipartiteGraph]:
    """Yield every simple bipartite realisation of (s, t), avoiding x if given.

    Deterministic order per the module contract.  Pruning never changes the
    set of leaves, only skips dead subtrees.
    """
    _check_budget(dp.total, budget_s, "edge count S")
    forbidden = x.edges if x is not None else frozenset()
    if x is not None:
        x._check_shape(dp)
    order = _row_order(dp.s)
    m, n = dp.m, dp.n
    tails: list[list[int]] = []
    for k in range(len(order)):
        tail = sorted((dp.s[r] for r in order[k + 1 :]), reverse=True)
        tails.append(tail)

    resid = list(dp.t)
    chosen: list[tuple[int, tuple[int, ...]]] = []

    def rec(k: int) -> Iterator[BipartiteGraph]:
        if k == m:
            edges = [(row, j) for row, combo in chosen for j in combo]
            yield BipartiteGraph(m, n, edges)
            return
        row = order[k]
        need = dp.s[row]
        allowed = [
            j for j in range(n) if resid[j] > 0 and (row, j) not in forbidden
        ]
        if need > len(allowed):
            return
        for combo in itertools.combinations(allowed, need):
            for j in combo:
                resid[j] -= 1
            if _residual_feasible(tails[k], resid):
                chosen.append((row, combo))
                yield from rec(k + 1)
                chosen.pop()
            for j in combo:
                resid[j] += 1

    yield from rec(0)


def _margin_count(dp: DegreePair, x: ForbiddenGraph | None, width: int) -> list[int]:
    """Realisations of (s, t) using exactly f cells of x, for f = 0 .. width-1.

    The margin recursion of Miller & Harrison (Ann. Statist. 41(3), 2013).
    Rows are placed one at a time in _row_order.  A column's type is
    (residual degree, mask, tag): bit k of the mask marks the column's x
    cell in the row at position k.  Columns of one type are
    interchangeable, so the state after k rows is the multiset of types,
    equal states merge, and a row spreads its degree over the type classes
    with binomial weights.  Counts are polynomials in the number of x cells
    used, cut off at width; width 1 makes the cells of x forbidden.

    When x has at most one cell per row and per column (a partial matching,
    the diagonal among them), its cells cost no mask bits: the tag of the
    column of cell (i, j) is s[i] while row i is pending, else 0.
    Completions do not change when pending rows of equal degree are
    permuted, so the row at position k may be any pending row of degree
    degs[k].  If fewer columns carry that tag than such rows are pending, it
    is a row whose x cell is gone or was never there, and it forbids
    nothing.  Otherwise it is the row of one column of the first class so
    tagged; that column alone gets bit k for this row, and its tag drops to
    0 (_untag_one).  With bounded degrees the number of states then grows
    polynomially in n.  Any other x keeps one mask bit per row and is
    exponential.
    """
    order = _row_order(dp.s)
    # rows of degree 0 come last and place nothing, so they get no position
    rows = sum(1 for v in dp.s if v > 0)
    pos = {row: k for k, row in enumerate(order[:rows])}
    degs = [dp.s[row] for row in order[:rows]]
    cells = x.edges if x is not None else frozenset()
    matching = len({i for i, _ in cells}) == len({j for _, j in cells}) == len(cells)
    marks = [0] * dp.n
    tags = [0] * dp.n
    for i, j in cells:
        if matching:
            tags[j] = dp.s[i]
        elif i in pos:
            marks[j] |= 1 << pos[i]
    start = Counter((dp.t[j], marks[j], tags[j]) for j in range(dp.n) if dp.t[j] > 0)
    # level: type multiset -> counts of the ways to place rows 0 .. k-1
    level = {tuple(sorted(start.items())): [1] + [0] * (width - 1)}
    for k, need in enumerate(degs):
        same = degs[k:].count(need)  # pending rows of this degree
        nxt: dict = {}
        for state, ways in level.items():
            state = _untag_one(state, need, same, 1 << k)
            for picks, weight, used in _spreads(state, need, 1 << k, width):
                child = _next_state(state, picks, 1 << k)
                acc = nxt.get(child)
                if acc is None:
                    acc = nxt[child] = [0] * width
                for f in range(width - used):
                    acc[f + used] += weight * ways[f]
        level = nxt
    return level.get((), [0] * width)


def _untag_one(state: tuple, need: int, same: int, bit: int) -> tuple:
    """The state with the placed row's own column forbidden to it, if present.

    `same` rows of degree `need` are pending, the placed row among them.
    When every one of them still has its column, one column of the first
    class tagged `need` becomes a class of its own with the row's bit and
    tag 0; otherwise the state is returned as it is.
    """
    tagged = sum(size for (_, _, tag), size in state if tag == need)
    if tagged < same:
        return state
    i = next(i for i, ((_, _, tag), _) in enumerate(state) if tag == need)
    (resid, mask, _), size = state[i]
    rest = (((resid, mask, need), size - 1),) if size > 1 else ()
    return state[:i] + (((resid, mask | bit, 0), 1),) + rest + state[i + 1 :]


def _spreads(
    state: tuple, need: int, bit: int, width: int
) -> Iterator[tuple[list[int], int, int]]:
    """Ways for a row of degree `need` to take its columns from the classes.

    Yields (picks, weight, used): picks[i] columns of class i, chosen in
    weight ways, of which `used` carry the row's bit; used stays below
    width.  picks is one list, updated in place between yields.
    """
    picks = [0] * len(state)
    # room[i] = number of columns in classes i, i+1, ...
    room = list(
        itertools.accumulate((size for _, size in reversed(state)), initial=0)
    )[::-1]

    def rec(first: int, left: int, weight: int, used: int):
        # one level per class that takes columns, so the depth stays
        # within the row's degree
        if left == 0:
            yield picks, weight, used
            return
        for i in range(first, len(state)):
            if room[i] < left:
                return
            (_, mask, _), size = state[i]
            marked = 1 if mask & bit else 0
            top = min(size, left, width - 1 - used if marked else size)
            for a in range(1, top + 1):
                picks[i] = a
                yield from rec(
                    i + 1, left - a, weight * math.comb(size, a), used + marked * a
                )
            picks[i] = 0

    return rec(0, need, 1, 0)


def _next_state(state: tuple, picks: Sequence[int], bit: int) -> tuple:
    """The type multiset after the row with `bit` took picks[i] of class i."""
    out: dict = {}
    for ((resid, mask, tag), size), a in zip(state, picks):
        mask &= ~bit
        if a and resid > 1:
            typ = (resid - 1, mask, tag)
            out[typ] = out.get(typ, 0) + a
        if size > a:
            typ = (resid, mask, tag)
            out[typ] = out.get(typ, 0) + size - a
    return tuple(sorted(out.items()))


def _meetings(
    rest: tuple, out: int, inn: int
) -> Iterator[tuple[list[int], list[int], int]]:
    """Ways for a vertex owing `out` arcs and `inn` arcs to meet `rest` once each.

    rest is a multiset of residual (out, in) types.  Each of its vertices
    gets no arc, an arc from the taken vertex or an arc to it.  Yields
    (heads, tails, weight): heads[i] vertices of class i get an arc from
    it and tails[i] send one to it, chosen in weight ways.  Both lists are
    updated in place between yields.
    """
    heads = [0] * len(rest)
    tails = [0] * len(rest)
    # room[i] = number of vertices in classes i, i+1, ...
    room = list(
        itertools.accumulate((size for _, size in reversed(rest)), initial=0)
    )[::-1]

    def rec(i: int, out: int, inn: int, weight: int):
        if out + inn == 0:
            yield heads, tails, weight
            return
        if room[i] < out + inn:
            return
        (p, q), size = rest[i]
        for a in range(min(size, out) + 1 if q else 1):
            heads[i] = a
            for b in range(min(size - a, inn) + 1 if p else 1):
                tails[i] = b
                yield from rec(
                    i + 1,
                    out - a,
                    inn - b,
                    weight * math.comb(size, a) * math.comb(size - a, b),
                )
        heads[i] = tails[i] = 0

    return rec(0, out, inn, 1)


def count_bipartite(
    dp: DegreePair,
    x: ForbiddenGraph | None = None,
    *,
    budget_s: int = DEFAULT_EDGE_BUDGET,
) -> int:
    """Number of simple bipartite graphs with degrees (s, t) avoiding x.

    Infeasible pairs count zero; they are not an error.
    """
    _check_budget(dp.total, budget_s, "edge count S")
    if x is not None:
        x._check_shape(dp)
    return _margin_count(dp, x, 1)[0]


def count_bipartite_stratified(
    dp: DegreePair,
    x: ForbiddenGraph,
    *,
    budget_s: int = DEFAULT_EDGE_BUDGET,
) -> list[int]:
    """Counts of realisations using exactly f edges of x, for f = 0 .. |x|.

    The strata sum to the unconstrained count, and stratum 0 equals
    count_bipartite(dp, x).
    """
    _check_budget(dp.total, budget_s, "edge count S")
    x._check_shape(dp)
    return _margin_count(dp, x, x.size + 1)


def count_loopfree(dp: DegreePair, *, budget_s: int = DEFAULT_EDGE_BUDGET) -> int:
    """Number of loop-free digraph realisations of a square pair.

    The diagonal runs on degree tags (see _margin_count), so the time is
    polynomial in n for bounded degrees.
    """
    if not dp.is_square:
        raise SquareOnlyError("loop-free counting requires m == n")
    return count_bipartite(dp, ForbiddenGraph.diagonal(dp.n), budget_s=budget_s)


def count_oriented(dp: DegreePair, *, budget_s: int = DEFAULT_EDGE_BUDGET) -> int:
    """Number of orientations: loop-free digraphs with no 2-cycles.

    Vertex elimination over the multiset of residual (out, in) types of the
    pending vertices: a vertex of the least residual degree leaves and
    meets every other pending vertex once (_meetings), and equal states
    merge.  With bounded degrees the time is polynomial in n.
    """
    if not dp.is_square:
        raise SquareOnlyError("oriented counting requires m == n")
    _check_budget(dp.total, budget_s, "edge count S")
    start = Counter(typ for typ in zip(dp.s, dp.t) if typ != (0, 0))
    level = {tuple(sorted(start.items())): 1}
    done = 0
    while level:
        nxt: dict = {}
        for state, ways in level.items():
            if not state:
                done += ways
                continue
            # the first class of least out + in; the first class in (out, in)
            # order took 3.5 times as long on regular 11x11 with d=3
            i = min(range(len(state)), key=lambda i: sum(state[i][0]))
            ((out, inn), size), rest = state[i], state[:i] + state[i + 1 :]
            if size > 1:
                rest += (((out, inn), size - 1),)
            for heads, tails, weight in _meetings(rest, out, inn):
                types: dict = {}
                for ((p, q), size), a, b in zip(rest, heads, tails):
                    # p + q > 1: a vertex left with no arcs to make drops out
                    for typ, c in (((p, q - 1), a), ((p - 1, q), b)):
                        if c and p + q > 1:
                            types[typ] = types.get(typ, 0) + c
                    if size > a + b:
                        types[p, q] = types.get((p, q), 0) + size - a - b
                child = tuple(sorted(types.items()))
                nxt[child] = nxt.get(child, 0) + weight * ways
        level = nxt
    return done


def graph_to_matrix(g: BipartiteGraph) -> list[list[int]]:
    """0-1 biadjacency matrix of a bipartite graph."""
    mat = [[0] * g.n for _ in range(g.m)]
    for i, j in g.edges:
        mat[i][j] = 1
    return mat


def ryser_permanent(matrix: Sequence[Sequence[int]], *, budget_n: int = 24) -> int:
    """Permanent by Ryser's inclusion-exclusion over column subsets.

    Gray-code order updates one column per step, so the whole run does
    O(n 2^n) integer work.  Exact for integer matrices.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise DomainError("permanent needs a non-empty square matrix")
    _check_budget(n, budget_n, "matrix order n")
    sums = [0] * n
    total = 0
    parity = 1  # (-1)^{|S|} for the current subset
    included = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        bit = 1 << j
        if included & bit:
            included ^= bit
            for i in range(n):
                sums[i] -= matrix[i][j]
            parity = -parity
        else:
            included |= bit
            for i in range(n):
                sums[i] += matrix[i][j]
            parity = -parity
        term = 1
        for v in sums:
            if v == 0:
                term = 0
                break
            term *= v
        if term:
            total += parity * term
    return total if n % 2 == 0 else -total


def exact_expected_permanent(
    dp: DegreePair, *, budget_s: int = DEFAULT_EDGE_BUDGET
) -> Fraction:
    """Mean permanent over all 0-1 matrices with the given margins."""
    if not dp.is_square:
        raise SquareOnlyError("expected permanent requires m == n")
    total = 0
    count = 0
    for g in enumerate_bipartite(dp, budget_s=budget_s):
        total += ryser_permanent(graph_to_matrix(g))
        count += 1
    if count == 0:
        raise DomainError("no matrix realises the margins; expectation undefined")
    return Fraction(total, count)


def expected_permanent_transversal_sum(
    dp: DegreePair, *, budget_s: int = DEFAULT_EDGE_BUDGET
) -> Fraction:
    """Second route to the expected permanent, via transversal pinning.

    E[per] = sum over permutations sigma of P(all cells (i, sigma(i)) are 1),
    and each pinning probability is a ratio of two exact counts with the
    pinned cells removed from the margins and forbidden thereafter.
    """
    if not dp.is_square:
        raise SquareOnlyError("expected permanent requires m == n")
    n = dp.n
    base = count_bipartite(dp, budget_s=budget_s)
    if base == 0:
        raise DomainError("no matrix realises the margins; expectation undefined")
    if min(dp.s) == 0 or min(dp.t) == 0:
        return Fraction(0)
    reduced = dp.reduced_by((1,) * n, (1,) * n)
    total = 0
    for perm in itertools.permutations(range(n)):
        pinned = ForbiddenGraph(n, n, ((i, perm[i]) for i in range(n)))
        total += count_bipartite(reduced, pinned, budget_s=budget_s)
    return Fraction(total, base)


def count_partial_matchings(
    holes: BipartiteGraph, *, budget_n: int = 14
) -> list[int]:
    """p_k = number of k-subsets of `holes` with no shared row or column.

    Bitmask dynamic programme over columns; index k runs 0 .. n.
    """
    if holes.m != holes.n:
        raise SquareOnlyError("hole pattern must be square")
    n = holes.n
    _check_budget(n, budget_n, "matrix order n")
    by_row: list[list[int]] = [[] for _ in range(n)]
    for i, j in holes.edges:
        by_row[i].append(j)
    for cols in by_row:
        cols.sort()
    # f[mask] = number of ways the rows processed so far match exactly the
    # columns in mask.
    f = {0: 1}
    for i in range(n):
        if not by_row[i]:
            continue
        nxt = dict(f)
        for mask, ways in f.items():
            for j in by_row[i]:
                bit = 1 << j
                if not mask & bit:
                    key = mask | bit
                    nxt[key] = nxt.get(key, 0) + ways
        f = nxt
    p = [0] * (n + 1)
    for mask, ways in f.items():
        p[mask.bit_count()] += ways
    return p


def _edges_and_degrees(
    n: int, edges: Iterable[tuple[int, int]], budget_edges: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """The sorted (i, j), i < j, edge list of a simple graph and its degrees."""
    if n < 0:
        raise DegreeSequenceError(f"vertex count {n} is negative")
    out = set()
    for e in edges:
        if len(e) != 2:
            raise DegreeSequenceError(f"edge {e!r} is not a pair")
        i, j = e
        if not (0 <= i < n and 0 <= j < n):
            raise DegreeSequenceError(f"edge ({i}, {j}) outside [0, {n})")
        if i == j:
            raise DegreeSequenceError(f"undirected graph may not contain loop ({i}, {i})")
        out.add((min(i, j), max(i, j)))
    edge_list = sorted(out)
    _check_budget(len(edge_list), budget_edges, "edge count")
    deg = [0] * n
    for i, j in edge_list:
        deg[i] += 1
        deg[j] += 1
    return edge_list, deg


def _count_orientations(
    edge_list: Sequence[tuple[int, int]], deg: Sequence[int], target: Sequence[int]
) -> int:
    """Orientations of a normalised edge list where out_v - in_v = target_v.

    A DP over vertices in index order; a state holds each vertex's in-arcs from
    earlier ones.  Vertex v sends (deg_v + target_v)/2 - earlier_v + state[v]
    arcs to its later neighbours, in every way; equal states merge.  A state
    that gives a vertex more in-arcs than its in-degree (deg_u - target_u)/2
    is dropped when it is made."""
    if any((dv + t) % 2 or abs(t) > dv for t, dv in zip(target, deg)):
        return 0
    indeg = [(dv - t) // 2 for t, dv in zip(target, deg)]
    later: list[list[int]] = [[] for _ in deg]
    for i, j in edge_list:
        later[i].append(j)
    f = {(0,) * len(deg): 1}
    for v, nbrs in enumerate(later):
        owed = (deg[v] + target[v]) // 2 - deg[v] + len(nbrs)
        nxt: dict[tuple[int, ...], int] = {}
        for state, ways in f.items():
            # state[v] <= indeg[v], so v never owes more than len(nbrs) arcs
            if owed + state[v] < 0:
                continue
            base = list(state)
            base[v] = 0
            for chosen in itertools.combinations(nbrs, owed + state[v]):
                new = base[:]
                for u in chosen:
                    new[u] += 1
                    if new[u] > indeg[u]:
                        break
                else:
                    key = tuple(new)
                    nxt[key] = nxt.get(key, 0) + ways
        f = nxt
    return sum(f.values())


def count_orientations_with_degrees(
    n: int,
    edges: Iterable[tuple[int, int]],
    delta: Sequence[int],
    *,
    budget_edges: int = 28,
) -> int:
    """Orientations of an undirected simple graph with out-degree d_v/2 + delta_v.

    delta must be an integer vector and every target d_v/2 + delta_v must be
    an integer, i.e. all degrees even; otherwise the target is rejected.
    Out-of-range targets simply count zero.
    """
    edge_list, deg = _edges_and_degrees(n, edges, budget_edges)
    if len(delta) != n:
        raise DegreeSequenceError("delta length must equal n")
    for v in delta:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParityError(f"delta entries must be integers, got {v!r}")
    for v in range(n):
        if deg[v] % 2:
            raise ParityError(
                f"vertex {v} has odd degree {deg[v]}; target out-degree "
                "d/2 + delta is not an integer"
            )
    # balance target: out_v - in_v must finish at 2 delta_v
    return _count_orientations(edge_list, deg, [2 * dv for dv in delta])


def count_eulerian_orientations(
    n: int, edges: Iterable[tuple[int, int]], *, budget_edges: int = 28
) -> int:
    """Orientations with out-degree = in-degree at every vertex.

    A vertex of odd degree admits none, so such graphs count zero rather
    than raising.
    """
    edge_list, deg = _edges_and_degrees(n, edges, budget_edges)
    if any(d % 2 for d in deg):
        return 0
    return _count_orientations(edge_list, deg, [0] * n)


def count_undirected(d: Sequence[int], *, budget_sum: int = DEFAULT_EDGE_BUDGET) -> int:
    """Number of simple undirected graphs with degree sequence d.

    Infeasible sequences, odd sums among them, count zero.  The steps of
    _margin_count on the multiset of residual degrees, as types (resid, 0,
    0): a vertex of largest residual leaves and spreads it over the rest.
    """
    if any((not isinstance(v, int)) or isinstance(v, bool) or v < 0 for v in d):
        raise DegreeSequenceError("degrees must be non-negative integers")
    total = sum(d)
    _check_budget(total, budget_sum, "degree sum")
    if total % 2:
        return 0
    start = Counter((v, 0, 0) for v in d if v > 0)
    level = {tuple(sorted(start.items())): 1}
    done = 0
    while level:
        nxt: dict = {}
        for state, ways in level.items():
            if not state:
                done += ways
                continue
            # types sort by residual, so the last class holds the largest
            typ, size = state[-1]
            rest = state[:-1] + (((typ, size - 1),) if size > 1 else ())
            for picks, weight, _ in _spreads(rest, typ[0], 1, 1):
                child = _next_state(rest, picks, 1)
                nxt[child] = nxt.get(child, 0) + weight * ways
        level = nxt
    return done


def permutation_moment_oracle(
    u: Sequence[float], v: Sequence[float], *, budget_n: int = 9
) -> tuple[float, float, float]:
    """Exhaustive mean, variance and exp-moment of Psi(sigma) = sum u_k v_{sigma(k)}.

    The mean and variance are accumulated in exact rational arithmetic (every
    float is a rational) and rounded only on return; the exponential moment
    is a plain float average.
    """
    n = len(u)
    if len(v) != n or n == 0:
        raise DomainError("u and v must be equal-length, non-empty")
    _check_budget(n, budget_n, "sequence length n")
    uf = [Fraction(x) for x in u]
    vf = [Fraction(x) for x in v]
    total = Fraction(0)
    total_sq = Fraction(0)
    total_exp = 0.0
    count = math.factorial(n)
    for perm in itertools.permutations(range(n)):
        psi = sum((uf[k] * vf[perm[k]] for k in range(n)), Fraction(0))
        total += psi
        total_sq += psi * psi
        total_exp += math.exp(float(psi))
    mean = total / count
    var = total_sq / count - mean * mean
    return float(mean), float(var), total_exp / count
