"""Exact values computed apart from degcensus, for checking its outputs.

Nothing here imports degcensus.  The counters use other algorithms than the
program's oracles: closed forms and recurrences for the regular families, and
for irregular pairs a recursion over *vertex types* (a vertex's residual
degrees), which branches over classes of equal type with binomial weights
instead of over individual neighbour sets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations


# ---------------------------------------------------------------------------
# closed forms and recurrences (OEIS numbers in the names)
# ---------------------------------------------------------------------------


def derangements(n: int) -> int:
    """Permutations of n points with no fixed point."""
    a, b = 1, 0  # D(0), D(1)
    if n == 0:
        return a
    for k in range(2, n + 1):
        a, b = b, (k - 1) * (a + b)
    return b


def a038205(n: int) -> int:
    """Permutations of n points whose cycles all have length >= 3.

    a(n) = (n-1) a(n-1) + (n-1)(n-2) a(n-3), a(0) = 1, a(1) = a(2) = 0.
    """
    a = [1, 0, 0]
    for k in range(3, n + 1):
        a.append((k - 1) * a[k - 1] + (k - 1) * (k - 2) * a[k - 3])
    return a[n]


def a001205(n: int) -> int:
    """Labelled 2-regular simple graphs on n vertices.

    a(n) = (n-1) a(n-1) + (n-1)(n-2) a(n-3) / 2, a(0) = 1, a(1) = a(2) = 0.
    """
    a = [1, 0, 0]
    for k in range(3, n + 1):
        a.append((k - 1) * a[k - 1] + (k - 1) * (k - 2) * a[k - 3] // 2)
    return a[n]


def a001499(n: int) -> int:
    """n x n 0-1 matrices with exactly two 1s in every row and column.

    a(n) = sum_k (-1)^k n!^2 (2n-2k)! / (k! (n-k)!^2 2^(2n-k)).
    """
    total = Fraction(0)
    f = math.factorial
    for k in range(n + 1):
        total += Fraction(
            (-1) ** k * f(n) ** 2 * f(2 * n - 2 * k),
            f(k) * f(n - k) ** 2 * 2 ** (2 * n - k),
        )
    if total.denominator != 1:
        raise ArithmeticError(f"A001499({n}) sum is not an integer: {total}")
    return total.numerator


# ---------------------------------------------------------------------------
# type recursions for irregular pairs
# ---------------------------------------------------------------------------


def _split(groups, need, options):
    """Ways to hand `need` units to vertex classes.

    groups: list of (type, multiplicity).  options(type) lists the
    (used_units, new_type) moves one vertex of that type can make, the stay
    move (0, type) included.  Yields (weight, new_types) with new_types a
    list of (type, count) and used units summing to `need`.
    """
    if not groups:
        if need == tuple(0 for _ in need):
            yield 1, []
        return
    (typ, mult), rest = groups[0], groups[1:]
    moves = options(typ)

    def spread(k, left, used, weight, out):
        # distribute `left` vertices of this class over moves[k:]
        if k == len(moves) - 1:
            use, new = moves[k]
            total = tuple(u + left * x for u, x in zip(used, use))
            if all(a <= b for a, b in zip(total, need)):
                yield weight, out + [(new, left)], total
            return
        use, new = moves[k]
        for c in range(left + 1):
            total = tuple(u + c * x for u, x in zip(used, use))
            if any(a > b for a, b in zip(total, need)):
                break
            yield from spread(
                k + 1, left - c, total, weight * math.comb(left, c),
                out + [(new, c)],
            )

    zero = tuple(0 for _ in need)
    for weight, placed, used in spread(0, mult, zero, 1, []):
        rem = tuple(b - a for a, b in zip(used, need))
        for w2, more in _split(rest, rem, options):
            yield weight * w2, placed + more


def _multiset(items) -> tuple:
    counts: dict = {}
    for typ, c in items:
        if c and typ != (0,) * len(typ):
            counts[typ] = counts.get(typ, 0) + c
    return tuple(sorted(counts.items()))


@lru_cache(maxsize=None)
def _bipartite_rows(rows: tuple[int, ...], cols: tuple) -> int:
    if not rows:
        return 1 if not cols else 0
    need, rest = rows[0], rows[1:]

    def options(typ):
        (v,) = typ
        return [((0,), typ), ((1,), (v - 1,))]

    total = 0
    for weight, new in _split(list(cols), (need,), options):
        total += weight * _bipartite_rows(rest, _multiset(new))
    return total


def bipartite_count(s, t) -> int:
    """Simple bipartite graphs with row degrees s and column degrees t."""
    if sum(s) != sum(t):
        return 0
    rows = tuple(sorted((v for v in s if v), reverse=True))
    return _bipartite_rows(rows, _multiset(((v,), 1) for v in t))


@lru_cache(maxsize=None)
def _digraph(types: tuple, two_cycles: bool) -> int:
    if not types:
        return 1
    # the first vertex of the first class meets every other vertex once
    (typ, mult), rest = types[0], list(types[1:])
    if mult > 1:
        rest = [(typ, mult - 1)] + rest
    out_need, in_need = typ

    def options(u):
        a, b = u  # u's residual out, in
        moves = [((0, 0), u)]
        if b:
            moves.append(((1, 0), (a, b - 1)))  # v -> u
        if a:
            moves.append(((0, 1), (a - 1, b)))  # u -> v
        if two_cycles and a and b:
            moves.append(((1, 1), (a - 1, b - 1)))
        return moves

    total = 0
    for weight, new in _split(rest, (out_need, in_need), options):
        total += weight * _digraph(_multiset(new), two_cycles)
    return total


def loopfree_count(s, t) -> int:
    """Digraphs without loops with out-degrees s and in-degrees t."""
    return _digraph(_multiset(((a, b), 1) for a, b in zip(s, t)), True)


def oriented_count(s, t) -> int:
    """Digraphs with no loop and no 2-cycle, out-degrees s, in-degrees t."""
    return _digraph(_multiset(((a, b), 1) for a, b in zip(s, t)), False)


def strata(s, t, cells) -> list[int]:
    """Counts of (s, t) realisations using exactly f of `cells`, f = 0..|cells|.

    Column-by-column recursion over the row residuals, with a polynomial
    weight in the number of marked cells used.
    """
    m, n = len(s), len(t)
    marked = [frozenset(i for i, j in cells if j == col) for col in range(n)]
    width = len(set(cells)) + 1

    @lru_cache(maxsize=None)
    def rec(col: int, resid: tuple[int, ...]) -> tuple[int, ...]:
        if col == n:
            return (1,) + (0,) * (width - 1) if not any(resid) else (0,) * width
        acc = [0] * width
        live = [i for i in range(m) if resid[i]]
        for rows in combinations(live, t[col]):
            nxt = list(resid)
            for i in rows:
                nxt[i] -= 1
            used = sum(1 for i in rows if i in marked[col])
            child = rec(col + 1, tuple(nxt))
            for f in range(width - used):
                acc[f + used] += child[f]
        return tuple(acc)

    out = list(rec(0, tuple(s)))
    rec.cache_clear()
    return out


# ---------------------------------------------------------------------------
# undirected graphs and their orientations
# ---------------------------------------------------------------------------


def simple_graphs(d) -> list[tuple[tuple[int, int], ...]]:
    """Every simple graph with degree sequence d, as sorted edge tuples."""
    n = len(d)
    resid = list(d)
    edges: list[tuple[int, int]] = []
    out = []

    def rec(v: int) -> None:
        while v < n and resid[v] == 0:
            v += 1
        if v == n:
            out.append(tuple(sorted(edges)))
            return
        cands = [u for u in range(v + 1, n) if resid[u]]
        need = resid[v]
        resid[v] = 0
        for chosen in combinations(cands, need):
            for u in chosen:
                resid[u] -= 1
                edges.append((v, u))
            rec(v + 1)
            for u in chosen:
                resid[u] += 1
                edges.pop()
        resid[v] = need

    if sum(d) % 2 == 0:
        rec(0)
    return out


def orientations(n: int, edges, out_degree) -> int:
    """Orientations of a simple graph giving vertex v out-degree out_degree[v]."""
    edges = list(edges)
    last = {}
    for k, (u, v) in enumerate(edges):
        last[u] = last[v] = k

    @lru_cache(maxsize=None)
    def rec(k: int, need: tuple[int, ...]) -> int:
        if k == len(edges):
            return 1 if not any(need) else 0
        u, v = edges[k]
        total = 0
        for tail in (u, v):
            if need[tail]:
                nxt = list(need)
                nxt[tail] -= 1
                # a vertex whose last edge this is must be finished
                if (last[u] == k and nxt[u]) or (last[v] == k and nxt[v]):
                    continue
                total += rec(k + 1, tuple(nxt))
        return total

    return rec(0, tuple(out_degree))


def orientation_moments(d, delta) -> tuple[Fraction, Fraction]:
    """Mean and variance, over uniform simple graphs with degrees d, of the
    number of orientations giving vertex v out-degree d_v/2 + delta_v."""
    n = len(d)
    target = [dv // 2 + dl for dv, dl in zip(d, delta)]
    counts = [orientations(n, g, target) for g in simple_graphs(d)]
    mean = Fraction(sum(counts), len(counts))
    var = Fraction(sum(c * c for c in counts), len(counts)) - mean * mean
    return mean, var


def eulerian_sum(d) -> int:
    """Sum of Eulerian orientations over every simple graph with degrees d."""
    half = [v // 2 for v in d]
    return sum(orientations(len(d), g, half) for g in simple_graphs(d))


# ---------------------------------------------------------------------------
# closed-form estimate pieces
# ---------------------------------------------------------------------------


def log_factorial(k: int) -> float:
    return math.lgamma(k + 1)


def log_binomial(a: int, b: int) -> float:
    return log_factorial(a) - log_factorial(b) - log_factorial(a - b)


def bipartite_prefactor(s, t) -> float:
    """log of the pairing-model count S! / (prod s_i! prod t_j!)."""
    return (
        log_factorial(sum(s))
        - sum(log_factorial(v) for v in s)
        - sum(log_factorial(v) for v in t)
    )


def undirected_prefactor(d) -> Fraction:
    """Pairing-model count D! / ((D/2)! 2^(D/2) prod d_i!), exactly."""
    big_d = sum(d)
    denom = math.factorial(big_d // 2) * 2 ** (big_d // 2)
    for v in d:
        denom *= math.factorial(v)
    return Fraction(math.factorial(big_d), denom)


def orientation_prefactor(d, delta) -> float:
    big_d = sum(d)
    return (
        (big_d / 2) * math.log(2)
        - log_binomial(big_d, big_d // 2)
        + sum(log_binomial(dv, dv // 2 + dl) for dv, dl in zip(d, delta))
    )
