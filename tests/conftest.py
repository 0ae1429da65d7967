"""Shared brute-force helpers.

Everything here is deliberately naive and independent of the library's own
enumeration strategy, so tests can cross-check two implementations.
"""

import itertools

from hypothesis import strategies as st

from degcensus import BipartiteGraph, DegreePair


def brute_bipartite(s, t):
    """Every simple bipartite graph with the given margins, by raw product.

    Chooses each row's column subset independently, then filters on the
    column sums.  Exponential; keep sum(s) small.
    """
    m, n = len(s), len(t)
    row_choices = [list(itertools.combinations(range(n), si)) for si in s]
    out = []
    for rows in itertools.product(*row_choices):
        cols = [0] * n
        for chosen in rows:
            for j in chosen:
                cols[j] += 1
        if cols == list(t):
            edges = [(i, j) for i, chosen in enumerate(rows) for j in chosen]
            out.append(BipartiteGraph(m, n, edges))
    return out


def brute_undirected(d):
    """Every simple graph with degree sequence d, as a set of (i, j), i < j.

    Takes sets of sum(d)/2 vertex pairs in lexicographic order and keeps
    those whose degrees are d; a pair that would overfill an endpoint is
    skipped.  Exponential; keep sum(d) small.
    """
    pairs = list(itertools.combinations(range(len(d)), 2))
    room = list(d)
    chosen = []
    out = []

    def rec(first, left):
        if left == 0:
            if not any(room):
                out.append(frozenset(chosen))
            return
        for k in range(first, len(pairs) - left + 1):
            i, j = pairs[k]
            if room[i] and room[j]:
                room[i] -= 1
                room[j] -= 1
                chosen.append((i, j))
                rec(k + 1, left - 1)
                chosen.pop()
                room[i] += 1
                room[j] += 1

    if sum(d) % 2 == 0:
        rec(0, sum(d) // 2)
    return out


def brute_oriented(s, t):
    """Number of oriented graphs with out-degrees s and in-degrees t.

    Rows take their out-neighbour sets in index order; a loop, a column past
    its in-degree or an arc back to an earlier row ends the branch.
    Exponential; keep sum(s) small.
    """
    n = len(s)
    room = list(t)
    arcs = set()

    def rec(i):
        if i == n:
            return int(not any(room))
        total = 0
        for chosen in itertools.combinations(range(n), s[i]):
            if i in chosen or any(not room[j] or (j, i) in arcs for j in chosen):
                continue
            for j in chosen:
                room[j] -= 1
                arcs.add((i, j))
            total += rec(i + 1)
            for j in chosen:
                room[j] += 1
                arcs.discard((i, j))
        return total

    return rec(0)


def brute_orientations(n, edges, target):
    """Orientations of a simple graph with out_v - in_v = target_v at every v.

    Tries all 2^|E| orientations.  Exponential; keep the edge count small.
    """
    total = 0
    for heads in itertools.product((0, 1), repeat=len(edges)):
        balance = [0] * n
        for (i, j), h in zip(edges, heads):
            tail, head = (i, j) if h else (j, i)
            balance[tail] += 1
            balance[head] -= 1
        total += balance == list(target)
    return total


def brute_permanent(matrix):
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= matrix[i][j]
        total += prod
    return total


@st.composite
def bipartite_graphs(draw, max_side=4, max_edges=None):
    """A random simple bipartite graph; its margins give a valid DegreePair."""
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))
    cells = [(i, j) for i in range(m) for j in range(n)]
    edges = draw(
        st.lists(st.sampled_from(cells), unique=True, max_size=max_edges or m * n)
    )
    return BipartiteGraph(m, n, edges)


@st.composite
def degree_pairs(draw, max_side=4):
    g = draw(bipartite_graphs(max_side=max_side))
    return g.degree_pair()


@st.composite
def square_graphs(draw, max_side=4, loop_free=False):
    n = draw(st.integers(2, max_side))
    cells = [
        (i, j) for i in range(n) for j in range(n) if not (loop_free and i == j)
    ]
    edges = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    return BipartiteGraph(n, n, edges)


@st.composite
def oriented_graphs(draw, max_side=6):
    """A random oriented graph (no loops, no 2-cycles) as a square graph."""
    n = draw(st.integers(2, max_side))
    arcs = []
    for i, j in itertools.combinations(range(n), 2):
        arc = draw(st.sampled_from((None, (i, j), (j, i))))
        if arc:
            arcs.append(arc)
    return BipartiteGraph(n, n, arcs)


def degrees_of(edges, m, n):
    s = [0] * m
    t = [0] * n
    for i, j in edges:
        s[i] += 1
        t[j] += 1
    return DegreePair(s, t)
