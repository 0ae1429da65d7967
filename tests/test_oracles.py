"""Exhaustive counters against independent brute force."""

import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from degcensus import oracles
from degcensus import (
    BipartiteGraph,
    BudgetError,
    DegreePair,
    DegreeSequenceError,
    DomainError,
    ForbiddenGraph,
    ParityError,
    SquareOnlyError,
    count_bipartite,
    count_bipartite_stratified,
    count_eulerian_orientations,
    count_loopfree,
    count_orientations_with_degrees,
    count_oriented,
    count_partial_matchings,
    count_undirected,
    enumerate_bipartite,
    exact_expected_permanent,
    expected_permanent_transversal_sum,
    graph_to_matrix,
    permutation_moment_oracle,
    ryser_permanent,
)

from conftest import (
    bipartite_graphs,
    brute_bipartite,
    brute_orientations,
    brute_oriented,
    brute_permanent,
    brute_undirected,
    degree_pairs,
    oriented_graphs,
    square_graphs,
)

C4_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3)]


class TestCountBipartite:
    def test_tiny_examples(self):
        assert count_bipartite(DegreePair((1, 1), (1, 1))) == 2
        x = ForbiddenGraph(2, 2, [(0, 0)])
        assert count_bipartite(DegreePair((1, 1), (1, 1)), x) == 1
        assert count_bipartite(DegreePair((2, 2), (2, 2))) == 1

    def test_infeasible_margins_count_zero(self):
        assert count_bipartite(DegreePair((3, 1), (2, 2))) == 0

    @given(degree_pairs(max_side=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, dp):
        assert count_bipartite(dp) == len(brute_bipartite(dp.s, dp.t))

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            count_bipartite(DegreePair.regular(30, 1))
        # explicit budget override works both ways
        assert count_bipartite(DegreePair.regular(3, 1), budget_s=3) == 6
        with pytest.raises(BudgetError):
            count_bipartite(DegreePair.regular(3, 1), budget_s=2)

    def test_pinned_regular_values(self):
        # exact values from an independent row-by-row backtracker
        assert count_bipartite(DegreePair.regular(8, 3)) == 24046189440
        assert count_loopfree(DegreePair.regular(8, 3)) == 749649145
        assert count_oriented(DegreePair.regular(7, 2)) == 27900

    def test_enumeration_is_deterministic(self):
        dp = DegreePair((2, 1, 1), (2, 1, 1))
        first = [g.sorted_edges() for g in enumerate_bipartite(dp)]
        second = [g.sorted_edges() for g in enumerate_bipartite(dp)]
        assert first == second
        assert len(first) == len(set(first))

    @given(degree_pairs(max_side=4), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_enumeration_matches_brute_force(self, dp, rnd):
        cells = [(i, j) for i in range(dp.m) for j in range(dp.n)]
        x = ForbiddenGraph(dp.m, dp.n, rnd.sample(cells, min(3, len(cells))))
        got = [g.sorted_edges() for g in enumerate_bipartite(dp, x)]
        want = [
            g.sorted_edges()
            for g in brute_bipartite(dp.s, dp.t)
            if g.overlap(x) == 0
        ]
        assert len(got) == len(set(got))
        assert sorted(got) == sorted(want)


class TestStratifiedCounts:
    def test_fixed_point_strata_of_permutations(self):
        dp = DegreePair.regular(3, 1)
        strata = count_bipartite_stratified(dp, ForbiddenGraph.diagonal(3))
        assert strata == [2, 3, 0, 1]
        # two cells in one column or one row are no matching: mask bits
        for cells in ([(0, 0), (1, 0)], [(0, 0), (0, 1)]):
            x = ForbiddenGraph(3, 3, cells)
            assert count_bipartite_stratified(dp, x) == [2, 4, 0]

    def test_empty_forbidden_set(self):
        dp = DegreePair((2, 1, 1), (1, 2, 1))
        strata = count_bipartite_stratified(dp, ForbiddenGraph.empty(3, 3))
        assert strata == [count_bipartite(dp)]

    def test_two_regular_diagonal_sum(self):
        dp = DegreePair((2, 2, 2), (2, 2, 2))
        strata = count_bipartite_stratified(dp, ForbiddenGraph.diagonal(3))
        assert sum(strata) == count_bipartite(dp) == 6

    @given(degree_pairs(max_side=4), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_sum_and_zeroth_stratum(self, dp, rnd):
        cells = [(i, j) for i in range(dp.m) for j in range(dp.n)]
        x = ForbiddenGraph(dp.m, dp.n, rnd.sample(cells, min(3, len(cells))))
        strata = count_bipartite_stratified(dp, x)
        assert len(strata) == x.size + 1
        assert sum(strata) == count_bipartite(dp)
        assert strata[0] == count_bipartite(dp, x)
        by_overlap = [0] * (x.size + 1)
        for g in brute_bipartite(dp.s, dp.t):
            by_overlap[g.overlap(x)] += 1
        assert strata == by_overlap

    @given(bipartite_graphs(max_side=6, max_edges=12), st.data())
    @settings(max_examples=30, deadline=None)
    def test_partial_matchings_match_enumeration(self, g, data):
        # x has at most one cell per row and per column, so its cells ride
        # on degree tags at every width and on rectangular pairs
        dp = g.degree_pair()
        rows = data.draw(st.permutations(range(dp.m)))
        cols = data.draw(st.permutations(range(dp.n)))
        size = data.draw(st.integers(0, min(dp.m, dp.n)))
        x = ForbiddenGraph(dp.m, dp.n, zip(rows[:size], cols[:size]))
        by_overlap = [0] * (size + 1)
        for h in enumerate_bipartite(dp):
            by_overlap[h.overlap(x)] += 1
        assert count_bipartite_stratified(dp, x) == by_overlap
        assert count_bipartite(dp, x) == by_overlap[0]

    def test_pinned_diagonal_strata_in_polynomial_time(self):
        # with one mask bit per diagonal cell this took over 10 s
        start = time.perf_counter()
        strata = count_bipartite_stratified(
            DegreePair.regular(10, 3), ForbiddenGraph.diagonal(10), budget_s=30
        )
        assert strata == [
            289021136349036, 1079672195911680, 1903363710394860,
            2090130731803680, 1587112982358120, 872850271835808,
            352862120833320, 103701372495840, 21211993979820, 2723721514080,
            166261966956,
        ]
        assert time.perf_counter() - start < 2.0


class TestDigraphCounts:
    def test_derangements_and_oriented(self):
        dp = DegreePair.regular(4, 1)
        assert count_loopfree(dp) == 9
        assert count_oriented(dp) == 6

    def test_swap_is_a_twocycle(self):
        dp = DegreePair.regular(2, 1)
        assert count_loopfree(dp) == 1
        assert count_oriented(dp) == 0

    def test_two_regular_three_vertices(self):
        # only the complement of the identity pattern has zero trace
        dp = DegreePair.regular(3, 2)
        assert count_loopfree(dp) == 1
        assert count_oriented(dp) == 0

    def test_square_only(self):
        with pytest.raises(SquareOnlyError):
            count_loopfree(DegreePair((2,), (1, 1)))
        with pytest.raises(SquareOnlyError):
            count_oriented(DegreePair((2,), (1, 1)))

    # drawing loop-free graphs too keeps most examples off the count 0
    @given(
        st.one_of(square_graphs(max_side=5), square_graphs(max_side=5, loop_free=True))
    )
    @settings(max_examples=40, deadline=None)
    def test_loopfree_matches_filtered_brute_force(self, g):
        dp = g.degree_pair()
        graphs = brute_bipartite(dp.s, dp.t)
        loopfree = [g for g in graphs if g.loop_count() == 0]
        event(f"nonzero loop-free count: {bool(loopfree)}")
        assert count_loopfree(dp, budget_s=dp.total) == len(loopfree)
        assert count_oriented(dp, budget_s=dp.total) == sum(
            1 for g in loopfree if g.twocycle_count() == 0
        )

    @given(
        st.one_of(square_graphs(max_side=6), square_graphs(max_side=6, loop_free=True))
    )
    @settings(max_examples=60, deadline=None)
    def test_diagonal_tags_match_strata(self, g):
        # all three run on the diagonal's degree tags, the strata with the
        # full polynomial in the cells used instead of its constant term
        dp = g.degree_pair()
        diag = ForbiddenGraph.diagonal(dp.n)
        budget = dp.total
        assert (
            count_loopfree(dp, budget_s=budget)
            == count_bipartite(dp, diag, budget_s=budget)
            == count_bipartite_stratified(dp, diag, budget_s=budget)[0]
        )

    def test_pinned_loopfree_values_in_polynomial_time(self):
        # a mask bit per pending diagonal cell gives 2^n states and takes 3 s
        # for 12x12 alone; the bound catches a return to it
        derangements = 1
        for n in range(1, 17):
            derangements = n * derangements + (-1) ** n
        start = time.perf_counter()
        assert count_loopfree(DegreePair.regular(10, 2)) == 166261966956
        assert count_loopfree(DegreePair.regular(12, 2)) == 2714812050902545
        assert count_loopfree(DegreePair.regular(16, 1)) == derangements
        assert derangements == 7697064251745
        assert time.perf_counter() - start < 2.0

    # the drawn oriented graph is itself counted, so no example counts 0
    @given(oriented_graphs(max_side=6))
    @settings(max_examples=60, deadline=None)
    def test_oriented_matches_backtracker(self, g):
        dp = g.degree_pair()
        assert count_oriented(dp, budget_s=dp.total) == brute_oriented(dp.s, dp.t)

    def test_pinned_oriented_values_in_polynomial_time(self):
        # margin states that mark reverse arcs took over 25 s for 11x11 with
        # d=3; 16x16 with d=1 is OEIS A038205
        start = time.perf_counter()
        assert count_oriented(DegreePair.regular(10, 2)) == 15453884376
        assert count_oriented(DegreePair.regular(16, 1)) == 4668504894480
        assert count_oriented(DegreePair.regular(8, 3)) == 728280
        assert (
            count_oriented(DegreePair.regular(11, 3), budget_s=33) == 638387993275200
        )
        assert (
            count_oriented(DegreePair.regular(16, 2), budget_s=32)
            == 505133808398958249480060
        )
        assert time.perf_counter() - start < 2.0


class TestPermanents:
    def test_small_examples(self):
        ones = [[1] * 3 for _ in range(3)]
        assert ryser_permanent(ones) == 6
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert ryser_permanent(eye) == 1
        hollow = [[0 if i == j else 1 for j in range(3)] for i in range(3)]
        assert ryser_permanent(hollow) == 2

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_ryser_equals_naive(self, n, data):
        matrix = [
            [data.draw(st.integers(0, 1)) for _ in range(n)] for _ in range(n)
        ]
        assert ryser_permanent(matrix) == brute_permanent(matrix)

    def test_budgets(self):
        big = [[1] * 9 for _ in range(9)]
        assert ryser_permanent(big) == math.factorial(9)
        with pytest.raises(BudgetError):
            ryser_permanent(big, budget_n=8)

    def test_nonsquare_rejected(self):
        with pytest.raises(DomainError):
            ryser_permanent([[1, 0]])

    def test_graph_to_matrix(self):
        g = BipartiteGraph(2, 2, [(0, 1), (1, 0)])
        assert graph_to_matrix(g) == [[0, 1], [1, 0]]


class TestExpectedPermanent:
    def test_permutation_margins(self):
        for n in (2, 3, 4):
            assert exact_expected_permanent(DegreePair.regular(n, 1)) == 1

    def test_full_margins(self):
        for n in (2, 3, 4):
            dp = DegreePair.regular(n, n)
            assert exact_expected_permanent(dp) == math.factorial(n)

    def test_two_routes_agree(self):
        for dp in (DegreePair((2, 2, 2), (2, 2, 2)), DegreePair.regular(4, 1)):
            a = exact_expected_permanent(dp)
            b = expected_permanent_transversal_sum(dp)
            assert isinstance(a, Fraction)
            assert a == b

    def test_two_regular_value(self):
        assert exact_expected_permanent(DegreePair((2, 2, 2), (2, 2, 2))) == 2

    def test_empty_space_rejected(self):
        with pytest.raises(DomainError):
            exact_expected_permanent(DegreePair((3, 1), (2, 2)))


def _circulant(n, *steps):
    return sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps})


@st.composite
def _graphs_with_balance_targets(draw):
    """A simple graph on at most 8 vertices and 14 edges, and a balance target.

    Half the targets are the balances of one orientation, so their count is
    positive; the others are arbitrary, odd and out of range included.
    """
    n = draw(st.integers(2, 8))
    pairs = list(itertools.combinations(range(n), 2))
    size = draw(st.sampled_from(range(min(14, len(pairs)) + 1)))
    edges = draw(st.permutations(pairs))[:size]
    if draw(st.booleans()):
        target = [0] * n
        for i, j in edges:
            tail, head = (i, j) if draw(st.booleans()) else (j, i)
            target[tail] += 1
            target[head] -= 1
    else:
        target = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    return n, edges, target


class TestOrientationCounts:
    def test_cycle_examples(self):
        assert count_eulerian_orientations(4, C4_EDGES) == 2
        assert count_orientations_with_degrees(4, C4_EDGES, (0, 0, 0, 0)) == 2

    def test_odd_degree_counts_zero(self):
        path = [(0, 1), (1, 2)]
        assert count_eulerian_orientations(3, path) == 0

    def test_complete_graph_five(self):
        k5 = list(itertools.combinations(range(5), 2))
        assert count_eulerian_orientations(5, k5) == 24

    def test_fractional_target_rejected(self):
        with pytest.raises(ParityError):
            count_orientations_with_degrees(2, [(0, 1)], (0, 0))

    def test_non_integer_delta_rejected(self):
        with pytest.raises(ParityError):
            count_orientations_with_degrees(4, C4_EDGES, (0.5, -0.5, 0, 0))

    def test_out_of_range_target_counts_zero(self):
        assert count_orientations_with_degrees(4, C4_EDGES, (2, -2, 0, 0)) == 0

    def test_skewed_cycle_matches_brute_force(self):
        delta = (1, 0, -1, 0)
        expect = 0
        for signs in itertools.product((1, -1), repeat=len(C4_EDGES)):
            out = [0] * 4
            for (i, j), sgn in zip(C4_EDGES, signs):
                out[i if sgn == 1 else j] += 1
            if all(out[v] == 1 + delta[v] for v in range(4)):
                expect += 1
        assert count_orientations_with_degrees(4, C4_EDGES, delta) == expect
        assert expect == 1

    @given(st.permutations(range(5)))
    @settings(max_examples=20, deadline=None)
    def test_relabel_invariance(self, perm):
        edges = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
        relabeled = [(perm[i], perm[j]) for i, j in edges]
        assert count_eulerian_orientations(5, relabeled) == (
            count_eulerian_orientations(5, edges)
        )

    def test_budget(self):
        edges = list(itertools.combinations(range(9), 2))
        with pytest.raises(BudgetError):
            count_eulerian_orientations(9, edges)

    @pytest.mark.parametrize(
        "n, edges, expect",
        [
            (7, list(itertools.combinations(range(7), 2)), 2640),  # K7
            (9, _circulant(9, 2, 3, 4), 18152),  # complement of C9
            (14, _circulant(14, 1, 5), 1266),  # 28 edges, at the budget
        ],
    )
    def test_pinned_eulerian_counts(self, n, edges, expect):
        assert count_eulerian_orientations(n, edges) == expect
        assert count_orientations_with_degrees(n, edges, (0,) * n) == expect

    @pytest.mark.parametrize(
        "delta, expect",
        [
            ((2, -2, 0, 0, 0, 0, 0), 5),
            ((1, -1, 1, -1, 0, 0, 0), 18),
            # vertex 5 takes one in-arc, and its earlier neighbours 0, 3, 4
            # could send it three: states that overfill it are dropped
            ((0, 0, 0, 0, 0, 1, -1), 35),
        ],
    )
    def test_pinned_skewed_counts(self, delta, expect):
        edges = _circulant(7, 1, 2)  # 4-regular, 14 edges
        assert brute_orientations(7, edges, [2 * dv for dv in delta]) == expect
        assert count_orientations_with_degrees(7, edges, delta) == expect

    @given(_graphs_with_balance_targets())
    @settings(max_examples=150, deadline=None)
    def test_vertex_dp_matches_every_orientation(self, case):
        n, edges, target = case
        want = brute_orientations(n, edges, target)
        event("positive count" if want else "zero count")
        edge_list, deg = oracles._edges_and_degrees(n, edges, 28)
        assert oracles._count_orientations(edge_list, deg, target) == want
        if not any(d % 2 or t % 2 for d, t in zip(deg, target)):
            delta = [t // 2 for t in target]
            assert count_orientations_with_degrees(n, edges, delta) == want
        if not any(target):
            assert count_eulerian_orientations(n, edges) == want


# 2-regular labelled graphs on n = 3 .. 12 vertices (OEIS A001205)
A001205 = [1, 3, 12, 70, 465, 3507, 30016, 286884, 3026655, 34944085]


class TestUndirectedEnumeration:
    def test_perfect_matchings_of_k4(self):
        assert count_undirected((1, 1, 1, 1)) == 3

    def test_labeled_four_cycles(self):
        assert count_undirected((2, 2, 2, 2)) == 3

    def test_infeasible_is_empty(self):
        assert count_undirected((3, 1)) == 0

    def test_budget(self):
        with pytest.raises(BudgetError, match="degree sum = 30 exceeds budget 20"):
            count_undirected((5,) * 6, budget_sum=20)

    def test_malformed_degrees_rejected(self):
        for d in ((1, -1), (1.0, 1), (True, 1)):
            with pytest.raises(DegreeSequenceError):
                count_undirected(d)

    @given(st.lists(st.integers(0, 5), max_size=7))
    @example(())
    @example((0, 0, 0))
    @example((1, 1, 1))
    @example((4, 1, 1, 1, 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, d):
        assert count_undirected(d, budget_sum=35) == len(brute_undirected(d))

    def test_two_regular_is_a001205(self):
        # n = 12 has degree sum 24, the default budget; listing its 35M
        # graphs one by one would take hours
        start = time.perf_counter()
        got = [count_undirected((2,) * n) for n in range(3, 13)]
        assert got == A001205
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize(
        "d", [(2,) * n for n in range(3, 9)] + [(4,) * n for n in range(5, 8)]
    )
    def test_eulerian_orientations_are_oriented_graphs(self, d):
        # an Eulerian orientation of a simple graph with degrees d is an
        # oriented graph with out- and in-degrees d/2, and each of those
        # comes from exactly one simple graph
        total = sum(
            count_eulerian_orientations(len(d), g) for g in brute_undirected(d)
        )
        half = tuple(v // 2 for v in d)
        assert total == count_oriented(DegreePair(half, half))


class TestPartialMatchings:
    def test_diagonal_counts_are_binomials(self):
        holes = BipartiteGraph(4, 4, [(i, i) for i in range(4)])
        assert count_partial_matchings(holes) == [1, 4, 6, 4, 1]

    def test_matches_brute_force(self):
        edges = [(0, 0), (0, 1), (1, 1), (2, 0), (2, 2)]
        holes = BipartiteGraph(3, 3, edges)
        got = count_partial_matchings(holes)
        for k, claimed in enumerate(got):
            direct = 0
            for subset in itertools.combinations(edges, k):
                rows = {i for i, _ in subset}
                cols = {j for _, j in subset}
                if len(rows) == k and len(cols) == k:
                    direct += 1
            assert claimed == direct


class TestPermutationMomentOracle:
    def test_spike_vectors(self):
        mean, var, _ = permutation_moment_oracle((1, 0, 0), (1, 0, 0))
        assert mean == pytest.approx(1 / 3)
        assert var == pytest.approx(2 / 9)

    def test_constant_profile_has_no_variance(self):
        mean, var, expm = permutation_moment_oracle((2, 2, 2), (1, 1, 1))
        assert mean == pytest.approx(6.0)
        assert var == 0.0
        assert expm == pytest.approx(math.exp(6.0))

    @given(st.lists(st.integers(-2, 2), min_size=2, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_constant_second_vector(self, u):
        _, var, _ = permutation_moment_oracle(u, [1.5] * len(u))
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_budget(self):
        with pytest.raises(BudgetError):
            permutation_moment_oracle(list(range(10)), list(range(10)))
