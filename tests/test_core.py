"""Degree-pair model, derived sums, forbidden sets, feasibility."""

import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degcensus import (
    BipartiteGraph,
    DegreePair,
    DegreeSequenceError,
    DomainError,
    ForbiddenGraph,
    InfeasibleForbiddenError,
    SquareOnlyError,
    assumption_report,
    bipartite_to_digraph,
    cutoffs,
    derive_stats,
    digraph_to_bipartite,
    erdos_gallai_feasible,
    falling,
    forbidden_stats,
    gale_ryser_feasible,
    loop_weight,
)

from conftest import bipartite_graphs, brute_bipartite, degree_pairs, square_graphs


class TestDegreePair:
    def test_basic_fields(self):
        dp = DegreePair((2, 1), (1, 1, 1))
        assert (dp.m, dp.n, dp.total) == (2, 3, 3)
        assert not dp.is_square

    def test_sum_mismatch_rejected(self):
        with pytest.raises(DegreeSequenceError):
            DegreePair((2, 1), (1, 1))

    def test_negative_entry_rejected(self):
        with pytest.raises(DegreeSequenceError):
            DegreePair((-1, 1), (0, 0))

    def test_regular_constructor(self):
        dp = DegreePair.regular(5, 2)
        assert dp.s == (2,) * 5 and dp.t == (2,) * 5
        assert dp.is_square and dp.total == 10

    def test_json_round_trip(self):
        dp = DegreePair((3, 0, 1), (2, 2))
        assert DegreePair.from_json(dp.to_json()) == dp

    def test_reduced_by(self):
        dp = DegreePair((2, 1), (1, 1, 1))
        red = dp.reduced_by((1, 0), (0, 1, 0))
        assert red.s == (1, 1) and red.t == (1, 0, 1)

    def test_reduced_by_overdraw_rejected(self):
        dp = DegreePair((1, 1), (1, 1))
        with pytest.raises(InfeasibleForbiddenError):
            dp.reduced_by((2, 0), (1, 1))


class TestDerivedStats:
    def test_rectangular_example(self):
        st_ = derive_stats(DegreePair((2, 1), (1, 1, 1)))
        assert (st_.total, st_.s2, st_.s3, st_.t2) == (3, 2, 0, 0)
        assert st_.loop_weight is None

    def test_one_regular_example(self):
        st_ = derive_stats(DegreePair.regular(4, 1))
        assert st_.total == 4
        assert st_.s2 == st_.t2 == 0
        assert st_.loop_weight == 4

    def test_regular_loop_weight(self):
        # s = t = (d,...,d) gives W = n d^2
        for n, d in ((3, 2), (5, 3), (7, 1)):
            assert loop_weight(DegreePair.regular(n, d)) == n * d * d

    def test_loop_weight_square_only(self):
        with pytest.raises(SquareOnlyError):
            loop_weight(DegreePair((2, 1), (1, 1, 1)))

    @given(degree_pairs(max_side=5))
    def test_recompute_from_definitions(self, dp):
        st_ = derive_stats(dp)
        assert st_.total == sum(dp.s) == sum(dp.t)
        assert st_.s2 == sum(v * (v - 1) for v in dp.s)
        assert st_.s3 == sum(v * (v - 1) * (v - 2) for v in dp.s)
        assert st_.t2 == sum(v * (v - 1) for v in dp.t)
        assert st_.t3 == sum(v * (v - 1) * (v - 2) for v in dp.t)
        assert st_.s_max == max(dp.s) and st_.t_max == max(dp.t)
        if dp.is_square:
            d = [a + b for a, b in zip(dp.s, dp.t)]
            assert st_.loop_weight == sum(a * b for a, b in zip(dp.s, dp.t))
            assert st_.d_total == sum(d)
            assert st_.d2 == sum(v * (v - 1) for v in d)
            assert st_.d_max == max(d)
            assert st_.imbalance2_x4 == sum(
                (b - a) ** 2 for a, b in zip(dp.s, dp.t)
            )
            # 2 * sum(delta_i d_i) with delta_i = (t_i - s_i) / 2
            assert 2 * st_.imbalance_weight == sum(
                (b - a) * (a + b) for a, b in zip(dp.s, dp.t)
            )

    @given(degree_pairs(max_side=5))
    def test_elementary_bounds(self, dp):
        st_ = derive_stats(dp)
        assert st_.s2 <= st_.s_max * st_.total
        assert st_.t2 <= st_.t_max * st_.total
        if dp.is_square:
            w = st_.loop_weight
            assert w <= min(st_.s_max, st_.t_max) * st_.total
            assert w * w <= st_.s_max * st_.t_max * st_.total * st_.total

    def test_falling_factorial(self):
        assert falling(5, 0) == 1
        assert falling(5, 2) == 20
        assert falling(1, 2) == 0


class TestForbiddenGraph:
    def test_constructors(self):
        assert ForbiddenGraph.empty(2, 3).size == 0
        diag = ForbiddenGraph.diagonal(3)
        assert diag.size == 3 and not diag.is_loop_free()

    def test_degree_vectors(self):
        x = ForbiddenGraph(2, 3, [(0, 0), (0, 2), (1, 2)])
        assert x.x == (2, 1)
        assert x.y == (1, 0, 2)
        assert (x.x_max, x.y_max) == (2, 2)

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(DegreeSequenceError):
            ForbiddenGraph(2, 2, [(0, 2)])

    def test_mass_examples(self):
        dp = DegreePair.regular(4, 1)
        assert ForbiddenGraph.empty(4, 4).mass(dp) == 0
        assert ForbiddenGraph.diagonal(4).mass(dp) == 4
        assert ForbiddenGraph.diagonal(4).delta_max(dp) == 3

    def test_empty_delta_max(self):
        dp = DegreePair((2, 1), (2, 1))
        assert ForbiddenGraph.empty(2, 2).delta_max(dp) == 4

    def test_json_round_trip(self):
        x = ForbiddenGraph(3, 3, [(0, 1), (2, 2)])
        assert ForbiddenGraph.from_json(x.to_json(), 3, 3) == x

    @pytest.mark.parametrize("cls", [ForbiddenGraph, BipartiteGraph])
    @pytest.mark.parametrize(
        "payload", [{"edges": [7]}, {"edges": 7}, {"edges": "ab"}, {"edges": [[0]]}]
    )
    def test_malformed_json_edges_rejected(self, cls, payload):
        with pytest.raises(DegreeSequenceError):
            cls.from_json(payload, 2, 2)

    @given(bipartite_graphs(max_side=4))
    def test_mass_additive_over_disjoint_split(self, g):
        """F(X1 + X2) = F(X1) + F(X2) when the parts share no cell."""
        dp = g.degree_pair()
        edges = g.sorted_edges()
        half = len(edges) // 2
        x_all = ForbiddenGraph(g.m, g.n, edges)
        x1 = ForbiddenGraph(g.m, g.n, edges[:half])
        x2 = ForbiddenGraph(g.m, g.n, edges[half:])
        assert x_all.mass(dp) == x1.mass(dp) + x2.mass(dp)


class TestForbiddenStats:
    def test_reduced_mass_forced_zero(self):
        # forbidding a 1-regular vertex's only possible slot zeroes its term
        dp = DegreePair.regular(3, 1)
        fs = forbidden_stats(dp, ForbiddenGraph(3, 3, [(0, 0)]))
        assert fs.mass == 1 and fs.reduced_mass == 0

    def test_all_four_values(self):
        dp = DegreePair((2, 2), (2, 2))
        fs = forbidden_stats(dp, ForbiddenGraph(2, 2, [(0, 0)]))
        assert fs.mass == 4
        assert fs.reduced_mass == 1
        # s_max t_max + s_max y_max + x_max t_max = 4 + 2 + 2
        assert fs.delta_max == 8
        # reduced pair is ((1,2),(1,2)), so the same bound is 4 + 2 + 2 again
        assert fs.reduced_delta_max == 8

    def test_overfull_forbidden_rejected(self):
        dp = DegreePair.regular(2, 1)
        with pytest.raises(InfeasibleForbiddenError):
            forbidden_stats(dp, ForbiddenGraph(2, 2, [(0, 0), (0, 1)]))


class TestCutoffs:
    def test_log_branch(self):
        dp = DegreePair((55,), (55,))
        assert cutoffs(dp).n0 == 5  # ceil(log 55)

    def test_mass_branch(self):
        dp = DegreePair((5, 5), (5, 5))
        x = ForbiddenGraph(2, 2, [(0, 0)])  # F = 25, S = 10 -> 42 F / S = 105
        assert cutoffs(dp, x).n0 == 105
        assert cutoffs(dp).n0 == math.ceil(math.log(10))

    def test_second_cutoff_one_regular(self):
        c = cutoffs(DegreePair.regular(10, 1))
        assert c.n1 == 24  # max(log 10, 24 W^2/S^2) with W = S

    def test_zero_sum_rejected(self):
        with pytest.raises(DomainError):
            cutoffs(DegreePair((0,), (0,)))

    def test_rectangular_has_no_n1(self):
        assert cutoffs(DegreePair((2,), (1, 1))).n1 is None


class TestAssumptionReport:
    def test_matching_avoidance_ratios(self):
        dp = DegreePair.regular(100, 1)
        x = ForbiddenGraph.diagonal(100)
        rep = assumption_report(dp, x, context="avoidance-factor")
        vals = rep.ratios
        assert vals["(s_max+t_max)*log(S)/S"] == pytest.approx(
            2 * math.log(100) / 100
        )
        assert vals["delta_max*F/S^2"] == pytest.approx(0.03)
        assert vals["F/S^(5/3)"] == pytest.approx(100 / 100 ** (5 / 3))

    def test_loopfree_count_ratio(self):
        rep = assumption_report(DegreePair.regular(50, 2), context="loopfree-count")
        assert rep.ratios["s_max*t_max/S^(2/3)"] == pytest.approx(4 / 100 ** (2 / 3))

    def test_regular_permanent_has_no_ratios(self):
        rep = assumption_report(None, context="expected-permanent-regular")
        assert rep.ratios == {}
        assert any("2 <= d <= n" in note for note in rep.notes)

    def test_unknown_context_rejected(self):
        with pytest.raises(DomainError):
            assumption_report(DegreePair.regular(2, 1), context="nonsense")

    def test_square_only_context_rejects_rectangular(self):
        with pytest.raises(SquareOnlyError):
            assumption_report(
                DegreePair((2,), (1, 1)), context="loopfree-probability"
            )

    def test_undirected_context_takes_plain_degrees(self):
        rep = assumption_report((2, 2, 2, 2), context="undirected-count")
        assert rep.ratios["d_max^4/D"] == pytest.approx(2.0)


class TestBipartiteGraph:
    def test_loops_and_twocycles(self):
        g = BipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 0), (2, 2)])
        assert g.loop_count() == 2
        assert g.twocycles() == ((0, 1),)
        assert g.twocycle_count() == 1

    def test_overlap_and_avoids(self):
        g = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        diag = ForbiddenGraph.diagonal(2)
        assert g.overlap(diag) == 2
        assert g.contains(diag)
        assert not g.avoids(diag)
        assert g.avoids(ForbiddenGraph(2, 2, [(0, 1)]))

    def test_replace_is_strict(self):
        g = BipartiteGraph(2, 2, [(0, 0)])
        with pytest.raises(DegreeSequenceError):
            g.replace(drop=[(1, 1)])
        with pytest.raises(DegreeSequenceError):
            g.replace(add=[(0, 0)])
        swapped = g.replace(drop=[(0, 0)], add=[(1, 1)])
        assert swapped.sorted_edges() == ((1, 1),)

    def test_degree_pair(self):
        g = BipartiteGraph(2, 3, [(0, 0), (0, 2), (1, 2)])
        assert g.degree_pair() == DegreePair((2, 1), (1, 0, 2))

    @given(square_graphs(max_side=4))
    def test_digraph_round_trip(self, g):
        n, arcs = bipartite_to_digraph(g)
        assert digraph_to_bipartite(n, arcs) == g

    def test_digraph_view_square_only(self):
        with pytest.raises(SquareOnlyError):
            bipartite_to_digraph(BipartiteGraph(1, 2, [(0, 0)]))

    @given(bipartite_graphs(max_side=4))
    def test_json_round_trip(self, g):
        assert BipartiteGraph.from_json(g.to_json(), g.m, g.n) == g

    @given(square_graphs(max_side=4))
    def test_twocycle_count_matches_listing(self, g):
        pairs = {
            (i, j)
            for i, j in itertools.combinations(range(g.n), 2)
            if (i, j) in g.edges and (j, i) in g.edges
        }
        assert set(g.twocycles()) == pairs
        assert g.twocycle_count() == len(pairs)


class TestFeasibility:
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=5))
    def test_gale_ryser_matches_brute_force(self, s):
        t = s[:]  # square case; brute force both ways below on realisable sums
        if sum(s) > 10:
            return
        realisable = bool(brute_bipartite(s, t))
        assert gale_ryser_feasible(s, t) == realisable

    @given(
        st.lists(st.integers(0, 12), min_size=1, max_size=30),
        st.lists(st.integers(0, 12), min_size=1, max_size=30),
    )
    @settings(max_examples=200)
    def test_gale_ryser_matches_its_inequalities(self, s, t):
        # the textbook statement, one quadratic sum per k
        p = sorted(s, reverse=True)
        want = sum(s) == sum(t) and all(
            sum(p[:k]) <= sum(min(v, k) for v in t) for k in range(1, len(p) + 1)
        )
        assert gale_ryser_feasible(s, t) == want

    def test_gale_ryser_rectangular(self):
        assert gale_ryser_feasible((2, 1), (1, 1, 1))
        assert not gale_ryser_feasible((3,), (1, 1))  # entry exceeds n... s_max > n
        assert not gale_ryser_feasible((2, 2), (1, 1))  # unequal sums

    def test_erdos_gallai_examples(self):
        assert erdos_gallai_feasible((1, 1, 1, 1))
        assert erdos_gallai_feasible((2, 2, 2, 2))
        assert not erdos_gallai_feasible((3, 1))
        assert not erdos_gallai_feasible((1, 1, 1))  # odd sum

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=5))
    @settings(max_examples=60)
    def test_erdos_gallai_matches_brute_force(self, d):
        n = len(d)
        pairs = list(itertools.combinations(range(n), 2))
        found = False
        for k in range(len(pairs) + 1):
            if found:
                break
            for chosen in itertools.combinations(pairs, k):
                deg = [0] * n
                for i, j in chosen:
                    deg[i] += 1
                    deg[j] += 1
                if deg == d:
                    found = True
                    break
        assert erdos_gallai_feasible(d) == found

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_erdos_gallai_matches_its_inequalities(self, d):
        ds = sorted(d, reverse=True)
        n = len(ds)
        want = sum(ds) % 2 == 0 and all(
            sum(ds[:k]) <= k * (k - 1) + sum(min(v, k) for v in ds[k:])
            for k in range(1, n + 1)
        )
        assert erdos_gallai_feasible(d) == want

    def test_ten_thousand_vertices_are_fast(self):
        n = 10_000
        irregular = [1 + (7 * i) % 5 for i in range(n)]  # degrees 1..5, even sum
        start = time.perf_counter()
        assert erdos_gallai_feasible(irregular)
        assert erdos_gallai_feasible([3] * n)
        assert not erdos_gallai_feasible([n - 1] * 2 + [1] * (n - 2))
        assert gale_ryser_feasible(irregular, irregular[::-1])
        assert gale_ryser_feasible([2] * n, [4] * (n // 2))
        zeros = [0] * (n - 2)
        assert not gale_ryser_feasible([2, 2] + zeros, [3, 1] + zeros)
        assert time.perf_counter() - start < 0.5
