"""Edge rewiring operations and their double-counting identities."""

import itertools

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from degcensus import (
    BipartiteGraph,
    BudgetError,
    DegreePair,
    DegreeSequenceError,
    DomainError,
    ForbiddenGraph,
    ForwardSwitchSpec,
    SquareOnlyError,
    SwitchConditionError,
    TwoCycleSwitchSpec,
    apply_forward_x_switch,
    apply_reverse_twocycle_switch,
    apply_reverse_x_switch,
    apply_twocycle_switch,
    count_forward_x_switches,
    count_reverse_twocycle_switches,
    count_reverse_x_switches,
    count_twocycle_switches,
    enumerate_bipartite,
    verify_twocycle_identity,
    verify_x_switch_identity,
)

IDENTITY3 = BipartiteGraph(3, 3, [(0, 0), (1, 1), (2, 2)])
X00 = ForbiddenGraph(3, 3, [(0, 0)])

# ten-vertex graph whose single 2-cycle admits full-size rewirings
REWIRE10 = BipartiteGraph(
    10, 10, [(1, 0), (3, 2), (4, 5), (5, 4), (7, 6), (9, 8)]
)


def naive_forward_x_count(g, x):
    """Clause-by-clause recount with plain set arithmetic."""
    cells = x.edges
    targets = [e for e in g.edges if e in cells]
    free = [e for e in g.edges if e not in cells]
    total = 0
    for (i, j) in targets:
        for (a, c), (b, d) in itertools.permutations(free, 2):
            if len({i, a, b}) < 3 or len({j, c, d}) < 3:
                continue
            new = [(i, c), (a, d), (b, j)]
            if any(e in g.edges or e in cells for e in new):
                continue
            total += 1
    return total


def naive_reverse_x_count(g, x):
    total = 0
    for (i, j) in x.edges:
        if (i, j) in g.edges:
            continue
        for (i2, c) in g.edges:
            if i2 != i:
                continue
            for (b, j2) in g.edges:
                if j2 != j:
                    continue
                for (a, d) in g.edges:
                    spec = ForwardSwitchSpec((i, j), ((a, c), (b, d)))
                    if _reverse_applies(g, x, spec):
                        total += 1
    return total


def _reverse_applies(g, x, spec):
    i, j = spec.target_x_edge
    (a, c), (b, d) = spec.aux_edges
    if (i, j) not in x.edges or (i, j) in g.edges:
        return False
    if len({(i, c), (a, d), (b, j)}) < 3:
        return False
    if len({i, a, b}) < 3 or len({j, c, d}) < 3:
        return False
    if not all(e in g.edges for e in ((i, c), (a, d), (b, j))):
        return False
    if any(e in x.edges for e in ((i, c), (a, d), (b, j))):
        return False
    for e in ((a, c), (b, d)):
        if e in g.edges:
            return False
        if e in x.edges:
            return False
    return True


@st.composite
def graphs_with_x(draw):
    """A graph of shape up to 4 x 5 and a forbidden set from empty to full."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    cells = [(i, j) for i in range(m) for j in range(n)]
    g = BipartiteGraph(m, n, [c for c in cells if draw(st.booleans())])
    # x takes about a quarter of the cells (where most moves live), none,
    # about half, or every cell
    pick = draw(st.sampled_from(((False,) * 3 + (True,), (False,), (False, True), (True,))))
    x = ForbiddenGraph(m, n, [c for c in cells if draw(st.sampled_from(pick))])
    return g, x


def _successes(apply, specs, *inputs):
    """How many of `specs` the applier accepts on `inputs` (g, or g and x)."""
    accepted = 0
    for spec in specs:
        try:
            apply(*inputs, spec)
            accepted += 1
        except SwitchConditionError:
            pass
    return accepted


def forward_candidates(g, x):
    """A target in g and x with an ordered pair of distinct graph edges."""
    for target in sorted(g.edges & x.edges):
        for aux in itertools.permutations(sorted(g.edges), 2):
            yield ForwardSwitchSpec(target, aux)


def reverse_candidates(g, x):
    """A target in x but not g, (i, c) from row i, (b, j) from column j, any (a, d)."""
    edges = sorted(g.edges)
    for i, j in sorted(x.edges - g.edges):
        for _, c in (e for e in edges if e[0] == i):
            for b, _ in (e for e in edges if e[1] == j):
                for a, d in edges:
                    yield ForwardSwitchSpec((i, j), ((a, c), (b, d)))


def assert_counts_match_appliers(g, x):
    """Both counters equal the appliers' successes; returns the two counts' sum."""
    forward = count_forward_x_switches(g, x)
    reverse = count_reverse_x_switches(g, x)
    assert forward == _successes(apply_forward_x_switch, forward_candidates(g, x), g, x)
    assert reverse == _successes(apply_reverse_x_switch, reverse_candidates(g, x), g, x)
    return forward + reverse


def scan_twocycle_switches(g):
    """Unordered forward 2-cycle switches of g, by a plain candidate scan.

    Every ordered 4-tuple of arcs avoiding the cycle is tried with both
    orders of every 2-cycle; accepted specs come in mirror pairs.
    """
    specs = []
    for i, j in g.twocycles():
        pool = sorted(e for e in g.edges if not {i, j} & set(e))
        for cycle in ((i, j), (j, i)):
            aux_tuples = itertools.permutations(pool, 4)
            specs += [TwoCycleSwitchSpec(cycle, aux) for aux in aux_tuples]
    applied = _successes(apply_twocycle_switch, specs, g)
    assert applied % 2 == 0
    return applied // 2


def scan_reverse_twocycle_switches(g):
    """Unordered reverse 2-cycle switches of g, by a plain candidate scan.

    For each ordered pair (i, j) with no arc either way, candidates are
    pinned by the six rewired arcs: (j, c), (b, i), (i, e) and (h, j) at the
    ends, and any two arcs (d, a) and (f, g).
    """
    arcs = sorted(g.edges)
    specs = []
    for i, j in itertools.permutations(range(g.n), 2):
        if (i, j) in g.edges or (j, i) in g.edges:
            continue
        rewired = itertools.product(
            [e for e in arcs if e[0] == j], [e for e in arcs if e[1] == i], arcs,
            [e for e in arcs if e[0] == i], arcs, [e for e in arcs if e[1] == j],
        )
        specs += [
            TwoCycleSwitchSpec((i, j), ((b, a), (d, c), (f, e), (h, g_)))
            for (_, c), (b, _), (d, a), (_, e), (f, g_), (h, _) in rewired
        ]
    applied = _successes(apply_reverse_twocycle_switch, specs, g)
    assert applied % 2 == 0
    return applied // 2


# sparse ten-vertex pairs whose loop-free realisations admit 2-cycle moves;
# SPARSE7 has out-degree 1 on vertices 0-6 and in-degree 1 on vertices 3-9
SPARSE6 = DegreePair((0, 1, 0, 1, 1, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 1, 1, 0, 1, 0))
SPARSE7 = DegreePair((1,) * 7 + (0,) * 3, (0,) * 3 + (1,) * 7)


@st.composite
def sparse_twocycle_digraphs(draw, rewired):
    """A loop-free digraph on 10 or 11 vertices with at least one 2-cycle.

    It holds the six removed arcs of a random 2-cycle spec (the six inserted
    ones if `rewired`), so that a move is likely, plus a drawn 2-cycle and up
    to three drawn arcs, which may spoil that move and make others.
    """
    n = draw(st.integers(10, 11))
    v = draw(st.permutations(range(n)))
    aux = ((v[3], v[2]), (v[5], v[4]), (v[7], v[6]), (v[9], v[8]))
    spec = TwoCycleSwitchSpec((v[0], v[1]), aux)
    arcs = spec.inserted_arcs if rewired else spec.removed_arcs
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    i, j = draw(st.sampled_from(cells))
    extra = draw(st.lists(st.sampled_from(cells), max_size=3))
    return BipartiteGraph(n, n, arcs | {(i, j), (j, i), *extra})


class TestForwardSwitchSpec:
    def test_edge_roles(self):
        spec = ForwardSwitchSpec((0, 0), (((1, 1), (2, 2))))
        assert spec.removed_edges == ((0, 0), (1, 1), (2, 2))
        assert spec.inserted_edges == ((0, 1), (1, 2), (2, 0))

    def test_aux_arity(self):
        with pytest.raises(DomainError):
            ForwardSwitchSpec((0, 0), ((1, 1),))

    def test_json_round_trip(self):
        spec = ForwardSwitchSpec((0, 1), ((2, 3), (4, 5)))
        assert ForwardSwitchSpec.from_json(spec.to_json()) == spec


class TestForwardXSwitch:
    def test_identity_matrix_example(self):
        spec = ForwardSwitchSpec((0, 0), ((1, 1), (2, 2)))
        out = apply_forward_x_switch(IDENTITY3, X00, spec)
        assert out.sorted_edges() == ((0, 1), (1, 2), (2, 0))
        assert out.degree_pair() == IDENTITY3.degree_pair()
        assert out.overlap(X00) == IDENTITY3.overlap(X00) - 1

    def test_round_trip(self):
        spec = ForwardSwitchSpec((0, 0), ((1, 1), (2, 2)))
        fwd = apply_forward_x_switch(IDENTITY3, X00, spec)
        back = apply_reverse_x_switch(fwd, X00, spec)
        assert back == IDENTITY3

    def test_condition_messages(self):
        with pytest.raises(SwitchConditionError, match="is not in the graph"):
            spec = ForwardSwitchSpec((0, 1), ((1, 1), (2, 2)))
            apply_forward_x_switch(IDENTITY3, X00, spec)
        with pytest.raises(SwitchConditionError, match="not a forbidden cell"):
            spec = ForwardSwitchSpec((1, 1), ((0, 0), (2, 2)))
            apply_forward_x_switch(IDENTITY3, X00, spec)
        with pytest.raises(SwitchConditionError, match="must be distinct"):
            spec = ForwardSwitchSpec((0, 0), ((1, 1), (1, 1)))
            apply_forward_x_switch(IDENTITY3, X00, spec)
        g = BipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 1), (2, 2)])
        with pytest.raises(SwitchConditionError, match="double edge"):
            # inserting (2, 0)... (0, 1) already present
            spec = ForwardSwitchSpec((0, 0), ((1, 1), (2, 2)))
            apply_forward_x_switch(g, X00, spec)

    def test_forward_count_identity_matrix(self):
        assert count_forward_x_switches(IDENTITY3, X00) == 2

    @given(graphs_with_x())
    @settings(max_examples=100, deadline=None)
    def test_counts_match_naive_recount(self, gx):
        g, x = gx
        assert count_forward_x_switches(g, x) == naive_forward_x_count(g, x)
        assert count_reverse_x_switches(g, x) == naive_reverse_x_count(g, x)

    @given(graphs_with_x())
    @settings(max_examples=100, deadline=None)
    def test_counts_match_apply_successes(self, gx):
        assert_counts_match_appliers(*gx)

    @pytest.mark.parametrize(
        "dp, x",
        [
            (DegreePair.regular(4, 2), ForbiddenGraph.diagonal(4)),
            (
                DegreePair((2, 2, 2, 1), (2, 2, 1, 1, 1)),
                ForbiddenGraph(4, 5, [(0, 0), (1, 2), (2, 4), (3, 1), (3, 3)]),
            ),
        ],
    )
    def test_counts_match_apply_successes_on_realisations(self, dp, x):
        # random graphs rarely admit a move; most realisations of these do
        moves = sum(assert_counts_match_appliers(g, x) for g in enumerate_bipartite(dp))
        assert moves > 0

    def test_shape_mismatch(self):
        x = ForbiddenGraph(3, 2, [(0, 0)])
        for count in (count_forward_x_switches, count_reverse_x_switches):
            with pytest.raises(
                DegreeSequenceError, match=r"forbidden shape \(3, 2\) does not match pair \(3, 3\)"
            ):
                count(IDENTITY3, x)


class TestXSwitchIdentity:
    def test_two_regular_stratum(self):
        dp = DegreePair((2, 2, 2), (2, 2, 2))
        x = ForbiddenGraph(3, 3, [(1, 1), (2, 2)])
        report = verify_x_switch_identity(dp, x, 2)
        assert report.f_or_q == 2
        assert report.total_forward == report.total_reverse == 2

    def test_all_strata_of_matching_diagonal(self):
        dp = DegreePair.regular(3, 1)
        x = ForbiddenGraph.diagonal(3)
        for f in (1, 2, 3):
            report = verify_x_switch_identity(dp, x, f)
            assert report.total_forward == report.total_reverse

    @pytest.mark.parametrize(
        "n, d, totals",
        [
            (4, 1, [24, 0, 0, 0]),
            (5, 1, [360, 120, 0, 0, 0]),
            (6, 1, [3960, 2160, 360, 0, 0, 0]),
            (4, 2, [24, 48, 48, 24]),
            (5, 2, [4680, 8040, 6480, 3240, 840]),
        ],
    )
    def test_diagonal_regular_totals(self, n, d, totals):
        # totals from a scan of every candidate spec through the clause checkers
        dp = DegreePair.regular(n, d)
        x = ForbiddenGraph.diagonal(n)
        got = [verify_x_switch_identity(dp, x, f).total_forward for f in range(1, n + 1)]
        assert got == totals

    def test_report_json(self):
        dp = DegreePair((2, 2, 2), (2, 2, 2))
        x = ForbiddenGraph(3, 3, [(1, 1), (2, 2)])
        payload = verify_x_switch_identity(dp, x, 2).to_json()
        assert payload == {
            "f_or_q": 2,
            "total_forward": "2",
            "total_reverse": "2",
        }

    def test_stratum_index_validation(self):
        dp = DegreePair.regular(3, 1)
        with pytest.raises(DomainError):
            verify_x_switch_identity(dp, ForbiddenGraph.diagonal(3), 0)

    def test_budget(self):
        dp = DegreePair.regular(15, 1)
        with pytest.raises(BudgetError):
            verify_x_switch_identity(dp, ForbiddenGraph.diagonal(15), 1)


class TestTwoCycleSpec:
    def test_arc_sets(self):
        spec = TwoCycleSwitchSpec((4, 5), ((1, 0), (3, 2), (7, 6), (9, 8)))
        assert set(spec.removed_arcs) == {
            (4, 5), (5, 4), (1, 0), (3, 2), (7, 6), (9, 8)
        }
        assert set(spec.inserted_arcs) == {
            (5, 2), (1, 4), (3, 0), (4, 6), (7, 8), (9, 5)
        }

    def test_mirror_is_an_involution_with_equal_sets(self):
        spec = TwoCycleSwitchSpec((4, 5), ((1, 0), (3, 2), (7, 6), (9, 8)))
        mirror = spec.mirror()
        assert mirror.cycle == (5, 4)
        assert mirror.mirror() == spec
        assert set(mirror.removed_arcs) == set(spec.removed_arcs)
        assert set(mirror.inserted_arcs) == set(spec.inserted_arcs)
        assert set(mirror.excluded_arcs) == set(spec.excluded_arcs)

    def test_json_round_trip(self):
        spec = TwoCycleSwitchSpec((0, 1), ((2, 3), (4, 5), (6, 7), (8, 9)))
        assert TwoCycleSwitchSpec.from_json(spec.to_json()) == spec

    def test_aux_arity(self):
        with pytest.raises(DomainError):
            TwoCycleSwitchSpec((0, 1), ((2, 3), (4, 5)))


class TestTwoCycleSwitch:
    def test_ten_vertex_rewiring(self):
        spec = TwoCycleSwitchSpec((4, 5), ((1, 0), (3, 2), (7, 6), (9, 8)))
        out = apply_twocycle_switch(REWIRE10, spec)
        assert out.sorted_edges() == (
            (1, 4), (3, 0), (4, 6), (5, 2), (7, 8), (9, 5)
        )
        assert out.degree_pair() == REWIRE10.degree_pair()
        assert out.loop_count() == 0
        assert out.twocycle_count() == REWIRE10.twocycle_count() - 1

    def test_round_trip(self):
        spec = TwoCycleSwitchSpec((4, 5), ((1, 0), (3, 2), (7, 6), (9, 8)))
        fwd = apply_twocycle_switch(REWIRE10, spec)
        back = apply_reverse_twocycle_switch(fwd, spec)
        assert back == REWIRE10

    def test_index_distinctness_required(self):
        spec = TwoCycleSwitchSpec((4, 5), ((1, 0), (3, 2), (7, 6), (9, 4)))
        with pytest.raises(SwitchConditionError, match="ten indices"):
            apply_twocycle_switch(REWIRE10, spec)

    def test_counts_on_the_ten_vertex_instance(self):
        assert count_twocycle_switches(REWIRE10) == 24
        spec = TwoCycleSwitchSpec((4, 5), ((1, 0), (3, 2), (7, 6), (9, 8)))
        out = apply_twocycle_switch(REWIRE10, spec)
        assert count_reverse_twocycle_switches(out) == 2
        assert scan_reverse_twocycle_switches(out) == 2
        assert count_twocycle_switches(out) == scan_twocycle_switches(out) == 0

    def test_counting_needs_loop_free_square(self):
        with pytest.raises(SquareOnlyError):
            count_twocycle_switches(BipartiteGraph(2, 3, [(0, 0)]))
        loopy = BipartiteGraph(3, 3, [(0, 0), (1, 2), (2, 1)])
        with pytest.raises(DomainError, match="loop-free"):
            count_twocycle_switches(loopy)

    # `pytest --hypothesis-show-statistics` reports the share of examples
    # whose count is nonzero
    @given(sparse_twocycle_digraphs(rewired=False))
    @settings(max_examples=30, deadline=None)
    def test_forward_count_matches_apply_successes(self, g):
        count = count_twocycle_switches(g)
        event(f"forward count nonzero: {count > 0}")
        assert count == scan_twocycle_switches(g)

    @given(sparse_twocycle_digraphs(rewired=True))
    @settings(max_examples=30, deadline=None)
    def test_reverse_count_matches_apply_successes(self, g):
        count = count_reverse_twocycle_switches(g)
        event(f"reverse count nonzero: {count > 0}")
        assert count == scan_reverse_twocycle_switches(g)

    @pytest.mark.parametrize("extra, count", [((), 24), (((0, 3),), 20)])
    def test_forward_count_matches_apply_successes_on_rewire10(self, extra, count):
        # with the arc (0, 3) added, some disjoint aux tuples fail to apply
        g = BipartiteGraph(10, 10, sorted(REWIRE10.edges) + list(extra))
        assert scan_twocycle_switches(g) == count_twocycle_switches(g) == count
        assert scan_reverse_twocycle_switches(g) == count_reverse_twocycle_switches(g)


class TestTwoCycleIdentity:
    def test_sparse_ten_vertex_family(self):
        # margins that realise graphs like REWIRE10: one stratum with a
        # 2-cycle (24 forward rewirings each) against the cycle-free stratum
        report = verify_twocycle_identity(SPARSE6, 1)
        assert report.f_or_q == 1
        assert report.total_forward == report.total_reverse == 576

    def test_counters_match_scans_on_every_sparse_realisation(self):
        graphs = list(enumerate_bipartite(SPARSE6, ForbiddenGraph.diagonal(10)))
        forward = [count_twocycle_switches(g) for g in graphs]
        reverse = [count_reverse_twocycle_switches(g) for g in graphs]
        assert forward == [scan_twocycle_switches(g) for g in graphs]
        assert reverse == [scan_reverse_twocycle_switches(g) for g in graphs]
        nonzero = (sum(map(bool, forward)), sum(map(bool, reverse)))
        assert (len(graphs), *nonzero) == (504, 24, 288)

    def test_seven_arc_family(self):
        # 2790 loop-free realisations, with 4320 moves each way between T_1 and T_0
        report = verify_twocycle_identity(SPARSE7, 1)
        assert report.total_forward == report.total_reverse == 4320

    def test_small_strata_are_trivially_balanced(self):
        # under ten vertices no rewiring fits, so totals are zero on both sides
        dp = DegreePair.regular(4, 1)
        for q in (1, 2):
            report = verify_twocycle_identity(dp, q)
            assert report.total_forward == report.total_reverse == 0

    def test_validation(self):
        with pytest.raises(DomainError):
            verify_twocycle_identity(DegreePair.regular(4, 1), 0)
        with pytest.raises(SquareOnlyError):
            verify_twocycle_identity(DegreePair((2,), (1, 1)), 1)
        with pytest.raises(BudgetError):
            verify_twocycle_identity(DegreePair.regular(15, 1), 1)

