"""Random samplers: reproducibility, validity, and light statistics."""

import math

import numpy as np
import pytest

from degcensus import sampling
from degcensus import (
    BipartiteGraph,
    BudgetError,
    DegreePair,
    DegreeSequenceError,
    DomainError,
    EmpiricalEstimate,
    ForbiddenGraph,
    SamplerConfig,
    SquareOnlyError,
    count_loopfree,
    estimate_event_probability,
    estimate_expected_orientation_count,
    iter_bipartite_samples,
    sample_bipartite,
    sample_undirected,
)


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig(seed=7)
        assert cfg.method == "auto"
        assert cfg.samples == 1 and cfg.streams == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"seed": 0, "method": "bogus"},
            {"seed": 0, "burn_in": -1},
            {"seed": 0, "samples": 0},
            {"seed": 0, "max_rejections": 0},
            {"seed": 0, "streams": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            SamplerConfig(**kwargs)

    def test_auto_resolution(self):
        cfg = SamplerConfig(seed=0)
        # s_max t_max 10 <= S picks rejection; otherwise the chain
        assert cfg.resolved_method(DegreePair.regular(12, 1)) == (
            "configuration-rejection"
        )
        assert cfg.resolved_method(DegreePair.regular(4, 2)) == "swap-chain"

    def test_burn_in_heuristic(self):
        cfg = SamplerConfig(seed=0)
        assert cfg.resolved_burn_in(10) == 10 * 10 * math.ceil(math.log(10))
        assert cfg.resolved_burn_in(1) == 0
        assert SamplerConfig(seed=0, burn_in=0).resolved_burn_in(10) == 0


class TestBipartiteSampling:
    def test_reproducible_runs(self):
        dp = DegreePair((2, 2, 1), (2, 2, 1))
        for method in ("configuration-rejection", "swap-chain"):
            cfg = SamplerConfig(seed=42, method=method, samples=5)
            a = [g.sorted_edges() for g in iter_bipartite_samples(dp, cfg)]
            b = [g.sorted_edges() for g in iter_bipartite_samples(dp, cfg)]
            assert a == b
            assert len(a) == 5

    def test_samples_realise_the_margins(self):
        dp = DegreePair((2, 2, 1), (1, 2, 2))
        for method in ("configuration-rejection", "swap-chain"):
            cfg = SamplerConfig(seed=3, method=method, samples=8)
            for g in iter_bipartite_samples(dp, cfg):
                assert g.degree_pair() == dp

    def test_stream_split_is_deterministic(self):
        dp = DegreePair.regular(4, 1)
        mono = SamplerConfig(seed=11, method="swap-chain", samples=6, streams=1)
        split = SamplerConfig(seed=11, method="swap-chain", samples=6, streams=3)
        got = [g.sorted_edges() for g in iter_bipartite_samples(dp, split)]
        assert len(got) == 6
        again = [g.sorted_edges() for g in iter_bipartite_samples(dp, split)]
        assert got == again
        # stream count changes the sequence but never validity
        for edges in got:
            assert len(edges) == 4

    def test_single_sample_helper(self):
        dp = DegreePair((1, 1), (1, 1))
        g = sample_bipartite(dp, SamplerConfig(seed=5))
        assert g.degree_pair() == dp

    def test_infeasible_margins_rejected(self):
        with pytest.raises(DegreeSequenceError):
            sample_bipartite(DegreePair((3, 1), (2, 2)), SamplerConfig(seed=0))

    def test_impossible_condition_exhausts_budget(self):
        dp = DegreePair.regular(3, 1)
        for method in ("configuration-rejection", "swap-chain"):
            cfg = SamplerConfig(seed=0, method=method, max_rejections=5)
            with pytest.raises(BudgetError):
                list(iter_bipartite_samples(dp, cfg, condition=lambda g: False))

    def test_rejection_matches_exact_probability(self):
        # one-regular on 4: P(no loop) = 9/24; generous five-sigma window
        dp = DegreePair.regular(4, 1)
        cfg = SamplerConfig(
            seed=2024, method="configuration-rejection", samples=4000
        )
        hits = sum(
            g.loop_count() == 0 for g in iter_bipartite_samples(dp, cfg)
        )
        p_exact = count_loopfree(dp) / 24
        sigma = math.sqrt(p_exact * (1 - p_exact) / 4000)
        assert abs(hits / 4000 - p_exact) < 5 * sigma

    def test_swap_chain_visits_multiple_states(self):
        dp = DegreePair((2, 2, 2), (2, 2, 2))
        cfg = SamplerConfig(seed=9, method="swap-chain", samples=30)
        seen = {g.sorted_edges() for g in iter_bipartite_samples(dp, cfg)}
        assert len(seen) > 1


class TestUndirectedSampling:
    def test_degrees_and_reproducibility(self):
        cfg = SamplerConfig(seed=17, samples=6)
        graphs = sample_undirected((2, 2, 2, 2), cfg)
        assert graphs == sample_undirected((2, 2, 2, 2), cfg)
        for edges in graphs:
            deg = [0] * 4
            for u, v in edges:
                assert u < v
                deg[u] += 1
                deg[v] += 1
            assert deg == [2, 2, 2, 2]

    def test_infeasible_rejected(self):
        with pytest.raises(DegreeSequenceError):
            sample_undirected((3, 1), SamplerConfig(seed=0))


class TestEventProbability:
    def test_unknown_event(self):
        dp = DegreePair.regular(3, 1)
        with pytest.raises(DomainError):
            estimate_event_probability(dp, SamplerConfig(seed=0), "whatever")

    def test_loop_events_need_square_pairs(self):
        dp = DegreePair((2,), (1, 1))
        with pytest.raises(SquareOnlyError):
            estimate_event_probability(dp, SamplerConfig(seed=0), "loop-free")

    def test_x_events_need_x(self):
        dp = DegreePair.regular(3, 1)
        with pytest.raises(DomainError):
            estimate_event_probability(dp, SamplerConfig(seed=0), "contains-x")

    def test_avoiding_nothing_is_certain_without_sampling(self):
        dp = DegreePair.regular(3, 1)
        cfg = SamplerConfig(seed=0, samples=50)
        est = estimate_event_probability(
            dp, cfg, "avoids-x", ForbiddenGraph.empty(3, 3)
        )
        assert est.point == 1.0 and est.stderr == 0.0
        assert est.n_samples == 50

    def test_estimates_carry_the_resolved_config(self):
        dp = DegreePair.regular(4, 1)
        cfg = SamplerConfig(seed=1, method="configuration-rejection", samples=40)
        est = estimate_event_probability(dp, cfg, "loop-free")
        assert isinstance(est, EmpiricalEstimate)
        assert est.config["seed"] == 1
        assert est.config["event"] == "loop-free"
        assert est.n_samples == 40
        assert 0.0 <= est.point <= 1.0

    def test_twocycle_free_conditions_on_loop_free(self):
        # conditional given loop-freeness: exactly 6/9 at one-regular n=4
        dp = DegreePair.regular(4, 1)
        cfg = SamplerConfig(
            seed=31, method="configuration-rejection", samples=2500
        )
        est = estimate_event_probability(dp, cfg, "twocycle-free")
        sigma = math.sqrt((6 / 9) * (3 / 9) / 2500)
        assert abs(est.point - 6 / 9) < 5 * sigma

    def test_contains_complements_avoids(self):
        dp = DegreePair((2, 2, 2), (2, 2, 2))
        x = ForbiddenGraph(3, 3, [(0, 0)])
        cfg = SamplerConfig(seed=8, samples=400)
        inside = estimate_event_probability(dp, cfg, "contains-x", x)
        outside = estimate_event_probability(dp, cfg, "avoids-x", x)
        assert inside.point + outside.point == pytest.approx(1.0)


class TestOrientationCounting:
    def test_odd_degree_is_vacuous(self):
        est = estimate_expected_orientation_count(
            (3, 3), (0, 0), SamplerConfig(seed=0, samples=10)
        )
        assert est.point == 0.0 and est.stderr == 0.0
        assert est.config["vacuous"] == "odd degree"

    def test_non_integer_delta_rejected(self):
        with pytest.raises(DomainError):
            estimate_expected_orientation_count(
                (2, 2), (0.5, -0.5), SamplerConfig(seed=0)
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(DegreeSequenceError):
            estimate_expected_orientation_count((2, 2), (0,), SamplerConfig(seed=0))

    def test_four_cycle_mean_is_exact(self):
        # every realisation of (2,2,2,2) is a labeled 4-cycle with exactly
        # two balanced orientations, so the estimator has zero variance
        est = estimate_expected_orientation_count(
            (2, 2, 2, 2), (0, 0, 0, 0), SamplerConfig(seed=13, samples=25)
        )
        assert est.point == 2.0
        assert est.stderr == 0.0


# ---------------------------------------------------------------------------
# The samplers as they were written before their draws were taken in blocks:
# one rng.integers call per chain index and one rng.permutation call per
# rejection attempt.  The library must reproduce their samples exactly.
# ---------------------------------------------------------------------------


def _reference_streams(cfg):
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.streams)
    base, rem = divmod(cfg.samples, cfg.streams)
    for k, child in enumerate(children):
        yield np.random.Generator(np.random.Philox(child)), base + (k < rem)


def _reference_rejection(dp, rng, quota, max_rejections, condition):
    row_list = np.repeat(np.arange(dp.m), dp.s).tolist()
    col_stubs = np.repeat(np.arange(dp.n), dp.t)
    out = []
    for _ in range(quota):
        for _attempt in range(max_rejections):
            cols = col_stubs[rng.permutation(dp.total)]
            edges = set(zip(row_list, cols.tolist()))
            if len(edges) != dp.total:
                continue
            g = BipartiteGraph(dp.m, dp.n, edges)
            if condition is None or condition(g):
                out.append(g)
                break
        else:
            raise BudgetError("rejection budget exhausted")
    return out


def _reference_chain(dp, rng, quota, burn_in, max_rejections, condition):
    edges = list(sampling._greedy_realisation(dp).sorted_edges())
    edge_set = set(edges)
    s_count = len(edges)

    def advance(steps):
        for _ in range(steps):
            k1 = int(rng.integers(s_count))
            k2 = int(rng.integers(s_count))
            if k1 == k2:
                continue
            u1, v1 = edges[k1]
            u2, v2 = edges[k2]
            if u1 == u2 or v1 == v2:
                continue
            e1, e2 = (u1, v2), (u2, v1)
            if e1 in edge_set or e2 in edge_set:
                continue
            edge_set.difference_update(((u1, v1), (u2, v2)))
            edge_set.update((e1, e2))
            edges[k1], edges[k2] = e1, e2

    out = []
    interval = max(burn_in, 1)
    advance(burn_in)
    for _ in range(quota):
        for _attempt in range(max_rejections):
            g = BipartiteGraph(dp.m, dp.n, edges)
            if condition is None or condition(g):
                out.append(g)
                break
            advance(interval)
        else:
            raise BudgetError("conditioning budget exhausted")
        advance(interval)
    return out


def reference_bipartite_samples(dp, cfg, condition=None):
    out = []
    for rng, quota in _reference_streams(cfg):
        if cfg.resolved_method(dp) == "configuration-rejection":
            out += _reference_rejection(
                dp, rng, quota, cfg.max_rejections, condition
            )
        else:
            out += _reference_chain(
                dp, rng, quota, cfg.resolved_burn_in(dp.total),
                cfg.max_rejections, condition,
            )
    return out


def reference_undirected(d, cfg):
    stubs = np.repeat(np.arange(len(d)), d)
    out = []
    for rng, quota in _reference_streams(cfg):
        for _ in range(quota):
            for _attempt in range(cfg.max_rejections):
                paired = stubs[rng.permutation(stubs.shape[0])].reshape(-1, 2)
                edges = set()
                for u, v in paired.tolist():
                    key = (min(u, v), max(u, v))
                    if u == v or key in edges:
                        break
                    edges.add(key)
                else:
                    out.append(tuple(sorted(edges)))
                    break
            else:
                raise BudgetError("pairing budget exhausted")
    return out


def _outcome(fn, *args, **kwargs):
    """The samples as edge tuples, or "budget" when the budget ran out."""
    try:
        graphs = list(fn(*args, **kwargs))
    except BudgetError:
        return "budget"
    return [g if isinstance(g, tuple) else g.sorted_edges() for g in graphs]


SQUARE5 = DegreePair((2, 2, 1, 2, 1), (1, 2, 2, 1, 2))


def loop_free(g):
    return g.loop_count() == 0


class TestSameSamplesAsOneDrawAtATime:
    @pytest.mark.parametrize("method", ["configuration-rejection", "swap-chain"])
    @pytest.mark.parametrize("burn_in", [None, 0, 1, 37])
    @pytest.mark.parametrize("streams", [1, 3])
    def test_bipartite_samples(self, method, burn_in, streams):
        cfg = SamplerConfig(
            seed=20 + streams, method=method, burn_in=burn_in, samples=7,
            streams=streams,
        )
        want = _outcome(reference_bipartite_samples, SQUARE5, cfg)
        assert want != "budget"
        assert _outcome(iter_bipartite_samples, SQUARE5, cfg) == want

    @pytest.mark.parametrize("method", ["configuration-rejection", "swap-chain"])
    @pytest.mark.parametrize("streams", [1, 3])
    def test_twocycle_free_conditioning(self, method, streams):
        cfg = SamplerConfig(seed=5, method=method, samples=9, streams=streams)
        want = _outcome(reference_bipartite_samples, SQUARE5, cfg, loop_free)
        got = _outcome(iter_bipartite_samples, SQUARE5, cfg, condition=loop_free)
        assert got == want
        hits = [
            g.twocycle_count() == 0
            for g in reference_bipartite_samples(SQUARE5, cfg, loop_free)
        ]
        est = estimate_event_probability(SQUARE5, cfg, "twocycle-free")
        assert est.point == np.mean(hits)

    @pytest.mark.parametrize("streams", [1, 3])
    def test_undirected_four_regular(self, streams):
        cfg = SamplerConfig(seed=11, samples=8, streams=streams)
        want = reference_undirected((4,) * 7, cfg)
        assert sample_undirected((4,) * 7, cfg) == want

    @pytest.mark.parametrize("method", ["configuration-rejection", "swap-chain"])
    def test_budget_runs_out_at_the_same_attempt(self, method):
        # the condition records every graph it is shown, so both sides must
        # show the same graphs before giving up
        dp = DegreePair.regular(4, 2)
        for budget in (1, 2, 5, 13):
            cfg = SamplerConfig(
                seed=3, method=method, burn_in=5, max_rejections=budget
            )
            seen = {"ref": [], "lib": []}
            for side, fn in (
                ("ref", reference_bipartite_samples),
                ("lib", iter_bipartite_samples),
            ):
                def refuse(g, log=seen[side]):
                    log.append(g.sorted_edges())
                    return False

                kwargs = {"condition": refuse}
                assert _outcome(fn, dp, cfg, **kwargs) == "budget"
            assert seen["lib"] == seen["ref"]
            # the chain shows every state; rejection only its simple attempts
            assert len(seen["lib"]) == budget or method != "swap-chain"
            assert 0 < len(seen["lib"]) <= budget

    def test_dense_budgets_end_where_the_reference_ends(self):
        # K_{3,3} and K_4 stub pairings are rarely simple; each budget must
        # succeed or run out exactly as it did one draw at a time
        outcomes = set()
        for budget in range(1, 40, 3):
            cfg = SamplerConfig(
                seed=1, method="configuration-rejection", samples=2,
                max_rejections=budget,
            )
            dp = DegreePair.regular(3, 3)
            want = _outcome(reference_bipartite_samples, dp, cfg)
            assert _outcome(iter_bipartite_samples, dp, cfg) == want
            want_d = _outcome(reference_undirected, (3, 3, 3, 3), cfg)
            assert _outcome(sample_undirected, (3, 3, 3, 3), cfg) == want_d
            outcomes.update((want == "budget", want_d == "budget"))
        assert outcomes == {True, False}

    @pytest.mark.parametrize("streams", [1, 3])
    def test_empty_and_one_edge_inputs(self, streams):
        cfg = SamplerConfig(
            seed=4, method="configuration-rejection", samples=5, streams=streams
        )
        for dp in (DegreePair((0, 0), (0, 0)), DegreePair((0, 1, 0), (1, 0))):
            want = _outcome(reference_bipartite_samples, dp, cfg)
            assert want != "budget"
            assert _outcome(iter_bipartite_samples, dp, cfg) == want
        for d in ((0,), (0, 0, 0), (1, 1), (0, 1, 0, 1)):
            assert sample_undirected(d, cfg) == reference_undirected(d, cfg)

    @pytest.mark.parametrize("block_stubs", [3, 20])
    @pytest.mark.parametrize("budget", [1, 2])
    def test_small_budgets_across_block_boundaries(
        self, monkeypatch, block_stubs, budget
    ):
        # with blocks of one or two pairings, the attempts a budget counts
        # run over several blocks
        monkeypatch.setattr(sampling, "_PERMUTATION_BLOCK_STUBS", block_stubs)
        outcomes = set()
        for seed in range(12):
            cfg = SamplerConfig(
                seed=seed, method="configuration-rejection", samples=3,
                max_rejections=budget,
            )
            for condition in (None, loop_free):
                want = _outcome(reference_bipartite_samples, SQUARE5, cfg, condition)
                got = _outcome(
                    iter_bipartite_samples, SQUARE5, cfg, condition=condition
                )
                assert got == want
                outcomes.add(want == "budget")
            for d in ((2,) * 5, (2, 2, 1, 1, 1, 1)):
                want = _outcome(reference_undirected, d, cfg)
                assert _outcome(sample_undirected, d, cfg) == want
                outcomes.add(want == "budget")
        assert outcomes == {True, False}

    @pytest.mark.parametrize("d", [(2,) * 5, (2,) * 6, (3, 3, 3, 3)])
    @pytest.mark.parametrize("block_stubs", [None, 36])
    def test_undirected_odd_sized_blocks(self, monkeypatch, d, block_stubs):
        if block_stubs is not None:
            monkeypatch.setattr(sampling, "_PERMUTATION_BLOCK_STUBS", block_stubs)
        assert sampling._PERMUTATION_BLOCK_STUBS // sum(d) % 2 == 1
        for streams in (1, 2):
            cfg = SamplerConfig(seed=13, samples=40, streams=streams)
            assert sample_undirected(d, cfg) == reference_undirected(d, cfg)

    def test_budget_runs_out_between_simple_pairings(self, monkeypatch):
        # few pairings of K_{5,5} or K_7 are simple, so a block of them seldom
        # holds one; the budget must run out inside the first block all the
        # same, without drawing a second one to look for a simple pairing
        cfg = SamplerConfig(
            seed=1, method="configuration-rejection", max_rejections=3
        )
        dp = DegreePair.regular(5, 5)
        assert _outcome(reference_bipartite_samples, dp, cfg) == "budget"
        assert _outcome(reference_undirected, (6,) * 7, cfg) == "budget"

        class OneBlock:
            def __init__(self, rng):
                self.rng, self.blocks = rng, 0

            def permuted(self, *args, **kwargs):
                self.blocks += 1
                assert self.blocks == 1, "drew past the budget"
                return self.rng.permuted(*args, **kwargs)

        spawned = sampling._spawned_rngs
        monkeypatch.setattr(
            sampling, "_spawned_rngs", lambda c: [OneBlock(r) for r in spawned(c)]
        )
        assert _outcome(iter_bipartite_samples, dp, cfg) == "budget"
        assert _outcome(sample_undirected, (6,) * 7, cfg) == "budget"

    @pytest.mark.parametrize("block_stubs", [3, 20])
    def test_tiny_blocks(self, monkeypatch, block_stubs):
        # chunk and block boundaries now fall inside every walk and sample
        monkeypatch.setattr(sampling, "_CHAIN_CHUNK_STEPS", 3)
        monkeypatch.setattr(sampling, "_PERMUTATION_BLOCK_STUBS", block_stubs)
        for method in ("configuration-rejection", "swap-chain"):
            for burn_in, streams in ((None, 1), (37, 3), (1, 1)):
                cfg = SamplerConfig(
                    seed=8, method=method, burn_in=burn_in, samples=5,
                    streams=streams,
                )
                for condition in (None, loop_free):
                    want = _outcome(
                        reference_bipartite_samples, SQUARE5, cfg, condition
                    )
                    got = _outcome(
                        iter_bipartite_samples, SQUARE5, cfg, condition=condition
                    )
                    assert got == want
        cfg = SamplerConfig(seed=2, samples=6, streams=3)
        assert sample_undirected((4,) * 7, cfg) == reference_undirected(
            (4,) * 7, cfg
        )


class TestChainWithoutSwaps:
    @pytest.mark.parametrize(
        "dp", [DegreePair((0, 0), (0, 0)), DegreePair((1, 0), (0, 1))]
    )
    def test_fewer_than_two_edges_yield_the_only_graph(self, dp):
        cfg = SamplerConfig(seed=1, method="swap-chain", samples=3)
        graphs = [g.sorted_edges() for g in iter_bipartite_samples(dp, cfg)]
        assert graphs == [sampling._greedy_realisation(dp).sorted_edges()] * 3
