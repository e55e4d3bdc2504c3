"""Ordering metrics vs scipy and hand-computed references."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from netchron.errors import (
    DegenerateTruth,
    DimensionMismatch,
    EmptyInput,
    EmptyPairs,
    FlatTruthCurve,
    InvalidPermutation,
)
from netchron.evaluation import (
    _distinct_time_pairs,
    all_pairs_accuracy,
    binned_trend,
    degree_gini,
    evaluation_report,
    feature_time_correlation,
    growth_curve,
    hub_radar,
    make_eval_pairs,
    midranks,
    pairwise_accuracy,
    spearman_rho,
    trajectory_nrmse,
)
from netchron.features import structural_edge_features
from netchron.graph import build_network
from netchron.ordering import GlobalOrdering, ground_truth_ordering, order_from_scores

import oracles


def timed_network(seed=0, n=14):
    rng = np.random.default_rng(seed)
    net = oracles.random_network(rng, max_nodes=n, min_nodes=n, edge_prob=0.4)
    # Give every edge a distinct time.
    times = rng.permutation(net.edge_count).astype(float)
    return build_network(net.node_count, net.edges, times)


def reversed_ordering(truth):
    m = truth.edge_count
    ranks = m + 1 - truth.ranks
    return GlobalOrdering(
        borda_scores=-truth.borda_scores, ranks=ranks, source=truth.source
    )


class TestPairwiseAccuracy:
    def test_truth_scores_one(self):
        net = timed_network(1)
        truth = ground_truth_ordering(net.alpha)
        pairs = make_eval_pairs(net, seed=0)
        assert pairwise_accuracy(truth, pairs) == 1.0

    def test_reversal_is_complement(self):
        net = timed_network(2)
        truth = ground_truth_ordering(net.alpha)
        pairs = make_eval_pairs(net, seed=1)
        acc_fwd = pairwise_accuracy(truth, pairs)
        acc_rev = pairwise_accuracy(reversed_ordering(truth), pairs)
        assert acc_fwd + acc_rev == 1.0

    def test_empty_pairs_rejected(self):
        net = timed_network(3)
        truth = ground_truth_ordering(net.alpha)
        with pytest.raises(EmptyPairs):
            pairwise_accuracy(truth, np.zeros((0, 3)))

    def test_budget_and_orientation(self):
        net = timed_network(4)
        pairs = make_eval_pairs(net, budget=10, seed=5)
        assert pairs.shape == (10, 3)
        # y matches the alpha comparison for each row as oriented.
        for a, b, y in pairs:
            assert (net.alpha[a] < net.alpha[b]) == bool(y)

    def test_skips_tied_times(self):
        net = build_network(4, [(0, 1), (1, 2), (2, 3)], [1.0, 1.0, 2.0])
        pairs = make_eval_pairs(net, seed=0)
        assert pairs.shape[0] == 2  # the tied pair is dropped


def tied_network(rng, levels):
    """Random graph whose formation times take at most `levels` values."""
    net = oracles.random_network(rng, max_nodes=16, min_nodes=3, edge_prob=0.4)
    times = rng.integers(0, levels, size=net.edge_count).astype(float)
    return build_network(net.node_count, net.edges, times)


def peak_traced_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestPairSampler:
    def random_case(self, rng):
        pool = int(rng.integers(2, 45))
        alpha = rng.integers(0, int(rng.integers(1, 8)), size=pool).astype(float)
        edges = rng.choice(pool, size=int(rng.integers(0, pool + 1)), replace=False)
        return edges, alpha

    def test_matches_enumeration_within_budget(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            edges, alpha = self.random_case(rng)
            seed = int(rng.integers(2**31))
            want_rng = np.random.default_rng(seed)
            want = oracles.distinct_time_pairs_by_enumeration(edges, alpha, want_rng)
            budget = None
            if rng.random() < 0.5:
                budget = max(want.shape[0], 1) + int(rng.integers(0, 3))
            got_rng = np.random.default_rng(seed)
            got = _distinct_time_pairs(edges, alpha, got_rng, budget)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert got_rng.random() == want_rng.random()

    def test_over_budget_draws_distinct_new_pairs(self):
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(300):
            edges, alpha = self.random_case(rng)
            every = oracles.distinct_time_pairs_by_enumeration(
                edges, alpha, np.random.default_rng(0)
            )
            total = every.shape[0]
            if total < 2:
                continue
            budget = int(rng.integers(1, total))
            got = _distinct_time_pairs(
                edges, alpha, np.random.default_rng(checked), budget
            )
            assert got.shape == (min(budget, total), 3)
            assert np.all(alpha[got[:, 0]] != alpha[got[:, 1]])
            assert np.array_equal(got[:, 2], alpha[got[:, 0]] < alpha[got[:, 1]])
            drawn = {tuple(p) for p in np.sort(got[:, :2], axis=1).tolist()}
            assert len(drawn) == budget
            assert drawn <= {tuple(p) for p in np.sort(every[:, :2], axis=1).tolist()}
            checked += 1
        assert checked > 150

    def test_over_budget_draws_are_uniform(self):
        # Six edges in three tie groups: 15 pairs, 4 of them tied.
        alpha = np.array([0.0, 1.0, 0.0, 1.0, 2.0, 1.0])
        edges = np.arange(6)
        every = {tuple(p) for p in np.sort(
            oracles.distinct_time_pairs_by_enumeration(
                edges, alpha, np.random.default_rng(0))[:, :2], axis=1).tolist()}
        assert len(every) == 11
        cells = {pair: k for k, pair in enumerate(sorted(every))}
        counts = np.zeros(len(cells))
        draws, budget = 3000, 3
        rng = np.random.default_rng(5)
        for _ in range(draws):
            got = _distinct_time_pairs(edges, alpha, rng, budget)
            for pair in np.sort(got[:, :2], axis=1).tolist():
                counts[cells[tuple(pair)]] += 1
        assert counts.sum() == draws * budget
        assert scipy.stats.chisquare(counts).pvalue > 1e-3

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        net = timed_network(6)
        with pytest.raises(EmptyInput):
            make_eval_pairs(net, budget=budget)

    def test_memory_stays_within_edges_and_budget(self):
        size, budget = 30_000, 100_000
        alpha = np.random.default_rng(8).integers(0, 500, size=size).astype(float)
        edges = np.arange(size)
        pairs = []
        peak = peak_traced_mb(lambda: pairs.append(
            _distinct_time_pairs(edges, alpha, np.random.default_rng(0), budget)))
        assert pairs[0].shape == (budget, 3)
        assert peak < 100.0


class TestAllPairsAccuracy:
    def test_equals_accuracy_over_every_pair(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            net = tied_network(rng, int(rng.integers(2, 6)))
            if len(set(net.alpha.tolist())) < 2:
                continue
            scores = rng.normal(size=net.edge_count)
            if rng.random() < 0.3:
                scores = np.round(scores)  # tied scores, index tie-break
            ordering = order_from_scores(scores)
            pairs = make_eval_pairs(net)
            assert all_pairs_accuracy(ordering, net.alpha) == (
                pairwise_accuracy(ordering, pairs), pairs.shape[0]
            )

    def test_report_counts_every_pair_unless_sampling(self):
        net = tied_network(np.random.default_rng(32), 3)
        scores = np.random.default_rng(33).normal(size=net.edge_count)
        ordering = order_from_scores(scores)
        report = evaluation_report(net, ordering, samples=5, top_k=3, bins=2)
        pairs = make_eval_pairs(net)
        assert report["pair_count"] == pairs.shape[0]
        assert report["pairwise_accuracy"] == pairwise_accuracy(ordering, pairs)
        sampled = evaluation_report(net, ordering, pair_budget=5, seed=2,
                                    samples=5, top_k=3, bins=2)
        few = make_eval_pairs(net, budget=5, seed=2)
        assert sampled["pair_count"] == 5
        assert sampled["pairwise_accuracy"] == pairwise_accuracy(ordering, few)

    def test_rejects_tied_ranks_and_tied_times(self):
        with pytest.raises(InvalidPermutation):
            all_pairs_accuracy(np.array([1, 2, 2]), np.array([0.0, 1.0, 2.0]))
        with pytest.raises(EmptyPairs):
            all_pairs_accuracy(np.array([1, 2, 3]), np.array([4.0, 4.0, 4.0]))

    def test_memory_stays_linear(self):
        m = 40_000
        rng = np.random.default_rng(34)
        alpha = rng.integers(0, 300, size=m).astype(float)
        ranks = rng.permutation(m) + 1
        result = []
        peak = peak_traced_mb(lambda: result.append(all_pairs_accuracy(ranks, alpha)))
        assert 0.45 < result[0][0] < 0.55
        assert peak < 100.0


class TestSpearman:
    def test_midranks_with_ties(self):
        assert list(midranks([10.0, 20.0, 20.0, 30.0])) == [1.0, 2.5, 2.5, 4.0]

    def test_midranks_match_the_loop(self):
        rng = np.random.default_rng(9)
        for size in list(range(0, 6)) + [40, 200]:
            for _ in range(20):
                x = rng.integers(0, 6, size=size).astype(float)
                if size and rng.random() < 0.3:
                    x[rng.integers(size)] = np.nan
                assert np.array_equal(
                    midranks(x), oracles.midranks_by_loop(x), equal_nan=True
                )

    def test_matches_scipy_without_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            ref = scipy.stats.spearmanr(x, y).statistic
            assert np.isclose(spearman_rho(x, y), ref, atol=1e-12)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.integers(0, 5, size=40).astype(float)
            y = rng.integers(0, 5, size=40).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            ref = scipy.stats.spearmanr(x, y).statistic
            assert np.isclose(spearman_rho(x, y), ref, atol=1e-12)

    def test_perfect_and_reversed(self):
        x = np.arange(10.0)
        assert np.isclose(spearman_rho(x, x), 1.0, atol=1e-15)
        assert np.isclose(spearman_rho(x, -x), -1.0, atol=1e-15)

    def test_constant_input_rejected(self):
        with pytest.raises(DegenerateTruth):
            spearman_rho(np.ones(5), np.arange(5.0))


class TestBinnedTrend:
    def test_perfect_ordering_rmse_exactly_zero(self):
        for m in (10, 23, 100, 397):
            ranks = np.arange(1, m + 1, dtype=float)
            records, rmse = binned_trend(ranks, ranks)
            assert rmse == 0.0
            assert sum(r.count for r in records) == m

    def test_constant_predictor_known_value(self):
        # All predictions at normalized 0.5; M=100 so bins are even.
        m = 100
        true = np.arange(1, m + 1, dtype=float)
        pred = np.full(m, m / 2 + 0.5)
        _, rmse = binned_trend(pred, true)
        assert np.isclose(rmse, math.sqrt(0.0825), atol=1e-12)

    def test_bin_population_and_references(self):
        m = 25
        true = np.arange(1, m + 1, dtype=float)
        records, _ = binned_trend(true, true)
        assert [r.count for r in records] == [3, 2, 3, 2, 3, 2, 3, 2, 3, 2]
        for r in records:
            assert r.median == r.reference
            assert 0.0 <= r.reference <= 1.0

    def test_requires_permutation_truth(self):
        with pytest.raises(DegenerateTruth):
            binned_trend(np.arange(1.0, 13.0), np.ones(12))

    def test_requires_enough_edges(self):
        with pytest.raises(EmptyInput):
            binned_trend(np.arange(1.0, 6.0), np.arange(1.0, 6.0))


class TestGini:
    def test_star_value(self):
        net = build_network(4, [(0, 1), (0, 2), (0, 3)])
        assert np.isclose(degree_gini(net), 0.25, atol=1e-12)

    def test_uniform_degrees_zero(self):
        net = build_network(3, [(0, 1), (1, 2), (0, 2)])
        assert np.isclose(degree_gini(net), 0.0, atol=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            net = oracles.random_network(rng, max_nodes=12)
            deg = net.degrees.astype(float)
            n = deg.size
            mu = deg.mean()
            ref = 0.0
            if mu > 0:
                ref = sum(
                    abs(a - b) for a in deg for b in deg
                ) / (2.0 * n * n * mu)
            assert np.isclose(degree_gini(net), ref, atol=1e-12)


class TestTrajectories:
    def test_perfect_ordering_nrmse_zero(self):
        net = timed_network(17)
        truth = ground_truth_ordering(net.alpha)
        for prop in ("clustering", "degree_gini"):
            assert trajectory_nrmse(net, truth, truth, prop, samples=20) == 0.0

    def test_reversed_ordering_differs(self):
        net = timed_network(19)
        truth = ground_truth_ordering(net.alpha)
        rev = reversed_ordering(truth)
        vals = [
            trajectory_nrmse(net, rev, truth, p, samples=20)
            for p in ("clustering", "degree_gini")
        ]
        assert any(v > 0 for v in vals)

    def test_flat_truth_curve_raises(self):
        # A star never closes a triangle; the clustering curve is flat 0.
        net = build_network(5, [(0, k) for k in range(1, 5)], [1.0, 2.0, 3.0, 4.0])
        truth = ground_truth_ordering(net.alpha)
        with pytest.raises(FlatTruthCurve):
            trajectory_nrmse(net, truth, truth, "clustering", samples=10)

    def test_growth_curve_monotone_fraction_effect(self):
        net = timed_network(23)
        truth = ground_truth_ordering(net.alpha)
        curve = growth_curve(net, truth, "degree_gini", samples=10)
        assert curve.shape == (10,)
        with pytest.raises(KeyError):
            growth_curve(net, truth, "assortativity", samples=5)


class TestHubRadar:
    def test_perfect_area(self):
        net = timed_network(29)
        truth = ground_truth_ordering(net.alpha)
        radar = hub_radar(net, truth, truth, top_k=5, samples=20)
        assert np.allclose(radar.similarity, 1.0)
        expect = 2.5 * math.sin(2.0 * math.pi / 5.0)
        assert abs(radar.area - expect) < 1e-9

    def test_hubs_are_top_degree(self):
        net = timed_network(31)
        truth = ground_truth_ordering(net.alpha)
        radar = hub_radar(net, truth, truth, top_k=3, samples=10)
        deg = net.degrees
        floor = min(deg[h] for h in radar.hubs)
        others = [deg[i] for i in range(net.node_count) if i not in set(radar.hubs)]
        assert all(floor >= d for d in others)

    def test_worse_ordering_smaller_area(self):
        net = timed_network(37)
        truth = ground_truth_ordering(net.alpha)
        rev = reversed_ordering(truth)
        perfect = hub_radar(net, truth, truth, top_k=5, samples=20).area
        worse = hub_radar(net, rev, truth, top_k=5, samples=20).area
        assert worse < perfect

    def test_flat_hub_curve_falls_back(self):
        net = build_network(4, [(0, 1), (1, 2), (2, 3)], [0.0, 1.0, 2.0])
        truth = ground_truth_ordering(net.alpha)
        radar = hub_radar(net, truth, truth, top_k=4, samples=3)
        assert np.isfinite(radar.area)
        assert np.allclose(radar.similarity, 1.0)

    def test_rejects_bad_top_k(self):
        net = timed_network(41)
        truth = ground_truth_ordering(net.alpha)
        with pytest.raises(EmptyInput):
            hub_radar(net, truth, truth, top_k=2)


class TestFeatureTimeCorrelation:
    def test_constant_column_flagged(self):
        net = timed_network(43)
        fm = structural_edge_features(net)
        out = feature_time_correlation(fm, net.alpha)
        assert set(out.values) == set(fm.columns)
        for name in out.degenerate:
            assert out.values[name] == 0.0
        for name, rho in out.values.items():
            assert -1.0 <= rho <= 1.0

    def test_matches_direct_spearman(self):
        net = timed_network(47)
        fm = structural_edge_features(net)
        out = feature_time_correlation(fm, net.alpha)
        name = "deg_sum"
        if name not in out.degenerate:
            ref = scipy.stats.spearmanr(fm.column(name), net.alpha).statistic
            assert np.isclose(out.values[name], ref, atol=1e-12)

    def test_tied_truth_rejected(self):
        net = build_network(3, [(0, 1), (1, 2), (0, 2)], [1.0, 1.0, 1.0])
        fm = structural_edge_features(net)
        with pytest.raises(DegenerateTruth):
            feature_time_correlation(fm, net.alpha)


class TestReport:
    def test_perfect_report_values(self):
        net = timed_network(53)
        truth = ground_truth_ordering(net.alpha)
        fm = structural_edge_features(net)
        report = evaluation_report(net, truth, feature_matrix=fm, samples=10)
        assert report["pairwise_accuracy"] == 1.0
        assert np.isclose(report["spearman_rho"], 1.0, atol=1e-12)
        assert report["binned_trend"]["rmse"] == 0.0
        for v in report["trajectory_nrmse"].values():
            assert v == 0.0 or v is None
        assert abs(
            report["hub_radar"]["area"] - report["hub_radar"]["perfect_area"]
        ) < 1e-9
        assert "feature_time_correlation" in report

    def test_growth_curves_are_returned_and_feed_the_nrmse(self):
        net = timed_network(41)
        truth = ground_truth_ordering(net.alpha)
        rev = reversed_ordering(truth)
        report = evaluation_report(net, rev, samples=8)
        curves = report["growth_curves"]
        for prop in ("clustering", "degree_gini"):
            assert curves[prop + "_predicted"] == growth_curve(net, rev, prop, 8).tolist()
            assert curves[prop + "_true"] == growth_curve(net, truth, prop, 8).tolist()
            assert report["trajectory_nrmse"][prop] == trajectory_nrmse(
                net, rev, truth, prop, samples=8
            )

    def test_deterministic(self):
        net = timed_network(59)
        truth = ground_truth_ordering(net.alpha)
        a = evaluation_report(net, truth, samples=5)
        b = evaluation_report(net, truth, samples=5)
        assert a == b
