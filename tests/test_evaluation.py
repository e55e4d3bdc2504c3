"""Ordering metrics vs scipy and hand-computed references."""

import math
import tracemalloc

import networkx as nx
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
from netchron.datasets import SynthKind, SynthSpec, generate_synthetic
from netchron.evaluation import (
    _cutoffs,
    _distinct_time_pairs,
    _hub_curve,
    _median,
    _subsample,
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
from netchron.graph import build_network, triangle_counts, triangles
from netchron.ordering import GlobalOrdering, ground_truth_ordering, order_from_scores

import oracles


def timed_network(seed=0, n=14):
    rng = np.random.default_rng(seed)
    net = oracles.random_network(rng, max_nodes=n, min_nodes=n, edge_prob=0.4)
    # Give every edge a distinct time.
    times = rng.permutation(net.edge_count).astype(float)
    return build_network(net.node_count, net.endpoints, times)


def reversed_ordering(truth):
    m = truth.edge_count
    ranks = m + 1 - truth.ranks
    return GlobalOrdering(borda_scores=-truth.borda_scores, ranks=ranks)


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

    @pytest.mark.parametrize("case", ["edge -1", "edge M", "label 2"])
    def test_pairs_outside_the_edges_or_labels_raise(self, case):
        net = timed_network(4)
        m = net.edge_count
        bad, match = {
            "edge -1": ((-1, 0, 1), r"pair edges must lie in \[0, %d\)" % m),
            "edge M": ((0, m, 1), r"pair edges must lie in \[0, %d\)" % m),
            "label 2": ((0, 1, 2), "pair labels must be 0 or 1"),
        }[case]
        with pytest.raises(DimensionMismatch, match=match):
            pairwise_accuracy(ground_truth_ordering(net.alpha), [(0, 1, 1), bad])

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
    return build_network(net.node_count, net.endpoints, times)


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


class ChoiceBarred:
    """A generator whose choice() fails, to show the replay drew the sample."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def choice(self, *args, **kwargs):
        raise AssertionError("numpy's sampler ran where the replay should")

    def __getattr__(self, name):
        return getattr(self.rng, name)


def replayed(total, budget):
    return total > 10_000 and budget > total // 50


class TestSubsample:
    """_subsample against the numpy call it replaces, in both regimes."""

    def check(self, total, budget, seed):
        want_rng = np.random.default_rng(seed)
        want = np.sort(want_rng.choice(total, size=budget, replace=False))
        if replayed(total, budget):
            got_rng = ChoiceBarred(seed)
        else:
            got_rng = np.random.default_rng(seed)
        got = _subsample(got_rng, total, budget)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (total, budget, seed)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("regime", ["floyd", "replayed tail"])
    def test_equals_sorted_choice_and_leaves_the_same_state(self, regime):
        rng = np.random.default_rng(["floyd", "replayed tail"].index(regime))
        for _ in range(300):
            if regime == "floyd":
                total = int(rng.integers(1, 200_000))
                high = total if total <= 10_000 else total // 50
                budget = int(rng.integers(1, high + 1))
            else:
                total = int(rng.integers(10_001, 200_000))
                budget = int(rng.integers(total // 50 + 1, total + 1))
                assert replayed(total, budget)
            self.check(total, budget, int(rng.integers(2**31)))

    @pytest.mark.parametrize("total", [10_000, 10_001, 123_457])
    def test_regime_boundaries(self, total):
        for budget in (total // 50, total // 50 + 1, total // 2, total // 2 + 1,
                       (total + 1) // 2 - 1, total - 1, total):
            for seed in range(3):
                self.check(total, budget, seed)

    def test_replay_follows_chains_of_earlier_writes(self):
        # Budgets from half the population up: targets often land on
        # positions earlier steps wrote, several links deep.
        for seed in range(20):
            self.check(20_001, 10_000 + 500 * seed, seed)


class TestPairSamplerMemory:
    @staticmethod
    def peak(size, budget):
        alpha = np.arange(size, dtype=float)
        edges = np.arange(size)
        assert replayed(size * (size - 1) // 2, budget)
        # An untraced call first, so numpy's one-time allocations do not count.
        _distinct_time_pairs(edges, alpha, ChoiceBarred(0), budget)
        pairs = []
        peak = peak_traced_mb(lambda: pairs.append(
            _distinct_time_pairs(edges, alpha, ChoiceBarred(0), budget)))
        assert pairs[0].shape == (budget, 3)
        return peak

    def test_peak_is_bounded_by_the_budget(self):
        # 4.5 M pairs: numpy's tail shuffle alone holds 36 MB for them.
        assert self.peak(3_000, 100_000) <= 12.0

    def test_peak_does_not_grow_with_the_pairs(self):
        # 4.5 M and 9.0 M pairs (3 000 and 4 243 edges), both above
        # total // 50 of the larger, so both calls replay the shuffle.
        small = self.peak(3_000, 200_000)
        assert abs(self.peak(4_243, 200_000) - small) <= 0.1 * small


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

    def test_rejects_tied_times(self):
        with pytest.raises(EmptyPairs):
            all_pairs_accuracy(order_from_scores(np.zeros(3)), np.full(3, 4.0))

    def test_memory_stays_linear(self):
        m = 40_000
        rng = np.random.default_rng(34)
        alpha = rng.integers(0, 300, size=m).astype(float)
        ordering = order_from_scores(-(rng.permutation(m) + 1))
        result = []
        peak = peak_traced_mb(lambda: result.append(all_pairs_accuracy(ordering, alpha)))
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


def ranked(ranks):
    """The GlobalOrdering with these 1-based ranks."""
    ranks = np.asarray(ranks)
    return GlobalOrdering(borda_scores=-ranks.astype(float), ranks=ranks)


class TestBinnedTrend:
    def test_perfect_ordering_rmse_exactly_zero(self):
        for m in (10, 23, 100, 397):
            truth = ranked(np.arange(1, m + 1))
            records, rmse = binned_trend(truth, truth)
            assert rmse == 0.0
            assert sum(r.count for r in records) == m

    def test_reversed_predictor_known_value(self):
        # M=100, so bin b holds true ranks 10b+1..10b+10 with reference
        # 0.1b + 0.05; reversed, its median is 1 - reference, so its
        # deviation is 0.9 - 0.2b and the mean square is 0.33.
        m = 100
        true = np.arange(1, m + 1)
        _, rmse = binned_trend(ranked(m + 1 - true), ranked(true))
        assert np.isclose(rmse, math.sqrt(0.33), atol=1e-12)

    def test_bin_population_and_references(self):
        m = 25
        truth = ranked(np.arange(1, m + 1))
        records, _ = binned_trend(truth, truth)
        assert [r.count for r in records] == [3, 2, 3, 2, 3, 2, 3, 2, 3, 2]
        for r in records:
            assert r.median == r.reference
            assert 0.0 <= r.reference <= 1.0

    def test_requires_permutation_truth(self):
        with pytest.raises(InvalidPermutation):
            binned_trend(ranked(np.arange(1, 13)), ranked(np.ones(12, dtype=int)))

    def test_requires_equal_edge_counts(self):
        with pytest.raises(DimensionMismatch, match="orderings rank 12 and 13 edges"):
            binned_trend(ranked(np.arange(1, 13)), ranked(np.arange(1, 14)))

    def test_requires_enough_edges(self):
        with pytest.raises(EmptyInput):
            binned_trend(ranked(np.arange(1, 6)), ranked(np.arange(1, 6)))

    @pytest.mark.parametrize("values", [
        [0.3], [0.7, 0.1], [0.5, 0.1, 0.9], [0.4, 0.2, 0.2, 0.8],
        [0.25, 0.25, 0.25], [0.1, 0.3, 0.3, 0.1], [1e-300, 1.7e308],
    ])
    def test_median_is_np_median_bit_for_bit(self, values):
        values = np.asarray(values)
        assert _median(values) == float(np.median(values))

    def test_median_is_np_median_on_random_draws(self):
        rng = np.random.default_rng(3)
        for size in range(1, 40):
            values = rng.random(size) if size % 3 else rng.integers(0, 4, size) / 7.0
            assert _median(values) == float(np.median(values))


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


def pa_network(n, m=2, seed=1):
    return generate_synthetic(
        SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, n, m, seed=seed)
    )


def sparse_random_network(rng, n, mean_degree):
    """G(n, p) with distinct times; a low mean degree leaves isolated
    nodes and several components."""
    ii, jj = np.triu_indices(n, k=1)
    keep = rng.random(ii.size) < mean_degree / (n - 1)
    edges = list(zip(ii[keep].tolist(), jj[keep].tolist()))
    return build_network(n, edges, rng.permutation(len(edges)).astype(float))


def random_tree(rng, n):
    """Each node after the first attaches to a uniform earlier node."""
    edges = [(int(rng.integers(i)), i) for i in range(1, n)]
    return build_network(n, edges, rng.permutation(n - 1).astype(float))


def replay_cases():
    rng = np.random.default_rng(71)
    cases = [
        sparse_random_network(rng, n, mean_degree)
        for n, mean_degree in [(12, 1.5), (40, 1.2), (90, 3.0), (150, 1.0)]
    ]
    cases.append(random_tree(rng, 30))
    cases += [pa_network(60, 2, seed=1), pa_network(120, 3, seed=2)]
    return cases


def random_rank_orderings(net, rng, count=2):
    """The true ordering, then `count` uniform random ones."""
    truth = ground_truth_ordering(net.alpha)
    return [truth] + [
        GlobalOrdering(
            borda_scores=np.zeros(net.edge_count),
            ranks=rng.permutation(net.edge_count) + 1,
        )
        for _ in range(count)
    ]


def to_networkx(net, edge_ids):
    g = nx.Graph()
    g.add_nodes_from(range(net.node_count))
    g.add_edges_from(net.endpoints[list(edge_ids)].tolist())
    return g


class TestReplayMatchesPrefixGraphs:
    @pytest.fixture(scope="class")
    def cases(self):
        return replay_cases()

    def test_cases_cover_isolated_nodes_components_and_a_tree(self, cases):
        assert any((net.degrees == 0).any() for net in cases)
        assert any(
            nx.number_connected_components(to_networkx(net, range(net.edge_count))) > 1
            for net in cases
        )
        assert any(triangle_counts(net).sum() == 0 for net in cases)
        assert all(triangle_counts(net).sum() > 0 for net in cases[-2:])

    @pytest.mark.parametrize("prop", ["clustering", "degree_gini"])
    def test_growth_curves_equal_the_prefix_graph_loop(self, cases, prop):
        rng = np.random.default_rng(73)
        for net in cases:
            for ordering in random_rank_orderings(net, rng):
                for samples in (1, 3, 50, net.edge_count + 5):
                    want = oracles.growth_curve_by_prefix_graphs(
                        net, ordering, prop, samples
                    )
                    assert np.array_equal(growth_curve(net, ordering, prop, samples), want)

    def test_hub_curves_equal_the_edge_scan(self, cases):
        rng = np.random.default_rng(79)
        for net in cases:
            by_degree = np.argsort(-net.degrees, kind="stable")
            nodes = np.union1d(
                by_degree[:6], rng.choice(net.node_count, size=6, replace=False)
            )
            for ordering in random_rank_orderings(net, rng):
                rank = ordering.ranks - 1
                for samples in (1, 3, 50, net.edge_count + 5):
                    cutoffs = _cutoffs(net.edge_count, samples)
                    for node in nodes:
                        want = oracles.hub_curve_by_scan(net, ordering.ranks, node, samples)
                        assert np.array_equal(_hub_curve(net, rank, node, cutoffs), want)

    def test_hub_radar_nrmse_equals_the_edge_scan(self, cases):
        rng = np.random.default_rng(83)
        for net in cases:
            truth, pred = random_rank_orderings(net, rng, count=1)
            radar = hub_radar(net, pred, truth, top_k=5, samples=20)
            for idx, hub in enumerate(radar.hubs):
                t = oracles.hub_curve_by_scan(net, truth.ranks, hub, 20)
                p = oracles.hub_curve_by_scan(net, pred.ranks, hub, 20)
                span = float(t.max() - t.min()) or 1.0
                assert radar.nrmse[idx] == float(np.sqrt(np.mean((p - t) ** 2)) / span)

    def test_clustering_curve_matches_networkx_prefixes(self, cases):
        rng = np.random.default_rng(89)
        samples = 7
        for net in cases:
            order = rng.permutation(net.edge_count)
            ordering = order_from_scores(-np.argsort(order))
            assert np.array_equal(ordering.order, order)
            curve = growth_curve(net, ordering, "clustering", samples)
            for k in range(samples):
                count = math.ceil((k + 1) / samples * net.edge_count)
                g = to_networkx(net, order[:count])
                # Averaged over all N nodes, isolated ones included.
                assert math.isclose(
                    curve[k], nx.average_clustering(g), rel_tol=1e-12, abs_tol=1e-15
                )


class TestMalformedOrderings:
    @pytest.fixture(scope="class")
    def net(self):
        return pa_network(50)

    @pytest.mark.parametrize("case", ["short", "all equal", "duplicated", "0-based"])
    def test_construction_rejects_ranks_that_are_not_a_permutation(self, case):
        m = 6
        ranks = {
            "short": np.arange(1, m),
            "all equal": np.ones(m, dtype=np.int64),
            "duplicated": np.array([1, 1, 3, 4, 5, 6]),
            "0-based": np.arange(m),
        }[case]
        with pytest.raises(InvalidPermutation):
            GlobalOrdering(borda_scores=np.zeros(m), ranks=ranks)

    @pytest.mark.parametrize("other_n", [40, 60])
    def test_ordering_of_another_network_is_rejected(self, net, other_n):
        truth = ground_truth_ordering(net.alpha)
        other = ground_truth_ordering(pa_network(other_n).alpha)
        assert other.edge_count != net.edge_count
        for prop in ("clustering", "degree_gini"):
            with pytest.raises(InvalidPermutation):
                growth_curve(net, other, prop, samples=10)
            with pytest.raises(InvalidPermutation):
                trajectory_nrmse(net, other, truth, prop, samples=10)
        with pytest.raises(InvalidPermutation):
            hub_radar(net, other, truth)
        with pytest.raises(InvalidPermutation):
            hub_radar(net, truth, other)
        for budget in (None, 20):
            with pytest.raises(InvalidPermutation):
                evaluation_report(net, other, pair_budget=budget)


class TestReplayDesign:
    def test_report_builds_no_prefix_graph(self, monkeypatch):
        import netchron.evaluation
        import netchron.graph

        def forbidden(*args, **kwargs):
            raise AssertionError("the report rebuilt a prefix graph")

        for module in (netchron.graph, netchron.evaluation):
            for name in ("prefix_graph", "local_clustering"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        net = timed_network(61)
        rev = reversed_ordering(ground_truth_ordering(net.alpha))
        report = evaluation_report(net, rev, samples=12)
        assert len(report["growth_curves"]["clustering_predicted"]) == 12

    @pytest.fixture(scope="class")
    def big(self):
        net = pa_network(20000)
        rng = np.random.default_rng(97)
        return (net,) + tuple(random_rank_orderings(net, rng, count=1))

    def test_curves_stay_linear_in_memory(self, big):
        # At N = 20 000 a (samples, N) float matrix alone is 8 MB.
        net, truth, pred = big
        gini = peak_traced_mb(lambda: growth_curve(net, pred, "degree_gini"))
        assert gini < 4.0
        radar = peak_traced_mb(lambda: hub_radar(net, pred, truth))
        assert radar < 2.0
        # The clustering curve adds little to listing the triangles.
        listing = peak_traced_mb(lambda: triangles(net))
        clustering = peak_traced_mb(lambda: growth_curve(net, pred, "clustering"))
        assert clustering < listing + 2.0
        assert peak_traced_mb(lambda: evaluation_report(net, pred)) < 12.0


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
