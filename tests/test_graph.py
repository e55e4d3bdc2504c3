"""Graph construction and native graph algorithms vs brute-force oracles."""

import itertools
import math
import sys
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from netchron.errors import (
    DuplicateEdge,
    EmptyInput,
    InvalidEdge,
    InvalidPermutation,
    SelfLoop,
)
from netchron import graph
from netchron.datasets import SynthKind, SynthSpec, generate_synthetic
from netchron.evaluation import evaluation_report
from netchron.features import FeatureMode, structural_edge_features
from netchron.graph import (
    build_network,
    coreness,
    edge_betweenness,
    local_clustering,
    neighbor_sum,
    pagerank,
    prefix_graph,
    triangle_counts,
)
from netchron.ordering import order_from_scores
from netchron.ranker import prepare_inputs

import oracles


def triangle():
    return build_network(3, [(0, 1), (1, 2), (0, 2)], [0.0, 1.0, 2.0])


def star4():
    return build_network(4, [(0, 1), (0, 2), (0, 3)], [0.0, 1.0, 2.0])


def path4():
    return build_network(4, [(0, 1), (1, 2), (2, 3)], [0.0, 1.0, 2.0])


class TestBuildNetwork:
    def test_endpoints_sorted_and_order_kept(self):
        net = build_network(4, [(2, 0), (3, 1)], [5.0, 7.0])
        assert net.endpoints.tolist() == [[0, 2], [1, 3]]
        assert net.endpoints.dtype == np.int64
        assert not net.endpoints.flags.writeable

    def test_alpha_minmax_normalized(self):
        net = build_network(3, [(0, 1), (1, 2), (0, 2)], [10.0, 30.0, 20.0])
        assert np.allclose(net.alpha, [0.0, 1.0, 0.5])
        assert net.labeled_mask.all()

    def test_single_distinct_time_normalizes_to_zero(self):
        net = build_network(3, [(0, 1), (1, 2)], [4.0, 4.0])
        assert np.allclose(net.alpha, [0.0, 0.0])

    def test_unknown_times_are_nan_and_unlabeled(self):
        net = build_network(3, [(0, 1), (1, 2), (0, 2)], [1.0, None, 3.0])
        assert np.isnan(net.alpha[1])
        assert list(net.labeled_mask) == [True, False, True]
        assert np.allclose(net.alpha[[0, 2]], [0.0, 1.0])

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoop):
            build_network(3, [(1, 1)])

    def test_rejects_duplicate_even_if_flipped(self):
        with pytest.raises(DuplicateEdge):
            build_network(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidEdge):
            build_network(3, [(0, 3)])

    def test_rejects_empty_node_set(self):
        with pytest.raises(EmptyInput):
            build_network(0, [])

    @pytest.mark.parametrize("time", [float("inf"), -float("inf")])
    def test_rejects_non_finite_time(self, time):
        with pytest.raises(InvalidEdge, match="non-finite"):
            build_network(3, [(0, 1), (1, 2), (0, 2)], [0.0, 1.0, time])

    def test_nan_time_is_unknown(self):
        net = build_network(3, [(0, 1), (1, 2)], [0.0, float("nan")])
        assert list(net.labeled_mask) == [True, False]

    def test_adjacency_consistent_with_edges(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            net = oracles.random_network(rng)
            adj = oracles.adjacency_sets(net)
            for i in range(net.node_count):
                lo, hi = net.adj_indptr[i], net.adj_indptr[i + 1]
                row = net.adj_indices[lo:hi]
                assert list(row) == sorted(adj[i])
                # Each entry names the edge it came from.
                for j, k in zip(row, net.adj_edges[lo:hi]):
                    assert net.endpoints[k].tolist() == [min(i, j), max(i, j)]


def random_build_case(rng):
    """Small build_network arguments, good or bad in every way it checks."""
    n = int(rng.integers(1, 7))
    draw = rng.random()
    if draw < 0.2:
        # Any ids: out of range, negative, self loops and repeats.
        edges = rng.integers(-2, n + 2, size=(int(rng.integers(0, 9)), 2)).tolist()
    elif draw < 0.4:
        # In-range ids: self loops and repeats.
        edges = rng.integers(0, n, size=(int(rng.integers(0, 6)), 2)).tolist()
    else:
        # Distinct in-range pairs, each in either orientation.
        pairs = list(itertools.combinations(range(n), 2))
        pairs = [pairs[k] for k in rng.permutation(len(pairs))[:rng.integers(0, 9)]]
        edges = [[b, a] if rng.random() < 0.5 else [a, b] for a, b in pairs]
        if edges and rng.random() < 0.3:
            # Repeat an earlier pair, possibly reversed, at a later place.
            repeat = edges[rng.integers(len(edges))][::rng.choice([1, -1])]
            edges.insert(int(rng.integers(1, len(edges) + 1)), repeat)
    if rng.random() < 0.2:
        return n, edges, None
    pool = [None, float("nan"), float("inf"), -float("inf"), 0, 1, 2, 0.25, 7.5]
    weights = np.array([2, 2, 0.6, 0.6, 2, 2, 2, 2, 2])
    count = len(edges)
    if rng.random() < 0.1:
        count = max(count + int(rng.choice([-1, 1])), 0)
    picks = rng.choice(len(pool), size=count, p=weights / weights.sum())
    return n, edges, [pool[k] for k in picks]


OUTCOMES = ("times for", "outside", "non-finite", "self loop", "duplicate")


def build_outcome(build, n, edges, times):
    """("ok", result) or (exception class, message) of one build."""
    try:
        return "ok", build(n, edges, times)
    except (InvalidEdge, SelfLoop, DuplicateEdge) as exc:
        return type(exc), str(exc)


class TestValidationMatchesTheLoop:
    """build_network's one-pass validation against the edge-by-edge loop."""

    def check(self, n, edges, times, form):
        if form == "generator":
            given = ((u, v) for u, v in edges)
            given_times = None if times is None else (t for t in times)
        elif form == "ndarray":
            given = np.array(edges, dtype=np.int64).reshape(-1, 2)
            given_times = None if times is None else np.array(times, dtype=np.float64)
        else:
            given, given_times = [tuple(e) for e in edges], times
        want = build_outcome(oracles.build_network_by_loop, n, edges, times)
        got = build_outcome(build_network, n, given, given_times)
        if want[0] != "ok":
            assert got == want, (n, edges, times, form)
            return want
        assert got[0] == "ok", (n, edges, times, form, got)
        net = got[1]
        ends, alpha, known = want[1]
        assert net.endpoints.dtype == np.int64
        assert np.array_equal(net.endpoints, ends)
        assert np.array_equal(net.alpha, alpha, equal_nan=True)
        assert np.array_equal(net.labeled_mask, known)
        return want

    def test_random_inputs(self):
        rng = np.random.default_rng(41)
        forms = ("list", "generator", "ndarray")
        tally = {}
        for k in range(600):
            kind, message = self.check(*random_build_case(rng), forms[k % 3])
            if kind != "ok":
                kind = (kind, next(w for w in OUTCOMES if w in message))
            tally[kind] = tally.get(kind, 0) + 1
        # The inputs reach every outcome, each at least 20 times.
        assert tally.keys() == {
            "ok", (InvalidEdge, "times for"), (InvalidEdge, "outside"),
            (InvalidEdge, "non-finite"), (SelfLoop, "self loop"),
            (DuplicateEdge, "duplicate"),
        }
        assert min(tally.values()) >= 20, tally

    @pytest.mark.parametrize("n, edges, times", [
        # An out-of-range edge whose key equals an earlier edge's.
        (3, [(0, 1), (-1, 4)], None),
        # An out-of-range self loop.
        (3, [(0, 1), (5, 5)], None),
        # A self loop repeated.
        (3, [(2, 2), (2, 2)], None),
        # Every edge is checked before any time.
        (4, [(0, 1), (1, 2), (2, 1)], [float("inf"), 1.0, 2.0]),
        (4, [(0, 1), (1, 1)], [-float("inf"), 1.0]),
        # The times count is checked before any edge.
        (3, [(0, 1), (1, 1)], [1.0]),
        # The first bad edge wins, whatever comes after it.
        (3, [(1, 0), (0, 1), (2, 2), (0, 7)], None),
        (3, [(0, 1), (1, 2), (0, 2), (2, 0)], [0, 1, 2, 3]),
        (3, [(0, 1), (1, 2)], [None, -float("inf")]),
        (3, [], []),
        (3, [], None),
    ])
    @pytest.mark.parametrize("form", ["list", "generator", "ndarray"])
    def test_fixed_cases(self, n, edges, times, form):
        self.check(n, edges, times, form)


class TestDegreeScales:
    def test_safe_degrees_and_symmetric_scale(self):
        net = build_network(5, [(0, 1), (0, 2), (0, 3), (1, 2)])  # node 4 isolated
        assert net.safe_degrees.tolist() == [3.0, 2.0, 2.0, 1.0, 1.0]
        assert net.safe_degrees.dtype == np.float64
        assert np.array_equal(
            net.inv_sqrt_degrees,
            [1.0 / np.sqrt(3.0), 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 1.0, 0.0],
        )
        assert net.safe_degrees is net.safe_degrees


class TestPrefixGraph:
    def test_keeps_first_ceil_fraction(self):
        net = path4()
        order = [2, 0, 1]
        sub = prefix_graph(net, order, 0.5)
        # ceil(0.5 * 3) = 2 edges: indices 2 then 0.
        assert sub.endpoints.tolist() == [[2, 3], [0, 1]]
        assert sub.node_count == 4
        assert np.allclose(sub.alpha, [1.0, 0.0])

    def test_alpha_not_renormalized(self):
        net = build_network(3, [(0, 1), (1, 2), (0, 2)], [0.0, 5.0, 10.0])
        sub = prefix_graph(net, [1, 2, 0], 2 / 3)
        assert np.allclose(sub.alpha, [0.5, 1.0])

    def test_full_fraction_is_whole_graph(self):
        net = path4()
        sub = prefix_graph(net, [0, 1, 2], 1.0)
        assert np.array_equal(sub.endpoints, net.endpoints)

    def test_rejects_non_permutation(self):
        net = path4()
        with pytest.raises(InvalidPermutation):
            prefix_graph(net, [0, 0, 1], 1.0)
        with pytest.raises(InvalidPermutation):
            prefix_graph(net, [0, 1], 1.0)

    def test_rejects_bad_fraction(self):
        net = path4()
        with pytest.raises(ValueError):
            prefix_graph(net, [0, 1, 2], 0.0)


class TestNodeStats:
    def test_triangle_graph(self):
        net = triangle()
        assert list(net.degrees) == [2, 2, 2]
        assert np.allclose(net.clustering, 1.0)
        assert list(net.core_numbers) == [2, 2, 2]

    def test_star_graph(self):
        net = star4()
        assert list(net.degrees) == [3, 1, 1, 1]
        assert np.allclose(net.clustering, 0.0)
        assert list(net.core_numbers) == [1, 1, 1, 1]

    def test_k4_with_pendant(self):
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]
        net = build_network(5, edges)
        assert list(net.core_numbers) == [3, 3, 3, 3, 1]
        assert np.isclose(net.clustering[4], 0.0)
        assert np.isclose(net.clustering[3], 3 / 6)

    def test_matches_definitions_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            net = oracles.random_network(rng, max_nodes=14)
            assert np.allclose(
                local_clustering(net), oracles.clustering_by_definition(net)
            )
            assert np.array_equal(coreness(net), oracles.coreness_by_definition(net))

    def test_average_clustering_includes_low_degree_nodes(self):
        assert oracles.average_clustering(star4()) == 0.0
        assert oracles.average_clustering(triangle()) == 1.0

    def test_triangle_counts(self):
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        net = build_network(4, edges)
        assert list(triangle_counts(net)) == [3, 3, 3, 3]


class TestSnapshotStructure:
    """The network computes its triangles, clustering and core numbers
    once, and every consumer reads those."""

    @staticmethod
    def count_listings(monkeypatch):
        """Wrap graph.triangles in every netchron module holding it, as
        bench/tracing.py's Tracer.install does; returns the call log."""
        calls = []
        original = graph.triangles

        def counted(net):
            calls.append(net)
            return original(net)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "netchron" and getattr(module, "triangles", None) is original:
                monkeypatch.setattr(module, "triangles", counted)
        return calls

    @staticmethod
    def fresh_network():
        return generate_synthetic(SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 80, 3, seed=5))

    def test_properties_match_the_kernels_and_are_read_only(self):
        net = self.fresh_network()
        found = graph.triangles(net)
        assert np.array_equal(net.triangle_list.nodes, found.nodes)
        assert np.array_equal(net.triangle_list.edges, found.edges)
        assert np.array_equal(net.clustering, local_clustering(net))
        assert np.array_equal(net.core_numbers, coreness(net))
        for array in (*net.triangle_list, net.clustering, net.core_numbers):
            assert not array.flags.writeable

    def test_training_inputs_list_the_triangles_once(self, monkeypatch):
        calls = self.count_listings(monkeypatch)
        net = self.fresh_network()
        state = np.random.default_rng(0).random(net.node_count)
        prepare_inputs(net, state, FeatureMode.BOTH)
        assert len(calls) == 1

    def test_structural_block_and_report_list_the_triangles_once(self, monkeypatch):
        calls = self.count_listings(monkeypatch)
        net = self.fresh_network()
        fm = structural_edge_features(net)
        ordering = order_from_scores(np.random.default_rng(0).random(net.edge_count))
        evaluation_report(net, ordering, feature_matrix=fm)
        assert len(calls) == 1


class TestPageRank:
    def test_uniform_on_symmetric_graph(self):
        res = pagerank(triangle())
        assert res.converged
        assert np.allclose(res.values, 1 / 3)

    def test_sums_to_one_and_hub_dominates(self):
        res = pagerank(star4())
        assert np.isclose(res.values.sum(), 1.0)
        assert res.values[0] > res.values[1]
        assert np.allclose(res.values[1:], res.values[1])

    def test_isolated_node_keeps_base_mass(self):
        net = build_network(4, [(0, 1), (1, 2), (0, 2)])
        res = pagerank(net)
        assert np.isclose(res.values.sum(), 1.0)
        assert res.values[3] > 0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            net = oracles.random_network(rng, max_nodes=15)
            res = pagerank(net)
            ref = oracles.pagerank_dense(net)
            assert np.allclose(res.values, ref, atol=1e-8)


class TestEdgeBetweenness:
    def test_triangle_each_edge_one(self):
        assert np.allclose(edge_betweenness(triangle()), 1.0)

    def test_star_each_edge_three(self):
        assert np.allclose(edge_betweenness(star4()), 3.0)

    def test_path_graph(self):
        assert np.allclose(edge_betweenness(path4()), [3.0, 4.0, 3.0])

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            net = oracles.random_network(rng, max_nodes=8, edge_prob=0.45)
            got = edge_betweenness(net)
            ref = oracles.edge_betweenness_by_paths(net)
            assert np.allclose(got, ref, atol=1e-9)

    def test_keeps_only_the_scatter_indices_cached_before_it(self):
        fresh, net = (
            generate_synthetic(SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 400, 2, seed=1))
            for _ in range(2)
        )
        want = edge_betweenness(fresh)
        assert not fresh._scatter_indices
        pagerank(net)
        before = dict(net._scatter_indices)
        assert list(before) == [1]
        got = edge_betweenness(net)
        assert net._scatter_indices == before
        assert net._scatter_indices[1] is before[1]
        assert np.array_equal(got, want)
        assert np.array_equal(edge_betweenness(net), want)

    def test_peak_memory_stays_within_the_block_budget(self):
        net = generate_synthetic(
            SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 400, 2, seed=1)
        )
        net.degrees  # a cached property, built once per network
        tracemalloc.start()
        try:
            edge_betweenness(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


class TestTriangles:
    def check(self, net, found):
        """found lists the oracle's triangles, each edge opposite its node."""
        got = sorted(map(tuple, np.sort(found.nodes, axis=1).tolist()))
        assert got == oracles.triangles_by_sets(net)
        index = oracles.edge_index(net)
        for nodes, edges in zip(found.nodes.tolist(), found.edges.tolist()):
            for k in range(3):
                assert edges[k] == index[tuple(sorted(nodes[:k] + nodes[k + 1:]))]

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            net = oracles.random_network(rng, max_nodes=16, edge_prob=0.5)
            self.check(net, graph.triangles(net))
        for net in networkx_cases():
            self.check(net, graph.triangles(net))

    @pytest.mark.parametrize("block", [1, 7, math.inf])
    def test_listing_does_not_depend_on_the_block(self, monkeypatch, block):
        net = generate_synthetic(SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 400, 4, seed=3))
        want = graph.triangles(net)
        monkeypatch.setattr(graph, "_WEDGE_BLOCK", block)
        got = graph.triangles(net)
        assert np.array_equal(got.nodes, want.nodes)
        assert np.array_equal(got.edges, want.edges)

    def test_listing_memory_stays_bounded(self):
        # 90 247 top wedges close 158 triangles; listing every wedge at
        # once peaks at 7.5 MB.
        net = generate_synthetic(SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 20000, 2, seed=1))
        tracemalloc.start()
        try:
            found = graph.triangles(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.check(net, found)
        assert found.nodes.shape == (158, 3)
        assert peak <= 3 * 2**20


def local_path_by_power(net):
    """two + 0.01 * three per edge, from the walk counts of matrix powers."""
    out = []
    for u, v in net.endpoints.tolist():
        two, three = oracles.walk_counts_by_power(net, u, v)
        out.append(two + 0.01 * three)
    return np.asarray(out)


class TestLocalPathWalkCounts:
    def local_path(self, net):
        return structural_edge_features(net).column("local_path")

    def test_triangle_edges(self):
        # One common neighbour; three length-3 walks (closed via either
        # endpoint's other edge and the direct back-and-forth).
        assert np.allclose(self.local_path(triangle()), 1.03)
        assert np.array_equal(self.local_path(triangle()), local_path_by_power(triangle()))

    def test_path_edges(self):
        net = path4()
        # No common neighbours; the 3-walks are back-and-forth only.
        assert np.allclose(self.local_path(net), [0.02, 0.03, 0.02])
        assert np.array_equal(self.local_path(net), local_path_by_power(net))

    def test_matches_matrix_powers(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            net = oracles.random_network(rng, max_nodes=12)
            assert np.array_equal(self.local_path(net), local_path_by_power(net))

    def test_matches_matrix_powers_on_larger_graphs(self):
        for net in networkx_cases():
            if net.edge_count == 0:
                continue
            a = oracles.adjacency_matrix(net)
            a2 = a @ a
            u, v = net.endpoints[:, 0], net.endpoints[:, 1]
            expected = a2[u, v] + 0.01 * (a2 @ a)[u, v]
            assert np.array_equal(self.local_path(net), expected)


class TestNeighborSum:
    def test_matches_adjacency_product(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            net = oracles.random_network(rng, max_nodes=12)
            a = oracles.adjacency_matrix(net)
            x = rng.normal(size=(net.node_count, 3))
            assert np.allclose(neighbor_sum(net, x), a @ x)
            y = rng.normal(size=net.node_count)
            assert np.allclose(neighbor_sum(net, y), a @ y)

    def test_isolated_rows_zero(self):
        net = build_network(3, [(0, 1)])
        out = neighbor_sum(net, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, [2.0, 1.0, 0.0])

    @staticmethod
    def exact_cases():
        rng = np.random.default_rng(37)
        return [
            build_network(5, []),
            build_network(9, [(0, 1), (1, 2), (0, 2), (2, 3), (5, 6), (6, 7)]),
            random_graph(rng, 60, 1.5),
            generate_synthetic(
                SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 120, 3, seed=4)
            ),
        ]

    @pytest.mark.parametrize("width", [None, 1, 4, 27, 32])
    def test_sums_each_row_left_to_right(self, width):
        rng = np.random.default_rng(41)
        cases = self.exact_cases()
        assert any((net.degrees == 0).any() for net in cases[1:])
        for net in cases:
            shape = (net.node_count,) if width is None else (net.node_count, width)
            # Magnitudes over 12 decades make the summation order visible.
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)
            out = neighbor_sum(net, x)
            assert out.shape == shape
            assert np.array_equal(out, oracles.neighbor_sum_by_loop(net, x))

    def test_scatter_index_is_cached_per_width_and_per_network(self):
        first, second = (
            generate_synthetic(
                SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 30, 2, seed=4)
            )
            for _ in range(2)
        )
        assert np.array_equal(first.adj_indices, second.adj_indices)
        index = first.scatter_index(4)
        neighbor_sum(first, np.ones((30, 4)))
        assert first.scatter_index(4) is index
        assert first.scatter_index(3) is not index
        assert second.scatter_index(4) is not index
        assert np.array_equal(second.scatter_index(4), index)


def random_graph(rng, n, mean_degree):
    """G(n, p) with the given mean degree; low degrees leave isolated nodes."""
    ii, jj = np.triu_indices(n, k=1)
    keep = rng.random(ii.size) < mean_degree / max(n - 1, 1)
    return build_network(n, list(zip(ii[keep].tolist(), jj[keep].tolist())))


def networkx_cases():
    rng = np.random.default_rng(29)
    cases = [
        build_network(5, []),
        # Two components and two isolated nodes.
        build_network(9, [(0, 1), (1, 2), (0, 2), (2, 3), (5, 6), (6, 7)]),
    ]
    for n, mean_degree in [(2, 1.0), (13, 2.0), (40, 3.0), (150, 1.2), (257, 4.0), (500, 3.0)]:
        cases.append(random_graph(rng, n, mean_degree))
    # Hubs: preferential attachment.
    cases.append(generate_synthetic(
        SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 300, 3, seed=2)
    ))
    return cases


def to_networkx(net):
    g = nx.Graph()
    g.add_nodes_from(range(net.node_count))
    g.add_edges_from(net.endpoints.tolist())
    return g


def networkx_betweenness(net):
    ref = nx.edge_betweenness_centrality(to_networkx(net), normalized=False)
    return np.array([ref.get((u, v), ref.get((v, u))) for u, v in net.endpoints.tolist()])


class TestNetworkxOracle:
    @pytest.fixture(scope="class")
    def cases(self):
        return networkx_cases()

    def test_cases_cover_isolated_nodes_and_several_components(self, cases):
        assert any((net.degrees == 0).any() for net in cases)
        assert any(
            nx.number_connected_components(to_networkx(net)) > 1 for net in cases
        )

    def test_edge_betweenness(self, cases):
        for net in cases:
            assert np.allclose(edge_betweenness(net), networkx_betweenness(net))

    @pytest.mark.parametrize("width", [1, 3, 7])
    def test_edge_betweenness_does_not_depend_on_the_block_width(self, monkeypatch, width):
        net = random_graph(np.random.default_rng(31), 40, 3.0)
        bytes_for_width = width * 32 * (net.node_count + net.edge_count)
        monkeypatch.setattr(graph, "_BETWEENNESS_BLOCK_BYTES", bytes_for_width)
        assert net.node_count % width != 0 or width == 1
        assert np.allclose(edge_betweenness(net), networkx_betweenness(net))

    def test_triangles_clustering_and_coreness(self, cases):
        for net in cases:
            g = to_networkx(net)
            nodes = range(net.node_count)
            tri = nx.triangles(g)
            clust = nx.clustering(g)
            core = nx.core_number(g)
            assert list(triangle_counts(net)) == [tri[i] for i in nodes]
            assert np.allclose(local_clustering(net), [clust[i] for i in nodes])
            assert list(coreness(net)) == [core[i] for i in nodes]
