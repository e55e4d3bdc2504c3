"""Graph construction and native graph algorithms vs brute-force oracles."""

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
from netchron.features import structural_edge_features
from netchron.graph import (
    average_clustering,
    build_network,
    coreness,
    edge_betweenness,
    local_clustering,
    neighbor_sum,
    node_struct_stats,
    pagerank,
    prefix_graph,
    triangle_counts,
)

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
        assert net.edges == ((0, 2), (1, 3))

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
                    assert net.edges[k] == (min(i, j), max(i, j))


class TestPrefixGraph:
    def test_keeps_first_ceil_fraction(self):
        net = path4()
        order = [2, 0, 1]
        sub = prefix_graph(net, order, 0.5)
        # ceil(0.5 * 3) = 2 edges: indices 2 then 0.
        assert sub.edges == ((2, 3), (0, 1))
        assert sub.node_count == 4
        assert np.allclose(sub.alpha, [1.0, 0.0])

    def test_alpha_not_renormalized(self):
        net = build_network(3, [(0, 1), (1, 2), (0, 2)], [0.0, 5.0, 10.0])
        sub = prefix_graph(net, [1, 2, 0], 2 / 3)
        assert np.allclose(sub.alpha, [0.5, 1.0])

    def test_full_fraction_is_whole_graph(self):
        net = path4()
        sub = prefix_graph(net, [0, 1, 2], 1.0)
        assert sub.edges == net.edges

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
        stats = node_struct_stats(triangle())
        assert list(stats.degree) == [2, 2, 2]
        assert np.allclose(stats.clustering, 1.0)
        assert list(stats.coreness) == [2, 2, 2]

    def test_star_graph(self):
        stats = node_struct_stats(star4())
        assert list(stats.degree) == [3, 1, 1, 1]
        assert np.allclose(stats.clustering, 0.0)
        assert list(stats.coreness) == [1, 1, 1, 1]

    def test_k4_with_pendant(self):
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]
        net = build_network(5, edges)
        stats = node_struct_stats(net)
        assert list(stats.coreness) == [3, 3, 3, 3, 1]
        assert np.isclose(stats.clustering[4], 0.0)
        assert np.isclose(stats.clustering[3], 3 / 6)

    def test_matches_definitions_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            net = oracles.random_network(rng, max_nodes=14)
            assert np.allclose(
                local_clustering(net), oracles.clustering_by_definition(net)
            )
            assert np.array_equal(coreness(net), oracles.coreness_by_definition(net))

    def test_average_clustering_includes_low_degree_nodes(self):
        assert average_clustering(star4()) == 0.0
        assert average_clustering(triangle()) == 1.0

    def test_triangle_counts(self):
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        net = build_network(4, edges)
        assert list(triangle_counts(net)) == [3, 3, 3, 3]


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

    def test_peak_memory_stays_within_the_block_budget(self):
        net = generate_synthetic(
            SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 400, 2, seed=1)
        )
        net.endpoints, net.degrees  # cached properties, built once per network
        tracemalloc.start()
        try:
            edge_betweenness(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


def local_path_by_power(net):
    """two + 0.01 * three per edge, from the walk counts of matrix powers."""
    out = []
    for u, v in net.edges:
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
    g.add_edges_from(net.edges)
    return g


def networkx_betweenness(net):
    ref = nx.edge_betweenness_centrality(to_networkx(net), normalized=False)
    return np.array([ref.get((u, v), ref.get((v, u))) for u, v in net.edges])


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
