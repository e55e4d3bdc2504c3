"""Edge feature blocks and normalization vs definition-level oracles."""

import numpy as np
import pytest

from netchron.errors import (
    DimensionMismatch,
    EmptyInput,
    FeatureSchemaMismatch,
    RowMismatch,
)
from netchron.features import (
    EPSILON,
    STATE_COLUMNS,
    STRUCT_COLUMNS,
    FeatureMatrix,
    FeatureMode,
    combine,
    feature_subset,
    normalize,
    standardize_columns,
    steady_state_edge_features,
    structural_edge_features,
)
from netchron.graph import build_network, edge_betweenness, pagerank

import oracles


def triangle():
    return build_network(3, [(0, 1), (1, 2), (0, 2)], [0.0, 1.0, 2.0])


class TestStructuralFeatures:
    def test_triangle_edge_values(self):
        fm = structural_edge_features(triangle())
        assert fm.columns == STRUCT_COLUMNS
        # Every edge of a triangle looks the same.
        assert np.allclose(fm.column("common_neighbors"), 1.0)
        assert np.allclose(fm.column("jaccard"), 1.0 / (3.0 + EPSILON))
        assert np.allclose(fm.column("adamic_adar"), 1.0 / np.log(2.0 + EPSILON))
        assert np.allclose(fm.column("resource_alloc"), 0.5)
        assert np.allclose(fm.column("edge_strength"), 1.0 / (1.0 + EPSILON))
        assert np.allclose(fm.column("edge_clustering"), 1.0)
        # One length-2 walk and three length-3 walks between endpoints.
        assert np.allclose(fm.column("local_path"), 1.0 + 0.01 * 3.0)
        assert np.allclose(fm.column("core_min"), 2.0)
        assert np.allclose(fm.column("deg_prod"), 4.0)

    def test_star_hub_leaf_edge(self):
        net = build_network(4, [(0, 1), (0, 2), (0, 3)])
        fm = structural_edge_features(net)
        # No common neighbors anywhere in a star.
        for name in ("common_neighbors", "jaccard", "adamic_adar",
                     "resource_alloc", "edge_strength", "edge_clustering"):
            assert np.allclose(fm.column(name), 0.0), name
        assert np.allclose(fm.column("deg_min"), 1.0)
        assert np.allclose(fm.column("deg_max"), 3.0)
        assert np.allclose(fm.column("betweenness"), 3.0)

    def test_endpoint_order_is_min_then_max(self):
        net = build_network(3, [(2, 0), (2, 1)])
        fm = structural_edge_features(net)
        # Edge (0, 2): deg_u is degree of node 0.
        assert fm.column("deg_u")[0] == 1.0
        assert fm.column("deg_v")[0] == 2.0

    def test_matches_dense_oracle_on_random_graphs(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            net = oracles.random_network(rng, max_nodes=12, edge_prob=0.4)
            pr = pagerank(net).values
            bc = edge_betweenness(net)
            got = structural_edge_features(net, pagerank_values=pr, betweenness=bc)
            ref = oracles.struct_features_by_definition(net, pr, bc)
            assert np.allclose(got.values, ref, atol=1e-9)

    def test_rejects_mismatched_inputs(self):
        net = triangle()
        with pytest.raises(DimensionMismatch):
            structural_edge_features(net, pagerank_values=np.ones(5))
        with pytest.raises(DimensionMismatch):
            structural_edge_features(net, betweenness=np.ones(5))


class TestStateFeatures:
    def test_small_example(self):
        net = build_network(2, [(0, 1)])
        fm = steady_state_edge_features(net, [1.0, 2.0])
        assert fm.columns == STATE_COLUMNS
        row = fm.values[0]
        assert np.isclose(row[0], 1.0)
        assert np.isclose(row[1], 2.0)
        assert np.isclose(row[2], 3.0)
        assert np.isclose(row[3], 1.0)
        assert np.isclose(row[4], 2.0)
        assert np.isclose(row[5], 1.0 / (2.0 + EPSILON))
        assert np.isclose(row[6], 2.0 / (1.0 + EPSILON))

    def test_zero_state_stays_finite(self):
        net = build_network(2, [(0, 1)])
        fm = steady_state_edge_features(net, [0.0, 0.0])
        assert np.isfinite(fm.values).all()

    def test_matches_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            net = oracles.random_network(rng, max_nodes=10)
            x = rng.random(net.node_count)
            got = steady_state_edge_features(net, x)
            ref = oracles.state_features_by_definition(net, x)
            assert np.allclose(got.values, ref, atol=1e-12)

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            steady_state_edge_features(triangle(), [1.0, 2.0])


class TestNormalize:
    def _matrix(self, values, columns):
        edges = tuple((0, k + 1) for k in range(values.shape[0]))
        return FeatureMatrix(edges=edges, columns=columns, values=values)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(41)
        values = rng.normal(size=(20, 5)) * rng.uniform(0.1, 50.0, size=5)
        fm = self._matrix(values, tuple("abcde"))
        got = normalize(fm)
        ref = oracles.normalize_by_definition(values)
        assert np.allclose(got.values, ref, atol=1e-12)
        assert not got.degenerate

    def test_constant_column_flagged_and_zeroed(self):
        values = np.column_stack([np.ones(4), np.arange(4.0)])
        fm = self._matrix(values, ("flat", "ramp"))
        out = normalize(fm)
        assert out.degenerate == frozenset({"flat"})
        assert np.allclose(out.column("flat"), 0.0)
        assert np.isfinite(out.values).all()

    def test_standardized_moments(self):
        rng = np.random.default_rng(43)
        values = rng.normal(size=(50, 3))
        out = normalize(self._matrix(values, ("a", "b", "c")))
        assert np.allclose(out.values.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.values.std(axis=0), 1.0, atol=1e-9)

    def test_needs_two_rows(self):
        fm = FeatureMatrix(edges=((0, 1),), columns=("a",), values=np.ones((1, 1)))
        with pytest.raises(EmptyInput):
            normalize(fm)

    def test_standardize_columns_reports_degenerate_indices(self):
        vals = np.column_stack([np.zeros(3), np.arange(3.0)])
        _, degenerate = standardize_columns(vals)
        assert degenerate == [0]


class TestSubsetAndCombine:
    def test_modes(self):
        net = triangle()
        struct = structural_edge_features(net)
        state = steady_state_edge_features(net, [0.1, 0.2, 0.3])
        both = combine(struct, state)
        assert both.edges is net.endpoints
        assert feature_subset(both, FeatureMode.BOTH).columns == both.columns
        assert feature_subset(both, "struct").columns == STRUCT_COLUMNS
        assert feature_subset(both, "state").columns == STATE_COLUMNS

    def test_mode_leaving_nothing_fails(self):
        net = triangle()
        struct = structural_edge_features(net)
        with pytest.raises(FeatureSchemaMismatch):
            feature_subset(struct, FeatureMode.STATE_ONLY)

    def test_combine_rejects_different_edges(self):
        a = structural_edge_features(triangle())
        b = steady_state_edge_features(build_network(2, [(0, 1)]), [0.0, 1.0])
        with pytest.raises(RowMismatch):
            combine(a, b)
        reordered = build_network(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(RowMismatch):
            combine(a, steady_state_edge_features(reordered, [0.1, 0.2, 0.3]))

    def test_combine_rejects_duplicate_columns(self):
        a = structural_edge_features(triangle())
        with pytest.raises(FeatureSchemaMismatch):
            combine(a, a)

    def test_select_missing_column(self):
        a = structural_edge_features(triangle())
        with pytest.raises(FeatureSchemaMismatch):
            a.select(("nope",))
