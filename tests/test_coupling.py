"""Propagation encoder: forward wiring and hand-written gradients."""

import numpy as np
import pytest

import dataclasses

from netchron.coupling import (
    NODE_INPUT_DIM,
    Workspace,
    coupled_backward,
    coupled_column_names,
    coupled_edge_features,
    encoder_layout,
    glorot_uniform,
    node_input_matrix,
    propagate,
    propagate_backward,
)
from netchron.errors import BadDims, DimensionMismatch
from netchron.features import FeatureMode
from netchron.graph import build_network
from netchron.ranker import TrainConfig, init_cpnn

import oracles


def path3():
    return build_network(3, [(0, 1), (1, 2)])


def encoder(dims, activation="tanh", neighbor_norm="mean"):
    """The config that propagate reads: dims, activation, neighbor norm."""
    return TrainConfig(embedding_dims=tuple(dims), activation=activation,
                       neighbor_norm=neighbor_norm)


def init_propagation(dims, seed, activation="tanh", neighbor_norm="mean"):
    """Glorot weights for each layer pair, self then neighbour, from
    seed, by name, and their config."""
    rng = np.random.default_rng(seed)
    params = {name: glorot_uniform(rng, *shape)
              for name, shape in encoder_layout(dims).items()}
    return params, encoder(dims, activation, neighbor_norm)


def model_propagation(dims, seed=0, **fields):
    """The propagation weights of a fresh coupled model, by name."""
    config = TrainConfig(mode=FeatureMode.BOTH, hidden=2, embedding_dims=dims,
                         seed=seed, **fields)
    params = init_cpnn(5, config).params()
    return {name: w for name, w in params.items() if name.startswith("prop.")}


def zero_grads(dims):
    return {name: np.zeros(shape) for name, shape in encoder_layout(dims).items()}


class TestInit:
    def test_layout_names_each_layer_pair_in_order(self):
        layout = encoder_layout((4, 8, 3))
        assert list(layout) == ["prop.self.0", "prop.neigh.0",
                                "prop.self.1", "prop.neigh.1"]
        assert list(layout.values()) == [(4, 8), (4, 8), (8, 3), (8, 3)]

    def test_shapes_and_bounds(self):
        w = model_propagation((4, 8, 3))
        assert {name: a.shape for name, a in w.items()} == encoder_layout((4, 8, 3))
        limit0 = np.sqrt(6.0 / (4 + 8))
        assert np.abs(w["prop.self.0"]).max() <= limit0
        assert np.abs(w["prop.neigh.0"]).max() <= limit0

    def test_deterministic(self):
        a = model_propagation((4, 5), seed=3)
        b = model_propagation((4, 5), seed=3)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_draws_each_layer_pair_from_seed_plus_2(self):
        a = model_propagation((4, 5, 3), seed=3, activation="relu")
        b, _ = init_propagation((4, 5, 3), seed=5)
        assert list(a) == list(b)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_rejects_bad_dims(self):
        with pytest.raises(BadDims):
            model_propagation((4,))
        with pytest.raises(BadDims):
            model_propagation((3, 5))
        with pytest.raises(BadDims):
            model_propagation((4, 0))
        with pytest.raises(ValueError):
            model_propagation((4, 5), activation="sigmoid")
        with pytest.raises(ValueError):
            model_propagation((4, 5), neighbor_norm="rowmax")


class TestNodeInputs:
    def test_columns(self):
        net = path3()
        x = np.array([0.5, 0.25, 0.75])
        inputs = node_input_matrix(net, x)
        assert inputs.shape == (3, NODE_INPUT_DIM)
        assert np.allclose(inputs[:, 0], [1, 2, 1])
        assert np.allclose(inputs[:, 1], 0.0)
        assert np.allclose(inputs[:, 2], [1, 1, 1])
        assert np.allclose(inputs[:, 3], x)

    def test_zero_state_column(self):
        net = path3()
        inputs = node_input_matrix(net, [0.5, 0.25, 0.75], zero_state=True)
        assert np.allclose(inputs[:, 3], 0.0)


class TestForward:
    def test_hand_computed_single_layer(self):
        net = path3()
        ws = np.array([[0.1], [0.2], [0.3], [0.4]])
        wn = np.array([[-0.5], [0.25], [0.0], [1.0]])
        weights = {"prop.self.0": ws, "prop.neigh.0": wn}
        h = np.array(
            [
                [1.0, 0.0, 2.0, 0.5],
                [0.0, 1.0, 1.0, -1.0],
                [2.0, 2.0, 0.0, 0.0],
            ]
        )
        # Mean aggregates: node 0 sees node 1, node 1 averages 0 and 2,
        # node 2 sees node 1.
        mixed = np.array([h[1], (h[0] + h[2]) / 2.0, h[1]])
        expect = np.tanh(h @ ws + mixed @ wn)
        out, _ = propagate(net, h, weights, encoder((4, 1)))
        assert np.allclose(out, expect, atol=1e-15)

    def test_isolated_node_sees_only_itself(self):
        net = build_network(3, [(0, 1)])
        weights, config = init_propagation((4, 5), seed=1)
        h = np.random.default_rng(2).normal(size=(3, 4))
        out, _ = propagate(net, h, weights, config)
        expect_iso = np.tanh(h[2] @ weights["prop.self.0"])
        assert np.allclose(out[2], expect_iso)

    def test_symmetric_norm_differs_from_mean(self):
        net = build_network(4, [(0, 1), (0, 2), (0, 3)])
        h = np.random.default_rng(3).normal(size=(4, 4))
        weights, mean = init_propagation((4, 4), seed=4, neighbor_norm="mean")
        symmetric = dataclasses.replace(mean, neighbor_norm="symmetric")
        assert not np.allclose(propagate(net, h, weights, mean)[0],
                               propagate(net, h, weights, symmetric)[0])

    def test_rejects_shape_mismatch(self):
        net = path3()
        weights, config = init_propagation((4, 3), seed=0)
        with pytest.raises(DimensionMismatch):
            propagate(net, np.zeros((3, 5)), weights, config)


class TestBackward:
    @pytest.mark.parametrize("norm", ["mean", "symmetric"])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_weight_gradients_match_finite_differences(self, norm, activation):
        rng = np.random.default_rng(29)
        net = oracles.random_network(rng, max_nodes=7, min_nodes=4)
        weights, config = init_propagation(
            (4, 3, 2), seed=8, activation=activation, neighbor_norm=norm
        )
        h = rng.normal(size=(net.node_count, 4))
        probe = rng.normal(size=(net.node_count, 2))

        _, stages = propagate(net, h, weights, config)
        grads = zero_grads((4, 3, 2))
        propagate_backward(net, weights, config, stages, probe, grads)

        tol = 1e-6 if activation == "tanh" else 1e-5
        for name, analytic in grads.items():

            def loss(w, name=name):
                tmp = dict(weights, **{name: w})
                return float(np.sum(probe * propagate(net, h, tmp, config)[0]))

            fd = oracles.finite_difference_grad(loss, weights[name])
            assert oracles.max_relative_error(analytic, fd) < tol

    @pytest.mark.parametrize("norm", ["mean", "symmetric"])
    def test_writes_each_gradient_into_its_view_of_one_vector(self, norm):
        rng = np.random.default_rng(30)
        net = oracles.random_network(rng, max_nodes=9, min_nodes=5)
        config = TrainConfig(mode=FeatureMode.BOTH, hidden=2, embedding_dims=(4, 5, 3),
                             neighbor_norm=norm, seed=2)
        model = init_cpnn(5, config)
        weights = model.params()
        h = rng.normal(size=(net.node_count, 4))
        probe = rng.normal(size=(net.node_count, 3))
        _, stages = propagate(net, h, weights, config)
        apart = zero_grads((4, 5, 3))
        propagate_backward(net, weights, config, stages, probe, apart)
        vector = np.full_like(model.flat, 7.0)
        views = model.params(vector)
        propagate_backward(net, weights, config, stages, probe, views)
        for name, view in views.items():
            assert np.shares_memory(view, vector)
            if name in apart:
                assert np.array_equal(view, apart[name]), name
            else:  # the scorer's blocks are left alone
                assert np.all(view == 7.0), name


class TestFirstLayerCache:
    """A workspace mixes layer 0's node inputs once per inputs array."""

    @pytest.fixture
    def mixes_of(self, monkeypatch):
        """Counts _neighbor_mix calls by the identity of the array mixed."""
        import netchron.coupling

        seen = []
        real = netchron.coupling._neighbor_mix

        def counting(net, h, *args):
            seen.append(h)
            return real(net, h, *args)

        monkeypatch.setattr(netchron.coupling, "_neighbor_mix", counting)
        return lambda h: sum(x is h for x in seen)

    def case(self, norm):
        rng = np.random.default_rng(31)
        net = build_network(6, [(0, 1), (1, 2), (2, 0), (3, 4)])  # node 5 isolated
        # Layer 1 mixes rows as wide as the inputs, through the same
        # scratch buffers as layer 0.
        weights, config = init_propagation((4, 4, 2), seed=5, neighbor_norm=norm)
        return rng, net, weights, config, rng.normal(size=(6, 4))

    def assert_equal_to_fresh(self, net, h, weights, config, ws):
        out, stages = propagate(net, h, weights, config, ws=ws)
        want, want_stages = propagate(net, h, weights, config)
        assert np.array_equal(out, want)
        for got_stage, want_stage in zip(stages, want_stages):
            for x, y in zip(got_stage, want_stage):
                assert np.array_equal(x, y)
        return stages

    @pytest.mark.parametrize("norm", ["mean", "symmetric"])
    def test_each_call_equals_a_fresh_one_and_mixes_once(self, mixes_of, norm):
        rng, net, weights, config, h = self.case(norm)
        ws = Workspace()
        for _ in range(3):
            stages = self.assert_equal_to_fresh(net, h, weights, config, ws)
            # A backward pass between the calls reuses the mixing buffers.
            propagate_backward(net, weights, config, stages,
                               rng.normal(size=(6, 2)), zero_grads((4, 4, 2)), ws)
            for w in weights.values():
                w += 0.1 * rng.normal(size=w.shape)
        # Once through ws, and once per fresh call.
        assert mixes_of(h) == 1 + 3

    @pytest.mark.parametrize("norm", ["mean", "symmetric"])
    def test_another_inputs_array_is_mixed_again(self, mixes_of, norm):
        _, net, weights, config, h = self.case(norm)
        ws = Workspace()
        self.assert_equal_to_fresh(net, h, weights, config, ws)
        other = h[::-1].copy()
        self.assert_equal_to_fresh(net, other, weights, config, ws)
        self.assert_equal_to_fresh(net, h, weights, config, ws)
        assert mixes_of(other) == 2
        assert mixes_of(h) == 4


class TestCoupledFeatures:
    def test_blocks(self):
        emb = np.array([[1.0, 2.0], [3.0, 5.0], [0.0, 0.0]])
        endpoints = np.array([[0, 1], [1, 2]])
        feats = coupled_edge_features(emb, endpoints)
        assert feats.shape == (2, 8)
        assert np.allclose(feats[0], [1, 2, 3, 5, 4, 7, 2, 3])
        assert np.allclose(feats[1], [3, 5, 0, 0, 3, 5, 3, 5])
        names = coupled_column_names(2)
        assert len(names) == 8
        assert names[0] == "embed_u_0"
        assert names[-1] == "embed_absdiff_1"

    def test_writes_into_a_column_slice(self):
        rng = np.random.default_rng(59)
        emb = rng.normal(size=(6, 3))
        endpoints = np.array([[0, 1], [2, 5], [3, 4], [0, 5]])
        hu, hv = emb[endpoints[:, 0]], emb[endpoints[:, 1]]
        block = np.full((4, 2 + 12), 7.0)
        filled = coupled_edge_features(emb, endpoints, out=block[:, 2:])
        assert np.shares_memory(filled, block)
        assert np.array_equal(block[:, :2], np.full((4, 2), 7.0))
        assert np.array_equal(block[:, 2:], np.hstack([hu, hv, hu + hv, np.abs(hu - hv)]))
        assert np.array_equal(coupled_edge_features(emb, endpoints), block[:, 2:])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(61)
        emb = rng.normal(size=(5, 3))
        endpoints = np.array([[0, 1], [1, 2], [0, 4], [2, 3]])
        probe = rng.normal(size=(4, 12))

        def loss(e):
            return float(np.sum(probe * coupled_edge_features(e, endpoints)))

        analytic = coupled_backward(emb, endpoints, probe)
        fd = oracles.finite_difference_grad(loss, emb)
        assert oracles.max_relative_error(analytic, fd) < 1e-6

    def test_backward_rejects_bad_width(self):
        emb = np.zeros((3, 2))
        with pytest.raises(DimensionMismatch):
            coupled_backward(emb, np.array([[0, 1]]), np.zeros((1, 7)))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_backward_rejects_endpoints_outside_the_nodes(self, bad):
        emb = np.zeros((3, 2))
        with pytest.raises(DimensionMismatch):
            coupled_backward(emb, np.array([[0, 1], [bad, 2]]), np.zeros((2, 8)))


class TestGlorot:
    def test_limit_scales_with_fan(self):
        rng = np.random.default_rng(0)
        w = glorot_uniform(rng, 100, 100)
        assert np.abs(w).max() <= np.sqrt(6.0 / 200)
