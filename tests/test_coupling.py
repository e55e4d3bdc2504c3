"""Propagation encoder: forward wiring and hand-written gradients."""

import numpy as np
import pytest

from netchron.coupling import (
    NODE_INPUT_DIM,
    PropagationWeights,
    coupled_backward,
    coupled_column_names,
    coupled_edge_features,
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


def init_propagation(dims, seed, activation="tanh", neighbor_norm="mean"):
    """Glorot weights for each layer pair, self then neighbour, from seed."""
    rng = np.random.default_rng(seed)
    layers = [(glorot_uniform(rng, a, b), glorot_uniform(rng, a, b))
              for a, b in zip(dims, dims[1:])]
    return PropagationWeights(
        w_self=tuple(w for w, _ in layers), w_neigh=tuple(w for _, w in layers),
        dims=tuple(dims), activation=activation, neighbor_norm=neighbor_norm,
    )


def model_propagation(dims, seed=0, **fields):
    """The propagation weights of a fresh coupled model."""
    config = TrainConfig(mode=FeatureMode.BOTH, hidden=2, embedding_dims=dims,
                         seed=seed, **fields)
    return init_cpnn(5, config).propagation


class TestInit:
    def test_shapes_and_bounds(self):
        w = model_propagation((4, 8, 3))
        assert w.layer_count == 2
        assert w.w_self[0].shape == (4, 8)
        assert w.w_neigh[1].shape == (8, 3)
        assert w.output_dim == 3
        limit0 = np.sqrt(6.0 / (4 + 8))
        assert np.abs(w.w_self[0]).max() <= limit0
        assert np.abs(w.w_neigh[0]).max() <= limit0

    def test_deterministic(self):
        a = model_propagation((4, 5), seed=3)
        b = model_propagation((4, 5), seed=3)
        assert np.array_equal(a.w_self[0], b.w_self[0])
        assert np.array_equal(a.w_neigh[0], b.w_neigh[0])

    def test_draws_each_layer_pair_from_seed_plus_2(self):
        a = model_propagation((4, 5, 3), seed=3, activation="relu")
        b = init_propagation((4, 5, 3), seed=5)
        for l in range(2):
            assert np.array_equal(a.w_self[l], b.w_self[l])
            assert np.array_equal(a.w_neigh[l], b.w_neigh[l])
        assert (a.dims, a.activation, a.neighbor_norm) == ((4, 5, 3), "relu", "mean")

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
        weights = PropagationWeights(
            w_self=(ws,), w_neigh=(wn,), dims=(4, 1), activation="tanh"
        )
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
        out = propagate(net, h, weights)
        assert np.allclose(out, expect, atol=1e-15)

    def test_isolated_node_sees_only_itself(self):
        net = build_network(3, [(0, 1)])
        weights = init_propagation((4, 5), seed=1)
        h = np.random.default_rng(2).normal(size=(3, 4))
        out = propagate(net, h, weights)
        expect_iso = np.tanh(h[2] @ weights.w_self[0])
        assert np.allclose(out[2], expect_iso)

    def test_symmetric_norm_differs_from_mean(self):
        net = build_network(4, [(0, 1), (0, 2), (0, 3)])
        h = np.random.default_rng(3).normal(size=(4, 4))
        wm = init_propagation((4, 4), seed=4, neighbor_norm="mean")
        wsym = PropagationWeights(
            w_self=wm.w_self,
            w_neigh=wm.w_neigh,
            dims=wm.dims,
            activation=wm.activation,
            neighbor_norm="symmetric",
        )
        assert not np.allclose(propagate(net, h, wm), propagate(net, h, wsym))

    def test_rejects_shape_mismatch(self):
        net = path3()
        weights = init_propagation((4, 3), seed=0)
        with pytest.raises(DimensionMismatch):
            propagate(net, np.zeros((3, 5)), weights)


class TestBackward:
    @pytest.mark.parametrize("norm", ["mean", "symmetric"])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_weight_gradients_match_finite_differences(self, norm, activation):
        rng = np.random.default_rng(29)
        net = oracles.random_network(rng, max_nodes=7, min_nodes=4)
        weights = init_propagation(
            (4, 3, 2), seed=8, activation=activation, neighbor_norm=norm
        )
        h = rng.normal(size=(net.node_count, 4))
        probe = rng.normal(size=(net.node_count, 2))

        out, stages = propagate(net, h, weights, return_cache=True)
        g_self, g_neigh, g_in = propagate_backward(net, weights, stages, probe)

        tol = 1e-6 if activation == "tanh" else 1e-5
        for l in range(2):
            for which, analytic in (("self", g_self[l]), ("neigh", g_neigh[l])):

                def loss(w, l=l, which=which):
                    mats_s = list(weights.w_self)
                    mats_n = list(weights.w_neigh)
                    (mats_s if which == "self" else mats_n)[l] = w
                    tmp = PropagationWeights(
                        w_self=tuple(mats_s),
                        w_neigh=tuple(mats_n),
                        dims=weights.dims,
                        activation=activation,
                        neighbor_norm=norm,
                    )
                    return float(np.sum(probe * propagate(net, h, tmp)))

                base = weights.w_self[l] if which == "self" else weights.w_neigh[l]
                fd = oracles.finite_difference_grad(loss, base)
                assert oracles.max_relative_error(analytic, fd) < tol

        def input_loss(x):
            return float(np.sum(probe * propagate(net, x, weights)))

        fd_in = oracles.finite_difference_grad(input_loss, h)
        assert oracles.max_relative_error(g_in, fd_in) < tol

    @pytest.mark.parametrize("norm", ["mean", "symmetric"])
    def test_skipping_the_input_gradient_keeps_weight_gradients(self, norm):
        rng = np.random.default_rng(30)
        net = oracles.random_network(rng, max_nodes=9, min_nodes=5)
        weights = init_propagation((4, 5, 3), seed=2, neighbor_norm=norm)
        h = rng.normal(size=(net.node_count, 4))
        probe = rng.normal(size=(net.node_count, 3))
        _, stages = propagate(net, h, weights, return_cache=True)
        full = propagate_backward(net, weights, stages, probe)
        lean = propagate_backward(net, weights, stages, probe, input_grad=False)
        assert lean[2] is None
        for l in range(2):
            assert np.array_equal(lean[0][l], full[0][l])
            assert np.array_equal(lean[1][l], full[1][l])

    @pytest.mark.parametrize("norm", ["mean", "symmetric"])
    def test_precomputed_first_mix_changes_nothing(self, norm):
        from netchron.coupling import _neighbor_mix

        rng = np.random.default_rng(31)
        net = build_network(6, [(0, 1), (1, 2), (2, 0), (3, 4)])  # node 5 isolated
        weights = init_propagation((4, 3, 2), seed=5, neighbor_norm=norm)
        h = rng.normal(size=(6, 4))
        mix = _neighbor_mix(net, h, norm)
        out, stages = propagate(net, h, weights, return_cache=True)
        out_mix, stages_mix = propagate(
            net, h, weights, return_cache=True, first_mix=mix
        )
        assert np.array_equal(out, out_mix)
        assert stages_mix[0][1] is mix
        for a, b in zip(stages, stages_mix):
            for x, y in zip(a, b):
                assert np.array_equal(x, y)


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


class TestGlorot:
    def test_limit_scales_with_fan(self):
        rng = np.random.default_rng(0)
        w = glorot_uniform(rng, 100, 100)
        assert np.abs(w).max() <= np.sqrt(6.0 / 200)
