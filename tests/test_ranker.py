"""Tests for pairwise precedence learning.

Gradient tests compare the analytic reverse-mode gradients against
central finite differences; training behavior is pinned on small
deterministic instances.
"""

import dataclasses
import math

import numpy as np
import pytest

from netchron.datasets import SynthKind, SynthSpec, generate_synthetic
from netchron.dynamics import DynamicsKind, DynamicsSpec, simulate
from netchron.errors import (
    BadDims,
    DimensionMismatch,
    FeatureSchemaMismatch,
    InsufficientLabels,
    ParseError,
    RowMismatch,
)
from netchron.features import FeatureMatrix, FeatureMode
from netchron.graph import build_network
from netchron.ranker import (
    TrainConfig,
    TrainInputs,
    _forward_scores,
    _pair_metrics,
    _stable_sigmoid,
    config_from_dict,
    init_cpnn,
    load_model,
    loss,
    make_pairs,
    param_layout,
    predict_scores,
    prepare_inputs,
    save_model,
    train,
)

import oracles
from oracles import max_relative_error, random_network


def tiny_model(w_hidden, b_hidden, w_out, b_out, l2=0.0, activation="tanh"):
    """A state-only model holding the given scorer weights."""
    w_hidden = np.asarray(w_hidden, dtype=np.float64)
    config = TrainConfig(l2_coeff=l2, hidden=w_hidden.shape[1],
                         mode=FeatureMode.STATE_ONLY, scorer_activation=activation)
    model = init_cpnn(w_hidden.shape[0], config)
    params = model.params()
    params["scorer.w_hidden"][...] = w_hidden
    params["scorer.b_hidden"][...] = b_hidden
    params["scorer.w_out"][...] = w_out
    params["scorer.b_out"][...] = b_out
    return model


def score_rows(model, values, columns=None):
    """predict_scores on a path graph whose k-th edge carries row k."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    k = values.shape[0]
    net = build_network(k + 1, [(i, i + 1) for i in range(k)])
    if columns is None:
        columns = tuple("f%d" % j for j in range(values.shape[1]))
    static = FeatureMatrix(edges=net.endpoints, columns=columns, values=values)
    return predict_scores(model, net, TrainInputs(static=static))


def precedence(z_a, z_b):
    """Probability that the edge scored z_a precedes the one scored z_b."""
    return _stable_sigmoid(np.asarray(z_a, dtype=np.float64) - np.asarray(z_b))


def pa_instance(node_count=40, seed=0, mode=FeatureMode.BOTH):
    net = generate_synthetic(
        SynthSpec(
            kind=SynthKind.PREFERENTIAL_ATTACHMENT,
            node_count=node_count,
            edges_per_node=2,
            seed=seed,
        )
    )
    state = simulate(
        net, DynamicsSpec(kind=DynamicsKind.EPIDEMIC), seed=seed
    ).values
    return net, prepare_inputs(net, state, mode)


def toy_chain(m_edges=40):
    edges = [(i, i + 1) for i in range(m_edges)]
    net = build_network(m_edges + 1, edges, times=list(range(m_edges)))
    static = FeatureMatrix(
        edges=net.endpoints,
        columns=("signal",),
        values=((net.alpha - 0.5) * 2.0)[:, None],
    )
    return net, TrainInputs(static=static, node_inputs=None)


class TestScore:
    def test_matches_hand_computation(self):
        model = tiny_model(
            w_hidden=[[0.5, -1.0], [0.25, 0.5]],
            b_hidden=[0.1, -0.2],
            w_out=[2.0, -1.0],
            b_out=0.3,
        )
        z = score_rows(model, [[1.0, 2.0]])
        # pre = (1.1, -0.2); z = 2 tanh(1.1) - tanh(-0.2) + 0.3
        expected = 2.0 * math.tanh(1.1) - math.tanh(-0.2) + 0.3
        assert abs(z[0] - expected) < 1e-12

    def test_relu_activation(self):
        model = tiny_model(
            w_hidden=[[1.0, -1.0]],
            b_hidden=[0.0, 0.0],
            w_out=[1.0, 1.0],
            b_out=0.0,
            activation="relu",
        )
        z = score_rows(model, [[2.0], [-3.0]])
        assert z[0] == pytest.approx(2.0)
        assert z[1] == pytest.approx(3.0)

    def test_width_mismatch_raises(self):
        model = tiny_model([[1.0], [1.0]], [0.0], [1.0], 0.0)
        with pytest.raises(DimensionMismatch):
            score_rows(model, np.ones((3, 5)))

    def test_column_schema_mismatch_raises(self):
        model = tiny_model([[1.0], [1.0]], [0.0], [1.0], 0.0)
        model = dataclasses.replace(model, feature_columns=("a", "b"))
        with pytest.raises(FeatureSchemaMismatch):
            score_rows(model, np.ones((1, 2)), columns=("a", "c"))

    def test_inputs_of_another_graph_raise(self):
        small, _ = pa_instance(node_count=30, mode=FeatureMode.STATE_ONLY)
        big, inputs = pa_instance(node_count=60, mode=FeatureMode.STATE_ONLY)
        assert (small.edge_count, big.edge_count) == (57, 117)
        cfg = TrainConfig(mode=FeatureMode.STATE_ONLY, hidden=4)
        model = init_cpnn(7, cfg, feature_columns=inputs.static.columns)
        assert predict_scores(model, big, inputs).shape == (117,)
        with pytest.raises(RowMismatch):
            predict_scores(model, small, inputs)

    def test_coupled_model_without_node_inputs_raises(self):
        net, inputs = pa_instance(node_count=20)
        cfg = TrainConfig(hidden=4, embedding_dims=(4, 3))
        model = init_cpnn(inputs.static.values.shape[1] + 4 * 3, cfg)
        bare = TrainInputs(static=inputs.static)
        with pytest.raises(DimensionMismatch, match="needs node inputs"):
            loss(model, bare, np.array([[0, 1, 1]]), net=net)
        with pytest.raises(DimensionMismatch, match="needs node inputs"):
            predict_scores(model, net, bare)

    def test_coupled_model_without_net_raises(self):
        net, inputs = pa_instance(node_count=20)
        cfg = TrainConfig(hidden=4, embedding_dims=(4, 3))
        model = init_cpnn(inputs.static.values.shape[1] + 4 * 3, cfg)
        pairs = np.array([[0, 1, 1]])
        with pytest.raises(DimensionMismatch, match="needs node inputs"):
            loss(model, inputs, pairs)
        with pytest.raises(DimensionMismatch, match="needs node inputs"):
            _pair_metrics(model, inputs, pairs)
        with pytest.raises(DimensionMismatch, match="needs node inputs"):
            _forward_scores(model, inputs, np.arange(net.edge_count))

    @pytest.mark.parametrize("b_out", [0.0, 0.5])
    def test_each_edge_scored_independently(self, b_out):
        # Same batch shape throughout, so every row meets the same BLAS
        # blocking: a row's score must not move when the others change.
        rng = np.random.default_rng(0)
        model = tiny_model(
            rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=4), b_out
        )
        feats = rng.normal(size=(6, 3))
        whole = score_rows(model, feats)
        for k in range(6):
            other = rng.normal(size=feats.shape)
            other[k] = feats[k]
            assert score_rows(model, other)[k] == whole[k]


class TestScoresByDefinition:
    @pytest.mark.parametrize("mode", [FeatureMode.BOTH, FeatureMode.STRUCT_ONLY])
    @pytest.mark.parametrize("norm", ["mean", "symmetric"])
    @pytest.mark.parametrize("activation, scorer_activation", [
        ("tanh", "tanh"), ("tanh", "relu"), ("relu", "tanh"), ("relu", "relu"),
    ])
    def test_predict_scores_matches_the_definition(
        self, mode, norm, activation, scorer_activation
    ):
        # A PA graph plus two isolated nodes, which see only themselves.
        pa, _ = pa_instance(node_count=30, seed=2, mode=mode)
        net = build_network(pa.node_count + 2, pa.endpoints, times=list(pa.alpha))
        state = simulate(net, DynamicsSpec(kind=DynamicsKind.EPIDEMIC), seed=2).values
        inputs = prepare_inputs(net, state, mode)
        cfg = TrainConfig(mode=mode, hidden=6, embedding_dims=(4, 5, 3), seed=3,
                          activation=activation, neighbor_norm=norm,
                          scorer_activation=scorer_activation)
        model = init_cpnn(inputs.static.values.shape[1] + 4 * 3, cfg)
        rng = np.random.default_rng(4)
        params = model.params()
        params["scorer.b_hidden"][...] = rng.normal(size=6)
        params["scorer.b_out"][...] = 0.25
        got = predict_scores(model, net, inputs)
        want = oracles.scores_by_definition(model, net, inputs)
        assert np.max(np.abs(got - want)) <= 1e-12


class TestPairProbability:
    def test_equal_scores_give_half(self):
        assert precedence(1.7, 1.7) == 0.5

    def test_unit_gap_matches_logistic(self):
        p = precedence(1.0, 0.0)
        assert p == pytest.approx(math.e / (1.0 + math.e), abs=1e-12)

    def test_complement(self):
        rng = np.random.default_rng(3)
        za = rng.normal(size=50)
        zb = rng.normal(size=50)
        total = precedence(za, zb) + precedence(zb, za)
        assert np.allclose(total, 1.0, atol=1e-15)

    def test_extreme_scores_stay_finite(self):
        with np.errstate(over="raise"):
            hi = precedence(1000.0, 0.0)
            lo = precedence(0.0, 1000.0)
        assert hi == pytest.approx(1.0)
        assert lo == pytest.approx(0.0)
        assert np.isfinite(hi) and np.isfinite(lo)


class TestLoss:
    def test_equal_scores_cost_log2_per_pair(self):
        model = tiny_model(np.zeros((2, 3)), np.zeros(3), np.zeros(3), 0.0)
        static = FeatureMatrix(
            edges=((0, 1), (1, 2), (0, 2)),
            columns=("f0", "f1"),
            values=np.arange(6.0).reshape(3, 2),
        )
        inputs = TrainInputs(static=static)
        pairs = np.array([[0, 1, 1], [2, 1, 0], [0, 2, 1]])
        value, _ = loss(model, inputs, pairs)
        assert value == pytest.approx(3.0 * math.log(2.0), rel=1e-12)

    def test_l2_term_added_once(self):
        model = tiny_model(
            [[1.0], [2.0]], [3.0], [4.0], 5.0, l2=0.5
        )
        static = FeatureMatrix(
            edges=((0, 1), (1, 2)), columns=("f0", "f1"),
            values=np.zeros((2, 2)),
        )
        pairs = np.array([[0, 1, 1]])
        value, _ = loss(model, TrainInputs(static=static), pairs)
        # scores are both 4 tanh(3) + 5, so cross-entropy is log 2;
        # penalty = 0.5 (1 + 4 + 9 + 16 + 25)
        assert value == pytest.approx(math.log(2.0) + 0.5 * 55.0, rel=1e-12)

    def fd_against_analytic(self, seed, dims, activation, norm, scorer_act):
        rng = np.random.default_rng(seed)
        while True:
            net = random_network(rng, max_nodes=10, min_nodes=5, edge_prob=0.4)
            if 4 <= net.edge_count <= 15:
                break
        state = simulate(
            net, DynamicsSpec(kind=DynamicsKind.EPIDEMIC), seed=seed
        ).values
        inputs = prepare_inputs(net, state, FeatureMode.BOTH)
        cfg = TrainConfig(
            mode=FeatureMode.BOTH,
            hidden=5,
            embedding_dims=dims,
            l2_coeff=1e-3,
            seed=seed,
            activation=activation,
            neighbor_norm=norm,
            scorer_activation=scorer_act,
        )
        d_in = inputs.static.values.shape[1] + 4 * dims[-1]
        model = init_cpnn(d_in, cfg)
        pairs, _ = make_pairs(net, None, 10**6, seed=seed + 1, val_fraction=0.0)
        pairs = pairs[:12]
        _, grad = loss(model, inputs, pairs, net=net)
        grads = model.params(grad)
        step = 1e-5
        worst = 0.0
        for name, arr in model.params().items():
            fd = np.zeros_like(arr)
            flat, fdf = arr.ravel(), fd.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + step
                hi, _ = loss(model, inputs, pairs, net=net)
                flat[k] = orig - step
                lo, _ = loss(model, inputs, pairs, net=net)
                flat[k] = orig
                fdf[k] = (hi - lo) / (2.0 * step)
            worst = max(worst, max_relative_error(grads[name], fd, guard=1e-6))
        return worst

    def test_gradients_match_finite_differences_coupled(self):
        worst = self.fd_against_analytic(11, (4, 3, 2), "tanh", "mean", "tanh")
        assert worst < 1e-4

    def test_gradients_match_finite_differences_relu_symmetric(self):
        worst = self.fd_against_analytic(59, (4, 4), "relu", "symmetric", "relu")
        assert worst < 1e-4

    def test_gradients_static_only(self):
        rng = np.random.default_rng(2)
        static = FeatureMatrix(
            edges=tuple((0, k + 1) for k in range(6)),
            columns=("f0", "f1", "f2"),
            values=rng.normal(size=(6, 3)),
        )
        inputs = TrainInputs(static=static)
        cfg = TrainConfig(
            mode=FeatureMode.STATE_ONLY, hidden=4, l2_coeff=1e-2, seed=5
        )
        model = init_cpnn(3, cfg)
        pairs = np.array([[0, 1, 1], [2, 3, 0], [4, 5, 1], [0, 5, 0]])
        _, grad = loss(model, inputs, pairs)
        grads = model.params(grad)
        step = 1e-5
        for name, arr in model.params().items():
            fd = np.zeros_like(arr)
            flat, fdf = arr.ravel(), fd.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + step
                hi, _ = loss(model, inputs, pairs)
                flat[k] = orig - step
                lo, _ = loss(model, inputs, pairs)
                flat[k] = orig
                fdf[k] = (hi - lo) / (2.0 * step)
            assert max_relative_error(grads[name], fd, guard=1e-6) < 1e-4


    @pytest.mark.parametrize("bad, match", [
        ((-1, 0, 1), r"pair edges must lie in \[0, 6\)"),
        ((0, 6, 1), r"pair edges must lie in \[0, 6\)"),
        ((0, 1, 2), "pair labels must be 0 or 1"),
    ], ids=["edge -1", "edge M", "label 2"])
    def test_pairs_outside_the_edges_or_labels_raise(self, bad, match):
        static = FeatureMatrix(
            edges=tuple((0, k + 1) for k in range(6)),
            columns=("f0", "f1"),
            values=np.arange(12.0).reshape(6, 2),
        )
        inputs = TrainInputs(static=static)
        model = init_cpnn(2, TrainConfig(mode=FeatureMode.STATE_ONLY, hidden=3))
        pairs = np.array([[0, 1, 1], bad])
        for metric in (loss, _pair_metrics):
            with pytest.raises(DimensionMismatch, match=match):
                metric(model, inputs, pairs)


class TestMakePairs:
    def test_full_enumeration_counts(self):
        net = build_network(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], times=[3, 1, 4, 0, 2]
        )
        train_arr, val_arr = make_pairs(net, None, 10**6, seed=0)
        assert train_arr.shape[0] + val_arr.shape[0] == 10
        both = np.vstack([train_arr, val_arr])
        for a, b, y in both:
            assert (net.alpha[a] < net.alpha[b]) == bool(y)
        assert set(both[:, 2].tolist()) == {0, 1}

    def test_tied_times_are_excluded(self):
        net = build_network(
            5, [(0, 1), (1, 2), (2, 3), (3, 4)], times=[0, 0, 1, 2]
        )
        train_arr, val_arr = make_pairs(net, None, 10**6, seed=0)
        # 6 pairs total minus the tied (0,1)-(1,2) comparison
        assert train_arr.shape[0] + val_arr.shape[0] == 5

    def test_budget_caps_pair_count(self):
        net, _ = pa_instance(node_count=30)
        train_arr, val_arr = make_pairs(net, None, 100, seed=1)
        assert train_arr.shape[0] + val_arr.shape[0] == 100
        assert val_arr.shape[0] == 10

    def test_label_fraction_subsets_edges(self):
        net, _ = pa_instance(node_count=30)
        train_arr, val_arr = make_pairs(net, 0.3, 10**6, seed=2)
        lab = math.ceil(0.3 * net.edge_count)
        assert train_arr.shape[0] + val_arr.shape[0] == lab * (lab - 1) // 2
        used = set(np.vstack([train_arr, val_arr])[:, :2].ravel().tolist())
        assert len(used) <= lab

    def test_deterministic_given_seed(self):
        net, _ = pa_instance(node_count=25)
        a1, v1 = make_pairs(net, 0.5, 200, seed=7)
        a2, v2 = make_pairs(net, 0.5, 200, seed=7)
        b1, _ = make_pairs(net, 0.5, 200, seed=8)
        assert np.array_equal(a1, a2) and np.array_equal(v1, v2)
        assert not np.array_equal(a1, b1)

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    @pytest.mark.parametrize("label_fraction, budget, val_fraction", [
        (None, 10**6, 0.1), (0.5, 300, 0.1), (0.3, 10**6, 0.25), (None, 40, 0.0),
    ])
    def test_in_place_shuffle_splits_like_the_permutation(
        self, seed, label_fraction, budget, val_fraction
    ):
        # Generator.shuffle applies the swaps of Generator.permutation,
        # and leaves the stream where permutation leaves it.
        net, _ = pa_instance(node_count=30)
        train_arr, val_arr = make_pairs(net, label_fraction, budget, seed,
                                        val_fraction=val_fraction)
        want_train, want_val = oracles.make_pairs_by_permutation(
            net, label_fraction, budget, seed, val_fraction=val_fraction)
        assert np.array_equal(train_arr, want_train)
        assert np.array_equal(val_arr, want_val)
        assert train_arr.base is val_arr.base

    @pytest.mark.parametrize("n", [1, 10, 1000, 90000, 100000])
    def test_record_shuffle_draws_like_permutation(self, n):
        # make_pairs shuffles its (n, 3) rows as n 24-byte records.
        rows = np.arange(3 * n).reshape(n, 3)
        a, b = np.random.default_rng(n), np.random.default_rng(n)
        shuffled = rows.copy()
        a.shuffle(shuffled.view(np.dtype((np.void, shuffled.strides[0])))[:, 0])
        assert np.array_equal(shuffled, rows[b.permutation(n)])
        assert a.random() == b.random()

    def test_insufficient_labels_raises(self):
        net = build_network(3, [(0, 1), (1, 2)], times=[0, None])
        with pytest.raises(InsufficientLabels):
            make_pairs(net, 0.9, 100, seed=0)

    def test_all_tied_times_raise(self):
        net = build_network(3, [(0, 1), (1, 2)], times=[5, 5])
        with pytest.raises(InsufficientLabels):
            make_pairs(net, None, 100, seed=0)


class TestTrain:
    def test_toy_separable_reaches_high_validation_accuracy(self):
        net, inputs = toy_chain()
        cfg = TrainConfig(
            mode=FeatureMode.STATE_ONLY,
            hidden=8,
            epochs=50,
            label_fraction=None,
            seed=0,
        )
        result = train(net, inputs, cfg)
        best = max(entry["val_accuracy"] for entry in result.log)
        assert best > 0.95

    def test_training_loss_monotone_after_burn_in(self):
        net, inputs = toy_chain()
        cfg = TrainConfig(
            mode=FeatureMode.STATE_ONLY,
            hidden=8,
            epochs=50,
            label_fraction=None,
            seed=0,
        )
        result = train(net, inputs, cfg)
        losses = [entry["train_loss"] for entry in result.log]
        for k in range(5, len(losses)):
            assert losses[k] <= losses[k - 1] + 1e-6

    def test_same_seed_reproduces_run_exactly(self):
        net, inputs = toy_chain(m_edges=25)
        cfg = TrainConfig(
            mode=FeatureMode.STATE_ONLY,
            hidden=6,
            epochs=8,
            label_fraction=None,
            seed=4,
        )
        first = train(net, inputs, cfg)
        second = train(net, inputs, cfg)
        assert first.log == second.log
        for key, arr in first.model.params().items():
            assert np.array_equal(arr, second.model.params()[key])

    def test_huge_l2_collapses_scores_to_constant(self):
        net, inputs = pa_instance(node_count=40)
        cfg = TrainConfig(
            mode=FeatureMode.BOTH,
            label_fraction=None,
            seed=0,
            epochs=200,
            pair_budget=2500,
            l2_coeff=1e6,
            hidden=8,
            embedding_dims=(4, 3, 2),
            val_fraction=0.0,
        )
        result = train(net, inputs, cfg)
        params = result.model.params()
        largest = max(
            float(np.max(np.abs(params[key])))
            for key in params
            if key.startswith("scorer.")
        )
        assert largest < 1e-2
        z = predict_scores(result.model, net, inputs)
        assert float(np.std(z)) < 1e-6
        pairs, _ = make_pairs(net, None, 2500, seed=9, val_fraction=0.0)
        probs = precedence(z[pairs[:, 0]], z[pairs[:, 1]])
        # with the scorer collapsed every comparison is a coin flip
        assert float(np.max(np.abs(probs - 0.5))) < 1e-6

    def test_best_validation_snapshot_is_returned(self):
        net, inputs = pa_instance(node_count=30)
        cfg = TrainConfig(
            mode=FeatureMode.BOTH,
            label_fraction=0.5,
            seed=3,
            epochs=12,
            pair_budget=2000,
            hidden=8,
            embedding_dims=(4, 3, 2),
        )
        result = train(net, inputs, cfg)
        accs = [entry["val_accuracy"] for entry in result.log]
        assert result.best_epoch == int(np.argmax(accs)) + 1
        _, val_arr = make_pairs(
            net, cfg.label_fraction, cfg.pair_budget, cfg.seed,
            val_fraction=cfg.val_fraction,
        )
        z = predict_scores(result.model, net, inputs)
        d = z[val_arr[:, 0]] - z[val_arr[:, 1]]
        acc = float(np.mean((d > 0) == (val_arr[:, 2] == 1)))
        assert acc == pytest.approx(max(accs))

    @pytest.mark.parametrize("mode", [FeatureMode.BOTH, FeatureMode.STRUCT_ONLY])
    def test_coupled_mode_without_node_inputs_raises(self, mode):
        net, inputs = pa_instance(node_count=20, mode=mode)
        cfg = TrainConfig(mode=mode, hidden=4, embedding_dims=(4, 3), epochs=1)
        with pytest.raises(DimensionMismatch, match="needs node inputs"):
            train(net, TrainInputs(static=inputs.static), cfg)

    def test_mismatched_static_edges_raise(self):
        net, inputs = toy_chain(m_edges=10)
        other, _ = toy_chain(m_edges=12)
        cfg = TrainConfig(mode=FeatureMode.STATE_ONLY, label_fraction=None)
        with pytest.raises(RowMismatch):
            train(other, inputs, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(l2_coeff=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(label_fraction=1.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(scorer_activation="gelu")


class TestCheckpoint:
    def test_roundtrip_preserves_scores_exactly(self, tmp_path):
        net, inputs = pa_instance(node_count=25)
        cfg = TrainConfig(
            mode=FeatureMode.BOTH,
            label_fraction=0.5,
            seed=1,
            epochs=3,
            hidden=8,
            embedding_dims=(4, 3, 2),
        )
        result = train(net, inputs, cfg)
        path = tmp_path / "model.json"
        save_model(result.model, path)
        loaded = load_model(path)
        z0 = predict_scores(result.model, net, inputs)
        z1 = predict_scores(loaded, net, inputs)
        assert np.array_equal(z0, z1)
        assert loaded.mode is FeatureMode.BOTH
        assert loaded.config == result.model.config
        assert loaded.feature_columns == result.model.feature_columns

    def test_rewrite_is_byte_identical(self, tmp_path):
        net, inputs = toy_chain(m_edges=12)
        cfg = TrainConfig(
            mode=FeatureMode.STATE_ONLY, label_fraction=None, epochs=2, hidden=4
        )
        result = train(net, inputs, cfg)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_model(result.model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_every_config_field_round_trips(self, tmp_path):
        cfg = TrainConfig(
            learning_rate=0.02,
            l2_coeff=0.5,
            epochs=7,
            batch_size=9,
            pair_budget=11,
            label_fraction=None,
            seed=5,
            mode=FeatureMode.STRUCT_ONLY,
            hidden=3,
            embedding_dims=(4, 6),
            activation="relu",
            neighbor_norm="symmetric",
            scorer_activation="relu",
            val_fraction=0.25,
        )
        for f in dataclasses.fields(TrainConfig):
            assert getattr(cfg, f.name) != f.default, f.name
        path = tmp_path / "model.json"
        save_model(init_cpnn(5, cfg, feature_columns=tuple("abcde")), path)
        assert load_model(path).config == cfg

    def test_rejects_foreign_payload(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "other"}\n')
        with pytest.raises(FeatureSchemaMismatch):
            load_model(path)


class TestConfigFromDict:
    def test_coerces_plain_values(self):
        cfg = config_from_dict(
            {"epochs": "3", "mode": "state", "embedding_dims": "4,8",
             "label_fraction": None, "out": "ignored.json"}
        )
        assert cfg == TrainConfig(
            epochs=3, mode=FeatureMode.STATE_ONLY, embedding_dims=(4, 8),
            label_fraction=None,
        )
        assert config_from_dict({}) == TrainConfig()

    @pytest.mark.parametrize("raw", [
        {"mode": "bogus"},
        {"label_fraction": 1.5},
        {"epochs": 0},
        {"epochs": [1]},
        {"embedding_dims": ""},
    ])
    def test_invalid_values_raise_parse_error(self, raw):
        with pytest.raises(ParseError):
            config_from_dict(raw)

    @pytest.mark.parametrize("raw", [
        {"epochs": 1.7},
        {"epochs": True},
        {"hidden": "4.5"},
        {"embedding_dims": "4,4.5"},
        {"embedding_dims": [4, 32.5]},
        {"learning_rate": float("nan")},
        {"l2_coeff": float("inf")},
        {"label_fraction": float("nan")},
        {"activation": "sigmoid", "mode": "state"},
        {"neighbor_norm": "bogus", "mode": "state"},
        {"embedding_dims": [9, 0], "mode": "state"},
    ])
    def test_no_truncation_no_non_finite_and_every_mode_checked(self, raw):
        with pytest.raises(ParseError, match="invalid training config"):
            config_from_dict(raw)

    def test_integral_floats_are_integers(self):
        cfg = config_from_dict({"epochs": 12.0, "batch_size": "1e2",
                                "embedding_dims": [4.0, 8]})
        assert (cfg.epochs, cfg.batch_size, cfg.embedding_dims) == (12, 100, (4, 8))
        assert type(cfg.epochs) is int

    @pytest.mark.parametrize("fields, valid", [
        ({"seed": -1}, False),
        ({"epochs": 1.5}, False),
        ({"hidden": 2.0}, True),
        ({"batch_size": True}, False),
        ({"embedding_dims": [4, 8]}, True),
        ({"mode": "state"}, True),
    ], ids=lambda case: ("%s=%r" % next(iter(case.items())) if isinstance(case, dict)
                         else "valid" if case else "rejected"))
    def test_library_construction_agrees_with_config_from_dict(self, fields, valid):
        if not valid:
            with pytest.raises(ParseError):
                config_from_dict(fields)
            with pytest.raises(ValueError):
                TrainConfig(**fields)
            return
        built, parsed = TrainConfig(**fields), config_from_dict(fields)
        assert built == parsed
        for f in dataclasses.fields(TrainConfig):
            assert type(getattr(built, f.name)) is type(getattr(parsed, f.name))

    def test_construction_checks_the_propagation_fields_in_state_mode(self):
        state = dict(mode=FeatureMode.STATE_ONLY)
        with pytest.raises(ValueError, match="activation"):
            TrainConfig(activation="sigmoid", **state)
        with pytest.raises(ValueError, match="neighbor_norm"):
            TrainConfig(neighbor_norm="bogus", **state)
        with pytest.raises(BadDims):
            TrainConfig(embedding_dims=(9, 0), **state)


class TestPrepareInputs:
    def setup_method(self):
        self.net, _ = pa_instance(node_count=25)
        self.state = simulate(
            self.net, DynamicsSpec(kind=DynamicsKind.EPIDEMIC), seed=0
        ).values

    def test_both_mode_shapes(self):
        inputs = prepare_inputs(self.net, self.state, FeatureMode.BOTH)
        assert inputs.static.values.shape == (self.net.edge_count, 25)
        assert inputs.node_inputs.shape == (self.net.node_count, 4)
        means = inputs.node_inputs.mean(axis=0)
        assert np.allclose(means, 0.0, atol=1e-9)

    def test_struct_mode_zeroes_state_channel(self):
        inputs = prepare_inputs(self.net, self.state, FeatureMode.STRUCT_ONLY)
        assert inputs.static.values.shape[1] == 18
        assert np.all(inputs.node_inputs[:, 3] == 0.0)

    @pytest.mark.parametrize("mode", [FeatureMode.STRUCT_ONLY, FeatureMode.STATE_ONLY])
    def test_mode_columns_equal_the_both_mode_columns(self, mode):
        both = prepare_inputs(self.net, self.state, FeatureMode.BOTH).static
        part = prepare_inputs(self.net, self.state, mode).static
        assert np.array_equal(part.values, both.select(part.columns).values)

    def test_state_mode_builds_no_structural_block(self, monkeypatch):
        import netchron.graph
        import netchron.ranker

        def forbidden(*args, **kwargs):
            raise AssertionError("state mode built a structural feature")

        monkeypatch.setattr(netchron.ranker, "structural_edge_features", forbidden)
        for kernel in ("local_clustering", "coreness", "triangles"):
            monkeypatch.setattr(netchron.graph, kernel, forbidden)
        inputs = prepare_inputs(self.net, self.state, FeatureMode.STATE_ONLY)
        assert inputs.static.values.shape == (self.net.edge_count, 7)

    def test_state_mode_disables_coupling(self):
        inputs = prepare_inputs(self.net, self.state, FeatureMode.STATE_ONLY)
        assert inputs.static.values.shape[1] == 7
        assert inputs.node_inputs is None
        assert all(c.startswith("state_") for c in inputs.static.columns)


class TestInitCpnn:
    def test_shapes_and_branches(self):
        cfg = TrainConfig(hidden=6, embedding_dims=(4, 3), mode=FeatureMode.BOTH)
        model = init_cpnn(10, cfg)
        params = model.params()
        assert params["scorer.w_hidden"].shape == (10, 6)
        assert params["scorer.b_hidden"].shape == (6,)
        assert params["scorer.w_out"].shape == (6,)
        assert params["scorer.b_out"].shape == ()
        assert params["scorer.b_out"] == 0.0
        assert params["prop.self.0"].shape == params["prop.neigh.0"].shape == (4, 3)

    def test_state_mode_has_no_propagation(self):
        cfg = TrainConfig(hidden=6, mode=FeatureMode.STATE_ONLY)
        model = init_cpnn(7, cfg)
        assert not any(key.startswith("prop.") for key in model.params())

    def test_same_seed_same_weights(self):
        cfg = TrainConfig(hidden=5, seed=9)
        a = init_cpnn(8, cfg)
        b = init_cpnn(8, cfg)
        assert np.array_equal(a.flat, b.flat)

    @pytest.mark.parametrize("mode", list(FeatureMode))
    def test_params_are_views_of_flat_in_layout_order(self, mode):
        cfg = TrainConfig(hidden=3, embedding_dims=(4, 5, 2), mode=mode)
        model = init_cpnn(6, cfg)
        layout = param_layout(cfg, 6)
        params = model.params()
        assert list(params) == list(layout)
        assert [p.shape for p in params.values()] == list(layout.values())
        assert model.flat.size == sum(p.size for p in params.values())
        assert model.flat.dtype == np.float64
        assert np.array_equal(
            np.concatenate([p.ravel() for p in params.values()]), model.flat)
        for key, arr in params.items():
            assert np.shares_memory(arr, model.flat), key
        params["scorer.b_out"][...] = 2.5
        assert model.params()["scorer.b_out"] == 2.5
        # The same layout over another vector, such as a gradient.
        vector = np.arange(model.flat.size, dtype=np.float64)
        views = model.params(vector)
        assert list(views) == list(layout)
        for key, arr in views.items():
            assert arr.shape == layout[key]
            assert np.shares_memory(arr, vector), key
        assert np.array_equal(
            np.concatenate([v.ravel() for v in views.values()]), vector)

    def test_layout_is_coupled_exactly_when_mode_is_not_state(self):
        for mode in FeatureMode:
            cfg = TrainConfig(mode=mode, embedding_dims=(4, 3))
            keys = set(param_layout(cfg, 5))
            has_prop = {"prop.self.0", "prop.neigh.0"} <= keys
            assert has_prop == (mode is not FeatureMode.STATE_ONLY) == cfg.coupled
