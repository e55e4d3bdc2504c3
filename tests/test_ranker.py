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
    DimensionMismatch,
    FeatureSchemaMismatch,
    InsufficientLabels,
    ParseError,
    RowMismatch,
)
from netchron.features import FeatureMatrix, FeatureMode
from netchron.graph import build_network
from netchron.ranker import (
    CpnnModel,
    ScorerWeights,
    TrainConfig,
    TrainInputs,
    _stable_sigmoid,
    config_from_dict,
    init_cpnn,
    load_model,
    loss,
    make_pairs,
    predict_scores,
    prepare_inputs,
    save_model,
    train,
)

from oracles import max_relative_error, random_network


def tiny_model(w_hidden, b_hidden, w_out, b_out, l2=0.0, activation="tanh"):
    scorer = ScorerWeights(
        w_hidden=np.asarray(w_hidden, dtype=np.float64),
        b_hidden=np.asarray(b_hidden, dtype=np.float64),
        w_out=np.asarray(w_out, dtype=np.float64),
        b_out=float(b_out),
        activation=activation,
    )
    config = TrainConfig(l2_coeff=l2, hidden=scorer.hidden)
    return CpnnModel(
        scorer=scorer,
        propagation=None,
        feature_columns=(),
        mode=FeatureMode.STATE_ONLY,
        config=config,
    )


def score_rows(model, values, columns=None):
    """predict_scores on a path graph whose k-th edge carries row k."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    k = values.shape[0]
    net = build_network(k + 1, [(i, i + 1) for i in range(k)])
    if columns is None:
        columns = tuple("f%d" % j for j in range(values.shape[1]))
    static = FeatureMatrix(edges=net.edges, columns=columns, values=values)
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
        edges=net.edges,
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
        model = CpnnModel(
            scorer=model.scorer,
            propagation=None,
            feature_columns=("a", "b"),
            mode=FeatureMode.STATE_ONLY,
            config=model.config,
        )
        with pytest.raises(FeatureSchemaMismatch):
            score_rows(model, np.ones((1, 2)), columns=("a", "c"))

    def test_each_edge_scored_independently(self):
        rng = np.random.default_rng(0)
        model = tiny_model(
            rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=4), 0.5
        )
        feats = rng.normal(size=(6, 3))
        whole = score_rows(model, feats)
        single = np.array([score_rows(model, feats[k:k + 1])[0] for k in range(6)])
        assert np.array_equal(whole, single)


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
        model = init_cpnn(d_in, cfg, coupling=True)
        pairs, _ = make_pairs(net, None, 10**6, seed=seed + 1, val_fraction=0.0)
        pairs = pairs[:12]
        _, grads = loss(model, inputs, pairs, net=net)
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
        model = init_cpnn(3, cfg, coupling=False)
        pairs = np.array([[0, 1, 1], [2, 3, 0], [4, 5, 1], [0, 5, 0]])
        _, grads = loss(model, inputs, pairs)
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

    def test_insufficient_labels_raises(self):
        net = build_network(3, [(0, 1), (1, 2)], times=[0, 1])
        masked = net
        import dataclasses

        masked = dataclasses.replace(
            masked, labeled_mask=np.array([True, False])
        )
        with pytest.raises(InsufficientLabels):
            make_pairs(masked, 0.9, 100, seed=0)

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

    def test_mismatched_static_edges_raise(self):
        net, inputs = toy_chain(m_edges=10)
        other, _ = toy_chain(m_edges=12)
        cfg = TrainConfig(mode=FeatureMode.STATE_ONLY, label_fraction=None)
        with pytest.raises(RowMismatch):
            train(other, inputs, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0).validated()
        with pytest.raises(ValueError):
            TrainConfig(l2_coeff=-1.0).validated()
        with pytest.raises(ValueError):
            TrainConfig(label_fraction=1.0).validated()
        with pytest.raises(ValueError):
            TrainConfig(epochs=0).validated()
        with pytest.raises(ValueError):
            TrainConfig(scorer_activation="gelu").validated()


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
        monkeypatch.setattr(netchron.graph, "node_struct_stats", forbidden)
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
        assert model.scorer.w_hidden.shape == (10, 6)
        assert model.scorer.b_hidden.shape == (6,)
        assert model.scorer.w_out.shape == (6,)
        assert model.scorer.b_out == 0.0
        assert model.propagation is not None
        assert model.propagation.dims == (4, 3)

    def test_state_mode_has_no_propagation(self):
        cfg = TrainConfig(hidden=6, mode=FeatureMode.STATE_ONLY)
        model = init_cpnn(7, cfg)
        assert model.propagation is None

    def test_same_seed_same_weights(self):
        cfg = TrainConfig(hidden=5, seed=9)
        a = init_cpnn(8, cfg)
        b = init_cpnn(8, cfg)
        assert np.array_equal(a.scorer.w_hidden, b.scorer.w_hidden)
