"""The training step against the per-key loop it replaced, and its work counts.

train keeps every parameter in one flat vector updated in place, mixes
layer 0's constant inputs once per call, and scatters by bincount. The
oracle (oracles.train_by_key_loop) does none of that, so equality here
is bit for bit.
"""

import math

import numpy as np
import pytest

import netchron.coupling
import netchron.ranker
from netchron.datasets import SynthKind, SynthSpec, generate_synthetic
from netchron.dynamics import DynamicsKind, DynamicsSpec, simulate
from netchron.features import FeatureMode
from netchron.graph import build_network
from netchron.ranker import TrainConfig, _edge_slots, make_pairs, prepare_inputs, train

import oracles


def instance(kind, mode):
    """A PA graph, or the same graph with four isolated nodes appended."""
    net = generate_synthetic(
        SynthSpec(
            kind=SynthKind.PREFERENTIAL_ATTACHMENT,
            node_count=40,
            edges_per_node=2,
            seed=5,
        )
    )
    if kind == "isolated":
        net = build_network(net.node_count + 4, net.endpoints, times=list(net.alpha))
    state = simulate(net, DynamicsSpec(kind=DynamicsKind.EPIDEMIC), seed=5).values
    return net, prepare_inputs(net, state, mode)


def config(mode, norm="mean", activation="tanh", val_fraction=0.1, **kw):
    fields = dict(
        mode=mode,
        neighbor_norm=norm,
        activation=activation,
        scorer_activation=activation,
        val_fraction=val_fraction,
        label_fraction=0.5,
        pair_budget=600,
        batch_size=64,
        epochs=4,
        hidden=8,
        embedding_dims=(4, 6, 5),
        seed=7,
    )
    fields.update(kw)
    return TrainConfig(**fields)


CASES = [
    ("pa", FeatureMode.BOTH, "mean", "tanh", 0.1),
    ("pa", FeatureMode.BOTH, "symmetric", "relu", 0.0),
    ("isolated", FeatureMode.BOTH, "symmetric", "tanh", 0.1),
    ("isolated", FeatureMode.BOTH, "mean", "relu", 0.0),
    ("pa", FeatureMode.STRUCT_ONLY, "symmetric", "tanh", 0.0),
    ("isolated", FeatureMode.STRUCT_ONLY, "mean", "relu", 0.1),
    ("pa", FeatureMode.STATE_ONLY, "mean", "tanh", 0.1),
    ("isolated", FeatureMode.STATE_ONLY, "mean", "relu", 0.0),
]


class TestMatchesKeyLoop:
    @pytest.mark.parametrize("kind, mode, norm, activation, val_fraction", CASES)
    def test_params_and_log_are_bit_identical(
        self, kind, mode, norm, activation, val_fraction
    ):
        net, inputs = instance(kind, mode)
        cfg = config(mode, norm, activation, val_fraction)
        result = train(net, inputs, cfg)
        params, log, best_epoch = oracles.train_by_key_loop(net, inputs, cfg)

        got = result.model.params()
        assert got.keys() == params.keys()
        for key, arr in params.items():
            assert np.array_equal(got[key], arr), key
        assert result.best_epoch == best_epoch
        assert len(result.log) == len(log)
        for entry, want in zip(result.log, log):
            assert entry.keys() == want.keys()
            for key, value in want.items():
                if key == "grad_norm":
                    # Summed in another order (flat dot vs per key).
                    assert entry[key] == pytest.approx(value, rel=1e-12)
                else:
                    assert entry[key] == value, key


class TestCoupledBackwardOracle:
    @pytest.mark.parametrize("d", [1, 3])
    def test_star_batch_sums_like_add_at(self, d):
        # Every edge touches the hub (node 0), on either side.
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(9, d))
        leaves = rng.integers(1, 9, size=40)
        endpoints = np.column_stack([np.zeros(40, dtype=np.int64), leaves])
        endpoints[::3] = endpoints[::3, ::-1]
        grad = rng.normal(size=(40, 4 * d))
        assert np.array_equal(
            netchron.coupling.coupled_backward(emb, endpoints, grad),
            oracles.coupled_backward_by_add_at(emb, endpoints, grad),
        )

    def test_random_endpoints_sum_like_add_at(self):
        rng = np.random.default_rng(4)
        emb = rng.normal(size=(30, 5))
        emb[3] = emb[4]  # a tie: zero subgradient
        endpoints = rng.integers(0, 30, size=(200, 2))
        endpoints[0] = (3, 4)
        grad = rng.normal(size=(200, 20)) * 10.0 ** rng.integers(-8, 8, size=(200, 1))
        assert np.array_equal(
            netchron.coupling.coupled_backward(emb, endpoints, grad),
            oracles.coupled_backward_by_add_at(emb, endpoints, grad),
        )


class TestScorerBackwardOracle:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_weight_grads_bit_equal_and_feature_grad_sliced(self, activation):
        rng = np.random.default_rng(6)
        params = {
            "scorer.w_hidden": rng.normal(size=(30, 8)),
            "scorer.b_hidden": rng.normal(size=8),
            "scorer.w_out": rng.normal(size=8),
            "scorer.b_out": np.asarray(0.5),
        }
        feats = rng.normal(size=(50, 30))
        _, pre, act = netchron.ranker._scorer_forward(params, activation, feats)
        dz = rng.normal(size=50) * 10.0 ** rng.integers(-8, 8, size=50)
        want = oracles.scorer_backward_by_outer(params, activation, feats, pre,
                                                act, dz)
        for grad_from in (None, 0, 22):
            got = netchron.ranker._scorer_backward(
                params, activation, feats, pre, act, dz, grad_from=grad_from
            )
            for a, b in zip(got[:4], want[:4]):
                assert np.array_equal(a, b)
            if grad_from is None:
                assert got[4] is None
            else:
                assert got[4].shape == (50, 30 - grad_from)
                ref = want[4][:, grad_from:]
                scale = np.abs(ref).max(axis=1, keepdims=True)
                assert np.all(np.abs(got[4] - ref) <= 1e-12 * scale)


class TestEdgeSlots:
    @pytest.mark.parametrize("m", [1, 2, 17, 400])
    def test_bitmap_equals_unique(self, m):
        rng = np.random.default_rng(m)
        pairs = rng.integers(0, m, size=(3 * m + 2, 3))
        pairs[0, :2] = (0, m - 1)  # a pair that touches the first and last edge
        rows, slot = _edge_slots(pairs, m)
        flat = pairs[:, :2].ravel()
        want_rows, want_inverse = np.unique(flat, return_inverse=True)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(slot[flat], want_inverse)
        assert np.array_equal(rows[slot[flat]], flat)


class TestPairMetrics:
    @pytest.mark.parametrize("count", [1, netchron.ranker.PAIR_CHUNK,
                                       netchron.ranker.PAIR_CHUNK + 1])
    @pytest.mark.parametrize("mode", [FeatureMode.BOTH, FeatureMode.STATE_ONLY])
    def test_chunked_pass_equals_one_pass(self, count, mode):
        net = generate_synthetic(SynthSpec(
            kind=SynthKind.PREFERENTIAL_ATTACHMENT, node_count=100,
            edges_per_node=2, seed=5,
        ))
        state = simulate(net, DynamicsSpec(kind=DynamicsKind.EPIDEMIC), seed=5).values
        inputs = prepare_inputs(net, state, mode)
        cfg = config(mode)
        pairs, _ = make_pairs(net, None, 10**6, seed=3, val_fraction=0.0)
        assert pairs.shape[0] > count
        pairs = pairs[:count]
        width = inputs.static.values.shape[1]
        if cfg.coupled:
            width += 4 * cfg.embedding_dims[-1]
        model = netchron.ranker.init_cpnn(width, cfg)
        got = netchron.ranker._pair_metrics(model, inputs, pairs, net=net)
        assert got == oracles._pair_metrics_by_unique(model, inputs, pairs, net)


def batches_per_epoch(net, cfg):
    train_arr, _ = make_pairs(
        net, cfg.label_fraction, cfg.pair_budget, cfg.seed,
        val_fraction=cfg.val_fraction,
    )
    return math.ceil(train_arr.shape[0] / cfg.batch_size)


class TestWorkCounts:
    @pytest.mark.parametrize("norm", ["mean", "symmetric"])
    @pytest.mark.parametrize("val_fraction", [0.0, 0.1])
    def test_neighbor_sums_per_call(self, monkeypatch, norm, val_fraction):
        net, inputs = instance("pa", FeatureMode.BOTH)
        cfg = config(FeatureMode.BOTH, norm, val_fraction=val_fraction)
        calls = []
        real = netchron.coupling.neighbor_sum

        def counting(net, x):
            calls.append(x.shape)
            return real(net, x)

        monkeypatch.setattr(netchron.coupling, "neighbor_sum", counting)
        train(net, inputs, cfg)
        # Two propagation layers. Per batch: layer 1's aggregate forward
        # and its transpose backward (layer 0's transpose is skipped).
        # Per metric pass (train, plus validation if any): layer 1's
        # aggregate. Per call: layer 0's aggregate, hoisted.
        passes = 2 if val_fraction else 1
        expected = (
            2 * cfg.epochs * batches_per_epoch(net, cfg)
            + passes * cfg.epochs
            + 1
        )
        assert len(calls) == expected
        assert calls.count((net.node_count, 4)) == 1

    @pytest.mark.parametrize("mode", [FeatureMode.BOTH, FeatureMode.STATE_ONLY])
    @pytest.mark.parametrize("val_fraction", [0.0, 0.1])
    def test_loss_runs_once_per_batch(self, monkeypatch, mode, val_fraction):
        net, inputs = instance("pa", mode)
        cfg = config(mode, val_fraction=val_fraction)
        seen = []
        real = netchron.ranker.loss

        def counting(model, *args, **kwargs):
            seen.append(model)
            return real(model, *args, **kwargs)

        monkeypatch.setattr(netchron.ranker, "loss", counting)
        result = train(net, inputs, cfg)
        assert len(seen) == cfg.epochs * batches_per_epoch(net, cfg)
        # The returned model owns its memory: no array of it is a view
        # of the flat vector the batches trained.
        for key, arr in result.model.params().items():
            for model in seen:
                assert not np.shares_memory(arr, model.params()[key]), key


class TestRepeatable:
    def test_two_calls_give_equal_models(self):
        net, inputs = instance("isolated", FeatureMode.BOTH)
        cfg = config(FeatureMode.BOTH, "symmetric", val_fraction=0.0)
        first = train(net, inputs, cfg)
        second = train(net, inputs, cfg)
        assert first.log == second.log
        for key, arr in first.model.params().items():
            assert np.array_equal(arr, second.model.params()[key])
            assert not np.shares_memory(arr, second.model.params()[key])
