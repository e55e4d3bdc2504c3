"""The training step against the per-key loop it replaced, and its work counts.

train keeps every parameter in one flat vector updated in place, mixes
layer 0's constant inputs once per call, and scatters by bincount. The
oracle (oracles.train_by_key_loop) does none of that, so equality here
is bit for bit.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

import netchron.coupling
import netchron.ranker
from netchron.coupling import Workspace, _neighbor_mix
from netchron.datasets import SynthKind, SynthSpec, generate_synthetic
from netchron.dynamics import DynamicsKind, DynamicsSpec, simulate
from netchron.features import FeatureMode
from netchron.graph import build_network
from netchron.ranker import (TrainConfig, _edge_slots, init_cpnn, loss, make_pairs,
                             predict_scores, prepare_inputs, train)

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
            grads = {key: np.full_like(value, np.nan) for key, value in params.items()}
            d_feats = netchron.ranker._scorer_backward(
                params, activation, feats, pre, act, dz, grads, grad_from=grad_from
            )
            for key, b in zip(("scorer.w_hidden", "scorer.b_hidden", "scorer.w_out",
                               "scorer.b_out"), want[:4]):
                assert np.array_equal(grads[key], b), key
            if grad_from is None:
                assert d_feats is None
            else:
                assert d_feats.shape == (50, 30 - grad_from)
                ref = want[4][:, grad_from:]
                scale = np.abs(ref).max(axis=1, keepdims=True)
                assert np.all(np.abs(d_feats - ref) <= 1e-12 * scale)


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

        def counting(net, x, **kwargs):
            calls.append(x.shape)
            return real(net, x, **kwargs)

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


class TestWorkspaceReuse:
    """One workspace through successive calls, as train runs it: each
    call equals a fresh one, bit for bit."""

    @pytest.mark.parametrize("mode, norm, activation", [
        (FeatureMode.BOTH, "mean", "tanh"),
        (FeatureMode.BOTH, "symmetric", "relu"),
        (FeatureMode.STRUCT_ONLY, "symmetric", "tanh"),
        (FeatureMode.STRUCT_ONLY, "mean", "relu"),
        (FeatureMode.STATE_ONLY, "mean", "tanh"),
        (FeatureMode.STATE_ONLY, "mean", "relu"),
    ])
    # 2 x 8 pairs name fewer edges than are supervised, 2 x 32 more.
    @pytest.mark.parametrize("batch_size", [8, 32])
    def test_each_call_equals_a_fresh_one(self, mode, norm, activation, batch_size):
        net, inputs = instance("pa", mode)
        cfg = config(mode, norm, activation, batch_size=batch_size)
        pairs, _ = make_pairs(net, cfg.label_fraction, cfg.pair_budget, cfg.seed,
                              val_fraction=cfg.val_fraction)
        supervised = _edge_slots(pairs, net.edge_count)[0].size
        assert (2 * batch_size > supervised) == (batch_size == 32)
        width = inputs.static.values.shape[1]
        if cfg.coupled:
            width += 4 * cfg.embedding_dims[-1]
        model = init_cpnn(width, cfg)
        first_mix = _neighbor_mix(net, inputs.node_inputs, norm) if cfg.coupled else None
        ws = Workspace(min(2 * batch_size, supervised), model)
        batches = [pairs[lo:lo + batch_size] for lo in range(0, len(pairs), batch_size)]
        assert len(batches[-1]) < batch_size
        edge_counts = set()
        for batch in batches:
            edge_counts.add(_edge_slots(batch, net.edge_count)[0].size)
            value, grad = loss(model, inputs, batch, net=net, first_mix=first_mix, ws=ws)
            want_value, want_grad = loss(model, inputs, batch, net=net,
                                         first_mix=first_mix)
            assert value == want_value
            assert np.array_equal(grad, want_grad)
            # The next call reads the moved weights through ws's views.
            model.flat[...] -= 0.05 * want_grad
        assert len(edge_counts) > 1


@functools.lru_cache(maxsize=None)
def benchmark_instance(mode):
    """A PA graph of the benchmark's pa-gene-coupled size (N = 400) and its inputs."""
    net = generate_synthetic(SynthSpec(
        kind=SynthKind.PREFERENTIAL_ATTACHMENT, node_count=400, edges_per_node=2,
        seed=1,
    ))
    state = simulate(net, DynamicsSpec(kind=DynamicsKind.EPIDEMIC), seed=1).values
    return net, prepare_inputs(net, state, mode)


class TestStepAllocation:
    """What a training step allocates once the first step has filled the workspace."""

    @pytest.mark.parametrize("mode", [FeatureMode.BOTH, FeatureMode.STRUCT_ONLY,
                                      FeatureMode.STATE_ONLY])
    @pytest.mark.parametrize("norm, activation", [("mean", "tanh"),
                                                  ("symmetric", "relu")])
    def test_step_peak_is_below_one_per_edge_block(self, monkeypatch, mode, norm,
                                                    activation):
        # The default config (256-pair batches, 64 hidden, dims 4, 32, 32)
        # on a graph of the benchmark's size, so that a batch names a few
        # hundred edges. tracemalloc sees numpy's data allocations.
        net, inputs = benchmark_instance(mode)
        cfg = TrainConfig(mode=mode, neighbor_norm=norm, activation=activation,
                          scorer_activation=activation, epochs=1, seed=1)
        real = netchron.ranker.loss
        calls = []
        traced = []

        def measured(model, *args, **kwargs):
            # The measured step runs from the start of the second call
            # (after the first has allocated the workspace) to the start
            # of the third: loss, the Adam update, the next batch.
            if len(calls) == 1:
                tracemalloc.reset_peak()
                traced.append(tracemalloc.get_traced_memory()[0])
            elif len(calls) == 2:
                traced.append(tracemalloc.get_traced_memory()[1])
            calls.append((model, kwargs["ws"]))
            return real(model, *args, **kwargs)

        monkeypatch.setattr(netchron.ranker, "loss", measured)
        tracemalloc.start()
        try:
            train(net, inputs, cfg)
        finally:
            tracemalloc.stop()
        model, ws = calls[0]
        assert ws.rows == 240 and len(calls) > 3
        start, peak = traced
        # The bound is the (rows, input_dim) scorer block. In mode state
        # that block is 7 columns wide, smaller than a 256-pair batch's
        # own pair arrays, so there it is the (rows, hidden) hidden
        # layer. The step used to allocate both, and more, every time.
        bound = ws.rows * max(model.input_dim, cfg.hidden) * 8
        assert peak - start < bound


def first_edges(net, count):
    """The graph cut to its first count edges, and a steady state on it."""
    net = build_network(net.node_count, net.endpoints[:count],
                        times=list(net.alpha[:count]))
    return net, simulate(net, DynamicsSpec(kind=DynamicsKind.EPIDEMIC), seed=5).values


class TestBlockScoring:
    """predict_scores and the epoch metrics score rows in blocks of
    B = 2 batch_size, the last block taking the remainder; every row
    count gives the scores of one whole-matrix forward pass."""

    BATCH = 8
    B = 2 * BATCH

    @pytest.fixture
    def blocks(self, monkeypatch):
        sizes = []
        real = netchron.ranker._score_block

        def recording(model, inputs, edge_rows, *args):
            sizes.append(edge_rows.size)
            return real(model, inputs, edge_rows, *args)

        monkeypatch.setattr(netchron.ranker, "_score_block", recording)
        return sizes

    def expected_blocks(self, rows):
        count = max(rows // self.B, 1)
        return [self.B] * (count - 1) + [rows - (count - 1) * self.B]

    def model_for(self, mode, inputs):
        cfg = config(mode, batch_size=self.BATCH)
        width = inputs.static.values.shape[1]
        if cfg.coupled:
            width += 4 * cfg.embedding_dims[-1]
        model = init_cpnn(width, cfg)
        model.params()["scorer.b_hidden"][...] = np.linspace(-0.5, 0.5, cfg.hidden)
        return model

    @pytest.mark.parametrize("rows", [B - 1, B, B + 1, 2 * B + 1, 3 * B + 7])
    @pytest.mark.parametrize("mode", [FeatureMode.BOTH, FeatureMode.STATE_ONLY])
    def test_predict_scores_equals_one_block(self, blocks, rows, mode):
        net, state = first_edges(instance("pa", mode)[0], rows)
        inputs = prepare_inputs(net, state, mode)
        model = self.model_for(mode, inputs)
        got = predict_scores(model, net, inputs)
        assert blocks == self.expected_blocks(rows)
        want = netchron.ranker._forward_scores(model, inputs, np.arange(rows), net=net)[0]
        assert oracles.max_relative_error(got, want) <= 1e-12

    @pytest.mark.parametrize("rows", [B - 1, B, B + 1, 2 * B + 1, 3 * B + 7])
    @pytest.mark.parametrize("mode", [FeatureMode.BOTH, FeatureMode.STATE_ONLY])
    def test_pair_metrics_equal_one_block(self, blocks, rows, mode):
        net, inputs = instance("pa", mode)
        model = self.model_for(mode, inputs)
        # A chain of pairs over edges 0 .. rows - 1 names exactly rows edges.
        a = np.arange(rows - 1)
        pairs = np.column_stack([a, a + 1, (net.alpha[a] < net.alpha[a + 1])])
        pairs = pairs.astype(np.int64)
        got = netchron.ranker._pair_metrics(model, inputs, pairs, net=net)
        assert blocks == self.expected_blocks(rows)
        want = oracles._pair_metrics_by_unique(model, inputs, pairs, net)
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0)
        assert got[1] == want[1]

    def test_predict_scores_memory_is_one_block(self):
        # State-only inputs on PA N = 3000 (M = 5997), the default
        # config: one block is at most 1023 rows of the 64-wide hidden
        # layer, where the whole-matrix pass held 5997.
        net = generate_synthetic(SynthSpec(
            kind=SynthKind.PREFERENTIAL_ATTACHMENT, node_count=3000,
            edges_per_node=2, seed=1,
        ))
        state = simulate(net, DynamicsSpec(kind=DynamicsKind.EPIDEMIC), seed=1).values
        inputs = prepare_inputs(net, state, FeatureMode.STATE_ONLY)
        model = init_cpnn(inputs.static.values.shape[1],
                          TrainConfig(mode=FeatureMode.STATE_ONLY))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            predict_scores(model, net, inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert net.edge_count == 5997
        assert peak - start < 2e6


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
