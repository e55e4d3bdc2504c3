"""Pairwise precedence learning over per-edge representations.

Each edge gets an independent scalar score from a one-hidden-layer
scorer applied to its representation (handcrafted feature blocks plus,
when coupling is on, propagation-derived edge features whose weights
train jointly). Supervision is pairwise: the probability that one
edge precedes another is the softmax of the two scores, trained with
cross-entropy over sampled labeled pairs plus an L2 penalty on the
scorer parameters. All gradients are reverse-accumulated by hand and
verified against finite differences in the tests.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .coupling import (
    coupled_backward,
    coupled_column_names,
    coupled_edge_features,
    glorot_uniform,
    init_propagation,
    propagate,
    propagate_backward,
    PropagationWeights,
)
from .errors import (
    DimensionMismatch,
    EmptyPairs,
    FeatureSchemaMismatch,
    InsufficientLabels,
    ParseError,
    RowMismatch,
)
from .evaluation import _distinct_time_pairs
from .features import (
    FeatureMatrix,
    FeatureMode,
    combine,
    feature_subset,
    normalize,
    standardize_columns,
    steady_state_edge_features,
    structural_edge_features,
)
from .serialize import dump_json, load_json


class PairSample(NamedTuple):
    """One supervised comparison: does edge a precede edge b (y=1)?"""

    a: int
    b: int
    y: int


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    label_fraction picks ceil(fraction * M) supervised edges out of
    the network's labeled set; None uses the labeled set as is.
    embedding_dims starts with the 4-wide node input; mode STATE_ONLY
    disables the propagation branch entirely.
    """

    learning_rate: float = 1e-3
    l2_coeff: float = 1e-4
    epochs: int = 200
    batch_size: int = 256
    pair_budget: int = 100_000
    label_fraction: float | None = 0.3
    seed: int = 0
    mode: FeatureMode = FeatureMode.BOTH
    hidden: int = 64
    embedding_dims: tuple = (4, 32, 32)
    activation: str = "tanh"
    neighbor_norm: str = "mean"
    scorer_activation: str = "tanh"
    val_fraction: float = 0.1

    def validated(self):
        if self.learning_rate <= 0 or self.l2_coeff < 0:
            raise ValueError("learning_rate must be > 0 and l2_coeff >= 0")
        if self.epochs < 1 or self.batch_size < 1 or self.pair_budget < 1:
            raise ValueError("epochs, batch_size, pair_budget must be >= 1")
        if self.label_fraction is not None and not 0.0 < self.label_fraction < 1.0:
            raise ValueError("label_fraction must lie in (0, 1) or be None")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")
        if self.scorer_activation not in ("tanh", "relu"):
            raise ValueError("scorer_activation must be tanh or relu")
        FeatureMode(self.mode)
        return self


def _int_tuple(value):
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip()]
    out = tuple(int(float(v)) for v in value)
    if not out:
        raise ValueError("a tuple field must be non-empty")
    return out


# Coercion of plain (flag or JSON) values by declared field type.
_COERCE = {
    "float": float,
    "float | None": lambda v: None if v is None else float(v),
    "int": int,
    "str": str,
    "tuple": _int_tuple,
    "FeatureMode": FeatureMode,
}


def config_from_dict(raw):
    """Validated TrainConfig from plain values, e.g. CLI flags or JSON.

    Each field is coerced by its declared type (tuples also accept a
    comma-separated string); absent fields keep their defaults and other
    keys are ignored. Any malformed or invalid value raises ParseError.
    """
    try:
        return TrainConfig(**{
            f.name: _COERCE[f.type](raw.get(f.name, f.default))
            for f in dataclasses.fields(TrainConfig)
        }).validated()
    except (TypeError, ValueError) as exc:
        raise ParseError("invalid training config: %s" % exc) from None


@dataclass(frozen=True, eq=False)
class ScorerWeights:
    """One-hidden-layer scorer: z = w_out . act(f W_hidden + b_hidden) + b_out."""

    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: float
    activation: str = "tanh"

    @property
    def input_dim(self):
        return self.w_hidden.shape[0]

    @property
    def hidden(self):
        return self.w_hidden.shape[1]


@dataclass(frozen=True, eq=False)
class CpnnModel:
    """Trained scorer plus (optionally) the coupled propagation weights."""

    scorer: ScorerWeights
    propagation: PropagationWeights | None
    feature_columns: tuple
    mode: FeatureMode
    config: TrainConfig

    @property
    def input_dim(self):
        return self.scorer.input_dim

    @property
    def hidden(self):
        return self.scorer.hidden

    def params(self):
        """All trainable arrays keyed by name (b_out as a 0-d array)."""
        out = {
            "scorer.w_hidden": self.scorer.w_hidden,
            "scorer.b_hidden": self.scorer.b_hidden,
            "scorer.w_out": self.scorer.w_out,
            "scorer.b_out": np.asarray(self.scorer.b_out, dtype=np.float64),
        }
        if self.propagation is not None:
            for l in range(self.propagation.layer_count):
                out["prop.self.%d" % l] = self.propagation.w_self[l]
                out["prop.neigh.%d" % l] = self.propagation.w_neigh[l]
        return out

    def with_params(self, params):
        """Rebuild the model from a params dict (shapes must match)."""
        scorer = ScorerWeights(
            w_hidden=np.asarray(params["scorer.w_hidden"], dtype=np.float64),
            b_hidden=np.asarray(params["scorer.b_hidden"], dtype=np.float64),
            w_out=np.asarray(params["scorer.w_out"], dtype=np.float64),
            b_out=float(np.asarray(params["scorer.b_out"])),
            activation=self.scorer.activation,
        )
        prop = self.propagation
        if prop is not None:
            prop = PropagationWeights(
                w_self=tuple(
                    np.asarray(params["prop.self.%d" % l], dtype=np.float64)
                    for l in range(prop.layer_count)
                ),
                w_neigh=tuple(
                    np.asarray(params["prop.neigh.%d" % l], dtype=np.float64)
                    for l in range(prop.layer_count)
                ),
                dims=prop.dims,
                activation=prop.activation,
                neighbor_norm=prop.neighbor_norm,
            )
        return replace(self, scorer=scorer, propagation=prop)


@dataclass(frozen=True, eq=False)
class TrainInputs:
    """Static per-edge features plus optional per-node coupling inputs.

    static is the normalized, mode-filtered handcrafted block;
    node_inputs is the standardized (N, 4) matrix feeding propagation,
    or None when coupling is disabled.
    """

    static: FeatureMatrix
    node_inputs: np.ndarray | None = None


def prepare_inputs(net, state_values, mode=FeatureMode.BOTH, stats=None,
                   pagerank_values=None, betweenness=None):
    """Build the TrainInputs bundle for a network and steady state.

    Only the handcrafted blocks the mode uses are built; they are
    normalized then filtered to the mode. Node inputs are standardized
    column-wise, with the state column zeroed for the structure-only
    ablation and the whole branch dropped for the state-only one.
    """
    from .coupling import node_input_matrix
    from .graph import node_struct_stats

    mode = FeatureMode(mode)
    blocks = []
    if mode is not FeatureMode.STATE_ONLY:
        if stats is None:
            stats = node_struct_stats(net)
        blocks.append(structural_edge_features(
            net, stats=stats, pagerank_values=pagerank_values,
            betweenness=betweenness,
        ))
    if mode is not FeatureMode.STRUCT_ONLY:
        blocks.append(steady_state_edge_features(net, state_values))
    # Normalization is column-wise, so unused blocks need not be built.
    static = feature_subset(normalize(combine(*blocks)), mode)
    if mode is FeatureMode.STATE_ONLY:
        node_inputs = None
    else:
        raw = node_input_matrix(
            net, state_values, stats=stats,
            zero_state=mode is FeatureMode.STRUCT_ONLY,
        )
        node_inputs, _, _ = standardize_columns(raw)
    return TrainInputs(static=static, node_inputs=node_inputs)


def init_cpnn(input_dim, config, feature_columns=(), coupling=None):
    """Fresh model: Glorot scorer weights, zero biases, propagation branch.

    coupling=None derives the propagation branch from the mode; pass
    False to train a scorer on static features alone.
    """
    config = config.validated()
    rng = np.random.default_rng(config.seed + 1)
    scorer = ScorerWeights(
        w_hidden=glorot_uniform(rng, input_dim, config.hidden),
        b_hidden=np.zeros(config.hidden),
        w_out=glorot_uniform(rng, config.hidden, 1)[:, 0],
        b_out=0.0,
        activation=config.scorer_activation,
    )
    if coupling is None:
        coupling = FeatureMode(config.mode) is not FeatureMode.STATE_ONLY
    propagation = None
    if coupling:
        propagation = init_propagation(
            config.embedding_dims,
            seed=config.seed + 2,
            activation=config.activation,
            neighbor_norm=config.neighbor_norm,
        )
    return CpnnModel(
        scorer=scorer,
        propagation=propagation,
        feature_columns=tuple(feature_columns),
        mode=FeatureMode(config.mode),
        config=config,
    )


def _scorer_forward(scorer, feats):
    pre = feats @ scorer.w_hidden + scorer.b_hidden
    if scorer.activation == "tanh":
        act = np.tanh(pre)
    else:
        act = np.maximum(pre, 0.0)
    z = act @ scorer.w_out + scorer.b_out
    return z, pre, act


def _scorer_backward(scorer, feats, pre, act, dz):
    d_w_out = act.T @ dz
    d_b_out = np.asarray(dz.sum(), dtype=np.float64)
    d_act = np.outer(dz, scorer.w_out)
    if scorer.activation == "tanh":
        d_pre = d_act * (1.0 - act * act)
    else:
        d_pre = d_act * (pre > 0.0)
    d_w_hidden = feats.T @ d_pre
    d_b_hidden = d_pre.sum(axis=0)
    d_feats = d_pre @ scorer.w_hidden.T
    return d_w_hidden, d_b_hidden, d_w_out, d_b_out, d_feats


def _stable_sigmoid(d):
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x):
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def _pairs_array(pairs):
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        raise EmptyPairs("no pairs")
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise DimensionMismatch("pairs must be (n, 3) of (a, b, y)")
    return arr


def make_pairs(net, label_fraction, pair_budget, seed, val_fraction=0.1):
    """Sample supervised pairs and split them into train/validation.

    The supervised edge set is a uniform ceil(label_fraction * M)
    subset of the network's labeled edges (label_fraction=None keeps
    the whole labeled set). Distinct-time pairs among supervised edges
    are drawn with random orientation, all of them or a uniform
    pair_budget of them without enumerating the rest, then split at
    the pair level.
    """
    rng = np.random.default_rng(seed)
    known = np.flatnonzero(net.labeled_mask & ~np.isnan(net.alpha))
    if label_fraction is None:
        lab = known
    else:
        need = math.ceil(label_fraction * net.edge_count)
        if need > known.size:
            raise InsufficientLabels(
                "need %d supervised edges but only %d are labeled"
                % (need, known.size)
            )
        lab = rng.choice(known, size=need, replace=False)
    if lab.size < 2:
        raise InsufficientLabels("need at least two supervised edges")
    pairs = _distinct_time_pairs(lab, net.alpha, rng, pair_budget)
    if pairs.shape[0] == 0:
        raise InsufficientLabels("supervised edges share a single formation time")
    perm = rng.permutation(pairs.shape[0])
    val_count = int(round(val_fraction * pairs.shape[0]))
    if val_count >= pairs.shape[0]:
        val_count = pairs.shape[0] - 1
    val = pairs[perm[:val_count]]
    train = pairs[perm[val_count:]]
    return train, val


def _forward_scores(model, inputs, edge_rows, net=None):
    """Scores for the given edge rows, plus the caches backprop needs."""
    static_rows = inputs.static.values[edge_rows]
    cache = {"edge_rows": edge_rows, "static_rows": static_rows}
    if model.propagation is not None and inputs.node_inputs is not None:
        emb, stages = propagate(
            net, inputs.node_inputs, model.propagation, return_cache=True
        )
        endpoints = net.endpoints[edge_rows]
        cpl = coupled_edge_features(emb, endpoints)
        feats = np.hstack([static_rows, cpl])
        cache.update(embeddings=emb, stages=stages, endpoints=endpoints)
    else:
        feats = static_rows
    z, pre, act = _scorer_forward(model.scorer, feats)
    cache.update(feats=feats, pre=pre, act=act)
    return z, cache


def _pair_logits(model, inputs, pairs, net=None):
    """Logits d = z_a - z_b and labels y of a pair set, plus the caches.

    The cache also holds each pair's positions a_pos, b_pos in the
    scored edge rows.
    """
    arr = _pairs_array(pairs)
    edge_rows, inverse = np.unique(arr[:, :2].ravel(), return_inverse=True)
    z, cache = _forward_scores(model, inputs, edge_rows, net=net)
    a_pos = inverse[0::2]
    b_pos = inverse[1::2]
    cache.update(a_pos=a_pos, b_pos=b_pos)
    return z[a_pos] - z[b_pos], arr[:, 2].astype(np.float64), cache


def loss(model, inputs, pairs, net=None):
    """Total pairwise cross-entropy plus scorer L2, with all gradients.

    Returns (value, grads) where grads has one entry per params() key,
    accumulated by reverse mode through the scorer and, when present,
    the propagation stack.
    """
    d, y, cache = _pair_logits(model, inputs, pairs, net=net)
    ce = float(np.sum(y * _softplus(-d) + (1.0 - y) * _softplus(d)))

    eta = model.config.l2_coeff
    sc = model.scorer
    reg = eta * (
        float(np.sum(sc.w_hidden**2))
        + float(np.sum(sc.w_out**2))
        + float(np.sum(sc.b_hidden**2))
        + sc.b_out**2
    )
    value = ce + reg

    # d(ce)/dd = sigmoid(d) - y, then scatter onto the two score slots.
    dd = _stable_sigmoid(d) - y
    dz = np.zeros(cache["edge_rows"].size)
    np.add.at(dz, cache["a_pos"], dd)
    np.add.at(dz, cache["b_pos"], -dd)

    d_w_hidden, d_b_hidden, d_w_out, d_b_out, d_feats = _scorer_backward(
        sc, cache["feats"], cache["pre"], cache["act"], dz
    )
    grads = {
        "scorer.w_hidden": d_w_hidden + 2.0 * eta * sc.w_hidden,
        "scorer.b_hidden": d_b_hidden + 2.0 * eta * sc.b_hidden,
        "scorer.w_out": d_w_out + 2.0 * eta * sc.w_out,
        "scorer.b_out": d_b_out + 2.0 * eta * np.asarray(sc.b_out),
    }
    if model.propagation is not None and inputs.node_inputs is not None:
        width = inputs.static.values.shape[1]
        d_cpl = d_feats[:, width:]
        d_emb = coupled_backward(cache["embeddings"], cache["endpoints"], d_cpl)
        g_self, g_neigh, _ = propagate_backward(
            net, model.propagation, cache["stages"], d_emb
        )
        for l in range(model.propagation.layer_count):
            grads["prop.self.%d" % l] = g_self[l]
            grads["prop.neigh.%d" % l] = g_neigh[l]
    return value, grads


def _pair_metrics(model, inputs, pairs, net=None):
    """Mean cross-entropy and accuracy over a pair set (no gradients)."""
    d, y, _ = _pair_logits(model, inputs, pairs, net=net)
    ce = float(np.mean(y * _softplus(-d) + (1.0 - y) * _softplus(d)))
    acc = float(np.mean((d > 0) == (y == 1)))
    return ce, acc


@dataclass(frozen=True)
class TrainResult:
    model: CpnnModel
    log: tuple
    best_epoch: int
    train_pairs: int
    val_pairs: int


def train(net, inputs, config):
    """Mini-batch moment-estimate training; returns the best-validation model.

    Deterministic given config.seed: the pair sample, weight
    initialization, and batch order all derive from it. The returned
    model is the snapshot with the highest validation pair accuracy
    (earliest epoch wins ties); without a validation set, the final
    epoch wins.
    """
    config = config.validated()
    if inputs.static.edges != net.edges:
        raise RowMismatch("static features describe a different edge list")
    train_arr, val_arr = make_pairs(
        net, config.label_fraction, config.pair_budget, config.seed,
        val_fraction=config.val_fraction,
    )
    input_dim = inputs.static.values.shape[1]
    columns = inputs.static.columns
    coupling = (
        FeatureMode(config.mode) is not FeatureMode.STATE_ONLY
        and inputs.node_inputs is not None
    )
    if coupling:
        input_dim += 4 * config.embedding_dims[-1]
        columns = columns + coupled_column_names(config.embedding_dims[-1])
    model = init_cpnn(input_dim, config, feature_columns=columns, coupling=coupling)

    params = {k: v.copy() for k, v in model.params().items()}
    moment1 = {k: np.zeros_like(v) for k, v in params.items()}
    moment2 = {k: np.zeros_like(v) for k, v in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    shuffler = np.random.default_rng(config.seed + 3)

    log = []
    best_acc = -np.inf
    best_params = {k: v.copy() for k, v in params.items()}
    best_epoch = 0
    for epoch in range(1, config.epochs + 1):
        order = shuffler.permutation(train_arr.shape[0])
        for lo in range(0, order.size, config.batch_size):
            batch = train_arr[order[lo:lo + config.batch_size]]
            model = model.with_params(params)
            _, grads = loss(model, inputs, batch, net=net)
            step += 1
            for key in params:
                g = grads[key]
                moment1[key] = beta1 * moment1[key] + (1.0 - beta1) * g
                moment2[key] = beta2 * moment2[key] + (1.0 - beta2) * g * g
                m_hat = moment1[key] / (1.0 - beta1**step)
                v_hat = moment2[key] / (1.0 - beta2**step)
                params[key] = params[key] - config.learning_rate * m_hat / (
                    np.sqrt(v_hat) + eps
                )
        model = model.with_params(params)
        train_ce, train_acc = _pair_metrics(model, inputs, train_arr, net=net)
        entry = {
            "epoch": epoch,
            "train_loss": train_ce,
            "train_accuracy": train_acc,
        }
        if val_arr.shape[0]:
            val_ce, val_acc = _pair_metrics(model, inputs, val_arr, net=net)
            entry["val_loss"] = val_ce
            entry["val_accuracy"] = val_acc
            if val_acc > best_acc:
                best_acc = val_acc
                best_params = {k: v.copy() for k, v in params.items()}
                best_epoch = epoch
        log.append(entry)
    if not val_arr.shape[0]:
        best_params = params
        best_epoch = config.epochs
    return TrainResult(
        model=model.with_params(best_params),
        log=tuple(log),
        best_epoch=best_epoch,
        train_pairs=int(train_arr.shape[0]),
        val_pairs=int(val_arr.shape[0]),
    )


def predict_scores(model, net, inputs):
    """Scores for every edge of the network under a trained model.

    The inputs must give the model its recorded column schema (when it
    has one) and its input width.
    """
    columns = inputs.static.columns
    if model.propagation is not None and inputs.node_inputs is not None:
        columns = columns + coupled_column_names(model.propagation.output_dim)
    if model.feature_columns and columns != tuple(model.feature_columns):
        raise FeatureSchemaMismatch(
            "model was trained on a different feature schema "
            "(%d columns vs %d computed)"
            % (len(model.feature_columns), len(columns))
        )
    if len(columns) != model.input_dim:
        raise DimensionMismatch(
            "features have width %d, model expects %d"
            % (len(columns), model.input_dim)
        )
    return _forward_scores(model, inputs, np.arange(net.edge_count), net=net)[0]


def save_model(model, path):
    """JSON checkpoint: dims, weights, config, and the column schema."""
    payload = {
        "format": "netchron-cpnn",
        "version": 1,
        "mode": model.mode.value,
        "feature_columns": list(model.feature_columns),
        "input_dim": int(model.input_dim),
        "hidden": int(model.hidden),
        "scorer": {
            "activation": model.scorer.activation,
            "w_hidden": model.scorer.w_hidden.tolist(),
            "b_hidden": model.scorer.b_hidden.tolist(),
            "w_out": model.scorer.w_out.tolist(),
            "b_out": float(model.scorer.b_out),
        },
        "propagation": None,
        "config": dataclasses.asdict(model.config),
    }
    if model.propagation is not None:
        payload["propagation"] = {
            "dims": list(model.propagation.dims),
            "activation": model.propagation.activation,
            "neighbor_norm": model.propagation.neighbor_norm,
            "w_self": [w.tolist() for w in model.propagation.w_self],
            "w_neigh": [w.tolist() for w in model.propagation.w_neigh],
        }
    dump_json(payload, path)


def load_model(path):
    payload = load_json(path)
    if payload.get("format") != "netchron-cpnn":
        raise FeatureSchemaMismatch("not a model checkpoint: %s" % path)
    sc = payload["scorer"]
    scorer = ScorerWeights(
        w_hidden=np.asarray(sc["w_hidden"], dtype=np.float64),
        b_hidden=np.asarray(sc["b_hidden"], dtype=np.float64),
        w_out=np.asarray(sc["w_out"], dtype=np.float64),
        b_out=float(sc["b_out"]),
        activation=sc["activation"],
    )
    propagation = None
    if payload["propagation"] is not None:
        pr = payload["propagation"]
        propagation = PropagationWeights(
            w_self=tuple(np.asarray(w, dtype=np.float64) for w in pr["w_self"]),
            w_neigh=tuple(np.asarray(w, dtype=np.float64) for w in pr["w_neigh"]),
            dims=tuple(pr["dims"]),
            activation=pr["activation"],
            neighbor_norm=pr["neighbor_norm"],
        )
    return CpnnModel(
        scorer=scorer,
        propagation=propagation,
        feature_columns=tuple(payload["feature_columns"]),
        mode=FeatureMode(payload["mode"]),
        config=config_from_dict(payload["config"]),
    )
