"""Pairwise precedence learning over per-edge representations.

Each edge gets an independent scalar score from a one-hidden-layer
scorer applied to its representation (handcrafted feature blocks plus,
when coupling is on, propagation-derived edge features whose weights
train jointly). Supervision is pairwise: the probability that one
edge precedes another is the softmax of the two scores, trained with
cross-entropy over sampled labeled pairs plus an L2 penalty on the
scorer parameters. All gradients are reverse-accumulated by hand and
verified against finite differences in the tests.

The model is its TrainConfig plus one float64 weight vector laid out by
param_layout: the scorer's arrays, then coupling.encoder_layout's.
params() names views into it, which the scorer and the encoder read;
loss returns its gradient as one vector in the same layout, and train's
Adam step reads that vector directly.

Every pass writes into a coupling.Workspace. For a training step it
holds the (rows, static + 4 d) scorer block, the hidden layer's
pre-activation, activation, gradient and activation slope, the
gradient of the coupled columns and their scatter terms, each
propagation layer's pre-activation, output, aggregate and gradients,
the gathered neighbour rows, the gradient vector with its params()
views, and the model's params() views. train builds one workspace per
run, for min(2 batch_size, distinct supervised edges) rows, the most
distinct edges a batch can name. Every batch writes into its leading
rows, so after the first batch a step allocates none of these, and
the workspace mixes the run's node inputs for layer 0 once.

Any number of rows is scored in blocks of 2 batch_size (_block_scores),
every block written into the same buffers, so predict_scores and the
epoch metrics hold one block of the scorer's arrays, not one row per
edge. The epoch metrics reuse train's workspace, growing its forward
buffers once if their last block, which takes the remainder, is
longer. predict_scores, and a loss call without ws, build a
workspace for that call.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .coupling import (
    ACTIVATIONS,
    NEIGHBOR_NORMS,
    Workspace,
    _activate,
    _activation_grad,
    _check_dims,
    coupled_backward,
    coupled_column_names,
    coupled_edge_features,
    encoder_layout,
    glorot_uniform,
    node_input_matrix,
    propagate,
    propagate_backward,
)
from .errors import (
    BadDims,
    DimensionMismatch,
    FeatureSchemaMismatch,
    InsufficientLabels,
    NumericalError,
    ParseError,
    RowMismatch,
)
from .evaluation import _check_pairs, _distinct_time_pairs
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
from .serialize import (coerce_fields, dump_json, finite_float, integer, kind_field,
                        load_json, non_negative_integer, tuple_of)

# Pairs per step of the epoch metrics' pass (see _pair_metrics).
PAIR_CHUNK = 8192


def float_or_none(value):
    """None for None or the string "null" (a flag's spelling of JSON
    null), else a finite float."""
    return None if value is None or value == "null" else finite_float(value)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    label_fraction picks ceil(fraction * M) supervised edges out of
    the network's labeled set; None uses the labeled set as is.
    embedding_dims starts with the 4-wide node input; mode STATE_ONLY
    disables the propagation branch entirely. Each field's metadata
    holds its option kind and help (see TRAIN_OPTIONS).
    """

    learning_rate: float = kind_field(finite_float, 1e-3, "Adam step size")
    l2_coeff: float = kind_field(finite_float, 1e-4, "L2 penalty on the scorer")
    epochs: int = kind_field(integer, 200, "training epochs")
    batch_size: int = kind_field(integer, 256, "pairs per mini-batch")
    pair_budget: int = kind_field(integer, 100_000, "training pairs sampled at most")
    label_fraction: float | None = kind_field(
        float_or_none, 0.3, "share of edges supervised (null: every labeled edge)"
    )
    seed: int = kind_field(non_negative_integer, 0, "random seed")
    mode: FeatureMode = kind_field(FeatureMode, FeatureMode.BOTH, "feature blocks")
    hidden: int = kind_field(integer, 64, "scorer hidden width")
    embedding_dims: tuple = kind_field(
        tuple_of(integer), (4, 32, 32), "comma-separated layer widths, first 4"
    )
    activation: str = kind_field(ACTIVATIONS, "tanh", "propagation activation")
    neighbor_norm: str = kind_field(NEIGHBOR_NORMS, "mean", "neighbour normalization")
    scorer_activation: str = kind_field(ACTIVATIONS, "tanh", "scorer activation")
    val_fraction: float = kind_field(finite_float, 0.1, "share of pairs held out")

    @property
    def coupled(self):
        """Whether the model has the propagation encoder: any mode but state."""
        return self.mode is not FeatureMode.STATE_ONLY

    def __post_init__(self):
        """Coerce every field by its TRAIN_OPTIONS kind, as flags, config
        files and checkpoints are. A malformed or out-of-range value
        raises ValueError (BadDims for the dims)."""
        coerce_fields(self)
        if self.learning_rate <= 0 or self.l2_coeff < 0:
            raise ValueError("learning_rate must be > 0 and l2_coeff >= 0")
        counts = (self.epochs, self.batch_size, self.pair_budget, self.hidden)
        if min(counts) < 1:
            raise ValueError("epochs, batch_size, pair_budget, hidden must be >= 1")
        if self.label_fraction is not None and not 0.0 < self.label_fraction < 1.0:
            raise ValueError("label_fraction must lie in (0, 1) or be None")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")
        _check_dims(self.embedding_dims)


# The train command's options: name -> (kind, default, help).
TRAIN_OPTIONS = {
    f.name: (f.metadata["kind"], f.default, f.metadata["help"])
    for f in dataclasses.fields(TrainConfig)
}


def config_from_dict(raw):
    """TrainConfig from plain values, e.g. CLI flags or JSON.

    TrainConfig coerces each field by its TRAIN_OPTIONS kind (tuples
    also accept a comma-separated string); absent fields keep their
    defaults and other keys are ignored. Any malformed or invalid
    value, in any mode, raises ParseError.
    """
    known = {name: raw[name] for name in TRAIN_OPTIONS if name in raw}
    try:
        return TrainConfig(**known)
    except (ValueError, BadDims) as exc:
        raise ParseError("invalid training config: %s" % exc) from None


def param_layout(config, input_dim):
    """Ordered name -> shape of every trainable array of the model that
    config describes over input_dim scorer inputs.

    The scorer comes first, then the encoder's coupling.encoder_layout;
    the model is coupled, and has those prop.* arrays, exactly when
    config.mode is not state. This order is the order of CpnnModel.flat
    and of the gradient that loss returns.
    """
    hidden = config.hidden
    layout = {
        "scorer.w_hidden": (input_dim, hidden),
        "scorer.b_hidden": (hidden,),
        "scorer.w_out": (hidden,),
        "scorer.b_out": (),
    }
    if config.coupled:
        layout.update(encoder_layout(config.embedding_dims))
    return layout


@dataclass(frozen=True, eq=False)
class CpnnModel:
    """The architecture (config), the scorer's input columns and width,
    and every trainable number in one float64 vector, laid out by
    param_layout."""

    config: TrainConfig
    feature_columns: tuple
    input_dim: int
    flat: np.ndarray

    @property
    def mode(self):
        return self.config.mode

    def params(self, vector=None):
        """Every trainable array by name, as a view into flat (b_out 0-d),
        or into vector, such as a gradient from loss, laid out the same."""
        vector = self.flat if vector is None else vector
        out = {}
        offset = 0
        for name, shape in param_layout(self.config, self.input_dim).items():
            size = math.prod(shape)
            out[name] = vector[offset:offset + size].reshape(shape)
            offset += size
        return out


@dataclass(frozen=True, eq=False)
class TrainInputs:
    """Static per-edge features plus optional per-node coupling inputs.

    static is the normalized, mode-filtered handcrafted block;
    node_inputs is the standardized (N, 4) matrix feeding propagation,
    or None when coupling is disabled.
    """

    static: FeatureMatrix
    node_inputs: np.ndarray | None = None


def prepare_inputs(net, state_values, mode=FeatureMode.BOTH):
    """Build the TrainInputs bundle for a network and steady state.

    Only the handcrafted blocks the mode uses are built; they are
    normalized then filtered to the mode. Node inputs are standardized
    column-wise, with the state column zeroed for the structure-only
    ablation and the whole branch dropped for the state-only one. They
    are read-only, as the network's cached arrays are: a workspace
    keeps their layer-0 aggregate while the same array comes in.
    """
    mode = FeatureMode(mode)
    blocks = []
    if mode is not FeatureMode.STATE_ONLY:
        blocks.append(structural_edge_features(net))
    if mode is not FeatureMode.STRUCT_ONLY:
        blocks.append(steady_state_edge_features(net, state_values))
    # Normalization is column-wise, so unused blocks need not be built.
    static = feature_subset(normalize(combine(*blocks)), mode)
    if mode is FeatureMode.STATE_ONLY:
        node_inputs = None
    else:
        raw = node_input_matrix(
            net, state_values, zero_state=mode is FeatureMode.STRUCT_ONLY
        )
        node_inputs, _ = standardize_columns(raw)
        node_inputs.flags.writeable = False
    return TrainInputs(static=static, node_inputs=node_inputs)


def init_cpnn(input_dim, config, feature_columns=()):
    """Fresh model: Glorot weights, zero biases.

    The scorer draws from seed + 1, then the propagation layers, in
    layout order, from seed + 2.
    """
    size = sum(math.prod(shape) for shape in param_layout(config, input_dim).values())
    model = CpnnModel(config, tuple(feature_columns), int(input_dim), np.zeros(size))
    params = model.params()
    rng = np.random.default_rng(config.seed + 1)
    params["scorer.w_hidden"][...] = glorot_uniform(rng, input_dim, config.hidden)
    params["scorer.w_out"][...] = glorot_uniform(rng, config.hidden, 1)[:, 0]
    rng = np.random.default_rng(config.seed + 2)
    for name, w in params.items():
        if name.startswith("prop."):
            w[...] = glorot_uniform(rng, *w.shape)
    return model


def _scorer_forward(params, activation, feats, ws):
    """z = w_out . act(feats W_hidden + b_hidden) + b_out, with pre and
    act, each a buffer of ws."""
    n, hidden = feats.shape[0], params["scorer.b_hidden"].size
    pre = np.matmul(feats, params["scorer.w_hidden"],
                    out=ws.array("scorer.pre", n, hidden, per_edge=1))
    act = ws.array("scorer.act", n, hidden, per_edge=1)
    # Broadcast by copying: a broadcasting ufunc allocates numpy's
    # iteration buffers, up to 64 kB per operand.
    np.copyto(act, params["scorer.b_hidden"])
    pre += act
    _activate(activation, pre, out=act)
    z = np.matmul(act, params["scorer.w_out"], out=ws.array("scorer.z", n, per_edge=1))
    z += params["scorer.b_out"]
    return z, pre, act


def _scorer_backward(params, activation, feats, pre, act, dz, grads, ws,
                     grad_from=None):
    """Scorer weight gradients, written into grads' scorer.* arrays, and
    dLoss/dfeats[:, grad_from:], returned (None when grad_from is None).
    The hidden layer's gradient and slope, and the returned block, are
    buffers of ws.
    """
    np.matmul(act.T, dz, out=grads["scorer.w_out"])
    grads["scorer.b_out"][...] = dz.sum()
    d_pre = ws.array("scorer.d_pre", *pre.shape, per_edge=1)
    slope = ws.array("scorer.slope", *pre.shape, per_edge=1)
    # d_pre = dz w_out, outer product broadcast by copying (see _scorer_forward)
    np.copyto(d_pre, dz[:, None])
    np.copyto(slope, params["scorer.w_out"])
    d_pre *= slope
    d_pre *= _activation_grad(activation, pre, act, out=slope)
    np.matmul(feats.T, d_pre, out=grads["scorer.w_hidden"])
    d_pre.sum(axis=0, out=grads["scorer.b_hidden"])
    if grad_from is None:
        return None
    w_from = params["scorer.w_hidden"][grad_from:]
    return np.matmul(d_pre, w_from.T, out=ws.array(
        "scorer.d_feats", pre.shape[0], w_from.shape[0], per_edge=1))


def _stable_sigmoid(d):
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x):
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def make_pairs(net, label_fraction, pair_budget, seed, val_fraction=0.1):
    """Sample supervised pairs and split them into train/validation.

    The supervised edge set is a uniform ceil(label_fraction * M)
    subset of the network's labeled edges (label_fraction=None keeps
    the whole labeled set). Distinct-time pairs among supervised edges
    are drawn with random orientation, all of them or a uniform
    pair_budget of them without enumerating the rest, then shuffled
    and split at the pair level: train and validation are two views of
    the one shuffled array.
    """
    rng = np.random.default_rng(seed)
    known = np.flatnonzero(net.labeled_mask)
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
    # The same swaps as rng.permutation, applied to the rows in place.
    # Shuffled as a 1-d array of one 24-byte record per row: numpy swaps
    # the rows of a 2-d array one Python-level copy at a time, 40 times
    # slower at 100 000 rows.
    rng.shuffle(pairs.view(np.dtype((np.void, pairs.strides[0])))[:, 0])
    val_count = int(round(val_fraction * pairs.shape[0]))
    if val_count >= pairs.shape[0]:
        val_count = pairs.shape[0] - 1
    return pairs[val_count:], pairs[:val_count]


def _propagated(model, inputs, net, ws):
    """The encoder's (embeddings, stages) for a coupled model, written
    into ws; (None, None) for a state-only one."""
    if not model.config.coupled:
        return None, None
    if inputs.node_inputs is None or net is None:
        raise DimensionMismatch("a coupled model needs node inputs and their network")
    return propagate(net, inputs.node_inputs, ws.params, model.config, ws=ws)


def _score_block(model, inputs, edge_rows, embeddings, net, ws):
    """Scores for one block of edge rows, and the arrays backprop needs.

    The scorer's input is one (rows, input_dim) block of ws: the static
    rows, then, given embeddings, the coupled features written in place.
    This is the one scoring forward path: loss scores its batch as one
    block, and _block_scores scores any number of rows block by block.
    """
    width = inputs.static.values.shape[1]
    feats = ws.array("scorer.feats", edge_rows.size, model.input_dim, per_edge=1)
    # The rows are in range: under mode "raise", take writes through a
    # copy of out.
    np.take(inputs.static.values, edge_rows, axis=0, out=feats[:, :width], mode="clip")
    cache = {"feats": feats}
    if embeddings is not None:
        endpoints = net.endpoints[edge_rows]
        coupled_edge_features(embeddings, endpoints, out=feats[:, width:])
        cache["endpoints"] = endpoints
    z, cache["pre"], cache["act"] = _scorer_forward(
        ws.params, model.config.scorer_activation, feats, ws)
    return z, cache


def _block_scores(model, inputs, edge_rows, net=None, ws=None):
    """Scores for the given edge rows, in a new array.

    The encoder runs once; the rows are then scored in blocks of
    size = 2 config.batch_size, every block written into the same ws
    buffers, so the scorer holds one block's arrays, not one row per
    edge. Block k starts at row k size and the last one runs to the end,
    so it holds size to 2 size - 1 rows, or all of them when there are
    fewer than 2 size. Starting at a multiple of size whatever the row
    count, a row meets the same BLAS blocking as in a whole-matrix pass.
    Without ws, the call builds one sized for its longest block.
    """
    n, size = edge_rows.size, 2 * model.config.batch_size
    starts = list(range(0, max(n - size, 0) + 1, size))
    ws = Workspace(n - starts[-1], model) if ws is None else ws
    embeddings, _ = _propagated(model, inputs, net, ws)
    scores = np.empty(n)
    for lo, hi in zip(starts, starts[1:] + [n]):
        scores[lo:hi] = _score_block(model, inputs, edge_rows[lo:hi], embeddings, net,
                                     ws)[0]
    return scores


def _edge_slots(pairs, edge_count):
    """Sorted distinct edge ids of the pairs' a and b columns, and a
    lookup from each of those ids to its slot among them.

    rows[slot[pairs[:, :2]]] == pairs[:, :2]. A bitmap over the edge
    ids, O(edge_count + n) instead of the sort in np.unique.
    """
    seen = np.zeros(edge_count, dtype=bool)
    seen[pairs[:, 0]] = True
    seen[pairs[:, 1]] = True
    return np.flatnonzero(seen), np.cumsum(seen) - 1


def loss(model, inputs, pairs, net=None, ws=None):
    """Total pairwise cross-entropy plus scorer L2, and its gradient.

    Returns (value, grad): grad is one float64 vector laid out like
    model.flat (model.params(grad) names its blocks), accumulated by
    reverse mode through the scorer and, when present, the propagation
    stack, each block written into its own view. The batch is scored
    as one block (see _score_block).

    The scorer's and the encoder's intermediate arrays, and grad
    itself, are buffers of ws, a coupling.Workspace for this model
    (see the module docstring). train passes the one it built for the
    run, sized for min(2 batch_size, distinct supervised edges) rows;
    a batch naming fewer edges uses the leading rows, and each call
    overwrites the grad of the one before. Without ws the call builds
    one for itself, sized for its distinct edges.
    """
    arr = _check_pairs(pairs, inputs.static.edge_count)
    edge_rows, slot = _edge_slots(arr, inputs.static.edge_count)
    ws = Workspace(edge_rows.size, model) if ws is None else ws
    embeddings, stages = _propagated(model, inputs, net, ws)
    z, cache = _score_block(model, inputs, edge_rows, embeddings, net, ws)
    a_pos = slot[arr[:, 0]]
    b_pos = slot[arr[:, 1]]
    d = z[a_pos] - z[b_pos]
    y = arr[:, 2].astype(np.float64)
    ce = float(np.sum(y * _softplus(-d) + (1.0 - y) * _softplus(d)))

    # The scorer's arrays lead param_layout, so they are the leading
    # slice of the weight vector and of the gradient: the L2 penalty
    # reads and writes that one slice.
    eta = model.config.l2_coeff
    params = ws.params
    size = sum(params[name].size for name in params if name.startswith("scorer."))
    weights = ws.model.flat[:size]
    value = ce + eta * float(np.dot(weights, weights))

    # d(ce)/dd = sigmoid(d) - y, then scatter onto the two score slots:
    # every a-slot term, then every b-slot term, in pair order.
    dd = _stable_sigmoid(d) - y
    dz = np.bincount(
        np.concatenate([a_pos, b_pos]),
        weights=np.concatenate([dd, -dd]),
        minlength=edge_rows.size,
    )

    grads = ws.grads
    width = inputs.static.values.shape[1]
    d_cpl = _scorer_backward(
        params, model.config.scorer_activation, cache["feats"], cache["pre"],
        cache["act"], dz, grads, ws, grad_from=width if model.config.coupled else None,
    )
    penalty = np.multiply(2.0 * eta, weights, out=ws.array("scorer.l2", size))
    np.add(ws.grad[:size], penalty, out=ws.grad[:size])
    if model.config.coupled:
        d_emb = coupled_backward(embeddings, cache["endpoints"], d_cpl, ws)
        propagate_backward(net, params, model.config, stages, d_emb, grads, ws=ws)
    return value, ws.grad


def _pair_metrics(model, inputs, pairs, net=None, ws=None):
    """Mean cross-entropy and accuracy over a pair set (no gradients).

    Each distinct edge is scored once, in blocks through ws (see
    _block_scores); the pairs are then walked in chunks of PAIR_CHUNK,
    so per-pair temporaries stay bounded.
    """
    arr = _check_pairs(pairs, inputs.static.edge_count)
    edge_rows, slot = _edge_slots(arr, inputs.static.edge_count)
    z = _block_scores(model, inputs, edge_rows, net=net, ws=ws)
    n = arr.shape[0]
    terms = np.empty(n)
    correct = 0
    for lo in range(0, n, PAIR_CHUNK):
        chunk = arr[lo:lo + PAIR_CHUNK]
        d = z[slot[chunk[:, 0]]] - z[slot[chunk[:, 1]]]
        y = chunk[:, 2].astype(np.float64)
        terms[lo:lo + d.size] = y * _softplus(-d) + (1.0 - y) * _softplus(d)
        correct += int(np.count_nonzero((d > 0) == (y == 1)))
    return float(np.mean(terms)), correct / n


@dataclass(frozen=True)
class TrainResult:
    model: CpnnModel
    log: tuple
    best_epoch: int
    train_pairs: int
    val_pairs: int


def _scorer_columns(config, inputs):
    """The scorer's input columns: the static ones, then, for a coupled
    model, the coupled edge features of the last embedding."""
    columns = inputs.static.columns
    if config.coupled:
        columns = columns + coupled_column_names(config.embedding_dims[-1])
    return columns


def _check_rows(net, inputs):
    if not np.array_equal(inputs.static.edges, net.endpoints):
        raise RowMismatch("static features describe a different edge list")


@np.errstate(over="ignore", invalid="ignore")
def train(net, inputs, config):
    """Mini-batch moment-estimate training; returns the best-validation model.

    Deterministic given config.seed: the pair sample, weight
    initialization, and batch order all derive from it. The returned
    model is the snapshot with the highest validation pair accuracy
    (earliest epoch wins ties); without a validation set, the final
    epoch wins. An epoch whose gradient norm, train loss or validation
    loss is not finite raises NumericalError naming it; numpy's
    overflow and invalid-value warnings, which that error reports, stay
    silent.
    """
    _check_rows(net, inputs)
    train_arr, val_arr = make_pairs(
        net, config.label_fraction, config.pair_budget, config.seed,
        val_fraction=config.val_fraction,
    )
    columns = _scorer_columns(config, inputs)
    model = init_cpnn(len(columns), config, feature_columns=columns)
    # A batch of batch_size pairs names at most twice as many edges.
    rows = min(2 * config.batch_size, _edge_slots(train_arr, net.edge_count)[0].size)
    ws = Workspace(rows, model)

    # model.params() are views into model.flat; Adam updates it in place
    # from loss's gradient, which has the same layout.
    flat = model.flat
    moment1 = np.zeros_like(flat)
    moment2 = np.zeros_like(flat)
    m_hat = np.empty_like(flat)
    v_hat = np.empty_like(flat)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    shuffler = np.random.default_rng(config.seed + 3)

    log = []
    best_acc = -np.inf
    # Copied into, not replaced: an array allocated after the workspace's
    # buffers would keep their memory from being returned after train.
    best = flat.copy()
    best_epoch = 0
    for epoch in range(1, config.epochs + 1):
        order = shuffler.permutation(train_arr.shape[0])
        grad_sq = 0.0
        for lo in range(0, order.size, config.batch_size):
            batch = train_arr[order[lo:lo + config.batch_size]]
            _, grad = loss(model, inputs, batch, net=net, ws=ws)
            grad_sq += float(np.dot(grad, grad))
            step += 1
            # Adam, operation for operation as m = beta1 m + (1 - beta1) g,
            # v = beta2 v + (1 - beta2) g g, p = p - lr m_hat / (sqrt(v_hat) + eps).
            moment1 *= beta1
            np.multiply(grad, 1.0 - beta1, out=m_hat)
            moment1 += m_hat
            moment2 *= beta2
            np.multiply(grad, 1.0 - beta2, out=v_hat)
            v_hat *= grad
            moment2 += v_hat
            np.divide(moment1, 1.0 - beta1**step, out=m_hat)
            m_hat *= config.learning_rate
            np.divide(moment2, 1.0 - beta2**step, out=v_hat)
            np.sqrt(v_hat, out=v_hat)
            v_hat += eps
            m_hat /= v_hat
            flat -= m_hat
        train_ce, train_acc = _pair_metrics(model, inputs, train_arr, net=net, ws=ws)
        batches = math.ceil(order.size / config.batch_size)
        entry = {
            "epoch": epoch,
            "train_loss": train_ce,
            "train_accuracy": train_acc,
            "grad_norm": math.sqrt(grad_sq / batches),
        }
        if val_arr.shape[0]:
            val_ce, val_acc = _pair_metrics(model, inputs, val_arr, net=net, ws=ws)
            entry["val_loss"] = val_ce
            entry["val_accuracy"] = val_acc
            if val_acc > best_acc:
                best_acc = val_acc
                best[...] = flat
                best_epoch = epoch
        diverged = [key for key in ("grad_norm", "train_loss", "val_loss")
                    if not math.isfinite(entry.get(key, 0.0))]
        if diverged:
            raise NumericalError("training diverged in epoch %d: %s not finite"
                                 % (epoch, ", ".join(diverged)))
        log.append(entry)
    if not val_arr.shape[0]:
        best[...] = flat
        best_epoch = config.epochs
    return TrainResult(
        model=dataclasses.replace(model, flat=best),
        log=tuple(log),
        best_epoch=best_epoch,
        train_pairs=int(train_arr.shape[0]),
        val_pairs=int(val_arr.shape[0]),
    )


def predict_scores(model, net, inputs):
    """Scores for every edge of the network under a trained model.

    The inputs must describe the network's edge rows and give the model
    its recorded column schema (when it has one) and its input width.
    """
    _check_rows(net, inputs)
    columns = _scorer_columns(model.config, inputs)
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
    return _block_scores(model, inputs, np.arange(net.edge_count), net=net)


def save_model(model, path):
    """JSON checkpoint: dims, weights, config, and the column schema."""
    config, params = model.config, model.params()
    payload = {
        "format": "netchron-cpnn",
        "version": 1,
        "mode": model.mode.value,
        "feature_columns": list(model.feature_columns),
        "input_dim": int(model.input_dim),
        "hidden": config.hidden,
        "scorer": {
            "activation": config.scorer_activation,
            "w_hidden": params["scorer.w_hidden"].tolist(),
            "b_hidden": params["scorer.b_hidden"].tolist(),
            "w_out": params["scorer.w_out"].tolist(),
            "b_out": float(params["scorer.b_out"]),
        },
        "propagation": None,
        "config": dataclasses.asdict(config),
    }
    if config.coupled:
        layers = range(len(config.embedding_dims) - 1)
        payload["propagation"] = {
            "dims": list(config.embedding_dims),
            "activation": config.activation,
            "neighbor_norm": config.neighbor_norm,
            "w_self": [params["prop.self.%d" % l].tolist() for l in layers],
            "w_neigh": [params["prop.neigh.%d" % l].tolist() for l in layers],
        }
    dump_json(payload, path)


def _weights(value, shape, name):
    """A checkpoint weight as float64, all finite numbers, of the given shape."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise ParseError("%s must hold numbers" % name)
    if arr.shape != shape:
        raise ParseError("%s has shape %r, expected %r" % (name, arr.shape, shape))
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise ParseError("%s holds a non-finite value" % name)
    return arr


def _model_from_payload(payload):
    if not isinstance(payload["config"], dict):
        raise ParseError("config must be a JSON object")
    config = config_from_dict(payload["config"])
    sc, prop = payload["scorer"], payload["propagation"]
    repeated = [
        ("mode", payload["mode"], config.mode.value),
        ("hidden", payload["hidden"], config.hidden),
        ("scorer.activation", sc["activation"], config.scorer_activation),
    ]
    if prop is not None:
        repeated += [
            ("propagation.dims", prop["dims"], list(config.embedding_dims)),
            ("propagation.activation", prop["activation"], config.activation),
            ("propagation.neighbor_norm", prop["neighbor_norm"],
             config.neighbor_norm),
        ]
    for key, value, expected in repeated:
        if value != expected:
            raise ParseError("%s is %r but the config gives %r"
                             % (key, value, expected))
    if (prop is not None) != config.coupled:
        raise ParseError("propagation is %s but mode %s %s"
                         % ("null" if prop is None else "given", config.mode.value,
                            "is coupled" if config.coupled else "has none"))
    # name in the layout -> (checkpoint value, its name in the checkpoint)
    stored = {"scorer." + k: (sc[k], "scorer." + k)
              for k in ("w_hidden", "b_hidden", "w_out", "b_out")}
    if prop is not None:
        dims = config.embedding_dims
        for name in ("self", "neigh"):
            layers = prop["w_" + name]
            if len(layers) != len(dims) - 1:
                raise ParseError("propagation.w_%s has %d layers, dims give %d"
                                 % (name, len(layers), len(dims) - 1))
            for l, w in enumerate(layers):
                stored["prop.%s.%d" % (name, l)] = (w, "propagation.w_%s[%d]"
                                                    % (name, l))
    input_dim = integer(payload["input_dim"])
    flat = np.concatenate([
        _weights(stored[name][0], shape, stored[name][1]).ravel()
        for name, shape in param_layout(config, input_dim).items()
    ])
    columns = payload["feature_columns"]
    if not isinstance(columns, list) or not all(isinstance(c, str) for c in columns):
        raise ParseError("feature_columns must be a list of names")
    return CpnnModel(config, tuple(columns), input_dim, flat)


def load_model(path):
    """Read a save_model checkpoint back.

    The config is the architecture. A file of another format raises
    FeatureSchemaMismatch. A missing key, a malformed value, a key that
    repeats the config with another value, a propagation section in
    mode state or none in another mode, a non-numeric or non-finite
    weight, or a weight whose shape disagrees with param_layout raises
    ParseError.
    """
    payload = load_json(path)
    if not isinstance(payload, dict) or payload.get("format") != "netchron-cpnn":
        raise FeatureSchemaMismatch("not a model checkpoint: %s" % path)
    try:
        return _model_from_payload(payload)
    except KeyError as exc:
        raise ParseError("%s: checkpoint lacks key %s" % (path, exc)) from None
    except (TypeError, ValueError) as exc:
        raise ParseError("%s: malformed checkpoint: %s" % (path, exc)) from None
