"""Learnable graph propagation that couples node structure and state.

Each node starts from a four-dimensional input (degree, clustering,
coreness, steady-state value, standardized column-wise). Every layer
mixes a linear self term with a linear term over the normalized
neighbor aggregate and applies a pointwise nonlinearity. Edge-level
coupled features concatenate the two endpoint embeddings with their
sum and absolute difference.

The encoder owns no weights. encoder_layout declares its arrays once
(ranker.param_layout appends them to the scorer's), propagate and
propagate_backward read a model's params() views of them and write
their gradients into views of the same layout, and the dims,
activation and neighbor norm come from the TrainConfig. _activate and
_activation_grad are the one nonlinearity pair; the scorer uses them
too.

The backward pass is written by hand; gradient correctness is locked
down by finite-difference tests.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadDims, DimensionMismatch
from .graph import neighbor_sum, node_struct_stats

NODE_INPUT_COLUMNS = ("degree", "clustering", "coreness", "state")
NODE_INPUT_DIM = len(NODE_INPUT_COLUMNS)

ACTIVATIONS = ("tanh", "relu")
NEIGHBOR_NORMS = ("mean", "symmetric")


def encoder_layout(dims):
    """Ordered name -> shape of the encoder's weights: per layer l, the
    self weight prop.self.<l>, then the neighbor weight prop.neigh.<l>,
    both mapping dims[l] -> dims[l + 1]."""
    layout = {}
    for l in range(len(dims) - 1):
        shape = (dims[l], dims[l + 1])
        layout["prop.self.%d" % l] = shape
        layout["prop.neigh.%d" % l] = shape
    return layout


def _check_dims(dims):
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise BadDims("need an input and at least one layer dimension")
    if any(d <= 0 for d in dims):
        raise BadDims("dimensions must be positive, got %r" % (dims,))
    if dims[0] != NODE_INPUT_DIM:
        raise BadDims(
            "input dimension must be %d (%s), got %d"
            % (NODE_INPUT_DIM, ", ".join(NODE_INPUT_COLUMNS), dims[0])
        )
    return dims


def glorot_uniform(rng, fan_in, fan_out):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def node_input_matrix(net, state_values, stats=None, zero_state=False):
    """Raw (N, 4) node inputs: degree, clustering, coreness, state.

    zero_state blanks the state column (the structure-only ablation).
    Standardize with features.standardize_columns before propagating.
    """
    if stats is None:
        stats = node_struct_stats(net)
    state = np.asarray(state_values, dtype=np.float64)
    if state.shape != (net.node_count,):
        raise DimensionMismatch("state length != node count")
    if zero_state:
        state = np.zeros_like(state)
    return np.column_stack(
        [
            stats.degree.astype(np.float64),
            stats.clustering,
            stats.coreness.astype(np.float64),
            state,
        ]
    )


def _activate(name, pre):
    """The activation named name ("tanh" or "relu") applied to pre."""
    if name == "tanh":
        return np.tanh(pre)
    return np.maximum(pre, 0.0)


def _activation_grad(name, pre, post):
    """Its slope at pre, given post = _activate(name, pre): an array to
    multiply the upstream gradient by (a boolean mask for relu)."""
    if name == "tanh":
        slope = np.multiply(post, post)
        return np.subtract(1.0, slope, out=slope)
    return pre > 0.0


def _neighbor_mix(net, h, norm):
    """Normalized neighbor aggregate; isolated nodes get zero rows."""
    if norm == "mean":
        return neighbor_sum(net, h) / net.safe_degrees[:, None]
    scale = net.inv_sqrt_degrees[:, None]
    return scale * neighbor_sum(net, scale * h)


def _neighbor_mix_transpose(net, g, norm):
    """Transpose of the aggregate operator, for backpropagation."""
    if norm == "mean":
        return neighbor_sum(net, g / net.safe_degrees[:, None])
    return _neighbor_mix(net, g, norm)


def propagate(net, node_inputs, params, config, first_mix=None):
    """Forward pass: the (N, d_L) embeddings and the per-layer stages
    that propagate_backward needs.

    params holds the encoder_layout arrays by name (a model's params()
    does); config gives embedding_dims, activation and neighbor_norm.
    first_mix, when given, is layer 0's neighbor aggregate of
    node_inputs (it depends on neither weights nor the layer), so a
    caller that propagates the same inputs many times computes it once.
    """
    dims = config.embedding_dims
    h = np.asarray(node_inputs, dtype=np.float64)
    if h.shape != (net.node_count, dims[0]):
        raise DimensionMismatch(
            "node inputs have shape %r, expected (%d, %d)"
            % (h.shape, net.node_count, dims[0])
        )
    stages = []
    for l in range(len(dims) - 1):
        if first_mix is not None and l == 0:
            mixed = first_mix
        else:
            mixed = _neighbor_mix(net, h, config.neighbor_norm)
        pre = h @ params["prop.self.%d" % l] + mixed @ params["prop.neigh.%d" % l]
        post = _activate(config.activation, pre)
        stages.append((h, mixed, pre, post))
        h = post
    return h, stages


def propagate_backward(net, params, config, stages, grad_out, grads):
    """Weight gradients of a scalar loss through the encoder, written
    into the encoder_layout arrays of grads (views of a gradient vector
    laid out like the model's weights, say).

    grad_out is dLoss/dEmbedding, shape (N, d_L). The node inputs are
    constants, so the pass stops at layer 0's weights: that layer's
    transposed aggregate is never computed.
    """
    dh = np.asarray(grad_out, dtype=np.float64)
    for l in range(len(stages) - 1, -1, -1):
        h_prev, mixed, pre, post = stages[l]
        dpre = dh * _activation_grad(config.activation, pre, post)
        np.matmul(h_prev.T, dpre, out=grads["prop.self.%d" % l])
        np.matmul(mixed.T, dpre, out=grads["prop.neigh.%d" % l])
        if l:
            dh = dpre @ params["prop.self.%d" % l].T + _neighbor_mix_transpose(
                net, dpre @ params["prop.neigh.%d" % l].T, config.neighbor_norm
            )


def coupled_column_names(dim):
    names = []
    for block in ("embed_u", "embed_v", "embed_sum", "embed_absdiff"):
        names.extend("%s_%d" % (block, k) for k in range(dim))
    return tuple(names)


def coupled_edge_features(embeddings, endpoints, out=None):
    """Edge representation [h_u, h_v, h_u + h_v, |h_u - h_v|], (M, 4 d).

    Written into out, an (M, 4 d) array or a column slice of a wider
    one, when given; returns the filled block.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    d = emb.shape[1]
    if out is None:
        out = np.empty((endpoints.shape[0], 4 * d))
    hu = out[:, :d]
    hv = out[:, d:2 * d]
    hu[...] = emb[endpoints[:, 0]]
    hv[...] = emb[endpoints[:, 1]]
    np.add(hu, hv, out=out[:, 2 * d:3 * d])
    absdiff = np.subtract(hu, hv, out=out[:, 3 * d:])
    np.abs(absdiff, out=absdiff)
    return out


def coupled_backward(embeddings, endpoints, grad_feats):
    """Scatter edge-feature gradients back to node embeddings.

    The absolute difference uses the sign subgradient (zero at ties).
    Each embedding entry sums its u-row terms, then its v-row terms,
    in edge order: one bincount over flat node * d + column indices.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    n, d = emb.shape
    u = endpoints[:, 0]
    v = endpoints[:, 1]
    g = np.asarray(grad_feats, dtype=np.float64)
    if g.shape[1] != 4 * d:
        raise DimensionMismatch("grad width != 4 x embedding dim")
    g_u, g_v, g_sum, g_abs = (
        g[:, :d],
        g[:, d:2 * d],
        g[:, 2 * d:3 * d],
        g[:, 3 * d:],
    )
    sign = np.sign(emb[u] - emb[v])
    flat = (np.concatenate([u, v]) * d)[:, None] + np.arange(d)
    terms = np.concatenate([g_u + g_sum + sign * g_abs, g_v + g_sum - sign * g_abs])
    return np.bincount(
        flat.ravel(), weights=terms.ravel(), minlength=n * d
    ).reshape(n, d)
