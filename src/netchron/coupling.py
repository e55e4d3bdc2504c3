"""Learnable graph propagation that couples node structure and state.

Each node starts from a four-dimensional input (degree, clustering,
coreness, steady-state value, standardized column-wise). Every layer
mixes a linear self term with a linear term over the normalized
neighbor aggregate and applies a pointwise nonlinearity. Edge-level
coupled features concatenate the two endpoint embeddings with their
sum and absolute difference.

The backward pass is written by hand; gradient correctness is locked
down by finite-difference tests.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import BadDims, DimensionMismatch
from .graph import neighbor_sum, node_struct_stats

NODE_INPUT_COLUMNS = ("degree", "clustering", "coreness", "state")
NODE_INPUT_DIM = len(NODE_INPUT_COLUMNS)

ACTIVATIONS = ("tanh", "relu")
NEIGHBOR_NORMS = ("mean", "symmetric")


@dataclass(frozen=True, eq=False)
class PropagationWeights:
    """Per-layer weight pairs for the propagation encoder.

    w_self[l] multiplies a node's own embedding, w_neigh[l] the
    normalized neighbor aggregate; both map dims[l] -> dims[l + 1].
    """

    w_self: tuple
    w_neigh: tuple
    dims: tuple
    activation: str = "tanh"
    neighbor_norm: str = "mean"

    @property
    def layer_count(self):
        return len(self.w_self)

    @property
    def output_dim(self):
        return self.dims[-1]


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
    if name == "tanh":
        return np.tanh(pre)
    return np.maximum(pre, 0.0)


def _activation_grad(name, pre, post):
    if name == "tanh":
        return 1.0 - post * post
    return (pre > 0.0).astype(np.float64)


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


def propagate(net, node_inputs, weights, return_cache=False, first_mix=None):
    """Forward pass; returns (N, d_L) embeddings.

    With return_cache=True also returns the intermediates needed by
    propagate_backward. first_mix, when given, is layer 0's neighbor
    aggregate of node_inputs (it depends on neither weights nor the
    layer), so a caller that propagates the same inputs many times
    computes it once.
    """
    h = np.asarray(node_inputs, dtype=np.float64)
    if h.shape != (net.node_count, weights.dims[0]):
        raise DimensionMismatch(
            "node inputs have shape %r, expected (%d, %d)"
            % (h.shape, net.node_count, weights.dims[0])
        )
    stages = []
    for ws, wn in zip(weights.w_self, weights.w_neigh):
        if first_mix is not None and not stages:
            mixed = first_mix
        else:
            mixed = _neighbor_mix(net, h, weights.neighbor_norm)
        pre = h @ ws + mixed @ wn
        post = _activate(weights.activation, pre)
        stages.append((h, mixed, pre, post))
        h = post
    if return_cache:
        return h, stages
    return h


def propagate_backward(net, weights, stages, grad_out, input_grad=True):
    """Gradients of a scalar loss through the propagation stack.

    grad_out is dLoss/dEmbedding, shape (N, d_L). Returns
    (grads for w_self, grads for w_neigh, dLoss/dInputs); with
    input_grad=False the last item is None and layer 0's transposed
    aggregate is never computed.
    """
    dh = np.asarray(grad_out, dtype=np.float64)
    g_self = [None] * weights.layer_count
    g_neigh = [None] * weights.layer_count
    for l in range(weights.layer_count - 1, -1, -1):
        h_prev, mixed, pre, post = stages[l]
        dpre = dh * _activation_grad(weights.activation, pre, post)
        g_self[l] = h_prev.T @ dpre
        g_neigh[l] = mixed.T @ dpre
        if l == 0 and not input_grad:
            return g_self, g_neigh, None
        dh = dpre @ weights.w_self[l].T + _neighbor_mix_transpose(
            net, dpre @ weights.w_neigh[l].T, weights.neighbor_norm
        )
    return g_self, g_neigh, dh


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
