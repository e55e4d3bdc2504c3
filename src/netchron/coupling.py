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

Every pass writes its outputs into a Workspace: named buffers
allocated on first use and reused by later calls (see the ranker
module). A call given none builds its own, used for that call only.

The backward pass is written by hand; gradient correctness is locked
down by finite-difference tests.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import BadDims, DimensionMismatch
from .graph import neighbor_sum

NODE_INPUT_COLUMNS = ("degree", "clustering", "coreness", "state")
NODE_INPUT_DIM = len(NODE_INPUT_COLUMNS)

ACTIVATIONS = ("tanh", "relu")
NEIGHBOR_NORMS = ("mean", "symmetric")


class Workspace:
    """Buffers the passes write into, kept from one call to the next.

    array(name, n, *tail) hands out the leading n rows of the buffer
    called name. The buffer is allocated on first use, and again only
    when a call needs more rows or another row shape, with
    max(n, per_edge * rows) rows: per_edge is its rows per distinct
    edge a call scores (0 for buffers sized by the graph), so that a
    workspace built for rows edges serves every call that scores at
    most that many. For model (a ranker.CpnnModel), params is
    model.params(), grad a vector laid out like model.flat and grads
    its params() views, each built on first use. Each call overwrites
    what the previous one left in these buffers.
    """

    def __init__(self, rows=0, model=None):
        self.rows = rows
        self.model = model
        self._arrays = {}

    def array(self, name, n, *tail, dtype=np.float64, per_edge=0):
        """The leading n rows of the buffer called name: (n, *tail)."""
        buf = self._arrays.get(name)
        if buf is None or buf.shape[0] < n or buf.shape[1:] != tail:
            rows = max(n, per_edge * self.rows)
            buf = self._arrays[name] = np.empty((rows,) + tail, dtype)
        return buf[:n]

    @cached_property
    def params(self):
        return self.model.params()

    @cached_property
    def grad(self):
        return np.empty_like(self.model.flat)

    @cached_property
    def grads(self):
        return self.model.params(self.grad)


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
    if len(dims) < 2:
        raise BadDims("need an input and at least one layer dimension")
    if any(d <= 0 for d in dims):
        raise BadDims("dimensions must be positive, got %r" % (dims,))
    if dims[0] != NODE_INPUT_DIM:
        raise BadDims(
            "input dimension must be %d (%s), got %d"
            % (NODE_INPUT_DIM, ", ".join(NODE_INPUT_COLUMNS), dims[0])
        )


def glorot_uniform(rng, fan_in, fan_out):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def node_input_matrix(net, state_values, zero_state=False):
    """Raw (N, 4) node inputs: degree, clustering, coreness, state.

    zero_state blanks the state column (the structure-only ablation).
    Standardize with features.standardize_columns before propagating.
    """
    state = np.asarray(state_values, dtype=np.float64)
    if state.shape != (net.node_count,):
        raise DimensionMismatch("state length != node count")
    if zero_state:
        state = np.zeros_like(state)
    return np.column_stack(
        [
            net.degrees.astype(np.float64),
            net.clustering,
            net.core_numbers.astype(np.float64),
            state,
        ]
    )


def _activate(name, pre, out=None):
    """The activation named name ("tanh" or "relu") applied to pre,
    written into out when given."""
    if name == "tanh":
        return np.tanh(pre, out=out)
    return np.maximum(pre, 0.0, out=out)


def _activation_grad(name, pre, post, out=None):
    """Its slope at pre, given post = _activate(name, pre): an array to
    multiply the upstream gradient by, written into out when given
    (relu's is a mask, boolean when out is None)."""
    if name == "tanh":
        slope = np.multiply(post, post, out=out)
        return np.subtract(1.0, slope, out=slope)
    return np.greater(pre, 0.0, out=out)


def _scale_rows(op, x, per_node, ws, out=None):
    """op(x, per_node[:, None]), written into out (a new array when None).

    per_node is first copied across an (N, d) buffer of ws: a
    broadcasting ufunc allocates numpy's iteration buffers, up to 64 kB
    per operand.
    """
    column = ws.array("mix.per_node.%d" % x.shape[1], *x.shape)
    np.copyto(column, per_node[:, None])
    return op(x, column, out=out)


def _neighbor_mix(net, h, norm, ws=None, out=None):
    """Normalized neighbor aggregate of the (N, d) h, written into out
    (a new array when None); isolated nodes get zero rows. The scaled
    input and the gathered neighbour rows are buffers of ws."""
    ws = Workspace() if ws is None else ws
    d = h.shape[1]
    gathered = ws.array("mix.gathered.%d" % d, net.adj_indices.size, d)
    if norm == "mean":
        return _scale_rows(np.divide, neighbor_sum(net, h, gathered=gathered),
                           net.safe_degrees, ws, out)
    scale = net.inv_sqrt_degrees
    scaled = _scale_rows(np.multiply, h, scale, ws,
                         out=ws.array("mix.scaled.%d" % d, *h.shape))
    return _scale_rows(np.multiply, neighbor_sum(net, scaled, gathered=gathered),
                       scale, ws, out)


def _neighbor_mix_transpose(net, g, norm, ws=None):
    """Transpose of the aggregate operator, for backpropagation. It
    writes into g (the symmetric operator is its own transpose)."""
    ws = Workspace() if ws is None else ws
    if norm == "mean":
        d = g.shape[1]
        _scale_rows(np.divide, g, net.safe_degrees, ws, out=g)
        gathered = ws.array("mix.gathered.%d" % d, net.adj_indices.size, d)
        return neighbor_sum(net, g, gathered=gathered)
    return _neighbor_mix(net, g, norm, ws, out=g)


def propagate(net, node_inputs, params, config, first_mix=None, ws=None):
    """Forward pass: the (N, d_L) embeddings and the per-layer stages
    that propagate_backward needs.

    params holds the encoder_layout arrays by name (a model's params()
    does); config gives embedding_dims, activation and neighbor_norm.
    first_mix, when given, is layer 0's neighbor aggregate of
    node_inputs (it depends on neither weights nor the layer), so a
    caller that propagates the same inputs many times computes it once.
    Each layer's pre-activation and output are buffers of ws.
    """
    ws = Workspace() if ws is None else ws
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
            mixed = _neighbor_mix(net, h, config.neighbor_norm, ws,
                                  out=ws.array("prop.mixed.%d" % l, *h.shape))
        shape = (net.node_count, dims[l + 1])
        pre = np.matmul(h, params["prop.self.%d" % l],
                        out=ws.array("prop.pre.%d" % l, *shape))
        post = np.matmul(mixed, params["prop.neigh.%d" % l],
                         out=ws.array("prop.post.%d" % l, *shape))
        pre += post
        _activate(config.activation, pre, out=post)
        stages.append((h, mixed, pre, post))
        h = post
    return h, stages


def propagate_backward(net, params, config, stages, grad_out, grads, ws=None):
    """Weight gradients of a scalar loss through the encoder, written
    into the encoder_layout arrays of grads (views of a gradient vector
    laid out like the model's weights, say).

    grad_out is dLoss/dEmbedding, shape (N, d_L). The node inputs are
    constants, so the pass stops at layer 0's weights: that layer's
    transposed aggregate is never computed. Each layer's gradients
    with respect to its pre-activation and its input are buffers of ws.
    """
    ws = Workspace() if ws is None else ws
    dh = np.asarray(grad_out, dtype=np.float64)
    for l in range(len(stages) - 1, -1, -1):
        h_prev, mixed, pre, post = stages[l]
        # One buffer per width: layer l's is spent before layer l - 1's.
        dpre = _activation_grad(config.activation, pre, post,
                                out=ws.array("prop.d_pre.%d" % pre.shape[1],
                                             *pre.shape))
        dpre *= dh
        np.matmul(h_prev.T, dpre, out=grads["prop.self.%d" % l])
        np.matmul(mixed.T, dpre, out=grads["prop.neigh.%d" % l])
        if l:
            dh = np.matmul(dpre, params["prop.self.%d" % l].T,
                           out=ws.array("prop.d_in.%d" % l, *h_prev.shape))
            d_mixed = np.matmul(dpre, params["prop.neigh.%d" % l].T,
                                out=ws.array("prop.d_mixed.%d" % l, *h_prev.shape))
            dh += _neighbor_mix_transpose(net, d_mixed, config.neighbor_norm, ws)


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


def coupled_backward(embeddings, endpoints, grad_feats, ws=None):
    """Scatter edge-feature gradients back to node embeddings.

    The absolute difference uses the sign subgradient (zero at ties).
    Each embedding entry sums its u-row terms, then its v-row terms,
    in edge order: one bincount over flat node * d + column indices.
    The terms, their indices and the signs are buffers of ws.
    """
    ws = Workspace() if ws is None else ws
    emb = np.asarray(embeddings, dtype=np.float64)
    n, d = emb.shape
    g = np.asarray(grad_feats, dtype=np.float64)
    if g.shape[1] != 4 * d:
        raise DimensionMismatch("grad width != 4 x embedding dim")
    g_u, g_v, g_sum, g_abs = (
        g[:, :d],
        g[:, d:2 * d],
        g[:, 2 * d:3 * d],
        g[:, 3 * d:],
    )
    if endpoints.size and not 0 <= endpoints.min() <= endpoints.max() < n:
        raise DimensionMismatch("endpoints must lie in [0, %d)" % n)
    rows = endpoints.shape[0]
    # Rows [0, rows) hold each edge's u terms, rows [rows, 2 rows) its
    # v terms; they first hold h_u and h_v ("clip": the ids are checked).
    terms = ws.array("coupled.terms", 2 * rows, d, per_edge=2)
    flat = ws.array("coupled.flat", 2 * rows, d, dtype=np.int64, per_edge=2)
    for side, ends in ((slice(None, rows), endpoints[:, 0]),
                       (slice(rows, None), endpoints[:, 1])):
        np.take(emb, ends, axis=0, out=terms[side], mode="clip")
        np.multiply(ends[:, None], d, out=flat[side])
    flat += np.arange(d)
    # sign(h_u - h_v) * g_abs
    signed = np.subtract(terms[:rows], terms[rows:],
                         out=ws.array("coupled.signed", rows, d, per_edge=1))
    np.sign(signed, out=signed)
    signed *= g_abs
    np.add(g_u, g_sum, out=terms[:rows])
    terms[:rows] += signed
    np.add(g_v, g_sum, out=terms[rows:])
    terms[rows:] -= signed
    return np.bincount(
        flat.ravel(), weights=terms.ravel(), minlength=n * d
    ).reshape(n, d)
