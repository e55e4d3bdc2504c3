"""Immutable undirected network snapshot with per-edge formation times.

The snapshot is the single structural input every later stage consumes.
Edges are the rows of one (M, 2) array of (min id, max id) pairs in
construction order, times are normalized to [0, 1] over the edges whose
time is known, and the adjacency is prebuilt once, in CSR form. Every
structural kernel here (neighbourhood sums, betweenness, triangles,
4-cycles, coreness) is a pass over those CSR rows. The network caches
what derives from it alone, its triangle listing, clustering and core
numbers included, so each is computed once per snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DuplicateEdge,
    EmptyInput,
    InvalidEdge,
    InvalidPermutation,
    SelfLoop,
)


@dataclass(frozen=True, eq=False)
class TemporalNetwork:
    """Undirected graph plus normalized formation times.

    Attributes
    ----------
    node_count : int
        Number of nodes; ids are 0 .. node_count - 1.
    endpoints : ndarray of int, shape (M, 2)
        Unordered edges as (min id, max id) rows, in construction order.
        Read-only: it is the network's one edge list.
    alpha : ndarray of float
        Normalized formation time per edge, NaN where unknown.
    adj_indptr, adj_indices : ndarray of int
        CSR layout of the adjacency, rows sorted ascending.
    adj_edges : ndarray of int
        Edge index (row of `endpoints`) of each CSR entry, aligned with
        adj_indices.
    """

    node_count: int
    endpoints: np.ndarray
    alpha: np.ndarray
    adj_indptr: np.ndarray
    adj_indices: np.ndarray
    adj_edges: np.ndarray

    @property
    def edge_count(self):
        return self.endpoints.shape[0]

    @cached_property
    def labeled_mask(self):
        """True where the formation time is known."""
        return ~np.isnan(self.alpha)

    @cached_property
    def degrees(self):
        return np.diff(self.adj_indptr)

    @cached_property
    def safe_degrees(self):
        """Degrees as floats with isolated nodes at 1, for dividing by."""
        deg = self.degrees.astype(np.float64)
        return np.where(deg > 0, deg, 1.0)

    @cached_property
    def inv_sqrt_degrees(self):
        """1 / sqrt(degree), 0 for isolated nodes: the symmetric-norm scale."""
        deg = self.degrees.astype(np.float64)
        scale = np.zeros(self.node_count)
        nz = deg > 0
        scale[nz] = 1.0 / np.sqrt(deg[nz])
        return scale

    # The snapshot's node structure, computed once by the module's
    # kernels (looked up when first read, so wrapping them still sees
    # the call) and shared read-only by every consumer.
    @cached_property
    def triangle_list(self):
        """Every triangle once, as triangles(net) lists them."""
        return Triangles(*(_frozen(a) for a in triangles(self)))

    @cached_property
    def clustering(self):
        """Local clustering coefficient per node; 0 for degree < 2."""
        return _frozen(local_clustering(self))

    @cached_property
    def core_numbers(self):
        """Core number per node."""
        return _frozen(coreness(self))

    @cached_property
    def _scatter_indices(self):
        return {}

    def scatter_index(self, width):
        """Flat output slot row * width + column of each gathered CSR entry.

        Entries run row by row, column by column, so a bincount over them
        sums each CSR row left to right. Cached per width: 16 M bytes at
        width 1, 16 M * width bytes in general.
        """
        index = self._scatter_indices.get(width)
        if index is None:
            rows = np.repeat(np.arange(self.node_count) * width, self.degrees)
            index = (rows[:, None] + np.arange(width)).ravel()
            self._scatter_indices[width] = index
        return index


def _frozen(array):
    array.flags.writeable = False
    return array


def _assemble(node_count, ends, alpha):
    """Build the CSR adjacency and freeze the network.

    ends is a fresh (M, 2) int64 array of (min id, max id) rows, which
    the network takes over read-only. Each edge gives two entries, one
    per endpoint row; sorting the entries by (row, column) sorts every
    row ascending.
    """
    rows = np.concatenate([ends[:, 0], ends[:, 1]])
    cols = np.concatenate([ends[:, 1], ends[:, 0]])
    order = np.argsort(rows * node_count + cols)
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=node_count), out=indptr[1:])
    return TemporalNetwork(
        node_count=node_count,
        endpoints=_frozen(ends),
        alpha=np.asarray(alpha, dtype=np.float64),
        adj_indptr=indptr,
        adj_indices=cols[order],
        adj_edges=order % max(len(ends), 1),
    )


def _listed(values, dtype):
    """values as an array; an iterable that is not one is listed first."""
    return np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype)


def _check_edges(node_count, ends):
    """Raise for the first bad edge in order: out of range, then self
    loop, then a repeat of an earlier edge in either orientation.

    An out-of-range edge's key may equal another's, but every edge it
    marks as a repeat comes after it.
    """
    lo = ends.min(axis=1)
    hi = ends.max(axis=1)
    outside = (lo < 0) | (hi >= node_count)
    loop = lo == hi
    repeat = np.ones(len(ends), dtype=bool)
    repeat[np.unique(lo * node_count + hi, return_index=True)[1]] = False
    bad = np.flatnonzero(outside | loop | repeat)
    if not bad.size:
        return
    k = bad[0]
    if outside[k]:
        u, v = ends[k]
        raise InvalidEdge("edge (%d, %d) outside 0..%d" % (u, v, node_count - 1))
    if loop[k]:
        raise SelfLoop("self loop at node %d" % lo[k])
    raise DuplicateEdge("duplicate edge (%d, %d)" % (lo[k], hi[k]))


def build_network(node_count, edges, times=None):
    """Validate an edge list and build a TemporalNetwork.

    Parameters
    ----------
    node_count : int
        Must be >= 1.
    edges : iterable of (int, int), or (M, 2) int array
        Node pairs in construction order. Endpoints are reordered to
        (min, max); duplicates and self loops are rejected, reporting
        the first bad edge in order.
    times : iterable of float or None, optional
        Raw formation time per edge; None or NaN marks an unknown time,
        and an infinite time raises InvalidEdge. Known times are
        min-max normalized to [0, 1]. When all known times coincide
        they normalize to 0.0.
    """
    if node_count <= 0:
        raise EmptyInput("node_count must be >= 1, got %r" % (node_count,))
    ends = _listed(edges, np.int64)
    ends = ends.reshape(len(ends), 2)
    raw = np.full(len(ends), np.nan) if times is None else _listed(times, np.float64)
    if len(raw) != len(ends):
        raise InvalidEdge("got %d times for %d edges" % (len(raw), len(ends)))
    _check_edges(node_count, ends)
    ends = np.sort(ends, axis=1)
    infinite = np.flatnonzero(np.isinf(raw))
    if infinite.size:
        k = infinite[0]
        raise InvalidEdge(
            "edge (%d, %d) has non-finite time %r" % (ends[k, 0], ends[k, 1], float(raw[k]))
        )
    known = ~np.isnan(raw)
    alpha = np.full(len(ends), np.nan)
    if known.any():
        lo = raw[known].min()
        hi = raw[known].max()
        if hi > lo:
            alpha[known] = (raw[known] - lo) / (hi - lo)
        else:
            alpha[known] = 0.0
    return _assemble(node_count, ends, alpha)


def prefix_graph(net, ordering, fraction):
    """Sub-network holding the earliest ceil(fraction * M) edges of an ordering.

    ordering is a permutation of edge indices, earliest first. The
    result keeps the parent node set and the parent alphas of the kept
    edges; times are not renormalized. Growth curves do not build
    these: evaluation replays prefix degrees and triangle counts over
    arrays, and the tests check that replay against this function.
    """
    m = net.edge_count
    order = np.asarray(ordering, dtype=np.int64)
    if order.shape != (m,) or not np.array_equal(np.sort(order), np.arange(m)):
        raise InvalidPermutation("ordering is not a permutation of 0..%d" % (m - 1))
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1], got %r" % (fraction,))
    keep = order[:math.ceil(fraction * m)]
    return _assemble(net.node_count, net.endpoints[keep], net.alpha[keep])


def _csr_sum(net, x, gathered=None):
    """Sum the rows of x over each CSR row; rows without entries get zeros.

    One bincount over the gathered rows: each output entry adds its
    CSR row's terms left to right. The rows are gathered into gathered,
    a C-contiguous float64 array of x's shape with one row per CSR
    entry, when given.
    """
    width = 1 if x.ndim == 1 else x.shape[1]
    # The CSR indices are in range: under mode "raise", take writes
    # through a copy of out.
    gathered = np.take(x, net.adj_indices, axis=0, out=gathered, mode="clip")
    return np.bincount(
        net.scatter_index(width), weights=gathered.ravel(),
        minlength=net.node_count * width,
    ).reshape(x.shape)


def neighbor_sum(net, x, gathered=None):
    """Sum the rows of x over each node's neighborhood.

    x has shape (N,) or (N, d); isolated nodes get a zero row. gathered
    is as for _csr_sum: a buffer for the neighbour rows, (2 M, d).
    """
    return _csr_sum(net, np.asarray(x, dtype=np.float64), gathered)


def _degree_rank(net):
    """Position of each node when nodes are sorted by (degree, id)."""
    rank = np.empty(net.node_count, dtype=np.int64)
    rank[np.argsort(net.degrees, kind="stable")] = np.arange(net.node_count)
    return rank


# Candidate wedges one block of the triangle listing may hold.
_WEDGE_BLOCK = 1 << 12


def _top_wedges(net, rank, block=math.inf):
    """Every wedge far - middle - top whose middle and far end rank below its top.

    Yields blocks of (middle, top, far, edge_top, edge_far): node ids,
    and the indices of the edges (middle, top) and (middle, far). Each
    block lists the wedges of consecutive (middle, top) adjacency
    entries, in order: at most `block` candidate wedges, or one entry's
    when that alone is more; the default yields a single block. Each
    wedge is listed from the lower-ranked end of its edge to the top,
    which bounds the work by the sum over edges of the smaller endpoint
    degree (Chiba & Nishizeki 1985, SIAM J. Comput. 14:210).
    """
    up = np.flatnonzero(np.repeat(rank, net.degrees) < rank[net.adj_indices])
    middle = np.searchsorted(net.adj_indptr, up, side="right") - 1
    ends = np.cumsum(net.degrees[middle])
    lo = 0
    while True:
        done = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, done + block, side="right")), lo + 1)
        mid = middle[lo:hi]
        size = net.degrees[mid]
        first = net.adj_indptr[mid] - (np.cumsum(size) - size)
        side = np.repeat(first, size) + np.arange(int(size.sum()))
        top = np.repeat(up[lo:hi], size)
        keep = rank[net.adj_indices[side]] < rank[net.adj_indices[top]]
        top = top[keep]
        side = side[keep]
        yield (
            np.repeat(mid, size)[keep],
            net.adj_indices[top],
            net.adj_indices[side],
            net.adj_edges[top],
            net.adj_edges[side],
        )
        lo = hi
        if lo >= up.size:
            return


class Triangles(NamedTuple):
    """Every triangle once: nodes (T, 3), and edges (T, 3) where
    edges[:, k] indexes the triangle's edge opposite nodes[:, k]."""

    nodes: np.ndarray
    edges: np.ndarray


def triangles(net):
    """List every triangle once, from the wedges of its lowest-ranked node.

    A top wedge whose middle ranks below its far end is closed when the
    key of (far, top) is among the sorted edge keys. Wedges are listed
    and closed in blocks (see _top_wedges), so memory stays O(M) plus
    one block.
    """
    n = net.node_count
    rank = _degree_rank(net)
    keys = net.endpoints[:, 0] * n + net.endpoints[:, 1]
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    nodes, edges = [], []
    for wedges in _top_wedges(net, rank, _WEDGE_BLOCK):
        lowest = rank[wedges[0]] < rank[wedges[2]]
        middle, top, far, edge_top, edge_far = (a[lowest] for a in wedges)
        wanted = np.minimum(far, top) * n + np.maximum(far, top)
        slot = np.minimum(np.searchsorted(sorted_keys, wanted), keys.size - 1)
        closing = by_key[slot]
        hit = keys[closing] == wanted
        nodes.append(np.column_stack([middle[hit], far[hit], top[hit]]))
        edges.append(np.column_stack([closing[hit], edge_top[hit], edge_far[hit]]))
    return Triangles(nodes=np.concatenate(nodes), edges=np.concatenate(edges))


def triangle_counts(net):
    """Number of triangles through each node."""
    return np.bincount(net.triangle_list.nodes.ravel(), minlength=net.node_count)


def four_cycle_counts(net):
    """Number of 4-cycles through each edge, aligned with net.endpoints.

    A 4-cycle is two top wedges with the same top, its highest-ranked
    node, and the same far end, the node opposite; each of its edges
    lies on exactly one of the two. So crediting both edges of a top
    wedge with the number of other top wedges on the same (top, far)
    counts each 4-cycle once per edge.
    """
    n = net.node_count
    # The default block is unbounded, so the one block is every wedge.
    _, top, far, edge_top, edge_far = next(_top_wedges(net, _degree_rank(net)))
    _, which, count = np.unique(top * n + far, return_inverse=True, return_counts=True)
    others = (count - 1)[which]
    m = net.edge_count
    per_edge = np.bincount(edge_top, others, minlength=m)
    per_edge += np.bincount(edge_far, others, minlength=m)
    return per_edge.astype(np.int64)


def _clustering(degrees, triangle_count):
    """Local clustering from per-node degrees and triangle counts."""
    deg = degrees.astype(np.float64)
    tri = triangle_count.astype(np.float64)
    possible = deg * (deg - 1.0) / 2.0
    out = np.zeros(deg.size)
    mask = possible > 0
    out[mask] = tri[mask] / possible[mask]
    return out


def local_clustering(net):
    """Local clustering coefficient per node; 0 for degree < 2."""
    return _clustering(net.degrees, triangle_counts(net))


def coreness(net):
    """Core number per node, by Batagelj-Zaversnik peeling in O(N + M).

    Nodes sit in one array sorted by current degree, with the start of
    each degree's bin. Taking nodes in that order, each later neighbour
    of higher degree moves to the front of its bin and the bin shrinks
    (Batagelj & Zaversnik 2003, arXiv cs/0310049).
    """
    deg = net.degrees.tolist()
    vert = np.argsort(net.degrees, kind="stable").tolist()
    pos = [0] * net.node_count
    for i, node in enumerate(vert):
        pos[node] = i
    sizes = np.bincount(net.degrees)
    start = (np.cumsum(sizes) - sizes).tolist()
    indptr = net.adj_indptr.tolist()
    indices = net.adj_indices.tolist()
    for i in range(net.node_count):
        node = vert[i]
        d = deg[node]
        for other in indices[indptr[node]:indptr[node + 1]]:
            k = deg[other]
            if k > d:
                swap_pos = start[k]
                swap = vert[swap_pos]
                if swap != other:
                    other_pos = pos[other]
                    vert[other_pos], vert[swap_pos] = swap, other
                    pos[other], pos[swap] = swap_pos, other_pos
                start[k] += 1
                deg[other] = k - 1
    return np.asarray(deg, dtype=np.int64)


@dataclass(frozen=True)
class PageRankResult:
    """values sums to 1; converged reports whether tol was reached."""

    values: np.ndarray
    iterations: int
    converged: bool


def pagerank(net, damping=0.85, tol=1e-10, max_iter=200):
    """Power-iteration PageRank on the undirected graph.

    Dangling (isolated) nodes redistribute their mass uniformly.
    Convergence is an L1 test between successive iterates.
    """
    n = net.node_count
    if n == 0:
        raise EmptyInput("pagerank needs at least one node")
    dangling = net.degrees == 0
    r = np.full(n, 1.0 / n)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        share = np.where(dangling, 0.0, r / net.safe_degrees)
        spread = neighbor_sum(net, share)
        dangling_mass = r[dangling].sum()
        nxt = (1.0 - damping) / n + damping * (spread + dangling_mass / n)
        delta = np.abs(nxt - r).sum()
        r = nxt
        if delta < tol:
            converged = True
            break
    return PageRankResult(values=r, iterations=iterations, converged=converged)


# Bytes one block of betweenness sources may hold in its working arrays.
_BETWEENNESS_BLOCK_BYTES = 1 << 20


def _shortest_path_counts(net, sources):
    """Breadth-first search from each source at once, one level per CSR sum.

    Returns (dist, sigma, depth): (N, B) hop distances (-1 where
    unreachable) and shortest-path counts, column j for sources[j],
    and the largest distance reached.
    """
    cols = np.arange(sources.size)
    dist = np.full((net.node_count, sources.size), -1, dtype=np.int32)
    dist[sources, cols] = 0
    sigma = np.zeros(dist.shape)
    sigma[sources, cols] = 1.0
    frontier = sigma.copy()
    depth = 0
    while (dist < 0).any():
        reach = _csr_sum(net, frontier)
        fresh = (dist < 0) & (reach > 0)
        if not fresh.any():
            break
        depth += 1
        dist[fresh] = depth
        frontier = np.where(fresh, reach, 0.0)
        sigma += frontier
    return dist, sigma, depth


def _source_block_flow(net, sources):
    """Betweenness flow per edge from shortest paths that start in sources.

    One block per call, so that a block's arrays are freed before the
    next block allocates its own.
    """
    dist, sigma, depth = _shortest_path_counts(net, sources)
    # coeff[w] = (1 + delta[w]) / sigma[w], written deepest level first.
    # A node at level d - 1 has no neighbour deeper than d, so the CSR
    # sum at level d sees only level-d coefficients. The sources' own
    # dependencies are never used, so level 1 feeds no sum.
    coeff = np.zeros(dist.shape)
    delta = np.zeros(dist.shape)
    for d in range(depth, 0, -1):
        np.divide(1.0 + delta, sigma, out=coeff, where=dist == d)
        if d > 1:
            pull = _csr_sum(net, coeff)
            np.add(delta, sigma * pull, out=delta, where=dist == d - 1)
    # An edge carries sigma * coeff from its nearer endpoint to its
    # farther one; endpoints at equal depth carry nothing.
    u = net.endpoints[:, 0]
    v = net.endpoints[:, 1]
    step = dist[v] - dist[u]
    flow = sigma[u]
    flow *= coeff[v]
    flow[step != 1] = 0.0
    back = sigma[v]
    back *= coeff[u]
    back[step != -1] = 0.0
    flow += back
    return flow.sum(axis=1)


def edge_betweenness(net):
    """Shortest-path betweenness per edge, aligned with net.endpoints.

    Each unordered source-target pair contributes once (the two-sided
    accumulation is halved). Disconnected pairs contribute nothing.

    Level-synchronous Brandes (Brandes 2001, J. Math. Sociol. 25:163):
    a block of B sources runs its breadth-first searches together as
    the columns of (N, B) distance, path-count and dependency arrays,
    with one CSR sum per level. B is as large as the byte budget of one
    block allows.
    """
    n = net.node_count
    bc = np.zeros(net.edge_count)
    if net.edge_count == 0:
        return bc
    # A block's peak holds about four (N,) and four (M,) float columns
    # per source.
    width = _BETWEENNESS_BLOCK_BYTES // (32 * (n + net.edge_count))
    width = int(min(n, max(1, width)))
    # Betweenness runs once per network: its block-width scatter
    # indices are dropped afterwards, unlike those cached before it.
    cached = set(net._scatter_indices)
    for lo in range(0, n, width):
        bc += _source_block_flow(net, np.arange(lo, min(lo + width, n)))
    for added in set(net._scatter_indices) - cached:
        del net._scatter_indices[added]
    return bc / 2.0
