"""Immutable undirected network snapshot with per-edge formation times.

The snapshot is the single structural input every later stage consumes.
Edges are stored as (min id, max id) pairs in construction order, times
are normalized to [0, 1] over the edges whose time is known, and the
adjacency is prebuilt both as per-node frozensets and in CSR form so
sweeps over neighborhoods vectorize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    edges : tuple of (int, int)
        Unordered edges as (min id, max id), in construction order.
    alpha : ndarray of float
        Normalized formation time per edge, NaN where unknown.
    labeled_mask : ndarray of bool
        True where the formation time is visible to supervision.
    neighbors : tuple of frozenset
        Neighbor ids per node.
    adj_indptr, adj_indices : ndarray of int
        CSR layout of the adjacency, rows sorted ascending.
    """

    node_count: int
    edges: tuple
    alpha: np.ndarray
    labeled_mask: np.ndarray
    neighbors: tuple
    adj_indptr: np.ndarray
    adj_indices: np.ndarray

    @property
    def edge_count(self):
        return len(self.edges)

    @cached_property
    def degrees(self):
        return np.diff(self.adj_indptr)

    @cached_property
    def endpoints(self):
        """Edges as an (M, 2) int array, column 0 < column 1."""
        if not self.edges:
            return np.zeros((0, 2), dtype=np.int64)
        return np.asarray(self.edges, dtype=np.int64)

    @cached_property
    def edge_positions(self):
        """Map (min id, max id) -> index into self.edges."""
        return {e: k for k, e in enumerate(self.edges)}


def _assemble(node_count, edges, alpha, labeled_mask):
    """Build derived adjacency structures and freeze the network."""
    n = node_count
    nbr_lists = [[] for _ in range(n)]
    for u, v in edges:
        nbr_lists[u].append(v)
        nbr_lists[v].append(u)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i in range(n):
        nbr_lists[i].sort()
        indptr[i + 1] = indptr[i] + len(nbr_lists[i])
    indices = np.fromiter(
        (j for lst in nbr_lists for j in lst), dtype=np.int64, count=int(indptr[-1])
    )
    neighbors = tuple(frozenset(lst) for lst in nbr_lists)
    return TemporalNetwork(
        node_count=n,
        edges=tuple(edges),
        alpha=np.asarray(alpha, dtype=np.float64),
        labeled_mask=np.asarray(labeled_mask, dtype=bool),
        neighbors=neighbors,
        adj_indptr=indptr,
        adj_indices=indices,
    )


def build_network(node_count, edges, times=None):
    """Validate an edge list and build a TemporalNetwork.

    Parameters
    ----------
    node_count : int
        Must be >= 1.
    edges : sequence of (int, int)
        Node pairs in construction order. Endpoints are reordered to
        (min, max); duplicates and self loops are rejected.
    times : sequence of float or None, optional
        Raw formation time per edge; None or NaN marks an unknown time.
        Known times are min-max normalized to [0, 1]. When all known
        times coincide they normalize to 0.0.
    """
    if node_count <= 0:
        raise EmptyInput("node_count must be >= 1, got %r" % (node_count,))
    edges = list(edges)
    if times is None:
        times = [None] * len(edges)
    else:
        times = list(times)
    if len(times) != len(edges):
        raise InvalidEdge(
            "got %d times for %d edges" % (len(times), len(edges))
        )
    norm_edges = []
    seen = set()
    for u, v in edges:
        u = int(u)
        v = int(v)
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise InvalidEdge("edge (%d, %d) outside 0..%d" % (u, v, node_count - 1))
        if u == v:
            raise SelfLoop("self loop at node %d" % u)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge("duplicate edge (%d, %d)" % key)
        seen.add(key)
        norm_edges.append(key)

    raw = np.full(len(norm_edges), np.nan)
    for k, t in enumerate(times):
        if t is None:
            continue
        t = float(t)
        if not math.isnan(t):
            raw[k] = t
    known = ~np.isnan(raw)
    alpha = np.full(len(norm_edges), np.nan)
    if known.any():
        lo = raw[known].min()
        hi = raw[known].max()
        if hi > lo:
            alpha[known] = (raw[known] - lo) / (hi - lo)
        else:
            alpha[known] = 0.0
    return _assemble(node_count, norm_edges, alpha, known)


def prefix_graph(net, ordering, fraction):
    """Sub-network holding the earliest ceil(fraction * M) edges of an ordering.

    ordering is a permutation of edge indices, earliest first. The
    result keeps the parent node set and the parent alphas of the kept
    edges; times are not renormalized.
    """
    m = net.edge_count
    order = np.asarray(ordering, dtype=np.int64)
    if order.shape != (m,) or not np.array_equal(np.sort(order), np.arange(m)):
        raise InvalidPermutation("ordering is not a permutation of 0..%d" % (m - 1))
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1], got %r" % (fraction,))
    count = math.ceil(fraction * m)
    keep = order[:count]
    edges = [net.edges[k] for k in keep]
    return _assemble(net.node_count, edges, net.alpha[keep], net.labeled_mask[keep])


def neighbor_sum(net, x):
    """Sum the rows of x over each node's neighborhood.

    x has shape (N,) or (N, d); isolated nodes get a zero row.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((net.node_count,) + x.shape[1:])
    if net.adj_indices.size == 0:
        return out
    nonempty = np.flatnonzero(np.diff(net.adj_indptr) > 0)
    starts = net.adj_indptr[nonempty]
    out[nonempty] = np.add.reduceat(x[net.adj_indices], starts, axis=0)
    return out


@dataclass(frozen=True)
class NodeStructStats:
    """Per-node structural summaries as aligned arrays."""

    degree: np.ndarray
    clustering: np.ndarray
    coreness: np.ndarray


def triangle_counts(net):
    """Number of triangles through each node."""
    cnt = np.zeros(net.node_count, dtype=np.int64)
    for u, v in net.edges:
        c = len(net.neighbors[u] & net.neighbors[v])
        cnt[u] += c
        cnt[v] += c
    return cnt // 2


def local_clustering(net):
    """Local clustering coefficient per node; 0 for degree < 2."""
    deg = net.degrees.astype(np.float64)
    tri = triangle_counts(net).astype(np.float64)
    possible = deg * (deg - 1.0) / 2.0
    out = np.zeros(net.node_count)
    mask = possible > 0
    out[mask] = tri[mask] / possible[mask]
    return out


def average_clustering(net):
    """Mean local clustering over all nodes (degree < 2 counts as 0)."""
    if net.node_count == 0:
        return 0.0
    return float(local_clustering(net).mean())


def coreness(net):
    """Core number per node via iterative peeling."""
    n = net.node_count
    deg = net.degrees.astype(np.int64).copy()
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    remaining = n
    k = 0
    while remaining > 0:
        stack = [i for i in range(n) if alive[i] and deg[i] <= k]
        if not stack:
            k += 1
            continue
        while stack:
            i = stack.pop()
            if not alive[i]:
                continue
            alive[i] = False
            core[i] = k
            remaining -= 1
            for j in net.neighbors[i]:
                if alive[j]:
                    deg[j] -= 1
                    if deg[j] <= k:
                        stack.append(j)
    return core


def node_struct_stats(net):
    """Degree, local clustering, and coreness for every node."""
    return NodeStructStats(
        degree=net.degrees.astype(np.int64),
        clustering=local_clustering(net),
        coreness=coreness(net),
    )


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
    deg = net.degrees.astype(np.float64)
    dangling = deg == 0
    r = np.full(n, 1.0 / n)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        share = np.where(dangling, 0.0, r / np.where(dangling, 1.0, deg))
        spread = neighbor_sum(net, share)
        dangling_mass = r[dangling].sum()
        nxt = (1.0 - damping) / n + damping * (spread + dangling_mass / n)
        delta = np.abs(nxt - r).sum()
        r = nxt
        if delta < tol:
            converged = True
            break
    return PageRankResult(values=r, iterations=iterations, converged=converged)


def edge_betweenness(net):
    """Shortest-path betweenness per edge, aligned with net.edges.

    Each unordered source-target pair contributes once (the two-sided
    accumulation is halved). Disconnected pairs contribute nothing.
    """
    n = net.node_count
    m = net.edge_count
    pos = net.edge_positions
    bc = np.zeros(m)
    for s in range(n):
        # BFS from s recording shortest-path counts and predecessors.
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n)
        preds = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1.0
        order = [s]
        head = 0
        while head < len(order):
            v = order[head]
            head += 1
            for w in sorted(net.neighbors[v]):
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    order.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(n)
        for w in reversed(order):
            if w == s:
                continue
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                c = sigma[v] * coeff
                key = (v, w) if v < w else (w, v)
                bc[pos[key]] += c
                delta[v] += c
    return bc / 2.0


def walk_counts(net, u, v):
    """Counts of length-2 and length-3 walks between nodes u and v."""
    two = len(net.neighbors[u] & net.neighbors[v])
    three = 0
    for w in net.neighbors[u]:
        three += len(net.neighbors[w] & net.neighbors[v])
    return two, three
