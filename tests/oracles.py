"""Brute-force reference implementations used to cross-check the package.

Everything here trades speed for obviousness: explicit path
enumeration, dense matrix algebra, definition-level loops. Tests
compare the package's production code against these on small inputs.
"""

import itertools
import math

import numpy as np


def adjacency_sets(net):
    """Neighbour set per node, built from the edge list alone."""
    nbrs = [set() for _ in range(net.node_count)]
    for u, v in net.endpoints.tolist():
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def edge_index(net):
    """Map (min id, max id) -> row of net.endpoints."""
    return {(u, v): k for k, (u, v) in enumerate(net.endpoints.tolist())}


def triangles_by_sets(net):
    """Every triangle as a sorted node triple, in sorted order."""
    nbrs = adjacency_sets(net)
    return sorted(
        (u, v, w)
        for u, v in net.endpoints.tolist()
        for w in nbrs[u] & nbrs[v]
        if w > v
    )


def adjacency_matrix(net):
    a = np.zeros((net.node_count, net.node_count))
    for u, v in net.endpoints.tolist():
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def neighbor_sum_by_loop(net, x):
    """Each node's CSR row of x summed term by term, left to right, from zero."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.shape)
    for node in range(net.node_count):
        total = np.zeros(x.shape[1:])
        for other in net.adj_indices[net.adj_indptr[node]:net.adj_indptr[node + 1]]:
            total = total + x[other]
        out[node] = total
    return out


def clustering_by_definition(net):
    """C(i) = closed neighbor pairs / all neighbor pairs."""
    adj = adjacency_sets(net)
    out = np.zeros(net.node_count)
    for i in range(net.node_count):
        nbrs = sorted(adj[i])
        k = len(nbrs)
        if k < 2:
            continue
        closed = sum(
            1
            for a, b in itertools.combinations(nbrs, 2)
            if b in adj[a]
        )
        out[i] = closed / (k * (k - 1) / 2)
    return out


def coreness_by_definition(net):
    """core(i) = max k such that i survives repeated deletion of degree < k nodes."""
    adj = adjacency_sets(net)
    out = np.zeros(net.node_count, dtype=np.int64)
    max_deg = int(net.degrees.max()) if net.node_count else 0
    for k in range(max_deg + 1):
        alive = set(range(net.node_count))
        changed = True
        while changed:
            changed = False
            for i in sorted(alive):
                deg = sum(1 for j in adj[i] if j in alive)
                if deg < k:
                    alive.remove(i)
                    changed = True
        for i in alive:
            out[i] = k
    return out


def pagerank_dense(net, damping=0.85, tol=1e-10, max_iter=200):
    """Power iteration on the dense Google matrix."""
    n = net.node_count
    a = adjacency_matrix(net)
    deg = a.sum(axis=1)
    p = np.zeros((n, n))
    for j in range(n):
        if deg[j] > 0:
            p[:, j] = a[:, j] / deg[j]
        else:
            p[:, j] = 1.0 / n
    g = damping * p + (1.0 - damping) / n
    r = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = g @ r
        if np.abs(nxt - r).sum() < tol:
            return nxt
        r = nxt
    return r


def edge_betweenness_by_paths(net):
    """Enumerate every shortest path of every unordered node pair.

    Exponential; only usable on tiny graphs (N <= 8 or so).
    """
    counts = np.zeros(net.edge_count)
    pos = edge_index(net)
    adj = adjacency_sets(net)
    n = net.node_count

    def all_shortest_paths(s, t):
        # BFS distances then DFS over the shortest-path DAG.
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        if t not in dist:
            return []
        paths = []

        def extend(path):
            v = path[-1]
            if v == t:
                paths.append(list(path))
                return
            for w in adj[v]:
                if dist.get(w, -1) == dist[v] + 1 and dist[w] <= dist[t]:
                    path.append(w)
                    extend(path)
                    path.pop()

        extend([s])
        return paths

    for s, t in itertools.combinations(range(n), 2):
        paths = all_shortest_paths(s, t)
        if not paths:
            continue
        share = 1.0 / len(paths)
        for path in paths:
            for a, b in zip(path, path[1:]):
                key = (a, b) if a < b else (b, a)
                counts[pos[key]] += share
    return counts


def walk_counts_by_power(net, u, v):
    a = adjacency_matrix(net)
    a2 = a @ a
    a3 = a2 @ a
    return int(round(a2[u, v])), int(round(a3[u, v]))


def build_network_by_loop(node_count, edges, times=None):
    """The edge-by-edge validation build_network replaced.

    Returns (endpoints, alpha, labeled_mask), or raises exactly what
    build_network must raise: the times count first, then the first
    bad edge in order (out of range, then self loop, then a repeat in
    either orientation), then the first infinite time.
    """
    from netchron.errors import DuplicateEdge, EmptyInput, InvalidEdge, SelfLoop

    if node_count <= 0:
        raise EmptyInput("node_count must be >= 1, got %r" % (node_count,))
    edges = list(edges)
    times = [None] * len(edges) if times is None else list(times)
    if len(times) != len(edges):
        raise InvalidEdge("got %d times for %d edges" % (len(times), len(edges)))
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
        if math.isinf(t):
            raise InvalidEdge(
                "edge (%d, %d) has non-finite time %r" % (norm_edges[k] + (t,))
            )
        if not math.isnan(t):
            raw[k] = t
    known = ~np.isnan(raw)
    alpha = np.full(len(norm_edges), np.nan)
    if known.any():
        lo = raw[known].min()
        hi = raw[known].max()
        alpha[known] = (raw[known] - lo) / (hi - lo) if hi > lo else 0.0
    return np.array(norm_edges, dtype=np.int64).reshape(-1, 2), alpha, known


def random_network(rng, max_nodes=20, min_nodes=2, edge_prob=0.35, with_times=True):
    """Random small graph for oracle comparisons."""
    from netchron.graph import build_network

    n = int(rng.integers(min_nodes, max_nodes + 1))
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if rng.random() < edge_prob
    ]
    if not edges:
        edges = [(0, 1)]
    times = rng.random(len(edges)) if with_times else None
    return build_network(n, edges, times)


EPS = 1e-8


def struct_features_by_definition(net, pagerank_values, betweenness):
    """Eighteen structural descriptors computed from the dense adjacency."""
    a = adjacency_matrix(net)
    a2 = a @ a
    a3 = a2 @ a
    deg = a.sum(axis=1)
    clust = clustering_by_definition(net)
    core = coreness_by_definition(net)
    rows = []
    for k, (u, v) in enumerate(net.endpoints.tolist()):
        cn = a2[u, v]
        union = deg[u] + deg[v] - cn
        aa = 0.0
        ra = 0.0
        for z in range(net.node_count):
            if a[u, z] > 0 and a[v, z] > 0:
                aa += 1.0 / np.log(deg[z] + EPS)
                ra += 1.0 / deg[z]
        rows.append(
            [
                deg[u],
                deg[v],
                deg[u] + deg[v],
                deg[u] * deg[v],
                min(deg[u], deg[v]),
                max(deg[u], deg[v]),
                clust[u],
                clust[v],
                cn,
                cn / (union + EPS),
                aa,
                ra,
                cn / (deg[u] + deg[v] - 2.0 - cn + EPS),
                betweenness[k],
                cn / max(min(deg[u] - 1.0, deg[v] - 1.0), 1.0),
                a2[u, v] + 0.01 * a3[u, v],
                max(pagerank_values[u], pagerank_values[v]),
                min(core[u], core[v]),
            ]
        )
    return np.asarray(rows, dtype=float)


def state_features_by_definition(net, x):
    rows = []
    for u, v in net.endpoints.tolist():
        rows.append(
            [
                x[u],
                x[v],
                x[u] + x[v],
                abs(x[u] - x[v]),
                x[u] * x[v],
                x[u] / (x[v] + EPS),
                x[v] / (x[u] + EPS),
            ]
        )
    return np.asarray(rows, dtype=float)


def normalize_by_definition(values):
    """Column-wise min-max then standardization, plain loops."""
    values = np.asarray(values, dtype=float)
    n, d = values.shape
    out = np.zeros_like(values)
    for k in range(d):
        col = sorted(values[:, k])
        cmin, cmax = col[0], col[-1]
        scaled = [(x - cmin) / (cmax - cmin + EPS) for x in values[:, k]]
        mu = sum(scaled) / n
        var = sum((s - mu) ** 2 for s in scaled) / n
        sd = var**0.5
        if sd == 0.0:
            out[:, k] = 0.0
        else:
            out[:, k] = [(s - mu) / sd for s in scaled]
    return out


def sis_fixed_point_scalar(degree, infection=0.4, recovery=0.3):
    """Root of p = (1-recovery) p + (1-p)(1-(1-infection p)^degree), bisection."""

    def gap(p):
        return (
            (1.0 - recovery) * p
            + (1.0 - p) * (1.0 - (1.0 - infection * p) ** degree)
            - p
        )

    lo, hi = 1e-9, 1.0
    assert gap(lo) > 0 and gap(hi) <= 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dynamics_step_by_definition(net, spec, x):
    """One synchronous update, plain per-node loops."""
    n = net.node_count
    adj = adjacency_sets(net)
    out = np.zeros(n)
    kind = spec.kind.value
    for i in range(n):
        nbrs = sorted(adj[i])
        if kind == "sis":
            prod = 1.0
            for j in nbrs:
                prod *= 1.0 - spec.infection * x[j]
            out[i] = (1.0 - spec.recovery) * x[i] + (1.0 - x[i]) * (1.0 - prod)
        elif kind == "gene":
            total = sum(x[j] for j in nbrs)
            h = total ** spec.hill_exponent
            out[i] = spec.basal[i] + spec.gain[i] * h / (1.0 + h)
        else:
            mean = sum(x[j] for j in nbrs) / len(nbrs) if nbrs else x[i]
            out[i] = x[i] + spec.pull[i] * (mean - x[i])
    return out


def finite_difference_grad(f, x, step=1e-6):
    """Central-difference gradient of scalar f at array x."""
    x = np.array(x, dtype=float)
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for k in range(flat_x.size):
        orig = flat_x[k]
        flat_x[k] = orig + step
        hi = f(x)
        flat_x[k] = orig - step
        lo = f(x)
        flat_x[k] = orig
        flat_g[k] = (hi - lo) / (2.0 * step)
    return grad


def max_relative_error(a, b, guard=1e-8):
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), guard)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def distinct_time_pairs_by_enumeration(edges, alpha, rng, budget=None):
    """Every distinct-time pair in upper-triangle order, then swaps, then a cap.

    Builds all L^2 / 2 index pairs, keeps those with different times,
    swaps each with probability 1/2, and keeps a uniform subsample of
    `budget` rows in enumeration order when there are more.
    """
    ii, jj = np.triu_indices(edges.size, k=1)
    a = edges[ii]
    b = edges[jj]
    distinct = alpha[a] != alpha[b]
    a = a[distinct]
    b = b[distinct]
    flip = rng.random(a.size) < 0.5
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    pairs = np.column_stack([a, b, (alpha[a] < alpha[b]).astype(np.int64)])
    if budget is not None and pairs.shape[0] > budget:
        keep = rng.choice(pairs.shape[0], size=budget, replace=False)
        pairs = pairs[np.sort(keep)]
    return pairs


def make_pairs_by_permutation(net, label_fraction, pair_budget, seed,
                              val_fraction=0.1):
    """ranker.make_pairs with the split taken through rng.permutation:
    validation is pairs[perm[:k]] and training pairs[perm[k:]], two copies."""
    from netchron.ranker import _distinct_time_pairs

    rng = np.random.default_rng(seed)
    known = np.flatnonzero(net.labeled_mask)
    if label_fraction is None:
        lab = known
    else:
        lab = rng.choice(known, size=math.ceil(label_fraction * net.edge_count),
                         replace=False)
    pairs = _distinct_time_pairs(lab, net.alpha, rng, pair_budget)
    perm = rng.permutation(pairs.shape[0])
    val_count = min(int(round(val_fraction * pairs.shape[0])), pairs.shape[0] - 1)
    return pairs[perm[val_count:]], pairs[perm[:val_count]]


def midranks_by_loop(values):
    """Ranks 1..n, each run of equal sorted values sharing its mean position."""
    x = np.asarray(values, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    sx = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def borda_aggregate(pair_probs):
    """Global order from an M x M precedence-probability matrix, by Borda count.

    Entry (i, j) is the probability that edge i precedes edge j. The
    off-diagonal complement P[i, j] + P[j, i] = 1 must hold to 1e-9,
    else ValueError. Each edge's score is its row sum over the other
    edges; the order sorts scores descending, ascending index breaking
    ties. The O(M^2) reference for order_from_scores.
    """
    from netchron.errors import EmptyInput
    from netchron.ordering import GlobalOrdering

    p = np.asarray(pair_probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] == 0:
        raise EmptyInput("need a non-empty square matrix")
    gap = np.abs(p + p.T - 1.0)
    np.fill_diagonal(gap, 0.0)
    if gap.max() > 1e-9:
        raise ValueError("complement violation up to %.3g" % gap.max())
    scores = p.sum(axis=1) - np.diag(p)
    m = scores.size
    order = np.lexsort((np.arange(m), -scores))
    ranks = np.empty(m, dtype=np.int64)
    ranks[order] = np.arange(1, m + 1)
    return GlobalOrdering(borda_scores=scores, ranks=ranks)


def monte_carlo_error_dense(p, m, trials, seed=0):
    """ordering.monte_carlo_error with a dense (m, m) win matrix per trial.

    The comparisons are drawn in one call in np.triu_indices order, so
    the random stream is the one the blocked version reads.
    """
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(m, k=1)
    true_pos = np.arange(1, m + 1)
    total = 0.0
    for _ in range(trials):
        wins = np.zeros((m, m))
        correct = rng.random(iu[0].size) < p
        wins[iu] = np.where(correct, 1.0, 0.0)
        wins.T[iu] = 1.0 - wins[iu]
        avg = wins.sum(axis=1) / (m - 1.0)
        tie_break = rng.random(m)
        recovered = np.lexsort((tie_break, -avg))
        ranks = np.empty(m, dtype=np.int64)
        ranks[recovered] = true_pos
        total += math.sqrt(np.mean((ranks - true_pos) ** 2)) / m
    return total / trials


def average_clustering(net):
    """Mean local clustering over all nodes (degree < 2 counts as 0)."""
    from netchron.graph import local_clustering

    if net.node_count == 0:
        return 0.0
    return float(local_clustering(net).mean())


def growth_curve_by_prefix_graphs(net, ordering, prop, samples):
    """A property of a freshly built prefix graph at each (k + 1) / samples."""
    from netchron.evaluation import degree_gini
    from netchron.graph import prefix_graph

    fn = {"clustering": average_clustering, "degree_gini": degree_gini}[prop]
    order = ordering.order
    out = np.empty(samples)
    for k in range(samples):
        out[k] = fn(prefix_graph(net, order, (k + 1) / samples))
    return out


def hub_curve_by_scan(net, ranks, hub, samples):
    """Degree of hub after each of `samples` cutoffs, scanning every edge.

    ranks are 1-based; the prefix at fraction f holds the ceil(f * M)
    lowest-ranked edges.
    """
    m = net.edge_count
    cutoffs = [math.ceil((k + 1) / samples * m) for k in range(samples)]
    incident = [k for k, (a, b) in enumerate(net.endpoints.tolist()) if hub in (a, b)]
    positions = np.sort(np.asarray(ranks, dtype=np.float64)[incident])
    return np.searchsorted(positions, cutoffs, side="right").astype(np.float64)


def coupled_backward_by_add_at(embeddings, endpoints, grad_feats):
    """Edge-feature gradients scattered onto nodes with two np.add.at calls."""
    emb = np.asarray(embeddings, dtype=np.float64)
    d = emb.shape[1]
    u = endpoints[:, 0]
    v = endpoints[:, 1]
    g = np.asarray(grad_feats, dtype=np.float64)
    g_u, g_v, g_sum, g_abs = g[:, :d], g[:, d:2 * d], g[:, 2 * d:3 * d], g[:, 3 * d:]
    sign = np.sign(emb[u] - emb[v])
    out = np.zeros_like(emb)
    np.add.at(out, u, g_u + g_sum + sign * g_abs)
    np.add.at(out, v, g_v + g_sum - sign * g_abs)
    return out


def scorer_backward_by_outer(params, activation, feats, pre, act, dz):
    """Scorer gradients with np.outer and fresh temporaries, d_feats for every column."""
    d_act = np.outer(dz, params["scorer.w_out"])
    if activation == "tanh":
        d_pre = d_act * (1.0 - act * act)
    else:
        d_pre = d_act * (pre > 0.0)
    return (feats.T @ d_pre, d_pre.sum(axis=0), act.T @ dz,
            np.asarray(dz.sum(), dtype=np.float64),
            d_pre @ params["scorer.w_hidden"].T)


def scores_by_definition(model, net, inputs):
    """Every edge's score from the definitions, in plain numpy.

    Each encoder layer maps a node's embedding and the mean of its
    neighbours' (or, under the symmetric norm, their sum with each
    neighbour j weighted by 1 / sqrt(deg_i deg_j)), over adjacency_sets,
    through config.activation. The scorer reads the static row, then
    [h_u, h_v, h_u + h_v, |h_u - h_v|], through config.scorer_activation.
    """
    config, params = model.config, model.params()
    activate = {"tanh": np.tanh, "relu": lambda x: np.maximum(x, 0.0)}
    feats = inputs.static.values
    if config.coupled:
        nbrs = adjacency_sets(net)
        h = inputs.node_inputs
        for l in range(len(config.embedding_dims) - 1):
            mixed = np.zeros_like(h)
            for i, around in enumerate(nbrs):
                for j in around:
                    if config.neighbor_norm == "mean":
                        mixed[i] += h[j] / len(around)
                    else:
                        mixed[i] += h[j] / math.sqrt(len(around) * len(nbrs[j]))
            h = activate[config.activation](
                h @ params["prop.self.%d" % l] + mixed @ params["prop.neigh.%d" % l])
        hu, hv = h[net.endpoints[:, 0]], h[net.endpoints[:, 1]]
        feats = np.hstack([feats, hu, hv, hu + hv, np.abs(hu - hv)])
    hidden = activate[config.scorer_activation](
        feats @ params["scorer.w_hidden"] + params["scorer.b_hidden"])
    return hidden @ params["scorer.w_out"] + float(params["scorer.b_out"])


def _loss_by_add_at(model, inputs, pairs, net):
    """ranker.loss's gradients as a dict of separate arrays, scored through
    np.unique and scattered by np.add.at."""
    from netchron.coupling import propagate_backward
    from netchron.ranker import _forward_scores, _scorer_backward, _stable_sigmoid

    arr = np.asarray(pairs, dtype=np.int64)
    edge_rows, inverse = np.unique(arr[:, :2].ravel(), return_inverse=True)
    z, cache = _forward_scores(model, inputs, edge_rows, net=net)
    a_pos, b_pos = inverse[0::2], inverse[1::2]
    dd = _stable_sigmoid(z[a_pos] - z[b_pos]) - arr[:, 2].astype(np.float64)
    dz = np.zeros(edge_rows.size)
    np.add.at(dz, a_pos, dd)
    np.add.at(dz, b_pos, -dd)
    eta = model.config.l2_coeff
    params = model.params()
    width = inputs.static.values.shape[1]
    grads = {key: np.empty_like(value) for key, value in params.items()}
    d_cpl = _scorer_backward(
        params, model.config.scorer_activation, cache["feats"], cache["pre"],
        cache["act"], dz, grads, grad_from=width,
    )
    for key in ("scorer.w_hidden", "scorer.b_hidden", "scorer.w_out", "scorer.b_out"):
        grads[key] = grads[key] + 2.0 * eta * params[key]
    if "embeddings" in cache:
        d_emb = coupled_backward_by_add_at(
            cache["embeddings"], cache["endpoints"], d_cpl
        )
        propagate_backward(net, params, model.config, cache["stages"], d_emb, grads)
    return grads


def _pair_metrics_by_unique(model, inputs, pairs, net):
    from netchron.ranker import _forward_scores, _softplus

    edge_rows, inverse = np.unique(pairs[:, :2].ravel(), return_inverse=True)
    z, _ = _forward_scores(model, inputs, edge_rows, net=net)
    d = z[inverse[0::2]] - z[inverse[1::2]]
    y = pairs[:, 2].astype(np.float64)
    ce = float(np.mean(y * _softplus(-d) + (1.0 - y) * _softplus(d)))
    return ce, float(np.mean((d > 0) == (y == 1)))


def write_params(model, params):
    """Copy a params() dict's arrays into the model's own."""
    for key, view in model.params().items():
        view[...] = params[key]


def train_by_key_loop(net, inputs, config):
    """ranker.train as a per-key loop: Adam over params() dicts, new arrays each step.

    Every batch copies the dict into the model and recomputes layer 0's
    neighbor aggregate. Returns (best params, log, best_epoch); each log
    entry's grad_norm is the RMS over the epoch's batches of
    sqrt(sum over keys of sum(g ** 2)).
    """
    from netchron.coupling import coupled_column_names
    from netchron.ranker import init_cpnn, make_pairs

    train_arr, val_arr = make_pairs(
        net, config.label_fraction, config.pair_budget, config.seed,
        val_fraction=config.val_fraction,
    )
    input_dim = inputs.static.values.shape[1]
    columns = inputs.static.columns
    if config.coupled:
        input_dim += 4 * config.embedding_dims[-1]
        columns = columns + coupled_column_names(config.embedding_dims[-1])
    model = init_cpnn(input_dim, config, feature_columns=columns)
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
        squares = []
        for lo in range(0, order.size, config.batch_size):
            batch = train_arr[order[lo:lo + config.batch_size]]
            write_params(model, params)
            grads = _loss_by_add_at(model, inputs, batch, net)
            squares.append(sum(float(np.sum(g * g)) for g in grads.values()))
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
        write_params(model, params)
        train_ce, train_acc = _pair_metrics_by_unique(model, inputs, train_arr, net)
        entry = {
            "epoch": epoch,
            "train_loss": train_ce,
            "train_accuracy": train_acc,
            "grad_norm": math.sqrt(sum(squares) / len(squares)),
        }
        if val_arr.shape[0]:
            val_ce, val_acc = _pair_metrics_by_unique(model, inputs, val_arr, net)
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
    return best_params, log, best_epoch
