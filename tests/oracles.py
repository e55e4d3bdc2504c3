"""Brute-force reference implementations used to cross-check the package.

Everything here trades speed for obviousness: explicit path
enumeration, dense matrix algebra, definition-level loops. Tests
compare the package's production code against these on small inputs.
"""

import itertools

import numpy as np


def adjacency_sets(net):
    """Neighbour set per node, built from the edge list alone."""
    nbrs = [set() for _ in range(net.node_count)]
    for u, v in net.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def edge_index(net):
    """Map (min id, max id) -> index into net.edges."""
    return {e: k for k, e in enumerate(net.edges)}


def adjacency_matrix(net):
    a = np.zeros((net.node_count, net.node_count))
    for u, v in net.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


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
    for k, (u, v) in enumerate(net.edges):
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
    for u, v in net.edges:
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
