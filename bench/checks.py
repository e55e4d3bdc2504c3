"""Correctness checks computed apart from netchron.

Everything here reads the files a stage wrote and recomputes what they
should hold with numpy and scipy alone: the ordering is a permutation
that follows its scores, the report's pairwise accuracy matches an
O(M log M) inversion count, its rank correlation matches
scipy.stats.spearmanr, the steady state is a fixed point of one more
dynamics update, and both quality figures clear chance by a margin.
Each check returns a list of problems; an empty list means it passed.
"""

import json
import math

import numpy as np
import scipy.sparse
import scipy.stats

# A quality figure must sit this many null standard deviations above
# chance: a uniformly random ordering gets past it with probability
# below 3e-7 (one-sided normal tail at 5 sigma).
CHANCE_SIGMAS = 5.0


def read_graph(path):
    """Edge list TSV -> ((M, 2) int endpoints, (M,) float times)."""
    edges = []
    times = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v, t = line.split("\t")
            edges.append((int(u), int(v)))
            times.append(float(t))
    return np.array(edges, dtype=np.int64).reshape(-1, 2), np.array(times)


def read_state(path):
    """Steady-state CSV -> (N,) values, rows in node-id order."""
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().split("\n")[1:] if line]
    ids = [int(r[0]) for r in rows]
    if ids != list(range(len(ids))):
        raise ValueError("%s: node ids are not 0..N-1 in order" % path)
    return np.array([float(r[1]) for r in rows])


def read_ordering(path):
    """Ordering CSV -> dict of edge_index, u, v, score, rank columns."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.split(",") for line in fh.read().split("\n") if line]
    cols = list(zip(*rows)) if rows else [()] * len(header)
    out = {}
    for name, col in zip(header, cols):
        kind = float if name == "borda_score" else int
        out[name] = np.array([kind(x) for x in col])
    return out


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def count_inversions(seq):
    """Pairs i < j with seq[i] > seq[j], by merge sort in O(n log n)."""
    seq = list(seq)
    inversions = 0
    width = 1
    n = len(seq)
    while width < n:
        merged = []
        for lo in range(0, n, 2 * width):
            left = seq[lo:lo + width]
            right = seq[lo + width:lo + 2 * width]
            i = j = 0
            while i < len(left) and j < len(right):
                if right[j] < left[i]:
                    inversions += len(left) - i
                    merged.append(right[j])
                    j += 1
                else:
                    merged.append(left[i])
                    i += 1
            merged.extend(left[i:])
            merged.extend(right[j:])
        seq = merged
        width *= 2
    return inversions


def pairwise_accuracy(ranks, times):
    """Share of distinct-time edge pairs whose ranks follow their times.

    Sorting by (time, rank) leaves equal-time groups in ascending rank,
    so every inversion of the rank sequence is a distinct-time pair
    ordered against its times.
    """
    ranks = np.asarray(ranks)
    times = np.asarray(times, dtype=np.float64)
    order = np.lexsort((ranks, times))
    wrong = count_inversions(ranks[order].tolist())
    m = ranks.size
    _, groups = np.unique(times, return_counts=True)
    pairs = m * (m - 1) // 2 - int(sum(int(c) * (int(c) - 1) // 2 for c in groups))
    return (pairs - wrong) / pairs, pairs


def chance_floors(m):
    """Accuracy and Spearman floors CHANCE_SIGMAS null deviations above chance.

    Under a uniformly random ordering Kendall's tau has variance
    2(2m + 5) / (9 m (m - 1)), so pairwise accuracy (1 + tau) / 2 has a
    quarter of it; Spearman's rho has variance 1 / (m - 1).
    """
    acc_sd = math.sqrt((2 * m + 5) / (18.0 * m * (m - 1)))
    rho_sd = math.sqrt(1.0 / (m - 1))
    return 0.5 + CHANCE_SIGMAS * acc_sd, CHANCE_SIGMAS * rho_sd


def adjacency(edges, n):
    """Symmetric scipy.sparse CSR adjacency of an undirected edge list."""
    u, v = edges[:, 0], edges[:, 1]
    data = np.ones(2 * len(edges))
    return scipy.sparse.csr_matrix(
        (data, (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n)
    )


def sis_step(adj, x, infection, recovery):
    """x' = (1 - r) x + (1 - x) (1 - prod over neighbours (1 - b x_j))."""
    escape = np.exp(adj @ np.log1p(-infection * x))
    return (1.0 - recovery) * x + (1.0 - x) * (1.0 - escape)


def gene_step(adj, x, basal, gain, hill):
    """x' = basal + gain s^h / (1 + s^h), s the sum over neighbours."""
    powered = (adj @ x) ** hill
    return basal + gain * powered / (1.0 + powered)


def check_edge_count(edges, node_count, edges_per_node):
    if edges_per_node != 2:
        raise ValueError("the closed form holds for m = 2 only")
    want = 2 * node_count - 3
    if len(edges) != want:
        return ["graph has %d edges, 2N - 3 = %d" % (len(edges), want)]
    return []


def check_fixed_point(adj, x, step, tol):
    moved = float(np.linalg.norm(step(adj, x) - x))
    if not moved < tol:
        return ["one more update moves the state by %.3g >= tol %.3g" % (moved, tol)]
    return []


def check_model(path, mode, width):
    """The checkpoint names the mode and has a finite scorer of the right width."""
    model = read_json(path)
    problems = []
    if model.get("format") != "netchron-cpnn" or model.get("mode") != mode:
        problems.append("checkpoint format/mode is %r/%r"
                        % (model.get("format"), model.get("mode")))
    w = np.asarray(model["scorer"]["w_hidden"], dtype=np.float64)
    if w.shape[0] != width or len(model["feature_columns"]) != width:
        problems.append("scorer input width %d, want %d" % (w.shape[0], width))
    if not np.isfinite(w).all():
        problems.append("scorer weights are not finite")
    return problems


def check_ordering(ordering, edges):
    """Ranks 1..M over every edge once, descending score, lower index on ties."""
    m = len(edges)
    idx = ordering["edge_index"]
    if len(idx) != m or not np.array_equal(np.sort(idx), np.arange(m)):
        return ["ordering does not list every edge index 0..%d once" % (m - 1)]
    at = np.argsort(idx)
    ends = np.column_stack([ordering["u"][at], ordering["v"][at]])
    problems = []
    if not np.array_equal(np.sort(ends, axis=1), np.sort(edges, axis=1)):
        problems.append("ordering endpoints differ from the graph's edges")
    ranks = ordering["rank"][at]
    scores = ordering["borda_score"][at]
    if not np.array_equal(np.sort(ranks), np.arange(1, m + 1)):
        problems.append("ranks are not a permutation of 1..%d" % m)
    want = np.empty(m, dtype=np.int64)
    want[sorted(range(m), key=lambda k: (-scores[k], k))] = np.arange(1, m + 1)
    if not np.array_equal(ranks, want):
        problems.append("ranks do not follow descending score, lower index on ties")
    return problems


def check_report(report, ordering, times):
    """Report quality against an inversion count and scipy, above chance."""
    at = np.argsort(ordering["edge_index"])
    ranks = ordering["rank"][at]
    accuracy, pairs = pairwise_accuracy(ranks, times)
    rho = scipy.stats.spearmanr(ranks, times).statistic
    problems = []
    if report["pair_count"] != pairs:
        problems.append("report pair_count %d, distinct-time pairs %d"
                        % (report["pair_count"], pairs))
    if abs(report["pairwise_accuracy"] - accuracy) > 1e-12:
        problems.append("pairwise_accuracy %r, inversion count gives %r"
                        % (report["pairwise_accuracy"], accuracy))
    if abs(report["spearman_rho"] - rho) > 1e-9:
        problems.append("spearman_rho %r, scipy gives %r" % (report["spearman_rho"], rho))
    acc_floor, rho_floor = chance_floors(len(ranks))
    if not (accuracy > acc_floor and rho > rho_floor):
        problems.append("quality %.4f / %.4f not above chance floors %.4f / %.4f"
                        % (accuracy, rho, acc_floor, rho_floor))
    return problems
