"""Metrics for recovered edge orderings.

Rank-level agreement (pairwise accuracy, rank correlation with
midranks for ties), a binned trend of predicted against true
normalized ranks, growth-trajectory comparisons, a hub-centric radar
score, and per-feature rank correlations with formation time. Every
ordering is a GlobalOrdering, whose ranks are checked when it is built
and read here as given.

Growth and hub trajectories are replayed over arrays from one ordering:
prefix degrees grow edge by edge, and a triangle joins the prefix with
its latest edge, so no prefix graph is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateTruth,
    DimensionMismatch,
    EmptyInput,
    EmptyPairs,
    FlatTruthCurve,
    InvalidPermutation,
)
from .graph import _clustering
from .ordering import ground_truth_ordering

TREND_BINS = 10
TRAJECTORY_SAMPLES = 50
RADAR_TOP_K = 5


def _check_pairs(pairs, edge_count):
    """pairs as an (n, 3) int64 array of (edge a, edge b, y), n > 0, with
    both edges in [0, edge_count) and y 0 or 1. No pairs raise
    EmptyPairs, any other breach DimensionMismatch."""
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        raise EmptyPairs("no pairs")
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise DimensionMismatch("pairs must be (n, 3) of (a, b, y)")
    # Read as unsigned, a negative value exceeds every bound, so one max
    # checks both ends; this runs on every training batch.
    if arr[:, :2].view(np.uint64).max() >= edge_count:
        raise DimensionMismatch("pair edges must lie in [0, %d)" % edge_count)
    if arr[:, 2].view(np.uint64).max() > 1:
        raise DimensionMismatch("pair labels must be 0 or 1")
    return arr


def pairwise_accuracy(ordering, pairs):
    """Fraction of supervised pairs a GlobalOrdering gets right.

    pairs is an (n, 3) array-like of (edge a, edge b, y) with y = 1
    when edge a truly formed before edge b, checked by _check_pairs.
    """
    arr = _check_pairs(pairs, ordering.edge_count)
    ranks = ordering.ranks
    predicted_before = ranks[arr[:, 0]] < ranks[arr[:, 1]]
    return float(np.mean(predicted_before == (arr[:, 2] == 1)))


def _tie_groups(t):
    """Stable sort of t, and for each entry its group's slice in it.

    Returns (order, pos, start, end): order sorts t stably, pos[i] is
    entry i's index in that order, and entry i's group of equal values
    occupies order[start[i]:end[i]]. NaN != NaN, so each NaN is a
    group of its own.
    """
    order = np.argsort(t, kind="stable")
    pos = np.empty(t.size, dtype=np.int64)
    pos[order] = np.arange(t.size)
    sorted_t = t[order]
    new_group = np.ones(t.size, dtype=bool)
    new_group[1:] = sorted_t[1:] != sorted_t[:-1]
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], t.size)
    group = np.cumsum(new_group) - 1
    return order, pos, starts[group][pos], ends[group][pos]


def _subsample(rng, total, budget):
    """np.sort(rng.choice(total, budget, replace=False)) in O(budget) memory.

    Equal to it bit for bit, and leaves rng in the same state. Where
    numpy draws by Floyd's algorithm (total <= 10 000 or budget <=
    total // 50), this is that call. Otherwise numpy tail-shuffles
    arange(total): step n swaps position p = total - 1 - n with a
    uniform target in [0, p], and position p then holds the value the
    target held. This replays those draws and finds each such value by
    following the earlier writes to its target, without the population
    array. (Its keys need total * budget < 2**63; beyond that, numpy's
    call runs.)
    """
    if total <= 10_000 or budget <= total // 50 or total * budget >= 2**63:
        return np.sort(rng.choice(total, size=budget, replace=False))
    # Step n draws its target from [0, p]; the swap writes the target,
    # and the key target * budget + n orders the writes by position,
    # then step.
    p = np.arange(total - 1, total - 1 - budget, -1)
    keys = rng.integers(0, p, endpoint=True)
    keys *= budget
    keys += np.subtract(total - 1, p, out=p)
    del p
    keys.sort()
    value = keys // budget
    # A write whose target an earlier step wrote takes that step's
    # value: the one its own position p_m held before step m.
    hop = np.flatnonzero(value[1:] == value[:-1]) + 1
    m = keys[hop - 1] % budget
    while hop.size:
        p = total - 1 - m
        last = np.searchsorted(keys, p * budget + m) - 1
        found = (last >= 0) & (keys[last] >= p * budget)
        value[hop[~found]] = p[~found]
        hop = hop[found]
        m = keys[last[found]] % budget
    value.sort()
    return value


def _distinct_time_pairs(edges, alpha, rng, budget=None):
    """Randomly oriented pairs of the given edges with distinct times.

    Pairs are indexed in upper-triangle order over positions in
    `edges` (row i, then column j > i), skipping pairs with equal
    formation times. When their number exceeds `budget`, a uniform
    subsample of that many indices is drawn from rng exactly as
    np.sort(rng.choice(total, budget, replace=False)) draws it, by
    _subsample in one of two regimes: numpy's Floyd sampler, or a
    replay of numpy's tail shuffle without its population array. Within
    the budget all are kept. Each index is then unranked to its
    (row, column) pair without enumerating the others, and each pair is
    swapped with probability 1/2, drawn from rng after the subsample.
    Time is O(L log L + n log n) and memory O(L + n) for L edges and n
    pairs returned. Returns an (n, 3) int array of (a, b, y), y = 1
    when edge a formed first; n may be 0.
    """
    if budget is not None and budget < 1:
        raise EmptyInput("pair budget must be >= 1, got %r" % (budget,))
    size = edges.size
    order, pos, start, end = _tie_groups(alpha[edges])
    rows = np.arange(size)
    # Partners j > i minus the equal-time ones after i in its group.
    partners = (size - 1 - rows) - (end - pos - 1)
    row_end = np.cumsum(partners)
    total = int(row_end[-1]) if size else 0
    if budget is None or total <= budget:
        k = np.arange(total)
    else:
        k = _subsample(rng, total, budget)
    i = np.searchsorted(row_end, k, side="right")
    k -= (row_end - partners)[i]
    # Row i's k-th partner is column i + 1 + k + c, where c counts the
    # members e > i of its tie group before that column: those with
    # e - pos[e] <= i - pos[i] + k. e - pos[e] never falls within a
    # group, and adding width * start orders it across groups, so one
    # searchsorted finds start[i] + (pos[i] - start[i] + 1) + c.
    width = 2 * size + 1
    base = start * width + (rows - pos + size)
    j = np.searchsorted(base[order], base[i] + k, side="right")
    j += k
    del k
    j += i
    j -= pos[i]
    out = np.empty((j.size, 3), dtype=np.int64)
    out[:, 0] = edges[i]
    del i
    out[:, 1] = edges[j]
    del j
    flip = rng.random(out.shape[0]) < 0.5
    out[flip, :2] = out[flip, 1::-1]
    del flip
    out[:, 2] = alpha[out[:, 0]] < alpha[out[:, 1]]
    return out


def make_eval_pairs(net, budget=None, seed=0):
    """All distinct-time edge pairs of a network, randomly oriented.

    Uses every edge whose formation time is known. Returns an (n, 3)
    int array of (a, b, y). budget caps the count by uniform
    subsampling.
    """
    known = np.flatnonzero(~np.isnan(net.alpha))
    if known.size < 2:
        raise EmptyPairs("need at least two edges with known times")
    pairs = _distinct_time_pairs(known, net.alpha, np.random.default_rng(seed), budget)
    if pairs.shape[0] == 0:
        raise EmptyPairs("all known formation times coincide")
    return pairs


def _inversions(perm):
    """Pairs i < j with perm[i] > perm[j], for a permutation of 0..n-1.

    A merge count run from the top bit down, as an MSD radix sort:
    before level k the values are grouped by their bits above k, each
    group in sequence order, and the group of values from g is the run
    starting at index g. Each pair split at bit k (a 1 before a 0 in
    its group) is an inversion; a stable partition of every group by
    bit k then sets up the next level. O(n log n) time, O(n) memory.
    """
    seq = np.asarray(perm, dtype=np.int64)
    idx = np.arange(seq.size)
    total = 0
    for k in range((seq.size - 1).bit_length() - 1, -1, -1):
        group = (seq >> (k + 1)) << (k + 1)
        bit = (seq >> k) & 1
        ones = np.cumsum(bit) - bit
        ones_before = ones - ones[group]
        zeros_before = idx - group - ones_before
        total += int(ones_before[bit == 0].sum())
        moved = np.empty_like(seq)
        moved[((seq >> k) << k) + np.where(bit == 1, ones_before, zeros_before)] = seq
        seq = moved
    return total


def all_pairs_accuracy(ordering, alpha):
    """Pairwise accuracy over every distinct-time pair, and their count.

    Equals pairwise_accuracy(ordering, make_eval_pairs(net)) without
    building the pairs: with edges sorted by (time, rank), the pairs
    the ordering gets wrong are exactly the inversions of the rank
    sequence (Knight 1966). Edges with unknown time are skipped.
    O(M log M) time, O(M) memory.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (ordering.edge_count,):
        raise DimensionMismatch("need one time per edge of the ordering")
    known = ~np.isnan(alpha)
    t = alpha[known]
    r = ordering.ranks[known]
    m = t.size
    if m < 2:
        raise EmptyPairs("need at least two edges with known times")
    _, pos, _, end = _tie_groups(t)
    pair_count = m * (m - 1) // 2 - int(np.sum(end - pos - 1))
    if pair_count == 0:
        raise EmptyPairs("all known formation times coincide")
    dense = np.empty(m, dtype=np.int64)
    dense[np.argsort(r)] = np.arange(m)
    wrong = _inversions(dense[np.lexsort((r, t))])
    return (pair_count - wrong) / pair_count, pair_count


def midranks(values):
    """Ranks 1..n with ties sharing their average position."""
    _, _, start, end = _tie_groups(np.asarray(values, dtype=np.float64))
    return 0.5 * (start + end - 1) + 1.0


def spearman_rho(x, y):
    """Rank correlation with midranks for ties."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch("inputs must be equal-length vectors")
    if x.size < 2:
        raise EmptyInput("need at least two observations")
    rx = midranks(x)
    ry = midranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateTruth("an input is constant; rank correlation undefined")
    return float(np.sum(dx * dy) / (sx * sy))


class BinRecord(NamedTuple):
    """Summary of predicted normalized ranks within one true-rank bin."""

    bin_index: int
    count: int
    median: float
    std: float
    reference: float


def _median(values):
    """Median of a non-empty 1-D array by np.median's arithmetic, without
    the numpy.ma import np.median makes on its first call."""
    s = np.sort(values)
    return float((s[(s.size - 1) // 2] + s[s.size // 2]) / 2)


def binned_trend(pred, truth, bins=TREND_BINS):
    """Median predicted rank per true-rank decile, and the trend RMSE.

    pred and truth are GlobalOrderings of the same edges. Ranks are
    normalized as (rank - 0.5) / M. Edges fall into `bins` groups by
    their true rank; for each group the median and spread of the
    predicted normalized ranks are recorded next to the group's
    reference (the median true normalized rank, i.e. the diagonal
    evaluated within the bin). The RMSE of median-vs-reference is 0
    exactly for a perfect ordering, for any M.
    """
    m = truth.edge_count
    if pred.edge_count != m:
        raise DimensionMismatch("orderings rank %d and %d edges" % (pred.edge_count, m))
    if m < bins:
        raise EmptyInput("need at least one edge per bin")
    norm_pred = (pred.ranks - 0.5) / m
    norm_true = (truth.ranks - 0.5) / m
    bin_idx = (truth.ranks - 1) * bins // m
    records = []
    devs = np.empty(bins)
    for b in range(bins):
        sel = bin_idx == b
        med = _median(norm_pred[sel])
        ref = _median(norm_true[sel])
        records.append(
            BinRecord(
                bin_index=b,
                count=int(sel.sum()),
                median=med,
                std=float(norm_pred[sel].std()),
                reference=ref,
            )
        )
        devs[b] = med - ref
    rmse = math.sqrt(float(np.mean(devs * devs)))
    return records, rmse


def _gini(degrees):
    deg = np.sort(degrees.astype(np.float64))
    n = deg.size
    total = deg.sum()
    if n == 0 or total == 0.0:
        return 0.0
    idx = np.arange(1, n + 1)
    return float((2.0 * np.sum(idx * deg) / (n * total)) - (n + 1.0) / n)


def degree_gini(net):
    """Gini coefficient of the degree sequence (0 when all equal)."""
    return _gini(net.degrees)


# Property of a prefix from its degrees and per-node triangle counts,
# and whether it needs the triangle counts.
_TRAJECTORY_PROPS = {
    "clustering": (lambda deg, tri: float(_clustering(deg, tri).mean()), True),
    "degree_gini": (lambda deg, tri: _gini(deg), False),
}

TRAJECTORY_PROPERTIES = tuple(sorted(_TRAJECTORY_PROPS))


def _cutoffs(m, samples):
    """Edges in the prefix at each of `samples` evenly spaced fractions.

    The same ceil(fraction * M) as graph.prefix_graph, so growth
    curves and hub curves cut at the same edges as prefix graphs.
    """
    return [math.ceil((k + 1) / samples * m) for k in range(samples)]


def _check_covers(net, *orderings):
    """Raise InvalidPermutation unless each ordering ranks net's M edges.

    A GlobalOrdering's ranks are a permutation of 1..M by construction,
    so its edge count is all that is left to check.
    """
    for ordering in orderings:
        if ordering.edge_count != net.edge_count:
            raise InvalidPermutation("ordering covers %d edges, network has %d"
                                     % (ordering.edge_count, net.edge_count))


def _replay(net, rank, samples, with_triangles):
    """Degrees and triangle counts of each prefix, cutoff by cutoff.

    Yields (degrees, triangle counts or None) of the prefix holding the
    edges of rank < c, for each c in _cutoffs; the arrays are updated
    in place, so each pair is valid until the next. A triangle is in a
    prefix exactly when its latest edge is, so it is born at the
    largest rank of its three edges. O(M + T) over the whole replay
    plus O(N) per cutoff, for T triangles.
    """
    n = net.node_count
    order = np.empty_like(rank)
    order[rank] = np.arange(rank.size)
    deg = np.zeros(n, dtype=np.int64)
    tri = None
    if with_triangles:
        found = net.triangle_list
        birth = rank[found.edges].max(axis=1)
        by_birth = np.argsort(birth, kind="stable")
        corners = found.nodes[by_birth]
        birth = birth[by_birth]
        tri = np.zeros(n, dtype=np.int64)
    done = born = 0
    for c in _cutoffs(rank.size, samples):
        deg += np.bincount(net.endpoints[order[done:c]].ravel(), minlength=n)
        done = c
        if with_triangles:
            upto = int(np.searchsorted(birth, c))
            tri += np.bincount(corners[born:upto].ravel(), minlength=n)
            born = upto
        yield deg, tri


def growth_curve(net, ordering, prop, samples=TRAJECTORY_SAMPLES):
    """Property of the prefix graph at `samples` evenly spaced fractions.

    The k-th value is the property of graph.prefix_graph(net,
    ordering.order, (k + 1) / samples), replayed from prefix degrees
    and triangle birth ranks without building it.
    """
    if prop not in _TRAJECTORY_PROPS:
        raise KeyError("unknown property %r" % (prop,))
    value, with_triangles = _TRAJECTORY_PROPS[prop]
    _check_covers(net, ordering)
    replay = _replay(net, ordering.ranks - 1, samples, with_triangles)
    return np.array([value(deg, tri) for deg, tri in replay], dtype=np.float64)


def _curve_nrmse(pred, truth, prop):
    span = float(truth.max() - truth.min())
    if span == 0.0:
        raise FlatTruthCurve("true %s curve has zero range" % prop)
    return float(np.sqrt(np.mean((pred - truth) ** 2)) / span)


def trajectory_nrmse(net, pred_ordering, true_ordering, prop, samples=TRAJECTORY_SAMPLES):
    """Range-normalized RMSE between replayed growth curves.

    Both orderings are replayed as growth_curve does and the chosen
    property is traced; the RMSE is divided by the range of the true
    curve. A flat true curve leaves the metric undefined.
    """
    truth = growth_curve(net, true_ordering, prop, samples)
    pred = growth_curve(net, pred_ordering, prop, samples)
    return _curve_nrmse(pred, truth, prop)


def _hub_curve(net, rank, hub, cutoffs):
    """Degree of a node in each prefix: its incident edges of rank < c."""
    incident = net.adj_edges[net.adj_indptr[hub]:net.adj_indptr[hub + 1]]
    positions = np.sort(rank[incident])
    return np.searchsorted(positions, cutoffs).astype(np.float64)


@dataclass(frozen=True)
class HubRadar:
    """Per-hub trajectory similarities and their radar polygon area."""

    hubs: np.ndarray
    nrmse: np.ndarray
    similarity: np.ndarray
    area: float


def hub_radar(net, pred_ordering, true_ordering, top_k=RADAR_TOP_K,
              samples=TRAJECTORY_SAMPLES):
    """Degree-growth similarity of the top-degree hubs, as a radar area.

    For each of the top_k highest-degree nodes (ties broken by
    ascending id) the degree trajectory under both orderings is
    compared by range-normalized RMSE and mapped to a similarity
    s = 1 / (1 + NRMSE). The radar area is the polygon area of the
    similarities placed on equally spaced spokes. Perfect recovery
    gives s = 1 on every spoke and area (K/2) sin(2 pi / K).

    A hub whose true curve is flat falls back to a unit range (degrees
    are integers, so 1 is the smallest nonzero swing).
    """
    if not 3 <= top_k <= net.node_count:
        raise EmptyInput("top_k must lie in [3, node_count]")
    deg = net.degrees
    hubs = np.lexsort((np.arange(net.node_count), -deg))[:top_k]
    cutoffs = _cutoffs(net.edge_count, samples)
    _check_covers(net, pred_ordering, true_ordering)
    true_rank = true_ordering.ranks - 1
    pred_rank = pred_ordering.ranks - 1
    nrmse = np.empty(top_k)
    for idx, hub in enumerate(hubs):
        truth = _hub_curve(net, true_rank, hub, cutoffs)
        pred = _hub_curve(net, pred_rank, hub, cutoffs)
        span = float(truth.max() - truth.min())
        if span == 0.0:
            span = 1.0
        nrmse[idx] = float(np.sqrt(np.mean((pred - truth) ** 2)) / span)
    sim = 1.0 / (1.0 + nrmse)
    area = 0.5 * math.sin(2.0 * math.pi / top_k) * float(
        np.sum(sim * np.roll(sim, -1))
    )
    return HubRadar(hubs=hubs, nrmse=nrmse, similarity=sim, area=float(area))


class FeatureTimeCorrelation(NamedTuple):
    """Per-column rank correlation with formation time."""

    values: dict
    degenerate: frozenset


def feature_time_correlation(fm, alphas):
    """Rank correlation of every feature column with formation time.

    Rows with unknown time are skipped. Constant columns are reported
    as 0 and flagged rather than failing.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.shape != (fm.edge_count,):
        raise DimensionMismatch("alpha length != edge count")
    mask = ~np.isnan(alphas)
    if mask.sum() < 2:
        raise EmptyInput("need at least two timed edges")
    t = alphas[mask]
    if np.all(t == t[0]):
        raise DegenerateTruth("all formation times coincide")
    values = {}
    degenerate = set()
    for k, name in enumerate(fm.columns):
        col = fm.values[mask, k]
        if np.all(col == col[0]):
            values[name] = 0.0
            degenerate.add(name)
        else:
            values[name] = spearman_rho(col, t)
    return FeatureTimeCorrelation(values=values, degenerate=frozenset(degenerate))


def evaluation_report(net, ordering, pair_budget=None, seed=0, feature_matrix=None,
                      samples=TRAJECTORY_SAMPLES, top_k=RADAR_TOP_K, bins=TREND_BINS):
    """Bundle every ordering metric into one JSON-friendly dict.

    Needs fully timed edges for the ground-truth comparison. Trajectory
    metrics that are undefined on this network (flat true curve) are
    reported as null with a note instead of failing the whole report.
    The growth curves behind them are returned under growth_curves,
    keyed <property>_predicted and <property>_true.
    """
    if bins < 1 or samples < 1:
        raise EmptyInput("bins and samples must be >= 1")
    _check_covers(net, ordering)
    truth = ground_truth_ordering(net.alpha)
    if pair_budget is None:
        accuracy, pair_count = all_pairs_accuracy(ordering, net.alpha)
    else:
        eval_pairs = make_eval_pairs(net, budget=pair_budget, seed=seed)
        accuracy = pairwise_accuracy(ordering, eval_pairs)
        pair_count = len(eval_pairs)
    records, trend_rmse = binned_trend(ordering, truth, bins=bins)
    report = {
        "edge_count": int(net.edge_count),
        "pair_count": int(pair_count),
        "pairwise_accuracy": accuracy,
        "spearman_rho": spearman_rho(ordering.ranks, net.alpha),
        "binned_trend": {
            "definition": "median_vs_in_bin_diagonal",
            "bins": [r._asdict() for r in records],
            "rmse": trend_rmse,
        },
        "trajectory_nrmse": {},
        "growth_curves": {},
    }
    for prop in _TRAJECTORY_PROPS:
        true_curve = growth_curve(net, truth, prop, samples)
        pred_curve = growth_curve(net, ordering, prop, samples)
        report["growth_curves"][prop + "_true"] = true_curve.tolist()
        report["growth_curves"][prop + "_predicted"] = pred_curve.tolist()
        try:
            report["trajectory_nrmse"][prop] = _curve_nrmse(
                pred_curve, true_curve, prop
            )
        except FlatTruthCurve as exc:
            report["trajectory_nrmse"][prop] = None
            report.setdefault("notes", []).append(str(exc))
    radar = hub_radar(net, ordering, truth, top_k=top_k, samples=samples)
    report["hub_radar"] = {
        "hubs": radar.hubs.tolist(),
        "nrmse": radar.nrmse.tolist(),
        "similarity": radar.similarity.tolist(),
        "area": radar.area,
        "perfect_area": 0.5 * top_k * math.sin(2.0 * math.pi / top_k),
    }
    if feature_matrix is not None:
        corr = feature_time_correlation(feature_matrix, net.alpha)
        report["feature_time_correlation"] = {
            "values": corr.values,
            "degenerate": sorted(corr.degenerate),
        }
    return report
