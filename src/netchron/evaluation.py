"""Metrics for recovered edge orderings.

Rank-level agreement (pairwise accuracy, rank correlation with
midranks for ties), a binned trend of predicted against true
normalized ranks, growth-trajectory comparisons replayed through
prefix graphs, a hub-centric radar score, and per-feature rank
correlations with formation time.
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
from .graph import average_clustering, prefix_graph

TREND_BINS = 10
TRAJECTORY_SAMPLES = 50
RADAR_TOP_K = 5


def _ranks_of(ordering_or_ranks):
    ranks = getattr(ordering_or_ranks, "ranks", ordering_or_ranks)
    return np.asarray(ranks, dtype=np.float64)


def pairwise_accuracy(ordering, pairs):
    """Fraction of supervised pairs the ordering gets right.

    pairs is an (n, 3) array-like of (edge a, edge b, y) with y = 1
    when edge a truly formed before edge b.
    """
    arr = np.asarray(pairs)
    if arr.size == 0:
        raise EmptyPairs("no pairs to evaluate")
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise DimensionMismatch("pairs must be (n, 3)")
    ranks = _ranks_of(ordering)
    a = arr[:, 0].astype(np.int64)
    b = arr[:, 1].astype(np.int64)
    y = arr[:, 2].astype(np.int64)
    predicted_before = ranks[a] < ranks[b]
    return float(np.mean(predicted_before == (y == 1)))


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


def _distinct_time_pairs(edges, alpha, rng, budget=None):
    """Randomly oriented pairs of the given edges with distinct times.

    Pairs are indexed in upper-triangle order over positions in
    `edges` (row i, then column j > i), skipping pairs with equal
    formation times. When their number exceeds `budget`, a uniform
    subsample of that many indices is drawn from rng; otherwise all are
    kept. Each index is then unranked to its (row, column) pair without
    enumerating the others, and each pair is swapped with probability
    1/2, drawn from rng after the subsample. Time and memory are
    O(L log L + n) for L edges and n pairs returned. Returns an (n, 3)
    int array of (a, b, y), y = 1 when edge a formed first; n may be 0.
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
        k = np.sort(rng.choice(total, size=budget, replace=False))
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
    j += i - pos[i]
    a, b = edges[i], edges[j]
    del i, j, k  # free the index arrays before the orientation draws
    flip = rng.random(a.size) < 0.5
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    return np.column_stack([a, b, (alpha[a] < alpha[b]).astype(np.int64)])


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
    sequence (Knight 1966). Edges with unknown time are skipped; the
    ranks of the rest must be distinct. O(M log M) time, O(M) memory.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    ranks = _ranks_of(ordering)
    if ranks.shape != alpha.shape or ranks.ndim != 1:
        raise DimensionMismatch("ranks and times must be equal-length vectors")
    known = ~np.isnan(alpha)
    t = alpha[known]
    r = ranks[known]
    m = t.size
    if m < 2:
        raise EmptyPairs("need at least two edges with known times")
    _, pos, _, end = _tie_groups(t)
    pair_count = m * (m - 1) // 2 - int(np.sum(end - pos - 1))
    if pair_count == 0:
        raise EmptyPairs("all known formation times coincide")
    by_rank = np.argsort(r, kind="stable")
    if np.any(r[by_rank][1:] == r[by_rank][:-1]):
        raise InvalidPermutation("predicted ranks must be distinct")
    dense = np.empty(m, dtype=np.int64)
    dense[by_rank] = np.arange(m)
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


def binned_trend(pred_ranks, true_ranks, bins=TREND_BINS):
    """Median predicted rank per true-rank decile, and the trend RMSE.

    Ranks are normalized as (rank - 0.5) / M. Edges fall into `bins`
    groups by their true rank; for each group the median and spread of
    the predicted normalized ranks are recorded next to the group's
    reference (the median true normalized rank, i.e. the diagonal
    evaluated within the bin). The RMSE of median-vs-reference is 0
    exactly for a perfect ordering, for any M.
    """
    pred = np.asarray(pred_ranks, dtype=np.float64)
    true = np.asarray(true_ranks, dtype=np.float64)
    if pred.shape != true.shape or pred.ndim != 1:
        raise DimensionMismatch("rank vectors must have equal length")
    m = pred.size
    if m < bins:
        raise EmptyInput("need at least one edge per bin")
    if not np.array_equal(np.sort(true), np.arange(1, m + 1)):
        raise DegenerateTruth("true ranks must be a permutation of 1..M")
    norm_pred = (pred - 0.5) / m
    norm_true = (true - 0.5) / m
    bin_idx = ((true - 1.0) * bins // m).astype(np.int64)
    records = []
    devs = np.empty(bins)
    for b in range(bins):
        sel = bin_idx == b
        med = float(np.median(norm_pred[sel]))
        ref = float(np.median(norm_true[sel]))
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


def degree_gini(net):
    """Gini coefficient of the degree sequence (0 when all equal)."""
    deg = np.sort(net.degrees.astype(np.float64))
    n = deg.size
    total = deg.sum()
    if n == 0 or total == 0.0:
        return 0.0
    idx = np.arange(1, n + 1)
    return float((2.0 * np.sum(idx * deg) / (n * total)) - (n + 1.0) / n)


_TRAJECTORY_PROPS = {
    "clustering": average_clustering,
    "degree_gini": degree_gini,
}

TRAJECTORY_PROPERTIES = tuple(sorted(_TRAJECTORY_PROPS))


def growth_curve(net, ordering, prop, samples=TRAJECTORY_SAMPLES):
    """Property of the prefix graph at `samples` evenly spaced fractions."""
    if prop not in _TRAJECTORY_PROPS:
        raise KeyError("unknown property %r" % (prop,))
    fn = _TRAJECTORY_PROPS[prop]
    order = ordering.order if hasattr(ordering, "order") else np.asarray(ordering)
    out = np.empty(samples)
    for k in range(samples):
        fraction = (k + 1) / samples
        out[k] = fn(prefix_graph(net, order, fraction))
    return out


def _curve_nrmse(pred, truth, prop):
    span = float(truth.max() - truth.min())
    if span == 0.0:
        raise FlatTruthCurve("true %s curve has zero range" % prop)
    return float(np.sqrt(np.mean((pred - truth) ** 2)) / span)


def trajectory_nrmse(net, pred_ordering, true_ordering, prop, samples=TRAJECTORY_SAMPLES):
    """Range-normalized RMSE between replayed growth curves.

    Both orderings are replayed through prefix graphs and the chosen
    property is traced; the RMSE is divided by the range of the true
    curve. A flat true curve leaves the metric undefined.
    """
    truth = growth_curve(net, true_ordering, prop, samples)
    pred = growth_curve(net, pred_ordering, prop, samples)
    return _curve_nrmse(pred, truth, prop)


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
    m = net.edge_count
    cutoffs = np.array([math.ceil((k + 1) / samples * m) for k in range(samples)])

    def hub_curve(ordering, hub):
        ranks = _ranks_of(ordering)
        incident = [
            k for k, (a, b) in enumerate(net.edges) if a == hub or b == hub
        ]
        positions = np.sort(ranks[incident])
        return np.searchsorted(positions, cutoffs, side="right").astype(np.float64)

    nrmse = np.empty(top_k)
    for idx, hub in enumerate(hubs):
        truth = hub_curve(true_ordering, hub)
        pred = hub_curve(pred_ordering, hub)
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


def feature_time_correlation(fm, alphas, mask=None):
    """Rank correlation of every feature column with formation time.

    Rows with unknown time are skipped (or pass an explicit boolean
    mask). Constant columns are reported as 0 and flagged rather than
    failing.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.shape != (fm.edge_count,):
        raise DimensionMismatch("alpha length != edge count")
    if mask is None:
        mask = ~np.isnan(alphas)
    mask = np.asarray(mask, dtype=bool)
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


def evaluation_report(net, ordering, eval_pairs=None, pair_budget=None, seed=0,
                      feature_matrix=None, samples=TRAJECTORY_SAMPLES,
                      top_k=RADAR_TOP_K, bins=TREND_BINS):
    """Bundle every ordering metric into one JSON-friendly dict.

    Needs fully timed edges for the ground-truth comparison. Trajectory
    metrics that are undefined on this network (flat true curve) are
    reported as null with a note instead of failing the whole report.
    The growth curves behind them are returned under growth_curves,
    keyed <property>_predicted and <property>_true.
    """
    from .ordering import ground_truth_ordering

    if bins < 1 or samples < 1:
        raise EmptyInput("bins and samples must be >= 1")
    truth = ground_truth_ordering(net.alpha)
    if eval_pairs is None and pair_budget is None:
        accuracy, pair_count = all_pairs_accuracy(ordering, net.alpha)
    else:
        if eval_pairs is None:
            eval_pairs = make_eval_pairs(net, budget=pair_budget, seed=seed)
        accuracy = pairwise_accuracy(ordering, eval_pairs)
        pair_count = np.asarray(eval_pairs).shape[0]
    pred_ranks = _ranks_of(ordering)
    records, trend_rmse = binned_trend(pred_ranks, truth.ranks, bins=bins)
    report = {
        "edge_count": int(net.edge_count),
        "pair_count": int(pair_count),
        "pairwise_accuracy": accuracy,
        "spearman_rho": spearman_rho(pred_ranks, net.alpha),
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
