"""Global edge ordering from per-edge scores.

The global order sorts per-edge scalar scores descending, with
ascending edge index breaking ties. The Borda count of the softmax
pairwise matrix, the row sum of sigma(z_i - z_j), is strictly
increasing in z_i, so the sort gives the order a Borda aggregation of
that matrix would, in O(M log M) time and O(M) memory.

Also here: the closed-form expected error of recovering a total order
from independently flipped pairwise comparisons, and its Monte Carlo
counterpart used to validate the formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoverageError,
    DegenerateTruth,
    EmptyInput,
    InvalidPermutation,
    NumericalError,
    OutOfDomain,
    ParseError,
)
from .serialize import INT64, read_table, write_table

ORDERING_HEADER = "edge_index,u,v,borda_score,rank"
# Pairwise comparisons per block of monte_carlo_error's draws.
MC_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class GlobalOrdering:
    """A total order over edges.

    borda_scores holds one score per edge, the ordering file's
    borda_score column; ranks is the 1-based rank position of each edge
    (1 = earliest); order lists edge indices earliest first. Descending
    score with ascending index tie-break, ranks, and order are mutually
    consistent by construction. Ranks that are not a permutation of
    1..M, one per score, raise InvalidPermutation, so every ordering is
    a valid one.
    """

    borda_scores: np.ndarray
    ranks: np.ndarray

    def __post_init__(self):
        m = len(self.borda_scores)
        ranks = np.asarray(self.ranks)
        if ranks.shape != (m,) or not np.array_equal(np.sort(ranks), np.arange(1, m + 1)):
            raise InvalidPermutation("ranks are not a permutation of 1..%d" % m)
        object.__setattr__(self, "ranks", ranks.astype(np.int64, copy=False))

    @property
    def edge_count(self):
        return len(self.ranks)

    @property
    def order(self):
        """Edge indices sorted earliest to latest."""
        return np.argsort(self.ranks, kind="stable")


def _ordering_from_scores(scores):
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise EmptyInput("need a non-empty score vector")
    m = scores.size
    # lexsort: last key is primary. Descending score, then ascending index.
    order = np.lexsort((np.arange(m), -scores))
    ranks = np.empty(m, dtype=np.int64)
    ranks[order] = np.arange(1, m + 1)
    return GlobalOrdering(borda_scores=scores, ranks=ranks)


def order_from_scores(scores):
    """Global order from per-edge scalar scores, by sorting them.

    The order equals a Borda aggregation of the softmax pairwise
    matrix of the scores; borda_scores holds the scores themselves.
    A NaN or infinite score raises NumericalError.
    """
    z = np.array(scores, dtype=np.float64)
    if not np.isfinite(z).all():
        raise NumericalError("cannot order edges: a score is NaN or infinite")
    return _ordering_from_scores(z)


def ground_truth_ordering(alphas):
    """Order edges by ascending formation time, index breaking ties.

    All times must be known; earliest edge gets rank 1.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.ndim != 1 or alphas.size == 0:
        raise EmptyInput("need a non-empty time vector")
    if np.isnan(alphas).any():
        raise DegenerateTruth("ground truth has unknown times")
    return _ordering_from_scores(-alphas)


@dataclass(frozen=True)
class TheoryPoint:
    """Expected normalized rank RMSE at accuracy p with M edges."""

    accuracy: float
    edge_count: int
    expected_error: float


def theoretical_error(p, m):
    """Closed-form expected recovery error for pairwise accuracy p.

    Valid for p in (0.5, 1]; diverges as p approaches 1/2. Scales as
    1 / sqrt(M).
    """
    if not 0.5 < p <= 1.0:
        raise OutOfDomain("pairwise accuracy must lie in (0.5, 1], got %r" % (p,))
    if m < 2:
        raise OutOfDomain("need at least two edges, got %r" % (m,))
    spread = math.sqrt(p * (1.0 - p)) / (2.0 * p - 1.0)
    return TheoryPoint(
        accuracy=float(p),
        edge_count=int(m),
        expected_error=spread / math.sqrt(m),
    )


def monte_carlo_error(p, m, trials, seed=0):
    """Empirical counterpart of theoretical_error.

    Each trial flips every pairwise comparison independently with
    probability 1 - p, aggregates wins per edge, sorts by the win
    average with random tie-breaks, and measures the RMSE between
    recovered and true normalized positions. Returns the mean over
    trials. The comparisons are drawn and counted block by block, so
    memory is O(m + MC_CHUNK), not O(m^2).
    """
    if not 0.5 < p <= 1.0:
        raise OutOfDomain("pairwise accuracy must lie in (0.5, 1], got %r" % (p,))
    if m < 2:
        raise OutOfDomain("need at least two edges, got %r" % (m,))
    if trials < 1:
        raise OutOfDomain("need at least one trial")
    rng = np.random.default_rng(seed)
    true_pos = np.arange(1, m + 1)
    total = 0.0
    for _ in range(trials):
        # True order is 0 < 1 < ... < m-1. Edge i beats j (i < j) with
        # probability p, one draw per pair in upper-triangle order (row
        # i, then column j > i), taken in blocks of about MC_CHUNK pairs.
        wins = np.zeros(m, dtype=np.int64)
        lo = 0
        while lo < m - 1:
            hi = min(m - 1, lo + max(1, MC_CHUNK // (m - 1 - lo)))
            i = np.arange(lo, hi)
            partners = m - 1 - i
            rows = np.repeat(i, partners)
            # Row i's k-th pair, at block offset start_i + k, is column i + 1 + k.
            cols = np.arange(rows.size)
            cols -= np.repeat(np.cumsum(partners) - partners - i - 1, partners)
            correct = rng.random(rows.size) < p
            wins += np.bincount(rows[correct], minlength=m)
            wins += np.bincount(cols[~correct], minlength=m)
            lo = hi
        avg = wins / (m - 1.0)
        tie_break = rng.random(m)
        recovered = np.lexsort((tie_break, -avg))
        ranks = np.empty(m, dtype=np.int64)
        ranks[recovered] = true_pos
        total += math.sqrt(np.mean((ranks - true_pos) ** 2)) / m
    return total / trials


def write_ordering(ordering, net, path):
    """CSV of the global order: edge_index,u,v,borda_score,rank.

    Rows are emitted in edge-index order with repr-exact scores, so a
    rewrite of the same ordering is byte-identical.
    """
    if ordering.edge_count != net.edge_count:
        raise CoverageError(
            "ordering covers %d edges, graph has %d"
            % (ordering.edge_count, net.edge_count)
        )
    rows = zip(range(net.edge_count), net.endpoints[:, 0].tolist(),
               net.endpoints[:, 1].tolist(), ordering.borda_scores.tolist(),
               ordering.ranks.tolist())
    write_table(path, ORDERING_HEADER, rows)


def load_ordering(path, net):
    """Read an ordering CSV back, validating it against a graph.

    Every edge of the graph must appear exactly once with matching
    endpoints (CoverageError otherwise), ranks must form a permutation
    of 1..M consistent with the stored scores, and fields must parse
    (scores as finite floats).
    """
    scores = np.full(net.edge_count, np.nan)
    ranks = np.zeros(net.edge_count, dtype=np.int64)
    seen = np.zeros(net.edge_count, dtype=bool)
    edges = net.endpoints.tolist()
    for lineno, fields in read_table(path, ORDERING_HEADER, 5):
        try:
            k, u, v, rank = (int(fields[j]) for j in (0, 1, 2, 4))
            score = float(fields[3])
        except ValueError as exc:
            raise ParseError("%s:%d: %s" % (path, lineno, exc)) from None
        if not all(x in INT64 for x in (k, u, v, rank)):
            raise ParseError("%s:%d: integer field outside int64" % (path, lineno))
        if not math.isfinite(score):
            raise ParseError(
                "%s:%d: score %s is not finite" % (path, lineno, fields[3])
            )
        if not 0 <= k < net.edge_count:
            raise CoverageError(
                "%s:%d: edge index %d outside 0..%d"
                % (path, lineno, k, net.edge_count - 1)
            )
        if seen[k]:
            raise CoverageError("%s:%d: duplicate edge index %d" % (path, lineno, k))
        if edges[k] != [min(u, v), max(u, v)]:
            raise CoverageError(
                "%s:%d: endpoints (%d, %d) do not match graph edge %d"
                % (path, lineno, u, v, k)
            )
        seen[k] = True
        scores[k] = score
        ranks[k] = rank
    if not seen.all():
        raise CoverageError(
            "ordering covers %d of %d edges" % (int(seen.sum()), net.edge_count)
        )
    rebuilt = _ordering_from_scores(scores)
    if not np.array_equal(rebuilt.ranks, ranks):
        raise ParseError("rank column inconsistent with scores in %s" % path)
    return rebuilt
