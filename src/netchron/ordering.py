"""Global edge ordering from pairwise precedence probabilities.

A pairwise probability matrix is collapsed into one score per edge by
summing its rows (a Borda count); the global order sorts scores
descending with ascending edge index breaking ties. Per-edge scalar
scores are ordered by sorting them directly: the Borda row sum of
sigma(z_i - z_j) is strictly increasing in z_i, so the sort gives the
same order as aggregating the softmax pairwise matrix, in O(M log M)
time and O(M) memory.

Also here: the closed-form expected error of recovering a total order
from independently flipped pairwise comparisons, and its Monte Carlo
counterpart used to validate the formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    CoverageError,
    DegenerateTruth,
    EmptyInput,
    InconsistentMatrix,
    NumericalError,
    OutOfDomain,
    ParseError,
)
from .serialize import format_float

COMPLEMENT_TOL = 1e-9


class OrderingSource(str, Enum):
    FROM_MATRIX = "pairwise_matrix"
    FROM_SCORES = "edge_scores"
    GROUND_TRUTH = "ground_truth"


@dataclass(frozen=True, eq=False)
class GlobalOrdering:
    """A total order over edges.

    borda_scores holds one score per edge: the Borda row sums of a
    pairwise matrix, or the edge scores themselves when ordering by
    score (the ordering file's borda_score column); ranks is the
    1-based rank position of each edge (1 = earliest); order lists
    edge indices earliest first. Descending score with ascending index
    tie-break, ranks, and order are mutually consistent by
    construction.
    """

    borda_scores: np.ndarray
    ranks: np.ndarray
    source: OrderingSource

    @property
    def edge_count(self):
        return len(self.ranks)

    @property
    def order(self):
        """Edge indices sorted earliest to latest."""
        return np.argsort(self.ranks, kind="stable")


def _ordering_from_scores(scores, source):
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise EmptyInput("need a non-empty score vector")
    m = scores.size
    # lexsort: last key is primary. Descending score, then ascending index.
    order = np.lexsort((np.arange(m), -scores))
    ranks = np.empty(m, dtype=np.int64)
    ranks[order] = np.arange(1, m + 1)
    return GlobalOrdering(borda_scores=scores, ranks=ranks, source=source)


def borda_aggregate(pair_probs):
    """Collapse an M x M precedence-probability matrix to a global order.

    Entry (i, j) is the probability that edge i precedes edge j. The
    off-diagonal complement constraint P[i, j] + P[j, i] = 1 is
    validated; each edge's score is the sum of its row over all other
    edges.
    """
    p = np.asarray(pair_probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] == 0:
        raise EmptyInput("need a non-empty square matrix")
    gap = np.abs(p + p.T - 1.0)
    np.fill_diagonal(gap, 0.0)
    worst = float(gap.max()) if gap.size else 0.0
    if worst > COMPLEMENT_TOL:
        raise InconsistentMatrix(
            "complement violation up to %.3g exceeds %.1g" % (worst, COMPLEMENT_TOL)
        )
    scores = p.sum(axis=1) - np.diag(p)
    return _ordering_from_scores(scores, OrderingSource.FROM_MATRIX)


def order_from_scores(scores):
    """Global order from per-edge scalar scores, by sorting them.

    The order equals borda_aggregate applied to the softmax pairwise
    matrix of the scores; borda_scores holds the scores themselves.
    A NaN or infinite score raises NumericalError.
    """
    z = np.array(scores, dtype=np.float64)
    if not np.isfinite(z).all():
        raise NumericalError("cannot order edges: a score is NaN or infinite")
    return _ordering_from_scores(z, OrderingSource.FROM_SCORES)


def ground_truth_ordering(alphas):
    """Order edges by ascending formation time, index breaking ties.

    All times must be known; earliest edge gets rank 1.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.ndim != 1 or alphas.size == 0:
        raise EmptyInput("need a non-empty time vector")
    if np.isnan(alphas).any():
        raise DegenerateTruth("ground truth has unknown times")
    return _ordering_from_scores(-alphas, OrderingSource.GROUND_TRUTH)


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
    trials.
    """
    if not 0.5 < p <= 1.0:
        raise OutOfDomain("pairwise accuracy must lie in (0.5, 1], got %r" % (p,))
    if m < 2:
        raise OutOfDomain("need at least two edges, got %r" % (m,))
    if trials < 1:
        raise OutOfDomain("need at least one trial")
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(m, k=1)
    true_pos = np.arange(1, m + 1)
    total = 0.0
    for _ in range(trials):
        # True order is 0 < 1 < ... < m-1. Edge i beats j (i < j) with
        # probability p; a win for the earlier edge is recorded as 1.
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
    with open(path, "w") as fh:
        fh.write("edge_index,u,v,borda_score,rank\n")
        for k, (u, v) in enumerate(net.edges):
            fh.write(
                "%d,%d,%d,%s,%d\n"
                % (k, u, v, format_float(ordering.borda_scores[k]),
                   ordering.ranks[k])
            )


def load_ordering(path, net):
    """Read an ordering CSV back, validating it against a graph.

    Every edge of the graph must appear exactly once with matching
    endpoints (CoverageError otherwise), ranks must form a permutation
    of 1..M consistent with the stored scores, and fields must parse
    (scores as finite floats).
    Provenance is not persisted; loaded orderings are tagged as
    score-derived.
    """
    scores = np.full(net.edge_count, np.nan)
    ranks = np.zeros(net.edge_count, dtype=np.int64)
    seen = np.zeros(net.edge_count, dtype=bool)
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("edge_index"):
            raise ParseError("missing ordering header in %s" % path)
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ParseError(
                    "%s:%d: expected 5 fields, got %d" % (path, lineno, len(parts))
                )
            try:
                k = int(parts[0])
                u = int(parts[1])
                v = int(parts[2])
                score = float(parts[3])
                rank = int(parts[4])
            except ValueError as exc:
                raise ParseError("%s:%d: %s" % (path, lineno, exc)) from None
            if not math.isfinite(score):
                raise ParseError(
                    "%s:%d: score %s is not finite" % (path, lineno, parts[3])
                )
            if not 0 <= k < net.edge_count:
                raise CoverageError(
                    "%s:%d: edge index %d outside 0..%d"
                    % (path, lineno, k, net.edge_count - 1)
                )
            if seen[k]:
                raise CoverageError("%s:%d: duplicate edge index %d" % (path, lineno, k))
            if net.edges[k] != (min(u, v), max(u, v)):
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
    rebuilt = _ordering_from_scores(scores, OrderingSource.FROM_SCORES)
    if not np.array_equal(rebuilt.ranks, ranks):
        raise ParseError("rank column inconsistent with scores in %s" % path)
    return rebuilt
