"""Temporal-network ingestion and synthetic generators.

The on-disk format is a tab-separated edge list `u<TAB>v<TAB>t` where
`t` is a raw formation time or the literal `?` when unknown; `#` lines
are comments. Synthetic generators grow networks with a known, fully
labeled formation order so recovered orderings can be scored exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadSpec, EmptyInput, ParseError
from .graph import build_network
from .serialize import (INT64, coerce_fields, integer, kind_field, non_negative_integer,
                        read_table, write_table)


class SynthKind(str, Enum):
    PREFERENTIAL_ATTACHMENT = "pa"
    RANDOM_GROWTH = "random"
    ER_SHUFFLED = "er"


@dataclass(frozen=True)
class SynthSpec:
    """Generator request: kind, node count, edges per new node, seed.

    For the shuffled static graph, `edges_per_node * node_count` total
    edges are drawn. Building a spec coerces each field by its kind; a
    malformed value or an impossible request, such as a shuffled graph
    with more node pairs than int64 holds, raises BadSpec.
    """

    kind: SynthKind = kind_field(SynthKind)
    node_count: int = kind_field(integer)
    edges_per_node: int = kind_field(integer)
    seed: int = kind_field(non_negative_integer, 0)

    def __post_init__(self):
        coerce_fields(self, BadSpec)
        n, m = self.node_count, self.edges_per_node
        if m < 1 or n < m + 1:
            raise BadSpec(
                "need node_count >= edges_per_node + 1 >= 2, got N=%d m=%d" % (n, m)
            )
        if self.kind is SynthKind.ER_SHUFFLED:
            pairs = n * (n - 1) // 2
            if pairs not in INT64:
                raise BadSpec("%d nodes have more node pairs than int64 holds" % n)
            if m * n > pairs:
                raise BadSpec("cannot place %d distinct edges on %d nodes" % (m * n, n))


def load_edge_list(path):
    """Parse a TSV edge list into a TemporalNetwork.

    Duplicate (u, v) lines keep their first occurrence. Node count is
    one past the largest id seen. A largest id of 2 x (edge lines) or
    more is a ParseError naming its first line, raised before any array
    is sized. Unknown times (`?` or `nan`) stay unlabeled; an infinite
    time is a ParseError.
    """
    pairs = []
    times = []
    top, top_line = -1, 0
    for lineno, (a, b, t) in read_table(path, None, 3, sep="\t", comment="#"):
        try:
            u = int(a)
            v = int(b)
        except ValueError:
            raise ParseError(
                "%s:%d: node ids must be integers" % (path, lineno)
            ) from None
        if u < 0 or v < 0:
            raise ParseError("%s:%d: node ids must be >= 0" % (path, lineno))
        if t == "?":
            t = math.nan
        else:
            try:
                t = float(t)
            except ValueError:
                raise ParseError(
                    "%s:%d: time must be a number or '?'" % (path, lineno)
                ) from None
            if math.isinf(t):
                raise ParseError(
                    "%s:%d: time must be finite, got %r" % (path, lineno, t)
                )
        if max(u, v) > top:
            top, top_line = max(u, v), lineno
        pairs.append((u, v))
        times.append(t)
    if not pairs:
        raise EmptyInput("no edges in %s" % path)
    if top >= 2 * len(pairs):
        raise ParseError(
            "%s:%d: node id %d is not below 2 x %d edge lines"
            % (path, top_line, top, len(pairs))
        )
    ends = np.array(pairs, dtype=np.int64)
    node_count = top + 1
    keys = ends.min(axis=1) * node_count + ends.max(axis=1)
    first = np.sort(np.unique(keys, return_index=True)[1])
    return build_network(node_count, ends[first], np.array(times)[first])


def write_edge_list(net, path):
    """Write the canonical TSV form: normalized endpoints and times."""
    times = ["?" if math.isnan(t) else t for t in net.alpha.tolist()]
    rows = zip(net.endpoints[:, 0].tolist(), net.endpoints[:, 1].tolist(), times)
    write_table(path, None, rows, sep="\t")


def dataset_stats(net):
    """Table-style summary: sizes and time-distinguishability counts.

    distinguishable_pairs counts edge pairs whose known times differ;
    pairs touching an unknown time never count.
    """
    m = net.edge_count
    known = net.alpha[~np.isnan(net.alpha)]
    _, group_sizes = (
        np.unique(known, return_counts=True) if known.size else (None, np.array([]))
    )
    known_pairs = known.size * (known.size - 1) // 2
    tied = int(sum(c * (c - 1) // 2 for c in group_sizes))
    distinct_pairs = int(known_pairs - tied)
    all_pairs = m * (m - 1) // 2
    return {
        "node_count": int(net.node_count),
        "edge_count": int(m),
        "distinct_times": int(len(group_sizes)),
        "distinguishable_pairs": distinct_pairs,
        "distinguishable_fraction": (
            distinct_pairs / all_pairs if all_pairs else 0.0
        ),
    }


def _grow_attached(spec, degree_biased):
    """Sequential growth; each arrival attaches to existing nodes."""
    rng = np.random.default_rng(spec.seed)
    edges = [(0, 1)]
    # Nodes repeated by degree; sampling an entry is degree-biased.
    repeated = [0, 1]
    for v in range(2, spec.node_count):
        cap = min(spec.edges_per_node, v)
        targets = set()
        while len(targets) < cap:
            if degree_biased:
                targets.add(int(repeated[rng.integers(len(repeated))]))
            else:
                targets.add(int(rng.integers(v)))
        for t in sorted(targets):
            edges.append((t, v))
            repeated.append(t)
            repeated.append(v)
    return edges


def _pair_from_index(t, n):
    """Decode linear index t into the t-th pair (i, j), i < j, row-major."""

    def before_row(i):
        return i * (2 * n - i - 1) // 2

    i = int((2 * n - 1 - math.sqrt((2 * n - 1) ** 2 - 8 * t)) // 2)
    while before_row(i + 1) <= t:
        i += 1
    while before_row(i) > t:
        i -= 1
    j = t - before_row(i) + i + 1
    return i, j


def generate_synthetic(spec):
    """Grow a fully labeled temporal network from a SynthSpec.

    Preferential attachment and uniform random growth add nodes one at
    a time, each new node attaching edges_per_node distinct targets
    (degree-biased or uniform); each edge's raw time is its insertion
    step. The shuffled static variant samples distinct pairs of a
    fixed node set and assigns a random formation order.
    """
    if spec.kind in (SynthKind.PREFERENTIAL_ATTACHMENT, SynthKind.RANDOM_GROWTH):
        edges = _grow_attached(
            spec, degree_biased=spec.kind is SynthKind.PREFERENTIAL_ATTACHMENT
        )
    else:
        n = spec.node_count
        total = n * (n - 1) // 2
        count = spec.edges_per_node * n
        rng = np.random.default_rng(spec.seed)
        picked = rng.choice(total, size=count, replace=False)
        pairs = [_pair_from_index(int(t), n) for t in picked]
        order = rng.permutation(count)
        edges = [pairs[k] for k in order]
    return build_network(spec.node_count, edges, times=range(len(edges)))
