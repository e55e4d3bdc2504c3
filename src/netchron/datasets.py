"""Temporal-network ingestion, synthetic generators, and label splits.

The on-disk format is a tab-separated edge list `u<TAB>v<TAB>t` where
`t` is a raw formation time or the literal `?` when unknown; `#` lines
are comments. Synthetic generators grow networks with a known, fully
labeled formation order so recovered orderings can be scored exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import BadSpec, EmptyInput, InsufficientLabels, ParseError
from .graph import build_network
from .serialize import format_float


class SynthKind(str, Enum):
    PREFERENTIAL_ATTACHMENT = "pa"
    RANDOM_GROWTH = "random"
    ER_SHUFFLED = "er"


@dataclass(frozen=True)
class SynthSpec:
    """Generator request: kind, node count, edges per new node, seed.

    For the shuffled static graph, `edges_per_node * node_count` total
    edges are drawn.
    """

    kind: SynthKind
    node_count: int
    edges_per_node: int
    seed: int = 0

    def validated(self):
        if self.edges_per_node < 1 or self.node_count < self.edges_per_node + 1:
            raise BadSpec(
                "need node_count >= edges_per_node + 1 >= 2, got N=%d m=%d"
                % (self.node_count, self.edges_per_node)
            )
        return self


def load_edge_list(path):
    """Parse a TSV edge list into a TemporalNetwork.

    Duplicate (u, v) lines keep their first occurrence. Node count is
    one past the largest id seen. Unknown times (`?` or `nan`) stay
    unlabeled; an infinite time is a ParseError.
    """
    entries = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(
                    "%s:%d: expected 3 tab-separated fields, got %d"
                    % (path, lineno, len(parts))
                )
            try:
                u = int(parts[0])
                v = int(parts[1])
            except ValueError:
                raise ParseError(
                    "%s:%d: node ids must be integers" % (path, lineno)
                ) from None
            if u < 0 or v < 0:
                raise ParseError("%s:%d: node ids must be >= 0" % (path, lineno))
            if parts[2] == "?":
                t = None
            else:
                try:
                    t = float(parts[2])
                except ValueError:
                    raise ParseError(
                        "%s:%d: time must be a number or '?'" % (path, lineno)
                    ) from None
                if math.isinf(t):
                    raise ParseError(
                        "%s:%d: time must be finite, got %r" % (path, lineno, t)
                    )
                if math.isnan(t):
                    t = None
            entries.append((u, v, t))
    if not entries:
        raise EmptyInput("no edges in %s" % path)
    seen = set()
    edges = []
    times = []
    for u, v, t in entries:
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        edges.append((u, v))
        times.append(t)
    node_count = max(max(u, v) for u, v in edges) + 1
    return build_network(node_count, edges, times)


def write_edge_list(net, path):
    """Write the canonical TSV form: normalized endpoints and times."""
    with open(path, "w") as fh:
        for k, (u, v) in enumerate(net.edges):
            if net.labeled_mask[k] and not math.isnan(net.alpha[k]):
                t = format_float(net.alpha[k])
            else:
                t = "?"
            fh.write("%d\t%d\t%s\n" % (u, v, t))


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
    spec = spec.validated()
    if spec.kind in (SynthKind.PREFERENTIAL_ATTACHMENT, SynthKind.RANDOM_GROWTH):
        edges = _grow_attached(
            spec, degree_biased=spec.kind is SynthKind.PREFERENTIAL_ATTACHMENT
        )
    else:
        n = spec.node_count
        total = n * (n - 1) // 2
        count = spec.edges_per_node * n
        if count > total:
            raise BadSpec(
                "cannot place %d distinct edges on %d nodes" % (count, n)
            )
        rng = np.random.default_rng(spec.seed)
        picked = rng.choice(total, size=count, replace=False)
        pairs = [_pair_from_index(int(t), n) for t in picked]
        order = rng.permutation(count)
        edges = [pairs[k] for k in order]
    return build_network(spec.node_count, edges, times=range(len(edges)))


def split_labels(net, fraction, seed, stratified=False):
    """Keep a uniform random ceil(fraction * M) of the labels visible.

    All formation times stay stored for evaluation; only labeled_mask
    changes. stratified=True balances the picks across ten time
    deciles instead of sampling edge-uniformly.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1), got %r" % (fraction,))
    known = np.flatnonzero(~np.isnan(net.alpha))
    count = math.ceil(fraction * net.edge_count)
    if count > known.size:
        raise InsufficientLabels(
            "need %d labeled edges but only %d have known times"
            % (count, known.size)
        )
    rng = np.random.default_rng(seed)
    if not stratified:
        chosen = rng.choice(known, size=count, replace=False)
    else:
        by_time = known[np.lexsort((known, net.alpha[known]))]
        strata = np.array_split(by_time, 10)
        quotas = [len(s) * count / known.size for s in strata if len(s)]
        strata = [s for s in strata if len(s)]
        base = [int(q) for q in quotas]
        remainder = count - sum(base)
        # Largest fractional remainders absorb the leftover picks.
        frac_order = np.argsort([-(q - int(q)) for q in quotas], kind="stable")
        for k in range(remainder):
            base[frac_order[k]] += 1
        chosen = np.concatenate(
            [
                rng.choice(s, size=min(b, len(s)), replace=False)
                for s, b in zip(strata, base)
            ]
        )
    mask = np.zeros(net.edge_count, dtype=bool)
    mask[chosen] = True
    return replace(net, labeled_mask=mask)
