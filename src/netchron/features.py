"""Per-edge feature construction and normalization.

Two handcrafted blocks are built here: eighteen structural descriptors
of each edge's neighborhood and seven combinations of a steady-state
node observation at the edge's endpoints. Columns are named, carried
with the matrix, and normalized by min-max scaling followed by
standardization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, EmptyInput, FeatureSchemaMismatch, RowMismatch
from .graph import (
    edge_betweenness,
    four_cycle_counts,
    node_struct_stats,
    pagerank,
    triangles,
)
from .serialize import format_float

EPSILON = 1e-8
LOCAL_PATH_WEIGHT = 0.01

STRUCT_COLUMNS = (
    "deg_u",
    "deg_v",
    "deg_sum",
    "deg_prod",
    "deg_min",
    "deg_max",
    "clust_u",
    "clust_v",
    "common_neighbors",
    "jaccard",
    "adamic_adar",
    "resource_alloc",
    "edge_strength",
    "betweenness",
    "edge_clustering",
    "local_path",
    "pagerank_max",
    "core_min",
)

STATE_COLUMNS = (
    "state_u",
    "state_v",
    "state_sum",
    "state_absdiff",
    "state_prod",
    "state_ratio_uv",
    "state_ratio_vu",
)


class ColumnStats(NamedTuple):
    """Normalization statistics recorded per column."""

    min: float
    max: float
    mean: float
    std: float


class FeatureMode(str, Enum):
    """Which handcrafted blocks feed the ranker."""

    BOTH = "both"
    STRUCT_ONLY = "struct"
    STATE_ONLY = "state"


def _is_state_column(name):
    return name in STATE_COLUMNS or name.startswith("state_")


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Named per-edge feature columns.

    values is (M, d) float64 with one row per edge of `edges` (same
    order). column_stats and degenerate are populated by normalize().
    """

    edges: tuple
    columns: tuple
    values: np.ndarray
    column_stats: dict = field(default_factory=dict)
    degenerate: frozenset = frozenset()

    def __post_init__(self):
        if self.values.shape != (len(self.edges), len(self.columns)):
            raise DimensionMismatch(
                "values shape %r does not match %d edges x %d columns"
                % (self.values.shape, len(self.edges), len(self.columns))
            )
        if len(set(self.columns)) != len(self.columns):
            raise FeatureSchemaMismatch("duplicate column names")

    @property
    def edge_count(self):
        return len(self.edges)

    def column(self, name):
        try:
            k = self.columns.index(name)
        except ValueError:
            raise FeatureSchemaMismatch("no column named %r" % (name,)) from None
        return self.values[:, k]

    def select(self, names):
        """New matrix restricted to the given columns, in the given order."""
        idx = []
        for name in names:
            if name not in self.columns:
                raise FeatureSchemaMismatch("no column named %r" % (name,))
            idx.append(self.columns.index(name))
        kept = tuple(names)
        return FeatureMatrix(
            edges=self.edges,
            columns=kept,
            values=self.values[:, idx].copy(),
            column_stats={k: v for k, v in self.column_stats.items() if k in kept},
            degenerate=frozenset(n for n in self.degenerate if n in kept),
        )


def combine(*mats):
    """Concatenate feature blocks over the same edge list, column-wise."""
    if not mats:
        raise EmptyInput("nothing to combine")
    first = mats[0]
    for other in mats[1:]:
        if other.edges != first.edges:
            raise RowMismatch("feature blocks describe different edge lists")
    columns = tuple(c for m in mats for c in m.columns)
    if len(set(columns)) != len(columns):
        raise FeatureSchemaMismatch("duplicate column names across blocks")
    stats = {}
    degenerate = set()
    for m in mats:
        stats.update(m.column_stats)
        degenerate |= set(m.degenerate)
    return FeatureMatrix(
        edges=first.edges,
        columns=columns,
        values=np.hstack([m.values for m in mats]),
        column_stats=stats,
        degenerate=frozenset(degenerate),
    )


def structural_edge_features(net, stats=None, pagerank_values=None, betweenness=None):
    """Eighteen structural descriptors per edge.

    stats, pagerank_values, and betweenness may be precomputed and
    passed in; they must describe the same network.
    """
    if net.edge_count == 0:
        raise EmptyInput("network has no edges")
    if stats is None:
        stats = node_struct_stats(net)
    if pagerank_values is None:
        pagerank_values = pagerank(net).values
    if betweenness is None:
        betweenness = edge_betweenness(net)
    if len(pagerank_values) != net.node_count:
        raise DimensionMismatch("pagerank length != node count")
    if len(betweenness) != net.edge_count:
        raise DimensionMismatch("betweenness length != edge count")

    m = net.edge_count
    u = net.endpoints[:, 0]
    v = net.endpoints[:, 1]
    deg = stats.degree.astype(np.float64)
    clust = stats.clustering
    core = stats.coreness.astype(np.float64)

    deg_u = deg[u]
    deg_v = deg[v]
    # The common neighbours of an edge are the third nodes of its
    # triangles.
    tri = triangles(net)
    shared = tri.edges.ravel()
    third = deg[tri.nodes.ravel()]
    cn = np.bincount(shared, minlength=m).astype(np.float64)
    aa = np.bincount(shared, 1.0 / np.log(third + EPSILON), minlength=m)
    ra = np.bincount(shared, 1.0 / third, minlength=m)
    union = deg_u + deg_v - cn
    # Walks of length 3 from u to v: u-v-x-v, u-w-u-v (u-v-u-v counted
    # in both), and one per 4-cycle through the edge.
    lp = cn + LOCAL_PATH_WEIGHT * (deg_u + deg_v - 1.0 + four_cycle_counts(net))
    vals = np.column_stack(
        [
            deg_u,
            deg_v,
            deg_u + deg_v,
            deg_u * deg_v,
            np.minimum(deg_u, deg_v),
            np.maximum(deg_u, deg_v),
            clust[u],
            clust[v],
            cn,
            cn / (union + EPSILON),
            aa,
            ra,
            cn / (deg_u + deg_v - 2.0 - cn + EPSILON),
            np.asarray(betweenness, dtype=np.float64),
            cn / np.maximum(np.minimum(deg_u - 1.0, deg_v - 1.0), 1.0),
            lp,
            np.maximum(pagerank_values[u], pagerank_values[v]),
            np.minimum(core[u], core[v]),
        ]
    )
    return FeatureMatrix(edges=net.edges, columns=STRUCT_COLUMNS, values=vals)


def steady_state_edge_features(net, state_values):
    """Seven endpoint combinations of a per-node steady-state value."""
    if net.edge_count == 0:
        raise EmptyInput("network has no edges")
    state = np.asarray(state_values, dtype=np.float64)
    if state.shape != (net.node_count,):
        raise DimensionMismatch(
            "state has shape %r, expected (%d,)" % (state.shape, net.node_count)
        )
    xu = state[net.endpoints[:, 0]]
    xv = state[net.endpoints[:, 1]]
    vals = np.column_stack(
        [
            xu,
            xv,
            xu + xv,
            np.abs(xu - xv),
            xu * xv,
            xu / (xv + EPSILON),
            xv / (xu + EPSILON),
        ]
    )
    return FeatureMatrix(edges=net.edges, columns=STATE_COLUMNS, values=vals)


def standardize_columns(values):
    """Min-max scale each column to [0, 1], then standardize.

    Returns (transformed, stats list, degenerate column indices).
    Constant columns come out as all zeros and are flagged.
    """
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    stats = []
    degenerate = []
    for k in range(values.shape[1]):
        col = values[:, k]
        cmin = float(col.min())
        cmax = float(col.max())
        scaled = (col - cmin) / (cmax - cmin + EPSILON)
        mu = float(scaled.mean())
        sd = float(scaled.std())
        if cmax == cmin or sd == 0.0:
            out[:, k] = 0.0
            degenerate.append(k)
            stats.append(ColumnStats(cmin, cmax, mu, 0.0))
        else:
            out[:, k] = (scaled - mu) / sd
            stats.append(ColumnStats(cmin, cmax, mu, sd))
    return out, stats, degenerate


def normalize(fm):
    """Column-wise min-max plus standardization of a feature matrix.

    Needs at least two rows. Constant columns become zeros and are
    listed in the result's `degenerate` set rather than failing.
    """
    if fm.edge_count < 2:
        raise ValueError("normalization needs at least two edges")
    out, stats, degenerate_idx = standardize_columns(fm.values)
    return FeatureMatrix(
        edges=fm.edges,
        columns=fm.columns,
        values=out,
        column_stats={name: stats[k] for k, name in enumerate(fm.columns)},
        degenerate=frozenset(fm.columns[k] for k in degenerate_idx),
    )


def feature_subset(fm, mode):
    """Restrict the handcrafted columns to the requested mode."""
    mode = FeatureMode(mode)
    if mode is FeatureMode.BOTH:
        names = fm.columns
    elif mode is FeatureMode.STRUCT_ONLY:
        names = tuple(c for c in fm.columns if not _is_state_column(c))
    else:
        names = tuple(c for c in fm.columns if _is_state_column(c))
    if not names:
        raise FeatureSchemaMismatch("mode %s leaves no columns" % mode.value)
    return fm.select(names)


def write_feature_csv(fm, path):
    """Write the matrix as CSV plus a JSON sidecar of column statistics.

    The sidecar lands at `<path>.stats.json`.
    """
    from .serialize import dump_json

    with open(path, "w") as fh:
        fh.write("edge_u,edge_v," + ",".join(fm.columns) + "\n")
        for k, (a, b) in enumerate(fm.edges):
            row = ",".join(format_float(x) for x in fm.values[k])
            fh.write("%d,%d,%s\n" % (a, b, row))
    sidecar = {
        "epsilon": EPSILON,
        "columns": {
            name: {
                "min": s.min,
                "max": s.max,
                "mean": s.mean,
                "std": s.std,
            }
            for name, s in fm.column_stats.items()
        },
        "degenerate": sorted(fm.degenerate),
    }
    dump_json(sidecar, str(path) + ".stats.json")
