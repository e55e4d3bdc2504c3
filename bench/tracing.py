"""Span tracing for the benchmark's traced runs, and the per-layer report.

A traced stage process installs a Tracer, which replaces each layer
function listed in LAYERS by a wrapper that records one span per call:
name, parent span, start, end, and the process's peak RSS before and
after. The wrapper is installed under the function's name in every
netchron module that imported it, so calls made through any module see
it. Some layers also feed counters (pagerank iterations, pairs kept,
columns kept), computed from the call's arguments and result.

Hook work runs in a span of its own, trace.hooks, so that the caller's
self time holds program code only.

The parent process reads the span files back, checks them against the
stage's wall time as it measured it (check_trace), and turns them into
the per-layer metrics of BENCHMARK.json. A span's self time is its
duration minus the durations of its direct children.
"""

import collections
import functools
import hashlib
import inspect
import json
import math
import resource
import sys
import time

# (module, function, span name). ranker._pair_metrics has no public
# boundary, so it is wrapped under its private name and reported as
# ranker.pair_metrics.
LAYERS = (
    ("graph", "edge_betweenness", "graph.edge_betweenness"),
    ("graph", "coreness", "graph.coreness"),
    ("graph", "local_clustering", "graph.local_clustering"),
    ("graph", "pagerank", "graph.pagerank"),
    ("graph", "neighbor_sum", "graph.neighbor_sum"),
    ("graph", "prefix_graph", "graph.prefix_graph"),
    ("features", "structural_edge_features", "features.structural_edge_features"),
    ("features", "normalize", "features.normalize"),
    ("features", "feature_subset", "features.feature_subset"),
    ("coupling", "propagate", "coupling.propagate"),
    ("coupling", "propagate_backward", "coupling.propagate_backward"),
    ("coupling", "coupled_edge_features", "coupling.coupled_edge_features"),
    ("coupling", "coupled_backward", "coupling.coupled_backward"),
    ("ranker", "prepare_inputs", "ranker.prepare_inputs"),
    ("ranker", "make_pairs", "ranker.make_pairs"),
    ("ranker", "loss", "ranker.loss"),
    ("ranker", "_pair_metrics", "ranker.pair_metrics"),
    ("ranker", "train", "ranker.train"),
    ("ranker", "predict_scores", "ranker.predict_scores"),
    ("ranker", "save_model", "ranker.save_model"),
    ("ranker", "load_model", "ranker.load_model"),
    ("ordering", "order_from_scores", "ordering.order_from_scores"),
    ("ordering", "write_ordering", "ordering.write_ordering"),
    ("ordering", "load_ordering", "ordering.load_ordering"),
    ("evaluation", "make_eval_pairs", "evaluation.make_eval_pairs"),
    ("evaluation", "pairwise_accuracy", "evaluation.pairwise_accuracy"),
    ("evaluation", "spearman_rho", "evaluation.spearman_rho"),
    ("evaluation", "binned_trend", "evaluation.binned_trend"),
    ("evaluation", "hub_radar", "evaluation.hub_radar"),
    ("evaluation", "feature_time_correlation", "evaluation.feature_time_correlation"),
    ("evaluation", "growth_curve", "evaluation.growth_curve"),
    ("dynamics", "simulate", "dynamics.simulate"),
    ("dynamics", "load_steady_state", "dynamics.load_steady_state"),
    ("datasets", "generate_synthetic", "datasets.generate_synthetic"),
    ("datasets", "load_edge_list", "datasets.load_edge_list"),
    ("serialize", "dump_json", "serialize.dump_json"),
    ("serialize", "sha256_file", "serialize.sha256_file"),
)

# Per-layer metrics in report order: (name, unit, better).
PER_LAYER = (
    ("graph.edge_betweenness.self_s", "s", "lower"),
    ("graph.coreness.self_s", "s", "lower"),
    ("graph.local_clustering.self_s", "s", "lower"),
    ("graph.pagerank.self_s", "s", "lower"),
    ("graph.pagerank.iterations", "count", "lower"),
    ("features.structural_edge_features.self_s", "s", "lower"),
    ("features.normalize.self_s", "s", "lower"),
    ("features.columns_kept_ratio", "ratio", "higher"),
    ("graph.neighbor_sum.self_s", "s", "lower"),
    ("graph.neighbor_sum.calls", "count", "lower"),
    ("coupling.propagate.self_s", "s", "lower"),
    ("coupling.propagate_backward.self_s", "s", "lower"),
    ("coupling.coupled_edge_features.self_s", "s", "lower"),
    ("coupling.coupled_backward.self_s", "s", "lower"),
    ("coupling.rows_used_ratio", "ratio", "higher"),
    ("ranker.loss.self_s", "s", "lower"),
    ("ranker.loss.calls", "count", "lower"),
    ("ranker.train.self_s", "s", "lower"),
    ("ranker.pair_metrics.self_s", "s", "lower"),
    ("ranker.prepare_inputs.self_s", "s", "lower"),
    ("ranker.make_pairs.self_s", "s", "lower"),
    ("ranker.make_pairs.kept_ratio", "ratio", "higher"),
    ("ranker.make_pairs.rss_rise_mb", "MB", "lower"),
    ("ranker.predict_scores.self_s", "s", "lower"),
    ("ordering.order_from_scores.self_s", "s", "lower"),
    ("ordering.order_from_scores.rss_rise_mb", "MB", "lower"),
    ("evaluation.make_eval_pairs.self_s", "s", "lower"),
    ("evaluation.make_eval_pairs.rss_rise_mb", "MB", "lower"),
    ("evaluation.pair_count", "count", "lower"),
    ("evaluation.pairwise_accuracy.self_s", "s", "lower"),
    ("evaluation.spearman_rho.self_s", "s", "lower"),
    ("evaluation.binned_trend.self_s", "s", "lower"),
    ("evaluation.hub_radar.self_s", "s", "lower"),
    ("evaluation.feature_time_correlation.self_s", "s", "lower"),
    ("evaluation.growth_curve.self_s", "s", "lower"),
    ("evaluation.growth_curve.calls", "count", "lower"),
    ("evaluation.growth_curve.distinct_ratio", "ratio", "higher"),
    ("graph.prefix_graph.self_s", "s", "lower"),
    ("graph.prefix_graph.calls", "count", "lower"),
    ("dynamics.simulate.self_s", "s", "lower"),
    ("dynamics.simulate.steps", "count", "lower"),
    ("datasets.generate_synthetic.self_s", "s", "lower"),
    ("datasets.load_edge_list.self_s", "s", "lower"),
    ("datasets.load_edge_list.calls", "count", "lower"),
    ("dynamics.load_steady_state.self_s", "s", "lower"),
    ("ranker.save_model.self_s", "s", "lower"),
    ("ranker.load_model.self_s", "s", "lower"),
    ("ordering.write_ordering.self_s", "s", "lower"),
    ("ordering.load_ordering.self_s", "s", "lower"),
    ("serialize.dump_json.self_s", "s", "lower"),
    ("serialize.sha256_file.self_s", "s", "lower"),
    ("stage.import.self_s", "s", "lower"),
    ("stage.train.self_s", "s", "lower"),
    ("stage.infer.self_s", "s", "lower"),
    ("stage.evaluate.self_s", "s", "lower"),
    ("stage.uncovered_s", "s", "lower"),
    ("trace.hooks.self_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
)


# Most stage time the spans may leave uncovered (interpreter start, the
# span dump and exit), in seconds.
UNCOVERED_MAX_S = 1.0


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        # Each span: [name, parent index or -1, start, end, rss0 KB, rss1 KB].
        self.spans = []
        self.counts = collections.Counter()
        self.distinct = collections.defaultdict(set)
        self._stack = []

    def begin(self, name, start=None):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        t = time.perf_counter() if start is None else start
        self.spans.append([name, parent, t, None, _maxrss_kb(), None])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[5] = _maxrss_kb()
        if self._stack.pop() != idx:
            raise RuntimeError("span %s closed out of order" % span[0])

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        calls_key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.counts[calls_key] += 1
            if hook is not None:
                hook_idx = self.begin("trace.hooks")
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, bound.arguments, result)
                finally:
                    self.end(hook_idx)
            return result

        return wrapper

    def install(self, package, layers=LAYERS):
        """Wrap every layer function wherever a module of `package` holds it."""
        modules = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for module_name, attr, span_name in layers:
            home = sys.modules["%s.%s" % (package, module_name)]
            original = getattr(home, attr)
            wrapped = self.wrap(span_name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)

    def dump(self, path):
        counts = dict(self.counts)
        for key, seen in self.distinct.items():
            counts[key] = len(seen)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh)


def _hook_pagerank(tracer, args, result):
    tracer.counts["graph.pagerank.iterations"] += result.iterations


def _hook_simulate(tracer, args, result):
    tracer.counts["dynamics.simulate.steps"] += result.steps


def _hook_feature_subset(tracer, args, result):
    tracer.counts["features.columns_computed"] += len(args["fm"].columns)
    tracer.counts["features.columns_kept"] += len(result.columns)


def _hook_coupled_edge_features(tracer, args, result):
    import numpy as np

    tracer.counts["coupling.rows_used"] += int(np.unique(args["endpoints"]).size)
    tracer.counts["coupling.rows_propagated"] += int(args["embeddings"].shape[0])


def _hook_make_pairs(tracer, args, result):
    net = args["net"]
    if args["label_fraction"] is None:
        labelled = int(net.labeled_mask.sum())
    else:
        labelled = math.ceil(args["label_fraction"] * net.edge_count)
    tracer.counts["ranker.make_pairs.enumerated"] += labelled * (labelled - 1) // 2
    tracer.counts["ranker.make_pairs.kept"] += sum(len(part) for part in result)


def _hook_make_eval_pairs(tracer, args, result):
    tracer.counts["evaluation.pair_count"] += len(result)


def _hook_growth_curve(tracer, args, result):
    import numpy as np

    ordering = args["ordering"]
    order = ordering.order if hasattr(ordering, "order") else ordering
    digest = hashlib.sha1(np.ascontiguousarray(order, dtype=np.int64)).hexdigest()
    tracer.distinct["evaluation.growth_curve.distinct"].add(
        (id(args["net"]), digest, args["prop"], args["samples"])
    )


HOOKS = {
    "graph.pagerank": _hook_pagerank,
    "dynamics.simulate": _hook_simulate,
    "features.feature_subset": _hook_feature_subset,
    "coupling.coupled_edge_features": _hook_coupled_edge_features,
    "ranker.make_pairs": _hook_make_pairs,
    "evaluation.make_eval_pairs": _hook_make_eval_pairs,
    "evaluation.growth_curve": _hook_growth_curve,
}


def self_times(spans):
    """Self time of every span: its duration minus its direct children's."""
    own = [end - start for _, _, start, end, _, _ in spans]
    for name, parent, start, end, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def load_trace(path):
    with open(path) as fh:
        return json.load(fh)


def check_trace(trace, start, end):
    """Problems with one stage's spans, and the stage time they leave uncovered.

    start and end are time.perf_counter() readings taken by the parent
    process around the stage process; on Linux that clock is the
    system-wide CLOCK_MONOTONIC, so they compare with the spans' own
    readings. Span 0 is the root; every other span must lie inside its
    parent, after its earlier siblings, with a self time of at least 0,
    and the root must lie inside [start, end]. The uncovered time is
    end - start minus the sum of all self times: interpreter start before
    the root opens, the dump of the spans and process exit. A stage
    whose uncovered time exceeds UNCOVERED_MAX_S has lost time from its
    spans.
    """
    spans = trace["spans"]
    problems = []
    if not spans or spans[0][1] != -1:
        return ["no root span"], end - start
    last_child_end = {}
    for i, (name, parent, s0, s1, _, _) in enumerate(spans):
        if s1 is None or s1 < s0:
            problems.append("span %d (%s) is not closed after its start" % (i, name))
            continue
        if i == 0:
            lo, hi = start, end
        elif 0 <= parent < i:
            lo = last_child_end.get(parent, spans[parent][2])
            hi = spans[parent][3]
            last_child_end[parent] = s1
        else:
            problems.append("span %d (%s) has parent %d" % (i, name, parent))
            continue
        if hi is None or s0 < lo or s1 > hi:
            problems.append("span %d (%s) lies outside its parent or overlaps a sibling"
                            % (i, name))
    if problems:
        return problems, end - start
    own = self_times(spans)
    low = min(own)
    if low < 0:
        problems.append("a self time is negative (%.3g s)" % low)
    uncovered = (end - start) - sum(own)
    if uncovered > UNCOVERED_MAX_S:
        problems.append("spans leave %.3g s of the stage uncovered" % uncovered)
    return problems, uncovered


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traces):
    """Per-layer metrics from the traces of one traced round.

    traces maps a stage name (setup stages included) to its loaded trace,
    whose root span is named stage.<stage>.
    Layers that never ran report 0. stage.uncovered_s and
    trace_overhead_s read 0 here; the caller, which knows the stages'
    wall times, fills them in.
    """
    self_s = collections.Counter()
    rss_rise = collections.Counter()
    counts = collections.Counter()
    for trace in traces.values():
        spans = trace["spans"]
        for (name, _, _, _, rss0, rss1), own in zip(spans, self_times(spans)):
            self_s[name] += own
            rss_rise[name] = max(rss_rise[name], (rss1 - rss0) / 1024.0)
        counts.update(trace["counts"])
    out = {}
    for name, _, _ in PER_LAYER:
        layer, _, measure = name.rpartition(".")
        if measure == "self_s":
            out[name] = self_s[layer]
        elif measure == "rss_rise_mb":
            out[name] = rss_rise[layer]
        else:
            out[name] = counts[name]
    out["features.columns_kept_ratio"] = _ratio(
        counts["features.columns_kept"], counts["features.columns_computed"]
    )
    out["coupling.rows_used_ratio"] = _ratio(
        counts["coupling.rows_used"], counts["coupling.rows_propagated"]
    )
    out["ranker.make_pairs.kept_ratio"] = _ratio(
        counts["ranker.make_pairs.kept"], counts["ranker.make_pairs.enumerated"]
    )
    out["evaluation.growth_curve.distinct_ratio"] = _ratio(
        counts["evaluation.growth_curve.distinct"],
        counts["evaluation.growth_curve.calls"],
    )
    return out
