"""The benchmark's own checks against brute force on small inputs.

    python3 -m pytest bench/test_bench.py
"""

import itertools
import json
import math
import os
import sys
import types

import numpy as np
import pytest
import scipy.stats

import checks
import run
import tracing


def brute_inversions(seq):
    return sum(1 for i, j in itertools.combinations(range(len(seq)), 2) if seq[i] > seq[j])


def brute_accuracy(ranks, times):
    good = total = 0
    for i, j in itertools.combinations(range(len(ranks)), 2):
        if times[i] == times[j]:
            continue
        total += 1
        good += (ranks[i] < ranks[j]) == (times[i] < times[j])
    return good / total, total


@pytest.mark.parametrize("seed", range(20))
def test_inversions_and_accuracy_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 40))
    seq = rng.integers(0, 10, m).tolist()
    assert checks.count_inversions(seq) == brute_inversions(seq)
    ranks = rng.permutation(m) + 1
    times = rng.integers(0, max(2, m // 3), m).astype(float)
    if np.unique(times).size < 2:
        times[0] = times.max() + 1
    assert checks.pairwise_accuracy(ranks, times) == brute_accuracy(ranks, times)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_chance_floors_use_the_exact_null_variances(m):
    accs, rhos = [], []
    for perm in itertools.permutations(range(1, m + 1)):
        accs.append(brute_accuracy(perm, list(range(m)))[0])
        rhos.append(scipy.stats.spearmanr(perm, range(m)).statistic)
    acc_floor, rho_floor = checks.chance_floors(m)
    assert np.mean(accs) == pytest.approx(0.5)
    assert 0.5 + checks.CHANCE_SIGMAS * np.std(accs) == pytest.approx(acc_floor)
    assert checks.CHANCE_SIGMAS * np.std(rhos) == pytest.approx(rho_floor)


def small_graph(seed, n=12):
    rng = np.random.default_rng(seed)
    edges = {(0, 1)}
    for v in range(2, n):
        for t in rng.choice(v, size=min(2, v), replace=False):
            edges.add((int(t), v))
    return np.array(sorted(edges))


def test_dynamics_steps_match_per_node_loops():
    edges = small_graph(0)
    n = 12
    rng = np.random.default_rng(1)
    x = rng.random(n)
    basal, gain = rng.random(n), rng.uniform(0.5, 1.5, n)
    nbrs = [[b if a == i else a for a, b in edges if i in (a, b)] for i in range(n)]
    adj = checks.adjacency(edges, n)
    sis = [(1 - 0.3) * x[i] + (1 - x[i]) * (1 - math.prod(1 - 0.4 * x[j] for j in nbrs[i]))
           for i in range(n)]
    np.testing.assert_allclose(checks.sis_step(adj, x, 0.4, 0.3), sis, rtol=1e-12)
    s = [sum(x[j] for j in nbrs[i]) for i in range(n)]
    gene = [basal[i] + gain[i] * s[i] ** 2 / (1 + s[i] ** 2) for i in range(n)]
    np.testing.assert_allclose(checks.gene_step(adj, x, basal, gain, 2.0), gene, rtol=1e-12)


def ordering_of(scores, edges):
    m = len(scores)
    ranks = np.empty(m, dtype=np.int64)
    ranks[sorted(range(m), key=lambda k: (-scores[k], k))] = np.arange(1, m + 1)
    return {"edge_index": np.arange(m), "u": edges[:, 0], "v": edges[:, 1],
            "borda_score": np.asarray(scores, dtype=float), "rank": ranks}


def test_check_ordering_accepts_the_score_order_and_flags_faults():
    edges = small_graph(2)
    scores = np.round(np.random.default_rng(3).random(len(edges)), 1)
    good = ordering_of(scores, edges)
    assert checks.check_ordering(good, edges) == []
    a, b = np.flatnonzero(scores == scores[0])[:2]
    swapped = dict(good, rank=good["rank"].copy())
    swapped["rank"][[a, b]] = swapped["rank"][[b, a]]
    assert checks.check_ordering(swapped, edges)
    short = {k: v[1:] for k, v in good.items()}
    assert checks.check_ordering(short, edges)


def test_check_report_recomputes_quality():
    edges = small_graph(4, n=31)
    m = len(edges)
    times = np.arange(m, dtype=float) / (m - 1)
    scores = -times + np.random.default_rng(5).normal(0, 0.2, m)
    ordering = ordering_of(scores, edges)
    acc, pairs = brute_accuracy(ordering["rank"], times)
    rho = scipy.stats.spearmanr(ordering["rank"], times).statistic
    report = {"pair_count": pairs, "pairwise_accuracy": acc, "spearman_rho": rho}
    assert checks.check_report(report, ordering, times) == []
    assert checks.check_report(dict(report, pairwise_accuracy=acc - 1e-6), ordering, times)
    assert checks.check_report(dict(report, pair_count=pairs - 1), ordering, times)
    flipped = ordering_of(times, edges)
    acc, _ = brute_accuracy(flipped["rank"], times)
    rho = scipy.stats.spearmanr(flipped["rank"], times).statistic
    below_chance = {"pair_count": pairs, "pairwise_accuracy": acc, "spearman_rho": rho}
    assert checks.check_report(below_chance, flipped, times)


STAGE_SPANS = [
    ["stage.train", -1, 1.0, 11.0, 0, 0],
    ["ranker.train", 0, 2.0, 10.0, 0, 0],
    ["ranker.loss", 1, 3.0, 5.0, 0, 0],
    ["graph.neighbor_sum", 2, 3.5, 4.0, 0, 0],
    ["ranker.loss", 1, 6.0, 7.0, 0, 0],
]


def test_self_times_sum_to_the_root_span():
    assert tracing.self_times(STAGE_SPANS) == [2.0, 5.0, 1.5, 0.5, 1.0]
    problems, uncovered = tracing.check_trace({"spans": STAGE_SPANS}, 0.8, 11.1)
    assert problems == [] and uncovered == pytest.approx(0.3)


def faulty(index, start, end):
    spans = [list(span) for span in STAGE_SPANS]
    spans[index][2:4] = [start, end]
    return {"spans": spans}


@pytest.mark.parametrize("trace, start, end", [
    (faulty(3, 4.5, 5.5), 0.8, 11.1),   # child ends after its parent
    (faulty(4, 4.0, 7.0), 0.8, 11.1),   # overlaps its earlier sibling
    (faulty(1, 2.0, None), 0.8, 11.1),  # never closed
    (faulty(0, 0.5, 11.0), 0.8, 11.1),  # root starts before the process
    ({"spans": STAGE_SPANS}, 0.8, 12.5),  # more than UNCOVERED_MAX_S uncovered
    ({"spans": [["stage.train", 0, 1.0, 2.0, 0, 0]]}, 0.8, 2.1),  # no root
])
def test_check_trace_flags_spans_that_do_not_cover_the_stage(trace, start, end):
    problems, _ = tracing.check_trace(trace, start, end)
    assert problems


def test_hook_work_is_a_span_of_its_own():
    tracer = tracing.Tracer()
    fn = tracer.wrap("evaluation.make_eval_pairs", lambda net: [1, 2, 3])
    outer = tracer.begin("stage.evaluate")
    assert fn(None) == [1, 2, 3]
    tracer.end(outer)
    names = [(s[0], s[1]) for s in tracer.spans]
    assert names == [("stage.evaluate", -1), ("evaluation.make_eval_pairs", 0),
                     ("trace.hooks", 0)]
    assert tracer.counts["evaluation.pair_count"] == 3


def test_tracer_wraps_a_function_in_every_module_that_imported_it():
    home = types.ModuleType("fakepkg.home")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n", home.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.inner = home.inner
    package = types.ModuleType("fakepkg")
    sys.modules.update({"fakepkg": package, "fakepkg.home": home, "fakepkg.user": user})
    try:
        tracer = tracing.Tracer()
        tracer.install("fakepkg", layers=(("home", "inner", "home.inner"),
                                          ("home", "outer", "home.outer")))
        assert home.outer(1) == 4 and user.inner(1) == 2
    finally:
        for name in ("fakepkg", "fakepkg.home", "fakepkg.user"):
            del sys.modules[name]
    names = [(s[0], s[1]) for s in tracer.spans]
    assert names == [("home.outer", -1), ("home.inner", 0), ("home.inner", -1)]
    assert tracer.counts["home.inner.calls"] == 2


def test_layer_metrics_report_every_listed_metric():
    trace = {"spans": [["stage.train", -1, 0.0, 1.0, 100, 200]], "counts": {}}
    metrics = tracing.layer_metrics({"train": trace})
    assert list(metrics) == [n for n, _, _ in tracing.PER_LAYER]
    assert metrics["stage.train.self_s"] == 1.0


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
