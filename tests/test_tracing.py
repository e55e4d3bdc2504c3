"""The benchmark's traced runs still find every layer they wrap.

bench/tracing.py wraps package functions by name and reads some of
their arguments by name, so a rename in the package would silently
drop a layer from `bench/run.py --trace 1`. These tests check that
every traced layer names a function of netchron, then run every stage
through bench/stage.py with --spans over the real package, as a traced
round does, and check the spans and counters it writes.
"""

import collections
import importlib
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH)

import tracing  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
           OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
SEED = "1"
# Spans and counters of the training layers, all of which a trained run feeds.
TRAINING = {
    "spans": ("ranker.loss", "ranker.pair_metrics", "ranker.make_pairs"),
    "counts": ("ranker.loss.calls", "ranker.pair_metrics.calls",
               "ranker.make_pairs.calls", "ranker.make_pairs.kept",
               "ranker.make_pairs.enumerated"),
}
# One counter per tracing hook; each reads arguments of the function it wraps.
HOOK_COUNTERS = (
    "graph.pagerank.iterations",
    "dynamics.simulate.steps",
    "features.columns_kept",
    "coupling.rows_used",
    "ranker.make_pairs.kept",
    "evaluation.pair_count",
    "evaluation.growth_curve.distinct",
)
COUPLED = {
    "spans": ("coupling.coupled_edge_features",),
    "counts": ("coupling.coupled_edge_features.calls", "coupling.rows_used",
               "coupling.rows_propagated"),
}


def stage(directory, *argv):
    """Run one traced stage; returns its trace and check_trace's problems."""
    spans = os.path.join(directory, "spans-%s.json" % argv[1])
    cmd = [sys.executable, os.path.join(BENCH, "stage.py"), "--spans", spans]
    start = time.perf_counter()
    done = subprocess.run(cmd + [str(a) for a in argv], cwd=directory, env=ENV,
                          capture_output=True, text=True)
    end = time.perf_counter()
    assert done.returncode == 0, done.stderr
    trace = tracing.load_trace(spans)
    problems, _ = tracing.check_trace(trace, start, end)
    return trace, problems


def test_every_traced_layer_resolves_to_a_callable():
    assert tracing.LAYERS
    for module_name, attr, _ in tracing.LAYERS:
        module = importlib.import_module("netchron." + module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A PA graph with N = 40 and its gene-dynamics steady state, each
    written by a traced CLI stage: the directory and the two traces."""
    directory = str(tmp_path_factory.mktemp("traced"))
    traces = []
    for argv in (
        ("cli", "synth", "--kind", "pa", "--n", 40, "--m", 2, "--seed", SEED,
         "--out", "graph.tsv"),
        ("cli", "simulate", "graph.tsv", "--dynamics", "gene", "--seed", SEED,
         "--out", "state.csv"),
    ):
        trace, problems = stage(directory, *argv)
        assert problems == []
        assert trace["spans"][0][0] == "stage." + argv[1]
        traces.append(trace)
    return directory, traces


def assert_traced(trace, layers):
    names = {span[0] for span in trace["spans"]}
    for name in layers["spans"]:
        assert name in names, name
    for key in layers["counts"]:
        assert trace["counts"].get(key, 0) > 0, key


def test_cli_stages_of_a_coupled_run(inputs):
    directory, traces = inputs
    train, problems = stage(
        directory, "cli", "train", "graph.tsv", "state.csv", "--mode", "both",
        "--label-fraction", 0.3, "--epochs", 2, "--seed", SEED,
        "--out", "model.json")
    assert problems == []
    assert_traced(train, TRAINING)
    assert_traced(train, COUPLED)
    traces = traces + [train]
    for argv in (
        ("infer", "graph.tsv", "state.csv", "model.json", "--out", "ordering.csv"),
        ("evaluate", "ordering.csv", "graph.tsv", "--steady-state", "state.csv",
         "--pair-budget", 50, "--out", "report.json"),
    ):
        trace, problems = stage(directory, "cli", *argv)
        assert problems == []
        assert trace["spans"][0][0] == "stage." + argv[0]
        traces.append(trace)
    counts = collections.Counter()
    for trace in traces:
        counts.update(trace["counts"])
    unfed = [name for name in HOOK_COUNTERS if counts[name] <= 0]
    assert not unfed, counts


def test_library_stages_of_a_state_only_run(tmp_path, inputs):
    for name in ("graph.tsv", "state.csv"):
        with open(os.path.join(inputs[0], name), "rb") as fh:
            (tmp_path / name).write_bytes(fh.read())
    directory = str(tmp_path)
    train, problems = stage(directory, "lib", "train", directory, SEED, 2)
    assert problems == []
    assert_traced(train, TRAINING)
    assert "coupling.coupled_edge_features" not in {s[0] for s in train["spans"]}
    for name in ("infer", "evaluate"):
        trace, problems = stage(directory, "lib", name, directory, SEED, 2)
        assert problems == []
        assert trace["spans"][0][0] == "stage." + name
