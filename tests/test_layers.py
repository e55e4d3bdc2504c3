"""The benchmark's traced layers name functions that exist in netchron,
and its traced stage runner counts what every hook counts."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench_tracing():
    path = os.path.join(ROOT, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_callable():
    layers = load_bench_tracing().LAYERS
    assert layers
    for module_name, attr, _ in layers:
        module = importlib.import_module("netchron." + module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)


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


def test_traced_cli_pipeline_feeds_every_hook_counter(tmp_path):
    stages = {
        "synth": ["synth", "--kind", "pa", "--n", "30", "--m", "2", "--seed", "1",
                  "--out", "graph.tsv"],
        "simulate": ["simulate", "graph.tsv", "--dynamics", "gene", "--seed", "1",
                     "--out", "state.csv"],
        "train": ["train", "graph.tsv", "state.csv", "--mode", "both",
                  "--label-fraction", "0.3", "--epochs", "1", "--seed", "1",
                  "--out", "model.json"],
        "infer": ["infer", "graph.tsv", "state.csv", "model.json", "--out", "ordering.csv"],
        "evaluate": ["evaluate", "ordering.csv", "graph.tsv", "--steady-state", "state.csv",
                     "--pair-budget", "50", "--out", "report.json"],
    }
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    counts = {}
    for stage, argv in stages.items():
        spans = str(tmp_path / (stage + ".spans.json"))
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "bench", "stage.py"), "--spans", spans,
             "cli"] + argv,
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, (stage, done.stderr[-2000:])
        with open(spans) as fh:
            for name, value in json.load(fh)["counts"].items():
                counts[name] = counts.get(name, 0) + value
    unfed = [name for name in HOOK_COUNTERS if counts.get(name, 0) <= 0]
    assert not unfed, counts
