"""The benchmark's traced layers name functions that exist in netchron."""

import importlib
import importlib.util
import os

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
