"""Check the files of benchmark stages, in a process of its own.

    python3 bench/verify.py < requests

Each input line is one JSON request: the run directory, the workload,
the seed, the dynamics tolerance and the stages to check. Each answer
is one output line, a JSON object mapping each stage to its list of
problems (empty when the stage passed). The process ends at end of
input.

The checks themselves live in checks.py and use numpy and scipy alone.
Two come from the program on purpose: the per-node dynamics parameters
are drawn with netchron's own sampler (the update is recomputed apart),
and the `state_inputs` check compares the benchmark's hand-built
state-only inputs with netchron's prepare_inputs on a small graph.

The benchmark's parent process runs this apart so that it never loads
numpy itself: a child started by vfork and exec inherits the parent's
peak RSS in its ru_maxrss, which would mask the stages' own peaks.
"""

import json
import os
import sys

import numpy as np

import checks

SMALL_GRAPH_NODES = 60


def check_state(spec, edges):
    from netchron.dynamics import sample_dynamics_params

    w = spec["workload"]
    x = checks.read_state(os.path.join(spec["dir"], "state.csv"))
    params = sample_dynamics_params(w["dynamics"], w["n"], spec["seed"])
    adj = checks.adjacency(edges, w["n"])
    if w["dynamics"] == "sis":
        def step(a, v):
            return checks.sis_step(a, v, params.infection, params.recovery)
    else:
        def step(a, v):
            return checks.gene_step(a, v, params.basal, params.gain, params.hill_exponent)
    return checks.check_fixed_point(adj, x, step, spec["tol"])


def check_state_inputs(spec):
    """Hand-built state-only inputs equal prepare_inputs' state columns.

    prepare_inputs computes the structural block too, betweenness
    included, so a small graph of the workload's kind keeps this cheap.
    """
    import netchron
    from stage import state_inputs

    w, seed = spec["workload"], spec["seed"]
    net = netchron.generate_synthetic(netchron.SynthSpec(
        netchron.SynthKind(w["kind"]), SMALL_GRAPH_NODES, 2, seed=seed))
    values = netchron.simulate(net, netchron.sample_dynamics_params(
        w["dynamics"], SMALL_GRAPH_NODES, seed), seed=seed).values
    want = netchron.prepare_inputs(net, values, "state").static
    got = state_inputs(net, values).static
    if got.columns != want.columns or not np.array_equal(got.values, want.values):
        return ["hand-built state inputs differ from prepare_inputs(mode=state)"]
    return []


def check_stage(spec, stage):
    w = spec["workload"]
    path = lambda name: os.path.join(spec["dir"], name)  # noqa: E731
    if stage == "state_inputs":
        return check_state_inputs(spec)
    edges, times = checks.read_graph(path("graph.tsv"))
    if stage == "synth":
        return checks.check_edge_count(edges, w["n"], 2)
    if stage == "simulate":
        return check_state(spec, edges)
    if stage == "train":
        return checks.check_model(path("model.json"), w["mode"], w["width"])
    ordering = checks.read_ordering(path("ordering.csv"))
    if stage == "infer":
        return checks.check_ordering(ordering, edges)
    return checks.check_report(checks.read_json(path("report.json")), ordering, times)


def main():
    for line in sys.stdin:
        spec = json.loads(line)
        out = {}
        for stage in spec["stages"]:
            try:
                out[stage] = check_stage(spec, stage)
            except (OSError, ValueError, KeyError) as exc:
                out[stage] = ["cannot check output: %r" % (exc,)]
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
