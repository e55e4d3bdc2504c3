"""One benchmark stage, run in a process of its own.

    python3 bench/stage.py [--spans FILE] cli <netchron argv...>
    python3 bench/stage.py [--spans FILE] lib <train|infer|evaluate> DIR SEED EPOCHS

`cli` runs a command through netchron.cli.main in this process. `lib`
runs one stage of the library path from the README's "Library use"
section on the files in DIR: train builds state-only inputs by hand
(steady_state_edge_features -> normalize -> feature_subset) and saves a
model; infer scores, orders and writes the ordering; evaluate reloads it
and writes the full evaluation report.

With --spans the layer functions are traced and the spans are written
to FILE. The root span starts before netchron is imported, so import
time is part of the stage.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def state_inputs(net, values):
    """State-only TrainInputs built without the structural block."""
    import netchron

    static = netchron.feature_subset(
        netchron.normalize(netchron.steady_state_edge_features(net, values)),
        netchron.FeatureMode.STATE_ONLY,
    )
    return netchron.TrainInputs(static=static)


def _load(directory):
    import netchron

    net = netchron.load_edge_list(os.path.join(directory, "graph.tsv"))
    values, _ = netchron.load_steady_state(os.path.join(directory, "state.csv"))
    return net, values


def lib_train(directory, seed, epochs):
    import netchron

    net, values = _load(directory)
    config = netchron.TrainConfig(
        mode=netchron.FeatureMode.STATE_ONLY, label_fraction=0.3,
        epochs=epochs, seed=seed,
    )
    result = netchron.train(net, state_inputs(net, values), config)
    netchron.save_model(result.model, os.path.join(directory, "model.json"))


def lib_infer(directory, seed, epochs):
    import netchron

    net, values = _load(directory)
    model = netchron.load_model(os.path.join(directory, "model.json"))
    scores = netchron.predict_scores(model, net, state_inputs(net, values))
    ordering = netchron.order_from_scores(scores)
    netchron.write_ordering(ordering, net, os.path.join(directory, "ordering.csv"))


def lib_evaluate(directory, seed, epochs):
    import netchron
    from netchron.serialize import dump_json

    net, values = _load(directory)
    ordering = netchron.load_ordering(os.path.join(directory, "ordering.csv"), net)
    report = netchron.evaluation_report(
        net, ordering, seed=seed,
        feature_matrix=netchron.steady_state_edge_features(net, values),
    )
    dump_json(report, os.path.join(directory, "report.json"))


LIBRARY = {"train": lib_train, "infer": lib_infer, "evaluate": lib_evaluate}


def main(argv):
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    entry, rest = argv[0], argv[1:]
    tracer = Tracer() if spans else None
    if tracer:
        root = tracer.begin("stage." + rest[0], start=STARTED)
        imported = tracer.begin("stage.import", start=STARTED)
    import netchron.cli

    if tracer:
        tracer.end(imported)
        tracer.install("netchron")
    if entry == "cli":
        code = netchron.cli.main(rest)
    else:
        stage, directory, seed, epochs = rest
        LIBRARY[stage](directory, int(seed), int(epochs))
        code = 0
    if tracer:
        tracer.end(root)
        tracer.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
