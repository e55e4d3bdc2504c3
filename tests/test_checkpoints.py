"""Checkpoints from an earlier netchron: they load, rewrite byte for
byte, and are refused when a key that repeats the config disagrees
with it or when their propagation weights disagree with the mode.

tests/data holds two checkpoints that commit ce5d723 wrote with:

    netchron synth --kind pa --n 30 --m 2 --seed 0 --out graph.tsv
    netchron simulate graph.tsv --dynamics gene --seed 0 --out state.csv
    netchron train graph.tsv state.csv --hidden 4 --embedding-dims 4,3 \\
        --epochs 2 --seed 0 --out coupled_model.json
    netchron train graph.tsv state.csv --mode state --hidden 4 \\
        --epochs 2 --seed 0 --out state_model.json
"""

import os
import re

import pytest

from netchron.cli import main
from netchron.errors import ParseError
from netchron.ranker import load_model, save_model
from netchron.serialize import dump_json, load_json

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
COUPLED = "coupled_model.json"
STATE = "state_model.json"

# (checkpoint, repeated key, the config field it repeats, a value
# that disagrees with the checkpoint's config)
EDITS = [
    (COUPLED, "mode", "mode", "struct"),
    (COUPLED, "hidden", "hidden", 7),
    (COUPLED, "scorer.activation", "scorer_activation", "relu"),
    (COUPLED, "propagation.dims", "embedding_dims", [4, 8]),
    (COUPLED, "propagation.activation", "activation", "relu"),
    (COUPLED, "propagation.neighbor_norm", "neighbor_norm", "symmetric"),
    (STATE, "mode", "mode", "both"),
    (STATE, "hidden", "hidden", 7),
    (STATE, "scorer.activation", "scorer_activation", "relu"),
]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def graph_and_state(tmp_path_factory):
    """The graph and steady state the checkpoints were trained on."""
    directory = tmp_path_factory.mktemp("inputs")
    graph, state = directory / "graph.tsv", directory / "state.csv"
    assert run("synth", "--kind", "pa", "--n", 30, "--m", 2, "--seed", 0,
               "--out", graph) == 0
    assert run("simulate", graph, "--dynamics", "gene", "--seed", 0,
               "--out", state) == 0
    return graph, state


@pytest.mark.parametrize("name", [COUPLED, STATE])
def test_rewrite_is_byte_identical(tmp_path, name):
    path = os.path.join(DATA, name)
    again = tmp_path / "again.json"
    save_model(load_model(path), again)
    with open(path, "rb") as fh:
        assert again.read_bytes() == fh.read()


@pytest.mark.parametrize("name, mode", [(COUPLED, "both"), (STATE, "state")])
def test_checkpoint_still_infers(tmp_path, graph_and_state, name, mode):
    graph, state = graph_and_state
    out = tmp_path / "ordering.csv"
    assert run("infer", graph, state, os.path.join(DATA, name), "--out", out) == 0
    assert load_json(str(out) + ".manifest.json")["config"]["mode"] == mode


@pytest.mark.parametrize("name", [COUPLED, STATE])
@pytest.mark.parametrize("field, value, needle", [
    ("seed", -1, "invalid value for seed: -1"),
    ("hidden", 0, "hidden must be >= 1"),
])
def test_config_value_out_of_range_is_refused(
        tmp_path, capsys, graph_and_state, name, field, value, needle):
    payload = load_json(os.path.join(DATA, name))
    payload["config"][field] = value
    edited = tmp_path / "model.json"
    dump_json(payload, edited)
    with pytest.raises(ParseError, match=re.escape(needle)):
        load_model(edited)

    graph, state = graph_and_state
    out = tmp_path / "ordering.csv"
    assert run("infer", graph, state, edited, "--out", out) == 3
    assert needle in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("side", ["key", "config"])
@pytest.mark.parametrize("name, key, field, value", EDITS)
def test_key_that_disagrees_with_the_config_is_refused(
        tmp_path, capsys, graph_and_state, side, name, key, field, value):
    payload = load_json(os.path.join(DATA, name))
    if side == "key":
        *parents, last = key.split(".")
        holder = payload
        for name in parents:
            holder = holder[name]
        holder[last] = value
    else:
        payload["config"][field] = value
    edited = tmp_path / "model.json"
    dump_json(payload, edited)
    with pytest.raises(ParseError, match="^%s is " % re.escape(key)):
        load_model(edited)

    graph, state = graph_and_state
    out = tmp_path / "ordering.csv"
    assert run("infer", graph, state, edited, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: %s is " % key)
    assert "but the config gives" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("name, mode, message", [
    (COUPLED, "both", "propagation is null but mode both is coupled"),
    (COUPLED, "struct", "propagation is null but mode struct is coupled"),
    (STATE, "state", "propagation is given but mode state has none"),
])
def test_propagation_that_disagrees_with_the_mode_is_refused(
        tmp_path, capsys, graph_and_state, name, mode, message):
    payload = load_json(os.path.join(DATA, name))
    payload["mode"] = payload["config"]["mode"] = mode
    if payload["propagation"] is None:
        coupled = load_json(os.path.join(DATA, COUPLED))
        payload["propagation"] = coupled["propagation"]
        payload["config"]["embedding_dims"] = coupled["config"]["embedding_dims"]
    else:
        payload["propagation"] = None
    edited = tmp_path / "model.json"
    dump_json(payload, edited)
    with pytest.raises(ParseError, match="^%s$" % message):
        load_model(edited)

    graph, state = graph_and_state
    out = tmp_path / "ordering.csv"
    assert run("infer", graph, state, edited, "--out", out) == 3
    assert capsys.readouterr().err == "data error: %s\n" % message
    assert not out.exists()


def _extra_layer(key):
    def edit(payload):
        layers = payload["propagation"][key]
        layers.append(layers[-1])
    return edit


def _set(key, value):
    def edit(payload):
        payload[key] = value
    return edit


@pytest.mark.parametrize("name, edit, message", [
    (COUPLED, _extra_layer("w_self"), "propagation.w_self has 2 layers, dims give 1"),
    (COUPLED, _extra_layer("w_neigh"), "propagation.w_neigh has 2 layers, dims give 1"),
    (COUPLED, _set("feature_columns", "deg_u"), "feature_columns must be a list of names"),
    (STATE, _set("feature_columns", ["state_u", 7]), "feature_columns must be a list of names"),
    (COUPLED, _set("config", ["mode", "both"]), "config must be a JSON object"),
    (STATE, _set("config", None), "config must be a JSON object"),
])
def test_malformed_section_is_refused(
        tmp_path, capsys, graph_and_state, name, edit, message):
    payload = load_json(os.path.join(DATA, name))
    edit(payload)
    edited = tmp_path / "model.json"
    dump_json(payload, edited)
    with pytest.raises(ParseError, match="^%s$" % re.escape(message)):
        load_model(edited)

    graph, state = graph_and_state
    out = tmp_path / "ordering.csv"
    assert run("infer", graph, state, edited, "--out", out) == 3
    assert capsys.readouterr().err == "data error: %s\n" % message
    assert not out.exists()
