"""End-to-end tests of the command-line interface.

Commands run in-process through main(argv); files land in tmp_path.
"""

import argparse
import dataclasses
import enum
import hashlib
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import netchron
from netchron.cli import COMMANDS, OPTIONS, _build_parser, main
from netchron.datasets import load_edge_list, write_edge_list
from netchron.dynamics import load_steady_state
from netchron.errors import NumericalError, ParseError
from netchron.features import STATE_COLUMNS, FeatureMode
from netchron.graph import build_network
from netchron.ordering import ground_truth_ordering, load_ordering, write_ordering
from netchron.ranker import (
    TrainConfig,
    init_cpnn,
    load_model,
    save_model,
)
from netchron.serialize import (
    dump_json,
    finite_float,
    integer,
    load_json,
    non_negative_integer,
    sha256_file,
    tuple_of,
)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def workspace(tmp_path):
    graph = tmp_path / "graph.tsv"
    state = tmp_path / "state.csv"
    assert run("synth", "--kind", "pa", "--n", 40, "--m", 2,
               "--seed", 0, "--out", graph) == 0
    assert run("simulate", graph, "--dynamics", "sis", "--seed", 0,
               "--out", state) == 0
    return tmp_path, graph, state


class TestSynth:
    def test_growth_arithmetic(self, tmp_path):
        out = tmp_path / "g.tsv"
        assert run("synth", "--kind", "pa", "--n", 200, "--m", 2,
                   "--seed", 1, "--out", out) == 0
        net = load_edge_list(out)
        assert net.node_count == 200
        assert net.edge_count == 397

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        for out in (a, b):
            assert run("synth", "--kind", "er", "--n", 30, "--m", 2,
                       "--seed", 5, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_kind_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--kind", "tree", "--n", 10, "--m", 1,
                "--out", tmp_path / "g.tsv")
        assert exc.value.code == 2

    def test_manifest_lists_output_digest(self, tmp_path):
        out = tmp_path / "g.tsv"
        assert run("synth", "--kind", "random", "--n", 25, "--m", 2,
                   "--seed", 3, "--out", out) == 0
        manifest = load_json(str(out) + ".manifest.json")
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3
        assert manifest["outputs"]["graph"]["sha256"] == sha256_file(out)
        assert manifest["versions"]["netchron"]

    def test_missing_required_flag_exits_3(self, tmp_path, capsys):
        assert run("synth", "--kind", "pa", "--n", 10,
                   "--out", tmp_path / "g.tsv") == 3
        assert "--m" in capsys.readouterr().err

    def test_malformed_config_value_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n": "abc", "m": 2}\n')
        out = tmp_path / "g.tsv"
        assert run("synth", "--config", cfg, "--out", out) == 3
        assert "invalid value for n: 'abc'" in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_k5_reaches_homogeneous_state(self, tmp_path):
        graph = tmp_path / "k5.tsv"
        net = build_network(
            5, [(a, b) for a in range(5) for b in range(a + 1, 5)]
        )
        write_edge_list(net, graph)
        out = tmp_path / "k5_state.csv"
        assert run("simulate", graph, "--dynamics", "sis", "--seed", 0,
                   "--out", out) == 0
        values, meta = load_steady_state(out)
        assert np.all(np.abs(values - values[0]) < 1e-5)
        assert meta["kind"] == "sis"
        assert meta["seed"] == 0

    def test_same_seed_byte_identical(self, workspace):
        tmp_path, graph, state = workspace
        again = tmp_path / "state2.csv"
        assert run("simulate", graph, "--dynamics", "sis", "--seed", 0,
                   "--out", again) == 0
        assert state.read_bytes() == again.read_bytes()

    def test_unknown_dynamics_is_usage_error(self, workspace):
        tmp_path, graph, _ = workspace
        with pytest.raises(SystemExit) as exc:
            run("simulate", graph, "--dynamics", "voter",
                "--out", tmp_path / "x.csv")
        assert exc.value.code == 2

    def test_missing_graph_exits_3(self, tmp_path):
        assert run("simulate", tmp_path / "absent.tsv",
                   "--out", tmp_path / "x.csv") == 3


class TestTrain:
    def test_writes_checkpoint_log_and_manifest(self, workspace):
        tmp_path, graph, state = workspace
        model = tmp_path / "model.json"
        assert run("train", graph, state, "--mode", "both",
                   "--label-fraction", 0.5, "--seed", 0, "--epochs", 3,
                   "--hidden", 8, "--embedding-dims", "4,3,2",
                   "--out", model) == 0
        log = load_json(str(model) + ".log.json")
        assert log["label_fraction"] == 0.5
        assert len(log["entries"]) == 3
        manifest = load_json(str(model) + ".manifest.json")
        assert manifest["config"]["label_fraction"] == 0.5
        assert manifest["outputs"]["model"]["sha256"] == sha256_file(model)

    @pytest.mark.parametrize("time", ["inf", "-inf"])
    def test_non_finite_time_exits_3(self, workspace, capsys, time):
        tmp_path, graph, state = workspace
        lines = graph.read_text().splitlines()
        u, v, _ = lines[-1].split("\t")
        lines[-1] = "\t".join([u, v, time])
        graph.write_text("\n".join(lines) + "\n")
        model = tmp_path / "model.json"
        assert run("train", graph, state, "--epochs", 1, "--out", model) == 3
        err = capsys.readouterr().err
        assert "data error" in err and ":%d:" % len(lines) in err
        assert "Traceback" not in err
        assert not model.exists()

    @pytest.mark.parametrize("big", [10**12, 10**20])
    def test_node_id_beyond_the_edge_bound_exits_3(self, workspace, capsys, big):
        tmp_path, graph, state = workspace
        lines = graph.read_text().splitlines()
        lines[-1] = "0\t%d\t1" % big
        graph.write_text("\n".join(lines) + "\n")
        model = tmp_path / "model.json"
        assert run("train", graph, state, "--epochs", 1, "--out", model) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert ":%d: node id %d " % (len(lines), big) in err
        assert not model.exists()

    def test_one_edge_graph_exits_3(self, tmp_path, capsys):
        graph, state = one_edge_graph(tmp_path)
        model = tmp_path / "model.json"
        assert run("train", graph, state, "--epochs", 1, "--out", model) == 3
        err = capsys.readouterr().err
        assert err == "data error: normalization needs at least two edges\n"
        assert not model.exists()

    def test_deterministic_checkpoint(self, workspace):
        tmp_path, graph, state = workspace
        digests = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            assert run("train", graph, state, "--seed", 2, "--epochs", 2,
                       "--hidden", 8, "--embedding-dims", "4,3,2",
                       "--out", out) == 0
            digests.append(sha256_file(out))
        assert digests[0] == digests[1]

    def test_state_mode_has_no_propagation_block(self, workspace):
        tmp_path, graph, state = workspace
        model = tmp_path / "state_model.json"
        assert run("train", graph, state, "--mode", "state", "--epochs", 2,
                   "--hidden", 8, "--out", model) == 0
        payload = load_json(model)
        assert payload["mode"] == "state"
        assert payload["propagation"] is None
        assert payload["input_dim"] == 7

    def test_insufficient_labels_exits_3(self, workspace, capsys):
        tmp_path, graph, state = workspace
        net = load_edge_list(graph)
        times = [float(k) if k < 5 else None for k in range(net.edge_count)]
        sparse = build_network(net.node_count, net.endpoints, times)
        sparse_path = tmp_path / "sparse.tsv"
        write_edge_list(sparse, sparse_path)
        assert run("train", sparse_path, state, "--label-fraction", 0.5,
                   "--out", tmp_path / "m.json") == 3
        assert "supervised" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, workspace):
        tmp_path, graph, state = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"epochs": 5, "hidden": 8, "embedding_dims": [4, 3, 2]}\n'
        )
        model = tmp_path / "m.json"
        assert run("train", graph, state, "--config", cfg, "--epochs", 2,
                   "--out", model) == 0
        manifest = load_json(str(model) + ".manifest.json")
        assert manifest["config"]["epochs"] == 2
        assert manifest["config"]["hidden"] == 8
        assert len(load_json(str(model) + ".log.json")["entries"]) == 2

    def test_unknown_config_key_exits_3(self, workspace, capsys):
        tmp_path, graph, state = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"momentum": 0.9}\n')
        assert run("train", graph, state, "--config", cfg,
                   "--out", tmp_path / "m.json") == 3
        assert "momentum" in capsys.readouterr().err

    def test_missing_out_exits_3(self, workspace, capsys):
        _, graph, state = workspace
        assert run("train", graph, state) == 3
        assert "--out" in capsys.readouterr().err

    def test_defaults_are_the_train_config_fields(self):
        fields = {f.name for f in dataclasses.fields(TrainConfig)}
        assert set(OPTIONS["train"]) == fields | {"out"}

    @pytest.mark.parametrize("flag, value", [
        ("--label-fraction", 1.5),
        ("--epochs", 0),
        ("--hidden", 0),
        ("--hidden", -1),
    ])
    def test_invalid_flag_value_exits_3(self, workspace, capsys, flag, value):
        tmp_path, graph, state = workspace
        assert run("train", graph, state, flag, value,
                   "--out", tmp_path / "m.json") == 3
        assert "invalid training config" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("mode, flags", [
        ("state", ("--scorer-activation", "relu", "--learning-rate", "1e200")),
        ("both", ("--learning-rate", "1e300")),
    ])
    def test_diverging_run_exits_4_and_writes_nothing(self, tmp_path, capsys, mode,
                                                      flags):
        graph, state = tmp_path / "g.tsv", tmp_path / "s.csv"
        assert run("synth", "--kind", "pa", "--n", 30, "--m", 2, "--seed", 0,
                   "--out", graph) == 0
        assert run("simulate", graph, "--dynamics", "sis", "--seed", 0,
                   "--out", state) == 0
        capsys.readouterr()
        model = tmp_path / "m.json"
        assert run("train", graph, state, "--mode", mode, *flags, "--epochs", 3,
                   "--out", model) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error: training diverged in epoch ")
        assert err.count("\n") == 1
        assert not [p for p in tmp_path.iterdir() if p.name.startswith("m.json")]

    def test_label_fraction_null_flag_equals_the_config_file(self, workspace):
        tmp_path, graph, state = workspace
        common = ("--epochs", 2, "--hidden", 4, "--embedding-dims", "4,3")
        by_flag = tmp_path / "flag.json"
        assert run("train", graph, state, *common, "--label-fraction", "null",
                   "--out", by_flag) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"label_fraction": null}\n')
        by_file = tmp_path / "file.json"
        assert run("train", graph, state, *common, "--config", cfg,
                   "--out", by_file) == 0
        for suffix in ("", ".log.json"):
            assert open(str(by_flag) + suffix, "rb").read() \
                == open(str(by_file) + suffix, "rb").read()
        configs = [load_json(str(out) + ".manifest.json")["config"]
                   for out in (by_flag, by_file)]
        assert configs[0]["label_fraction"] is None
        assert dict(configs[0], out=None) == dict(configs[1], out=None)

    def test_label_fraction_null_flag_overrides_the_config_file(self, workspace):
        tmp_path, graph, state = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"label_fraction": 0.5, "epochs": 1, "hidden": 4}\n')
        model = tmp_path / "m.json"
        assert run("train", graph, state, "--config", cfg, "--label-fraction", "null",
                   "--out", model) == 0
        assert load_json(str(model) + ".manifest.json")["config"]["label_fraction"] \
            is None
        assert load_json(str(model) + ".log.json")["label_fraction"] is None

    def test_misspelt_null_is_a_usage_error(self, workspace):
        tmp_path, graph, state = workspace
        with pytest.raises(SystemExit) as exc:
            run("train", graph, state, "--label-fraction", "nul",
                "--out", tmp_path / "m.json")
        assert exc.value.code == 2

    def test_invalid_config_file_mode_exits_3(self, workspace, capsys):
        tmp_path, graph, state = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mode": "bogus"}\n')
        assert run("train", graph, state, "--config", cfg,
                   "--out", tmp_path / "m.json") == 3
        assert "bogus" in capsys.readouterr().err


def one_edge_graph(tmp_path):
    graph = tmp_path / "one.tsv"
    graph.write_text("0\t1\t0\n")
    state = tmp_path / "one_state.csv"
    state.write_text("node_id,value\n0,0.5\n1,0.25\n")
    return graph, state


def separable_toy(tmp_path):
    """Path graph whose state encodes the formation order exactly."""
    m_edges = 12
    edges = [(k, k + 1) for k in range(m_edges)]
    net = build_network(m_edges + 1, edges, times=list(range(m_edges)))
    graph = tmp_path / "toy.tsv"
    write_edge_list(net, graph)
    state = tmp_path / "toy_state.csv"
    with open(state, "w") as fh:
        fh.write("node_id,value\n")
        for node in range(net.node_count):
            fh.write("%d,%s\n" % (node, float(node)))
    # linear scorer reading the state-sum column, descending in time
    sum_col = STATE_COLUMNS.index("state_sum")
    model = init_cpnn(7, TrainConfig(mode=FeatureMode.STATE_ONLY, hidden=1),
                      feature_columns=STATE_COLUMNS)
    params = model.params()
    params["scorer.w_hidden"][...] = 0.0
    params["scorer.w_hidden"][sum_col, 0] = -1.0
    params["scorer.w_out"][...] = 1.0
    model_path = tmp_path / "toy_model.json"
    save_model(model, model_path)
    return net, graph, state, model_path


class TestInfer:
    def test_toy_separable_model_recovers_ground_truth(self, tmp_path):
        net, graph, state, model_path = separable_toy(tmp_path)
        out = tmp_path / "ordering.csv"
        assert run("infer", graph, state, model_path, "--out", out) == 0
        ordering = load_ordering(out, net)
        truth = ground_truth_ordering(net.alpha)
        assert np.array_equal(ordering.ranks, truth.ranks)

    def test_row_count_equals_edge_count(self, workspace):
        tmp_path, graph, state = workspace
        model = tmp_path / "m.json"
        assert run("train", graph, state, "--epochs", 2, "--hidden", 8,
                   "--embedding-dims", "4,3,2", "--out", model) == 0
        out = tmp_path / "ordering.csv"
        assert run("infer", graph, state, model, "--out", out) == 0
        net = load_edge_list(graph)
        rows = out.read_text().strip().splitlines()
        assert len(rows) == net.edge_count + 1

    def test_schema_mismatch_exits_3(self, tmp_path, capsys):
        net, graph, state, model_path = separable_toy(tmp_path)
        payload = load_json(model_path)
        payload["feature_columns"] = ["bogus_%d" % k for k in range(7)]
        dump_json(payload, model_path)
        assert run("infer", graph, state, model_path,
                   "--out", tmp_path / "o.csv") == 3
        assert "schema" in capsys.readouterr().err

    def test_one_edge_graph_exits_3(self, tmp_path, capsys):
        _, _, _, model_path = separable_toy(tmp_path)
        graph, state = one_edge_graph(tmp_path)
        out = tmp_path / "ordering.csv"
        assert run("infer", graph, state, model_path, "--out", out) == 3
        err = capsys.readouterr().err
        assert err == "data error: normalization needs at least two edges\n"
        assert not out.exists()

    def test_non_finite_state_exits_3(self, tmp_path, capsys):
        net, graph, state, model_path = separable_toy(tmp_path)
        lines = state.read_text().splitlines()
        lines[4] = "3,nan"
        state.write_text("\n".join(lines) + "\n")
        out = tmp_path / "ordering.csv"
        assert run("infer", graph, state, model_path, "--out", out) == 3
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_score_exits_4(self, tmp_path, capsys, monkeypatch):
        net, graph, state, model_path = separable_toy(tmp_path)

        def nan_scores(model, net, inputs):
            scores = np.arange(net.edge_count, dtype=float)
            scores[3] = np.nan
            return scores

        monkeypatch.setattr("netchron.cli.predict_scores", nan_scores)
        out = tmp_path / "ordering.csv"
        assert run("infer", graph, state, model_path, "--out", out) == 4
        assert "NaN or infinite" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_chains_model_digest(self, tmp_path):
        net, graph, state, model_path = separable_toy(tmp_path)
        out = tmp_path / "ordering.csv"
        assert run("infer", graph, state, model_path, "--out", out) == 0
        manifest = load_json(str(out) + ".manifest.json")
        assert manifest["inputs"]["model"]["sha256"] == sha256_file(model_path)
        assert manifest["config"]["label_fraction"] == 0.3


class TestEvaluate:
    def test_ground_truth_ordering_is_perfect(self, workspace):
        tmp_path, graph, state = workspace
        net = load_edge_list(graph)
        ordering_path = tmp_path / "truth.csv"
        write_ordering(ground_truth_ordering(net.alpha), net, ordering_path)
        report_path = tmp_path / "report.json"
        assert run("evaluate", ordering_path, graph, "--steady-state", state,
                   "--out", report_path) == 0
        report = load_json(report_path)
        assert report["pairwise_accuracy"] == 1.0
        assert report["spearman_rho"] == pytest.approx(1.0, abs=1e-12)
        assert report["binned_trend"]["rmse"] == 0.0
        for value in report["trajectory_nrmse"].values():
            assert value == 0.0
        radar = report["hub_radar"]
        assert radar["area"] == pytest.approx(radar["perfect_area"], abs=1e-9)
        assert report["labeled_fraction"] == 1.0
        assert (tmp_path / "report.bins.csv").exists()
        assert (tmp_path / "report.trajectories.csv").exists()
        assert (tmp_path / "report.hubs.csv").exists()

    def test_reversed_ordering_has_rho_minus_one(self, workspace):
        tmp_path, graph, state = workspace
        net = load_edge_list(graph)
        from netchron.ordering import order_from_scores

        reversed_path = tmp_path / "reversed.csv"
        write_ordering(order_from_scores(net.alpha), net, reversed_path)
        report_path = tmp_path / "rev.json"
        assert run("evaluate", reversed_path, graph, "--out", report_path) == 0
        report = load_json(report_path)
        assert report["spearman_rho"] == pytest.approx(-1.0, abs=1e-12)
        assert report["pairwise_accuracy"] == 0.0

    def test_trajectories_csv_holds_the_report_curves(self, workspace):
        tmp_path, graph, state = workspace
        net = load_edge_list(graph)
        ordering_path = tmp_path / "truth.csv"
        write_ordering(ground_truth_ordering(net.alpha), net, ordering_path)
        report_path = tmp_path / "report.json"
        assert run("evaluate", ordering_path, graph, "--samples", 7,
                   "--out", report_path) == 0
        curves = load_json(report_path)["growth_curves"]
        rows = (tmp_path / "report.trajectories.csv").read_text().splitlines()
        names = rows[0].split(",")[1:]
        assert names == sorted(curves)
        assert len(rows) == 1 + 7
        for k, row in enumerate(rows[1:]):
            values = [float(v) for v in row.split(",")[1:]]
            assert values == [curves[name][k] for name in names]

    @pytest.mark.parametrize("flag", ["--bins", "--samples"])
    def test_zero_bins_or_samples_exits_3(self, workspace, capsys, flag):
        tmp_path, graph, state = workspace
        net = load_edge_list(graph)
        ordering_path = tmp_path / "truth.csv"
        write_ordering(ground_truth_ordering(net.alpha), net, ordering_path)
        report_path = tmp_path / "report.json"
        assert run("evaluate", ordering_path, graph, flag, 0,
                   "--out", report_path) == 3
        assert ">= 1" in capsys.readouterr().err
        assert not report_path.exists()

    @pytest.mark.parametrize("budget", [0, -5])
    def test_pair_budget_below_one_exits_3(self, workspace, capsys, budget):
        tmp_path, graph, state = workspace
        net = load_edge_list(graph)
        ordering_path = tmp_path / "truth.csv"
        write_ordering(ground_truth_ordering(net.alpha), net, ordering_path)
        report_path = tmp_path / "report.json"
        assert run("evaluate", ordering_path, graph, "--pair-budget", budget,
                   "--out", report_path) == 3
        assert "pair budget must be >= 1" in capsys.readouterr().err
        assert not report_path.exists()

    def test_pair_budget_samples_that_many_pairs(self, workspace):
        tmp_path, graph, state = workspace
        net = load_edge_list(graph)
        ordering_path = tmp_path / "truth.csv"
        write_ordering(ground_truth_ordering(net.alpha), net, ordering_path)
        report_path = tmp_path / "report.json"
        assert run("evaluate", ordering_path, graph, "--pair-budget", 50,
                   "--out", report_path) == 0
        report = load_json(report_path)
        assert report["pair_count"] == 50
        assert report["pairwise_accuracy"] == 1.0

    def test_malformed_config_value_exits_3(self, workspace, capsys):
        tmp_path, graph, state = workspace
        net = load_edge_list(graph)
        ordering_path = tmp_path / "truth.csv"
        write_ordering(ground_truth_ordering(net.alpha), net, ordering_path)
        cfg = tmp_path / "c.json"
        cfg.write_text('{"samples": "x"}\n')
        report_path = tmp_path / "report.json"
        assert run("evaluate", ordering_path, graph, "--config", cfg,
                   "--out", report_path) == 3
        assert "invalid value for samples: 'x'" in capsys.readouterr().err
        assert not report_path.exists()

    def test_foreign_ordering_exits_3(self, workspace, capsys):
        tmp_path, graph, state = workspace
        other = build_network(4, [(0, 1), (1, 2), (2, 3)], times=[0, 1, 2])
        other_path = tmp_path / "other.tsv"
        write_edge_list(other, other_path)
        ordering_path = tmp_path / "o.csv"
        write_ordering(ground_truth_ordering(other.alpha), other, ordering_path)
        assert run("evaluate", ordering_path, graph,
                   "--out", tmp_path / "r.json") == 3
        err = capsys.readouterr().err
        assert "cover" in err or "match" in err

    def test_rank_outside_int64_exits_3(self, workspace, capsys):
        tmp_path, graph, state = workspace
        net = load_edge_list(graph)
        ordering_path = tmp_path / "truth.csv"
        write_ordering(ground_truth_ordering(net.alpha), net, ordering_path)
        rows = ordering_path.read_text().splitlines()
        rows[1] = ",".join(rows[1].split(",")[:4] + [str(10**30)])
        ordering_path.write_text("\n".join(rows) + "\n")
        report_path = tmp_path / "report.json"
        assert run("evaluate", ordering_path, graph, "--out", report_path) == 3
        err = capsys.readouterr().err
        assert err == "data error: %s:2: integer field outside int64\n" % ordering_path
        assert not report_path.exists()

    def test_manifest_chains_infer_digest(self, tmp_path):
        net, graph, state, model_path = separable_toy(tmp_path)
        ordering = tmp_path / "ordering.csv"
        assert run("infer", graph, state, model_path, "--out", ordering) == 0
        infer_manifest = load_json(str(ordering) + ".manifest.json")
        report = tmp_path / "report.json"
        assert run("evaluate", ordering, graph, "--out", report) == 0
        eval_manifest = load_json(str(report) + ".manifest.json")
        assert (
            eval_manifest["inputs"]["ordering"]["sha256"]
            == infer_manifest["outputs"]["ordering"]["sha256"]
        )


class TestTheoryCheck:
    def test_grid_rows_and_exact_p1(self, tmp_path):
        out = tmp_path / "theory.json"
        assert run("theory-check", "--p-grid", "0.8,1.0", "--m-grid", "50,100",
                   "--trials", 20, "--seed", 0, "--out", out) == 0
        report = load_json(out)
        assert len(report["rows"]) == 4
        exact = [r for r in report["rows"] if r["accuracy"] == 1.0]
        assert len(exact) == 2
        for row in exact:
            assert row["theory"] == 0.0
            assert row["monte_carlo"] == 0.0
            assert row["ratio"] == 1.0
        for row in report["rows"]:
            if row["accuracy"] < 1.0:
                assert 0.5 < row["ratio"] < 1.5

    def test_out_of_domain_exits_4(self, tmp_path):
        assert run("theory-check", "--p-grid", "0.3", "--m-grid", "50",
                   "--trials", 5, "--out", tmp_path / "t.json") == 4


class TestPathdep:
    def test_default_run_is_order_dependent(self, tmp_path):
        out = tmp_path / "pathdep.json"
        assert run("pathdep", "--n", 4, "--seed", 0, "--out", out) == 0
        report = load_json(out)
        assert report["difference_norm"] > 1e-6
        assert report["order_dependent"] is True
        for detail in report["orders"].values():
            assert len(detail["stage_states"]) == 2
            assert len(detail["stage_states"][0]) == 4

    def test_too_few_nodes_exits_3(self, tmp_path):
        assert run("pathdep", "--n", 3, "--out", tmp_path / "p.json") == 3

    @pytest.mark.parametrize("duration", [0, -1])
    def test_nonpositive_duration_exits_3(self, tmp_path, capsys, duration):
        out = tmp_path / "p.json"
        assert run("pathdep", "--duration", duration, "--out", out) == 3
        err = capsys.readouterr().err
        assert err == "data error: stage duration must be positive, got %r\n" % float(
            duration
        )
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run("pathdep", "--n", 6, "--seed", 2, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()


class TestStrictJson:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_is_a_numerical_error(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises(NumericalError):
            dump_json({"rmse": np.float64(value)}, path)
        assert not path.exists()


class TestConfigCoercion:
    @pytest.mark.parametrize("command, config", [
        ("pathdep", '{"duration": "long"}'),
        ("pathdep", '{"dynamics": "bogus"}'),
        ("theory-check", '{"trials": "many"}'),
        ("theory-check", '{"m_grid": "1e999"}'),
    ])
    def test_malformed_config_value_exits_3(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "c.json"
        cfg.write_text(config + "\n")
        out = tmp_path / "out.json"
        assert run(command, "--config", cfg, "--out", out) == 3
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_simulate_value_exits_3(self, workspace, capsys):
        tmp_path, graph, state = workspace
        cfg = tmp_path / "c.json"
        cfg.write_text('{"max_steps": [10]}\n')
        out = tmp_path / "s.csv"
        assert run("simulate", graph, "--config", cfg, "--out", out) == 3
        assert "invalid value for max_steps" in capsys.readouterr().err
        assert not out.exists()


class TestPathOptions:
    """A config file must give every path as a string."""

    @pytest.mark.parametrize("command, positionals", [
        (name, positionals) for name, _, positionals, _ in COMMANDS
    ])
    def test_non_string_out_exits_3_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys, command, positionals):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text('{"out": 5}\n')
        required = ["--n", 30, "--m", 2] if command == "synth" else []
        assert run(command, *positionals, *required, "--config", "c.json") == 3
        assert capsys.readouterr().err == "data error: invalid value for out: 5\n"
        assert os.listdir(tmp_path) == ["c.json"]

    def test_non_string_steady_state_exits_3(self, workspace, monkeypatch, capsys):
        tmp_path, graph, _ = workspace
        net = load_edge_list(graph)
        ordering_path = tmp_path / "truth.csv"
        write_ordering(ground_truth_ordering(net.alpha), net, ordering_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text('{"steady_state": 7}\n')
        before = sorted(os.listdir(tmp_path))
        assert run("evaluate", ordering_path, graph, "--config", "c.json",
                   "--out", "report.json") == 3
        err = capsys.readouterr().err
        assert err == "data error: invalid value for steady_state: 7\n"
        assert sorted(os.listdir(tmp_path)) == before


def _set_w_out_entry(payload):
    payload["scorer"]["w_out"][0] = "x"


def _widen_w_self(payload):
    rows = payload["propagation"]["w_self"][1]
    payload["propagation"]["w_self"][1] = [row[:31] for row in rows]


def _nan_w_hidden(payload):
    payload["scorer"]["w_hidden"][0][0] = float("nan")


class TestMalformedJson:
    @pytest.fixture()
    def coupled(self, workspace):
        """A trained mode-both model with the default 4-32-32 propagation."""
        tmp_path, graph, state = workspace
        model = tmp_path / "model.json"
        assert run("train", graph, state, "--epochs", 1, "--out", model) == 0
        return tmp_path, graph, state, model

    def infer_exits_3(self, capsys, tmp_path, graph, state, model, needle):
        out = tmp_path / "ordering.csv"
        assert run("infer", graph, state, model, "--out", out) == 3
        err = capsys.readouterr().err
        assert "data error" in err and needle in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_truncated_model_file(self, coupled, capsys):
        tmp_path, graph, state, model = coupled
        model.write_text("{")
        self.infer_exits_3(capsys, tmp_path, graph, state, model, "invalid JSON")

    def test_truncated_state_metadata(self, coupled, capsys):
        tmp_path, graph, state, model = coupled
        (tmp_path / "state.csv.meta.json").write_text("{")
        self.infer_exits_3(capsys, tmp_path, graph, state, model, "invalid JSON")

    def test_truncated_config_file(self, workspace, capsys):
        tmp_path, graph, state = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{")
        out = tmp_path / "m.json"
        assert run("train", graph, state, "--config", cfg, "--out", out) == 3
        assert "invalid JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_without_scorer(self, coupled, capsys):
        tmp_path, graph, state, model = coupled
        model.write_text('{"format": "netchron-cpnn"}')
        self.infer_exits_3(capsys, tmp_path, graph, state, model, "lacks key")

    @pytest.mark.parametrize("edit, needle", [
        (_set_w_out_entry, "scorer.w_out must hold numbers"),
        (_widen_w_self, "propagation.w_self[1] has shape (32, 31)"),
        (_nan_w_hidden, "scorer.w_hidden holds a non-finite value"),
    ])
    def test_bad_weights(self, coupled, capsys, edit, needle):
        tmp_path, graph, state, model = coupled
        payload = load_json(model)
        edit(payload)
        # json.dumps writes NaN as a bare token, which json.load reads back.
        model.write_text(json.dumps(payload))
        self.infer_exits_3(capsys, tmp_path, graph, state, model, needle)

    def test_round_trip_still_loads(self, coupled):
        tmp_path, graph, state, model = coupled
        again = tmp_path / "again.json"
        save_model(load_model(model), again)
        assert again.read_bytes() == model.read_bytes()


class TestSteadyStateWarnings:
    def test_non_converged_state_warns_and_changes_no_output(self, workspace, capsys):
        tmp_path, graph, _ = workspace
        state = tmp_path / "short.csv"
        assert run("simulate", graph, "--dynamics", "gene", "--seed", 0,
                   "--max-steps", 5, "--out", state) == 0
        assert load_json(str(state) + ".meta.json")["converged"] is False
        # The same values without metadata give the run made without a warning.
        quiet = tmp_path / "quiet"
        quiet.mkdir()
        quiet_state = quiet / "short.csv"
        quiet_state.write_bytes(state.read_bytes())
        capsys.readouterr()

        outputs = {}
        for name, values in (("warned", state), ("quiet", quiet_state)):
            model = tmp_path / ("%s.json" % name)
            ordering = tmp_path / ("%s.csv" % name)
            assert run("train", graph, values, "--epochs", 2, "--hidden", 8,
                       "--embedding-dims", "4,3,2", "--out", model) == 0
            assert run("infer", graph, values, model, "--out", ordering) == 0
            manifests = [load_json(str(path) + ".manifest.json")
                         for path in (model, ordering)]
            outputs[name] = (model.read_bytes(), ordering.read_bytes(),
                             [m["warnings"] for m in manifests],
                             capsys.readouterr().err)

        model_bytes, ordering_bytes, warnings, err = outputs["warned"]
        assert all(len(w) == 1 and "did not converge" in w[0] for w in warnings)
        assert err.count("warning: steady state") == 2
        assert outputs["quiet"][:2] == (model_bytes, ordering_bytes)
        assert outputs["quiet"][2:] == ([[], []], "")

    def test_converged_state_leaves_warnings_empty(self, workspace):
        tmp_path, graph, state = workspace
        assert load_json(str(state) + ".meta.json")["converged"] is True
        model = tmp_path / "m.json"
        assert run("train", graph, state, "--epochs", 1, "--hidden", 8,
                   "--embedding-dims", "4,3,2", "--out", model) == 0
        assert load_json(str(model) + ".manifest.json")["warnings"] == []

    def test_metadata_that_is_not_an_object_exits_3(self, workspace, capsys):
        tmp_path, graph, state = workspace
        (tmp_path / "state.csv.meta.json").write_text("[1, 2]\n")
        out = tmp_path / "m.json"
        assert run("train", graph, state, "--epochs", 1, "--out", out) == 3
        assert "JSON object" in capsys.readouterr().err


    def test_unreadable_metadata_exits_3_without_a_manifest(self, workspace, capsys):
        tmp_path, graph, _ = workspace
        state = tmp_path / "short.csv"
        assert run("simulate", graph, "--dynamics", "gene", "--seed", 0,
                   "--max-steps", 3, "--out", state) == 0
        sidecar = tmp_path / "short.csv.meta.json"
        sidecar.unlink()
        sidecar.mkdir()
        capsys.readouterr()
        out = tmp_path / "m.json"
        assert run("train", graph, state, "--epochs", 1, "--out", out) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error: "), err
        assert not os.path.exists(str(out) + ".manifest.json")


@pytest.fixture()
def tables(workspace):
    """Each text table a command reads: (its file, a loader returning
    comparable values, the argv of a command reading a given copy)."""
    tmp_path, graph, state = workspace
    net = load_edge_list(graph)
    ordering = tmp_path / "ordering.csv"
    write_ordering(ground_truth_ordering(net.alpha), net, ordering)
    out = tmp_path / "out.json"
    return {
        "graph": (graph,
                  lambda p: (load_edge_list(p).endpoints.tolist(),
                             load_edge_list(p).alpha.tolist()),
                  lambda p: ("simulate", p, "--out", tmp_path / "s.csv")),
        "state": (state, lambda p: load_steady_state(p)[0].tolist(),
                  lambda p: ("train", graph, p, "--epochs", 1, "--out", out)),
        "ordering": (ordering, lambda p: load_ordering(p, net).ranks.tolist(),
                     lambda p: ("evaluate", p, graph, "--out", out)),
    }


class TestTableReaders:
    """The rules every text-table reader shares: a header where the
    format has one, blank lines skipped, a fixed field count, and `#`
    comments in the edge list only."""

    @pytest.mark.parametrize("kind, line, needle", [
        ("graph", "0\t1", "expected 3 fields, got 2"),
        ("graph", "0\t1\t2\t3", "expected 3 fields, got 4"),
        ("state", "5", "expected 2 fields, got 1"),
        ("state", "1,0.5,7", "expected 2 fields, got 3"),
        ("state", "# note", "expected 2 fields, got 1"),
        ("state", None, "missing header 'node_id,value'"),
        ("ordering", "0,0,1,0.5", "expected 5 fields, got 4"),
        ("ordering", "0,0,1,0.5,1,9", "expected 5 fields, got 6"),
        ("ordering", "# note", "expected 5 fields, got 1"),
        ("ordering", None, "missing header 'edge_index,u,v,borda_score,rank'"),
    ])
    def test_malformed_line_is_named(self, tables, capsys, kind, line, needle):
        path, load, argv = tables[kind]
        lines = path.read_text().splitlines()
        bad = path.with_name("bad-" + path.name)
        if line is None:
            lines, where = lines[1:], 1
        else:
            lines, where = lines[:1] + ["", line] + lines[1:], 3
        bad.write_text("\n".join(lines) + "\n")
        prefix = "%s:%d: " % (bad, where)
        with pytest.raises(ParseError) as err:
            load(bad)
        assert str(err.value) == prefix + needle
        capsys.readouterr()
        assert run(*argv(bad)) == 3
        assert capsys.readouterr().err == "data error: %s%s\n" % (prefix, needle)

    @pytest.mark.parametrize("kind", ["graph", "state", "ordering"])
    def test_blank_lines_are_skipped(self, tables, kind):
        path, load, _ = tables[kind]
        lines = path.read_text().splitlines()
        extra = ["", "  ", "# note"] if kind == "graph" else ["", "  "]
        spaced = path.with_name("spaced-" + path.name)
        spaced.write_text("\n".join(lines[:1] + extra + lines[1:] + [""]) + "\n")
        assert load(spaced) == load(path)


class TestManifests:
    def test_every_command_writes_one_manifest_listing_its_files(self, workspace):
        tmp_path, graph, state = workspace
        model = tmp_path / "train" / "m.json"
        ordering = tmp_path / "infer" / "o.csv"
        cases = {
            "synth": ("--kind", "pa", "--n", 30, "--m", 2),
            "simulate": (graph,),
            "train": (graph, state, "--epochs", 1, "--hidden", 8,
                      "--embedding-dims", "4,3,2"),
            "infer": (graph, state, model),
            "evaluate": (ordering, graph, "--pair-budget", 50),
            "theory-check": ("--m-grid", 50, "--trials", 10),
            "pathdep": (),
        }
        assert set(cases) == set(OPTIONS)
        keys = set()
        for command, argv in cases.items():
            directory = tmp_path / command
            directory.mkdir()
            out = model if command == "train" else (
                ordering if command == "infer" else directory / "out.json")
            assert run(command, *argv, "--out", out) == 0, command
            manifest = load_json(str(out) + ".manifest.json")
            keys.add(tuple(sorted(manifest)))
            assert manifest["command"] == command
            assert manifest["timings"]["total_seconds"] >= 0
            written = {str(directory / name) for name in os.listdir(directory)}
            listed = {entry["path"] for entry in manifest["outputs"].values()}
            assert written == listed | {str(out) + ".manifest.json"}, command
            for entry in manifest["outputs"].values():
                assert entry["sha256"] == sha256_file(entry["path"])
        assert len(keys) == 1

    def test_a_command_that_exits_3_writes_no_manifest(self, workspace, capsys):
        tmp_path, graph, state = workspace
        bad_state = tmp_path / "bad.csv"
        bad_state.write_text("node_id,value\n0,0.5,1\n")
        bad_config = tmp_path / "bad.json"
        bad_config.write_text('{"trials": "many"}\n')
        missing = tmp_path / "missing"
        cases = {
            "synth": ("--kind", "pa", "--n", 2, "--m", 2),
            "simulate": (missing,),
            "train": (graph, bad_state, "--epochs", 1),
            "infer": (graph, state, missing),
            "evaluate": (missing, graph),
            "theory-check": ("--config", bad_config),
            "pathdep": ("--n", 3),
        }
        assert set(cases) == set(OPTIONS)
        for command, argv in cases.items():
            directory = tmp_path / command
            directory.mkdir()
            assert run(command, *argv, "--out", directory / "out") == 3, command
            assert os.listdir(directory) == [], command

    @pytest.mark.parametrize("size", [0, 11, 65536 * 3 + 17])
    def test_sha256_file_matches_hashlib(self, tmp_path, size):
        data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8)
        path = tmp_path / "blob"
        path.write_bytes(data.tobytes())
        assert sha256_file(path) == hashlib.sha256(data.tobytes()).hexdigest()


def run_script(script, directory):
    """Run a Python script in a fresh interpreter that imports this netchron."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(netchron.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run(
        [sys.executable, "-c", script], cwd=directory, env=env,
        capture_output=True, text=True, timeout=300,
    )


class TestNumpyOnlyRuntime:
    def test_infer_and_evaluate_load_no_openssl(self, workspace):
        # hashlib loads OpenSSL through _hashlib; manifests hash with
        # CPython's own SHA-256, and these stages draw no random numbers.
        tmp_path, graph, state = workspace
        assert run("train", graph, state, "--epochs", 1, "--hidden", 4,
                   "--embedding-dims", "4,3", "--out", tmp_path / "m.json") == 0
        script = textwrap.dedent("""
            import sys
            from netchron.cli import main

            def run(*argv):
                assert main([str(a) for a in argv]) == 0

            run("infer", "graph.tsv", "state.csv", "m.json", "--out", "o.csv")
            run("evaluate", "o.csv", "graph.tsv", "--steady-state", "state.csv",
                "--samples", 5, "--out", "r.json")
            print("openssl loaded:", "_hashlib" in sys.modules)
        """)
        done = run_script(script, tmp_path)
        assert done.returncode == 0, done.stderr
        assert "openssl loaded: False" in done.stdout

    def test_pipeline_imports_neither_scipy_nor_networkx(self, tmp_path):
        script = textwrap.dedent("""
            import sys
            from netchron.cli import main

            def run(*argv):
                assert main([str(a) for a in argv]) == 0

            run("synth", "--n", 30, "--m", 2, "--out", "g.tsv")
            run("simulate", "g.tsv", "--dynamics", "gene", "--out", "s.csv")
            run("train", "g.tsv", "s.csv", "--epochs", 1, "--hidden", 4,
                "--embedding-dims", "4,3", "--out", "m.json")
            run("infer", "g.tsv", "s.csv", "m.json", "--out", "o.csv")
            run("evaluate", "o.csv", "g.tsv", "--steady-state", "s.csv",
                "--samples", 5, "--out", "r.json")
            loaded = sorted({"scipy", "networkx", "numpy.ma"} & set(sys.modules))
            print("heavy modules:", loaded)
            assert not loaded, loaded
        """)
        done = run_script(script, tmp_path)
        assert done.returncode == 0, done.stderr
        assert "heavy modules: []" in done.stdout


class TestOptionCoercers:
    @pytest.mark.parametrize("value, expected", [
        (12, 12), (12.0, 12), (1e3, 1000), ("12", 12), (" 7 ", 7),
        ("12.0", 12), ("1e3", 1000), (-5, -5), (2**63 - 1, 2**63 - 1),
        (-2**63, -2**63), (str(2**63 - 1), 2**63 - 1),
    ])
    def test_integer_accepts_integral_values(self, value, expected):
        out = integer(value)
        assert out == expected and type(out) is int

    @pytest.mark.parametrize("value", [
        True, False, 4.5, "4.5", float("nan"), float("inf"), "1e999", "x",
        "", None, [1], 2**63, -2**63 - 1, str(2**63), 1e19, "1e19", 10**20,
    ])
    def test_integer_rejects_without_truncating(self, value):
        with pytest.raises((TypeError, ValueError)):
            integer(value)

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -float("inf"), "nan", "inf", "-Infinity",
        "1e999", True, "x", None,
    ])
    def test_finite_float_rejects_non_finite_and_bool(self, value):
        with pytest.raises((TypeError, ValueError)):
            finite_float(value)

    @pytest.mark.parametrize("value, expected", [(0, 0), ("7", 7), (3.0, 3)])
    def test_non_negative_integer_accepts(self, value, expected):
        assert non_negative_integer(value) == expected

    @pytest.mark.parametrize("value", [-1, "-1", -2.0, 1.5, True, "x"])
    def test_non_negative_integer_rejects(self, value):
        with pytest.raises(ValueError):
            non_negative_integer(value)

    def test_list_coercer(self):
        ints = tuple_of(integer)
        assert ints("4,,8") == ints([4, 8.0]) == (4, 8)
        for bad in ("", [], "4,4.5", [4, True], 5):
            with pytest.raises((TypeError, ValueError)):
                ints(bad)


class TestStrictIntegers:
    @pytest.mark.parametrize("config, needle", [
        ('{"n": 60.9, "m": 2}', "invalid value for n: 60.9"),
        ('{"n": 60, "m": true}', "invalid value for m: True"),
        ('{"n": "60.5", "m": 2}', "invalid value for n: '60.5'"),
    ])
    def test_non_integral_config_value_exits_3(self, tmp_path, capsys,
                                               config, needle):
        cfg = tmp_path / "c.json"
        cfg.write_text(config + "\n")
        out = tmp_path / "g.tsv"
        assert run("synth", "--config", cfg, "--out", out) == 3
        err = capsys.readouterr().err
        assert err == "data error: %s\n" % needle
        assert not out.exists()

    def test_integral_float_config_value_is_accepted(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n": 60.0, "m": 2, "seed": "1e0"}\n')
        out = tmp_path / "g.tsv"
        assert run("synth", "--config", cfg, "--out", out) == 0
        assert load_edge_list(out).node_count == 60
        assert load_json(str(out) + ".manifest.json")["config"]["seed"] == 1

    def test_fractional_epochs_exit_3(self, workspace, capsys):
        tmp_path, graph, state = workspace
        cfg = tmp_path / "c.json"
        cfg.write_text('{"epochs": 1.7}\n')
        model = tmp_path / "m.json"
        assert run("train", graph, state, "--config", cfg, "--out", model) == 3
        assert "invalid value for epochs: 1.7" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--n", "4.5"), ("--m", "true"),
    ])
    def test_non_integral_flag_exits_2(self, tmp_path, flag, value):
        argv = {"--n": "30", "--m": "2"}
        argv[flag] = value
        with pytest.raises(SystemExit) as exc:
            run("synth", *[t for kv in argv.items() for t in kv],
                "--out", tmp_path / "g.tsv")
        assert exc.value.code == 2
        assert not (tmp_path / "g.tsv").exists()

    def test_fractional_embedding_dims_flag_exits_2(self, workspace, capsys):
        tmp_path, graph, state = workspace
        with pytest.raises(SystemExit) as exc:
            run("train", graph, state, "--embedding-dims", "4,4.5",
                "--out", tmp_path / "m.json")
        assert exc.value.code == 2
        assert "--embedding-dims" in capsys.readouterr().err


class TestOversizedRequests:
    """A request too large to serve exits 2 or 3 with one message line,
    never with a traceback. Every value here is refused before anything
    is allocated."""

    @pytest.mark.parametrize("argv", [
        ("pathdep", "--n", 10**20),
        ("simulate", "graph.tsv", "--max-steps", 10**20),
        ("synth", "--n", 30, "--m", 2, "--seed", 10**20),
        ("theory-check", "--m-grid", "100,%d" % 10**20),
    ])
    def test_integer_flag_outside_int64_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", out)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # argparse's usage block, then its one error line.
        last = err.splitlines()[-1]
        assert last.startswith("netchron %s: error: argument --" % argv[0])
        assert last.endswith("%d'" % 10**20)
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_integer_config_value_outside_int64_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n": %d}\n' % 10**20)
        out = tmp_path / "out"
        assert run("pathdep", "--config", cfg, "--out", out) == 3
        assert capsys.readouterr().err == "data error: invalid value for n: %d\n" % 10**20
        assert not out.exists()

    def test_er_graph_with_too_many_node_pairs_exits_3(self, tmp_path, capsys):
        out = tmp_path / "g.tsv"
        assert run("synth", "--kind", "er", "--n", 10**13, "--m", 1, "--out", out) == 3
        assert capsys.readouterr().err == (
            "data error: %d nodes have more node pairs than int64 holds\n" % 10**13)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 72.8 TiB"), "out of memory: Unable to allocate 72.8 TiB"),
        (MemoryError(), "out of memory: an allocation failed"),
    ])
    def test_memory_error_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                error, line):
        import netchron.cli

        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(netchron.cli, "path_dependence_demo", exhausted)
        assert run("pathdep", "--out", tmp_path / "out") == 3
        assert capsys.readouterr().err == line + "\n"
        assert os.listdir(tmp_path) == []


SEEDED = [name for name, options in OPTIONS.items() if "seed" in options]


class TestSeeds:
    """Every seed is a non-negative integer: a bad flag is a usage error
    (exit 2), a bad config-file value a data error (exit 3)."""

    @staticmethod
    def positionals(workspace, command):
        tmp_path, graph, state = workspace
        ordering = tmp_path / "truth.csv"
        if command == "evaluate":
            net = load_edge_list(graph)
            write_ordering(ground_truth_ordering(net.alpha), net, ordering)
        return {
            "synth": ["--n", 30, "--m", 2],
            "simulate": [graph],
            "train": [graph, state, "--epochs", 1],
            "evaluate": [ordering, graph, "--pair-budget", 50],
            "theory-check": ["--trials", 5],
            "pathdep": [],
        }[command]

    def test_every_seed_option_has_the_one_kind(self):
        assert SEEDED == ["synth", "simulate", "train", "evaluate",
                          "theory-check", "pathdep"]
        for command in SEEDED:
            assert OPTIONS[command]["seed"][:2] == (non_negative_integer, 0)

    @pytest.mark.parametrize("command", SEEDED)
    def test_valid_seed_runs(self, workspace, command):
        out = workspace[0] / "out"
        argv = self.positionals(workspace, command)
        assert run(command, *argv, "--seed", 3, "--out", out) == 0
        assert load_json(str(out) + ".manifest.json")["seed"] == 3

    @pytest.mark.parametrize("seed", [-1, 1.5])
    @pytest.mark.parametrize("command", SEEDED)
    def test_bad_seed_flag_exits_2(self, workspace, capsys, command, seed):
        out = workspace[0] / "out"
        argv = self.positionals(workspace, command)
        with pytest.raises(SystemExit) as exc:
            run(command, *argv, "--seed", seed, "--out", out)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", SEEDED)
    def test_negative_seed_in_config_exits_3(self, workspace, capsys, command):
        out = workspace[0] / "out"
        cfg = workspace[0] / "c.json"
        cfg.write_text('{"seed": -1}\n')
        argv = self.positionals(workspace, command)
        assert run(command, *argv, "--config", cfg, "--out", out) == 3
        assert "invalid value for seed: -1" in capsys.readouterr().err
        assert not out.exists()


class TestFiniteFloats:
    @pytest.mark.parametrize("config", [
        '{"tol": NaN}', '{"tol": "nan"}', '{"tol": Infinity}',
    ])
    def test_simulate_non_finite_tol_writes_nothing(self, workspace, capsys,
                                                    config):
        tmp_path, graph, _ = workspace
        cfg = tmp_path / "c.json"
        cfg.write_text(config + "\n")
        out = tmp_path / "s.csv"
        assert run("simulate", graph, "--config", cfg, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: invalid value for tol: ")
        assert sorted(p.name for p in tmp_path.glob("s.csv*")) == []

    @pytest.mark.parametrize("config", [
        '{"learning_rate": NaN}', '{"l2_coeff": Infinity}',
        '{"val_fraction": -Infinity}', '{"label_fraction": NaN}',
    ])
    def test_train_non_finite_value_exits_3_before_training(
            self, workspace, capsys, config):
        tmp_path, graph, state = workspace
        cfg = tmp_path / "c.json"
        cfg.write_text(config + "\n")
        model = tmp_path / "m.json"
        assert run("train", graph, state, "--config", cfg, "--out", model) == 3
        assert "invalid value for" in capsys.readouterr().err
        assert list(tmp_path.glob("m.json*")) == []

    def test_pathdep_infinite_duration_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"duration": Infinity}\n')
        out = tmp_path / "p.json"
        assert run("pathdep", "--config", cfg, "--out", out) == 3
        assert "invalid value for duration: inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("simulate", "GRAPH", "--tol", "nan"),
        ("train", "GRAPH", "STATE", "--learning-rate", "nan"),
        ("train", "GRAPH", "STATE", "--l2-coeff", "inf"),
        ("pathdep", "--duration", "inf"),
    ])
    def test_non_finite_flag_exits_2(self, workspace, argv):
        tmp_path, graph, state = workspace
        out = tmp_path / "out.file"
        names = {"GRAPH": graph, "STATE": state}
        with pytest.raises(SystemExit) as exc:
            run(*[names.get(a, a) for a in argv], "--out", out)
        assert exc.value.code == 2
        assert list(tmp_path.glob("out.file*")) == []


class TestTrainConfigInEveryMode:
    @pytest.mark.parametrize("config, needle", [
        ('{"activation": "sigmoid", "neighbor_norm": "bogus", "mode": "state"}',
         "activation must be one of tanh, relu, got 'sigmoid'"),
        ('{"neighbor_norm": "bogus", "mode": "state"}',
         "neighbor_norm must be one of mean, symmetric, got 'bogus'"),
        ('{"scorer_activation": "gelu"}', "scorer_activation must be one of"),
        ('{"embedding_dims": [9, 0], "mode": "state"}',
         "dimensions must be positive"),
    ])
    def test_invalid_config_exits_3(self, workspace, capsys, config, needle):
        tmp_path, graph, state = workspace
        cfg = tmp_path / "c.json"
        cfg.write_text(config + "\n")
        model = tmp_path / "m.json"
        assert run("train", graph, state, "--config", cfg, "--out", model) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: invalid training config: ")
        assert needle in err and err.count("\n") == 1
        assert not model.exists()

    @pytest.mark.parametrize("key, value", [
        ("activation", "sigmoid"),
        ("neighbor_norm", "bogus"),
        ("embedding_dims", [9, 0]),
        ("epochs", 1.5),
    ])
    def test_checkpoint_with_invalid_config_is_rejected(self, workspace,
                                                         capsys, key, value):
        tmp_path, graph, state = workspace
        model = tmp_path / "m.json"
        assert run("train", graph, state, "--mode", "state", "--epochs", 1,
                   "--hidden", 4, "--out", model) == 0
        payload = load_json(model)
        payload["config"][key] = value
        dump_json(payload, model)
        with pytest.raises(ParseError, match="invalid training config"):
            load_model(model)
        out = tmp_path / "o.csv"
        assert run("infer", graph, state, model, "--out", out) == 3
        assert "invalid training config" in capsys.readouterr().err
        assert not out.exists()


def _subparsers():
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _flag(name):
    return "--" + name.replace("_", "-")


def _flag_text(value):
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


class TestCliSurface:
    def test_every_option_dest_is_a_config_key(self):
        parsers = _subparsers()
        assert set(parsers) == set(OPTIONS)
        for command, p in parsers.items():
            dests = {a.dest for a in p._actions
                     if a.option_strings} - {"config", "help", "version"}
            assert dests == set(OPTIONS[command]), command

    def test_infer_has_no_seed(self, tmp_path):
        net, graph, state, model_path = separable_toy(tmp_path)
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            run("infer", graph, state, model_path, "--seed", 5, "--out", out)
        assert exc.value.code == 2
        cfg = tmp_path / "c.json"
        cfg.write_text('{"seed": 5}\n')
        assert run("infer", graph, state, model_path, "--config", cfg,
                   "--out", out) == 3
        assert not out.exists()

    def test_flag_and_config_file_resolve_alike(self, workspace):
        tmp_path, graph, state = workspace
        model = tmp_path / "model.json"
        assert run("train", graph, state, "--epochs", 1, "--hidden", 4,
                   "--embedding-dims", "4,3", "--out", model) == 0
        ordering = tmp_path / "ordering.csv"
        assert run("infer", graph, state, model, "--out", ordering) == 0
        cases = {
            "synth": ((), {"kind": "er", "n": 30, "m": 2, "seed": 3}),
            "simulate": ((graph,), {"dynamics": "gene", "seed": 2,
                                    "tol": 1e-5, "max_steps": 50}),
            "train": ((graph, state), {
                "learning_rate": 0.01, "l2_coeff": 0.001, "epochs": 1,
                "batch_size": 64, "pair_budget": 500, "label_fraction": 0.5,
                "seed": 2, "mode": "both", "hidden": 4,
                "embedding_dims": [4, 3], "activation": "relu",
                "neighbor_norm": "symmetric", "scorer_activation": "relu",
                "val_fraction": 0.2,
            }),
            "infer": ((graph, state, model), {}),
            "evaluate": ((ordering, graph), {
                "steady_state": str(state), "pair_budget": 40, "seed": 1,
                "bins": 4, "samples": 5, "top_k": 3,
            }),
            "theory-check": ((), {"p_grid": [0.8, 0.9], "m_grid": [20, 40],
                                  "trials": 5, "seed": 1}),
            "pathdep": ((), {"n": 5, "dynamics": "gene", "duration": 0.5,
                             "seed": 1}),
        }
        assert set(cases) == set(OPTIONS)
        for command, (positionals, values) in cases.items():
            assert set(values) | {"out"} == set(OPTIONS[command]), command
            out = tmp_path / ("%s.out" % command)
            flags = [t for k, v in values.items()
                     for t in (_flag(k), _flag_text(v))]
            assert run(command, *positionals, *flags, "--out", out) == 0
            by_flag = (load_json(str(out) + ".manifest.json")["config"],
                       out.read_bytes())
            cfg = tmp_path / ("%s.json" % command)
            cfg.write_text(json.dumps(dict(values, out=str(out))))
            assert run(command, *positionals, "--config", cfg) == 0
            by_file = (load_json(str(out) + ".manifest.json")["config"],
                       out.read_bytes())
            assert by_flag == by_file, command

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_help_lists_every_option_and_its_choices(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name, (kind, _, _) in OPTIONS[command].items():
            assert _flag(name) in text, name
            if isinstance(kind, type) and issubclass(kind, enum.Enum):
                kind = tuple(k.value for k in kind)
            if isinstance(kind, tuple):
                assert "%s {%s}" % (_flag(name), ",".join(kind)) in text
