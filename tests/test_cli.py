"""End-to-end tests of the command-line interface.

Commands run in-process through main(argv); files land in tmp_path.
"""

import dataclasses

import numpy as np
import pytest

from netchron.cli import TRAIN_DEFAULTS, main
from netchron.datasets import load_edge_list, write_edge_list
from netchron.dynamics import load_steady_state
from netchron.errors import NumericalError
from netchron.features import STATE_COLUMNS, FeatureMode
from netchron.graph import build_network
from netchron.ordering import ground_truth_ordering, load_ordering, write_ordering
from netchron.ranker import CpnnModel, ScorerWeights, TrainConfig, save_model
from netchron.serialize import dump_json, load_json, sha256_file


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
        sparse = build_network(net.node_count, list(net.edges), times)
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
        assert set(TRAIN_DEFAULTS) == fields | {"out"}

    @pytest.mark.parametrize("flag, value", [
        ("--label-fraction", 1.5),
        ("--epochs", 0),
    ])
    def test_invalid_flag_value_exits_3(self, workspace, capsys, flag, value):
        tmp_path, graph, state = workspace
        assert run("train", graph, state, flag, value,
                   "--out", tmp_path / "m.json") == 3
        assert "invalid training config" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_invalid_config_file_mode_exits_3(self, workspace, capsys):
        tmp_path, graph, state = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mode": "bogus"}\n')
        assert run("train", graph, state, "--config", cfg,
                   "--out", tmp_path / "m.json") == 3
        assert "bogus" in capsys.readouterr().err


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
    w_hidden = np.zeros((7, 1))
    w_hidden[sum_col, 0] = -1.0
    model = CpnnModel(
        scorer=ScorerWeights(
            w_hidden=w_hidden,
            b_hidden=np.zeros(1),
            w_out=np.ones(1),
            b_out=0.0,
        ),
        propagation=None,
        feature_columns=STATE_COLUMNS,
        mode=FeatureMode.STATE_ONLY,
        config=TrainConfig(mode=FeatureMode.STATE_ONLY, hidden=1),
    )
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
