"""Dynamics updates, convergence behavior, relaxation, and the order demo."""

import itertools
import math

import numpy as np
import pytest

from netchron.dynamics import (
    DynamicsKind,
    DynamicsSpec,
    SteadyState,
    load_steady_state,
    path_dependence_demo,
    relax_stages,
    sample_dynamics_params,
    simulate,
    step_dynamics,
    write_steady_state,
)
from netchron.errors import (
    BadSpec,
    DimensionMismatch,
    NumericalBlowup,
    ParseError,
    StageMismatch,
)
from netchron.graph import build_network

import oracles


def complete_graph(n):
    return build_network(n, list(itertools.combinations(range(n), 2)))


class TestUpdates:
    def _spec_for(self, kind, n, seed):
        return sample_dynamics_params(kind, n, seed)

    @pytest.mark.parametrize("kind", ["sis", "gene", "opinion"])
    def test_matches_definition_loops(self, kind):
        rng = np.random.default_rng(47)
        for trial in range(10):
            net = oracles.random_network(rng, max_nodes=12)
            spec = self._spec_for(kind, net.node_count, trial)
            x = rng.random(net.node_count)
            got = step_dynamics(net, spec, x)
            ref = oracles.dynamics_step_by_definition(net, spec, x)
            assert np.allclose(got, ref, atol=1e-12)

    def test_sis_stays_in_unit_interval(self):
        rng = np.random.default_rng(53)
        net = complete_graph(6)
        spec = DynamicsSpec(kind=DynamicsKind.EPIDEMIC)
        x = rng.random(6)
        for _ in range(50):
            x = step_dynamics(net, spec, x)
            assert (x >= 0.0).all() and (x <= 1.0).all()

    def test_wrong_state_length(self):
        net = complete_graph(3)
        spec = DynamicsSpec(kind=DynamicsKind.EPIDEMIC)
        with pytest.raises(DimensionMismatch):
            step_dynamics(net, spec, np.zeros(5))


class TestSimulate:
    def test_sis_k5_matches_scalar_fixed_point(self):
        net = complete_graph(5)
        spec = DynamicsSpec(kind=DynamicsKind.EPIDEMIC)
        out = simulate(net, spec, initial=np.full(5, 0.5))
        ref = oracles.sis_fixed_point_scalar(degree=4)
        assert out.converged
        assert np.abs(out.values - ref).max() < 1e-6

    def test_opinion_consensus_is_fixed_point(self):
        net = complete_graph(4)
        spec = sample_dynamics_params("opinion", 4, seed=3)
        out = simulate(net, spec, initial=np.full(4, 0.42))
        assert out.converged
        assert out.steps == 1
        assert np.array_equal(out.values, np.full(4, 0.42))

    def test_gene_isolated_node_hits_basal_in_one_step(self):
        net = build_network(3, [(0, 1)])
        spec = sample_dynamics_params("gene", 3, seed=5)
        nxt = step_dynamics(net, spec, np.array([0.9, 0.8, 0.7]))
        assert nxt[2] == spec.basal[2]

    @pytest.mark.parametrize("kind,seed", [("sis", 0), ("gene", 1)])
    def test_converged_state_is_a_fixed_point(self, kind, seed):
        net = complete_graph(5)
        spec = sample_dynamics_params(kind, 5, seed)
        out = simulate(net, spec, seed=seed)
        assert out.converged
        moved = step_dynamics(net, spec, out.values)
        assert np.linalg.norm(moved - out.values) < spec.tol

    def test_opinion_divergence_raises_blowup(self):
        net = build_network(2, [(0, 1)])
        spec = DynamicsSpec(kind=DynamicsKind.OPINION, pull=np.array([3.9, 3.8]))
        with pytest.raises(NumericalBlowup):
            simulate(net, spec, initial=np.array([0.0, 1.0]))

    def test_non_convergent_run_reports_flag(self):
        # Equal unit pull on two nodes swaps the states forever.
        net = build_network(2, [(0, 1)])
        spec = DynamicsSpec(
            kind=DynamicsKind.OPINION, pull=np.array([1.0, 1.0]), max_steps=50
        )
        out = simulate(net, spec, initial=np.array([0.0, 1.0]))
        assert not out.converged
        assert out.steps == 50
        assert out.residual > spec.tol

    def test_default_initial_is_seeded(self):
        net = complete_graph(4)
        spec = DynamicsSpec(kind=DynamicsKind.EPIDEMIC)
        a = simulate(net, spec, seed=9)
        b = simulate(net, spec, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_bad_specs_rejected(self):
        net = complete_graph(3)
        with pytest.raises(BadSpec):
            simulate(net, DynamicsSpec(kind=DynamicsKind.EPIDEMIC, infection=1.5))
        with pytest.raises(BadSpec):
            simulate(net, DynamicsSpec(kind=DynamicsKind.GENE))
        with pytest.raises(BadSpec):
            simulate(
                net,
                DynamicsSpec(
                    kind=DynamicsKind.GENE,
                    hill_exponent=1.0,
                    basal=np.zeros(3),
                    gain=np.ones(3),
                ),
            )
        with pytest.raises(BadSpec):
            simulate(net, DynamicsSpec(kind=DynamicsKind.OPINION))
        with pytest.raises(DimensionMismatch):
            simulate(net, DynamicsSpec(kind=DynamicsKind.EPIDEMIC), initial=[0.1])

    @pytest.mark.parametrize("fields", [
        dict(kind="sis", infection=5.0),
        dict(kind="gene"),
        dict(kind="bogus"),
    ], ids=["sis out of range", "gene without arrays", "unknown kind"])
    def test_string_kinds_are_checked(self, fields):
        with pytest.raises(BadSpec):
            simulate(complete_graph(3), DynamicsSpec(**fields))

    def test_string_kind_runs_as_its_enum(self):
        net = complete_graph(4)
        spec = DynamicsSpec(kind="sis")
        assert spec.kind is DynamicsKind.EPIDEMIC
        a = simulate(net, spec, seed=3)
        b = simulate(net, DynamicsSpec(kind=DynamicsKind.EPIDEMIC), seed=3)
        assert np.array_equal(a.values, b.values)


class TestSpecConstruction:
    @pytest.mark.parametrize("fields", [
        dict(kind="sis", max_steps=1.5),
        dict(kind="sis", max_steps=True),
        dict(kind="sis", tol="tiny"),
        dict(kind="sis", tol=0.0),
        dict(kind="sis", infection=5.0),
        dict(kind="sis", recovery=math.nan),
        dict(kind="gene"),
        dict(kind="gene", basal=np.zeros(3)),
        dict(kind="gene", hill_exponent="2.5x", basal=np.zeros(3), gain=np.ones(3)),
        dict(kind="opinion"),
        dict(kind="bogus"),
    ], ids=["max_steps=1.5", "max_steps=True", "tol=tiny", "tol=0", "infection=5",
            "recovery=nan", "gene without arrays", "gene without gain",
            "hill_exponent=2.5x", "opinion without pull", "unknown kind"])
    def test_invalid_spec_raises_when_built(self, fields):
        with pytest.raises(BadSpec):
            DynamicsSpec(**fields)

    def test_fields_are_coerced_by_their_kinds(self):
        spec = DynamicsSpec(kind="gene", basal=[0, 1], gain=(1, 2), tol="1e-6",
                            max_steps=12.0, infection=1)
        assert spec.kind is DynamicsKind.GENE
        assert (spec.tol, spec.max_steps, spec.infection) == (1e-6, 12, 1.0)
        assert type(spec.max_steps) is int and type(spec.infection) is float

    @pytest.mark.parametrize("shape", [(1,), (2,), (4,), (3, 1)])
    def test_step_rejects_arrays_of_another_length(self, shape):
        net = complete_graph(3)
        spec = DynamicsSpec(kind="gene", basal=np.zeros(shape), gain=np.ones(3))
        with pytest.raises(BadSpec, match="basal must be a per-node array"):
            step_dynamics(net, spec, np.full(3, 0.5))
        with pytest.raises(BadSpec, match="basal must be a per-node array"):
            simulate(net, spec)


class TestSampleParams:
    def test_gene_ranges(self):
        spec = sample_dynamics_params("gene", 500, seed=1)
        assert spec.basal.shape == (500,)
        assert (spec.basal >= 0).all() and (spec.basal < 1).all()
        assert (spec.gain >= 0.5).all() and (spec.gain < 1.5).all()

    def test_opinion_two_interval_support(self):
        spec = sample_dynamics_params("opinion", 2000, seed=2)
        pull = spec.pull
        low = (pull >= 1.0) & (pull <= 1.5)
        high = (pull >= 3.5) & (pull <= 4.0)
        assert (low | high).all()
        # Equal density on both halves: roughly half the nodes each.
        assert 0.4 < low.mean() < 0.6

    def test_deterministic(self):
        a = sample_dynamics_params("gene", 50, seed=7)
        b = sample_dynamics_params("gene", 50, seed=7)
        assert np.array_equal(a.basal, b.basal)
        assert np.array_equal(a.gain, b.gain)


class TestRelax:
    def test_already_at_target(self):
        net = complete_graph(3)
        target = np.array([0.1, 0.2, 0.3])
        out = relax_stages([(net, 1.0)], [target], target)[-1]
        assert np.allclose(out, target)

    def test_long_duration_reaches_target(self):
        net = complete_graph(3)
        target = np.array([0.5, 0.5, 0.5])
        out = relax_stages([(net, 50.0)], [target], np.zeros(3))[-1]
        assert np.abs(out - target).max() < 1e-20

    def test_two_stage_closed_form(self):
        net = complete_graph(2)
        x0 = np.array([1.0, 0.0])
        t1 = np.array([0.3, 0.3])
        t2 = np.array([0.8, 0.2])
        d = 0.7
        stages = relax_stages([(net, d), (net, d)], [t1, t2], x0)
        e = math.exp(-d)
        expect1 = t1 + e * (x0 - t1)
        expect2 = t2 + e * (expect1 - t2)
        assert np.allclose(stages[0], expect1, atol=1e-15)
        assert np.allclose(stages[1], expect2, atol=1e-15)

    def test_accepts_steady_state_targets(self):
        net = complete_graph(2)
        st = SteadyState(
            values=np.array([0.4, 0.6]), converged=True, steps=3, residual=0.0
        )
        out = relax_stages([(net, 2.0)], [st], np.zeros(2))[-1]
        assert np.allclose(out, st.values + math.exp(-2.0) * (0.0 - st.values))

    def test_stage_target_mismatch(self):
        net = complete_graph(2)
        with pytest.raises(StageMismatch):
            relax_stages([(net, 1.0)], [], np.zeros(2))

    def test_nonpositive_duration(self):
        net = complete_graph(2)
        with pytest.raises(BadSpec):
            relax_stages([(net, 0.0)], [np.zeros(2)], np.zeros(2))


class TestPathDependenceDemo:
    def test_orders_differ_beyond_threshold(self):
        report = path_dependence_demo(seed=0)
        assert report["difference_norm"] > 1e-6
        assert report["order_dependent"] is True
        # Both orders insert the same edge set.
        seqs = [
            frozenset(map(tuple, d["edge_sequence"]))
            for d in report["orders"].values()
        ]
        assert seqs[0] == seqs[1]

    def test_deterministic(self):
        assert path_dependence_demo(seed=4) == path_dependence_demo(seed=4)

    def test_records_per_stage_states(self):
        report = path_dependence_demo(seed=0, node_count=4)
        for detail in report["orders"].values():
            stages = detail["stage_states"]
            assert len(stages) == len(detail["edge_sequence"])
            assert all(len(state) == 4 for state in stages)
            assert stages[-1] == detail["final_state"]

    def test_extra_nodes_are_isolated_spectators(self):
        small = path_dependence_demo(seed=1, node_count=4)
        big = path_dependence_demo(seed=1, node_count=7)
        assert np.isclose(
            big["difference_norm"], small["difference_norm"]
        )
        for detail in big["orders"].values():
            touched = {n for edge in detail["edge_sequence"] for n in edge}
            assert touched <= set(range(4))
            assert len(detail["final_state"]) == 7

    def test_too_few_nodes_rejected(self):
        with pytest.raises(BadSpec):
            path_dependence_demo(node_count=3)


class TestSteadyStateIO:
    def test_roundtrip_exact(self, tmp_path):
        st = SteadyState(
            values=np.array([0.123456789012345, 1 / 3, 2e-17]),
            converged=True,
            steps=12,
            residual=3.2e-7,
        )
        path = tmp_path / "state.csv"
        write_steady_state(st, path, kind="sis", seed=5)
        values, meta = load_steady_state(path)
        assert np.array_equal(values, st.values)
        assert meta["kind"] == "sis"
        assert meta["seed"] == 5
        assert meta["converged"] is True
        assert meta["steps"] == 12

    def test_rewrite_byte_identical(self, tmp_path):
        st = SteadyState(
            values=np.array([0.1, 0.2]), converged=False, steps=1000, residual=0.5
        )
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_steady_state(st, a, kind="gene", seed=1)
        write_steady_state(st, b, kind="gene", seed=1)
        assert a.read_bytes() == b.read_bytes()

    def test_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("node_id,value\n0,0.5\n2,0.25\n")
        with pytest.raises(ParseError):
            load_steady_state(bad)
        nohdr = tmp_path / "nohdr.csv"
        nohdr.write_text("0,0.5\n")
        with pytest.raises(ParseError):
            load_steady_state(nohdr)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_a_parse_error(self, tmp_path, text):
        path = tmp_path / "state.csv"
        path.write_text("node_id,value\n0,0.5\n1,%s\n" % text)
        with pytest.raises(ParseError, match="not finite"):
            load_steady_state(path)
