"""Acceptance suite: nine go/no-go checks over the whole pipeline.

Each check prints one verdict line (captured by pytest, shown with -s
or on failure) and then asserts, so a log scan gives the full picture.
Stated runtime budgets are asserted too.
"""

import math
import time

import numpy as np
import pytest

import oracles
from netchron.cli import main as cli_main
from netchron.datasets import SynthKind, SynthSpec, generate_synthetic
from netchron.dynamics import (
    DynamicsKind,
    DynamicsSpec,
    path_dependence_demo,
    sample_dynamics_params,
    simulate,
    step_dynamics,
)
from netchron.evaluation import (
    TRAJECTORY_PROPERTIES,
    binned_trend,
    hub_radar,
    make_eval_pairs,
    pairwise_accuracy,
    spearman_rho,
    trajectory_nrmse,
)
from netchron.features import STRUCT_COLUMNS, FeatureMode, structural_edge_features
from netchron.graph import build_network, edge_betweenness, pagerank
from netchron.ordering import (
    ground_truth_ordering,
    monte_carlo_error,
    order_from_scores,
    theoretical_error,
)
from netchron.ranker import (
    TrainConfig,
    init_cpnn,
    loss,
    make_pairs,
    predict_scores,
    prepare_inputs,
    train,
)

INTEGER_COLUMNS = frozenset(
    (
        "deg_u",
        "deg_v",
        "deg_sum",
        "deg_prod",
        "deg_min",
        "deg_max",
        "common_neighbors",
        "core_min",
    )
)

GRADIENT_INSTANCES = (
    (11, (4, 3, 2), "tanh", "mean", "tanh"),
    (23, (4, 4, 4, 3), "tanh", "symmetric", "tanh"),
    (37, (4, 2), "relu", "mean", "tanh"),
    (41, (4, 3, 3), "tanh", "mean", "relu"),
    (59, (4, 4), "relu", "symmetric", "relu"),
)


def verdict(number, name, ok, detail):
    print(
        "criterion %d %s: %s (%s)"
        % (number, name, "PASS" if ok else "FAIL", detail)
    )
    assert ok, "criterion %d %s: %s" % (number, name, detail)


def is_connected(net):
    seen = np.zeros(net.node_count, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        lo, hi = net.adj_indptr[u], net.adj_indptr[u + 1]
        for v in net.adj_indices[lo:hi]:
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(seen.all())


def test_criterion_1_feature_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst_real = 0.0
    for _ in range(100):
        net = oracles.random_network(rng, max_nodes=20, min_nodes=4, edge_prob=0.3)
        pr_impl = pagerank(net, tol=1e-12, max_iter=500).values
        pr_ref = oracles.pagerank_dense(net, tol=1e-12, max_iter=500)
        bc = edge_betweenness(net)
        got = structural_edge_features(
            net, pagerank_values=pr_impl, betweenness=bc
        )
        ref = oracles.struct_features_by_definition(net, pr_ref, bc)
        for k, name in enumerate(STRUCT_COLUMNS):
            if name in INTEGER_COLUMNS:
                assert np.array_equal(got.values[:, k], ref[:, k]), name
            else:
                dev = float(np.abs(got.values[:, k] - ref[:, k]).max())
                worst_real = max(worst_real, dev)
    # Edge betweenness against explicit path enumeration, small graphs.
    checked = 0
    worst_bc = 0.0
    while checked < 30:
        net = oracles.random_network(rng, max_nodes=8, min_nodes=3, edge_prob=0.5)
        if not is_connected(net):
            continue
        dev = float(
            np.abs(edge_betweenness(net) - oracles.edge_betweenness_by_paths(net)).max()
        )
        worst_bc = max(worst_bc, dev)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst_real <= 1e-9 and worst_bc <= 1e-9 and elapsed < 60.0
    verdict(
        1,
        "feature oracle equivalence",
        ok,
        "worst real dev %.2e, worst betweenness dev %.2e, %.1fs"
        % (worst_real, worst_bc, elapsed),
    )


def gradient_instance(seed, dims, activation, norm, scorer_act):
    """(net, inputs, model, pairs) of one coupled gradient instance."""
    rng = np.random.default_rng(seed)
    while True:
        net = oracles.random_network(rng, max_nodes=10, min_nodes=5, edge_prob=0.4)
        if 4 <= net.edge_count <= 15:
            break
    state = simulate(
        net, DynamicsSpec(kind=DynamicsKind.EPIDEMIC), seed=seed
    ).values
    inputs = prepare_inputs(net, state, FeatureMode.BOTH)
    cfg = TrainConfig(
        mode=FeatureMode.BOTH,
        hidden=5,
        embedding_dims=dims,
        l2_coeff=1e-3,
        seed=seed,
        activation=activation,
        neighbor_norm=norm,
        scorer_activation=scorer_act,
    )
    d_in = inputs.static.values.shape[1] + 4 * dims[-1]
    model = init_cpnn(d_in, cfg)
    pairs, _ = make_pairs(net, None, 10**6, seed=seed + 1, val_fraction=0.0)
    return net, inputs, model, pairs[:12]


def gradient_instance_error(*instance):
    net, inputs, model, pairs = gradient_instance(*instance)
    _, grad = loss(model, inputs, pairs, net=net)
    grads = model.params(grad)
    step = 1e-5
    worst = 0.0
    for name, arr in model.params().items():
        if name == "scorer.b_out":
            # Its true gradient is exactly 0, so a relative error here
            # measures round-off; test_criterion_2_scorer_b_out_gradient
            # bounds it absolutely.
            continue
        fd = np.zeros_like(arr)
        flat, fdf = arr.ravel(), fd.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            hi, _ = loss(model, inputs, pairs, net=net)
            flat[k] = orig - step
            lo, _ = loss(model, inputs, pairs, net=net)
            flat[k] = orig
            fdf[k] = (hi - lo) / (2.0 * step)
        worst = max(worst, oracles.max_relative_error(grads[name], fd, guard=1e-6))
    return worst


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    for instance in GRADIENT_INSTANCES:
        worst = max(worst, gradient_instance_error(*instance))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    verdict(
        2,
        "gradient correctness",
        ok,
        "%d instances, worst relative error %.2e, %.1fs"
        % (len(GRADIENT_INSTANCES), worst, elapsed),
    )


def test_criterion_2_scorer_b_out_gradient():
    # b_out shifts both scores of a pair, so its gradient is 0 (the L2
    # term's is too, at its initial value 0). params() hands it out as a
    # 0-d view into the model's weights, perturbed here in place; the
    # scores move with it, so the difference below sees a live weight.
    step = 1e-5
    worst_grad = worst_fd = 0.0
    for instance in GRADIENT_INSTANCES:
        net, inputs, model, pairs = gradient_instance(*instance)
        _, grad = loss(model, inputs, pairs, net=net)
        worst_grad = max(worst_grad, abs(float(model.params(grad)["scorer.b_out"])))
        b_out = model.params()["scorer.b_out"]
        start, scores = float(b_out), predict_scores(model, net, inputs)

        def loss_at(value):
            b_out[...] = value
            return loss(model, inputs, pairs, net=net)[0]

        fd = (loss_at(start + step) - loss_at(start - step)) / (2.0 * step)
        assert np.allclose(predict_scores(model, net, inputs), scores - step,
                           rtol=0.0, atol=1e-12)
        worst_fd = max(worst_fd, abs(fd))
    ok = worst_grad <= 1e-12 and worst_fd <= 1e-8
    verdict(
        2,
        "scorer.b_out gradient",
        ok,
        "%d instances, worst |analytic| %.2e, worst |central difference| %.2e"
        % (len(GRADIENT_INSTANCES), worst_grad, worst_fd),
    )


def test_criterion_3_pairwise_error_theory():
    start = time.perf_counter()
    ps = (0.7, 0.8, 0.9)
    ms = (100, 400)
    worst_rel = 0.0
    worst_ratio_dev = 0.0
    for i, p in enumerate(ps):
        mc_by_m = {}
        for j, m in enumerate(ms):
            theory = theoretical_error(p, m).expected_error
            mc = monte_carlo_error(p, m, trials=500, seed=211 + 7 * i + j)
            worst_rel = max(worst_rel, abs(mc - theory) / theory)
            mc_by_m[m] = mc
        ratio = mc_by_m[100] / mc_by_m[400]
        worst_ratio_dev = max(worst_ratio_dev, abs(ratio - 2.0) / 2.0)
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 0.25 and worst_ratio_dev <= 0.10 and elapsed < 300.0
    verdict(
        3,
        "pairwise error theory",
        ok,
        "worst MC deviation %.1f%%, worst scaling deviation %.1f%%, %.1fs"
        % (100 * worst_rel, 100 * worst_ratio_dev, elapsed),
    )


def test_criterion_4_borda_consistency():
    rng = np.random.default_rng(4)
    mismatches = 0
    for _ in range(1000):
        m = int(rng.integers(2, 51))
        z = rng.normal(size=m)
        d = z[:, None] - z[None, :]
        p = 1.0 / (1.0 + np.exp(-d))
        if not np.array_equal(oracles.borda_aggregate(p).order, order_from_scores(z).order):
            mismatches += 1
    verdict(
        4,
        "borda consistency",
        mismatches == 0,
        "%d mismatches over 1000 score vectors" % mismatches,
    )


def test_criterion_5_dynamics_fixed_points():
    k5 = build_network(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    sis = DynamicsSpec(kind=DynamicsKind.EPIDEMIC, infection=0.4, recovery=0.3)
    st = simulate(k5, sis, seed=0)
    xstar = oracles.sis_fixed_point_scalar(4, infection=0.4, recovery=0.3)
    sis_dev = float(np.abs(st.values - xstar).max())

    # Isolated node of the regulatory dynamics lands on its basal level
    # after a single step, exactly.
    chain = build_network(4, [(0, 1), (1, 2)])
    gene = sample_dynamics_params(DynamicsKind.GENE, 4, seed=5)
    stepped = step_dynamics(chain, gene, np.full(4, 0.7))
    gene_exact = stepped[3] == gene.basal[3]

    # A consensus state is a fixed point of the opinion dynamics.
    opin = sample_dynamics_params(DynamicsKind.OPINION, 4, seed=5)
    consensus = np.full(4, 0.4)
    opinion_fixed = np.array_equal(step_dynamics(chain, opin, consensus), consensus)

    # converged=True must mean one more update moves less than tol.
    net = generate_synthetic(
        SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 30, 2, seed=5)
    )
    specs = (
        sample_dynamics_params(DynamicsKind.EPIDEMIC, net.node_count, seed=5),
        sample_dynamics_params(DynamicsKind.GENE, net.node_count, seed=5),
        # Fast sampled pull rates can diverge by design; use a damped one.
        DynamicsSpec(kind=DynamicsKind.OPINION, pull=np.full(net.node_count, 0.5)),
    )
    restep_ok = True
    for spec in specs:
        out = simulate(net, spec, seed=5)
        move = float(np.linalg.norm(step_dynamics(net, spec, out.values) - out.values))
        restep_ok = restep_ok and out.converged and move < spec.tol
    ok = sis_dev < 1e-6 and st.converged and gene_exact and opinion_fixed and restep_ok
    verdict(
        5,
        "dynamics fixed points",
        ok,
        "K5 deviation %.2e, isolated basal exact %s, consensus fixed %s, "
        "restep under tol %s" % (sis_dev, gene_exact, opinion_fixed, restep_ok),
    )


def test_criterion_6_path_dependence():
    report = path_dependence_demo(seed=0)
    seqs = [
        frozenset(map(tuple, d["edge_sequence"]))
        for d in report["orders"].values()
    ]
    ok = seqs[0] == seqs[1] and report["difference_norm"] > 1e-6
    verdict(
        6,
        "path dependence",
        ok,
        "same topology %s, final-state gap %.4f"
        % (seqs[0] == seqs[1], report["difference_norm"]),
    )


def end_to_end_metrics(mode):
    accs, rhos = [], []
    for seed in range(5):
        net = generate_synthetic(
            SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 200, 2, seed)
        )
        state = simulate(
            net, DynamicsSpec(kind=DynamicsKind.EPIDEMIC), seed=seed
        ).values
        inputs = prepare_inputs(net, state, mode)
        cfg = TrainConfig(mode=mode, label_fraction=0.3, seed=seed)
        result = train(net, inputs, cfg)
        scores = predict_scores(result.model, net, inputs)
        ordering = order_from_scores(scores)
        pairs = make_eval_pairs(net, budget=20000, seed=0)
        accs.append(pairwise_accuracy(ordering, pairs))
        truth = ground_truth_ordering(net.alpha)
        rhos.append(spearman_rho(ordering.ranks, truth.ranks))
    return float(np.mean(accs)), float(np.mean(rhos))


@pytest.mark.slow
def test_criterion_7_end_to_end_comparative():
    start = time.perf_counter()
    both_acc, both_rho = end_to_end_metrics(FeatureMode.BOTH)
    state_acc, _ = end_to_end_metrics(FeatureMode.STATE_ONLY)
    elapsed = time.perf_counter() - start
    ok = (
        both_acc >= 0.65
        and both_rho >= 0.5
        and both_acc > state_acc
        and elapsed < 600.0
    )
    verdict(
        7,
        "end-to-end comparative run",
        ok,
        "coupled accuracy %.4f, rho %.4f, state-only accuracy %.4f, %.0fs"
        % (both_acc, both_rho, state_acc, elapsed),
    )


def test_criterion_8_metric_sanity():
    net = generate_synthetic(
        SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 100, 2, seed=8)
    )
    truth = ground_truth_ordering(net.alpha)
    rho_perfect = spearman_rho(truth.ranks, truth.ranks)
    _, rmse = binned_trend(truth.ranks, truth.ranks)
    nrmse_vals = [
        trajectory_nrmse(net, truth, truth, prop) for prop in TRAJECTORY_PROPERTIES
    ]
    radar = hub_radar(net, truth, truth, top_k=5)
    expected_area = 2.5 * math.sin(2.0 * math.pi / 5.0)
    reversed_ordering = order_from_scores(net.alpha)
    rho_reversed = spearman_rho(reversed_ordering.ranks, truth.ranks)
    ok = (
        rho_perfect == 1.0
        and rmse == 0.0
        and all(v == 0.0 for v in nrmse_vals)
        and abs(radar.area - expected_area) <= 1e-9
        and rho_reversed == -1.0
    )
    verdict(
        8,
        "metric sanity",
        ok,
        "rho %.1f, bin rmse %.1e, nrmse %s, radar gap %.1e, reversed rho %.1f"
        % (
            rho_perfect,
            rmse,
            max(nrmse_vals),
            abs(radar.area - expected_area),
            rho_reversed,
        ),
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    def run_pipeline(root):
        root.mkdir()
        graph = root / "graph.tsv"
        state = root / "state.csv"
        model = root / "model.json"
        ordering = root / "ordering.csv"
        report = root / "report.json"
        argv = [
            ["synth", "--kind", "pa", "--n", "80", "--m", "2",
             "--seed", "0", "--out", str(graph)],
            ["simulate", str(graph), "--dynamics", "sis", "--seed", "0",
             "--out", str(state)],
            ["train", str(graph), str(state), "--seed", "0", "--epochs", "30",
             "--hidden", "16", "--embedding-dims", "4,8,8", "--out", str(model)],
            ["infer", str(graph), str(state), str(model), "--out", str(ordering)],
            ["evaluate", str(ordering), str(graph), "--steady-state", str(state),
             "--out", str(report)],
        ]
        for cmd in argv:
            assert cli_main(cmd) == 0
        return [graph, state, model, ordering, report]

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    diffs = [a.name for a, b in zip(first, second) if a.read_bytes() != b.read_bytes()]
    verdict(
        9,
        "byte-identical reruns",
        not diffs,
        "differing files: %s" % (", ".join(diffs) if diffs else "none"),
    )
