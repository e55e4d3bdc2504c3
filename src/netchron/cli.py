"""Command-line orchestration of the reconstruction pipeline.

Each subcommand reads/writes the formats owned by the library modules
and drops a run manifest next to its primary output: the resolved
configuration, the seed, content digests of every input and output
file, timings, and versions. Digests let manifests chain (evaluate
lists the digest of the ordering that infer produced).

Configuration resolution: built-in defaults, then a flat-key JSON file
given with --config, then explicit command-line flags, later layers
winning. Exit codes: 0 success, 2 usage, 3 data error, 4 numerical
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from . import __version__
from .datasets import (
    SynthKind,
    SynthSpec,
    dataset_stats,
    generate_synthetic,
    load_edge_list,
    write_edge_list,
)
from .dynamics import (
    DynamicsKind,
    load_steady_state,
    path_dependence_demo,
    sample_dynamics_params,
    simulate,
    write_steady_state,
)
from .errors import DataError, NumericalError, ParseError, RowMismatch
from .evaluation import evaluation_report
from .features import (
    FeatureMode,
    combine,
    steady_state_edge_features,
    structural_edge_features,
)
from .ordering import (
    load_ordering,
    monte_carlo_error,
    order_from_scores,
    theoretical_error,
    write_ordering,
)
from .ranker import (
    TrainConfig,
    config_from_dict,
    load_model,
    predict_scores,
    prepare_inputs,
    save_model,
    train,
)
from .serialize import dump_json, format_float, load_json, sha256_file


def _resolve(args, defaults):
    """Layer defaults, then the --config file, then explicit flags."""
    resolved = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        file_cfg = load_json(config_path)
        if not isinstance(file_cfg, dict):
            raise ParseError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise ParseError(
                "unknown config keys for this command: %s" % ", ".join(unknown)
            )
        resolved.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _require(resolved, *keys):
    for key in keys:
        if resolved.get(key) is None:
            raise ParseError(
                "--%s is required (flag or config file)" % key.replace("_", "-")
            )


def _typed(cfg, **kinds):
    """A copy of cfg with each named value coerced by its type.

    None stays None; a malformed value raises ParseError.
    """
    out = dict(cfg)
    for key, kind in kinds.items():
        if out[key] is None:
            continue
        try:
            out[key] = kind(out[key])
        except (TypeError, ValueError, OverflowError):
            raise ParseError(
                "invalid value for %s: %r" % (key, out[key])
            ) from None
    return out


def _float_list(value, name):
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip()]
    try:
        out = [float(v) for v in value]
    except (TypeError, ValueError):
        raise ParseError("%s must be a comma-separated list of numbers" % name)
    if not out:
        raise ParseError("%s must be non-empty" % name)
    return out


def _int_list(value, name):
    try:
        return [int(v) for v in _float_list(value, name)]
    except (ValueError, OverflowError):
        raise ParseError("%s must hold finite integers" % name) from None


def _write_manifest(primary_out, command, config, seed, inputs, outputs, t0):
    manifest = {
        "command": command,
        "config": config,
        "seed": int(seed),
        "inputs": {
            name: {"path": str(path), "sha256": sha256_file(path)}
            for name, path in inputs.items()
        },
        "outputs": {
            name: {"path": str(path), "sha256": sha256_file(path)}
            for name, path in outputs.items()
        },
        "timings": {"total_seconds": round(time.time() - t0, 3)},
        "versions": {
            "netchron": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
    }
    path = str(primary_out) + ".manifest.json"
    dump_json(manifest, path)
    return path


SYNTH_DEFAULTS = {"kind": "pa", "n": None, "m": None, "seed": 0, "out": None}


def cmd_synth(args):
    t0 = time.time()
    cfg = _resolve(args, SYNTH_DEFAULTS)
    _require(cfg, "n", "m", "out")
    cfg = _typed(cfg, kind=SynthKind, n=int, m=int, seed=int)
    spec = SynthSpec(
        kind=cfg["kind"],
        node_count=cfg["n"],
        edges_per_node=cfg["m"],
        seed=cfg["seed"],
    )
    net = generate_synthetic(spec)
    write_edge_list(net, cfg["out"])
    stats = dataset_stats(net)
    _write_manifest(
        cfg["out"], "synth", cfg, cfg["seed"], {}, {"graph": cfg["out"]}, t0
    )
    print(
        "wrote %s: %d nodes, %d edges, %d distinct times"
        % (cfg["out"], stats["node_count"], stats["edge_count"],
           stats["distinct_times"])
    )
    return 0


SIMULATE_DEFAULTS = {
    "dynamics": "sis",
    "seed": 0,
    "tol": 1e-6,
    "max_steps": 1000,
    "out": None,
}


def cmd_simulate(args):
    t0 = time.time()
    cfg = _resolve(args, SIMULATE_DEFAULTS)
    _require(cfg, "out")
    cfg = _typed(cfg, dynamics=DynamicsKind, seed=int, tol=float, max_steps=int)
    net = load_edge_list(args.graph)
    kind = cfg["dynamics"]
    spec = sample_dynamics_params(kind, net.node_count, cfg["seed"])
    spec = dataclasses.replace(spec, tol=cfg["tol"], max_steps=cfg["max_steps"])
    steady = simulate(net, spec, seed=cfg["seed"])
    write_steady_state(steady, cfg["out"], kind=kind, seed=cfg["seed"])
    _write_manifest(
        cfg["out"], "simulate", cfg, cfg["seed"],
        {"graph": args.graph},
        {"steady_state": cfg["out"], "metadata": str(cfg["out"]) + ".meta.json"},
        t0,
    )
    print(
        "steady state: converged=%s steps=%d residual=%s"
        % (steady.converged, steady.steps, format_float(steady.residual))
    )
    return 0


TRAIN_DEFAULTS = dict(
    {f.name: f.default for f in dataclasses.fields(TrainConfig)}, out=None
)


def _load_state_for(net, path):
    values, _ = load_steady_state(path)
    if values.shape != (net.node_count,):
        raise RowMismatch(
            "steady state has %d values, graph has %d nodes"
            % (values.shape[0], net.node_count)
        )
    return values


def cmd_train(args):
    t0 = time.time()
    cfg = _resolve(args, TRAIN_DEFAULTS)
    _require(cfg, "out")
    train_cfg = config_from_dict(cfg)
    mode = train_cfg.mode
    net = load_edge_list(args.graph)
    values = _load_state_for(net, args.steady_state)
    inputs = prepare_inputs(net, values, mode)
    result = train(net, inputs, train_cfg)
    save_model(result.model, cfg["out"])
    log_path = str(cfg["out"]) + ".log.json"
    dump_json(
        {
            "label_fraction": train_cfg.label_fraction,
            "mode": mode.value,
            "seed": train_cfg.seed,
            "train_pairs": result.train_pairs,
            "val_pairs": result.val_pairs,
            "best_epoch": result.best_epoch,
            "entries": list(result.log),
        },
        log_path,
    )
    _write_manifest(
        cfg["out"], "train", dict(dataclasses.asdict(train_cfg), out=cfg["out"]),
        train_cfg.seed,
        {"graph": args.graph, "steady_state": args.steady_state},
        {"model": cfg["out"], "training_log": log_path},
        t0,
    )
    last = result.log[-1]
    summary = "trained mode=%s label_fraction=%s pairs=%d best_epoch=%d" % (
        mode.value, train_cfg.label_fraction, result.train_pairs,
        result.best_epoch,
    )
    if "val_accuracy" in last:
        summary += " final_val_accuracy=%.4f" % last["val_accuracy"]
    print(summary)
    return 0


INFER_DEFAULTS = {"out": None}


def cmd_infer(args):
    t0 = time.time()
    cfg = _resolve(args, INFER_DEFAULTS)
    _require(cfg, "out")
    net = load_edge_list(args.graph)
    values = _load_state_for(net, args.steady_state)
    model = load_model(args.model)
    inputs = prepare_inputs(net, values, model.mode)
    scores = predict_scores(model, net, inputs)
    ordering = order_from_scores(scores)
    write_ordering(ordering, net, cfg["out"])
    manifest_cfg = dict(cfg)
    manifest_cfg["mode"] = model.mode.value
    manifest_cfg["label_fraction"] = model.config.label_fraction
    _write_manifest(
        cfg["out"], "infer", manifest_cfg, model.config.seed,
        {
            "graph": args.graph,
            "steady_state": args.steady_state,
            "model": args.model,
        },
        {"ordering": cfg["out"]},
        t0,
    )
    print("wrote ordering for %d edges to %s" % (net.edge_count, cfg["out"]))
    return 0


EVALUATE_DEFAULTS = {
    "steady_state": None,
    "pair_budget": None,
    "seed": 0,
    "bins": 10,
    "samples": 50,
    "top_k": 5,
    "out": None,
}


def cmd_evaluate(args):
    t0 = time.time()
    cfg = _resolve(args, EVALUATE_DEFAULTS)
    _require(cfg, "out")
    cfg = _typed(cfg, pair_budget=int, seed=int, bins=int, samples=int, top_k=int)
    net = load_edge_list(args.graph)
    ordering = load_ordering(args.ordering, net)
    fm = structural_edge_features(net)
    inputs = {"ordering": args.ordering, "graph": args.graph}
    if cfg["steady_state"] is not None:
        values = _load_state_for(net, cfg["steady_state"])
        fm = combine(fm, steady_state_edge_features(net, values))
        inputs["steady_state"] = cfg["steady_state"]
    report = evaluation_report(
        net,
        ordering,
        pair_budget=cfg["pair_budget"],
        seed=cfg["seed"],
        feature_matrix=fm,
        samples=cfg["samples"],
        top_k=cfg["top_k"],
        bins=cfg["bins"],
    )
    report["labeled_fraction"] = float(net.labeled_mask.mean())
    dump_json(report, cfg["out"])

    base = os.path.splitext(str(cfg["out"]))[0]
    bins_path = base + ".bins.csv"
    with open(bins_path, "w") as fh:
        fh.write("bin_index,count,median,std,reference\n")
        for rec in report["binned_trend"]["bins"]:
            fh.write(
                "%d,%d,%s,%s,%s\n"
                % (rec["bin_index"], rec["count"], format_float(rec["median"]),
                   format_float(rec["std"]), format_float(rec["reference"]))
            )
    samples = cfg["samples"]
    curves = report["growth_curves"]
    traj_path = base + ".trajectories.csv"
    with open(traj_path, "w") as fh:
        names = sorted(curves)
        fh.write("fraction," + ",".join(names) + "\n")
        for k in range(samples):
            row = [format_float((k + 1) / samples)]
            row += [format_float(curves[name][k]) for name in names]
            fh.write(",".join(row) + "\n")
    hubs_path = base + ".hubs.csv"
    radar = report["hub_radar"]
    with open(hubs_path, "w") as fh:
        fh.write("hub,nrmse,similarity\n")
        for hub, nrmse, sim in zip(
            radar["hubs"], radar["nrmse"], radar["similarity"]
        ):
            fh.write(
                "%d,%s,%s\n" % (hub, format_float(nrmse), format_float(sim))
            )
    _write_manifest(
        cfg["out"], "evaluate", cfg, cfg["seed"], inputs,
        {
            "report": cfg["out"],
            "bin_trend": bins_path,
            "trajectories": traj_path,
            "hub_curves": hubs_path,
        },
        t0,
    )
    print(
        "pairwise accuracy %.4f, spearman rho %.4f over %d pairs"
        % (report["pairwise_accuracy"], report["spearman_rho"],
           report["pair_count"])
    )
    return 0


THEORY_DEFAULTS = {
    "p_grid": "0.7,0.8,0.9",
    "m_grid": "100,400",
    "trials": 500,
    "seed": 0,
    "out": None,
}


def cmd_theory_check(args):
    t0 = time.time()
    cfg = _resolve(args, THEORY_DEFAULTS)
    _require(cfg, "out")
    cfg = _typed(cfg, trials=int, seed=int)
    ps = _float_list(cfg["p_grid"], "p_grid")
    ms = _int_list(cfg["m_grid"], "m_grid")
    trials = cfg["trials"]
    seed = cfg["seed"]
    rows = []
    for i, p in enumerate(ps):
        for j, m in enumerate(ms):
            theory = theoretical_error(p, m).expected_error
            mc = monte_carlo_error(p, m, trials, seed=seed + i * len(ms) + j)
            # At p=1 both sides are exactly 0; report a unit ratio.
            ratio = mc / theory if theory > 0.0 else 1.0
            rows.append(
                {
                    "accuracy": p,
                    "edge_count": m,
                    "theory": theory,
                    "monte_carlo": mc,
                    "ratio": ratio,
                }
            )
            print(
                "p=%.3f M=%d theory=%s monte_carlo=%s ratio=%.4f"
                % (p, m, format_float(theory), format_float(mc), ratio)
            )
    dump_json({"trials": trials, "seed": seed, "rows": rows}, cfg["out"])
    _write_manifest(
        cfg["out"], "theory-check", cfg, seed, {}, {"report": cfg["out"]}, t0
    )
    return 0


PATHDEP_DEFAULTS = {
    "n": 4,
    "dynamics": "sis",
    "duration": 1.0,
    "seed": 0,
    "out": None,
}


def cmd_pathdep(args):
    t0 = time.time()
    cfg = _resolve(args, PATHDEP_DEFAULTS)
    _require(cfg, "out")
    cfg = _typed(cfg, dynamics=DynamicsKind, seed=int, duration=float, n=int)
    report = path_dependence_demo(
        kind=cfg["dynamics"],
        seed=cfg["seed"],
        duration=cfg["duration"],
        node_count=cfg["n"],
    )
    dump_json(report, cfg["out"])
    _write_manifest(
        cfg["out"], "pathdep", cfg, cfg["seed"], {}, {"report": cfg["out"]}, t0
    )
    print(
        "difference norm %s (order dependent: %s)"
        % (format_float(report["difference_norm"]), report["order_dependent"])
    )
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="netchron",
        description="Reconstruct edge-formation order from a network "
        "snapshot and a steady-state observation.",
    )
    parser.add_argument(
        "--version", action="version", version="netchron %s" % __version__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat-key JSON config file")
        p.add_argument("--out", help="primary output path")
        p.add_argument("--seed", type=int, help="random seed (default 0)")

    p = sub.add_parser("synth", help="generate a synthetic temporal network")
    p.add_argument("--kind", choices=[k.value for k in SynthKind])
    p.add_argument("--n", type=int, help="node count")
    p.add_argument("--m", type=int, help="edges per new node")
    add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="run dynamics to a steady state")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--dynamics", choices=[k.value for k in DynamicsKind])
    p.add_argument("--tol", type=float, help="convergence tolerance")
    p.add_argument("--max-steps", type=int, dest="max_steps")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="fit the precedence model")
    p.add_argument("graph")
    p.add_argument("steady_state")
    p.add_argument("--mode", choices=[m.value for m in FeatureMode])
    p.add_argument("--label-fraction", type=float, dest="label_fraction")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--l2-coeff", type=float, dest="l2_coeff")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--pair-budget", type=int, dest="pair_budget")
    p.add_argument("--hidden", type=int)
    p.add_argument("--embedding-dims", dest="embedding_dims",
                   help="comma-separated layer widths, first must be 4")
    p.add_argument("--activation", choices=["tanh", "relu"])
    p.add_argument("--neighbor-norm", choices=["mean", "symmetric"],
                   dest="neighbor_norm")
    p.add_argument("--scorer-activation", choices=["tanh", "relu"],
                   dest="scorer_activation")
    p.add_argument("--val-fraction", type=float, dest="val_fraction")
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="score and order all edges")
    p.add_argument("graph")
    p.add_argument("steady_state")
    p.add_argument("model")
    add_common(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("evaluate", help="score an ordering against truth")
    p.add_argument("ordering")
    p.add_argument("graph")
    p.add_argument("--steady-state", dest="steady_state",
                   help="include state features in correlations")
    p.add_argument("--pair-budget", type=int, dest="pair_budget")
    p.add_argument("--bins", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--top-k", type=int, dest="top_k")
    add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("theory-check",
                       help="compare closed-form and Monte Carlo error")
    p.add_argument("--p-grid", dest="p_grid",
                   help="comma-separated accuracies in (0.5, 1]")
    p.add_argument("--m-grid", dest="m_grid",
                   help="comma-separated edge counts")
    p.add_argument("--trials", type=int)
    add_common(p)
    p.set_defaults(func=cmd_theory_check)

    p = sub.add_parser("pathdep",
                       help="demonstrate order dependence of the state")
    p.add_argument("--n", type=int, help="node count (>= 4)")
    p.add_argument("--dynamics", choices=[k.value for k in DynamicsKind])
    p.add_argument("--duration", type=float)
    add_common(p)
    p.set_defaults(func=cmd_pathdep)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 3
    except NumericalError as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return 4
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
