"""Command-line orchestration of the reconstruction pipeline.

Each subcommand reads/writes the formats owned by the library modules
and returns what it did; main then drops a run manifest next to its
primary output: the resolved configuration, the seed, content digests
of every input and output file, its monotonic wall time, and versions.
Digests let manifests chain (evaluate lists the digest of the ordering
that infer produced).

Each command's options are one table, name -> (kind, default, help):
the table gives the --flag-names, the keys a --config file may hold,
the defaults, and the coercion of flag and file values alike.
Configuration resolution: the defaults, then the flat-key JSON file
given with --config, then explicit flags, later layers winning. Exit
codes: 0 success, 2 usage, 3 data error or out of memory, 4 numerical
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from enum import Enum

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
    CONVERGENCE_TOL,
    MAX_STEPS,
    DynamicsKind,
    load_steady_state,
    path_dependence_demo,
    sample_dynamics_params,
    simulate,
    write_steady_state,
)
from .errors import DataError, NumericalError, ParseError, RowMismatch
from .evaluation import RADAR_TOP_K, TRAJECTORY_SAMPLES, TREND_BINS, evaluation_report
from .features import combine, steady_state_edge_features, structural_edge_features
from .ordering import (
    load_ordering,
    monte_carlo_error,
    order_from_scores,
    theoretical_error,
    write_ordering,
)
from .ranker import (
    TRAIN_OPTIONS,
    config_from_dict,
    load_model,
    predict_scores,
    prepare_inputs,
    save_model,
    train,
)
from .serialize import (dump_json, finite_float, format_float, integer, load_json,
                        non_negative_integer, path_str, resolve_options,
                        sha256_file, tuple_of, write_table)


def _resolve(args):
    """The command's options: its defaults, then --config, then flags."""
    options = OPTIONS[args.command]
    values = {}
    if args.config:
        values = load_json(args.config)
        if not isinstance(values, dict):
            raise ParseError("config file must hold a JSON object")
        unknown = sorted(set(values) - set(options))
        if unknown:
            raise ParseError(
                "unknown config keys for this command: %s" % ", ".join(unknown)
            )
    for name, (_, default, _) in options.items():
        if name in vars(args):
            values[name] = getattr(args, name)
        if default is REQUIRED and values.get(name) is None:
            raise ParseError("--%s is required (flag or config file)"
                             % name.replace("_", "-"))
    try:
        return resolve_options(options, values)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _write_manifest(command, cfg, run, seconds):
    """Write `<out>.manifest.json` for a run a handler returned: its
    inputs and outputs with their digests, the resolved config plus the
    run's additions, the seed and warnings, and the wall time."""

    def digests(files):
        return {name: {"path": str(path), "sha256": sha256_file(path)}
                for name, path in files.items()}

    manifest = {
        "command": command,
        "config": dict(cfg, **run.get("config", {})),
        "seed": int(run.get("seed", cfg.get("seed"))),
        "inputs": digests(run.get("inputs", {})),
        "outputs": digests(run["outputs"]),
        "timings": {"total_seconds": round(seconds, 3)},
        "warnings": list(run.get("warnings", ())),
        "versions": {
            "netchron": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
    }
    dump_json(manifest, str(cfg["out"]) + ".manifest.json")


# Each handler runs its command and returns the run: its summary line,
# its outputs (name -> path) and, where it has them, its inputs, its
# additions to the resolved config, its seed and its warnings.


def cmd_synth(args, cfg):
    spec = SynthSpec(
        kind=cfg["kind"],
        node_count=cfg["n"],
        edges_per_node=cfg["m"],
        seed=cfg["seed"],
    )
    net = generate_synthetic(spec)
    write_edge_list(net, cfg["out"])
    stats = dataset_stats(net)
    summary = "wrote %s: %d nodes, %d edges, %d distinct times" % (
        cfg["out"], stats["node_count"], stats["edge_count"],
        stats["distinct_times"],
    )
    return {"summary": summary, "outputs": {"graph": cfg["out"]}}


def cmd_simulate(args, cfg):
    net = load_edge_list(args.graph)
    kind = cfg["dynamics"]
    spec = sample_dynamics_params(kind, net.node_count, cfg["seed"])
    spec = dataclasses.replace(spec, tol=cfg["tol"], max_steps=cfg["max_steps"])
    steady = simulate(net, spec, seed=cfg["seed"])
    write_steady_state(steady, cfg["out"], kind=kind, seed=cfg["seed"])
    summary = "steady state: converged=%s steps=%d residual=%s" % (
        steady.converged, steady.steps, format_float(steady.residual),
    )
    return {
        "summary": summary,
        "inputs": {"graph": args.graph},
        "outputs": {"steady_state": cfg["out"],
                    "metadata": str(cfg["out"]) + ".meta.json"},
    }


def _load_state_for(net, path, warnings):
    """The steady state's values for net.

    A state whose metadata says it did not converge is still used; the
    fact is appended to warnings and printed on stderr.
    """
    values, meta = load_steady_state(path)
    if values.shape != (net.node_count,):
        raise RowMismatch(
            "steady state has %d values, graph has %d nodes"
            % (values.shape[0], net.node_count)
        )
    if meta is None:
        return values
    if not isinstance(meta, dict):
        raise ParseError("%s.meta.json must hold a JSON object" % path)
    if meta.get("converged") is False:
        message = "steady state %s did not converge (steps=%s, residual=%s)" % (
            path, meta.get("steps"), meta.get("residual"),
        )
        warnings.append(message)
        print("warning: %s" % message, file=sys.stderr)
    return values


def cmd_train(args, cfg):
    train_cfg = config_from_dict(cfg)
    mode = train_cfg.mode
    net = load_edge_list(args.graph)
    warnings = []
    values = _load_state_for(net, args.steady_state, warnings)
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
    last = result.log[-1]
    summary = "trained mode=%s label_fraction=%s pairs=%d best_epoch=%d" % (
        mode.value, train_cfg.label_fraction, result.train_pairs,
        result.best_epoch,
    )
    if "val_accuracy" in last:
        summary += " final_val_accuracy=%.4f" % last["val_accuracy"]
    return {
        "summary": summary,
        "inputs": {"graph": args.graph, "steady_state": args.steady_state},
        "outputs": {"model": cfg["out"], "training_log": log_path},
        "config": dataclasses.asdict(train_cfg),
        "seed": train_cfg.seed,
        "warnings": warnings,
    }


def cmd_infer(args, cfg):
    net = load_edge_list(args.graph)
    warnings = []
    values = _load_state_for(net, args.steady_state, warnings)
    model = load_model(args.model)
    inputs = prepare_inputs(net, values, model.mode)
    scores = predict_scores(model, net, inputs)
    ordering = order_from_scores(scores)
    write_ordering(ordering, net, cfg["out"])
    return {
        "summary": "wrote ordering for %d edges to %s"
        % (net.edge_count, cfg["out"]),
        "inputs": {"graph": args.graph, "steady_state": args.steady_state,
                   "model": args.model},
        "outputs": {"ordering": cfg["out"]},
        "config": {"mode": model.mode.value,
                   "label_fraction": model.config.label_fraction},
        "seed": model.config.seed,
        "warnings": warnings,
    }


def cmd_evaluate(args, cfg):
    net = load_edge_list(args.graph)
    ordering = load_ordering(args.ordering, net)
    fm = structural_edge_features(net)
    inputs = {"ordering": args.ordering, "graph": args.graph}
    warnings = []
    if cfg["steady_state"] is not None:
        values = _load_state_for(net, cfg["steady_state"], warnings)
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
    outputs = {
        "report": cfg["out"],
        "bin_trend": base + ".bins.csv",
        "trajectories": base + ".trajectories.csv",
        "hub_curves": base + ".hubs.csv",
    }
    write_table(outputs["bin_trend"], "bin_index,count,median,std,reference",
                (rec.values() for rec in report["binned_trend"]["bins"]))
    curves = report["growth_curves"]
    names = sorted(curves)
    write_table(outputs["trajectories"], ",".join(["fraction"] + names),
                [[(k + 1) / cfg["samples"]] + [curves[name][k] for name in names]
                 for k in range(cfg["samples"])])
    radar = report["hub_radar"]
    write_table(outputs["hub_curves"], "hub,nrmse,similarity",
                zip(radar["hubs"], radar["nrmse"], radar["similarity"]))
    summary = "pairwise accuracy %.4f, spearman rho %.4f over %d pairs" % (
        report["pairwise_accuracy"], report["spearman_rho"],
        report["pair_count"],
    )
    return {"summary": summary, "inputs": inputs, "outputs": outputs,
            "warnings": warnings}


def cmd_theory_check(args, cfg):
    ps = cfg["p_grid"]
    ms = cfg["m_grid"]
    trials = cfg["trials"]
    seed = cfg["seed"]
    rows = []
    lines = []
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
            lines.append(
                "p=%.3f M=%d theory=%s monte_carlo=%s ratio=%.4f"
                % (p, m, format_float(theory), format_float(mc), ratio)
            )
    dump_json({"trials": trials, "seed": seed, "rows": rows}, cfg["out"])
    return {"summary": "\n".join(lines), "outputs": {"report": cfg["out"]}}


def cmd_pathdep(args, cfg):
    report = path_dependence_demo(
        kind=cfg["dynamics"],
        seed=cfg["seed"],
        duration=cfg["duration"],
        node_count=cfg["n"],
    )
    dump_json(report, cfg["out"])
    summary = "difference norm %s (order dependent: %s)" % (
        format_float(report["difference_norm"]), report["order_dependent"],
    )
    return {"summary": summary, "outputs": {"report": cfg["out"]}}


REQUIRED = object()
SEED = (non_negative_integer, 0, "random seed")
OUT = (path_str, REQUIRED, "primary output path")

# One table per command: name -> (kind, default, help). A kind is a
# coercer, an Enum class, or a tuple of choices; a REQUIRED option has
# no default and must come from a flag or the config file.
OPTIONS = {
    "synth": {
        "kind": (SynthKind, "pa", "graph generator"),
        "n": (integer, REQUIRED, "node count"),
        "m": (integer, REQUIRED, "edges per new node"),
        "seed": SEED,
        "out": OUT,
    },
    "simulate": {
        "dynamics": (DynamicsKind, "sis", "dynamical process"),
        "seed": SEED,
        "tol": (finite_float, CONVERGENCE_TOL, "convergence tolerance"),
        "max_steps": (integer, MAX_STEPS, "step limit"),
        "out": OUT,
    },
    "train": dict(TRAIN_OPTIONS, out=OUT),
    "infer": {"out": OUT},
    "evaluate": {
        "steady_state": (path_str, None, "steady state to add to the correlations"),
        "pair_budget": (integer, None, "score this many sampled pairs"),
        "seed": SEED,
        "bins": (integer, TREND_BINS, "bins of the trend"),
        "samples": (integer, TRAJECTORY_SAMPLES, "points per growth curve"),
        "top_k": (integer, RADAR_TOP_K, "hubs in the radar"),
        "out": OUT,
    },
    "theory-check": {
        "p_grid": (tuple_of(finite_float), (0.7, 0.8, 0.9),
                   "comma-separated accuracies in (0.5, 1]"),
        "m_grid": (tuple_of(integer), (100, 400), "comma-separated edge counts"),
        "trials": (integer, 500, "Monte Carlo trials per cell"),
        "seed": SEED,
        "out": OUT,
    },
    "pathdep": {
        "n": (integer, 4, "node count (>= 4)"),
        "dynamics": (DynamicsKind, "sis", "dynamical process"),
        "duration": (finite_float, 1.0, "duration of each stage"),
        "seed": SEED,
        "out": OUT,
    },
}

# (name, handler, positionals, help) of each command.
COMMANDS = (
    ("synth", cmd_synth, (), "generate a synthetic temporal network"),
    ("simulate", cmd_simulate, ("graph",), "run dynamics to a steady state"),
    ("train", cmd_train, ("graph", "steady_state"), "fit the precedence model"),
    ("infer", cmd_infer, ("graph", "steady_state", "model"),
     "score and order all edges"),
    ("evaluate", cmd_evaluate, ("ordering", "graph"),
     "score an ordering against truth"),
    ("theory-check", cmd_theory_check, (),
     "compare closed-form and Monte Carlo error"),
    ("pathdep", cmd_pathdep, (), "demonstrate order dependence of the state"),
)


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
    for command, func, positionals, summary in COMMANDS:
        p = sub.add_parser(command, help=summary)
        for name in positionals:
            p.add_argument(name)
        p.add_argument("--config", help="flat-key JSON config file")
        for name, (kind, default, text) in OPTIONS[command].items():
            choices = kind if isinstance(kind, tuple) else None
            if isinstance(kind, type) and issubclass(kind, Enum):
                choices = tuple(k.value for k in kind)
            if default is REQUIRED:
                text += " (required)"
            elif isinstance(default, tuple):
                text += " (default %s)" % ",".join(map(str, default))
            elif default is not None:
                text += " (default %s)" % getattr(default, "value", default)
            # Absent flags stay absent, so a flag may give null (None).
            p.add_argument("--" + name.replace("_", "-"), help=text,
                           type=None if choices else kind, choices=choices,
                           default=argparse.SUPPRESS)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        start = time.perf_counter()
        run = args.func(args, cfg)
        _write_manifest(args.command, cfg, run, time.perf_counter() - start)
    except DataError as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 3
    except NumericalError as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return 4
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 3
    except MemoryError as exc:
        print("out of memory: %s" % (str(exc) or "an allocation failed"), file=sys.stderr)
        return 3
    print(run["summary"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
