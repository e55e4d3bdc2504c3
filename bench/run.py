"""netchron benchmark: the real pipeline on two workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
src/ directory. Every run sets up its inputs from --seed (synth and
simulate, SETUPS times, reporting the median), then repeats rounds of
train -> infer -> evaluate, one stage process at a time, until the next
round would end past --seconds. Each stage is a closed loop with one
caller: it starts when the previous one ends and reads what it wrote.
Each stage process is timed from the outside, and os.wait4 gives its
own CPU time and peak RSS. Every stage output is checked by checks.py,
computed apart from the program; a stage that exits non-zero or fails a
check counts as a failed operation.

With --trace 1 the run alternates an untraced round with a traced one,
in which every stage runs through stage.py with the layer functions
wrapped (tracing.py), and reports the per-layer metrics instead.

BLAS is pinned to one thread in every process the benchmark starts (see
README.md). The last line of standard output is one JSON object with
correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench_out")
# Every process the benchmark starts runs BLAS on one thread (README.md).
CHILD_ENV = {"PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_STAGES = ("synth", "simulate")
STAGES = ("train", "infer", "evaluate")
SETUPS = 5
TOL = 1e-6
LABEL_FRACTION = "0.3"
EDGES_PER_NODE = 2
# CLI default embedding widths (4, 32, 32): 4 blocks of 32 coupled columns.
COUPLED_COLUMNS = 4 * 32
OUTPUTS = {"synth": "graph.tsv", "simulate": "state.csv", "train": "model.json",
           "infer": "ordering.csv", "evaluate": "report.json"}

WORKLOADS = {
    # Training carries the run: propagation forward and backward, the
    # scorer and Adam on hub-heavy preferential-attachment graphs.
    "pa-gene-coupled": {
        "kind": "pa", "n": 400, "dynamics": "gene", "entry": "cli",
        "mode": "both", "epochs": 12, "width": 25 + COUPLED_COLUMNS,
    },
    # The O(M^2) layers carry the run: pair enumeration, the Borda sweep
    # and all-pairs evaluation; library calls, as the CLI computes
    # betweenness in every stage and cannot reach this size.
    "pa-sis-rank": {
        "kind": "pa", "n": 3000, "dynamics": "sis", "entry": "lib",
        "mode": "state", "epochs": 10, "width": 7,
    },
}

END_TO_END = (
    ("setup_s", "s"),
    ("train_s", "s"),
    ("infer_s", "s"),
    ("evaluate_s", "s"),
    ("pipeline_s", "s"),
    ("pipeline_cpu_s", "s"),
    ("train_peak_rss_mb", "MB"),
    ("infer_peak_rss_mb", "MB"),
    ("evaluate_peak_rss_mb", "MB"),
    ("pairwise_accuracy", "ratio"),
    ("spearman_rho", "ratio"),
)


class Run:
    """One benchmark run: its inputs, output directory and tallies.

    attempted counts operations (stages, plus the once-per-run input
    check of the library workload); failed counts those that exited
    non-zero or failed a check; wrong counts those whose output a check
    found wrong.
    """

    def __init__(self, name, seed, directory):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.dir = directory
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_ordering = None
        self.launches = []
        # Checked once per run, with the first stages' files.
        self.pending = ["state_inputs"] if self.w["entry"] == "lib" else []
        self.env = dict(os.environ, **CHILD_ENV)
        self.verifier = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "verify.py")], env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self):
        self.verifier.stdin.close()
        self.verifier.wait()

    def path(self, name):
        return os.path.join(self.dir, name)

    def argv(self, stage):
        w, s, p = self.w, str(self.seed), self.path
        if w["entry"] == "lib" and stage in STAGES:
            return ["lib", stage, self.dir, s, str(w["epochs"])]
        return ["cli"] + {
            "synth": ["synth", "--kind", w["kind"], "--n", str(w["n"]),
                      "--m", str(EDGES_PER_NODE), "--seed", s,
                      "--out", p("graph.tsv")],
            "simulate": ["simulate", p("graph.tsv"), "--dynamics", w["dynamics"],
                         "--seed", s, "--tol", repr(TOL), "--out", p("state.csv")],
            "train": ["train", p("graph.tsv"), p("state.csv"), "--mode", w["mode"],
                      "--label-fraction", LABEL_FRACTION, "--epochs",
                      str(w["epochs"]), "--seed", s, "--out", p("model.json")],
            "infer": ["infer", p("graph.tsv"), p("state.csv"), p("model.json"),
                      "--out", p("ordering.csv")],
            "evaluate": ["evaluate", p("ordering.csv"), p("graph.tsv"),
                         "--steady-state", p("state.csv"), "--out", p("report.json")],
        }[stage]

    def launch(self, stage, spans):
        """Run one stage in a child process and measure it from outside.

        The stage's output is removed first, so a stage whose
        predecessor failed cannot read a stale input. start and end are
        the perf_counter readings around the process, which check_trace
        compares with the stage's spans.
        """
        out = self.path(OUTPUTS[stage])
        if os.path.exists(out):
            os.remove(out)
        argv = self.argv(stage)
        if spans:
            cmd = [sys.executable, os.path.join(BENCH, "stage.py"), "--spans", spans] + argv
        elif argv[0] == "cli":
            cmd = [sys.executable, "-m", "netchron.cli"] + argv[1:]
        else:
            cmd = [sys.executable, os.path.join(BENCH, "stage.py")] + argv
        with open(self.path(stage + ".log"), "w") as log:
            t0 = time.perf_counter()
            child = subprocess.Popen(cmd, env=self.env, cwd=self.dir,
                                     stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(child.pid, 0)
            t1 = time.perf_counter()
        child.returncode = os.waitstatus_to_exitcode(status)
        result = {
            "stage": stage,
            "code": child.returncode,
            "start": t0,
            "end": t1,
            "wall": t1 - t0,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }
        self.launches.append(result)
        return result

    def verify(self, stages):
        """Problems per stage, from the verify.py process of this run."""
        if not stages:
            return {}
        spec = {"dir": self.dir, "workload": self.w, "seed": self.seed,
                "tol": TOL, "stages": stages}
        self.verifier.stdin.write(json.dumps(spec) + "\n")
        self.verifier.stdin.flush()
        answer = self.verifier.stdout.readline()
        if not answer:
            raise RuntimeError("verify.py ended early (exit %s)" % self.verifier.wait())
        return json.loads(answer)

    def steps(self, stages, spans_dir=None):
        """Run stages one after another, then check and tally them."""
        results = {}
        for stage in stages:
            spans = os.path.join(spans_dir, stage + ".json") if spans_dir else None
            results[stage] = self.launch(stage, spans)
        passed = [s for s in stages if results[s]["code"] == 0]
        extra, self.pending = self.pending, []
        found = self.verify(passed + extra)
        for stage in list(stages) + extra:
            problems = list(found.get(stage, []))
            if stage in passed and stage == "infer":
                digest = _sha256(self.path("ordering.csv"))
                self.first_ordering = self.first_ordering or digest
                if digest != self.first_ordering:
                    problems.append("ordering differs from this run's first one")
            if stage in passed and spans_dir:
                trace = tracing.load_trace(os.path.join(spans_dir, stage + ".json"))
                found_in_trace, results[stage]["uncovered"] = tracing.check_trace(
                    trace, results[stage]["start"], results[stage]["end"])
                problems += found_in_trace
            self.wrong += bool(problems)
            if stage in results and results[stage]["code"] != 0:
                with open(self.path(stage + ".log")) as fh:
                    problems.append("exit code %d: %s"
                                    % (results[stage]["code"], fh.read()[-400:].strip()))
            self.attempted += 1
            self.failed += bool(problems)
            for problem in problems:
                print("%s: %s" % (stage, problem), file=sys.stderr)
        return results


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def rounds(seconds, one_round):
    """Whole rounds until the next one would end past `seconds`; at least one."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(one_round(len(results)))
        spent = time.perf_counter() - t0
        if spent + spent / len(results) > seconds:
            return results


def pipeline_s(result):
    return sum(result[s]["wall"] for s in STAGES)


def end_to_end(run, seconds):
    setups = []
    for _ in range(SETUPS):
        result = run.steps(SETUP_STAGES)
        setups.append(sum(r["wall"] for r in result.values()))
    results = rounds(seconds, lambda k: run.steps(STAGES))
    med = statistics.median
    values = {"setup_s": med(setups), "pipeline_s": med(pipeline_s(r) for r in results),
              "pipeline_cpu_s": med(sum(r[s]["cpu"] for s in STAGES)
                                    for r in results)}
    for stage in STAGES:
        values[stage + "_s"] = med(r[stage]["wall"] for r in results)
        values[stage + "_peak_rss_mb"] = med(r[stage]["rss_mb"] for r in results)
    try:
        with open(run.path("report.json")) as fh:
            report = json.load(fh)
        values["pairwise_accuracy"] = report["pairwise_accuracy"]
        values["spearman_rho"] = report["spearman_rho"]
    except (OSError, ValueError, KeyError):
        values["pairwise_accuracy"] = values["spearman_rho"] = 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(run, seconds):
    setup_dir = os.path.join(run.dir, "spans", "setup")
    os.makedirs(setup_dir)
    run.steps(SETUP_STAGES, setup_dir)

    def one_round(k):
        untraced = run.steps(STAGES)
        spans_dir = os.path.join(run.dir, "spans", "round%d" % k)
        os.makedirs(spans_dir)
        traced = run.steps(STAGES, spans_dir)
        traces = {}
        for stage_dir, stages in ((setup_dir, SETUP_STAGES),
                                  (spans_dir, STAGES)):
            for stage in stages:
                path = os.path.join(stage_dir, stage + ".json")
                if os.path.exists(path):
                    traces[stage] = tracing.load_trace(path)
        metrics = tracing.layer_metrics(traces)
        metrics["stage.uncovered_s"] = sum(traced[s].get("uncovered", 0.0) for s in STAGES)
        return untraced, traced, metrics

    results = rounds(seconds, one_round)
    med = statistics.median
    out = {name: {"value": med(m[name] for _, _, m in results), "unit": unit}
           for name, unit, _ in tracing.PER_LAYER}
    out["trace_overhead_s"]["value"] = (med(pipeline_s(t) for _, t, _ in results)
                                        - med(pipeline_s(u) for u, _, _ in results))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "netchron", "cli.py")):
        print("no netchron source under %s" % SRC, file=sys.stderr)
        return 2
    directory = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    run = Run(args.workload, args.seed, directory)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics = measure(run, args.seconds)
    finally:
        run.close()
        with open(run.path("stages.json"), "w") as fh:
            json.dump(run.launches, fh, indent=1)
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
