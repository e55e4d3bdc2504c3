"""Reference figures: run the benchmark over many seeds, print their spread.

    python3 bench/reference.py

Runs bench/run.py --trace 0 at the run length of BENCHMARK.json, for
every workload, once per seed (1..RUNS) in each of SETS sets, one run at
a time; the sets are interleaved seed by seed, so slow drifts of the
host hit them alike. Prints a Markdown table per workload and set: each
metric's median, first and third quartiles (statistics.quantiles, n=4)
and the quartile distance as a share of the median. It then compares
the second set's medians with the first set's against the bounds in
BENCHMARK.json. Raw results go to bench_out/reference-<workload>.jsonl.
"""

import json
import os
import statistics
import subprocess
import sys

import run

RUNS = 10
SETS = 2


def table(results):
    print("| metric | unit | median | Q1 | Q3 | (Q3-Q1)/median |")
    print("| --- | --- | --- | --- | --- | --- |")
    for name, value in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print("| %s | %s | %.4g | %.4g | %.4g | %.3f |"
              % (name, value["unit"], med, q1, q3, share))


def compare(first, second, spec):
    """Print how much worse the second set's medians are than the first set's."""
    print("| metric | median, set 1 | median, set 2 | worse by | bound |")
    print("| --- | --- | --- | --- | --- |")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        a = statistics.median(r["metrics"][name]["value"] for r in first)
        b = statistics.median(r["metrics"][name]["value"] for r in second)
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        print("| %s | %.4g | %.4g | %+.3f | %.2f |" % (name, a, b, worse, metric["bound"]))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(run.OUT, exist_ok=True)
    for workload in run.WORKLOADS:
        sets = [[] for _ in range(SETS)]
        raw = os.path.join(run.OUT, "reference-%s.jsonl" % workload)
        with open(raw, "w") as log:
            for seed in range(1, RUNS + 1):
                for k, results in enumerate(sets):
                    done = subprocess.run(
                        [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload",
                         workload, "--seed", str(seed), "--seconds",
                         str(spec["run_seconds"]), "--trace", "0"],
                        capture_output=True, text=True, check=True,
                    )
                    result = json.loads(done.stdout.splitlines()[-1])
                    results.append(result)
                    log.write(json.dumps(dict(result, seed=seed, set=k + 1)) + "\n")
                    log.flush()
        for k, results in enumerate(sets):
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            print("\n%s, set %d: %d runs, seeds 1-%d, %d of %d operations failed, "
                  "all correct: %s\n" % (workload, k + 1, len(results), RUNS, failed,
                                         attempted, all(r["correct"] for r in results)))
            table(results)
        print()
        compare(sets[0], sets[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
