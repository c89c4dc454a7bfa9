"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root)::

    python3 hostbench/spread.py --runs 10 [--workloads micro-sw spark-apps]

Runs ``BENCHMARK.json``'s command ``--runs`` times per workload, one seed
per round, interleaving the workloads inside each round so slow phases of
the host hit every workload alike. For each metric it prints the median
and the quartile spread ``(Q3 - Q1) / median`` (quartiles as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound, and saves every run's result under ``results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, trace=0):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=False)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["stderr"] = done.stderr
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    runs = {name: [] for name in args.workloads}
    for index in range(args.runs):
        seed = args.first_seed + index
        order = args.workloads[index % len(args.workloads):] + \
            args.workloads[:index % len(args.workloads)]
        for workload in order:
            result = run_once(spec, workload, seed)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s wall, "
                  f"correct={result['correct']}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<14}{'metric':<14}{'median':>12}{'spread':>9}{'bound':>7}")
    for workload, results in runs.items():
        for metric, bound in bounds.items():
            median, share = spread([r["metrics"][metric]["value"] for r in results])
            print(f"{workload:<14}{metric:<14}{median:>12.4f}{share:>9.3f}{bound:>7.2f}")
        median, _ = spread([r["wall_s"] for r in results])
        print(f"{workload:<14}{'run wall s':<14}{median:>12.1f}")

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"spread-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(runs, handle, indent=1)
    print(f"runs saved to {path}")
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
