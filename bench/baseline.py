"""Run the benchmark over many seeds, check its steadiness, record a baseline.

    python3 bench/baseline.py                            # check steadiness only
    python3 bench/baseline.py --out bench/baseline.json  # and record the baseline

Runs ``bench/run.py`` once per (workload, seed) with ``--trace 0`` for every
workload of BENCHMARK.json and seeds 1 to 10, one run at a time, then one
``--trace 1`` run per workload.  For each end-to-end metric
it prints the median, the quartiles from ``statistics.quantiles(values,
n=4)`` and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json; a spread above a third of the bound is flagged.  ``--out``
writes all of it, with the Python version, commit and CPU count, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDS = range(1, 11)

NOTES = [
    "Loop model: closed loop, one client, one query at a time, in one fresh child "
    "process per run with PYTHONPATH=src; whole passes over the seeded query list "
    "until run_seconds have elapsed.",
    "Only the nilmult.cli.main(argv) call is timed; generation and checking are not.",
    "setup_s is the median of 21 fresh interpreters that import nilmult.cli and "
    "call build_parser(), interpreter start included; 10 run before the workload "
    "and 11 after it. Each is scaled to the reference speed by the interpreted "
    "kernel, timed right after it.",
    "Latencies are scaled to a reference speed (bench/reference.py): after every "
    "query (untimed) two fixed kernels that run no nilmult code are timed, one of "
    "interpreted code and one of big-integer arithmetic, and each pass's latencies "
    "are multiplied by 0.2 ms over that pass's mean time of the workload's kernel "
    "(bigint for formula-deep, interpreted for the others). This cancels most of "
    "the drift of a shared CPU. A query's latency is the mean of its scaled runs; "
    "throughput is queries over the sum of their latencies. run.py also prints "
    "the raw figures.",
    "error_frac (failed / attempted) is carried by the result's 'failed' and "
    "'attempted' fields and printed by run.py; it is 0 at this commit, so it is "
    "not a bounded metric.",
    "Not workloads: the stand-alone cases of the ROADMAP, such as "
    "enumerate_basic(7, 8) at 6.6 s and 472 MB, are too long for the 22 runs per "
    "workload that a check makes.",
]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(command)} reported incorrect answers:\n{done.stdout}")
    return result


def describe(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write the baseline here as JSON")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "notes": NOTES,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, seconds, 0) for seed in SEEDS]
        end_to_end = {}
        print(f"{workload}: {len(SEEDS)} seeds, attempted per run "
              f"{[r['attempted'] for r in results]}")
        for name, bound in bounds.items():
            summary = describe([r["metrics"][name]["value"] for r in results], bound)
            summary["unit"] = results[0]["metrics"][name]["unit"]
            end_to_end[name] = summary
            flag = "" if summary["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {name:16s} median {summary['median']:10.4f} {summary['unit']:5s} "
                  f"spread {summary['spread']:.4f} (bound {bound}){flag}  "
                  f"values {' '.join(f'{v:.4g}' for v in summary['values'])}")
        traced = run(workload, 1, seconds, 1)
        per_layer = {name: m["value"] for name, m in traced["metrics"].items()}
        print(f"  traced (seed 1): overhead ratio {per_layer['trace.overhead_ratio']:.3f}")
        report["workloads"][workload] = {
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
            "end_to_end": end_to_end,
            "per_layer_seed1": per_layer,
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
