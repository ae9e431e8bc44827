"""nilmult benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload formula-deep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from ``src``
(it need not be installed).  Steps:

1. Generate the workload's queries from the seed (``workloads.py``).
2. ``setup_s``: the median wall time of 21 fresh interpreters that import
   ``nilmult.cli`` and call ``build_parser()``, the cost every CLI call pays,
   each scaled to a fixed reference speed of the machine (``reference.py``);
   10 start before step 3 and 11 after it, so one slow spell of a shared CPU
   cannot move the median.
3. Run the queries in a fresh child process (``worker.py``): a closed loop,
   one client, whole passes over the query list for at least ``--seconds``.
   A query's latency is the mean of its runs, each scaled to the reference
   speed; throughput is the number of queries over the sum of their
   latencies, and ``peak_rss_mb`` is the child's own ``ru_maxrss``.
4. Check every answer with the independent sympy checker (``check.py``) and
   prove the checker rejects a corrupted record.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, which holds the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1`` (names and units as
in BENCHMARK.json).  A query fails if it raises, exits non-zero, disagrees
with its own earlier output, or the checker rejects its answer; error_frac is
failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from reference import KERNELS, REFERENCE_NOMINAL_S, kernel_seconds  # noqa: E402
from workloads import REFERENCE_KERNEL, WORKLOADS  # noqa: E402

SETUP_PROBE = "import nilmult.cli as cli; cli.build_parser()"
OUTPUT_DIR = ".bench_out"  # span dumps of traced runs
CHILD_TIMEOUT_S = 150


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict[str, str], count: int) -> list[tuple[float, float]]:
    """Seconds from spawning an interpreter to a ready ``nilmult`` parser, `count` times.

    Each sample is (raw, scaled): scaled to the reference speed by the
    interpreted kernel, timed 10 times right after the interpreter has exited.
    """
    command = [sys.executable, "-c", SETUP_PROBE]
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        # No timeout: with one, subprocess polls the child with sleeps of up
        # to 50 ms, which rounds the measured time up to the next poll.
        subprocess.run(command, env=env, check=True)
        elapsed = time.perf_counter() - start
        kernel_s = statistics.fmean(kernel_seconds()[0] for _ in range(10))
        samples.append((elapsed, elapsed * REFERENCE_NOMINAL_S / kernel_s))
    return samples


def run_worker(queries, seconds: int, trace: int, spans_path: str, env) -> tuple[dict, list]:
    """Run the worker; return its summary and its first output of each query."""
    config = {"queries": queries, "seconds": seconds, "trace": trace, "spans": spans_path}
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py")],
        input=json.dumps(config), capture_output=True, text=True, env=env,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.exit(f"worker failed with exit code {done.returncode}:\n{done.stderr}")
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    return lines[-1]["summary"], lines[:-1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "nilmult", "cli.py")):
        sys.exit("error: run from the root of a nilmult source checkout (no src/nilmult/cli.py)")
    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json")) as f:
        specs = json.load(f)
    env = child_env()

    queries = WORKLOADS[args.workload](args.seed)
    measure_setup(env, 1)  # writes the bytecode caches
    setup_samples = measure_setup(env, 10)
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUTPUT_DIR, f"{args.workload}.spans.jsonl")
    summary, first_outputs = run_worker(queries, args.seconds, args.trace, spans_path, env)
    setup_samples += measure_setup(env, 11)
    setup_s = statistics.median(scaled for _, scaled in setup_samples)

    # Imported only now: Linux carries a process's peak RSS across exec into
    # the worker's ru_maxrss, so the parent must stay small until the worker
    # has been spawned.
    import check

    sys.set_int_max_str_digits(0)  # the checker parses multiplicities of ~10^5 digits
    # Check, outside the timed region: one verdict per distinct query, which
    # every later run of that query shares (the worker compares them by digest).
    runs_per_query = summary["attempted"] // len(queries)
    failed = summary["inconsistent"]
    accepted = []
    for first in first_outputs:
        argv = queries[first["query"]]
        found = check.problems(argv, first["code"], first["stdout"])
        if found:
            failed += runs_per_query
            print(f"REJECTED {' '.join(argv)}: {'; '.join(found)}; stderr {first['stderr']!r}",
                  file=sys.stderr)
        else:
            accepted.append((argv, first["stdout"]))
    attempted = summary["attempted"]
    error_frac = failed / attempted

    # Self-test: the checker must reject a corrupted copy of an accepted record.
    argv, stdout = accepted[0] if accepted else (None, None)
    self_test_ok = bool(accepted) and bool(check.problems(argv, 0, check.corrupt(stdout)))
    print(f"checker self-test: corrupted record {'rejected' if self_test_ok else 'ACCEPTED'}; "
          f"error_frac with it {(failed + runs_per_query) / attempted:.6f}")

    # A query's latency: the mean of its runs, each scaled by the mean time of
    # the workload's reference kernel in its pass.  Percentiles over distinct
    # queries, not over runs: oracle-sweep has a gap in its latencies near
    # p90, which noise in single runs moves p90 across.  The raw figures are
    # printed too.
    kernel = KERNELS.index(REFERENCE_KERNEL[args.workload])
    scales = [REFERENCE_NOMINAL_S / kernel_s[kernel] for kernel_s in summary["reference_s"]]
    latencies = sorted(statistics.fmean(t * scale for t, scale in zip(runs, scales))
                       for runs in summary["latencies"])
    raw = sorted(statistics.fmean(runs) for runs in summary["latencies"])
    values = {
        "throughput_qps": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * percentile(latencies, 0.50),
        "latency_p90_ms": 1e3 * percentile(latencies, 0.90),
        "peak_rss_mb": summary["peak_rss_mb"],
        "setup_s": setup_s,
    }
    values.update(summary.get("layers", {}))
    print(f"workload {args.workload} seed {args.seed}: {len(queries)} queries per pass, "
          f"{summary['passes']} passes, {attempted} queries run, "
          f"{len(latencies)} latency samples, each the mean of {summary['passes']} runs "
          f"(closed loop, one client)")
    for k, name in enumerate(KERNELS):
        kernel_ms = sorted(1e3 * times[k] for times in summary["reference_s"])
        print(f"reference kernel {name}: {kernel_ms[0]:.4f} to {kernel_ms[-1]:.4f} ms per pass"
              + (f"; times are scaled to {1e3 * REFERENCE_NOMINAL_S:.4f} ms" if k == kernel else ""))
    print(f"raw wall time, unscaled: throughput {len(raw) / sum(raw):.6g} 1/s, "
          f"p50 {1e3 * percentile(raw, 0.50):.6g} ms, p90 {1e3 * percentile(raw, 0.90):.6g} ms, "
          f"setup {statistics.median(elapsed for elapsed, _ in setup_samples):.6g} s "
          f"(median of {len(setup_samples)})")
    print(f"error_frac {error_frac:.6f} fraction ({failed} of {attempted} failed)")
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for spec in specs[kind]:
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print(f"{spec['name']} {values[spec['name']]:.6g} {spec['unit']}")
    print(json.dumps({
        "correct": failed == 0 and self_test_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
