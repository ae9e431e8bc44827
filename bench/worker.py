"""One benchmark run, in a fresh interpreter: a closed loop over one pass of queries.

Reads {"queries": [argv, ...], "seconds": s, "trace": 0|1, "spans": path} as
JSON on stdin.  One client sends one query at a time through
``nilmult.cli.main(argv)`` with stdout and stderr captured, and repeats whole
passes over the query list until ``seconds`` have elapsed.  Only the call to
``main`` is timed.

Writes JSON lines to stdout: the first output of every distinct query, for the
checker, and then one summary line.  Later outputs of a query are compared
with the first by digest, so the process never holds more than one output.

After every query (untimed) the reference kernels (``reference.py``) are
timed too.  Their mean times in every pass are reported with the raw
latencies, so that the parent can scale each pass to the reference speed.

With trace 1, each query runs twice, untraced and traced, alternating which
goes first, and the summary adds the per-layer metrics and the ratio of
traced to untraced wall time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import nilmult.cli as cli

from reference import kernel_seconds
from tracer import Tracer


def run_query(argv: list[str]) -> tuple[float, int | None, str, str]:
    """(seconds, exit code or None if it raised, stdout, stderr) of one query."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting argv
            code = exc.code
        except Exception as exc:  # a raising query is a failed query, not a dead run
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def main() -> None:
    config = json.load(sys.stdin)
    queries, seconds, trace = config["queries"], config["seconds"], config["trace"]
    report = sys.stdout
    tracer = Tracer() if trace else None

    first_digest: dict[int, bytes] = {}
    latencies: list[list[float]] = [[] for _ in queries]  # per query, untraced, one per pass
    reference_s: list[tuple[float, float]] = []  # mean reference kernel times, per pass
    mode_time = [0.0, 0.0]  # untraced, traced
    attempted = inconsistent = passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        kernel_time = [0.0, 0.0]
        for i, argv in enumerate(queries):
            modes = (0,) if not trace else (0, 1) if i % 2 == 0 else (1, 0)
            for traced in modes:
                if traced:
                    tracer.install()
                elapsed, code, out, err = run_query(argv)
                if traced:
                    tracer.uninstall()
                attempted += 1
                mode_time[traced] += elapsed
                if not traced:
                    latencies[i].append(elapsed)
                digest = hashlib.sha256(f"{code}\0{out}".encode()).digest()
                if i not in first_digest:
                    first_digest[i] = digest
                    report.write(json.dumps({"query": i, "code": code, "stdout": out,
                                             "stderr": err}) + "\n")
                elif digest != first_digest[i]:
                    inconsistent += 1
            for k, elapsed in enumerate(kernel_seconds()):
                kernel_time[k] += elapsed
        reference_s.append(tuple(t / len(queries) for t in kernel_time))
        passes += 1
        if tracer:
            tracer.end_pass()

    summary = {
        "passes": passes,
        "attempted": attempted,
        "inconsistent": inconsistent,
        "latencies": latencies,
        "reference_s": reference_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        summary["layers"] = tracer.layer_metrics(passes)
        summary["layers"]["trace.overhead_ratio"] = mode_time[1] / mode_time[0]
        tracer.write_spans(config["spans"])
    report.write(json.dumps({"summary": summary}) + "\n")


if __name__ == "__main__":
    main()
