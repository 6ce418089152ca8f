"""Run one benchmark workload against the ``repro`` package in ``src/``.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch-sparse512 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The line before the last is a JSON report
(set-up counters, sample counts, tail latencies, self-time shares); the
last line is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

End-to-end metrics:

* ``setup_s`` — median over several cold set-ups of the time from an
  empty compile cache to the first correct result (fleet: includes
  starting the servers);
* ``products_per_s`` — vector-matrix products per second (median over
  chunks of about 0.1 s of the closed loop);
* ``latency_p50_ms`` — one op: a call, a step or a burst;
* ``success_rate`` — exact results over attempted ops (1 - error rate);
  a wrong result, an exception or a refusal is a failure;
* ``peak_rss_mb`` — peak resident memory of this process, which runs
  only the named workload.

The report line adds the p90/p95/p99 op latencies, which swing too far
between runs on a shared host to be bounded.

The process pins itself, and so every thread it starts, to one CPU.  On
a 2-vCPU host, handing work between threads on different CPUs cost a
wake-up whose latency followed the host's load: the loopback fleet's
throughput swung between 3k and 10k products/s from one 0.1 s chunk to
the next, and held 10-13k pinned.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import tempfile

# One BLAS thread, set before numpy loads.  On a 2-vCPU host OpenBLAS's
# own thread pool made the float GEMM ceiling 25x slower (24 ms against
# 0.9 ms for 64x512 @ 512x512).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# One CPU for the whole process, before it starts a thread (see above).
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

SRC = pathlib.Path("src")


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(workload, seconds: float):
    from harness import median, peak_rss_mb

    ctx, setup_times, counters = workload.run_setups()
    try:
        metrics, run = workload.measure(ctx, seconds)
    finally:
        workload.teardown(ctx)
    # Cold set-ups do identical work, so their counters repeat exactly.
    repeat = all(c == counters[0] for c in counters)
    counters_ok = repeat and workload.counters_ok(counters[0])
    attempted = run["attempted"] + len(setup_times)
    failed = run["failed"]
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        **metrics,
        "success_rate": (1.0 - failed / attempted, "ratio"),
    }
    report = {
        "workload": workload.name,
        "setup_s": setup_times,
        "counters": counters[0],
        "counters_repeat": repeat,
        "counters_ok": counters_ok,
        **run["report"],
    }
    return counters_ok, attempted, failed, metrics, report


def per_layer(workload, seconds: float):
    from workloads import PER_LAYER

    layers, report, attempted, failed = workload.trace(seconds)
    metrics = {name: (layers.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}
    return True, attempted, failed, metrics, {"workload": workload.name, **report}


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the repository root; src/repro is missing",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC.resolve()))
    from harness import result_line
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    scratch = pathlib.Path(".perfbench")
    scratch.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(dir=scratch))
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        run = per_layer if args.trace else end_to_end
        checks_ok, attempted, failed, metrics, report = run(workload, args.seconds)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's work directory is still there
    print(json.dumps({"report": report}, default=float))
    print(result_line(checks_ok and failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
