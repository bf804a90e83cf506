"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload threaded-barrierless --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that wraps the program's layer entry
points and reports the per-layer metrics.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give each metric's sample count.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import procfs  # noqa: E402
from layers import CALLS, CPU_NS, SELF_NS, WALL_NS  # noqa: E402

WORKLOADS = ("threaded-barrierless", "threaded-barrier", "server-cluster")
#: A run that has not finished by then is stopped and fails.
WATCHDOG_S = 170
#: Set-ups per run; setup_s is their median.
SETUPS = 5

END_TO_END = {
    "setup_s": "s",
    "wc_job_s": "s",
    "sort_job_s": "s",
    "pp_job_s": "s",
    "knn_job_s": "s",
    "records_per_s": "1/s",
    "turnaround_s_p50": "s",
    "turnaround_s_p90": "s",
    "capacity_jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.map.cpu_s": "s",
    "engine.map.tasks": "count",
    "engine.fetch.wall_s": "s",
    "engine.fetch.retries": "count",
    "engine.sort.wall_s": "s",
    "engine.reduce.cpu_s": "s",
    "engine.reduce_task.wall_s": "s",
    "engine.buffer.hwm_records": "records",
    "engine.attempts.useful_ratio": "ratio",
    "wire.encode.cpu_s": "s",
    "wire.encode.batches": "count",
    "wire.raw_bytes": "bytes",
    "wire.wire_bytes": "bytes",
    "wire.decode.cpu_s": "s",
    "memory.put.cpu_s": "s",
    "memory.put.calls": "count",
    "memory.footprint.cpu_s": "s",
    "memory.footprint.share": "ratio",
    "memory.store.peak_bytes": "bytes",
    "memory.checkpoint.wall_s": "s",
    "memory.checkpoint.writes": "count",
    "memory.checkpoint.bytes": "bytes",
    "cluster.run_job.wall_s_p50": "s",
    "cluster.job_overhead_s_p50": "s",
    "cluster.shuffle.wire_bytes": "bytes",
    "cluster.telemetry.bytes": "bytes",
    "cluster.setup_s": "s",
    "cluster.shutdown_s": "s",
    "server.submit_s_p50": "s",
    "server.submit_s_p90": "s",
    "server.queue_s_p50": "s",
    "server.queue_s_p90": "s",
    "server.grants": "count",
    "server.preempt.completed": "count",
    "server.jobs.rejected": "count",
    "loadgen.lag_s_max": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def layer_metrics(totals: dict, extra: dict) -> dict:
    """Per-layer metrics from wrapper totals and the run's own readings.

    Times, calls, batches and bytes are per job: totals over the traced
    jobs divided by their number.  ``*.cpu_s`` is self CPU, the layer's
    thread CPU minus that of wrapped layers nested in it.
    """
    jobs = max(extra["jobs"], 1)
    layers = totals["layers"]
    counts = totals["counts"]
    counters = extra["counters"]

    def field(layer: str, index: int) -> float:
        return layers.get(layer, (0, 0, 0, 0))[index]

    def per_job(value: float) -> float:
        return value / jobs

    self_ns = sum(row[SELF_NS] for row in layers.values())
    reduce_task_ns = field("engine.reduce_task", CPU_NS)
    tasks = counters.get("map.tasks", 0) + counters.get("reduce.tasks", 0)
    attempts = counters.get("task.attempts") or (
        tasks
        + counters.get("map.reexecutions", 0)
        + counters.get("reduce.restarts", 0)
    )
    metrics = {
        "engine.map.cpu_s": per_job(field("engine.map", SELF_NS) / 1e9),
        "engine.map.tasks": per_job(field("engine.map", CALLS)),
        "engine.fetch.wall_s": per_job(field("engine.fetch", WALL_NS) / 1e9),
        "engine.fetch.retries": per_job(counters.get("shuffle.fetch.retries", 0)),
        "engine.sort.wall_s": per_job(extra["sort_wall_s"]),
        "engine.reduce.cpu_s": per_job(field("engine.reduce", SELF_NS) / 1e9),
        "engine.reduce_task.wall_s": per_job(field("engine.reduce_task", WALL_NS) / 1e9),
        "engine.buffer.hwm_records": extra["buffer_hwm"],
        "engine.attempts.useful_ratio": tasks / attempts if attempts else 0.0,
        "wire.encode.cpu_s": per_job(field("wire.encode", SELF_NS) / 1e9),
        "wire.encode.batches": per_job(counts.get("wire.encode.batches", 0)),
        "wire.raw_bytes": per_job(counts.get("wire.raw_bytes", 0)),
        "wire.wire_bytes": per_job(counts.get("wire.wire_bytes", 0)),
        "wire.decode.cpu_s": per_job(field("wire.decode", SELF_NS) / 1e9),
        "memory.put.cpu_s": per_job(field("memory.put", SELF_NS) / 1e9),
        "memory.put.calls": per_job(field("memory.put", CALLS)),
        "memory.footprint.cpu_s": per_job(field("memory.footprint", SELF_NS) / 1e9),
        "memory.footprint.share": (
            field("memory.footprint", CPU_NS) / reduce_task_ns
            if reduce_task_ns else 0.0
        ),
        "memory.store.peak_bytes": per_job(counts.get("memory.store.peak_bytes", 0)),
        "memory.checkpoint.wall_s": per_job(field("memory.checkpoint", WALL_NS) / 1e9),
        "memory.checkpoint.writes": per_job(field("memory.checkpoint", CALLS)),
        "memory.checkpoint.bytes": per_job(counts.get("memory.checkpoint.bytes", 0)),
        "trace.coverage": self_ns / 1e9 / extra["process_cpu_s"],
    }
    for name in PER_LAYER:
        metrics.setdefault(name, extra.get(name, 0.0))
    return metrics


def _setup_probe(workload: str) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--setup-probe"],
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    return json.loads(out.splitlines()[-1])["setup_s"]


def _mode(workload: str) -> str:
    return workload.split("-", 1)[1]


def _run(args, scratch: str) -> dict:
    if args.workload == "server-cluster":
        import cluster

        return cluster.run(args.seed, args.seconds, bool(args.trace), scratch)
    import threaded

    mode = _mode(args.workload)
    if args.trace:
        threaded.setup(mode)
        return threaded.run(mode, args.seed, args.seconds, True)
    setups = [_setup_probe(args.workload) for _ in range(SETUPS - 1)]
    setups.append(threaded.setup(mode))
    result = threaded.run(mode, args.seed, args.seconds, False)
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["samples"]["setup_s"] = setups
    return result


def _report(result: dict, trace: bool) -> dict:
    """Print sample counts and return the metrics object of the result."""
    if trace:
        values = layer_metrics(result["totals"], result["extra"])
        units = PER_LAYER
        print(f"traced jobs: {result['extra']['jobs']}")
    else:
        values = result["metrics"]
        units = END_TO_END
        for name, samples in sorted(result["samples"].items()):
            if isinstance(samples, dict):
                for key, group in sorted(samples.items()):
                    print(f"samples {name}[{key}]: n={len(group)}")
            else:
                print(f"samples {name}: n={len(samples)}")
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None:
            print(f"{name}: not reported (too few samples)", file=sys.stderr)
            continue
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    def on_alarm(_signum, _frame):
        raise TimeoutError(f"run exceeded {WATCHDOG_S}s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(WATCHDOG_S)
    # Everything the program writes (checkpoints, spills) stays in the
    # checkout: tempfile and child processes use this directory.
    scratch = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(scratch)
    saved = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    try:
        if args.setup_probe:
            import threaded

            print(json.dumps({"setup_s": threaded.setup(_mode(args.workload))}))
            return 0
        steal0, total0 = procfs.machine_ticks()
        result = _run(args, scratch)
        steal1, total1 = procfs.machine_ticks()
        print(f"cpu steal: {(steal1 - steal0) / max(total1 - total0, 1):.1%}")
        metrics = _report(result, bool(args.trace))
        print(json.dumps({
            "correct": result["mismatched"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }))
        return 0
    finally:
        signal.alarm(0)
        if saved[0] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved[0]
        tempfile.tempdir = saved[1]
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
