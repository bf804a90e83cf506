"""Hosts the job server under test in its own process.

Started by the ``server-cluster`` workload so the load generator and
the server do not share one interpreter lock.  It builds
``JobServer(backend="cluster")``, prints one JSON line with its address
and worker pids, and then answers commands read from stdin, one JSON
reply line each:

- ``mark``: reset peak resident memory of itself and its workers,
  flush its layer totals (traced run) and report CPU time and the
  server's counters — the bench diffs two marks;
- ``stop``: report peak memory, counters and the traced per-job
  records, call ``JobServer.close()``, flush, reply and exit.

With ``--trace-dir`` the layer wrappers are installed before the
cluster forks its workers, so the workers inherit them.

Usage: ``python3 perfbench/server_child.py [--trace-dir DIR]``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import procfs  # noqa: E402
from layers import LayerTracer, install_program_wrappers  # noqa: E402

WORKERS = 2
SLOTS = 4
TENANTS = {"t1": 2.0, "t2": 1.0, "t3": 1.0}
#: Reduce-state checkpoints every 1000 folded records (fsync'd).
CHECKPOINT_EVERY_RECORDS = 1000


class ClusterLog:
    """What the traced run records about the cluster runtime."""

    def __init__(self) -> None:
        self.runtime = None
        self.run_job_s: dict[str, float] = {}

    def on_init(self, _counts, args, _kwargs, _result, _wall) -> None:
        self.runtime = args[0]

    def on_run_job(self, _counts, _args, kwargs, _result, wall_ns) -> None:
        self.run_job_s[str(kwargs.get("job_id"))] = wall_ns / 1e9

    def task_spans(self) -> tuple[dict[str, float], float]:
        """Longest worker task span per job, and summed sort-span time."""
        longest: dict[str, float] = {}
        sort_s = 0.0
        if self.runtime is None:
            return longest, sort_s
        for event in self.runtime.telemetry.chrome_trace()["traceEvents"]:
            if event.get("ph") != "X":
                continue
            if event.get("cat") == "task" and event.get("pid"):
                job = str(event.get("args", {}).get("job_id"))
                longest[job] = max(longest.get(job, 0.0), event["dur"] / 1e6)
            elif event.get("name") == "sort" and event.get("cat") == "op":
                sort_s += event["dur"] / 1e6
        return longest, sort_s


def _processes(workers) -> list[int]:
    return [os.getpid()] + [pid for pid in workers if os.path.exists(f"/proc/{pid}")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()

    # Replies go to the original stdout; anything the program prints
    # goes to stderr instead of corrupting the protocol.
    reply_fd = os.dup(1)
    os.dup2(2, 1)
    replies = os.fdopen(reply_fd, "w", buffering=1)

    def reply(payload: dict) -> None:
        replies.write(json.dumps(payload) + "\n")

    def on_term(_signum, _frame):
        raise SystemExit(1)

    signal.signal(signal.SIGTERM, on_term)

    tracer = None
    log = ClusterLog()
    if args.trace_dir:
        from repro.cluster.engine import ClusterRuntime

        tracer = LayerTracer(args.trace_dir)
        install_program_wrappers(tracer)
        tracer.wrap(ClusterRuntime, "__init__", "cluster.setup", log.on_init)
        tracer.wrap(ClusterRuntime, "run_job", "cluster.run_job", log.on_run_job)
        tracer.wrap(ClusterRuntime, "shutdown", "cluster.shutdown")

    from repro.cluster.engine import cluster_recovery
    from repro.memory.checkpoint import CheckpointPolicy
    from repro.server import JobServer

    server = JobServer(
        "cluster",
        workers=WORKERS,
        slots=SLOTS,
        policy="fair",
        tenants=TENANTS,
        recovery=cluster_recovery(
            checkpoint=CheckpointPolicy(every_records=CHECKPOINT_EVERY_RECORDS)
        ),
    )
    closed = False
    try:
        workers = procfs.child_pids(os.getpid())
        reply({
            "host": server.host,
            "port": server.port,
            "workers": [[pid, procfs.start_ticks(pid)] for pid in workers],
        })

        def snapshot() -> dict:
            pids = _processes(workers)
            return {
                "cpu_s": sum(procfs.cpu_seconds(pid) for pid in pids),
                "counters": server.obs.counters.as_dict(),
            }

        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                for pid in _processes(workers):
                    procfs.reset_peak_rss(pid)
                if tracer is not None:
                    tracer.flush()
                reply(snapshot())
            elif command == "stop":
                state = snapshot()
                state["peak_rss_kb"] = sum(
                    procfs.peak_rss_kb(pid) for pid in _processes(workers)
                )
                state["run_job_s"] = log.run_job_s
                state["task_span_s"], state["sort_s"] = log.task_spans()
                server.close()
                closed = True
                if tracer is not None:
                    tracer.flush()
                reply(state)
                return 0
            else:
                print(f"server_child: unknown command {command!r}", file=sys.stderr)
        return 1
    finally:
        if not closed:
            server.close()


if __name__ == "__main__":
    sys.exit(main())
