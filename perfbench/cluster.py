"""The ``server-cluster`` workload: an open loop into a multi-tenant server.

The server (``JobServer(backend="cluster")``, 2 forked workers, 4 slots,
fair share, tenants weighted 2:1:1, reduce checkpoints every 1000
records) runs in a child process (``server_child.py``); this process is
the load generator: one thread, one ``ServerClient``, submitting a
seeded mix of wc, sort, pp, grep and knn jobs in both modes, 2 maps and
2 reducers each.

A run has three server lifetimes.  Each measures set-up (process
start, imports, worker fork and registration, one warm-up job per app)
and then runs a burst phase: a backlog submitted at once, whose
capacity is completed jobs over the time to drain it.  One burst's
capacity depends on which jobs happen to finish last, so the run pools
the three: their jobs over their summed drain time.  The last lifetime
follows its burst with a steady phase: jobs sent on a fixed
schedule at :data:`RATE_JOBS_PER_S`, a little over half the burst
capacity measured on a 2-CPU machine; each job is timed from its
scheduled send time, so a stalled generator or server charges the wait
to every job behind it.

The traced run drains one untraced burst (the base of
``trace.overhead``) and then runs a burst and the steady phase on a
server whose layer wrappers are installed before it forks its workers.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

import procfs
from layers import WALL_NS, merge_totals, read_layer_files, subtract_totals
from stats import interquartile_mean, percentile

HERE = os.path.dirname(os.path.abspath(__file__))

#: Input size per app.  knn is sized by training points; 400 keeps its
#: job time near the others' (it costs ~50x more per record).  At 4k a
#: job's turnaround is mostly its own work rather than the hops between
#: processes, whose wake-up delays grow when the host is busy.
APP_RECORDS = {"wc": 4000, "sort": 4000, "pp": 4000, "grep": 4000, "knn": 400}
WARMUP_RECORDS = {"wc": 200, "sort": 200, "pp": 200, "grep": 200, "knn": 50}
MODES = ("barrier", "barrierless")
TENANTS = ("t1", "t2", "t3")
#: Distinct inputs per (app, mode); jobs draw one, so references stay few.
INPUT_SEEDS = 2
NUM_MAPS = NUM_REDUCERS = 2
#: A low estimate of burst capacity on a 2-CPU machine, used to size the
#: phases; the steady rate is a little over half the capacity measured.
CAPACITY_JOBS_PER_S = 7.0
RATE_JOBS_PER_S = 4.5
#: Jobs come in blocks holding every (app, mode) once, in seeded order,
#: so every run sends the same mix and only order and inputs vary.
BLOCK = len(APP_RECORDS) * len(MODES)
BURST_BLOCKS = 3
LIFETIMES = 3
POLL_S = 0.05
DRAIN_TIMEOUT_S = 60.0


def job_pool(seed: int) -> list[tuple[str, str, int]]:
    """Every (app, mode, input seed) a run of ``seed`` can submit."""
    return [
        (app, mode, seed * INPUT_SEEDS + k)
        for app in APP_RECORDS
        for mode in MODES
        for k in range(INPUT_SEEDS)
    ]


def schedule(seed: int, phase: str, blocks: int) -> list[tuple[str, str, str, int]]:
    """Jobs ``(tenant, app, mode, input seed)`` for one named phase.

    Tenants take turns; each job's input is one of the app's
    :data:`INPUT_SEEDS` inputs for this seed.
    """
    rng = random.Random(f"{seed}:{phase}")
    combos = [(app, mode) for app in APP_RECORDS for mode in MODES]
    jobs = []
    for _ in range(blocks):
        rng.shuffle(combos)
        for app, mode in combos:
            input_seed = seed * INPUT_SEEDS + rng.randrange(INPUT_SEEDS)
            jobs.append((TENANTS[len(jobs) % len(TENANTS)], app, mode, input_seed))
    return jobs


def reference_digests(seed: int) -> dict:
    """``LocalEngine`` output digests for every job in the pool."""
    from repro.apps.demo import demo_job_and_input
    from repro.core.types import ExecutionMode
    from repro.engine.local import LocalEngine
    from repro.server import output_digest

    digests = {}
    for app, mode, input_seed in job_pool(seed):
        job, pairs = demo_job_and_input(
            app, ExecutionMode(mode), records=APP_RECORDS[app],
            num_reducers=NUM_REDUCERS, num_maps=NUM_MAPS, seed=input_seed,
        )
        result = LocalEngine().run(job, pairs, NUM_MAPS)
        digests[(app, mode, input_seed)] = output_digest(app, result)
    return digests


class ServerProcess:
    """One lifetime of the server child, driven over its stdin/stdout."""

    def __init__(self, trace_dir: str | None = None) -> None:
        from repro.server import ServerClient

        command = [sys.executable, os.path.join(HERE, "server_child.py")]
        if trace_dir is not None:
            command += ["--trace-dir", trace_dir]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.workers: list[list[int]] = []
        try:
            ready = self._read()
        except BaseException:
            self.kill()
            raise
        self.workers = ready["workers"]
        self.client = ServerClient(ready["host"], ready["port"], timeout_s=30.0)

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server child exited ({self.proc.wait()})")
        return json.loads(line)

    def command(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        state = self.command("stop")
        self.proc.wait(timeout=30)
        return state

    def kill(self) -> None:
        """Make sure the child and its workers are gone."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        for pid, ticks in self.workers:
            if procfs.is_running(pid, ticks):
                os.kill(pid, signal.SIGKILL)
                deadline = time.monotonic() + 10
                while procfs.is_running(pid, ticks) and time.monotonic() < deadline:
                    time.sleep(0.01)


class Jobs:
    """Submitted jobs and what became of them."""

    def __init__(self, client, references: dict) -> None:
        self.client = client
        self.references = references
        self.sent: list[dict] = []
        self.failed = 0
        self.mismatched = 0

    def submit(self, spec, scheduled: float) -> dict:
        from repro.server import SubmitRejected

        tenant, app, mode, input_seed = spec
        entry = {"spec": spec, "scheduled": scheduled, "sent": time.perf_counter()}
        try:
            entry["job_id"] = self.client.submit(
                tenant, app, mode=mode, records=APP_RECORDS[app],
                num_maps=NUM_MAPS, num_reducers=NUM_REDUCERS, seed=input_seed,
            )
        except SubmitRejected:
            self.failed += 1
        entry["replied"] = time.perf_counter()
        self.sent.append(entry)
        return entry

    def drain(self, entries: list[dict]) -> list[dict]:
        """Wait for ``entries`` to end; returns the ones done and correct.

        The server reports each job's time from admission to completion;
        admission happened just before the submit reply arrived, so a
        job completed at ``replied + elapsed_s`` on this clock.
        """
        pending = {e["job_id"]: e for e in entries if "job_id" in e}
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while True:
            summaries = {s["job_id"]: s for s in self.client.jobs()}
            if all(
                summaries[j]["state"] in ("done", "failed", "cancelled")
                for j in pending
            ):
                break
            if time.perf_counter() > deadline:
                raise TimeoutError("jobs did not drain in time")
            time.sleep(POLL_S)
        completed = []
        for job_id, entry in pending.items():
            summary = summaries[job_id]
            tenant, app, mode, input_seed = entry["spec"]
            if summary["state"] != "done":
                self.failed += 1
            elif summary.get("digest") != self.references[(app, mode, input_seed)]:
                self.failed += 1
                self.mismatched += 1
            else:
                entry["completed"] = entry["replied"] + summary["elapsed_s"]
                completed.append(entry)
        return completed


def _start(trace_dir: str | None, references: dict) -> tuple[ServerProcess, float]:
    """Start a server and warm it up; returns it and the set-up time."""
    start = time.perf_counter()
    server = ServerProcess(trace_dir)
    try:
        warm = [
            server.client.submit(
                TENANTS[0], app, mode=MODES[1], records=records,
                num_maps=NUM_MAPS, num_reducers=NUM_REDUCERS, seed=0,
            )
            for app, records in WARMUP_RECORDS.items()
        ]
        for job_id in warm:
            entry = server.client.wait(job_id, timeout_s=60.0, poll_s=0.01)
            if entry["state"] != "done":
                raise RuntimeError(f"warm-up job {job_id} ended {entry['state']}")
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - start


def _burst(jobs: Jobs, specs) -> dict:
    first = time.perf_counter()
    entries = [jobs.submit(spec, time.perf_counter()) for spec in specs]
    done = jobs.drain(entries)
    drain_s = max(e["completed"] for e in done) - first
    return {
        "done": done,
        "drain_s": drain_s,
        "jobs": len(done),
        "records": sum(APP_RECORDS[e["spec"][1]] for e in done),
    }


def _steady(jobs: Jobs, specs) -> tuple[list[dict], float]:
    """Send ``specs`` on the fixed schedule; returns completed and max lag."""
    start = time.perf_counter() + 0.05
    entries = []
    lag = 0.0
    for index, spec in enumerate(specs):
        due = start + index / RATE_JOBS_PER_S
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        entry = jobs.submit(spec, due)
        lag = max(lag, entry["sent"] - due)
        entries.append(entry)
    return jobs.drain(entries), lag


def _blocks(seconds: float) -> tuple[int, int]:
    """Burst and steady blocks that fit in ``seconds`` at the set rates."""
    burst = max(1, min(BURST_BLOCKS, int(seconds // 5)))
    burst_s = burst * BLOCK / CAPACITY_JOBS_PER_S
    steady = max(1, int((seconds - burst_s) * RATE_JOBS_PER_S / BLOCK))
    return burst, steady


def _nth_burst(jobs: Jobs, seed: int, seconds: float, index: int) -> dict:
    """The run's burst number ``index``: its own seeded order of jobs."""
    return _burst(jobs, schedule(seed, f"burst-{index}", _blocks(seconds)[0]))


def _phases(jobs: Jobs, seed: int, seconds: float, burst: int) -> dict:
    """Burst number ``burst`` then the steady phase; returns their samples."""
    drained = _nth_burst(jobs, seed, seconds, burst)
    steady, lag = _steady(jobs, schedule(seed, "steady", _blocks(seconds)[1]))
    return {"burst": drained, "steady": steady, "lag_s_max": lag}


def _by_app(entries) -> dict[str, float]:
    """Per app, the mean over both modes of the interquartile mean turnaround.

    Half of each app's jobs run in each mode, about 2x apart, so a plain
    median would fall in the gap between the two groups.  Within a mode a
    run's ~11 turnarounds spread up to 2x and can fall in two clusters,
    and a median jumps between them from run to run; the mean of the
    middle half moves less and still ignores the stalls in the tails.
    """
    times: dict[tuple[str, str], list[float]] = {}
    for e in entries:
        _tenant, app, mode, _seed = e["spec"]
        times.setdefault((app, mode), []).append(e["completed"] - e["scheduled"])
    return {
        app: statistics.mean(
            interquartile_mean(times[app, mode]) for mode in MODES
            if (app, mode) in times
        )
        for app in APP_RECORDS
        if any((app, mode) in times for mode in MODES)
    }


def run(seed: int, seconds: float, trace: bool, scratch: str) -> dict:
    references = reference_digests(seed)
    if trace:
        return _trace(seed, seconds, references, scratch)
    return _measure(seed, seconds, references)


def _measure(seed: int, seconds: float, references: dict) -> dict:
    """Three lifetimes, each with a burst; the steady phase on the last."""
    setups, bursts, lifetimes = [], [], []
    for lifetime in range(LIFETIMES):
        server, setup_s = _start(None, references)
        setups.append(setup_s)
        try:
            jobs = Jobs(server.client, references)
            lifetimes.append(jobs)
            if lifetime < LIFETIMES - 1:
                bursts.append(_nth_burst(jobs, seed, seconds, lifetime))
            else:
                server.command("mark")
                phases = _phases(jobs, seed, seconds, lifetime)
                bursts.append(phases["burst"])
            state = server.stop()
        finally:
            server.kill()
    steady = phases["steady"]
    drain_s = sum(b["drain_s"] for b in bursts)
    turnaround = [e["completed"] - e["scheduled"] for e in steady]
    apps = _by_app(steady)
    metrics = {
        "setup_s": statistics.median(setups),
        **{f"{app}_job_s": apps.get(app) for app in ("wc", "sort", "pp", "knn")},
        # Pooled over the bursts, not a median of per-burst rates: a
        # burst drains either fast or ~20% slower, and a median of three
        # jumps between the two as their mix changes from run to run.
        "records_per_s": sum(b["records"] for b in bursts) / drain_s,
        "turnaround_s_p50": statistics.median(turnaround),
        "turnaround_s_p90": percentile(turnaround, 90),
        "capacity_jobs_per_s": sum(b["jobs"] for b in bursts) / drain_s,
        "peak_rss_mb": state["peak_rss_kb"] / 1024.0,
    }
    samples = {
        "setup_s": setups,
        "burst": [b["drain_s"] for b in bursts],
        "turnaround": turnaround,
        "job_s": {
            app: [e for e in steady if e["spec"][1] == app] for app in APP_RECORDS
        },
    }
    return {
        "attempted": sum(len(j.sent) for j in lifetimes),
        "failed": sum(j.failed for j in lifetimes),
        "mismatched": sum(j.mismatched for j in lifetimes),
        "metrics": metrics, "samples": samples,
    }


def _trace(seed: int, seconds: float, references: dict, scratch: str) -> dict:
    """An untraced burst as the overhead base, then a traced lifetime."""
    server, _ = _start(None, references)
    try:
        base = Jobs(server.client, references)
        untraced = _nth_burst(base, seed, seconds, 0)
        server.stop()
    finally:
        server.kill()
    trace_dir = os.path.join(scratch, "layers")
    os.makedirs(trace_dir)
    server, _ = _start(trace_dir, references)
    try:
        jobs = Jobs(server.client, references)
        first = server.command("mark")
        start_files = read_layer_files(trace_dir)
        phases = _phases(jobs, seed, seconds, 0)
        last = server.command("mark")
        end_files = read_layer_files(trace_dir)
        state = server.stop()
    finally:
        server.kill()
    workers = {pid for pid, _ in server.workers}

    def between(pids) -> dict:
        return subtract_totals(
            merge_totals(v for pid, v in end_files.items() if pid in pids),
            merge_totals(v for pid, v in start_files.items() if pid in pids),
        )

    totals = between(set(end_files))
    worker_totals = between(workers)
    child = read_layer_files(trace_dir)[server.proc.pid]
    done = phases["burst"]["done"] + phases["steady"]
    counters = {
        name: value - first["counters"].get(name, 0)
        for name, value in last["counters"].items()
    }
    # run_job wall time per cluster job id (only runs that returned: a
    # preempted job's first run raised) and its longest worker task span.
    run_job = state["run_job_s"]
    spans = state["task_span_s"]
    keys = [f"srv-{e['job_id']}" for e in done]
    walls = [run_job[k] for k in keys if k in run_job]
    overhead = [run_job[k] - spans[k] for k in keys if k in run_job and k in spans]
    queue = [
        e["completed"] - e["scheduled"] - run_job[f"srv-{e['job_id']}"]
        for e in phases["steady"]
        if f"srv-{e['job_id']}" in run_job
    ]
    submit = [e["replied"] - e["sent"] for e in jobs.sent]
    extra = {
        "jobs": len(done),
        "process_cpu_s": last["cpu_s"] - first["cpu_s"],
        "sort_wall_s": state["sort_s"],
        "counters": counters,
        "buffer_hwm": 0,
        "cluster.run_job.wall_s_p50": _median(walls),
        "cluster.job_overhead_s_p50": _median(overhead),
        "cluster.shuffle.wire_bytes": (
            worker_totals["counts"].get("wire.wire_bytes", 0) / max(len(done), 1)
        ),
        "cluster.telemetry.bytes": (
            counters.get("cluster.telemetry.bytes", 0) / max(len(done), 1)
        ),
        "cluster.setup_s": _layer_wall(child, "cluster.setup"),
        "cluster.shutdown_s": _layer_wall(child, "cluster.shutdown"),
        "server.submit_s_p50": _median(submit),
        "server.submit_s_p90": percentile(submit, 90),
        "server.queue_s_p50": _median(queue),
        "server.queue_s_p90": percentile(queue, 90),
        "server.grants": counters.get("server.grants", 0),
        "server.preempt.completed": counters.get("server.preempt.completed", 0),
        "server.jobs.rejected": counters.get("server.jobs.rejected", 0),
        "loadgen.lag_s_max": phases["lag_s_max"],
        "trace.overhead": phases["burst"]["drain_s"] / untraced["drain_s"],
    }
    return {
        "attempted": len(base.sent) + len(jobs.sent),
        "failed": base.failed + jobs.failed,
        "mismatched": base.mismatched + jobs.mismatched,
        "totals": totals,
        "extra": extra,
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _layer_wall(totals: dict, layer: str) -> float:
    row = totals["layers"].get(layer)
    return row[WALL_NS] / 1e9 if row else 0.0
