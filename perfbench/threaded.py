"""The ``threaded-barrierless`` and ``threaded-barrier`` workloads.

A closed loop with one client: ``ThreadedEngine`` jobs run one after
another, cycling wc, sort and pp at 20k records and knn at 2k training
points, 4 maps and 4 reducers.  These four cover the Table 1 classes
whose reduce path changes when the barrier goes (aggregation, sorting,
post-reduction, selection); grep is left out because it finishes in
~40 ms at 20k.  Both workloads run the same jobs on the same inputs and
differ only in the execution mode, so the barrier workload is the
control for every change to the barrier-less path.
"""

from __future__ import annotations

import gc
import statistics
import time

import procfs
from layers import LayerTracer, install_program_wrappers
from stats import nearest_rank

APP_RECORDS = {"wc": 20000, "sort": 20000, "pp": 20000, "knn": 2000}
WARMUP_RECORDS = {"wc": 200, "sort": 200, "pp": 200, "knn": 50}
NUM_MAPS = NUM_REDUCERS = 4


def setup(mode: str) -> float:
    """Imports, engine construction and one small job per app; seconds."""
    start = time.perf_counter()
    from repro.apps.demo import demo_job_and_input
    from repro.core.types import ExecutionMode
    from repro.engine.threaded import ThreadedEngine

    for app, records in WARMUP_RECORDS.items():
        job, pairs = demo_job_and_input(
            app, ExecutionMode(mode), records=records,
            num_reducers=NUM_REDUCERS, num_maps=NUM_MAPS, seed=0,
        )
        ThreadedEngine().run(job, pairs, NUM_MAPS)
    return time.perf_counter() - start


def _inputs(mode: str, seed: int) -> dict:
    from repro.apps.demo import demo_job_and_input
    from repro.core.types import ExecutionMode
    from repro.engine.local import LocalEngine
    from repro.server import output_digest

    inputs = {}
    for app, records in APP_RECORDS.items():
        job, pairs = demo_job_and_input(
            app, ExecutionMode(mode), records=records,
            num_reducers=NUM_REDUCERS, num_maps=NUM_MAPS, seed=seed,
        )
        reference = output_digest(app, LocalEngine().run(job, pairs, NUM_MAPS))
        inputs[app] = (job, pairs, reference)
    return inputs


class _Loop:
    """Runs whole cycles of the four apps until the time is up."""

    def __init__(self, inputs: dict) -> None:
        from repro.engine.threaded import ThreadedEngine
        from repro.server import output_digest

        self.inputs = inputs
        self.engine_class = ThreadedEngine
        self.digest = output_digest
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0

    def cycles(self, seconds: float):
        deadline = time.perf_counter() + seconds
        while True:
            yield from self.inputs
            if time.perf_counter() >= deadline:
                return

    def run_job(self, app: str):
        """One timed job: ``([engine, result], wall s, process CPU s, correct)``.

        The engine and result come back in a list so the caller can drop
        them before the next job starts.
        """
        job, pairs, reference = self.inputs[app]
        engine = self.engine_class()
        self.attempted += 1
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            result = engine.run(job, pairs, NUM_MAPS)
        except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
            self.failed += 1
            return [engine, None], time.perf_counter() - start, 0.0, False
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        ok = self.digest(app, result) == reference
        if not ok:
            self.failed += 1
            self.mismatched += 1
        return [engine, result], wall, cpu, ok


def run(mode: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = _inputs(mode, seed)
    loop = _Loop(inputs)
    # Inputs and references live for the whole run: keep them out of
    # every collection, so a collection's cost is the jobs' own garbage.
    gc.collect()
    gc.freeze()
    try:
        return _trace(loop, seconds) if trace else _measure(loop, seconds)
    finally:
        gc.unfreeze()


def _measure(loop: _Loop, seconds: float) -> dict:
    times: dict[str, list[float]] = {app: [] for app in loop.inputs}
    procfs.reset_peak_rss()
    for app in loop.cycles(seconds):
        held, wall, _, ok = loop.run_job(app)
        if ok:
            times[app].append(wall)
        # Drop the finished job's engine and result before the next job,
        # so two jobs' state is never alive at once.  Cyclic garbage is
        # left to the collector, which runs inside later jobs as it would
        # for any caller.
        held.clear()
    peak_mb = procfs.peak_rss_kb() / 1024.0
    walls = [t for values in times.values() for t in values]
    records = sum(
        len(loop.inputs[app][1]) * len(values) for app, values in times.items()
    )
    metrics = {
        **{f"{app}_job_s": statistics.median(v) for app, v in times.items() if v},
        "records_per_s": records / sum(walls),
        "turnaround_s_p50": statistics.median(walls),
        # Fewer than 100 jobs fit in a run, so this p90 lacks the ten
        # samples beyond it that the server's tail latency has: on a
        # closed loop it summarises the app mix, not a tail.
        "turnaround_s_p90": nearest_rank(walls, 90),
        "capacity_jobs_per_s": len(walls) / sum(walls),
        "peak_rss_mb": peak_mb,
    }
    return {
        "attempted": loop.attempted, "failed": loop.failed,
        "mismatched": loop.mismatched, "metrics": metrics,
        "samples": {"job_s": times, "turnaround": walls},
    }


def _trace(loop: _Loop, seconds: float) -> dict:
    """Each job untraced, then traced; the layers come from the traced runs."""
    tracer = LayerTracer()
    untraced_s = traced_s = process_cpu_s = sort_s = 0.0
    counters: dict[str, int] = {}
    hwm = 0
    jobs = 0
    for app in loop.cycles(seconds):
        held, wall, _, _ = loop.run_job(app)
        untraced_s += wall
        held.clear()
        gc.collect()
        install_program_wrappers(tracer)
        try:
            held, wall, cpu, _ = loop.run_job(app)
        finally:
            tracer.restore()
        traced_s += wall
        process_cpu_s += cpu
        jobs += 1
        obs = held[0].obs
        sort_s += sum(
            span.duration for span in obs.tracer.find("sort") if span.kind == "op"
        )
        hwm = max(hwm, obs.metrics.maxima().get("shuffle.buffer.hwm", 0))
        for name, value in obs.counters.as_dict().items():
            counters[name] = counters.get(name, 0) + value
        del obs
        held.clear()
        gc.collect()
    extra = {
        "jobs": jobs,
        "process_cpu_s": process_cpu_s,
        "sort_wall_s": sort_s,
        "counters": counters,
        "buffer_hwm": hwm,
        "trace.overhead": traced_s / untraced_s,
    }
    return {
        "attempted": loop.attempted, "failed": loop.failed,
        "mismatched": loop.mismatched, "totals": tracer.totals(),
        "extra": extra,
    }
