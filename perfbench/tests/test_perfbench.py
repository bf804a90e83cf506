"""The benchmark's own tests.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cluster  # noqa: E402
import run  # noqa: E402
import threaded  # noqa: E402
from layers import (  # noqa: E402
    CALLS,
    CPU_NS,
    SELF_NS,
    LayerTracer,
    install_program_wrappers,
    merge_totals,
    read_layer_files,
    subtract_totals,
)
from stats import interquartile_mean, nearest_rank, percentile  # noqa: E402


# -- percentile rule ---------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(100)), 90) == 89
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(20)), 50) == 9
    assert percentile(list(range(19)), 50) is None
    assert percentile([], 50) is None


def test_nearest_rank_is_order_free():
    assert nearest_rank([5, 1, 4, 2, 3], 50) == 3
    assert nearest_rank([5, 1, 4, 2, 3], 100) == 5
    assert nearest_rank([7], 90) == 7


def test_interquartile_mean_drops_a_quarter_from_each_end():
    assert interquartile_mean([100, 1, 2, 3, 4, 5, 6, 7, -50]) == 4
    assert interquartile_mean([3, 1, 2]) == 2
    assert interquartile_mean([7]) == 7


# -- wrappers ----------------------------------------------------------------


def _wrapped_targets():
    import repro.cluster.worker as worker
    import repro.engine.base as base
    import repro.engine.recovery as recovery
    import repro.engine.runtime as runtime
    import repro.engine.threaded as threaded_engine
    import repro.memory.store as store_module
    from repro.memory.store import TreeMapStore

    targets = [
        (threaded_engine, "run_map_task_partitioned"),
        (worker, "run_map_task_partitioned"),
        (threaded_engine, "run_barrier_reduce_attempt"),
        (threaded_engine, "run_pipelined_reduce_attempt"),
        (worker, "run_barrier_reduce_attempt"),
        (worker, "run_pipelined_reduce_attempt"),
        (recovery, "encode_record_batches"),
        (worker, "encode_record_batches"),
        (runtime, "run_fetch_stream"),
        (runtime, "decode_batch"),
        (runtime, "prepare_reducer"),
        (base, "make_store"),
        (store_module, "entry_size"),
    ]
    return targets + [(TreeMapStore, "put"), (TreeMapStore, "checkpoint")]


def _current(owner, name):
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


def test_install_wraps_every_point_and_restore_puts_back_originals():
    targets = _wrapped_targets()
    before = [_current(owner, name) for owner, name in targets]
    tracer = LayerTracer()
    install_program_wrappers(tracer)
    try:
        for (owner, name), original in zip(targets, before):
            assert _current(owner, name) is not original, name
    finally:
        tracer.restore()
    for (owner, name), original in zip(targets, before):
        assert _current(owner, name) is original, name
    assert not tracer.installed


def _traced_job(mode: str) -> dict:
    from repro.apps.demo import demo_job_and_input
    from repro.core.types import ExecutionMode
    from repro.engine.threaded import ThreadedEngine

    job, pairs = demo_job_and_input("wc", ExecutionMode(mode), records=500, seed=1)
    tracer = LayerTracer()
    install_program_wrappers(tracer)
    try:
        ThreadedEngine().run(job, pairs, 4)
    finally:
        tracer.restore()
    return tracer.totals()


def test_barrierless_job_charges_the_memory_layers():
    layers = _traced_job("barrierless")["layers"]
    assert layers["engine.map"][CALLS] == 4
    assert layers["engine.reduce_task"][CALLS] == 4
    assert layers["engine.fetch"][CALLS] == 16
    assert layers["memory.footprint"][CALLS] == layers["memory.put"][CALLS] > 0
    for row in layers.values():
        assert 0 <= row[SELF_NS] <= row[CPU_NS]
    # Footprint accounting is nested in put, which is nested in reduce.
    assert layers["memory.put"][CPU_NS] >= layers["memory.footprint"][CPU_NS]


def test_barrier_job_never_enters_the_memory_layers():
    layers = _traced_job("barrier")["layers"]
    assert "memory.footprint" not in layers
    assert "memory.put" not in layers
    assert layers["wire.decode"][CALLS] > 0


def test_nested_wrapper_self_time_excludes_the_child():
    box = types.SimpleNamespace()

    def inner():
        return sum(range(20000))

    def outer():
        return box.inner() + box.inner()

    box.inner, box.outer = inner, outer
    tracer = LayerTracer()
    tracer.wrap(box, "inner", "inner")
    tracer.wrap(box, "outer", "outer")
    box.outer()
    tracer.restore()
    layers = tracer.totals()["layers"]
    assert layers["inner"][CALLS] == 2
    outer_row, inner_row = layers["outer"], layers["inner"]
    assert outer_row[SELF_NS] == outer_row[CPU_NS] - inner_row[CPU_NS]
    assert box.inner is inner and box.outer is outer


# -- per-pid layer files -----------------------------------------------------


def test_forked_child_flushes_its_own_file_on_return(tmp_path):
    box = types.SimpleNamespace(work=lambda n: sum(range(n)))
    tracer = LayerTracer(str(tmp_path))
    tracer.wrap(box, "work", "work", lambda counts, args, *_: counts.update(n=args[0]))
    box.work(10)  # parent call: not flushed, not inherited
    pid = os.fork()
    if pid == 0:  # the child exits without running any cleanup
        box.work(1000)
        box.work(1000)
        os._exit(0)
    os.waitpid(pid, 0)
    tracer.restore()
    files = read_layer_files(str(tmp_path))
    assert list(files) == [pid]
    assert files[pid]["layers"]["work"][CALLS] == 2
    assert files[pid]["counts"]["n"] == 1000


def test_merge_sums_pid_files_and_subtract_takes_the_difference(tmp_path):
    parts = {
        11: {"layers": {"a": [1, 10, 5, 20]}, "counts": {"bytes": 3}},
        12: {"layers": {"a": [2, 30, 30, 40], "b": [1, 1, 1, 1]}, "counts": {}},
    }
    for pid, part in parts.items():
        (tmp_path / f"layers-{pid}.json").write_text(json.dumps(part))
    (tmp_path / "other.json").write_text("{}")
    files = read_layer_files(str(tmp_path))
    assert set(files) == {11, 12}
    total = merge_totals(files.values())
    assert total["layers"] == {"a": [3, 40, 35, 60], "b": [1, 1, 1, 1]}
    assert total["counts"] == {"bytes": 3}
    start = merge_totals([parts[11]])
    diff = subtract_totals(total, start)
    assert diff["layers"] == {"a": [2, 30, 30, 40], "b": [1, 1, 1, 1]}
    assert diff["counts"] == {"bytes": 0}


# -- the contract ------------------------------------------------------------


def test_benchmark_json_matches_the_metrics_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert any(m["name"] == "setup_s" for m in bench["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "threaded-barrier",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# -- tiny-size smoke runs ----------------------------------------------------


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(threaded, "APP_RECORDS", {"wc": 300, "sort": 300, "pp": 300, "knn": 40})
    monkeypatch.setattr(cluster, "APP_RECORDS", {"wc": 200, "sort": 200, "pp": 200, "grep": 200, "knn": 30})
    monkeypatch.setattr(cluster, "INPUT_SEEDS", 1)


def _smoke(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "2",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 4
    return result["metrics"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_untraced(tiny, capsys, workload):
    metrics = _smoke(capsys, workload, 0)
    expected = set(run.END_TO_END)
    if workload == "server-cluster":
        expected.discard("turnaround_s_p90")  # too few steady samples here
    assert expected <= set(metrics) <= set(run.END_TO_END)
    for name, metric in metrics.items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced(tiny, capsys, workload):
    metrics = _smoke(capsys, workload, 1)
    assert set(metrics) <= set(run.PER_LAYER)
    values = {name: metric["value"] for name, metric in metrics.items()}
    assert values["trace.overhead"] > 0
    assert values["engine.map.tasks"] > 0
    assert values["wire.wire_bytes"] > 0
    if workload == "threaded-barrier":
        assert values["memory.footprint.cpu_s"] == 0
    else:
        assert values["memory.footprint.cpu_s"] > 0
    if workload == "server-cluster":
        assert values["cluster.shuffle.wire_bytes"] > 0
        assert values["cluster.run_job.wall_s_p50"] > 0
        assert values["server.grants"] > 0
    else:
        assert values["cluster.run_job.wall_s_p50"] == 0
