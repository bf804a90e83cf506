"""Per-layer CPU and wall tracing from outside the program.

The traced run wraps public functions of ``repro`` at the modules that
call them (``setattr`` on the module or class attribute), so no file of
the program changes.  Each wrapper records, per thread, its call count,
inclusive thread CPU (``time.thread_time_ns``), self CPU (inclusive
minus the CPU of wrapped layers nested inside it on the same thread)
and wall time.  Under the GIL wall time hides CPU: a fetch thread can
sit for a second in a layer that used a tenth of that on the processor,
so CPU is what the per-layer shares are computed from.

Forked cluster workers inherit the installed wrappers.  A worker is
terminated rather than exited, so nothing runs at its exit: instead it
rewrites ``layers-<pid>.json`` in the trace directory each time an
outermost wrapper (a task-level call) returns.  :func:`read_layer_files`
and :func:`merge_totals` sum those files with the parent's own.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time

#: Row layout of one layer's totals.
CALLS, CPU_NS, SELF_NS, WALL_NS = range(4)


def _attribute(owner, name: str):
    """``owner.name`` as stored: a class's own function, not a bound method."""
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


class _ThreadState:
    __slots__ = ("totals", "counts", "stack", "stores")

    def __init__(self) -> None:
        self.totals: dict[str, list[int]] = {}
        self.counts: dict[str, float] = {}
        #: CPU of wrapped calls nested in each open wrapper of this thread.
        self.stack: list[int] = []
        #: Partial-result stores built by ``make_store`` on this thread.
        self.stores: list = []


class LayerTracer:
    """Installs timing wrappers and restores the originals afterwards."""

    def __init__(self, trace_dir: str | None = None) -> None:
        self.trace_dir = trace_dir
        self._originals: list[tuple[object, str, object]] = []
        self._reset()
        self._flush_on_return = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- state ------------------------------------------------------------

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _after_fork(self) -> None:
        # A forked worker starts from zero and flushes after every task:
        # it is killed, not exited, at cluster shutdown.
        if self.installed:
            self._reset()
            self._flush_on_return = True

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, name: str, layer: str, record=None) -> None:
        """Replace ``owner.name`` by a timed wrapper charged to ``layer``.

        ``record(counts, args, kwargs, result, wall_ns)`` may add extra
        per-layer counts (bytes, batches) after a successful call.
        """
        self.replace(owner, name, self.timed(layer, _attribute(owner, name), record))

    def replace(self, owner, name: str, new) -> None:
        """Set ``owner.name = new``, remembering the original for restore."""
        self._originals.append((owner, name, _attribute(owner, name)))
        setattr(owner, name, new)

    def timed(self, layer: str, fn, record=None):
        """``fn`` wrapped so each call is charged to ``layer``."""
        thread_ns = time.thread_time_ns
        wall_ns = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            stack.append(0)
            cpu0 = thread_ns()
            wall0 = wall_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = thread_ns() - cpu0
                wall = wall_ns() - wall0
                nested = stack.pop()
                row = state.totals.get(layer)
                if row is None:
                    row = state.totals[layer] = [0, 0, 0, 0]
                row[CALLS] += 1
                row[CPU_NS] += cpu
                row[SELF_NS] += cpu - nested
                row[WALL_NS] += wall
                if stack:
                    stack[-1] += cpu
            if record is not None:
                record(state.counts, args, kwargs, result, wall)
            if not stack and self._flush_on_return:
                self.flush()
            return result

        return wrapper

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    # -- totals -----------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        """Add ``value`` to this thread's count ``name``."""
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + value

    def stores(self) -> list:
        """The calling thread's list of stores built while traced."""
        return self._state().stores

    def totals(self) -> dict:
        """This process's totals: ``{"layers": {...}, "counts": {...}}``."""
        with self._lock:
            states = list(self._states)
        layers: dict[str, list[int]] = {}
        counts: dict[str, float] = {}
        for state in states:
            # dict.copy() is atomic under the GIL; rows hold plain ints.
            for layer, row in state.totals.copy().items():
                merged = layers.setdefault(layer, [0, 0, 0, 0])
                for i, value in enumerate(row):
                    merged[i] += value
            for name, value in state.counts.copy().items():
                counts[name] = counts.get(name, 0) + value
        return {"layers": layers, "counts": counts}

    def flush(self) -> str | None:
        """Atomically rewrite this process's ``layers-<pid>.json``."""
        if self.trace_dir is None:
            return None
        path = os.path.join(self.trace_dir, f"layers-{os.getpid()}.json")
        # Serialised, so an older snapshot never replaces a newer one.
        with self._flush_lock:
            with open(f"{path}.tmp", "w") as fh:
                json.dump(self.totals(), fh)
            os.replace(f"{path}.tmp", path)
        return path


def merge_totals(parts) -> dict:
    """Sum several ``totals()`` dicts."""
    layers: dict[str, list[int]] = {}
    counts: dict[str, float] = {}
    for part in parts:
        for layer, row in part.get("layers", {}).items():
            merged = layers.setdefault(layer, [0, 0, 0, 0])
            for i, value in enumerate(row):
                merged[i] += value
        for name, value in part.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + value
    return {"layers": layers, "counts": counts}


def subtract_totals(end: dict, start: dict) -> dict:
    """``end - start``, layer by layer (what happened between two reads)."""
    layers = {}
    for layer, row in end["layers"].items():
        before = start["layers"].get(layer, [0, 0, 0, 0])
        layers[layer] = [a - b for a, b in zip(row, before)]
    counts = {
        name: value - start["counts"].get(name, 0)
        for name, value in end["counts"].items()
    }
    return {"layers": layers, "counts": counts}


def read_layer_files(trace_dir: str) -> dict[int, dict]:
    """Every ``layers-<pid>.json`` in ``trace_dir``, keyed by pid."""
    found = {}
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("layers-") and name.endswith(".json"):
            with open(os.path.join(trace_dir, name)) as fh:
                found[int(name[len("layers-"):-len(".json")])] = json.load(fh)
    return found


# -- the program's wrap points -----------------------------------------------


def _count_batches(counts, _args, _kwargs, batches, _wall) -> None:
    counts["wire.encode.batches"] = counts.get("wire.encode.batches", 0) + len(batches)
    counts["wire.raw_bytes"] = counts.get("wire.raw_bytes", 0) + sum(
        b.raw_bytes for b in batches
    )
    counts["wire.wire_bytes"] = counts.get("wire.wire_bytes", 0) + sum(
        b.wire_bytes for b in batches
    )


def _count_checkpoint(counts, _args, _kwargs, stats, _wall) -> None:
    counts["memory.checkpoint.bytes"] = (
        counts.get("memory.checkpoint.bytes", 0) + stats.bytes
    )


def install_program_wrappers(tracer: LayerTracer) -> None:
    """Wrap the data-path entry points of ``repro`` (engine, wire, memory).

    Each function is wrapped where its caller looks it up, so the calls
    named in the layer table are the ones charged.
    """
    import repro.cluster.worker as worker
    import repro.engine.base as base
    import repro.engine.recovery as recovery
    import repro.engine.runtime as runtime
    import repro.engine.threaded as threaded
    import repro.memory.store as store_module
    from repro.memory.store import TreeMapStore

    for module in (threaded, worker):
        tracer.wrap(module, "run_map_task_partitioned", "engine.map")
        tracer.wrap(module, "run_barrier_reduce_attempt", "engine.reduce_task")
        tracer.wrap(module, "run_pipelined_reduce_attempt", "engine.reduce_task")
    for module in (recovery, worker):
        tracer.wrap(module, "encode_record_batches", "wire.encode", _count_batches)
    tracer.wrap(runtime, "run_fetch_stream", "engine.fetch")
    tracer.wrap(runtime, "decode_batch", "wire.decode")
    tracer.wrap(TreeMapStore, "put", "memory.put")
    tracer.wrap(TreeMapStore, "checkpoint", "memory.checkpoint", _count_checkpoint)
    tracer.wrap(store_module, "entry_size", "memory.footprint")

    make_store = base.make_store

    def traced_make_store(*args, **kwargs):
        store = make_store(*args, **kwargs)
        tracer.stores().append(store)
        return store

    tracer.replace(base, "make_store", traced_make_store)

    prepare = runtime.prepare_reducer

    def traced_prepare_reducer(*args, **kwargs):
        # The reducer returned to the runtime gets a timed ``run``; the
        # stores built for it report their peak footprint when it ends.
        built = tracer.stores()
        before = len(built)
        reducer = prepare(*args, **kwargs)
        stores = built[before:]
        del built[before:]
        timed_run = tracer.timed("engine.reduce", reducer.run)

        def run(context):
            try:
                return timed_run(context)
            finally:
                peak = sum(getattr(s, "peak_memory", 0) for s in stores)
                tracer.add("memory.store.peak_bytes", peak)

        reducer.run = run
        return reducer

    tracer.replace(runtime, "prepare_reducer", traced_prepare_reducer)
