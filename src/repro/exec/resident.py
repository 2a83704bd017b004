"""Resident process workers: descriptor tasks over shared-memory data.

The fork-per-dispatch :class:`~repro.exec.backend.ProcessBackend` pays a
pool fork on every query because its tasks are unpicklable closures —
only a child forked *after* the closures exist can see them.  This
module is the other half of the shm data plane
(:mod:`repro.exec.shm`): once a tile task is a small picklable
:class:`TileTaskSpec` that *names* its inputs (shared-memory segment
descriptors for the routed point batches, one pickled state blob for the
prepared artifacts, a slot in a shared result buffer for the output),
nothing forces the fork — a pool of **spawned** workers started once can
serve every later query, caching its mapped segments and unpickled
task state across dispatches.

Worker-side caches and what keys them:

* segments map once per worker through the process-global
  :data:`repro.exec.shm.SEGMENT_CACHE` (segment names are unique per
  export, so reuse across queries is automatically content-correct);
* the heavy task state — the :class:`~repro.core.tiles.TileKernel`
  record (which carries the device clone), the
  :class:`~repro.cache.prepared.PreparedPolygons` artifact, and the
  polygon set, plain data with no engine among it — unpickles once per
  ``state_key`` and is reused by every spec carrying that key.  The
  parent derives the key from the artifact's content generation
  (``prepared.version``), so an edit or a freshly warmed artifact rolls
  the key and workers reload exactly then (``resident_state_loads`` /
  ``resident_state_reuse`` count it).

Accumulators come back by writing into the preallocated shared result
buffer — only stats, spans, metrics deltas, and freshly built prepared
pieces cross the pickle boundary.  Determinism is untouched: each spec
is one whole tile task (:func:`repro.core.tiles.run_tile`, the function
every other backend calls, handed the spec's fields as arguments),
results are collected by task index, and the parent folds them in tile
order as always.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue as queue_module
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import ExecutionBackendError
from repro.exec import shm
from repro.obs import metrics

#: Unpickled state blobs kept per worker.  Dashboards flip between a
#: handful of polygon sets; anything colder reloads from the (still
#: mapped) blob segment.
STATE_CACHE_ENTRIES = 4


@dataclass(frozen=True)
class TileTaskSpec:
    """One tile task, by name: everything a resident worker needs.

    ``state_ref`` addresses a pickled ``(kernel, prepared, polygons)``
    blob in shared memory; ``state_key`` is its cache identity.
    ``chunks`` are :class:`~repro.exec.shm.ShmChunk` descriptors (the
    tile's routed batches).  The worker writes its folded
    accumulators into ``result_ref[slot]`` — one ``(channel, polygon)``
    plane per tile — and ships the rest of the
    :class:`~repro.exec.backend.TilePartial` back by value.
    """

    index: int
    state_key: tuple
    state_ref: shm.ShmArray
    tile_idx: int
    aggregate: object
    filters: object
    columns: tuple
    chunks: tuple
    retain: bool
    tracing: bool
    result_ref: shm.ShmArray
    slot: int
    channel_names: tuple
    #: a delta's base slots of the tile (:func:`repro.core.tiles.run_tile`)
    reuse: dict | None = None


def _load_state(spec: TileTaskSpec, cache: OrderedDict):
    """The spec's (kernel, prepared, polygons), from cache or its blob."""
    entry = cache.get(spec.state_key)
    if entry is not None:
        cache.move_to_end(spec.state_key)
        metrics.counter("resident_state_reuse")
        return entry
    blob = shm.view(spec.state_ref)
    entry = pickle.loads(memoryview(blob))
    cache[spec.state_key] = entry
    metrics.counter("resident_state_loads")
    while len(cache) > STATE_CACHE_ENTRIES:
        cache.popitem(last=False)
    return entry


def _run_spec(spec: TileTaskSpec, cache: OrderedDict):
    """Execute one tile task and park its accumulators in shared memory."""
    # Imported here: repro.core builds on this package.
    from repro.core.tiles import TileMember, run_tile

    kernel, prepared, polygons = _load_state(spec, cache)
    partial = run_tile(
        spec.tile_idx, kernel,
        TileMember(prepared, polygons, spec.aggregate, spec.filters),
        spec.columns, spec.chunks, retain=spec.retain,
        tracing=spec.tracing, reuse=spec.reuse,
    )
    result = shm.view(spec.result_ref, writable=True)
    for ci, ch in enumerate(spec.channel_names):
        np.copyto(result[spec.slot, ci], partial.accumulators[ch])
    # Only the slot crosses the pickle boundary, not the arrays.
    partial.accumulators = {}
    return partial


def _picklable_error(exc: BaseException) -> BaseException:
    """The exception itself when it pickles, else a faithful stand-in.

    Probed eagerly: ``mp.Queue`` pickles in a feeder thread, where a
    failure would poison the queue instead of surfacing to the caller.
    """
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return ExecutionBackendError(
            f"resident worker task failed: {type(exc).__name__}: {exc!r}"
        )


def _worker_main(task_q, result_q) -> None:  # pragma: no cover - subprocess
    """Resident worker loop: specs in, (seq, index, ok, payload) out.

    Runs in a *spawned* process: fresh interpreter, no inherited locks,
    its own (initially empty) metrics registry — so a per-task delta
    against a task-start baseline is exactly the increments this task
    made, shipped home in ``TilePartial.metrics`` for the parent to
    fold into its registry.
    """
    cache: OrderedDict = OrderedDict()
    while True:
        item = task_q.get()
        if item is None:
            return
        seq, spec = item
        try:
            baseline = metrics.REGISTRY.baseline()
            partial = _run_spec(spec, cache)
            delta = metrics.REGISTRY.delta_since(baseline)
            if delta:
                partial.metrics = delta
            result_q.put((seq, spec.index, True, partial))
        except BaseException as exc:
            result_q.put((seq, spec.index, False, _picklable_error(exc)))


class ResidentWorkerPool:
    """A persistent pool of spawned workers consuming TileTaskSpecs.

    One shared task queue, one shared result queue.  ``dispatch``
    windows its submissions to the requested parallelism (the engines'
    memory-budget cap), collects results by task index, and surfaces
    the first task exception after every in-flight task has drained —
    the pool survives task failures; only a dead worker process marks
    it ``broken`` (the owner then closes and respawns it).
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))
        self.broken = False
        self._seq = 0
        ctx = mp.get_context("spawn")
        self._task_q = ctx.Queue()
        self._result_q = ctx.Queue()
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(self._task_q, self._result_q),
                daemon=True,
                name=f"repro-resident-{i}",
            )
            for i in range(self.workers)
        ]
        for proc in self._procs:
            proc.start()

    def dispatch(self, specs, parallelism: int | None = None) -> list:
        """Run every spec, returning its results in spec-index order."""
        if self.broken:
            raise ExecutionBackendError("resident worker pool is broken")
        specs = list(specs)
        if not specs:
            return []
        self._seq += 1
        seq = self._seq
        window = self.workers if parallelism is None else max(
            1, min(self.workers, parallelism)
        )
        total = len(specs)
        results: list = [None] * total
        submitted = received = 0
        failure: BaseException | None = None
        while submitted < min(window, total):
            self._task_q.put((seq, specs[submitted]))
            submitted += 1
        while received < submitted:
            try:
                rseq, index, ok, payload = self._result_q.get(timeout=1.0)
            except queue_module.Empty:
                # The exit code says how: -9 is an OOM kill, 1 a spawn
                # that could not import the parent's ``__main__``.
                dead = {
                    p.name: p.exitcode for p in self._procs
                    if not p.is_alive()
                }
                if dead:
                    self.broken = True
                    raise ExecutionBackendError(
                        "resident worker(s) died mid-dispatch "
                        f"(name: exit code): {dead}"
                    )
                continue
            if rseq != seq:  # pragma: no cover - stale cross-dispatch echo
                continue
            received += 1
            if ok:
                results[index] = payload
            elif failure is None:
                # Drain the in-flight window before raising, but stop
                # feeding new work for this dispatch.
                failure = payload
            if failure is None and submitted < total:
                self._task_q.put((seq, specs[submitted]))
                submitted += 1
        if failure is not None:
            raise failure
        return results

    def close(self) -> None:
        """Stop the workers (idempotent)."""
        procs, self._procs = self._procs, []
        for _ in procs:
            try:
                self._task_q.put(None)
            except Exception:  # pragma: no cover - teardown path
                break
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for q in (self._task_q, self._result_q):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:  # pragma: no cover - teardown path
                pass
