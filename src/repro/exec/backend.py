"""Pluggable execution backends for independent tile tasks.

The raster-join pipeline is embarrassingly parallel across canvas tiles:
each tile's boundary render, point pass, and polygon pass read shared
prepared state but write only tile-local framebuffers and accumulators.
A backend decides *where* those tile tasks run — inline, on a thread
pool, or on forked worker processes — while the engines keep the merge
deterministic by folding the returned partials in tile-index order.

Every backend obeys the same contract:

* ``run_tasks(tasks)`` executes zero-argument callables and returns their
  results **in task order**, whatever order they complete in;
* a raised exception in any task propagates to the caller;
* ``parallelism`` caps in-flight tasks below ``workers`` (the engines use
  this to keep concurrent device batches inside the memory budget).

Because results are merged in task order and each task folds its own
accumulators from the blend identity, results are bit-identical across
backends and worker counts (see ``docs/parallel_execution.md``).

Pools are long-lived: a :class:`ThreadBackend` spawns its executor
lazily on first multi-task dispatch and keeps it for the life of the
backend instance, so a second query on the same engine pays zero pool
construction.  ``close()`` releases the pool explicitly; anything still
open is reclaimed at interpreter exit, and forked children drop
inherited pools (whose threads do not survive a fork) so they rebuild
lazily.

:class:`ProcessBackend` runs in one of two modes.  Its default is
fork-per-dispatch: tasks are unpicklable closures, and only a child
forked *after* they exist can see them, so each dispatch forks a fresh
pool and relies on the parent's memory (prepared artifacts, partitioned
point chunks) being inherited copy-on-write for free.  With the
shared-memory data plane enabled (``resident=True`` /
``$REPRO_SHM=1``), the tile loop may instead hand it **descriptor tasks**
(:class:`~repro.exec.resident.TileTaskSpec`): small picklable specs
naming shared-memory segments instead of closing over arrays.  Those
dispatch to a long-lived pool of spawned workers (``run_specs``) that
caches mapped segments and unpickled task state across queries —
warm repeated queries skip the fork, the state pickling, and the bulk
result pickling entirely.  Both modes produce bit-identical results;
see ``docs/parallel_execution.md``.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import threading
import weakref
from abc import ABC, abstractmethod
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor, wait as wait_futures
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import ExecutionBackendError
from repro.exec import shm
from repro.exec.shm import SHM_ENV_VAR
from repro.obs import metrics
from repro.types import ExecutionStats

#: Environment variables consulted when no backend is configured
#: explicitly — the CI matrix runs the whole test suite under each
#: backend by exporting these, without touching any call site.
BACKEND_ENV_VAR = "REPRO_EXEC_BACKEND"
WORKERS_ENV_VAR = "REPRO_EXEC_WORKERS"

_TRUE_FLAGS = frozenset({"1", "true", "yes", "on"})
_FALSE_FLAGS = frozenset({"0", "false", "no", "off"})


def flag_from_env(name: str, default: bool) -> bool:
    """Parse a boolean environment flag, rejecting unrecognized values."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    lowered = raw.strip().lower()
    if lowered in _TRUE_FLAGS:
        return True
    if lowered in _FALSE_FLAGS:
        return False
    raise ExecutionBackendError(
        f"{name} must be a boolean flag "
        f"({sorted(_TRUE_FLAGS)} / {sorted(_FALSE_FLAGS)}), got {raw!r}"
    )


@dataclass
class TilePartial:
    """Everything one tile task hands back to the deterministic merge.

    ``accumulators`` are per-polygon channel arrays folded from the blend
    identity over this tile only; ``stats`` counts only this tile's work.
    ``built`` carries newly built prepared-state pieces back to the
    parent (required under the process backend, where workers mutate
    copy-on-write clones of the artifact), keyed as
    :meth:`~repro.cache.prepared.PreparedPolygons.mark_composed` takes
    them: the tile's composed views and, as ``unit_boundary`` /
    ``unit_coverage``, the *per-polygon* outline pixels and coverage
    runs of the same build — the state that makes single-polygon edits
    incremental.
    ``pairs`` is ``(key, batches)``, the tile's boundary join when this
    task built the artifact's record of it (``repro.core.tiles.
    _point_pass``), installed by the merge on the caller's side.
    ``payload`` is engine-specific (the bounded engine's per-tile FBO
    for §5 result intervals).  ``span`` is
    the tile task's finished trace subtree (plain picklable
    :class:`repro.obs.trace.Span` data, so it survives the process
    backend's result pickling), or ``None`` when tracing was off.
    ``metrics`` carries the counter/histogram increments the task made
    in a *worker process* (forked or resident) — a
    :meth:`~repro.obs.metrics.MetricsRegistry.delta_since` dict the
    parent merge folds into its registry, so process-backend workers'
    instrumentation is no longer silently lost; ``None`` under the
    in-process backends, whose increments land directly.
    """

    tile_idx: int
    accumulators: dict[str, np.ndarray] = field(default_factory=dict)
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    saw_points: bool = False
    built: dict = field(default_factory=dict)
    pairs: tuple | None = None
    payload: object = None
    span: object = None
    metrics: dict | None = None


#: Live backends whose pools must be dropped in forked children (their
#: threads do not cross the fork) and closed at interpreter exit.
_LIVE_BACKENDS: "weakref.WeakSet[ExecutionBackend]" = weakref.WeakSet()

#: True in every process forked from this one (pool workers, including
#: replacements the pool spawns mid-map).  A ProcessBackend dispatch in
#: such a child runs inline instead of forking again.
_IN_FORKED_CHILD = False


def _mark_forked_child() -> None:  # pragma: no cover - fork path
    global _IN_FORKED_CHILD
    _IN_FORKED_CHILD = True
    for backend in _LIVE_BACKENDS:
        backend._forget_pool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_mark_forked_child)


@atexit.register
def _close_backends_at_exit() -> None:  # pragma: no cover - exit path
    for backend in list(_LIVE_BACKENDS):
        try:
            backend.close()
        except Exception:
            pass


class ExecutionBackend(ABC):
    """Runs independent tasks and returns their results in task order."""

    name = "abstract"

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ExecutionBackendError(
                f"worker count must be >= 1, got {workers}"
            )
        self.workers = workers if workers is not None else default_workers()
        # Per-thread dispatch events: backends are deliberately shared
        # across a planner's engines, so concurrent queries
        # must each read the event of *their own* dispatch, not the
        # latest one on the instance.
        self._events = threading.local()
        _LIVE_BACKENDS.add(self)

    @property
    def last_pool_event(self) -> str | None:
        """How this thread's most recent ``run_tasks`` executed:
        ``"inline"`` (no pool), ``"created"`` (thread pool spawned),
        ``"reused"`` (thread pool already live), ``"forked"`` (fresh
        fork fan-out), ``"resident-created"`` (spawn pool brought up for
        a shm descriptor dispatch), or ``"resident-reused"`` (descriptor
        dispatch served by the live spawn pool).
        Engines copy it into ``ExecutionStats.extra["pool"]``.  Recorded
        per calling thread, so concurrent queries on one shared backend
        never see each other's events."""
        return getattr(self._events, "last", None)

    def _record_event(self, event: str) -> None:
        self._events.last = event
        metrics.counter("backend_pool_events", backend=self.name,
                        event=event)

    @abstractmethod
    def run_tasks(
        self,
        tasks: Sequence[Callable[[], object]],
        parallelism: int | None = None,
    ) -> list:
        """Execute every task, returning results in task order."""

    def close(self) -> None:
        """Release any long-lived pool.  Safe to call repeatedly; the
        next dispatch simply respawns lazily."""

    def _forget_pool(self) -> None:
        """Drop pool state without joining it (fork-child reset)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _effective_workers(
        self, num_tasks: int, parallelism: int | None
    ) -> int:
        limit = self.workers if parallelism is None else min(
            self.workers, max(1, parallelism)
        )
        return max(1, min(limit, num_tasks))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(ExecutionBackend):
    """Inline execution — the reference semantics every backend matches."""

    name = "serial"

    def __init__(self, workers: int | None = None) -> None:
        # A serial backend runs one task at a time by definition; the
        # worker count is pinned so stats reporting never lies.
        super().__init__(1)

    def run_tasks(self, tasks, parallelism=None):
        self._record_event("inline")
        return [task() for task in tasks]


class ThreadBackend(ExecutionBackend):
    """Thread-pool execution: shared prepared state, no pickling.

    NumPy kernels release the GIL for the bulk of the per-tile work
    (rasterization, gathers, reductions), so threads overlap well on
    multi-core hosts while sharing :class:`PreparedPolygons` artifacts
    and device-resident point sets by reference.

    The pool is owned by the backend instance: spawned lazily on the
    first dispatch that needs it and reused by every later one (sized
    ``workers``; per-dispatch ``parallelism`` caps are enforced with a
    semaphore instead of a smaller pool).  ``close()`` joins it;
    interpreter exit reclaims stragglers; a forked child drops the
    inherited pool, whose threads did not survive the fork, and
    respawns on demand.
    """

    name = "thread"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._in_worker = threading.local()

    def _submit_all(self, call, tasks) -> list:
        """Submit every task to the pool, spawning it if needed.

        Submission happens under the pool lock so a concurrent
        ``close()`` can never shut the executor down halfway through a
        dispatch — it either runs before (this dispatch respawns the
        pool) or after (the futures are already queued, and
        ``shutdown(wait=True)`` lets them finish).
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-tile",
                )
                self._record_event("created")
            else:
                self._record_event("reused")
            return [self._pool.submit(call, task) for task in tasks]

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _forget_pool(self) -> None:  # pragma: no cover - fork path
        # The inherited executor's threads do not exist in this child;
        # drop it without shutdown (joining dead threads would hang) and
        # re-arm the lock, which may have been held at fork time.
        self._pool = None
        self._pool_lock = threading.Lock()
        self._in_worker = threading.local()
        self._events = threading.local()

    def run_tasks(self, tasks, parallelism=None):
        tasks = list(tasks)
        if not tasks:
            return []
        workers = self._effective_workers(len(tasks), parallelism)
        if workers == 1 or getattr(self._in_worker, "active", False):
            # Degenerate parallelism — or a nested dispatch from inside
            # one of our own pool threads, which must not wait on pool
            # slots it is itself occupying.
            self._record_event("inline")
            return [task() for task in tasks]
        if workers < self.workers:
            gate = threading.BoundedSemaphore(workers)

            def call(task):
                with gate:
                    return self._run_one(task)
        else:
            call = self._run_one
        # Futures resolve in submission order whatever order they
        # complete in — the determinism anchor.  On failure, siblings
        # are cancelled and awaited so no task of this dispatch is
        # still running when run_tasks raises.
        futures = self._submit_all(call, tasks)
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            wait_futures(futures)
            raise

    def _run_one(self, task):
        self._in_worker.active = True
        try:
            return task()
        finally:
            self._in_worker.active = False


#: Task lists inherited by forked workers, keyed by dispatch token
#: (copy-on-write; nothing is pickled on the way in — only the token
#: travels through ``pool.map`` and only results are pickled back).
#: An entry stays published for its pool's whole lifetime, so workers
#: the pool re-forks mid-map (replacements for a crashed worker) still
#: inherit the right task list; concurrent dispatches coexist under
#: distinct tokens.  The name is only ever rebound to a *fresh* dict —
#: never mutated in place — so a fork snapshotted at any instant (pool
#: replacements fork from the maintenance thread at arbitrary times)
#: sees an internally consistent mapping.  ``_FORK_LOCK`` serializes
#: the rebinding and the initial pool fork; it is released before the
#: (long) map, so concurrent fan-outs from different threads overlap
#: their work and serialize only their forks.
_FORK_REGISTRY: dict[int, Sequence[Callable[[], object]]] = {}
_FORK_LOCK = threading.Lock()
_FORK_TOKEN_COUNTER = 0


def _attach_metrics_delta(result, delta: dict) -> None:
    """Hang a worker's metrics delta on its result, when it can carry one.

    A tile task returns a *list* of :class:`TilePartial` (one per member
    query of its group), and the delta rides on the first — it is applied
    exactly once, by that member's merge.  A bare partial carries its
    own; results of neither shape drop the delta (no TilePartial travels
    home to carry it).
    """
    if isinstance(result, TilePartial):
        result.metrics = delta
    elif (
        isinstance(result, list) and result
        and isinstance(result[0], TilePartial)
    ):
        result[0].metrics = delta


def _run_forked_task(job: tuple[int, int]):
    # Runs in a forked pool child.  The child inherited the parent's
    # metrics registry contents at fork time, so a delta against a
    # task-start baseline is exactly this task's own increments — shipped
    # home on the TilePartial (parent-side merge applies it), because
    # everything incremented here otherwise dies with the child.
    token, index = job
    baseline = metrics.REGISTRY.baseline()
    result = _FORK_REGISTRY[token][index]()
    delta = metrics.REGISTRY.delta_since(baseline)
    if delta:
        _attach_metrics_delta(result, delta)
    return result


class ProcessBackend(ExecutionBackend):
    """Process execution: true parallelism, two dispatch modes.

    **Closure mode** (``run_tasks``, always available): tasks are plain
    closures handed to freshly *forked* children through process memory,
    so nothing on the way in needs to be picklable; results
    (:class:`TilePartial`) are pickled on the way back.  The fork is
    per dispatch by necessity — a pool forked before a query cannot see
    that query's closures — and what persists across queries is the
    parent's memory, inherited copy-on-write.  Requires the ``fork``
    start method (POSIX); platforms without it should use
    :class:`ThreadBackend` — see ``docs/parallel_execution.md``.

    **Resident mode** (``run_specs``, on with ``resident=True`` /
    ``$REPRO_SHM=1``): a tile task expressed as a picklable
    :class:`~repro.exec.resident.TileTaskSpec` — inputs named by
    shared-memory descriptors, output written into a shared result
    buffer — dispatches to one long-lived pool of **spawned** workers
    that lives across queries, caching mapped segments and unpickled
    task state worker-side (keyed by the artifact's content
    generation).  Warm repeated queries then pay no fork, no state
    pickling, and no bulk result pickling.  Callers probe
    :meth:`resident_capable` first and fall back to closure mode for
    anything the spec form cannot express — both modes run the same
    tile code and merge identically, so results never depend on which
    one served a query.
    """

    name = "process"

    #: Parent-side pickled state blobs kept for the resident pool, LRU.
    STATE_CACHE_ENTRIES = 4

    def __init__(
        self,
        workers: int | None = None,
        resident: bool | None = None,
    ) -> None:
        super().__init__(workers)
        #: Whether descriptor dispatches (``run_specs``) are available.
        #: ``None`` consults ``$REPRO_SHM``, defaulting to off.
        self.resident = (
            flag_from_env(SHM_ENV_VAR, False)
            if resident is None
            else resident
        )
        self._resident_lock = threading.RLock()
        self._resident_pool = None
        #: token -> (anchor, state_key, blob ShmArray).  ``anchor``
        #: strong-refs the live objects the token identifies by id(), so
        #: an id can never be recycled while its entry is cached.
        self._resident_states: OrderedDict = OrderedDict()
        self._result_buffer: tuple[tuple, shm.ShmArray] | None = None
        self._state_seq = 0
        #: Segments this backend holds a registry lease on (state blobs
        #: and the result buffer).  A backend dropped without ``close()``
        #: — an engine going out of scope — gives them back when it is
        #: collected, as a dropped ``ShmChunk`` does; the hook releases
        #: leases only and never joins the pool.
        self._leases: set[str] = set()
        weakref.finalize(self, shm.release_leases, self._leases)

    # -- resident mode -------------------------------------------------
    def resident_capable(
        self, num_tasks: int, parallelism: int | None = None
    ) -> bool:
        """Whether ``run_specs`` would actually use the resident pool.

        False inside a forked child (nested dispatches run inline) and
        for degenerate parallelism, where the closure path is strictly
        cheaper.
        """
        return (
            self.resident
            and not _IN_FORKED_CHILD
            and self._effective_workers(num_tasks, parallelism) > 1
        )

    def resident_guard(self):
        """The lock serializing resident dispatches on this backend.

        Callers hold it across ``resident_state`` + ``resident_result``
        + ``run_specs`` + reading the result buffer, so a concurrent
        query on the same shared backend can never swap or overwrite
        the buffer mid-read (the lock is reentrant).
        """
        return self._resident_lock

    def resident_state(self, token, anchor, build_blob) -> tuple:
        """(state_key, blob ref) for a pickled task-state blob, cached.

        ``token`` identifies the state by content generation (the caller
        includes ``prepared.version``), so a warmed or edited artifact
        gets a fresh blob — and a fresh ``state_key``, which is what
        tells resident workers their cached unpickled copy is stale.
        """
        with self._resident_lock:
            entry = self._resident_states.get(token)
            if entry is not None:
                self._resident_states.move_to_end(token)
                metrics.counter("resident_state_blobs", event="reused")
                return entry[1], entry[2]
            ref = self._lease(shm.REGISTRY.export_bytes(build_blob()))
            self._state_seq += 1
            state_key = (os.getpid(), id(self), self._state_seq)
            self._resident_states[token] = (anchor, state_key, ref)
            metrics.counter("resident_state_blobs", event="exported")
            while len(self._resident_states) > self.STATE_CACHE_ENTRIES:
                _, old = self._resident_states.popitem(last=False)
                self._release(old[2])
            return state_key, ref

    def resident_result(self, shape: tuple) -> shm.ShmArray:
        """The shared result buffer for this dispatch shape.

        One buffer per backend, reallocated only when the shape
        changes; dispatches are serialized under :meth:`resident_guard`,
        so reuse across queries is race-free.
        """
        with self._resident_lock:
            if self._result_buffer is None or self._result_buffer[0] != shape:
                if self._result_buffer is not None:
                    self._release(self._result_buffer[1])
                ref = self._lease(shm.REGISTRY.export_array(
                    np.zeros(shape, dtype=np.float64)
                ))
                self._result_buffer = (shape, ref)
            return self._result_buffer[1]

    def run_specs(self, specs, parallelism: int | None = None) -> list:
        """Dispatch descriptor tasks to the resident pool.

        Results come back in spec-index order (the same contract as
        ``run_tasks``).  A broken pool (a worker process died) is torn
        down so the next dispatch respawns it fresh.
        """
        from repro.exec.resident import ResidentWorkerPool

        specs = list(specs)
        if not specs:
            return []
        with self._resident_lock:
            if self._resident_pool is None:
                self._resident_pool = ResidentWorkerPool(self.workers)
                self._record_event("resident-created")
            else:
                self._record_event("resident-reused")
            try:
                return self._resident_pool.dispatch(specs, parallelism)
            except BaseException:
                if (
                    self._resident_pool is not None
                    and self._resident_pool.broken
                ):
                    pool, self._resident_pool = self._resident_pool, None
                    pool.close()
                raise

    def _lease(self, ref: shm.ShmArray) -> shm.ShmArray:
        self._leases.add(ref.segment)
        return ref

    def _release(self, ref: shm.ShmArray) -> None:
        self._leases.discard(ref.segment)
        shm.REGISTRY.release(ref.segment)

    def close(self) -> None:
        with self._resident_lock:
            pool, self._resident_pool = self._resident_pool, None
            self._resident_states = OrderedDict()
            self._result_buffer = None
            shm.release_leases(self._leases)
        if pool is not None:
            pool.close()

    def _forget_pool(self) -> None:  # pragma: no cover - fork path
        # A forked child shares the parent's pool queues and segment
        # leases; it must neither use nor release them.  Drop the
        # references (the shm registry's PID guard makes any stray
        # release a no-op) and re-arm the lock.
        self._resident_pool = None
        self._resident_lock = threading.RLock()
        self._resident_states = OrderedDict()
        self._result_buffer = None
        self._leases.clear()
        self._events = threading.local()

    def run_tasks(self, tasks, parallelism=None):
        global _FORK_REGISTRY, _FORK_TOKEN_COUNTER
        tasks = list(tasks)
        if not tasks:
            return []
        workers = self._effective_workers(len(tasks), parallelism)
        if workers == 1 or _IN_FORKED_CHILD:
            # Degenerate parallelism, or a nested call from inside a
            # forked worker: run inline (results are identical anyway).
            self._record_event("inline")
            return [task() for task in tasks]
        try:
            ctx = mp.get_context("fork")
        except ValueError as exc:
            raise ExecutionBackendError(
                "ProcessBackend needs the 'fork' start method, which this "
                "platform does not provide; use ThreadBackend instead"
            ) from exc
        # Publish this dispatch's task list under a fresh token, fork
        # the pool, and leave the entry published until the map is done
        # — any worker forked for this pool (including mid-map
        # replacements) inherits it, while other threads fan out under
        # their own tokens concurrently.  The entry is pruned on every
        # exit path, including a failed pool spawn.
        with _FORK_LOCK:
            _FORK_TOKEN_COUNTER += 1
            token = _FORK_TOKEN_COUNTER
            _FORK_REGISTRY = {**_FORK_REGISTRY, token: tasks}
        pool = None
        try:
            with _FORK_LOCK:
                pool = ctx.Pool(processes=workers)
            self._record_event("forked")
            return pool.map(
                _run_forked_task, [(token, i) for i in range(len(tasks))]
            )
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()
            with _FORK_LOCK:
                _FORK_REGISTRY = {
                    k: v for k, v in _FORK_REGISTRY.items() if k != token
                }


_BACKEND_CLASSES: dict[str, type[ExecutionBackend]] = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def default_workers() -> int:
    """Worker count when none is configured: env override, else cores."""
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ExecutionBackendError(
                f"{WORKERS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
        if workers < 1:
            raise ExecutionBackendError(
                f"{WORKERS_ENV_VAR} must be >= 1, got {workers}"
            )
        return workers
    return os.cpu_count() or 1


def resolve_backend(
    spec: str | ExecutionBackend | None = None,
    workers: int | None = None,
    shm_resident: bool | None = None,
) -> ExecutionBackend:
    """Materialize a backend from a name, an instance, or the environment.

    ``None`` falls back to ``$REPRO_EXEC_BACKEND`` (and worker counts to
    ``$REPRO_EXEC_WORKERS``), defaulting to serial execution — existing
    call sites keep their exact pre-parallelism behaviour unless they,
    or the environment, opt in.  An instance passes through unchanged.
    ``shm_resident`` routes only to :class:`ProcessBackend` (``None``
    consults ``$REPRO_SHM`` there, defaulting to off); the other
    backends run in-process and have no pickle boundary to remove.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR) or "serial"
    try:
        cls = _BACKEND_CLASSES[spec]
    except KeyError:
        raise ExecutionBackendError(
            f"unknown execution backend {spec!r}; "
            f"expected one of {sorted(_BACKEND_CLASSES)}"
        ) from None
    if cls is ProcessBackend:
        return cls(workers=workers, resident=shm_resident)
    return cls(workers=workers)
