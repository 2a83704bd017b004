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

:class:`ProcessBackend` forks a fresh pool per dispatch: tasks are
unpicklable closures, and only a child forked *after* they exist can see
them, so the parent's memory (prepared artifacts, routed point batches)
is inherited copy-on-write for free and only results are pickled home.
A child that dies mid-dispatch raises :class:`ExecutionBackendError`
instead of leaving the dispatch waiting for a result that never comes.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing as mp
import os
import threading
import weakref
from abc import ABC, abstractmethod
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait as wait_futures,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import ExecutionBackendError
from repro.obs import metrics
from repro.types import ExecutionStats

#: Environment variables consulted when no backend is configured
#: explicitly — the CI matrix runs the whole test suite under each
#: backend by exporting these, without touching any call site.
BACKEND_ENV_VAR = "REPRO_EXEC_BACKEND"
WORKERS_ENV_VAR = "REPRO_EXEC_WORKERS"

@dataclass
class TilePartial:
    """Everything one tile task hands back to the deterministic merge.

    ``accumulators`` are per-polygon channel arrays folded from the blend
    identity over this tile only; ``stats`` counts only this tile's work.
    ``built`` carries newly built prepared-state pieces back to the
    parent (required under the process backend, where workers mutate
    copy-on-write clones of the artifact), keyed as
    :meth:`~repro.cache.prepared.PreparedPolygons.mark_composed` takes
    them: the tile's composed record (``views``) and, as ``unit_boundary`` /
    ``unit_coverage``, the *per-polygon* outline pixels and coverage
    runs of the same build — the state that makes single-polygon edits
    incremental.
    ``pairs`` is the tile's boundary join when this task built the
    artifact's record of it (``repro.core.tiles.
    _point_pass``), installed by the merge on the caller's side.
    ``payload`` is engine-specific (the bounded engine's per-tile FBO
    and run table for §5 result intervals).  ``span`` is
    the tile task's finished trace subtree (plain picklable
    :class:`repro.obs.trace.Span` data, so it survives the process
    backend's result pickling), or ``None`` when tracing was off.
    ``metrics`` carries the counter/histogram increments the task made
    in a forked worker process — a
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

#: True in every process forked from this one (pool workers).  A
#: ProcessBackend dispatch in such a child runs inline instead of
#: forking again.
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
        ``"reused"`` (thread pool already live) or ``"forked"`` (fresh
        fork fan-out).
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
#: travels to the worker and only results are pickled back).  An entry
#: stays published until its dispatch is over; concurrent dispatches
#: coexist under distinct tokens.  ``_FORK_LOCK`` serializes the
#: registry's edits and every fork, so a child never inherits a
#: half-written registry; it is released before the (long) wait for
#: results, so concurrent fan-outs from different threads overlap their
#: work and serialize only their forks.
_FORK_REGISTRY: dict[int, Sequence[Callable[[], object]]] = {}
_FORK_LOCK = threading.Lock()
_FORK_TOKENS = itertools.count(1)


def _run_forked_task(job: tuple[int, int]):
    # Runs in a forked pool child.  The child inherited the parent's
    # metrics registry contents at fork time, so a delta against a
    # task-start baseline is exactly this task's own increments — shipped
    # home on the TilePartial (parent-side merge applies it), because
    # everything incremented here otherwise dies with the child.  Results
    # of another shape (the index join's fan-out) carry no delta.
    token, index = job
    baseline = metrics.REGISTRY.baseline()
    result = _FORK_REGISTRY[token][index]()
    if isinstance(result, TilePartial):
        result.metrics = metrics.REGISTRY.delta_since(baseline) or None
    return result


class ProcessBackend(ExecutionBackend):
    """Process execution: true parallelism through a fork per dispatch.

    Tasks are plain closures handed to freshly *forked* children through
    process memory, so nothing on the way in needs to be picklable;
    results (:class:`TilePartial`) are pickled on the way back.  The
    fork is per dispatch by necessity — a pool forked before a query
    cannot see that query's closures — and what persists across queries
    is the parent's memory, inherited copy-on-write.  Every child is
    forked while the dispatch submits its tasks, under ``_FORK_LOCK``,
    and a pool never replaces a child: one that dies mid-dispatch breaks the
    pool, which stops the others, and the dispatch raises
    :class:`ExecutionBackendError`.  Requires the ``fork`` start method
    (POSIX); platforms without it should use :class:`ThreadBackend` —
    see ``docs/parallel_execution.md``.
    """

    name = "process"

    def run_tasks(self, tasks, parallelism=None):
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
        # Publish this dispatch's task list under a fresh token and fork
        # the pool (its submits fork the children); the entry is pruned
        # on every exit path, including a failed fork.
        with _FORK_LOCK:
            token = next(_FORK_TOKENS)
            _FORK_REGISTRY[token] = tasks
        pool = None
        try:
            with _FORK_LOCK:
                pool = ProcessPoolExecutor(workers, mp_context=ctx)
                futures = [
                    pool.submit(_run_forked_task, (token, i))
                    for i in range(len(tasks))
                ]
            self._record_event("forked")
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            raise ExecutionBackendError(
                f"a forked worker died mid-dispatch ({len(tasks)} tasks, "
                f"{workers} workers)"
            ) from exc
        finally:
            if pool is not None:
                # Joins every child: a failed task's siblings are
                # cancelled or run out; a broken pool's are already
                # stopped.
                pool.shutdown(wait=True, cancel_futures=True)
            with _FORK_LOCK:
                del _FORK_REGISTRY[token]


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
) -> ExecutionBackend:
    """Materialize a backend from a name, an instance, or the environment.

    ``None`` falls back to ``$REPRO_EXEC_BACKEND`` (and worker counts to
    ``$REPRO_EXEC_WORKERS``), defaulting to serial execution — existing
    call sites keep their exact pre-parallelism behaviour unless they,
    or the environment, opt in.  An instance passes through unchanged.
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
    return cls(workers=workers)
