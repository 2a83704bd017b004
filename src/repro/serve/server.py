"""Concurrent query server: admission control, coalescing, shared groups.

One :class:`Server` multiplexes many clients over a single
:class:`~repro.sql.planner.QueryPlanner` — one warm
:class:`~repro.cache.session.QuerySession`, one pinned execution backend,
one catalog.  Three layers between ``submit`` and the engines:

1. **Admission control** — a bounded in-flight count.  Submissions past
   ``max_queue`` raise :class:`~repro.errors.ServerOverloadedError`
   synchronously (shed load at the door, don't queue unboundedly), and
   waiters can bound their patience with a per-query timeout that raises
   :class:`~repro.errors.QueryTimeoutError` without interrupting the
   execution (coalesced followers are still served).
2. **In-flight coalescing** — a submission textually identical to one
   already in flight (same canonical statement, same catalog objects)
   attaches to the leader's future instead of executing again; the one
   result fans out to every waiter, followers marked with
   ``stats.extra["coalesced"] = True``.
3. **Shared groups** — grouping is what the queue did, never something a
   statement waits for.  A statement is handed to the pool at once; the
   worker that picks it up takes everything then pending over the same
   points, regions, engine and filter set — a singleton on an idle
   server, a dashboard's burst behind a busy pool — and answers the
   additive ones from one execution (:mod:`repro.serve.group`), each
   result bit-identical to solo execution.

Everything is stdlib: ``concurrent.futures`` for the worker pool and the
client-visible futures, ``asyncio.wrap_future`` for the async facade.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import threading
import time
from dataclasses import dataclass

from repro.core.filters import filter_key
from repro.errors import (
    QueryTimeoutError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.obs import metrics, trace
from repro.serve.group import execute_shared, shareable
from repro.sql.ast import SelectStatement
from repro.sql.parser import parse


#: ``serve_wait_s`` bucket bounds: queueing is the only latency the
#: server adds, so an idle hand-off (~0.1 ms) and a saturated pool (tens
#: of ms) must not share a bucket.
WAIT_BOUNDS_S = (1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05,
                 0.1, 0.25)
#: ``serve_group_size`` bucket bounds (statements per shared execution).
GROUP_BOUNDS = (1, 2, 3, 4, 6, 8, 12, 16)


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs for a :class:`Server` (see ``docs/serving.md``)."""

    #: Worker threads executing queries.  Distinct from the engines'
    #: tile-level backend workers: a server worker runs a whole query
    #: (or group), which may itself fan out tiles.
    max_workers: int = 4
    #: Admission bound: maximum leaders in flight (queued + running).
    #: Coalesced followers don't count — they cost no execution.
    max_queue: int = 32
    #: Default per-query wait bound; ``None`` waits forever.
    timeout_s: float | None = None


class _Entry:
    """One admitted leader: its plan, its future, and its followers."""

    __slots__ = (
        "key", "group_key", "statement", "engine", "points", "regions",
        "aggregate", "filters", "future", "followers", "submitted_at",
    )

    def __init__(self, key, statement, engine, points, regions, aggregate,
                 filters) -> None:
        self.key = key
        #: What a shared execution must agree on: statements with equal
        #: group keys differ in their aggregate only.
        self.group_key = (
            id(points), id(regions), type(engine), engine.prepared_spec(),
            filter_key(filters),
        )
        self.statement = statement
        self.engine = engine
        self.points = points
        self.regions = regions
        self.aggregate = aggregate
        self.filters = filters
        self.future: concurrent.futures.Future = concurrent.futures.Future()
        self.followers: list[concurrent.futures.Future] = []
        self.submitted_at = time.perf_counter()


def _safe_set(future, result=None, error=None) -> None:
    """Settle a future that a timed-out waiter may have cancelled."""
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except concurrent.futures.InvalidStateError:
        pass


def _coalesced_copy(result):
    """The leader's result re-stamped for a follower.

    Same value arrays (they are immutable by convention), fresh stats
    object so ``extra["coalesced"]`` marks only the follower's copy.
    Results that aren't plain dataclasses (``ExplainResult`` et al.) fan
    out as-is.
    """
    stats = getattr(result, "stats", None)
    if stats is None:
        return result
    try:
        marked = dataclasses.replace(
            stats, extra={**stats.extra, "coalesced": True}
        )
        return dataclasses.replace(result, stats=marked)
    except TypeError:
        return result


class Server:
    """Admission + coalescing + shared groups over one shared planner."""

    def __init__(self, planner, config: ServeConfig | None = None) -> None:
        self._planner = planner
        self._config = config if config is not None else ServeConfig()
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self._config.max_workers,
            thread_name_prefix="repro-serve",
        )
        self._lock = threading.Lock()
        self._inflight: dict[tuple, _Entry] = {}
        #: Admitted entries no worker has taken yet, by group key; a key
        #: is present exactly while one drain task for it sits in the pool.
        self._pending: dict[tuple, list[_Entry]] = {}
        self._depth = 0
        self._closed = False
        self._admitted = 0
        self._rejected = 0
        self._coalesced = 0
        self._fused_queries = 0
        self._fused_scans = 0
        self._fused_fallbacks = 0
        self._timeouts = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self, statement: str | SelectStatement
    ) -> concurrent.futures.Future:
        """Admit a statement; returns the future of its result.

        Raises :class:`ServerClosedError` after :meth:`close` and
        :class:`ServerOverloadedError` when ``max_queue`` leaders are
        already in flight — both synchronously, so callers shed load
        without ever holding a doomed future.
        """
        stmt = parse(statement) if isinstance(statement, str) else statement
        # Planning happens outside the admission lock: it only reads the
        # catalog, and a malformed statement should fail its caller
        # without charging the queue.
        engine, points, regions, aggregate, filters = self._planner.plan(stmt)
        key = (str(stmt), id(points), id(regions))
        with self._lock, trace.span("serve-admit"):
            if self._closed:
                raise ServerClosedError("server is closed")
            leader = self._inflight.get(key)
            if leader is not None:
                with trace.span("serve-coalesce"):
                    follower: concurrent.futures.Future = (
                        concurrent.futures.Future()
                    )
                    leader.followers.append(follower)
                    self._coalesced += 1
                    metrics.counter("serve_coalesced")
                return follower
            if self._depth >= self._config.max_queue:
                self._rejected += 1
                metrics.counter("serve_rejected")
                raise ServerOverloadedError(
                    f"{self._depth} queries in flight "
                    f"(max_queue={self._config.max_queue})"
                )
            entry = _Entry(key, stmt, engine, points, regions, aggregate,
                           filters)
            self._inflight[key] = entry
            self._depth += 1
            self._admitted += 1
            metrics.counter("serve_admitted")
            metrics.gauge_set("serve_queue_depth", self._depth)
            metrics.gauge_max("serve_queue_depth_peak", self._depth)
            # Posted under the lock: close() flips ``_closed`` under it
            # and shuts the pool down afterwards, so the pool is live.
            group = self._pending.setdefault(entry.group_key, [])
            group.append(entry)
            if len(group) == 1:
                self._pool.submit(self._drain, entry.group_key)
        return entry.future

    # ------------------------------------------------------------------
    # Execution (worker threads)
    # ------------------------------------------------------------------
    def _drain(self, group_key: tuple) -> None:
        """Run everything pending for ``group_key`` at this moment: the
        additive statements from one shared execution when there are
        several, the rest (Min / Max, ``EXPLAIN ANALYZE``, multi-item
        SELECTs) each on its own right after, in admission order."""
        with self._lock:
            entries = self._pending.pop(group_key)
        now = time.perf_counter()
        for entry in entries:
            metrics.observe("serve_wait_s", now - entry.submitted_at,
                            bounds=WAIT_BOUNDS_S)
        sharers = [
            entry for entry in entries
            if shareable(entry.aggregate)
            and not entry.statement.explain_analyze
        ]
        results = self._run_shared(sharers) if len(sharers) > 1 else None
        metrics.observe("serve_group_size", len(sharers) if results else 1,
                        bounds=GROUP_BOUNDS)
        if results:
            for entry, result in zip(sharers, results):
                self._settle(entry, result=result)
            entries = [entry for entry in entries if entry not in sharers]
        for entry in entries:
            try:
                with trace.span("serve-query"):
                    result = self._execute(entry)
            except BaseException as exc:
                self._settle(entry, error=exc)
            else:
                self._settle(entry, result=result)

    def _run_shared(self, sharers: list[_Entry]):
        """One execution for all of ``sharers``; ``None`` sends them to
        the solo loop when the execution raised: one poisoned member must
        not fail its companions, so each re-runs for its own result or
        its own error."""
        head = sharers[0]
        try:
            results = execute_shared(
                head.engine, head.points, head.regions,
                [entry.aggregate for entry in sharers], head.filters,
            )
        except Exception:
            with self._lock:
                self._fused_fallbacks += 1
            metrics.counter("serve_fused_fallbacks")
            return None
        with self._lock:
            self._fused_scans += 1
            self._fused_queries += len(sharers)
        metrics.counter("serve_fused_scans")
        metrics.counter("serve_fused_queries", len(sharers))
        return results

    def _execute(self, entry: _Entry):
        if entry.statement.explain_analyze:
            from repro.sql.explain import explain_analyze

            return explain_analyze(
                self._planner.optimizer(), entry.engine, entry.points,
                entry.regions, entry.aggregate, entry.filters,
                statement=entry.statement,
            )
        return entry.engine.execute(
            entry.points, entry.regions, aggregate=entry.aggregate,
            filters=entry.filters,
        )

    def _settle(self, entry: _Entry, result=None, error=None) -> None:
        with self._lock:
            self._inflight.pop(entry.key, None)
            followers = tuple(entry.followers)
            self._depth -= 1
            metrics.gauge_set("serve_queue_depth", self._depth)
        if error is not None:
            _safe_set(entry.future, error=error)
            for follower in followers:
                _safe_set(follower, error=error)
            return
        _safe_set(entry.future, result=result)
        for follower in followers:
            _safe_set(follower, result=_coalesced_copy(result))

    # ------------------------------------------------------------------
    # Waiting
    # ------------------------------------------------------------------
    def execute(self, statement, timeout: float | None = None):
        """Submit and block for the result (synchronous convenience).

        ``timeout`` (default :attr:`ServeConfig.timeout_s`) bounds the
        wait, not the execution: on expiry this raises
        :class:`QueryTimeoutError` while the query keeps running for any
        coalesced followers.
        """
        if timeout is None:
            timeout = self._config.timeout_s
        future = self.submit(statement)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            with self._lock:
                self._timeouts += 1
            metrics.counter("serve_timeouts")
            raise QueryTimeoutError(
                f"query did not finish within {timeout}s"
            ) from None

    async def execute_async(self, statement, timeout: float | None = None):
        """Async facade over :meth:`submit` (same timeout semantics)."""
        if timeout is None:
            timeout = self._config.timeout_s
        future = self.submit(statement)
        try:
            return await asyncio.wait_for(asyncio.wrap_future(future), timeout)
        except asyncio.TimeoutError:
            with self._lock:
                self._timeouts += 1
            metrics.counter("serve_timeouts")
            raise QueryTimeoutError(
                f"query did not finish within {timeout}s"
            ) from None

    # ------------------------------------------------------------------
    # Introspection + lifecycle
    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """Serving counters, mirroring the ``serve_*`` metrics."""
        with self._lock:
            return {
                "admitted": self._admitted,
                "rejected": self._rejected,
                "coalesced": self._coalesced,
                "fused_queries": self._fused_queries,
                "fused_scans": self._fused_scans,
                "fused_fallbacks": self._fused_fallbacks,
                "timeouts": self._timeouts,
                "depth": self._depth,
            }

    def close(self) -> None:
        """Drain and shut down: every admitted statement's drain task
        already sits in the pool, so the workers run them and exit."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"Server(workers={self._config.max_workers}, "
                f"depth={self._depth}, admitted={self._admitted}, "
                f"coalesced={self._coalesced}, shared={self._fused_queries})"
            )
