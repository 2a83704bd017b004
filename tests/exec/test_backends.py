"""Unit tests for the execution-backend subsystem.

The contract every backend must honor: results come back in task order
(whatever order tasks complete in), exceptions propagate, worker counts
and parallelism caps are respected, and configuration resolves from
names, instances, and the environment.
"""

import threading
import time

import pytest

from repro.errors import ExecutionBackendError
from repro.exec import (
    EngineConfig,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    default_workers,
    resolve_backend,
)
from repro.exec.backend import BACKEND_ENV_VAR, WORKERS_ENV_VAR

ALL_BACKENDS = [
    SerialBackend(),
    ThreadBackend(workers=4),
    ProcessBackend(workers=2),
]


def _ids(backend):
    return backend.name


class TestTaskOrder:
    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=_ids)
    def test_results_in_task_order(self, backend):
        tasks = [lambda i=i: i * i for i in range(10)]
        assert backend.run_tasks(tasks) == [i * i for i in range(10)]

    def test_thread_order_survives_out_of_order_completion(self):
        """Early tasks sleeping longest must not reorder the results."""
        def make(i):
            def task():
                time.sleep(0.05 * (4 - i))
                return i
            return task

        backend = ThreadBackend(workers=4)
        assert backend.run_tasks([make(i) for i in range(4)]) == [0, 1, 2, 3]

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=_ids)
    def test_empty_task_list(self, backend):
        assert backend.run_tasks([]) == []

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=_ids)
    def test_exceptions_propagate(self, backend):
        def boom():
            raise ValueError("tile exploded")

        with pytest.raises(ValueError, match="tile exploded"):
            backend.run_tasks([lambda: 1, boom, lambda: 3])


class TestWorkerLimits:
    def test_serial_backend_is_single_worker(self):
        # Even an explicit worker count cannot make serial parallel.
        assert SerialBackend(workers=8).workers == 1

    def test_worker_count_must_be_positive(self):
        with pytest.raises(ExecutionBackendError):
            ThreadBackend(workers=0)

    def test_parallelism_caps_inflight_tasks(self):
        """The memory-budget cap truly bounds concurrent execution."""
        lock = threading.Lock()
        state = {"running": 0, "peak": 0}

        def task():
            with lock:
                state["running"] += 1
                state["peak"] = max(state["peak"], state["running"])
            time.sleep(0.02)
            with lock:
                state["running"] -= 1
            return True

        backend = ThreadBackend(workers=8)
        results = backend.run_tasks([task] * 12, parallelism=2)
        assert all(results)
        assert state["peak"] <= 2

    def test_process_backend_nested_runs_inline(self):
        """A process backend used from inside a forked worker must not
        fork again — it falls back to inline execution."""
        outer = ProcessBackend(workers=2)

        def nested():
            return ProcessBackend(workers=2).run_tasks(
                [lambda: 1, lambda: 2]
            )

        assert outer.run_tasks([nested, nested]) == [[1, 2], [1, 2]]


class TestPersistentPools:
    def test_thread_pool_created_then_reused(self):
        backend = ThreadBackend(workers=2)
        try:
            tasks = [lambda i=i: i for i in range(4)]
            assert backend.run_tasks(tasks) == list(range(4))
            assert backend.last_pool_event == "created"
            assert backend.run_tasks(tasks) == list(range(4))
            assert backend.last_pool_event == "reused"
        finally:
            backend.close()

    def test_close_releases_and_respawns_lazily(self):
        backend = ThreadBackend(workers=2)
        tasks = [lambda: 1, lambda: 2]
        backend.run_tasks(tasks)
        backend.close()
        backend.close()  # idempotent
        assert backend.run_tasks(tasks) == [1, 2]
        assert backend.last_pool_event == "created"
        backend.close()

    def test_single_task_dispatch_never_spawns_a_pool(self):
        """A 1-tile canvas (or parallelism cap of 1) must stay pool-free
        — the cheap no-op the partitioning acceptance bar requires."""
        backend = ThreadBackend(workers=4)
        assert backend.run_tasks([lambda: 7]) == [7]
        assert backend.last_pool_event == "inline"
        assert backend._pool is None
        assert backend.run_tasks([lambda: 1, lambda: 2], parallelism=1) == [1, 2]
        assert backend.last_pool_event == "inline"
        assert backend._pool is None

    def test_parallelism_cap_respected_by_persistent_pool(self):
        """The semaphore that replaces per-call pool sizing truly bounds
        in-flight tasks below the resident pool's width."""
        lock = threading.Lock()
        state = {"running": 0, "peak": 0}

        def task():
            with lock:
                state["running"] += 1
                state["peak"] = max(state["peak"], state["running"])
            time.sleep(0.02)
            with lock:
                state["running"] -= 1
            return True

        backend = ThreadBackend(workers=8)
        try:
            backend.run_tasks([task] * 12)  # warm the pool to 8 threads
            state["peak"] = 0
            assert all(backend.run_tasks([task] * 12, parallelism=2))
            assert backend.last_pool_event == "reused"
            assert state["peak"] <= 2
        finally:
            backend.close()

    def test_nested_dispatch_on_same_backend_runs_inline(self):
        """A task that fans out on its own backend must not deadlock
        waiting for pool slots it is occupying."""
        backend = ThreadBackend(workers=2)

        def nested():
            return backend.run_tasks([lambda: 1, lambda: 2])

        try:
            assert backend.run_tasks([nested, nested]) == [[1, 2], [1, 2]]
        finally:
            backend.close()

    def test_concurrent_process_fanouts_overlap(self):
        """The fork lock guards only task publication: two threads can
        fan out on separate ProcessBackends at the same time and both
        complete correctly (the old design serialized them wholesale)."""
        results = {}

        def fan_out(key):
            backend = ProcessBackend(workers=2)
            results[key] = backend.run_tasks(
                [lambda i=i, key=key: (key, i * i) for i in range(4)]
            )

        threads = [
            threading.Thread(target=fan_out, args=(k,)) for k in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for key in ("a", "b"):
            assert results[key] == [(key, i * i) for i in range(4)]

    def test_serial_close_is_noop_and_inline(self):
        backend = SerialBackend()
        assert backend.run_tasks([lambda: 5]) == [5]
        assert backend.last_pool_event == "inline"
        backend.close()

    def test_close_racing_dispatches_never_fails(self):
        """close() from one thread while another dispatches must never
        error: the dispatch either respawns the pool or its already
        submitted futures are allowed to finish."""
        backend = ThreadBackend(workers=4)
        stop = threading.Event()
        errors = []

        def dispatcher():
            try:
                while not stop.is_set():
                    assert backend.run_tasks([lambda: 1] * 4) == [1] * 4
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        thread = threading.Thread(target=dispatcher)
        thread.start()
        try:
            for _ in range(20):
                backend.close()
                time.sleep(0.005)
        finally:
            stop.set()
            thread.join()
            backend.close()
        assert not errors

    def test_failed_pool_spawn_prunes_fork_registry(self, monkeypatch):
        """A fork failure (e.g. ENOMEM) must not leak the published
        task list for the life of the process."""
        from repro.exec import backend as backend_mod

        class BoomContext:
            def Pool(self, processes):
                raise OSError("fork failed")

        monkeypatch.setattr(
            backend_mod.mp, "get_context", lambda kind: BoomContext()
        )
        backend = ProcessBackend(workers=2)
        with pytest.raises(OSError, match="fork failed"):
            backend.run_tasks([lambda: 1, lambda: 2])
        assert not backend_mod._FORK_REGISTRY

    def test_task_failure_mid_fanout_prunes_fork_registry(self):
        """A task raising inside a forked worker aborts the map — the
        published task list must still be pruned on that exit path, and
        a concurrent dispatch's entry must survive untouched."""
        from repro.exec import backend as backend_mod

        backend = ProcessBackend(workers=2)

        def boom():
            raise RuntimeError("tile exploded mid-fan-out")

        before = dict(backend_mod._FORK_REGISTRY)
        with pytest.raises(RuntimeError, match="mid-fan-out"):
            backend.run_tasks([lambda: 1, boom, lambda: 3, lambda: 4])
        assert backend_mod._FORK_REGISTRY == before, (
            "failed fan-out leaked its fork-registry token"
        )

    def test_pool_events_are_per_thread(self):
        """Backends are shared across engines (optimizer, planner), so a
        dispatch must read its own event, not a concurrent dispatch's."""
        backend = ThreadBackend(workers=4)
        barrier = threading.Barrier(2)
        events = {}

        def dispatch(key, n):
            def task():
                barrier.wait(timeout=5)
                return n
            assert backend.run_tasks([task, task]) == [n, n]
            events[key] = backend.last_pool_event

        try:
            backend.run_tasks([lambda: 0, lambda: 0])  # pool: created
            threads = [
                threading.Thread(target=dispatch, args=(k, i))
                for i, k in enumerate(("a", "b"))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # Both overlapping dispatches ran on the live pool and each
            # thread sees "reused" — never a neighbor's event; the main
            # thread still sees its own "created" from the warm-up.
            assert events == {"a": "reused", "b": "reused"}
            assert backend.last_pool_event == "created"
        finally:
            backend.close()

    def test_fork_task_list_stays_published_for_pool_lifetime(self):
        """The task registry entry must outlive the fork window: the
        pool re-forks replacement workers mid-map (after a worker
        crash), and a replacement inherits whatever is published at
        *its* fork time — so the entry is held until the map finishes,
        then cleaned up."""
        from repro.exec import backend as backend_mod

        backend = ProcessBackend(workers=2)
        done = {}

        def fan_out():
            done["result"] = backend.run_tasks(
                [lambda: time.sleep(0.4) or 1] * 2
            )

        thread = threading.Thread(target=fan_out)
        thread.start()
        time.sleep(0.2)
        assert backend_mod._FORK_REGISTRY, (
            "task list unpublished while the pool is still mapping"
        )
        thread.join()
        assert not backend_mod._FORK_REGISTRY, "registry entry leaked"
        assert done["result"] == [1, 1]


class TestResolution:
    def test_names_resolve(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("thread"), ThreadBackend)
        assert isinstance(resolve_backend("process"), ProcessBackend)

    def test_instance_passthrough(self):
        backend = ThreadBackend(workers=3)
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ExecutionBackendError, match="unknown"):
            resolve_backend("gpu-warp")

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_environment_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "thread")
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        backend = resolve_backend(None)
        assert isinstance(backend, ThreadBackend)
        assert backend.workers == 3

    def test_environment_worker_count_validated(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "zero")
        with pytest.raises(ExecutionBackendError):
            default_workers()
        monkeypatch.setenv(WORKERS_ENV_VAR, "-2")
        with pytest.raises(ExecutionBackendError):
            default_workers()

    def test_engine_config_builds_backend(self):
        backend = EngineConfig(backend="thread", workers=2).make_backend()
        assert isinstance(backend, ThreadBackend)
        assert backend.workers == 2

    def test_engine_config_default_honors_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        assert isinstance(EngineConfig().make_backend(), ProcessBackend)

    def test_explicit_instance_in_config(self):
        backend = SerialBackend()
        assert EngineConfig(backend=backend).make_backend() is backend
