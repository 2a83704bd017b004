"""Unit tests for the execution-backend subsystem.

The contract every backend must honor: results come back in task order
(whatever order tasks complete in), exceptions propagate, worker counts
and parallelism caps are respected, and configuration resolves from
names, instances, and the environment.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro

from repro.core.accurate import AccurateRasterJoin
from repro.core.aggregates import Count
from repro.data.dataset import PointDataset
from repro.device.memory import GPUDevice
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
from repro.exec.backend import BACKEND_ENV_VAR, WORKERS_ENV_VAR, TilePartial
from repro.geometry.polygon import Polygon, PolygonSet
from repro.obs import metrics

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


#: One thread holds the metrics registry's lock while another forks a
#: closure dispatch whose task counts a metric; the children must not
#: inherit the held lock.  Exits 0 with the results, 3 when the dispatch
#: hangs (``os._exit``: no exit handler waits on the hung children).
_FORK_UNDER_HELD_LOCK = """
import multiprocessing, os, threading, time
from repro.exec import ProcessBackend
from repro.obs import metrics

held, results = threading.Event(), []

def hold():
    with metrics.REGISTRY._lock:
        held.set()
        deadline = time.monotonic() + 10
        while (len(multiprocessing.active_children()) < 2
               and time.monotonic() < deadline):
            time.sleep(0.01)

def task():
    metrics.counter("forked_task")
    return os.getpid() != parent

parent = os.getpid()
holder = threading.Thread(target=hold, daemon=True)
holder.start()
held.wait()
runner = threading.Thread(target=lambda: results.append(
    ProcessBackend(workers=2).run_tasks([task, task])
), daemon=True)
runner.start()
runner.join(20)
print(results, flush=True)
os._exit(0 if results == [[True, True]] else 3)
"""


#: A dispatch one of whose tasks ends its forked child (``{death}``,
#: inserted at ``{position}`` among three good tasks).  Exits 0 when the
#: dispatch raised the typed error within 5 s, with its registry entry
#: pruned and no child left, and the same backend then answered a fresh
#: dispatch; 3 otherwise.
_FORK_CHILD_DIES = """
import multiprocessing, os, signal, time
from repro.errors import ExecutionBackendError
from repro.exec import ProcessBackend
from repro.exec import backend as exec_backend

def ok():
    return 1

def die():
    {death}

tasks = [ok, ok, ok]
tasks.insert({position}, die)
backend = ProcessBackend(workers=2)
start = time.monotonic()
try:
    backend.run_tasks(tasks)
    raised = False
except ExecutionBackendError as exc:
    raised = "died mid-dispatch" in str(exc)
elapsed = time.monotonic() - start
left = multiprocessing.active_children()
registry = dict(exec_backend._FORK_REGISTRY)
again = backend.run_tasks([ok, ok])
print(raised, elapsed, left, registry, again, flush=True)
os._exit(0 if raised and elapsed < 5 and not left and not registry
         and again == [1, 1] and not multiprocessing.active_children()
         else 3)
"""


#: Two threads dispatch on one backend at once and one dispatch's child
#: dies: that dispatch raises the typed error, the other answers in
#: full, and neither leaves a registry entry or a child.  Exits 0 when
#: so, 3 otherwise (a hang is the caller's timeout).
_FORK_CHILD_DIES_BESIDE_ANOTHER = """
import multiprocessing, os, threading, time
from repro.errors import ExecutionBackendError
from repro.exec import ProcessBackend
from repro.exec import backend as exec_backend

def slow(i):
    return lambda: time.sleep(0.2) or i

def die():
    time.sleep(0.1)
    os._exit(3)

backend = ProcessBackend(workers=2)
outcomes = {}

def dispatch(key, tasks):
    try:
        outcomes[key] = backend.run_tasks(tasks)
    except ExecutionBackendError as exc:
        outcomes[key] = "died mid-dispatch" in str(exc)

threads = [
    threading.Thread(target=dispatch, args=("good", [slow(i) for i in range(4)])),
    threading.Thread(target=dispatch, args=("dying", [slow(0), die, slow(2)])),
]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
left = multiprocessing.active_children()
print(outcomes, left, exec_backend._FORK_REGISTRY, flush=True)
os._exit(0 if outcomes == {"good": [0, 1, 2, 3], "dying": True}
         and not left and not exec_backend._FORK_REGISTRY else 3)
"""


def _run_isolated(script: str, tmp_path, timeout: float) -> None:
    """Run ``script`` in its own process group, killed whole after, so a
    hang fails the calling test instead of hanging the suite (the output
    goes to a file: a hung child would hold a pipe open)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    log = tmp_path / "isolated.log"
    with open(log, "wb") as out:
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            stdout=out, stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            proc.wait(timeout=timeout)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    assert proc.returncode == 0, log.read_text()[-2000:]


class TestForkSafety:
    def test_fork_while_another_thread_holds_the_metrics_lock(self, tmp_path):
        """A forked tile task takes the registry's lock first (its
        metrics baseline); a fork taken while another thread holds it
        must not hand the children a lock nobody will release."""
        _run_isolated(_FORK_UNDER_HELD_LOCK, tmp_path, timeout=60)

    def test_a_dead_fork_child_raises(self, tmp_path):
        """A child that dies mid-dispatch (``os._exit``, a kill, the OOM
        killer) must fail the dispatch with a typed error, not leave it
        waiting forever for the dead child's result."""
        _run_isolated(
            _FORK_CHILD_DIES.format(death="os._exit(3)", position=1),
            tmp_path, timeout=30,
        )

    @pytest.mark.parametrize("death, position", [
        ("os._exit(3)", 0),
        ("os.kill(os.getpid(), signal.SIGKILL)", 1),
        ("os.kill(os.getpid(), signal.SIGTERM)", 3),
    ], ids=["exit-first", "sigkill-second", "sigterm-last"])
    def test_any_dead_fork_child_raises_and_the_backend_forks_afresh(
        self, tmp_path, death, position
    ):
        """However the child ends — its own exit, the OOM killer's
        SIGKILL, a stray SIGTERM — and wherever its task sits in the
        dispatch, the dispatch raises the typed error and the next one
        forks a fresh pool (the fork pool keeps no broken state)."""
        _run_isolated(
            _FORK_CHILD_DIES.format(death=death, position=position),
            tmp_path, timeout=30,
        )

    def test_a_dead_child_fails_only_its_own_dispatch(self, tmp_path):
        """Concurrent dispatches on one backend fork separate pools under
        separate registry tokens: a child dying in one leaves the other
        dispatch's answer whole."""
        _run_isolated(_FORK_CHILD_DIES_BESIDE_ANOTHER, tmp_path, timeout=60)


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
        in-flight tasks below the persistent pool's width."""
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
        import multiprocessing.context

        from repro.exec import backend as backend_mod

        def boom(process):
            raise OSError("fork failed")

        monkeypatch.setattr(
            multiprocessing.context.ForkProcess, "start", boom
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

    def test_task_failure_surfaces_and_backend_survives(self):
        """A task raising in a forked child surfaces its own error, and
        the backend's next dispatch forks a fresh pool and answers."""
        backend = ProcessBackend(workers=2)

        def boom():
            raise FileNotFoundError("tile input gone")

        with pytest.raises(FileNotFoundError, match="tile input gone"):
            backend.run_tasks([lambda: 1, boom, lambda: 3, lambda: 4])
        assert backend.run_tasks([lambda: 1, lambda: 2]) == [1, 2]
        assert backend.last_pool_event == "forked"

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
        """The task registry entry must outlive the fork window: a
        child inherits whatever is published at *its* fork time, so the
        entry is held until the dispatch finishes, then cleaned up."""
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


#: Written by tasks in forked children; the parent's copy must not see it.
_CHILD_WRITES: dict = {}


def _pool_events(event: str) -> float:
    return metrics.snapshot()["counters"].get(
        f'backend_pool_events{{backend="process",event="{event}"}}', 0
    )


class TestProcessDispatch:
    """The fork per dispatch, the process backend's one way to run."""

    def test_tasks_run_in_forked_children(self):
        parent = os.getpid()
        backend = ProcessBackend(workers=2)
        pids = backend.run_tasks([os.getpid] * 4)
        assert parent not in pids
        assert backend.last_pool_event == "forked"

    def test_order_survives_out_of_order_completion(self):
        """Early tasks sleeping longest must not reorder the results."""
        def make(i):
            return lambda: time.sleep(0.05 * (4 - i)) or i

        backend = ProcessBackend(workers=4)
        assert backend.run_tasks([make(i) for i in range(4)]) == [0, 1, 2, 3]

    @pytest.mark.parametrize("workers, tasks, parallelism", [
        (2, 1, None), (1, 2, None), (2, 2, 1),
    ], ids=["one-task", "one-worker", "parallelism-1"])
    def test_degenerate_dispatch_runs_inline(self, workers, tasks,
                                             parallelism):
        """One task, one worker or a cap of one forks nothing."""
        backend = ProcessBackend(workers=workers)
        before = _pool_events("forked")
        pids = backend.run_tasks([os.getpid] * tasks, parallelism=parallelism)
        assert pids == [os.getpid()] * tasks
        assert backend.last_pool_event == "inline"
        assert _pool_events("forked") == before

    def test_parallelism_cap_bounds_the_children(self):
        """A cap below ``workers`` forks that many children, no more."""
        def task():
            time.sleep(0.05)
            return os.getpid()

        pids = ProcessBackend(workers=4).run_tasks([task] * 8, parallelism=2)
        assert len(set(pids)) == 2
        assert os.getpid() not in pids

    def test_child_writes_stay_in_the_child(self):
        """Children see the parent's memory copy-on-write: what a task
        writes reaches the parent only through its pickled result (why
        a tile task ships what it built home on its partial).  A child
        may run both tasks, and then its second sees its first's write."""
        _CHILD_WRITES.clear()
        _CHILD_WRITES["seen"] = "parent"

        def task():
            seen = _CHILD_WRITES["seen"]
            _CHILD_WRITES["seen"] = "child"
            return os.getpid(), seen

        (first, seen_first), (second, seen_second) = ProcessBackend(
            workers=2
        ).run_tasks([task] * 2)
        assert os.getpid() not in (first, second)
        assert seen_first == "parent"
        assert seen_second == ("child" if second == first else "parent")
        assert _CHILD_WRITES == {"seen": "parent"}

    @pytest.mark.parametrize("fails", [False, True], ids=["answers", "raises"])
    def test_no_child_outlives_a_dispatch(self, fails):
        def boom():
            raise RuntimeError("tile exploded")

        tasks = [lambda: 1, boom if fails else (lambda: 2), lambda: 3]
        backend = ProcessBackend(workers=2)
        if fails:
            with pytest.raises(RuntimeError, match="tile exploded"):
                backend.run_tasks(tasks)
        else:
            assert backend.run_tasks(tasks) == [1, 2, 3]
        assert not multiprocessing.active_children()

    def test_an_unpicklable_result_raises_and_prunes_the_registry(self):
        """A result that cannot cross home surfaces as the child's
        pickling error, not as a hang or a silent ``None``."""
        from repro.exec import backend as backend_mod

        backend = ProcessBackend(workers=2)
        with pytest.raises(AttributeError, match="pickle"):
            backend.run_tasks([lambda: 1, lambda: (lambda: 2)])
        assert not backend_mod._FORK_REGISTRY
        assert not multiprocessing.active_children()

    def test_a_platform_without_fork_gets_a_typed_error(self, monkeypatch):
        from repro.exec import backend as backend_mod

        def no_fork(method):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(backend_mod.mp, "get_context", no_fork)
        with pytest.raises(ExecutionBackendError, match="ThreadBackend"):
            ProcessBackend(workers=2).run_tasks([lambda: 1, lambda: 2])
        assert not backend_mod._FORK_REGISTRY

    def test_a_tile_partial_carries_its_childs_metrics_home(self):
        """Counters a forked task increments travel on its partial (the
        engines' merge folds them in); the parent's registry is left to
        that merge, and results of another shape carry nothing."""
        def partial(i):
            def task():
                metrics.counter("forked_probe_tasks", tile=str(i))
                return TilePartial(tile_idx=i)
            return task

        key = 'forked_probe_tasks{tile="%d"}'
        results = ProcessBackend(workers=2).run_tasks(
            [partial(0), partial(1), lambda: {"plain": 1}]
        )
        for i in (0, 1):
            assert results[i].metrics["counters"][key % i] == 1
        assert results[2] == {"plain": 1}
        counters = metrics.snapshot()["counters"]
        assert key % 0 not in counters and key % 1 not in counters

    def test_inline_partials_count_directly(self):
        """In-process execution increments the registry itself and
        attaches no delta, so the merge counts nothing twice."""
        def task():
            metrics.counter("inline_probe_tasks")
            return TilePartial(tile_idx=0)

        before = metrics.snapshot()["counters"].get("inline_probe_tasks", 0)
        (result,) = SerialBackend().run_tasks([task])
        assert result.metrics is None
        assert metrics.snapshot()["counters"]["inline_probe_tasks"] == (
            before + 1
        )

    def test_every_fan_out_is_counted_as_a_fork(self):
        backend = ProcessBackend(workers=2)
        before = _pool_events("forked")
        for _ in range(2):
            assert backend.run_tasks([lambda: 1, lambda: 2]) == [1, 2]
        assert _pool_events("forked") == before + 2

    def test_one_backend_serves_concurrent_dispatches(self):
        """Engines share one backend: two threads fanning out on it at
        once each get their own answers and read their own event."""
        backend = ProcessBackend(workers=2)
        results, events = {}, {}

        def fan_out(key):
            results[key] = backend.run_tasks(
                [lambda i=i: (key, i) for i in range(4)]
            )
            events[key] = backend.last_pool_event

        threads = [threading.Thread(target=fan_out, args=(key,))
                   for key in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for key in ("a", "b"):
            assert results[key] == [(key, i) for i in range(4)]
        assert events == {"a": "forked", "b": "forked"}

    def test_close_holds_nothing_to_release(self):
        """A fork pool lives for one dispatch: ``close()`` (repeated, or
        as a context manager's exit) leaves the backend dispatching."""
        with ProcessBackend(workers=2) as backend:
            assert backend.run_tasks([lambda: 1, lambda: 2]) == [1, 2]
        backend.close()
        assert backend.run_tasks([lambda: 3, lambda: 4]) == [3, 4]
        assert backend.last_pool_event == "forked"


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


class TestWorkerMetricsDeltas:
    """Worker-side counters merge into the parent registry."""

    RESOLUTION = 512
    MAX_FBO = 256  # 2x2 = 4 tiles

    @pytest.fixture
    def points(self, rng):
        n = 8_000
        return PointDataset(
            rng.uniform(0, 100, n), rng.uniform(0, 100, n),
            {"val": rng.uniform(0, 10, n)},
        )

    @pytest.fixture
    def polygons(self):
        return PolygonSet([
            Polygon([(12 * i + 1, 1), (12 * i + 11, 1),
                     (12 * i + 11, 95), (12 * i + 1, 95)])
            for i in range(6)
        ])

    def _tile_task_count(self) -> float:
        return metrics.snapshot()["counters"].get(
            'engine_tile_tasks{engine="accurate-raster"}', 0
        )

    def _engine(self, config: EngineConfig) -> AccurateRasterJoin:
        return AccurateRasterJoin(
            resolution=self.RESOLUTION,
            device=GPUDevice(max_resolution=self.MAX_FBO), config=config,
        )

    def test_forked_workers_ship_deltas_home(self, points, polygons):
        engine = self._engine(EngineConfig(backend="process", workers=2))
        before = self._tile_task_count()
        res = engine.execute(points, polygons, Count())
        tiles = res.stats.extra["tiles"]
        assert tiles == 4
        assert self._tile_task_count() == before + tiles, (
            "per-tile counters incremented in forked children must reach "
            "the parent registry"
        )

    def test_serial_backend_counts_inline(self, points, polygons):
        engine = self._engine(EngineConfig(backend="serial"))
        before = self._tile_task_count()
        res = engine.execute(points, polygons, Count())
        # Inline execution increments directly — no delta is attached, so
        # nothing is double-counted by the merge.
        assert self._tile_task_count() == before + res.stats.extra["tiles"]
