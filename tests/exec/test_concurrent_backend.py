"""Backend + device behavior when several queries run at once.

The serving layer pins one backend instance into every engine, so its
worker pool is shared across concurrent queries: the pool size must
bound *total* tile concurrency, per-dispatch ``parallelism`` caps must
hold inside the shared pool, and the device's memory accounting must see
the overlap (the ``device="all"`` aggregate gauge added for serving).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    EngineConfig,
    GPUDevice,
    QuerySession,
    ThreadBackend,
)
from repro.device import memory as device_memory
from repro.obs import metrics


class _ConcurrencyProbe:
    """Tracks the high-water mark of simultaneously running tasks."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.running = 0
        self.peak = 0

    def task(self):
        with self.lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
        time.sleep(0.01)
        with self.lock:
            self.running -= 1
        return 1


class TestSharedPoolConcurrency:
    def test_pool_bounds_cross_query_tile_fanout(self):
        """Two queries fanning out through one backend share its cap."""
        backend = ThreadBackend(workers=2)
        probe = _ConcurrencyProbe()
        errors: list[BaseException] = []

        def dispatch() -> None:
            try:
                results = backend.run_tasks([probe.task] * 6)
                assert results == [1] * 6
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=dispatch) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        backend.close()
        assert not errors, errors
        # The persistent pool holds `workers` threads total, so even two
        # concurrent dispatches cannot exceed it.
        assert probe.peak <= 2

    def test_parallelism_cap_holds_in_shared_pool(self):
        backend = ThreadBackend(workers=4)
        probe = _ConcurrencyProbe()
        results = backend.run_tasks([probe.task] * 8, parallelism=2)
        backend.close()
        assert results == [1] * 8
        assert probe.peak <= 2


class TestDeviceAccounting:
    def test_aggregate_peak_sees_cross_device_overlap(self):
        """Two queries' live allocations sum in the ``all`` gauge.

        The per-device ``device_peak_bytes`` gauge assumes one query at
        a time; with two devices (or two queries) holding memory
        simultaneously, only the module aggregate reflects the true
        footprint.
        """
        metrics.REGISTRY.reset()
        # Size each allocation past the current aggregate peak so the
        # overlap is guaranteed to set a new high-water mark (and emit
        # the gauge) no matter what earlier tests allocated.
        nbytes = max(1 << 20, device_memory.aggregate_peak_bytes())
        device_a = GPUDevice(capacity_bytes=4 * nbytes, name="gpu-a")
        device_b = GPUDevice(capacity_bytes=4 * nbytes, name="gpu-b")
        barrier = threading.Barrier(2)
        overlap: list[int] = []
        errors: list[BaseException] = []

        def hold(device: GPUDevice) -> None:
            try:
                device._reserve(nbytes)
                barrier.wait(10.0)  # both allocations live right now
                overlap.append(device_memory.aggregate_allocated_bytes())
                barrier.wait(10.0)
                device._release(nbytes)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hold, args=(d,))
            for d in (device_a, device_b)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors, errors
        assert max(overlap) >= 2 * nbytes
        assert device_memory.aggregate_peak_bytes() >= 2 * nbytes
        # Each device-local peak saw only its own share.
        assert device_a.peak_allocated_bytes == nbytes
        assert device_b.peak_allocated_bytes == nbytes
        gauges = metrics.snapshot()["gauges"]
        assert gauges['device_peak_bytes{device="all"}'] >= 2 * nbytes

    def test_release_never_double_counts(self):
        device = GPUDevice(name="gpu-c")
        before = device_memory.aggregate_allocated_bytes()
        device._reserve(1024)
        device._release(1024)
        device._release(1024)  # over-release clamps, aggregate included
        assert device.allocated_bytes == 0
        assert device_memory.aggregate_allocated_bytes() == before


class TestConcurrentExecution:
    def test_concurrent_queries_through_shared_backend_bit_identical(
        self, uniform_points, three_regions
    ):
        """Thread-backend engines racing through one pool agree with serial."""
        session = QuerySession()
        reference = AccurateRasterJoin(
            resolution=128, session=session
        ).execute(uniform_points, three_regions)
        config = EngineConfig(backend="thread", workers=4).with_pinned_backend()
        results: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(4)

        def run(worker: int) -> None:
            try:
                barrier.wait(10.0)
                engine = AccurateRasterJoin(
                    resolution=128, session=session, config=config
                )
                results[worker] = engine.execute(
                    uniform_points, three_regions
                ).values
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        config.backend.close()
        assert not errors, errors
        for values in results.values():
            assert np.array_equal(values, reference.values)
