"""Device memory under parallel tile execution.

Batch sizes never depend on the backend; instead the engines cap how
many tile tasks may hold device batches concurrently so the sum of
per-worker budgets (one full batch + FBO headroom each) stays inside the
global device budget.  These tests pin that arithmetic and
the thread-safety of the allocation accounting it relies on.
"""

import pickle
import threading

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    BoundedRasterJoin,
    EngineConfig,
    FilterSet,
    GPUDevice,
    PointDataset,
    Polygon,
    PolygonSet,
    Sum,
)
from repro.device.batching import rows_per_batch, tile_parallelism
from repro.errors import OutOfDeviceMemoryError
from tests.conftest import cutting_capacity, routed_tile_rows

#: Two float64 columns: 16 bytes a row.
COLUMNS = ("x", "y")


def _points(num_points: int) -> PointDataset:
    return PointDataset(np.zeros(num_points), np.zeros(num_points))


class TestTileParallelism:
    def test_no_device_is_unbounded(self):
        assert tile_parallelism(None, 10**9, None, COLUMNS, 7) == 7

    def test_unknown_plan_with_device_serializes(self):
        """Streamed sources (chunk sizes unknown up front) must not
        gamble with device memory: one tile at a time."""
        device = GPUDevice(capacity_bytes=1 << 20)
        assert tile_parallelism(device, 1024, None, COLUMNS, 8) == 1

    def test_per_worker_budgets_fit_global_budget(self):
        """workers x (batch + FBO) never exceeds the device capacity."""
        device = GPUDevice(capacity_bytes=1_000_000)
        fbo_bytes = 100_000
        row_bytes = 16
        for rows, workers in [
            (10_000, 8),
            (100_000, 8),
            (1_000_000, 4),
            (50, 3),
        ]:
            points = _points(rows)
            allowed = tile_parallelism(device, fbo_bytes, points, COLUMNS,
                                       workers)
            per_batch = rows_per_batch(points, COLUMNS, device, fbo_bytes)
            batch_bytes = min(rows, per_batch) * row_bytes
            assert allowed >= 1
            assert allowed <= workers
            assert allowed * (fbo_bytes + batch_bytes) <= max(
                device.capacity_bytes, fbo_bytes + batch_bytes
            )

    def test_small_workload_allows_full_parallelism(self):
        device = GPUDevice(capacity_bytes=10_000_000)
        assert tile_parallelism(device, 10_000, _points(1_000), COLUMNS,
                                4) == 4

    def test_tight_memory_degrades_to_serial(self):
        device = GPUDevice(capacity_bytes=100_000)
        # One batch ~= the whole budget.
        assert tile_parallelism(device, 15_000, _points(100_000), COLUMNS,
                                8) == 1


class TestThreadSafeAccounting:
    def test_concurrent_uploads_balance_to_zero(self):
        """Racing reserve/release from many threads must neither corrupt
        the allocation counter nor overshoot capacity."""
        device = GPUDevice(capacity_bytes=64 * 1024 * 1024)
        array = np.zeros(1024, dtype=np.float64)  # 8 KiB per upload
        errors = []

        def worker():
            try:
                for _ in range(50):
                    buf, _ = device.upload("col", array)
                    buf.free()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert device.allocated_bytes == 0
        assert device.total_bytes_transferred == 8 * 50 * array.nbytes

    def test_capacity_still_enforced(self):
        device = GPUDevice(capacity_bytes=1024)
        with pytest.raises(OutOfDeviceMemoryError):
            device.upload("col", np.zeros(1024, dtype=np.float64))

    def test_device_pickles_without_lock(self):
        """ProcessBackend forks carry device clones; the lock must be
        recreated on unpickle, not pickled."""
        device = GPUDevice(capacity_bytes=4096, max_resolution=64)
        clone = pickle.loads(pickle.dumps(device))
        assert clone.capacity_bytes == 4096
        assert clone.max_resolution == 64
        buf, _ = clone.upload("col", np.zeros(8, dtype=np.float64))
        buf.free()
        assert clone.allocated_bytes == 0


class TestEngineUnderMemoryPressure:
    """Multi-tile parallel runs on a capacity-limited device complete
    without tripping the allocator and stay bit-identical to serial."""

    @pytest.fixture
    def workload(self, rng):
        n = 20_000
        points = PointDataset(
            rng.uniform(0.0, 100.0, n),
            rng.uniform(0.0, 100.0, n),
            {"val": rng.normal(0.0, 5.0, n)},
        )
        polygons = PolygonSet(
            [
                Polygon([(10, 10), (45, 12), (40, 45), (12, 40)]),
                Polygon([(55, 55), (90, 58), (85, 92), (50, 85)]),
            ]
        )
        return points, polygons

    @pytest.mark.parametrize("engine_cls", [AccurateRasterJoin,
                                            BoundedRasterJoin])
    def test_out_of_core_parallel_matches_serial(self, engine_cls, workload):
        points, polygons = workload
        # A third of the fewest rows a tile is routed beside the
        # framebuffer: several batches per tile, concurrency throttled
        # by the budget.
        probe = engine_cls(resolution=96,
                           device=GPUDevice(max_resolution=48))
        rows = int(routed_tile_rows(probe, points, polygons).min())
        capacity = cutting_capacity(probe, points, polygons, Sum("val"),
                                    FilterSet(), -(-rows // 3))

        def device():
            return GPUDevice(capacity_bytes=capacity, max_resolution=48)

        serial = engine_cls(resolution=96, device=device()).execute(
            points, polygons, aggregate=Sum("val")
        )
        assert serial.stats.batches > serial.stats.extra["tiles"]
        parallel = engine_cls(
            resolution=96, device=device(),
            config=EngineConfig(backend="thread", workers=4),
        ).execute(points, polygons, aggregate=Sum("val"))
        assert np.array_equal(serial.values, parallel.values)
        for name in serial.channels:
            assert np.array_equal(serial.channels[name],
                                  parallel.channels[name])
