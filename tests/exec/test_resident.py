"""Resident-worker dispatch tests: bit-identity, caching, failure paths.

Covers the spawn-pool half of the shm data plane: engine results under
resident dispatch are bit-identical to serial, the parent/worker state
caches key by content generation, task failures leave the pool usable,
a dead worker breaks-and-respawns, and worker-side metrics increments
make it back into the parent registry under every process mode.
"""

import glob
import os

import numpy as np
import pytest

from repro.cache.session import QuerySession
from repro.core.accurate import AccurateRasterJoin
from repro.core.aggregates import Count, Sum
from repro.data.dataset import PointDataset
from repro.device.memory import GPUDevice
from repro.errors import ExecutionBackendError
from repro.exec import shm
from repro.exec.backend import ProcessBackend
from repro.exec.config import EngineConfig
from repro.exec.partition import route_chunk
from repro.exec.resident import ResidentWorkerPool, TileTaskSpec
from repro.geometry.bbox import BBox
from repro.geometry.polygon import Polygon, PolygonSet
from repro.graphics.viewport import Canvas, Viewport
from repro.obs import metrics

RESOLUTION = 512
MAX_FBO = 256  # 2x2 = 4 tiles


@pytest.fixture
def points(rng):
    n = 8_000
    return PointDataset(
        rng.uniform(0, 100, n), rng.uniform(0, 100, n),
        {"val": rng.uniform(0, 10, n)},
    )


@pytest.fixture
def polygons():
    return PolygonSet([
        Polygon([(12 * i + 1, 1), (12 * i + 11, 1),
                 (12 * i + 11, 95), (12 * i + 1, 95)])
        for i in range(6)
    ])


def serial_reference(points, polygons, aggregate):
    engine = AccurateRasterJoin(
        resolution=RESOLUTION, device=GPUDevice(max_resolution=MAX_FBO),
        config=EngineConfig(backend="serial"),
    )
    return engine.execute(points, polygons, aggregate)


@pytest.fixture
def resident_engine():
    session = QuerySession()
    engine = AccurateRasterJoin(
        resolution=RESOLUTION, device=GPUDevice(max_resolution=MAX_FBO),
        session=session,
        config=EngineConfig(backend="process", workers=2, shm=True),
    )
    yield engine
    engine.backend.close()
    session.invalidate()


class TestResidentBitIdentity:
    def test_cold_and_warm_match_serial(
        self, points, polygons, resident_engine
    ):
        ref = serial_reference(points, polygons, Sum("val"))
        assert ref.stats.extra["tiles"] == 4
        cold = resident_engine.execute(points, polygons, Sum("val"))
        warm = resident_engine.execute(points, polygons, Sum("val"))
        for res in (cold, warm):
            np.testing.assert_array_equal(res.values, ref.values)
            for name, channel in ref.channels.items():
                np.testing.assert_array_equal(res.channels[name], channel)
        assert cold.stats.extra["pool"] == "resident-created"
        assert warm.stats.extra["pool"] == "resident-reused"

    def test_aggregate_switch_reuses_pool_and_state(
        self, points, polygons, resident_engine
    ):
        # Two warm-up queries: the first builds prepared artifacts in
        # the workers (installing them parent-side bumps the content
        # generation), the second dispatches against the now-stable
        # generation and exports its blob.
        resident_engine.execute(points, polygons, Sum("val"))
        resident_engine.execute(points, polygons, Sum("val"))
        before = metrics.snapshot()["counters"].get(
            'resident_state_blobs{event="reused"}', 0
        )
        res = resident_engine.execute(points, polygons, Count())
        ref = serial_reference(points, polygons, Count())
        np.testing.assert_array_equal(res.values, ref.values)
        after = metrics.snapshot()["counters"].get(
            'resident_state_blobs{event="reused"}', 0
        )
        # Same prepared artifacts + polygons -> same state blob: the
        # aggregate travels on the spec, not in the state.
        assert after > before

    def test_no_segments_leak_after_teardown(self, points, polygons):
        import gc

        session = QuerySession()
        engine = AccurateRasterJoin(
            resolution=RESOLUTION, device=GPUDevice(max_resolution=MAX_FBO),
            session=session,
            config=EngineConfig(backend="process", workers=2, shm=True),
        )
        engine.execute(points, polygons, Count())
        assert shm.REGISTRY.live_segments() > 0
        engine.backend.close()
        session.invalidate()
        del engine, session
        gc.collect()
        assert shm.REGISTRY.live_segments() == 0

    def test_dropped_backend_gives_its_leases_back(self):
        """A backend that goes out of scope without ``close()`` must not
        strand its state blobs and result buffer until interpreter exit:
        collecting it releases the leases (the pool is not joined)."""
        import gc

        before = shm.REGISTRY.live_segments()
        backend = ProcessBackend(workers=2, resident=True)
        backend.resident_state("token", None, lambda: b"state")
        backend.resident_result((4, 1, 6))
        backend.resident_result((4, 2, 6))  # reallocated: old one freed
        assert shm.REGISTRY.live_segments() == before + 2
        del backend
        gc.collect()
        assert shm.REGISTRY.live_segments() == before


def _bad_spec(index: int, state_ref, result_ref) -> TileTaskSpec:
    """A spec whose state segment does not exist: the worker's load
    fails with a picklable FileNotFoundError."""
    return TileTaskSpec(
        index=index, state_key=("missing", index),
        state_ref=state_ref, tile_idx=0, aggregate=None, filters=None,
        columns=(), chunks=(), retain=False, tracing=False,
        result_ref=result_ref, slot=0, channel_names=(),
    )


class TestPoolFailurePaths:
    def test_task_failure_surfaces_and_pool_survives(self):
        pool = ResidentWorkerPool(workers=2)
        missing = shm.ShmArray("repro-shm-0-0-deadbeef", "|u1", (1,), 0)
        try:
            with pytest.raises(FileNotFoundError):
                pool.dispatch([_bad_spec(i, missing, missing)
                               for i in range(4)])
            assert not pool.broken, "a task failure must not break the pool"
            assert pool.dispatch([]) == []
        finally:
            pool.close()

    def test_dead_worker_marks_pool_broken(self):
        pool = ResidentWorkerPool(workers=2)
        missing = shm.ShmArray("repro-shm-0-0-deadbeef", "|u1", (1,), 0)
        try:
            for proc in pool._procs:
                proc.terminate()
                proc.join(timeout=5)
            with pytest.raises(ExecutionBackendError, match="died") as err:
                pool.dispatch([_bad_spec(0, missing, missing)])
            # How each worker died travels with the error: SIGTERM here.
            for proc in pool._procs:
                assert f"'{proc.name}': -15" in str(err.value)
            assert pool.broken
            with pytest.raises(ExecutionBackendError, match="broken"):
                pool.dispatch([_bad_spec(0, missing, missing)])
        finally:
            pool.close()

    def test_backend_respawns_after_broken_pool(
        self, points, polygons, resident_engine
    ):
        ref = serial_reference(points, polygons, Count())
        resident_engine.execute(points, polygons, Count())
        backend = resident_engine.backend
        for proc in backend._resident_pool._procs:
            proc.terminate()
            proc.join(timeout=5)
        with pytest.raises(ExecutionBackendError):
            resident_engine.execute(points, polygons, Count())
        # The broken pool was torn down; the next query respawns fresh.
        res = resident_engine.execute(points, polygons, Count())
        np.testing.assert_array_equal(res.values, ref.values)
        assert res.stats.extra["pool"] == "resident-created"


class TestWorkerMetricsDeltas:
    """Satellite: worker-side counters merge into the parent registry."""

    def _tile_task_count(self) -> float:
        return metrics.snapshot()["counters"].get(
            'engine_tile_tasks{engine="accurate-raster"}', 0
        )

    def test_forked_workers_ship_deltas_home(self, points, polygons):
        engine = AccurateRasterJoin(
            resolution=RESOLUTION, device=GPUDevice(max_resolution=MAX_FBO),
            config=EngineConfig(backend="process", workers=2, shm=False),
        )
        before = self._tile_task_count()
        res = engine.execute(points, polygons, Count())
        tiles = res.stats.extra["tiles"]
        assert tiles == 4
        assert self._tile_task_count() == before + tiles, (
            "per-tile counters incremented in forked children must reach "
            "the parent registry"
        )

    def test_resident_workers_ship_deltas_home(
        self, points, polygons, resident_engine
    ):
        resident_engine.execute(points, polygons, Count())  # warm the pool
        before = self._tile_task_count()
        res = resident_engine.execute(points, polygons, Count())
        assert res.stats.extra["pool"] == "resident-reused"
        assert self._tile_task_count() == before + res.stats.extra["tiles"]

    def test_serial_backend_counts_inline(self, points, polygons):
        engine = AccurateRasterJoin(
            resolution=RESOLUTION, device=GPUDevice(max_resolution=MAX_FBO),
            config=EngineConfig(backend="serial"),
        )
        before = self._tile_task_count()
        res = engine.execute(points, polygons, Count())
        # Inline execution increments directly — no delta is attached, so
        # nothing is double-counted by the merge.
        assert self._tile_task_count() == before + res.stats.extra["tiles"]


@pytest.fixture
def square_zones():
    """A square extent: 1024 pixels under a 256 limit is 4x4 = 16 tiles."""
    return PolygonSet([
        Polygon([(25 * i + 1, 25 * j + 1), (25 * i + 24, 25 * j + 1),
                 (25 * i + 24, 25 * j + 24), (25 * i + 1, 25 * j + 24)])
        for i in range(4) for j in range(4)
    ])


def _own_segments() -> set[str]:
    """This process's ``/dev/shm`` entries.  Tests compare against a
    baseline taken at their start: under the suite-wide ``$REPRO_SHM=1``
    leg, earlier tests' not-yet-collected sessions may still hold some."""
    return set(glob.glob(f"/dev/shm/{shm.SHM_PREFIX}-{os.getpid()}-*"))


class TestOneShmSwitch:
    """``EngineConfig(shm=True)`` (or ``$REPRO_SHM=1``) on the process
    backend is the whole switch: the tile loop exports partition
    sub-chunks because its backend is resident-enabled, and nothing else
    reads the flag."""

    CONFIG = EngineConfig(backend="process", workers=2, shm=True)
    SQL = (
        "SELECT SUM(val) FROM pts, zones "
        "WHERE pts.location INSIDE zones.geometry GROUP BY zones.id"
    )

    def test_config_alone_engages_the_resident_pool(
        self, points, square_zones, monkeypatch
    ):
        polygons = square_zones
        monkeypatch.delenv(shm.SHM_ENV_VAR, raising=False)
        before = _own_segments()
        device = GPUDevice(max_resolution=MAX_FBO)
        ref = AccurateRasterJoin(
            resolution=1024, device=device,
            config=EngineConfig(backend="serial"),
        ).execute(points, polygons, Sum("val"))
        assert ref.stats.extra["tiles"] == 16
        session = QuerySession()
        engine = AccurateRasterJoin(
            resolution=1024, device=device, session=session,
            config=self.CONFIG,
        )
        try:
            cold = engine.execute(points, polygons, Sum("val"))
            warm = engine.execute(points, polygons, Sum("val"))
            # The stored routing's columns live in shared memory, one
            # entry for the canvas.
            (state,) = session._point_cache.values()
            assert all(
                isinstance(batch.shared, shm.ShmChunk)
                for batches in state.value.per_tile(
                    points, ("x", "y", "val"), device, [0] * 16
                ) for batch in batches
            )
            del state  # the session's entry alone holds the leases
        finally:
            engine.close()
            session.invalidate()
        assert cold.stats.extra["pool"] == "resident-created"
        assert warm.stats.extra["pool"] == "resident-reused"
        for res in (cold, warm):
            np.testing.assert_array_equal(res.values, ref.values)
        assert _own_segments() <= before

    def test_config_alone_engages_it_through_the_planner(
        self, points, square_zones, monkeypatch
    ):
        from repro.sql.planner import QueryPlanner

        monkeypatch.delenv(shm.SHM_ENV_VAR, raising=False)
        before = _own_segments()
        answers = {}
        for name, config in (
            ("serial", EngineConfig(backend="serial")),
            ("resident", self.CONFIG),
        ):
            planner = QueryPlanner(
                device=GPUDevice(max_resolution=MAX_FBO), config=config
            )
            try:
                planner.register_points("pts", points)
                planner.register_regions("zones", square_zones)
                answers[name] = [planner.execute(self.SQL) for _ in range(2)]
            finally:
                planner.close()
                planner.session.invalidate()
        cold, warm = answers["resident"]
        assert cold.stats.extra["tiles"] == 16
        assert cold.stats.extra["pool"] == "resident-created"
        assert warm.stats.extra["pool"] == "resident-reused"
        for res in (cold, warm):
            np.testing.assert_array_equal(
                res.values, answers["serial"][0].values
            )
        assert _own_segments() <= before

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_in_process_backends_create_no_segments(
        self, points, polygons, monkeypatch, backend
    ):
        """The flag acts through the process backend only: in-process
        backends have no pickle boundary, so nothing is exported."""
        monkeypatch.setenv(shm.SHM_ENV_VAR, "1")
        before = _own_segments()
        session = QuerySession()
        engine = AccurateRasterJoin(
            resolution=RESOLUTION, device=GPUDevice(max_resolution=MAX_FBO),
            session=session, config=EngineConfig(backend=backend, workers=2),
        )
        try:
            res = engine.execute(points, polygons, Count())
            assert res.stats.extra["partition"] == "on"
            assert _own_segments() <= before
        finally:
            engine.close()


class TestResidentSubsetZeroCopy:
    """Satellite: tile gathers of resident sets stay zero-copy views
    (of the routing's per-column gathers, since `ResidentSubset` went)."""

    @pytest.fixture
    def resident(self):
        device = GPUDevice()
        resident = device.make_resident(
            {"x": np.arange(100.0), "y": np.arange(100.0)}
        )
        yield resident
        resident.free()

    def test_columns_are_returned_by_reference(self, resident):
        """One tile takes the rows in source order: the batch hands back
        the device array itself, not a copy."""
        tile = Viewport(BBox(0.0, 0.0, 100.0, 100.0), 64, 64)
        routing = route_chunk(resident, None, [tile], 0)
        ((batch,),) = routing.per_tile(resident, ("x", "y"), None, [0])
        assert batch.resident and len(batch) == 100
        assert np.shares_memory(batch.column("x"), resident.column("x"))

    def test_take_from_resident_set_shares_no_host_copy(self, resident):
        """Several tiles gather each column once; a second statement (or
        a second ``column()`` call) must not re-gather."""
        canvas = Canvas(BBox(0.0, 0.0, 100.0, 100.0), 64, 64)
        tiles = list(canvas.tiles(32))
        routing = route_chunk(resident, canvas, tiles, 32)

        def batches(columns):
            per_tile = routing.per_tile(resident, columns, None, [0] * 4)
            return [b for tile in per_tile for b in tile]

        first = batches(("x", "y"))
        assert all(b.resident for b in first)
        assert sum(len(b) for b in first) == 100
        again = batches(("x",))
        assert np.shares_memory(again[0].column("x"), first[0].column("x"))
