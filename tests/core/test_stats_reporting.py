"""Execution-environment stats are reported uniformly by every engine.

Before the parallel-backend PR only the raster engines set
``ExecutionStats.extra["tiles"]`` (and only on some paths); now every
engine reports tile count, backend name, and worker count on every
execution path, so dashboards and the optimizer can read one schema.
"""

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    BoundedRasterJoin,
    EngineConfig,
    GPUDevice,
    IndexJoin,
    MaterializingJoin,
    PointDataset,
    Polygon,
    PolygonSet,
    QuerySession,
)
from repro.obs import trace

REQUIRED_KEYS = ("tiles", "backend", "workers")


@pytest.fixture
def workload(rng):
    n = 2_000
    points = PointDataset(
        rng.uniform(0.0, 100.0, n), rng.uniform(0.0, 100.0, n)
    )
    polygons = PolygonSet(
        [
            Polygon([(10, 10), (45, 12), (40, 45), (12, 40)]),
            Polygon([(55, 55), (90, 58), (85, 92), (50, 85)]),
        ]
    )
    return points, polygons


ENGINE_FACTORIES = {
    "accurate-raster": lambda config: AccurateRasterJoin(
        resolution=128, config=config
    ),
    "bounded-raster": lambda config: BoundedRasterJoin(
        resolution=128, config=config
    ),
    "index-join-gpu": lambda config: IndexJoin(
        mode="gpu", grid_resolution=64, config=config
    ),
    "index-join-cpu": lambda config: IndexJoin(
        mode="cpu", grid_resolution=64, config=config
    ),
    "materializing-join": lambda config: MaterializingJoin(
        truncate_bits=None, config=config
    ),
}


class TestExecutionEnvReporting:
    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_every_engine_reports_default_env(self, name, workload,
                                              monkeypatch):
        # Neutralize the CI matrix override: this test pins the
        # *built-in* default, which is serial.
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_EXEC_WORKERS", raising=False)
        points, polygons = workload
        stats = ENGINE_FACTORIES[name](None).execute(points, polygons).stats
        for key in REQUIRED_KEYS:
            assert key in stats.extra, (name, key)
        assert stats.extra["backend"] == "serial"
        assert stats.extra["workers"] == 1
        assert stats.extra["tiles"] >= 1

    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_every_engine_reports_configured_backend(self, name, workload):
        points, polygons = workload
        config = EngineConfig(backend="thread", workers=2)
        stats = ENGINE_FACTORIES[name](config).execute(points, polygons).stats
        assert stats.extra["backend"] == "thread"
        assert stats.extra["workers"] == 2

    def test_multicore_index_join_reports_its_fork_pool(self, workload):
        """Multicore mode's own process pool is its execution vehicle,
        so the report must say so instead of echoing the tile backend."""
        points, polygons = workload
        engine = IndexJoin(mode="multicore", grid_resolution=64, workers=2)
        stats = engine.execute(points, polygons).stats
        assert stats.extra["backend"] == "process"
        assert stats.extra["workers"] == 2
        assert stats.extra["tiles"] == 1

    def test_raster_tile_count_matches_canvas(self, workload):
        points, polygons = workload
        device = GPUDevice(max_resolution=48)
        result = AccurateRasterJoin(resolution=128, device=device).execute(
            points, polygons
        )
        # 128-pixel longer side over 48-pixel FBOs: 3 tile columns, and
        # the reported count is exactly the prepared layout's.
        assert result.stats.extra["tiles"] >= 3

    def test_streamed_path_reports_env_too(self, workload):
        points, polygons = workload

        def chunks():
            yield points

        result = BoundedRasterJoin(resolution=128).execute_stream(
            chunks, polygons
        )
        for key in REQUIRED_KEYS:
            assert key in result.stats.extra

    def test_values_unchanged_by_reporting(self, workload):
        """Reporting is observability only — results stay identical."""
        points, polygons = workload
        serial = ENGINE_FACTORIES["accurate-raster"](None).execute(
            points, polygons
        )
        threaded = ENGINE_FACTORIES["accurate-raster"](
            EngineConfig(backend="thread", workers=2)
        ).execute(points, polygons)
        assert np.array_equal(serial.values, threaded.values)


class TestPoolReporting:
    """The persistent-pool acceptance bar: a second query on the same
    engine reuses the pool, and the stats trace proves it — no pool
    construction appears in the second execution's report."""

    def _multi_tile_engine(self, backend="thread"):
        return AccurateRasterJoin(
            resolution=128,
            device=GPUDevice(max_resolution=48),
            config=EngineConfig(backend=backend, workers=2),
        )

    def test_second_query_reuses_persistent_pool(self, workload):
        points, polygons = workload
        engine = self._multi_tile_engine()
        try:
            first = engine.execute(points, polygons)
            assert first.stats.extra["tiles"] > 1
            assert first.stats.extra["pool"] == "created"
            second = engine.execute(points, polygons)
            assert second.stats.extra["pool"] == "reused"
            assert np.array_equal(first.values, second.values)
        finally:
            engine.close()

    def test_close_is_reported_and_recoverable(self, workload):
        points, polygons = workload
        engine = self._multi_tile_engine()
        engine.execute(points, polygons)
        engine.close()
        reopened = engine.execute(points, polygons)
        assert reopened.stats.extra["pool"] == "created"
        engine.close()

    def test_serial_engine_reports_inline(self, workload):
        points, polygons = workload
        engine = self._multi_tile_engine(backend="serial")
        result = engine.execute(points, polygons)
        assert result.stats.extra["pool"] == "inline"

    def test_engine_context_manager_closes_pool(self, workload):
        points, polygons = workload
        with self._multi_tile_engine() as engine:
            engine.execute(points, polygons)
            assert engine.backend._pool is not None
        assert engine.backend._pool is None


class TestBoundaryJoinRecord:
    """Which tier answered the boundary join is on every exact
    statement's stats and spans: ``extra["pairs"]`` names it (absent
    when no record is kept), ``pip_tests`` counts the tests actually
    run and each ``boundary-pip`` span carries ``recorded=``."""

    @staticmethod
    def _traced(engine, points, polygons):
        tracer = trace.Tracer("query")
        with trace.use(tracer):
            result = engine.execute(points, polygons)
        spans = tracer.close().find("boundary-pip")
        assert spans
        return result, {span.attrs["recorded"] for span in spans}

    def test_a_pairing_joins_once_then_replays(self, workload):
        points, polygons = workload
        engine = AccurateRasterJoin(
            resolution=128, session=QuerySession(store=False)
        )
        first, recorded = self._traced(engine, points, polygons)
        assert first.stats.extra["pairs"] == "built"
        assert first.stats.pip_tests > 0 and recorded == {False}
        again, recorded = self._traced(engine, points, polygons)
        assert again.stats.extra["pairs"] == "recorded"
        assert again.stats.pip_tests == 0 and recorded == {True}
        assert again.stats.boundary_points == first.stats.boundary_points
        assert np.array_equal(again.values, first.values)

    def test_paths_that_keep_no_record_say_nothing(self, workload):
        points, polygons = workload
        session = QuerySession(store=False)
        sessionless = AccurateRasterJoin(resolution=128)
        for result in (
            sessionless.execute(points, polygons),
            AccurateRasterJoin(resolution=128, session=session)
            .execute_stream(lambda: iter([points]), polygons),
            BoundedRasterJoin(resolution=128, session=session)
            .execute(points, polygons),
        ):
            assert "pairs" not in result.stats.extra
        assert sessionless.execute(points, polygons).stats.pip_tests > 0
