"""End-to-end tracing/metrics behaviour through the engines.

The acceptance-critical invariants: per-tile spans are parented under
the query's ``tiles`` span in tile-index order on the serial, thread,
AND process backends; tracing never changes results; and the session /
store / device call sites actually report to the metrics registry.
"""

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    BoundedRasterJoin,
    GPUDevice,
    IndexJoin,
    PointDataset,
    Polygon,
    PolygonSet,
)
from repro.cache.session import QuerySession
from repro.exec.config import EngineConfig
from repro.obs import metrics, trace

BACKENDS = ("serial", "thread", "process")


def _run(backend, engine_cls=AccurateRasterJoin):
    rng = np.random.default_rng(3)
    points = PointDataset(rng.uniform(0, 100, 8000), rng.uniform(0, 100, 8000))
    polygons = PolygonSet(
        [
            Polygon(
                [(10 + dx, 10 + dy), (45 + dx, 12 + dy),
                 (40 + dx, 45 + dy), (12 + dx, 40 + dy)]
            )
            for dx, dy in ((0, 0), (45, 45))
        ]
    )
    engine = engine_cls(
        resolution=96, device=GPUDevice(max_resolution=48),
        config=EngineConfig(backend=backend, workers=2),
    )
    try:
        return engine.execute(points, polygons)
    finally:
        engine.close()


def _run_traced(monkeypatch, backend, engine_cls=AccurateRasterJoin):
    monkeypatch.setenv(trace.TRACE_ENV_VAR, "1")
    return _run(backend, engine_cls)


class TestTileSpanParenting:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tile_spans_parented_in_tile_order(self, monkeypatch, backend):
        result = _run_traced(monkeypatch, backend)
        root = result.trace
        assert root is not None and root.name == "query"
        (tiles_span,) = root.find("tiles")
        tile_spans = [c for c in tiles_span.children if c.name == "tile"]
        assert len(tile_spans) == 4  # 96x96 canvas over 48-px tiles
        assert [s.attrs["tile"] for s in tile_spans] == [0, 1, 2, 3]
        for tile_span in tile_spans:
            names = {c.name for c in tile_span.children}
            assert "point-pass" in names
            assert "polygon-pass" in names

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bounded_tiles_ship_spans_too(self, monkeypatch, backend):
        result = _run_traced(monkeypatch, backend, BoundedRasterJoin)
        (tiles_span,) = result.trace.find("tiles")
        tile_spans = [c for c in tiles_span.children if c.name == "tile"]
        assert [s.attrs["tile"] for s in tile_spans] == [0, 1, 2, 3]

    def test_concurrent_attr_reflects_worker_count(self, monkeypatch):
        result = _run_traced(monkeypatch, "thread")
        (tiles_span,) = result.trace.find("tiles")
        assert tiles_span.attrs["concurrent"] is True


class TestOnePipelineInstrumentsEveryCaller:
    """Solo, bounded and shared-group execution run the same tile task,
    so under the thread backend (worker threads have no ambient tracer)
    each of them ships ``tile`` spans home and counts one task per
    tile."""

    @staticmethod
    def _tile_tasks(engine_name: str) -> float:
        return metrics.snapshot()["counters"].get(
            f'engine_tile_tasks{{engine="{engine_name}"}}', 0
        )

    @staticmethod
    def _assert_tile_spans(root, tiles: int) -> None:
        (tiles_span,) = root.find("tiles")
        tile_spans = [c for c in tiles_span.children if c.name == "tile"]
        assert [s.attrs["tile"] for s in tile_spans] == list(range(tiles))
        for tile_span in tile_spans:
            names = [c.name for c in tile_span.children]
            assert "point-pass" in names
            assert "polygon-pass" in names

    def test_bounded_four_tile_query(self, monkeypatch):
        before = self._tile_tasks("bounded-raster")
        result = _run_traced(monkeypatch, "thread", BoundedRasterJoin)
        assert result.stats.extra["tiles"] == 4
        self._assert_tile_spans(result.trace, 4)
        assert self._tile_tasks("bounded-raster") == before + 4

    def test_two_member_shared_group(self, monkeypatch, uniform_points,
                                     three_regions):
        """A shared group is one ordinary execution: one ``query`` tree
        both members carry, one polygon pass per tile for the two of
        them."""
        from repro import Count, FilterSet, Sum
        from repro.serve import execute_shared

        monkeypatch.setenv(trace.TRACE_ENV_VAR, "1")
        engine = AccurateRasterJoin(
            resolution=96, device=GPUDevice(max_resolution=48),
            session=QuerySession(),
            config=EngineConfig(backend="thread", workers=2),
        )
        before = self._tile_tasks("accurate-raster")
        try:
            results = execute_shared(
                engine, uniform_points, three_regions,
                [Count(), Sum("fare")], FilterSet(),
            )
        finally:
            engine.close()
        root = results[0].trace
        assert root is results[1].trace
        assert root.name == "query"
        assert root.attrs["fused_queries"] == 2
        self._assert_tile_spans(root, 4)
        for tile_span in root.find("tile"):
            passes = [c for c in tile_span.children
                      if c.name == "polygon-pass"]
            assert len(passes) == 1
        assert self._tile_tasks("accurate-raster") == before + 4


class TestTracingIsInert:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_values_identical_with_and_without_tracing(
        self, monkeypatch, backend
    ):
        traced = _run_traced(monkeypatch, backend)
        monkeypatch.delenv(trace.TRACE_ENV_VAR, raising=False)
        plain = _run(backend)
        assert np.array_equal(traced.values, plain.values)
        assert plain.trace is None

    def test_query_root_carries_stats_attrs(self, monkeypatch):
        result = _run_traced(monkeypatch, "serial")
        attrs = result.trace.attrs
        assert attrs["engine"] == "accurate-raster"
        assert attrs["query_s"] == pytest.approx(result.stats.query_s)
        assert attrs["points_processed"] == result.stats.points_processed


class TestMetricsWiring:
    def test_session_lookups_and_device_peak_reported(self, uniform_points,
                                                      three_regions):
        metrics.REGISTRY.reset()
        session = QuerySession(store=False)  # the "miss" must be a build
        engine = AccurateRasterJoin(device=GPUDevice(), session=session)
        engine.execute(uniform_points, three_regions)
        engine.execute(uniform_points, three_regions)
        snap = metrics.snapshot()
        assert snap["counters"].get(
            'session_prepared_lookups{result="miss"}', 0) >= 1
        assert snap["counters"].get(
            'session_prepared_lookups{result="hit"}', 0) >= 1
        peaks = [v for k, v in snap["gauges"].items()
                 if k.startswith("device_peak_bytes")]
        assert peaks and peaks[0] > 0

    def test_index_join_runs_traced(self, monkeypatch, uniform_points,
                                    three_regions):
        monkeypatch.setenv(trace.TRACE_ENV_VAR, "1")
        engine = IndexJoin(mode="gpu")
        result = engine.execute(uniform_points, three_regions)
        assert result.trace.find("pip-join")
        assert result.trace.find("prepare")
