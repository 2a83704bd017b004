"""Shared-scan fusion: every member bit-identical to its solo run."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    Average,
    Count,
    Filter,
    FilterSet,
    GPUDevice,
    Max,
    Min,
    Polygon,
    PolygonSet,
    QuerySession,
    Sum,
)
from repro.serve import FusedQuery, execute_fused, fits_single_batch
from tests.conftest import random_star_polygon

ANCHOR = [(0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)]


@pytest.fixture
def region_sets(rng):
    """Two heterogeneous polygon sets sharing one bounding box.

    Both contain the anchor rectangle spanning the full extent, so the
    accurate engine derives the same canvas for either — the fusable
    configuration.
    """
    set_a = PolygonSet([
        Polygon(ANCHOR),
        random_star_polygon(rng, center=(35.0, 40.0),
                            radius_range=(5.0, 20.0)),
        random_star_polygon(rng, center=(65.0, 60.0),
                            radius_range=(5.0, 20.0)),
    ])
    set_b = PolygonSet([
        Polygon(ANCHOR),
        random_star_polygon(rng, center=(50.0, 30.0), vertices=14,
                            radius_range=(5.0, 20.0)),
    ])
    return set_a, set_b


def _solo(points, query, **engine_kwargs):
    engine = AccurateRasterJoin(session=QuerySession(), **engine_kwargs)
    return engine.execute(
        points, query.polygons, aggregate=query.aggregate,
        filters=query.filters,
    )


def _assert_members_match_solo(points, queries, results, **engine_kwargs):
    assert results is not None
    assert len(results) == len(queries)
    for query, result in zip(queries, results):
        solo = _solo(points, query, **engine_kwargs)
        assert np.array_equal(result.values, solo.values, equal_nan=True)
        for name, channel in solo.channels.items():
            assert np.array_equal(
                result.channels[name], channel, equal_nan=True
            )
        assert result.stats.extra["fused_queries"] == len(queries)


class TestFusedScan:
    def test_heterogeneous_members_match_solo(self, uniform_points,
                                              region_sets):
        set_a, set_b = region_sets
        queries = [
            FusedQuery(set_a, Count(), FilterSet()),
            FusedQuery(set_b, Sum("fare"), FilterSet()),
            FusedQuery(set_a, Average("fare"),
                       FilterSet([Filter("hour", ">=", 12)])),
            FusedQuery(set_b, Min("fare"), FilterSet()),
            FusedQuery(set_a, Max("fare"),
                       FilterSet([Filter("hour", "<", 6)])),
        ]
        engine = AccurateRasterJoin(resolution=256, session=QuerySession())
        results = execute_fused(engine, uniform_points, queries)
        _assert_members_match_solo(
            uniform_points, queries, results, resolution=256
        )

    def test_shared_filter_group_matches_solo(self, uniform_points,
                                              region_sets):
        set_a, set_b = region_sets
        shared = FilterSet([Filter("hour", ">=", 12), Filter("fare", "<", 20)])
        queries = [
            FusedQuery(set_a, Count(), shared),
            FusedQuery(set_b, Sum("fare"), shared),
        ]
        engine = AccurateRasterJoin(resolution=128, session=QuerySession())
        results = execute_fused(engine, uniform_points, queries)
        _assert_members_match_solo(
            uniform_points, queries, results, resolution=128
        )

    def test_multi_tile_canvas_matches_solo(self, uniform_points,
                                            region_sets):
        set_a, set_b = region_sets
        device = GPUDevice(max_resolution=128)
        queries = [
            FusedQuery(set_a, Count(), FilterSet()),
            FusedQuery(set_b, Sum("fare"), FilterSet()),
        ]
        engine = AccurateRasterJoin(
            resolution=256, device=device, session=QuerySession()
        )
        results = execute_fused(engine, uniform_points, queries)
        _assert_members_match_solo(
            uniform_points, queries, results,
            resolution=256, device=GPUDevice(max_resolution=128),
        )

    def test_warm_session_matches_solo(self, uniform_points, region_sets):
        set_a, set_b = region_sets
        queries = [
            FusedQuery(set_a, Count(), FilterSet()),
            FusedQuery(set_b, Sum("fare"), FilterSet()),
        ]
        engine = AccurateRasterJoin(resolution=128, session=QuerySession())
        # Warm every artifact, then fuse: the cached-boundary branch of
        # _tile_boundary must produce the same routing as the built one.
        for query in queries:
            engine.execute(uniform_points, query.polygons,
                           aggregate=query.aggregate, filters=query.filters)
        results = execute_fused(engine, uniform_points, queries)
        _assert_members_match_solo(
            uniform_points, queries, results, resolution=128
        )

    def test_budget_strip_between_prepare_and_tiles_matches_solo(
        self, uniform_points, region_sets
    ):
        # Under byte pressure the second member's prepare strips (then
        # demotes) the first member's warm artifact after it was
        # prepared and before any tile ran: the tile tasks must still
        # find everything they read and answer as solo runs do.
        set_a, set_b = region_sets
        queries = [
            FusedQuery(set_a, Count(), FilterSet()),
            FusedQuery(set_b, Sum("fare"), FilterSet()),
        ]
        session = QuerySession(store=False)
        engine = AccurateRasterJoin(resolution=128, session=session)
        engine.execute(uniform_points, set_a)
        session.byte_budget = 1
        results = execute_fused(engine, uniform_points, queries)
        assert session.partial_demotions > 0
        _assert_members_match_solo(
            uniform_points, queries, results, resolution=128
        )

    def test_canvas_mismatch_falls_back(self, uniform_points, rng):
        # Different bounding boxes derive different canvases: the
        # runtime gate must refuse rather than mis-project.
        set_a = PolygonSet([Polygon(ANCHOR)])
        set_b = PolygonSet([
            Polygon([(10.0, 10.0), (60.0, 10.0), (60.0, 60.0), (10.0, 60.0)])
        ])
        queries = [
            FusedQuery(set_a, Count(), FilterSet()),
            FusedQuery(set_b, Count(), FilterSet()),
        ]
        engine = AccurateRasterJoin(resolution=64, session=QuerySession())
        assert execute_fused(engine, uniform_points, queries) is None

    def test_multi_batch_input_falls_back(self, uniform_points, region_sets):
        set_a, set_b = region_sets
        # A device too small to hold the whole input in one batch: the
        # single-batch gate refuses (batch boundaries change float
        # groupings, so fusion could not mirror solo execution).
        device = GPUDevice(capacity_bytes=200_000, max_resolution=64)
        engine = AccurateRasterJoin(
            resolution=64, device=device, session=QuerySession()
        )
        queries = [
            FusedQuery(set_a, Count(), FilterSet()),
            FusedQuery(set_b, Sum("fare"), FilterSet()),
        ]
        assert not fits_single_batch(
            engine, uniform_points, ("x", "y", "fare"), 0
        )
        assert execute_fused(engine, uniform_points, queries) is None

    def test_fused_stats_report_scan_shape(self, uniform_points,
                                           region_sets):
        set_a, set_b = region_sets
        queries = [
            FusedQuery(set_a, Count(), FilterSet()),
            FusedQuery(set_b, Count(), FilterSet()),
        ]
        engine = AccurateRasterJoin(resolution=128, session=QuerySession())
        results = execute_fused(engine, uniform_points, queries)
        for result in results:
            assert result.stats.extra["fused_queries"] == 2
            assert result.stats.points_processed == len(uniform_points.xs)
            assert result.stats.engine == "accurate-raster"
