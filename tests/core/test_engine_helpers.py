"""Unit tests for the shared engine machinery."""

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    Average,
    BoundedRasterJoin,
    Count,
    Filter,
    FilterSet,
    GPUDevice,
    Max,
    Min,
    PointDataset,
    Polygon,
    PolygonSet,
    QuerySession,
    Sum,
)
from repro.core.engine import (
    SpatialAggregationEngine,
    grid_pip_aggregate,
)
from repro.index.grid import GridIndex
from repro.types import ExecutionStats
from tests.conftest import brute_force_counts, edge_table_for, run_pixels


class TestRequiredColumns:
    def test_locations_always_first(self):
        cols = SpatialAggregationEngine.required_columns(Count(), FilterSet())
        assert cols == ("x", "y")

    def test_filter_and_aggregate_columns_deduped(self):
        filters = FilterSet([Filter("fare", ">", 1), Filter("hour", "<", 9)])
        cols = SpatialAggregationEngine.required_columns(
            Average("fare"), filters
        )
        assert cols == ("x", "y", "fare", "hour")

    def test_order_is_deterministic(self):
        filters = FilterSet([Filter("b", ">", 0), Filter("a", ">", 0)])
        cols = SpatialAggregationEngine.required_columns(Sum("c"), filters)
        assert cols == ("x", "y", "a", "b", "c")


class TestGridPipAggregate:
    @pytest.fixture
    def setup(self, three_regions, rng):
        grid = GridIndex(three_regions, resolution=64)
        xs = rng.uniform(0, 100, 5000)
        ys = rng.uniform(0, 100, 5000)
        return grid, edge_table_for(three_regions, grid.resolution), xs, ys

    def test_counts_match_brute_force(self, setup, three_regions):
        grid, edges, xs, ys = setup
        acc = {"count": np.zeros(3)}
        stats = ExecutionStats()
        grid_pip_aggregate(xs, ys, {}, grid, edges, Count(), acc, stats)
        expected = np.asarray(
            [p.contains_points(xs, ys).sum() for p in three_regions], float
        )
        assert np.array_equal(acc["count"], expected)
        assert stats.pip_tests > 0

    def test_empty_input_noop(self, setup):
        grid, edges, *_ = setup
        acc = {"count": np.zeros(3)}
        stats = ExecutionStats()
        grid_pip_aggregate(
            np.zeros(0), np.zeros(0), {}, grid, edges, Count(), acc, stats,
        )
        assert acc["count"].sum() == 0
        assert stats.pip_tests == 0

    def test_points_outside_extent_skipped(self, setup):
        grid, edges, *_ = setup
        acc = {"count": np.zeros(3)}
        stats = ExecutionStats()
        xs = np.asarray([-500.0, 1e6])
        ys = np.asarray([-500.0, 1e6])
        grid_pip_aggregate(xs, ys, {}, grid, edges, Count(), acc, stats)
        assert acc["count"].sum() == 0

    @pytest.mark.parametrize("agg", [Sum("v"), Min("v"), Max("v")])
    def test_candidates_outside_every_mbr_leave_accumulators(
        self, setup, agg
    ):
        """Candidate pairs exist (the cells are registered) but every
        point misses its candidates' MBRs: tests are counted, nothing
        blends, no polygon becomes a segment."""
        grid, edges, *_ = setup
        # In region 0's last bbox column / row of cells (the extent's
        # padding leaves a sliver of each beyond the box), outside the
        # box itself by a hair.
        xs = np.asarray([40.00000001, 30.0])
        ys = np.asarray([20.0, 40.00000001])
        acc = {ch: np.full(3, agg.identity()) for ch in agg.channels}
        before = {ch: a.copy() for ch, a in acc.items()}
        stats = ExecutionStats()
        grid_pip_aggregate(
            xs, ys, {"v": np.asarray([5.0, 6.0])}, grid, edges, agg, acc,
            stats,
        )
        assert stats.pip_tests > 0
        for ch in acc:
            assert np.array_equal(acc[ch], before[ch])

    def test_point_beyond_polygon_rows_inside_its_cell(self):
        """A point above / below a polygon's y-range but inside a grid
        cell the polygon registers in: the pair has no band (or an empty
        one) and must come out ``False``, not as a zero-length segment
        that would read a neighbour's parity."""
        regions = PolygonSet([
            Polygon([(10, 10.2), (30, 10.2), (30, 10.7), (10, 10.7)]),
            Polygon([(10, 40), (30, 40), (20, 60)]),
            Polygon([(40, 0), (50, 0), (50, 5)]),
        ])
        grid = GridIndex(regions, resolution=4)  # fat cells
        edges = edge_table_for(regions, grid.resolution)
        xs = np.asarray([20.0, 20.0, 20.0, 20.0])
        ys = np.asarray([10.1, 10.9, 10.5, 45.0])
        cells = grid.cell_of_points(xs, ys)
        assert len(grid.candidates_of_cell(int(cells[0])))  # a real pair
        acc = {"sum": np.zeros(3)}
        stats = ExecutionStats()
        grid_pip_aggregate(
            xs, ys, {"v": np.asarray([1.0, 2.0, 4.0, 8.0])}, grid, edges,
            Sum("v"), acc, stats,
        )
        assert acc["sum"].tolist() == [4.0, 8.0, 0.0]

    def test_nan_attribute_poisons_min_and_max(self, setup, three_regions):
        grid, edges, xs, ys = setup
        values = np.arange(len(xs), dtype=np.float64)
        inside0 = np.flatnonzero(three_regions[0].contains_points(xs, ys))
        values[inside0[3]] = np.nan
        for agg in (Min("v"), Max("v")):
            (ch,) = agg.channels
            acc = {ch: np.full(3, agg.identity())}
            grid_pip_aggregate(
                xs, ys, {"v": values}, grid, edges, agg, acc,
                ExecutionStats(),
            )
            assert np.isnan(acc[ch][0])
            assert np.isfinite(acc[ch][1:]).all()


class TestCanvasCandidates:
    """The boundary PIP reads its candidates off the canvas: on a canvas
    at least as fine as the MBR grid it replaced, fewer pairs are tested
    (``docs/rasterization.md`` has the coarse-canvas caveat)."""

    def test_pip_tests_pinned_and_below_the_mbr_grids(self, uniform_points):
        from repro.data import generate_voronoi_regions
        from repro.geometry.bbox import BBox

        regions = generate_voronoi_regions(
            40, BBox(0.0, 0.0, 100.0, 100.0), seed=11
        )
        session = QuerySession(store=False)
        result = AccurateRasterJoin(
            resolution=256, grid_resolution=256, session=session
        ).execute(uniform_points, regions)
        (artifact,) = session._entries.values()
        (tile,), (mask,) = artifact.tiles, artifact.boundary_masks.values()
        ix, iy, inside = tile.pixel_of(uniform_points.xs, uniform_points.ys)
        on_edge = np.flatnonzero(inside)
        on_edge = on_edge[mask[iy[on_edge], ix[on_edge]]]
        assert result.stats.boundary_points == len(on_edge)
        grid = GridIndex(regions, resolution=256)
        cells = grid.cell_of_points(
            uniform_points.xs[on_edge], uniform_points.ys[on_edge]
        )
        assert (cells >= 0).all()
        from_grid = int(np.diff(grid.cell_start)[cells].sum())
        assert result.stats.pip_tests == 2776 <= from_grid == 3998
        assert np.array_equal(
            result.values, brute_force_counts(uniform_points, regions)
        )


class TestBoundaryPixelsHoldTheIdentity:
    """A point on a boundary pixel joins through PIP and is never
    scattered, so after the point pass every pixel of a query's boundary
    mask still holds the blend identity — and the polygon pass never
    reads one: the tile's run table stops short of every boundary pixel,
    so a scattered framebuffer and a cached channel (which holds every
    row) go through the same one-branch kernel."""

    OTHER = PolygonSet([
        # Same union bbox as ``three_regions`` (one canvas, so one cached
        # routing serves both), other outlines: a sibling's boundary
        # pixels are not this query's, and its points must not leak in.
        Polygon([(10, 10), (90, 10), (50, 95)]),
        Polygon([(30, 30), (60, 35), (40, 70)]),
    ])

    def test_the_run_table_reads_no_boundary_pixel(self, uniform_points,
                                                   three_regions):
        import inspect

        from repro.core import tiles

        assert list(inspect.signature(tiles._polygon_pass).parameters) == [
            "coverage", "member", "channels", "partial", "window",
        ]
        session = QuerySession(store=False)
        AccurateRasterJoin(
            resolution=128, grid_resolution=32,
            device=GPUDevice(max_resolution=64), session=session,
        ).execute(uniform_points, three_regions)
        (artifact,) = session._entries.values()
        assert len(artifact.coverage) == 4
        for idx, record in artifact.coverage.items():
            mask = artifact.boundary_masks[idx].ravel()
            assert mask.any() and len(record.runs)
            assert not mask[run_pixels(record.runs)].any()

    @pytest.mark.parametrize("max_fbo", [None, 64], ids=["1-tile", "4-tiles"])
    @pytest.mark.parametrize("sibling", [False, True],
                             ids=["solo", "routing-shared"])
    @pytest.mark.parametrize(
        "filters", [FilterSet(), FilterSet([Filter("hour", "<", 12)])],
        ids=["unfiltered", "filtered"],
    )
    @pytest.mark.parametrize(
        "aggregate", [Count(), Sum("fare"), Min("fare"), Max("fare")],
        ids=lambda agg: agg.name,
    )
    def test_after_the_point_pass(self, uniform_points, three_regions,
                                  aggregate, filters, sibling, max_fbo):
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=32,
            device=GPUDevice(max_resolution=max_fbo) if max_fbo else None,
            session=QuerySession(store=False),
        )
        sets = [self.OTHER, three_regions] if sibling else [three_regions]
        for polygons in sets:
            st = ExecutionStats(engine=engine.name, batches=0, passes=0)
            member = engine.member(polygons, aggregate, filters, st)
            payloads = engine.run_member(
                member, uniform_points, st, keep_fbo=True
            ).payloads
            assert st.extra["partition"] == (
                "on" if polygons is sets[0] else "cached"
            )
            assert len(payloads) == (4 if max_fbo else 1)
            assert st.boundary_points > 0
            scattered = 0
            for idx, (_, fbo) in enumerate(payloads):
                mask = member.prepared.boundary_masks[idx]
                assert mask.any()
                for ch in aggregate.channels:
                    channel = fbo.channel(ch)
                    assert np.all(channel[mask] == aggregate.identity())
                    scattered += np.count_nonzero(
                        channel != aggregate.identity()
                    )
            assert scattered > 0  # the interior did rasterize


class TestPolygonPass:
    """The flat polygon pass's corner cases, through the engines."""

    @pytest.mark.parametrize("top,fragments", [(20.3, False), (21.5, True)])
    def test_polygon_whose_every_pixel_is_boundary(self, uniform_points,
                                                   top, fragments):
        """A sliver's answer comes from the PIP path alone.  Between two
        rows of pixel centers it rasterizes to no fragment; across one
        row its runs cover boundary pixels only, and the trim removes
        them.  Either way it owns no run of the tile's table and must not
        become a segment (``reduceat`` would hand it its neighbour's
        first run)."""
        regions = PolygonSet([
            Polygon([(10, 10), (60, 12), (55, 60), (12, 50)]),
            Polygon([(70, 20.0), (90, 20.0), (90, top), (70, top)]),
            Polygon([(65, 65), (95, 70), (80, 95)]),
        ])
        cold_engine = AccurateRasterJoin(resolution=64, grid_resolution=32)
        session = QuerySession(store=False)
        engine = AccurateRasterJoin(
            resolution=64, grid_resolution=32, session=session
        )
        for agg in (Count(), Sum("fare"), Min("fare"), Max("fare")):
            result = engine.execute(uniform_points, regions, aggregate=agg)
            inside = [
                p.contains_points(uniform_points.xs, uniform_points.ys)
                for p in regions
            ]
            fares = uniform_points.column("fare")
            if isinstance(agg, Count):
                want = [float(m.sum()) for m in inside]
            elif isinstance(agg, Sum):
                want = [float(fares[m].sum()) for m in inside]
            elif isinstance(agg, Min):
                want = [float(fares[m].min()) for m in inside]
            else:
                want = [float(fares[m].max()) for m in inside]
            assert np.allclose(result.values, want, rtol=1e-9, atol=0)
            assert np.array_equal(
                result.values,
                cold_engine.execute(
                    uniform_points, regions, aggregate=agg
                ).values,
            )
        (artifact,) = session._entries.values()
        (record,) = artifact.coverage.values()
        assert record.pids.tolist() == [0, 2]
        assert len(record.pids) == len(record.starts)
        assert np.all(np.diff(np.append(record.starts, len(record.runs))) > 0)
        sliver = artifact.units[1].coverage[0]
        assert bool(len(sliver)) == fragments
        assert artifact.boundary_masks[0].ravel()[run_pixels(sliver)].all()

    def test_min_max_on_constant_channel_yield_one(self, uniform_points,
                                                   three_regions):
        for blend in ("min", "max"):
            agg = ConstantPresence()
            agg.blend = blend
            result = AccurateRasterJoin(
                resolution=64, grid_resolution=32
            ).execute(uniform_points, three_regions, aggregate=agg)
            # Min over a framebuffer cleared to +inf still sees the 1.0s.
            assert np.array_equal(result.values, np.ones(3))

    def test_float32_framebuffer_sums_in_float64(self, three_regions, rng):
        """The bounded engine's float32 channels reduce with float64
        accumulation: every pixel's value is float32-exact here, the
        per-polygon totals are not float32-representable."""
        n = 4000
        value = 4194305.0  # 2**22 + 1: k * value is float32-exact for k <= 4
        points = PointDataset(
            rng.uniform(0, 100, n), rng.uniform(0, 100, n),
            {"v": np.full(n, value)},
        )
        engine = BoundedRasterJoin(resolution=256)
        sums = engine.execute(points, three_regions, aggregate=Sum("v")).values
        counts = engine.execute(points, three_regions).values
        assert np.array_equal(sums, counts * value)
        assert np.any(sums.astype(np.float32).astype(np.float64) != sums)


class TestExecuteValidation:
    def test_missing_aggregate_column(self, uniform_points, three_regions):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            BoundedRasterJoin(resolution=64).execute(
                uniform_points, three_regions, aggregate=Sum("nonexistent")
            )

    def test_missing_filter_column(self, uniform_points, three_regions):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            BoundedRasterJoin(resolution=64).execute(
                uniform_points, three_regions,
                filters=[Filter("nope", ">", 1)],
            )

    def test_filters_accept_plain_sequence(self, uniform_points, three_regions):
        result = BoundedRasterJoin(resolution=64).execute(
            uniform_points, three_regions, filters=[Filter("hour", ">=", 0)]
        )
        assert result.stats.points_filtered_out == 0


class ConstantPresence(Count):
    """COUNT-shaped aggregate with a non-add blend on a constant-1 channel.

    Models the degenerate-but-legal corner of the Aggregate contract: a
    channel with no attribute column whose blend equation is an order
    statistic.  Every matched point contributes a single 1.0, so a
    polygon's value is 1.0 iff at least one point matched (else the blend
    identity survives).
    """

    name = "presence"
    blend = "max"

    def finalize(self, reduced):
        return reduced["count"].astype(np.float64)


class TestGridPipAggregateNonAddConstantChannel:
    """Regression: the non-add/None-column branch must account one
    contribution per *matched point*, exactly like the scalar JoinPoint
    loop, not one per polygon group."""

    def test_matches_scalar_join(self, three_regions, rng):
        from repro import IndexJoin

        xs = rng.uniform(0, 100, 4000)
        ys = rng.uniform(0, 100, 4000)
        points = PointDataset(xs, ys)
        agg = ConstantPresence()
        gpu = IndexJoin(mode="gpu").execute(points, three_regions, agg)
        cpu = IndexJoin(mode="cpu").execute(points, three_regions, agg)
        assert np.array_equal(gpu.values, cpu.values)
        # Every region contains at least one of 4k uniform points.
        assert np.array_equal(gpu.values, np.ones(3))

    def test_unmatched_polygons_keep_identity(self, three_regions):
        # A single point inside region 0 only.
        points = PointDataset(np.asarray([20.0]), np.asarray([20.0]))
        agg = ConstantPresence()
        from repro import IndexJoin

        result = IndexJoin(mode="gpu").execute(points, three_regions, agg)
        assert result.values[0] == 1.0
        assert np.all(result.values[1:] == agg.identity())

    def test_direct_call_min_blend(self, three_regions, rng):
        """Direct kernel call with a min blend: matched groups become 1.0,
        untouched groups keep the +inf identity."""
        agg = ConstantPresence()
        agg.blend = "min"
        grid = GridIndex(three_regions, resolution=64)
        xs = rng.uniform(0, 100, 2000)
        ys = rng.uniform(0, 100, 2000)
        acc = {"count": np.full(3, agg.identity())}
        stats = ExecutionStats()
        grid_pip_aggregate(
            xs, ys, {}, grid, edge_table_for(three_regions, grid.resolution), agg, acc,
            stats,
        )
        matched = np.asarray(
            [p.contains_points(xs, ys).any() for p in three_regions]
        )
        assert np.array_equal(acc["count"][matched],
                              np.ones(int(matched.sum())))
        assert np.all(np.isinf(acc["count"][~matched]))
