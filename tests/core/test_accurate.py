"""Unit tests for the accurate raster join — exactness above all."""

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    Average,
    Count,
    EngineConfig,
    Filter,
    GPUDevice,
    Max,
    Min,
    PointDataset,
    Polygon,
    PolygonSet,
    QuerySession,
    Sum,
)
from tests.conftest import (
    brute_force_counts,
    brute_force_sums,
    brute_force_values,
    run_pixels,
)


class TestExactness:
    @pytest.mark.parametrize("resolution", [64, 256, 1024])
    def test_exact_at_any_resolution(self, uniform_points, three_regions, resolution):
        """Resolution only moves work between paths, never changes results."""
        exact = brute_force_counts(uniform_points, three_regions)
        result = AccurateRasterJoin(resolution=resolution).execute(
            uniform_points, three_regions
        )
        assert np.array_equal(result.values, exact)

    def test_exact_sum(self, uniform_points, three_regions):
        exact = brute_force_sums(uniform_points, three_regions, "fare")
        result = AccurateRasterJoin(resolution=256).execute(
            uniform_points, three_regions, aggregate=Sum("fare")
        )
        assert np.allclose(result.values, exact, rtol=1e-9)

    def test_exact_average(self, uniform_points, three_regions):
        counts = brute_force_counts(uniform_points, three_regions)
        sums = brute_force_sums(uniform_points, three_regions, "fare")
        result = AccurateRasterJoin(resolution=256).execute(
            uniform_points, three_regions, aggregate=Average("fare")
        )
        assert np.allclose(result.values, sums / counts, rtol=1e-9)

    def test_exact_min_max(self, uniform_points, three_regions):
        fare = uniform_points.column("fare")
        result_min = AccurateRasterJoin(resolution=256).execute(
            uniform_points, three_regions, aggregate=Min("fare")
        )
        result_max = AccurateRasterJoin(resolution=256).execute(
            uniform_points, three_regions, aggregate=Max("fare")
        )
        for pid, poly in enumerate(three_regions):
            inside = poly.contains_points(uniform_points.xs, uniform_points.ys)
            assert result_min.values[pid] == fare[inside].min()
            assert result_max.values[pid] == fare[inside].max()

    def test_exact_with_filters(self, uniform_points, three_regions):
        filters = [Filter("hour", ">=", 7), Filter("hour", "<=", 9)]
        mask = (uniform_points.column("hour") >= 7) & (
            uniform_points.column("hour") <= 9
        )
        subset = uniform_points.take(np.flatnonzero(mask))
        exact = brute_force_counts(subset, three_regions)
        result = AccurateRasterJoin(resolution=256).execute(
            uniform_points, three_regions, filters=filters
        )
        assert np.array_equal(result.values, exact)

    def test_overlapping_polygons(self, rng):
        """The white-point case of Figure 7: a point interior to one
        polygon but on the boundary pixels of another must count in both."""
        regions = PolygonSet(
            [
                Polygon([(0, 0), (60, 0), (60, 60), (0, 60)]),
                Polygon([(30, 30), (90, 30), (90, 90), (30, 90)]),
            ]
        )
        points = PointDataset(rng.uniform(0, 90, 40_000), rng.uniform(0, 90, 40_000))
        exact = brute_force_counts(points, regions)
        result = AccurateRasterJoin(resolution=128).execute(points, regions)
        assert np.array_equal(result.values, exact)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_outline_strictly_inside_another_polygon(self, uniform_points,
                                                     backend):
        """A's whole outline lies inside B, so A's boundary pixels are
        B's *coverage*: B's run table stops short of them (their points
        reached B through PIP), and B stays exact."""
        regions = PolygonSet([
            Polygon([(40, 40), (60, 42), (58, 61), (41, 57)]),   # A
            Polygon([(10, 10), (90, 12), (88, 90), (12, 85)]),   # B
        ])
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=32,
            device=GPUDevice(max_resolution=64),
            session=QuerySession(store=False),
            config=EngineConfig(backend=backend, workers=2),
        )
        for aggregate, function, column in [
            (Count(), "count", None), (Sum("hour"), "sum", "hour"),
            (Min("fare"), "min", "fare"), (Max("fare"), "max", "fare"),
        ]:
            expected = brute_force_values(
                uniform_points, regions, function, column
            )
            for _ in ("cold", "warm"):
                result = engine.execute(
                    uniform_points, regions, aggregate=aggregate
                )
                assert np.array_equal(result.values, expected)
        float_sum = engine.execute(
            uniform_points, regions, aggregate=Sum("fare")
        )
        assert np.allclose(
            float_sum.values,
            brute_force_values(uniform_points, regions, "sum", "fare"),
            rtol=1e-9, atol=0,
        )
        engine.close()
        # The premise: pixels that are boundary and B's coverage at once.
        (artifact,) = engine.session._entries.values()
        shared = 0
        for idx, runs in artifact.units[1].coverage.items():
            shared += np.count_nonzero(
                artifact.boundary_masks[idx].ravel()[run_pixels(runs)]
            )
        assert shared > 0

    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["boundary", "interior"])
    def test_nonfinite_attribute_poisons_min_max(self, uniform_points,
                                                 three_regions, special,
                                                 where):
        """One special value on a boundary-pixel point (PIP path) or on
        an interior point (raster path) reaches its region's Min / Max
        exactly as NumPy's own reduction over the region would."""
        session = QuerySession(store=False)
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=32, session=session
        )
        engine.execute(uniform_points, three_regions)
        (artifact,) = session._entries.values()
        (tile,) = artifact.tiles
        inside = np.flatnonzero(three_regions[0].contains_points(
            uniform_points.xs, uniform_points.ys
        ))
        ix, iy, _ = tile.pixel_of(
            uniform_points.xs[inside], uniform_points.ys[inside]
        )
        on_boundary = artifact.boundary_masks[0][iy, ix]
        victim = inside[on_boundary == (where == "boundary")][0]
        values = uniform_points.column("fare").copy()
        values[victim] = special
        points = PointDataset(
            uniform_points.xs, uniform_points.ys, {"fare": values}
        )
        for aggregate, function in [(Min("fare"), "min"), (Max("fare"), "max")]:
            result = engine.execute(points, three_regions, aggregate=aggregate)
            expected = brute_force_values(
                points, three_regions, function, "fare"
            )
            assert np.array_equal(result.values, expected, equal_nan=True)
            reaches = np.isnan(special) or special == (
                np.inf if function == "max" else -np.inf
            )
            assert np.isfinite(result.values[0]) != reaches

    def test_points_on_polygon_edges(self):
        """Grid-aligned points exactly on shared edges: counted once per
        containing polygon under the same convention as the PIP test."""
        regions = PolygonSet(
            [
                Polygon([(0, 0), (10, 0), (10, 10), (0, 10)]),
                Polygon([(10, 0), (20, 0), (20, 10), (10, 10)]),
            ]
        )
        xs = np.asarray([10.0, 5.0, 15.0, 10.0])
        ys = np.asarray([5.0, 5.0, 5.0, 0.0])
        points = PointDataset(xs, ys)
        exact = brute_force_counts(points, regions)
        result = AccurateRasterJoin(resolution=64).execute(points, regions)
        assert np.array_equal(result.values, exact)


class TestConstruction:
    @pytest.mark.parametrize("rows", [0, -3])
    def test_grid_resolution_is_validated_where_it_is_given(
        self, three_regions, rows
    ):
        """The same typed error as ``resolution < 1``, at construction —
        and from the edge table it sizes, for direct callers."""
        from repro.errors import QueryError
        from repro.index.edge_table import EdgeTable
        from tests.conftest import edge_table_for

        with pytest.raises(QueryError, match="grid_resolution"):
            AccurateRasterJoin(resolution=16, grid_resolution=rows)
        with pytest.raises(QueryError, match="resolution"):
            AccurateRasterJoin(resolution=rows)
        with pytest.raises(QueryError, match="rows"):
            EdgeTable(
                three_regions, edge_table_for(three_regions, 4).mbrs, rows
            )


class TestWorkDistribution:
    def test_pip_only_for_boundary_points(self, uniform_points, three_regions):
        result = AccurateRasterJoin(resolution=512).execute(
            uniform_points, three_regions
        )
        assert 0 < result.stats.boundary_points < len(uniform_points) * 0.5
        assert result.stats.pip_tests < len(uniform_points)

    def test_higher_resolution_fewer_boundary_points(
        self, uniform_points, three_regions
    ):
        low = AccurateRasterJoin(resolution=64).execute(
            uniform_points, three_regions
        )
        high = AccurateRasterJoin(resolution=1024).execute(
            uniform_points, three_regions
        )
        assert high.stats.boundary_points < low.stats.boundary_points

    def test_preprocessing_recorded(self, uniform_points, three_regions):
        """Triangulation is the accurate join's only Table 1 term: it
        builds no index (its candidates come off the canvas)."""
        session = QuerySession(store=False)
        result = AccurateRasterJoin(resolution=128, session=session).execute(
            uniform_points, three_regions
        )
        assert result.stats.triangulation_s > 0
        assert result.stats.index_build_s == 0
        (artifact,) = session._entries.values()
        assert artifact.grid is None


class TestDevice:
    def test_out_of_core_exact(self, uniform_points, three_regions):
        exact = brute_force_counts(uniform_points, three_regions)
        # The float64 FBO needs ~500 KB; the remainder forces point batches.
        device = GPUDevice(capacity_bytes=600_000, max_resolution=256)
        result = AccurateRasterJoin(resolution=256, device=device).execute(
            uniform_points, three_regions
        )
        assert result.stats.batches > 1
        assert np.array_equal(result.values, exact)

    def test_tiled_exact(self, uniform_points, three_regions):
        exact = brute_force_counts(uniform_points, three_regions)
        result = AccurateRasterJoin(
            resolution=512, device=GPUDevice(max_resolution=100)
        ).execute(uniform_points, three_regions)
        assert result.stats.extra["tiles"] > 1
        assert np.array_equal(result.values, exact)
