"""Unit tests for the bounded raster join."""

import numpy as np
import pytest

from repro import (
    Average,
    BoundedRasterJoin,
    Count,
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
from repro.errors import QueryError
from repro.graphics.raster_polygon import scanline_polygon_pixels
from tests.conftest import brute_force_counts, brute_force_sums


class TestConstruction:
    def test_epsilon_xor_resolution(self):
        with pytest.raises(QueryError):
            BoundedRasterJoin()
        with pytest.raises(QueryError):
            BoundedRasterJoin(epsilon=1.0, resolution=512)

    def test_engine_name(self):
        assert BoundedRasterJoin(epsilon=1.0).name == "bounded-raster"


class TestApproximationQuality:
    def test_error_shrinks_with_resolution(self, uniform_points, three_regions):
        exact = brute_force_counts(uniform_points, three_regions)
        errors = []
        for res in (64, 256, 1024):
            approx = BoundedRasterJoin(resolution=res).execute(
                uniform_points, three_regions
            )
            errors.append(float(np.abs(approx.values - exact).max()))
        assert errors[0] >= errors[1] >= errors[2]

    def test_no_pip_tests_ever(self, uniform_points, three_regions):
        result = BoundedRasterJoin(resolution=256).execute(
            uniform_points, three_regions
        )
        assert result.stats.pip_tests == 0

    def test_converges_to_exact(self, uniform_points, three_regions):
        exact = brute_force_counts(uniform_points, three_regions)
        approx = BoundedRasterJoin(resolution=4096).execute(
            uniform_points, three_regions
        )
        rel = np.abs(approx.values - exact) / exact
        assert rel.max() < 0.01

    def test_epsilon_controls_pixel_diagonal(self, uniform_points, three_regions):
        result = BoundedRasterJoin(epsilon=2.5).execute(
            uniform_points, three_regions
        )
        assert result.stats.extra["pixel_diagonal"] <= 2.5

    def test_total_mass_preserved_for_partition(self, rng):
        """Over a partition of the extent, no point is lost or duplicated:
        every pixel belongs to exactly one polygon, so the approximate
        counts must sum to the number of points inside the partition."""
        squares = [
            Polygon([(i * 25, j * 25), ((i + 1) * 25, j * 25),
                     ((i + 1) * 25, (j + 1) * 25), (i * 25, (j + 1) * 25)])
            for i in range(4)
            for j in range(4)
        ]
        regions = PolygonSet(squares)
        # Keep points away from the partition hull: the outermost pixel ring
        # can legitimately lose points (paper-expected false negatives at
        # the canvas border), interior shared edges never can.
        points = PointDataset(rng.uniform(2, 98, 30_000),
                              rng.uniform(2, 98, 30_000))
        result = BoundedRasterJoin(resolution=128).execute(points, regions)
        assert float(result.values.sum()) == 30_000.0


class TestAggregates:
    def test_sum(self, uniform_points, three_regions):
        exact = brute_force_sums(uniform_points, three_regions, "fare")
        approx = BoundedRasterJoin(resolution=2048).execute(
            uniform_points, three_regions, aggregate=Sum("fare")
        )
        rel = np.abs(approx.values - exact) / exact
        assert rel.max() < 0.02

    def test_average_algebraic(self, uniform_points, three_regions):
        counts = brute_force_counts(uniform_points, three_regions)
        sums = brute_force_sums(uniform_points, three_regions, "fare")
        approx = BoundedRasterJoin(resolution=2048).execute(
            uniform_points, three_regions, aggregate=Average("fare")
        )
        assert np.abs(approx.values - sums / counts).max() < 0.1

    def test_min_max_conservative(self, uniform_points, three_regions):
        """Bounded min/max may only pull values from boundary-adjacent
        points, so min(approx) <= min over interior points."""
        approx_min = BoundedRasterJoin(resolution=1024).execute(
            uniform_points, three_regions, aggregate=Min("fare")
        )
        approx_max = BoundedRasterJoin(resolution=1024).execute(
            uniform_points, three_regions, aggregate=Max("fare")
        )
        fare = uniform_points.column("fare")
        for pid, poly in enumerate(three_regions):
            inside = poly.contains_points(uniform_points.xs, uniform_points.ys)
            assert approx_min.values[pid] <= fare[inside].min() + 1e-5
            assert approx_max.values[pid] >= fare[inside].max() - 1e-5


class TestFilters:
    def test_filtered_counts(self, uniform_points, three_regions):
        filters = [Filter("hour", ">=", 12)]
        mask = uniform_points.column("hour") >= 12
        subset = uniform_points.take(np.flatnonzero(mask))
        exact = brute_force_counts(subset, three_regions)
        approx = BoundedRasterJoin(resolution=2048).execute(
            uniform_points, three_regions, filters=filters
        )
        rel = np.abs(approx.values - exact) / exact
        assert rel.max() < 0.02

    def test_filter_stats(self, uniform_points, three_regions):
        result = BoundedRasterJoin(resolution=128).execute(
            uniform_points, three_regions, filters=[Filter("hour", "<", 0)]
        )
        assert result.stats.points_filtered_out == len(uniform_points)
        assert result.values.sum() == 0


class TestTilingAndDevice:
    def test_tiled_equals_single_canvas(self, uniform_points, three_regions):
        single = BoundedRasterJoin(resolution=512).execute(
            uniform_points, three_regions
        )
        tiled = BoundedRasterJoin(
            resolution=512, device=GPUDevice(max_resolution=120)
        ).execute(uniform_points, three_regions)
        assert tiled.stats.extra["tiles"] > 1
        assert np.array_equal(tiled.values, single.values)

    def test_out_of_core_equals_in_memory(self, uniform_points, three_regions):
        reference = BoundedRasterJoin(resolution=256).execute(
            uniform_points, three_regions
        )
        device = GPUDevice(capacity_bytes=300_000, max_resolution=256)
        batched = BoundedRasterJoin(resolution=256, device=device).execute(
            uniform_points, three_regions
        )
        assert batched.stats.batches > 1
        assert batched.stats.transfer_s > 0
        assert np.array_equal(batched.values, reference.values)

    def test_resident_points_zero_transfer(self, uniform_points, three_regions):
        device = GPUDevice()
        resident = device.make_resident(
            {"x": uniform_points.xs, "y": uniform_points.ys}
        )
        result = BoundedRasterJoin(resolution=256, device=device).execute(
            resident, three_regions
        )
        assert result.stats.transfer_s == 0.0
        assert result.stats.bytes_transferred == 0

    def test_resident_missing_column_rejected(self, uniform_points, three_regions):
        device = GPUDevice()
        resident = device.make_resident(
            {"x": uniform_points.xs, "y": uniform_points.ys}
        )
        with pytest.raises(QueryError):
            BoundedRasterJoin(resolution=128, device=device).execute(
                resident, three_regions, aggregate=Sum("fare")
            )


class TestScanlinePath:
    def test_identical_to_triangle_path(self, uniform_points, three_regions):
        """The bounded count is the number of points in the pixels the
        triangle path covers; counting them over the scanline fill
        (``scanline_polygon_pixels``, the oracle) on the same tiles gives
        the same numbers, on one canvas and across tile seams."""
        for device in (None, GPUDevice(max_resolution=120)):
            session = QuerySession(store=False)
            tri = BoundedRasterJoin(
                resolution=512, device=device, session=session
            ).execute(uniform_points, three_regions)
            (artifact,) = session._entries.values()
            assert (len(artifact.tiles) > 1) == (device is not None)
            scan = np.zeros(len(three_regions))
            for tile in artifact.tiles:
                ix, iy, inside = tile.pixel_of(
                    uniform_points.xs, uniform_points.ys
                )
                counts = np.bincount(
                    iy[inside] * tile.width + ix[inside],
                    minlength=tile.num_pixels,
                )
                for pid, polygon in enumerate(three_regions):
                    px, py = scanline_polygon_pixels(tile, polygon.rings)
                    scan[pid] += counts[py * tile.width + px].sum()
            assert (scan > 0).all() and np.array_equal(tri.values, scan)
