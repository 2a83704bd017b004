"""Unit tests for the synthetic taxi / twitter / region generators."""

import numpy as np
import pytest

from repro.data.regions import (
    NYC_REGION_EXTENT,
    generate_voronoi_regions,
)
from repro.data.taxi import NYC_EXTENT, generate_taxi
from repro.data.twitter import USA_EXTENT, generate_twitter
from repro.errors import GeometryError
from repro.geometry.bbox import BBox
from repro.geometry.polygon import rectangle


class TestTaxi:
    def test_deterministic(self):
        a = generate_taxi(1000, seed=7)
        b = generate_taxi(1000, seed=7)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.column("fare"), b.column("fare"))

    def test_within_extent(self):
        ds = generate_taxi(5000, seed=1)
        assert NYC_EXTENT.contains_points(ds.xs, ds.ys).all()

    def test_attributes_present_and_sane(self):
        ds = generate_taxi(5000, seed=1)
        assert set(ds.attributes) == {"hour", "passengers", "distance", "fare", "tip"}
        assert ds.column("hour").min() >= 0 and ds.column("hour").max() <= 23
        assert ds.column("passengers").min() >= 1
        assert ds.column("fare").min() >= 2.5
        assert (ds.column("tip") >= 0).all()

    def test_fare_correlates_with_distance(self):
        ds = generate_taxi(20_000, seed=2)
        corr = np.corrcoef(ds.column("distance"), ds.column("fare"))[0, 1]
        assert corr > 0.8

    def test_spatial_skew(self):
        """Hotspots must be far denser than the uniform background —
        the property §7.1 calls out and the experiments depend on."""
        ds = generate_taxi(50_000, seed=3)
        hotspot = rectangle(0.36 * 45_000, 0.33 * 40_000,
                            0.40 * 45_000, 0.37 * 40_000)
        fraction = hotspot.contains_points(ds.xs, ds.ys).mean()
        uniform_fraction = hotspot.area / NYC_EXTENT.area
        assert fraction > 10 * uniform_fraction

    def test_prefix_is_valid_scaling(self):
        """head(n) must equal generating the same rows (time-ordered)."""
        big = generate_taxi(2000, seed=5)
        assert len(big.head(500)) == 500


class TestTwitter:
    def test_within_extent(self):
        ds = generate_twitter(5000, seed=1)
        assert USA_EXTENT.contains_points(ds.xs, ds.ys).all()

    def test_attributes(self):
        ds = generate_twitter(5000, seed=1)
        assert set(ds.attributes) == {"day", "favorites", "retweets"}
        assert ds.column("day").min() >= 0 and ds.column("day").max() <= 364
        assert (ds.column("favorites") >= 0).all()

    def test_city_skew(self):
        ds = generate_twitter(50_000, seed=2)
        nyc_like = rectangle(0.85 * 4_500_000, 0.59 * 2_800_000,
                             0.91 * 4_500_000, 0.65 * 2_800_000)
        fraction = nyc_like.contains_points(ds.xs, ds.ys).mean()
        uniform = nyc_like.area / USA_EXTENT.area
        assert fraction > 10 * uniform

    def test_heavy_tailed_engagement(self):
        ds = generate_twitter(20_000, seed=3)
        favorites = ds.column("favorites")
        assert np.median(favorites) <= 1
        assert favorites.max() > 10


class TestVoronoiRegions:
    def test_partition_of_extent(self):
        extent = BBox(0, 0, 100, 100)
        regions = generate_voronoi_regions(32, extent, seed=1)
        assert len(regions) == 32
        total = sum(p.area for p in regions)
        assert abs(total - extent.area) < 1e-6 * extent.area

    def test_all_simple(self):
        regions = generate_voronoi_regions(24, BBox(0, 0, 50, 50), seed=2)
        assert all(p.is_simple() for p in regions)

    def test_contains_concave_shapes(self):
        """Merging convex cells must produce some concave regions."""
        regions = generate_voronoi_regions(16, BBox(0, 0, 100, 100), seed=3)

        def is_convex(poly):
            ring = poly.exterior
            n = len(ring)
            signs = set()
            for i in range(n):
                a, b, c = ring[i], ring[(i + 1) % n], ring[(i + 2) % n]
                cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
                if cross != 0:
                    signs.add(cross > 0)
            return len(signs) == 1

        assert any(not is_convex(p) for p in regions)

    def test_deterministic(self):
        a = generate_voronoi_regions(8, BBox(0, 0, 10, 10), seed=9)
        b = generate_voronoi_regions(8, BBox(0, 0, 10, 10), seed=9)
        assert all(
            np.array_equal(pa.exterior, pb.exterior) for pa, pb in zip(a, b)
        )

    @pytest.mark.parametrize("seed", [1235, 2825, 26171770])
    def test_seeds_stuck_in_many_merges_still_generate(self, seed):
        """Four regions get stuck in a merge on about a third of the
        attempts; these seeds draw more than eight stuck ones in a row."""
        extent = BBox(0, 0, 100, 100)
        regions = generate_voronoi_regions(4, extent, seed=seed)
        assert len(regions) == 4
        assert abs(sum(p.area for p in regions) - extent.area) < 1e-6 * extent.area

    def test_invalid_count(self):
        with pytest.raises(GeometryError):
            generate_voronoi_regions(0, BBox(0, 0, 10, 10))
