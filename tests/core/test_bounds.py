"""Unit tests for result-range estimation (§5)."""

import threading

import numpy as np
import pytest

from repro import (
    Average, BoundedRasterJoin, Count, Max, Min, PointDataset, Polygon,
    PolygonSet, Sum,
)
from repro.device.memory import GPUDevice
from repro.errors import QueryError
from repro.geometry.bbox import BBox
from repro.geometry.clip import ring_area
from repro.geometry.triangulate import triangulate_polygon
from repro.graphics.raster_line import outline_pixels_many
from tests.conftest import brute_force_counts, random_star_polygon
from tests.geometry.reference_clip import scalar_clip_polygon_to_rect
from tests.graphics.reference_raster import (
    conservative_triangle_pixels,
    outline_pixels,
    triangle_coverage_mask,
)


class TestLooseBounds:
    def test_contain_exact_always(self, uniform_points, three_regions):
        """The 100%-confidence guarantee of the loose interval."""
        exact = brute_force_counts(uniform_points, three_regions)
        for res in (64, 128, 512):
            result = BoundedRasterJoin(
                resolution=res, compute_bounds=True
            ).execute(uniform_points, three_regions)
            assert result.intervals is not None
            assert result.intervals.contains(exact).all(), (
                f"loose interval violated at resolution {res}"
            )

    def test_interval_shrinks_with_resolution(
        self, uniform_points, three_regions
    ):
        widths = []
        for res in (64, 256, 1024):
            result = BoundedRasterJoin(
                resolution=res, compute_bounds=True
            ).execute(uniform_points, three_regions)
            iv = result.intervals
            widths.append(float(np.sum(iv.loose_hi - iv.loose_lo)))
        assert widths[0] > widths[1] > widths[2]

    def test_random_polygons(self, rng):
        points = PointDataset(rng.uniform(0, 100, 30_000),
                              rng.uniform(0, 100, 30_000))
        polys = PolygonSet(
            [random_star_polygon(rng, center=(30 + 20 * k, 50),
                                 radius_range=(5, 18), vertices=9)
             for k in range(3)]
        )
        exact = brute_force_counts(points, polys)
        result = BoundedRasterJoin(resolution=128, compute_bounds=True).execute(
            points, polys
        )
        assert result.intervals.contains(exact).all()


class TestExpectedBounds:
    def test_tighter_than_loose(self, uniform_points, three_regions):
        result = BoundedRasterJoin(resolution=128, compute_bounds=True).execute(
            uniform_points, three_regions
        )
        iv = result.intervals
        assert np.all(iv.expected_lo >= iv.loose_lo - 1e-9)
        assert np.all(iv.expected_hi <= iv.loose_hi + 1e-9)

    def test_expected_value_closer_on_uniform_data(
        self, uniform_points, three_regions
    ):
        """On uniform data the area-fraction correction is near-unbiased:
        the expected value beats the raw approximate value in aggregate."""
        exact = brute_force_counts(uniform_points, three_regions)
        result = BoundedRasterJoin(resolution=128, compute_bounds=True).execute(
            uniform_points, three_regions
        )
        raw_err = np.abs(result.values - exact).sum()
        corrected_err = np.abs(result.intervals.expected_value - exact).sum()
        assert corrected_err <= raw_err * 1.05

    def test_sum_aggregate_bounds(self, uniform_points, three_regions):
        from tests.conftest import brute_force_sums

        exact = brute_force_sums(uniform_points, three_regions, "fare")
        result = BoundedRasterJoin(resolution=128, compute_bounds=True).execute(
            uniform_points, three_regions, aggregate=Sum("fare")
        )
        assert result.intervals.contains(exact).all()


class TestDisabled:
    def test_no_intervals_by_default(self, uniform_points, three_regions):
        result = BoundedRasterJoin(resolution=128).execute(
            uniform_points, three_regions
        )
        assert result.intervals is None


class TestRefusedAggregates:
    """Boundary-pixel totals bound one additive channel; an average, a
    minimum or a maximum is not that, so the engine refuses it rather than
    return intervals that do not contain the answer."""

    @pytest.mark.parametrize(
        "aggregate", [Average("fare"), Min("fare"), Max("fare")], ids=repr
    )
    def test_non_additive_aggregate_raises(
        self, uniform_points, three_regions, aggregate
    ):
        engine = BoundedRasterJoin(resolution=64, compute_bounds=True)
        with pytest.raises(QueryError, match="COUNT and SUM"):
            engine.execute(uniform_points, three_regions, aggregate=aggregate)

    @pytest.mark.parametrize(
        "aggregate", [Average("fare"), Min("fare"), Max("fare")], ids=repr
    )
    def test_without_bounds_every_aggregate_runs(
        self, uniform_points, three_regions, aggregate
    ):
        result = BoundedRasterJoin(resolution=64).execute(
            uniform_points, three_regions, aggregate=aggregate
        )
        assert result.intervals is None
        assert np.isfinite(result.values).all()

    @pytest.mark.parametrize(
        "aggregate", [Average("fare"), Min("fare"), Max("fare")], ids=repr
    )
    def test_refusal_leaves_the_engine_usable(
        self, uniform_points, three_regions, aggregate
    ):
        """The check runs before the tile loop, so a refused query leaves
        no intervals behind and the next COUNT bounds its own answer."""
        engine = BoundedRasterJoin(resolution=64, compute_bounds=True)
        with pytest.raises(QueryError):
            engine.execute(uniform_points, three_regions, aggregate=aggregate)
        result = engine.execute(uniform_points, three_regions)
        exact = brute_force_counts(uniform_points, three_regions)
        assert result.intervals.contains(exact).all()

    @pytest.mark.parametrize("aggregate", [Count(), Sum("fare")], ids=repr)
    def test_additive_intervals_hold_the_approximate_value(
        self, uniform_points, three_regions, aggregate
    ):
        result = BoundedRasterJoin(resolution=64, compute_bounds=True).execute(
            uniform_points, three_regions, aggregate=aggregate
        )
        iv = result.intervals
        assert np.all(iv.loose_lo <= result.values)
        assert np.all(result.values <= iv.loose_hi)


class TestConcurrentStatements:
    def test_each_caller_gets_its_own_intervals(
        self, uniform_points, three_regions
    ):
        """The intervals travel with the statement, not the engine: a
        statement held after its tile loop while another runs a larger
        polygon set on the same engine still returns its own."""
        engine = BoundedRasterJoin(resolution=128, compute_bounds=True)
        one = PolygonSet(list(three_regions)[:1])
        two = PolygonSet(list(three_regions)[:2])
        held, release = threading.Event(), threading.Event()
        checkpoint = engine._checkpoint_session

        def hold_first_caller():
            if threading.current_thread().name == "first":
                held.set()
                release.wait(30)
            checkpoint()

        engine._checkpoint_session = hold_first_caller
        results = {}
        first = threading.Thread(
            target=lambda: results.update(
                first=engine.execute(uniform_points, one)
            ),
            name="first",
        )
        first.start()
        try:
            assert held.wait(30)
            results["second"] = engine.execute(uniform_points, two)
        finally:
            release.set()
            first.join(30)
        assert not first.is_alive()
        alone = BoundedRasterJoin(resolution=128, compute_bounds=True)
        for name, polygons in (("first", one), ("second", two)):
            expected = alone.execute(uniform_points, polygons).intervals
            got = results[name].intervals
            assert len(got.loose_lo) == len(polygons)
            assert np.array_equal(got.loose_lo, expected.loose_lo)
            assert np.array_equal(got.loose_hi, expected.loose_hi)


# ----------------------------------------------------------------------
# The classification against the one-pixel-at-a-time rule
# ----------------------------------------------------------------------
def _overlap_mask(tile, triangles, kernel) -> np.ndarray:
    """The union of one kernel's per-triangle masks over ``tile``."""
    out = np.zeros((tile.height, tile.width), dtype=bool)
    for tri in triangles:
        x0, y0, mask = kernel(tile, tri)
        out[y0:y0 + mask.shape[0], x0:x0 + mask.shape[1]] |= mask
    return out


def _scalar_sums(engine, points, polygons) -> np.ndarray:
    """§5's four sums (over/under x loose/expected) per polygon, one
    polygon and one outline pixel at a time with the scalar kernels: a
    false positive is an outline pixel the coverage raster covers, a
    false negative one it misses that a triangle overlaps (the
    conservative raster), and ``f`` is the clipped triangles' area over
    the pixel's.  COUNT's framebuffer is the points' pixel histogram."""
    sums = np.zeros((4, len(polygons)))
    triangles = [triangulate_polygon(polygon) for polygon in polygons]
    canvas = engine._make_canvas(polygons)
    for tile in canvas.tiles(engine.max_resolution):
        ix, iy, inside = tile.pixel_of(points.xs, points.ys)
        grid = np.zeros((tile.height, tile.width))
        np.add.at(grid, (iy[inside], ix[inside]), 1.0)
        width, height = tile.pixel_width, tile.pixel_height
        for pid, polygon in enumerate(polygons):
            if not polygon.bbox.intersects(tile.bbox):
                continue
            covered = _overlap_mask(tile, triangles[pid],
                                    triangle_coverage_mask)
            overlapped = _overlap_mask(tile, triangles[pid],
                                       conservative_triangle_pixels)
            for x, y in zip(*outline_pixels(tile, polygon.rings)):
                rect = BBox(
                    tile.bbox.xmin + x * width, tile.bbox.ymin + y * height,
                    tile.bbox.xmin + (x + 1) * width,
                    tile.bbox.ymin + (y + 1) * height,
                )
                area = sum(
                    abs(ring_area(clipped)) for clipped in (
                        scalar_clip_polygon_to_rect(tri, rect)
                        for tri in triangles[pid]
                    ) if len(clipped) >= 3
                )
                f = min(max(area / rect.area, 0.0), 1.0)
                total = grid[y, x]
                if covered[y, x]:
                    sums[0, pid] += total
                    sums[2, pid] += (1.0 - f) * total
                elif overlapped[y, x]:
                    sums[1, pid] += total
                    sums[3, pid] += f * total
    return sums


def _holed_stars(seed: int) -> PolygonSet:
    """Random stars, each with a random heptagonal hole well inside the
    nearest of its edges to the centre."""
    rng = np.random.default_rng(seed)
    polygons = []
    for k in range(3):
        center = np.asarray([25.0 + 25.0 * k, 30.0 + 20.0 * (k % 2)])
        outer = random_star_polygon(rng, tuple(center), (12.0, 22.0),
                                    vertices=11).exterior
        a, b = outer - center, np.roll(outer, -1, axis=0) - center
        t = np.clip(np.sum(a * (a - b), axis=1)
                    / np.sum((a - b) ** 2, axis=1), 0.0, 1.0)
        reach = np.hypot(*(a + t[:, None] * (b - a)).T).min()
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 7))[::-1]
        radii = rng.uniform(0.2, 0.6, 7) * reach
        hole = center + np.column_stack(
            [radii * np.cos(angles), radii * np.sin(angles)]
        )
        polygons.append(Polygon(outer, holes=[hole]))
    return PolygonSet(polygons)


#: A quadrilateral whose two edges lie on the padded canvas's first
#: pixel lines up to a rounding at ε = 1050: the outline's corner probes
#: report pixels of the padding no triangle touches.
GRAZING = PolygonSet([Polygon(
    [(0.0, 0.0), (45000.0, 0.0), (31500.0, 40000.0), (0.0, 24000.0)]
)])


def _grazing_points() -> PointDataset:
    rng = np.random.default_rng(11)
    return PointDataset(rng.uniform(-800.0, 45800.0, 40_000),
                        rng.uniform(-800.0, 40800.0, 40_000))


class TestAgainstTheScalarRule:
    """The batched classification reads the statement's own run table
    and one outline pass; these pin it to the per-polygon, per-pixel
    rule with the scalar kernels — loose sums bit for bit, expected
    within 1e-12 — tiled or not."""

    @staticmethod
    def _check(engine, points, polygons):
        result = engine.execute(points, polygons)
        iv, values = result.intervals, result.values
        over, under, over_f, under_f = _scalar_sums(engine, points, polygons)
        assert np.array_equal(iv.loose_lo, values - over)
        assert np.array_equal(iv.loose_hi, values + under)
        np.testing.assert_allclose(iv.expected_lo, values - over_f,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(iv.expected_hi, values + under_f,
                                   rtol=1e-12, atol=0)
        assert iv.contains(brute_force_counts(points, polygons)).all()

    @pytest.mark.parametrize("side", [None, 40, 23])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_holed_stars(self, seed, side):
        rng = np.random.default_rng(seed)
        points = PointDataset(rng.uniform(0, 100, 20_000),
                              rng.uniform(0, 100, 20_000))
        device = None if side is None else GPUDevice(max_resolution=side)
        self._check(
            BoundedRasterJoin(resolution=96, compute_bounds=True,
                              device=device),
            points, _holed_stars(seed),
        )

    @pytest.mark.parametrize("side", [None, 30, 14])
    def test_an_outline_pixel_no_triangle_touches(self, side):
        """The outline is not inside the conservative overlap in
        general: here it reports pixels of the canvas's padding that the
        polygon only grazes within rounding.  Such a pixel is no false
        negative — the classification keeps the overlap test for it."""
        engine = BoundedRasterJoin(
            epsilon=1050.0, compute_bounds=True,
            device=None if side is None else GPUDevice(max_resolution=side),
        )
        (triangles,) = [triangulate_polygon(p) for p in GRAZING]
        grazed = 0
        for tile in engine._make_canvas(GRAZING).tiles(engine.max_resolution):
            ix, iy = outline_pixels_many(tile, {0: GRAZING[0].rings})[0]
            overlap = _overlap_mask(tile, triangles,
                                    conservative_triangle_pixels)
            grazed += int(np.count_nonzero(~overlap[iy, ix]))
        assert grazed
        self._check(engine, _grazing_points(), GRAZING)


class TestTiledCanvas:
    @pytest.mark.parametrize("side", [48, 31, 17])
    def test_count_loose_intervals_equal_the_untiled_canvas(
        self, uniform_points, three_regions, side
    ):
        """Tiles cut the canvas along pixel lines, so each polygon's
        boundary pixels and their totals are the untiled canvas's."""
        whole = BoundedRasterJoin(resolution=128, compute_bounds=True)
        tiled = BoundedRasterJoin(resolution=128, compute_bounds=True,
                                  device=GPUDevice(max_resolution=side))
        a = whole.execute(uniform_points, three_regions)
        b = tiled.execute(uniform_points, three_regions)
        assert b.stats.extra["tiles"] > 1
        assert np.array_equal(a.intervals.loose_lo, b.intervals.loose_lo)
        assert np.array_equal(a.intervals.loose_hi, b.intervals.loose_hi)
        exact = brute_force_counts(uniform_points, three_regions)
        assert b.intervals.contains(exact).all()
