"""Unit tests for canvases, viewports, and tiling."""

import numpy as np
import pytest

from repro.errors import ResolutionError
from repro.geometry.bbox import BBox
from repro.graphics.viewport import Canvas, Viewport, resolution_for_epsilon


class TestResolutionForEpsilon:
    def test_pixel_diagonal_within_epsilon(self):
        extent = BBox(0, 0, 1000, 700)
        for eps in (1.0, 5.0, 17.3, 100.0):
            w, h = resolution_for_epsilon(extent, eps)
            pw = extent.width / w
            ph = extent.height / h
            assert np.hypot(pw, ph) <= eps + 1e-12

    def test_invalid_epsilon(self):
        with pytest.raises(ResolutionError):
            resolution_for_epsilon(BBox(0, 0, 1, 1), 0.0)
        with pytest.raises(ResolutionError):
            resolution_for_epsilon(BBox(0, 0, 1, 1), -3.0)

    def test_tiny_extent_min_one_pixel(self):
        assert resolution_for_epsilon(BBox(0, 0, 0.001, 0.001), 100.0) == (1, 1)


class TestViewportTransform:
    def test_round_trip_pixel_centers(self):
        vp = Viewport(BBox(10, 20, 110, 220), 50, 100)
        ixs = np.arange(50)
        iys = np.arange(50)
        cx = vp.bbox.xmin + (ixs + 0.5) * vp.pixel_width
        cy = vp.bbox.ymin + (iys + 0.5) * vp.pixel_height
        jx, jy, inside = vp.pixel_of(cx, cy)
        assert inside.all()
        assert np.array_equal(jx, ixs) and np.array_equal(jy, iys)

    def test_clipping_flags(self):
        vp = Viewport(BBox(0, 0, 10, 10), 10, 10)
        ix, iy, inside = vp.pixel_of(
            np.asarray([-0.1, 0.0, 9.99, 10.0]), np.asarray([5.0, 5.0, 5.0, 5.0])
        )
        assert inside.tolist() == [False, True, True, False]

    def test_orientation_preserved(self):
        vp = Viewport(BBox(0, 0, 10, 10), 100, 100)
        sx, sy = vp.to_screen(np.asarray([0.0, 10.0]), np.asarray([0.0, 10.0]))
        assert sx[1] > sx[0] and sy[1] > sy[0]

    def test_pixel_bbox(self):
        vp = Viewport(BBox(0, 0, 10, 10), 10, 10)
        rects = vp.pixel_rects(np.asarray([3, 0]), np.asarray([7, 9]))
        assert rects.tolist() == [[3, 7, 4, 8], [0, 9, 1, 10]]

    def test_invalid_viewport(self):
        with pytest.raises(ResolutionError):
            Viewport(BBox(0, 0, 1, 1), 0, 5)


class TestCanvas:
    def test_for_epsilon_diagonal_bound(self):
        canvas = Canvas.for_epsilon(BBox(0, 0, 1000, 400), 13.0)
        assert canvas.pixel_diagonal <= 13.0

    def test_for_resolution_aspect(self):
        canvas = Canvas.for_resolution(BBox(0, 0, 200, 100), 512)
        assert canvas.width == 512 and canvas.height == 256

    def test_for_resolution_tall_extent(self):
        canvas = Canvas.for_resolution(BBox(0, 0, 100, 200), 512)
        assert canvas.height == 512 and canvas.width == 256

    def test_num_tiles(self):
        canvas = Canvas(BBox(0, 0, 100, 100), 1000, 700)
        assert len(list(canvas.tiles(max_resolution=512))) == 2 * 2

    def test_single_tile_is_full_viewport(self):
        canvas = Canvas(BBox(0, 0, 100, 100), 256, 256)
        tiles = list(canvas.tiles(max_resolution=512))
        assert len(tiles) == 1
        assert tiles[0].width == 256 and tiles[0].x_offset == 0


class TestTiling:
    def test_tiles_cover_all_pixels_once(self):
        canvas = Canvas(BBox(0, 0, 10, 10), 1000, 900)
        seen = np.zeros((900, 1000), dtype=int)
        for tile in canvas.tiles(max_resolution=256):
            seen[
                tile.y_offset:tile.y_offset + tile.height,
                tile.x_offset:tile.x_offset + tile.width,
            ] += 1
        assert np.all(seen == 1)

    def test_tile_pixel_grids_align_with_canvas(self):
        """A point maps to the same global pixel through any tile."""
        canvas = Canvas(BBox(0, 0, 100, 100), 640, 640)
        full = canvas.full_viewport()
        rng = np.random.default_rng(7)
        xs = rng.uniform(0, 100, 5000)
        ys = rng.uniform(0, 100, 5000)
        gx, gy, g_in = full.pixel_of(xs, ys)
        assigned = np.zeros(len(xs), dtype=int)
        for tile in canvas.tiles(max_resolution=128):
            ix, iy, inside = tile.pixel_of(xs, ys)
            assigned += inside
            assert np.array_equal(ix[inside] + tile.x_offset, gx[inside])
            assert np.array_equal(iy[inside] + tile.y_offset, gy[inside])
        assert np.all(assigned == g_in.astype(int))

    def test_each_point_in_exactly_one_tile(self):
        canvas = Canvas(BBox(0, 0, 50, 50), 500, 500)
        rng = np.random.default_rng(11)
        xs = rng.uniform(0, 50, 2000)
        ys = rng.uniform(0, 50, 2000)
        count = np.zeros(len(xs), dtype=int)
        for tile in canvas.tiles(max_resolution=99):
            _, _, inside = tile.pixel_of(xs, ys)
            count += inside
        assert np.all(count == 1)

    def test_bad_max_resolution(self):
        canvas = Canvas(BBox(0, 0, 1, 1), 4, 4)
        with pytest.raises(ResolutionError):
            list(canvas.tiles(max_resolution=0))


class TestDegenerateExtent:
    """Regression: a zero-width/height extent (collinear points, a single
    vertex) must raise ResolutionError instead of dividing by zero."""

    def test_for_resolution_zero_width(self):
        with pytest.raises(ResolutionError):
            Canvas.for_resolution(BBox(5, 0, 5, 10), 256)

    def test_for_resolution_zero_height(self):
        with pytest.raises(ResolutionError):
            Canvas.for_resolution(BBox(0, 7, 10, 7), 256)

    def test_for_resolution_point_extent(self):
        with pytest.raises(ResolutionError):
            Canvas.for_resolution(BBox(3, 3, 3, 3), 256)

    def test_for_epsilon_degenerate(self):
        with pytest.raises(ResolutionError):
            Canvas.for_epsilon(BBox(5, 0, 5, 10), 1.0)

    def test_constructor_degenerate(self):
        with pytest.raises(ResolutionError):
            Canvas(BBox(0, 2, 0, 2), 16, 16)

    def test_non_finite_extent(self):
        with pytest.raises(ResolutionError):
            Canvas.for_resolution(BBox(0, 0, np.inf, 10), 256)

    def test_valid_extent_still_works(self):
        canvas = Canvas.for_resolution(BBox(0, 0, 10, 5), 128)
        assert (canvas.width, canvas.height) == (128, 64)
