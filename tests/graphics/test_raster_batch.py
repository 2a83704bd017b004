"""Unit tests for the batched rasterization layer.

Every batched primitive must be *bit-identical* to its scalar
per-triangle reference — same snap, same fill-rule tie-break, same
fragment order.  These tests pin that contract triangle by triangle, on
both kernels of the row scan and the outline supercover: the compiled
ones and their numpy forms.
"""

import tracemalloc

import numpy as np
import pytest

from repro.geometry.bbox import BBox
from repro.geometry.triangulate import triangulate_polygon
from repro.graphics.raster_batch import (
    bin_polygons_to_tile,
    coverage_by_polygon,
    flatten_triangles,
    rasterize_triangles,
)
from repro.graphics.raster_line import outline_pixels_many
from repro.graphics.viewport import Viewport
from tests.conftest import random_star_polygon, run_pixels, scalar_pixels
from tests.graphics.reference_raster import covered_pixels, outline_pixels

VP = Viewport(BBox(0, 0, 100, 100), 128, 96)


def _random_scene(seed: int, num: int = 16):
    rng = np.random.default_rng(seed)
    polys = [
        random_star_polygon(
            rng,
            center=(rng.uniform(10, 90), rng.uniform(10, 90)),
            radius_range=(2, 20),
            vertices=int(rng.integers(3, 12)),
        )
        for _ in range(num)
    ]
    return polys, {pid: triangulate_polygon(p) for pid, p in enumerate(polys)}


class TestFlatten:
    def test_soup_order_and_owner_map(self):
        _, tris = _random_scene(1)
        soup = flatten_triangles(tris)
        assert len(soup.verts) == sum(len(t) for t in tris.values())
        t = 0
        for pid in sorted(tris):
            for tri in tris[pid]:
                assert np.array_equal(soup.verts[t], np.asarray(tri))
                assert soup.tri_pid[t] == pid
                t += 1

    def test_empty_soup(self):
        soup = flatten_triangles({})
        assert len(soup.verts) == 0
        frags = rasterize_triangles(VP, soup.verts)
        assert frags.counts.shape == (0,)
        assert len(frags.pixels) == len(frags.row_len) == 0


@pytest.mark.usefixtures("raster_kernels")
class TestFragmentEquality:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_per_triangle_bit_equality(self, seed):
        """Batched fragments match covered_pixels triangle by triangle,
        in the exact same (row-major) order."""
        _, tris = _random_scene(seed)
        soup = flatten_triangles(tris)
        frags = rasterize_triangles(VP, soup.verts)
        per_tri = np.split(frags.pixels, np.cumsum(frags.counts)[:-1])
        t = 0
        for pid in sorted(tris):
            for tri in tris[pid]:
                xs, ys = covered_pixels(VP, tri)
                assert np.array_equal(per_tri[t], ys * VP.width + xs)
                t += 1
        assert np.array_equal(frags.ix, frags.pixels % VP.width)
        assert np.array_equal(frags.iy, frags.pixels // VP.width)

    def test_row_table_is_the_product(self):
        """The fragments are the row table expanded and nothing else:
        one run of consecutive flat pixels per covered row, rows
        triangle-major and bottom-up within a triangle."""
        _, tris = _random_scene(4)
        frags = rasterize_triangles(VP, flatten_triangles(tris).verts)
        assert (frags.row_len > 0).all()
        assert np.array_equal(frags.pixels, np.concatenate([
            np.arange(first, first + length)
            for first, length in zip(frags.row_first, frags.row_len)
        ]))
        assert np.array_equal(
            np.bincount(frags.row_tri, weights=frags.row_len,
                        minlength=len(frags.counts)),
            frags.counts,
        )
        assert (np.diff(frags.row_tri) >= 0).all()
        same = np.diff(frags.row_tri) == 0
        rows = frags.row_first // VP.width
        assert (np.diff(rows)[same] >= 1).all()  # thin slivers skip rows
        # A row never wraps past the canvas edge.
        assert (frags.row_first % VP.width + frags.row_len <= VP.width).all()

    def test_one_pixel_canvas(self):
        view = Viewport(BBox(0, 0, 1, 1), 1, 1)
        tris = [
            np.array([(-1.0, -1.0), (3.0, -1.0), (-1.0, 3.0)]),  # covers it
            np.array([(0.0, 0.0), (0.4, 0.0), (0.0, 0.4)]),  # misses center
            np.array([(2.0, 2.0), (3.0, 2.0), (2.0, 3.0)]),  # off canvas
        ]
        frags = rasterize_triangles(view, np.stack(tris))
        assert frags.counts.tolist() == [
            len(covered_pixels(view, tri)[0]) for tri in tris
        ] == [1, 0, 0]
        assert frags.pixels.tolist() == [0]

    def test_raster_stays_within_a_byte_bound(self):
        """The raster keeps its row table and expands nothing: a
        full-canvas soup at 1024^2 peaks below 4x the pixel array the
        table expands to (the block-wise ix / iy / tri emission it
        replaced measured 9x)."""
        view = Viewport(BBox(0, 0, 100, 100), 1024, 1024)
        rng = np.random.default_rng(11)
        fan = [
            np.array([(50.0, 50.0), a, b])
            for a, b in [((0, 0), (100, 0)), ((100, 0), (100, 100)),
                         ((100, 100), (0, 100)), ((0, 100), (0, 0))]
        ]
        small = rng.uniform(0, 100, size=(200, 1, 2)) + rng.uniform(
            -3, 3, size=(200, 3, 2)
        )
        verts = np.concatenate([np.stack(fan), small])
        tracemalloc.start()
        try:
            frags = rasterize_triangles(view, verts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(frags.pixels) >= 1024 * 1024
        assert peak <= 4 * frags.pixels.nbytes

    def test_degenerate_and_offscreen_triangles(self):
        """Zero-area and fully clipped triangles yield zero fragments,
        matching the scalar reference."""
        tris = [
            np.array([(10.0, 10.0), (20.0, 10.0), (30.0, 10.0)]),  # collinear
            np.array([(5.0, 5.0), (5.0, 5.0), (5.0, 5.0)]),  # point
            np.array([(-50.0, -50.0), (-40.0, -50.0), (-45.0, -40.0)]),
            np.array([(10.0, 10.0), (40.0, 12.0), (25.0, 30.0)]),  # live
        ]
        verts = np.stack(tris)
        frags = rasterize_triangles(VP, verts)
        for t, tri in enumerate(tris):
            xs, ys = covered_pixels(VP, tri)
            assert frags.counts[t] == len(xs)
        assert frags.counts[0] == 0
        assert frags.counts[1] == 0
        assert frags.counts[2] == 0
        assert frags.counts[3] > 0


def assert_runs_of(runs: np.ndarray, triangles) -> None:
    """``runs`` are ascending, maximal where rows abut, and expand to the
    scalar fragments of ``triangles``, sorted."""
    assert runs.dtype == np.int64 and runs.shape[1:] == (2,)
    assert (runs[:, 1] > runs[:, 0]).all()
    assert (np.diff(runs[:, 0]) >= 0).all()
    assert not (runs[1:, 0] == runs[:-1, 1]).any()  # abutting runs merge
    assert np.array_equal(
        run_pixels(runs), np.sort(scalar_pixels(VP, triangles))
    )


@pytest.mark.usefixtures("raster_kernels")
class TestCoverageByPolygon:
    def test_runs_match_scalar_units(self):
        _, tris = _random_scene(5)
        coverage = coverage_by_polygon(VP, tris)
        assert set(coverage) == set(tris)
        for pid in tris:
            assert_runs_of(coverage[pid], tris[pid])

    def test_a_full_canvas_is_one_run(self):
        """Rows that reach the right edge abut the next row's first
        pixel: two triangles covering the canvas merge into one run."""
        box = [np.array([(0.0, 0.0), (100.0, 0.0), (100.0, 100.0)]),
               np.array([(0.0, 0.0), (100.0, 100.0), (0.0, 100.0)])]
        (runs,) = coverage_by_polygon(VP, {0: box}).values()
        assert runs.tolist() == [[0, VP.width * VP.height]]

    def test_requested_subset_keeps_its_pids(self):
        """Sparse, non-zero-based pids (an edit's rebuilt polygons)
        slice the shared run array at the right offsets."""
        _, tris = _random_scene(6)
        subset = {pid: tris[pid] for pid in (2, 3, 11)}
        coverage = coverage_by_polygon(VP, subset)
        assert sorted(coverage) == [2, 3, 11]
        for pid in subset:
            assert_runs_of(coverage[pid], tris[pid])

    def test_every_requested_pid_present(self):
        """A polygon whose triangles are all off-screen still gets an
        (empty) entry — unit builders rely on complete keys."""
        off = np.array([(-50.0, -50.0), (-40.0, -50.0), (-45.0, -40.0)])
        coverage = coverage_by_polygon(VP, {3: [off], 7: []})
        assert len(coverage[3]) == 0 and len(coverage[7]) == 0
        assert coverage_by_polygon(VP, {}) == {}


@pytest.mark.usefixtures("raster_kernels")
class TestOutlineMany:
    def test_matches_single_polygon_outline(self):
        polys, _ = _random_scene(7)
        rings = {pid: p.rings for pid, p in enumerate(polys)}
        many = outline_pixels_many(VP, rings)
        assert set(many) == set(rings)
        for pid, p in enumerate(polys):
            ox, oy = outline_pixels(VP, p.rings)
            assert np.array_equal(many[pid][0], ox)
            assert np.array_equal(many[pid][1], oy)

    def test_requested_but_empty(self):
        many = outline_pixels_many(VP, {5: []})
        assert len(many[5][0]) == 0
        assert many[5][0].dtype == np.int64

    def test_holed_polygon(self, holed_polygon):
        many = outline_pixels_many(VP, {0: holed_polygon.rings})
        ox, oy = outline_pixels(VP, holed_polygon.rings)
        assert np.array_equal(many[0][0], ox)
        assert np.array_equal(many[0][1], oy)


class TestTileBinning:
    def test_matches_bbox_intersects(self):
        polys, _ = _random_scene(8, num=32)
        xmin = np.array([p.bbox.xmin for p in polys])
        ymin = np.array([p.bbox.ymin for p in polys])
        xmax = np.array([p.bbox.xmax for p in polys])
        ymax = np.array([p.bbox.ymax for p in polys])
        canvas_tiles = [
            Viewport(BBox(0, 0, 50, 50), 64, 48),
            Viewport(BBox(50, 0, 100, 50), 64, 48),
            Viewport(BBox(25, 25, 75, 75), 64, 48),
            Viewport(BBox(200, 200, 300, 300), 64, 48),  # empty
        ]
        for tile in canvas_tiles:
            hit = bin_polygons_to_tile(tile, (xmin, xmax, ymin, ymax))
            for pid, p in enumerate(polys):
                assert hit[pid] == tile.bbox.intersects(p.bbox)
