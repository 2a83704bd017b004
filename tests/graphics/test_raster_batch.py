"""Unit tests for the batched rasterization layer.

Every batched primitive must be *bit-identical* to its scalar
per-triangle reference — same snap, same fill-rule tie-break, same
fragment order.  These tests pin that contract triangle by triangle.
"""

import numpy as np
import pytest

from repro.geometry.bbox import BBox
from repro.geometry.triangulate import triangulate_polygon
from repro.graphics.raster_batch import (
    DEFAULT_FRAGMENT_BUDGET,
    bin_polygons_to_tile,
    coverage_by_polygon,
    flatten_triangles,
    rasterize_triangles,
)
from repro.graphics.raster_line import outline_pixels, outline_pixels_many
from repro.graphics.raster_triangle import covered_pixels
from repro.graphics.viewport import Viewport
from tests.conftest import random_star_polygon, scalar_pixels

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
        assert soup.num_triangles == sum(len(t) for t in tris.values())
        t = 0
        for pid in sorted(tris):
            for tri in tris[pid]:
                assert np.array_equal(soup.verts[t], np.asarray(tri))
                assert soup.tri_pid[t] == pid
                t += 1

    def test_empty_soup(self):
        soup = flatten_triangles({})
        assert soup.num_triangles == 0
        frags = rasterize_triangles(VP, soup.verts)
        assert frags.counts.shape == (0,)
        assert len(frags.ix) == 0


class TestFragmentEquality:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_per_triangle_bit_equality(self, seed):
        """Batched fragments match covered_pixels triangle by triangle,
        in the exact same (row-major) order."""
        _, tris = _random_scene(seed)
        soup = flatten_triangles(tris)
        frags = rasterize_triangles(VP, soup.verts)
        per_iy = np.split(frags.iy, np.cumsum(frags.counts)[:-1])
        per_ix = np.split(frags.ix, np.cumsum(frags.counts)[:-1])
        t = 0
        for pid in sorted(tris):
            for tri in tris[pid]:
                xs, ys = covered_pixels(VP, tri)
                assert np.array_equal(per_ix[t], xs)
                assert np.array_equal(per_iy[t], ys)
                t += 1

    def test_chunking_never_changes_output(self):
        """The fragment budget is a memory knob, not a semantic one."""
        _, tris = _random_scene(4)
        soup = flatten_triangles(tris)
        ref = rasterize_triangles(VP, soup.verts)
        for budget in (1, 7, 100, DEFAULT_FRAGMENT_BUDGET):
            got = rasterize_triangles(VP, soup.verts, budget=budget)
            assert np.array_equal(got.tri, ref.tri)
            assert np.array_equal(got.ix, ref.ix)
            assert np.array_equal(got.iy, ref.iy)
            assert np.array_equal(got.counts, ref.counts)

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


class TestCoverageByPolygon:
    def test_slices_match_scalar_units(self):
        _, tris = _random_scene(5)
        coverage = coverage_by_polygon(VP, tris)
        assert set(coverage) == set(tris)
        for pid in tris:
            assert coverage[pid].dtype == np.int64
            assert np.array_equal(coverage[pid], scalar_pixels(VP, tris[pid]))

    def test_requested_subset_keeps_its_pids(self):
        """Sparse, non-zero-based pids (an edit's rebuilt polygons)
        slice the shared fragment array at the right offsets."""
        _, tris = _random_scene(6)
        subset = {pid: tris[pid] for pid in (2, 3, 11)}
        coverage = coverage_by_polygon(VP, subset)
        assert sorted(coverage) == [2, 3, 11]
        for pid in subset:
            assert np.array_equal(coverage[pid], scalar_pixels(VP, tris[pid]))

    def test_every_requested_pid_present(self):
        """A polygon whose triangles are all off-screen still gets an
        (empty) entry — unit builders rely on complete keys."""
        off = np.array([(-50.0, -50.0), (-40.0, -50.0), (-45.0, -40.0)])
        coverage = coverage_by_polygon(VP, {3: [off], 7: []})
        assert len(coverage[3]) == 0 and len(coverage[7]) == 0
        assert coverage_by_polygon(VP, {}) == {}


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
