"""Unit tests for watertight triangle rasterization.

These properties are the foundation of the whole reproduction: pixel-center
coverage and exact partitioning of shared edges.
"""

import numpy as np
import pytest

from repro.geometry.bbox import BBox
from repro.geometry.polygon import Polygon
from repro.geometry.triangulate import triangulate_polygon
from repro.graphics.viewport import Viewport
from tests.graphics.reference_raster import (
    accumulate_triangle_sums,
    covered_pixels,
    triangle_coverage_mask,
)
from tests.conftest import random_star_polygon

VP = Viewport(BBox(0, 0, 32, 32), 32, 32)


def cover_set(viewport, tri):
    xs, ys = covered_pixels(viewport, tri)
    return set(zip(xs.tolist(), ys.tolist()))


class TestBasicCoverage:
    def test_center_rule_large_triangle(self):
        tri = np.asarray([(0, 0), (32, 0), (0, 32)], float)
        xs, ys = covered_pixels(VP, tri)
        # Pixel (i, j) covered iff center (i+.5, j+.5) is inside x+y<32
        # (hypotenuse centers lie exactly on the edge -> fill rule decides).
        expected = {(i, j) for i in range(32) for j in range(32)
                    if (i + 0.5) + (j + 0.5) < 32}
        got = cover_set(VP, tri)
        boundary = {(i, j) for i in range(32) for j in range(32)
                    if (i + 0.5) + (j + 0.5) == 32}
        assert expected <= got <= expected | boundary

    def test_degenerate_triangle_empty(self):
        tri = np.asarray([(1, 1), (5, 5), (9, 9)], float)
        assert cover_set(VP, tri) == set()

    def test_subpixel_triangle(self):
        """A triangle smaller than a pixel covers at most one pixel."""
        tri = np.asarray([(3.1, 3.1), (3.4, 3.2), (3.2, 3.4)], float)
        assert len(cover_set(VP, tri)) <= 1

    def test_triangle_covering_center_exactly_one_pixel(self):
        tri = np.asarray([(3.4, 3.4), (3.7, 3.4), (3.5, 3.7)], float)
        assert cover_set(VP, tri) == {(3, 3)}

    def test_offscreen_clipped(self):
        tri = np.asarray([(-20, -20), (-1, -20), (-10, -1)], float)
        assert cover_set(VP, tri) == set()

    def test_partially_offscreen(self):
        tri = np.asarray([(-16, -16), (24, -16), (-16, 24)], float)
        got = cover_set(VP, tri)
        assert got  # the hypotenuse x + y = 8 leaves on-screen pixels
        assert all(0 <= x < 32 and 0 <= y < 32 for x, y in got)

    def test_winding_independent(self):
        ccw = np.asarray([(2, 2), (20, 3), (8, 25)], float)
        cw = ccw[::-1].copy()
        assert cover_set(VP, ccw) == cover_set(VP, cw)


class TestWatertightness:
    def test_shared_edge_partition_axis_aligned(self):
        """Two triangles of a split square: every center exactly once."""
        a = np.asarray([(0, 0), (8, 0), (8, 8)], float)
        b = np.asarray([(0, 0), (8, 8), (0, 8)], float)
        ca, cb = cover_set(VP, a), cover_set(VP, b)
        assert not (ca & cb)
        assert ca | cb == {(i, j) for i in range(8) for j in range(8)}

    def test_shared_edge_partition_through_centers(self):
        """Diagonal passing exactly through pixel centers still partitions."""
        a = np.asarray([(0.5, 0.5), (10.5, 0.5), (10.5, 10.5)], float)
        b = np.asarray([(0.5, 0.5), (10.5, 10.5), (0.5, 10.5)], float)
        ca, cb = cover_set(VP, a), cover_set(VP, b)
        assert not (ca & cb)

    def test_fan_partition_random(self, rng):
        """Triangulations of random polygons never double-count a pixel."""
        for _ in range(30):
            poly = random_star_polygon(
                rng, center=(16, 16), radius_range=(3, 14),
                vertices=int(rng.integers(5, 16)),
            )
            seen: set = set()
            for tri in triangulate_polygon(poly):
                pix = cover_set(VP, tri)
                assert not (seen & pix), "double-counted pixel on shared edge"
                seen |= pix

    def test_quad_grid_partition(self):
        """A lattice of unit squares (each 2 triangles) tiles the screen."""
        seen = np.zeros((16, 16), dtype=int)
        for i in range(0, 16, 4):
            for j in range(0, 16, 4):
                square = Polygon([(i, j), (i + 4, j), (i + 4, j + 4), (i, j + 4)])
                for tri in triangulate_polygon(square):
                    xs, ys = covered_pixels(VP, tri)
                    np.add.at(seen, (ys, xs), 1)
        assert np.all(seen[:16, :16] == 1)


class TestCoverageVsPIP:
    def test_coverage_matches_center_pip_generic(self, rng):
        """Away from boundaries, coverage == PIP test of the pixel center."""
        for _ in range(20):
            poly = random_star_polygon(
                rng, center=(16, 16), radius_range=(4, 14), vertices=8
            )
            covered = np.zeros((32, 32), dtype=bool)
            for tri in triangulate_polygon(poly):
                xs, ys = covered_pixels(VP, tri)
                covered[ys, xs] = True
            cx, cy = np.meshgrid(np.arange(32) + 0.5, np.arange(32) + 0.5)
            inside = poly.contains_points(cx.ravel(), cy.ravel()).reshape(32, 32)
            # Allow disagreement only within snapping distance of an edge:
            # find mismatches and check they are boundary-adjacent.
            mismatch = covered != inside
            if mismatch.any():
                ys, xs = np.nonzero(mismatch)
                for x, y in zip(xs, ys):
                    assert poly.on_boundary(x + 0.5, y + 0.5, tol=1e-2), (
                        f"non-boundary mismatch at pixel ({x}, {y})"
                    )


class TestAccumulate:
    def test_sum_over_covered_pixels(self):
        channel = np.ones((32, 32), dtype=np.float32)
        tri = np.asarray([(0, 0), (8, 0), (8, 8)], float)
        total = accumulate_triangle_sums(VP, channel, tri)
        assert total == len(cover_set(VP, tri))

    def test_empty_triangle_zero(self):
        channel = np.ones((32, 32), dtype=np.float32)
        tri = np.asarray([(100, 100), (101, 100), (100, 101)], float)
        assert accumulate_triangle_sums(VP, channel, tri) == 0.0

    def test_float64_reduction(self):
        """Large channel values reduce without float32 saturation."""
        channel = np.full((32, 32), 2.0**24, dtype=np.float32)
        tri = np.asarray([(0, 0), (32, 0), (0, 32)], float)
        total = accumulate_triangle_sums(VP, channel, tri)
        assert total == 2.0**24 * len(cover_set(VP, tri))
