"""Unit tests for the scanline fill, the raster suites' polygon oracle
(``tests/graphics/reference_raster.py``)."""

import numpy as np
import pytest

from repro.geometry.bbox import BBox
from repro.geometry.polygon import Polygon
from repro.geometry.triangulate import triangulate_polygon
from repro.graphics.viewport import Viewport
from tests.conftest import random_star_polygon
from tests.graphics.reference_raster import (
    covered_pixels,
    scanline_polygon_pixels,
)

VP = Viewport(BBox(0, 0, 32, 32), 32, 32)


def scan_set(viewport, poly):
    xs, ys = scanline_polygon_pixels(viewport, poly.rings)
    return set(zip(xs.tolist(), ys.tolist()))


def triangle_union_set(viewport, poly):
    out: set = set()
    for tri in triangulate_polygon(poly):
        xs, ys = covered_pixels(viewport, tri)
        out |= set(zip(xs.tolist(), ys.tolist()))
    return out


class TestBasics:
    def test_axis_aligned_square(self):
        square = Polygon([(2, 2), (10, 2), (10, 10), (2, 10)])
        assert scan_set(VP, square) == {
            (i, j) for i in range(2, 10) for j in range(2, 10)
        }

    def test_hole_excluded(self, holed_polygon):
        # Exterior [0,20]^2 covers centers i+0.5 in (0,20): 20x20 pixels;
        # the hole [5,15]^2 removes centers in (5,15): 10x10 pixels.
        got = scan_set(VP, holed_polygon)
        assert (2, 2) in got
        assert (10, 10) not in got
        assert len(got) == 20 * 20 - 10 * 10

    def test_offscreen_polygon(self):
        poly = Polygon([(100, 100), (110, 100), (105, 110)])
        assert scan_set(VP, poly) == set()

    def test_subpixel_polygon(self):
        poly = Polygon([(5.1, 5.1), (5.3, 5.1), (5.2, 5.3)])
        assert len(scan_set(VP, poly)) <= 1


class TestAgreementWithTrianglePath:
    """The central equivalence: scanline == union of triangle coverage."""

    def test_random_stars(self, rng):
        for _ in range(60):
            poly = random_star_polygon(
                rng, center=(16, 16), radius_range=(3, 14),
                vertices=int(rng.integers(5, 16)),
            )
            assert scan_set(VP, poly) == triangle_union_set(VP, poly)

    def test_grid_aligned_squares(self):
        for offset in (0.0, 0.25, 0.5, 0.75):
            square = Polygon(
                [
                    (4 + offset, 4 + offset),
                    (12 + offset, 4 + offset),
                    (12 + offset, 12 + offset),
                    (4 + offset, 12 + offset),
                ]
            )
            assert scan_set(VP, square) == triangle_union_set(VP, square)

    def test_holed_polygon(self, holed_polygon):
        assert scan_set(VP, holed_polygon) == triangle_union_set(VP, holed_polygon)

    def test_thin_sliver(self):
        sliver = Polygon([(1, 1), (30, 1.2), (30, 1.4), (1, 1.6)])
        assert scan_set(VP, sliver) == triangle_union_set(VP, sliver)


class TestEndpointFixup:
    """Regression for the span-endpoint fix-up rewrite.

    The old fix-up iterated ``(i_start - 1, i_start)`` with a guard that
    made the second element unreachable, and stopped after one pixel —
    an endpoint misplaced by two or more pixels stayed wrong.  The walk
    version must agree with the exact per-pixel-center oracle (and hence
    the triangle path) on every adversarial shape below.
    """

    @staticmethod
    def oracle_set(viewport, poly):
        """Ground truth: exact even-odd test of every pixel center."""
        from repro.graphics.raster_triangle import _HALF, SUBPIXEL_SCALE
        from tests.graphics.reference_raster import (
            _center_inside_exact,
            _snap_rings,
        )

        snapped = _snap_rings(viewport, poly.rings)
        out = set()
        for j in range(viewport.height):
            cy = j * SUBPIXEL_SCALE + _HALF
            for i in range(viewport.width):
                if _center_inside_exact(i * SUBPIXEL_SCALE + _HALF, cy, snapped):
                    out.add((i, j))
        return out

    def assert_all_paths_agree(self, poly):
        expected = self.oracle_set(VP, poly)
        assert scan_set(VP, poly) == expected
        assert triangle_union_set(VP, poly) == expected

    def test_near_horizontal_slivers(self):
        # Long, nearly flat slivers whose crossings sit a hair off row
        # centers — the worst case for float span endpoints.
        for dy in (1e-7, 1e-4, 0.01):
            sliver = Polygon(
                [(0.3, 4.5 - dy), (31.7, 4.5 + dy), (31.7, 4.5 + 3 * dy),
                 (0.3, 4.5 + dy)]
            )
            self.assert_all_paths_agree(sliver)

    def test_vertices_exactly_on_row_centers(self):
        # Vertices snapped precisely onto pixel-center scanlines exercise
        # the half-open crossing rule and coincident-crossing pairing.
        poly = Polygon([(2.5, 2.5), (28.5, 2.5), (28.5, 9.5), (2.5, 9.5)])
        self.assert_all_paths_agree(poly)
        needle = Polygon([(1.5, 6.5), (30.5, 6.5), (16.5, 7.5)])
        self.assert_all_paths_agree(needle)

    def test_needle_apex_on_row_center(self):
        # A skinny triangle whose apex sits exactly on a row center.
        needle = Polygon([(16.5, 8.5), (31.5, 8.4), (31.5, 8.6)])
        self.assert_all_paths_agree(needle)

    def test_random_adversarial_slivers(self, rng):
        for _ in range(40):
            x0 = float(rng.uniform(0, 8))
            x1 = float(rng.uniform(24, 32))
            y = float(rng.integers(1, 30)) + 0.5 + float(
                rng.choice([0.0, 1e-9, -1e-9, 1e-6])
            )
            thickness = float(rng.uniform(1e-6, 0.4))
            sliver = Polygon(
                [(x0, y), (x1, y + thickness / 3), (x1, y + thickness),
                 (x0, y + thickness / 2)]
            )
            self.assert_all_paths_agree(sliver)

    def test_sliver_spanning_viewport_edges(self):
        # Spans that extend beyond the window clamp cleanly.
        sliver = Polygon([(-10, 3.5), (45, 3.5002), (45, 3.9), (-10, 3.8)])
        expected = self.oracle_set(VP, sliver)
        assert scan_set(VP, sliver) == expected
