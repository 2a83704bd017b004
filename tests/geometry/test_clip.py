"""Unit tests for clipping primitives."""

import numpy as np
import pytest

from repro.geometry.bbox import BBox
from repro.geometry.clip import (
    clip_polygon_to_rect,
    pixel_coverage_fraction,
    ring_area,
)
from repro.geometry.triangulate import triangulate_polygon
from tests.conftest import random_star_polygon

RECT = BBox(0, 0, 10, 10)


def fraction(triangles, rect: BBox) -> float:
    """The batch fraction of one rectangle, paired with every triangle."""
    pairs = np.indices((1, len(triangles))).reshape(2, -1)
    return pixel_coverage_fraction(
        triangles, [rect.as_tuple()], tuple(pairs)
    )[0]


class TestSutherlandHodgman:
    def test_fully_inside_unchanged(self):
        ring = np.asarray([(1, 1), (5, 1), (3, 5)], float)
        out = clip_polygon_to_rect(ring, RECT)
        assert abs(ring_area(out) - ring_area(ring)) < 1e-12

    def test_fully_outside_empty(self):
        ring = np.asarray([(20, 20), (25, 20), (22, 25)], float)
        out = clip_polygon_to_rect(ring, RECT)
        assert abs(ring_area(out)) < 1e-12 if len(out) >= 3 else True

    def test_half_clipped_square(self):
        ring = np.asarray([(-5, 0), (5, 0), (5, 10), (-5, 10)], float)
        out = clip_polygon_to_rect(ring, RECT)
        assert abs(abs(ring_area(out)) - 50.0) < 1e-9

    def test_concave_ring_clip_area(self):
        # Concave arrow clipped to its right half.
        ring = np.asarray([(0, 0), (10, 0), (10, 10), (5, 5), (0, 10)], float)
        out = clip_polygon_to_rect(ring, BBox(5, 0, 10, 10))
        assert abs(abs(ring_area(out)) - (50.0 - 12.5)) < 1e-9

    def test_rect_covering_everything(self):
        ring = np.asarray([(1, 1), (2, 1), (2, 2), (1, 2)], float)
        out = clip_polygon_to_rect(ring, BBox(-100, -100, 100, 100))
        assert abs(ring_area(out) - 1.0) < 1e-12


class TestPixelCoverage:
    def test_full_pixel(self, unit_square):
        tris = triangulate_polygon(unit_square)
        assert fraction(tris, BBox(2, 2, 3, 3)) == 1.0

    def test_empty_pixel(self, unit_square):
        tris = triangulate_polygon(unit_square)
        assert fraction(tris, BBox(20, 20, 21, 21)) == 0.0

    def test_half_pixel(self):
        from repro.geometry.polygon import Polygon

        tri = Polygon([(0, 0), (1, 0), (0, 1)])
        tris = triangulate_polygon(tri)
        assert abs(fraction(tris, BBox(0, 0, 1, 1)) - 0.5) < 1e-12

    def test_hole_reduces_fraction(self, holed_polygon):
        tris = triangulate_polygon(holed_polygon)
        # Pixel entirely inside the hole.
        assert fraction(tris, BBox(9, 9, 11, 11)) == 0.0
        # Pixel straddling the hole edge.
        frac = fraction(tris, BBox(4, 9, 6, 11))
        assert abs(frac - 0.5) < 1e-9

    def test_total_coverage_equals_area(self, rng):
        """Summing fraction x pixel-area over a grid reproduces the area."""
        poly = random_star_polygon(rng, center=(8, 8), radius_range=(2, 6),
                                   vertices=9)
        tris = triangulate_polygon(poly)
        total = 0.0
        for i in range(16):
            for j in range(16):
                rect = BBox(i, j, i + 1, j + 1)
                total += fraction(tris, rect) * rect.area
        assert abs(total - poly.area) < 1e-6 * poly.area

    def test_degenerate_rect(self, unit_square):
        tris = triangulate_polygon(unit_square)
        assert fraction(tris, BBox(1, 1, 1, 1)) == 0.0

    def test_no_triangles(self):
        assert fraction([], BBox(0, 0, 1, 1)) == 0.0

    def test_triangle_containing_the_pixel(self):
        tri = np.asarray([(-10, -10), (10, -10), (0, 10)], float)
        assert fraction([tri], BBox(-1, -1, 0, 0)) == 1.0

    def test_triangle_touching_a_side_covers_nothing(self):
        """Its bounding box meets the pixel, so the pre-filter keeps it,
        and the clip leaves a zero-area sliver."""
        tri = np.asarray([(1, 0), (2, 0), (1, 1)], float)
        assert fraction([tri], BBox(0, 0, 1, 1)) == 0.0

    def test_triangle_touching_a_corner_covers_nothing(self):
        tri = np.asarray([(1, 1), (2, 1), (1, 2)], float)
        assert fraction([tri], BBox(0, 0, 1, 1)) == 0.0

    def test_degenerate_triangle_covers_nothing(self):
        tri = np.asarray([(0, 0), (1, 1), (0.5, 0.5)], float)
        assert fraction([tri], BBox(0, 0, 1, 1)) == 0.0

    def test_far_triangles_change_no_bit(self, rng):
        """Triangles the pre-filter skips contribute nothing: adding them
        leaves the fraction's bits as they were."""
        poly = random_star_polygon(rng, center=(5, 5), radius_range=(2, 4),
                                   vertices=9)
        tris = np.asarray(triangulate_polygon(poly))
        far = tris + 100.0
        rect = BBox(4.3, 4.7, 5.3, 5.7)
        alone = fraction(tris, rect)
        mixed = fraction(
            np.concatenate([far, tris, far]), rect
        )
        assert mixed.hex() == alone.hex()

    def test_sequence_and_array_agree(self, concave_polygon):
        tris = triangulate_polygon(concave_polygon)
        rect = BBox(4.0, 4.0, 6.0, 6.0)
        assert fraction(list(tris), rect) == (
            fraction(np.asarray(tris), rect)
        )

    def test_overlapping_triangles_clamp_to_one(self):
        tri = np.asarray([(-10, -10), (10, -10), (0, 10)], float)
        assert fraction([tri, tri], BBox(-1, -1, 0, 0)) == 1.0
