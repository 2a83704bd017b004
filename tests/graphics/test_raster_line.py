"""Unit tests for supercover line rasterization and outlines."""

import numpy as np
import pytest

from repro.geometry.bbox import BBox
from repro.geometry.polygon import Polygon
from repro.graphics.raster_line import (
    outline_pixels,
    outline_pixels_many,
    supercover_line,
)
from repro.graphics.viewport import Viewport

VP = Viewport(BBox(0, 0, 16, 16), 16, 16)


def line_set(ax, ay, bx, by, w=16, h=16):
    xs, ys = supercover_line(ax, ay, bx, by, w, h)
    return set(zip(xs.tolist(), ys.tolist()))


class TestSupercoverLine:
    def test_horizontal(self):
        got = line_set(0.5, 3.5, 7.5, 3.5)
        assert got == {(i, 3) for i in range(8)}

    def test_vertical(self):
        got = line_set(2.5, 0.5, 2.5, 5.5)
        assert got == {(2, j) for j in range(6)}

    def test_diagonal_supercover_includes_corner_neighbors(self):
        """A lattice-corner-crossing diagonal reports all touched pixels."""
        got = line_set(0.0, 0.0, 4.0, 4.0)
        # Passes exactly through corners (1,1), (2,2), (3,3): supercover
        # must include both diagonals' pixels around each corner.
        for k in range(4):
            assert (k, k) in got

    def test_point_segment(self):
        got = line_set(3.5, 3.5, 3.5, 3.5)
        assert got == {(3, 3)}

    def test_clipped_to_grid(self):
        got = line_set(-5.0, 8.5, 25.0, 8.5)
        assert got == {(i, 8) for i in range(16)}

    def test_fully_outside(self):
        assert line_set(-5, -5, -1, -1) == set()

    def test_conservative_contains_all_crossed_pixels(self, rng):
        """Every pixel whose interior the segment passes through is found.

        Verified by dense parametric sampling as an independent oracle.
        """
        for _ in range(50):
            a = rng.uniform(0, 16, 2)
            b = rng.uniform(0, 16, 2)
            got = line_set(*a, *b)
            ts = np.linspace(0, 1, 2000)
            pts = a[None, :] + ts[:, None] * (b - a)[None, :]
            sampled = set(
                zip(
                    np.floor(pts[:, 0]).astype(int).tolist(),
                    np.floor(pts[:, 1]).astype(int).tolist(),
                )
            )
            sampled = {
                (x, y) for x, y in sampled if 0 <= x < 16 and 0 <= y < 16
            }
            assert sampled <= got


class TestOutlinePixels:
    def test_square_outline_ring(self):
        square = Polygon([(2, 2), (10, 2), (10, 10), (2, 10)])
        xs, ys = outline_pixels(VP, square.rings)
        got = set(zip(xs.tolist(), ys.tolist()))
        # Outline must include the 4 corner pixels and no interior pixel.
        for corner in [(2, 2), (9, 2), (9, 9), (2, 9)]:
            assert corner in got
        assert (5, 5) not in got

    def test_holes_outlined_too(self, holed_polygon):
        vp = Viewport(BBox(0, 0, 20, 20), 20, 20)
        xs, ys = outline_pixels(vp, holed_polygon.rings)
        got = set(zip(xs.tolist(), ys.tolist()))
        assert (5, 5) in got  # hole corner
        assert (10, 10) not in got  # deep inside the hole

    def test_deduplicated(self):
        square = Polygon([(2, 2), (4, 2), (4, 4), (2, 4)])
        xs, ys = outline_pixels(VP, square.rings)
        flat = xs * 16 + ys
        assert len(np.unique(flat)) == len(flat)

    def test_covers_error_pixels_of_rasterization(self, rng):
        """Outline pixels ⊇ pixels where coverage disagrees with PIP.

        This is the invariant the accurate join's exactness rests on.
        """
        from repro.geometry.triangulate import triangulate_polygon
        from repro.graphics.raster_triangle import covered_pixels
        from tests.conftest import random_star_polygon

        for _ in range(20):
            poly = random_star_polygon(
                rng, center=(8, 8), radius_range=(2, 7),
                vertices=int(rng.integers(5, 12)),
            )
            covered = np.zeros((16, 16), dtype=bool)
            for tri in triangulate_polygon(poly):
                xs, ys = covered_pixels(VP, tri)
                covered[ys, xs] = True
            ox, oy = outline_pixels(VP, poly.rings)
            boundary = np.zeros((16, 16), dtype=bool)
            boundary[oy, ox] = True
            cx, cy = np.meshgrid(np.arange(16) + 0.5, np.arange(16) + 0.5)
            inside = poly.contains_points(cx.ravel(), cy.ravel()).reshape(16, 16)
            mismatch = covered != inside
            assert not np.any(mismatch & ~boundary)


class TestOutlineManyAgainstTheScalarWalk:
    """The batched pass orders each edge's lattice crossings with two
    single-key sorts; its pixels must be exactly those of a per-edge
    :func:`supercover_line` loop, on the edges where ordering is
    delicate: several crossings at one parameter, or none at all."""

    RINGS = {
        # horizontal and vertical edges between pixel centers
        0: [[(1.5, 1.5), (6.5, 1.5), (6.5, 5.5), (1.5, 5.5)]],
        # every edge runs along a lattice line
        1: [[(8.0, 2.0), (13.0, 2.0), (13.0, 6.0), (8.0, 6.0)]],
        # zero-length edges (repeated vertices), on and off the lattice
        2: [[(2.0, 8.0), (2.0, 8.0), (5.25, 8.5), (5.25, 8.5), (3.0, 11.0)]],
        # diagonals through lattice corners: x- and y-crossings coincide
        3: [[(8.0, 8.0), (14.0, 14.0), (8.0, 14.0)],
            [(9.0, 12.0), (10.0, 13.0), (9.0, 13.0)]],
        # a corner crossed mid-edge at a slope other than 1, and an edge
        # that leaves the canvas
        4: [[(0.5, 12.0), (3.5, 14.0), (-2.0, 15.5)]],
        # no ring at all
        5: [],
    }

    @staticmethod
    def scalar_walk(rings):
        codes = []
        for ring in rings:
            ring = np.asarray(ring, dtype=float)
            for (ax, ay), (bx, by) in zip(ring, np.roll(ring, -1, axis=0)):
                xs, ys = supercover_line(ax, ay, bx, by, 16, 16)
                codes.append(xs * 16 + ys)
        flat = np.unique(np.concatenate(codes)) if codes else np.zeros(0, int)
        return flat // 16, flat % 16

    def test_pixel_for_pixel(self):
        rings = {pid: [np.asarray(r, dtype=float) for r in rings]
                 for pid, rings in self.RINGS.items()}
        many = outline_pixels_many(VP, rings)
        assert sorted(many) == sorted(rings)
        for pid in rings:
            want_x, want_y = self.scalar_walk(rings[pid])
            assert np.array_equal(many[pid][0], want_x), pid
            assert np.array_equal(many[pid][1], want_y), pid
        # The corner-crossing diagonal really reports both neighbours.
        got = set(zip(many[3][0].tolist(), many[3][1].tolist()))
        assert {(9, 10), (10, 9), (10, 10)} <= got

    def test_random_rings_with_lattice_vertices(self, rng):
        """Half the vertices snapped to the lattice, so edges start on,
        end on and cross corners at random."""
        rings = {}
        for pid in range(30):
            ring = rng.uniform(-1.0, 17.0, (int(rng.integers(3, 9)), 2))
            snap = rng.random(len(ring)) < 0.5
            ring[snap] = np.rint(ring[snap])
            rings[pid] = [ring]
        many = outline_pixels_many(VP, rings)
        for pid in rings:
            want_x, want_y = self.scalar_walk(rings[pid])
            assert np.array_equal(many[pid][0], want_x), pid
            assert np.array_equal(many[pid][1], want_y), pid
