"""Unit tests for ear-clipping triangulation."""

import numpy as np
import pytest

from repro.data import generate_voronoi_regions
from repro.data.regions import NYC_REGION_EXTENT
from repro.errors import TriangulationError
from repro.geometry import predicates
from repro.geometry.polygon import Polygon, rectangle
from repro.geometry.predicates import orientation, point_in_triangle
from repro.geometry.triangulate import (
    triangulate_polygon,
    triangulate_ring,
    triangulate_set,
)
from tests.conftest import random_star_polygon, regular_polygon


def tri_area_sum(triangles) -> float:
    return sum(abs(orientation(t)) for t in triangles)


class TestTriangulateRing:
    def test_triangle_passthrough(self):
        ring = np.asarray([(0, 0), (4, 0), (0, 4)], dtype=float)
        tris = triangulate_ring(ring)
        assert len(tris) == 1

    def test_square_two_triangles(self):
        tris = triangulate_ring(np.asarray([(0, 0), (1, 0), (1, 1), (0, 1)], float))
        assert len(tris) == 2
        assert abs(tri_area_sum(tris) - 1.0) < 1e-12

    def test_concave(self, concave_polygon):
        tris = triangulate_ring(concave_polygon.exterior)
        assert abs(tri_area_sum(tris) - concave_polygon.area) < 1e-9

    def test_cw_input_normalized(self):
        ring = np.asarray([(0, 0), (1, 0), (1, 1), (0, 1)], float)[::-1]
        tris = triangulate_ring(ring)
        assert abs(tri_area_sum(tris) - 1.0) < 1e-12

    def test_collinear_vertices_tolerated(self):
        ring = np.asarray(
            [(0, 0), (5, 0), (10, 0), (10, 10), (0, 10)], dtype=float
        )
        tris = triangulate_ring(ring)
        assert abs(tri_area_sum(tris) - 100.0) < 1e-9

    def test_self_intersecting_detected_or_mismatched(self):
        """Ear clipping is not a validator: non-simple input either raises
        (no ear exists) or produces triangles whose total area disagrees
        with the shoelace area — never a silently 'correct' answer."""
        bowtie = np.asarray([(0, 0), (10, 10), (10, 0), (0, 8)], float)
        try:
            tris = triangulate_ring(bowtie)
        except TriangulationError:
            return
        shoelace = abs(orientation(bowtie))
        assert abs(tri_area_sum(tris) - shoelace) > 1e-9

    def test_no_ear_raises(self):
        # A self-intersecting ring (found by random search) on which ear
        # clipping genuinely finds no ear and must fail fast.
        ring = np.asarray(
            [
                (24.98190862, 40.76441848),
                (37.88868466, 44.02040379),
                (28.03218106, 42.91002176),
                (30.96748148, 53.30354628),
                (26.66861818, 56.53969858),
                (41.13354781, 28.72193422),
            ],
            float,
        )
        with pytest.raises(TriangulationError):
            triangulate_ring(ring)

    def test_too_few_vertices(self):
        with pytest.raises(TriangulationError):
            triangulate_ring(np.asarray([(0, 0), (1, 0)], float))


class TestTriangulatePolygon:
    def test_area_preserved_random(self, rng):
        for _ in range(50):
            poly = random_star_polygon(rng, vertices=int(rng.integers(5, 20)))
            tris = triangulate_polygon(poly)
            assert len(tris) >= len(poly.exterior) - 2 - 2  # slivers may drop
            assert abs(tri_area_sum(tris) - poly.area) < 1e-6 * poly.area

    def test_all_output_ccw(self, rng):
        poly = random_star_polygon(rng)
        for tri in triangulate_polygon(poly):
            assert orientation(tri) > 0

    def test_hole_area_excluded(self, holed_polygon):
        tris = triangulate_polygon(holed_polygon)
        assert abs(tri_area_sum(tris) - 300.0) < 1e-9

    def test_hole_not_covered(self, holed_polygon):
        tris = triangulate_polygon(holed_polygon)
        # A point inside the hole lies in no triangle.
        for tri in tris:
            assert not point_in_triangle(10, 10, *tri[0], *tri[1], *tri[2])

    def test_multiple_holes(self):
        poly = Polygon(
            [(0, 0), (30, 0), (30, 10), (0, 10)],
            holes=[
                [(2, 2), (8, 2), (8, 8), (2, 8)],
                [(12, 2), (18, 2), (18, 8), (12, 8)],
                [(22, 2), (28, 2), (28, 8), (22, 8)],
            ],
        )
        tris = triangulate_polygon(poly)
        assert abs(tri_area_sum(tris) - poly.area) < 1e-9

    @pytest.mark.parametrize("flip_x", [False, True])
    @pytest.mark.parametrize("flip_y", [False, True])
    def test_two_bridges_meeting_at_one_outer_vertex(self, flip_x, flip_y):
        """Both holes bridge to the outer vertex (90, 12): the second
        bridge must leave from the copy of it on its own side of the
        first bridge (this raised "no ear found")."""
        def mirrored(ring):
            ring = np.asarray(ring, dtype=float)
            scale = [-1.0 if flip_x else 1.0, -1.0 if flip_y else 1.0]
            return ring * scale + [100.0 * flip_x, 100.0 * flip_y]

        poly = Polygon(
            mirrored([(10, 10), (90, 12), (88, 90), (12, 85)]),
            holes=[mirrored([(30, 30), (60, 32), (55, 60), (33, 58)]),
                   mirrored([(65, 65), (80, 66), (72, 80)])],
        )
        tris = triangulate_polygon(poly)
        assert len(tris) == 13
        assert (np.asarray([orientation(t) for t in tris]) > 0).all()
        assert tri_area_sum(tris) == poly.area == 5128.0

    def test_holes_in_a_row_bridge_through_each_other(self, rng):
        """Each hole's ray runs into the previous hole or its bridge, so
        every bridge but the first starts from a duplicated vertex."""
        for _ in range(40):
            outer = random_star_polygon(rng, radius_range=(30, 48),
                                        vertices=int(rng.integers(4, 30)))
            slots = rng.permutation(5)[: int(rng.integers(2, 5))]
            holes = [
                random_star_polygon(
                    rng, center=(32.0 + 9.0 * slot, 50 + rng.uniform(-6, 6)),
                    radius_range=(1, 4), vertices=int(rng.integers(3, 9)),
                ).exterior
                for slot in slots
            ]
            if not all(outer.contains_points(h[:, 0], h[:, 1]).all()
                       for h in holes):
                continue
            poly = Polygon(outer.exterior, holes=holes)
            tris = triangulate_polygon(poly)
            assert abs(tri_area_sum(tris) - poly.area) < 1e-9 * poly.area

    def test_many_vertices(self):
        poly = regular_polygon(0, 0, 10, 100)
        tris = triangulate_polygon(poly)
        assert len(tris) == 98
        assert abs(tri_area_sum(tris) - poly.area) < 1e-9


class TestTriangulateSet:
    def test_ids_align(self, three_regions):
        tris, ids = triangulate_set(list(three_regions))
        assert len(tris) == len(ids)
        assert set(ids.tolist()) == {0, 1, 2}
        # Per-polygon triangle areas must reproduce each polygon's area.
        for pid, poly in enumerate(three_regions):
            area = tri_area_sum(tris[ids == pid])
            assert abs(area - poly.area) < 1e-9

    def test_empty(self):
        tris, ids = triangulate_set([])
        assert tris.shape == (0, 3, 2) and len(ids) == 0

    def test_no_numpy_call_per_triangle(self, monkeypatch):
        """A ledger-size zoning (96 merged-Voronoi regions + two frame
        rectangles, ~1 200 triangles) costs one ring-orientation call per
        polygon and no scalar containment call: the ear sweep runs on
        plain floats and the sliver / winding pass is one vectorised
        signed-area pass per ring (15 k and 155 k calls per six zonings
        when each ear and each triangle went through the predicates)."""
        from repro.geometry import triangulate

        box = NYC_REGION_EXTENT
        polys = list(generate_voronoi_regions(96, box, seed=3)) + [
            rectangle(box.xmin, box.ymin, 2.5, 2.5),
            rectangle(box.xmax - 2.5, box.ymax - 2.5, box.xmax, box.ymax),
        ]
        calls = {"orientation": 0, "point_in_triangle": 0}

        def counted(name, wrapped):
            def call(*args):
                calls[name] += 1
                return wrapped(*args)
            return call

        for name in calls:
            call = counted(name, getattr(predicates, name))
            monkeypatch.setattr(predicates, name, call)
            if hasattr(triangulate, name):  # imported by name
                monkeypatch.setattr(triangulate, name, call)
        tris, ids = triangulate_set(polys)
        assert len(tris) > 1000 and ids[-1] == 97
        assert calls["point_in_triangle"] == 0
        assert calls["orientation"] <= len(polys)
