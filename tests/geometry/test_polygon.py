"""Unit tests for repro.geometry.polygon."""

import numpy as np
import pytest

from repro.errors import InvalidPolygonError
from repro.geometry.polygon import Polygon, PolygonSet, rectangle
from tests.conftest import regular_polygon


class TestConstruction:
    def test_normalizes_winding(self):
        cw = Polygon([(0, 10), (10, 10), (10, 0), (0, 0)])
        from repro.geometry.predicates import orientation

        assert orientation(cw.exterior) > 0

    def test_hole_normalized_clockwise(self):
        poly = Polygon(
            [(0, 0), (20, 0), (20, 20), (0, 20)],
            holes=[[(5, 5), (15, 5), (15, 15), (5, 15)]],
        )
        from repro.geometry.predicates import orientation

        assert orientation(poly.holes[0]) < 0

    def test_closing_vertex_dropped(self):
        poly = Polygon([(0, 0), (10, 0), (10, 10), (0, 10), (0, 0)])
        assert len(poly.exterior) == 4

    def test_too_few_vertices(self):
        with pytest.raises(InvalidPolygonError):
            Polygon([(0, 0), (1, 1)])

    def test_zero_area_rejected(self):
        with pytest.raises(InvalidPolygonError):
            Polygon([(0, 0), (1, 1), (2, 2)])

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidPolygonError):
            Polygon([(0, 0), (np.nan, 1), (2, 0)])

    def test_bad_shape_rejected(self):
        with pytest.raises(InvalidPolygonError):
            Polygon(np.zeros((4, 3)))


class TestMeasures:
    def test_area_square(self, unit_square):
        assert unit_square.area == 100.0

    def test_area_with_hole(self, holed_polygon):
        assert holed_polygon.area == 400.0 - 100.0

    def test_bbox(self, concave_polygon):
        assert concave_polygon.bbox.as_tuple() == (0, 0, 10, 10)

    def test_num_vertices_counts_holes(self, holed_polygon):
        assert holed_polygon.num_vertices == 8

    def test_edges_cover_all_rings(self, holed_polygon):
        assert len(list(holed_polygon.edges())) == 8


class TestContainment:
    def test_hole_excluded(self, holed_polygon):
        assert holed_polygon.contains(2, 2)
        assert not holed_polygon.contains(10, 10)

    def test_outside_bbox_shortcut(self, unit_square):
        assert not unit_square.contains(100, 100)

    def test_vectorized_matches_scalar(self, concave_polygon, rng):
        xs = rng.uniform(-2, 12, 1000)
        ys = rng.uniform(-2, 12, 1000)
        vec = concave_polygon.contains_points(xs, ys)
        scalar = np.asarray(
            [concave_polygon.contains(x, y) for x, y in zip(xs, ys)]
        )
        assert np.array_equal(vec, scalar)

    def test_on_boundary(self, unit_square):
        assert unit_square.on_boundary(5, 0)
        assert not unit_square.on_boundary(5, 5)


class TestSimplicity:
    def test_simple(self, concave_polygon):
        assert concave_polygon.is_simple()

    def test_bowtie_not_simple(self):
        # Asymmetric bowtie: nonzero signed area (so construction passes)
        # but the first and third edges cross.
        bowtie = Polygon([(0, 0), (10, 10), (10, 0), (0, 8)])
        assert not bowtie.is_simple()


class TestHelpers:
    def test_rectangle(self):
        rect = rectangle(1, 2, 5, 7)
        assert rect.area == 20.0

    def test_regular_polygon_area_converges_to_circle(self):
        poly = regular_polygon(0, 0, 1, 256)
        assert abs(poly.area - np.pi) < 1e-3


class TestPolygonSet:
    def test_ids_are_positional(self, three_regions):
        assert len(three_regions) == 3
        assert three_regions[1] is three_regions.polygons[1]

    def test_default_names(self, three_regions):
        assert three_regions.names[0] == "region-0"

    def test_custom_names_validated(self, unit_square):
        with pytest.raises(InvalidPolygonError):
            PolygonSet([unit_square], names=["a", "b"])

    def test_bbox_union(self, three_regions):
        box = three_regions.bbox
        assert box.xmin == 10 and box.xmax == 90
        assert box.ymin == 10 and box.ymax == 95

    def test_empty_rejected(self):
        with pytest.raises(InvalidPolygonError):
            PolygonSet([])

    def test_iteration(self, three_regions):
        assert sum(1 for _ in three_regions) == 3


class TestIdentity:
    """A polygon owns frozen rings and a fingerprint computed from them
    once.  The digests are the store's keys: a change here orphans every
    artifact a store holds, so they are pinned as literals."""

    @staticmethod
    def holed() -> Polygon:
        return Polygon([(0, 0), (4, 0), (4, 3), (1, 5)],
                       holes=[[(1, 1), (2, 2), (2, 1)]])

    def test_fingerprints_are_pinned(self):
        poly = self.holed()
        polys = PolygonSet([poly, rectangle(10.0, 10.0, 12.5, 13.0)])
        assert poly.fingerprint == "892a839a72eeb4ac87c29cec9dc8ce30"
        assert polys[1].fingerprint == "b95b8ea6fa250d422d52bfbc510d8e89"
        assert polys.fingerprint == "2ffed3a16df62adf3dad250694921978"

    def test_rings_do_not_alias_the_caller(self):
        ring = np.array([(0.0, 0.0), (4.0, 0.0), (4.0, 3.0)])
        poly = Polygon(ring)
        fingerprint = poly.fingerprint
        ring[0] = (-1.0, -1.0)
        assert ring.flags.writeable
        assert poly.exterior[0].tolist() == [0.0, 0.0]
        assert Polygon(poly.exterior).fingerprint == fingerprint

    def test_rings_are_frozen(self):
        poly = self.holed()
        with pytest.raises(ValueError):
            poly.exterior[0, 0] = 9.0
        with pytest.raises(ValueError):
            poly.holes[0][0, 0] = 1.5
        edited = poly.exterior.copy()
        edited[0, 0] = -1.0
        assert Polygon(edited, holes=poly.holes).fingerprint != (
            poly.fingerprint
        )
