"""Unit tests for repro.geometry.bbox."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.bbox import BBox


class TestConstruction:
    def test_valid(self):
        box = BBox(0, 1, 2, 3)
        assert box.width == 2 and box.height == 2

    def test_degenerate_allowed_when_zero_size(self):
        box = BBox(1, 1, 1, 1)
        assert box.area == 0

    def test_inverted_rejected(self):
        with pytest.raises(GeometryError):
            BBox(2, 0, 1, 1)
        with pytest.raises(GeometryError):
            BBox(0, 2, 1, 1)

    def test_of_points(self):
        xs = np.asarray([1.0, 5.0, 3.0])
        ys = np.asarray([2.0, -1.0, 4.0])
        box = BBox.of_points(xs, ys)
        assert box.as_tuple() == (1.0, -1.0, 5.0, 4.0)

    def test_of_points_pad(self):
        box = BBox.of_points(np.asarray([0.0, 1.0]), np.asarray([0.0, 1.0]), pad=0.5)
        assert box.as_tuple() == (-0.5, -0.5, 1.5, 1.5)

    def test_of_points_empty_raises(self):
        with pytest.raises(GeometryError):
            BBox.of_points(np.zeros(0), np.zeros(0))


class TestPredicates:
    def test_half_open_containment(self):
        box = BBox(0, 0, 10, 10)
        assert box.contains_point(0, 0)
        assert box.contains_point(9.999, 9.999)
        assert not box.contains_point(10, 5)
        assert not box.contains_point(5, 10)

    def test_contains_points_vectorized_matches_scalar(self):
        box = BBox(2, 3, 8, 9)
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 10, 500)
        ys = rng.uniform(0, 10, 500)
        vec = box.contains_points(xs, ys)
        scalar = np.asarray([box.contains_point(x, y) for x, y in zip(xs, ys)])
        assert np.array_equal(vec, scalar)

    def test_intersects_touching_edges(self):
        a = BBox(0, 0, 1, 1)
        b = BBox(1, 0, 2, 1)
        assert a.intersects(b)
        assert not a.intersects(BBox(1.01, 0, 2, 1))


class TestSetOperations:
    def test_union(self):
        assert BBox(0, 0, 1, 1).union(BBox(2, 2, 3, 3)).as_tuple() == (0, 0, 3, 3)

    def test_expanded(self):
        assert BBox(0, 0, 1, 1).expanded(2).as_tuple() == (-2, -2, 3, 3)
