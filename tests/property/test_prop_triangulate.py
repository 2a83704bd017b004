"""The shipped ear clipper against the frozen scalar one, bit for bit.

``tests/geometry/reference_earclip.py`` is the triangulator this
repository shipped before the cold path was rewritten over plain floats.
Coverage run order inside a polygon follows triangle order, and every
float grouping downstream follows run order, so "about the same
triangulation" is not the contract: the same triangles, in the same
order, with the same vertex order — or the same error — on every ring,
simple or not.
"""

import numpy as np
import pytest

from repro.data import generate_voronoi_regions
from repro.data.regions import NYC_REGION_EXTENT
from repro.errors import TriangulationError
from repro.geometry.polygon import Polygon, rectangle
from repro.geometry.predicates import orientation
from repro.geometry.triangulate import (
    _bridge_hole,
    triangulate_polygon,
    triangulate_ring,
)
from tests.conftest import random_star_polygon
from tests.geometry import reference_earclip as reference


def outcome(triangulate, ring):
    """The triangles as one (t, 3, 2) array, or the error's message."""
    try:
        return np.asarray(triangulate(ring), dtype=np.float64).reshape(-1, 3, 2)
    except TriangulationError as error:
        return str(error)


def assert_same_as_reference(ring) -> np.ndarray | str:
    got = outcome(triangulate_ring, ring)
    want = outcome(reference.triangulate_ring, ring)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.shape == want.shape and np.array_equal(got, want)
    return got


def area_sum(triangles) -> float:
    return sum(abs(orientation(tri)) for tri in triangles)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_ledger_size_zoning(seed):
    """96 merged-Voronoi regions and two frame rectangles: the set a
    cold ``cold_rezoning`` statement triangulates."""
    polygons = list(generate_voronoi_regions(96, NYC_REGION_EXTENT, seed=seed))
    box = NYC_REGION_EXTENT
    polygons += [rectangle(box.xmin, box.ymin, 2.5, 2.5),
                 rectangle(box.xmax - 2.5, box.ymax - 2.5, box.xmax, box.ymax)]
    for polygon in polygons:
        got = triangulate_polygon(polygon)
        want = reference.triangulate_bridged(polygon.exterior)
        assert got.shape == (len(want), 3, 2)
        assert np.array_equal(got, np.asarray(want).reshape(-1, 3, 2))
        assert abs(area_sum(got) - polygon.area) <= 1e-9 * polygon.area


def test_star_polygons_any_winding():
    rng = np.random.default_rng(7)
    for trial in range(120):
        polygon = random_star_polygon(
            rng, vertices=int(rng.integers(3, 40)),
            radius_range=(1.0, float(rng.uniform(2.0, 45.0))),
        )
        ring = polygon.exterior if trial % 2 else polygon.exterior[::-1]
        got = assert_same_as_reference(ring)
        assert abs(area_sum(got) - polygon.area) <= 1e-9 * polygon.area


def test_collinear_runs_and_repeated_vertices():
    """Vertices dropped by the zero-turn fallback and slivers dropped by
    the area filter leave the same triangles behind."""
    rng = np.random.default_rng(8)
    for _ in range(80):
        polygon = random_star_polygon(rng, vertices=int(rng.integers(3, 14)))
        ring = polygon.exterior
        rows = []
        for here, there in zip(ring, np.roll(ring, -1, axis=0)):
            rows.append(here)
            kind = rng.integers(0, 4)
            if kind == 1:  # repeated consecutive vertex
                rows.append(here)
            elif kind == 2:  # exact midpoint and quarter point: collinear run
                rows += [here + (there - here) * 0.25,
                         here + (there - here) * 0.5]
        got = assert_same_as_reference(np.asarray(rows))
        assert abs(area_sum(got) - polygon.area) <= 1e-9 * polygon.area
    grid = np.asarray([(0, 0), (1, 0), (2, 0), (4, 0), (4, 2), (4, 4),
                       (2, 4), (0, 4), (0, 3), (0, 1)], dtype=float)
    assert area_sum(assert_same_as_reference(grid)) == 16.0


@pytest.mark.parametrize("ring", [
    [(0, 0), (4, 0), (0, 4)],
    [(0, 4), (4, 0), (0, 0)],  # clockwise
    [(0, 0), (2, 2), (4, 4)],  # three collinear vertices: kept, as before
    [(0, 0), (1, 1), (2, 2), (3, 3)],  # all collinear
    [(0, 0), (5, 0), (9, 0), (4, 0), (2, 0)],
    [(1, 1), (1, 1), (1, 1), (1, 1)],
    [(0, 0), (1, 0)],
    [(3, 3)],
], ids=["triangle", "cw-triangle", "flat-triangle", "flat-4", "flat-5",
        "point-4", "two", "one"])
def test_tiny_and_flat_rings(ring):
    assert_same_as_reference(np.asarray(ring, dtype=float))


def test_rings_that_are_not_simple():
    """Ear clipping is not a validator, but it is deterministic: random
    self-intersecting rings raise the same error or clip the same ears."""
    rng = np.random.default_rng(9)
    raised = clipped = 0
    for _ in range(400):
        ring = rng.uniform(0.0, 60.0, (int(rng.integers(4, 10)), 2))
        if isinstance(assert_same_as_reference(ring), str):
            raised += 1
        else:
            clipped += 1
    assert raised > 20 and clipped > 20
    bowtie_without_an_ear = [
        (24.98190862, 40.76441848), (37.88868466, 44.02040379),
        (28.03218106, 42.91002176), (30.96748148, 53.30354628),
        (26.66861818, 56.53969858), (41.13354781, 28.72193422),
    ]
    assert "no ear found" in assert_same_as_reference(
        np.asarray(bowtie_without_an_ear)
    )


def test_bridged_one_hole_rings():
    """A bridge leaves two coincident vertex pairs and a zero-width
    corridor in the ring; the coincident-corner exemption and the sliver
    filter must treat them as the scalar clipper did."""
    rng = np.random.default_rng(10)
    for _ in range(80):
        outer = random_star_polygon(
            rng, radius_range=(25.0, 45.0), vertices=int(rng.integers(4, 24))
        )
        hole = random_star_polygon(
            rng, center=(50.0 + rng.uniform(-6, 6), 50.0 + rng.uniform(-6, 6)),
            radius_range=(1.0, 8.0), vertices=int(rng.integers(3, 10)),
        )
        polygon = Polygon(outer.exterior, holes=[hole.exterior])
        bridged = _bridge_hole(polygon.exterior, polygon.holes[0])
        assert len(bridged) == len(outer.exterior) + len(hole.exterior) + 2
        assert_same_as_reference(bridged)
        got = triangulate_polygon(polygon)
        want = reference.triangulate_bridged(bridged)
        assert np.array_equal(got, np.asarray(want).reshape(-1, 3, 2))
        assert abs(area_sum(got) - polygon.area) <= 1e-9 * polygon.area
