"""Computational-geometry substrate.

Everything the raster-join engines need from geometry lives here: bounding
boxes, simple polygons with holes, point-in-polygon and orientation
predicates, ear-clipping triangulation, and polygon clipping.  The package
is self-contained (NumPy only) and deliberately does not depend on
shapely/GEOS so the reproduction runs anywhere.
"""

from repro.geometry.bbox import BBox
from repro.geometry.polygon import Polygon, PolygonSet
from repro.geometry.predicates import (
    orientation,
    point_in_ring,
    point_in_polygon,
    point_on_segment,
    points_in_polygon,
    segments_intersect,
)
from repro.geometry.triangulate import triangulate_polygon, triangulate_ring
from repro.geometry.clip import (
    clip_polygon_to_rect,
    ring_area,
    pixel_coverage_fraction,
)

__all__ = [
    "BBox",
    "Polygon",
    "PolygonSet",
    "orientation",
    "point_in_ring",
    "point_in_polygon",
    "point_on_segment",
    "points_in_polygon",
    "segments_intersect",
    "triangulate_polygon",
    "triangulate_ring",
    "clip_polygon_to_rect",
    "ring_area",
    "pixel_coverage_fraction",
]
