"""Spatial indexes.

The raster-join paper needs exactly one index — a uniform grid over the
query polygons (§6.1) — used by the index-join baselines (the accurate
raster join reads its PIP candidates off the canvas and keeps only the
row-banded edge table from here).  The package also ships a point
quadtree (used by the Zhang-style materializing comparator of Table 2).
"""

from repro.index.grid import GridIndex
from repro.index.quadtree import PointQuadtree

__all__ = ["GridIndex", "PointQuadtree"]
