"""Axis-aligned bounding boxes.

A :class:`BBox` is the unit of spatial extent used throughout the library:
dataset extents, viewport canvases, grid-index cells, and canvas tiles are
all bounding boxes.  Containment follows half-open semantics
(``xmin <= x < xmax``) so a collection of tiles that partitions a box assigns
every point to exactly one tile — the invariant the multi-canvas rendering
of the paper's Figure 5 relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import GeometryError


@dataclass(frozen=True)
class BBox:
    """An axis-aligned rectangle ``[xmin, xmax) x [ymin, ymax)``."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if not (self.xmin <= self.xmax and self.ymin <= self.ymax):
            raise GeometryError(
                f"degenerate bbox: ({self.xmin}, {self.ymin}, "
                f"{self.xmax}, {self.ymax})"
            )

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, x: float, y: float) -> bool:
        """Half-open containment test for a single point."""
        return self.xmin <= x < self.xmax and self.ymin <= y < self.ymax

    def contains_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized half-open containment test."""
        return (
            (xs >= self.xmin)
            & (xs < self.xmax)
            & (ys >= self.ymin)
            & (ys < self.ymax)
        )

    def intersects(self, other: "BBox") -> bool:
        """Closed intersection test (shared edges count as touching)."""
        return not (
            other.xmax < self.xmin
            or other.xmin > self.xmax
            or other.ymax < self.ymin
            or other.ymin > self.ymax
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def of_points(xs: np.ndarray, ys: np.ndarray, pad: float = 0.0) -> "BBox":
        """Smallest box covering the points, optionally padded.

        A small positive ``pad`` on the max edges keeps every point strictly
        inside the half-open box, which is how dataset extents are built.
        """
        if len(xs) == 0:
            raise GeometryError("cannot build a bbox from zero points")
        return BBox(
            float(np.min(xs)) - pad,
            float(np.min(ys)) - pad,
            float(np.max(xs)) + pad,
            float(np.max(ys)) + pad,
        )

    def union(self, other: "BBox") -> "BBox":
        return BBox(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def intersection(self, other: "BBox") -> "BBox | None":
        """Overlap box, or ``None`` when the boxes are disjoint."""
        xmin = max(self.xmin, other.xmin)
        ymin = max(self.ymin, other.ymin)
        xmax = min(self.xmax, other.xmax)
        ymax = min(self.ymax, other.ymax)
        if xmin > xmax or ymin > ymax:
            return None
        return BBox(xmin, ymin, xmax, ymax)

    def expanded(self, margin: float) -> "BBox":
        """A copy grown by ``margin`` on every side."""
        return BBox(
            self.xmin - margin,
            self.ymin - margin,
            self.xmax + margin,
            self.ymax + margin,
        )

    # ------------------------------------------------------------------
    # Tiling
    # ------------------------------------------------------------------
    def split(self, nx: int, ny: int) -> Iterator["BBox"]:
        """Partition into an ``nx x ny`` grid of half-open tiles.

        Tiles are yielded row-major (y outer, x inner).  Tile edges are
        computed with linspace so the last tile's max edge equals this box's
        max edge exactly — points are never lost between tiles.
        """
        if nx < 1 or ny < 1:
            raise GeometryError(f"invalid tiling {nx} x {ny}")
        xs = np.linspace(self.xmin, self.xmax, nx + 1)
        ys = np.linspace(self.ymin, self.ymax, ny + 1)
        for j in range(ny):
            for i in range(nx):
                yield BBox(xs[i], ys[j], xs[i + 1], ys[j + 1])
