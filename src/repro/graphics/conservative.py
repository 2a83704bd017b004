"""Conservative triangle rasterization.

Reports every pixel whose closed square overlaps a triangle (not just those
whose center is covered).  The paper uses this — via the
``GL_NV_conservative_raster`` extension — to find the false-negative pixels
for result-range estimation: pixels the polygon touches that regular
rasterization misses.

The test is an exact separating-axis check between the pixel square and the
triangle: the candidate axes for two convex polygons are the square's two
axes (a bounding-box cut) and the triangle's three edge normals (each edge
function evaluated at the square corner deepest inside that edge).
:func:`conservative_overlaps` runs it on (triangle, pixel) pairs, for the
§5 intervals' false-negative rule (:mod:`repro.core.bounds`).  A whole
polygon's touched pixels need no overlap test: they are its outline plus
its covered pixels (:class:`repro.index.grid.GridIndex`'s exact cells).
The one-triangle mask the pairwise test replaced is the suites' oracle
(``tests/graphics/reference_raster.py``).
"""

from __future__ import annotations

import numpy as np

from repro.graphics.viewport import Viewport


def conservative_overlaps(
    viewport: Viewport, tris: np.ndarray, tri: np.ndarray | int,
    ix: np.ndarray, iy: np.ndarray,
) -> np.ndarray:
    """Whether triangle ``tris[tri[k]]`` overlaps local pixel ``(ix[k],
    iy[k])`` — every pixel square, not only those whose centre it covers
    (closed test: touching an edge or corner counts; a degenerate
    triangle touches nothing).  Set up once per triangle, evaluated per
    pair; ``tri``, ``ix`` and ``iy`` broadcast together."""
    sx, sy = viewport.to_screen(tris[..., 0], tris[..., 1])
    area2 = ((sx[:, 1] - sx[:, 0]) * (sy[:, 2] - sy[:, 0])
             - (sy[:, 1] - sy[:, 0]) * (sx[:, 2] - sx[:, 0]))
    flip = (area2 < 0)[:, None]
    sx = np.where(flip, sx[:, ::-1], sx)
    sy = np.where(flip, sy[:, ::-1], sy)
    px = np.asarray(ix, dtype=np.float64)
    py = np.asarray(iy, dtype=np.float64)
    hit = (
        (area2 != 0.0)[tri]
        & (px + 1.0 >= sx.min(axis=1)[tri]) & (px <= sx.max(axis=1)[tri])
        & (py + 1.0 >= sy.min(axis=1)[tri]) & (py <= sy.max(axis=1)[tri])
    )
    for e in range(3):
        ax, ay = sx[:, e], sy[:, e]
        dx, dy = sx[:, (e + 1) % 3] - ax, sy[:, (e + 1) % 3] - ay
        corner_x = px + np.where(dy <= 0, 1.0, 0.0)[tri]
        corner_y = py + np.where(dx >= 0, 1.0, 0.0)[tri]
        hit &= (dx[tri] * (corner_y - ay[tri])
                - dy[tri] * (corner_x - ax[tri])) >= 0.0
    return hit
