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
:func:`conservative_overlaps` runs it on (triangle, pixel) pairs;
:func:`conservative_polygon_pixels` on every pixel of each triangle's
candidate block.  The one-triangle mask it replaced is the suites'
oracle (``tests/graphics/reference_raster.py``).
"""

from __future__ import annotations

import numpy as np

from repro.graphics.raster_line import sorted_unique
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


#: Candidate blocks up to this many pixels are tested pair by pair in
#: one call; a larger one gets a call of its own, which broadcasts a row
#: of columns against a column of rows.
_SMALL_BLOCK = 256


def conservative_polygon_pixels(
    viewport: Viewport, triangles: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated (ix, iy) of all pixels a triangulated polygon touches,
    ascending by ``(ix, iy)``: :func:`conservative_overlaps` over each
    triangle's candidate block."""
    tris = np.asarray(triangles, dtype=np.float64).reshape(-1, 3, 2)
    sx, sy = viewport.to_screen(tris[..., 0], tris[..., 1])
    # Closed-overlap candidate block: pixel ix spans [ix, ix+1], so it can
    # touch the triangle when ix >= min(sx) - 1 and ix <= max(sx).
    x0 = np.maximum(np.ceil(sx.min(axis=1)) - 1, 0)
    y0 = np.maximum(np.ceil(sy.min(axis=1)) - 1, 0)
    bw = np.minimum(np.floor(sx.max(axis=1)), viewport.width - 1) - x0 + 1
    bh = np.minimum(np.floor(sy.max(axis=1)), viewport.height - 1) - y0 + 1
    held = np.flatnonzero((bw > 0) & (bh > 0))
    x0, y0, bw, bh = (a[held].astype(np.int64) for a in (x0, y0, bw, bh))
    small = bw * bh <= _SMALL_BLOCK
    # Small blocks: every (pixel, triangle) pair in one call.
    count = (bw * bh)[small]
    tri = np.repeat(np.flatnonzero(small), count)
    k = np.arange(len(tri)) - np.repeat(np.cumsum(count) - count, count)
    ix, iy = x0[tri] + k % bw[tri], y0[tri] + k // bw[tri]
    hit = conservative_overlaps(viewport, tris[held], tri, ix, iy)
    flat = [ix[hit] * viewport.height + iy[hit]]
    for j in np.flatnonzero(~small).tolist():
        ix = np.arange(x0[j], x0[j] + bw[j])
        iy = np.arange(y0[j], y0[j] + bh[j])
        rows, cols = np.nonzero(conservative_overlaps(
            viewport, tris[held[j]][None], 0, ix[None, :], iy[:, None]
        ))
        flat.append(ix[cols] * viewport.height + iy[rows])
    flat = sorted_unique(np.concatenate(flat))
    return flat // viewport.height, flat % viewport.height
