"""The scalar rasterization kernels, kept as test oracles.

The engines rasterize whole polygon sets in flat batched passes
(``repro.graphics.raster_batch`` for triangles,
``repro.graphics.raster_line.outline_pixels_many`` for outlines).  These
are the one-triangle, one-segment and one-polygon kernels those passes
replaced: the per-triangle edge-function rasterizer with its fill-rule
bias, the per-segment supercover walk, the one-polygon outline, the
one-triangle conservative mask
(``repro.graphics.conservative.conservative_overlaps`` runs its test
pair by pair), and the per-polygon scanline fill, which scan-converts
the rings directly under the even-odd rule.
Nothing under ``src/`` imports this module; the suites require the
batched passes to return exactly what these return (the same pixels in
the same order, the same sums).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.graphics.raster_line import (
    _edge_keys,
    _supercover_numpy,
    sorted_unique,
)
from repro.graphics.raster_triangle import (
    _HALF,
    SUBPIXEL_SCALE,
    snap_to_subpixels,
)
from repro.graphics.viewport import Viewport


def _fill_rule_bias(dx: int, dy: int) -> int:
    """Bias for the E == 0 tie-break: 0 keeps the edge, -1 rejects it.

    For CCW triangles in our y-up screen space the *bottom* edges
    (``dy == 0 and dx > 0``) and *left* edges (``dy < 0``) own their pixels.
    For any directed edge and its reverse, exactly one gets bias 0 — that is
    the watertightness guarantee.
    """
    if dy < 0 or (dy == 0 and dx > 0):
        return 0
    return -1


def triangle_coverage_mask(
    viewport: Viewport, tri: np.ndarray
) -> tuple[int, int, np.ndarray]:
    """Rasterize one CCW triangle within a viewport.

    Parameters
    ----------
    viewport:
        The render target window.
    tri:
        ``(3, 2)`` world-space CCW vertices.

    Returns
    -------
    (x0, y0, mask):
        ``mask[j, i]`` is True when local pixel ``(x0 + i, y0 + j)`` is
        covered.  The mask spans only the triangle's clipped bounding box;
        it may be empty.
    """
    sx, sy = viewport.to_screen(tri[:, 0], tri[:, 1])
    fx, fy = snap_to_subpixels(sx, sy)

    # Signed doubled area in subpixel units; degenerate triangles produce
    # no fragments, matching hardware behaviour.
    area2 = (fx[1] - fx[0]) * (fy[2] - fy[0]) - (fy[1] - fy[0]) * (fx[2] - fx[0])
    if area2 == 0:
        return 0, 0, np.zeros((0, 0), dtype=bool)
    if area2 < 0:  # normalize to CCW
        fx = fx[::-1].copy()
        fy = fy[::-1].copy()

    # Clipped pixel bounding box of the snapped triangle.
    x0 = max(0, int((fx.min() - _HALF) // SUBPIXEL_SCALE))
    y0 = max(0, int((fy.min() - _HALF) // SUBPIXEL_SCALE))
    x1 = min(viewport.width - 1, int(fx.max() // SUBPIXEL_SCALE))
    y1 = min(viewport.height - 1, int(fy.max() // SUBPIXEL_SCALE))
    if x1 < x0 or y1 < y0:
        return 0, 0, np.zeros((0, 0), dtype=bool)

    # Pixel-center lattice in subpixel integer coordinates.
    cx = (np.arange(x0, x1 + 1, dtype=np.int64) * SUBPIXEL_SCALE) + _HALF
    cy = (np.arange(y0, y1 + 1, dtype=np.int64) * SUBPIXEL_SCALE) + _HALF
    gx = cx[None, :]
    gy = cy[:, None]

    mask = np.ones((y1 - y0 + 1, x1 - x0 + 1), dtype=bool)
    for e in range(3):
        ax, ay = int(fx[e]), int(fy[e])
        bx, by = int(fx[(e + 1) % 3]), int(fy[(e + 1) % 3])
        dx, dy = bx - ax, by - ay
        # Integer edge function: E > 0 strictly inside (CCW), E == 0 on the
        # edge line; the bias folds the fill rule into a single comparison.
        e_val = dx * (gy - ay) - dy * (gx - ax)
        mask &= e_val + _fill_rule_bias(dx, dy) >= 0
        if not mask.any():
            return 0, 0, np.zeros((0, 0), dtype=bool)
    return x0, y0, mask


def covered_pixels(
    viewport: Viewport, tri: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Local (ix, iy) index arrays of the pixels a triangle covers."""
    x0, y0, mask = triangle_coverage_mask(viewport, tri)
    if mask.size == 0:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    ys, xs = np.nonzero(mask)
    return xs + x0, ys + y0


def accumulate_triangle_sums(
    viewport: Viewport,
    channel: np.ndarray,
    tri: np.ndarray,
) -> float:
    """Sum a channel over a triangle's covered pixels, reduced in float64.

    This is the fragment-shader body of the paper's DrawPolygons: for each
    fragment, fetch the point-FBO value at the fragment's pixel and add it
    to the polygon's result slot.
    """
    x0, y0, mask = triangle_coverage_mask(viewport, tri)
    if mask.size == 0:
        return 0.0
    window = channel[y0:y0 + mask.shape[0], x0:x0 + mask.shape[1]]
    return float(np.sum(window, where=mask, dtype=np.float64))


def supercover_line(
    ax: float, ay: float, bx: float, by: float,
    width: int, height: int,
) -> tuple[np.ndarray, np.ndarray]:
    """All pixels of a ``width x height`` grid touched by segment a-b.

    Coordinates are continuous pixel coordinates (pixel (i, j) spans
    ``[i, i+1) x [j, j+1)``).  The traversal is clipped to the grid.  When
    the segment passes exactly through a lattice corner, all four incident
    pixels are reported — strictly conservative, never missing a touched
    pixel (the property the boundary mask requires; extras are harmless).
    """
    cols: list[int] = []
    rows: list[int] = []

    def emit(ix: int, iy: int) -> None:
        if 0 <= ix < width and 0 <= iy < height:
            cols.append(ix)
            rows.append(iy)

    dx = bx - ax
    dy = by - ay

    # Exact traversal: collect the parameter values where the segment
    # crosses vertical (x = k) and horizontal (y = k) lattice lines, plus
    # the endpoints.  Between two consecutive parameters the segment stays
    # inside one pixel — recovered from the interval midpoint — and at each
    # crossing parameter the (up to four) pixels incident to the crossing
    # point are all touched, which handles exact corner hits.
    ts: list[float] = [0.0, 1.0]
    if dx != 0.0:
        lo = int(np.ceil(min(ax, bx)))
        hi = int(np.floor(max(ax, bx)))
        for k in range(lo, hi + 1):
            t = (k - ax) / dx
            if 0.0 <= t <= 1.0:
                ts.append(t)
    if dy != 0.0:
        lo = int(np.ceil(min(ay, by)))
        hi = int(np.floor(max(ay, by)))
        for k in range(lo, hi + 1):
            t = (k - ay) / dy
            if 0.0 <= t <= 1.0:
                ts.append(t)
    ts.sort()

    eps = 1e-9 * max(1.0, abs(ax), abs(ay), abs(bx), abs(by))
    for t in ts:
        x = ax + t * dx
        y = ay + t * dy
        for ix in {int(np.floor(x - eps)), int(np.floor(x + eps))}:
            for iy in {int(np.floor(y - eps)), int(np.floor(y + eps))}:
                emit(ix, iy)
    for t0, t1 in zip(ts, ts[1:]):
        if t1 - t0 <= 0.0:
            continue
        tm = 0.5 * (t0 + t1)
        emit(int(np.floor(ax + tm * dx)), int(np.floor(ay + tm * dy)))

    if not cols:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    flat = np.asarray(cols, dtype=np.int64) * height + np.asarray(rows, dtype=np.int64)
    flat = np.unique(flat)
    return flat // height, flat % height


def _ring_edges(
    viewport: Viewport, rings: Iterable[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All ring edges as flat (ax, ay, bx, by) screen-coordinate arrays."""
    axs: list[np.ndarray] = []
    ays: list[np.ndarray] = []
    bxs: list[np.ndarray] = []
    bys: list[np.ndarray] = []
    for ring in rings:
        sx, sy = viewport.to_screen(ring[:, 0], ring[:, 1])
        axs.append(sx)
        ays.append(sy)
        bxs.append(np.roll(sx, -1))
        bys.append(np.roll(sy, -1))
    if not axs:
        empty = np.zeros(0, dtype=np.float64)
        return empty, empty, empty, empty
    return (
        np.concatenate(axs), np.concatenate(ays),
        np.concatenate(bxs), np.concatenate(bys),
    )


def outline_pixels(
    viewport: Viewport,
    rings: Iterable[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Conservative outline of a polygon: pixels touched by any ring edge.

    Returns deduplicated local (ix, iy) arrays.  This renders the paper's
    boundary FBO content for one polygon.  All edges are traversed in one
    vectorized pass, always the numpy form of the package's supercover
    (so the compiled one is held to it); the result is the same pixel set
    a per-edge :func:`supercover_line` loop produces, in the same sorted
    order (tested property).
    """
    ax, ay, bx, by = _ring_edges(viewport, rings)
    if not len(ax):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    codes = _edge_keys(
        ax, ay, bx, by, np.zeros(len(ax), dtype=np.int64),
        viewport.width, viewport.height, kernel=_supercover_numpy,
    )
    if not len(codes):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    flat = sorted_unique(codes)
    return flat // viewport.height, flat % viewport.height


def conservative_triangle_pixels(
    viewport: Viewport, tri: np.ndarray
) -> tuple[int, int, np.ndarray]:
    """Overlap mask of one triangle against the pixel grid.

    Returns ``(x0, y0, mask)``: ``mask[j, i]`` is True when the triangle
    overlaps local pixel ``(x0 + i, y0 + j)`` — every pixel square, not
    only those whose centre it covers (closed test: touching an edge or
    corner counts).
    """
    sx, sy = viewport.to_screen(tri[:, 0], tri[:, 1])
    area2 = (sx[1] - sx[0]) * (sy[2] - sy[0]) - (sy[1] - sy[0]) * (sx[2] - sx[0])
    if area2 == 0.0:
        return 0, 0, np.zeros((0, 0), dtype=bool)
    if area2 < 0:
        sx = sx[::-1].copy()
        sy = sy[::-1].copy()

    # Closed-overlap candidate block: pixel ix spans [ix, ix+1], so it can
    # touch the triangle when ix >= min(sx) - 1 and ix <= max(sx).
    x0 = max(0, int(np.ceil(sx.min())) - 1)
    y0 = max(0, int(np.ceil(sy.min())) - 1)
    x1 = min(viewport.width - 1, int(np.floor(sx.max())))
    y1 = min(viewport.height - 1, int(np.floor(sy.max())))
    if x1 < x0 or y1 < y0:
        return 0, 0, np.zeros((0, 0), dtype=bool)

    # Pixel min corners of the candidate block.
    px = np.arange(x0, x1 + 1, dtype=np.float64)[None, :]
    py = np.arange(y0, y1 + 1, dtype=np.float64)[:, None]

    mask = np.ones((y1 - y0 + 1, x1 - x0 + 1), dtype=bool)
    # Bounding-box axes (the square's axes in the SAT sense): the pixel
    # [px, px+1] x [py, py+1] must overlap the triangle bbox (closed).
    mask &= (px + 1.0 >= sx.min()) & (px <= sx.max())
    mask &= (py + 1.0 >= sy.min()) & (py <= sy.max())

    for e in range(3):
        ax, ay = float(sx[e]), float(sy[e])
        bx, by = float(sx[(e + 1) % 3]), float(sy[(e + 1) % 3])
        dx, dy = bx - ax, by - ay
        # Evaluate the edge function at the square corner most inside this
        # edge: corner x depends on sign(-dy), corner y on sign(dx).
        corner_x = px + (1.0 if dy <= 0 else 0.0)
        corner_y = py + (1.0 if dx >= 0 else 0.0)
        e_val = dx * (corner_y - ay) - dy * (corner_x - ax)
        mask &= e_val >= 0.0
        if not mask.any():
            return 0, 0, np.zeros((0, 0), dtype=bool)
    return x0, y0, mask


def _snap_rings(
    viewport: Viewport, rings: Iterable[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray]]:
    snapped = []
    for ring in rings:
        sx, sy = viewport.to_screen(ring[:, 0], ring[:, 1])
        fx, fy = snap_to_subpixels(sx, sy)
        snapped.append((fx, fy))
    return snapped


def _center_inside_exact(
    px: int, py: int, rings: Sequence[tuple[np.ndarray, np.ndarray]]
) -> bool:
    """Exact even-odd test of a subpixel lattice point, integer arithmetic.

    Counts ring edges whose open-right crossing lies strictly right of the
    point, with the half-open rule ``min(ay,by) <= py < max(ay,by)``.  The
    comparison ``cross_x > px`` is done by cross-multiplication so no
    division is involved.
    """
    inside = False
    for fx, fy in rings:
        n = len(fx)
        ax, ay = int(fx[n - 1]), int(fy[n - 1])
        for i in range(n):
            bx, by = int(fx[i]), int(fy[i])
            if (ay <= py < by) or (by <= py < ay):
                # cross_x - px = N / (by - ay) with
                # N = (bx - ax)(py - ay) - (px - ax)(by - ay)
                num = (bx - ax) * (py - ay) - (px - ax) * (by - ay)
                if (num > 0) == (by > ay) and num != 0:
                    inside = not inside
            ax, ay = bx, by
    return inside


def scanline_polygon_pixels(
    viewport: Viewport, rings: Iterable[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Covered pixels of a polygon given as rings [exterior, *holes].

    Returns local (ix, iy) arrays.  Row by row, the crossings of the ring
    edges with the row's center line are collected; pixels whose centers
    fall in odd-parity intervals are covered.  The two pixels flanking each
    span endpoint are fixed up with the exact integer test.
    """
    snapped = _snap_rings(viewport, rings)
    if not snapped:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)

    all_fy = np.concatenate([fy for _, fy in snapped])
    y_min_px = max(0, int((all_fy.min() - _HALF) // SUBPIXEL_SCALE))
    y_max_px = min(viewport.height - 1, int(all_fy.max() // SUBPIXEL_SCALE))
    if y_max_px < y_min_px:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)

    # Flatten edges once: (ax, ay, bx, by) integer arrays.
    ax_l, ay_l, bx_l, by_l = [], [], [], []
    for fx, fy in snapped:
        n = len(fx)
        ax_l.append(fx)
        ay_l.append(fy)
        bx_l.append(np.roll(fx, -1))
        by_l.append(np.roll(fy, -1))
    ax = np.concatenate(ax_l).astype(np.float64)
    ay = np.concatenate(ay_l).astype(np.float64)
    bx = np.concatenate(bx_l).astype(np.float64)
    by = np.concatenate(by_l).astype(np.float64)

    cols: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    width = viewport.width
    for j in range(y_min_px, y_max_px + 1):
        cy = j * SUBPIXEL_SCALE + _HALF  # row center in subpixel units
        spans = ((ay <= cy) & (cy < by)) | ((by <= cy) & (cy < ay))
        if not spans.any():
            continue
        t = (cy - ay[spans]) / (by[spans] - ay[spans])
        crossings = np.sort(ax[spans] + t * (bx[spans] - ax[spans]))
        if len(crossings) % 2 == 1:
            # Numerically impossible for closed rings, but guard anyway:
            # fall back to exact per-pixel tests for this row.
            row_cols = [
                i for i in range(width)
                if _center_inside_exact(i * SUBPIXEL_SCALE + _HALF, cy, snapped)
            ]
            if row_cols:
                cols.append(np.asarray(row_cols, dtype=np.int64))
                rows.append(np.full(len(row_cols), j, dtype=np.int64))
            continue
        row_cols_parts: list[np.ndarray] = []
        for k in range(0, len(crossings), 2):
            x_enter = crossings[k] / SUBPIXEL_SCALE
            x_exit = crossings[k + 1] / SUBPIXEL_SCALE
            # Centers at i + 0.5 with x_enter <= i + 0.5 < x_exit.
            i_start = max(0, int(np.ceil(x_enter - 0.5)))
            i_end = min(width - 1, int(np.ceil(x_exit - 0.5)) - 1)
            # Exact fix-up at both ends: float rounding can misplace a span
            # endpoint, possibly by several pixels on adversarial slivers.
            # Walk each endpoint with the exact integer test until it
            # agrees with the fill rule: first grow outward over covered
            # neighbours, then shrink inward while the endpoint pixel
            # itself is not covered.  The walks stop at the first failing
            # test, so they can never jump the gap to another span.
            while i_start > 0 and _center_inside_exact(
                (i_start - 1) * SUBPIXEL_SCALE + _HALF, cy, snapped
            ):
                i_start -= 1
            while i_end < width - 1 and _center_inside_exact(
                (i_end + 1) * SUBPIXEL_SCALE + _HALF, cy, snapped
            ):
                i_end += 1
            while i_start <= i_end and not _center_inside_exact(
                i_start * SUBPIXEL_SCALE + _HALF, cy, snapped
            ):
                i_start += 1
            while i_end >= i_start and not _center_inside_exact(
                i_end * SUBPIXEL_SCALE + _HALF, cy, snapped
            ):
                i_end -= 1
            if i_end >= i_start:
                row_cols_parts.append(
                    np.arange(i_start, i_end + 1, dtype=np.int64)
                )
        if row_cols_parts:
            row_cols_arr = np.unique(np.concatenate(row_cols_parts))
            cols.append(row_cols_arr)
            rows.append(np.full(len(row_cols_arr), j, dtype=np.int64))

    if not cols:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(cols), np.concatenate(rows)
