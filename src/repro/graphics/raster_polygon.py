"""Scanline polygon rasterization (fast path).

The paper rasterizes polygons as triangles because that is what GPUs
implement in hardware.  A software rasterizer is free to scan-convert the
whole polygon directly, which visits each covered pixel once instead of
once per overlapping triangle bounding box.  The engines build coverage
through the triangle path only; this fill draws the heatmap and is the
test suite's oracle for that path, which must produce identical coverage.

Coverage semantics are identical to the triangle path: a pixel is covered
iff its center lies inside the polygon under the even-odd rule, with
vertices snapped to the same sub-pixel grid.  Span endpoints computed in
floating point are re-verified with exact integer crossing tests so that
centers lying exactly on edges match the fill rule bit-for-bit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.graphics.raster_triangle import SUBPIXEL_SCALE, snap_to_subpixels
from repro.graphics.viewport import Viewport

_HALF = SUBPIXEL_SCALE // 2


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


def accumulate_polygon_sum(
    viewport: Viewport,
    channel: np.ndarray,
    rings: Iterable[np.ndarray],
) -> float:
    """Sum an FBO channel over a polygon's covered pixels (fast path)."""
    ix, iy = scanline_polygon_pixels(viewport, rings)
    if len(ix) == 0:
        return 0.0
    return float(np.sum(channel[iy, ix], dtype=np.float64))
