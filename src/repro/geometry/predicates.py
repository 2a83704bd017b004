"""Scalar and vectorized geometric predicates.

The point-in-polygon (PIP) test implemented here is the crossing-number
(even-odd) rule with half-open edge handling, the same convention as the
scanline fill the raster suites keep as their oracle
(``tests/graphics/reference_raster.py``).  Keeping the two consistent is
what lets the test suite assert "raster coverage equals PIP of the pixel
center" exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

Ring = np.ndarray  # (n, 2) float array of vertices, implicitly closed


def orientation(ring: Ring) -> float:
    """Signed area of a ring: positive for counter-clockwise vertex order.

    Uses the shoelace formula.  The ring is treated as implicitly closed
    (the last vertex connects back to the first).
    """
    x = ring[:, 0]
    y = ring[:, 1]
    nxt = np.concatenate((ring[1:], ring[:1]))
    return 0.5 * float((x * nxt[:, 1] - nxt[:, 0] * y).sum())


def point_on_segment(
    px: float, py: float, ax: float, ay: float, bx: float, by: float,
    tol: float = 0.0,
) -> bool:
    """Whether point p lies on the closed segment a-b (within ``tol``)."""
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    seg_len = max(abs(bx - ax), abs(by - ay), 1e-300)
    if abs(cross) > tol * seg_len + 1e-12 * seg_len:
        return False
    dot = (px - ax) * (bx - ax) + (py - ay) * (by - ay)
    sq_len = (bx - ax) ** 2 + (by - ay) ** 2
    return -1e-12 <= dot <= sq_len * (1 + 1e-12)


def point_in_ring(x: float, y: float, ring: Ring) -> bool:
    """Crossing-number PIP test for one point against one ring.

    An edge (a, b) is counted when it spans the horizontal line through the
    point under the half-open rule ``min(ay, by) <= y < max(ay, by)`` and the
    intersection is strictly to the right of the point.  Points exactly on
    the boundary get an arbitrary but deterministic answer; callers that
    care use :func:`point_on_ring_boundary` first.
    """
    n = len(ring)
    inside = False
    ax, ay = float(ring[n - 1, 0]), float(ring[n - 1, 1])
    for i in range(n):
        bx, by = float(ring[i, 0]), float(ring[i, 1])
        if (ay <= y < by) or (by <= y < ay):
            # x coordinate where the edge crosses the horizontal line
            t = (y - ay) / (by - ay)
            cross_x = ax + t * (bx - ax)
            if cross_x > x:
                inside = not inside
        ax, ay = bx, by
    return inside


def point_on_ring_boundary(x: float, y: float, ring: Ring, tol: float = 0.0) -> bool:
    """Whether the point lies on any edge of the ring (within ``tol``)."""
    n = len(ring)
    ax, ay = float(ring[n - 1, 0]), float(ring[n - 1, 1])
    for i in range(n):
        bx, by = float(ring[i, 0]), float(ring[i, 1])
        if point_on_segment(x, y, ax, ay, bx, by, tol=tol):
            return True
        ax, ay = bx, by
    return False


def point_in_polygon(x: float, y: float, rings: Sequence[Ring]) -> bool:
    """Even-odd PIP test for a polygon given as [exterior, *holes]."""
    crossings = 0
    for ring in rings:
        if point_in_ring(x, y, ring):
            crossings += 1
    return crossings % 2 == 1


def points_in_ring(xs: np.ndarray, ys: np.ndarray, ring: Ring) -> np.ndarray:
    """Vectorized crossing-number test of many points against one ring.

    This is the workhorse of every PIP-based join in the library; it mirrors
    :func:`point_in_ring` exactly but loops over edges instead of points so
    NumPy does the per-point work.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    inside = np.zeros(xs.shape, dtype=bool)
    n = len(ring)
    ax, ay = float(ring[n - 1, 0]), float(ring[n - 1, 1])
    for i in range(n):
        bx, by = float(ring[i, 0]), float(ring[i, 1])
        if ay != by:
            spans = ((ay <= ys) & (ys < by)) | ((by <= ys) & (ys < ay))
            if spans.any():
                t = (ys[spans] - ay) / (by - ay)
                cross_x = ax + t * (bx - ax)
                flip = np.zeros(xs.shape, dtype=bool)
                flip[spans] = cross_x > xs[spans]
                inside ^= flip
        ax, ay = bx, by
    return inside


def points_in_polygon(
    xs: np.ndarray, ys: np.ndarray, rings: Sequence[Ring]
) -> np.ndarray:
    """Vectorized even-odd test against a polygon with holes."""
    crossings = np.zeros(np.shape(xs), dtype=np.int64)
    for ring in rings:
        crossings += points_in_ring(xs, ys, ring)
    return crossings % 2 == 1


def segments_intersect(
    p1: tuple[float, float],
    p2: tuple[float, float],
    p3: tuple[float, float],
    p4: tuple[float, float],
) -> bool:
    """Whether closed segments p1-p2 and p3-p4 intersect.

    Standard orientation-based test including collinear-overlap handling;
    used by polygon validity checks and the hole-bridging triangulator.
    """

    def cross(o: tuple[float, float], a: tuple[float, float], b: tuple[float, float]) -> float:
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def on_seg(a: tuple[float, float], b: tuple[float, float], c: tuple[float, float]) -> bool:
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    d1 = cross(p3, p4, p1)
    d2 = cross(p3, p4, p2)
    d3 = cross(p1, p2, p3)
    d4 = cross(p1, p2, p4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and on_seg(p3, p4, p1):
        return True
    if d2 == 0 and on_seg(p3, p4, p2):
        return True
    if d3 == 0 and on_seg(p1, p2, p3):
        return True
    if d4 == 0 and on_seg(p1, p2, p4):
        return True
    return False


def point_in_triangle(
    x: float, y: float,
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float,
) -> bool:
    """Closed containment of a point in triangle abc (any orientation)."""
    d1 = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
    d2 = (cx - bx) * (y - by) - (cy - by) * (x - bx)
    d3 = (ax - cx) * (y - cy) - (ay - cy) * (x - cx)
    has_neg = (d1 < 0) or (d2 < 0) or (d3 < 0)
    has_pos = (d1 > 0) or (d2 > 0) or (d3 > 0)
    return not (has_neg and has_pos)
