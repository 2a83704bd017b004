"""Sutherland–Hodgman clipping and the §5 pixel coverage fraction.

The paper's result-range estimator (§5/§6) clips polygon edges against
boundary pixels with Cohen–Sutherland and derives the fraction of each pixel
covered by the polygon.  For arbitrary (concave, holed) polygons the robust
way to get that fraction is to clip every *triangle* of the triangulation
against the pixel rectangle and add up areas, which is what
:func:`pixel_coverage_fraction` does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.bbox import BBox


def ring_area(ring: np.ndarray) -> float:
    """Signed shoelace area of an implicitly closed ring."""
    if len(ring) < 3:
        return 0.0
    x = ring[:, 0]
    y = ring[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def clip_polygon_to_rect(ring: np.ndarray, rect: BBox) -> np.ndarray:
    """Sutherland–Hodgman: clip a convex-or-concave ring to a rectangle.

    Correct for any simple ring clipped against a convex window (the
    rectangle).  Returns the clipped ring, possibly empty (shape (0, 2)).
    Degenerate zero-area output is possible for rings that only touch the
    rectangle boundary; callers use :func:`ring_area` to discard those.
    """
    subject = np.asarray(ring, dtype=np.float64)

    def clip_edge(points: np.ndarray, inside, intersect) -> np.ndarray:
        if len(points) == 0:
            return points
        out: list[tuple[float, float]] = []
        n = len(points)
        for i in range(n):
            cur = points[i]
            prev = points[i - 1]
            cur_in = inside(cur)
            prev_in = inside(prev)
            if cur_in:
                if not prev_in:
                    out.append(intersect(prev, cur))
                out.append((float(cur[0]), float(cur[1])))
            elif prev_in:
                out.append(intersect(prev, cur))
        return np.asarray(out, dtype=np.float64).reshape(-1, 2)

    def x_cross(p, q, x_edge):
        t = (x_edge - p[0]) / (q[0] - p[0])
        return (x_edge, float(p[1] + t * (q[1] - p[1])))

    def y_cross(p, q, y_edge):
        t = (y_edge - p[1]) / (q[1] - p[1])
        return (float(p[0] + t * (q[0] - p[0])), y_edge)

    subject = clip_edge(subject, lambda p: p[0] >= rect.xmin,
                        lambda p, q: x_cross(p, q, rect.xmin))
    subject = clip_edge(subject, lambda p: p[0] <= rect.xmax,
                        lambda p, q: x_cross(p, q, rect.xmax))
    subject = clip_edge(subject, lambda p: p[1] >= rect.ymin,
                        lambda p, q: y_cross(p, q, rect.ymin))
    subject = clip_edge(subject, lambda p: p[1] <= rect.ymax,
                        lambda p, q: y_cross(p, q, rect.ymax))
    return subject


def pixel_coverage_fraction(
    triangles: Sequence[np.ndarray], rect: BBox
) -> float:
    """Fraction of ``rect`` covered by a triangulated polygon.

    Clips each CCW triangle against the rectangle and sums the clipped
    areas.  Because the triangles partition the polygon interior, the sum is
    exactly area(polygon ∩ rect); dividing by the rectangle area yields the
    fraction f(x, y) used by the expected result intervals of §5.  A
    triangle whose bounding box misses the rectangle would clip to nothing,
    so it is skipped before the clip — the sum keeps its bits.
    """
    if rect.area <= 0.0:
        return 0.0
    tris = np.asarray(triangles, dtype=np.float64).reshape(-1, 3, 2)
    lo, hi = tris.min(axis=1), tris.max(axis=1)
    near = np.flatnonzero(
        (hi[:, 0] >= rect.xmin) & (lo[:, 0] <= rect.xmax)
        & (hi[:, 1] >= rect.ymin) & (lo[:, 1] <= rect.ymax)
    )
    covered = 0.0
    for k in near:
        clipped = clip_polygon_to_rect(tris[k], rect)
        if len(clipped) >= 3:
            covered += abs(ring_area(clipped))
    fraction = covered / rect.area
    # Clamp tiny floating-point overshoot.
    return min(max(fraction, 0.0), 1.0)
