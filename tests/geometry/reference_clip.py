"""The scalar Sutherland–Hodgman clip, kept as a test oracle.

``repro.geometry.clip`` clips rings in vectorized passes over many rings
laid end to end (:func:`~repro.geometry.clip.clip_polygon_to_rect` is
one ring of them).  This is the vertex-by-vertex loop those passes
replaced; the suites require them to return its vertices bit for bit.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.bbox import BBox


def scalar_clip_polygon_to_rect(ring: np.ndarray, rect: BBox) -> np.ndarray:
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
