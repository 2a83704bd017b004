"""Sutherland–Hodgman clipping and the §5 pixel coverage fraction.

The paper's result-range estimator (§5/§6) clips polygon edges against
boundary pixels with Cohen–Sutherland and derives the fraction of each pixel
covered by the polygon.  For arbitrary (concave, holed) polygons the robust
way to get that fraction is to clip every *triangle* of the triangulation
against the pixel rectangle and add up areas, which is what
:func:`pixel_coverage_fraction` does — for every (pixel, triangle) pair
of a statement at once, the clipped rings laid end to end (a triangle
clipped by a rectangle keeps at most seven vertices), chunk by chunk.
Each pair's area is the bits :func:`clip_polygon_to_rect` and
:func:`ring_area` give it one at a time: the same passes in the same
order.  :func:`clip_polygon_to_rect` (what clips the synthetic regions
to their extent) is those passes on one ring; the vertex-by-vertex loop
they replaced is the suites' oracle (``tests/geometry/reference_clip.py``).
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


#: Pairs clipped per vectorized pass: bounds the (pairs x vertices)
#: temporaries to a few MB, whatever a statement's boundary holds.
_CHUNK = 1 << 15


def _clip_half_plane(
    x: np.ndarray, y: np.ndarray, start: np.ndarray,
    axis: int, edge: np.ndarray, lower: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Sutherland–Hodgman pass over many rings at once.

    Ring ``r`` is ``x[start[r]:start[r + 1]]`` (and ``y``'s); it keeps
    its part on the inner side of ``coordinate[axis] = edge[r]`` (``>=``
    when ``lower``, else ``<=``).  Vertex ``i`` emits the crossing from
    its predecessor when the two sides differ, then itself when inside —
    the scalar pass's output order — at a running count's offset.
    """
    ring = np.repeat(np.arange(len(start) - 1), np.diff(start))
    first, last = start[:-1], start[1:] - 1
    held = last >= first
    prev = np.arange(len(x)) - 1
    prev[first[held]] = last[held]
    coord = x if axis == 0 else y
    inside = coord >= edge[ring] if lower else coord <= edge[ring]
    cross = inside != inside[prev]
    count = cross.astype(np.int64) + inside
    end = np.cumsum(count)
    out_x = np.empty(int(end[-1]) if len(end) else 0)
    out_y = np.empty_like(out_x)
    # A crossing's two ends differ on ``axis``: no division by zero.
    c = np.flatnonzero(cross)
    p, e = prev[c], edge[ring[c]]
    slot = end[c] - count[c]
    if axis == 0:
        t = (e - x[p]) / (x[c] - x[p])
        out_x[slot], out_y[slot] = e, y[p] + t * (y[c] - y[p])
    else:
        t = (e - y[p]) / (y[c] - y[p])
        out_x[slot], out_y[slot] = x[p] + t * (x[c] - x[p]), e
    k = np.flatnonzero(inside)
    slot = end[k] - inside[k]
    out_x[slot], out_y[slot] = x[k], y[k]
    return out_x, out_y, np.concatenate([[0], end])[start]


def _clip_rings(
    x: np.ndarray, y: np.ndarray, start: np.ndarray, rects: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ring ``r`` (laid out as :func:`_clip_half_plane` reads it) clipped
    to ``rects[r]`` (``xmin, ymin, xmax, ymax``): the four passes,
    left, right, bottom, top."""
    for axis, side, lower in ((0, 0, True), (0, 2, False),
                              (1, 1, True), (1, 3, False)):
        x, y, start = _clip_half_plane(x, y, start, axis, rects[:, side],
                                       lower)
    return x, y, start


def clip_polygon_to_rect(ring: np.ndarray, rect: BBox) -> np.ndarray:
    """Sutherland–Hodgman: clip a convex-or-concave ring to a rectangle.

    Correct for any simple ring clipped against a convex window (the
    rectangle).  Returns the clipped ring, possibly empty (shape (0, 2)).
    Degenerate zero-area output is possible for rings that only touch the
    rectangle boundary; callers use :func:`ring_area` to discard those.
    """
    ring = np.asarray(ring, dtype=np.float64).reshape(-1, 2)
    x, y, _ = _clip_rings(
        ring[:, 0], ring[:, 1], np.array([0, len(ring)]),
        np.array([[rect.xmin, rect.ymin, rect.xmax, rect.ymax]],
                 dtype=np.float64),
    )
    return np.column_stack([x, y])


def _clipped_areas(tris: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """``abs(ring_area(clip_polygon_to_rect(tris[k], rects[k])))`` for
    every row ``k``, the rings laid end to end; each shoelace sum runs
    vertex by vertex from the first, as :func:`ring_area`'s short
    ``np.sum`` does."""
    x, y, start = _clip_rings(
        tris[:, :, 0].ravel(), tris[:, :, 1].ravel(),
        np.arange(len(tris) + 1) * 3, rects,
    )
    n = np.diff(start)
    held = n > 0
    nxt = np.arange(len(x)) + 1
    nxt[start[1:][held] - 1] = start[:-1][held]
    total = np.bincount(
        np.repeat(np.arange(len(tris)), n), x * y[nxt] - x[nxt] * y,
        minlength=len(tris),
    )
    return np.where(n >= 3, np.abs(0.5 * total), 0.0)


def pixel_coverage_fraction(
    triangles: Sequence[np.ndarray] | np.ndarray,
    rects: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Fraction of each rectangle covered by triangulated polygons.

    ``rects`` rows are ``(xmin, ymin, xmax, ymax)``.  ``pairs`` are
    ``(rect index, triangle index)`` arrays naming the triangles to clip
    against each rectangle, ascending by triangle within a rectangle.  A
    triangle whose bounding box misses the rectangle clips to nothing,
    so any pairing that names every triangle meeting a rectangle gives
    the same bits.  Because a polygon's CCW triangles partition its
    interior, the clipped areas sum to area(polygon ∩ rect); divided by
    the rectangle's area that is the fraction f(x, y) of §5's expected
    intervals, clamped into ``[0, 1]`` against floating-point overshoot
    (``0`` for an empty rectangle).  The areas are added per rectangle
    in pair order, so a rectangle's bits are the one-at-a-time sum's
    whatever the chunking.
    """
    tris = np.asarray(triangles, dtype=np.float64).reshape(-1, 3, 2)
    rects = np.asarray(rects, dtype=np.float64).reshape(-1, 4)
    rect_of, tri_of = pairs
    covered = np.zeros(len(rects))
    for start in range(0, len(rect_of), _CHUNK):
        part = rect_of[start:start + _CHUNK]
        np.add.at(covered, part, _clipped_areas(
            tris[tri_of[start:start + _CHUNK]], rects[part]
        ))
    area = (rects[:, 2] - rects[:, 0]) * (rects[:, 3] - rects[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        fraction = np.clip(covered / area, 0.0, 1.0)
    return np.where(area > 0.0, fraction, 0.0)
