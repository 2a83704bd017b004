"""Polygon triangulation by ear clipping, with hole bridging.

The paper triangulates query polygons with clip2tri (constrained Delaunay)
before handing triangles to the GPU rasterizer.  Any triangulation produces
identical raster coverage under the top-left fill rule — Delaunay only
improves triangle aspect ratios, which matters for GPU warp efficiency, not
for results — so this reproduction uses the simpler and dependency-free
ear-clipping algorithm.  Holes are eliminated first by cutting a bridge edge
from each hole to the exterior ring (the classic approach popularized by
Eberly and by the earcut family of libraries).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import TriangulationError
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import orientation

Triangles = np.ndarray  # (t, 3, 2) float64


def _clip_ears(xs: list[float], ys: list[float]) -> list[tuple[int, int, int]]:
    """Ear-clip a CCW ring given as Python-float coordinate lists.

    Returns the ``(prev, ear, next)`` vertex-index triples in clipping
    order.  Every clip takes the first ear at the lowest ring position —
    a strictly convex corner whose closed triangle holds no other
    remaining vertex, vertices coincident with a corner exempted — and
    when a sweep finds none, the first vertex with zero turn is dropped
    instead (collinear runs).

    ``status[v]`` remembers why vertex ``v`` was not an ear — reflex, or
    blocked by a vertex that is still in the ring — which stays true
    until one of ``v``'s neighbours leaves, so a sweep re-tests only
    what a clip could have changed.
    """
    n = len(xs)
    indices = list(range(n))
    alive = [True] * n
    unknown, reflex = -1, -2
    status = [unknown] * n
    ears: list[tuple[int, int, int]] = []
    guard = 0
    # Each successful clip removes one vertex; the guard bounds the number
    # of failed sweeps so invalid input fails fast instead of spinning.
    max_guard = 2 * n * n
    while len(indices) > 3:
        m = len(indices)
        removed = -1
        for pos in range(m):
            i_curr = indices[pos]
            why = status[i_curr]
            if why == reflex or (why >= 0 and alive[why]):
                continue
            i_prev = indices[pos - 1]
            i_next = indices[pos + 1 - m]
            ax, ay = xs[i_prev], ys[i_prev]
            bx, by = xs[i_curr], ys[i_curr]
            cx, cy = xs[i_next], ys[i_next]
            abx, aby = bx - ax, by - ay
            if not abx * (cy - ay) - aby * (cx - ax) > 0:
                status[i_curr] = reflex
                continue
            bcx, bcy = cx - bx, cy - by
            cax, cay = ax - cx, ay - cy
            for k in indices:
                if k == i_prev or k == i_curr or k == i_next:
                    continue
                px, py = xs[k], ys[k]
                # Closed containment, any orientation: the arithmetic of
                # predicates.point_in_triangle.
                d1 = abx * (py - ay) - aby * (px - ax)
                d2 = bcx * (py - by) - bcy * (px - bx)
                d3 = cax * (py - cy) - cay * (px - cx)
                if (d1 < 0 or d2 < 0 or d3 < 0) and (d1 > 0 or d2 > 0 or d3 > 0):
                    continue
                # A vertex exactly coincident with an ear corner does
                # not block.
                if ((px == ax and py == ay) or (px == bx and py == by)
                        or (px == cx and py == cy)):
                    continue
                status[i_curr] = k
                break
            else:
                ears.append((i_prev, i_curr, i_next))
                removed = pos
                break
        if removed < 0:
            # Tolerate collinear runs: drop a vertex with zero turn.
            for pos in range(m):
                i_prev, i_curr, i_next = (
                    indices[pos - 1], indices[pos], indices[pos + 1 - m]
                )
                ax, ay = xs[i_prev], ys[i_prev]
                turn = (
                    (xs[i_curr] - ax) * (ys[i_next] - ay)
                    - (ys[i_curr] - ay) * (xs[i_next] - ax)
                )
                if turn == 0:
                    removed = pos
                    break
            else:
                raise TriangulationError(
                    "no ear found: ring is likely self-intersecting"
                )
        alive[indices[removed]] = False
        status[indices[removed - 1]] = status[indices[removed + 1 - m]] = unknown
        indices.pop(removed)
        guard += 1
        if guard > max_guard:
            raise TriangulationError("ear clipping did not terminate")
    ears.append(tuple(indices))
    return ears


def _signed_areas(tris: np.ndarray) -> np.ndarray:
    """``predicates.orientation`` of every triangle in one pass: the
    three shoelace terms, summed in the order ``np.sum`` adds them."""
    x, y = tris[:, :, 0], tris[:, :, 1]
    return 0.5 * (
        (x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0])
        + (x[:, 1] * y[:, 2] - x[:, 2] * y[:, 1])
        + (x[:, 2] * y[:, 0] - x[:, 0] * y[:, 2])
    )


def _clip_ring(ring: np.ndarray) -> tuple[Triangles, np.ndarray]:
    """A ring's triangles, slivers dropped, and their signed areas."""
    ring = np.asarray(ring, dtype=np.float64)
    if orientation(ring) < 0:
        ring = ring[::-1]
    n = len(ring)
    if n < 3:
        raise TriangulationError("ring has fewer than 3 vertices")
    if n == 3:
        tris = ring[np.newaxis].copy()
        return tris, _signed_areas(tris)
    ears = _clip_ears(ring[:, 0].tolist(), ring[:, 1].tolist())
    tris = ring[np.asarray(ears, dtype=np.intp)]
    areas = _signed_areas(tris)
    # Drop degenerate slivers produced by collinear input runs.
    keep = np.abs(areas) > 0.0
    return tris[keep], areas[keep]


def triangulate_ring(ring: np.ndarray) -> Triangles:
    """Triangulate one simple CCW ring by ear clipping.

    Returns the ``(t, 3, 2)`` triangles whose union is the ring's
    interior, in clipping order (``t == n - 2`` unless collinear runs
    produced slivers, which are dropped).  Raises
    :class:`TriangulationError` if no ear can be found, which indicates a
    self-intersecting or degenerate input ring.
    """
    return _clip_ring(ring)[0]


def _corner_faces(a, b, c, x: float, y: float) -> bool:
    """Whether (x, y) lies in the interior wedge of CCW-ring corner a-b-c."""
    left_in = (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0]) > 0
    left_out = (c[0] - b[0]) * (y - b[1]) - (c[1] - b[1]) * (x - b[0]) > 0
    convex = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) > 0
    return (left_in and left_out) if convex else (left_in or left_out)


def _bridge_hole(outer: np.ndarray, hole: np.ndarray) -> np.ndarray:
    """Merge a CW hole into a CCW outer ring via a bridge edge.

    Uses the standard rightmost-hole-vertex / visible-outer-vertex
    construction: find the hole vertex M with maximum x, shoot a ray towards
    +x to find the outer edge it first hits, then connect M to a visible
    reflex-free vertex of that edge's triangle.  The result is a single
    (degenerate but ear-clippable) CCW ring.
    """
    # Hole vertex with maximum x (ties broken by max y for determinism).
    hx = hole[:, 0]
    m_idx = int(np.lexsort((hole[:, 1], hx))[-1])
    mx, my = hole[m_idx]

    # Outer edges crossing the horizontal ray y = my going right from M,
    # upward ones only: in a CCW ring those have the interior — where M
    # is — on the ray's side, so of an earlier bridge's two coincident
    # edges only the one facing this hole can be hit.  The nearest hit
    # (lowest edge index among equal hits) is the edge.
    n = len(outer)
    ax, ay = outer[:, 0], outer[:, 1]
    bx, by = outer[np.arange(1, n + 1) % n].T
    spans = np.flatnonzero((ay <= my) & (my < by))
    t = (my - ay[spans]) / (by[spans] - ay[spans])
    x_hit = ax[spans] + t * (bx[spans] - ax[spans])
    x_hit = np.where(x_hit >= mx, x_hit, np.inf)
    if not (len(x_hit) and x_hit.min() < np.inf):
        raise TriangulationError("hole is not inside the outer ring")
    first = int(np.argmin(x_hit))
    best_edge = int(spans[first])
    hit_x = x_hit[first]

    # The visible vertex is the endpoint of the hit edge with larger x,
    # unless some reflex outer vertex lies inside triangle (M, hit, P) —
    # then the closest such reflex vertex (by angle) becomes the bridge.
    p_idx = best_edge if ax[best_edge] > bx[best_edge] else (best_edge + 1) % n
    px, py = outer[p_idx]

    # Closed containment of every outer vertex in (M, hit, P): the
    # arithmetic of predicates.point_in_triangle.  P and a copy of it —
    # an earlier bridge duplicated it — do not block: bridging to the
    # copy would cross that earlier bridge.
    d1 = (hit_x - mx) * (ay - my)  # the hit is level with M: no x term
    d2 = (px - hit_x) * (ay - my) - (py - my) * (ax - hit_x)
    d3 = (mx - px) * (ay - py) - (my - py) * (ax - px)
    has_neg = (d1 < 0) | (d2 < 0) | (d3 < 0)
    has_pos = (d1 > 0) | (d2 > 0) | (d3 > 0)
    blocks = ~(has_neg & has_pos) & ~(ax < mx) & ~((ax == px) & (ay == py))
    candidates = np.flatnonzero(blocks)
    if len(candidates):
        # Pick the candidate minimizing the angle to the +x axis from M
        # (ties by distance, then by ring position), which guarantees
        # visibility.
        dx, dy = ax[candidates] - mx, ay[candidates] - my
        dist = np.hypot(dx, dy)
        angle = np.abs(dy) / (dist + 1e-300)
        p_idx = int(candidates[np.lexsort((dist, angle))[0]])
        # Earlier bridges leave coincident copies of a vertex, one per
        # side of the bridge; the copy to join is the one whose corner
        # opens towards M.
        for k in np.flatnonzero((ax == ax[p_idx]) & (ay == ay[p_idx]) & blocks):
            if _corner_faces(outer[k - 1], outer[k], outer[(k + 1) % n], mx, my):
                p_idx = int(k)
                break

    # Stitch: outer[..p_idx], hole[m_idx..] + hole[..m_idx], back to outer.
    hole_cycle = np.concatenate([hole[m_idx:], hole[:m_idx + 1]], axis=0)
    merged = np.concatenate(
        [
            outer[: p_idx + 1],
            hole_cycle,
            outer[p_idx:],
        ],
        axis=0,
    )
    return merged


def triangulate_polygon(polygon: Polygon) -> Triangles:
    """Triangulate a polygon (holes included) into CCW triangles.

    The triangle list covers exactly the polygon interior; the sum of
    triangle areas equals ``polygon.area`` (property-tested).
    """
    ring = polygon.exterior
    # Holes must be merged right-to-left so earlier bridges do not cross
    # later holes: process holes by descending max-x.
    holes = sorted(polygon.holes, key=lambda h: -float(np.max(h[:, 0])))
    for hole in holes:
        ring = _bridge_hole(ring, hole)
    triangles, areas = _clip_ring(ring)
    # Normalize output to CCW so downstream edge functions can assume it.
    flip = areas < 0
    if flip.any():
        triangles[flip] = triangles[flip][:, ::-1]
    return triangles


def triangulate_set(polygons: Sequence[Polygon]) -> tuple[np.ndarray, np.ndarray]:
    """Triangulate many polygons into flat arrays for the draw pass.

    Returns ``(triangles, ids)`` where ``triangles`` is (t, 3, 2) float64 and
    ``ids[t]`` is the polygon id owning triangle t — the "same key as the
    polygon" assignment of the paper's Step II.
    """
    per_polygon = [triangulate_polygon(poly) for poly in polygons]
    counts = [len(tris) for tris in per_polygon]
    return (
        np.concatenate([np.zeros((0, 3, 2)), *per_polygon]),
        np.repeat(np.arange(len(counts), dtype=np.int64), counts),
    )
